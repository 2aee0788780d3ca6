//! Random workload generation (Section 6.1, Table 7).
//!
//! A query draws `qd` random distinct QI attributes; each predicate (QI and
//! sensitive) accepts `b = ⌈|A| · s^{1/(qd+1)}⌉` random distinct values of
//! its domain (Equation 14), so the expected selectivity under independent
//! uniform attributes is `s`.
//!
//! The paper's accuracy metric `|act − est| / act` is undefined for queries
//! whose true answer is zero; [`WorkloadSpec::generate_nonzero`] re-draws
//! such queries (recording the convention is EXPERIMENTS.md's job). The
//! plain [`WorkloadSpec::generate`] keeps every draw.

use crate::error::QueryError;
use crate::exact::evaluate_exact;
use crate::predicate::InPredicate;
use crate::query::CountQuery;
use anatomy_tables::{codec, Microdata};
use rand::rngs::StdRng;
use rand::seq::index;
use rand::SeedableRng;

/// Equation 14: the number of values per predicate,
/// `b = ⌈|A| · s^{1/(qd+1)}⌉`, clamped into `[1, |A|]`.
///
/// A selectivity outside `(0, 1]` (including NaN) is a typed
/// [`QueryError::InvalidSelectivity`] — the check holds in release builds
/// too, so a malformed workload spec surfaces as an error the caller can
/// render instead of aborting the process (and a bad `s` never silently
/// collapses every predicate to one value).
pub fn predicate_width(domain_size: u32, s: f64, qd: usize) -> Result<usize, QueryError> {
    if !(s > 0.0 && s <= 1.0) {
        return Err(QueryError::InvalidSelectivity { s });
    }
    let b = (domain_size as f64 * s.powf(1.0 / (qd as f64 + 1.0))).ceil() as usize;
    Ok(b.clamp(1, domain_size as usize))
}

/// Parameters of one workload (one cell of the paper's Table 7 grid).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Query dimensionality `qd` (1 ..= d).
    pub qd: usize,
    /// Expected selectivity `s` (0 < s <= 1), default 5% in the paper.
    pub selectivity: f64,
    /// Number of queries (the paper uses 10 000).
    pub count: usize,
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Validate against a microdata relation.
    fn check(&self, md: &Microdata) -> Result<(), QueryError> {
        if self.qd == 0 || self.qd > md.qi_count() {
            return Err(QueryError::BadSpec(format!(
                "qd = {} must be in 1..={}",
                self.qd,
                md.qi_count()
            )));
        }
        if !(self.selectivity > 0.0 && self.selectivity <= 1.0) {
            return Err(QueryError::InvalidSelectivity {
                s: self.selectivity,
            });
        }
        Ok(())
    }

    /// Draw one query. `check` has validated the spec, so the only error
    /// this can return in practice is an [`QueryError::InvalidSelectivity`]
    /// from a caller that skipped validation.
    fn draw(&self, md: &Microdata, rng: &mut StdRng) -> Result<CountQuery, QueryError> {
        let d = md.qi_count();
        let mut attrs: Vec<usize> = index::sample(rng, d, self.qd).into_iter().collect();
        attrs.sort_unstable();

        let mut qi_preds = Vec::with_capacity(attrs.len());
        for i in attrs {
            let dom = md.qi_domain_size(i);
            let b = predicate_width(dom, self.selectivity, self.qd)?;
            let values: Vec<u32> = index::sample(rng, dom as usize, b)
                .into_iter()
                .map(|v| v as u32)
                .collect();
            qi_preds.push((i, InPredicate::new(values, dom).expect("sampled in domain")));
        }

        let s_dom = md.sensitive_domain_size();
        let b = predicate_width(s_dom, self.selectivity, self.qd)?;
        let values: Vec<u32> = index::sample(rng, s_dom as usize, b)
            .into_iter()
            .map(|v| v as u32)
            .collect();
        let sens_pred = InPredicate::new(values, s_dom).expect("sampled in domain");

        Ok(CountQuery {
            qi_preds,
            sens_pred,
        })
    }

    /// Generate `count` queries (true answers may be zero).
    pub fn generate(&self, md: &Microdata) -> Result<Vec<CountQuery>, QueryError> {
        self.check(md)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.count).map(|_| self.draw(md, &mut rng)).collect()
    }

    /// Generate `count` queries whose true answer on `md` is non-zero,
    /// returning each with its exact answer. Gives up (with
    /// [`QueryError::WorkloadExhausted`]) after `20 × count` draws.
    pub fn generate_nonzero(&self, md: &Microdata) -> Result<Vec<(CountQuery, u64)>, QueryError> {
        self.generate_nonzero_with(md, |batch| {
            batch.iter().map(|q| evaluate_exact(md, q)).collect()
        })
    }

    /// Like [`WorkloadSpec::generate_nonzero`], but ground truth comes from
    /// `eval`, which answers a whole batch of queries at once (so callers
    /// can evaluate in parallel or through a
    /// [`crate::index::QueryIndex`]).
    ///
    /// This is the single nonzero-workload implementation: queries are
    /// drawn from one continuous RNG stream seeded with `self.seed`, and
    /// the result is the first `count` queries in that stream with a
    /// non-zero answer. Batching only changes *when* `eval` runs, never
    /// *which* queries are drawn — so every caller of the same spec gets
    /// the same workload, whatever evaluator it plugs in.
    ///
    /// # Panics
    ///
    /// Panics when `eval` returns a different number of answers than
    /// queries it was given.
    pub fn generate_nonzero_with(
        &self,
        md: &Microdata,
        mut eval: impl FnMut(&[CountQuery]) -> Vec<u64>,
    ) -> Result<Vec<(CountQuery, u64)>, QueryError> {
        self.check(md)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = Vec::with_capacity(self.count);
        let budget = self.count.saturating_mul(20).max(100);
        let mut drawn = 0usize;
        while out.len() < self.count && drawn < budget {
            // Oversample a little so one round usually suffices, without
            // blowing past the serial draw budget.
            let need = self.count - out.len();
            let batch_len = (need + need / 2).max(64).min(budget - drawn);
            let batch: Vec<CountQuery> = (0..batch_len)
                .map(|_| self.draw(md, &mut rng))
                .collect::<Result<_, _>>()?;
            drawn += batch_len;
            let acts = eval(&batch);
            assert_eq!(
                acts.len(),
                batch.len(),
                "batch evaluator answered {} of {} queries",
                acts.len(),
                batch.len()
            );
            for (q, act) in batch.into_iter().zip(acts) {
                if act > 0 && out.len() < self.count {
                    out.push((q, act));
                }
            }
        }
        if out.len() < self.count {
            return Err(QueryError::WorkloadExhausted {
                produced: out.len(),
                requested: self.count,
            });
        }
        Ok(out)
    }
}

/// Serialize a workload to a plain-text format, one query per line:
/// `qi<attr>=v1|v2|...;...;s=v1|v2|...`. Lets a workload generated once be
/// re-evaluated across processes or implementations.
pub fn workload_to_text(queries: &[CountQuery]) -> String {
    let mut out = codec::Writer::with_capacity(32 * queries.len());
    for q in queries {
        for (attr, pred) in &q.qi_preds {
            out.str("qi");
            out.usize(*attr);
            out.byte(b'=');
            push_values(&mut out, pred.values());
            out.byte(b';');
        }
        out.str("s=");
        push_values(&mut out, q.sens_pred.values());
        out.byte(b'\n');
    }
    out.into_string()
}

/// `v1|v2|...`.
fn push_values(out: &mut codec::Writer, values: &[u32]) {
    for (i, &v) in values.iter().enumerate() {
        if i > 0 {
            out.byte(b'|');
        }
        out.u32(v);
    }
}

/// Parse a workload produced by [`workload_to_text`], validating every
/// predicate against `md`'s domains.
///
/// Each line goes to a byte path first, which takes only plain lines and
/// reuses the previous line's QI predicates when its QI part is
/// byte-identical (a drill-down batch repeats one prefix over many
/// sensitive predicates). Every line it declines takes the `str` path,
/// which owns every error message.
pub fn workload_from_text(md: &Microdata, text: &str) -> Result<Vec<CountQuery>, QueryError> {
    let mut queries = Vec::new();
    // The QI part of the last line the byte path took, and that line's
    // query.
    let mut prefix: Option<(&[u8], usize)> = None;
    let (mut at, mut line_no) = (0, 0);
    while at < text.len() {
        let (line, next) = codec::line_at(text, at);
        at = next;
        line_no += 1;
        let bytes = line.as_bytes();
        if let Some((qi_part, query)) = scan_query(md, bytes, prefix, &queries) {
            prefix = Some((qi_part, queries.len()));
            queries.push(query);
        } else if !line.trim().is_empty() {
            queries.push(parse_query(md, line, line_no)?);
        }
    }
    Ok(queries)
}

/// The `str` path for one non-blank workload line.
fn parse_query(md: &Microdata, line: &str, line_no: usize) -> Result<CountQuery, QueryError> {
    let mut qi_preds = Vec::new();
    let mut sens_pred = None;
    for part in line.split(';') {
        let (lhs, rhs) = part
            .split_once('=')
            .ok_or_else(|| QueryError::BadSpec(format!("line {line_no}: `{part}` has no `=`")))?;
        let values: Result<Vec<u32>, _> = rhs.split('|').map(|v| v.trim().parse::<u32>()).collect();
        let values = values
            .map_err(|_| QueryError::BadSpec(format!("line {line_no}: bad value list `{rhs}`")))?;
        if lhs == "s" {
            if sens_pred.is_some() {
                return Err(QueryError::BadSpec(format!(
                    "line {line_no}: duplicate sensitive predicate"
                )));
            }
            sens_pred = Some(InPredicate::new(values, md.sensitive_domain_size())?);
        } else if let Some(attr) = lhs.strip_prefix("qi") {
            let attr: usize = attr.parse().map_err(|_| {
                QueryError::BadSpec(format!("line {line_no}: bad attribute `{lhs}`"))
            })?;
            if attr >= md.qi_count() {
                return Err(QueryError::BadSpec(format!(
                    "line {line_no}: QI attribute {attr} out of range"
                )));
            }
            if qi_preds.iter().any(|(a, _)| *a >= attr) {
                return Err(QueryError::BadSpec(format!(
                    "line {line_no}: QI attributes must be strictly increasing"
                )));
            }
            qi_preds.push((attr, InPredicate::new(values, md.qi_domain_size(attr))?));
        } else {
            return Err(QueryError::BadSpec(format!(
                "line {line_no}: unknown predicate `{lhs}`"
            )));
        }
    }
    let sens_pred = sens_pred.ok_or_else(|| {
        QueryError::BadSpec(format!("line {line_no}: missing sensitive predicate"))
    })?;
    Ok(CountQuery {
        qi_preds,
        sens_pred,
    })
}

/// The byte path for one workload line: `(qi<attr>=<values>;)*s=<values>`
/// with plain decimal numbers, QI attributes strictly increasing and in
/// range, and every value in its domain. Returns the line's QI part and
/// its query, or `None` for anything else. When the QI part equals
/// `prefix`'s, the QI predicates are copied from that earlier query.
fn scan_query<'t>(
    md: &Microdata,
    line: &'t [u8],
    prefix: Option<(&[u8], usize)>,
    done: &[CountQuery],
) -> Option<(&'t [u8], CountQuery)> {
    let sens_at = line.iter().rposition(|&b| b == b';').map_or(0, |i| i + 1);
    let (qi_part, sens_part) = line.split_at(sens_at);
    let sens_values = scan_values(sens_part.strip_prefix(b"s=")?)?;
    let qi_preds = match prefix {
        Some((bytes, q)) if bytes == qi_part => done[q].qi_preds.clone(),
        _ => scan_qi_part(md, qi_part)?,
    };
    let sens_pred = InPredicate::new(sens_values, md.sensitive_domain_size()).ok()?;
    Some((
        qi_part,
        CountQuery {
            qi_preds,
            sens_pred,
        },
    ))
}

/// The QI predicates of a byte-path line's QI part, each `qi<attr>=<values>;`.
fn scan_qi_part(md: &Microdata, qi_part: &[u8]) -> Option<Vec<(usize, InPredicate)>> {
    let mut preds: Vec<(usize, InPredicate)> = Vec::new();
    let Some(parts) = qi_part.strip_suffix(b";") else {
        return Some(preds); // no QI part: `qi_part` is empty
    };
    for part in parts.split(|&b| b == b';') {
        let rest = part.strip_prefix(b"qi")?;
        let eq = rest.iter().position(|&b| b == b'=')?;
        let attr = scan_number(&rest[..eq])? as usize;
        if attr >= md.qi_count() || preds.last().is_some_and(|&(a, _)| a >= attr) {
            return None;
        }
        let values = scan_values(&rest[eq + 1..])?;
        preds.push((
            attr,
            InPredicate::new(values, md.qi_domain_size(attr)).ok()?,
        ));
    }
    Some(preds)
}

/// `v1|v2|...`, each a plain decimal `u32`.
fn scan_values(bytes: &[u8]) -> Option<Vec<u32>> {
    bytes
        .split(|&b| b == b'|')
        .map(|field| scan_number(field).and_then(|v| u32::try_from(v).ok()))
        .collect()
}

/// A non-empty run of ASCII digits whose value fits a `u32`, as a `u64`.
fn scan_number(bytes: &[u8]) -> Option<u64> {
    if bytes.is_empty() {
        return None;
    }
    let mut v = 0u64;
    for &b in bytes {
        if !b.is_ascii_digit() {
            return None;
        }
        v = v * 10 + u64::from(b - b'0');
        if v > u64::from(u32::MAX) {
            return None;
        }
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anatomy_tables::{Attribute, Schema, TableBuilder};

    fn md(n: usize) -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("A", 78),
            Attribute::categorical("B", 2),
            Attribute::numerical("C", 17),
            Attribute::categorical("S", 50),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..n as u32 {
            b.push_row(&[i % 78, i % 2, (i / 3) % 17, (i * 7) % 50])
                .unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 3).unwrap()
    }

    #[test]
    fn predicate_width_follows_eq_14() {
        // |A| = 78, s = 5%, qd = 2: b = ceil(78 * 0.05^(1/3)) = ceil(28.7).
        assert_eq!(predicate_width(78, 0.05, 2).unwrap(), 29);
        // Full selectivity accepts the whole domain.
        assert_eq!(predicate_width(10, 1.0, 1).unwrap(), 10);
        // Tiny domains never drop below one value.
        assert_eq!(predicate_width(2, 0.0001, 1).unwrap(), 1);
    }

    #[test]
    fn generate_produces_count_queries_with_qd_predicates() {
        let md = md(500);
        let spec = WorkloadSpec {
            qd: 2,
            selectivity: 0.05,
            count: 25,
            seed: 1,
        };
        let qs = spec.generate(&md).unwrap();
        assert_eq!(qs.len(), 25);
        for q in &qs {
            assert_eq!(q.qd(), 2);
            // attribute indices strictly increasing and within d
            for w in q.qi_preds.windows(2) {
                assert!(w[0].0 < w[1].0);
            }
            assert!(q.qi_preds.iter().all(|(i, _)| *i < 3));
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let md = md(200);
        let spec = WorkloadSpec {
            qd: 1,
            selectivity: 0.05,
            count: 10,
            seed: 7,
        };
        let a = spec.generate(&md).unwrap();
        let b = spec.generate(&md).unwrap();
        assert_eq!(a, b);
        let c = WorkloadSpec { seed: 8, ..spec }.generate(&md).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn predicate_width_rejects_bad_selectivity_with_typed_errors() {
        // These used to abort the process via a release-mode assert; a
        // malformed spec must instead surface as an error the CLI/bench
        // drivers can render.
        assert!(matches!(
            predicate_width(78, 0.0, 2),
            Err(QueryError::InvalidSelectivity { s }) if s == 0.0
        ));
        assert!(matches!(
            predicate_width(78, 1.5, 2),
            Err(QueryError::InvalidSelectivity { .. })
        ));
        assert!(matches!(
            predicate_width(78, f64::NAN, 2),
            Err(QueryError::InvalidSelectivity { s }) if s.is_nan()
        ));
    }

    #[test]
    fn bad_selectivity_propagates_through_nonzero_generation() {
        let md = md(100);
        let spec = WorkloadSpec {
            qd: 1,
            selectivity: f64::NAN,
            count: 5,
            seed: 0,
        };
        assert!(matches!(
            spec.generate_nonzero_with(&md, |batch| vec![1; batch.len()]),
            Err(QueryError::InvalidSelectivity { .. })
        ));
    }

    /// The batched generator is THE nonzero-workload implementation: for a
    /// given spec it must select exactly the queries a one-at-a-time
    /// reference selects — the first `count` draws of the seed's stream
    /// with non-zero answers — no matter how evaluation is batched.
    #[test]
    fn batched_nonzero_generation_matches_serial_reference() {
        let md = md(500);
        for (qd, seed) in [(1, 3u64), (2, 3), (3, 9), (2, 77)] {
            let spec = WorkloadSpec {
                qd,
                selectivity: 0.05,
                count: 30,
                seed,
            };
            // Serial reference: draw singly from one stream, keep nonzero.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference = Vec::new();
            while reference.len() < spec.count {
                let q = spec.draw(&md, &mut rng).unwrap();
                let act = evaluate_exact(&md, &q);
                if act > 0 {
                    reference.push((q, act));
                }
            }
            assert_eq!(
                spec.generate_nonzero(&md).unwrap(),
                reference,
                "qd {qd} seed {seed}"
            );
        }
    }

    #[test]
    fn batch_evaluator_size_mismatch_panics() {
        let md = md(200);
        let spec = WorkloadSpec {
            qd: 1,
            selectivity: 0.05,
            count: 5,
            seed: 0,
        };
        let res = std::panic::catch_unwind(|| {
            let _ = spec.generate_nonzero_with(&md, |_| vec![1]);
        });
        assert!(res.is_err());
    }

    #[test]
    fn nonzero_generation_filters_empty_answers() {
        let md = md(500);
        let spec = WorkloadSpec {
            qd: 2,
            selectivity: 0.05,
            count: 20,
            seed: 3,
        };
        let qs = spec.generate_nonzero(&md).unwrap();
        assert_eq!(qs.len(), 20);
        for (q, act) in &qs {
            assert!(*act > 0);
            assert_eq!(evaluate_exact(&md, q), *act);
        }
    }

    #[test]
    fn bad_specs_rejected() {
        let md = md(100);
        assert!(WorkloadSpec {
            qd: 0,
            selectivity: 0.05,
            count: 1,
            seed: 0
        }
        .generate(&md)
        .is_err());
        assert!(WorkloadSpec {
            qd: 4,
            selectivity: 0.05,
            count: 1,
            seed: 0
        }
        .generate(&md)
        .is_err());
        assert!(WorkloadSpec {
            qd: 1,
            selectivity: 0.0,
            count: 1,
            seed: 0
        }
        .generate(&md)
        .is_err());
        assert!(WorkloadSpec {
            qd: 1,
            selectivity: 1.5,
            count: 1,
            seed: 0
        }
        .generate(&md)
        .is_err());
    }

    #[test]
    fn exhaustion_reported_on_empty_microdata() {
        let md = md(0);
        let spec = WorkloadSpec {
            qd: 1,
            selectivity: 0.05,
            count: 5,
            seed: 0,
        };
        assert!(matches!(
            spec.generate_nonzero(&md),
            Err(QueryError::WorkloadExhausted {
                produced: 0,
                requested: 5
            })
        ));
    }

    #[test]
    fn workload_text_round_trips() {
        let md = md(300);
        let spec = WorkloadSpec {
            qd: 2,
            selectivity: 0.05,
            count: 15,
            seed: 9,
        };
        let queries = spec.generate(&md).unwrap();
        let text = workload_to_text(&queries);
        let back = workload_from_text(&md, &text).unwrap();
        assert_eq!(back, queries);
    }

    #[test]
    fn workload_text_rejects_malformed_lines() {
        let md = md(50);
        assert!(workload_from_text(&md, "nonsense\n").is_err());
        assert!(workload_from_text(&md, "qi0=1;qi0=2;s=0\n").is_err()); // dup attr
        assert!(workload_from_text(&md, "qi9=1;s=0\n").is_err()); // attr OOR
        assert!(workload_from_text(&md, "qi0=1\n").is_err()); // no sensitive
        assert!(workload_from_text(&md, "qi0=999;s=0\n").is_err()); // value OOR
        assert!(workload_from_text(&md, "qi0=x;s=0\n").is_err()); // bad number
        assert!(workload_from_text(&md, "").unwrap().is_empty());
    }

    /// `workload_to_text` as it was before the codec: `write!` per value.
    /// The oracle of the writer test below.
    fn workload_to_text_by_fmt(queries: &[CountQuery]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for q in queries {
            for (attr, pred) in &q.qi_preds {
                let _ = write!(out, "qi{attr}=");
                for (i, v) in pred.values().iter().enumerate() {
                    if i > 0 {
                        out.push('|');
                    }
                    let _ = write!(out, "{v}");
                }
                out.push(';');
            }
            let _ = write!(out, "s=");
            for (i, v) in q.sens_pred.values().iter().enumerate() {
                if i > 0 {
                    out.push('|');
                }
                let _ = write!(out, "{v}");
            }
            out.push('\n');
        }
        out
    }

    /// `workload_from_text` with the `str` path on every line: the oracle
    /// of the reader tests below.
    fn workload_from_text_by_str(
        md: &Microdata,
        text: &str,
    ) -> Result<Vec<CountQuery>, QueryError> {
        let mut queries = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            if !line.trim().is_empty() {
                queries.push(parse_query(md, line, idx + 1)?);
            }
        }
        Ok(queries)
    }

    /// Assert that the byte path and the `str` oracle agree on `text`: the
    /// same queries, or the same error text with the same line number.
    fn assert_parses_like_the_str_path(md: &Microdata, text: &str) {
        let fast = workload_from_text(md, text).map_err(|e| e.to_string());
        let by_str = workload_from_text_by_str(md, text).map_err(|e| e.to_string());
        assert_eq!(fast, by_str, "text {text:?}");
    }

    #[test]
    fn workload_text_matches_a_format_oracle() {
        use rand::RngExt;
        // InPredicate keeps a mask as large as its domain, so domains stop
        // at 65 537 here; attribute indices go past `u32::MAX`.
        const DOMAINS: &[u32] = &[1, 9, 10, 11, 99, 100, 101, 65_535, 65_536, 65_537];
        let edges: Vec<u32> = (0..6)
            .flat_map(|d| {
                let p = 10u32.pow(d);
                [p - 1, p, p + 1]
            })
            .chain([65_534, 65_535, 65_536])
            .collect();
        let mut rng = StdRng::seed_from_u64(21);
        let pred = |rng: &mut StdRng| {
            let domain = DOMAINS[rng.random_range(0..DOMAINS.len())];
            let values: Vec<u32> = (0..rng.random_range(1..6usize))
                .map(|_| {
                    let e = edges[rng.random_range(0..edges.len())];
                    if e < domain {
                        e
                    } else {
                        rng.random_range(0..domain)
                    }
                })
                .collect();
            InPredicate::new(values, domain).unwrap()
        };
        for _ in 0..64 {
            let queries: Vec<CountQuery> = (0..rng.random_range(0..8usize))
                .map(|_| {
                    let mut attr = 0usize;
                    let qi_preds = (0..rng.random_range(0..4usize))
                        .map(|_| {
                            attr += [1, 9, 90, 4_294_967_296][rng.random_range(0..4usize)];
                            (attr, pred(&mut rng))
                        })
                        .collect();
                    CountQuery {
                        qi_preds,
                        sens_pred: pred(&mut rng),
                    }
                })
                .collect();
            assert_eq!(
                workload_to_text(&queries),
                workload_to_text_by_fmt(&queries)
            );
        }
    }

    #[test]
    fn prefix_reuse_parses_like_the_str_path() {
        let md = md(50);
        // A batch alternating two QI prefixes, and one repeating a prefix.
        let mut batch = String::new();
        for s in 0..50 {
            let prefix = if s % 2 == 0 {
                "qi0=1|5|9;qi2=3;"
            } else {
                "qi1=1;"
            };
            batch += &format!("{prefix}s={s}\n");
        }
        for s in 0..10 {
            batch += &format!("qi0=7;qi1=0|1;qi2=16;s={s}|{}\n", s + 1);
        }
        assert_parses_like_the_str_path(&md, &batch);
        assert_eq!(workload_from_text(&md, &batch).unwrap().len(), 60);
        // The same set in different bytes is parsed, not reused, and lands
        // on the same predicate.
        let text = "qi0=3|1;s=0\nqi0=1|3;s=1\nqi0=1|3|1;s=2\n";
        assert_parses_like_the_str_path(&md, text);
        let qs = workload_from_text(&md, text).unwrap();
        assert!(qs.iter().all(|q| q.qi_preds == qs[0].qi_preds));
        // Prefixes of one length but other bytes are parsed, not reused.
        let text = "qi0=1;s=0\nqi0=2;s=0\nqi1=1;s=0\nqi2=1;s=0\n";
        assert_parses_like_the_str_path(&md, text);
        let qs = workload_from_text(&md, text).unwrap();
        assert_eq!(qs[1].qi_preds[0].1.values(), &[2]);
        assert_eq!(qs[2].qi_preds[0].0, 1);
        // A reused prefix still meets the line's own errors.
        assert_parses_like_the_str_path(&md, "qi0=2;s=1\nqi0=2;s=50\n");
        assert_parses_like_the_str_path(&md, "qi0=2;s=1\nqi0=2;s=1;s=2\n");
    }

    #[test]
    fn the_byte_path_accepts_no_more_than_the_str_path() {
        let md = md(50);
        for text in [
            "qi 0=1;s=0\n",
            "qi+0=1;s=0\n",
            "qi00=1;s=0\n",
            "qi0=+1;s=0\n",
            "qi0= 1;s=0\n",
            "qi0=1 ;s=0\n",
            "qi0=1\t;s=0\r\n",
            "qi-0=1;s=0\n",
            "qi0=1|;s=0\n",
            "qi0=|1;s=0\n",
            "qi0=;s=0\n",
            "qi0=1;;s=0\n",
            "qi0=1;s=0;\n",
            "s=0;qi0=1\n",
            "s= 0\n",
            "s=0\u{a0}\n",
            "s=4294967295\n",
            "s=4294967296\n",
            "s=1=2\n",
            "qi0=1=2;s=0\n",
            "qi99999999999999999999=1;s=0\n",
            "qi3=1;s=0\n",
            "qi1=1;qi0=1;s=0\n",
            "qi0=77;s=49\n",
            "qi0=78;s=0\n",
            "\u{a0}\n \t\r\ns=1\r\n\r\n",
            "s=0\ns=1",
        ] {
            assert_parses_like_the_str_path(&md, text);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]
            /// On lines joined from well-formed and malformed parts, with
            /// blank lines and CRLF, the byte path returns what the `str`
            /// oracle returns: the same queries, or the same error text.
            #[test]
            fn workload_from_text_agrees_with_the_str_path(
                lines in proptest::collection::vec(
                    (proptest::collection::vec(0..PART.len(), 0..4), 0..SENS.len()),
                    0..8,
                ),
                crlf in 0u8..3,
            ) {
                let md = md(50);
                let mut text = String::new();
                for (i, (parts, sens)) in lines.iter().enumerate() {
                    let mut line: Vec<&str> = parts.iter().map(|&p| PART[p]).collect();
                    line.push(SENS[*sens]);
                    text += &line.join(";");
                    if !(i + 1 == lines.len() && crlf == 2) {
                        text += if crlf == 1 { "\r\n" } else { "\n" };
                    }
                }
                let fast = workload_from_text(&md, &text).map_err(|e| e.to_string());
                let by_str = workload_from_text_by_str(&md, &text).map_err(|e| e.to_string());
                prop_assert_eq!(fast, by_str, "text {:?}", text);
            }
        }
    }

    // QI parts for the reader property, plain ones weighted up.
    const PART: &[&str] = &[
        "qi0=3|1",
        "qi0=3|1",
        "qi1=0",
        "qi1=0|1",
        "qi2=5|5|16",
        "qi0=1|3",
        "qi 0=1",
        "qi+0=1",
        "qi00=2",
        "qi1=x",
        "qi9=1",
        "qi0=999",
        "qi1= 1",
        "qi0=1|",
        "",
        "x=1",
        "qi0",
        "qi-1=0",
        "qi1=1\t",
        "s=2",
        "qi2=4294967296",
    ];
    // Sensitive parts, and a few things that are not.
    const SENS: &[&str] = &[
        "s=1",
        "s=0|49",
        "s=7",
        "s= 2",
        "s=+3",
        "s=4294967295",
        "s=4294967296",
        "s=",
        "s=1=2",
        "\u{a0}",
        "",
        "s=50",
        "s=1|1",
    ];

    #[test]
    fn observed_selectivity_is_in_the_right_ballpark() {
        // On roughly uniform independent data the mean observed selectivity
        // should be within a factor ~3 of the nominal s.
        let md = md(5000);
        let spec = WorkloadSpec {
            qd: 2,
            selectivity: 0.05,
            count: 60,
            seed: 11,
        };
        let qs = spec.generate(&md).unwrap();
        let mean: f64 = qs
            .iter()
            .map(|q| evaluate_exact(&md, q) as f64 / md.len() as f64)
            .sum::<f64>()
            / qs.len() as f64;
        assert!(
            (0.015..=0.15).contains(&mean),
            "mean observed selectivity {mean} far from nominal 0.05"
        );
    }
}
