//! Serializing and auditing a published release.
//!
//! A data publisher hands researchers two flat files — the QIT and the ST.
//! This module writes them as CSV (group ids 1-based, as in the paper's
//! Table 3) and reads them back with full validation, so a *consumer* of a
//! release can independently verify the publisher's l-diversity claim
//! before relying on the privacy guarantee (Definition 2 is checkable from
//! the ST alone; consistency between the files is checkable from their
//! group ids).

use crate::error::CoreError;
use crate::partition::GroupId;
use crate::published::{AnatomizedTables, StRecord};
use anatomy_tables::codec::{self, digits, Scan};
use anatomy_tables::{Schema, TableBuilder, TablesError, Value};

/// Serialize the QIT as CSV: QI attribute names + `Group-ID` header, value
/// codes per row, 1-based group ids.
pub fn qit_to_csv(tables: &AnatomizedTables) -> String {
    let schema = tables.qi_table().schema();
    let d = tables.qi_count();
    let columns: Vec<&[u32]> = (0..d)
        .map(|i| tables.qi_codes(i))
        .chain([tables.group_ids()])
        .collect();
    let texts: Vec<codec::CodeText> = (0..d)
        .map(|i| codec::CodeText::new(tables.qi_domain_size(i), b','))
        .chain([codec::CodeText::new(group_id_domain(tables), b'\n')])
        .collect();
    // Codes sit below their domain sizes and 1-based ids at most at the
    // group count, which bounds every row's width.
    let row_bytes: usize = schema
        .attributes()
        .iter()
        .map(|a| digits(a.domain_size().saturating_sub(1)) + 1)
        .sum::<usize>()
        + digits(tables.group_count() as u32)
        + 1;
    let header = schema.names().join(",") + ",Group-ID\n";
    let mut out = codec::Writer::with_capacity(header.len() + tables.len() * row_bytes);
    out.str(&header);
    // The last column holds the 0-based group ids.
    out.rows(&texts, 0..tables.len(), |r, k| {
        columns[k][r] + u32::from(k == d)
    });
    out.into_string()
}

/// Serialize the ST as CSV: `Group-ID,As,Count`, 1-based group ids.
pub fn st_to_csv(tables: &AnatomizedTables) -> String {
    let st = tables.st_records();
    let (max_value, max_count) = st
        .iter()
        .fold((0, 0), |(v, c), r| (r.value.code().max(v), r.count.max(c)));
    let row_bytes = digits(tables.group_count() as u32) + digits(max_value) + digits(max_count) + 3;
    let header = "Group-ID,As,Count\n";
    let texts = [
        codec::CodeText::new(group_id_domain(tables), b','),
        codec::CodeText::new(max_value.saturating_add(1), b','),
        codec::CodeText::new(max_count.saturating_add(1), b'\n'),
    ];
    let mut out = codec::Writer::with_capacity(header.len() + st.len() * row_bytes);
    out.str(header);
    out.rows(&texts, 0..st.len(), |r, k| match k {
        0 => st[r].group + 1,
        1 => st[r].value.code(),
        _ => st[r].count,
    });
    out.into_string()
}

/// The codes a release's 1-based group ids fall below.
fn group_id_domain(tables: &AnatomizedTables) -> u32 {
    u32::try_from(tables.group_count())
        .unwrap_or(u32::MAX)
        .saturating_add(1)
}

fn csv_err(line: usize, message: impl Into<String>) -> CoreError {
    CoreError::Tables(TablesError::Csv {
        line,
        message: message.into(),
    })
}

/// Parse and validate a release.
///
/// `qi_schema` describes the QI attributes (names and domains) the release
/// claims; `l` is the diversity level the release claims. Every invariant
/// of [`AnatomizedTables::from_parts`] is enforced, so a successful parse
/// *is* the audit: the returned tables provably bound every adversary at
/// `1/l` (Corollary 1 / Theorem 1).
pub fn parse_release(
    qi_schema: Schema,
    qit_csv: &str,
    st_csv: &str,
    l: usize,
) -> Result<AnatomizedTables, CoreError> {
    let (qit, group_ids, st) = parse_release_parts(qi_schema, qit_csv, st_csv)?;
    AnatomizedTables::from_parts(qit, group_ids, st, l)
}

/// Parse a release's files *without* semantic validation.
///
/// Only the CSV syntax and schema agreement are checked; the returned raw
/// parts may violate every invariant of [`AnatomizedTables::from_parts`].
/// This is the entry point for auditors (`anatomy-audit`,
/// `anatomy verify`) that want to inspect a possibly-corrupt release and
/// report *which* invariant broke, rather than having the strict
/// constructor reject it wholesale.
#[allow(clippy::type_complexity)]
pub fn parse_release_parts(
    qi_schema: Schema,
    qit_csv: &str,
    st_csv: &str,
) -> Result<(anatomy_tables::Table, Vec<GroupId>, Vec<StRecord>), CoreError> {
    let d = qi_schema.width();

    // ---- QIT ----
    // Rows are scanned in place; lines the scanner declines are cut as
    // `str::lines` cuts them and take the `str` path, which owns every
    // syntax error.
    if qit_csv.is_empty() {
        return Err(csv_err(1, "missing QIT header"));
    }
    let (header, mut at) = codec::line_at(qit_csv, 0);
    let expected: Vec<&str> = qi_schema.names().into_iter().chain(["Group-ID"]).collect();
    let got: Vec<&str> = header.split(',').collect();
    if got != expected {
        return Err(csv_err(1, format!("QIT header {got:?} != {expected:?}")));
    }
    let mut builder = TableBuilder::new(qi_schema);
    let mut group_ids: Vec<GroupId> = Vec::new();
    // QI codes then the group id.
    let mut row = vec![0u32; d + 1];
    let mut line_no = 1;
    while at < qit_csv.len() {
        line_no += 1;
        if let Scan::Row(len) = codec::scan_row(&qit_csv.as_bytes()[at..], true, &mut row) {
            at += len;
        } else {
            let (line, next) = codec::line_at(qit_csv, at);
            at = next;
            if line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split(',');
            for slot in row[..d].iter_mut() {
                let f = fields
                    .next()
                    .ok_or_else(|| csv_err(line_no, "too few QIT fields"))?;
                *slot = f
                    .trim()
                    .parse()
                    .map_err(|_| csv_err(line_no, format!("bad code `{f}`")))?;
            }
            row[d] = fields
                .next()
                .ok_or_else(|| csv_err(line_no, "missing Group-ID"))?
                .trim()
                .parse()
                .map_err(|_| csv_err(line_no, "bad Group-ID"))?;
            if fields.next().is_some() {
                return Err(csv_err(line_no, "too many QIT fields"));
            }
        }
        let (codes, g) = (&row[..d], row[d]);
        if g == 0 {
            return Err(csv_err(line_no, "Group-ID must be 1-based"));
        }
        builder
            .push_row(codes)
            .map_err(|e| csv_err(line_no, e.to_string()))?;
        group_ids.push(g - 1);
    }
    let qit = builder.finish();

    // ---- ST ----
    let mut st: Vec<StRecord> = Vec::new();
    if st_csv.is_empty() {
        return Err(csv_err(1, "missing ST header"));
    }
    let (header, mut at) = codec::line_at(st_csv, 0);
    if header.split(',').collect::<Vec<_>>() != ["Group-ID", "As", "Count"] {
        return Err(csv_err(
            1,
            format!("ST header `{header}` != Group-ID,As,Count"),
        ));
    }
    let mut rec = [0u32; 3];
    let mut line_no = 1;
    while at < st_csv.len() {
        line_no += 1;
        if let Scan::Row(len) = codec::scan_row(&st_csv.as_bytes()[at..], true, &mut rec) {
            at += len;
        } else {
            let (line, next) = codec::line_at(st_csv, at);
            at = next;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 3 {
                return Err(csv_err(line_no, "ST records have exactly 3 fields"));
            }
            let g: u32 = fields[0]
                .trim()
                .parse()
                .map_err(|_| csv_err(line_no, "bad Group-ID"))?;
            if g == 0 {
                return Err(csv_err(line_no, "Group-ID must be 1-based"));
            }
            let v: u32 = fields[1]
                .trim()
                .parse()
                .map_err(|_| csv_err(line_no, "bad sensitive code"))?;
            let c: u32 = fields[2]
                .trim()
                .parse()
                .map_err(|_| csv_err(line_no, "bad count"))?;
            rec = [g, v, c];
        }
        let [g, v, c] = rec;
        if g == 0 {
            return Err(csv_err(line_no, "Group-ID must be 1-based"));
        }
        st.push(StRecord {
            group: g - 1,
            value: Value(v),
            count: c,
        });
    }

    Ok((qit, group_ids, st))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anatomize::{anatomize, AnatomizeConfig};
    use anatomy_tables::{Attribute, Microdata, Schema, TableBuilder};

    fn publication() -> (Schema, AnatomizedTables) {
        let schema = Schema::new(vec![
            Attribute::numerical("Age", 100),
            Attribute::categorical("S", 6),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..30u32 {
            b.push_row(&[i * 3 % 100, i % 6]).unwrap();
        }
        let md = Microdata::with_leading_qi(b.finish(), 1).unwrap();
        let p = anatomize(&md, &AnatomizeConfig::new(3)).unwrap();
        let tables = AnatomizedTables::publish(&md, &p, 3).unwrap();
        let qi_schema = md.table().schema().project(&[0]).unwrap();
        (qi_schema, tables)
    }

    #[test]
    fn round_trip_preserves_the_release() {
        let (schema, tables) = publication();
        let qit_csv = qit_to_csv(&tables);
        let st_csv = st_to_csv(&tables);
        let back = parse_release(schema, &qit_csv, &st_csv, 3).unwrap();
        assert_eq!(back, tables);
    }

    #[test]
    fn csv_uses_one_based_group_ids() {
        let (_, tables) = publication();
        let qit_csv = qit_to_csv(&tables);
        // No QIT row carries group id 0 in the file.
        for line in qit_csv.lines().skip(1) {
            let gid: u32 = line.rsplit(',').next().unwrap().parse().unwrap();
            assert!(gid >= 1);
        }
        let st_csv = st_to_csv(&tables);
        assert!(st_csv.starts_with("Group-ID,As,Count"));
    }

    /// 100 groups of two over one QI column: QI codes run 0..200, 1-based
    /// group ids 1..=100 and sensitive codes 9/10 or 99/100, so each
    /// field crosses from one to two and from two to three digits.
    #[test]
    fn csv_text_is_pinned_across_digit_boundaries() {
        let schema = Schema::new(vec![Attribute::numerical("Age", 200)]).unwrap();
        let mut b = TableBuilder::new(schema);
        for r in 0..200u32 {
            b.push_row(&[r]).unwrap();
        }
        let value = |r: u32| if (r / 2).is_multiple_of(2) { 9 } else { 99 } + r % 2;
        let st: Vec<StRecord> = (0..200)
            .map(|r| StRecord {
                group: r / 2,
                value: Value(value(r)),
                count: 1,
            })
            .collect();
        let gids: Vec<GroupId> = (0..200).map(|r| r / 2).collect();
        let tables = AnatomizedTables::from_parts(b.finish(), gids, st, 2).unwrap();

        let qit_csv = qit_to_csv(&tables);
        let expected: String = std::iter::once("Age,Group-ID\n".to_string())
            .chain((0..200).map(|r| format!("{r},{}\n", r / 2 + 1)))
            .collect();
        assert_eq!(qit_csv, expected);
        assert!(qit_csv.starts_with("Age,Group-ID\n0,1\n1,1\n2,2\n"));
        assert!(qit_csv.contains("\n9,5\n10,6\n"));
        assert!(qit_csv.contains("\n17,9\n18,10\n"));
        assert!(qit_csv.contains("\n99,50\n100,51\n"));
        assert!(qit_csv.ends_with("\n197,99\n198,100\n199,100\n"));

        let st_csv = st_to_csv(&tables);
        let expected: String = std::iter::once("Group-ID,As,Count\n".to_string())
            .chain((0..200).map(|r| format!("{},{},1\n", r / 2 + 1, value(r))))
            .collect();
        assert_eq!(st_csv, expected);
        assert!(st_csv.starts_with("Group-ID,As,Count\n1,9,1\n1,10,1\n2,99,1\n2,100,1\n"));
        assert!(st_csv.contains("\n9,9,1\n9,10,1\n10,99,1\n10,100,1\n"));
        assert!(st_csv.ends_with("\n99,9,1\n99,10,1\n100,99,1\n100,100,1\n"));
    }

    #[test]
    fn decimal_writer_matches_display() {
        let edges = (0..10).flat_map(|d| [10u32.pow(d) - 1, 10u32.pow(d)]);
        for v in edges.chain([u32::MAX - 1, u32::MAX]) {
            let mut out = codec::Writer::default();
            out.u32(v);
            let out = out.into_string();
            assert_eq!(out, v.to_string());
            assert_eq!(digits(v), out.len());
        }
    }

    #[test]
    fn audit_rejects_a_non_diverse_release() {
        let (schema, tables) = publication();
        let qit_csv = qit_to_csv(&tables);
        let st_csv = st_to_csv(&tables);
        // The release is 3-diverse but not 6-diverse (groups have 3
        // distinct values).
        assert!(parse_release(schema, &qit_csv, &st_csv, 6).is_err());
    }

    #[test]
    fn audit_rejects_tampered_counts() {
        let (schema, tables) = publication();
        let qit_csv = qit_to_csv(&tables);
        let st_csv = st_to_csv(&tables);
        // Inflate one count: the per-group mass check must fire.
        let tampered = st_csv.replacen(",1\n", ",2\n", 1);
        assert!(parse_release(schema, &qit_csv, &tampered, 3).is_err());
    }

    #[test]
    fn audit_rejects_inconsistent_group_ids() {
        let (schema, tables) = publication();
        let mut qit_csv = qit_to_csv(&tables);
        let st_csv = st_to_csv(&tables);
        // Point one tuple at a non-existent group.
        qit_csv = qit_csv.replacen(",1\n", ",999\n", 1);
        assert!(parse_release(schema, &qit_csv, &st_csv, 3).is_err());
    }

    #[test]
    fn raw_parse_accepts_what_the_strict_parse_rejects() {
        let (schema, tables) = publication();
        let qit_csv = qit_to_csv(&tables);
        let st_csv = st_to_csv(&tables).replacen(",1\n", ",2\n", 1);
        // Strict parse refuses the tampered release outright...
        assert!(parse_release(schema.clone(), &qit_csv, &st_csv, 3).is_err());
        // ...while the raw parts come back for an auditor to diagnose.
        let (qit, group_ids, st) = parse_release_parts(schema, &qit_csv, &st_csv).unwrap();
        assert_eq!(qit.len(), tables.len());
        assert_eq!(group_ids, tables.group_ids());
        assert_eq!(st.len(), tables.st_records().len());
        assert_eq!(st[0].count, 2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let (schema, tables) = publication();
        let qit_csv = qit_to_csv(&tables);
        let st_csv = "Group-ID,As,Count\n1,x,1\n";
        let err = parse_release(schema, &qit_csv, st_csv, 3).unwrap_err();
        assert!(err.to_string().contains("line 2"), "got: {err}");
    }

    #[test]
    fn header_mismatches_rejected() {
        let (schema, tables) = publication();
        let st_csv = st_to_csv(&tables);
        assert!(parse_release(schema.clone(), "Wrong,Header\n", &st_csv, 3).is_err());
        let qit_csv = qit_to_csv(&tables);
        assert!(parse_release(schema, &qit_csv, "Bad,Header,Here\n", 3).is_err());
    }

    /// `parse_release_parts` as it was before the byte scanner:
    /// `str::lines` and the `str` path on every line. The oracle of the
    /// reader property below.
    #[allow(clippy::type_complexity)]
    fn parse_release_parts_by_str(
        qi_schema: Schema,
        qit_csv: &str,
        st_csv: &str,
    ) -> Result<(anatomy_tables::Table, Vec<GroupId>, Vec<StRecord>), CoreError> {
        let d = qi_schema.width();
        let mut lines = qit_csv.lines();
        let header = lines
            .next()
            .ok_or_else(|| csv_err(1, "missing QIT header"))?;
        let expected: Vec<&str> = qi_schema.names().into_iter().chain(["Group-ID"]).collect();
        let got: Vec<&str> = header.split(',').collect();
        if got != expected {
            return Err(csv_err(1, format!("QIT header {got:?} != {expected:?}")));
        }
        let mut builder = TableBuilder::new(qi_schema);
        let mut group_ids = Vec::new();
        let mut row = vec![0u32; d];
        for (idx, line) in lines.enumerate() {
            let line_no = idx + 2;
            if line.trim().is_empty() {
                continue;
            }
            let mut fields = line.split(',');
            for slot in row.iter_mut() {
                let f = fields
                    .next()
                    .ok_or_else(|| csv_err(line_no, "too few QIT fields"))?;
                *slot = f
                    .trim()
                    .parse()
                    .map_err(|_| csv_err(line_no, format!("bad code `{f}`")))?;
            }
            let g: u32 = fields
                .next()
                .ok_or_else(|| csv_err(line_no, "missing Group-ID"))?
                .trim()
                .parse()
                .map_err(|_| csv_err(line_no, "bad Group-ID"))?;
            if fields.next().is_some() {
                return Err(csv_err(line_no, "too many QIT fields"));
            }
            if g == 0 {
                return Err(csv_err(line_no, "Group-ID must be 1-based"));
            }
            builder
                .push_row(&row)
                .map_err(|e| csv_err(line_no, e.to_string()))?;
            group_ids.push(g - 1);
        }
        let mut st = Vec::new();
        let mut lines = st_csv.lines();
        let header = lines
            .next()
            .ok_or_else(|| csv_err(1, "missing ST header"))?;
        if header.split(',').collect::<Vec<_>>() != ["Group-ID", "As", "Count"] {
            return Err(csv_err(
                1,
                format!("ST header `{header}` != Group-ID,As,Count"),
            ));
        }
        for (idx, line) in lines.enumerate() {
            let line_no = idx + 2;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != 3 {
                return Err(csv_err(line_no, "ST records have exactly 3 fields"));
            }
            let g: u32 = fields[0]
                .trim()
                .parse()
                .map_err(|_| csv_err(line_no, "bad Group-ID"))?;
            if g == 0 {
                return Err(csv_err(line_no, "Group-ID must be 1-based"));
            }
            let v: u32 = fields[1]
                .trim()
                .parse()
                .map_err(|_| csv_err(line_no, "bad sensitive code"))?;
            let c: u32 = fields[2]
                .trim()
                .parse()
                .map_err(|_| csv_err(line_no, "bad count"))?;
            st.push(StRecord {
                group: g - 1,
                value: Value(v),
                count: c,
            });
        }
        Ok((builder.finish(), group_ids, st))
    }

    /// Domain sizes at every digit boundary the writer crosses.
    const DOMAINS: &[u32] = &[1, 9, 10, 11, 99, 100, 101, 65_535, 65_536, 65_537, u32::MAX];
    /// Group sizes whose two equal ST counts cross digit boundaries.
    const GROUP_SIZES: &[u32] = &[2, 2, 2, 18, 20, 22, 198, 200, 202];

    /// Codes at every digit boundary of a `u32`.
    fn boundary_codes() -> Vec<u32> {
        let mut codes = vec![u32::MAX - 1, u32::MAX];
        for d in 0..10 {
            let p = 10u32.pow(d);
            codes.extend([p - 1, p, p + 1]);
        }
        codes
    }

    /// A 2-diverse release over a random QI schema of 1 to 8 attributes
    /// with domains from [`DOMAINS`]: boundary codes in the QIT, and per
    /// group two sensitive values up to `u32::MAX` with equal counts.
    fn boundary_release(seed: u64) -> AnatomizedTables {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.random_range(1..9usize);
        let attrs = (0..width)
            .map(|c| {
                Attribute::numerical(format!("Q{c}"), DOMAINS[rng.random_range(0..DOMAINS.len())])
            })
            .collect();
        let schema = Schema::new(attrs).unwrap();
        let boundary = boundary_codes();
        let pick = |rng: &mut StdRng, below: u32| {
            let code = boundary[rng.random_range(0..boundary.len())];
            if code < below && rng.random_range(0..4u8) > 0 {
                code
            } else {
                rng.random_range(0..below)
            }
        };
        let mut b = TableBuilder::new(schema.clone());
        let (mut gids, mut st) = (Vec::new(), Vec::new());
        for j in 0..rng.random_range(1..30u32) {
            let size = GROUP_SIZES[rng.random_range(0..GROUP_SIZES.len())];
            for _ in 0..size {
                let row: Vec<u32> = schema
                    .attributes()
                    .iter()
                    .map(|a| pick(&mut rng, a.domain_size()))
                    .collect();
                b.push_row(&row).unwrap();
                gids.push(j);
            }
            let low = pick(&mut rng, u32::MAX);
            let high = low + 1 + pick(&mut rng, u32::MAX - low);
            for value in [low, high] {
                st.push(StRecord {
                    group: j,
                    value: Value(value),
                    count: size / 2,
                });
            }
        }
        AnatomizedTables::from_parts(b.finish(), gids, st, 2).unwrap()
    }

    /// 70 000 groups of two, more than `CodeText` renders, so both files'
    /// group ids past 65 535 are written digit by digit.
    fn many_groups_release() -> AnatomizedTables {
        let schema = Schema::new(vec![
            Attribute::numerical("Q0", 7),
            Attribute::numerical("Q1", 100_000),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for r in 0..140_000u32 {
            b.push_row(&[r % 7, r % 100_000]).unwrap();
        }
        let gids: Vec<GroupId> = (0..140_000).map(|r| r / 2).collect();
        let st = (0..140_000)
            .map(|r| StRecord {
                group: r / 2,
                value: Value(r % 2 * 9),
                count: 1,
            })
            .collect();
        AnatomizedTables::from_parts(b.finish(), gids, st, 2).unwrap()
    }

    #[test]
    fn release_text_matches_a_format_oracle() {
        let releases = (0..64).map(boundary_release).chain([many_groups_release()]);
        for (seed, tables) in releases.enumerate() {
            let schema = tables.qi_table().schema();
            let mut qit = schema.names().join(",") + ",Group-ID\n";
            for (r, g) in tables.group_ids().iter().enumerate() {
                for c in 0..tables.qi_count() {
                    qit += &format!("{},", tables.qi_codes(c)[r]);
                }
                qit += &format!("{}\n", g + 1);
            }
            assert_eq!(qit_to_csv(&tables), qit, "seed {seed}");
            let mut st = "Group-ID,As,Count\n".to_string();
            for r in tables.st_records() {
                st += &format!("{},{},{}\n", r.group + 1, r.value.code(), r.count);
            }
            assert_eq!(st_to_csv(&tables), st, "seed {seed}");
            let back = parse_release(schema.clone(), &qit, &st, 2).unwrap();
            assert_eq!(back, tables, "seed {seed}");
        }
    }

    #[test]
    fn accepted_names_round_trip_through_the_release() {
        for name in ["", " Age", "Âge", "a b", "A|B;C=D", "\u{a0}x", "Group-ID"] {
            let schema = Schema::new(vec![
                Attribute::numerical(name, 100),
                Attribute::numerical("Q", 3),
            ])
            .unwrap();
            let mut b = TableBuilder::new(schema.clone());
            for r in 0..4u32 {
                b.push_row(&[r * 30, r % 3]).unwrap();
            }
            let st = (0..4)
                .map(|r| StRecord {
                    group: r / 2,
                    value: Value(r % 2),
                    count: 1,
                })
                .collect();
            let tables = AnatomizedTables::from_parts(b.finish(), vec![0, 0, 1, 1], st, 2).unwrap();
            let back = parse_release(schema, &qit_to_csv(&tables), &st_to_csv(&tables), 2);
            assert_eq!(back.unwrap(), tables, "{name:?}");
        }
        // A name that broke the files' own readers is now refused up front.
        assert!(Schema::new(vec![Attribute::numerical("Age,years", 100)]).is_err());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            /// Any publication round-trips through the CSV release format,
            /// and the parse re-validates successfully at the original l.
            #[test]
            fn release_round_trip(
                codes in proptest::collection::vec(0u32..6, 6..80),
                seed in 0u64..30,
            ) {
                let schema = Schema::new(vec![
                    Attribute::numerical("Age", 100),
                    Attribute::categorical("S", 6),
                ]).unwrap();
                let mut b = TableBuilder::new(schema);
                for (i, &c) in codes.iter().enumerate() {
                    b.push_row(&[i as u32, c]).unwrap();
                }
                let md = Microdata::with_leading_qi(b.finish(), 1).unwrap();
                let config = AnatomizeConfig::new(2).with_seed(seed);
                if let Ok(p) = anatomize(&md, &config) {
                    let tables = AnatomizedTables::publish(&md, &p, 2).unwrap();
                    let qi_schema = md.table().schema().project(&[0]).unwrap();
                    let back = parse_release(
                        qi_schema,
                        &qit_to_csv(&tables),
                        &st_to_csv(&tables),
                        2,
                    ).unwrap();
                    prop_assert_eq!(back, tables);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            /// On QIT and ST bodies mixing plain rows with blank lines,
            /// CRLF, signs, spaces, tabs, letters, `\u{a0}`, overlong and
            /// out-of-domain codes, Group-ID 0 and wrong field counts,
            /// `parse_release_parts` returns what the `str` oracle returns:
            /// the same parts, or the same error text and line number.
            #[test]
            fn parse_release_parts_agrees_with_the_str_path(
                qit_lines in proptest::collection::vec((0usize..9, 0..FIELD.len(), 0u32..200), 0..10),
                st_lines in proptest::collection::vec((0usize..9, 0..FIELD.len(), 0u32..200), 0..10),
                ends in (0u8..3, 0u8..3),
            ) {
                let schema = Schema::new(vec![
                    Attribute::numerical("A", 100),
                    Attribute::numerical("B", u32::MAX),
                ]).unwrap();
                let body = |header: &str, lines: &[(usize, usize, u32)], end: u8| {
                    let mut text = header.to_string();
                    for (i, &(kind, f, v)) in lines.iter().enumerate() {
                        let field = FIELD[f];
                        text += &match kind {
                            0 | 1 => format!("{},{},{}", v % 100, u32::MAX - 1 - v, v / 7 + 1),
                            2 => format!("{field},{v},{}", v % 3 + 1),
                            3 => format!("{},{field},1", v % 100),
                            4 => format!("{},{v},{field}", v % 100),
                            5 => format!("{v},{v},0"),
                            6 => format!("{v},{v}"),
                            7 => format!("{v},{v},1,{field}"),
                            _ => field.to_string(),
                        };
                        if !(i + 1 == lines.len() && end == 2) {
                            text += if end == 1 { "\r\n" } else { "\n" };
                        }
                    }
                    text
                };
                let qit = body("A,B,Group-ID\n", &qit_lines, ends.0);
                let st = body("Group-ID,As,Count\r\n", &st_lines, ends.1);
                let fast = parse_release_parts(schema.clone(), &qit, &st).map_err(|e| e.to_string());
                let by_str = parse_release_parts_by_str(schema, &qit, &st).map_err(|e| e.to_string());
                prop_assert_eq!(fast, by_str, "qit {:?} st {:?}", qit, st);
            }
        }
    }

    // Fields for the reader property: well-formed ones weighted up, with
    // signs, whitespace, letters, overlong numbers and empty fields.
    const FIELD: &[&str] = &[
        "0",
        "7",
        "42",
        " 5",
        "5 ",
        "\t5",
        "5\r",
        "+5",
        "-5",
        "5a",
        "x",
        "",
        " ",
        "\u{a0}5",
        "4294967295",
        "4294967296",
        "0000000000003",
    ];
}
