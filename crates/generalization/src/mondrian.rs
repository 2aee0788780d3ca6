//! Multidimensional recoding (Mondrian) under l-diversity — the paper's
//! baseline, "the state-of-the-art algorithm in \[9\]" (Section 6).
//!
//! Mondrian greedily refines the single all-encompassing QI-group by
//! recursive splits:
//!
//! * a **free-interval** attribute (Table 6: Age, Education) splits at the
//!   median of the node's values;
//! * a **taxonomy** attribute splits into the children of its current
//!   taxonomy node (multiway), so every published interval is an admissible
//!   taxonomy node;
//! * a split is **admissible** only if every resulting side has at least
//!   `l` tuples *and* satisfies the l-diversity eligibility bound
//!   (`max sensitive count × l ≤ size`) — the invariant that guarantees
//!   every leaf group is l-diverse (Definition 2).
//!
//! At each node the attribute with the widest normalized extent is tried
//! first, as in LeFevre et al.; attributes whose split is inadmissible are
//! skipped, and a node where no attribute can split becomes a QI-group.

use crate::error::GenError;
use crate::generalized_table::{GenGroup, GeneralizedTable};
use crate::taxonomy::{TaxNode, Taxonomy};
use anatomy_core::diversity::check_eligibility;
use anatomy_core::Partition;
use anatomy_tables::stats::Histogram;
use anatomy_tables::value::CodeRange;
use anatomy_tables::Microdata;

/// How one QI attribute may be generalized (the last column of Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenMethod {
    /// Interval end points may fall on any domain value.
    FreeInterval,
    /// Intervals must be nodes of the given taxonomy.
    Taxonomy(Taxonomy),
}

/// Configuration for [`mondrian`].
#[derive(Debug, Clone)]
pub struct MondrianConfig {
    /// Diversity parameter `l >= 2`.
    pub l: usize,
    /// Per-QI-attribute generalization method, in microdata QI order.
    pub methods: Vec<GenMethod>,
}

impl MondrianConfig {
    /// All attributes generalized with free intervals.
    pub fn all_free(l: usize, d: usize) -> Self {
        MondrianConfig {
            l,
            methods: vec![GenMethod::FreeInterval; d],
        }
    }
}

/// Per-attribute recursion state.
#[derive(Debug, Clone, Copy)]
enum AttrState {
    Free,
    Tax(TaxNode),
}

/// The admissibility requirement a split must preserve on every side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SplitRequirement {
    /// Definition 2: at least `l` tuples and `max sensitive count × l ≤
    /// size` (so the side can still be partitioned l-diversely).
    LDiverse(usize),
    /// Classic Mondrian: at least `k` tuples; the sensitive distribution
    /// is unconstrained (the homogeneity-attack surface).
    KAnonymous(usize),
}

/// Compute an l-diverse generalized table of `md` by multidimensional
/// recoding. Returns the underlying partition (for analysis) alongside the
/// published table.
pub fn mondrian(
    md: &Microdata,
    cfg: &MondrianConfig,
) -> Result<(Partition, GeneralizedTable), GenError> {
    let d = md.qi_count();
    if cfg.methods.len() != d {
        return Err(GenError::MethodMismatch {
            got: cfg.methods.len(),
            expected: d,
        });
    }
    check_eligibility(md, cfg.l)?;
    for (i, m) in cfg.methods.iter().enumerate() {
        if let GenMethod::Taxonomy(t) = m {
            if t.domain_size() != md.qi_domain_size(i) {
                return Err(GenError::InvalidTaxonomy(format!(
                    "taxonomy for QI attribute {i} covers {} codes but the domain has {}",
                    t.domain_size(),
                    md.qi_domain_size(i)
                )));
            }
        }
    }

    let n = md.len();
    if n == 0 {
        return Ok((
            Partition::new(vec![], 0)?,
            GeneralizedTable::new(vec![], cfg.l),
        ));
    }
    if n < cfg.l {
        // One group of n < l tuples can never be l-diverse.
        return Err(GenError::Core(anatomy_core::CoreError::NotEligible {
            max_count: 1,
            n,
            l: cfg.l,
        }));
    }

    let states: Vec<AttrState> = cfg
        .methods
        .iter()
        .map(|m| match m {
            GenMethod::FreeInterval => AttrState::Free,
            GenMethod::Taxonomy(t) => AttrState::Tax(t.root()),
        })
        .collect();
    let rows: Vec<u32> = (0..n as u32).collect();

    let mut worker = Worker {
        md,
        methods: &cfg.methods,
        req: SplitRequirement::LDiverse(cfg.l),
        groups: Vec::new(),
        gen_groups: Vec::new(),
    };
    worker.split(rows, states);

    let partition = Partition::new(worker.groups, n)?;
    Ok((partition, GeneralizedTable::new(worker.gen_groups, cfg.l)))
}

/// Classic **k-anonymous** Mondrian (the paper's refs [12–14, 9] before
/// l-diversity): splits are admissible when both sides keep at least `k`
/// tuples; the sensitive distribution is unconstrained. Exists to make the
/// k-anonymity-vs-l-diversity comparison of Section 2 concrete — see
/// `anatomy_core::kanonymity` and the `homogeneity_attack` example.
///
/// The returned [`GeneralizedTable`] carries `l = 1`: k-anonymity gives no
/// diversity guarantee.
pub fn mondrian_k_anonymous(
    md: &Microdata,
    methods: &[GenMethod],
    k: usize,
) -> Result<(Partition, GeneralizedTable), GenError> {
    let d = md.qi_count();
    if methods.len() != d {
        return Err(GenError::MethodMismatch {
            got: methods.len(),
            expected: d,
        });
    }
    if k == 0 {
        return Err(GenError::Core(anatomy_core::CoreError::InvalidL(0)));
    }
    let n = md.len();
    if n == 0 {
        return Ok((Partition::new(vec![], 0)?, GeneralizedTable::new(vec![], 1)));
    }
    if n < k {
        return Err(GenError::Core(anatomy_core::CoreError::NotEligible {
            max_count: 1,
            n,
            l: k,
        }));
    }
    let states: Vec<AttrState> = methods
        .iter()
        .map(|m| match m {
            GenMethod::FreeInterval => AttrState::Free,
            GenMethod::Taxonomy(t) => AttrState::Tax(t.root()),
        })
        .collect();
    let rows: Vec<u32> = (0..n as u32).collect();
    let mut worker = Worker {
        md,
        methods,
        req: SplitRequirement::KAnonymous(k),
        groups: Vec::new(),
        gen_groups: Vec::new(),
    };
    worker.split(rows, states);
    let partition = Partition::new(worker.groups, n)?;
    Ok((partition, GeneralizedTable::new(worker.gen_groups, 1)))
}

struct Worker<'a> {
    md: &'a Microdata,
    methods: &'a [GenMethod],
    req: SplitRequirement,
    groups: Vec<Vec<u32>>,
    gen_groups: Vec<GenGroup>,
}

impl Worker<'_> {
    /// Observed `[min, max]` of QI attribute `i` over `rows`.
    fn observed(&self, rows: &[u32], i: usize) -> CodeRange {
        let col = self.md.qi_codes(i);
        let mut lo = u32::MAX;
        let mut hi = 0u32;
        for &r in rows {
            let v = col[r as usize];
            lo = lo.min(v);
            hi = hi.max(v);
        }
        CodeRange::new(lo, hi)
    }

    /// Whether a candidate side keeps the requirement satisfiable.
    fn side_ok(&self, rows: &[u32]) -> bool {
        match self.req {
            SplitRequirement::KAnonymous(k) => rows.len() >= k,
            SplitRequirement::LDiverse(l) => {
                if rows.len() < l {
                    return false;
                }
                let idx: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
                let hist = Histogram::of_rows(
                    self.md.sensitive_codes(),
                    &idx,
                    self.md.sensitive_domain_size(),
                );
                hist.max().is_none_or(|(_, c)| c * l <= rows.len())
            }
        }
    }

    fn split(&mut self, rows: Vec<u32>, states: Vec<AttrState>) {
        let d = self.md.qi_count();
        let observed: Vec<CodeRange> = (0..d).map(|i| self.observed(&rows, i)).collect();

        // Widest normalized extent first (LeFevre et al.'s heuristic).
        let mut order: Vec<usize> = (0..d).collect();
        let width = |i: usize| -> f64 {
            let extent = match states[i] {
                AttrState::Free => observed[i].len(),
                AttrState::Tax(node) => {
                    if node.range.len() == 1 {
                        1
                    } else {
                        observed[i].len()
                    }
                }
            };
            (extent - 1) as f64 / self.md.qi_domain_size(i) as f64
        };
        order.sort_by(|&a, &b| width(b).partial_cmp(&width(a)).unwrap().then(a.cmp(&b)));

        for &i in &order {
            match states[i] {
                AttrState::Free => {
                    if observed[i].len() == 1 {
                        continue;
                    }
                    if let Some((left, right)) = self.try_median_split(&rows, i, observed[i]) {
                        self.split(left, states.clone());
                        self.split(right, states);
                        return;
                    }
                }
                AttrState::Tax(node) => {
                    let tax = match self.methods[i] {
                        GenMethod::Taxonomy(t) => t,
                        GenMethod::FreeInterval => unreachable!("state/method agree"),
                    };
                    // Descend to the LCA of the observed values first: a
                    // node whose values fit a single child splits for free.
                    let node = tax.lca(
                        observed[i].lo.max(node.range.lo),
                        observed[i].hi.min(node.range.hi),
                    );
                    if let Some(parts) = self.try_taxonomy_split(&rows, i, &tax, node) {
                        for (child, child_rows) in parts {
                            let mut child_states = states.clone();
                            child_states[i] = AttrState::Tax(child);
                            self.split(child_rows, child_states);
                        }
                        return;
                    }
                }
            }
        }

        // Leaf: publish the group.
        let ranges: Vec<CodeRange> = (0..d)
            .map(|i| match self.methods[i] {
                GenMethod::FreeInterval => observed[i],
                GenMethod::Taxonomy(t) => t.lca(observed[i].lo, observed[i].hi).range,
            })
            .collect();
        self.gen_groups
            .push(GenGroup::from_rows(self.md, &rows, ranges));
        self.groups.push(rows);
    }

    /// Median split on free-interval attribute `i`; `None` if inadmissible.
    fn try_median_split(
        &self,
        rows: &[u32],
        i: usize,
        range: CodeRange,
    ) -> Option<(Vec<u32>, Vec<u32>)> {
        let col = self.md.qi_codes(i);
        // Histogram over the observed range (offset to keep it small).
        let span = range.len() as usize;
        let mut hist = vec![0usize; span];
        for &r in rows {
            hist[(col[r as usize] - range.lo) as usize] += 1;
        }
        // Smallest value whose cumulative count reaches half.
        let half = rows.len().div_ceil(2);
        let mut cum = 0usize;
        let mut split = range.hi;
        for (off, &c) in hist.iter().enumerate() {
            cum += c;
            if cum >= half {
                split = range.lo + off as u32;
                break;
            }
        }
        if split >= range.hi {
            // Keep the right side non-empty: back off to the largest
            // populated value below the maximum.
            let mut fallback = None;
            for off in (0..span - 1).rev() {
                if hist[off] > 0 {
                    fallback = Some(range.lo + off as u32);
                    break;
                }
            }
            split = fallback?;
        }
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for &r in rows {
            if col[r as usize] <= split {
                left.push(r);
            } else {
                right.push(r);
            }
        }
        if self.side_ok(&left) && self.side_ok(&right) {
            Some((left, right))
        } else {
            None
        }
    }

    /// Multiway taxonomy split of attribute `i` at `node`; `None` if
    /// inadmissible (fewer than two non-empty children, or some child
    /// cannot be l-diverse).
    fn try_taxonomy_split(
        &self,
        rows: &[u32],
        i: usize,
        tax: &Taxonomy,
        node: TaxNode,
    ) -> Option<Vec<(TaxNode, Vec<u32>)>> {
        let children = tax.children(node);
        if children.is_empty() {
            return None;
        }
        let col = self.md.qi_codes(i);
        let mut parts: Vec<(TaxNode, Vec<u32>)> =
            children.into_iter().map(|c| (c, Vec::new())).collect();
        'rows: for &r in rows {
            let v = col[r as usize];
            for (child, bucket) in parts.iter_mut() {
                if child.range.contains(v) {
                    bucket.push(r);
                    continue 'rows;
                }
            }
            unreachable!("children tile the parent");
        }
        parts.retain(|(_, b)| !b.is_empty());
        if parts.len() < 2 {
            return None;
        }
        if parts.iter().all(|(_, b)| self.side_ok(b)) {
            Some(parts)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anatomy_tables::{Attribute, Schema, TableBuilder, Value};

    /// The paper's Table 1 (diseases: bron=0, dysp=1, flu=2, gast=3,
    /// pneu=4).
    fn paper_md() -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("Age", 100),
            Attribute::categorical("Sex", 2),
            Attribute::numerical("Zipcode", 60),
            Attribute::categorical("Disease", 5),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for row in [
            [23, 0, 11, 4],
            [27, 0, 13, 1],
            [35, 0, 59, 1],
            [59, 0, 12, 4],
            [61, 1, 54, 2],
            [65, 1, 25, 3],
            [65, 1, 25, 2],
            [70, 1, 30, 0],
        ] {
            b.push_row(&row).unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 3).unwrap()
    }

    fn paper_config() -> MondrianConfig {
        MondrianConfig {
            l: 2,
            methods: vec![
                GenMethod::FreeInterval,
                GenMethod::Taxonomy(Taxonomy::new(2, 2).unwrap()),
                GenMethod::FreeInterval,
            ],
        }
    }

    fn check_invariants(md: &Microdata, p: &Partition, t: &GeneralizedTable, l: usize) {
        assert!(p.is_l_diverse(md, l), "partition not {l}-diverse");
        assert!(t.is_l_diverse());
        assert_eq!(t.len(), md.len());
        assert_eq!(t.group_count(), p.group_count());
        // Every tuple's QI values lie inside its group's ranges.
        for (j, group) in t.groups().iter().enumerate() {
            for &r in p.group(j as u32) {
                for (i, range) in group.ranges.iter().enumerate() {
                    let v = md.qi_value(r as usize, i).code();
                    assert!(range.contains(v), "group {j} attr {i}: {v} outside {range}");
                }
            }
            assert!(group.size as usize >= l);
        }
    }

    #[test]
    fn paper_example_generalizes() {
        let md = paper_md();
        let (p, t) = mondrian(&md, &paper_config()).unwrap();
        check_invariants(&md, &p, &t, 2);
        // Mondrian splits at least on Sex (perfectly balanced, eligible).
        assert!(t.group_count() >= 2);
    }

    #[test]
    fn taxonomy_constrains_intervals() {
        let md = paper_md();
        let (p, t) = mondrian(&md, &paper_config()).unwrap();
        check_invariants(&md, &p, &t, 2);
        // Sex intervals must be taxonomy nodes: the whole domain or single
        // codes.
        for g in t.groups() {
            let sex = g.ranges[1];
            assert!(sex.len() == 2 || sex.len() == 1);
        }
    }

    #[test]
    fn all_free_single_attribute() {
        // 16 tuples, ages 0..16, alternating sensitive values: every
        // median cut halves evenly, so Mondrian refines all the way to
        // pairs.
        let schema = Schema::new(vec![
            Attribute::numerical("Age", 30),
            Attribute::categorical("S", 2),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..16u32 {
            b.push_row(&[i, i % 2]).unwrap();
        }
        let md = Microdata::with_leading_qi(b.finish(), 1).unwrap();
        let (p, t) = mondrian(&md, &MondrianConfig::all_free(2, 1)).unwrap();
        check_invariants(&md, &p, &t, 2);
        assert_eq!(t.group_count(), 8, "alternating data should split to pairs");
        for g in t.groups() {
            assert_eq!(g.size, 2);
            assert_eq!(g.volume(), 2);
        }
    }

    #[test]
    fn skewed_sensitive_blocks_splits() {
        // All tuples share one sensitive value except a handful: with l = 2
        // the eligibility bound blocks almost every split.
        let schema = Schema::new(vec![
            Attribute::numerical("Age", 100),
            Attribute::categorical("S", 4),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..16u32 {
            b.push_row(&[i, if i < 8 { 0 } else { 1 + i % 3 }]).unwrap();
        }
        let md = Microdata::with_leading_qi(b.finish(), 1).unwrap();
        let (p, t) = mondrian(&md, &MondrianConfig::all_free(2, 1)).unwrap();
        check_invariants(&md, &p, &t, 2);
    }

    #[test]
    fn rejects_bad_inputs() {
        let md = paper_md();
        // Wrong number of methods.
        assert!(matches!(
            mondrian(&md, &MondrianConfig::all_free(2, 1)),
            Err(GenError::MethodMismatch { .. })
        ));
        // Taxonomy over the wrong domain.
        let bad = MondrianConfig {
            l: 2,
            methods: vec![
                GenMethod::FreeInterval,
                GenMethod::Taxonomy(Taxonomy::new(7, 2).unwrap()),
                GenMethod::FreeInterval,
            ],
        };
        assert!(matches!(
            mondrian(&md, &bad),
            Err(GenError::InvalidTaxonomy(_))
        ));
        // Ineligible l.
        let too_diverse = MondrianConfig {
            l: 5,
            methods: paper_config().methods,
        };
        assert!(matches!(
            mondrian(&md, &too_diverse),
            Err(GenError::Core(_))
        ));
    }

    #[test]
    fn k_anonymous_mondrian_ignores_sensitive_distribution() {
        // All tuples share one disease: no l-diverse table exists for any
        // l >= 2, but a k-anonymous one does — and it is fully breached.
        let schema = Schema::new(vec![
            Attribute::numerical("Age", 100),
            Attribute::categorical("S", 5),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..16u32 {
            b.push_row(&[i, 0]).unwrap();
        }
        let md = Microdata::with_leading_qi(b.finish(), 1).unwrap();
        assert!(mondrian(&md, &MondrianConfig::all_free(2, 1)).is_err());

        let (p, t) = mondrian_k_anonymous(&md, &[GenMethod::FreeInterval], 4).unwrap();
        assert!(anatomy_core::kanonymity::partition_is_k_anonymous(&p, 4));
        assert_eq!(t.l(), 1);
        // Homogeneous groups: the adversary wins with certainty.
        assert_eq!(anatomy_core::kanonymity::homogeneity_breach(&md, &p), 1.0);
        // k-anonymity splits further than l-diversity could (no sensitive
        // constraint): 16 tuples -> 4 groups of 4.
        assert_eq!(p.group_count(), 4);
    }

    #[test]
    fn k_anonymous_mondrian_validates_inputs() {
        let md = paper_md();
        let methods = paper_config().methods;
        assert!(mondrian_k_anonymous(&md, &methods[..1], 2).is_err()); // arity
        assert!(mondrian_k_anonymous(&md, &methods, 0).is_err()); // k = 0
        assert!(mondrian_k_anonymous(&md, &methods, 9).is_err()); // k > n
        let (p, _) = mondrian_k_anonymous(&md, &methods, 2).unwrap();
        assert!(anatomy_core::kanonymity::partition_is_k_anonymous(&p, 2));
    }

    #[test]
    fn n_smaller_than_l_rejected() {
        let schema = Schema::new(vec![
            Attribute::numerical("A", 10),
            Attribute::categorical("S", 5),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        b.push_row(&[0, 0]).unwrap();
        b.push_row(&[1, 1]).unwrap();
        let md = Microdata::with_leading_qi(b.finish(), 1).unwrap();
        assert!(mondrian(&md, &MondrianConfig::all_free(3, 1)).is_err());
    }

    #[test]
    fn empty_input() {
        let schema = Schema::new(vec![
            Attribute::numerical("A", 10),
            Attribute::categorical("S", 5),
        ])
        .unwrap();
        let md = Microdata::with_leading_qi(TableBuilder::new(schema).finish(), 1).unwrap();
        let (p, t) = mondrian(&md, &MondrianConfig::all_free(2, 1)).unwrap();
        assert!(p.is_empty());
        assert!(t.is_empty());
    }

    #[test]
    fn groups_histograms_match_partition() {
        let md = paper_md();
        let (p, t) = mondrian(&md, &paper_config()).unwrap();
        for (j, g) in t.groups().iter().enumerate() {
            let hist = p.sensitive_histogram(&md, j as u32);
            for &(v, c) in &g.sens_counts {
                assert_eq!(hist.count(v), c as usize);
            }
        }
        let _ = Value(0); // keep import used in all cfgs
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            /// Mondrian output is always a valid l-diverse generalization
            /// when the input is eligible.
            #[test]
            fn mondrian_output_valid(
                vals in proptest::collection::vec((0u32..20, 0u32..6), 8..120),
                l in 2usize..4,
            ) {
                let schema = Schema::new(vec![
                    Attribute::numerical("A", 20),
                    Attribute::categorical("S", 6),
                ]).unwrap();
                let mut b = TableBuilder::new(schema);
                for &(a, s) in &vals {
                    b.push_row(&[a, s]).unwrap();
                }
                let md = Microdata::with_leading_qi(b.finish(), 1).unwrap();
                if let Ok((p, t)) = mondrian(&md, &MondrianConfig::all_free(l, 1)) {
                    check_invariants(&md, &p, &t, l);
                }
            }
        }
    }
}
