//! The bitmap query index: exact, scan-free evaluation of COUNT queries.
//!
//! Every accuracy figure of the paper (Figures 4–7) evaluates a
//! 10,000-query workload, and the scalar paths in [`crate::exact`] and
//! [`fn@crate::estimate_anatomy`] pay a full `O(n·d)` row scan per query.
//! [`QueryIndex`] moves that work to build time:
//!
//! * **per-(column, value) bitmaps** — for each attribute `A_i` and each
//!   code `v ∈ dom(A_i)`, one [`Bitmap`] marking the rows with `A_i = v`.
//!   An IN-list predicate is the OR of its values' bitmaps; the query's
//!   conjunction is the AND across attributes; COUNT is a popcount.
//! * **a group-clustered row permutation** — rows are stably reordered so
//!   each QI-group occupies a contiguous position range. The anatomy
//!   estimator's per-group hit counts `h_j` then fall out of
//!   [`Bitmap::count_range`] over the group's range instead of a scan.
//!
//! Memory: `Σ_i |dom(A_i)| · ⌈n/64⌉` words — every row contributes exactly
//! one set bit per indexed column, so the bitmaps are sparse but the
//! format is deliberately uncompressed: evaluation stays branch-free.
//!
//! The indexed entry points [`evaluate_exact_indexed`] and
//! [`estimate_anatomy_indexed`] are **exact replacements**, not
//! approximations: they reproduce the scalar results bit-for-bit (the
//! estimator sums identical f64 terms in identical group order), which the
//! differential tests below pin down. The scalar paths remain in the crate
//! as the differential-testing oracle.

use crate::bitmap::Bitmap;
use crate::error::QueryError;
use crate::predicate::InPredicate;
use crate::query::CountQuery;
use anatomy_core::AnatomizedTables;
use anatomy_tables::Microdata;

/// Per-attribute value bitmaps (positions are permuted row positions).
#[derive(Debug, Clone)]
struct ColumnIndex {
    /// `bitmaps[v]` marks the rows whose code equals `v`.
    bitmaps: Vec<Bitmap>,
}

impl ColumnIndex {
    /// Index `codes` (one per original row) under `pos` (original row →
    /// permuted position), for a domain of `domain_size` codes.
    fn build(codes: &[u32], domain_size: u32, pos: &[usize]) -> ColumnIndex {
        let n = codes.len();
        let mut bitmaps = vec![Bitmap::new(n); domain_size as usize];
        for (r, &code) in codes.iter().enumerate() {
            bitmaps[code as usize].set(pos[r]);
        }
        ColumnIndex { bitmaps }
    }

    /// OR the bitmaps of `pred`'s accepted values into `out` (cleared
    /// first).
    fn predicate_bitmap(&self, pred: &InPredicate, out: &mut Bitmap) {
        out.clear();
        for &v in pred.values() {
            out.union_with(&self.bitmaps[v as usize]);
        }
    }
}

/// An exact bitmap index over one microdata relation (and optionally its
/// anatomized publication).
///
/// Build once, evaluate many: the Figure 4–7 protocol answers 10,000
/// queries per (l, qd, s) grid cell against the same tables.
///
/// ```
/// use anatomy_core::{anatomize, AnatomizeConfig, AnatomizedTables};
/// use anatomy_query::{
///     estimate_anatomy, estimate_anatomy_indexed, evaluate_exact,
///     evaluate_exact_indexed, CountQuery, InPredicate, QueryIndex,
/// };
/// use anatomy_tables::{Attribute, Microdata, Schema, TableBuilder};
///
/// # let schema = Schema::new(vec![
/// #     Attribute::numerical("Age", 50),
/// #     Attribute::categorical("Disease", 4),
/// # ])?;
/// # let mut b = TableBuilder::new(schema);
/// # for i in 0..40u32 { b.push_row(&[i % 50, i % 4])?; }
/// # let md = Microdata::with_leading_qi(b.finish(), 1)?;
/// let partition = anatomize(&md, &AnatomizeConfig::new(2))?;
/// let tables = AnatomizedTables::publish(&md, &partition, 2)?;
/// let index = QueryIndex::build(&md, &tables)?;
///
/// let query = CountQuery {
///     qi_preds: vec![(0, InPredicate::new((0..10).collect(), 50)?)],
///     sens_pred: InPredicate::new(vec![1], 4)?,
/// };
/// // Bit-for-bit agreement with the scalar paths:
/// assert_eq!(evaluate_exact_indexed(&index, &query), evaluate_exact(&md, &query));
/// assert_eq!(
///     estimate_anatomy_indexed(&index, &tables, &query),
///     estimate_anatomy(&tables, &query),
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct QueryIndex {
    n: usize,
    qi: Vec<ColumnIndex>,
    /// Absent when built from a publication alone (no microdata), in which
    /// case only the anatomy estimator is available.
    sens: Option<ColumnIndex>,
    /// Per-group `[start, end)` permuted-position ranges; one all-covering
    /// range when the index was built without a publication.
    group_ranges: Vec<(usize, usize)>,
    /// Whether `group_ranges` reflects a real publication's groups.
    grouped: bool,
}

impl QueryIndex {
    /// Index `md` alone: exact evaluation only, all rows in one range.
    ///
    /// This is the ground-truth configuration — the workload generators
    /// need [`evaluate_exact_indexed`] long before anything is published.
    pub fn from_microdata(md: &Microdata) -> QueryIndex {
        let _span = anatomy_obs::global().span("query.index_build");
        let n = md.len();
        let pos: Vec<usize> = (0..n).collect();
        let index = QueryIndex {
            n,
            qi: Self::qi_columns(md, &pos),
            sens: Some(ColumnIndex::build(
                md.sensitive_codes(),
                md.sensitive_domain_size(),
                &pos,
            )),
            group_ranges: vec![(0, n)],
            grouped: false,
        };
        Self::observe_build(&index);
        index
    }

    /// Index the microdata/publication pair: both [`evaluate_exact_indexed`]
    /// and [`estimate_anatomy_indexed`] are available, with rows
    /// group-clustered for per-group popcounts.
    ///
    /// Fails when `tables` was not published from `md` (length or QI-width
    /// mismatch).
    pub fn build(md: &Microdata, tables: &AnatomizedTables) -> Result<QueryIndex, QueryError> {
        if tables.len() != md.len() || tables.qi_count() != md.qi_count() {
            return Err(QueryError::BadSpec(format!(
                "index build mismatch: microdata is {}×{} QI but publication is {}×{}",
                md.len(),
                md.qi_count(),
                tables.len(),
                tables.qi_count()
            )));
        }
        let _span = anatomy_obs::global().span("query.index_build");
        let (pos, group_ranges) = Self::cluster_by_group(tables);
        let index = QueryIndex {
            n: md.len(),
            qi: Self::qi_columns(md, &pos),
            sens: Some(ColumnIndex::build(
                md.sensitive_codes(),
                md.sensitive_domain_size(),
                &pos,
            )),
            group_ranges,
            grouped: true,
        };
        Self::observe_build(&index);
        Ok(index)
    }

    /// Index a publication alone (the adversary's / analyst's view: QIT and
    /// ST, no microdata). Only [`estimate_anatomy_indexed`] is available;
    /// [`evaluate_exact_indexed`] reports [`QueryError::BadSpec`] via
    /// [`QueryIndex::try_evaluate_exact`].
    pub fn from_published(tables: &AnatomizedTables) -> QueryIndex {
        let _span = anatomy_obs::global().span("query.index_build");
        let (pos, group_ranges) = Self::cluster_by_group(tables);
        let qi = (0..tables.qi_count())
            .map(|i| ColumnIndex::build(tables.qi_codes(i), tables.qi_domain_size(i), &pos))
            .collect();
        let index = QueryIndex {
            n: tables.len(),
            qi,
            sens: None,
            group_ranges,
            grouped: true,
        };
        Self::observe_build(&index);
        index
    }

    /// Report a finished build to the global registry: build count, and
    /// the footprint gauge the ROADMAP's memory budget discussions need.
    /// `memory_words` walks the bitmaps, so skip it entirely while the
    /// registry is disabled.
    fn observe_build(index: &QueryIndex) {
        let obs = anatomy_obs::global();
        if obs.enabled() {
            obs.counter("query.index_builds").incr();
            let words = index.memory_words();
            obs.gauge("query.index_memory_words").set(words as i64);
            obs.gauge("query.index_bytes").set((words * 8) as i64);
        }
    }

    fn qi_columns(md: &Microdata, pos: &[usize]) -> Vec<ColumnIndex> {
        (0..md.qi_count())
            .map(|i| ColumnIndex::build(md.qi_codes(i), md.qi_domain_size(i), pos))
            .collect()
    }

    /// Stable counting sort of rows by group id: returns the original-row →
    /// permuted-position map and each group's `[start, end)` range.
    /// Shared with [`crate::index_v2`] so both index generations agree on
    /// the permutation.
    pub(crate) fn cluster_by_group(tables: &AnatomizedTables) -> (Vec<usize>, Vec<(usize, usize)>) {
        let m = tables.group_count();
        let mut starts = vec![0usize; m + 1];
        for &g in tables.group_ids() {
            starts[g as usize + 1] += 1;
        }
        for j in 0..m {
            starts[j + 1] += starts[j];
        }
        let group_ranges: Vec<(usize, usize)> =
            (0..m).map(|j| (starts[j], starts[j + 1])).collect();
        let mut cursor = starts;
        let pos = tables
            .group_ids()
            .iter()
            .map(|&g| {
                let p = cursor[g as usize];
                cursor[g as usize] += 1;
                p
            })
            .collect();
        (pos, group_ranges)
    }

    /// Number of indexed rows `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the index covers no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of indexed QI attributes `d`.
    #[inline]
    pub fn qi_count(&self) -> usize {
        self.qi.len()
    }

    /// Number of group ranges (1 when built from microdata alone).
    #[inline]
    pub fn group_count(&self) -> usize {
        self.group_ranges.len()
    }

    /// Whether the index carries a real publication's group clustering.
    #[inline]
    pub fn is_grouped(&self) -> bool {
        self.grouped
    }

    /// Total heap words across all bitmaps: `Σ_i |dom(A_i)| · ⌈n/64⌉`.
    pub fn memory_words(&self) -> usize {
        let col_words =
            |c: &ColumnIndex| -> usize { c.bitmaps.iter().map(Bitmap::word_count).sum() };
        self.qi.iter().map(col_words).sum::<usize>() + self.sens.as_ref().map_or(0, col_words)
    }

    /// The conjunction bitmap of `query`'s QI predicates, or `None` when
    /// the conjunction is empty (no row qualifies). With no QI predicates
    /// the result is all-ones — every row satisfies an empty conjunction.
    fn qi_conjunction(&self, query: &CountQuery) -> Option<Bitmap> {
        let mut acc: Option<Bitmap> = None;
        let mut scratch = Bitmap::new(self.n);
        for (attr, pred) in &query.qi_preds {
            let col = &self.qi[*attr];
            match &mut acc {
                None => {
                    let mut first = Bitmap::new(self.n);
                    col.predicate_bitmap(pred, &mut first);
                    if !first.any() {
                        return None;
                    }
                    acc = Some(first);
                }
                Some(acc) => {
                    col.predicate_bitmap(pred, &mut scratch);
                    if !acc.intersect_with(&scratch) {
                        return None;
                    }
                }
            }
        }
        Some(acc.unwrap_or_else(|| Bitmap::ones(self.n)))
    }

    /// Exact COUNT via bitmaps, or an error when the index was built from
    /// a publication alone and carries no sensitive column.
    pub fn try_evaluate_exact(&self, query: &CountQuery) -> Result<u64, QueryError> {
        let sens = self.sens.as_ref().ok_or_else(|| {
            QueryError::BadSpec(
                "exact evaluation needs an index built from microdata \
                 (QueryIndex::from_microdata or QueryIndex::build)"
                    .into(),
            )
        })?;
        if self.n == 0 {
            return Ok(0);
        }
        let Some(mut acc) = self.qi_conjunction(query) else {
            return Ok(0);
        };
        let mut sens_bits = Bitmap::new(self.n);
        sens.predicate_bitmap(&query.sens_pred, &mut sens_bits);
        if !acc.intersect_with(&sens_bits) {
            return Ok(0);
        }
        Ok(acc.count_ones())
    }

    /// The anatomy estimate via bitmaps (Section 1.2), bit-for-bit equal to
    /// [`fn@crate::estimate_anatomy`].
    ///
    /// `tables` must be the publication the index was built against: the
    /// per-group sensitive masses come from its ST, the hit counts `h_j`
    /// from per-group popcounts of the QI conjunction.
    ///
    /// # Panics
    ///
    /// Panics when the index is ungrouped or its group count disagrees with
    /// `tables` (an index/publication pairing bug, not a data property).
    pub fn estimate_anatomy(&self, tables: &AnatomizedTables, query: &CountQuery) -> f64 {
        assert!(
            self.grouped,
            "anatomy estimation needs an index built with a publication \
             (QueryIndex::build or QueryIndex::from_published)"
        );
        assert_eq!(
            self.group_ranges.len(),
            tables.group_count(),
            "index was built for a different publication"
        );
        let Some(acc) = self.qi_conjunction(query) else {
            return 0.0;
        };
        // Identical term set, order, and arithmetic as the scalar
        // estimator: skip h = 0 and mass = 0 groups, accumulate
        // (h / |QI_j|) · mass_j in ascending group order.
        let mut estimate = 0.0f64;
        for (j, &(start, end)) in self.group_ranges.iter().enumerate() {
            let h = acc.count_range(start, end) as u32;
            if h == 0 {
                continue;
            }
            let mass = tables.sensitive_mass(j as u32, |v| query.sens_pred.contains(v.code()));
            if mass == 0 {
                continue;
            }
            estimate += (h as f64 / tables.group_size(j as u32) as f64) * mass as f64;
        }
        estimate
    }
}

/// Exact COUNT of `query` via `index` — the indexed replacement for
/// [`crate::evaluate_exact`].
///
/// # Panics
///
/// Panics when `index` was built from a publication alone (no sensitive
/// bitmaps); use [`QueryIndex::try_evaluate_exact`] to handle that case.
pub fn evaluate_exact_indexed(index: &QueryIndex, query: &CountQuery) -> u64 {
    index
        .try_evaluate_exact(query)
        .expect("index carries no sensitive column")
}

/// The anatomy estimate of `query` via `index` — the indexed replacement
/// for [`fn@crate::estimate_anatomy`]. See [`QueryIndex::estimate_anatomy`].
pub fn estimate_anatomy_indexed(
    index: &QueryIndex,
    tables: &AnatomizedTables,
    query: &CountQuery,
) -> f64 {
    index.estimate_anatomy(tables, query)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate_anatomy::estimate_anatomy;
    use crate::exact::evaluate_exact;
    use crate::workload::WorkloadSpec;
    use anatomy_core::{anatomize, AnatomizeConfig, Partition};
    use anatomy_tables::{Attribute, Schema, TableBuilder};

    /// The paper's Table 1 projected to (Age, Zip, Disease).
    fn paper_md() -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("Age", 100),
            Attribute::numerical("Zip", 60),
            Attribute::categorical("Disease", 5),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for row in [
            [23, 11, 4],
            [27, 13, 1],
            [35, 59, 1],
            [59, 12, 4],
            [61, 54, 2],
            [65, 25, 3],
            [65, 25, 2],
            [70, 30, 0],
        ] {
            b.push_row(&row).unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 2).unwrap()
    }

    /// A larger structured relation for workload-level differentials.
    fn structured_md(n: usize) -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("A", 78),
            Attribute::categorical("B", 2),
            Attribute::numerical("C", 17),
            Attribute::categorical("S", 50),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..n as u32 {
            b.push_row(&[(i * 31 + 7) % 78, i % 2, (i / 3) % 17, (i * 7 + 3) % 50])
                .unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 3).unwrap()
    }

    #[test]
    fn query_a_from_the_paper_exact_and_estimated() {
        let md = paper_md();
        let p = Partition::new(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]], 8).unwrap();
        let tables = AnatomizedTables::publish(&md, &p, 2).unwrap();
        let index = QueryIndex::build(&md, &tables).unwrap();
        let q = CountQuery {
            qi_preds: vec![
                (0, InPredicate::new((0..=30).collect(), 100).unwrap()),
                (1, InPredicate::new((11..=20).collect(), 60).unwrap()),
            ],
            sens_pred: InPredicate::new(vec![4], 5).unwrap(),
        };
        assert_eq!(evaluate_exact_indexed(&index, &q), 1);
        let est = estimate_anatomy_indexed(&index, &tables, &q);
        assert_eq!(est, estimate_anatomy(&tables, &q));
        assert!((est - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sensitive_only_and_full_domain_queries() {
        let md = paper_md();
        let p = Partition::new(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]], 8).unwrap();
        let tables = AnatomizedTables::publish(&md, &p, 2).unwrap();
        let index = QueryIndex::build(&md, &tables).unwrap();

        // No QI predicate: empty conjunction is all-ones.
        for v in 0..5u32 {
            let q = CountQuery {
                qi_preds: vec![],
                sens_pred: InPredicate::new(vec![v], 5).unwrap(),
            };
            assert_eq!(evaluate_exact_indexed(&index, &q), evaluate_exact(&md, &q));
            assert_eq!(
                estimate_anatomy_indexed(&index, &tables, &q),
                estimate_anatomy(&tables, &q)
            );
        }

        let all = CountQuery {
            qi_preds: vec![(0, InPredicate::full(100)), (1, InPredicate::full(60))],
            sens_pred: InPredicate::full(5),
        };
        assert_eq!(evaluate_exact_indexed(&index, &all), 8);
    }

    #[test]
    fn empty_intersections_short_circuit_to_zero() {
        let md = paper_md();
        let index = QueryIndex::from_microdata(&md);
        // Age 99 matches nothing; the short-circuit path must agree with
        // the scan.
        let q = CountQuery {
            qi_preds: vec![(0, InPredicate::new(vec![99], 100).unwrap())],
            sens_pred: InPredicate::full(5),
        };
        assert_eq!(evaluate_exact_indexed(&index, &q), 0);
        // Disjoint QI predicates: each nonempty alone, empty together.
        let q2 = CountQuery {
            qi_preds: vec![
                (0, InPredicate::new(vec![23], 100).unwrap()),
                (1, InPredicate::new(vec![30], 60).unwrap()),
            ],
            sens_pred: InPredicate::full(5),
        };
        assert_eq!(evaluate_exact_indexed(&index, &q2), 0);
    }

    #[test]
    fn microdata_only_index_has_one_range_and_no_estimator() {
        let md = paper_md();
        let index = QueryIndex::from_microdata(&md);
        assert_eq!(index.group_count(), 1);
        assert!(!index.is_grouped());
        assert_eq!(index.len(), 8);
        assert_eq!(index.qi_count(), 2);
    }

    #[test]
    fn published_only_index_estimates_but_cannot_count_exactly() {
        let md = paper_md();
        let p = Partition::new(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]], 8).unwrap();
        let tables = AnatomizedTables::publish(&md, &p, 2).unwrap();
        let index = QueryIndex::from_published(&tables);
        let q = CountQuery {
            qi_preds: vec![(0, InPredicate::new((0..=40).collect(), 100).unwrap())],
            sens_pred: InPredicate::new(vec![1], 5).unwrap(),
        };
        assert_eq!(
            estimate_anatomy_indexed(&index, &tables, &q),
            estimate_anatomy(&tables, &q)
        );
        assert!(index.try_evaluate_exact(&q).is_err());
    }

    #[test]
    fn build_rejects_mismatched_pairs() {
        let md = paper_md();
        let other = structured_md(40);
        let p = anatomize(&other, &AnatomizeConfig::new(2)).unwrap();
        let tables = AnatomizedTables::publish(&other, &p, 2).unwrap();
        assert!(QueryIndex::build(&md, &tables).is_err());
    }

    #[test]
    fn memory_formula_matches() {
        let md = paper_md();
        let index = QueryIndex::from_microdata(&md);
        // n = 8 → 1 word per bitmap; domains 100 + 60 + 5 bitmaps.
        assert_eq!(index.memory_words(), 100 + 60 + 5);
    }

    #[test]
    fn empty_microdata_index_is_sane() {
        let schema = Schema::new(vec![
            Attribute::numerical("A", 10),
            Attribute::categorical("S", 4),
        ])
        .unwrap();
        let md = Microdata::with_leading_qi(TableBuilder::new(schema).finish(), 1).unwrap();
        let index = QueryIndex::from_microdata(&md);
        let q = CountQuery {
            qi_preds: vec![(0, InPredicate::new(vec![3], 10).unwrap())],
            sens_pred: InPredicate::full(4),
        };
        assert_eq!(evaluate_exact_indexed(&index, &q), 0);
    }

    /// Workload-level differential: a full generated workload agrees
    /// query-by-query, bit-for-bit, on both entry points.
    #[test]
    fn differential_against_scalar_paths_on_generated_workloads() {
        let md = structured_md(500);
        let partition = anatomize(&md, &AnatomizeConfig::new(4).with_seed(11)).unwrap();
        let tables = AnatomizedTables::publish(&md, &partition, 4).unwrap();
        let index = QueryIndex::build(&md, &tables).unwrap();

        for qd in 1..=3 {
            for seed in [1, 2, 3] {
                let spec = WorkloadSpec {
                    qd,
                    selectivity: 0.05,
                    count: 40,
                    seed,
                };
                for q in spec.generate(&md).unwrap() {
                    assert_eq!(
                        evaluate_exact_indexed(&index, &q),
                        evaluate_exact(&md, &q),
                        "exact mismatch on {q}"
                    );
                    let scalar = estimate_anatomy(&tables, &q);
                    let indexed = estimate_anatomy_indexed(&index, &tables, &q);
                    assert_eq!(indexed, scalar, "estimate mismatch on {q}");
                }
            }
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            /// On arbitrary microdata and arbitrary in-domain predicates,
            /// both indexed paths equal the scalar oracles exactly.
            #[test]
            fn indexed_paths_equal_scalar_oracles(
                rows in proptest::collection::vec((0u32..12, 0u32..5, 0u32..6), 8..120),
                qi_a in proptest::collection::vec(0u32..12, 1..6),
                qi_b in proptest::collection::vec(0u32..5, 1..4),
                sens in proptest::collection::vec(0u32..6, 1..4),
                l in 2usize..4,
                seed in 0u64..20,
            ) {
                let schema = Schema::new(vec![
                    Attribute::numerical("A", 12),
                    Attribute::categorical("B", 5),
                    Attribute::categorical("S", 6),
                ])
                .unwrap();
                let mut b = TableBuilder::new(schema);
                for (a, bb, s) in &rows {
                    b.push_row(&[*a, *bb, *s]).unwrap();
                }
                let md = Microdata::with_leading_qi(b.finish(), 2).unwrap();

                let q = CountQuery {
                    qi_preds: vec![
                        (0, InPredicate::new(qi_a, 12).unwrap()),
                        (1, InPredicate::new(qi_b, 5).unwrap()),
                    ],
                    sens_pred: InPredicate::new(sens, 6).unwrap(),
                };

                // Exact path: microdata-only index.
                let md_index = QueryIndex::from_microdata(&md);
                prop_assert_eq!(
                    evaluate_exact_indexed(&md_index, &q),
                    evaluate_exact(&md, &q)
                );

                // Estimator path: needs an eligible partition.
                let Ok(partition) =
                    anatomize(&md, &AnatomizeConfig::new(l).with_seed(seed))
                else {
                    return Ok(());
                };
                let tables = AnatomizedTables::publish(&md, &partition, l).unwrap();
                let index = QueryIndex::build(&md, &tables).unwrap();
                prop_assert_eq!(
                    evaluate_exact_indexed(&index, &q),
                    evaluate_exact(&md, &q)
                );
                let scalar = estimate_anatomy(&tables, &q);
                let indexed = estimate_anatomy_indexed(&index, &tables, &q);
                prop_assert!(
                    indexed == scalar,
                    "estimate mismatch: indexed {} vs scalar {}", indexed, scalar
                );
            }
        }
    }
}
