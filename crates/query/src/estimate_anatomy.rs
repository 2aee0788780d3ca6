//! The anatomy estimator (Section 1.2).
//!
//! For each QI-group `j`, the QIT reveals the *exact* fraction `p_j` of the
//! group's tuples whose QI values satisfy the query's range conditions —
//! "this calculation does not need any assumption about the data
//! distribution ... because the distribution is precisely released". The
//! ST gives the group's count of qualifying sensitive values. The estimate
//! is `Σ_j p_j · Σ_{v ∈ pred(As)} c_j(v)`.
//!
//! The only approximation is the independence of the QI part and the
//! sensitive part *within* each group — exactly the information anatomy
//! withholds for privacy. With groups of size ~l the residual error decays
//! as groups multiply, which is why the paper's Figures 4–7 show errors
//! below 10%.

use crate::predicate::InPredicate;
use crate::query::CountQuery;
use anatomy_core::AnatomizedTables;
use anatomy_tables::Value;

/// Estimate `query` from the anatomized tables.
///
/// ```
/// use anatomy_core::{anatomize, AnatomizeConfig, AnatomizedTables};
/// use anatomy_query::{estimate_anatomy, evaluate_exact, CountQuery, InPredicate};
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
///
/// // COUNT(*) WHERE Age IN {0..10} AND Disease = 1, estimated from the
/// // published pair only:
/// let query = CountQuery {
///     qi_preds: vec![(0, InPredicate::new((0..10).collect(), 50)?)],
///     sens_pred: InPredicate::new(vec![1], 4)?,
/// };
/// let estimate = estimate_anatomy(&tables, &query);
/// let actual = evaluate_exact(&md, &query) as f64;
/// assert!((estimate - actual).abs() <= actual); // close, never wild
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn estimate_anatomy(tables: &AnatomizedTables, query: &CountQuery) -> f64 {
    let hits = group_hits(tables, &query.qi_preds);

    // Pass 2: combine with the ST.
    let mut estimate = 0.0f64;
    for (j, &h) in hits.iter().enumerate() {
        if h == 0 {
            continue;
        }
        let mass = tables.sensitive_mass(j as u32, |v: Value| query.sens_pred.contains(v.code()));
        if mass == 0 {
            continue;
        }
        estimate += (h as f64 / tables.group_size(j as u32) as f64) * mass as f64;
    }
    estimate
}

/// Estimate the query `qi_preds ∧ As = v` for every sensitive value `v`
/// the ST holds, in one pass over the QIT and two over the ST.
///
/// Returns `(v, estimate)` pairs in ascending `v`. Each estimate is
/// bit-identical to [`estimate_anatomy`] with the point predicate `{v}`:
/// the ST is sorted by `(group, value)` with one record per pair, so
/// every value's sum gets the scalar path's terms in the scalar path's
/// (ascending group) order. Values the ST does not hold estimate to 0
/// and are not listed. The sums are tallied by
/// [`AnatomizedTables::fold_per_value`]: in an array of at most |ST|
/// entries indexed by value when every value lies below |ST|, by binary
/// search over the sorted values otherwise, so memory stays O(|ST|)
/// whatever the codes.
pub fn estimate_anatomy_per_value(
    tables: &AnatomizedTables,
    qi_preds: &[(usize, InPredicate)],
) -> Vec<(Value, f64)> {
    // Each group's p_j, 0 when no row qualifies.
    let shares: Vec<f64> = group_hits(tables, qi_preds)
        .iter()
        .enumerate()
        .map(|(j, &h)| match h {
            0 => 0.0,
            h => h as f64 / tables.group_size(j as u32) as f64,
        })
        .collect();
    tables.fold_per_value(0.0f64, |estimate, r| {
        let p = shares[r.group as usize];
        if p != 0.0 && r.count != 0 {
            *estimate += p * r.count as f64;
        }
    })
}

/// Pass 1 of the estimator: per-group counts of QIT rows satisfying every
/// QI predicate.
fn group_hits(tables: &AnatomizedTables, qi_preds: &[(usize, InPredicate)]) -> Vec<u32> {
    let qi_cols: Vec<(&[u32], &[bool])> = qi_preds
        .iter()
        .map(|(i, p)| (tables.qi_codes(*i), p.mask()))
        .collect();
    let mut hits = vec![0u32; tables.group_count()];
    let group_ids = tables.group_ids();
    'rows: for r in 0..tables.len() {
        for (col, mask) in &qi_cols {
            if !mask[col[r] as usize] {
                continue 'rows;
            }
        }
        hits[group_ids[r] as usize] += 1;
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::evaluate_exact;
    use crate::predicate::InPredicate;
    use anatomy_core::{anatomize, AnatomizeConfig, AnatomizedTables, Partition};
    use anatomy_tables::{Attribute, Microdata, Schema, TableBuilder};

    /// Table 1 with QI = (Age, Zip), sensitive = Disease.
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

    fn paper_tables() -> (Microdata, AnatomizedTables) {
        let md = paper_md();
        let p = Partition::new(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]], 8).unwrap();
        let t = AnatomizedTables::publish(&md, &p, 2).unwrap();
        (md, t)
    }

    /// Section 1.2's headline: query A estimated from the anatomized
    /// tables gives exactly the true answer 1 (p = 50%, 2 tuples carry
    /// pneumonia in group 1).
    #[test]
    fn query_a_is_estimated_exactly() {
        let (md, t) = paper_tables();
        let q = CountQuery {
            qi_preds: vec![
                (0, InPredicate::new((0..=30).collect(), 100).unwrap()),
                (1, InPredicate::new((11..=20).collect(), 60).unwrap()),
            ],
            sens_pred: InPredicate::new(vec![4], 5).unwrap(),
        };
        let est = estimate_anatomy(&t, &q);
        assert!((est - 1.0).abs() < 1e-12, "estimate {est} != 1");
        assert_eq!(evaluate_exact(&md, &q), 1);
    }

    #[test]
    fn full_domain_query_is_exact() {
        let (md, t) = paper_tables();
        let q = CountQuery {
            qi_preds: vec![(0, InPredicate::full(100))],
            sens_pred: InPredicate::full(5),
        };
        assert!((estimate_anatomy(&t, &q) - md.len() as f64).abs() < 1e-9);
    }

    #[test]
    fn sensitive_only_queries_are_exact() {
        // With no QI predicate, p_j = 1 for every group and the ST gives
        // exact sensitive counts: the estimate equals the truth.
        let (md, t) = paper_tables();
        for v in 0..5u32 {
            let q = CountQuery {
                qi_preds: vec![],
                sens_pred: InPredicate::new(vec![v], 5).unwrap(),
            };
            let est = estimate_anatomy(&t, &q);
            let act = evaluate_exact(&md, &q) as f64;
            assert!((est - act).abs() < 1e-9, "value {v}: {est} vs {act}");
        }
    }

    #[test]
    fn qi_only_queries_are_exact() {
        // With the sensitive predicate covering the whole domain, the
        // anatomy estimate is Σ_j hits_j — exact, because the QIT holds
        // exact QI values.
        let (md, t) = paper_tables();
        let q = CountQuery {
            qi_preds: vec![(0, InPredicate::new((60..=70).collect(), 100).unwrap())],
            sens_pred: InPredicate::full(5),
        };
        let est = estimate_anatomy(&t, &q);
        assert!((est - evaluate_exact(&md, &q) as f64).abs() < 1e-9);
    }

    #[test]
    fn estimate_is_unbiased_over_group_mixing() {
        // On data where the sensitive value is independent of QI within
        // groups, the estimator should be close to the truth on average.
        let schema = Schema::new(vec![
            Attribute::numerical("A", 50),
            Attribute::categorical("S", 8),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..400u32 {
            b.push_row(&[i % 50, (i * 13 + 5) % 8]).unwrap();
        }
        let md = Microdata::with_leading_qi(b.finish(), 1).unwrap();
        let p = anatomize(&md, &AnatomizeConfig::new(4)).unwrap();
        let t = AnatomizedTables::publish(&md, &p, 4).unwrap();

        let q = CountQuery {
            qi_preds: vec![(0, InPredicate::new((10..30).collect(), 50).unwrap())],
            sens_pred: InPredicate::new(vec![0, 1, 2], 8).unwrap(),
        };
        let est = estimate_anatomy(&t, &q);
        let act = evaluate_exact(&md, &q) as f64;
        let rel = (est - act).abs() / act;
        assert!(
            rel < 0.35,
            "relative error {rel} too large (est {est}, act {act})"
        );
    }

    mod properties {
        use super::*;
        use anatomy_core::BucketStrategy;
        use proptest::prelude::*;
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{RngExt, SeedableRng};

        /// A random subset of `0..domain` (never empty).
        fn random_pred(rng: &mut StdRng, domain: u32) -> InPredicate {
            let mut values: Vec<u32> = (0..domain)
                .filter(|_| rng.random_range(0..3u32) == 0)
                .collect();
            values.push(rng.random_range(0..domain));
            InPredicate::new(values, domain).unwrap()
        }

        /// Check every per-value estimate of `t` against the scalar
        /// estimator with that value's point predicate, by `to_bits`.
        fn check_per_value(
            t: &AnatomizedTables,
            qi_preds: &[(usize, InPredicate)],
            s_dom: u32,
        ) -> Result<(), TestCaseError> {
            let per_value = estimate_anatomy_per_value(t, qi_preds);
            let mut listed = per_value.iter().peekable();
            for v in 0..s_dom {
                let scalar = estimate_anatomy(
                    t,
                    &CountQuery {
                        qi_preds: qi_preds.to_vec(),
                        sens_pred: InPredicate::new(vec![v], s_dom).unwrap(),
                    },
                );
                match listed.next_if(|(value, _)| value.code() == v) {
                    Some(&(_, est)) => {
                        prop_assert_eq!(est.to_bits(), scalar.to_bits(), "value {}", v);
                    }
                    None => prop_assert_eq!(scalar.to_bits(), 0f64.to_bits(), "value {}", v),
                }
            }
            prop_assert!(listed.next().is_none(), "only ST values are listed");
            Ok(())
        }

        /// The ordered path every per-value estimate was once computed by:
        /// sort and dedup the ST's codes, then find each record's slot by
        /// binary search.
        fn per_value_by_sort(
            t: &AnatomizedTables,
            qi_preds: &[(usize, InPredicate)],
        ) -> Vec<(Value, f64)> {
            let hits = group_hits(t, qi_preds);
            let mut values: Vec<u32> = t.st_records().iter().map(|r| r.value.code()).collect();
            values.sort_unstable();
            values.dedup();
            let mut estimates = vec![0.0f64; values.len()];
            for r in t.st_records() {
                let h = hits[r.group as usize];
                if h == 0 || r.count == 0 {
                    continue;
                }
                let slot = values.partition_point(|&v| v < r.value.code());
                estimates[slot] += (h as f64 / t.group_size(r.group) as f64) * r.count as f64;
            }
            values.into_iter().map(Value).zip(estimates).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// Per-value estimates equal the sort path's bit for bit, on
            /// releases whose codes all lie below |ST| (the dense tally)
            /// and on releases with codes at or above it (the ordered
            /// tally): one code far past the rest, or codes spread over a
            /// 2^16 domain. Random partitions, published unchecked, give
            /// ST counts above 1 too.
            #[test]
            fn per_value_matches_the_sort_path(
                n in 20usize..400,
                spread in 0u8..3,
                seed in 0u64..1 << 32,
                qi_cols in 0usize..4,
            ) {
                const S_DOM: u32 = 1 << 16;
                let mut rng = StdRng::seed_from_u64(seed);
                let schema = Schema::new(vec![
                    Attribute::numerical("Age", 30),
                    Attribute::numerical("Zip", 12),
                    Attribute::categorical("S", S_DOM),
                ])
                .unwrap();
                let mut b = TableBuilder::new(schema);
                for i in 0..n {
                    let s = match spread {
                        0 => rng.random_range(0..8u32),
                        1 if i == n / 2 => S_DOM - 1,
                        1 => rng.random_range(0..8u32),
                        _ => rng.random_range(0..S_DOM),
                    };
                    b.push_row(&[rng.random_range(0..30u32), rng.random_range(0..12u32), s])
                        .unwrap();
                }
                let md = Microdata::with_leading_qi(b.finish(), 2).unwrap();
                let qi_preds: Vec<(usize, InPredicate)> = [(0usize, 30u32), (1, 12)]
                    .into_iter()
                    .enumerate()
                    .filter(|&(k, _)| qi_cols & (1 << k) != 0)
                    .map(|(_, (col, dom))| (col, random_pred(&mut rng, dom)))
                    .collect();
                let mut rows: Vec<u32> = (0..n as u32).collect();
                rows.shuffle(&mut rng);
                let groups: Vec<Vec<u32>> = rows
                    .chunks(rng.random_range(1..9usize))
                    .map(<[u32]>::to_vec)
                    .collect();
                let p = Partition::new(groups, n).unwrap();
                let t = AnatomizedTables::publish_unchecked(&md, &p, 2).unwrap();

                let top = t.st_records().iter().map(|r| r.value.code()).max().unwrap();
                prop_assert_eq!(spread == 0, (top as usize) < t.st_records().len());
                let dense = estimate_anatomy_per_value(&t, &qi_preds);
                let sorted = per_value_by_sort(&t, &qi_preds);
                prop_assert_eq!(dense.len(), sorted.len());
                for (&(v, est), &(w, oracle)) in dense.iter().zip(&sorted) {
                    prop_assert_eq!(v, w);
                    prop_assert_eq!(est.to_bits(), oracle.to_bits(), "value {}", v.code());
                }
            }

            /// Every per-value estimate equals the scalar estimator with
            /// that value's point predicate, bit for bit, over random
            /// releases and random QI predicates on none, one or both QI
            /// columns. Values absent from the ST are absent from the
            /// result and estimate to 0. The releases are `anatomize`'s,
            /// under either bucket strategy (every ST count is 1), and a
            /// random partition's, published unchecked so that counts
            /// above 1 occur too.
            #[test]
            fn per_value_matches_point_queries_bit_for_bit(
                n in 20usize..400,
                s_dom in 2u32..12,
                l in 2usize..5,
                seed in 0u64..1 << 32,
                round_robin in 0u8..2,
                qi_cols in 0usize..4,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let schema = Schema::new(vec![
                    Attribute::numerical("Age", 30),
                    Attribute::numerical("Zip", 12),
                    Attribute::categorical("S", s_dom),
                ])
                .unwrap();
                let mut b = TableBuilder::new(schema);
                for _ in 0..n {
                    let row = [
                        rng.random_range(0..30u32),
                        rng.random_range(0..12u32),
                        rng.random_range(0..s_dom),
                    ];
                    b.push_row(&row).unwrap();
                }
                let md = Microdata::with_leading_qi(b.finish(), 2).unwrap();
                let qi_preds: Vec<(usize, InPredicate)> = [(0usize, 30u32), (1, 12)]
                    .into_iter()
                    .enumerate()
                    .filter(|&(k, _)| qi_cols & (1 << k) != 0)
                    .map(|(_, (col, dom))| (col, random_pred(&mut rng, dom)))
                    .collect();

                let mut rows: Vec<u32> = (0..n as u32).collect();
                rows.shuffle(&mut rng);
                let mut groups = Vec::new();
                let mut rest = &rows[..];
                while !rest.is_empty() {
                    let (group, tail) = rest.split_at(rng.random_range(1..9usize).min(rest.len()));
                    groups.push(group.to_vec());
                    rest = tail;
                }
                let p = Partition::new(groups, n).unwrap();
                let t = AnatomizedTables::publish_unchecked(&md, &p, l).unwrap();
                check_per_value(&t, &qi_preds, s_dom)?;

                let strategy = if round_robin == 1 {
                    BucketStrategy::RoundRobin
                } else {
                    BucketStrategy::LargestFirst
                };
                let config = AnatomizeConfig::new(l).with_seed(seed).with_strategy(strategy);
                // Not l-eligible, or a stranded round-robin residue: no
                // anatomized release to check.
                if let Ok(p) = anatomize(&md, &config) {
                    let t = AnatomizedTables::publish(&md, &p, l).unwrap();
                    check_per_value(&t, &qi_preds, s_dom)?;
                }
            }
        }
    }
}
