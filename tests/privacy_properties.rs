//! Property-based integration tests: the paper's privacy and quality
//! theorems must hold for *arbitrary* eligible microdata, not just the
//! datasets we ship.

use anatomy::audit::{audit_release_for, names_for, Stage};
use anatomy::core::adversary::{individual_breach_probability, tuple_breach_probabilities};
use anatomy::core::{
    anatomize, anatomize_sharded, rce_lower_bound, rce_of_partition, AnatomizeConfig,
    AnatomizedTables, BucketStrategy, CoreError, ShardConfig,
};
use anatomy::generalization::{mondrian, MondrianConfig};
use anatomy::query::{estimate_anatomy, estimate_generalization, evaluate_exact, InPredicate};
use anatomy::storage::{IoCounter, PageConfig};
use anatomy::tables::{Attribute, Microdata, Schema, TableBuilder, Value};
use proptest::prelude::*;

const QI_DOM: u32 = 20;
const S_DOM: u32 = 8;

fn microdata(rows: &[(u32, u32)]) -> Microdata {
    let schema = Schema::new(vec![
        Attribute::numerical("A", QI_DOM),
        Attribute::categorical("S", S_DOM),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    for &(a, s) in rows {
        b.push_row(&[a, s]).unwrap();
    }
    Microdata::with_leading_qi(b.finish(), 1).unwrap()
}

fn rows_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..QI_DOM, 0u32..S_DOM), 8..200)
}

/// Microdata with two QI columns, `(a, b, s)` rows.
fn microdata2(rows: &[(u32, u32, u32)]) -> Microdata {
    let schema = Schema::new(vec![
        Attribute::numerical("A", QI_DOM),
        Attribute::numerical("B", QI_DOM),
        Attribute::categorical("S", S_DOM),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    for &(a, qb, s) in rows {
        b.push_row(&[a, qb, s]).unwrap();
    }
    Microdata::with_leading_qi(b.finish(), 2).unwrap()
}

/// The QIT's QI columns, in row order.
fn qi_columns(tables: &AnatomizedTables) -> Vec<Vec<u32>> {
    (0..2).map(|i| tables.qi_codes(i).to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Corollary 1 + Theorem 1: breach probabilities never exceed 1/l,
    /// at the tuple level and at the individual level.
    #[test]
    fn breach_bounds_hold(rows in rows_strategy(), l in 2usize..5, seed in 0u64..50) {
        let md = microdata(&rows);
        let result = anatomize(&md, &AnatomizeConfig::new(l).with_seed(seed));
        let Ok(p) = result else {
            let rejected = matches!(result, Err(CoreError::NotEligible { .. }));
            prop_assert!(rejected);
            return Ok(());
        };
        let tables = AnatomizedTables::publish(&md, &p, l).unwrap();
        let bound = 1.0 / l as f64 + 1e-9;
        for prob in tuple_breach_probabilities(&tables, &md) {
            prop_assert!(prob <= bound);
        }
        // Individuals: every distinct (QI, real value) pair in the data.
        for r in 0..md.len().min(50) {
            let qi = vec![md.qi_value(r, 0)];
            let breach =
                individual_breach_probability(&tables, &qi, md.sensitive_value(r)).unwrap();
            prop_assert!(breach <= bound, "row {} breach {}", r, breach);
        }
    }

    /// Theorems 2 and 4 via the facade: the RCE of Anatomize's partition
    /// is within (1 + 1/n) of the lower bound.
    #[test]
    fn rce_optimality_holds(rows in rows_strategy(), l in 2usize..5) {
        let md = microdata(&rows);
        if let Ok(p) = anatomize(&md, &AnatomizeConfig::new(l)) {
            let rce = rce_of_partition(&md, &p);
            let bound = rce_lower_bound(md.len(), l);
            prop_assert!(rce + 1e-9 >= bound);
            prop_assert!(rce <= bound * (1.0 + 1.0 / md.len() as f64) + 1e-9);
        }
    }

    /// Both estimators agree exactly with the microdata on queries whose
    /// QI predicate covers the whole domain (only the sensitive predicate
    /// filters).
    #[test]
    fn estimators_exact_on_sensitive_only_queries(
        rows in rows_strategy(),
        value in 0u32..S_DOM,
    ) {
        let md = microdata(&rows);
        let l = 2;
        let Ok(p) = anatomize(&md, &AnatomizeConfig::new(l)) else { return Ok(()); };
        let tables = AnatomizedTables::publish(&md, &p, l).unwrap();
        let Ok((gp, gt)) = mondrian(&md, &MondrianConfig::all_free(l, 1)) else { return Ok(()); };
        prop_assert!(gp.is_l_diverse(&md, l));

        let q = anatomy::query::CountQuery {
            qi_preds: vec![(0, InPredicate::full(QI_DOM))],
            sens_pred: InPredicate::new(vec![value], S_DOM).unwrap(),
        };
        let act = evaluate_exact(&md, &q) as f64;
        prop_assert!((estimate_anatomy(&tables, &q) - act).abs() < 1e-6);
        prop_assert!((estimate_generalization(&gt, &q) - act).abs() < 1e-6);
    }

    /// The QIT publishes the exact multiset of QI values (no information
    /// about QI marginals is lost — the source of anatomy's utility).
    #[test]
    fn qit_preserves_qi_multiset(rows in rows_strategy(), seed in 0u64..20) {
        let md = microdata(&rows);
        if let Ok(p) = anatomize(&md, &AnatomizeConfig::new(2).with_seed(seed)) {
            let tables = AnatomizedTables::publish(&md, &p, 2).unwrap();
            let mut original: Vec<u32> = md.qi_codes(0).to_vec();
            let mut published: Vec<u32> = tables.qi_codes(0).to_vec();
            original.sort_unstable();
            published.sort_unstable();
            prop_assert_eq!(original, published);
            // And the ST counts sum to n per construction.
            let total: u32 = tables.st_records().iter().map(|r| r.count).sum();
            prop_assert_eq!(total as usize, md.len());
        }
    }

    /// Row order: the in-memory engine (both bucket strategies) and the
    /// sharded engine (1, 3 and 8 shards) list the QIT in the
    /// microdata's row order, so its QI columns, row by row, are the
    /// microdata's own. Changing only the sensitive column therefore
    /// cannot reorder them: the order says nothing about sensitive
    /// values. (`anatomize_external` lists rows in draw order and does
    /// not hold this.)
    #[test]
    fn qit_rows_keep_the_microdata_order(
        rows in proptest::collection::vec((0u32..QI_DOM, 0u32..QI_DOM, 0u32..S_DOM), 8..200),
        l in 2usize..5,
        seed in 0u64..50,
    ) {
        let md = microdata2(&rows);
        let expected: Vec<Vec<u32>> = (0..2).map(|i| md.qi_codes(i).to_vec()).collect();
        let qi_schema = md.table().schema().project(md.qi_columns()).unwrap();
        for strategy in [BucketStrategy::LargestFirst, BucketStrategy::RoundRobin] {
            let config = AnatomizeConfig::new(l).with_seed(seed).with_strategy(strategy);
            // Ineligible data, and round-robin's stranded residues, publish
            // nothing whose order could leak.
            let Ok(p) = anatomize(&md, &config) else { continue };
            let tables = AnatomizedTables::publish(&md, &p, l).unwrap();
            prop_assert_eq!(qi_columns(&tables), expected.clone());
            for (shards, pages_per_shard) in [(1, 12), (3, 6), (8, 4)] {
                let shard =
                    ShardConfig::new(PageConfig::with_page_size(64), shards, pages_per_shard)
                        .unwrap();
                let out = anatomize_sharded(&md, &config, &shard, &IoCounter::new()).unwrap();
                let tables = out.into_tables(qi_schema.clone(), l).unwrap();
                prop_assert_eq!(qi_columns(&tables), expected.clone(), "{} shards", shards);
            }
        }
    }

    /// Registry enumeration over the in-memory engine: any release it
    /// publishes passes *every* invariant the `anatomy-audit` registry
    /// lists for the anatomize stage, and the battery that ran is
    /// exactly the registered one — an invariant registered tomorrow is
    /// checked here with no edit to this test.
    #[test]
    fn releases_pass_all_registered_invariants(
        rows in rows_strategy(),
        l in 2usize..5,
        seed in 0u64..30,
    ) {
        let md = microdata(&rows);
        if let Ok(p) = anatomize(&md, &AnatomizeConfig::new(l).with_seed(seed)) {
            let tables = AnatomizedTables::publish(&md, &p, l).unwrap();
            let report = audit_release_for(Stage::Anatomize, &tables, l);
            let ran: Vec<&str> = report.checks.iter().map(|c| c.name).collect();
            prop_assert_eq!(ran, names_for(Stage::Anatomize));
            prop_assert!(report.passed(), "{}", report.render());
        }
    }

    /// Adversary probabilities per tuple always form a distribution:
    /// summing Pr{t = v} over the group's values gives exactly 1.
    #[test]
    fn adversary_probabilities_normalize(rows in rows_strategy(), seed in 0u64..20) {
        let md = microdata(&rows);
        if let Ok(p) = anatomize(&md, &AnatomizeConfig::new(3).with_seed(seed)) {
            let tables = AnatomizedTables::publish(&md, &p, 3).unwrap();
            for r in 0..md.len().min(60) {
                let total: f64 = (0..S_DOM)
                    .map(|v| {
                        anatomy::core::adversary::tuple_value_probability(
                            &tables,
                            r,
                            Value(v),
                        )
                    })
                    .sum();
                prop_assert!((total - 1.0).abs() < 1e-9);
            }
        }
    }
}
