//! Differential oracle for the sharded out-of-core engine: for ANY input,
//! `anatomize_sharded` must publish exactly what the in-memory pair of
//! `anatomize` and `AnatomizedTables::publish` publish — same QIT bytes,
//! same ST bytes — or fail with exactly the same error. Property-based
//! over both bucket strategies, uniform and skewed sensitive
//! distributions, and input sizes crossing the shard-count and page
//! boundaries. Every successful pair is additionally audited against
//! **all invariants the registry lists for the sharded stage**, so a
//! release that matches the oracle but breaks a paper property still
//! fails here.

use anatomy::audit::audit_release;
use anatomy::core::{
    anatomize, anatomize_sharded, AnatomizeConfig, AnatomizedTables, BucketStrategy, CoreError,
    ShardConfig,
};
use anatomy::data::census::{generate_census, CensusConfig};
use anatomy::data::occ_sal::occ_microdata;
use anatomy::storage::{IoCounter, PageConfig};
use anatomy::tables::{Attribute, Microdata, Schema, TableBuilder};
use proptest::prelude::*;

const QI_DOM: u32 = 40;
const S_DOM: u32 = 9;

fn microdata(rows: &[(u32, u32, u32)]) -> Microdata {
    let schema = Schema::new(vec![
        Attribute::numerical("A", QI_DOM),
        Attribute::numerical("B", QI_DOM),
        Attribute::categorical("S", S_DOM),
    ])
    .unwrap();
    let mut b = TableBuilder::new(schema);
    for &(a, bb, s) in rows {
        b.push_row(&[a, bb, s]).unwrap();
    }
    Microdata::with_leading_qi(b.finish(), 2).unwrap()
}

/// A shard configuration whose derived budget always covers the λ = 9
/// domain (required budget 11), while still sweeping the shard fan-out
/// and page size.
fn shard_config(page_size: usize, shards: usize) -> ShardConfig {
    let pages = ShardConfig::required_budget(S_DOM as usize)
        .div_ceil(shards)
        .max(3);
    ShardConfig::new(PageConfig::with_page_size(page_size), shards, pages).unwrap()
}

/// Uniform-ish rows: every sensitive value equally likely.
fn uniform_rows() -> impl Strategy<Value = Vec<(u32, u32, u32)>> {
    proptest::collection::vec((0u32..QI_DOM, 0u32..QI_DOM, 0u32..S_DOM), 0..200)
}

/// Fold the raw sensitive draw (over `0..2·S_DOM`) onto a skewed
/// distribution: over half the mass lands on value 0, the tail stays
/// uniform. Near the eligibility edge, so both engines exercise (and
/// must agree on) `NotEligible` and `ResidueUnassignable` failures too.
fn skew(rows: Vec<(u32, u32, u32)>) -> Vec<(u32, u32, u32)> {
    rows.into_iter()
        .map(|(a, b, s_raw)| (a, b, if s_raw >= S_DOM { 0 } else { s_raw }))
        .collect()
}

/// The property: identical published tables, or identical errors.
fn check(rows: &[(u32, u32, u32)], l: usize, seed: u64, strategy: BucketStrategy, shards: usize) {
    let md = microdata(rows);
    let config = AnatomizeConfig::new(l)
        .with_seed(seed)
        .with_strategy(strategy);
    let shard = shard_config(64, shards);
    let counter = IoCounter::new();

    let in_mem = anatomize(&md, &config).and_then(|p| AnatomizedTables::publish(&md, &p, l));
    let sharded = anatomize_sharded(&md, &config, &shard, &counter).and_then(|out| {
        let qi_schema = md.table().schema().project(&[0, 1]).unwrap();
        out.into_tables(qi_schema, l)
    });

    match (in_mem, sharded) {
        (Ok(expect), Ok(got)) => {
            assert_eq!(got, expect, "tables diverge (n={})", md.len());
            // Registry enumeration: the agreed-on release passes every
            // invariant registered for the `anatomize` stage. Only
            // the paper's largest-first strategy promises Property 1
            // (the ≤ l−1 residue bound is its Lemma); the round-robin
            // ablation may legitimately leave more residue tuples.
            if strategy == BucketStrategy::LargestFirst {
                let report = audit_release(&got, l);
                assert!(
                    report.passed(),
                    "sharded release fails a registered invariant (n={}):\n{}",
                    md.len(),
                    report.render()
                );
            }
        }
        (Err(e), Err(s)) => assert_eq!(
            e.to_string(),
            s.to_string(),
            "engines fail with different errors"
        ),
        (Ok(_), Err(s)) => panic!("in-memory succeeded, sharded failed: {s}"),
        (Err(e), Ok(_)) => panic!("sharded succeeded, in-memory failed: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_equals_in_memory_uniform(
        rows in uniform_rows(),
        l in 2usize..5,
        seed in 0u64..=u64::MAX,
        shards in 1usize..5,
        round_robin in 0u8..2,
    ) {
        let strategy = if round_robin == 1 { BucketStrategy::RoundRobin } else { BucketStrategy::LargestFirst };
        check(&rows, l, seed, strategy, shards);
    }

    #[test]
    fn sharded_equals_in_memory_skewed(
        raw in proptest::collection::vec((0u32..QI_DOM, 0u32..QI_DOM, 0u32..2 * S_DOM), 0..200),
        l in 2usize..5,
        seed in 0u64..=u64::MAX,
        shards in 1usize..5,
        round_robin in 0u8..2,
    ) {
        let strategy = if round_robin == 1 { BucketStrategy::RoundRobin } else { BucketStrategy::LargestFirst };
        check(&skew(raw), l, seed, strategy, shards);
    }
}

/// n swept across the shard-count boundary (shards > λ, = λ, < λ) and
/// across page boundaries, deterministically — the exact edges proptest
/// might miss.
#[test]
fn sharded_equals_in_memory_at_boundaries() {
    for n in [2usize, 9, 10, 18, 27, 64, 65, 128, 130] {
        let rows: Vec<(u32, u32, u32)> = (0..n)
            .map(|i| (i as u32 % QI_DOM, (i as u32 * 7) % QI_DOM, i as u32 % S_DOM))
            .collect();
        for shards in [1usize, 2, 9, 16] {
            check(&rows, 2, 0xD1FF, BucketStrategy::LargestFirst, shards);
        }
    }
}

/// The budget boundary is typed and exact: one page below the derived
/// requirement errors with `ShardBudgetTooSmall`, at the requirement the
/// run succeeds and matches the oracle.
#[test]
fn budget_boundary_regression() {
    let rows: Vec<(u32, u32, u32)> = (0..90)
        .map(|i| (i as u32 % QI_DOM, i as u32 % QI_DOM, i as u32 % S_DOM))
        .collect();
    let md = microdata(&rows);
    let config = AnatomizeConfig::new(3);
    let required = ShardConfig::required_budget(S_DOM as usize);

    let tight = ShardConfig::new(PageConfig::with_page_size(64), 1, required - 3).unwrap();
    assert_eq!(tight.budget(), required - 1);
    match anatomize_sharded(&md, &config, &tight, &IoCounter::new()) {
        Err(CoreError::ShardBudgetTooSmall {
            required: r,
            budget,
        }) => {
            assert_eq!(r, required);
            assert_eq!(budget, required - 1);
        }
        other => panic!("expected ShardBudgetTooSmall, got {other:?}"),
    }

    let exact = ShardConfig::new(PageConfig::with_page_size(64), 1, required - 2).unwrap();
    assert_eq!(exact.budget(), required);
    let out = anatomize_sharded(&md, &config, &exact, &IoCounter::new()).unwrap();
    let expect = AnatomizedTables::publish(&md, &anatomize(&md, &config).unwrap(), 3).unwrap();
    let qi_schema = md.table().schema().project(&[0, 1]).unwrap();
    assert_eq!(out.into_tables(qi_schema, 3).unwrap(), expect);
}

/// The bill at a realistic size: OCC-5 microdata (n = 20 000, seed 7) at
/// l = 10 and the paper's budget, as the `publish_sharded` benchmark runs
/// it at a smaller n. Every pass is sequential, so the counts are exact
/// (386 reads, 277 writes): a change that moves a page of any pass shows
/// here. The tables are the in-memory engine's.
#[test]
fn occ5_bill_at_the_paper_budget_is_pinned() {
    let md = occ_microdata(generate_census(&CensusConfig::new(20_000).with_seed(7)), 5).unwrap();
    let config = AnatomizeConfig::new(10).with_seed(7);
    let out = anatomize_sharded(&md, &config, &ShardConfig::paper(), &IoCounter::new()).unwrap();
    assert_eq!((out.stats.page_reads, out.stats.page_writes), (386, 277));
    let expect = AnatomizedTables::publish(&md, &anatomize(&md, &config).unwrap(), 10).unwrap();
    let qi_schema = md.table().schema().project(md.qi_columns()).unwrap();
    assert_eq!(out.into_tables(qi_schema, 10).unwrap(), expect);
}
