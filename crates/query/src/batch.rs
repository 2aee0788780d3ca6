//! Batch evaluation entry points: whole workloads against the bitmap
//! index, parallelized on the persistent [`anatomy_pool::Pool`].
//!
//! The experiment harness answers workloads of up to 10 000 queries per
//! figure cell. These helpers are the one place where "evaluate a batch"
//! meets "spread it over the pool", so every caller (the ground-truth
//! loop, the error loops, the CLI's batch query command) shares one
//! parallelization policy: queries are [`anatomy_pool::ItemCost::Cheap`]
//! items — microseconds each against the index — so tiny batches stay
//! serial and large ones split into chunks.
//!
//! Each function is the batch form of its scalar namesake and inherits
//! its bit-for-bit contract with the scan-based oracle.

use crate::index::{estimate_anatomy_indexed, evaluate_exact_indexed, QueryIndex};
use crate::query::CountQuery;
use anatomy_core::AnatomizedTables;
use anatomy_pool::{ItemCost, Pool};

/// Answer every query with `answer` on `pool`, in query order, as one
/// `query.batch` span counted on the `query.batches` /
/// `query.batch_queries` counters of the global `anatomy-obs` registry.
fn run_batch<R: Send>(
    pool: &Pool,
    queries: &[CountQuery],
    answer: impl Fn(&CountQuery) -> R + Sync,
) -> Vec<R> {
    let obs = anatomy_obs::global();
    let _span = obs.span("query.batch");
    obs.counter("query.batches").incr();
    obs.counter("query.batch_queries").add(queries.len() as u64);
    anatomy_obs::tracer().emit(anatomy_obs::EventKind::QueryBatch {
        queries: queries.len() as u64,
    });
    pool.par_map_hinted(queries, ItemCost::Cheap, answer)
}

/// Exact COUNTs for a whole batch via `index`, on `pool`.
///
/// # Panics
///
/// Like [`evaluate_exact_indexed`]: the index must carry sensitive
/// bitmaps (be microdata-backed).
pub fn evaluate_exact_batch(pool: &Pool, index: &QueryIndex, queries: &[CountQuery]) -> Vec<u64> {
    run_batch(pool, queries, |q| evaluate_exact_indexed(index, q))
}

/// Anatomy estimates for a whole batch via `index`, on `pool`: the batch
/// form of [`estimate_anatomy_indexed`].
pub fn estimate_anatomy_batch(
    pool: &Pool,
    index: &QueryIndex,
    tables: &AnatomizedTables,
    queries: &[CountQuery],
) -> Vec<f64> {
    run_batch(pool, queries, |q| {
        estimate_anatomy_indexed(index, tables, q)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::evaluate_exact;
    use crate::workload::WorkloadSpec;
    use anatomy_core::{anatomize, AnatomizeConfig};
    use anatomy_tables::{Attribute, Microdata, Schema, TableBuilder};

    fn md(n: u32) -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("Age", 100),
            Attribute::numerical("Zip", 60),
            Attribute::categorical("Disease", 5),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..n {
            b.push_row(&[i % 100, (i * 7) % 60, i % 5]).unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 2).unwrap()
    }

    #[test]
    fn batch_paths_match_scalar_paths() {
        let md = md(500);
        let partition = anatomize(&md, &AnatomizeConfig::new(4)).unwrap();
        let tables = AnatomizedTables::publish(&md, &partition, 4).unwrap();
        let index = QueryIndex::build(&md, &tables).unwrap();
        let queries = WorkloadSpec {
            qd: 2,
            selectivity: 0.1,
            count: 100,
            seed: 11,
        }
        .generate(&md)
        .unwrap();

        let pool = Pool::new(4);
        let exact = evaluate_exact_batch(&pool, &index, &queries);
        let est = estimate_anatomy_batch(&pool, &index, &tables, &queries);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(exact[i], evaluate_exact(&md, q), "query {i}");
            assert_eq!(
                est[i],
                estimate_anatomy_indexed(&index, &tables, q),
                "query {i}"
            );
        }
    }
}
