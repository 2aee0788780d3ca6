//! `bench_anatomize_external` — drive the sharded out-of-core engine at
//! 1M–10M tuples on OCC-shaped census microdata (λ = 50) and write the
//! results to `BENCH_anatomize_external.json`.
//!
//! ```text
//! bench_anatomize_external [--seed S] [--out FILE] [--smoke]
//! ```
//!
//! Every cell is gated before its timing is trusted:
//!
//! * **identity** — at every n where the in-memory engine also runs
//!   (n ≤ 1M, and all smoke cells), the sharded QIT/ST decoded back into
//!   `AnatomizedTables` must equal
//!   `AnatomizedTables::publish(md, anatomize(md, cfg), l)` bit for bit;
//! * **I/O** — the measured logical page bill must stay within 1.5× of
//!   the closed-form `O(n/b)` model ([`anatomy_core::model_pages`]),
//!   in both directions: an overshoot means an extra pass crept in, an
//!   undershoot means pages stopped being charged.
//!
//! Either gate failing exits non-zero — this is the CI contract for the
//! `Engine::Sharded` pipeline. `--smoke` shrinks the grid to two small
//! cells for CI; the gates still run at full strength, the timings are
//! merely not meaningful.

use anatomy_bench::runner::BenchResult;
use anatomy_core::{
    anatomize, anatomize_sharded, model_pages, AnatomizeConfig, AnatomizedTables, ShardConfig,
};
use anatomy_data::census::{generate_census, CensusConfig};
use anatomy_data::occ_sal::occ_microdata;
use anatomy_storage::{IoCounter, PageConfig};
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

struct Config {
    seed: u64,
    out: String,
    smoke: bool,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        seed: 1,
        out: "BENCH_anatomize_external.json".into(),
        smoke: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("{flag} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match a.as_str() {
            "--seed" => cfg.seed = next("--seed").parse().expect("--seed"),
            "--out" => cfg.out = next("--out"),
            "--smoke" => cfg.smoke = true,
            other => {
                eprintln!(
                    "unknown argument {other}\nusage: bench_anatomize_external [--seed S] [--out FILE] [--smoke]"
                );
                std::process::exit(2);
            }
        }
    }
    cfg
}

/// The diversity parameter of the paper's Section 6.2 experiments.
const L: usize = 10;
/// QI attributes (OCC-3: Age, Gender, Education).
const D: usize = 3;

/// One grid point. `check_identity` additionally runs the in-memory
/// engine and compares published tables bit for bit.
struct Cell {
    n: usize,
    shard: ShardConfig,
    check_identity: bool,
}

fn grid(smoke: bool) -> Vec<Cell> {
    // 4096-byte pages (the paper's disk model) and a budget of
    // 8 × 16 + 2 = 130 pages, above the λ + 2 = 52 the join and the ST
    // merge keep resident.
    let shard = ShardConfig::new(PageConfig::paper(), 8, 16).expect("valid shard config");
    if smoke {
        // Tiny pages at smoke scale so hundreds of page boundaries are
        // still exercised in seconds.
        let small = ShardConfig::new(PageConfig::with_page_size(256), 4, 16).expect("valid");
        return vec![
            Cell {
                n: 20_000,
                shard: small,
                check_identity: true,
            },
            Cell {
                n: 50_000,
                shard,
                check_identity: true,
            },
        ];
    }
    vec![
        Cell {
            n: 1_000_000,
            shard,
            check_identity: true,
        },
        Cell {
            n: 10_000_000,
            shard,
            // The 10M arm exists to show scale; identity is pinned at
            // every overlapping n below (and by the differential suite).
            check_identity: false,
        },
    ]
}

fn time_ms<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = black_box(f());
    (r, start.elapsed().as_secs_f64() * 1e3)
}

struct CellResult {
    n: usize,
    shard: ShardConfig,
    reads: u64,
    writes: u64,
    model: u64,
    ratio: f64,
    sharded_ms: f64,
    in_memory_ms: Option<f64>,
    identical: Option<bool>,
    groups: usize,
}

fn run_cell(cell: &Cell, cfg: &Config) -> BenchResult<CellResult> {
    let census = generate_census(&CensusConfig::new(cell.n).with_seed(cfg.seed));
    let md = occ_microdata(census, D)?;
    let lambda = md.sensitive_domain_size() as usize;
    let config = AnatomizeConfig::new(L).with_seed(cfg.seed);

    let counter = IoCounter::new();
    let (out, sharded_ms) = time_ms(|| anatomize_sharded(&md, &config, &cell.shard, &counter));
    let out = out?;

    let model = model_pages(md.len(), D, lambda, L, &cell.shard);
    let ratio = out.stats.total() as f64 / model as f64;

    let (identical, in_memory_ms) = if cell.check_identity {
        let (partition, in_mem_ms) = time_ms(|| anatomize(&md, &config));
        let expect = AnatomizedTables::publish(&md, &partition?, L)?;
        let qi_schema = md.table().schema().project(md.qi_columns())?;
        let got = out.into_tables(qi_schema, L)?;
        (Some(got == expect), Some(in_mem_ms))
    } else {
        (None, None)
    };

    eprintln!(
        "# n={n:>9} λ={lambda} l={L}: {total:>7} I/Os (model {model}, ratio {ratio:.2}), sharded {sharded_ms:>9.1} ms{id}",
        n = md.len(),
        total = out.stats.total(),
        id = match identical {
            Some(true) => ", identical to in-memory",
            Some(false) => ", DIVERGED from in-memory",
            None => "",
        },
    );

    Ok(CellResult {
        n: md.len(),
        shard: cell.shard,
        reads: out.stats.page_reads,
        writes: out.stats.page_writes,
        model,
        ratio,
        sharded_ms,
        in_memory_ms,
        identical,
        groups: out.groups,
    })
}

fn run(cfg: &Config) -> BenchResult<(String, bool)> {
    let mut results = Vec::new();
    for cell in grid(cfg.smoke) {
        results.push(run_cell(&cell, cfg)?);
    }

    let io_gate = results
        .iter()
        .all(|r| r.ratio <= 1.5 && r.ratio >= 1.0 / 1.5);
    let identity_gate = results.iter().all(|r| r.identical != Some(false));
    let identity_ran = results.iter().any(|r| r.identical.is_some());
    eprintln!(
        "# gates: io_within_1.5x_model={io_gate} identity={identity_gate} (checked at {} cells)",
        results.iter().filter(|r| r.identical.is_some()).count()
    );

    let mut cells_json = String::new();
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            cells_json,
            r#"    {{ "n": {n}, "lambda": 50, "l": {L}, "d": {D}, "page_size": {ps}, "shards": {sh}, "pages_per_shard": {pps}, "groups": {groups}, "io": {{ "page_reads": {reads}, "page_writes": {writes}, "total": {total} }}, "model_pages": {model}, "io_over_model": {ratio:.3}, "sharded_ms": {sms:.1}, "in_memory_ms": {imms}, "identical_to_in_memory": {ident} }}{sep}"#,
            n = r.n,
            ps = r.shard.page().page_size,
            sh = r.shard.shards(),
            pps = r.shard.pages_per_shard(),
            groups = r.groups,
            reads = r.reads,
            writes = r.writes,
            total = r.reads + r.writes,
            model = r.model,
            ratio = r.ratio,
            sms = r.sharded_ms,
            imms = r
                .in_memory_ms
                .map_or("null".into(), |ms| format!("{ms:.1}")),
            ident = r.identical.map_or("null".into(), |b| b.to_string()),
        );
    }
    let json = format!(
        r#"{{
  "config": {{ "seed": {seed}, "smoke": {smoke}, "engine": "sharded", "io_model": "model_pages: constant sequential passes over input-sized files, O(n/b)" }},
  "gates": {{ "io_within_1_5x_model": {io_gate}, "identity_to_in_memory": {identity_gate} }},
  "cells": [
{cells_json}  ]
}}
"#,
        seed = cfg.seed,
        smoke = cfg.smoke,
    );
    Ok((json, io_gate && identity_gate && identity_ran))
}

fn main() -> ExitCode {
    let cfg = parse_args();
    match run(&cfg) {
        Ok((json, gates_pass)) => {
            if let Err(e) = std::fs::write(&cfg.out, &json) {
                eprintln!("error writing {}: {e}", cfg.out);
                return ExitCode::FAILURE;
            }
            print!("{json}");
            eprintln!("# wrote {}", cfg.out);
            if !gates_pass {
                eprintln!("# FAIL: a correctness gate did not pass (see above)");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
