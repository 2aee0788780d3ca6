//! `bench_query_index` — measure both bitmap indexes (v1 uncompressed,
//! v2 compressed containers + clustered batch evaluator) against the
//! scalar query paths and write the results to `BENCH_query_index.json`.
//!
//! ```text
//! bench_query_index [--n N] [--queries Q] [--seed S] [--out FILE] [--smoke]
//! ```
//!
//! Defaults: OCC-5 microdata over a grid of n ∈ {100 000, 1 000 000},
//! l = 10, two workload arms per n:
//!
//! - `random`: Q independent queries at qd = 5, s = 5% (the Table 7
//!   shape) — every query is its own cluster, so this measures raw
//!   per-query index evaluation.
//! - `drilldown`: Q/50 shared QI prefixes × 50 single-sensitive-value
//!   queries — the dashboard shape the v2 batch evaluator exists for:
//!   each prefix's conjunction is materialized once and popcounted 50
//!   times.
//!
//! Every answer is cross-checked bit-for-bit between the scalar oracle,
//! the v1 batch path, and the v2 single + batch paths before timings are
//! reported, so a speedup number can never hide a wrong result. Build
//! and batch phases run under `span_ns/` spans and the captured
//! `RunManifest` is embedded in the output JSON.
//!
//! `--smoke` shrinks the grid to one small n (default 2000, override
//! with `--n`) so CI exercises the identity gate — all four paths, both
//! arms — in well under a second.

use anatomy_bench::runner::BenchResult;
use anatomy_core::{anatomize, AnatomizeConfig, AnatomizedTables};
use anatomy_data::census::{generate_census, CensusConfig};
use anatomy_data::occ_sal::occ_microdata;
use anatomy_pool::Pool;
use anatomy_query::{
    estimate_anatomy, estimate_anatomy_batch, estimate_anatomy_batch_v2,
    estimate_anatomy_indexed_v2, evaluate_exact, evaluate_exact_batch, evaluate_exact_batch_v2,
    evaluate_exact_indexed_v2, CountQuery, InPredicate, QueryIndex, QueryIndexV2, WorkloadSpec,
};
use anatomy_tables::Microdata;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

struct Config {
    /// Explicit grid override; empty means the default {100k, 1M}.
    n: Option<usize>,
    queries: usize,
    seed: u64,
    out: String,
    smoke: bool,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        n: None,
        queries: 2_000,
        seed: 1,
        out: "BENCH_query_index.json".into(),
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
            "--n" => cfg.n = Some(next("--n").parse().expect("--n")),
            "--queries" => cfg.queries = next("--queries").parse().expect("--queries"),
            "--seed" => cfg.seed = next("--seed").parse().expect("--seed"),
            "--out" => cfg.out = next("--out"),
            "--smoke" => cfg.smoke = true,
            other => {
                eprintln!(
                    "unknown argument {other}\nusage: bench_query_index [--n N] [--queries Q] [--seed S] [--out FILE] [--smoke]"
                );
                std::process::exit(2);
            }
        }
    }
    cfg
}

/// Wall-clock milliseconds of one full pass, returning the pass result
/// so identity checks consume exactly what was timed.
fn timed<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = black_box(f());
    (start.elapsed().as_secs_f64() * 1e3, r)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The drilldown arm: `prefixes` distinct 3-attribute QI conjunctions,
/// each fanned out across every sensitive value (capped at 50). Queries
/// within a prefix share their `qi_preds` exactly, so the v2 batch
/// evaluator materializes each conjunction once.
fn drilldown_workload(md: &Microdata, prefixes: usize, seed: u64) -> Vec<CountQuery> {
    let mut rng = seed ^ 0xD1A_11D0;
    let pd = md.qi_count().min(3);
    let sens_values = (md.sensitive_domain_size() as usize).min(50);
    let mut queries = Vec::with_capacity(prefixes * sens_values);
    for _ in 0..prefixes {
        let mut qi_preds = Vec::with_capacity(pd);
        for attr in 0..pd {
            let domain = md.qi_domain_size(attr);
            // ~an eighth of the domain, at least one value.
            let k = (domain as usize / 8).max(1);
            let values: Vec<u32> = (0..k)
                .map(|_| (splitmix64(&mut rng) % domain as u64) as u32)
                .collect();
            qi_preds.push((attr, InPredicate::new(values, domain).expect("non-empty")));
        }
        for s in 0..sens_values as u32 {
            queries.push(CountQuery {
                qi_preds: qi_preds.clone(),
                sens_pred: InPredicate::new(vec![s], md.sensitive_domain_size()).expect("sens"),
            });
        }
    }
    queries
}

/// Timings of one workload arm through one answer mode.
struct ArmTimings {
    scalar_ms: f64,
    v1_batch_ms: f64,
    v2_single_ms: f64,
    v2_batch_ms: f64,
}

impl ArmTimings {
    fn json(&self) -> String {
        format!(
            r#"{{ "scalar_ms": {:.2}, "v1_batch_ms": {:.2}, "v2_single_ms": {:.2}, "v2_batch_ms": {:.2}, "v2_batch_speedup": {:.2} }}"#,
            self.scalar_ms,
            self.v1_batch_ms,
            self.v2_single_ms,
            self.v2_batch_ms,
            self.scalar_ms / self.v2_batch_ms
        )
    }
}

/// Run one workload arm through every exact path (scalar oracle, v1
/// batch, v2 single, v2 batch), assert all answers identical, return
/// timings.
fn exact_arm(
    label: &str,
    md: &Microdata,
    v1: &QueryIndex,
    v2: &QueryIndexV2,
    queries: &[CountQuery],
) -> ArmTimings {
    let pool = Pool::global();
    let (scalar_ms, scalar) = timed(|| {
        queries
            .iter()
            .map(|q| evaluate_exact(md, q))
            .collect::<Vec<u64>>()
    });
    let (v1_batch_ms, v1_ans) = timed(|| evaluate_exact_batch(pool, v1, queries));
    let (v2_single_ms, v2_single) = timed(|| {
        queries
            .iter()
            .map(|q| evaluate_exact_indexed_v2(v2, q))
            .collect::<Vec<u64>>()
    });
    let (v2_batch_ms, v2_batch) = timed(|| evaluate_exact_batch_v2(pool, v2, queries));
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(scalar[i], v1_ans[i], "{label}: v1 exact mismatch on {q}");
        assert_eq!(scalar[i], v2_single[i], "{label}: v2 exact mismatch on {q}");
        assert_eq!(
            scalar[i], v2_batch[i],
            "{label}: v2 batch exact mismatch on {q}"
        );
    }
    ArmTimings {
        scalar_ms,
        v1_batch_ms,
        v2_single_ms,
        v2_batch_ms,
    }
}

/// [`exact_arm`] for the anatomy estimate: identity means bit-identical
/// floats, the contract every estimator path in this repo keeps.
fn estimate_arm(
    label: &str,
    tables: &AnatomizedTables,
    v1: &QueryIndex,
    v2: &QueryIndexV2,
    queries: &[CountQuery],
) -> ArmTimings {
    let pool = Pool::global();
    let (scalar_ms, scalar) = timed(|| {
        queries
            .iter()
            .map(|q| estimate_anatomy(tables, q))
            .collect::<Vec<f64>>()
    });
    let (v1_batch_ms, v1_ans) = timed(|| estimate_anatomy_batch(pool, v1, tables, queries));
    let (v2_single_ms, v2_single) = timed(|| {
        queries
            .iter()
            .map(|q| estimate_anatomy_indexed_v2(v2, tables, q))
            .collect::<Vec<f64>>()
    });
    let (v2_batch_ms, v2_batch) = timed(|| estimate_anatomy_batch_v2(pool, v2, tables, queries));
    for (i, q) in queries.iter().enumerate() {
        let want = scalar[i].to_bits();
        assert!(
            want == v1_ans[i].to_bits(),
            "{label}: v1 estimate mismatch on {q}"
        );
        assert!(
            want == v2_single[i].to_bits(),
            "{label}: v2 estimate mismatch on {q}"
        );
        assert!(
            want == v2_batch[i].to_bits(),
            "{label}: v2 batch estimate mismatch on {q}"
        );
    }
    ArmTimings {
        scalar_ms,
        v1_batch_ms,
        v2_single_ms,
        v2_batch_ms,
    }
}

/// One grid cell: generate, publish, index twice, run both arms through
/// both modes, and return the row's JSON object.
fn run_row(n: usize, queries: usize, seed: u64) -> BenchResult<String> {
    const D: usize = 5;
    const L: usize = 10;
    const QD: usize = 5;
    const S: f64 = 0.05;
    let obs = anatomy_obs::global();

    eprintln!("# [n = {n}] generating OCC-{D} microdata");
    let census = generate_census(&CensusConfig::new(n).with_seed(seed));
    let md: Microdata = occ_microdata(census, D)?;
    let partition = anatomize(&md, &AnatomizeConfig::new(L).with_seed(seed))?;
    let tables = AnatomizedTables::publish(&md, &partition, L)?;

    let (v1_build_ms, v1) = timed(|| {
        let _span = obs.span("bench.build_v1");
        QueryIndex::build(&md, &tables)
    });
    let v1 = v1?;
    let (v2_build_ms, v2) = timed(|| {
        let _span = obs.span("bench.build_v2");
        QueryIndexV2::build(&md, &tables)
    });
    let v2 = v2?;
    let v1_bytes = v1.memory_words() * 8;
    let mix = v2.container_mix();
    eprintln!(
        "# [n = {n}] index memory: v1 {v1_bytes} B, v2 {} B ({} array / {} bitmap / {} run containers)",
        v2.memory_bytes(),
        mix.arrays,
        mix.bitmaps,
        mix.runs
    );

    let random: Vec<CountQuery> = WorkloadSpec {
        qd: QD,
        selectivity: S,
        count: queries,
        seed: seed ^ 0xF00D,
    }
    .generate(&md)?;
    let prefixes = (queries / 50).max(1);
    let drilldown = drilldown_workload(&md, prefixes, seed);

    let mut arms = String::new();
    for (arm_name, workload) in [("random", &random), ("drilldown", &drilldown)] {
        eprintln!("# [n = {n}] {arm_name} arm ({} queries)", workload.len());
        let _span = obs.span("bench.arm");
        let exact = exact_arm(arm_name, &md, &v1, &v2, workload);
        let est = estimate_arm(arm_name, &tables, &v1, &v2, workload);
        eprintln!(
            "#   exact: scalar {:.0} ms, v2 batch {:.1} ms ({:.0}x); estimate: scalar {:.0} ms, v2 batch {:.1} ms ({:.0}x)",
            exact.scalar_ms,
            exact.v2_batch_ms,
            exact.scalar_ms / exact.v2_batch_ms,
            est.scalar_ms,
            est.v2_batch_ms,
            est.scalar_ms / est.v2_batch_ms,
        );
        let _ = write!(
            arms,
            r#"
      "{arm_name}": {{
        "queries": {q},
        "exact": {exact},
        "anatomy_estimate": {est}
      }},"#,
            q = workload.len(),
            exact = exact.json(),
            est = est.json(),
        );
    }

    Ok(format!(
        r#"    {{
      "n": {n},
      "groups": {groups},
      "build_ms": {{ "v1": {v1_build_ms:.2}, "v2": {v2_build_ms:.2} }},
      "memory": {{
        "v1_bytes": {v1_bytes},
        "v2_bytes": {v2_bytes},
        "v2_by_container": {{
          "array":  {{ "containers": {na}, "bytes": {ba} }},
          "bitmap": {{ "containers": {nb}, "bytes": {bb} }},
          "run":    {{ "containers": {nr}, "bytes": {br} }}
        }}
      }},{arms}
      "answers_identical": true
    }}"#,
        groups = v2.group_count(),
        v2_bytes = v2.memory_bytes(),
        na = mix.arrays,
        ba = mix.array_bytes,
        nb = mix.bitmaps,
        bb = mix.bitmap_bytes,
        nr = mix.runs,
        br = mix.run_bytes,
    ))
}

fn run(cfg: &Config) -> BenchResult<String> {
    let obs = anatomy_obs::global();
    obs.set_enabled(true);
    let before = obs.snapshot();
    let grid: Vec<usize> = match (cfg.smoke, cfg.n) {
        (true, n) => vec![n.unwrap_or(2_000)],
        (false, Some(n)) => vec![n],
        (false, None) => vec![100_000, 1_000_000],
    };
    let queries = if cfg.smoke {
        cfg.queries.min(500)
    } else {
        cfg.queries
    };

    let rows: Vec<String> = grid
        .iter()
        .map(|&n| run_row(n, queries, cfg.seed))
        .collect::<BenchResult<_>>()?;

    let manifest = anatomy_obs::RunManifest::capture_since("bench.query_index", obs, &before)
        .with_param("seed", cfg.seed)
        .with_param("smoke", cfg.smoke)
        .with_param("rows", grid.len() as u64)
        .to_json_compact();
    Ok(format!(
        r#"{{
  "config": {{ "dataset": "OCC-5", "l": 10, "qd": 5, "selectivity": 0.05, "queries": {queries}, "seed": {seed}, "smoke": {smoke} }},
  "rows": [
{rows}
  ],
  "manifest": {manifest}
}}
"#,
        seed = cfg.seed,
        smoke = cfg.smoke,
        rows = rows.join(",\n"),
    ))
}

fn main() -> ExitCode {
    let cfg = parse_args();
    match run(&cfg) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&cfg.out, &json) {
                eprintln!("error writing {}: {e}", cfg.out);
                return ExitCode::FAILURE;
            }
            print!("{json}");
            eprintln!("# wrote {}", cfg.out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
