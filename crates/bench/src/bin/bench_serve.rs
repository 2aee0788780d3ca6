//! `bench_serve` — drive the resident query server with a multi-threaded
//! loadgen and write throughput plus validated latency percentiles to
//! `BENCH_serve.json`.
//!
//! ```text
//! bench_serve [--n N] [--l L] [--seed S] [--batches B] [--batch Q]
//!             [--threads T] [--qd D] [--selectivity F]
//!             [--differential K] [--out FILE] [--smoke]
//!             [--emit-release DIR]
//!             [--connect ADDR] [--release NAME] [--shutdown]
//! ```
//!
//! Default: an in-process server over OCC-5 microdata with n = 100 000,
//! l = 10. Two phases, both gated on correctness:
//!
//! 1. **Differential**: a broad workload (qd = 2, s = 5%) goes through
//!    the socket and every answer is compared to the scalar
//!    `evaluate_exact` / `estimate_anatomy` oracles — exact answers must
//!    be equal, estimates bit-identical through the text round trip.
//! 2. **Throughput**: `--batches` batches of `--batch` point-ish queries
//!    (qd = 1, s = 0.1% by default) replayed from `--threads` concurrent
//!    connections, every answer checked against the local bitmap index
//!    (itself scalar-checked in phase 1).
//!
//! `--connect ADDR` skips the in-process server and replays against an
//! external `anatomy serve` — pair it with `--emit-release DIR`, which
//! writes `schema.txt`, `data.csv`, `qit.csv` and `st.csv` for the same
//! `(n, l, seed)` so both sides hold the identical release. This is the
//! CI smoke path; `--shutdown` asks the external server to exit cleanly.

use anatomy_bench::runner::BenchResult;
use anatomy_core::release::{qit_to_csv, st_to_csv};
use anatomy_core::{anatomize, AnatomizeConfig, AnatomizedTables};
use anatomy_data::census::{generate_census, CensusConfig};
use anatomy_data::occ_sal::occ_microdata;
use anatomy_query::{
    estimate_anatomy, evaluate_exact, evaluate_exact_indexed, CountQuery, QueryIndex, WorkloadSpec,
};
use anatomy_serve::{replay, Mode, ServeClient, ServeConfig, ServedRelease, Server};
use anatomy_tables::{csv, AttributeKind, Microdata};
use std::process::ExitCode;

struct Config {
    n: usize,
    l: usize,
    seed: u64,
    batches: usize,
    batch: usize,
    threads: usize,
    qd: usize,
    selectivity: f64,
    differential: usize,
    out: String,
    emit_release: Option<String>,
    connect: Option<String>,
    release: String,
    shutdown: bool,
}

fn parse_args() -> Config {
    let mut cfg = Config {
        n: 100_000,
        l: 10,
        seed: 1,
        batches: 100,
        batch: 2_000,
        threads: 4,
        qd: 1,
        selectivity: 0.001,
        differential: 1_000,
        out: "BENCH_serve.json".into(),
        emit_release: None,
        connect: None,
        release: "bench".into(),
        shutdown: false,
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
            "--n" => cfg.n = next("--n").parse().expect("--n"),
            "--l" => cfg.l = next("--l").parse().expect("--l"),
            "--seed" => cfg.seed = next("--seed").parse().expect("--seed"),
            "--batches" => cfg.batches = next("--batches").parse().expect("--batches"),
            "--batch" => cfg.batch = next("--batch").parse().expect("--batch"),
            "--threads" => cfg.threads = next("--threads").parse().expect("--threads"),
            "--qd" => cfg.qd = next("--qd").parse().expect("--qd"),
            "--selectivity" => {
                cfg.selectivity = next("--selectivity").parse().expect("--selectivity")
            }
            "--differential" => {
                cfg.differential = next("--differential").parse().expect("--differential")
            }
            "--out" => cfg.out = next("--out"),
            "--emit-release" => cfg.emit_release = Some(next("--emit-release")),
            "--connect" => cfg.connect = Some(next("--connect")),
            "--release" => cfg.release = next("--release"),
            "--shutdown" => cfg.shutdown = true,
            "--smoke" => {
                cfg.n = 2_000;
                cfg.batches = 8;
                cfg.batch = 200;
                cfg.differential = 200;
            }
            other => {
                eprintln!(
                    "unknown argument {other}\nusage: bench_serve [--n N] [--l L] [--seed S] \
                     [--batches B] [--batch Q] [--threads T] [--qd D] [--selectivity F] \
                     [--differential K] [--out FILE] [--smoke] [--emit-release DIR] \
                     [--connect ADDR] [--release NAME] [--shutdown]"
                );
                std::process::exit(2);
            }
        }
    }
    cfg
}

/// The dataset both sides of the socket must agree on, derived purely
/// from `(n, seed)` so an external server started from
/// `--emit-release` files holds the identical release.
fn dataset(cfg: &Config) -> BenchResult<(Microdata, AnatomizedTables)> {
    const D: usize = 5;
    eprintln!("# generating OCC-{D} microdata, n = {}", cfg.n);
    let census = generate_census(&CensusConfig::new(cfg.n).with_seed(cfg.seed));
    let md: Microdata = occ_microdata(census, D)?;
    let partition = anatomize(&md, &AnatomizeConfig::new(cfg.l).with_seed(cfg.seed))?;
    let tables = AnatomizedTables::publish(&md, &partition, cfg.l)?;
    Ok((md, tables))
}

/// Write the release as the four files `anatomy serve` loads: the QI+S
/// projection of the microdata (the columns queries can mention), its
/// schema file, and the published QIT/ST pair.
fn emit_release(dir: &str, md: &Microdata, tables: &AnatomizedTables) -> BenchResult<()> {
    std::fs::create_dir_all(dir)?;
    let mut cols: Vec<usize> = md.qi_columns().to_vec();
    cols.push(md.sensitive_column());
    let projected = md.table().project(&cols)?;
    let mut schema_txt = String::new();
    for attr in projected.schema().attributes() {
        let kind = match attr.kind() {
            AttributeKind::Numerical => "numerical",
            AttributeKind::Categorical => "categorical",
        };
        schema_txt.push_str(&format!("{}:{kind}:{}\n", attr.name(), attr.domain_size()));
    }
    let path = |f: &str| format!("{dir}/{f}");
    std::fs::write(path("schema.txt"), schema_txt)?;
    std::fs::write(path("data.csv"), csv::to_string(&projected))?;
    std::fs::write(path("qit.csv"), qit_to_csv(tables))?;
    std::fs::write(path("st.csv"), st_to_csv(tables))?;
    let sensitive = projected
        .schema()
        .attributes()
        .last()
        .expect("projection is non-empty")
        .name()
        .to_string();
    println!("release -> {dir} (sensitive attribute: {sensitive})");
    Ok(())
}

fn run(cfg: &Config) -> BenchResult<String> {
    let (md, tables) = dataset(cfg)?;
    if let Some(dir) = &cfg.emit_release {
        emit_release(dir, &md, &tables)?;
        return Ok(String::new());
    }
    let index = QueryIndex::build(&md, &tables)?;

    // In-process server unless --connect points at an external one. The
    // in-process server logs every batch (threshold zero) and samples
    // windows on a fast tick so the monitoring phase below has material
    // to scrape even on a --smoke run; the trace journal is on so each
    // slowlog exemplar can be resolved against a real span afterwards.
    let mut spawned = None;
    let addr = match &cfg.connect {
        Some(addr) => addr.clone(),
        None => {
            anatomy_obs::tracer().set_enabled(true);
            let serve_cfg = ServeConfig {
                slowlog_threshold: Some(std::time::Duration::ZERO),
                slowlog_capacity: 64,
                window: anatomy_obs::WindowConfig {
                    tick: std::time::Duration::from_millis(100),
                    fine_len: 600,
                    coarse_every: 60,
                    coarse_len: 60,
                },
                ..ServeConfig::default()
            };
            let release = ServedRelease::exact(&cfg.release, md.clone(), tables.clone())?;
            let server = Server::bind(serve_cfg, vec![release])
                .map_err(|e| format!("cannot bind server: {e}"))?;
            let (addr, handle) = server.spawn();
            spawned = Some(handle);
            addr
        }
    };
    eprintln!("# serving on {addr}");

    // Phase 1: differential. Broad queries through the socket against
    // the scalar oracles.
    eprintln!("# differential phase: {} queries", cfg.differential);
    let diff: Vec<CountQuery> = WorkloadSpec {
        qd: 2.min(md.qi_count()),
        selectivity: 0.05,
        count: cfg.differential,
        seed: cfg.seed ^ 0xD1FF,
    }
    .generate(&md)?;
    let mut client = ServeClient::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for chunk in diff.chunks(250) {
        let served = client.batch_exact(&cfg.release, chunk)?;
        for (q, &got) in chunk.iter().zip(&served) {
            let want = evaluate_exact(&md, q);
            if got != want {
                return Err(format!("served exact {got} != scalar {want} on {q}").into());
            }
        }
        let served = client.batch_estimate(&cfg.release, chunk)?;
        for (q, &got) in chunk.iter().zip(&served) {
            let want = estimate_anatomy(&tables, q);
            if got.to_bits() != want.to_bits() {
                return Err(
                    format!("served estimate {got} not bit-identical to {want} on {q}").into(),
                );
            }
        }
    }

    // First scrape, between the phases: the throughput run must make
    // every counter grow monotonically relative to this baseline.
    let scrape1 = client.metrics()?;
    let expo1 = anatomy_obs::validate_exposition(&scrape1)
        .map_err(|e| format!("first scrape failed validation: {e}"))?;

    // Phase 2: throughput. Point-ish queries from concurrent
    // connections; every answer still checked, against the local index.
    eprintln!(
        "# throughput phase: {} batches x {} queries (qd = {}, s = {}), {} connections",
        cfg.batches, cfg.batch, cfg.qd, cfg.selectivity, cfg.threads
    );
    let batches: Vec<Vec<CountQuery>> = (0..cfg.batches)
        .map(|i| {
            WorkloadSpec {
                qd: cfg.qd,
                selectivity: cfg.selectivity,
                count: cfg.batch,
                seed: cfg.seed ^ (0xBEEF + i as u64),
            }
            .generate(&md)
        })
        .collect::<Result<_, _>>()?;
    let (report, answers) = replay(&addr, &cfg.release, Mode::Exact, &batches, cfg.threads)?;
    for (batch, lines) in batches.iter().zip(&answers) {
        for (q, line) in batch.iter().zip(lines) {
            let got: u64 = line.parse()?;
            let want = evaluate_exact_indexed(&index, q);
            if got != want {
                return Err(format!("served exact {got} != indexed {want} on {q}").into());
            }
        }
    }
    let qps = report.queries_per_sec();
    eprintln!(
        "# {} queries in {:.0} ms -> {:.0} queries/sec ({} BUSY retries)",
        report.queries,
        report.elapsed.as_secs_f64() * 1e3,
        qps,
        report.busy
    );

    // Monitoring phase: scrape again after the traffic, re-validate,
    // and require every counter to be monotone across the two scrapes
    // with at least one that actually grew. A short sleep lets the
    // sampler fold the final batch deltas into the window rings first.
    std::thread::sleep(std::time::Duration::from_millis(350));
    let scrape2 = client.metrics()?;
    let expo2 = anatomy_obs::validate_exposition(&scrape2)
        .map_err(|e| format!("second scrape failed validation: {e}"))?;
    let grew = anatomy_obs::check_counter_monotonic(&expo1, &expo2)?;
    if grew == 0 {
        return Err("no counter grew between the two scrapes".into());
    }
    eprintln!(
        "# monitoring: {} families / {} samples per scrape, {grew} counters grew",
        expo2.families, expo2.samples
    );

    // The scrape must carry the v2 index footprint gauges — proof the
    // server is really answering off the compressed container index.
    for gauge in [
        "anatomy_query_index_v2_bytes",
        "anatomy_query_index_v2_containers_array",
    ] {
        if anatomy_obs::sample_value(&scrape2, gauge, &[]).is_none() {
            return Err(format!("scrape is missing the {gauge} gauge").into());
        }
    }
    // Latency: the server's lifetime `serve.batch` summary, read from the
    // same scrape, with its percentiles ordered p50 <= p99 <= max.
    let sample = |family: &str, labels: &[(&str, &str)]| {
        anatomy_obs::sample_value(&scrape2, family, labels)
            .ok_or_else(|| format!("scrape is missing {family} {labels:?}"))
    };
    let batch_count = sample("anatomy_span_ns_serve_batch_count", &[])?;
    let p50 = sample("anatomy_span_ns_serve_batch", &[("quantile", "0.5")])?;
    let p99 = sample("anatomy_span_ns_serve_batch", &[("quantile", "0.99")])?;
    let max = sample("anatomy_span_ns_serve_batch_max", &[])?;
    if batch_count < 1.0 || !(p50 <= p99 && p99 <= max) {
        return Err(format!(
            "serve.batch summary out of order: count {batch_count}, p50 {p50}, p99 {p99}, max {max}"
        )
        .into());
    }
    let latency = format!(
        r#"{{ "span": "serve.batch", "count": {batch_count}, "p50_ns": {p50}, "p99_ns": {p99}, "max_ns": {max} }}"#
    );

    // In-process the bench shares the server's registry, so the rolling
    // window percentiles can be checked against the offline histogram:
    // both are log2-bucket upper bounds clamped to the observed max, so
    // a healthy sampler stays within one bucket (a factor of two) of
    // the whole-run value in either direction.
    let mut windowed = Vec::new();
    if spawned.is_some() {
        let offline = anatomy_obs::global()
            .snapshot()
            .hists
            .get("span_ns/serve.batch")
            .cloned()
            .ok_or("registry has no span_ns/serve.batch histogram")?;
        for label in window_labels(&scrape2) {
            let at = |q: &str| {
                anatomy_obs::sample_value(
                    &scrape2,
                    "anatomy_span_ns_serve_batch",
                    &[("window", &label), ("quantile", q)],
                )
            };
            let (Some(p50), Some(p99)) = (at("0.5"), at("0.99")) else {
                continue;
            };
            if p50 <= 0.0 {
                continue; // window predates any batch traffic
            }
            for (name, win, off) in [
                ("p50", p50, offline.percentile(0.5) as f64),
                ("p99", p99, offline.percentile(0.99) as f64),
            ] {
                if win > 2.0 * off || off > 2.0 * win {
                    return Err(format!(
                        "window {label} {name} {win:.0} ns vs offline {off:.0} ns: \
                         outside the one-bucket (2x) tolerance"
                    )
                    .into());
                }
            }
            eprintln!("# monitoring: window {label} p50 {p50:.0} ns / p99 {p99:.0} ns agree with offline histogram");
            windowed.push((label, p50, p99));
        }
        if windowed.is_empty() {
            return Err("no window aggregate captured the batch traffic".into());
        }
    }

    // Slowlog round trip: entries come back over the wire as JSON and
    // re-parse into the same struct the server filled in.
    let slow = client.slowlog(10_000)?;
    if spawned.is_some() && slow.is_empty() {
        return Err("threshold-zero slowlog recorded nothing".into());
    }
    for e in &slow {
        if e.release != cfg.release {
            return Err(format!("slowlog entry names release `{}`", e.release).into());
        }
    }
    eprintln!("# monitoring: {} slowlog entries round-tripped", slow.len());

    if spawned.is_some() || cfg.shutdown {
        client.shutdown()?;
    }
    let mut exemplars_resolved = false;
    if let Some(handle) = spawned {
        let summary = handle.join().expect("server thread panicked")?;
        eprintln!(
            "# server summary: {} batches, {} queries, {} overloaded, {} errors",
            summary.batches, summary.queries, summary.overloaded, summary.errors
        );
        // Every slowlog exemplar must point at a span that really began
        // in the trace journal. Only meaningful when nothing was
        // dropped — the bounded journals can overflow on a full run.
        let snap = anatomy_obs::tracer().snapshot();
        anatomy_obs::tracer().set_enabled(false);
        if snap.dropped_count() == 0 {
            let begun: std::collections::HashSet<u64> = snap
                .threads
                .iter()
                .flat_map(|t| t.events.iter())
                .filter_map(|ev| match ev.kind {
                    anatomy_obs::EventKind::SpanBegin { id, .. } => Some(id),
                    _ => None,
                })
                .collect();
            for e in &slow {
                if e.span_id == 0 || !begun.contains(&e.span_id) {
                    return Err(format!(
                        "slowlog span id {} does not resolve to a span in the trace",
                        e.span_id
                    )
                    .into());
                }
            }
            exemplars_resolved = true;
            eprintln!(
                "# monitoring: all {} slowlog exemplars resolve in the trace journal",
                slow.len()
            );
        } else {
            eprintln!(
                "# monitoring: trace journal dropped {} events; exemplar check skipped",
                snap.dropped_count()
            );
        }
    }

    Ok(format!(
        r#"{{
  "config": {{ "dataset": "OCC-5", "n": {n}, "l": {l}, "seed": {seed}, "qd": {qd}, "selectivity": {s}, "mode": "{mode}" }},
  "differential": {{ "queries": {dq}, "exact_identical": true, "estimate_bit_identical": true }},
  "throughput": {{ "batches": {batches}, "batch": {batch}, "threads": {threads}, "queries": {tq}, "elapsed_ms": {ms:.2}, "queries_per_sec": {qps:.0}, "busy_retries": {busy} }},
  "latency": {latency},
  "monitoring": {{ "scrapes": 2, "exposition_valid": true, "counters_grew": {grew}, "windows": [{windows}], "slowlog_entries": {slow_n}, "trace_exemplars_resolved": {exemplars} }},
  "answers_identical": true
}}
"#,
        n = cfg.n,
        l = cfg.l,
        seed = cfg.seed,
        qd = cfg.qd,
        s = cfg.selectivity,
        mode = if cfg.connect.is_some() {
            "external"
        } else {
            "in-process"
        },
        dq = cfg.differential,
        batches = cfg.batches,
        batch = cfg.batch,
        threads = cfg.threads,
        tq = report.queries,
        ms = report.elapsed.as_secs_f64() * 1e3,
        busy = report.busy,
        windows = windowed
            .iter()
            .map(|(label, p50, p99)| format!(
                r#"{{ "window": "{label}", "p50_ns": {p50:.0}, "p99_ns": {p99:.0} }}"#
            ))
            .collect::<Vec<_>>()
            .join(", "),
        slow_n = slow.len(),
        exemplars = exemplars_resolved,
    ))
}

/// The window labels a scrape advertises, read from the
/// `anatomy_window_seconds` metadata family so the bench needs no
/// out-of-band knowledge of the server's ring layout.
fn window_labels(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("anatomy_window_seconds{window=\""))
        .filter_map(|rest| rest.find('"').map(|i| rest[..i].to_string()))
        .collect()
}

fn main() -> ExitCode {
    let cfg = parse_args();
    match run(&cfg) {
        Ok(json) if json.is_empty() => ExitCode::SUCCESS, // --emit-release
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
