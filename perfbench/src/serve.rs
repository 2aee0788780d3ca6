//! The serve workloads. The release files `anatomy publish` writes are
//! loaded into the resident server the way `anatomy serve` loads them,
//! and this process replays COUNT-query batches to it over one loopback
//! TCP connection in a closed loop: it sends its next batch only after the
//! previous answer arrived.

use crate::inputs::{self, WorkDir, L};
use crate::probe::{self, Ledger, Mark, Reference, SETUP_REPS};
use crate::report::{ratio, Report};
use crate::{Args, Res};
use anatomy_core::{anatomize, parse_release, AnatomizeConfig, AnatomizedTables};
use anatomy_obs::Snapshot;
use anatomy_pool::Pool;
use anatomy_query::{
    evaluate_exact, evaluate_exact_batch_v2, CountQuery, InPredicate, QueryIndexV2,
};
use anatomy_serve::{
    Mode, ServeClient, ServeConfig, ServeError, ServeSummary, ServedRelease, Server,
};
use anatomy_tables::{csv, Microdata, Schema};
use std::fs;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One serve workload's traffic.
pub struct Shape {
    name: &'static str,
    /// Queries per batch.
    batch: usize,
    /// Distinct queries the batches cycle through, a multiple of `batch`.
    /// Each has its expected answer computed before the replay.
    pool: usize,
}

/// One 3-attribute QI prefix × each of the 50 sensitive values per
/// batch, answered exactly from the microdata-backed index. The batch
/// evaluator computes each prefix conjunction once, which leaves socket
/// I/O, parsing, admission and clustering a large share of every round
/// trip. One connection: with two on a two-core host, client, connection
/// and pool threads contend for the cores, and the round trip then
/// follows the host's other load more than the server's work.
pub const DRILLDOWN: Shape = Shape {
    name: "serve_drilldown",
    batch: 50,
    pool: 64 * 50,
};

/// The name the release is served under.
const NAME: &str = "bench";
/// Pooled queries whose v2 answer is also checked against the scalar
/// oracle.
const ORACLE_SAMPLE: usize = 64;

/// The files a run serves from.
struct Files {
    schema: Schema,
    qi_schema: Schema,
    data: PathBuf,
    qit: PathBuf,
    st: PathBuf,
}

pub fn run(args: &Args, shape: &Shape) -> Res<Report> {
    let n = args.n(300_000, 3_000);
    let work = WorkDir::create(shape.name)?;
    // Inputs: the release on disk, the query pool and every expected
    // answer. Nothing else stays resident.
    let (files, pool, expected) = {
        let md = inputs::microdata(n, args.seed)?;
        let config = AnatomizeConfig::new(L).with_seed(args.seed);
        let tables = AnatomizedTables::publish(&md, &anatomize(&md, &config)?, L)?;
        let schema = md.table().schema().clone();
        let files = Files {
            qi_schema: inputs::qi_schema(&schema)?,
            schema,
            data: work.file("microdata.csv"),
            qit: work.file("qit.csv"),
            st: work.file("st.csv"),
        };
        inputs::write_release(&tables, &files.qit, &files.st)?;
        fs::write(&files.data, csv::to_string(md.table()))?;
        let pool = query_pool(shape, &md, args.seed)?;
        let expected = expected_answers(&md, &tables, &pool)?;
        (files, pool, expected)
    };
    let reference = Reference::cache_sized();
    let rss_reset = probe::reset_peak_rss();

    // The run is SETUP_REPS rounds, each given an equal share of the
    // budget. Each loads the release afresh, which is one set-up, replays
    // for the rest of its share and stops the server, so set-ups and
    // replays alike spread over the whole run. The server switches the
    // program's registry on itself, so in a traced run each round replays
    // twice: once as `anatomy serve` runs, then with the program's event
    // journal on as well, the one tracing the serve path can switch, and
    // with registry snapshots around it for the per-layer ledger.
    let registry = anatomy_obs::global();
    let journal = anatomy_obs::tracer();
    let run_start = Instant::now();
    let mut ledger = Ledger::new(args.trace);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let (mut main, mut traced) = (Vec::new(), Vec::new());
    let mut delta = Snapshot::default();
    let mut copy = None;
    let mut summaries = Vec::with_capacity(SETUP_REPS);
    for round in 1..=SETUP_REPS {
        let round_end = run_start + args.budget * round as u32 / SETUP_REPS as u32;
        let (server, t) = reference.time(|| load(&files, &mut ledger, args.trace && round == 1));
        let mut server = server?;
        setup.push(t.ref_wall());
        copy = copy.or(server.copy.take());
        let replay = |until| replay(shape, &server.addr, &pool, &expected, &reference, until);
        if args.trace {
            main.push(replay(
                Instant::now() + round_end.saturating_duration_since(Instant::now()) / 2,
            ));
            journal.set_enabled(true);
            let before = registry.snapshot();
            traced.push(replay(round_end));
            delta.merge_in(&registry.snapshot().since(&before));
            journal.set_enabled(false);
        } else {
            main.push(replay(round_end));
        }
        summaries.push(server.stop()?);
    }
    let peak_rss = probe::peak_rss_mb() - reference.mib();
    let index_bytes = registry
        .snapshot()
        .gauges
        .get("query.index_v2_bytes")
        .map_or(0, |g| g.value);

    // Correctness gates: every answer was checked as it arrived, outside
    // the timed round trip; a wrong one ends the run here.
    for r in main.iter().chain(&traced) {
        if let Some(wrong) = &r.first_wrong {
            return Err(format!("{} wrong answers, the first: {wrong}", r.wrong).into());
        }
        if r.rtt.is_empty() {
            let cause = r.broken.as_deref().unwrap_or("every batch was refused");
            return Err(format!("no batch was answered: {cause}").into());
        }
        if let Some(e) = &r.broken {
            eprintln!("# a client connection failed: {e}");
        }
    }
    if let Some((tables, md)) = &copy {
        let batches = traced.iter().map(|r| r.rtt.len()).sum();
        replay_in_process(
            shape,
            tables,
            md,
            &pool,
            &expected,
            batches,
            args.budget / 2,
            &mut ledger,
        )?;
    }

    // Each end-to-end figure is the median of the rounds' own figures.
    let per_round =
        |rounds: &[Replay], f: fn(&Replay) -> f64| rounds.iter().map(f).collect::<Vec<_>>();
    let mut report = Report::default();
    for r in main.iter().chain(&traced) {
        report.attempted += r.attempted;
        report.failed += r.failed;
    }
    report.set_median("setup_s", &setup);
    let p50 = |r: &Replay| probe::percentile(&r.rtt_ref, 0.5) * 1e3;
    let op_p50_ms = report.set_median("op_p50_ms", &per_round(&main, p50));
    report.set_median(
        "op_cpu_ms",
        &per_round(&main, |r| r.cpu_ref * 1e3 / r.rtt.len() as f64),
    );
    // The closed loop's throughput at its typical round trip: a stall of
    // the shared host lengthens a few round trips but moves the median
    // little, where it would move a mean over all of them.
    report.set("items_per_s", shape.batch as f64 / (op_p50_ms * 1e-3));
    report.set("peak_rss_mb", peak_rss);
    if args.trace {
        let rtt: Vec<f64> = traced.iter().flat_map(|r| r.rtt.iter().copied()).collect();
        let client_ms = probe::mean(&rtt) * 1e3;
        let server_ms = delta
            .spans
            .get("serve.batch")
            .map_or(0.0, |s| s.total_ns as f64 * 1e-6 / s.calls.max(1) as f64);
        report.set("serve.server_batch_mean_ms", server_ms);
        report.set("serve.outside_mean_ms", client_ms - server_ms);
        report.set("ledger.unattributed_frac", 1.0 - server_ms / client_ms);
        let median_p50 = |rounds: &[Replay]| probe::percentile(&per_round(rounds, p50), 0.5);
        report.set(
            "obs.trace_overhead_frac",
            median_p50(&traced) / median_p50(&main) - 1.0,
        );
        let count = |name: &str| delta.counters.get(name).copied().unwrap_or(0) as f64;
        report.set("serve.busy_rejections", count("serve.busy_rejections"));
        report.set("serve.errors", count("serve.errors"));
        report.set(
            "query.clusters_per_query",
            ratio(
                count("query.batch_v2_clusters"),
                count("query.batch_queries"),
            ),
        );
        let batch = ledger.cost("query.batch");
        report.set("query.batch_mean_ms", batch.mean_wall() * 1e3);
        report.set("query.batch_cpu_ms", batch.mean_cpu() * 1e3);
        report.set(
            "query.index_build_s",
            ledger.cost("query.index_build").mean_wall(),
        );
        report.set("query.index_bytes", index_bytes as f64);
        report.set(
            "core.release_parse_s",
            ledger.cost("core.release_parse").mean_wall(),
        );
        report.set(
            "tables.csv_read_s",
            ledger.cost("tables.csv_read").mean_wall(),
        );
        report.set_pool(&delta);
    }

    report.stamp_num("n", n as f64);
    report.stamp_text("mode", Mode::Exact.to_string());
    report.stamp_num("connections", 1.0);
    report.stamp_num("batch_queries", shape.batch as f64);
    report.stamp_num("query_pool", pool.len() as f64);
    report.stamp_num("rounds", SETUP_REPS as f64);
    report.stamp_num(
        "batches_answered",
        main.iter().map(|r| r.rtt.len()).sum::<usize>() as f64,
    );
    report.stamp_num("index_bytes", index_bytes as f64);
    report.stamp_num(
        "release_bytes",
        inputs::file_bytes(&[&files.qit, &files.st])? as f64,
    );
    let total = |f: fn(&ServeSummary) -> u64| summaries.iter().map(f).sum::<u64>() as f64;
    report.stamp_num("server_batches", total(|s| s.batches));
    report.stamp_num("server_overloaded", total(|s| s.overloaded));
    report.stamp_num("server_errors", total(|s| s.errors));
    report.stamp_text(
        "op_scope",
        "op_p50_ms times each batch from the BATCH header write to the last answer \
         line read, and items_per_s is queries per second at that round trip; \
         op_cpu_ms is the whole process's CPU per batch, the in-process client's \
         socket I/O and answer checking included",
    );
    report.stamp_reference(&reference);
    report.stamp_text(
        "peak_rss_scope",
        if rss_reset {
            "set-up and replay (mark reset after input generation, less the reference kernel's array)"
        } else {
            "whole process, less the reference kernel's array"
        },
    );
    Ok(report)
}

/// A running server, the connection its readiness was checked on, and —
/// in traced runs — a copy of the release for the in-process replay.
struct Running {
    addr: String,
    handle: JoinHandle<std::io::Result<ServeSummary>>,
    control: ServeClient,
    copy: Option<(AnatomizedTables, Microdata)>,
}

impl Running {
    fn stop(mut self) -> Res<ServeSummary> {
        self.control.shutdown()?;
        Ok(self
            .handle
            .join()
            .map_err(|_| "the server thread panicked")??)
    }
}

/// Release files on disk to a served `PING`, as `anatomy serve --data`
/// goes: parse the release, read the microdata, build the index, bind. The serve-stage audit is left out: the `publish`
/// workload times the same registry, and at n = 300 000 it would add
/// seconds to every set-up.
fn load(files: &Files, ledger: &mut Ledger, keep_copy: bool) -> Res<Running> {
    let tables = ledger.span("core.release_parse", || -> Res<AnatomizedTables> {
        let qit = fs::read_to_string(&files.qit)?;
        let st = fs::read_to_string(&files.st)?;
        Ok(parse_release(files.qi_schema.clone(), &qit, &st, L)?)
    })?;
    let md = ledger.span("tables.csv_read", || {
        inputs::read_microdata(&files.data, &files.schema)
    })?;
    let copy = keep_copy.then(|| (tables.clone(), md.clone()));
    let release = ledger.span("query.index_build", || {
        ServedRelease::exact(NAME, md, tables)
    })?;
    let (addr, handle) = Server::bind(ServeConfig::default(), vec![release])?.spawn();
    let mut control = ServeClient::connect(&addr)?;
    control.ping()?;
    Ok(Running {
        addr,
        handle,
        control,
        copy,
    })
}

/// How long a replay runs between two timings of the reference kernel.
const CHUNK: Duration = Duration::from_millis(200);

/// What one closed-loop replay did.
#[derive(Default)]
struct Replay {
    /// Round-trip seconds of every answered batch as measured, from the
    /// `BATCH` header write to the last answer line read.
    rtt: Vec<f64>,
    /// The same round trips at quiet-host speed.
    rtt_ref: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Process CPU seconds over the batches, at quiet-host speed.
    cpu_ref: f64,
    wrong: u64,
    first_wrong: Option<String>,
    /// The transport error that stopped the replay, if any.
    broken: Option<String>,
}

impl Replay {
    /// Send batch `b`, the pooled queries `[b·batch, (b+1)·batch)`
    /// wrapping around the pool, and wait for its answer, which is
    /// checked outside the timed round trip.
    fn batch(
        &mut self,
        connection: &mut ServeClient,
        shape: &Shape,
        pool: &[CountQuery],
        expected: &[u64],
        b: usize,
    ) {
        let first = b * shape.batch % pool.len();
        let queries = &pool[first..first + shape.batch];
        self.attempted += 1;
        let sent = Instant::now();
        let answered = connection.batch_lines(NAME, Mode::Exact, queries);
        let rtt = sent.elapsed().as_secs_f64();
        match answered {
            Ok(lines) => {
                self.rtt.push(rtt);
                let want = &expected[first..first + shape.batch];
                for ((line, &want), q) in lines.iter().zip(want).zip(queries) {
                    if line.parse() != Ok(want) {
                        self.wrong += 1;
                        self.first_wrong.get_or_insert_with(|| {
                            format!("`{q}` was answered `{line}`, not {want}")
                        });
                    }
                }
            }
            // Refused or rejected; the connection stays in sync.
            Err(ServeError::Busy { .. } | ServeError::Server(_)) => self.failed += 1,
            Err(e) => {
                self.failed += 1;
                self.broken = Some(e.to_string());
            }
        }
    }
}

/// Replay batches over one connection until `deadline`, each sent only
/// after the previous one was answered; at least one is sent. The replay
/// runs in chunks of about [`CHUNK`] with the reference kernel timed
/// between them, which scales each chunk's round trips and CPU.
fn replay(
    shape: &Shape,
    addr: &str,
    pool: &[CountQuery],
    expected: &[u64],
    reference: &Reference,
    deadline: Instant,
) -> Replay {
    let mut out = Replay::default();
    let mut connection = match ServeClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.attempted = 1;
            out.failed = 1;
            out.broken = Some(format!("connect {addr}: {e}"));
            return out;
        }
    };
    let mut b = 0;
    let mut before = reference.now();
    while out.broken.is_none() && (b == 0 || Instant::now() < deadline) {
        let chunk_end = (Instant::now() + CHUNK).min(deadline);
        let (answered, mark) = (out.rtt.len(), Mark::now());
        loop {
            out.batch(&mut connection, shape, pool, expected, b);
            b += 1;
            if out.broken.is_some() || Instant::now() >= chunk_end {
                break;
            }
        }
        // The end mark is read while the connection, and so the server
        // thread answering it, still lives: a thread that exits takes its
        // CPU time with it.
        let (_, cpu) = mark.elapsed();
        let after = reference.now();
        let scale = reference.scale(before, after);
        out.rtt_ref
            .extend(out.rtt[answered..].iter().map(|r| r * scale));
        out.cpu_ref += cpu * scale;
        before = after;
    }
    drop(connection);
    out
}

/// Replay the first `batches` batches, for at most `budget`, through the
/// v2 batch evaluator in this process and without a socket, each in a
/// `query.batch` span. The answers must match the expected ones.
#[allow(clippy::too_many_arguments)]
fn replay_in_process(
    shape: &Shape,
    tables: &AnatomizedTables,
    md: &Microdata,
    pool: &[CountQuery],
    expected: &[u64],
    batches: usize,
    budget: Duration,
    ledger: &mut Ledger,
) -> Res<()> {
    let index = QueryIndexV2::build(md, tables)?;
    let deadline = Instant::now() + budget;
    for b in 0..batches {
        if Instant::now() >= deadline {
            break;
        }
        let first = b * shape.batch % pool.len();
        let queries = &pool[first..first + shape.batch];
        let answers = ledger.span("query.batch", || {
            evaluate_exact_batch_v2(Pool::global(), &index, queries)
        });
        if answers[..] != expected[first..first + shape.batch] {
            return Err(format!("in-process batch {b} disagrees with the expected answers").into());
        }
    }
    Ok(())
}

/// The workload's distinct queries.
fn query_pool(shape: &Shape, md: &Microdata, seed: u64) -> Res<Vec<CountQuery>> {
    let pool = drilldown(md, shape.pool / shape.batch, seed);
    if pool.len() != shape.pool || !pool.len().is_multiple_of(shape.batch) {
        return Err(format!(
            "{} pooled queries do not make batches of {}",
            pool.len(),
            shape.batch
        )
        .into());
    }
    Ok(pool)
}

/// `prefixes` random 3-attribute QI conjunctions, each about an eighth
/// of every domain, each fanned out over every sensitive value.
fn drilldown(md: &Microdata, prefixes: usize, seed: u64) -> Vec<CountQuery> {
    let mut state = seed ^ 0xD1A_11D0;
    let lambda = md.sensitive_domain_size();
    let mut queries = Vec::with_capacity(prefixes * lambda as usize);
    for _ in 0..prefixes {
        let qi_preds: Vec<(usize, InPredicate)> = (0..3)
            .map(|attr| {
                let domain = md.qi_domain_size(attr);
                let values = (0..(domain / 8).max(1))
                    .map(|_| (probe::splitmix64(&mut state) % domain as u64) as u32)
                    .collect();
                let pred = InPredicate::new(values, domain).expect("values lie in the domain");
                (attr, pred)
            })
            .collect();
        for s in 0..lambda {
            queries.push(CountQuery {
                qi_preds: qi_preds.clone(),
                sens_pred: InPredicate::new(vec![s], lambda).expect("value lies in the domain"),
            });
        }
    }
    queries
}

/// Every pooled query's exact count from the in-process v2 single-query
/// path, with an evenly spread sample checked against the scalar oracle.
fn expected_answers(
    md: &Microdata,
    tables: &AnatomizedTables,
    pool: &[CountQuery],
) -> Res<Vec<u64>> {
    let index = QueryIndexV2::build(md, tables)?;
    let answers = Pool::global()
        .par_map(pool, |q| index.try_evaluate_exact(q))
        .into_iter()
        .collect::<Result<Vec<u64>, _>>()?;
    for i in (0..pool.len()).step_by(pool.len() / ORACLE_SAMPLE + 1) {
        let scalar = evaluate_exact(md, &pool[i]);
        if scalar != answers[i] {
            return Err(format!(
                "the v2 answer {} to `{}` differs from the scalar oracle's {scalar}",
                answers[i], pool[i]
            )
            .into());
        }
    }
    Ok(answers)
}
