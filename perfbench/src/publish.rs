//! The publish workloads: read the microdata CSV, publish it, write the
//! QIT/ST files.
//!
//! The steps are the ones `Publish::run` and `anatomy publish` take,
//! called one by one so that each runs in its own span and the audit's
//! verdict is recorded instead of ending the run.

use crate::inputs::{self, WorkDir, D, L};
use crate::probe::{self, Ledger, Reference, Timed, SETUP_REPS};
use crate::report::{ratio, Report};
use crate::{Args, Res};
use anatomy_audit::{audit_release_for, Stage};
use anatomy_core::{
    anatomize, anatomize_sharded, model_pages, parse_release, AnatomizeConfig, AnatomizedTables,
    ShardConfig,
};
use anatomy_obs::Snapshot;
use anatomy_storage::{IoCounter, IoStats};
use anatomy_tables::{csv, Microdata, Schema};
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Which engine a publish workload runs.
#[derive(Clone, Copy, PartialEq)]
pub enum Engine {
    /// The in-memory ladder, then the registry audit, as
    /// `anatomy publish --audit` runs them.
    InMemory,
    /// The sharded out-of-core engine with `ShardConfig::paper()`,
    /// unaudited like the CLI default.
    Sharded,
}

/// The sharded engine's own phase spans and the metrics they feed.
const SHARD_PHASES: [(&str, &str); 7] = [
    (
        "anatomize_sharded/shard_partition",
        "core.shard_partition_s",
    ),
    ("anatomize_sharded/bucket_split", "core.bucket_split_s"),
    ("anatomize_sharded/group_schedule", "core.group_schedule_s"),
    ("anatomize_sharded/bucket_assign", "core.bucket_assign_s"),
    ("anatomize_sharded/residue_assign", "core.residue_assign_s"),
    ("anatomize_sharded/qit_merge", "core.qit_merge_s"),
    ("anatomize_sharded/st_merge", "core.st_merge_s"),
];

/// The benchmark's spans around one publish's steps, and their metrics.
const STEPS: [(&str, &str); 6] = [
    ("core.anatomize", "core.anatomize_s"),
    ("core.publish_tables", "core.publish_tables_s"),
    ("audit.run", "audit.run_s"),
    ("core.sharded", "core.sharded_s"),
    ("core.into_tables", "core.into_tables_s"),
    ("core.release_write", "core.release_write_s"),
];

/// What every publish of a run shares.
struct Pipeline<'a> {
    engine: Engine,
    md: &'a Microdata,
    qi_schema: Schema,
    config: AnatomizeConfig,
    qit: PathBuf,
    st: PathBuf,
}

/// What one publish produced.
struct Published {
    tables: AnatomizedTables,
    io: IoStats,
    /// The checks the audit failed; `None` when the engine is unaudited.
    audit_failures: Option<Vec<&'static str>>,
}

impl Pipeline<'_> {
    /// One publish: the timed steps, each in its own span.
    fn publish(&self, ledger: &mut Ledger) -> Res<Published> {
        let published = match self.engine {
            Engine::InMemory => {
                let partition =
                    ledger.span("core.anatomize", || anatomize(self.md, &self.config))?;
                let tables = ledger.span("core.publish_tables", || {
                    AnatomizedTables::publish(self.md, &partition, L)
                })?;
                let audit = ledger.span("audit.run", || {
                    audit_release_for(Stage::Anatomize, &tables, L)
                });
                let failures = audit.checks.iter().filter(|c| !c.passed);
                Published {
                    audit_failures: Some(failures.map(|c| c.name).collect()),
                    tables,
                    io: IoStats::default(),
                }
            }
            Engine::Sharded => {
                let counter = IoCounter::new();
                let out = ledger.span("core.sharded", || {
                    anatomize_sharded(self.md, &self.config, &ShardConfig::paper(), &counter)
                })?;
                let tables = ledger.span("core.into_tables", || {
                    out.into_tables(self.qi_schema.clone(), L)
                })?;
                Published {
                    tables,
                    io: out.stats,
                    audit_failures: None,
                }
            }
        };
        ledger.span("core.release_write", || {
            inputs::write_release(&published.tables, &self.qit, &self.st)
        })?;
        Ok(published)
    }
}

/// What the gates and the ledger keep from a run's publishes.
#[derive(Default)]
struct Runs {
    tables: Option<AnatomizedTables>,
    io: IoStats,
    audits: u64,
    refused: u64,
    audit_failures: Vec<&'static str>,
}

impl Runs {
    /// Every publish of one input and seed must produce the same release.
    fn record(&mut self, p: Published) -> Res<()> {
        match &self.tables {
            Some(first) if *first != p.tables => {
                return Err(
                    "two publishes of one input and seed produced different releases".into(),
                )
            }
            Some(_) => {}
            None => self.tables = Some(p.tables),
        }
        self.io = p.io;
        if let Some(failures) = p.audit_failures {
            self.audits += 1;
            self.refused += u64::from(!failures.is_empty());
            self.audit_failures = failures;
        }
        Ok(())
    }
}

/// Publish for about `budget`: once, then again as long as one more
/// publish, as long as the last, still fits. Only the publish itself is
/// timed; recording its output and `between` run outside the timed region.
/// Returns each publish's timing.
fn publish_for(
    pipeline: &Pipeline,
    budget: Duration,
    reference: &Reference,
    ledger: &mut Ledger,
    runs: &mut Runs,
    mut between: impl FnMut(&mut Ledger) -> Res<()>,
) -> Res<Vec<Timed>> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let (published, t) = reference.time(|| pipeline.publish(ledger));
        samples.push(t);
        runs.record(published?)?;
        between(ledger)?;
        if start.elapsed().as_secs_f64() + t.wall > budget.as_secs_f64() {
            return Ok(samples);
        }
    }
}

pub fn run(args: &Args, engine: Engine) -> Res<Report> {
    let (name, n) = match engine {
        Engine::InMemory => ("publish", args.n(100_000, 3_000)),
        Engine::Sharded => ("publish_sharded", args.n(300_000, 20_000)),
    };
    let work = WorkDir::create(name)?;
    let data = work.file("microdata.csv");
    let (schema, lambda) = {
        let md = inputs::microdata(n, args.seed)?;
        fs::write(&data, csv::to_string(md.table()))?;
        (
            md.table().schema().clone(),
            md.sensitive_domain_size() as usize,
        )
    };
    let reference = match engine {
        Engine::InMemory => Reference::cache_sized(),
        Engine::Sharded => Reference::memory_sized(),
    };
    let rss_reset = probe::reset_peak_rss();

    // Set-up is the microdata CSV read `anatomy publish --data` starts
    // with. One read comes before the first publish; the others are
    // spread over the run, between publishes, as its time passes.
    let mut ledger = Ledger::new(args.trace);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut read = |ledger: &mut Ledger| -> Res<Microdata> {
        let (md, t) = reference
            .time(|| ledger.span("tables.csv_read", || inputs::read_microdata(&data, &schema)));
        setup.push(t.ref_wall());
        md
    };
    let md = read(&mut ledger)?;
    let pipeline = Pipeline {
        engine,
        md: &md,
        qi_schema: inputs::qi_schema(&schema)?,
        config: AnatomizeConfig::new(L).with_seed(args.seed),
        qit: work.file("qit.csv"),
        st: work.file("st.csv"),
    };
    let run_start = Instant::now();
    let mut reads = 1;
    let mut top_up = |ledger: &mut Ledger, to: usize| -> Res<()> {
        while reads < to.min(SETUP_REPS) {
            read(ledger)?;
            reads += 1;
        }
        Ok(())
    };
    let due = || {
        let done = run_start.elapsed().as_secs_f64() / args.budget.as_secs_f64();
        (SETUP_REPS as f64 * done).ceil() as usize
    };

    let mut runs = Runs::default();
    let registry = anatomy_obs::global();
    let (untraced, traced, delta) = if args.trace {
        // The untraced half runs first, while the program's registry is
        // still off as `anatomy publish` leaves it.
        ledger.set_on(false);
        let half = args.budget / 2;
        let untraced = publish_for(&pipeline, half, &reference, &mut ledger, &mut runs, |l| {
            top_up(l, due())
        })?;
        ledger.set_on(true);
        registry.set_enabled(true);
        let before = registry.snapshot();
        let traced = publish_for(&pipeline, half, &reference, &mut ledger, &mut runs, |l| {
            top_up(l, due())
        })?;
        let delta = registry.snapshot().since(&before);
        (untraced, traced, delta)
    } else {
        let untraced = publish_for(
            &pipeline,
            args.budget,
            &reference,
            &mut ledger,
            &mut runs,
            |l| top_up(l, due()),
        )?;
        (untraced, Vec::new(), Snapshot::default())
    };
    top_up(&mut ledger, SETUP_REPS)?;
    let peak_rss = probe::peak_rss_mb() - reference.mib();

    // Correctness gates, outside the timed region.
    let tables = runs.tables.as_ref().expect("at least one publish");
    let model = model_pages(n, D, lambda, L, &ShardConfig::paper());
    match engine {
        Engine::InMemory => {
            let parsed = parse_release(
                pipeline.qi_schema.clone(),
                &fs::read_to_string(&pipeline.qit)?,
                &fs::read_to_string(&pipeline.st)?,
                L,
            )?;
            if parsed != *tables {
                return Err(
                    "the written QIT/ST files do not parse back to the published tables".into(),
                );
            }
        }
        Engine::Sharded => {
            let oracle = AnatomizedTables::publish(&md, &anatomize(&md, &pipeline.config)?, L)?;
            if oracle != *tables {
                return Err(
                    "the sharded release differs from in-memory anatomize + publish".into(),
                );
            }
            let io = runs.io.total() as f64;
            if io > 1.5 * model as f64 || io < model as f64 / 1.5 {
                return Err(format!(
                    "the sharded engine's {io} page I/Os are not within 1.5x of the model's {model}"
                )
                .into());
            }
        }
    }
    if !runs.audit_failures.is_empty() {
        eprintln!(
            "# the audit refused the release ({}); the run records the verdict and goes on",
            runs.audit_failures.join(", ")
        );
    }

    let mut report = Report::default();
    report.attempted = (untraced.len() + traced.len()) as u64;
    let ms = |xs: &[Timed], f: fn(&Timed) -> f64| xs.iter().map(|x| f(x) * 1e3).collect::<Vec<_>>();
    report.set_median("setup_s", &setup);
    let op_p50_ms = report.set_median("op_p50_ms", &ms(&untraced, Timed::ref_wall));
    report.set_median("op_cpu_ms", &ms(&untraced, Timed::ref_cpu));
    report.set("items_per_s", n as f64 / (op_p50_ms * 1e-3));
    report.set("peak_rss_mb", peak_rss);
    if args.trace {
        let p50 = |xs: &[Timed]| probe::percentile(&ms(xs, Timed::ref_wall), 0.5);
        report.set(
            "obs.trace_overhead_frac",
            p50(&traced) / p50(&untraced) - 1.0,
        );
        // The ledger's spans are times as measured, so they are set
        // against the publishes' measured times.
        let traced_walls: Vec<f64> = traced.iter().map(|t| t.wall).collect();
        let mut attributed = 0.0;
        for (span, metric) in STEPS {
            let s = ledger.cost(span).mean_wall();
            attributed += s;
            report.set(metric, s);
        }
        report.set(
            "ledger.unattributed_frac",
            1.0 - attributed / probe::mean(&traced_walls),
        );
        report.set(
            "tables.csv_read_s",
            ledger.cost("tables.csv_read").mean_wall(),
        );
        if engine == Engine::Sharded {
            let sharded = ledger.cost("core.sharded");
            report.set("core.sharded_cpu_s", sharded.mean_cpu());
            let mut phases = 0.0;
            for (path, metric) in SHARD_PHASES {
                let total = delta.spans.get(path).map_or(0, |s| s.total_ns);
                let s = total as f64 * 1e-9 / traced.len() as f64;
                phases += s;
                report.set(metric, s);
            }
            report.set("core.sharded_other_s", sharded.mean_wall() - phases);
            report.set(
                "storage.io_over_model",
                runs.io.total() as f64 / model as f64,
            );
        }
        report.set("storage.page_reads", runs.io.page_reads as f64);
        report.set("storage.page_writes", runs.io.page_writes as f64);
        report.set("publish_io_pages", runs.io.total() as f64);
        report.set("audit.checks_failed", runs.audit_failures.len() as f64);
        report.set(
            "failed_frac",
            ratio(runs.refused as f64, runs.audits as f64),
        );
        report.set_pool(&delta);
    }

    report.stamp_num("n", n as f64);
    report.stamp_num("lambda", lambda as f64);
    report.stamp_text(
        "engine",
        match engine {
            Engine::InMemory => "in-memory",
            Engine::Sharded => "sharded (ShardConfig::paper)",
        },
    );
    report.stamp_num("publishes_measured", untraced.len() as f64);
    report.stamp_text(
        "op_scope",
        "op_p50_ms is one publish's wall time from the loaded microdata to the written \
         QIT/ST files, op_cpu_ms the process's CPU over it, and items_per_s tuples per \
         second at that wall time",
    );
    report.stamp_reference(&reference);
    report.stamp_num("microdata_csv_bytes", inputs::file_bytes(&[&data])? as f64);
    report.stamp_num(
        "release_bytes",
        inputs::file_bytes(&[&pipeline.qit, &pipeline.st])? as f64,
    );
    report.stamp_num("io_pages", runs.io.total() as f64);
    report.stamp_num("model_pages", model as f64);
    report.stamp_text(
        "audit",
        match (engine, runs.audit_failures.is_empty()) {
            (Engine::Sharded, _) => "not run".to_string(),
            (Engine::InMemory, true) => "passed".to_string(),
            (Engine::InMemory, false) => format!("refused: {}", runs.audit_failures.join(", ")),
        },
    );
    report.stamp_text(
        "peak_rss_scope",
        if rss_reset {
            "set-up and publishes (mark reset after input generation, less the reference kernel's array)"
        } else {
            "whole process, less the reference kernel's array"
        },
    );
    Ok(report)
}
