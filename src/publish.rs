//! The front door: one builder that runs the whole publish pipeline.
//!
//! The member crates expose each step separately — `anatomize` for the
//! partition, `AnatomizedTables::publish` for the QIT/ST pair,
//! `anatomize_sharded` for the paged out-of-core variant — and every
//! caller had to thread them together by hand. [`Publish`] packages the
//! steps behind one builder and returns a [`Release`] carrying the
//! published tables plus everything the run learned about itself: the
//! partition (in-memory runs), the logical I/O bill (sharded runs), and
//! a [`RunManifest`] with the phase tree and
//! counters of exactly this run.
//!
//! ```
//! use anatomy::prelude::*;
//!
//! # fn main() -> Result<(), anatomy::Error> {
//! let md = anatomy::data::tiny::paper_microdata();
//! let release = Publish::new(&md).l(2).seed(7).run()?;
//! assert_eq!(release.tables.group_count(), md.len() / 2);
//! println!("{}", release.manifest.to_json());
//! # Ok(())
//! # }
//! ```
//!
//! The step-by-step free functions remain the documented lower-level
//! API; the builder adds no behavior of its own beyond sequencing them
//! and capturing the manifest. Theorem 3's paged algorithm,
//! `anatomy_core::anatomize_io::anatomize_external`, is one of them: it
//! drives Figures 8–9 and places residues differently from the ladder,
//! so it is called directly rather than offered as a builder engine.

use crate::error::Error;
use anatomy_audit::{audit_release, AuditReport};
use anatomy_core::{
    anatomize, anatomize_sharded, AnatomizeConfig, AnatomizedTables, BucketStrategy, Partition,
    ShardConfig,
};
use anatomy_obs::{AuditSummary, RunManifest};
use anatomy_storage::{IoCounter, IoStats};
use anatomy_tables::Microdata;

/// Which anatomization engine a [`Publish`] run uses.
///
/// Both engines publish the identical release; they differ in memory
/// footprint, I/O accounting, and scale. Pick with [`Publish::engine`]:
///
/// * [`Engine::InMemory`] — the linear-time frequency ladder of Figure 3.
///   The default; holds the whole relation and partition in memory.
/// * [`Engine::Sharded`] — the out-of-core sharded pipeline for
///   10M–100M-tuple inputs: partitions by sensitive-value range, splits
///   buckets concurrently per shard, streams group formation with O(λ)
///   resident pages, and merges the QIT/ST with double-buffered writes.
///   Honors `seed` and `strategy` and publishes tables **bit-for-bit
///   identical** to `InMemory` at every scale.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum Engine {
    /// The in-memory frequency-ladder `Anatomize` (the default).
    #[default]
    InMemory,
    /// The sharded out-of-core pipeline.
    Sharded(ShardConfig),
}

impl Engine {
    /// The engine's `mode` string as recorded in the run manifest.
    pub fn mode(&self) -> &'static str {
        match self {
            Engine::InMemory => "in_memory",
            Engine::Sharded(_) => "sharded",
        }
    }
}

/// Everything a publish run produces.
///
/// `tables` is always present — the sharded path decodes its QIT/ST
/// files back into validated [`AnatomizedTables`] so downstream code
/// (adversary analysis, query estimation) never cares which path ran.
#[derive(Debug, Clone)]
pub struct Release {
    /// The published quasi-identifier table + sensitive table.
    pub tables: AnatomizedTables,
    /// The group partition; `None` for sharded runs, which never hold
    /// the full partition in memory.
    pub partition: Option<Partition>,
    /// Logical I/O charged by the sharded engine; `None` for in-memory
    /// runs. Matches the manifest's `io` block exactly.
    pub io: Option<IoStats>,
    /// Phase timings, counters, and parameters of this run, captured as
    /// a delta over the process-wide registry.
    pub manifest: RunManifest,
    /// The integrity audit's full report; `None` unless the run asked
    /// for auditing via [`Publish::audit`]. A `Some` here always has
    /// `passed() == true` — a failed audit aborts [`Publish::run`].
    pub audit: Option<AuditReport>,
    /// The diversity parameter the run enforced.
    pub l: usize,
    /// The seed the run used.
    pub seed: u64,
}

/// Builder for one publish run. See the [module docs](self) for an
/// example.
///
/// Defaults: `l = 2`, the fixed seed of [`AnatomizeConfig::new`], the
/// paper's largest-first bucket strategy, the in-memory ladder
/// implementation.
#[derive(Debug, Clone)]
pub struct Publish<'a> {
    md: &'a Microdata,
    config: AnatomizeConfig,
    engine: Engine,
    audit: bool,
    trace: Option<String>,
    name: String,
}

/// RAII save/restore around a traced run: enables the registry and the
/// tracer for the duration, marks the journal position, and restores
/// both flags on drop (success *and* error paths).
struct TraceScope {
    path: String,
    prev_metrics: bool,
    prev_trace: bool,
    mark: anatomy_obs::TraceMark,
}

impl TraceScope {
    fn begin(path: String) -> TraceScope {
        let obs = anatomy_obs::global();
        let tracer = anatomy_obs::tracer();
        let scope = TraceScope {
            path,
            prev_metrics: obs.enabled(),
            prev_trace: tracer.enabled(),
            mark: tracer.mark(),
        };
        obs.set_enabled(true);
        tracer.set_enabled(true);
        scope
    }

    /// Write everything journaled since the mark to `self.path` (JSONL
    /// when the path ends in `.jsonl`, Chrome trace-event JSON
    /// otherwise). Called on the success path only; flag restoration is
    /// the drop's job.
    fn finish(&self) -> Result<(), Error> {
        anatomy_obs::tracer()
            .snapshot_since(&self.mark)
            .write_to(&self.path)
            .map_err(|e| Error::msg(format!("writing trace {:?}: {e}", self.path)))
    }
}

impl Drop for TraceScope {
    fn drop(&mut self) {
        anatomy_obs::global().set_enabled(self.prev_metrics);
        anatomy_obs::tracer().set_enabled(self.prev_trace);
    }
}

impl<'a> Publish<'a> {
    /// Start a run over `md` with the defaults above.
    pub fn new(md: &'a Microdata) -> Self {
        Publish {
            md,
            config: AnatomizeConfig::new(2),
            engine: Engine::InMemory,
            audit: false,
            trace: None,
            name: "publish".to_string(),
        }
    }

    /// Set the diversity parameter `l >= 2`.
    pub fn l(mut self, l: usize) -> Self {
        self.config.l = l;
        self
    }

    /// Set the seed for the run's random choices.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Set the bucket-selection strategy (ablation only; the default
    /// reproduces the paper).
    pub fn strategy(mut self, strategy: BucketStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Select the anatomization [`Engine`] for this run. The default is
    /// [`Engine::InMemory`]; see the enum docs for when to pick each
    /// variant.
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Audit the release before returning it: re-verify every invariant
    /// registered for the `anatomize` stage (Definitions 1–3, Properties
    /// 1–3, Theorem 2, and query-layer agreement — see
    /// `anatomy_audit::REGISTRY`) from the published pair alone. A failed
    /// audit turns into [`Error::Audit`] and the release is withheld;
    /// a passed audit is recorded in the manifest's stage-stamped `audit`
    /// block and in [`Release::audit`].
    pub fn audit(mut self) -> Self {
        self.audit = true;
        self
    }

    /// Export an execution trace of this run to `path`: JSONL when the
    /// path ends in `.jsonl`, Chrome trace-event JSON (loadable in
    /// Perfetto / `chrome://tracing`) otherwise. Enables the registry
    /// and the event tracer for the duration of [`Publish::run`] and
    /// restores their previous state afterwards; the manifest then also
    /// carries the `latency` percentile block. Tracing never changes
    /// the published tables — traced and untraced runs are bit-identical.
    pub fn trace(mut self, path: impl Into<String>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// Name recorded in the manifest (default `"publish"`).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Execute the pipeline and capture its manifest.
    ///
    /// The manifest is a delta: only counters and spans recorded during
    /// this call appear in it, so concurrent activity on the global
    /// registry elsewhere in the process does not leak in (spans from
    /// other threads can, as the registry is process-wide; run-scoped
    /// attribution holds whenever runs don't overlap).
    pub fn run(self) -> Result<Release, Error> {
        let obs = anatomy_obs::global();
        // Install the trace scope before the baseline snapshot so the
        // manifest delta sees the traced (enabled) registry state.
        let trace_scope = self.trace.clone().map(TraceScope::begin);
        let before = obs.snapshot();
        let l = self.config.l;
        let seed = self.config.seed;

        let (tables, partition, io) = match self.engine {
            Engine::Sharded(shard_cfg) => {
                let counter = IoCounter::observed(obs, "io.publish");
                let out = anatomize_sharded(self.md, &self.config, &shard_cfg, &counter)?;
                let qi_schema = self.md.table().schema().project(self.md.qi_columns())?;
                let tables = out.into_tables(qi_schema, l)?;
                (tables, None, Some(out.stats))
            }
            Engine::InMemory => {
                let partition = anatomize(self.md, &self.config)?;
                let tables = AnatomizedTables::publish(self.md, &partition, l)?;
                (tables, Some(partition), None)
            }
        };

        let mut manifest = RunManifest::capture_since(&self.name, obs, &before)
            .with_param("n", self.md.len() as u64)
            .with_param("l", l as u64)
            .with_param("mode", self.engine.mode())
            .with_param("seed", seed)
            .with_param(
                "strategy",
                match self.config.strategy {
                    BucketStrategy::LargestFirst => "largest_first",
                    BucketStrategy::RoundRobin => "round_robin",
                },
            );
        if let Engine::Sharded(shard_cfg) = self.engine {
            manifest.add_param("shards", shard_cfg.shards() as u64);
            manifest.add_param("page_budget", shard_cfg.budget() as u64);
        }
        if let Some(stats) = io {
            // Taken from the run's own IoStats, not the registry mirror,
            // so the manifest is exact even with observability disabled.
            manifest = manifest.with_io(stats.page_reads, stats.page_writes);
        }

        let audit = if self.audit {
            let report = audit_release(&tables, l);
            let (passed, checks) = report.summary();
            manifest = manifest.with_audit(AuditSummary {
                stage: report.stage.name().to_string(),
                passed,
                checks,
            });
            if let Some(failure) = report.clone().into_failure() {
                return Err(Error::Audit(failure));
            }
            Some(report)
        } else {
            None
        };

        if let Some(scope) = &trace_scope {
            scope.finish()?;
        }

        Ok(Release {
            tables,
            partition,
            io,
            manifest,
            audit,
            l,
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anatomy_audit::Stage;
    use anatomy_storage::PageConfig;
    use anatomy_tables::{Attribute, Schema, TableBuilder};

    fn md(n: u32) -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("Age", 100),
            Attribute::numerical("Zip", 60),
            Attribute::categorical("Disease", 7),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..n {
            b.push_row(&[i % 100, (i * 13) % 60, i % 7]).unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 2).unwrap()
    }

    #[test]
    fn builder_matches_free_functions() {
        let md = md(300);
        let cfg = AnatomizeConfig::new(4).with_seed(99);
        let expect = anatomize(&md, &cfg).unwrap();
        let release = Publish::new(&md).l(4).seed(99).run().unwrap();
        assert_eq!(release.partition.as_ref(), Some(&expect));
        let expect_tables = AnatomizedTables::publish(&md, &expect, 4).unwrap();
        assert_eq!(release.tables, expect_tables);
        assert_eq!(release.l, 4);
        assert_eq!(release.seed, 99);
        assert!(release.io.is_none());
    }

    #[test]
    fn sharded_engine_matches_in_memory_and_reports_io() {
        let md = md(360);
        let in_mem = Publish::new(&md).l(3).seed(11).run().unwrap();
        let shard_cfg = ShardConfig::new(PageConfig::with_page_size(64), 3, 6).unwrap();
        let sharded = Publish::new(&md)
            .l(3)
            .seed(11)
            .engine(Engine::Sharded(shard_cfg))
            .run()
            .unwrap();
        assert_eq!(sharded.tables, in_mem.tables);
        assert!(sharded.partition.is_none());
        let stats = sharded.io.expect("sharded run must report I/O");
        assert!(stats.total() > 0);
        let json = sharded.manifest.to_json();
        let v = anatomy_obs::Json::parse(&json).unwrap();
        let params = v.get("params").unwrap();
        assert_eq!(params.get("mode").unwrap().as_str(), Some("sharded"));
        assert_eq!(params.get("seed").unwrap().as_u64(), Some(11));
        assert_eq!(params.get("shards").unwrap().as_u64(), Some(3));
        let io = v.get("io").expect("manifest io block");
        assert_eq!(io.get("total").unwrap().as_u64(), Some(stats.total()));
    }

    #[test]
    fn sharded_engine_surfaces_typed_budget_errors() {
        let md = md(360); // sensitive domain 7 -> required budget 9
        let tight = ShardConfig::new(PageConfig::with_page_size(64), 1, 6).unwrap();
        let err = Publish::new(&md)
            .l(3)
            .engine(Engine::Sharded(tight))
            .run()
            .unwrap_err();
        let rendered = crate::error::render_chain(&err);
        assert!(rendered.contains("budget"), "{rendered}");
    }

    #[test]
    fn audited_runs_attach_a_clean_report_and_manifest_block() {
        let md = md(280);
        // Every engine's output is certified by the one `anatomize` stage.
        for engine in [
            Engine::InMemory,
            Engine::Sharded(ShardConfig::new(PageConfig::with_page_size(64), 2, 6).unwrap()),
        ] {
            let release = Publish::new(&md).l(4).engine(engine).audit().run().unwrap();
            let report = release.audit.expect("audited run carries a report");
            assert!(report.passed());
            assert_eq!(report.checks.len(), 6);
            assert_eq!(report.n, md.len());
            assert_eq!(report.stage, Stage::Anatomize);
            let json = release.manifest.to_json();
            let summary = anatomy_obs::validate_manifest_json(&json).unwrap();
            assert_eq!(summary.audit_passed, Some(true));
            // The manifest's audit block is stage-stamped and its check
            // set equals the registry for that stage.
            assert_eq!(summary.audit_stage.as_deref(), Some("anatomize"));
            let mut expected: Vec<&str> = anatomy_audit::names_for(Stage::Anatomize);
            let mut got: Vec<&str> = summary.audit_checks.iter().map(String::as_str).collect();
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected);
        }
        // Unaudited runs carry neither.
        let plain = Publish::new(&md).l(4).run().unwrap();
        assert!(plain.audit.is_none());
        let summary = anatomy_obs::validate_manifest_json(&plain.manifest.to_json()).unwrap();
        assert_eq!(summary.audit_passed, None);
    }

    #[test]
    fn manifest_is_valid_and_named() {
        let md = md(120);
        let release = Publish::new(&md).l(2).name("demo_run").run().unwrap();
        let json = release.manifest.to_json();
        anatomy_obs::validate_manifest_json(&json).unwrap();
        let v = anatomy_obs::Json::parse(&json).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("demo_run"));
        let params = v.get("params").unwrap();
        assert_eq!(params.get("l").unwrap().as_u64(), Some(2));
        assert_eq!(params.get("mode").unwrap().as_str(), Some("in_memory"));
    }
}
