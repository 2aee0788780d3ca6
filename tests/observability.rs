//! The observability layer's core contract, pinned at the integration
//! level: instrumentation NEVER perturbs results. Partitions, published
//! tables, and query estimates must be bit-for-bit identical whether the
//! global registry is enabled or disabled — and the manifest's I/O block
//! must equal the run's `IoStats` exactly in both states.
//!
//! The same contract extends to the trace journal: a traced run must
//! produce bit-identical tables, estimates, and `IoStats` to an untraced
//! one, and every trace the suite exports must pass
//! [`obs::validate_trace`] in both output formats.

use anatomy::core::{
    anatomize, AnatomizeConfig, AnatomizedTables, BucketStrategy, CoreError, ShardConfig,
};
use anatomy::obs;
use anatomy::query::{estimate_anatomy, WorkloadSpec};
use anatomy::storage::PageConfig;
use anatomy::tables::{Attribute, Microdata, Schema, TableBuilder};
use anatomy::{Engine, Publish};
use proptest::prelude::*;
use std::sync::Mutex;

/// The registry's enabled flag is process-global; every test that toggles
/// it serializes on this lock and restores the previous state via
/// [`Enabled`], so tests cannot observe each other's state.
static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

struct Enabled {
    prev: bool,
}

impl Enabled {
    fn set(on: bool) -> Enabled {
        let prev = obs::global().enabled();
        obs::global().set_enabled(on);
        Enabled { prev }
    }
}

impl Drop for Enabled {
    fn drop(&mut self) {
        obs::global().set_enabled(self.prev);
    }
}

/// Like [`Enabled`], but for the trace journal's global flag. Also used
/// under [`REGISTRY_LOCK`] — registry and tracer share the one lock so a
/// test never sees the other's toggles.
struct Traced {
    prev: bool,
}

impl Traced {
    fn set(on: bool) -> Traced {
        let prev = obs::tracer().enabled();
        obs::tracer().set_enabled(on);
        Traced { prev }
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        obs::tracer().set_enabled(self.prev);
    }
}

const QI_DOM: u32 = 24;
const S_DOM: u32 = 7;

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

/// The paged engine the I/O-bill tests publish through.
fn sharded() -> Engine {
    Engine::Sharded(ShardConfig::new(PageConfig::with_page_size(128), 2, 6).unwrap())
}

fn rows_strategy() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..QI_DOM, 0u32..S_DOM), 10..160)
}

/// One full publish + estimate pass under the current registry state.
fn run_pipeline(
    md: &Microdata,
    config: &AnatomizeConfig,
) -> Result<(AnatomizedTables, Vec<u64>), CoreError> {
    let partition = anatomize(md, config)?;
    let tables = AnatomizedTables::publish(md, &partition, config.l)?;
    let queries = WorkloadSpec {
        qd: 1,
        selectivity: 0.2,
        count: 12,
        seed: config.seed ^ 0xBEEF,
    }
    .generate(md)
    .unwrap();
    // Bit patterns, so NaN-free f64 comparison is exact by construction.
    let estimates = queries
        .iter()
        .map(|q| estimate_anatomy(&tables, q).to_bits())
        .collect();
    Ok((tables, estimates))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// Enabled vs disabled registry: identical partitions, identical
    /// QIT/ST, identical estimates — for random microdata, every seed,
    /// and both bucket strategies.
    #[test]
    fn instrumentation_never_perturbs_results(
        rows in rows_strategy(),
        l in 2usize..5,
        seed in 0u64..40,
        strategy_arm in 0u32..2,
    ) {
        let md = microdata(&rows);
        let strategy = if strategy_arm == 1 {
            BucketStrategy::RoundRobin
        } else {
            BucketStrategy::LargestFirst
        };
        let config = AnatomizeConfig::new(l).with_seed(seed).with_strategy(strategy);

        let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let disabled = {
            let _state = Enabled::set(false);
            run_pipeline(&md, &config)
        };
        let enabled = {
            let _state = Enabled::set(true);
            run_pipeline(&md, &config)
        };

        match (disabled, enabled) {
            (Ok((t_off, e_off)), Ok((t_on, e_on))) => {
                prop_assert_eq!(t_off, t_on);
                prop_assert_eq!(e_off, e_on);
            }
            // Ineligible inputs must be rejected identically.
            (Err(off), Err(on)) => prop_assert_eq!(off, on),
            (off, on) => prop_assert!(
                false,
                "registry state changed the outcome: disabled={:?} enabled={:?}",
                off.map(|_| "ok"),
                on.map(|_| "ok")
            ),
        }
    }

    /// Tracing on vs off (registry enabled in both arms): identical
    /// partitions, QIT/ST, and estimates — and the trace the traced arm
    /// journaled validates in both export formats.
    #[test]
    fn tracing_never_perturbs_results(
        rows in rows_strategy(),
        l in 2usize..5,
        seed in 40u64..60,
    ) {
        let md = microdata(&rows);
        let config = AnatomizeConfig::new(l).with_seed(seed);

        let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let _metrics = Enabled::set(true);
        let untraced = {
            let _state = Traced::set(false);
            run_pipeline(&md, &config)
        };
        let mark = obs::tracer().mark();
        let traced = {
            let _state = Traced::set(true);
            run_pipeline(&md, &config)
        };
        let snapshot = obs::tracer().snapshot_since(&mark);

        match (untraced, traced) {
            (Ok((t_off, e_off)), Ok((t_on, e_on))) => {
                prop_assert_eq!(t_off, t_on);
                prop_assert_eq!(e_off, e_on);
                let chrome = obs::validate_trace(&snapshot.to_chrome_json());
                prop_assert!(chrome.is_ok(), "chrome trace invalid: {:?}", chrome);
                let jsonl = obs::validate_trace(&snapshot.to_jsonl());
                prop_assert!(jsonl.is_ok(), "jsonl trace invalid: {:?}", jsonl);
                prop_assert!(chrome.unwrap().spans > 0, "traced run journaled no spans");
            }
            (Err(off), Err(on)) => prop_assert_eq!(off, on),
            (off, on) => prop_assert!(
                false,
                "tracer state changed the outcome: untraced={:?} traced={:?}",
                off.map(|_| "ok"),
                on.map(|_| "ok")
            ),
        }
    }
}

/// The paged engines' acceptance contract: a sharded run's manifest
/// carries an `io` block equal to its `IoStats`, and — with the registry
/// enabled — the mirrored `io.publish.*` counters agree with those exact
/// values.
#[test]
fn sharded_manifest_io_matches_iostats_exactly() {
    let rows: Vec<(u32, u32)> = (0..600).map(|i| (i % QI_DOM, i % S_DOM)).collect();
    let md = microdata(&rows);

    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let _state = Enabled::set(true);
    let release = Publish::new(&md).l(4).engine(sharded()).run().unwrap();
    let stats = release.io.expect("sharded run reports I/O");
    assert!(stats.total() > 0);

    let json = release.manifest.to_json();
    obs::validate_manifest_json(&json).unwrap();
    let v = obs::Json::parse(&json).unwrap();
    let io = v.get("io").expect("io block");
    assert_eq!(
        io.get("page_reads").unwrap().as_u64(),
        Some(stats.page_reads)
    );
    assert_eq!(
        io.get("page_writes").unwrap().as_u64(),
        Some(stats.page_writes)
    );
    assert_eq!(io.get("total").unwrap().as_u64(), Some(stats.total()));

    // The registry mirrors agree with the authoritative local counter.
    let counters = v.get("counters").expect("counters");
    assert_eq!(
        counters.get("io.publish.page_reads").unwrap().as_u64(),
        Some(stats.page_reads)
    );
    assert_eq!(
        counters.get("io.publish.page_writes").unwrap().as_u64(),
        Some(stats.page_writes)
    );

    // The sharded phase tree is attributed under one root span.
    let phases = release.manifest.phases();
    assert!(phases.iter().any(|p| p.name == "anatomize_sharded"));
}

/// With the registry disabled the manifest says so, records no counters —
/// and the `io` block is STILL exact, because it comes from the run's own
/// `IoStats`, not the registry.
#[test]
fn disabled_registry_still_reports_exact_io() {
    let rows: Vec<(u32, u32)> = (0..400).map(|i| ((i * 5) % QI_DOM, i % S_DOM)).collect();
    let md = microdata(&rows);

    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let _state = Enabled::set(false);
    let release = Publish::new(&md).l(3).engine(sharded()).run().unwrap();
    let stats = release.io.unwrap();

    let json = release.manifest.to_json();
    obs::validate_manifest_json(&json).unwrap();
    let v = obs::Json::parse(&json).unwrap();
    assert_eq!(v.get("enabled").unwrap().as_bool(), Some(false));
    let io = v.get("io").unwrap();
    assert_eq!(io.get("total").unwrap().as_u64(), Some(stats.total()));
    // No spans were recorded: a disabled registry is a true no-op.
    assert!(release.manifest.phases().is_empty());
}

/// `Publish::trace`: the traced run is bit-identical to the untraced one
/// (tables AND `IoStats`), the exported file validates, and the traced
/// manifest carries a latency block that `validate_manifest_json`
/// accepts.
#[test]
fn traced_publish_is_bit_identical_and_trace_validates() {
    let rows: Vec<(u32, u32)> = (0..500).map(|i| ((i * 3) % QI_DOM, i % S_DOM)).collect();
    let md = microdata(&rows);
    let dir = std::env::temp_dir().join(format!("anatomy-trace-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let _metrics = Enabled::set(false);
    let _tracing = Traced::set(false);
    let plain = Publish::new(&md).l(4).engine(sharded()).run().unwrap();

    for name in ["t.json", "t.jsonl"] {
        let path = dir.join(name).to_string_lossy().into_owned();
        let traced = Publish::new(&md)
            .l(4)
            .engine(sharded())
            .trace(&path)
            .run()
            .unwrap();
        assert_eq!(plain.tables, traced.tables, "tables diverge under {name}");
        assert_eq!(plain.io, traced.io, "IoStats diverge under {name}");

        let summary = obs::validate_trace(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(summary.events > 0, "{name}: empty trace");
        assert!(summary.spans > 0, "{name}: no spans journaled");
        assert!(
            summary.instants > 0,
            "{name}: no page-op instants journaled"
        );

        // The traced run's manifest surfaces latency percentiles, and the
        // stricter-than-schema validator accepts them.
        let json = traced.manifest.to_json();
        obs::validate_manifest_json(&json).unwrap();
        let v = obs::Json::parse(&json).unwrap();
        let latency = v.get("latency").expect("traced manifest has latency");
        assert!(
            latency.get("anatomize_sharded").is_some(),
            "latency block lacks the root phase: {json}"
        );
    }

    // Tracing stayed scoped: both globals are back off.
    assert!(!obs::tracer().enabled());
    assert!(!obs::global().enabled());
}

/// End-to-end contract for the sharded engine: one
/// `Publish::engine(Engine::Sharded(..))` run with audit + trace produces
/// tables bit-identical to the in-memory engine, a passing audit report,
/// a manifest whose mode/seed/io blocks describe the sharded run (with
/// the shard phase tree under `anatomize_sharded`), and a trace file that
/// validates in both formats.
#[test]
fn sharded_publish_end_to_end_with_audit_manifest_and_trace() {
    let rows: Vec<(u32, u32)> = (0..700).map(|i| ((i * 7) % QI_DOM, i % S_DOM)).collect();
    let md = microdata(&rows);
    let dir = std::env::temp_dir().join(format!("anatomy-shard-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    let _metrics = Enabled::set(true);
    let _tracing = Traced::set(false);

    let in_mem = Publish::new(&md).l(4).seed(21).run().unwrap();
    let shard_cfg = ShardConfig::new(PageConfig::with_page_size(128), 3, 6).unwrap();
    let trace_path = dir.join("sharded.jsonl").to_string_lossy().into_owned();
    let sharded = Publish::new(&md)
        .l(4)
        .seed(21)
        .engine(Engine::Sharded(shard_cfg))
        .audit()
        .trace(&trace_path)
        .run()
        .unwrap();

    // Bit-identical tables, no resident partition, a real I/O bill.
    assert_eq!(sharded.tables, in_mem.tables);
    assert!(sharded.partition.is_none());
    let stats = sharded.io.expect("sharded run reports I/O");
    assert!(stats.total() > 0);

    // The audit re-verified every invariant from the published pair.
    let report = sharded.audit.expect("audited run carries a report");
    assert!(report.passed(), "{}", report.render());

    // Manifest: mode/seed/shards params, exact io block, shard phase tree.
    let json = sharded.manifest.to_json();
    obs::validate_manifest_json(&json).unwrap();
    let v = obs::Json::parse(&json).unwrap();
    let params = v.get("params").unwrap();
    assert_eq!(params.get("mode").unwrap().as_str(), Some("sharded"));
    assert_eq!(params.get("seed").unwrap().as_u64(), Some(21));
    assert_eq!(params.get("shards").unwrap().as_u64(), Some(3));
    let io = v.get("io").expect("io block");
    assert_eq!(io.get("total").unwrap().as_u64(), Some(stats.total()));
    let phases = sharded.manifest.phases();
    assert!(phases.iter().any(|p| p.name == "anatomize_sharded"));

    // The exported trace validates and journaled real events.
    let summary = obs::validate_trace(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    assert!(summary.events > 0 && summary.spans > 0);
}
