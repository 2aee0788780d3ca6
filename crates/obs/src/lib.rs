//! # anatomy-obs
//!
//! Zero-dependency observability for the Anatomy workspace.
//!
//! The paper's efficiency claims are stated in counters, not seconds —
//! `O(λ)` memory and `O(n/b)` I/Os (Theorem 3, Figures 8–9) — and the
//! workspace already counts logical I/Os in `anatomy-storage`. This crate
//! is the layer that makes the *in-memory* hot paths equally countable:
//! ladder group creation, residue assignment, bitmap-index build, pool
//! scheduling. Every instrument here is std-only and cheap enough to
//! leave compiled into release binaries.
//!
//! ## Instruments
//!
//! * [`Counter`] — monotone `u64` add, one relaxed atomic.
//! * [`Gauge`] — signed level with a high-water mark (queue depths).
//! * [`Histogram`] — log₂-bucketed magnitudes (latencies in ns, sizes in
//!   rows); 65 buckets cover the full `u64` range, snapshots recover
//!   mean and percentile upper bounds.
//! * [`Span`] — RAII phase timer. Spans nest per thread: a span opened
//!   while another is live records under the path `outer/inner`, so a
//!   whole `anatomize` call decomposes into its bucketize / group
//!   creation / residue phases without any explicit plumbing.
//! * [`RunManifest`] — one run's parameters, counters, phase tree,
//!   latency percentiles, and I/O stats, serializable to the same
//!   hand-rolled JSON style as the `BENCH_*.json` artifacts (see
//!   [`RunManifest::to_json`]).
//!
//! ## The trace journal
//!
//! Aggregates answer *how much*; the [`tracer`] answers *when*. Each
//! thread owns a bounded write-once event journal recording typed
//! [`EventKind`]s — span begin/end with causal parent ids, storage
//! page ops tagged with the fault-schedule op index, pool dispatch and
//! share completion, query batch boundaries — appended without locks
//! (one relaxed atomic check when tracing is disabled).
//! [`TraceSnapshot`] exports Chrome trace-event JSON (open it in
//! Perfetto or `chrome://tracing`) or JSONL; [`validate_trace`] (and
//! the `check_trace` binary) checks nesting balance, parent-id
//! causality, and timestamp monotonicity.
//!
//! ## The enabled flag
//!
//! All instruments hang off a [`Registry`]. The process-wide one is
//! [`global()`]; it starts **disabled**, and while disabled every
//! instrument is a true no-op — one relaxed `AtomicBool` load, no clock
//! read, no thread-local touch, no allocation. `bench_anatomize
//! --obs-gate` measures (rather than assumes) that enabling the registry
//! keeps full `anatomize` runs within 2% of the disabled baseline.
//!
//! Handles created while the registry is disabled are still registered,
//! so enabling later activates them retroactively; there is no "noop
//! handle" variant to accidentally keep after enabling.
//!
//! ## Rolling windows and scrape exposition
//!
//! A resident process gets continuous monitoring from the same
//! instruments: [`start_sampler`] runs a thread that periodically folds
//! [`Snapshot`] deltas into fixed rings of time buckets ([`Windows`],
//! 60×1s plus 60×1m by default), so every counter gains per-window
//! rates and every histogram rolling p50/p90/p99/max — with O(ring)
//! memory and no change to the one-atomic write path.
//! [`render_exposition`] renders a snapshot plus window aggregates in
//! the Prometheus text format; [`validate_exposition`] (and the
//! `check_exposition` binary) re-parse and check an exposition the way
//! `check_manifest`/`check_trace` do for manifests and traces.
//!
//! ## Reading results
//!
//! [`Registry::snapshot`] captures everything at a point in time;
//! [`Snapshot::since`] subtracts an earlier snapshot so one process can
//! attribute counts to individual bench cells. [`RunManifest::capture`]
//! wraps a snapshot with run parameters; [`validate_manifest_json`]
//! (and the `check_manifest` binary) verify an emitted manifest is
//! well-formed.

#![deny(clippy::undocumented_unsafe_blocks)]

mod expo;
mod hist;
mod json;
mod manifest;
mod registry;
mod snapshot;
mod span;
mod trace;
mod window;

pub use expo::{
    check_counter_monotonic, metric_name, render_exposition, sample_value, validate_exposition,
    ExpositionSummary,
};
pub use hist::{HistSnapshot, Histogram};
pub use json::Json;
pub use manifest::{
    validate_manifest_json, AuditSummary, IoSummary, ManifestSummary, ParamValue, PhaseNode,
    RunManifest,
};
pub use registry::{Counter, Gauge, GaugeStats, Registry};
pub use snapshot::Snapshot;
pub use span::{Span, SpanStats};
pub use trace::{
    tracer, validate_trace, EventKind, ThreadTrace, TraceEvent, TraceMark, TraceSnapshot,
    TraceSummary, Tracer, DEFAULT_JOURNAL_CAPACITY,
};
pub use window::{
    start_sampler, start_sampler_into, Sampler, WindowAggregate, WindowConfig, Windows,
};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry. Starts disabled; flip it with
/// [`Registry::set_enabled`]. Library code should take instruments from
/// here unless a caller supplies its own [`Registry`].
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}
