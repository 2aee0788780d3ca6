//! # anatomy
//!
//! Facade crate for the Anatomy workspace — a Rust implementation of
//! *Anatomy: Simple and Effective Privacy Preservation* (Xiao & Tao,
//! VLDB 2006).
//!
//! **Start with [`prelude`]**: `use anatomy::prelude::*;` brings in the
//! [`Publish`] builder — the one front door for producing a release —
//! plus the COUNT-query evaluators and the substrate types they need.
//! [`Publish::run`] returns a [`Release`] carrying the QIT/ST pair, the
//! partition (in-memory engine) or I/O bill (sharded engine), and a
//! [`RunManifest`](obs::RunManifest) describing the run itself.
//! Failures from any layer unify into [`Error`], and [`render_chain`]
//! prints a full `caused by:` report.
//!
//! The member crates remain the documented lower-level API, re-exported
//! under stable module names:
//!
//! * [`tables`] — the columnar relation substrate (schemas, tables,
//!   microdata, CSV, sampling, histograms);
//! * [`storage`] — simulated paged storage with logical I/O accounting;
//! * [`core`] — the Anatomy technique itself: `anatomize`, the published
//!   QIT/ST pair, adversary analysis, RCE, the paged engines (Theorem
//!   3's `anatomize_external` behind Figures 8–9, the sharded pipeline
//!   behind [`Engine::Sharded`]), plus the k-anonymity comparison, the
//!   release/audit surface, and the incremental and multi-sensitive
//!   extensions;
//! * [`generalization`] — the baselines: l-diverse and k-anonymous
//!   Mondrian, single-dimension global recoding, taxonomy trees,
//!   information-loss metrics;
//! * [`query`] — COUNT queries, workload generation, exact evaluation,
//!   and the two estimators of the paper's Section 6, by scan or through
//!   a bitmap index (v2 for the CLI and server, v1 for the figure
//!   harness);
//! * [`audit`] — the release-integrity auditor: re-verifies every paper
//!   invariant (Definitions 1–3, Properties 1–3, Theorem 2) from the
//!   published pair alone, as [`Publish::audit`] and `anatomy verify`
//!   do;
//! * [`pool`] — the persistent worker pool batch evaluation runs on;
//! * [`obs`] — the zero-dependency observability layer: counters,
//!   histograms, phase spans, the `RunManifest` JSON every instrumented
//!   binary can emit (`--metrics` on the CLI), and the event-journal
//!   tracer behind [`Publish::trace`] and `--trace` (Perfetto/JSONL
//!   export, latency percentiles in the manifest);
//! * [`data`] — the paper's worked example and the synthetic CENSUS.
//!
//! `DESIGN.md` maps the paper to the modules, and the `repro` binary
//! (crate `anatomy-bench`) regenerates every table and figure. The
//! `anatomy` binary (crate `anatomy-cli`) publishes, verifies, queries
//! and serves releases from the command line.

#![forbid(unsafe_code)]

pub use anatomy_audit as audit;
pub use anatomy_core as core;
pub use anatomy_data as data;
pub use anatomy_generalization as generalization;
pub use anatomy_obs as obs;
pub use anatomy_pool as pool;
pub use anatomy_query as query;
pub use anatomy_storage as storage;
pub use anatomy_tables as tables;

pub mod error;
pub mod prelude;
pub mod publish;

pub use error::{render_chain, Error};
pub use publish::{Engine, Publish, Release};
