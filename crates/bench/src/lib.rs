//! # anatomy-bench
//!
//! The reproduction harness for every table and figure of the Anatomy
//! paper, plus shared machinery for the `bench_*` measurement binaries.
//!
//! The `repro` binary exposes one subcommand per experiment
//! (`repro fig4`, `repro table3`, `repro all`, ...). Each figure module
//! returns its series as data *and* prints them in the paper's layout, so
//! EXPERIMENTS.md can quote the output verbatim.
//!
//! Scale: the paper runs `n` up to 500 000 with 10 000 queries per
//! workload. The harness defaults to a reduced scale that finishes in
//! minutes ([`params::Scale::quick`]); `--full` restores the paper's scale.

#![forbid(unsafe_code)]

pub mod figures;
pub mod params;
pub mod report;
pub mod runner;
pub mod tables;
