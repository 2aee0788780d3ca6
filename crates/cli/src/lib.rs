//! # anatomy-cli
//!
//! The operational face of the workspace: a command-line tool that takes a
//! microdata CSV and produces a publishable QIT/ST pair, verifies an
//! existing release, reports a dataset's privacy budget, or estimates COUNT
//! queries from a release.
//!
//! ```text
//! anatomy stats   --data data.csv --schema schema.txt --sensitive Disease
//! anatomy publish --data data.csv --schema schema.txt --sensitive Disease \
//!                 --l 4 --qit qit.csv --st st.csv [--seed 7]
//! anatomy verify  --qit qit.csv --st st.csv --schema schema.txt \
//!                 --sensitive Disease --l 4
//! anatomy query   --qit qit.csv --st st.csv --schema schema.txt \
//!                 --sensitive Disease --l 4 --query "qi0=1|2;s=0"
//! ```
//!
//! The schema file has one attribute per line, `name:kind:domain_size`
//! (kind `numerical` or `categorical`); the data CSV is the
//! `anatomy_tables::csv` format (header of names, one row of codes per
//! tuple). All QI attributes are the schema's non-sensitive columns, in
//! schema order.
//!
//! Command logic lives in this library so it is unit-testable; the binary
//! is a thin wrapper.

#![forbid(unsafe_code)]

pub mod args;
pub mod commands;
pub mod schema_file;

pub use args::{parse_args, Command, EngineArg};
pub use commands::run;

// The binary prints errors through `render_chain`, so wrapped causes
// (file errors, core/tables/query failures) each get a `caused by:` line.
pub use anatomy::{render_chain, Error};

/// CLI commands fail with the workspace-wide [`anatomy::Error`], keeping
/// the cause chain intact all the way to the binary's stderr report.
pub type CliResult<T> = Result<T, Error>;
