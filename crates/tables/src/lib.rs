//! # anatomy-tables
//!
//! Minimal columnar relation substrate used throughout the `anatomy`
//! workspace.
//!
//! The Anatomy paper (Xiao & Tao, VLDB 2006) operates on *microdata*: a
//! relation with `d` quasi-identifier (QI) attributes and one categorical
//! sensitive attribute, all of them discrete (Table 6 of the paper lists the
//! nine CENSUS attributes with their domain cardinalities). This crate
//! provides exactly the substrate such a system needs:
//!
//! * [`Attribute`] — a named discrete attribute with a finite ordered
//!   domain, optionally carrying human-readable value labels;
//! * [`Schema`] — an ordered list of attributes with name-based lookup;
//! * [`Table`] — a column-major table of `u32` value codes;
//! * [`Microdata`] — a table plus the designation of QI columns and the
//!   sensitive column, the unit every anonymization algorithm consumes;
//! * [`csv`] — plain-text serialization for tables (round-trip safe);
//! * [`codec`] — the byte-level decimal writer and block line scanner
//!   behind microdata CSV, release files and query workloads;
//! * [`sample`] — seeded random sampling, used by the cardinality sweeps of
//!   the paper's Figures 7 and 9;
//! * [`stats`] — frequency statistics (histograms, most-frequent-value
//!   counts) that the l-diversity machinery builds on.
//!
//! ## Value encoding
//!
//! Every attribute value is stored as a `u32` *code* in `0..domain_size`.
//! For numerical attributes the code order is the numeric order; for
//! categorical attributes we follow the paper's footnote 2 and assume a
//! total ordering on the domain (the label order). This uniform encoding
//! keeps tables compact (a 500k × 8 table is 16 MB) and makes interval and
//! taxonomy reasoning in the generalization baseline trivial.

pub mod attribute;
pub mod codec;
pub mod csv;
pub mod error;
pub mod microdata;
pub mod sample;
pub mod schema;
pub mod stats;
pub mod table;
pub mod tuple;
pub mod value;

pub use attribute::{Attribute, AttributeKind};
pub use error::TablesError;
pub use microdata::Microdata;
pub use schema::Schema;
pub use table::{Table, TableBuilder};
pub use tuple::TupleRef;
pub use value::Value;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, TablesError>;
