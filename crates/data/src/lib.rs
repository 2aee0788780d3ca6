//! # anatomy-data
//!
//! Datasets for the anatomy evaluation.
//!
//! * [`tiny`] — the paper's running example: the 8-patient microdata of
//!   Table 1, the 2-diverse partition behind Tables 2–3, and the voter
//!   registration list of Table 5;
//! * [`census`] — a synthetic stand-in for the paper's CENSUS extract
//!   (IPUMS, 500k American adults): the same nine attributes with the same
//!   domain cardinalities as Table 6, generated from a seeded
//!   latent-profile model with strong attribute correlation (the property
//!   the paper's comparison actually exercises — see DESIGN.md's
//!   substitution notes);
//! * [`taxonomies`] — the per-attribute generalization configuration of
//!   Table 6 (free intervals vs taxonomy trees of fixed height);
//! * [`occ_sal`] — the OCC-d and SAL-d microdata designations of
//!   Section 6.

#![forbid(unsafe_code)]

pub mod census;
pub mod occ_sal;
pub mod taxonomies;
pub mod tiny;

pub use census::{generate_census, CensusConfig};
pub use occ_sal::{occ_microdata, sal_microdata, SensitiveChoice};
pub use taxonomies::census_methods;
