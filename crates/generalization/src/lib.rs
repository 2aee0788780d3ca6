//! # anatomy-generalization
//!
//! The generalization baseline the Anatomy paper compares against.
//!
//! Generalization (Definition 4) partitions the microdata into QI-groups
//! and coarsens every tuple's QI values to group-wide intervals. The paper
//! evaluates against "the state-of-the-art algorithm in \[9\], which adopts
//! multi-dimension recoding" — Mondrian (LeFevre et al., ICDE 2006) —
//! adapted to the l-diversity requirement, with per-attribute generalization
//! methods from Table 6: *free intervals* for Age and Education, and
//! *taxonomy trees* of fixed height for the other QI attributes.
//!
//! Modules:
//!
//! * [`taxonomy`] — balanced taxonomy trees over discrete domains
//!   ("Taxonomy tree (x)" in Table 6);
//! * [`generalized_table`] — the published generalized table (Definition 4)
//!   in per-group compressed form, plus its reconstruction-error and volume
//!   arithmetic;
//! * [`mod@mondrian`] — in-memory multidimensional recoding with l-diversity
//!   admissible splits (used by the accuracy experiments, Figures 4–7);
//! * [`mondrian_io`] — the external, I/O-accounted variant (the
//!   "generalization" series of Figures 8–9);
//! * [`metrics`] — information-loss metrics: discernibility, normalized
//!   certainty penalty, KL-divergence (the alternative metrics the paper's
//!   Section 7 points to).

#![forbid(unsafe_code)]

pub mod error;
pub mod generalized_table;
pub mod global_recode;
pub mod metrics;
pub mod mondrian;
pub mod mondrian_io;
pub mod release;
pub mod taxonomy;

pub use error::GenError;
pub use generalized_table::{GenGroup, GeneralizedTable};
pub use global_recode::{global_recode, RecodingLevels};
pub use mondrian::{mondrian, mondrian_k_anonymous, GenMethod, MondrianConfig};
pub use mondrian_io::mondrian_external;
pub use release::{generalized_to_csv, parse_generalized};
pub use taxonomy::{TaxNode, Taxonomy};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, GenError>;
