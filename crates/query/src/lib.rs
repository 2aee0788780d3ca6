//! # anatomy-query
//!
//! The aggregate-query model of the Anatomy paper's evaluation
//! (Section 6.1):
//!
//! ```sql
//! SELECT COUNT(*) FROM Unknown-Microdata
//! WHERE pred(A1) AND ... AND pred(A_qd) AND pred(As)
//! ```
//!
//! where each `pred(A)` is a disjunction of `b` random values of the
//! attribute's domain and `b = ⌈|A| · s^{1/(qd+1)}⌉` is driven by the
//! expected selectivity `s` (Equation 14).
//!
//! Modules:
//!
//! * [`predicate`] / [`query`] — IN-list predicates and COUNT queries;
//! * [`workload`] — the random workload generator of Table 7's parameter
//!   grid;
//! * [`exact`] — ground truth by scanning the microdata;
//! * [`estimate_anatomy`] — the estimator of Section 1.2: exact per-group
//!   QI fractions from the QIT × per-group sensitive mass from the ST;
//! * [`estimate_generalization`] — the estimator of Section 1.1: uniform
//!   spread of each group over its rectangle (multidimensional-histogram
//!   style);
//! * [`accuracy`] — relative-error aggregation (the paper's "average
//!   relative error");
//! * [`bitmap`] / [`index`] — the bitmap query index: build-once
//!   per-(column, value) bitmaps plus a group-clustered row permutation,
//!   giving scan-free [`evaluate_exact_indexed`] / [`estimate_anatomy_indexed`]
//!   that reproduce the scalar paths bit-for-bit. The scalar evaluators stay
//!   as the differential-testing oracle;
//! * [`container`] / [`index_v2`] — the compressed successor: per-chunk
//!   density-adaptive containers (sorted array / packed bitmap /
//!   run-length) and a vectorized batch evaluator that clusters a whole
//!   workload by shared QI predicate prefixes, materializing each shared
//!   intersection once. Same bit-for-bit contract; v1 and the scalar
//!   paths remain the oracles;
//! * [`batch`] — whole-workload evaluation on the persistent worker pool
//!   (`anatomy_pool`), the entry points the experiment harness and CLI
//!   batch paths share.

pub mod accuracy;
pub mod batch;
pub mod bitmap;
pub mod container;
pub mod error;
pub mod estimate_anatomy;
pub mod estimate_generalization;
pub mod exact;
pub mod index;
pub mod index_v2;
pub mod predicate;
pub mod query;
pub mod workload;

pub use accuracy::{relative_error, AccuracyReport};
pub use batch::{estimate_anatomy_batch, evaluate_exact_batch};
pub use bitmap::Bitmap;
pub use container::{Container, ContainerKind, ContainerMix};
pub use error::QueryError;
pub use estimate_anatomy::{estimate_anatomy, estimate_anatomy_per_value};
pub use estimate_generalization::estimate_generalization;
pub use exact::evaluate_exact;
pub use index::{estimate_anatomy_indexed, evaluate_exact_indexed, QueryIndex};
pub use index_v2::{
    estimate_anatomy_batch_v2, estimate_anatomy_indexed_v2, evaluate_exact_batch_v2,
    evaluate_exact_indexed_v2, QueryIndexV2,
};
pub use predicate::InPredicate;
pub use query::CountQuery;
pub use workload::{predicate_width, workload_from_text, workload_to_text, WorkloadSpec};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, QueryError>;
