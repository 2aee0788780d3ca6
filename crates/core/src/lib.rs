//! # anatomy-core
//!
//! The Anatomy technique of Xiao & Tao (VLDB 2006).
//!
//! Anatomy publishes a microdata relation as two tables — a
//! quasi-identifier table (QIT) holding every tuple's *exact* QI values plus
//! a group id, and a sensitive table (ST) holding each group's histogram of
//! sensitive values (Definition 3). Privacy rests on the underlying
//! partition being *l-diverse* (Definition 2): an adversary who knows a
//! target's QI values and presence in the data can pin down the sensitive
//! value with probability at most `1/l`, both per tuple (Corollary 1) and
//! per individual (Theorem 1).
//!
//! Module tour, in paper order:
//!
//! * [`diversity`] — Definition 2, the eligibility condition, and the
//!   alternative instantiations of l-diversity discussed via the paper's
//!   ref \[10\] (entropy and recursive (c,l)-diversity);
//! * [`partition`] — partitions into QI-groups (Definition 1) with
//!   validation;
//! * [`mod@anatomize`] — the linear-time `Anatomize` algorithm (Figure 3,
//!   Properties 1–3);
//! * [`anatomize_io`] — the external, I/O-accounted variant whose cost is
//!   the `O(n/b)` of Theorem 3 and the "anatomy" series of Figures 8–9;
//! * [`anatomize_shard`] — the sharded out-of-core pipeline behind
//!   `Engine::Sharded`, targeting 10M–100M tuples: only bucket counts and
//!   one group id per tuple go through its paged passes; group formation
//!   holds O(λ) pages, and the shuffle replay two arrays as long as the
//!   largest bucket outside the page budget;
//! * [`published`] — the QIT/ST pair (Definition 3);
//! * [`adversary`] — the QIT⋈ST reconstruction (Lemma 1) and breach
//!   probabilities (Corollary 1, Theorem 1);
//! * [`pdf`] — reconstructed per-tuple pdfs and their L2 error (Section 4,
//!   Equations 9–12);
//! * [`rce`] — the re-construction error, its lower bound `n(1 − 1/l)`
//!   (Theorem 2) and the `1 + 1/n` optimality guarantee of `Anatomize`
//!   (Theorem 4);
//! * [`multi_sensitive`] — the multi-sensitive-attribute extension flagged
//!   as future work in the paper's Section 7;
//! * [`kanonymity`] — k-anonymity checks and the homogeneity-attack
//!   measurement behind the paper's Section 2 comparison;
//! * [`release`] — CSV serialization of a QIT/ST release plus the
//!   consumer-side audit that re-validates Definition 2;
//! * [`incremental`] — append-only online anatomization (beyond the paper;
//!   see the module docs for the exact guarantee).

#![forbid(unsafe_code)]

pub mod adversary;
pub mod anatomize;
pub mod anatomize_io;
pub mod anatomize_shard;
pub mod diversity;
pub mod error;
pub mod incremental;
pub mod kanonymity;
pub mod multi_sensitive;
pub mod partition;
pub mod pdf;
pub mod published;
pub mod rce;
pub mod release;

pub use anatomize::{anatomize, anatomize_reference, AnatomizeConfig, BucketStrategy};
pub use anatomize_io::{anatomize_external, tables_from_files, ExternalAnatomizeOutput};
pub use anatomize_shard::{
    anatomize_sharded, model_pages, ShardConfig, ShardedAnatomizeOutput, DOUBLE_BUFFER_SLACK,
};
pub use diversity::{
    check_eligibility, group_is_l_diverse, max_feasible_l, suppress_to_eligibility,
    DiversityCriterion,
};
pub use error::CoreError;
pub use partition::{GroupId, Partition};
pub use published::{AnatomizedTables, StRecord};
pub use rce::{rce_lower_bound, rce_of_anatomized, rce_of_partition};
pub use release::{parse_release, parse_release_parts, qit_to_csv, st_to_csv};

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
