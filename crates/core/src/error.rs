//! Error type for the anatomy core.

use std::fmt;

/// Errors produced by the anatomy core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// `l` must be at least 2 for any privacy to be provided (an
    /// 1-diverse partition is vacuous).
    InvalidL(usize),
    /// The microdata violates the eligibility condition of the paper's
    /// ref \[10\] (proof of Property 1): some sensitive value occurs more
    /// than `n/l` times, so *no* l-diverse partition exists.
    NotEligible {
        /// Occurrences of the most frequent sensitive value.
        max_count: usize,
        /// Microdata cardinality.
        n: usize,
        /// Requested diversity parameter.
        l: usize,
    },
    /// The sensitive attribute's domain has fewer than `l` distinct
    /// values, so no group can ever contain `l` distinct ones.
    DomainTooSmall {
        /// Distinct values the sensitive domain can hold.
        domain: u32,
        /// Requested diversity parameter.
        l: usize,
    },
    /// A partition failed validation (not a partition of `0..n`, or not
    /// l-diverse).
    InvalidPartition(String),
    /// Residue assignment found no compatible QI-group. Cannot happen for
    /// eligible inputs (Property 2); reported rather than panicking so the
    /// invariant is checked in release builds too.
    ResidueUnassignable {
        /// The sensitive value of the stuck residue tuple.
        sensitive_code: u32,
    },
    /// The multi-sensitive extension could not build a group with pairwise
    /// distinct values in every sensitive attribute.
    MultiSensitiveInfeasible(String),
    /// A [`ShardConfig`](crate::ShardConfig) failed validation at
    /// construction time.
    InvalidShardConfig(String),
    /// The sharded pipeline's resident state (one page per sensitive
    /// value during group scheduling, the QIT join and the ST merge, plus
    /// two) exceeds the page budget the [`ShardConfig`](crate::ShardConfig)
    /// provides.
    ShardBudgetTooSmall {
        /// Pages the run would need resident at its widest phase.
        required: usize,
        /// Pages the configuration supplies.
        budget: usize,
    },
    /// An error from the tables substrate.
    Tables(anatomy_tables::TablesError),
    /// An error from the storage substrate.
    Storage(anatomy_storage::StorageError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidL(l) => write!(f, "l must be >= 2, got {l}"),
            CoreError::NotEligible { max_count, n, l } => write!(
                f,
                "not eligible for {l}-diversity: a sensitive value occurs {max_count} times \
                 but at most n/l = {n}/{l} occurrences are allowed"
            ),
            CoreError::DomainTooSmall { domain, l } => write!(
                f,
                "sensitive domain holds only {domain} distinct values; \
                 {l}-diverse groups need at least {l}"
            ),
            CoreError::InvalidPartition(msg) => write!(f, "invalid partition: {msg}"),
            CoreError::ResidueUnassignable { sensitive_code } => write!(
                f,
                "no QI-group can accept the residue tuple with sensitive code {sensitive_code} \
                 (violates Property 2 — input was not eligible)"
            ),
            CoreError::MultiSensitiveInfeasible(msg) => {
                write!(f, "multi-sensitive anatomization infeasible: {msg}")
            }
            CoreError::InvalidShardConfig(msg) => {
                write!(f, "invalid shard configuration: {msg}")
            }
            CoreError::ShardBudgetTooSmall { required, budget } => write!(
                f,
                "shard budget of {budget} pages is too small: the run needs {required} resident \
                 pages (one per sensitive value at the join and merge phases, plus two); \
                 raise pages_per_shard or the shard count"
            ),
            CoreError::Tables(e) => write!(f, "tables error: {e}"),
            CoreError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Tables(e) => Some(e),
            CoreError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<anatomy_tables::TablesError> for CoreError {
    fn from(e: anatomy_tables::TablesError) -> Self {
        CoreError::Tables(e)
    }
}

impl From<anatomy_storage::StorageError> for CoreError {
    fn from(e: anatomy_storage::StorageError) -> Self {
        CoreError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::NotEligible {
            max_count: 60,
            n: 100,
            l: 2,
        };
        let s = e.to_string();
        assert!(s.contains("60") && s.contains("100") && s.contains('2'));
    }

    #[test]
    fn domain_too_small_names_both_numbers() {
        let e = CoreError::DomainTooSmall { domain: 2, l: 3 };
        let s = e.to_string();
        assert!(s.contains("2 distinct") && s.contains('3'), "{s}");
        use std::error::Error as _;
        assert!(e.source().is_none());
    }

    #[test]
    fn source_chains_substrate_errors() {
        use std::error::Error as _;
        let e = CoreError::Tables(anatomy_tables::TablesError::UnknownAttribute("x".into()));
        assert!(e.source().is_some());
        assert!(CoreError::InvalidL(1).source().is_none());
    }
}
