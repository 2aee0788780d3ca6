//! Error type for the query layer.

use std::fmt;

/// Errors produced by query construction and workload generation.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A predicate referenced a value outside its attribute's domain.
    ValueOutOfDomain {
        /// Offending code.
        code: u32,
        /// Domain size.
        domain_size: u32,
    },
    /// A workload specification was inconsistent.
    BadSpec(String),
    /// A selectivity outside `(0, 1]` (including NaN) was passed to
    /// Equation 14.
    InvalidSelectivity {
        /// The offending selectivity.
        s: f64,
    },
    /// The generator could not find enough queries with non-zero true
    /// answers within its retry budget.
    WorkloadExhausted {
        /// Queries produced before giving up.
        produced: usize,
        /// Queries requested.
        requested: usize,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::ValueOutOfDomain { code, domain_size } => {
                write!(
                    f,
                    "predicate value {code} outside domain of size {domain_size}"
                )
            }
            QueryError::BadSpec(msg) => write!(f, "bad workload spec: {msg}"),
            QueryError::InvalidSelectivity { s } => {
                write!(f, "selectivity {s} outside (0, 1]")
            }
            QueryError::WorkloadExhausted {
                produced,
                requested,
            } => write!(
                f,
                "could only generate {produced} of {requested} non-empty queries"
            ),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = QueryError::WorkloadExhausted {
            produced: 3,
            requested: 10,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains("10"));
    }
}
