//! Error type shared by all table operations.

use std::fmt;

/// Errors produced by schema, table, and CSV operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TablesError {
    /// A value code was outside the attribute's domain.
    ValueOutOfDomain {
        /// Attribute name.
        attribute: String,
        /// Offending code.
        code: u32,
        /// Domain cardinality of the attribute.
        domain_size: u32,
    },
    /// A row had the wrong number of columns for the schema.
    ArityMismatch {
        /// Number of attributes in the schema.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// An attribute name was not found in the schema.
    UnknownAttribute(String),
    /// Two attributes in one schema share a name.
    DuplicateAttribute(String),
    /// An attribute name that a CSV header line cannot carry, so the
    /// workspace's own readers would refuse the files its writers make.
    BadAttributeName {
        /// The name as given.
        name: String,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// A column index was out of range.
    ColumnOutOfRange {
        /// Requested column index.
        index: usize,
        /// Number of columns.
        width: usize,
    },
    /// A row index was out of range.
    RowOutOfRange {
        /// Requested row index.
        index: usize,
        /// Number of rows.
        len: usize,
    },
    /// The microdata designation was inconsistent (e.g. sensitive column
    /// also listed as QI, or indices out of range).
    InvalidMicrodata(String),
    /// A CSV document could not be parsed.
    Csv {
        /// 1-based line number of the offending record.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An underlying I/O error (carried as a string so the error stays
    /// `Clone + PartialEq`).
    Io(String),
    /// A sample was requested that is larger than the population.
    SampleTooLarge {
        /// Requested sample size.
        requested: usize,
        /// Available rows.
        available: usize,
    },
}

impl fmt::Display for TablesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TablesError::ValueOutOfDomain { attribute, code, domain_size } => write!(
                f,
                "value code {code} is outside the domain of attribute `{attribute}` (size {domain_size})"
            ),
            TablesError::ArityMismatch { expected, got } => {
                write!(f, "row has {got} values but the schema has {expected} attributes")
            }
            TablesError::UnknownAttribute(name) => {
                write!(f, "attribute `{name}` not found in schema")
            }
            TablesError::DuplicateAttribute(name) => {
                write!(f, "attribute `{name}` appears more than once in schema")
            }
            TablesError::BadAttributeName { name, reason } => {
                write!(f, "attribute name {name:?} {reason}, which a CSV header cannot carry")
            }
            TablesError::ColumnOutOfRange { index, width } => {
                write!(f, "column index {index} out of range for width {width}")
            }
            TablesError::RowOutOfRange { index, len } => {
                write!(f, "row index {index} out of range for {len} rows")
            }
            TablesError::InvalidMicrodata(msg) => write!(f, "invalid microdata: {msg}"),
            TablesError::Csv { line, message } => write!(f, "CSV parse error at line {line}: {message}"),
            TablesError::Io(msg) => write!(f, "I/O error: {msg}"),
            TablesError::SampleTooLarge { requested, available } => write!(
                f,
                "sample of {requested} rows requested from a table with only {available} rows"
            ),
        }
    }
}

impl std::error::Error for TablesError {}

impl From<std::io::Error> for TablesError {
    fn from(e: std::io::Error) -> Self {
        TablesError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_key_fields() {
        let e = TablesError::ValueOutOfDomain {
            attribute: "Age".into(),
            code: 99,
            domain_size: 78,
        };
        let s = e.to_string();
        assert!(s.contains("Age") && s.contains("99") && s.contains("78"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: TablesError = io.into();
        assert!(matches!(e, TablesError::Io(_)));
        assert!(e.to_string().contains("gone"));
    }

    #[test]
    fn errors_are_comparable() {
        let a = TablesError::UnknownAttribute("X".into());
        let b = TablesError::UnknownAttribute("X".into());
        assert_eq!(a, b);
    }
}
