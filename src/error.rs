//! The workspace-wide error type and a cause-chain renderer.
//!
//! Every member crate keeps its own error enum (so the crates stay
//! independently usable), but code that spans layers — the CLI, the
//! [`crate::publish::Publish`] front door, integration tests — wants a
//! single type to `?` into. [`Error`] wraps each member error with a
//! `From` impl and preserves it as a [`std::error::Error::source`], and
//! [`render_chain`] turns any error into the multi-line
//! `caused by:`-style report the `anatomy` binary prints.

use std::error::Error as StdError;
use std::fmt;

/// Any error the workspace can produce, by originating layer.
///
/// Wrapper variants add no text of their own beyond the layer name; the
/// wrapped error's `Display` carries the detail and stays reachable via
/// [`source`](std::error::Error::source). [`Context`](Error::Context)
/// lets callers prepend a "while doing X" frame without losing the
/// cause.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// From the columnar relation substrate (`anatomy-tables`).
    Tables(anatomy_tables::TablesError),
    /// From simulated paged storage (`anatomy-storage`).
    Storage(anatomy_storage::StorageError),
    /// From the Anatomy technique itself (`anatomy-core`).
    Core(anatomy_core::CoreError),
    /// From the generalization baselines (`anatomy-generalization`).
    Generalization(anatomy_generalization::GenError),
    /// From query evaluation (`anatomy-query`).
    Query(anatomy_query::QueryError),
    /// A release failed its integrity audit (`anatomy-audit`).
    Audit(anatomy_audit::AuditFailure),
    /// A caller-supplied frame wrapping a deeper cause (or standing
    /// alone, e.g. for usage errors that originate at the top).
    Context {
        /// What was being attempted.
        message: String,
        /// The underlying failure, if any.
        source: Option<Box<Error>>,
    },
}

impl Error {
    /// A standalone message with no deeper cause.
    pub fn msg(message: impl Into<String>) -> Self {
        Error::Context {
            message: message.into(),
            source: None,
        }
    }

    /// Wrap `self` in a "while doing X" frame.
    pub fn context(self, message: impl Into<String>) -> Self {
        Error::Context {
            message: message.into(),
            source: Some(Box::new(self)),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Tables(e) => write!(f, "tables error: {e}"),
            Error::Storage(e) => write!(f, "storage error: {e}"),
            Error::Core(e) => write!(f, "core error: {e}"),
            Error::Generalization(e) => write!(f, "generalization error: {e}"),
            Error::Query(e) => write!(f, "query error: {e}"),
            Error::Audit(e) => write!(f, "audit error: {e}"),
            Error::Context { message, .. } => write!(f, "{message}"),
        }
    }
}

impl StdError for Error {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Error::Tables(e) => Some(e),
            Error::Storage(e) => Some(e),
            Error::Core(e) => Some(e),
            Error::Generalization(e) => Some(e),
            Error::Query(e) => Some(e),
            Error::Audit(e) => Some(e),
            Error::Context { source, .. } => {
                source.as_deref().map(|e| e as &(dyn StdError + 'static))
            }
        }
    }
}

impl From<anatomy_tables::TablesError> for Error {
    fn from(e: anatomy_tables::TablesError) -> Self {
        Error::Tables(e)
    }
}

impl From<anatomy_storage::StorageError> for Error {
    fn from(e: anatomy_storage::StorageError) -> Self {
        Error::Storage(e)
    }
}

impl From<anatomy_core::CoreError> for Error {
    fn from(e: anatomy_core::CoreError) -> Self {
        Error::Core(e)
    }
}

impl From<anatomy_generalization::GenError> for Error {
    fn from(e: anatomy_generalization::GenError) -> Self {
        Error::Generalization(e)
    }
}

impl From<anatomy_query::QueryError> for Error {
    fn from(e: anatomy_query::QueryError) -> Self {
        Error::Query(e)
    }
}

impl From<anatomy_audit::AuditFailure> for Error {
    fn from(e: anatomy_audit::AuditFailure) -> Self {
        Error::Audit(e)
    }
}

impl From<String> for Error {
    fn from(message: String) -> Self {
        Error::msg(message)
    }
}

impl From<&str> for Error {
    fn from(message: &str) -> Self {
        Error::msg(message)
    }
}

/// Render `err` and its source chain as a multi-line report.
///
/// The first line is `err`'s own `Display`; each deeper cause appears on
/// its own `  caused by:` line — except causes whose full text the
/// parent already embeds (the workspace's wrapper variants interpolate
/// their source into their own message), which are skipped so nothing
/// prints twice. The walk continues through skipped frames, so a
/// non-embedded cause further down still appears.
pub fn render_chain(err: &(dyn StdError + 'static)) -> String {
    let mut out = err.to_string();
    let mut parent = out.clone();
    let mut cur = err.source();
    while let Some(src) = cur {
        let text = src.to_string();
        if !parent.contains(&text) {
            out.push_str("\n  caused by: ");
            out.push_str(&text);
        }
        parent = text;
        cur = src.source();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrappers_expose_sources() {
        let e: Error = anatomy_core::CoreError::InvalidL(1).into();
        assert!(e.source().is_some());
        assert!(e.to_string().starts_with("core error: "));
        let truncated = anatomy_storage::StorageError::Truncated {
            page: 0,
            expected: 8,
            found: 3,
        };
        let e: Error = truncated.into();
        assert!(e.source().is_some());
        let e = Error::msg("bad flag");
        assert!(e.source().is_none());
        assert_eq!(e.to_string(), "bad flag");
    }

    #[test]
    fn context_frames_chain() {
        let e = Error::from(anatomy_core::CoreError::InvalidL(1)).context("publishing demo.csv");
        assert_eq!(e.to_string(), "publishing demo.csv");
        let chain = render_chain(&e);
        assert!(chain.contains("publishing demo.csv"));
        assert!(chain.contains("caused by: core error:"));
    }

    #[test]
    fn embedded_causes_are_not_repeated() {
        // Error::Core's Display already interpolates the CoreError text,
        // so the chain must not print it a second line.
        let e: Error = anatomy_core::CoreError::InvalidL(1).into();
        let chain = render_chain(&e);
        assert_eq!(chain.lines().count(), 1, "chain was:\n{chain}");

        // But a Context frame does not embed its cause, so the cause gets
        // its own line — and the cause's own embedded source is again
        // elided.
        let e = e.context("running figure 4");
        let chain = render_chain(&e);
        assert_eq!(chain.lines().count(), 2, "chain was:\n{chain}");
    }
}
