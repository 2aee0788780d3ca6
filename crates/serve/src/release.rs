//! A release loaded into the server, with its query index built once.

use anatomy_audit::{audit_release, AuditReport};
use anatomy_core::AnatomizedTables;
use anatomy_query::{QueryError, QueryIndexV2};
use anatomy_tables::Microdata;

/// One published release the server answers queries against. The
/// compressed [`QueryIndexV2`] is built at load time and cached for the
/// server's lifetime — the whole point of serving residently — and its
/// batch evaluator answers each incoming batch in one clustered pass.
pub struct ServedRelease {
    name: String,
    tables: AnatomizedTables,
    index: QueryIndexV2,
    /// Carries the attribute domains query parsing validates against.
    /// For [`ServedRelease::exact`] this is the real microdata; for
    /// [`ServedRelease::estimate_only`] an empty table with the schema.
    parse_md: Microdata,
    exact: bool,
}

impl ServedRelease {
    /// A microdata-backed release: serves both `exact` and `estimate`
    /// batches. Fails if `md` and `tables` disagree on length or arity.
    pub fn exact(
        name: impl Into<String>,
        md: Microdata,
        tables: AnatomizedTables,
    ) -> Result<ServedRelease, QueryError> {
        let index = QueryIndexV2::build(&md, &tables)?;
        Ok(ServedRelease {
            name: name.into(),
            tables,
            index,
            parse_md: md,
            exact: true,
        })
    }

    /// A release loaded from its published QIT/ST pair alone: serves
    /// `estimate` batches only (the microdata needed for exact answers
    /// is exactly what an anatomized release withholds). `domains` is a
    /// possibly-empty [`Microdata`] carrying the schema the release was
    /// published under, used to validate incoming query text.
    pub fn estimate_only(
        name: impl Into<String>,
        domains: Microdata,
        tables: AnatomizedTables,
    ) -> ServedRelease {
        let index = QueryIndexV2::from_published(&tables);
        ServedRelease {
            name: name.into(),
            tables,
            index,
            parse_md: domains,
            exact: false,
        }
    }

    /// The name clients address batches to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The published pair.
    pub fn tables(&self) -> &AnatomizedTables {
        &self.tables
    }

    /// The cached index.
    pub fn index(&self) -> &QueryIndexV2 {
        &self.index
    }

    /// The microdata whose domains incoming queries are parsed against.
    pub fn parse_md(&self) -> &Microdata {
        &self.parse_md
    }

    /// Whether `exact` batches are available.
    pub fn serves_exact(&self) -> bool {
        self.exact
    }

    /// Run every invariant the `anatomy-audit` registry lists for the
    /// `anatomize` stage over the loaded release. Serving a release that
    /// fails any of these would answer queries from a corrupt or
    /// non-diverse publication, so callers should refuse to bind on a
    /// failed report.
    pub fn audit(&self) -> AuditReport {
        audit_release(&self.tables, self.tables.l())
    }
}
