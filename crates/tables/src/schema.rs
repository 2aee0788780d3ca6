//! Schemas: ordered attribute lists with name lookup.

use crate::attribute::Attribute;
use crate::error::TablesError;
use std::fmt;
use std::sync::Arc;

/// An ordered list of attributes.
///
/// Schemas are immutable once built and cheap to clone (the attribute list
/// is shared behind an `Arc`), so a [`crate::Table`] and every view derived
/// from it can carry the schema by value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    attributes: Arc<[Attribute]>,
}

impl Schema {
    /// Build a schema from attributes. Fails if two attributes share a name
    /// or a name fails [`Schema::check_name`].
    pub fn new(attributes: Vec<Attribute>) -> Result<Self, TablesError> {
        for (i, a) in attributes.iter().enumerate() {
            Self::check_name(a.name())?;
            if attributes[..i].iter().any(|b| b.name() == a.name()) {
                return Err(TablesError::DuplicateAttribute(a.name().to_string()));
            }
        }
        Ok(Schema {
            attributes: Arc::from(attributes),
        })
    }

    /// Check that `name` survives as a field of a CSV header line, which
    /// the CSV and release readers split on `,`, end at a line break and
    /// trim at its end: it may hold no `,`, `\n` or `\r` and may not end
    /// in whitespace.
    pub fn check_name(name: &str) -> Result<(), TablesError> {
        let reason = if name.contains(',') {
            "holds `,`"
        } else if name.contains(['\n', '\r']) {
            "holds a line break"
        } else if name.ends_with(char::is_whitespace) {
            "ends in whitespace"
        } else {
            return Ok(());
        };
        Err(TablesError::BadAttributeName {
            name: name.to_string(),
            reason,
        })
    }

    /// Number of attributes.
    #[inline]
    pub fn width(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the schema has no attributes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// Attribute at position `i`.
    pub fn attribute(&self, i: usize) -> Result<&Attribute, TablesError> {
        self.attributes.get(i).ok_or(TablesError::ColumnOutOfRange {
            index: i,
            width: self.width(),
        })
    }

    /// All attributes in order.
    #[inline]
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Position of the attribute named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize, TablesError> {
        self.attributes
            .iter()
            .position(|a| a.name() == name)
            .ok_or_else(|| TablesError::UnknownAttribute(name.to_string()))
    }

    /// Attribute names in order.
    pub fn names(&self) -> Vec<&str> {
        self.attributes.iter().map(|a| a.name()).collect()
    }

    /// A new schema containing the attributes at `indices`, in that order.
    ///
    /// Used to build the OCC-d / SAL-d projections of the paper's Section 6.
    pub fn project(&self, indices: &[usize]) -> Result<Schema, TablesError> {
        let mut attrs = Vec::with_capacity(indices.len());
        for &i in indices {
            attrs.push(self.attribute(i)?.clone());
        }
        Schema::new(attrs)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", a.name())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Schema {
        Schema::new(vec![
            Attribute::numerical("Age", 78),
            Attribute::categorical("Gender", 2),
            Attribute::numerical("Education", 17),
        ])
        .unwrap()
    }

    #[test]
    fn width_and_lookup() {
        let s = demo();
        assert_eq!(s.width(), 3);
        assert_eq!(s.index_of("Gender").unwrap(), 1);
        assert_eq!(s.attribute(0).unwrap().name(), "Age");
        assert!(matches!(
            s.index_of("Zip"),
            Err(TablesError::UnknownAttribute(_))
        ));
        assert!(s.attribute(3).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = Schema::new(vec![
            Attribute::numerical("Age", 78),
            Attribute::numerical("Age", 10),
        ])
        .unwrap_err();
        assert_eq!(err, TablesError::DuplicateAttribute("Age".into()));
    }

    #[test]
    fn names_a_csv_header_cannot_carry_are_rejected() {
        for (name, reason) in [
            ("Age,years", "holds `,`"),
            ("Age\nyears", "holds a line break"),
            ("Age\r", "holds a line break"),
            ("S ", "ends in whitespace"),
            ("S\u{a0}", "ends in whitespace"),
        ] {
            let err = Schema::new(vec![Attribute::numerical(name, 2)]).unwrap_err();
            assert_eq!(
                err,
                TablesError::BadAttributeName {
                    name: name.into(),
                    reason
                }
            );
            assert!(err.to_string().contains(&format!("{name:?}")), "{err}");
        }
        for name in ["", " Age", "Âge", "a b", "A|B;C=D", "\u{a0}x"] {
            assert!(Schema::check_name(name).is_ok(), "{name:?}");
        }
    }

    #[test]
    fn project_reorders_and_subsets() {
        let s = demo();
        let p = s.project(&[2, 0]).unwrap();
        assert_eq!(p.names(), vec!["Education", "Age"]);
        assert!(s.project(&[5]).is_err());
    }

    #[test]
    fn display_lists_names() {
        assert_eq!(demo().to_string(), "(Age, Gender, Education)");
    }

    #[test]
    fn empty_schema_is_legal_but_empty() {
        let s = Schema::new(vec![]).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.width(), 0);
    }
}
