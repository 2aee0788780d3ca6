//! The schema-file format: one attribute per line,
//! `name:kind:domain_size`, `#` comments and blank lines ignored.

use crate::CliResult;
use anatomy::Error;
use anatomy_tables::{Attribute, AttributeKind, Schema};

/// Parse a schema document.
///
/// ```
/// let text = "# patients\nAge:numerical:100\nSex:categorical:2\n";
/// let schema = anatomy_cli::schema_file::parse(text).unwrap();
/// assert_eq!(schema.width(), 2);
/// assert_eq!(schema.attribute(0).unwrap().name(), "Age");
/// ```
pub fn parse(text: &str) -> CliResult<Schema> {
    let mut attrs = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = line.split(':').map(str::trim).collect();
        if parts.len() != 3 {
            return Err(Error::msg(format!(
                "schema line {line_no}: expected `name:kind:domain_size`, got `{line}`"
            )));
        }
        let kind = match parts[1] {
            "numerical" | "num" => AttributeKind::Numerical,
            "categorical" | "cat" => AttributeKind::Categorical,
            other => {
                return Err(Error::msg(format!(
                    "schema line {line_no}: kind `{other}` is neither numerical nor categorical"
                )))
            }
        };
        let domain: u32 = parts[2].parse().map_err(|_| {
            Error::msg(format!(
                "schema line {line_no}: bad domain size `{}`",
                parts[2]
            ))
        })?;
        if domain == 0 {
            return Err(Error::msg(format!(
                "schema line {line_no}: domain size must be positive"
            )));
        }
        Schema::check_name(parts[0])
            .map_err(|e| Error::msg(format!("schema line {line_no}: {e}")))?;
        attrs.push(Attribute::new(parts[0], kind, domain));
    }
    if attrs.is_empty() {
        return Err("schema file declares no attributes".into());
    }
    Ok(Schema::new(attrs)?)
}

/// Render a schema back into the file format (for `anatomy stats --emit-schema`).
pub fn render(schema: &Schema) -> String {
    let mut out = String::new();
    for a in schema.attributes() {
        let kind = match a.kind() {
            AttributeKind::Numerical => "numerical",
            AttributeKind::Categorical => "categorical",
        };
        out.push_str(&format!("{}:{}:{}\n", a.name(), kind, a.domain_size()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_and_kinds() {
        let text = "# header\n\nAge:numerical:100\nSex : cat : 2\nZip:num:61\n";
        let s = parse(text).unwrap();
        assert_eq!(s.width(), 3);
        assert_eq!(s.attribute(1).unwrap().kind(), AttributeKind::Categorical);
        assert_eq!(s.attribute(2).unwrap().domain_size(), 61);
    }

    #[test]
    fn round_trips_through_render() {
        let text = "Age:numerical:100\nSex:categorical:2\n";
        let s = parse(text).unwrap();
        let back = parse(&render(&s)).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse("Age:numerical\n").is_err());
        assert!(parse("Age:weird:5\n").is_err());
        assert!(parse("Age:numerical:x\n").is_err());
        assert!(parse("Age:numerical:0\n").is_err());
        assert!(parse("\n# only comments\n").is_err());
        assert!(parse("A:num:3\nA:num:4\n").is_err()); // duplicate name
    }

    #[test]
    fn names_a_csv_header_cannot_carry_name_their_line() {
        let err = parse("# header\nAge:num:100\nAge,years:num:5\n").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("schema line 3"), "{text}");
        assert!(text.contains("\"Age,years\""), "{text}");
    }
}
