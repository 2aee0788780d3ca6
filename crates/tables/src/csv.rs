//! Plain-text (CSV) serialization of tables.
//!
//! The format is deliberately simple — comma-separated decimal codes with a
//! header row of attribute names — because the data is always discrete
//! codes. The schema itself travels out of band (callers reconstruct it from
//! their dataset definition); [`read_table`] validates every code against
//! the supplied schema, so a mismatched schema is detected rather than
//! silently accepted.

use crate::error::TablesError;
use crate::schema::Schema;
use crate::table::{Table, TableBuilder};
use std::io::{BufRead, BufReader, Read, Write};

/// Write `table` as CSV: a header of attribute names followed by one line of
/// decimal codes per row.
pub fn write_table<W: Write>(table: &Table, out: W) -> Result<(), TablesError> {
    let mut w = std::io::BufWriter::new(out);
    writeln!(w, "{}", table.schema().names().join(","))?;
    let width = table.width();
    let mut line = String::new();
    for row in 0..table.len() {
        line.clear();
        for col in 0..width {
            if col > 0 {
                line.push(',');
            }
            // u32 formatting into a reused String keeps this allocation-free
            // per row.
            use std::fmt::Write as _;
            write!(line, "{}", table.value(row, col).code()).expect("write to String");
        }
        writeln!(w, "{line}")?;
    }
    w.flush()?;
    Ok(())
}

/// Read a CSV produced by [`write_table`] back into a table with the given
/// schema. The header must match the schema's attribute names exactly.
pub fn read_table<R: Read>(schema: Schema, input: R) -> Result<Table, TablesError> {
    let mut reader = BufReader::new(input);
    let mut header = String::new();
    if reader.read_line(&mut header)? == 0 {
        return Err(TablesError::Csv {
            line: 1,
            message: "missing header".into(),
        });
    }
    let names: Vec<&str> = header.trim_end().split(',').collect();
    let expected = schema.names();
    if names != expected {
        return Err(TablesError::Csv {
            line: 1,
            message: format!("header {names:?} does not match schema {expected:?}"),
        });
    }

    let mut builder = TableBuilder::new(schema);
    let mut row = vec![0u32; names.len()];
    let mut parsed: Vec<u32> = Vec::with_capacity(names.len());
    let mut buf: Vec<u8> = Vec::new();
    let mut line_no = 1usize;
    loop {
        buf.clear();
        if reader.read_until(b'\n', &mut buf)? == 0 {
            break;
        }
        line_no += 1;
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        let codes: &[u32] = if scan_codes(line, &mut row) {
            &row
        } else {
            // Everything the scanner declines takes the `str` path, which
            // owns every error message.
            let text = std::str::from_utf8(&buf).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )
            })?;
            let trimmed = text.trim_end();
            if trimmed.is_empty() {
                continue; // tolerate a trailing newline
            }
            parsed.clear();
            for field in trimmed.split(',') {
                let code: u32 = field.trim().parse().map_err(|_| TablesError::Csv {
                    line: line_no,
                    message: format!("`{field}` is not a u32 code"),
                })?;
                parsed.push(code);
            }
            &parsed
        };
        builder.push_row(codes).map_err(|e| TablesError::Csv {
            line: line_no,
            message: e.to_string(),
        })?;
    }
    Ok(builder.finish())
}

/// Scan one line of comma-separated decimal codes into `out`, byte by
/// byte, or decline.
///
/// Accepts exactly `out.len()` fields, each matching
/// `[ \t]*+?[0-9]+[ \t\r]*` with a value that fits a `u32`; `line` carries
/// no `\n`. On every line it accepts, field `k` is the code
/// `field.trim().parse::<u32>()` gives, which is how the `str` parsers of
/// this crate and of release files read a field. It returns `false` for
/// anything else: blank lines, other whitespace, non-ASCII bytes, a sign
/// other than a leading `+`, an overlong number, a different field count.
/// Callers send declined lines to their `str` path unchanged, so the
/// accepted input, every error message and every line number stay what
/// that path makes them. `out` is unspecified after a decline.
pub fn scan_codes(line: &[u8], out: &mut [u32]) -> bool {
    if out.is_empty() {
        return false;
    }
    let mut i = 0;
    for (k, slot) in out.iter_mut().enumerate() {
        if k > 0 {
            if line.get(i) != Some(&b',') {
                return false;
            }
            i += 1;
        }
        while matches!(line.get(i), Some(b' ' | b'\t')) {
            i += 1;
        }
        if line.get(i) == Some(&b'+') {
            i += 1;
        }
        let start = i;
        let mut v = 0u64;
        while let Some(&b @ b'0'..=b'9') = line.get(i) {
            v = v * 10 + u64::from(b - b'0');
            if v > u64::from(u32::MAX) {
                return false;
            }
            i += 1;
        }
        if i == start {
            return false;
        }
        while matches!(line.get(i), Some(b' ' | b'\t' | b'\r')) {
            i += 1;
        }
        *slot = v as u32;
    }
    i == line.len()
}

/// Serialize to an in-memory string (useful in tests and examples).
pub fn to_string(table: &Table) -> String {
    let mut buf = Vec::new();
    write_table(table, &mut buf).expect("writing to Vec cannot fail");
    String::from_utf8(buf).expect("CSV output is ASCII")
}

/// Parse from an in-memory string.
pub fn from_str(schema: Schema, s: &str) -> Result<Table, TablesError> {
    read_table(schema, s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::numerical("Age", 100),
            Attribute::categorical("Gender", 2),
        ])
        .unwrap()
    }

    fn sample() -> Table {
        let mut b = TableBuilder::new(schema());
        b.push_row(&[23, 0]).unwrap();
        b.push_row(&[61, 1]).unwrap();
        b.finish()
    }

    #[test]
    fn round_trip() {
        let t = sample();
        let s = to_string(&t);
        let back = from_str(schema(), &s).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn header_mismatch_detected() {
        let s = "Age,Sex\n23,0\n";
        let err = from_str(schema(), s).unwrap_err();
        assert!(matches!(err, TablesError::Csv { line: 1, .. }));
    }

    #[test]
    fn bad_code_reported_with_line() {
        let s = "Age,Gender\n23,0\nx,1\n";
        let err = from_str(schema(), s).unwrap_err();
        assert!(matches!(err, TablesError::Csv { line: 3, .. }));
    }

    #[test]
    fn out_of_domain_reported_with_line() {
        let s = "Age,Gender\n23,5\n";
        let err = from_str(schema(), s).unwrap_err();
        match err {
            TablesError::Csv { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("Gender"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_body_gives_empty_table() {
        let t = from_str(schema(), "Age,Gender\n").unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(from_str(schema(), "").is_err());
    }

    #[test]
    fn tolerates_blank_trailing_lines() {
        let t = from_str(schema(), "Age,Gender\n23,0\n\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn scanner_accepts_plain_codes_and_declines_the_rest() {
        let mut out = [0u32; 2];
        assert!(scan_codes(b"23,0", &mut out));
        assert_eq!(out, [23, 0]);
        assert!(scan_codes(b" \t+007 ,\t4294967295 \r", &mut out));
        assert_eq!(out, [7, u32::MAX]);
        for line in [
            &b""[..],
            b"23",
            b"23,0,1",
            b"23,",
            b"23,4294967296",
            b"23,-0",
            b"23,+",
            b"23,0x1",
            b"\r23,0",
            b"23 1,0",
            "23,0\u{a0}".as_bytes(),
        ] {
            assert!(
                !scan_codes(line, &mut out),
                "{:?}",
                String::from_utf8_lossy(line)
            );
        }
    }

    #[test]
    fn declined_lines_keep_the_str_paths_answers() {
        // Unicode whitespace the scanner declines is still trimmed...
        let t = from_str(schema(), "Age,Gender\n23,0\u{a0}\n\u{2003}61 ,1\n").unwrap();
        assert_eq!(t, sample());
        // ...and invalid UTF-8 is still an I/O error, as `read_line` made it.
        let err = read_table(schema(), &b"Age,Gender\n23,\xff\n"[..]).unwrap_err();
        assert!(
            matches!(err, TablesError::Io(ref m) if m.contains("UTF-8")),
            "{err:?}"
        );
    }

    mod properties {
        use super::*;
        use crate::attribute::Attribute;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            /// CSV round-trips arbitrary tables bit-for-bit.
            #[test]
            fn round_trip_arbitrary_tables(
                rows in proptest::collection::vec((0u32..100, 0u32..7, 0u32..50), 0..60),
            ) {
                let schema = Schema::new(vec![
                    Attribute::numerical("A", 100),
                    Attribute::categorical("B", 7),
                    Attribute::numerical("C", 50),
                ]).unwrap();
                let mut b = TableBuilder::new(schema.clone());
                for &(x, y, z) in &rows {
                    b.push_row(&[x, y, z]).unwrap();
                }
                let t = b.finish();
                let text = to_string(&t);
                let back = from_str(schema, &text).unwrap();
                prop_assert_eq!(t, back);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]
            /// On lines drawn from digits, commas, ASCII and Unicode
            /// whitespace, signs, letters and overlong numbers, the scanner
            /// either declines or returns exactly the codes of the `str`
            /// path (`trim_end`, split on `,`, `trim` and `parse` each field).
            #[test]
            fn scanner_agrees_with_the_str_path(
                fields in proptest::collection::vec(
                    (0..LEAD.len(), 0..SIGN.len(), 0..NUMBER.len(), 0..TRAIL.len()),
                    0..4,
                ),
                width_shift in 0usize..4,
            ) {
                let line = fields
                    .iter()
                    .map(|&(a, b, c, d)| [LEAD[a], SIGN[b], NUMBER[c], TRAIL[d]].concat())
                    .collect::<Vec<_>>()
                    .join(",");
                // Mostly the line's own field count, sometimes one off.
                let width = match width_shift {
                    2 => fields.len() + 1,
                    3 => fields.len().saturating_sub(1),
                    _ => fields.len(),
                }
                .max(1);
                let by_str: Option<Vec<u32>> = line
                    .trim_end()
                    .split(',')
                    .map(|f| f.trim().parse().ok())
                    .collect::<Option<Vec<u32>>>()
                    .filter(|codes| codes.len() == width);
                let mut out = vec![0u32; width];
                if scan_codes(line.as_bytes(), &mut out) {
                    prop_assert_eq!(Some(out), by_str, "line {:?}", line);
                }
            }
        }
    }

    // Field parts for the scanner property, weighted towards well-formed
    // fields so that many lines are accepted.
    const LEAD: &[&str] = &["", "", "", " ", "\t", " \t ", "\u{a0}", "\r", "a"];
    const SIGN: &[&str] = &["", "", "", "", "+", "-", "++"];
    const NUMBER: &[&str] = &[
        "0",
        "7",
        "42",
        "123",
        "4294967295",
        "0000000000042",
        "4294967296",
        "99999999999",
        "",
        "1a",
        "Z",
    ];
    const TRAIL: &[&str] = &["", "", "", " ", "\t", "\r", " \r\t", "\u{a0}", "-", ","];
}
