//! Plain-text (CSV) serialization of tables.
//!
//! The format is deliberately simple — comma-separated decimal codes with a
//! header row of attribute names — because the data is always discrete
//! codes. The schema itself travels out of band (callers reconstruct it from
//! their dataset definition); [`read_table`] validates every code against
//! the supplied schema, so a mismatched schema is detected rather than
//! silently accepted.

use crate::codec::{self, Blocks, Scan};
use crate::error::TablesError;
use crate::schema::Schema;
use crate::table::{Table, TableBuilder};
use std::io::{Read, Write};

/// Bytes of text gathered before each write to the output.
const CHUNK: usize = 1 << 16;

/// Write `table` as CSV: a header of attribute names followed by one line of
/// decimal codes per row.
pub fn write_table<W: Write>(table: &Table, mut out: W) -> Result<(), TablesError> {
    let width = table.width();
    let attributes = table.schema().attributes();
    let columns: Vec<&[u32]> = (0..width).map(|c| table.column(c)).collect();
    let texts: Vec<codec::CodeText> = attributes
        .iter()
        .enumerate()
        .map(|(c, a)| {
            let sep = if c + 1 == width { b'\n' } else { b',' };
            codec::CodeText::new(a.domain_size(), sep)
        })
        .collect();
    // A chunk's rows fit the writer at their worst case, so each chunk is
    // rendered as one block and written with one call.
    let chunk_rows = (CHUNK / (width * codec::FIELD_ROOM).max(1)).max(1);
    let header = table.schema().names().join(",") + "\n";
    let mut w = codec::Writer::with_capacity(header.len() + CHUNK);
    w.str(&header);
    let mut start = 0;
    loop {
        let end = (start + chunk_rows).min(table.len());
        if width == 0 {
            for _ in start..end {
                w.byte(b'\n'); // a row of no codes is still a line
            }
        }
        w.rows(&texts, start..end, |r, k| columns[k][r]);
        out.write_all(w.as_bytes())?;
        w.clear();
        if end == table.len() {
            break;
        }
        start = end;
    }
    out.flush()?;
    Ok(())
}

/// Read a CSV produced by [`write_table`] back into a table with the given
/// schema. The header must match the schema's attribute names exactly.
///
/// The input is read in large blocks and its rows are scanned in place
/// ([`codec::scan_row`]); every line the scanner declines goes to the
/// `str` path below, which owns every error message.
pub fn read_table<R: Read>(schema: Schema, input: R) -> Result<Table, TablesError> {
    let mut blocks = Blocks::new(input);
    let Some(header) = blocks.line()? else {
        return Err(TablesError::Csv {
            line: 1,
            message: "missing header".into(),
        });
    };
    let header = std::str::from_utf8(header).map_err(|_| not_utf8())?;
    let names: Vec<&str> = header.trim_end().split(',').collect();
    let expected = schema.names();
    if names != expected {
        return Err(TablesError::Csv {
            line: 1,
            message: format!("header {names:?} does not match schema {expected:?}"),
        });
    }

    let width = schema.width();
    let mut builder = TableBuilder::new(schema);
    let mut row = vec![0u32; width];
    let mut parsed: Vec<u32> = Vec::with_capacity(width);
    let mut line_no = 1usize;
    loop {
        let data = blocks.data();
        if data.is_empty() && blocks.at_end() {
            break;
        }
        let codes: &[u32] = match codec::scan_row(data, blocks.at_end(), &mut row) {
            Scan::Short => {
                blocks.fill()?;
                continue;
            }
            Scan::Row(len) => {
                blocks.consume(len);
                line_no += 1;
                &row
            }
            Scan::Declined => {
                let Some(line) = blocks.line()? else { break };
                line_no += 1;
                let text = std::str::from_utf8(line).map_err(|_| not_utf8())?;
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
            }
        };
        builder.push_row(codes).map_err(|e| TablesError::Csv {
            line: line_no,
            message: e.to_string(),
        })?;
    }
    Ok(builder.finish())
}

/// The error `BufRead::read_line` gives for a line that is not UTF-8.
fn not_utf8() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    )
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
    use rand::rngs::StdRng;
    use rand::RngExt;

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

    /// `read_table` as it was before the block scanner: one
    /// `read_until` per line and the `str` path on every line. The oracle
    /// of the reader tests below.
    fn read_table_by_str(schema: Schema, input: &[u8]) -> Result<Table, TablesError> {
        use std::io::BufRead;
        let mut reader = std::io::BufReader::new(input);
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
        let mut buf = Vec::new();
        let mut line_no = 1usize;
        loop {
            buf.clear();
            if reader.read_until(b'\n', &mut buf)? == 0 {
                break;
            }
            line_no += 1;
            let text = std::str::from_utf8(&buf).map_err(|_| not_utf8())?;
            let trimmed = text.trim_end();
            if trimmed.is_empty() {
                continue;
            }
            let mut parsed = Vec::new();
            for field in trimmed.split(',') {
                parsed.push(field.trim().parse().map_err(|_| TablesError::Csv {
                    line: line_no,
                    message: format!("`{field}` is not a u32 code"),
                })?);
            }
            builder.push_row(&parsed).map_err(|e| TablesError::Csv {
                line: line_no,
                message: e.to_string(),
            })?;
        }
        Ok(builder.finish())
    }

    /// A reader that hands out at most `step` bytes per read.
    struct Chunked<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Assert that the block reader and the `str` oracle agree on `input`,
    /// read whole and `step` bytes at a time: the same table, or the same
    /// error text, line number included.
    fn assert_reads_like_the_str_path(schema: &Schema, input: &[u8], step: usize) {
        let by_str = read_table_by_str(schema.clone(), input).map_err(|e| e.to_string());
        let whole = read_table(schema.clone(), input).map_err(|e| e.to_string());
        assert_eq!(whole, by_str, "input {:?}", String::from_utf8_lossy(input));
        let chunked =
            read_table(schema.clone(), Chunked { bytes: input, step }).map_err(|e| e.to_string());
        assert_eq!(chunked, by_str, "step {step}");
    }

    fn wide_schema() -> Schema {
        Schema::new(vec![
            Attribute::numerical("A", 10),
            Attribute::categorical("B", 100),
            Attribute::numerical("C", u32::MAX),
        ])
        .unwrap()
    }

    #[test]
    fn rows_straddling_block_edges_read_like_the_str_path() {
        let schema = wide_schema();
        let rows = "A,B,C\n1,22,333\r\n\n9, 99 ,4294967294\n+0,\t7,1\n0,0,4294967295\n";
        for step in 1..=rows.len() + 1 {
            assert_reads_like_the_str_path(&schema, rows.as_bytes(), step);
        }
        // A row that starts k bytes before the end of the first block, for
        // every k up to its length and past it.
        let target = "3,45,6789012\n";
        for k in 0..=target.len() + 1 {
            let pad = codec::BLOCK - k - "A,B,C\n".len() - "1,2,3\n".len();
            let text = format!("A,B,C\n{}1,2,3\n{target}7,8,9", " ".repeat(pad));
            assert_eq!(text.find(target), Some(codec::BLOCK - k));
            assert_reads_like_the_str_path(&schema, text.as_bytes(), codec::BLOCK);
            let t = read_table(schema.clone(), text.as_bytes()).unwrap();
            assert_eq!(t.len(), 3);
            assert_eq!(t.column(2), &[3, 6_789_012, 9]);
        }
    }

    #[test]
    fn lines_longer_than_a_block_read_like_the_str_path() {
        let schema = wide_schema();
        let long = " ".repeat(3 * codec::BLOCK);
        for text in [
            // A row the scanner takes, a row it declines, then a bad one.
            format!("A,B,C\n{long}1,2,3\n4,5,6\u{a0}{long}\n7,x{long},8\n"),
            format!("A,B,C\n{long}1,2,3"),
            format!("A,B,C{long}\n1,2,3\n"),
            format!("A,B,C\n{long}\n\n{long}"),
        ] {
            assert_reads_like_the_str_path(&schema, text.as_bytes(), codec::BLOCK / 3);
        }
    }

    #[test]
    fn rows_of_no_columns_are_empty_lines() {
        let mut b = TableBuilder::new(Schema::new(vec![]).unwrap());
        b.push_row(&[]).unwrap();
        b.push_row(&[]).unwrap();
        assert_eq!(to_string(&b.finish()), "\n\n\n");
    }

    #[test]
    fn a_file_without_a_trailing_newline_keeps_its_last_row() {
        let t = from_str(schema(), "Age,Gender\n23,0\n61,1").unwrap();
        assert_eq!(t, sample());
        let t = from_str(schema(), "Age,Gender\n23,0\n61,1\r").unwrap();
        assert_eq!(t, sample());
        assert_reads_like_the_str_path(&schema(), b"Age,Gender\n23,0\n61,7", 5);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use rand::SeedableRng;

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
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Tables over domains at every digit boundary, with codes at
            /// every digit boundary their domain allows, are written as
            /// exactly the bytes a `format!` oracle gives.
            #[test]
            fn write_table_matches_a_format_oracle(
                seed in 0u64..u64::MAX,
                width in 1usize..5,
                rows in 0usize..40,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let table = boundary_table(&mut rng, width, rows);
                let mut oracle = table.schema().names().join(",") + "\n";
                for r in 0..table.len() {
                    let row: Vec<String> =
                        (0..width).map(|c| format!("{}", table.value(r, c).code())).collect();
                    oracle += &format!("{}\n", row.join(","));
                }
                prop_assert_eq!(to_string(&table), oracle);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            /// On bodies mixing plain rows with blank lines, CRLF, signs,
            /// spaces, tabs, letters, `\u{a0}`, invalid UTF-8, overlong and
            /// out-of-domain codes and wrong field counts, the block reader
            /// returns what the `str` oracle returns, table or error, read
            /// whole or a few bytes at a time.
            #[test]
            fn read_table_agrees_with_the_str_path(
                lines in proptest::collection::vec(
                    (0usize..8, (0..LEAD.len(), 0..SIGN.len(), 0..NUMBER.len(), 0..TRAIL.len()), 0u32..100),
                    0..12,
                ),
                crlf in 0u8..3,
                step in 1usize..40,
            ) {
                let schema = wide_schema();
                let mut text = b"A,B,C\n".to_vec();
                for (i, &(kind, (a, b, c, d), code)) in lines.iter().enumerate() {
                    let field = [LEAD[a], SIGN[b], NUMBER[c], TRAIL[d]].concat();
                    let line: Vec<u8> = match kind {
                        0 => format!("{},{code},{}", code % 10, u32::MAX - 1 - code).into_bytes(),
                        1 => format!("{},{code},{field}", code % 10).into_bytes(),
                        2 => format!("{field},{code},7").into_bytes(),
                        3 => format!("{},{field}", code % 10).into_bytes(),
                        4 => format!("{},{code},1,{field}", code % 10).into_bytes(),
                        5 => [LEAD[a], TRAIL[d]].concat().into_bytes(),
                        6 => format!("{code},{code},{code}").into_bytes(),
                        _ => [&b"1,\xff"[..], field.as_bytes(), b",2"].concat(),
                    };
                    text.extend_from_slice(&line);
                    let last = i + 1 == lines.len();
                    if !(last && crlf == 2) {
                        text.extend_from_slice(if crlf == 1 { b"\r\n" } else { b"\n" });
                    }
                }
                let by_str = read_table_by_str(schema.clone(), &text).map_err(|e| e.to_string());
                let whole = read_table(schema.clone(), &text[..]).map_err(|e| e.to_string());
                prop_assert_eq!(&whole, &by_str, "text {:?}", String::from_utf8_lossy(&text));
                let chunked = read_table(schema, Chunked { bytes: &text, step })
                    .map_err(|e| e.to_string());
                prop_assert_eq!(&chunked, &by_str, "step {}", step);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            /// Every name `Schema::new` accepts survives a CSV round trip.
            #[test]
            fn accepted_names_round_trip(
                name in proptest::collection::vec(0..NAME_CHARS.len(), 0..6),
                other in proptest::collection::vec(0..NAME_CHARS.len(), 1..4),
            ) {
                let name: String = name.iter().map(|&i| NAME_CHARS[i]).collect();
                let other: String = other.iter().map(|&i| NAME_CHARS[i]).collect();
                let attrs = vec![Attribute::numerical(name, 5), Attribute::categorical(other, 3)];
                if let Ok(schema) = Schema::new(attrs) {
                    let mut b = TableBuilder::new(schema.clone());
                    b.push_row(&[4, 2]).unwrap();
                    let t = b.finish();
                    prop_assert_eq!(from_str(schema, &to_string(&t)), Ok(t));
                }
            }
        }
    }

    /// Domain sizes at every digit boundary the writer crosses.
    pub(crate) const DOMAINS: &[u32] =
        &[1, 9, 10, 11, 99, 100, 101, 65_535, 65_536, 65_537, u32::MAX];

    /// Codes at every digit boundary of a `u32`.
    pub(crate) fn boundary_codes() -> Vec<u32> {
        let mut codes = vec![u32::MAX - 1, u32::MAX];
        for d in 0..10 {
            let p = 10u32.pow(d);
            codes.extend([p - 1, p, p + 1]);
        }
        codes
    }

    /// A table of `rows` rows over `width` columns whose domains come from
    /// [`DOMAINS`], holding boundary codes and random ones.
    pub(crate) fn boundary_table(rng: &mut StdRng, width: usize, rows: usize) -> Table {
        let attrs = (0..width)
            .map(|c| {
                let domain = DOMAINS[rng.random_range(0..DOMAINS.len())];
                Attribute::numerical(format!("A{c}"), domain)
            })
            .collect();
        let schema = Schema::new(attrs).unwrap();
        let boundary = boundary_codes();
        let mut b = TableBuilder::new(schema.clone());
        for _ in 0..rows {
            let row: Vec<u32> = schema
                .attributes()
                .iter()
                .map(|a| {
                    let pick = boundary[rng.random_range(0..boundary.len())];
                    if pick < a.domain_size() && rng.random_range(0..4u8) > 0 {
                        pick
                    } else {
                        rng.random_range(0..a.domain_size())
                    }
                })
                .collect();
            b.push_row(&row).unwrap();
        }
        b.finish()
    }

    // Field parts for the reader property: well-formed fields weighted
    // up, with signs, whitespace, letters and overlong numbers.
    const LEAD: &[&str] = &["", "", "", " ", "\t", " \t ", "\u{a0}", "\r", "a"];
    const SIGN: &[&str] = &["", "", "", "", "+", "-", "++"];
    const NUMBER: &[&str] = &[
        "0",
        "7",
        "42",
        "4294967295",
        "4294967294",
        "0000000000042",
        "4294967296",
        "99999999999",
        "",
        "1a",
        "Z",
    ];
    const TRAIL: &[&str] = &["", "", "", " ", "\t", "\r", " \r\t", "\u{a0}", "-", ","];
    // Characters for attribute names, including those a header cannot carry.
    const NAME_CHARS: &[char] = &[
        'a', 'Z', ' ', ',', '\n', '\r', '\t', '\u{a0}', '|', '"', 'é',
    ];
}
