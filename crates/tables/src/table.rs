//! Column-major tables of value codes.

use crate::error::TablesError;
use crate::schema::Schema;
use crate::tuple::TupleRef;
use crate::value::Value;
use std::fmt;

/// An immutable, column-major table.
///
/// Columns are dense `Vec<u32>` code arrays. Column-major layout is the
/// right default for this workspace: the query estimators of the paper's
/// Section 6.1 scan one column per predicate, and the anonymization
/// algorithms address tuples by row index without ever copying them.
///
/// Build with [`TableBuilder`] (row-at-a-time) or [`Table::from_columns`]
/// (bulk).
///
/// ```
/// use anatomy_tables::{Attribute, Schema, TableBuilder};
///
/// let schema = Schema::new(vec![
///     Attribute::numerical("Age", 100),
///     Attribute::categorical("Sex", 2),
/// ])?;
/// let mut b = TableBuilder::new(schema);
/// b.push_row(&[23, 0])?;
/// b.push_row(&[61, 1])?;
/// let table = b.finish();
/// assert_eq!(table.len(), 2);
/// assert_eq!(table.value(0, 0).code(), 23);
/// assert_eq!(table.column(1), &[0, 1]); // column-major access
/// # Ok::<(), anatomy_tables::TablesError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Vec<u32>>,
    len: usize,
}

impl Table {
    /// An empty table with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns = (0..schema.width()).map(|_| Vec::new()).collect();
        Table {
            schema,
            columns,
            len: 0,
        }
    }

    /// Build a table directly from columns. All columns must have equal
    /// length, match the schema width, and contain only in-domain codes.
    pub fn from_columns(schema: Schema, columns: Vec<Vec<u32>>) -> Result<Self, TablesError> {
        if columns.len() != schema.width() {
            return Err(TablesError::ArityMismatch {
                expected: schema.width(),
                got: columns.len(),
            });
        }
        let len = columns.first().map_or(0, |c| c.len());
        for c in &columns {
            if c.len() != len {
                return Err(TablesError::InvalidMicrodata(format!(
                    "ragged columns: expected {len} rows, found a column with {}",
                    c.len()
                )));
            }
        }
        for (i, col) in columns.iter().enumerate() {
            let attr = schema.attribute(i)?;
            // Validate via max: all codes are unsigned so a single bound
            // check per column suffices.
            if let Some(&max) = col.iter().max() {
                attr.check(max)?;
            }
        }
        Ok(Table {
            schema,
            columns,
            len,
        })
    }

    /// The table's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (`n`, the microdata cardinality in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns (`d + 1` for microdata).
    #[inline]
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Value at (`row`, `col`). Panics when out of range, mirroring slice
    /// indexing; use [`Table::try_value`] for checked access.
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> Value {
        Value(self.columns[col][row])
    }

    /// Checked access to a cell.
    pub fn try_value(&self, row: usize, col: usize) -> Result<Value, TablesError> {
        let column = self.columns.get(col).ok_or(TablesError::ColumnOutOfRange {
            index: col,
            width: self.width(),
        })?;
        column
            .get(row)
            .map(|&c| Value(c))
            .ok_or(TablesError::RowOutOfRange {
                index: row,
                len: self.len,
            })
    }

    /// The raw code array of column `col`.
    #[inline]
    pub fn column(&self, col: usize) -> &[u32] {
        &self.columns[col]
    }

    /// Borrowed view of row `row`.
    #[inline]
    pub fn tuple(&self, row: usize) -> TupleRef<'_> {
        assert!(
            row < self.len,
            "row {row} out of range for {} rows",
            self.len
        );
        TupleRef::new(self, row)
    }

    /// Iterate over all rows as tuple views.
    pub fn tuples(&self) -> impl Iterator<Item = TupleRef<'_>> + '_ {
        (0..self.len).map(move |r| TupleRef::new(self, r))
    }

    /// A new table containing the rows at `rows`, in that order.
    ///
    /// Row indices may repeat; out-of-range indices are an error.
    pub fn gather(&self, rows: &[usize]) -> Result<Table, TablesError> {
        for &r in rows {
            if r >= self.len {
                return Err(TablesError::RowOutOfRange {
                    index: r,
                    len: self.len,
                });
            }
        }
        let columns = self
            .columns
            .iter()
            .map(|col| rows.iter().map(|&r| col[r]).collect())
            .collect();
        Ok(Table {
            schema: self.schema.clone(),
            columns,
            len: rows.len(),
        })
    }

    /// A new table with only the columns at `cols` (projection).
    pub fn project(&self, cols: &[usize]) -> Result<Table, TablesError> {
        let schema = self.schema.project(cols)?;
        let columns = cols.iter().map(|&c| self.columns[c].clone()).collect();
        Ok(Table {
            schema,
            columns,
            len: self.len,
        })
    }

    /// Approximate in-memory footprint of the value data, in bytes.
    pub fn data_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| c.len() * std::mem::size_of::<u32>())
            .sum()
    }
}

impl fmt::Display for Table {
    /// Render at most the first 20 rows with labels — intended for the
    /// worked examples (the paper's Tables 1–5), not for bulk data.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for (i, t) in self.tuples().enumerate() {
            if i == 20 {
                writeln!(f, "... ({} more rows)", self.len - 20)?;
                break;
            }
            writeln!(f, "{}", t.labeled().join("\t"))?;
        }
        Ok(())
    }
}

/// Row-at-a-time table construction with per-row validation.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    schema: Schema,
    /// Each column's domain size, so a row's check is one compare per code.
    domains: Vec<u32>,
    columns: Vec<Vec<u32>>,
    len: usize,
}

impl TableBuilder {
    /// Start building a table with the given schema.
    pub fn new(schema: Schema) -> Self {
        Self::with_capacity(schema, 0)
    }

    /// Start building with row capacity reserved up front.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let domains = schema
            .attributes()
            .iter()
            .map(|a| a.domain_size())
            .collect();
        let columns = (0..schema.width())
            .map(|_| Vec::with_capacity(rows))
            .collect();
        TableBuilder {
            schema,
            domains,
            columns,
            len: 0,
        }
    }

    /// Append one row of codes, validating arity and domains.
    pub fn push_row(&mut self, codes: &[u32]) -> Result<(), TablesError> {
        if codes.len() != self.schema.width() {
            return Err(TablesError::ArityMismatch {
                expected: self.schema.width(),
                got: codes.len(),
            });
        }
        self.check_domains(codes)?;
        for (col, &c) in self.columns.iter_mut().zip(codes) {
            col.push(c);
        }
        self.len += 1;
        Ok(())
    }

    /// The error for the first code of a full-width row outside its
    /// column's domain.
    fn check_domains(&self, codes: &[u32]) -> Result<(), TablesError> {
        match codes.iter().zip(&self.domains).position(|(&c, &d)| c >= d) {
            Some(i) => self.schema.attributes()[i].check(codes[i]),
            None => Ok(()),
        }
    }

    /// Append every row of `words`, which holds rows back to back: a
    /// row's codes, then, when `trailing` is given, one more word (a group
    /// id, say) that `trailing` takes unchecked. The rows are transposed in
    /// one pass over `words` (a pass per eight columns of wider rows),
    /// compiled for each number of columns a pass fills, and each column is
    /// validated with the maximum of what it took, so a block of rows costs
    /// no call per row. An out-of-domain code fails
    /// with the error [`TableBuilder::push_row`] gives for the first row
    /// holding one, and nothing of `words` is appended to the table or to
    /// `trailing`.
    ///
    /// Panics when the rows have no words, or when `words` does not hold
    /// a whole number of rows.
    pub fn push_rows(
        &mut self,
        words: &[u32],
        mut trailing: Option<&mut Vec<u32>>,
    ) -> Result<(), TablesError> {
        let width = self.schema.width();
        let stride = width + usize::from(trailing.is_some());
        assert!(
            stride > 0 && words.len().is_multiple_of(stride),
            "push_rows needs whole rows of {stride} words, got {} words",
            words.len()
        );
        let rows = words.len() / stride;
        if rows == 0 {
            return Ok(());
        }
        let mut in_domain = true;
        for first in (0..stride).step_by(PASS_COLUMNS) {
            let columns = (stride - first).min(PASS_COLUMNS);
            let mut outs = [std::ptr::null_mut::<u32>(); PASS_COLUMNS];
            for (j, out) in outs[..columns].iter_mut().enumerate() {
                let column = match self.columns.get_mut(first + j) {
                    Some(column) => column,
                    None => trailing
                        .as_deref_mut()
                        .expect("only the trailing word follows the codes"),
                };
                column.reserve(rows);
                *out = column.spare_capacity_mut().as_mut_ptr().cast();
            }
            let chunks = words.chunks_exact(stride);
            let mut max = [0u32; PASS_COLUMNS];
            // SAFETY: every pointer in `outs[..columns]` is the spare
            // capacity of a distinct column that `reserve` made room for
            // `rows` more words in, and the loop above left the columns
            // as they were once it took their pointers.
            unsafe {
                match columns {
                    1 => scatter::<1>(chunks, first, &outs, &mut max),
                    2 => scatter::<2>(chunks, first, &outs, &mut max),
                    3 => scatter::<3>(chunks, first, &outs, &mut max),
                    4 => scatter::<4>(chunks, first, &outs, &mut max),
                    5 => scatter::<5>(chunks, first, &outs, &mut max),
                    6 => scatter::<6>(chunks, first, &outs, &mut max),
                    7 => scatter::<7>(chunks, first, &outs, &mut max),
                    _ => scatter::<8>(chunks, first, &outs, &mut max),
                }
            }
            in_domain &= self.domains[first.min(width)..(first + columns).min(width)]
                .iter()
                .zip(&max)
                .all(|(&domain, &max)| max < domain);
        }
        if !in_domain {
            let first = words
                .chunks_exact(stride)
                .find_map(|row| self.check_domains(&row[..width]).err());
            return Err(first.expect("a column's maximum lies outside its domain"));
        }
        for column in self.columns.iter_mut().chain(trailing) {
            // SAFETY: the passes above wrote `rows` words into the spare
            // capacity of every column and of `trailing`.
            unsafe { column.set_len(column.len() + rows) };
        }
        self.len += rows;
        Ok(())
    }

    /// Rows appended so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows have been appended yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Finish building; the result is immutable.
    pub fn finish(self) -> Table {
        Table {
            schema: self.schema,
            columns: self.columns,
            len: self.len,
        }
    }
}

/// Columns [`TableBuilder::push_rows`] fills per pass over its rows.
const PASS_COLUMNS: usize = 8;

/// One pass of [`TableBuilder::push_rows`]: write field `first + j` of
/// the `i`-th of `rows` at `outs[j] + i`, and the field's maximum at
/// `max[j]`, for each `j` below `W`. With `W` fixed, a QIT page of six
/// columns transposes in about 0.85× the time of a loop over columns
/// counted at run time.
///
/// # Safety
///
/// `outs[..W]` must be valid for writes of as many words as there are
/// rows, and must not overlap one another or the rows.
#[inline(always)]
unsafe fn scatter<const W: usize>(
    rows: std::slice::ChunksExact<'_, u32>,
    first: usize,
    outs: &[*mut u32; PASS_COLUMNS],
    max: &mut [u32; PASS_COLUMNS],
) {
    let outs: [*mut u32; W] = std::array::from_fn(|j| outs[j]);
    let mut top = [0u32; W];
    for (i, row) in rows.enumerate() {
        let fields = &row[first..first + W];
        for j in 0..W {
            top[j] = top[j].max(fields[j]);
            // SAFETY: `i` is below the row count, the words the caller
            // vouches `outs[j]` holds.
            unsafe { outs[j].add(i).write(fields[j]) };
        }
    }
    max[..W].copy_from_slice(&top);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribute::Attribute;

    fn schema3() -> Schema {
        Schema::new(vec![
            Attribute::numerical("Age", 100),
            Attribute::categorical("Gender", 2),
            Attribute::numerical("Zip", 60),
        ])
        .unwrap()
    }

    fn sample() -> Table {
        let mut b = TableBuilder::new(schema3());
        b.push_row(&[23, 0, 11]).unwrap();
        b.push_row(&[27, 0, 13]).unwrap();
        b.push_row(&[35, 1, 59]).unwrap();
        b.finish()
    }

    #[test]
    fn builder_roundtrip() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.width(), 3);
        assert_eq!(t.value(2, 2).code(), 59);
    }

    #[test]
    fn builder_rejects_bad_arity_and_domain() {
        let mut b = TableBuilder::new(schema3());
        assert!(matches!(
            b.push_row(&[1, 2]),
            Err(TablesError::ArityMismatch {
                expected: 3,
                got: 2
            })
        ));
        assert!(matches!(
            b.push_row(&[1, 5, 0]),
            Err(TablesError::ValueOutOfDomain { .. })
        ));
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn push_rows_matches_push_row() {
        // Rows of three codes plus a trailing word that is skipped.
        let words = [23, 0, 11, 7, 27, 0, 13, 8, 35, 1, 59, 9];
        let mut b = TableBuilder::new(schema3());
        let mut trailing = vec![6];
        b.push_rows(&words[..4], Some(&mut trailing)).unwrap();
        b.push_rows(&[], Some(&mut trailing)).unwrap();
        b.push_rows(&words[4..], Some(&mut trailing)).unwrap();
        assert_eq!(b.finish(), sample());
        assert_eq!(trailing, [6, 7, 8, 9]);

        // Row 1 has Zip 60 and row 2 Gender 2: the error is the one
        // `push_row` gives at row 1, and nothing is appended.
        let bad = [23, 0, 11, 27, 0, 60, 35, 2, 59];
        let mut one_by_one = TableBuilder::new(schema3());
        let expected = bad
            .chunks_exact(3)
            .find_map(|row| one_by_one.push_row(row).err())
            .unwrap();
        let mut b = TableBuilder::new(schema3());
        let err = b.push_rows(&bad, None).unwrap_err();
        assert_eq!(err, expected);
        assert!(
            matches!(&err, TablesError::ValueOutOfDomain { attribute, code: 60, .. } if attribute == "Zip"),
            "{err:?}"
        );
        assert!(b.is_empty());
    }

    #[test]
    fn push_rows_transposes_rows_wider_than_a_pass() {
        // Eleven columns and a trailing word: two passes over the rows.
        let schema = Schema::new(
            (0..11)
                .map(|c| Attribute::numerical(format!("A{c}"), 50 + c))
                .collect(),
        )
        .unwrap();
        let rows: Vec<Vec<u32>> = (0..40u32)
            .map(|r| (0..12).map(|c| (r * 7 + c * 3) % 50).collect())
            .collect();
        let mut one_by_one = TableBuilder::new(schema.clone());
        for row in &rows {
            one_by_one.push_row(&row[..11]).unwrap();
        }
        let words: Vec<u32> = rows.concat();
        let mut b = TableBuilder::new(schema.clone());
        let mut trailing = vec![];
        b.push_rows(&words[..12 * 15], Some(&mut trailing)).unwrap();
        b.push_rows(&words[12 * 15..], Some(&mut trailing)).unwrap();
        assert_eq!(b.finish(), one_by_one.finish());
        let expected: Vec<u32> = rows.iter().map(|row| row[11]).collect();
        assert_eq!(trailing, expected);
        // A code out of its domain in the second pass's columns (A10's
        // domain is 60) fails as `push_row` fails, and appends nothing.
        let mut bad = words.clone();
        bad[12 * 3 + 10] = 60;
        let expected = bad
            .chunks_exact(12)
            .find_map(|row| TableBuilder::new(schema.clone()).push_row(&row[..11]).err())
            .unwrap();
        let mut b = TableBuilder::new(schema);
        let mut trailing = vec![];
        assert_eq!(b.push_rows(&bad, Some(&mut trailing)), Err(expected));
        assert!(b.is_empty() && trailing.is_empty());
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn push_rows_of_a_partial_row_panics() {
        let _ = TableBuilder::new(schema3()).push_rows(&[1, 0, 2, 3], None);
    }

    #[test]
    fn from_columns_validates() {
        let t = Table::from_columns(schema3(), vec![vec![1, 2], vec![0, 1], vec![3, 4]]).unwrap();
        assert_eq!(t.len(), 2);
        // ragged
        assert!(Table::from_columns(schema3(), vec![vec![1], vec![0, 1], vec![3]]).is_err());
        // wrong width
        assert!(Table::from_columns(schema3(), vec![vec![1]]).is_err());
        // out of domain
        assert!(Table::from_columns(schema3(), vec![vec![1], vec![7], vec![3]]).is_err());
    }

    #[test]
    fn try_value_bounds() {
        let t = sample();
        assert!(t.try_value(0, 0).is_ok());
        assert!(matches!(
            t.try_value(9, 0),
            Err(TablesError::RowOutOfRange { .. })
        ));
        assert!(matches!(
            t.try_value(0, 9),
            Err(TablesError::ColumnOutOfRange { .. })
        ));
    }

    #[test]
    fn gather_reorders_and_repeats() {
        let t = sample();
        let g = t.gather(&[2, 0, 0]).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.value(0, 0).code(), 35);
        assert_eq!(g.value(1, 0).code(), 23);
        assert_eq!(g.value(2, 0).code(), 23);
        assert!(t.gather(&[7]).is_err());
    }

    #[test]
    fn project_subsets_columns() {
        let t = sample();
        let p = t.project(&[2, 0]).unwrap();
        assert_eq!(p.schema().names(), vec!["Zip", "Age"]);
        assert_eq!(p.value(0, 0).code(), 11);
        assert_eq!(p.value(0, 1).code(), 23);
    }

    #[test]
    fn tuples_iterates_all_rows() {
        let t = sample();
        assert_eq!(t.tuples().count(), 3);
        let ages: Vec<u32> = t.tuples().map(|r| r.get(0).code()).collect();
        assert_eq!(ages, vec![23, 27, 35]);
    }

    #[test]
    fn empty_table() {
        let t = Table::empty(schema3());
        assert!(t.is_empty());
        assert_eq!(t.tuples().count(), 0);
        assert_eq!(t.data_bytes(), 0);
    }
}
