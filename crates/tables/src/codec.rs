//! The byte-level decimal codec behind every hot text boundary of the
//! workspace: microdata CSV, release files and query workloads.
//!
//! All of them are lines of small decimal integers separated by ASCII
//! punctuation, so one writer and one scanner serve them all:
//!
//! * [`Writer`] puts text into one byte buffer, two digits per step,
//!   without the `fmt` machinery, [`CodeText`] renders a small-domain
//!   column's codes once per call, and [`Writer::rows`], one kernel
//!   compiled per row width, writes lines of such codes a block of rows at
//!   a time into room it checks once per block;
//! * [`scan_row`] reads a line of comma-separated codes in place, at the
//!   start of whatever bytes the caller holds, and finds the line's end as
//!   it goes;
//! * `Blocks` holds a stream's bytes in large blocks, so a reader scans
//!   lines where they lie, with no per-line read and no whole-file buffer;
//! * [`line_at`] cuts a line out of a text exactly as `str::lines` does.
//!
//! The scanner takes only plain lines and declines everything else.
//! Callers hand every declined line, unchanged, to their `str` code, which
//! owns every error message and line number; so the accepted inputs and
//! the errors stay what that code makes them.

use std::io::{self, Read};
use std::ops::Range;

/// Two ASCII digits for each of `0..100`.
const PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Decimal digits in `v`.
#[inline]
pub fn digits(v: u32) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Write `v` in decimal at `out` and return its length, `digits(v)`.
///
/// # Safety
///
/// `out` must be valid for writes of `digits(v)` bytes.
#[inline]
unsafe fn put_digits(out: *mut u8, mut v: u32) -> usize {
    let n = digits(v);
    let mut i = n;
    while v >= 100 {
        let r = (v % 100) as usize * 2;
        let pair = [PAIRS[r], PAIRS[r + 1]];
        v /= 100;
        i -= 2;
        // SAFETY: `i + 2 <= n`, inside the caller's room.
        unsafe { out.add(i).cast::<[u8; 2]>().write_unaligned(pair) };
    }
    if v >= 10 {
        let r = v as usize * 2;
        let pair = [PAIRS[r], PAIRS[r + 1]];
        // SAFETY: two digits are left, at the start of the caller's room.
        unsafe { out.cast::<[u8; 2]>().write_unaligned(pair) };
    } else {
        // SAFETY: one digit is left, at the start of the caller's room.
        unsafe { out.write(b'0' + v as u8) };
    }
    n
}

/// The most bytes a field of [`Writer::rows`] takes in the buffer while
/// it is written: a `u32`'s ten digits and a separator, which also covers
/// a rendered code's 8-byte store.
pub(crate) const FIELD_ROOM: usize = 11;

/// Text built in one byte buffer: decimal codes, ASCII separators and
/// whole strings.
#[derive(Debug, Default)]
pub struct Writer {
    /// The text. Only ASCII bytes and whole strings are appended, so it is
    /// always valid UTF-8; [`Writer::rows`] renders into the spare capacity
    /// behind it, which is never zero-filled.
    bytes: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `bytes` bytes of text, and for the
    /// room one more field of [`Writer::rows`] asks at their end.
    pub fn with_capacity(bytes: usize) -> Self {
        Writer {
            bytes: Vec::with_capacity(bytes + FIELD_ROOM),
        }
    }

    /// Append `v` in decimal.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.bytes.reserve(FIELD_ROOM);
        let end = self.bytes.len();
        // SAFETY: `reserve` left FIELD_ROOM bytes of spare capacity at
        // `end`, more than a `u32`'s ten digits, and `put_digits`
        // initializes the `n` bytes that `set_len` takes in.
        unsafe {
            let n = put_digits(self.bytes.as_mut_ptr().add(end), v);
            self.bytes.set_len(end + n);
        }
    }

    /// Append `v` in decimal.
    pub fn usize(&mut self, v: usize) {
        match u32::try_from(v) {
            Ok(v) => self.u32(v),
            Err(_) => self.str(&v.to_string()),
        }
    }

    /// Append one line per row of `rows`: field `k` of row `r` is the code
    /// `field(r, k)`, written with `texts[k]` and its separator, so the
    /// last text's separator ends the line.
    ///
    /// One kernel writes every width, compiled for each width up to 8
    /// and for wider rows read at run time; at the release's widths, 3
    /// and 6, the copy for the width takes about 0.75× the time of the one
    /// that reads it at run time. The rows go a block at a time: as many
    /// as the free room holds at their worst case (11 bytes a field, a
    /// `u32`'s ten digits and a separator), checked once per block, and a
    /// rendered field is one slot load and one 8-byte store. A writer
    /// presized to its text never grows: once less than one row's worst
    /// case is free, the rows left are written field by field.
    pub fn rows(
        &mut self,
        texts: &[CodeText],
        rows: Range<usize>,
        field: impl Fn(usize, usize) -> u32,
    ) {
        match texts.len() {
            0 => {}
            1 => self.rows_of::<1>(texts, rows, field),
            2 => self.rows_of::<2>(texts, rows, field),
            3 => self.rows_of::<3>(texts, rows, field),
            4 => self.rows_of::<4>(texts, rows, field),
            5 => self.rows_of::<5>(texts, rows, field),
            6 => self.rows_of::<6>(texts, rows, field),
            7 => self.rows_of::<7>(texts, rows, field),
            8 => self.rows_of::<8>(texts, rows, field),
            _ => self.rows_of::<0>(texts, rows, field),
        }
    }

    /// [`Writer::rows`] for rows of `W` fields, or, when `W` is 0, of
    /// `texts.len()` fields.
    #[inline(always)]
    fn rows_of<const W: usize>(
        &mut self,
        texts: &[CodeText],
        rows: Range<usize>,
        field: impl Fn(usize, usize) -> u32,
    ) {
        let texts = &texts[..if W == 0 { texts.len() } else { W }];
        let row_room = texts.len() * FIELD_ROOM;
        let mut r = rows.start;
        while r < rows.end {
            let free = self.bytes.capacity() - self.bytes.len();
            let fit = (free / row_room).min(rows.end - r);
            if fit == 0 {
                for (k, text) in texts.iter().enumerate() {
                    self.bytes.reserve(FIELD_ROOM);
                    let end = self.bytes.len();
                    // SAFETY: `reserve` left FIELD_ROOM bytes of spare
                    // capacity at `end`, all that `put` writes, and `put`
                    // initializes the `n` bytes that `set_len` takes in.
                    unsafe {
                        let n = text.put(self.bytes.as_mut_ptr().add(end), field(r, k));
                        self.bytes.set_len(end + n);
                    }
                }
                r += 1;
                continue;
            }
            let end = self.bytes.len();
            // SAFETY: the block's `fit` rows take at most `fit * row_room`
            // bytes at their worst case, which the spare capacity at `end`
            // holds; `put_block` initializes the `n` bytes `set_len` takes.
            unsafe {
                let n = put_block(self.bytes.as_mut_ptr().add(end), texts, r..r + fit, &field);
                self.bytes.set_len(end + n);
            }
            r += fit;
        }
    }

    /// Append one ASCII byte.
    #[inline]
    pub fn byte(&mut self, b: u8) {
        assert!(b.is_ascii(), "a single byte of text must be ASCII");
        self.bytes.push(b);
    }

    /// Append `s`.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The text written so far.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Forget the text, keeping the buffer.
    #[inline]
    pub fn clear(&mut self) {
        self.bytes.clear();
    }

    /// The text as a `String`.
    pub fn into_string(self) -> String {
        // SAFETY: every append is ASCII (digits, asserted separators and
        // bytes) or a whole `&str`, so the bytes are valid UTF-8; checking
        // them again would cost a pass over the whole text.
        unsafe { String::from_utf8_unchecked(self.bytes) }
    }
}

/// Write the fields of `rows` back to back at `out`, as [`Writer::rows`]
/// writes them, and return how many bytes the text takes.
///
/// # Safety
///
/// `out` must be valid for writes of
/// `rows.len() * texts.len() * FIELD_ROOM` bytes.
#[inline(always)]
unsafe fn put_block(
    out: *mut u8,
    texts: &[CodeText],
    rows: Range<usize>,
    field: &impl Fn(usize, usize) -> u32,
) -> usize {
    let mut at = 0;
    for r in rows {
        for (k, text) in texts.iter().enumerate() {
            // SAFETY: each field before this one advanced `at` by at most
            // FIELD_ROOM, so FIELD_ROOM bytes from `at` lie inside the
            // room the caller vouches for.
            at += unsafe { text.put(out.add(at), field(r, k)) };
        }
    }
    at
}

/// How one column's codes are written, each followed by the column's
/// separator.
///
/// A column with a small domain is rendered once: every code's text and
/// separator in the low bytes of a little-endian `u64` slot, its length in
/// the top byte. Writing a code is then one slot load and one 8-byte
/// store, with no digit loop and no branch on how many digits the code
/// has, which is what a random mix of one- and two-digit codes costs most.
/// Larger domains, and codes outside the rendered domain, are written
/// digit by digit; the text is the same.
#[derive(Debug, Clone)]
pub struct CodeText {
    slots: Vec<u64>,
    sep: u8,
}

impl CodeText {
    /// The largest domain worth rendering: 512 KiB of slots, which a
    /// release's group ids (n / l of them) fill at n = 655 360, l = 10.
    /// Its codes have at most 6 digits, so a code and its separator leave
    /// the slot's top byte for the length.
    const MAX_RENDERED: u32 = 1 << 16;

    /// Codes `0..domain`, each followed by the ASCII byte `sep`.
    pub fn new(domain: u32, sep: u8) -> Self {
        assert!(sep.is_ascii(), "a separator must be ASCII");
        let rendered = if domain <= Self::MAX_RENDERED {
            domain
        } else {
            0
        };
        // Code 0's slot, then each next code's by a decimal increment.
        let mut slot = u64::from_le_bytes([b'0', sep, 0, 0, 0, 0, 0, 2]);
        let slots = (0..rendered)
            .map(|_| {
                let this = slot;
                slot = next_slot(slot, sep);
                this
            })
            .collect();
        CodeText { slots, sep }
    }

    /// Write `code` and the separator at `dst` and return the text's
    /// length. A rendered code is one 8-byte store, which may write past
    /// its text.
    ///
    /// # Safety
    ///
    /// `dst` must be valid for writes of [`FIELD_ROOM`] bytes.
    #[inline(always)]
    unsafe fn put(&self, dst: *mut u8, code: u32) -> usize {
        match self.slots.get(code as usize) {
            Some(&slot) => {
                // SAFETY: the caller vouches for FIELD_ROOM ≥ 8 bytes.
                unsafe { dst.cast::<[u8; 8]>().write_unaligned(slot.to_le_bytes()) };
                (slot >> 56) as usize
            }
            // SAFETY: the caller's room is the room `put_digits` asks.
            None => unsafe { self.put_digits(dst, code) },
        }
    }

    /// [`CodeText::put`] for a code outside the rendered domain.
    ///
    /// # Safety
    ///
    /// As for [`CodeText::put`].
    #[cold]
    unsafe fn put_digits(&self, dst: *mut u8, code: u32) -> usize {
        // SAFETY: the caller vouches for FIELD_ROOM bytes at `dst`, room
        // for a `u32`'s ten digits and the separator.
        unsafe {
            let n = put_digits(dst, code);
            dst.add(n).write(self.sep);
            n + 1
        }
    }
}

/// The slot of the code after `slot`'s: one added to its decimal digits,
/// as one add on the last digit unless that digit is a 9.
#[inline]
fn next_slot(slot: u64, sep: u8) -> u64 {
    let digits = (slot >> 56) as usize - 1;
    let last = 8 * (digits - 1);
    if (slot >> last) as u8 != b'9' {
        return slot + (1 << last);
    }
    // A carry: the trailing nines turn to zeros, and when every digit
    // was a nine the code gains a digit, moving the separator on.
    let mut text = slot.to_le_bytes();
    for digit in text[..digits].iter_mut().rev() {
        if *digit < b'9' {
            *digit += 1;
            return u64::from_le_bytes(text);
        }
        *digit = b'0';
    }
    text[0] = b'1';
    text[digits] = b'0';
    text[digits + 1] = sep;
    text[7] += 1;
    u64::from_le_bytes(text)
}

const _: () = assert!(CodeText::MAX_RENDERED < 1_000_000);
const _: () = assert!(FIELD_ROOM == u32::MAX.ilog10() as usize + 2);

/// What [`scan_row`] found at the start of its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scan {
    /// A plain row, this many bytes long counting its `\n`.
    Row(usize),
    /// The input ends inside the line: scan again with more bytes.
    Short,
    /// Not a plain row; the caller's `str` path takes the line.
    Declined,
}

/// Scan the line at the start of `bytes` as `out.len()` comma-separated
/// codes, in place, or decline it. The common row (short plain codes)
/// is read a word at a time, anything else byte by byte.
///
/// The line runs to the first `\n`, or, when `at_end` says no bytes
/// follow, to the end of `bytes`; without `at_end`, input that stops
/// inside a line is [`Scan::Short`]. A row is exactly `out.len()` fields,
/// each matching `[ \t]*+?[0-9]+[ \t\r]*` with a value that fits a `u32`.
/// On every row it accepts, field `k` is the code
/// `field.trim().parse::<u32>()` gives, which is how the `str` parsers of
/// microdata CSV and release files read a field, whether or not they trim
/// the line's end first. Everything else is [`Scan::Declined`]: blank
/// lines, other whitespace, non-ASCII bytes, a sign other than a leading
/// `+`, an overlong number, a different field count. `out` is unspecified
/// unless the result is a row.
pub fn scan_row(bytes: &[u8], at_end: bool, out: &mut [u32]) -> Scan {
    if let Some(len) = plain_row(bytes, out) {
        return Scan::Row(len);
    }
    let short = if at_end { Scan::Declined } else { Scan::Short };
    if out.is_empty() {
        return Scan::Declined;
    }
    let mut i = 0;
    for (k, slot) in out.iter_mut().enumerate() {
        if k > 0 {
            match bytes.get(i) {
                Some(b',') => i += 1,
                Some(_) => return Scan::Declined,
                None => return short,
            }
        }
        while matches!(bytes.get(i), Some(b' ' | b'\t')) {
            i += 1;
        }
        if bytes.get(i) == Some(&b'+') {
            i += 1;
        }
        let start = i;
        let mut v = 0u64;
        while let Some(&b @ b'0'..=b'9') = bytes.get(i) {
            v = v * 10 + u64::from(b - b'0');
            if v > u64::from(u32::MAX) {
                return Scan::Declined;
            }
            i += 1;
        }
        if i == start {
            return if i == bytes.len() {
                short
            } else {
                Scan::Declined
            };
        }
        *slot = v as u32;
        while matches!(bytes.get(i), Some(b' ' | b'\t' | b'\r')) {
            i += 1;
        }
    }
    match bytes.get(i) {
        Some(b'\n') => Scan::Row(i + 1),
        Some(_) => Scan::Declined,
        None if at_end => Scan::Row(i),
        None => Scan::Short,
    }
}

/// The common row, read a word at a time: fields of 1 to 7 plain digits,
/// each ended by `,` and the last by `\n`, with 8 bytes readable at every
/// field's start. Returns the row's length, or `None` for anything else,
/// which [`scan_row`]'s byte loop then reads. A word costs no branch on
/// how many digits its field has, which is what a random mix of one- and
/// two-digit codes costs a byte loop most.
#[inline]
fn plain_row(bytes: &[u8], out: &mut [u32]) -> Option<usize> {
    let last = out.len().checked_sub(1)?;
    let mut i = 0;
    for (k, slot) in out.iter_mut().enumerate() {
        let word = u64::from_le_bytes(bytes.get(i..i + 8)?.try_into().ok()?);
        let (n, v) = word_number(word)?;
        let end = if k == last { b'\n' } else { b',' };
        if (word >> (8 * n)) as u8 != end {
            return None;
        }
        *slot = v;
        i += n + 1;
    }
    Some(i)
}

/// The length and value of the run of 1 to 7 ASCII digits that starts the
/// little-endian `word`, or `None` when the run is empty or fills the word.
#[inline]
fn word_number(word: u64) -> Option<(usize, u32)> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    // Each byte's digit value; a byte that is not a digit reads 10 or more.
    let x = word ^ (ONES * u64::from(b'0'));
    // The high bit of each byte that is not a digit. The 7-bit sums
    // cannot carry into the next byte.
    let non_digit = (x | ((x & (ONES * 0x7f)) + ONES * 0x76)) & (ONES * 0x80);
    let n = (non_digit.trailing_zeros() / 8) as usize;
    if n == 0 || n == 8 {
        return None;
    }
    // The digits in the top bytes, most significant first in memory order;
    // three multiplies fold them pairwise into one value.
    let mut v = x << (8 * (8 - n));
    v = (v & (ONES * 0x0f)).wrapping_mul(1 + (10 << 8)) >> 8;
    v = (v & 0x00ff_00ff_00ff_00ff).wrapping_mul(1 + (100 << 16)) >> 16;
    v = (v & 0x0000_ffff_0000_ffff).wrapping_mul(1 + (10_000 << 32)) >> 32;
    Some((n, v as u32))
}

/// The line of `text` that starts at byte `at`, cut as `str::lines` cuts
/// it (a `\n` or `\r\n` ending removed), and where the next line starts.
/// `at` must lie on a line start inside `text`.
pub fn line_at(text: &str, at: usize) -> (&str, usize) {
    let rest = &text[at..];
    match rest.find('\n') {
        Some(i) => {
            let line = &rest[..i];
            (line.strip_suffix('\r').unwrap_or(line), at + i + 1)
        }
        None => (rest, text.len()),
    }
}

/// Bytes read per block.
pub(crate) const BLOCK: usize = 1 << 17;

/// A byte stream held in large blocks, so that its lines can be scanned
/// where they lie.
///
/// [`Blocks::data`] is the unread part of the current block; a reader
/// scans it in place and [`Blocks::consume`]s what it took. When a line
/// straddles the end of the block, [`Blocks::fill`] moves that line's
/// start to the front and reads the next block behind it, so memory stays
/// at one block (or one line, if a line is longer) whatever the input's
/// size.
pub(crate) struct Blocks<R> {
    input: R,
    buf: Vec<u8>,
    start: usize,
    end: usize,
    at_end: bool,
}

impl<R: Read> Blocks<R> {
    /// Blocks of `input`; nothing is read until the first [`Blocks::fill`].
    pub(crate) fn new(input: R) -> Self {
        Blocks {
            input,
            buf: Vec::new(),
            start: 0,
            end: 0,
            at_end: false,
        }
    }

    /// The bytes read but not yet consumed.
    #[inline]
    pub(crate) fn data(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Whether the input has no bytes beyond [`Blocks::data`].
    #[inline]
    pub(crate) fn at_end(&self) -> bool {
        self.at_end
    }

    /// Mark the first `n` bytes of [`Blocks::data`] as read.
    #[inline]
    pub(crate) fn consume(&mut self, n: usize) {
        debug_assert!(self.start + n <= self.end);
        self.start += n;
    }

    /// Read more of the input behind [`Blocks::data`], or note that the
    /// input has ended. Retries reads that were interrupted.
    pub(crate) fn fill(&mut self) -> io::Result<()> {
        if self.at_end {
            return Ok(());
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() - self.end < BLOCK / 2 {
            let len = (self.buf.len() * 2).max(self.end + BLOCK);
            self.buf.resize(len, 0);
        }
        loop {
            match self.input.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    self.at_end = true;
                    return Ok(());
                }
                Ok(n) => {
                    self.end += n;
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next line, `\n` included when it has one, as
    /// `BufRead::read_until(b'\n')` reads it; `None` once the input is
    /// exhausted.
    pub(crate) fn line(&mut self) -> io::Result<Option<&[u8]>> {
        let mut searched = 0;
        let len = loop {
            let data = self.data();
            if let Some(i) = data[searched..].iter().position(|&b| b == b'\n') {
                break searched + i + 1;
            }
            if self.at_end {
                if data.is_empty() {
                    return Ok(None);
                }
                break data.len();
            }
            searched = data.len();
            self.fill()?;
        };
        let line = &self.buf[self.start..self.start + len];
        self.start += len;
        Ok(Some(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `format!`-based writer every [`Writer`] output is checked
    /// against.
    fn display(v: u32) -> String {
        format!("{v}")
    }

    #[test]
    fn digit_writer_matches_display_at_every_power_of_ten() {
        let edges = (0..10).flat_map(|d| {
            let p = 10u32.pow(d);
            [p.saturating_sub(1), p, p + 1]
        });
        let mut w = Writer::default();
        let mut oracle = String::new();
        for v in edges.chain([99, 100, 65_535, 65_536, u32::MAX - 1, u32::MAX]) {
            let mut one = Writer::with_capacity(0);
            one.u32(v);
            assert_eq!(one.into_string(), display(v));
            assert_eq!(digits(v), display(v).len(), "{v}");
            w.u32(v);
            w.byte(b',');
            oracle.push_str(&display(v));
            oracle.push(',');
        }
        assert_eq!(w.into_string(), oracle);
    }

    #[test]
    fn code_text_writes_what_the_digit_writer_writes() {
        for (domain, sep) in [
            (1, b','),
            (10, b'\n'),
            (101, b','),
            (65_536, b'|'),
            (65_537, b','),
        ] {
            let text = [CodeText::new(domain, sep)];
            let mut w = Writer::with_capacity(0);
            let mut oracle = String::new();
            // Codes inside the domain, across every carry of the decimal
            // increment that builds the slots, and, written digit by
            // digit, past it.
            let codes: Vec<u32> = (0..domain.min(200))
                .chain((1..6).flat_map(|d| [10u32.pow(d) - 1, 10u32.pow(d)]))
                .chain([65_535, 65_536])
                .filter(|&v| v < domain)
                .chain([domain - 1, domain, 99_999, u32::MAX])
                .collect();
            w.rows(&text, 0..codes.len(), |r, _| codes[r]);
            for v in &codes {
                oracle.push_str(&format!("{v}{}", sep as char));
            }
            assert_eq!(w.into_string(), oracle, "domain {domain}");
        }
    }

    #[test]
    fn rows_write_what_the_digit_writer_writes() {
        // Columns of three kinds in turn: a rendered column whose codes run
        // past its domain, a column too wide to render, and a one-code
        // column. Widths 1 to 8 have a kernel of their own each, wider rows
        // share one.
        let text = |k: usize, sep: u8| match k % 3 {
            0 => CodeText::new(101, sep),
            1 => CodeText::new(CodeText::MAX_RENDERED + 1, sep),
            _ => CodeText::new(1, sep),
        };
        let field = |r: usize, k: usize| -> u32 {
            let r = (r + k) as u32;
            match k % 3 {
                0 => r * 37 % 130,
                1 => r.wrapping_mul(2_654_435_761),
                _ if r.is_multiple_of(9) => u32::MAX,
                _ => 0,
            }
        };
        for width in 1..=11 {
            let texts: Vec<CodeText> = (0..width)
                .map(|k| text(k, if k + 1 == width { b'\n' } else { b',' }))
                .collect();
            let oracle: String = (0..500)
                .map(|r| {
                    let fields: Vec<String> = (0..width).map(|k| field(r, k).to_string()).collect();
                    fields.join(",") + "\n"
                })
                .collect();
            // Too little room for one row, for some rows, for exactly the
            // text, and for every row's worst case.
            for capacity in [0, 7, 100, oracle.len(), 500 * width * FIELD_ROOM] {
                let mut w = Writer::with_capacity(capacity);
                let room = w.bytes.capacity();
                w.rows(&texts, 0..200, field);
                w.rows(&texts, 200..200, field);
                w.rows(&texts, 200..500, field);
                assert_eq!(
                    w.as_bytes(),
                    oracle.as_bytes(),
                    "width {width} capacity {capacity}"
                );
                if capacity >= oracle.len() {
                    assert_eq!(
                        w.bytes.capacity(),
                        room,
                        "width {width} capacity {capacity}: grew"
                    );
                }
            }
        }
        // No texts, no text.
        let mut w = Writer::with_capacity(0);
        w.rows(&[], 0..10, |_, _| unreachable!());
        assert!(w.is_empty());
    }

    #[test]
    fn word_numbers_read_like_the_byte_loop() {
        let word = |text: &str| u64::from_le_bytes(text.as_bytes()[..8].try_into().unwrap());
        for v in [0u32, 7, 10, 99, 100, 12_345, 999_999, 1_000_000, 9_999_999] {
            for tail in [",", "\n", " ", "\r\n", "x", "/", ":", "\u{a0}"] {
                let text = format!("{v}{tail}00000000");
                let n = v.to_string().len();
                assert_eq!(word_number(word(&text)), Some((n, v)), "{text:?}");
            }
        }
        // Leading zeros keep their value and their length.
        assert_eq!(word_number(word("0042,xxx")), Some((4, 42)));
        // No digit first, or a run of 8 digits: the byte loop's.
        for text in [",7777777", " 1,00000", "+1,00000", "12345678"] {
            assert_eq!(word_number(word(text)), None, "{text:?}");
        }
    }

    #[test]
    fn plain_rows_are_read_a_word_at_a_time() {
        let mut out = [0u32; 3];
        let text = b"1,22,3333333\n4,5,6\n        ";
        assert_eq!(plain_row(text, &mut out), Some(13));
        assert_eq!(out, [1, 22, 3_333_333]);
        assert_eq!(plain_row(&text[13..], &mut out), Some(6));
        assert_eq!(out, [4, 5, 6]);
        // Too few bytes left to read a word, a space, CRLF, an 8-digit
        // field: the byte loop's (which takes every one of them).
        for text in [
            &b"1,2,3\n"[..],
            b"1, 2,3\n        ",
            b"1,2,3\r\n       ",
            b"1,2,33333333\n   ",
        ] {
            assert_eq!(plain_row(text, &mut out), None, "{text:?}");
            assert!(matches!(scan_row(text, true, &mut out), Scan::Row(_)));
        }
    }

    #[test]
    fn writer_grows_and_clears() {
        let mut w = Writer::with_capacity(3);
        w.str("qi");
        w.usize(12_345);
        w.usize(usize::MAX);
        let expected = format!("qi12345{}", usize::MAX);
        assert_eq!(w.as_bytes(), expected.as_bytes());
        assert_eq!(w.len(), expected.len());
        w.clear();
        assert!(w.is_empty());
        w.byte(b'\n');
        assert_eq!(w.into_string(), "\n");
    }

    #[test]
    fn scan_row_takes_plain_rows_and_declines_the_rest() {
        let mut out = [0u32; 2];
        assert_eq!(scan_row(b"23,0\n7,7\n", true, &mut out), Scan::Row(5));
        assert_eq!(out, [23, 0]);
        assert_eq!(scan_row(b"23,0", true, &mut out), Scan::Row(4));
        assert_eq!(
            scan_row(b" \t+007 ,\t4294967295 \r", true, &mut out),
            Scan::Row(21)
        );
        assert_eq!(out, [7, u32::MAX]);
        for line in [
            &b""[..],
            b"\n",
            b"23",
            b"23\n",
            b"23,0,1",
            b"23,",
            b"23,4294967296",
            b"23,-0",
            b"23,+",
            b"23,0x1",
            b"\r23,0",
            b"23 1,0",
            b"23,0\r5\n",
            "23,0\u{a0}".as_bytes(),
        ] {
            assert_eq!(
                scan_row(line, true, &mut out),
                Scan::Declined,
                "{:?}",
                String::from_utf8_lossy(line)
            );
        }
    }

    #[test]
    fn scan_row_asks_for_more_only_inside_a_line() {
        let mut out = [0u32; 2];
        for cut in ["", "2", "23", "23,", "23, ", "23,0", "23,0 \r"] {
            assert_eq!(
                scan_row(cut.as_bytes(), false, &mut out),
                Scan::Short,
                "{cut:?}"
            );
        }
        // A line already known to be declined needs no more bytes.
        assert_eq!(scan_row(b"23,x", false, &mut out), Scan::Declined);
        assert_eq!(scan_row(b"23,0\n", false, &mut out), Scan::Row(5));
    }

    #[test]
    fn line_at_cuts_like_str_lines() {
        for text in [
            "",
            "a",
            "a\n",
            "a\r\n\r\nb",
            "a\r",
            "\r",
            "\n\n",
            "x\ry\r\n",
            "\u{a0}\n\u{2003}",
        ] {
            let mut cut = Vec::new();
            let mut at = 0;
            while at < text.len() {
                let (line, next) = line_at(text, at);
                cut.push(line);
                at = next;
            }
            assert_eq!(cut, text.lines().collect::<Vec<_>>(), "{text:?}");
        }
    }

    /// A reader that hands out at most `step` bytes per read and reports
    /// an interruption before each, as a slow pipe might.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
        interrupt: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn blocks_lines_match_read_until_across_reads() {
        use std::io::BufRead;
        let long = "9".repeat(3 * BLOCK);
        let text = format!("a\r\n\nbc\n{long}\nd\ne");
        for step in [1, 2, 3, 7, BLOCK - 1, BLOCK, 4 * BLOCK] {
            let mut blocks = Blocks::new(Trickle {
                bytes: text.as_bytes(),
                step,
                interrupt: false,
            });
            let mut got = Vec::new();
            while let Some(line) = blocks.line().unwrap() {
                got.push(line.to_vec());
            }
            let mut expected = Vec::new();
            let mut reader = text.as_bytes();
            loop {
                let mut line = Vec::new();
                if reader.read_until(b'\n', &mut line).unwrap() == 0 {
                    break;
                }
                expected.push(line);
            }
            assert_eq!(got, expected, "step {step}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4096))]
            /// On lines drawn from digits, commas, ASCII and Unicode
            /// whitespace, signs, letters and overlong numbers, the scanner
            /// either declines or returns exactly the codes of the `str`
            /// path (`trim_end`, split on `,`, `trim` and `parse` each field),
            /// whether the line ends the input or a `\n` ends it.
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
                let ended = format!("{line}\nnext line");
                for (bytes, row_len) in [(&line[..], line.len()), (&ended[..], line.len() + 1)] {
                    match scan_row(bytes.as_bytes(), true, &mut out) {
                        Scan::Row(len) => {
                            prop_assert_eq!(len, row_len, "line {:?}", line);
                            prop_assert_eq!(Some(out.clone()), by_str.clone(), "line {:?}", line);
                        }
                        Scan::Declined => {}
                        Scan::Short => prop_assert!(false, "short at the end of the input"),
                    }
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
