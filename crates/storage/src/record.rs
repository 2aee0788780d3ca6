//! The fixed-size row shape, and the page codec built on it.
//!
//! Files in this workspace store *fixed-size* records: rows of `u32`
//! codes, optionally with a group id. Fixed-size records make the paper's
//! per-page arithmetic exact — a page holds `⌊page_size / record_len⌋`
//! records, which is the `b` of the `O(n/b)` bounds in Theorem 3.
//!
//! A page's payload is its rows' fields, each a little-endian `u32`, back
//! to back. [`SeqWriter`](crate::SeqWriter) keeps the page it fills as
//! words and encodes them once, when the page is flushed;
//! [`SeqReader`](crate::SeqReader) decodes each verified page once and
//! hands rows out as word slices.

/// Shape of rows of `arity` little-endian `u32` codes.
///
/// This covers every record type the anatomizing pipeline needs:
/// * microdata tuples — `arity = d + 1` (QI values plus the sensitive code);
/// * QIT tuples — `arity = d + 1` (QI values plus the group id,
///   Definition 3);
/// * ST records — `arity = 3` (group id, sensitive value, count);
/// * QI-group file entries — `arity = d + 2` (tuple plus group id).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct U32RowCodec {
    arity: usize,
}

impl U32RowCodec {
    /// Rows of `arity` u32 values. Panics when `arity` is zero.
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0, "row records need at least one field");
        U32RowCodec { arity }
    }

    /// Number of u32 fields per record.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Encoded length in bytes of every record: four per field.
    pub fn record_len(&self) -> usize {
        self.arity * 4
    }
}

/// A page payload for `words`: each word's little-endian bytes, in order,
/// in a buffer of exactly `4 · words.len()` bytes.
pub(crate) fn encode_page(words: &[u32]) -> Vec<u8> {
    let mut payload = vec![0u8; words.len() * 4];
    for (bytes, w) in payload.chunks_exact_mut(4).zip(words) {
        bytes.copy_from_slice(&w.to_le_bytes());
    }
    payload
}

/// Decode a payload of little-endian words into `out`, overwriting it.
/// Callers pass verified pages, whose length is a whole number of
/// records and so of words.
pub(crate) fn decode_page(payload: &[u8], out: &mut Vec<u32>) {
    debug_assert_eq!(payload.len() % 4, 0, "a page holds whole 4-byte fields");
    out.clear();
    out.extend(
        payload
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferPool, IoCounter, PageConfig, SeqWriter, SimFile};

    #[test]
    fn round_trip() {
        let words = [1, 2, 3, 4, 5, u32::MAX];
        let payload = encode_page(&words);
        assert_eq!(payload.len(), 4 * words.len());
        // A stale, longer buffer is overwritten, not appended to.
        let mut back = vec![9; 10];
        decode_page(&payload, &mut back);
        assert_eq!(back, words);
    }

    #[test]
    fn record_len_is_four_per_field() {
        assert_eq!(U32RowCodec::new(1).record_len(), 4);
        assert_eq!(U32RowCodec::new(8).record_len(), 32);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn push_of_the_wrong_arity_panics() {
        let (pool, mut file) = (BufferPool::unbounded(), SimFile::new());
        let codec = U32RowCodec::new(2);
        let cfg = PageConfig::with_page_size(64);
        let mut w = SeqWriter::open(&mut file, codec, cfg, &pool, IoCounter::new()).unwrap();
        let _ = w.push(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn zero_arity_rejected() {
        let _ = U32RowCodec::new(0);
    }

    #[test]
    fn encoding_is_little_endian() {
        assert_eq!(encode_page(&[0x0102_0304]), vec![0x04, 0x03, 0x02, 0x01]);
    }
}
