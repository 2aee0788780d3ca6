//! Fixed-size record codecs.
//!
//! Files in this workspace store *fixed-size* records: tuples of `u32`
//! codes, optionally with a group id. Fixed-size records make the paper's
//! per-page arithmetic exact — a page holds `⌊page_size / record_len⌋`
//! records, which is the `b` of the `O(n/b)` bounds in Theorem 3.

use crate::error::StorageError;

/// A codec for records of one fixed encoded size.
///
/// Implementations must encode every record to exactly
/// [`FixedCodec::record_len`] bytes.
pub trait FixedCodec {
    /// The record type this codec serializes.
    type Record;

    /// Encoded length in bytes of every record.
    fn record_len(&self) -> usize;

    /// Append the record's encoding (exactly `record_len` bytes) to `out`.
    fn encode(&self, record: &Self::Record, out: &mut Vec<u8>);

    /// Decode one record from the front of `buf` into `out`, overwriting
    /// it (exactly `record_len` bytes are consumed). Reusing one `out`
    /// across calls keeps a scan free of per-record allocation.
    fn decode_into(&self, buf: &mut &[u8], out: &mut Self::Record) -> Result<(), StorageError>;
}

/// Codec for rows of `arity` little-endian `u32` codes.
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
    /// A codec for rows of `arity` u32 values.
    pub fn new(arity: usize) -> Self {
        assert!(arity > 0, "row records need at least one field");
        U32RowCodec { arity }
    }

    /// Number of u32 fields per record.
    pub fn arity(&self) -> usize {
        self.arity
    }
}

impl FixedCodec for U32RowCodec {
    type Record = Vec<u32>;

    fn record_len(&self) -> usize {
        self.arity * 4
    }

    fn encode(&self, record: &Vec<u32>, out: &mut Vec<u8>) {
        assert_eq!(
            record.len(),
            self.arity,
            "row arity mismatch: codec expects {}, record has {}",
            self.arity,
            record.len()
        );
        for &v in record {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode_into(&self, buf: &mut &[u8], out: &mut Vec<u32>) -> Result<(), StorageError> {
        let Some((bytes, rest)) = buf.split_at_checked(self.record_len()) else {
            return Err(StorageError::Decode(format!(
                "need {} bytes for a {}-field row, have {}",
                self.record_len(),
                self.arity,
                buf.len()
            )));
        };
        out.clear();
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])),
        );
        *buf = rest;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let codec = U32RowCodec::new(3);
        let mut bytes = Vec::new();
        codec.encode(&vec![1, 2, 3], &mut bytes);
        codec.encode(&vec![4, 5, u32::MAX], &mut bytes);
        assert_eq!(bytes.len(), 2 * codec.record_len());

        let mut cursor: &[u8] = &bytes;
        // A stale, longer row is overwritten, not appended to.
        let mut row = vec![9; 5];
        codec.decode_into(&mut cursor, &mut row).unwrap();
        assert_eq!(row, vec![1, 2, 3]);
        codec.decode_into(&mut cursor, &mut row).unwrap();
        assert_eq!(row, vec![4, 5, u32::MAX]);
        assert!(cursor.is_empty());
    }

    #[test]
    fn record_len_is_four_per_field() {
        assert_eq!(U32RowCodec::new(1).record_len(), 4);
        assert_eq!(U32RowCodec::new(8).record_len(), 32);
    }

    #[test]
    fn decode_short_buffer_errors() {
        let codec = U32RowCodec::new(2);
        let bytes = [1u8, 2, 3]; // 3 bytes < 8
        let mut cursor: &[u8] = &bytes;
        assert!(matches!(
            codec.decode_into(&mut cursor, &mut Vec::new()),
            Err(StorageError::Decode(_))
        ));
        // Nothing is consumed on failure.
        assert_eq!(cursor.len(), 3);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn encode_wrong_arity_panics() {
        let codec = U32RowCodec::new(2);
        let mut out = Vec::new();
        codec.encode(&vec![1, 2, 3], &mut out);
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn zero_arity_rejected() {
        let _ = U32RowCodec::new(0);
    }

    #[test]
    fn encoding_is_little_endian() {
        let codec = U32RowCodec::new(1);
        let mut out = Vec::new();
        codec.encode(&vec![0x0102_0304], &mut out);
        assert_eq!(out, vec![0x04, 0x03, 0x02, 0x01]);
    }
}
