//! Page-size configuration and the on-page integrity header.

use crate::error::StorageError;

#[cfg(target_arch = "x86_64")]
mod clmul;

/// The paper's page size: "with the page size set to 4096 bytes"
/// (Section 6.2).
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// The paper's memory budget: "a memory capacity of 50 pages"
/// (Section 6.2).
pub const PAPER_MEMORY_PAGES: usize = 50;

/// Magic number opening every page header: `b"ANAT"` read little-endian.
pub const PAGE_MAGIC: u32 = u32::from_le_bytes(*b"ANAT");

/// Current page-format version. Readers reject anything else.
pub const PAGE_FORMAT_VERSION: u16 = 1;

/// Page-size configuration shared by files and pools of one experiment.
///
/// `page_size` is the *payload* capacity of a page; the integrity header
/// ([`PageHeader`]) is carried out of band, so record arithmetic — and
/// with it every `O(n/b)` I/O count in Figures 8-9 — is unchanged by
/// checksumming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageConfig {
    /// Page size in bytes. Must be positive.
    pub page_size: usize,
}

impl PageConfig {
    /// The paper's configuration (4096-byte pages).
    pub const fn paper() -> Self {
        PageConfig {
            page_size: DEFAULT_PAGE_SIZE,
        }
    }

    /// A custom page size, validated: errors with
    /// [`StorageError::InvalidArgument`] for a zero page size instead of
    /// panicking. Prefer this in library code; [`PageConfig::with_page_size`]
    /// is the panicking shorthand for tests and constants.
    pub fn new(page_size: usize) -> Result<Self, StorageError> {
        if page_size == 0 {
            return Err(StorageError::InvalidArgument(
                "page size must be positive".to_string(),
            ));
        }
        Ok(PageConfig { page_size })
    }

    /// A custom page size (primarily for tests, which use tiny pages to
    /// exercise page-boundary logic with few records). Panics on a zero
    /// page size; use [`PageConfig::new`] for a typed error instead.
    pub fn with_page_size(page_size: usize) -> Self {
        PageConfig::new(page_size).expect("page size must be positive")
    }

    /// Records of `record_len` bytes that fit in one page (`b` in the
    /// paper's `O(n/b)` bounds).
    ///
    /// Errors with [`StorageError::RecordTooLarge`] when no record fits a
    /// page, and [`StorageError::InvalidArgument`] for zero-length
    /// records (a page would hold infinitely many).
    pub fn records_per_page(&self, record_len: usize) -> Result<usize, StorageError> {
        if record_len == 0 {
            return Err(StorageError::InvalidArgument(
                "zero-length records have no page capacity".to_string(),
            ));
        }
        let per = self.page_size / record_len;
        if per == 0 {
            return Err(StorageError::RecordTooLarge {
                record_len,
                page_size: self.page_size,
            });
        }
        Ok(per)
    }

    /// Pages needed to store `records` records of `record_len` bytes.
    pub fn pages_for(&self, records: usize, record_len: usize) -> Result<usize, StorageError> {
        Ok(records.div_ceil(self.records_per_page(record_len)?))
    }
}

impl Default for PageConfig {
    fn default() -> Self {
        PageConfig::paper()
    }
}

/// Integrity header attached to every stored page.
///
/// Computed by [`SeqWriter`](crate::SeqWriter) over the payload it
/// *intends* to store, and verified by [`SeqReader`](crate::SeqReader)
/// against the bytes it actually gets back, so any damage in between — a
/// short write, a flipped bit, a foreign page — surfaces as a typed
/// [`StorageError`] instead of silently corrupt records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHeader {
    /// [`PAGE_MAGIC`], always.
    pub magic: u32,
    /// [`PAGE_FORMAT_VERSION`], always.
    pub version: u16,
    /// Records encoded in this page's payload.
    pub record_count: u32,
    /// CRC-32 (IEEE) of the payload bytes.
    pub checksum: u32,
}

impl PageHeader {
    /// Header for a payload holding `record_count` records.
    pub fn for_payload(payload: &[u8], record_count: u32) -> PageHeader {
        PageHeader {
            magic: PAGE_MAGIC,
            version: PAGE_FORMAT_VERSION,
            record_count,
            checksum: crc32(payload),
        }
    }

    /// Verify `payload` (as read back from page `page`) against this
    /// header, for records of `record_len` bytes.
    ///
    /// Checks run in a fixed order — magic, version, length, checksum —
    /// so each physical fault maps to one deterministic error: a short
    /// read/write is reported as [`StorageError::Truncated`] (the length
    /// check fires before the checksum one), a bit flip as
    /// [`StorageError::ChecksumMismatch`].
    pub fn verify(
        &self,
        payload: &[u8],
        record_len: usize,
        page: usize,
    ) -> Result<(), StorageError> {
        if self.magic != PAGE_MAGIC {
            return Err(StorageError::BadMagic {
                page,
                found: self.magic,
            });
        }
        if self.version != PAGE_FORMAT_VERSION {
            return Err(StorageError::UnsupportedVersion {
                page,
                found: self.version,
            });
        }
        let expected = (self.record_count as usize).saturating_mul(record_len);
        if payload.len() != expected {
            return Err(StorageError::Truncated {
                page,
                expected,
                found: payload.len(),
            });
        }
        let found = crc32(payload);
        if found != self.checksum {
            return Err(StorageError::ChecksumMismatch {
                page,
                expected: self.checksum,
                found,
            });
        }
        Ok(())
    }
}

/// Slicing-by-16 tables for the reflected IEEE polynomial `0xEDB88320`:
/// `T[0]` is the classic bytewise table and `T[k][b]` is the CRC state
/// after feeding byte `b` followed by `k` zero bytes, so one lookup per
/// byte of a 16-byte block advances the state over the whole block.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// Buffers at least this long take the carry-less-multiply kernel when
/// the CPU has one. Shorter ones stay on slicing-by-16, where the
/// kernel's lane set-up and final reduction would be much of the work.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN_LEN: usize = 128;

/// CRC-32 (IEEE 802.3 polynomial, the zlib/`cksum -o 3` variant) of
/// `bytes`. This is the page checksum, computed on every page write and
/// verified on every read.
///
/// On x86-64 CPUs with PCLMULQDQ and SSE4.1, detected at run time,
/// buffers of 128 bytes or more fold their 16-byte blocks by carry-less
/// multiplication. Shorter buffers, the tail after the last block, other
/// CPUs and other architectures run dependency-free slicing-by-16. Both
/// kernels compute the same function.
pub fn crc32(bytes: &[u8]) -> u32 {
    let (state, tail) = fold_blocks(!0, bytes);
    !crc32_sliced(state, tail)
}

/// Advance the CRC `state` over the whole 16-byte blocks of `bytes` with
/// the carry-less kernel, when the CPU has it and the buffer is long
/// enough to pay for it; returns the new state and the bytes left.
#[cfg(target_arch = "x86_64")]
fn fold_blocks(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
    if bytes.len() >= CLMUL_MIN_LEN {
        let (blocks, tail) = bytes.split_at(bytes.len() & !15);
        if let Some(folded) = clmul::update(state, blocks) {
            return (folded, tail);
        }
    }
    (state, bytes)
}

#[cfg(not(target_arch = "x86_64"))]
fn fold_blocks(state: u32, bytes: &[u8]) -> (u32, &[u8]) {
    (state, bytes)
}

/// Slicing-by-16: advance the CRC `state` (the register before the final
/// inversion) over `bytes`, 16 bytes per step through 16 KiB of
/// const-built tables, then a bytewise tail.
fn crc32_sliced(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let word = |i: usize| u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        let (w0, w1, w2, w3) = (word(0) ^ c, word(4), word(8), word(12));
        let byte = |w: u32, shift: u32| ((w >> shift) & 0xFF) as usize;
        c = t[15][byte(w0, 0)]
            ^ t[14][byte(w0, 8)]
            ^ t[13][byte(w0, 16)]
            ^ t[12][byte(w0, 24)]
            ^ t[11][byte(w1, 0)]
            ^ t[10][byte(w1, 8)]
            ^ t[9][byte(w1, 16)]
            ^ t[8][byte(w1, 24)]
            ^ t[7][byte(w2, 0)]
            ^ t[6][byte(w2, 8)]
            ^ t[5][byte(w2, 16)]
            ^ t[4][byte(w2, 24)]
            ^ t[3][byte(w3, 0)]
            ^ t[2][byte(w3, 8)]
            ^ t[1][byte(w3, 16)]
            ^ t[0][byte(w3, 24)];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        assert_eq!(DEFAULT_PAGE_SIZE, 4096);
        assert_eq!(PAPER_MEMORY_PAGES, 50);
        assert_eq!(PageConfig::paper().page_size, 4096);
        assert_eq!(PageConfig::default(), PageConfig::paper());
    }

    #[test]
    fn records_per_page_floor() {
        let cfg = PageConfig::with_page_size(100);
        assert_eq!(cfg.records_per_page(30).unwrap(), 3);
        assert_eq!(cfg.records_per_page(100).unwrap(), 1);
    }

    #[test]
    fn oversized_and_degenerate_records_are_typed_errors() {
        // Regression: these used to report capacity 0 / usize::MAX and
        // let callers divide by zero downstream.
        let cfg = PageConfig::with_page_size(100);
        assert_eq!(
            cfg.records_per_page(101),
            Err(StorageError::RecordTooLarge {
                record_len: 101,
                page_size: 100
            })
        );
        assert_eq!(
            cfg.pages_for(5, 101),
            Err(StorageError::RecordTooLarge {
                record_len: 101,
                page_size: 100
            })
        );
        assert!(matches!(
            cfg.records_per_page(0),
            Err(StorageError::InvalidArgument(_))
        ));
        assert!(matches!(
            cfg.pages_for(10, 0),
            Err(StorageError::InvalidArgument(_))
        ));
    }

    #[test]
    fn pages_for_rounds_up() {
        let cfg = PageConfig::with_page_size(100);
        assert_eq!(cfg.pages_for(0, 30).unwrap(), 0);
        assert_eq!(cfg.pages_for(3, 30).unwrap(), 1);
        assert_eq!(cfg.pages_for(4, 30).unwrap(), 2);
        assert_eq!(cfg.pages_for(301, 10).unwrap(), 31);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_page_size_rejected() {
        let _ = PageConfig::with_page_size(0);
    }

    #[test]
    fn typed_constructor_rejects_zero_without_panicking() {
        assert!(matches!(
            PageConfig::new(0),
            Err(StorageError::InvalidArgument(_))
        ));
        assert_eq!(PageConfig::new(64).unwrap(), PageConfig::with_page_size(64));
    }

    #[test]
    fn crc32_known_answer() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bytewise table loop: one table lookup per byte, advancing the
    /// register `c` like [`crc32_sliced`]. The oracle of both kernels.
    fn bytewise(mut c: u32, bytes: &[u8]) -> u32 {
        let t = &CRC32_TABLES[0];
        for &b in bytes {
            c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytewise(!0, bytes)
    }

    /// Buffer lengths the kernel tests cover: every boundary of the
    /// 16-byte blocks, the 64-byte fold step and the 128-byte dispatch
    /// threshold, plus whole pages (146 records of 28 bytes fill 4088).
    const KERNEL_LENGTHS: [usize; 15] = [
        0, 1, 15, 16, 63, 64, 127, 128, 129, 191, 192, 193, 4088, 4092, 4096,
    ];

    /// The carry-less kernel alone: its 16-byte blocks folded by
    /// `clmul::update`, the tail by the bytewise oracle. `None` when the
    /// CPU lacks the kernel's features or the buffer is shorter than its
    /// four lanes.
    #[cfg(target_arch = "x86_64")]
    fn crc32_clmul_only(bytes: &[u8]) -> Option<u32> {
        if bytes.len() < 64 {
            return None;
        }
        let (blocks, tail) = bytes.split_at(bytes.len() & !15);
        clmul::update(!0, blocks).map(|state| !bytewise(state, tail))
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn crc32_clmul_only(_: &[u8]) -> Option<u32> {
        None
    }

    fn clmul_available() -> bool {
        crc32_clmul_only(&[0u8; 64]).is_some()
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]
            /// `crc32` equals the bytewise CRC on random buffers of
            /// 0..=8192 bytes, at every length mod 16 (every tail length
            /// after the 16-byte blocks) and at every start alignment.
            #[test]
            fn crc32_matches_bytewise(
                bytes in proptest::collection::vec(0u8..=255, 0..=8192),
                start in 0usize..16,
            ) {
                for tail in 0..16usize {
                    let end = bytes.len().saturating_sub(tail);
                    let from = start.min(end);
                    let buf = &bytes[from..end];
                    prop_assert_eq!(crc32(buf), crc32_bytewise(buf), "len {}", buf.len());
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            /// The slicing kernel alone equals the oracle at every kernel
            /// length and start offset. Where `crc32` dispatches to the
            /// carry-less kernel, this is the only test that gives the
            /// fallback buffers of 128 bytes and more.
            #[test]
            fn sliced_kernel_matches_bytewise(
                bytes in proptest::collection::vec(0u8..=255, 4096 + 16),
            ) {
                for len in KERNEL_LENGTHS {
                    for start in 0..16 {
                        let buf = &bytes[start..start + len];
                        prop_assert_eq!(
                            !crc32_sliced(!0, buf),
                            crc32_bytewise(buf),
                            "len {} start {}", len, start
                        );
                    }
                }
            }

            /// The carry-less kernel alone equals the oracle at every
            /// kernel length it can take (four lanes, 64 bytes, or more)
            /// and every start offset.
            #[test]
            fn clmul_kernel_matches_bytewise(
                bytes in proptest::collection::vec(0u8..=255, 4096 + 16),
            ) {
                if !clmul_available() {
                    eprintln!("no PCLMULQDQ/SSE4.1 on this CPU: carry-less kernel not tested");
                    return Ok(());
                }
                for len in KERNEL_LENGTHS.into_iter().filter(|&len| len >= 64) {
                    for start in 0..16 {
                        let buf = &bytes[start..start + len];
                        prop_assert_eq!(
                            crc32_clmul_only(buf),
                            Some(crc32_bytewise(buf)),
                            "len {} start {}", len, start
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn header_verifies_intact_payload_and_catches_damage() {
        let payload = vec![7u8; 24];
        let h = PageHeader::for_payload(&payload, 3);
        assert_eq!(h.magic, PAGE_MAGIC);
        assert_eq!(h.version, PAGE_FORMAT_VERSION);
        h.verify(&payload, 8, 0).unwrap();

        // Single bit flip -> checksum mismatch.
        let mut flipped = payload.clone();
        flipped[5] ^= 0x10;
        assert!(matches!(
            h.verify(&flipped, 8, 4),
            Err(StorageError::ChecksumMismatch { page: 4, .. })
        ));

        // Lost tail -> truncation, reported before the checksum check.
        assert!(matches!(
            h.verify(&payload[..16], 8, 2),
            Err(StorageError::Truncated {
                page: 2,
                expected: 24,
                found: 16
            })
        ));

        // Foreign bytes -> bad magic wins over everything else.
        let alien = PageHeader {
            magic: 0x1234_5678,
            ..h
        };
        assert!(matches!(
            alien.verify(&flipped, 8, 1),
            Err(StorageError::BadMagic { page: 1, .. })
        ));
        let future = PageHeader { version: 2, ..h };
        assert!(matches!(
            future.verify(&payload, 8, 1),
            Err(StorageError::UnsupportedVersion { page: 1, found: 2 })
        ));
    }
}
