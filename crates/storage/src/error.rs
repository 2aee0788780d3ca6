//! Error type for the simulated storage layer.

use std::fmt;

/// Errors produced by the simulated storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A record is larger than a page and can never be stored.
    RecordTooLarge {
        /// Encoded record length in bytes.
        record_len: usize,
        /// Configured page size in bytes.
        page_size: usize,
    },
    /// The buffer pool has no free frames for a requested lease.
    PoolExhausted {
        /// Pages requested.
        requested: usize,
        /// Pages currently free.
        available: usize,
        /// Total pool capacity.
        capacity: usize,
    },
    /// An operation was asked to partition into zero buckets, or a similar
    /// degenerate request.
    InvalidArgument(String),
    /// A page header's magic number is wrong: the bytes are not a page
    /// written by this layer (or the header itself was damaged).
    BadMagic {
        /// Index of the offending page within its file.
        page: usize,
        /// The magic value actually found.
        found: u32,
    },
    /// A page header carries a format version this build does not read.
    UnsupportedVersion {
        /// Index of the offending page within its file.
        page: usize,
        /// The version actually found.
        found: u16,
    },
    /// A page's checksum does not match its payload: the stored bytes
    /// were altered after the header was computed.
    ChecksumMismatch {
        /// Index of the offending page within its file.
        page: usize,
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the bytes actually read.
        found: u32,
    },
    /// Fewer bytes (or records) than promised survived on disk: a short
    /// write or read cut the data off.
    Truncated {
        /// Index of the page where the shortfall was detected (one past
        /// the last page when the file itself ends early).
        page: usize,
        /// Units promised by the metadata.
        expected: usize,
        /// Units actually present.
        found: usize,
    },
    /// The simulated device rejected a page write (ENOSPC).
    DiskFull {
        /// Index the rejected page would have had.
        page: usize,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::RecordTooLarge {
                record_len,
                page_size,
            } => write!(
                f,
                "record of {record_len} bytes cannot fit in a {page_size}-byte page"
            ),
            StorageError::PoolExhausted {
                requested,
                available,
                capacity,
            } => write!(
                f,
                "buffer pool exhausted: requested {requested} pages, {available} free of {capacity}"
            ),
            StorageError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            StorageError::BadMagic { page, found } => {
                write!(
                    f,
                    "page {page}: bad magic 0x{found:08x}, not an anatomy page"
                )
            }
            StorageError::UnsupportedVersion { page, found } => {
                write!(f, "page {page}: unsupported page-format version {found}")
            }
            StorageError::ChecksumMismatch {
                page,
                expected,
                found,
            } => write!(
                f,
                "page {page}: checksum mismatch (header 0x{expected:08x}, payload 0x{found:08x})"
            ),
            StorageError::Truncated {
                page,
                expected,
                found,
            } => write!(
                f,
                "truncated at page {page}: expected {expected}, found {found}"
            ),
            StorageError::DiskFull { page } => {
                write!(f, "device full: page {page} could not be written")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_numbers() {
        let e = StorageError::RecordTooLarge {
            record_len: 8192,
            page_size: 4096,
        };
        assert!(e.to_string().contains("8192"));
        let e = StorageError::PoolExhausted {
            requested: 3,
            available: 1,
            capacity: 50,
        };
        assert!(e.to_string().contains("50"));
    }

    #[test]
    fn integrity_variants_name_the_page() {
        let cases: Vec<StorageError> = vec![
            StorageError::BadMagic {
                page: 7,
                found: 0xdead_beef,
            },
            StorageError::UnsupportedVersion { page: 7, found: 9 },
            StorageError::ChecksumMismatch {
                page: 7,
                expected: 1,
                found: 2,
            },
            StorageError::Truncated {
                page: 7,
                expected: 96,
                found: 12,
            },
            StorageError::DiskFull { page: 7 },
        ];
        for e in cases {
            assert!(e.to_string().contains('7'), "{e}");
        }
    }
}
