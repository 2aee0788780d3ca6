//! # anatomy-storage
//!
//! Simulated paged storage with *logical I/O accounting*.
//!
//! The Anatomy paper's efficiency claims are stated in logical I/Os:
//! `Anatomize` runs in `O(n/b)` I/Os with `O(λ)` memory (Theorem 3), and the
//! experiments of Section 6.2 count page I/Os with a 4096-byte page size and
//! a memory capacity of 50 pages (Figures 8–9). Reproducing those figures
//! requires a storage layer that *counts pages*, not a physical disk — the
//! paper itself reports counts, not seconds.
//!
//! This crate provides:
//!
//! * [`IoCounter`] — thread-safe read/write page counters shared by every
//!   component of one experiment;
//! * [`U32RowCodec`] — the fixed-size row shape, so a page holds
//!   `⌊page_size / record_len⌋` records exactly as in the paper's `b`
//!   records-per-page arithmetic;
//! * [`SimFile`] with [`SeqWriter`] / [`SeqReader`] — sequential record
//!   files materialized as real byte pages, charging one write per emitted
//!   page and one read per consumed page; each page is encoded once when
//!   written and decoded once when read, and rows move as `&[u32]` slices;
//! * [`BufferPool`] — a fixed budget of in-memory pages with RAII
//!   [`PageLease`]s, used by the external algorithms to *prove* they respect
//!   the 50-page memory limit rather than merely claim it;
//! * [`fn@hash_partition`] — external hash partitioning (the first phase of
//!   `Anatomize`), with recursive multi-pass splitting when the fan-out
//!   exceeds the buffer budget.
//!
//! Every stored page carries a [`PageHeader`] (magic, format version,
//! record count, CRC-32) verified on read, and the [`fault`] module can
//! inject short reads/writes, bit flips, and ENOSPC on a seeded schedule
//! so error paths are tested, not assumed.

pub mod buffer;
pub mod counter;
pub mod error;
pub mod fault;
pub mod file;
pub mod hash_partition;
pub mod page;
pub mod record;

pub use buffer::{BufferPool, PageLease};
pub use counter::{IoCounter, IoStats};
pub use error::StorageError;
pub use fault::{FaultConfig, FaultKind, FaultScope};
pub use file::{SeqReader, SeqWriter, SimFile};
pub use hash_partition::hash_partition;
pub use page::{
    crc32, PageConfig, PageHeader, DEFAULT_PAGE_SIZE, PAGE_FORMAT_VERSION, PAGE_MAGIC,
    PAPER_MEMORY_PAGES,
};
pub use record::U32RowCodec;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, StorageError>;
