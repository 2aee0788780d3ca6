//! Sequential record files over simulated pages.
//!
//! A [`SimFile`] is a sequence of byte pages, each holding at most
//! `page_size` payload bytes of fixed-size records back to back, plus an
//! out-of-band [`PageHeader`] (magic, format version, record count,
//! CRC-32). [`SeqWriter`] charges one page write each time an output
//! buffer fills (plus one for the final partial page); [`SeqReader`]
//! charges one page read each time it crosses into a new page, and
//! verifies each page's header before yielding records from it. These
//! are exactly the sequential-scan semantics assumed by Theorem 3's
//! `O(n/b)` analysis — the header lives outside the payload, so the
//! per-page record capacity `b` (and every I/O count built on it) is
//! identical to the unchecked layout.

use crate::buffer::{BufferPool, PageLease};
use crate::counter::IoCounter;
use crate::error::StorageError;
use crate::fault;
use crate::page::{PageConfig, PageHeader};
use crate::record::{decode_page, encode_page, U32RowCodec};

/// One stored page: integrity header plus payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Page {
    header: PageHeader,
    payload: Box<[u8]>,
}

/// An in-memory simulated file: a vector of checksummed byte pages.
///
/// ```
/// use anatomy_storage::{
///     BufferPool, IoCounter, PageConfig, SeqReader, SeqWriter, SimFile, U32RowCodec,
/// };
///
/// let cfg = PageConfig::paper(); // 4096-byte pages
/// let pool = BufferPool::paper(); // 50-page memory budget
/// let counter = IoCounter::new();
/// let codec = U32RowCodec::new(3);
///
/// let mut file = SimFile::new();
/// let mut w = SeqWriter::open(&mut file, codec, cfg, &pool, counter.clone())?;
/// for i in 0..1000u32 {
///     w.push(&[i, i * 2, i * 3])?;
/// }
/// w.finish()?;
/// // 341 twelve-byte records per 4096-byte page -> 3 pages written.
/// assert_eq!(counter.stats().page_writes, 3);
///
/// let mut r = SeqReader::open(&file, codec, &pool, counter.clone())?;
/// let mut sum = 0u64;
/// while let Some(row) = r.next_row()? {
///     sum += u64::from(row[1]);
/// }
/// assert_eq!(sum, 999 * 1000);
/// assert_eq!(counter.stats().page_reads, 3);
/// # Ok::<(), anatomy_storage::StorageError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimFile {
    pages: Vec<Page>,
    record_count: usize,
}

impl SimFile {
    /// A new empty file.
    pub fn new() -> Self {
        SimFile::default()
    }

    /// Number of pages on "disk".
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Number of records stored.
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// Whether the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.record_count == 0
    }

    /// Total payload bytes stored (sum of used page bytes, headers
    /// excluded).
    pub fn byte_len(&self) -> usize {
        self.pages.iter().map(|p| p.payload.len()).sum()
    }
}

/// Sequential writer that packs fixed-size records into pages.
///
/// Holds one buffer page leased from the pool for the duration of the
/// write. The page being filled is kept as `u32` words and encoded to
/// little-endian bytes once, when it is flushed. [`SeqWriter::push_rows`]
/// appends whole rows back to back, a page's worth per slice copy;
/// [`SeqWriter::push`] is its one-row view. Either way a full page is
/// flushed only when the next row arrives, so the stored pages and the
/// write bill do not depend on how the rows were split into calls. Each
/// flushed page gets a [`PageHeader`] computed over the payload the
/// writer intends to store, so later readers can prove the bytes survived
/// intact. Pushes and [`SeqWriter::finish`] are fallible — the simulated
/// device can reject a write ([`StorageError::DiskFull`] under fault
/// injection) — and dropping an unfinished writer flushes best-effort,
/// ignoring errors; pipelines that care call `finish()` explicitly.
pub struct SeqWriter<'a> {
    arity: usize,
    counter: IoCounter,
    file: &'a mut SimFile,
    /// The page being filled, as words; holds at most `page_words`.
    words: Vec<u32>,
    page_words: usize,
    write_ns: anatomy_obs::Histogram,
    _lease: PageLease,
}

impl<'a> SeqWriter<'a> {
    /// Open a writer appending to `file`, leasing one buffer page from
    /// `pool`. Errors with [`StorageError::RecordTooLarge`] when no
    /// record of this shape fits a page.
    pub fn open(
        file: &'a mut SimFile,
        codec: U32RowCodec,
        cfg: PageConfig,
        pool: &BufferPool,
        counter: IoCounter,
    ) -> Result<Self, StorageError> {
        let page_words = cfg.records_per_page(codec.record_len())? * codec.arity();
        let lease = pool.try_lease(1)?;
        Ok(SeqWriter {
            arity: codec.arity(),
            counter,
            file,
            words: Vec::with_capacity(page_words),
            page_words,
            write_ns: anatomy_obs::global().histogram("storage.page_write_ns"),
            _lease: lease,
        })
    }

    /// Append one record, flushing the buffered page first if it is full:
    /// [`SeqWriter::push_rows`] of a single record.
    ///
    /// Panics when `record` does not have the writer's arity.
    #[inline]
    pub fn push(&mut self, record: &[u32]) -> Result<(), StorageError> {
        // A row of another width would shift every field after it.
        assert_eq!(
            record.len(),
            self.arity,
            "row arity mismatch: codec expects {}, record has {}",
            self.arity,
            record.len()
        );
        if self.words.len() == self.page_words {
            self.flush_page()?;
        }
        self.words.extend_from_slice(record);
        self.file.record_count += 1;
        Ok(())
    }

    /// Append whole records stored back to back, a page-sized slice copy
    /// at a time, flushing each full page as the next record needs room:
    /// the pages, headers and write bill are those of pushing the records
    /// one at a time. On an error the records before the rejected page's
    /// stay counted, as they would one at a time.
    ///
    /// Panics when `rows` does not hold a whole number of records.
    pub fn push_rows(&mut self, mut rows: &[u32]) -> Result<(), StorageError> {
        assert_eq!(
            rows.len() % self.arity,
            0,
            "partial row: codec expects rows of {} fields, got {} fields",
            self.arity,
            rows.len()
        );
        while !rows.is_empty() {
            if self.words.len() == self.page_words {
                self.flush_page()?;
            }
            // Both bounds are whole records: a page holds whole records.
            let take = (self.page_words - self.words.len()).min(rows.len());
            let (head, rest) = rows.split_at(take);
            self.words.extend_from_slice(head);
            self.file.record_count += take / self.arity;
            rows = rest;
        }
        Ok(())
    }

    fn flush_page(&mut self) -> Result<(), StorageError> {
        if self.words.is_empty() {
            return Ok(());
        }
        let records = (self.words.len() / self.arity) as u32;
        let mut payload = encode_page(&self.words);
        self.words.clear();
        // The header describes the payload the writer *meant* to store;
        // anything the (possibly faulty) device does to the bytes after
        // this point is caught at read time.
        let header = PageHeader::for_payload(&payload, records);
        let page_idx = self.file.pages.len();
        // Clock reads only while the registry records (latency is
        // telemetry; the exact IoCounter stays authoritative either way).
        let t0 = anatomy_obs::global()
            .enabled()
            .then(std::time::Instant::now);
        fault::on_write(&mut payload, page_idx)?;
        self.file.pages.push(Page {
            header,
            payload: payload.into_boxed_slice(),
        });
        self.counter.add_writes(1);
        if let Some(t0) = t0 {
            self.write_ns
                .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        Ok(())
    }

    /// Flush the final partial page and release the buffer.
    pub fn finish(mut self) -> Result<(), StorageError> {
        self.flush_page()
        // Drop runs next, but the buffer is now empty (flush_page clears
        // it even on error), so its flush is a no-op either way.
    }
}

impl Drop for SeqWriter<'_> {
    fn drop(&mut self) {
        let _ = self.flush_page();
    }
}

/// Sequential reader over a [`SimFile`].
///
/// Holds one buffer page leased from the pool. A page read is charged
/// lazily when the cursor first touches each page. On first touch the
/// payload is copied into the reader's scratch bytes and its header is
/// verified (magic, format version, length, checksum), so damaged pages
/// surface as one typed [`StorageError`] instead of garbage records; a
/// verified page is decoded once into words. [`SeqReader::next_page`]
/// yields the current page's unread records as one slice of those words;
/// [`SeqReader::next_row`] is its one-record view, and the `Iterator`
/// copies each record into a fresh row. The reader yields exactly
/// [`SimFile::record_count`] records or an error: a file whose pages end
/// early produces [`StorageError::Truncated`]. After the first error the
/// reader is fused: `next_page` and `next_row` return `Ok(None)` and the
/// iterator `None`.
pub struct SeqReader<'a> {
    arity: usize,
    counter: IoCounter,
    file: &'a SimFile,
    /// The next page to fetch.
    page_idx: usize,
    /// The current page, decoded, and the word where its next row starts.
    words: Vec<u32>,
    offset: usize,
    /// Records in the pages fetched so far.
    fetched: usize,
    failed: bool,
    /// One page's bytes as read back, before verification.
    bytes: Vec<u8>,
    read_ns: anatomy_obs::Histogram,
    _lease: PageLease,
}

impl<'a> SeqReader<'a> {
    /// Open a reader over `file`, leasing one buffer page from `pool`.
    pub fn open(
        file: &'a SimFile,
        codec: U32RowCodec,
        pool: &BufferPool,
        counter: IoCounter,
    ) -> Result<Self, StorageError> {
        let lease = pool.try_lease(1)?;
        Ok(SeqReader {
            arity: codec.arity(),
            counter,
            file,
            page_idx: 0,
            words: Vec::new(),
            offset: 0,
            fetched: 0,
            failed: false,
            bytes: Vec::new(),
            read_ns: anatomy_obs::global().histogram("storage.page_read_ns"),
            _lease: lease,
        })
    }

    fn fail(&mut self, e: StorageError) -> StorageError {
        self.failed = true;
        e
    }

    /// Make the next page current: charge the read, copy the payload
    /// (read faults apply to the copy, never the stored bytes), verify
    /// its header and decode it. `Ok(false)` at the end of the pages,
    /// when the file's metadata confirms every record was fetched.
    fn fetch_page(&mut self) -> Result<bool, StorageError> {
        let idx = self.page_idx;
        let Some(page) = self.file.pages.get(idx) else {
            // End of pages: the file's own metadata says how many
            // records there should have been.
            if self.fetched < self.file.record_count {
                let (expected, found) = (self.file.record_count, self.fetched);
                return Err(self.fail(StorageError::Truncated {
                    page: idx,
                    expected,
                    found,
                }));
            }
            return Ok(false);
        };
        self.counter.add_reads(1);
        let t0 = anatomy_obs::global()
            .enabled()
            .then(std::time::Instant::now);
        self.bytes.clear();
        self.bytes.extend_from_slice(&page.payload);
        fault::on_read(&mut self.bytes, idx);
        let verified = page.header.verify(&self.bytes, self.arity * 4, idx);
        if verified.is_ok() {
            decode_page(&self.bytes, &mut self.words);
        }
        if let Some(t0) = t0 {
            self.read_ns
                .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
        verified.map_err(|e| self.fail(e))?;
        self.offset = 0;
        self.page_idx += 1;
        self.fetched += self.words.len() / self.arity;
        Ok(true)
    }

    /// Whether unread records remain, fetching pages until one has some.
    /// `Ok(false)` at the end of the file and after the first error.
    #[inline]
    fn fill(&mut self) -> Result<bool, StorageError> {
        if self.failed {
            return Ok(false);
        }
        while self.offset == self.words.len() {
            if !self.fetch_page()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The current page's unread records, back to back, as one slice of
    /// the decoded page; the next call moves on to the next page. Returns
    /// `Ok(None)` at the end of the file and after the first error.
    ///
    /// The records, first error, page-read bill and fusing are those of
    /// reading the same records one at a time with
    /// [`SeqReader::next_row`]; the two may be mixed.
    #[inline]
    pub fn next_page(&mut self) -> Result<Option<&[u32]>, StorageError> {
        if !self.fill()? {
            return Ok(None);
        }
        let start = self.offset;
        self.offset = self.words.len();
        Ok(Some(&self.words[start..]))
    }

    /// The next record, as a slice of the current decoded page. Returns
    /// `Ok(None)` at the end of the file and after the first error.
    #[inline]
    pub fn next_row(&mut self) -> Result<Option<&[u32]>, StorageError> {
        if !self.fill()? {
            return Ok(None);
        }
        let start = self.offset;
        self.offset += self.arity;
        Ok(Some(&self.words[start..self.offset]))
    }
}

impl Iterator for SeqReader<'_> {
    type Item = Result<Vec<u32>, StorageError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_row()
            .map(|row| row.map(<[u32]>::to_vec))
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultScope};

    fn setup() -> (PageConfig, BufferPool, IoCounter) {
        // Tiny pages: 3 records of arity 2 (8 bytes each) per 25-byte page.
        (
            PageConfig::with_page_size(25),
            BufferPool::new(8),
            IoCounter::new(),
        )
    }

    /// The records a drain saw before the first error, and that error.
    type Drained = (Vec<Vec<u32>>, Option<StorageError>);

    /// Drain `r` through `next_row`. The reader must stay fused
    /// afterwards.
    fn drain_rows(mut r: SeqReader<'_>) -> Drained {
        let mut rows = Vec::new();
        let err = loop {
            match r.next_row() {
                Ok(Some(row)) => rows.push(row.to_vec()),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        assert_eq!(r.next_row(), Ok(None), "reader must be fused");
        (rows, err)
    }

    /// The same drain a page at a time through `next_page`, split back
    /// into records.
    fn drain_pages(mut r: SeqReader<'_>) -> Drained {
        let arity = r.arity;
        let mut rows = Vec::new();
        let err = loop {
            match r.next_page() {
                Ok(Some(page)) => {
                    assert!(!page.is_empty(), "a yielded page holds records");
                    rows.extend(page.chunks_exact(arity).map(<[u32]>::to_vec));
                }
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        assert_eq!(r.next_page(), Ok(None), "reader must be fused");
        (rows, err)
    }

    /// The same drain through the iterator.
    fn drain_iter(mut r: SeqReader<'_>) -> Drained {
        let mut rows = Vec::new();
        let err = r.by_ref().find_map(|rec| match rec {
            Ok(row) => {
                rows.push(row);
                None
            }
            Err(e) => Some(e),
        });
        assert!(r.next().is_none(), "iterator must be fused");
        (rows, err)
    }

    /// Drain `file` through each of `next_row`, `next_page` and the
    /// iterator, each under a fresh scope of `faults` and its own counter.
    /// All three must agree on the records, the first error and the
    /// page-read bill, and stay fused; returns what they saw.
    fn drain_three_ways(
        file: &SimFile,
        codec: U32RowCodec,
        pool: &BufferPool,
        faults: &FaultConfig,
    ) -> (Drained, crate::IoStats) {
        let arm = |drain: fn(SeqReader<'_>) -> Drained| {
            let _scope = FaultScope::install(faults.clone());
            let counter = IoCounter::new();
            let r = SeqReader::open(file, codec, pool, counter.clone()).unwrap();
            (drain(r), counter.stats())
        };
        let by_rows = arm(drain_rows);
        assert_eq!(arm(drain_pages), by_rows, "next_page");
        assert_eq!(arm(drain_iter), by_rows, "iterator");
        by_rows
    }

    /// The per-record encoder the page writer replaced, kept as the
    /// oracle of the stored layout: each field's little-endian bytes.
    fn encode(record: &[u32], out: &mut Vec<u8>) {
        for &v in record {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn write_ten(cfg: PageConfig, pool: &BufferPool, counter: &IoCounter) -> SimFile {
        let mut file = SimFile::new();
        let codec = U32RowCodec::new(2);
        let mut w = SeqWriter::open(&mut file, codec, cfg, pool, counter.clone()).unwrap();
        for i in 0..10u32 {
            w.push(&[i, i * 10]).unwrap();
        }
        w.finish().unwrap();
        file
    }

    #[test]
    fn write_read_round_trip() {
        let (cfg, pool, counter) = setup();
        let file = write_ten(cfg, &pool, &counter);
        let codec = U32RowCodec::new(2);

        assert_eq!(file.record_count(), 10);
        // 3 records per page -> ceil(10/3) = 4 pages
        assert_eq!(file.page_count(), 4);
        assert_eq!(counter.stats().page_writes, 4);

        let r = SeqReader::open(&file, codec, &pool, counter.clone()).unwrap();
        let rows: Vec<Vec<u32>> = r.map(|x| x.unwrap()).collect();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[7], vec![7, 70]);
        assert_eq!(counter.stats().page_reads, 4);

        // A page at a time: same records, same bill.
        let r = SeqReader::open(&file, codec, &pool, counter.clone()).unwrap();
        assert_eq!(drain_pages(r), (rows, None));
        assert_eq!(counter.stats().page_reads, 8);

        // Mixed: a page yields only the records `next_row` left unread.
        let mut r = SeqReader::open(&file, codec, &pool, counter.clone()).unwrap();
        assert_eq!(r.next_row(), Ok(Some(&[0, 0][..])));
        assert_eq!(r.next_page(), Ok(Some(&[1, 10, 2, 20][..])));
        assert_eq!(r.next_row(), Ok(Some(&[3, 30][..])));
        assert_eq!(r.next_page(), Ok(Some(&[4, 40, 5, 50][..])));
        assert_eq!(counter.stats().page_reads, 10);
    }

    #[test]
    fn io_matches_page_math() {
        let cfg = PageConfig::with_page_size(4096);
        let pool = BufferPool::unbounded();
        let counter = IoCounter::new();
        let codec = U32RowCodec::new(8); // 32 bytes -> 128 per page
        let mut file = SimFile::new();
        let mut w = SeqWriter::open(&mut file, codec, cfg, &pool, counter.clone()).unwrap();
        let n = 1000usize;
        for i in 0..n {
            w.push(&[i as u32; 8]).unwrap();
        }
        w.finish().unwrap();
        let expected_pages = cfg.pages_for(n, codec.record_len()).unwrap();
        assert_eq!(expected_pages, 8); // ceil(1000/128)
        assert_eq!(file.page_count(), expected_pages);
        assert_eq!(counter.stats().page_writes, expected_pages as u64);
    }

    #[test]
    fn empty_file_costs_nothing() {
        let (cfg, pool, counter) = setup();
        let mut file = SimFile::new();
        let codec = U32RowCodec::new(2);
        let w = SeqWriter::open(&mut file, codec, cfg, &pool, counter.clone()).unwrap();
        w.finish().unwrap();
        assert!(file.is_empty());
        assert_eq!(file.page_count(), 0);

        let mut r = SeqReader::open(&file, codec, &pool, counter.clone()).unwrap();
        assert!(r.next().is_none());
        assert_eq!(counter.stats().total(), 0);
    }

    #[test]
    fn writer_and_reader_hold_leases() {
        let (cfg, pool, counter) = setup();
        let mut file = SimFile::new();
        let codec = U32RowCodec::new(2);
        {
            let _w = SeqWriter::open(&mut file, codec, cfg, &pool, counter.clone()).unwrap();
            assert_eq!(pool.in_use(), 1);
        }
        assert_eq!(pool.in_use(), 0);
        {
            let _r = SeqReader::open(&file, codec, &pool, counter.clone()).unwrap();
            assert_eq!(pool.in_use(), 1);
        }
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn pool_exhaustion_blocks_open() {
        let (cfg, _, counter) = setup();
        let pool = BufferPool::new(1);
        let mut file = SimFile::new();
        let codec = U32RowCodec::new(2);
        let _w = SeqWriter::open(&mut file, codec, cfg, &pool, counter.clone()).unwrap();
        let file2 = SimFile::new();
        assert!(matches!(
            SeqReader::open(&file2, codec, &pool, counter),
            Err(StorageError::PoolExhausted { .. })
        ));
    }

    #[test]
    fn oversized_record_rejected() {
        let cfg = PageConfig::with_page_size(4);
        let pool = BufferPool::unbounded();
        let counter = IoCounter::new();
        let mut file = SimFile::new();
        assert!(matches!(
            SeqWriter::open(&mut file, U32RowCodec::new(2), cfg, &pool, counter),
            Err(StorageError::RecordTooLarge {
                record_len: 8,
                page_size: 4
            })
        ));
    }

    #[test]
    fn reader_surfaces_faults_in_page_order() {
        let (cfg, pool, counter) = setup();
        let clean = write_ten(cfg, &pool, &counter);
        let codec = U32RowCodec::new(2);
        let faults = FaultConfig::new().bit_flip_read(2, 7);
        // `next_row`, `next_page` and the iterator see the same records
        // and the same error at the same page-read bill.
        let ((rows, err), bill) = drain_three_ways(&clean, codec, &pool, &faults);
        // Pages 0 and 1 still yield all their records (3 each) before the
        // damaged page 2 stops the scan.
        assert_eq!(rows.len(), 6);
        assert!(
            matches!(err, Some(StorageError::ChecksumMismatch { page: 2, .. })),
            "{err:?}"
        );
        // Pages are charged as they are fetched: 0, 1 and the damaged 2.
        assert_eq!(bill.page_reads, 3);
    }

    #[test]
    #[should_panic(expected = "partial row")]
    fn push_rows_of_a_partial_row_panics() {
        let (cfg, pool, counter) = setup();
        let mut file = SimFile::new();
        let mut w = SeqWriter::open(&mut file, U32RowCodec::new(2), cfg, &pool, counter).unwrap();
        let _ = w.push_rows(&[1, 2, 3]);
    }

    #[test]
    fn drop_flushes_partial_page() {
        let (cfg, pool, counter) = setup();
        let mut file = SimFile::new();
        let codec = U32RowCodec::new(2);
        {
            let mut w = SeqWriter::open(&mut file, codec, cfg, &pool, counter.clone()).unwrap();
            w.push(&[1, 2]).unwrap();
            // dropped without finish()
        }
        assert_eq!(file.record_count(), 1);
        assert_eq!(file.page_count(), 1);
    }

    fn first_error(file: &SimFile, pool: &BufferPool) -> StorageError {
        let codec = U32RowCodec::new(2);
        let mut r = SeqReader::open(file, codec, pool, IoCounter::new()).unwrap();
        let e = r
            .by_ref()
            .find_map(|x| x.err())
            .expect("reader must surface an error");
        // After an error the iterator is fused.
        assert!(r.next().is_none());
        e
    }

    #[test]
    fn short_write_surfaces_as_truncated_page() {
        let (cfg, pool, counter) = setup();
        let file = {
            let _scope = FaultScope::install(FaultConfig::new().short_write(1, 3));
            write_ten(cfg, &pool, &counter)
        };
        assert!(matches!(
            first_error(&file, &pool),
            StorageError::Truncated {
                page: 1,
                expected: 24,
                found: 3
            }
        ));
    }

    #[test]
    fn bit_flips_surface_as_checksum_mismatch() {
        let (cfg, pool, counter) = setup();
        let flipped_on_write = {
            let _scope = FaultScope::install(FaultConfig::new().bit_flip_write(2, 40));
            write_ten(cfg, &pool, &counter)
        };
        assert!(matches!(
            first_error(&flipped_on_write, &pool),
            StorageError::ChecksumMismatch { page: 2, .. }
        ));

        let clean = write_ten(cfg, &pool, &counter);
        let _scope = FaultScope::install(FaultConfig::new().bit_flip_read(0, 7));
        assert!(matches!(
            first_error(&clean, &pool),
            StorageError::ChecksumMismatch { page: 0, .. }
        ));
    }

    #[test]
    fn short_read_surfaces_as_truncated_page() {
        let (cfg, pool, counter) = setup();
        let clean = write_ten(cfg, &pool, &counter);
        let _scope = FaultScope::install(FaultConfig::new().short_read(3, 2));
        assert!(matches!(
            first_error(&clean, &pool),
            StorageError::Truncated {
                page: 3,
                expected: 8, // the last page holds the one leftover record
                found: 2
            }
        ));
    }

    #[test]
    fn disk_full_fails_the_write_and_reads_see_truncation() {
        let (cfg, pool, counter) = setup();
        let mut file = SimFile::new();
        let codec = U32RowCodec::new(2);
        let err = {
            let _scope = FaultScope::install(FaultConfig::new().disk_full(1));
            let mut w = SeqWriter::open(&mut file, codec, cfg, &pool, counter.clone()).unwrap();
            let mut err = None;
            for i in 0..10u32 {
                if let Err(e) = w.push(&[i, i]) {
                    err = Some(e);
                    break;
                }
            }
            err.or_else(|| w.finish().err())
        };
        assert!(matches!(err, Some(StorageError::DiskFull { page: 1 })));
        // The rejected page is gone; metadata still promises its records,
        // so a later read reports the shortfall instead of inventing data.
        assert_eq!(file.page_count(), 1);
        assert!(matches!(
            first_error(&file, &pool),
            StorageError::Truncated { .. }
        ));
    }

    #[test]
    fn faultless_scope_changes_nothing() {
        let (cfg, pool, counter) = setup();
        let _scope = FaultScope::install(FaultConfig::new());
        let file = write_ten(cfg, &pool, &counter);
        let codec = U32RowCodec::new(2);
        let r = SeqReader::open(&file, codec, &pool, counter.clone()).unwrap();
        let rows: Vec<_> = r.map(|x| x.unwrap()).collect();
        assert_eq!(rows.len(), 10);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            /// Any record batch round-trips through a SimFile (checksums
            /// verified on every page), and the I/O bill matches the page
            /// arithmetic exactly.
            #[test]
            fn write_read_round_trip(
                records in proptest::collection::vec(
                    proptest::collection::vec(0u32..1_000_000, 3..=3), 0..200),
                page_size in 16usize..512,
            ) {
                let cfg = PageConfig::with_page_size(page_size);
                let codec = U32RowCodec::new(3);
                prop_assume!(codec.record_len() <= page_size);
                let pool = BufferPool::unbounded();
                let counter = IoCounter::new();
                let mut file = SimFile::new();
                let mut w =
                    SeqWriter::open(&mut file, codec, cfg, &pool, counter.clone()).unwrap();
                for r in &records {
                    w.push(r).unwrap();
                }
                w.finish().unwrap();
                let expected_pages = cfg.pages_for(records.len(), codec.record_len()).unwrap();
                prop_assert_eq!(file.page_count(), expected_pages);
                prop_assert_eq!(counter.stats().page_writes, expected_pages as u64);

                let r = SeqReader::open(&file, codec, &pool, counter.clone()).unwrap();
                let back: Vec<Vec<u32>> = r.map(|x| x.unwrap()).collect();
                prop_assert_eq!(&back, &records);
                prop_assert_eq!(counter.stats().page_reads, expected_pages as u64);

                let r = SeqReader::open(&file, codec, &pool, counter.clone()).unwrap();
                prop_assert_eq!(drain_pages(r), (records.clone(), None));
                prop_assert_eq!(counter.stats().page_reads, 2 * expected_pages as u64);

                let r = SeqReader::open(&file, codec, &pool, counter.clone()).unwrap();
                prop_assert_eq!(drain_rows(r), (records, None));
                prop_assert_eq!(counter.stats().page_reads, 3 * expected_pages as u64);
            }

            /// Every stored page is exactly the per-field little-endian
            /// encoding of its rows, with a header over those bytes: the
            /// writer's page-at-a-time encoding stores what the per-record
            /// encoder stored. `push_rows` over any split of the same rows
            /// stores the same pages and bills the same writes as `push`.
            #[test]
            fn stored_pages_are_the_per_field_encoding(
                arity_pick in 0usize..4,
                size_pick in 0usize..3,
                fields in proptest::collection::vec(0u32..=u32::MAX, 0..4000),
                cuts in proptest::collection::vec(0usize..400, 0..12),
            ) {
                let arity = [1, 3, 6, 7][arity_pick];
                let cfg = PageConfig::with_page_size([25, 64, 4096][size_pick]);
                let codec = U32RowCodec::new(arity);
                let rows: Vec<&[u32]> = fields.chunks_exact(arity).collect();
                let pool = BufferPool::unbounded();
                let mut file = SimFile::new();
                let by_row = IoCounter::new();
                let opened = SeqWriter::open(&mut file, codec, cfg, &pool, by_row.clone());
                if codec.record_len() > cfg.page_size {
                    // Seven fields (28 bytes) do not fit a 25-byte page.
                    prop_assert!(matches!(opened, Err(StorageError::RecordTooLarge { .. })));
                    return Ok(());
                }
                let mut w = opened.unwrap();
                for row in &rows {
                    w.push(row).unwrap();
                }
                w.finish().unwrap();
                // The same rows in runs of `cuts` rows (a run may be empty
                // or cross pages), the rest in one call.
                let whole = &fields[..rows.len() * arity];
                let by_run = IoCounter::new();
                let mut split = SimFile::new();
                let mut w = SeqWriter::open(&mut split, codec, cfg, &pool, by_run.clone()).unwrap();
                let mut rest = whole;
                for &cut in &cuts {
                    let (run, tail) = rest.split_at((cut * arity).min(rest.len()));
                    w.push_rows(run).unwrap();
                    rest = tail;
                }
                w.push_rows(rest).unwrap();
                w.finish().unwrap();
                prop_assert_eq!(&split, &file);
                prop_assert_eq!(by_run.stats(), by_row.stats());
                let per_page = cfg.records_per_page(codec.record_len()).unwrap();
                prop_assert_eq!(file.pages.len(), rows.len().div_ceil(per_page));
                for (page, chunk) in file.pages.iter().zip(rows.chunks(per_page)) {
                    let mut expected = Vec::new();
                    for row in chunk {
                        encode(row, &mut expected);
                    }
                    prop_assert_eq!(&page.payload[..], &expected[..]);
                    prop_assert_eq!(
                        page.header,
                        PageHeader::for_payload(&expected, chunk.len() as u32)
                    );
                }
            }

            /// A single seeded fault anywhere in the schedule never makes
            /// the pipeline panic or silently corrupt: the round trip
            /// either reproduces the input exactly or reports a typed
            /// error.
            #[test]
            fn seeded_fault_is_loud_or_harmless(seed in 0u64..1024) {
                let cfg = PageConfig::with_page_size(16);
                let codec = U32RowCodec::new(2);
                let pool = BufferPool::unbounded();
                let records: Vec<Vec<u32>> = (0..20u32).map(|i| vec![i, i * 3]).collect();
                let faults = FaultConfig::seeded(seed);
                let _scope = FaultScope::install(faults.clone());
                let mut file = SimFile::new();
                let mut w =
                    SeqWriter::open(&mut file, codec, cfg, &pool, IoCounter::new()).unwrap();
                let mut write_err = None;
                for r in &records {
                    if let Err(e) = w.push(r) {
                        write_err = Some(e);
                        break;
                    }
                }
                let write_err = if write_err.is_none() {
                    w.finish().err()
                } else {
                    drop(w);
                    write_err
                };
                if write_err.is_none() {
                    // Each read arm replays the schedule's read faults from
                    // read op 0, as the single read of the file would.
                    let read_faults = faults
                        .faults()
                        .filter(|(_, kind)| !kind.is_write())
                        .fold(FaultConfig::new(), |cfg, (op, kind)| cfg.with_fault(op, kind));
                    // `next_row`, `next_page` and the iterator see the same
                    // records, first error and bill, and stay fused.
                    let (by_rows, _) = drain_three_ways(&file, codec, &pool, &read_faults);
                    // A read error here is a loud failure, which is
                    // acceptable; only silent corruption is not.
                    if let (rows, None) = by_rows {
                        prop_assert_eq!(rows, records);
                    }
                }
            }
        }
    }
}
