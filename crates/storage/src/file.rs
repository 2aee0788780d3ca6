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
use crate::record::FixedCodec;

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
///     w.push(&vec![i, i * 2, i * 3])?;
/// }
/// w.finish()?;
/// // 341 twelve-byte records per 4096-byte page -> 3 pages written.
/// assert_eq!(counter.stats().page_writes, 3);
///
/// let r = SeqReader::open(&file, codec, &pool, counter.clone())?;
/// assert_eq!(r.count(), 1000);
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
/// write. Each flushed page gets a [`PageHeader`] computed over the
/// payload the writer intends to store, so later readers can prove the
/// bytes survived intact. [`SeqWriter::push`] and [`SeqWriter::finish`]
/// are fallible — the simulated device can reject a write
/// ([`StorageError::DiskFull`] under fault injection) — and dropping an
/// unfinished writer flushes best-effort, ignoring errors; pipelines
/// that care call `finish()` explicitly.
pub struct SeqWriter<'a, C: FixedCodec> {
    codec: C,
    cfg: PageConfig,
    counter: IoCounter,
    file: &'a mut SimFile,
    buf: Vec<u8>,
    buf_records: u32,
    write_ns: anatomy_obs::Histogram,
    _lease: PageLease,
}

impl<'a, C: FixedCodec> SeqWriter<'a, C> {
    /// Open a writer appending to `file`, leasing one buffer page from
    /// `pool`. Errors with [`StorageError::RecordTooLarge`] when no
    /// record of this codec fits a page.
    pub fn open(
        file: &'a mut SimFile,
        codec: C,
        cfg: PageConfig,
        pool: &BufferPool,
        counter: IoCounter,
    ) -> Result<Self, StorageError> {
        Self::open_buffered(file, codec, cfg, pool, counter, 1)
    }

    /// Open a writer holding `buffers` leased pages instead of one.
    ///
    /// The extra pages model double-buffered output: with two buffers the
    /// device can drain page `k` while the writer fills `k + 1`, so the
    /// sharded pipeline's QIT/ST emitters lease two pages each and the
    /// budget accounting charges what the overlap actually costs. Record
    /// layout, page contents and the I/O bill are identical to
    /// [`SeqWriter::open`] — only the lease size differs.
    pub fn open_buffered(
        file: &'a mut SimFile,
        codec: C,
        cfg: PageConfig,
        pool: &BufferPool,
        counter: IoCounter,
        buffers: usize,
    ) -> Result<Self, StorageError> {
        if buffers == 0 {
            return Err(StorageError::InvalidArgument(
                "writer needs at least one buffer page".into(),
            ));
        }
        cfg.records_per_page(codec.record_len())?;
        let lease = pool.try_lease(buffers)?;
        Ok(SeqWriter {
            codec,
            cfg,
            counter,
            file,
            buf: Vec::with_capacity(cfg.page_size),
            buf_records: 0,
            write_ns: anatomy_obs::global().histogram("storage.page_write_ns"),
            _lease: lease,
        })
    }

    /// Append one record, flushing the buffered page first if the record
    /// would not fit.
    pub fn push(&mut self, record: &C::Record) -> Result<(), StorageError> {
        if self.buf.len() + self.codec.record_len() > self.cfg.page_size {
            self.flush_page()?;
        }
        self.codec.encode(record, &mut self.buf);
        self.buf_records += 1;
        self.file.record_count += 1;
        Ok(())
    }

    fn flush_page(&mut self) -> Result<(), StorageError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut payload = std::mem::replace(&mut self.buf, Vec::with_capacity(self.cfg.page_size));
        let records = std::mem::take(&mut self.buf_records);
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
        // Drop runs next, but the buffer is now empty (flush_page takes
        // it even on error), so its flush is a no-op either way.
    }
}

impl<C: FixedCodec> Drop for SeqWriter<'_, C> {
    fn drop(&mut self) {
        let _ = self.flush_page();
    }
}

/// Sequential reader over a [`SimFile`].
///
/// Holds one buffer page leased from the pool. [`SeqReader::next_into`]
/// decodes the next record into a caller's record, and `Iterator` is
/// built on it, yielding freshly allocated records; a page read is
/// charged lazily when the cursor first touches each page. On first touch
/// the payload is copied into one of the reader's recycled page buffers
/// and its header is verified (magic, format version, length, checksum),
/// so damaged pages surface as one typed [`StorageError`] instead of
/// garbage records. The reader yields exactly [`SimFile::record_count`]
/// records or an error: a file whose pages end early produces
/// [`StorageError::Truncated`]. After the first error the reader is
/// fused: `next_into` returns `Ok(false)` and the iterator `None`.
pub struct SeqReader<'a, C: FixedCodec> {
    codec: C,
    counter: IoCounter,
    file: &'a SimFile,
    page_idx: usize,
    offset: usize,
    buf: Vec<u8>,
    loaded: bool,
    yielded: usize,
    failed: bool,
    prefetch: usize,
    queue: std::collections::VecDeque<(usize, Result<Vec<u8>, StorageError>)>,
    /// Page buffers already consumed, refilled by the next fetch.
    spare: Vec<Vec<u8>>,
    read_ns: anatomy_obs::Histogram,
    _lease: PageLease,
}

impl<'a, C: FixedCodec> SeqReader<'a, C> {
    /// Open a reader over `file`, leasing one buffer page from `pool`.
    pub fn open(
        file: &'a SimFile,
        codec: C,
        pool: &BufferPool,
        counter: IoCounter,
    ) -> Result<Self, StorageError> {
        Self::open_with_prefetch(file, codec, pool, counter, 1)
    }

    /// Open a reader that prefetches up to `depth` pages per device trip,
    /// leasing `depth` buffer pages from `pool`.
    ///
    /// A sequential scan touches pages strictly in order, so fetching the
    /// next `depth` pages in one batch models the overlapped read-ahead a
    /// real device would do. Records, error ordering and the page-read
    /// bill are identical to [`SeqReader::open`]; prefetched pages are
    /// charged when the batch is fetched rather than one at a time, and
    /// each page's header is still verified before any of its records are
    /// yielded. `depth == 1` is exactly the unbatched reader.
    pub fn open_with_prefetch(
        file: &'a SimFile,
        codec: C,
        pool: &BufferPool,
        counter: IoCounter,
        depth: usize,
    ) -> Result<Self, StorageError> {
        if depth == 0 {
            return Err(StorageError::InvalidArgument(
                "reader needs a prefetch depth of at least one page".into(),
            ));
        }
        let lease = pool.try_lease(depth)?;
        Ok(SeqReader {
            codec,
            counter,
            file,
            page_idx: 0,
            offset: 0,
            buf: Vec::new(),
            loaded: false,
            yielded: 0,
            failed: false,
            prefetch: depth,
            queue: std::collections::VecDeque::new(),
            spare: Vec::new(),
            read_ns: anatomy_obs::global().histogram("storage.page_read_ns"),
            _lease: lease,
        })
    }

    fn fail(&mut self, e: StorageError) -> StorageError {
        self.failed = true;
        e
    }

    /// Fetch one batch of up to `prefetch` pages starting at `from`:
    /// charge the reads, copy each payload (read faults apply to the
    /// copy, never the stored bytes) and verify its header. Results are
    /// queued in page order so consumption surfaces errors exactly where
    /// an unbatched reader would.
    fn fetch_batch(&mut self, from: usize) {
        let until = (from + self.prefetch).min(self.file.pages.len());
        for idx in from..until {
            let page = &self.file.pages[idx];
            self.counter.add_reads(1);
            let t0 = anatomy_obs::global()
                .enabled()
                .then(std::time::Instant::now);
            let mut buf = self.spare.pop().unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(&page.payload);
            fault::on_read(&mut buf, idx);
            let verified = page.header.verify(&buf, self.codec.record_len(), idx);
            if let Some(t0) = t0 {
                self.read_ns
                    .record(t0.elapsed().as_nanos().min(u64::MAX as u128) as u64);
            }
            self.queue.push_back((idx, verified.map(|()| buf)));
        }
    }

    /// Decode the next record into `out`, overwriting it. Returns
    /// `Ok(false)` at the end of the file and after the first error.
    ///
    /// The allocation-free path every scan uses: a loop that reuses one
    /// `out` decodes the whole file without allocating per record, with
    /// the same records, first error and page-read bill as the iterator.
    pub fn next_into(&mut self, out: &mut C::Record) -> Result<bool, StorageError> {
        if self.failed {
            return Ok(false);
        }
        loop {
            if !self.loaded {
                if self.queue.is_empty() {
                    self.fetch_batch(self.page_idx);
                }
                let Some((idx, loaded)) = self.queue.pop_front() else {
                    // End of pages: the file's own metadata says how many
                    // records there should have been.
                    if self.yielded < self.file.record_count {
                        let (expected, found, page) =
                            (self.file.record_count, self.yielded, self.page_idx);
                        return Err(self.fail(StorageError::Truncated {
                            page,
                            expected,
                            found,
                        }));
                    }
                    return Ok(false);
                };
                debug_assert_eq!(idx, self.page_idx);
                match loaded {
                    Ok(buf) => {
                        let done = std::mem::replace(&mut self.buf, buf);
                        self.spare.push(done);
                        self.offset = 0;
                        self.loaded = true;
                    }
                    Err(e) => return Err(self.fail(e)),
                }
            }
            let len = self.codec.record_len();
            if self.offset + len <= self.buf.len() {
                let mut slice = &self.buf[self.offset..];
                if let Err(e) = self.codec.decode_into(&mut slice, out) {
                    return Err(self.fail(e));
                }
                self.offset += len;
                self.yielded += 1;
                return Ok(true);
            }
            // move to next page
            self.page_idx += 1;
            self.loaded = false;
        }
    }
}

impl<C: FixedCodec> Iterator for SeqReader<'_, C>
where
    C::Record: Default,
{
    type Item = Result<C::Record, StorageError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut rec = C::Record::default();
        match self.next_into(&mut rec) {
            Ok(true) => Some(Ok(rec)),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultScope};
    use crate::record::U32RowCodec;

    fn setup() -> (PageConfig, BufferPool, IoCounter) {
        // Tiny pages: 3 records of arity 2 (8 bytes each) per 25-byte page.
        (
            PageConfig::with_page_size(25),
            BufferPool::new(8),
            IoCounter::new(),
        )
    }

    /// Drain `r` through `next_into` with one reused row: the records
    /// before the first error, and that error. The reader must stay
    /// fused afterwards.
    fn drain_into(mut r: SeqReader<'_, U32RowCodec>) -> (Vec<Vec<u32>>, Option<StorageError>) {
        let mut rows = Vec::new();
        let mut row = Vec::new();
        let err = loop {
            match r.next_into(&mut row) {
                Ok(true) => rows.push(row.clone()),
                Ok(false) => break None,
                Err(e) => break Some(e),
            }
        };
        assert_eq!(r.next_into(&mut row), Ok(false), "reader must be fused");
        (rows, err)
    }

    /// The same drain through the iterator.
    fn drain_iter(mut r: SeqReader<'_, U32RowCodec>) -> (Vec<Vec<u32>>, Option<StorageError>) {
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

    fn write_ten(cfg: PageConfig, pool: &BufferPool, counter: &IoCounter) -> SimFile {
        let mut file = SimFile::new();
        let codec = U32RowCodec::new(2);
        let mut w = SeqWriter::open(&mut file, codec, cfg, pool, counter.clone()).unwrap();
        for i in 0..10u32 {
            w.push(&vec![i, i * 10]).unwrap();
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

        // The allocation-free path: same records, same bill.
        let r = SeqReader::open(&file, codec, &pool, counter.clone()).unwrap();
        assert_eq!(drain_into(r), (rows, None));
        assert_eq!(counter.stats().page_reads, 8);
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
            w.push(&vec![i as u32; 8]).unwrap();
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
    fn prefetch_reader_matches_unbatched() {
        let (cfg, pool, counter) = setup();
        let file = write_ten(cfg, &pool, &counter); // 4 pages
        let codec = U32RowCodec::new(2);
        let plain: Vec<Vec<u32>> = SeqReader::open(&file, codec, &pool, counter.clone())
            .unwrap()
            .map(|x| x.unwrap())
            .collect();
        for depth in 1..=6 {
            let before = counter.stats().page_reads;
            let r =
                SeqReader::open_with_prefetch(&file, codec, &pool, counter.clone(), depth).unwrap();
            let rows: Vec<Vec<u32>> = r.map(|x| x.unwrap()).collect();
            assert_eq!(rows, plain, "depth={depth}");
            // Same bill: every page is read exactly once.
            assert_eq!(counter.stats().page_reads - before, 4, "depth={depth}");
        }
    }

    #[test]
    fn prefetch_reader_holds_depth_lease() {
        let (cfg, pool, counter) = setup();
        let file = write_ten(cfg, &pool, &counter);
        let codec = U32RowCodec::new(2);
        {
            let _r =
                SeqReader::open_with_prefetch(&file, codec, &pool, counter.clone(), 3).unwrap();
            assert_eq!(pool.in_use(), 3);
        }
        assert_eq!(pool.in_use(), 0);
        assert!(matches!(
            SeqReader::open_with_prefetch(&file, codec, &pool, counter.clone(), 0),
            Err(StorageError::InvalidArgument(_))
        ));
        assert!(matches!(
            SeqReader::open_with_prefetch(&file, codec, &pool, counter, 100),
            Err(StorageError::PoolExhausted { .. })
        ));
    }

    #[test]
    fn prefetch_reader_surfaces_faults_in_page_order() {
        let (cfg, pool, counter) = setup();
        let clean = write_ten(cfg, &pool, &counter);
        let codec = U32RowCodec::new(2);
        let faults = FaultConfig::new().bit_flip_read(2, 7);
        let by_iter = IoCounter::new();
        let (rows, err) = {
            let _scope = FaultScope::install(faults.clone());
            let r =
                SeqReader::open_with_prefetch(&clean, codec, &pool, by_iter.clone(), 4).unwrap();
            drain_iter(r)
        };
        // Pages 0 and 1 still yield all their records (3 each) before the
        // damaged page 2 stops the scan, exactly like the unbatched reader.
        assert_eq!(rows.len(), 6);
        assert!(matches!(
            err,
            Some(StorageError::ChecksumMismatch { page: 2, .. })
        ));

        // `next_into` surfaces the same error after the same records, at
        // the same page-read bill.
        let by_into = IoCounter::new();
        let _scope = FaultScope::install(faults);
        let r = SeqReader::open_with_prefetch(&clean, codec, &pool, by_into.clone(), 4).unwrap();
        assert_eq!(drain_into(r), (rows, err));
        assert_eq!(by_into.stats(), by_iter.stats());
    }

    #[test]
    fn buffered_writer_leases_extra_pages() {
        let (cfg, pool, counter) = setup();
        let mut file = SimFile::new();
        let codec = U32RowCodec::new(2);
        {
            let mut w =
                SeqWriter::open_buffered(&mut file, codec, cfg, &pool, counter.clone(), 2).unwrap();
            assert_eq!(pool.in_use(), 2);
            for i in 0..10u32 {
                w.push(&vec![i, i * 10]).unwrap();
            }
            w.finish().unwrap();
        }
        assert_eq!(pool.in_use(), 0);
        // Identical layout to the single-buffer writer.
        assert_eq!(file, write_ten(cfg, &pool, &counter));
        let mut other = SimFile::new();
        assert!(matches!(
            SeqWriter::open_buffered(&mut other, codec, cfg, &pool, counter, 0),
            Err(StorageError::InvalidArgument(_))
        ));
    }

    #[test]
    fn drop_flushes_partial_page() {
        let (cfg, pool, counter) = setup();
        let mut file = SimFile::new();
        let codec = U32RowCodec::new(2);
        {
            let mut w = SeqWriter::open(&mut file, codec, cfg, &pool, counter.clone()).unwrap();
            w.push(&vec![1, 2]).unwrap();
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
                if let Err(e) = w.push(&vec![i, i]) {
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
                prop_assert_eq!(drain_into(r), (records, None));
                prop_assert_eq!(counter.stats().page_reads, 2 * expected_pages as u64);
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
                    let arm = |into: bool| {
                        let _arm = FaultScope::install(read_faults.clone());
                        let counter = IoCounter::new();
                        let r = SeqReader::open(&file, codec, &pool, counter.clone()).unwrap();
                        let drained = if into { drain_into(r) } else { drain_iter(r) };
                        (drained, counter.stats())
                    };
                    let (by_iter, bill) = arm(false);
                    // `next_into` sees the same records, first error and bill.
                    prop_assert_eq!(arm(true), (by_iter.clone(), bill));
                    // A read error here is a loud failure, which is
                    // acceptable; only silent corruption is not.
                    if let (rows, None) = by_iter {
                        prop_assert_eq!(rows, records);
                    }
                }
            }
        }
    }
}
