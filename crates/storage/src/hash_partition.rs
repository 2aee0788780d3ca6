//! External hash partitioning.
//!
//! Line 2 of the paper's `Anatomize` (Figure 3) "hashes the tuples in T by
//! their As values (each bucket per As value)". With `λ` distinct sensitive
//! values and a pool of `B` buffer pages this is:
//!
//! * a single partitioning pass when `λ + 1 ≤ B` (one output buffer per
//!   bucket plus one input page), costing one read and one write of the
//!   data — the `O(n/b)` of Theorem 3; or
//! * recursive multi-pass partitioning when the fan-out exceeds the budget,
//!   splitting the key range into at most `B − 1` chunks per pass, exactly
//!   like classic external hash partitioning.
//!
//! Keys must already lie in `0..num_buckets`; for `Anatomize` the key *is*
//! the sensitive value code.

use crate::buffer::BufferPool;
use crate::counter::IoCounter;
use crate::error::StorageError;
use crate::file::{SeqReader, SeqWriter, SimFile};
use crate::page::PageConfig;
use crate::record::U32RowCodec;

/// Partition `input` into `num_buckets` files by `key(record)`.
///
/// Returns one file per key in key order (`result[k]` holds the records
/// with `key == k`); empty keys yield empty files. Fails if a record's key
/// is outside `0..num_buckets`.
pub fn hash_partition(
    input: &SimFile,
    codec: U32RowCodec,
    key: impl Fn(&[u32]) -> u32 + Copy,
    num_buckets: usize,
    cfg: PageConfig,
    pool: &BufferPool,
    counter: &IoCounter,
) -> Result<Vec<SimFile>, StorageError> {
    if num_buckets == 0 {
        return Err(StorageError::InvalidArgument(
            "cannot partition into 0 buckets".into(),
        ));
    }
    partition_range(input, codec, key, 0, num_buckets as u32, cfg, pool, counter)
}

/// One scan of `input`, routing each record into one of `nout` fresh output
/// files chosen by `bucket_of(key)`. Charges one read of the input and one
/// write of the outputs.
#[allow(clippy::too_many_arguments)]
fn write_pass(
    input: &SimFile,
    codec: U32RowCodec,
    key: impl Fn(&[u32]) -> u32,
    lo: u32,
    hi: u32,
    bucket_of: impl Fn(u32) -> usize,
    nout: usize,
    cfg: PageConfig,
    pool: &BufferPool,
    counter: &IoCounter,
) -> Result<Vec<SimFile>, StorageError> {
    let mut outputs: Vec<SimFile> = (0..nout).map(|_| SimFile::new()).collect();
    {
        let mut writers: Vec<SeqWriter<'_>> = Vec::with_capacity(nout);
        for f in outputs.iter_mut() {
            writers.push(SeqWriter::open(f, codec, cfg, pool, counter.clone())?);
        }
        let mut reader = SeqReader::open(input, codec, pool, counter.clone())?;
        while let Some(rec) = reader.next_row()? {
            let k = key(rec);
            if k < lo || k >= hi {
                return Err(StorageError::InvalidArgument(format!(
                    "record key {k} outside partition range [{lo}, {hi})"
                )));
            }
            writers[bucket_of(k)].push(rec)?;
        }
        // Finish explicitly so a failed flush of a partial page (e.g. a
        // full device) propagates instead of vanishing in a drop.
        for w in writers {
            w.finish()?;
        }
    }
    Ok(outputs)
}

/// Partition the records of `input` whose keys lie in `[lo, hi)` into
/// `hi - lo` per-key files.
#[allow(clippy::too_many_arguments)]
fn partition_range(
    input: &SimFile,
    codec: U32RowCodec,
    key: impl Fn(&[u32]) -> u32 + Copy,
    lo: u32,
    hi: u32,
    cfg: PageConfig,
    pool: &BufferPool,
    counter: &IoCounter,
) -> Result<Vec<SimFile>, StorageError> {
    let span = (hi - lo) as usize;
    debug_assert!(span >= 1);

    // Buffer budget for this pass: one input page plus one output page per
    // partition. A pool smaller than 3 pages cannot even split two ways.
    let budget = pool.capacity().saturating_sub(pool.in_use());
    if budget < 3 {
        return Err(StorageError::PoolExhausted {
            requested: 3,
            available: budget,
            capacity: pool.capacity(),
        });
    }
    let max_fanout = budget - 1;

    if span <= max_fanout {
        // Direct pass: one output file per key.
        return write_pass(
            input,
            codec,
            key,
            lo,
            hi,
            |k| (k - lo) as usize,
            span,
            cfg,
            pool,
            counter,
        );
    }

    // Multi-pass: split the key range into contiguous chunks, one output
    // file per chunk, then recurse into each chunk. Use the *fewest*
    // chunks that still let each chunk finish in one more direct pass
    // (every extra chunk costs a partial output page); fall back to the
    // full fanout for ranges too wide for two levels.
    let chunks = span.div_ceil(max_fanout).min(max_fanout);
    let chunk_size = span.div_ceil(chunks);
    let chunk_files = write_pass(
        input,
        codec,
        key,
        lo,
        hi,
        |k| ((k - lo) as usize) / chunk_size,
        chunks,
        cfg,
        pool,
        counter,
    )?;

    let mut out = Vec::with_capacity(span);
    for (i, chunk_file) in chunk_files.into_iter().enumerate() {
        let c_lo = lo + (i * chunk_size) as u32;
        let c_hi = hi.min(c_lo + chunk_size as u32);
        if c_lo >= c_hi {
            continue;
        }
        let sub = partition_range(&chunk_file, codec, key, c_lo, c_hi, cfg, pool, counter)?;
        out.extend(sub);
    }
    debug_assert_eq!(out.len(), span);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_input(keys: &[u32], cfg: PageConfig, pool: &BufferPool) -> SimFile {
        let counter = IoCounter::new();
        let codec = U32RowCodec::new(2);
        let mut f = SimFile::new();
        let mut w = SeqWriter::open(&mut f, codec, cfg, pool, counter).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            w.push(&[k, i as u32]).unwrap();
        }
        w.finish().unwrap();
        f
    }

    fn read_all(f: &SimFile, pool: &BufferPool) -> Vec<Vec<u32>> {
        SeqReader::open(f, U32RowCodec::new(2), pool, IoCounter::new())
            .unwrap()
            .map(|r| r.unwrap())
            .collect()
    }

    #[test]
    fn single_pass_partitions_by_key() {
        let cfg = PageConfig::with_page_size(64);
        let pool = BufferPool::new(16);
        let keys = [2u32, 0, 1, 2, 2, 0];
        let input = make_input(&keys, cfg, &pool);
        let counter = IoCounter::new();
        let parts = hash_partition(
            &input,
            U32RowCodec::new(2),
            |r| r[0],
            3,
            cfg,
            &pool,
            &counter,
        )
        .unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].record_count(), 2);
        assert_eq!(parts[1].record_count(), 1);
        assert_eq!(parts[2].record_count(), 3);
        for (k, p) in parts.iter().enumerate() {
            for rec in read_all(p, &pool) {
                assert_eq!(rec[0] as usize, k);
            }
        }
        // All leases returned.
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn multi_pass_when_fanout_exceeds_budget() {
        let cfg = PageConfig::with_page_size(16); // 2 records per page
        let pool = BufferPool::new(4); // fanout at most 3 per pass
        let keys: Vec<u32> = (0..40).map(|i| i % 10).collect();
        let input = make_input(&keys, cfg, &pool);
        let counter = IoCounter::new();
        let parts = hash_partition(
            &input,
            U32RowCodec::new(2),
            |r| r[0],
            10,
            cfg,
            &pool,
            &counter,
        )
        .unwrap();
        assert_eq!(parts.len(), 10);
        for (k, p) in parts.iter().enumerate() {
            assert_eq!(p.record_count(), 4, "bucket {k}");
            for rec in read_all(p, &pool) {
                assert_eq!(rec[0] as usize, k);
            }
        }
        // Multi-pass must cost strictly more than one read+write of the data.
        let single_pass_cost = 2 * input.page_count() as u64;
        assert!(counter.stats().total() > single_pass_cost);
        assert_eq!(pool.in_use(), 0);
    }

    #[test]
    fn single_pass_costs_one_read_and_one_write_of_the_data() {
        let cfg = PageConfig::with_page_size(4096);
        let pool = BufferPool::new(50);
        let keys: Vec<u32> = (0..5000).map(|i| i % 10).collect();
        let input = make_input(&keys, cfg, &pool);
        let counter = IoCounter::new();
        let parts = hash_partition(
            &input,
            U32RowCodec::new(2),
            |r| r[0],
            10,
            cfg,
            &pool,
            &counter,
        )
        .unwrap();
        let in_pages = input.page_count() as u64;
        let out_pages: u64 = parts.iter().map(|p| p.page_count() as u64).sum();
        let s = counter.stats();
        assert_eq!(s.page_reads, in_pages);
        assert_eq!(s.page_writes, out_pages);
    }

    #[test]
    fn out_of_range_key_is_an_error() {
        let cfg = PageConfig::with_page_size(64);
        let pool = BufferPool::new(16);
        let input = make_input(&[5], cfg, &pool);
        let counter = IoCounter::new();
        let err = hash_partition(
            &input,
            U32RowCodec::new(2),
            |r| r[0],
            3,
            cfg,
            &pool,
            &counter,
        )
        .unwrap_err();
        assert!(matches!(err, StorageError::InvalidArgument(_)));
    }

    #[test]
    fn zero_buckets_rejected() {
        let cfg = PageConfig::with_page_size(64);
        let pool = BufferPool::new(16);
        let input = SimFile::new();
        let counter = IoCounter::new();
        assert!(hash_partition(
            &input,
            U32RowCodec::new(2),
            |r| r[0],
            0,
            cfg,
            &pool,
            &counter
        )
        .is_err());
    }

    #[test]
    fn empty_input_yields_empty_buckets() {
        let cfg = PageConfig::with_page_size(64);
        let pool = BufferPool::new(16);
        let input = SimFile::new();
        let counter = IoCounter::new();
        let parts = hash_partition(
            &input,
            U32RowCodec::new(2),
            |r| r[0],
            4,
            cfg,
            &pool,
            &counter,
        )
        .unwrap();
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|p| p.is_empty()));
        assert_eq!(counter.stats().total(), 0);
    }

    #[test]
    fn tiny_pool_is_rejected() {
        let cfg = PageConfig::with_page_size(64);
        let pool = BufferPool::new(2);
        let input = make_input(&[0], cfg, &BufferPool::unbounded());
        let counter = IoCounter::new();
        assert!(matches!(
            hash_partition(
                &input,
                U32RowCodec::new(2),
                |r| r[0],
                2,
                cfg,
                &pool,
                &counter
            ),
            Err(StorageError::PoolExhausted { .. })
        ));
    }

    #[test]
    fn partition_preserves_every_record_exactly_once() {
        let cfg = PageConfig::with_page_size(16);
        let pool = BufferPool::new(5);
        let keys: Vec<u32> = (0..97).map(|i| (i * 7) % 13).collect();
        let input = make_input(&keys, cfg, &pool);
        let counter = IoCounter::new();
        let parts = hash_partition(
            &input,
            U32RowCodec::new(2),
            |r| r[0],
            13,
            cfg,
            &pool,
            &counter,
        )
        .unwrap();
        let total: usize = parts.iter().map(|p| p.record_count()).sum();
        assert_eq!(total, 97);
        // Payload field (original position) must appear exactly once.
        let mut seen = [false; 97];
        for p in &parts {
            for rec in read_all(p, &pool) {
                let pos = rec[1] as usize;
                assert!(!seen[pos], "record {pos} duplicated");
                seen[pos] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
