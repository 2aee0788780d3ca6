//! Sharded out-of-core `Anatomize` for microdata far larger than memory.
//!
//! [`anatomize_external`](crate::anatomize_external) reproduces Theorem 3
//! at paper scale (46k rows, 50 pages); this module is the production-scale
//! engine behind it, targeting 10M–100M tuples. It exploits the structure
//! Theorem 3 proves: per-sensitive-value buckets are **independent until
//! group formation**, and group formation itself depends only on the
//! bucket *sizes*. The pipeline:
//!
//! 1. **`shard_partition`** — hash the input file into `S` shard files by
//!    contiguous sensitive-value range with
//!    [`hash_partition`](anatomy_storage::hash_partition).
//! 2. **`bucket_split`** (concurrent on [`Pool::global`]) — each shard
//!    splits into its per-value bucket files against its own
//!    [`BufferPool`] and [`IoCounter`], so shards never contend for pages
//!    and every shard's I/O bill is reported separately.
//! 3. **`group_schedule`** — stream the frequency ladder
//!    ([`ladder_schedule`]) over the λ bucket **counts** with O(λ)
//!    resident state, writing each value's group-id sequence to a
//!    per-value schedule file through λ simultaneously open writers (the
//!    O(λ) pages of Theorem 3's group phase).
//! 4. **`bucket_assign`** — per value, replay the in-memory engine's
//!    Fisher–Yates shuffle (draw consumption depends only on the bucket
//!    size, so the RNG stream is reproduced exactly), then scan the bucket
//!    file with sequential prefetch, pairing each tuple with its group id
//!    and emitting `(row_id, qi…, gid)` runs through double-buffered
//!    writes.
//! 5. **`residue_assign`** — replay the ≤ l−1 residue draws against the
//!    schedule files.
//! 6. **`qit_merge` / `st_merge`** — a λ-way merge restores the original
//!    row order for the QIT and (group, value) order for the ST, again
//!    with double-buffered output.
//!
//! Because steps 3–5 replay the exact RNG draw sequence of the in-memory
//! [`anatomize`](crate::anatomize), the published QIT/ST are **bit-for-bit
//! identical** to `AnatomizedTables::publish(md, anatomize(md, cfg), l)` —
//! the differential oracle `tests/sharded_differential.rs` and the
//! `bench_anatomize_external` identity gate pin this at every overlapping
//! scale.
//!
//! Total logical I/O stays `O(n/b)`: each phase makes a constant number of
//! sequential passes over input-sized or smaller files ([`model_pages`]
//! gives the closed-form bill the benchmark gates against). Resident state
//! is O(λ) buffer pages plus one transient O(max bucket) permutation array
//! during `bucket_assign` — the unavoidable cost of replaying the shuffle.

use crate::anatomize::{ladder_schedule, round_robin_schedule, AnatomizeConfig, BucketStrategy};
use crate::anatomize_io::tables_from_files;
use crate::diversity::check_eligibility;
use crate::error::CoreError;
use anatomy_pool::{ItemCost, Pool};
use anatomy_storage::{
    hash_partition, BufferPool, IoCounter, IoStats, PageConfig, SeqReader, SeqWriter, SimFile,
    U32RowCodec,
};
use anatomy_tables::Microdata;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// Extra pages the budget reserves so the QIT/ST emitters can
/// double-buffer: fill one page while the device drains the other.
pub const DOUBLE_BUFFER_SLACK: usize = 2;

/// Configuration of the sharded engine: page geometry plus the shard
/// fan-out and the per-shard page budget.
///
/// The run's total page budget is **derived** from this configuration —
/// `shards · pages_per_shard + DOUBLE_BUFFER_SLACK` — instead of the fixed
/// 50-page pool the external path uses. [`anatomize_sharded`] fails with
/// [`CoreError::ShardBudgetTooSmall`] when the sensitive domain demands
/// more resident state (one page per value at the schedule and merge
/// phases) than that budget supplies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    page: PageConfig,
    shards: usize,
    pages_per_shard: usize,
}

impl ShardConfig {
    /// A validated configuration. Errors with
    /// [`CoreError::InvalidShardConfig`] when `shards` is zero or
    /// `pages_per_shard` is below 3 (the minimum
    /// [`hash_partition`](anatomy_storage::hash_partition) can work with:
    /// one input page plus two output pages).
    pub fn new(page: PageConfig, shards: usize, pages_per_shard: usize) -> Result<Self, CoreError> {
        if shards == 0 {
            return Err(CoreError::InvalidShardConfig(
                "shard count must be at least 1".to_string(),
            ));
        }
        if pages_per_shard < 3 {
            return Err(CoreError::InvalidShardConfig(format!(
                "pages_per_shard must be at least 3 (one input page plus two output pages \
                 for partitioning), got {pages_per_shard}"
            )));
        }
        Ok(ShardConfig {
            page,
            shards,
            pages_per_shard,
        })
    }

    /// 4096-byte pages, 8 shards, 16 pages per shard — a sensible default
    /// for the CENSUS-shaped workloads (λ = 50) of the benchmarks.
    pub fn paper() -> Self {
        ShardConfig {
            page: PageConfig::paper(),
            shards: 8,
            pages_per_shard: 16,
        }
    }

    /// The page geometry.
    pub fn page(&self) -> PageConfig {
        self.page
    }

    /// Number of shards the sensitive domain is split into (clamped to λ
    /// at run time — a shard needs at least one sensitive value).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Buffer pages each shard's splitter may hold resident.
    pub fn pages_per_shard(&self) -> usize {
        self.pages_per_shard
    }

    /// The derived total page budget:
    /// `shards · pages_per_shard + DOUBLE_BUFFER_SLACK`.
    pub fn budget(&self) -> usize {
        self.shards
            .saturating_mul(self.pages_per_shard)
            .saturating_add(DOUBLE_BUFFER_SLACK)
    }

    /// Pages the widest phase of a run over a sensitive domain of
    /// `lambda` values keeps resident: one schedule page per value during
    /// the merges, one output writer, and the double-buffer slack.
    pub fn required_budget(lambda: usize) -> usize {
        (lambda + DOUBLE_BUFFER_SLACK).max(4)
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig::paper()
    }
}

/// Output of [`anatomize_sharded`].
#[derive(Debug, Clone)]
pub struct ShardedAnatomizeOutput {
    /// The QIT file: records `(qi_1, …, qi_d, group_id)`, in the
    /// microdata's original row order (exactly the in-memory engine's
    /// published row order).
    pub qit: SimFile,
    /// The ST file: records `(group_id, sensitive_value, 1)`, sorted by
    /// (group, value).
    pub st: SimFile,
    /// Number of QI-groups created (`⌊n/l⌋`).
    pub groups: usize,
    /// Total logical I/O of the run (all phases, all shards).
    pub stats: IoStats,
    /// Per-shard I/O of the concurrent `bucket_split` phase, in shard
    /// order.
    pub shard_stats: Vec<IoStats>,
}

impl ShardedAnatomizeOutput {
    /// Decode the QIT/ST files into validated
    /// [`AnatomizedTables`](crate::published::AnatomizedTables).
    pub fn into_tables(
        &self,
        qi_schema: anatomy_tables::Schema,
        l: usize,
    ) -> Result<crate::published::AnatomizedTables, CoreError> {
        tables_from_files(&self.qit, &self.st, qi_schema, l)
    }
}

/// The closed-form page bill of [`anatomize_sharded`] — the `O(n/b)` model
/// the benchmark's I/O gate compares measurements against.
///
/// Counts every sequential pass the pipeline makes (input → shards →
/// buckets → schedule → assigned runs → QIT/ST), with one partial-page
/// slack term per file opened. Assumes single-pass partitioning, i.e.
/// `pages_per_shard` of at least the widest shard's value count plus one;
/// narrower budgets degrade gracefully to multi-pass splits whose extra
/// passes the model does not include.
pub fn model_pages(n: usize, d: usize, lambda: usize, l: usize, shard: &ShardConfig) -> u64 {
    let page = shard.page();
    let pages = |records: usize, arity: usize| -> u64 {
        page.pages_for(records, arity * 4).unwrap_or(0) as u64
    };
    let s = shard.shards().min(lambda).max(1) as u64;
    let lam = lambda as u64;
    let input = pages(n, d + 2);
    let sched = pages(n, 1);
    let qit = pages(n, d + 1);
    let st = pages(n, 3);
    // shard_partition: read the input once, write S shard files.
    let shard_partition = input + (input + s);
    // bucket_split: read the shards, write λ bucket files.
    let bucket_split = (input + s) + (input + lam);
    // group_schedule: write λ per-value schedule files.
    let group_schedule = sched + lam;
    // bucket_assign: read each value's schedule and bucket, write the
    // assigned runs (same arity as the input).
    let bucket_assign = (sched + lam) + (input + lam) + (input + lam);
    // residue_assign: re-read the schedule files of the ≤ l−1 residual
    // values.
    let residue = (l as u64).saturating_sub(1) * (sched / lam.max(1) + 1);
    // qit_merge: read the assigned runs, write the QIT.
    let qit_merge = (input + lam) + (qit + 1);
    // st_merge: read the schedule files again, write the ST.
    let st_merge = (sched + lam) + (st + 1);
    shard_partition + bucket_split + group_schedule + bucket_assign + residue + qit_merge + st_merge
}

/// A merge-heap key: `hi` in the upper 32 bits and `lo` in the lower, so
/// keys order exactly as the `(hi, lo)` pairs they pack.
fn merge_key(hi: u32, lo: u32) -> u64 {
    (hi as u64) << 32 | lo as u64
}

/// The `(hi, lo)` pair a [`merge_key`] packs.
fn merge_key_parts(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Serialize `md` into `(qi_1, …, qi_d, s, row_id)` records without
/// charging `counter` (the microdata models pre-existing data; *reading*
/// it is charged, by the first partition pass). The trailing row id is the
/// record identifier that lets the final merge restore the original row
/// order.
fn microdata_to_rid_file(md: &Microdata, cfg: PageConfig) -> Result<SimFile, CoreError> {
    let d = md.qi_count();
    let codec = U32RowCodec::new(d + 2);
    let scratch_pool = BufferPool::unbounded();
    let mut file = SimFile::new();
    let mut w = SeqWriter::open(&mut file, codec, cfg, &scratch_pool, IoCounter::new())?;
    let mut row = vec![0u32; d + 2];
    for r in 0..md.len() {
        for (i, slot) in row.iter_mut().enumerate().take(d) {
            *slot = md.qi_value(r, i).code();
        }
        row[d] = md.sensitive_value(r).code();
        row[d + 1] = r as u32;
        w.push(&row)?;
    }
    w.finish()?;
    Ok(file)
}

/// The `pick`-th group id (ascending) among `0..m` that is neither in the
/// sorted `sched` list nor in `picked` — replaying the in-memory engine's
/// `candidates.remove(pick)` against the streamed schedule.
fn nth_candidate(pick: usize, m: usize, sched: &[u32], picked: &[u32]) -> Option<u32> {
    let mut sched_ptr = 0usize;
    let mut seen = 0usize;
    for gid in 0..m as u32 {
        while sched_ptr < sched.len() && sched[sched_ptr] < gid {
            sched_ptr += 1;
        }
        if sched_ptr < sched.len() && sched[sched_ptr] == gid {
            continue;
        }
        if picked.contains(&gid) {
            continue;
        }
        if seen == pick {
            return Some(gid);
        }
        seen += 1;
    }
    None
}

/// Run the sharded out-of-core `Anatomize` on `md`.
///
/// `counter` accumulates the run's total logical I/O (the per-shard split
/// counters are folded into it and also reported separately in the
/// output). The page budget is derived from `shard` — see [`ShardConfig`].
///
/// The published QIT/ST are bit-for-bit identical to the in-memory
/// engine's:
/// `AnatomizedTables::publish(md, &anatomize(md, config)?, config.l)`.
///
/// Row ids are stored as `u32`, so `md` may hold at most `u32::MAX` rows.
pub fn anatomize_sharded(
    md: &Microdata,
    config: &AnatomizeConfig,
    shard: &ShardConfig,
    counter: &IoCounter,
) -> Result<ShardedAnatomizeOutput, CoreError> {
    let obs = anatomy_obs::global();
    let _run = obs.span("anatomize_sharded");

    let l = config.l;
    check_eligibility(md, l)?;
    let n = md.len();
    let d = md.qi_count();
    let lambda = md.sensitive_domain_size() as usize;

    let budget = shard.budget();
    let required = ShardConfig::required_budget(lambda);
    if budget < required {
        return Err(CoreError::ShardBudgetTooSmall { required, budget });
    }
    if n == 0 {
        // Mirrors the in-memory engine: an empty input publishes empty
        // tables before any RNG state is created.
        return Ok(ShardedAnatomizeOutput {
            qit: SimFile::new(),
            st: SimFile::new(),
            groups: 0,
            stats: IoStats::default(),
            shard_stats: Vec::new(),
        });
    }
    if n > u32::MAX as usize {
        return Err(CoreError::InvalidShardConfig(format!(
            "row ids are u32: {n} rows exceed the 2^32 - 1 limit"
        )));
    }

    let cfg = shard.page();
    let pool = BufferPool::new(budget);
    let before = counter.stats();
    let tuple_codec = U32RowCodec::new(d + 2);
    let sched_codec = U32RowCodec::new(1);

    let input = microdata_to_rid_file(md, cfg)?;

    // ---- Phase 1: partition into shards by sensitive-value range. ----
    // Shard i covers the contiguous value range [⌈iλ/S⌉, ⌈(i+1)λ/S⌉).
    let s_count = shard.shards().min(lambda).max(1);
    let range_lo = |s: usize| -> usize { (s * lambda).div_ceil(s_count) };
    let shard_files = {
        let _phase = obs.span("shard_partition");
        hash_partition(
            &input,
            tuple_codec,
            |rec| (rec[d] as usize * s_count / lambda) as u32,
            s_count,
            cfg,
            &pool,
            counter,
        )?
    };
    drop(input);

    // ---- Phase 2: split each shard into per-value buckets, concurrently
    // on the global pool. Each shard gets its own page budget and its own
    // I/O counter; nothing is shared, so the split parallelizes freely.
    let shard_jobs: Vec<(usize, SimFile)> = shard_files.into_iter().enumerate().collect();
    let pages_per_shard = shard.pages_per_shard();
    let split_results: Vec<Result<(Vec<SimFile>, IoStats), CoreError>> = {
        let _phase = obs.span("bucket_split");
        Pool::global().par_map_hinted(&shard_jobs, ItemCost::Heavy, |(s, file)| {
            let lo = range_lo(*s) as u32;
            let width = range_lo(*s + 1) - range_lo(*s);
            let shard_pool = BufferPool::new(pages_per_shard);
            let shard_counter = IoCounter::new();
            let buckets = hash_partition(
                file,
                tuple_codec,
                |rec| rec[d] - lo,
                width,
                cfg,
                &shard_pool,
                &shard_counter,
            )?;
            Ok((buckets, shard_counter.stats()))
        })
    };
    drop(shard_jobs);

    let mut bucket_files: Vec<SimFile> = Vec::with_capacity(lambda);
    let mut shard_stats: Vec<IoStats> = Vec::with_capacity(s_count);
    for result in split_results {
        let (buckets, stats) = result?;
        bucket_files.extend(buckets);
        counter.add_reads(stats.page_reads);
        counter.add_writes(stats.page_writes);
        shard_stats.push(stats);
    }
    debug_assert_eq!(bucket_files.len(), lambda);
    let counts: Vec<usize> = bucket_files.iter().map(SimFile::record_count).collect();

    // ---- Phase 3: stream the group schedule over the bucket counts. ----
    // O(λ) resident state: the ladder itself plus one open writer (= one
    // buffer page) per sensitive value.
    let mut sched_files: Vec<SimFile> = (0..lambda).map(|_| SimFile::new()).collect();
    let outcome = {
        let _phase = obs.span("group_schedule");
        let mut writers: Vec<SeqWriter<'_, U32RowCodec>> = sched_files
            .iter_mut()
            .map(|f| SeqWriter::open(f, sched_codec, cfg, &pool, counter.clone()))
            .collect::<Result<_, _>>()?;
        let mut gid = 0u32;
        let mut rec = vec![0u32; 1];
        let mut write_err: Option<anatomy_storage::StorageError> = None;
        let emit = |drawn: &[u32]| {
            if write_err.is_some() {
                return;
            }
            rec[0] = gid;
            for &v in drawn {
                if let Err(e) = writers[v as usize].push(&rec) {
                    write_err = Some(e);
                    return;
                }
            }
            gid += 1;
        };
        let outcome = match config.strategy {
            BucketStrategy::LargestFirst => ladder_schedule(&counts, l, emit),
            BucketStrategy::RoundRobin => round_robin_schedule(&counts, l, emit),
        };
        if let Some(e) = write_err {
            return Err(e.into());
        }
        for w in writers {
            w.finish()?;
        }
        outcome
    };
    let m = outcome.groups as usize;

    // ---- Phase 4: replay the shuffles, pair tuples with group ids. ----
    // The in-memory engine seeds one StdRng and shuffles every bucket in
    // value order before drawing anything else; shuffle consumption
    // depends only on the bucket length, so shuffling the index range
    // 0..s_v reproduces the exact draw stream.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut assigned_files: Vec<SimFile> = (0..lambda).map(|_| SimFile::new()).collect();
    // Residue tuples per value, in pop order: (row_id, qi codes). At most
    // l − 1 across all values (Property 1).
    let mut residues: Vec<Vec<(u32, Vec<u32>)>> = vec![Vec::new(); lambda];
    // One decoded row per file kind, reused by every scan of phases 4-5.
    let mut sched_rec: Vec<u32> = Vec::with_capacity(1);
    {
        let _phase = obs.span("bucket_assign");
        let prefetch = budget.saturating_sub(4).clamp(1, 8);
        let mut rec: Vec<u32> = Vec::with_capacity(d + 2);
        for v in 0..lambda {
            let s_v = counts[v];
            let mut perm: Vec<u32> = (0..s_v as u32).collect();
            perm.shuffle(&mut rng);
            let draws = sched_files[v].record_count();
            // The k-th draw from this bucket pops the tuple at position
            // perm[s_v − 1 − k] and joins the k-th group of the value's
            // schedule.
            let mut gid_of_pos: Vec<u32> = vec![u32::MAX; s_v];
            {
                let mut reader =
                    SeqReader::open(&sched_files[v], sched_codec, &pool, counter.clone())?;
                let mut k = 0usize;
                while reader.next_into(&mut sched_rec)? {
                    gid_of_pos[perm[s_v - 1 - k] as usize] = sched_rec[0];
                    k += 1;
                }
            }
            // Remaining pops happen during residue assignment, still in
            // perm order.
            let resid_pos: Vec<u32> = (0..s_v - draws)
                .map(|j| perm[s_v - 1 - draws - j])
                .collect();
            drop(perm);

            let mut stash: Vec<Option<(u32, Vec<u32>)>> = vec![None; resid_pos.len()];
            {
                let mut reader = SeqReader::open_with_prefetch(
                    &bucket_files[v],
                    tuple_codec,
                    &pool,
                    counter.clone(),
                    prefetch,
                )?;
                let mut w = SeqWriter::open_buffered(
                    &mut assigned_files[v],
                    tuple_codec,
                    cfg,
                    &pool,
                    counter.clone(),
                    2,
                )?;
                let mut out = vec![0u32; d + 2];
                let mut p = 0usize;
                while reader.next_into(&mut rec)? {
                    let gid = *gid_of_pos.get(p).ok_or_else(|| {
                        CoreError::InvalidPartition(format!(
                            "bucket {v} holds more records than its metadata promised"
                        ))
                    })?;
                    if gid != u32::MAX {
                        out[0] = rec[d + 1];
                        out[1..=d].copy_from_slice(&rec[..d]);
                        out[d + 1] = gid;
                        w.push(&out)?;
                    } else {
                        let j =
                            resid_pos
                                .iter()
                                .position(|&q| q as usize == p)
                                .ok_or_else(|| {
                                    CoreError::InvalidPartition(format!(
                                        "bucket {v}: position {p} is neither drawn nor residual"
                                    ))
                                })?;
                        stash[j] = Some((rec[d + 1], rec[..d].to_vec()));
                    }
                    p += 1;
                }
                w.finish()?;
            }
            residues[v] = stash
                .into_iter()
                .map(|slot| {
                    slot.ok_or_else(|| {
                        CoreError::InvalidPartition(format!(
                            "bucket {v} ended before all residual positions were seen"
                        ))
                    })
                })
                .collect::<Result<_, _>>()?;
            // The bucket file is fully consumed; release its memory now so
            // peak footprint stays at ~2 input-sized file sets.
            bucket_files[v] = SimFile::new();
        }
    }
    drop(bucket_files);

    // ---- Phase 5: replay the residue draws (Lines 9–12). ----
    // Visit order comes from the schedule; candidate lists are replayed
    // against the per-value schedule files exactly as the in-memory
    // engine maintains them (built once per value, shrunk per pick).
    let mut residue_rows: Vec<(u32, Vec<u32>, u32, u32)> = Vec::new();
    {
        let _phase = obs.span("residue_assign");
        for &v in &outcome.residual {
            let pending = std::mem::take(&mut residues[v as usize]);
            if pending.is_empty() {
                continue;
            }
            let sched: Vec<u32> = {
                let file = &sched_files[v as usize];
                let mut reader = SeqReader::open(file, sched_codec, &pool, counter.clone())?;
                let mut sched = Vec::with_capacity(file.record_count());
                while reader.next_into(&mut sched_rec)? {
                    sched.push(sched_rec[0]);
                }
                sched
            };
            let mut picked: Vec<u32> = Vec::new();
            for (row, qi) in pending {
                let available = m - sched.len() - picked.len();
                if available == 0 {
                    return Err(CoreError::ResidueUnassignable { sensitive_code: v });
                }
                let pick = rng.random_range(0..available);
                let gid = nth_candidate(pick, m, &sched, &picked).ok_or_else(|| {
                    CoreError::InvalidPartition(format!(
                        "candidate {pick} of {available} for value {v} not found in the schedule"
                    ))
                })?;
                picked.push(gid);
                residue_rows.push((row, qi, gid, v));
            }
        }
    }

    // ---- Phase 6: λ-way merge back to original row order (QIT). ----
    // Each assigned run ascends in row id (the partition passes preserve
    // input order), so a heap merge over λ runs plus the in-memory
    // residues restores the microdata's row order exactly.
    let qit_codec = U32RowCodec::new(d + 1);
    let mut qit = SimFile::new();
    {
        let _phase = obs.span("qit_merge");
        let mut readers: Vec<SeqReader<'_, U32RowCodec>> = assigned_files
            .iter()
            .map(|f| SeqReader::open(f, tuple_codec, &pool, counter.clone()))
            .collect::<Result<_, _>>()?;
        // Each run's head record, decoded in place; a run is in the heap
        // exactly while its head holds a record. Keys pack (row id, run).
        let mut heads: Vec<Vec<u32>> = vec![Vec::with_capacity(d + 2); lambda];
        let mut heap: BinaryHeap<Reverse<u64>> = BinaryHeap::with_capacity(lambda + 1);
        for (i, r) in readers.iter_mut().enumerate() {
            if r.next_into(&mut heads[i])? {
                heap.push(Reverse(merge_key(heads[i][0], i as u32)));
            }
        }
        residue_rows.sort_unstable_by_key(|t| t.0);
        let mut res_iter = residue_rows.iter().peekable();
        if let Some(t) = res_iter.peek() {
            heap.push(Reverse(merge_key(t.0, lambda as u32)));
        }

        let mut w = SeqWriter::open_buffered(&mut qit, qit_codec, cfg, &pool, counter.clone(), 2)?;
        let mut out = vec![0u32; d + 1];
        while let Some(mut top) = heap.peek_mut() {
            let run = merge_key_parts(top.0).1;
            let i = run as usize;
            let next_row = if i == lambda {
                let (_, qi, gid, _) = res_iter.next().expect("peeked residue stream");
                out[..d].copy_from_slice(qi);
                out[d] = *gid;
                w.push(&out)?;
                res_iter.peek().map(|t| t.0)
            } else {
                let rec = &heads[i];
                out[..d].copy_from_slice(&rec[1..=d]);
                out[d] = rec[d + 1];
                w.push(&out)?;
                if readers[i].next_into(&mut heads[i])? {
                    Some(heads[i][0])
                } else {
                    None
                }
            };
            // The run's next head replaces the top with one sift-down; an
            // exhausted run leaves the heap.
            match next_row {
                Some(row) => top.0 = merge_key(row, run),
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        w.finish()?;
    }
    drop(assigned_files);

    // ---- Phase 7: λ-way merge to (group, value) order (ST). ----
    // Schedule file v is an ascending gid stream of (gid, v) pairs; all
    // counts are 1 (group values are distinct, Property 3).
    let st_codec = U32RowCodec::new(3);
    let mut st = SimFile::new();
    {
        let _phase = obs.span("st_merge");
        let mut readers: Vec<SeqReader<'_, U32RowCodec>> = sched_files
            .iter()
            .map(|f| SeqReader::open(f, sched_codec, &pool, counter.clone()))
            .collect::<Result<_, _>>()?;
        let mut heads: Vec<Vec<u32>> = vec![Vec::with_capacity(1); lambda];
        // Keys pack (gid, value); schedule stream v carries value v.
        let mut heap: BinaryHeap<Reverse<u64>> = BinaryHeap::with_capacity(lambda + 1);
        for (v, r) in readers.iter_mut().enumerate() {
            if r.next_into(&mut heads[v])? {
                heap.push(Reverse(merge_key(heads[v][0], v as u32)));
            }
        }
        let mut residue_keys: Vec<u64> = residue_rows
            .iter()
            .map(|&(_, _, gid, v)| merge_key(gid, v))
            .collect();
        residue_keys.sort_unstable();
        let mut res_iter = residue_keys.iter().copied().peekable();
        if let Some(&key) = res_iter.peek() {
            heap.push(Reverse(key));
        }

        let mut w = SeqWriter::open_buffered(&mut st, st_codec, cfg, &pool, counter.clone(), 2)?;
        let mut out = vec![0u32; 3];
        while let Some(mut top) = heap.peek_mut() {
            let key = top.0;
            let (gid, v) = merge_key_parts(key);
            out[0] = gid;
            out[1] = v;
            out[2] = 1;
            w.push(&out)?;
            // A residue joins a group outside its value's schedule, so no
            // schedule stream holds its (gid, v): the key alone names the
            // stream it came from.
            let next = if res_iter.peek() == Some(&key) {
                res_iter.next();
                res_iter.peek().copied()
            } else if readers[v as usize].next_into(&mut heads[v as usize])? {
                Some(merge_key(heads[v as usize][0], v))
            } else {
                None
            };
            match next {
                Some(key) => top.0 = key,
                None => {
                    PeekMut::pop(top);
                }
            }
        }
        w.finish()?;
    }

    obs.counter("core.sharded_runs").incr();
    obs.counter("core.rows_anatomized_sharded").add(n as u64);
    let stats = counter.stats().since(&before);
    obs.gauge("sharded.shards").set(s_count as i64);
    obs.gauge("sharded.pages_read")
        .set(stats.page_reads.min(i64::MAX as u64) as i64);
    obs.gauge("sharded.pages_written")
        .set(stats.page_writes.min(i64::MAX as u64) as i64);

    Ok(ShardedAnatomizeOutput {
        qit,
        st,
        groups: m,
        stats,
        shard_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anatomize::anatomize;
    use crate::published::AnatomizedTables;
    use anatomy_tables::{Attribute, Schema, TableBuilder};

    fn md_from(codes: &[(u32, u32)], qi_dom: u32, s_dom: u32) -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("A", qi_dom),
            Attribute::categorical("S", s_dom),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for &(a, s) in codes {
            b.push_row(&[a, s]).unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 1).unwrap()
    }

    fn oracle(md: &Microdata, config: &AnatomizeConfig) -> AnatomizedTables {
        let p = anatomize(md, config).unwrap();
        AnatomizedTables::publish(md, &p, config.l).unwrap()
    }

    fn shard_cfg(page: usize, shards: usize, pages_per_shard: usize) -> ShardConfig {
        ShardConfig::new(PageConfig::with_page_size(page), shards, pages_per_shard).unwrap()
    }

    #[test]
    fn matches_in_memory_bit_for_bit() {
        // Mixed skew: one dominant value, a mid tier, singletons.
        let mut tuples: Vec<(u32, u32)> = (0..40).map(|i| (i, 0)).collect();
        tuples.extend((0..120).map(|i| (40 + i, 1 + i % 7)));
        tuples.extend((0..8).map(|i| (200 + i, 8 + i % 4)));
        let md = md_from(&tuples, 300, 12);
        for l in [2usize, 3, 4] {
            for seed in [0u64, 1, 0xBEEF] {
                let config = AnatomizeConfig::new(l).with_seed(seed);
                let counter = IoCounter::new();
                let out = anatomize_sharded(&md, &config, &shard_cfg(64, 3, 6), &counter).unwrap();
                let qi_schema = md.table().schema().project(&[0]).unwrap();
                let tables = out.into_tables(qi_schema, l).unwrap();
                assert_eq!(tables, oracle(&md, &config), "l={l} seed={seed}");
                assert!(out.stats.total() > 0);
            }
        }
    }

    #[test]
    fn round_robin_arm_matches_in_memory() {
        let tuples: Vec<(u32, u32)> = (0..90).map(|i| (i, i % 9)).collect();
        let md = md_from(&tuples, 100, 9);
        let config = AnatomizeConfig::new(3)
            .with_seed(7)
            .with_strategy(BucketStrategy::RoundRobin);
        let counter = IoCounter::new();
        let out = anatomize_sharded(&md, &config, &shard_cfg(64, 4, 4), &counter).unwrap();
        let qi_schema = md.table().schema().project(&[0]).unwrap();
        assert_eq!(out.into_tables(qi_schema, 3).unwrap(), oracle(&md, &config));
    }

    #[test]
    fn errors_match_in_memory() {
        // Round-robin strands the dominant bucket: both engines must
        // report the same ResidueUnassignable.
        let mut codes: Vec<(u32, u32)> = (0..30).map(|i| (i, 0)).collect();
        codes.extend((0..90).map(|i| (30 + i, 1 + i % 29)));
        let md = md_from(&codes, 300, 30);
        let config = AnatomizeConfig::new(4).with_strategy(BucketStrategy::RoundRobin);
        let in_mem = anatomize(&md, &config).unwrap_err();
        let sharded =
            anatomize_sharded(&md, &config, &shard_cfg(64, 4, 8), &IoCounter::new()).unwrap_err();
        assert_eq!(in_mem.to_string(), sharded.to_string());

        // Ineligible input rejected identically.
        let md = md_from(&[(0, 0), (1, 0), (2, 0), (3, 1)], 10, 3);
        assert!(matches!(
            anatomize_sharded(
                &md,
                &AnatomizeConfig::new(2),
                &shard_cfg(64, 2, 4),
                &IoCounter::new()
            ),
            Err(CoreError::NotEligible { .. })
        ));
    }

    #[test]
    fn empty_input_publishes_empty_tables() {
        let md = md_from(&[], 10, 5);
        let counter = IoCounter::new();
        let out = anatomize_sharded(
            &md,
            &AnatomizeConfig::new(2),
            &shard_cfg(64, 2, 4),
            &counter,
        )
        .unwrap();
        assert_eq!(out.groups, 0);
        assert!(out.qit.is_empty());
        assert!(out.st.is_empty());
        assert_eq!(out.stats.total(), 0);
    }

    #[test]
    fn shard_config_validation_is_typed() {
        assert!(matches!(
            ShardConfig::new(PageConfig::paper(), 0, 8),
            Err(CoreError::InvalidShardConfig(_))
        ));
        assert!(matches!(
            ShardConfig::new(PageConfig::paper(), 4, 2),
            Err(CoreError::InvalidShardConfig(_))
        ));
        let cfg = ShardConfig::new(PageConfig::paper(), 4, 8).unwrap();
        assert_eq!(cfg.budget(), 4 * 8 + DOUBLE_BUFFER_SLACK);
    }

    #[test]
    fn budget_boundary_is_enforced() {
        // λ = 12 → required = 14 pages. 3 shards × 4 pages + 2 = 14: OK.
        // One page less (budget 13 via 11/1... closest: shards=1,
        // pages_per_shard=11 → 13) must fail with the typed error.
        let tuples: Vec<(u32, u32)> = (0..48).map(|i| (i, i % 12)).collect();
        let md = md_from(&tuples, 100, 12);
        let config = AnatomizeConfig::new(2);
        let ok_cfg = shard_cfg(64, 3, 4);
        assert_eq!(ok_cfg.budget(), ShardConfig::required_budget(12));
        let out = anatomize_sharded(&md, &config, &ok_cfg, &IoCounter::new()).unwrap();
        let qi_schema = md.table().schema().project(&[0]).unwrap();
        assert_eq!(out.into_tables(qi_schema, 2).unwrap(), oracle(&md, &config));

        let tight = shard_cfg(64, 1, 11);
        assert_eq!(tight.budget(), ShardConfig::required_budget(12) - 1);
        assert!(matches!(
            anatomize_sharded(&md, &config, &tight, &IoCounter::new()),
            Err(CoreError::ShardBudgetTooSmall {
                required: 14,
                budget: 13
            })
        ));
    }

    #[test]
    fn io_stays_within_the_model() {
        let n = 6000usize;
        let tuples: Vec<(u32, u32)> = (0..n).map(|i| (i as u32 % 900, i as u32 % 10)).collect();
        let md = md_from(&tuples, 900, 10);
        let config = AnatomizeConfig::new(5);
        let shard = shard_cfg(256, 4, 8);
        let counter = IoCounter::new();
        let out = anatomize_sharded(&md, &config, &shard, &counter).unwrap();
        let model = model_pages(n, 1, 10, 5, &shard);
        let measured = out.stats.total();
        assert!(
            measured as f64 <= model as f64 * 1.5,
            "measured {measured} exceeds 1.5x model {model}"
        );
        assert!(
            measured as f64 >= model as f64 / 1.5,
            "measured {measured} implausibly below model {model}"
        );
        // Per-shard stats cover the split phase and sum below the total.
        assert_eq!(out.shard_stats.len(), 4);
        let split_total: u64 = out.shard_stats.iter().map(|s| s.total()).sum();
        assert!(split_total > 0 && split_total < measured);
    }

    #[test]
    fn io_scales_linearly_in_n() {
        let shard = shard_cfg(256, 4, 8);
        let cost = |n: usize| {
            let tuples: Vec<(u32, u32)> =
                (0..n).map(|i| (i as u32 % 1000, i as u32 % 10)).collect();
            let md = md_from(&tuples, 1000, 10);
            let counter = IoCounter::new();
            anatomize_sharded(&md, &AnatomizeConfig::new(5), &shard, &counter)
                .unwrap()
                .stats
                .total()
        };
        let c1 = cost(3000);
        let c2 = cost(6000);
        let ratio = c2 as f64 / c1 as f64;
        assert!(
            (1.7..=2.3).contains(&ratio),
            "cost ratio {ratio} not ~2 ({c1} -> {c2})"
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// `raw` for picks 3 and up, else one of the edge values 0, λ (the
        /// residue stream's run index at OCC's λ = 50) and `u32::MAX`.
        fn edge_or(pick: u8, raw: u32) -> u32 {
            match pick {
                0 => 0,
                1 => 50,
                2 => u32::MAX,
                _ => raw,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]
            /// Merge keys unpack to the pair they pack, and order exactly
            /// as the `(hi, lo)` tuples the heaps ordered by before.
            #[test]
            fn merge_keys_round_trip_and_order_as_tuples(
                picks in (0u8..6, 0u8..6, 0u8..6, 0u8..6),
                raw in (0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX),
            ) {
                let a = (edge_or(picks.0, raw.0), edge_or(picks.1, raw.1));
                let b = (edge_or(picks.2, raw.2), edge_or(picks.3, raw.3));
                prop_assert_eq!(merge_key_parts(merge_key(a.0, a.1)), a);
                prop_assert_eq!(merge_key_parts(merge_key(b.0, b.1)), b);
                prop_assert_eq!(merge_key(a.0, a.1).cmp(&merge_key(b.0, b.1)), a.cmp(&b));
                // Shared halves: the order then rests on the other half alone.
                prop_assert_eq!(merge_key(a.0, a.1).cmp(&merge_key(a.0, b.1)), a.1.cmp(&b.1));
                prop_assert_eq!(merge_key(a.0, a.1).cmp(&merge_key(b.0, a.1)), a.0.cmp(&b.0));
            }
        }
    }

    #[test]
    fn pool_pages_all_return() {
        // No leaked leases: every phase returns its pages.
        let tuples: Vec<(u32, u32)> = (0..200).map(|i| (i, i % 8)).collect();
        let md = md_from(&tuples, 200, 8);
        let counter = IoCounter::new();
        anatomize_sharded(
            &md,
            &AnatomizeConfig::new(4),
            &shard_cfg(64, 2, 6),
            &counter,
        )
        .unwrap();
        // The pool is internal; reaching here without PoolExhausted and
        // with a clean second run proves pages were returned.
        anatomize_sharded(
            &md,
            &AnatomizeConfig::new(4),
            &shard_cfg(64, 2, 6),
            &counter,
        )
        .unwrap();
    }
}
