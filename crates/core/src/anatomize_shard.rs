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
//!    contiguous sensitive-value range with [`fn@hash_partition`]. With
//!    one shard the input already is that shard, and the pass is skipped.
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
//! 6. **`qit_merge` / `st_merge`** — restore the original row order for
//!    the QIT and (group, value) order for the ST. Row ids are exactly
//!    `0..n` and group ids exactly `0..m`, so each merge fills a window of
//!    about one output page by direct index, reading the λ runs in turn:
//!    no comparisons and no heap.
//!
//! Because steps 3–5 replay the exact RNG draw sequence of the in-memory
//! [`anatomize`](fn@crate::anatomize), the published QIT/ST are **bit-for-bit
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

/// Extra pages the budget reserves beyond one page per sensitive value:
/// the merges' output page and window, and the double-buffered writer of
/// the assigned runs (fill one page while the device drains the other).
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
    /// [`fn@hash_partition`] can work with:
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
    /// `lambda` values keeps resident: one run or schedule page per value
    /// during the merges, plus the output page and the merge window.
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
/// slack term per file opened; with one shard there is no shard pass.
/// Assumes single-pass partitioning, i.e.
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
    // shard_partition: read the input once, write S shard files; one
    // shard is the input itself.
    let shard_partition = if s == 1 { 0 } else { input + (input + s) };
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
        if s_count == 1 {
            // The one shard is the whole input: split it directly rather
            // than copy it page for page.
            vec![input]
        } else {
            let shards = hash_partition(
                &input,
                tuple_codec,
                |rec| (rec[d] as usize * s_count / lambda) as u32,
                s_count,
                cfg,
                &pool,
                counter,
            )?;
            drop(input);
            shards
        }
    };

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
        let mut writers: Vec<SeqWriter<'_>> = sched_files
            .iter_mut()
            .map(|f| SeqWriter::open(f, sched_codec, cfg, &pool, counter.clone()))
            .collect::<Result<_, _>>()?;
        let mut gid = 0u32;
        let mut write_err: Option<anatomy_storage::StorageError> = None;
        let emit = |drawn: &[u32]| {
            if write_err.is_some() {
                return;
            }
            for &v in drawn {
                if let Err(e) = writers[v as usize].push(&[gid]) {
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
    // Residue tuples per value, in pop order, as run records
    // (row_id, qi…, gid) whose gid is filled in by phase 5. At most l − 1
    // across all values (Property 1).
    let mut residues: Vec<Vec<Vec<u32>>> = vec![Vec::new(); lambda];
    {
        let _phase = obs.span("bucket_assign");
        let prefetch = budget.saturating_sub(4).clamp(1, 8);
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
                while let Some(rec) = reader.next_row()? {
                    gid_of_pos[perm[s_v - 1 - k] as usize] = rec[0];
                    k += 1;
                }
            }
            // Remaining pops happen during residue assignment, still in
            // perm order.
            let resid_pos: Vec<u32> = (0..s_v - draws)
                .map(|j| perm[s_v - 1 - draws - j])
                .collect();
            drop(perm);

            let mut stash: Vec<Option<Vec<u32>>> = vec![None; resid_pos.len()];
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
                while let Some(rec) = reader.next_row()? {
                    let gid = *gid_of_pos.get(p).ok_or_else(|| {
                        CoreError::InvalidPartition(format!(
                            "bucket {v} holds more records than its metadata promised"
                        ))
                    })?;
                    out[0] = rec[d + 1];
                    out[1..=d].copy_from_slice(&rec[..d]);
                    out[d + 1] = gid;
                    if gid != u32::MAX {
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
                        stash[j] = Some(out.clone());
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
    let mut residue_rows: Vec<Residue> = Vec::new();
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
                while let Some(rec) = reader.next_row()? {
                    sched.push(rec[0]);
                }
                sched
            };
            let mut picked: Vec<u32> = Vec::new();
            for mut record in pending {
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
                record[d + 1] = gid;
                residue_rows.push(Residue { record, value: v });
            }
        }
    }

    // ---- Phase 6: back to original row order (QIT). ----
    let qit = {
        let _phase = obs.span("qit_merge");
        residue_rows.sort_unstable_by_key(|r| r.record[0]);
        qit_merge(&assigned_files, &residue_rows, n, d, cfg, &pool, counter)?
    };
    drop(assigned_files);

    // ---- Phase 7: to (group, value) order (ST). ----
    let st = {
        let _phase = obs.span("st_merge");
        let mut residue_keys: Vec<(u32, u32)> = residue_rows
            .iter()
            .map(|r| (r.record[d + 1], r.value))
            .collect();
        residue_keys.sort_unstable();
        st_merge(&sched_files, &residue_keys, m, l, cfg, &pool, counter)?
    };

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

/// A residue tuple after phase 5: its run record `(row_id, qi…, gid)` and
/// its sensitive value.
struct Residue {
    record: Vec<u32>,
    value: u32,
}

/// Phase 6: the QIT `(qi…, gid)` in the microdata's row order.
///
/// Each run holds run records `(row_id, qi…, gid)` ascending in row id
/// (the partition passes keep input order), and the runs and `residues`
/// (ascending in row id) hold every row id of `0..n` exactly once. So
/// the QIT is filled one window of an output page's rows at a time, each
/// record copied straight to slot `row_id − window start`. A row id that
/// repeats, that nothing holds, or that is `n` or more is an
/// [`CoreError::InvalidPartition`] naming the row.
///
/// Leases a page per run, the output page and the window's page.
fn qit_merge(
    runs: &[SimFile],
    residues: &[Residue],
    n: usize,
    d: usize,
    cfg: PageConfig,
    pool: &BufferPool,
    counter: &IoCounter,
) -> Result<SimFile, CoreError> {
    let qit_codec = U32RowCodec::new(d + 1);
    let mut readers: Vec<SeqReader<'_>> = runs
        .iter()
        .map(|f| SeqReader::open(f, U32RowCodec::new(d + 2), pool, counter.clone()))
        .collect::<Result<_, _>>()?;
    let mut qit = SimFile::new();
    let mut w = SeqWriter::open(&mut qit, qit_codec, cfg, pool, counter.clone())?;
    let _window_page = pool.try_lease(1)?;
    let rows_per_window = cfg.records_per_page(qit_codec.record_len())?;
    let mut slots = vec![0u32; rows_per_window * (d + 1)];
    let mut filled = vec![false; rows_per_window];
    // Each run's next record, held while it belongs to a later window;
    // empty once the run is exhausted.
    let mut heads: Vec<Vec<u32>> = readers
        .iter_mut()
        .map(|r| Ok(r.next_row()?.map(<[u32]>::to_vec).unwrap_or_default()))
        .collect::<Result<_, CoreError>>()?;
    let mut pending = residues.iter().peekable();
    for lo in (0..n).step_by(rows_per_window) {
        let hi = (lo + rows_per_window).min(n);
        for (reader, head) in readers.iter_mut().zip(&mut heads) {
            if head.is_empty() || head[0] as usize >= hi {
                continue;
            }
            place_row(head, lo, &mut slots, &mut filled)?;
            loop {
                match reader.next_row()? {
                    Some(rec) if (rec[0] as usize) < hi => {
                        place_row(rec, lo, &mut slots, &mut filled)?;
                    }
                    Some(rec) => {
                        head.copy_from_slice(rec);
                        break;
                    }
                    None => {
                        head.clear();
                        break;
                    }
                }
            }
        }
        while let Some(r) = pending.next_if(|r| (r.record[0] as usize) < hi) {
            place_row(&r.record, lo, &mut slots, &mut filled)?;
        }
        for (j, slot) in slots.chunks_exact(d + 1).take(hi - lo).enumerate() {
            if !std::mem::take(&mut filled[j]) {
                return Err(CoreError::InvalidPartition(format!(
                    "QIT merge: row {} is in no run",
                    lo + j
                )));
            }
            w.push(slot)?;
        }
    }
    // Anything left over names a row past the last window.
    let left = heads.iter().find(|h| !h.is_empty()).map(|h| h[0]);
    if let Some(row) = left.or_else(|| pending.next().map(|r| r.record[0])) {
        return Err(CoreError::InvalidPartition(format!(
            "QIT merge: row id {row} is outside 0..{n}"
        )));
    }
    w.finish()?;
    Ok(qit)
}

/// Copy run record `rec` = `(row_id, qi…, gid)` into its slot of the
/// window that starts at row `lo`; the caller has checked that the row
/// lies below the window's end.
fn place_row(
    rec: &[u32],
    lo: usize,
    slots: &mut [u32],
    filled: &mut [bool],
) -> Result<(), CoreError> {
    let row = rec[0] as usize;
    // A row below the window belongs to one already complete.
    let Some(j) = row.checked_sub(lo).filter(|&j| !filled[j]) else {
        return Err(CoreError::InvalidPartition(format!(
            "QIT merge: row {row} appears more than once"
        )));
    };
    filled[j] = true;
    let width = rec.len() - 1;
    slots[j * width..(j + 1) * width].copy_from_slice(&rec[1..]);
    Ok(())
}

/// Phase 7: the ST `(gid, value, 1)` in (group, value) order.
///
/// Schedule file `v` lists, ascending, the groups value `v` joins, and
/// each group of `0..m` is scheduled exactly `l` values. Visiting the
/// schedules in value order therefore appends each group's values in
/// ascending order, so the ST is filled one window of groups (about an
/// output page of records) at a time by direct index. `residues` are
/// ascending `(gid, value)` pairs; each is inserted among its group's
/// scheduled values as the group is written. A schedule that names a
/// group twice, out of order or outside `0..m`, and a group with more or
/// fewer than `l` scheduled values, are an
/// [`CoreError::InvalidPartition`] naming the group.
///
/// Leases a page per schedule, the output page and the window's page.
fn st_merge(
    schedules: &[SimFile],
    residues: &[(u32, u32)],
    m: usize,
    l: usize,
    cfg: PageConfig,
    pool: &BufferPool,
    counter: &IoCounter,
) -> Result<SimFile, CoreError> {
    let st_codec = U32RowCodec::new(3);
    let mut readers: Vec<SeqReader<'_>> = schedules
        .iter()
        .map(|f| SeqReader::open(f, U32RowCodec::new(1), pool, counter.clone()))
        .collect::<Result<_, _>>()?;
    let mut st = SimFile::new();
    let mut w = SeqWriter::open(&mut st, st_codec, cfg, pool, counter.clone())?;
    let _window_page = pool.try_lease(1)?;
    let groups_per_window = (cfg.records_per_page(st_codec.record_len())? / l).max(1);
    // Group `lo + j`'s scheduled values are values[j·l..(j+1)·l], the
    // first filled[j] of them placed so far.
    let mut values = vec![0u32; groups_per_window * l];
    let mut filled = vec![0usize; groups_per_window];
    // Each schedule's next group id; None once it is exhausted.
    let mut heads: Vec<Option<u32>> = readers
        .iter_mut()
        .map(|r| Ok(r.next_row()?.map(|rec| rec[0])))
        .collect::<Result<_, CoreError>>()?;
    let mut pending = residues.iter().peekable();
    for lo in (0..m).step_by(groups_per_window) {
        let hi = (lo + groups_per_window).min(m);
        for (v, (reader, head)) in readers.iter_mut().zip(&mut heads).enumerate() {
            while let Some(gid) = head.filter(|&g| (g as usize) < hi) {
                let Some(j) = (gid as usize).checked_sub(lo) else {
                    return Err(CoreError::InvalidPartition(format!(
                        "ST merge: the schedule of value {v} names group {gid} out of order"
                    )));
                };
                let placed = filled[j];
                if placed == l {
                    return Err(CoreError::InvalidPartition(format!(
                        "ST merge: group {gid} is scheduled more than {l} values"
                    )));
                }
                if placed > 0 && values[j * l + placed - 1] == v as u32 {
                    return Err(CoreError::InvalidPartition(format!(
                        "ST merge: group {gid} is scheduled value {v} twice"
                    )));
                }
                values[j * l + placed] = v as u32;
                filled[j] = placed + 1;
                *head = reader.next_row()?.map(|rec| rec[0]);
            }
        }
        for (j, scheduled) in values.chunks_exact(l).take(hi - lo).enumerate() {
            let gid = (lo + j) as u32;
            let placed = std::mem::take(&mut filled[j]);
            if placed != l {
                return Err(CoreError::InvalidPartition(format!(
                    "ST merge: group {gid} has {placed} scheduled values instead of l = {l}"
                )));
            }
            let mut scheduled = scheduled.iter().copied().peekable();
            while let Some(&(_, value)) = pending.next_if(|&&(g, _)| g == gid) {
                while let Some(v) = scheduled.next_if(|&v| v < value) {
                    w.push(&[gid, v, 1])?;
                }
                w.push(&[gid, value, 1])?;
            }
            for v in scheduled {
                w.push(&[gid, v, 1])?;
            }
        }
    }
    // Anything left over names a group past the last window.
    let left = heads.iter().flatten().next().copied();
    if let Some(gid) = left.or_else(|| pending.next().map(|&(g, _)| g)) {
        return Err(CoreError::InvalidPartition(format!(
            "ST merge: group {gid} is outside 0..{m}"
        )));
    }
    w.finish()?;
    Ok(st)
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

    /// Per group, the values the ladder schedules for it and the residue
    /// values the in-memory engine adds on top.
    fn scheduled_and_residues(
        md: &Microdata,
        config: &AnatomizeConfig,
    ) -> Vec<(Vec<u32>, Vec<u32>)> {
        let counts: Vec<usize> = (0..md.sensitive_domain_size())
            .map(|v| md.sensitive_codes().iter().filter(|&&c| c == v).count())
            .collect();
        let mut groups: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        ladder_schedule(&counts, config.l, |drawn| {
            let mut drawn = drawn.to_vec();
            drawn.sort_unstable();
            groups.push((drawn, Vec::new()));
        });
        for rec in oracle(md, config).st_records() {
            let (scheduled, residues) = &mut groups[rec.group as usize];
            if !scheduled.contains(&rec.value.0) {
                residues.push(rec.value.0);
            }
        }
        groups
    }

    /// 15 rows over six values at l = 4: three groups and three residues,
    /// which at every seed below include one whose value sorts between two
    /// of its group's scheduled values.
    fn interleaved_residues() -> Microdata {
        let codes = [0, 0, 4, 4, 5, 5, 0, 1, 1, 2, 3, 3, 1, 4, 2];
        let tuples: Vec<(u32, u32)> = codes
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u32, s))
            .collect();
        md_from(&tuples, 20, 6)
    }

    /// Whether some group takes a residue that sorts strictly between
    /// its smallest and largest scheduled values.
    fn has_residue_between(groups: &[(Vec<u32>, Vec<u32>)]) -> bool {
        groups.iter().any(|(scheduled, residues)| {
            let (lo, hi) = (scheduled[0], scheduled[scheduled.len() - 1]);
            residues.iter().any(|&r| lo < r && r < hi)
        })
    }

    #[test]
    fn a_residue_between_scheduled_values_matches_in_memory() {
        let md = interleaved_residues();
        for seed in 0..4u64 {
            let config = AnatomizeConfig::new(4).with_seed(seed);
            assert!(has_residue_between(&scheduled_and_residues(&md, &config)));
            // 64-byte pages: 8-row QIT windows, one group per ST window.
            let out =
                anatomize_sharded(&md, &config, &shard_cfg(64, 2, 6), &IoCounter::new()).unwrap();
            let qi_schema = md.table().schema().project(&[0]).unwrap();
            let tables = out.into_tables(qi_schema, 4).unwrap();
            assert_eq!(tables, oracle(&md, &config), "seed={seed}");
        }
    }

    #[test]
    fn two_residues_in_one_group_match_in_memory() {
        let md = interleaved_residues();
        // Seed 1 sends residues 3 and 4 to the group scheduled
        // {0, 1, 2, 5}: both go between its scheduled values.
        let config = AnatomizeConfig::new(4).with_seed(1);
        let groups = scheduled_and_residues(&md, &config);
        assert!(
            groups.iter().any(|(_, residues)| residues.len() == 2),
            "{groups:?}"
        );
        let out = anatomize_sharded(&md, &config, &shard_cfg(64, 2, 6), &IoCounter::new()).unwrap();
        let qi_schema = md.table().schema().project(&[0]).unwrap();
        assert_eq!(out.into_tables(qi_schema, 4).unwrap(), oracle(&md, &config));
    }

    #[test]
    fn one_shard_splits_the_staged_input_without_a_copy() {
        let n = 6000usize;
        let tuples: Vec<(u32, u32)> = (0..n).map(|i| (i as u32 % 900, i as u32 % 10)).collect();
        let md = md_from(&tuples, 900, 10);
        let config = AnatomizeConfig::new(5);
        let shard = shard_cfg(256, 1, 16);
        let out = anatomize_sharded(&md, &config, &shard, &IoCounter::new()).unwrap();
        let qi_schema = md.table().schema().project(&[0]).unwrap();
        assert_eq!(out.into_tables(qi_schema, 5).unwrap(), oracle(&md, &config));
        // The bill of this run while a one-shard run still copied the
        // staged input into its shard: a read and a write of ⌈n/b⌉ pages.
        const WITH_COPY_PASS: u64 = 2792;
        let staged = shard.page().pages_for(n, 3 * 4).unwrap() as u64;
        assert_eq!(out.stats.total(), WITH_COPY_PASS - 2 * staged);
        let model = model_pages(n, 1, 10, 5, &shard);
        let measured = out.stats.total() as f64;
        assert!(
            measured <= model as f64 * 1.5 && measured >= model as f64 / 1.5,
            "measured {measured} vs model {model}"
        );
        assert_eq!(out.shard_stats.len(), 1);
    }

    /// A file of `rows` on 64-byte pages.
    fn file_of(rows: &[Vec<u32>], arity: usize) -> SimFile {
        let mut file = SimFile::new();
        let mut w = SeqWriter::open(
            &mut file,
            U32RowCodec::new(arity),
            PageConfig::with_page_size(64),
            &BufferPool::unbounded(),
            IoCounter::new(),
        )
        .unwrap();
        for row in rows {
            w.push(row).unwrap();
        }
        w.finish().unwrap();
        file
    }

    /// Run records `(row_id, qi, gid)` for the given row ids (d = 1): the
    /// QI code is 100 + row, the group row / 2.
    fn run_of(rows: &[u32]) -> Vec<Vec<u32>> {
        rows.iter().map(|&r| vec![r, 100 + r, r / 2]).collect()
    }

    /// The QIT merge of `runs` and `residues` over `n` rows (d = 1) on
    /// 64-byte pages: eight rows per window.
    fn merge_qit(runs: &[Vec<Vec<u32>>], residues: &[u32], n: usize) -> Result<SimFile, CoreError> {
        let files: Vec<SimFile> = runs.iter().map(|r| file_of(r, 3)).collect();
        let residues: Vec<Residue> = run_of(residues)
            .into_iter()
            .map(|record| Residue { record, value: 0 })
            .collect();
        let cfg = PageConfig::with_page_size(64);
        qit_merge(
            &files,
            &residues,
            n,
            1,
            cfg,
            &BufferPool::unbounded(),
            &IoCounter::new(),
        )
    }

    fn read_all(file: &SimFile, arity: usize) -> Vec<Vec<u32>> {
        let reader = SeqReader::open(
            file,
            U32RowCodec::new(arity),
            &BufferPool::unbounded(),
            IoCounter::new(),
        )
        .unwrap();
        reader.map(Result::unwrap).collect()
    }

    /// The message of an `InvalidPartition`, or a panic naming what came
    /// back instead.
    fn invalid(result: Result<SimFile, CoreError>) -> String {
        match result {
            Err(CoreError::InvalidPartition(msg)) => msg,
            other => panic!("expected InvalidPartition, got {other:?}"),
        }
    }

    #[test]
    fn qit_merge_restores_row_order_across_windows() {
        let evens: Vec<u32> = (0..20).step_by(2).collect();
        let odds: Vec<u32> = (1..20).step_by(2).filter(|&r| r != 9).collect();
        let qit = merge_qit(&[run_of(&evens), run_of(&odds)], &[9], 20).unwrap();
        let expected: Vec<Vec<u32>> = (0..20).map(|r| vec![100 + r, r / 2]).collect();
        assert_eq!(read_all(&qit, 2), expected);
    }

    #[test]
    fn qit_merge_refuses_a_repeated_row() {
        let odds: Vec<u32> = (1..12).step_by(2).collect();
        // Row 5 in two runs, in one run twice, and as a residue.
        let twice = [0, 2, 4, 5, 6, 8, 10];
        let msg = invalid(merge_qit(&[run_of(&twice), run_of(&odds)], &[], 12));
        assert!(msg.contains("row 5 appears more than once"), "{msg}");
        let within = [0, 1, 2, 3, 4, 5, 5, 6, 7, 8, 9, 10, 11];
        let msg = invalid(merge_qit(&[run_of(&within)], &[], 12));
        assert!(msg.contains("row 5 appears more than once"), "{msg}");
        let evens: Vec<u32> = (0..12).step_by(2).collect();
        let msg = invalid(merge_qit(&[run_of(&evens), run_of(&odds)], &[5], 12));
        assert!(msg.contains("row 5 appears more than once"), "{msg}");
        // A repeat whose first copy sits in an earlier, complete window.
        let late = [1, 3, 5, 7, 9, 10, 11];
        let early = [0, 2, 4, 6, 8, 3];
        let msg = invalid(merge_qit(&[run_of(&early), run_of(&late)], &[], 12));
        assert!(msg.contains("row 3 appears more than once"), "{msg}");
    }

    #[test]
    fn qit_merge_refuses_a_row_in_no_run() {
        let evens: Vec<u32> = (0..12).step_by(2).collect();
        let odds: Vec<u32> = (1..12).step_by(2).filter(|&r| r != 9).collect();
        let msg = invalid(merge_qit(&[run_of(&evens), run_of(&odds)], &[], 12));
        assert!(msg.contains("row 9 is in no run"), "{msg}");
    }

    #[test]
    fn qit_merge_refuses_a_row_id_past_n() {
        let evens: Vec<u32> = (0..12).step_by(2).collect();
        let odds: Vec<u32> = (1..12).step_by(2).collect();
        let mut past = odds.clone();
        past.push(12);
        let msg = invalid(merge_qit(&[run_of(&evens), run_of(&past)], &[], 12));
        assert!(msg.contains("row id 12 is outside 0..12"), "{msg}");
        let msg = invalid(merge_qit(&[run_of(&evens), run_of(&odds)], &[40], 12));
        assert!(msg.contains("row id 40 is outside 0..12"), "{msg}");
    }

    /// The ST merge of per-value schedules (schedule `v` is value `v`'s
    /// ascending group ids) and `(gid, value)` residues over `m` groups of
    /// `l` scheduled values, on 64-byte pages: five records a page, so two
    /// groups per window at l = 2.
    fn merge_st(
        schedules: &[Vec<u32>],
        residues: &[(u32, u32)],
        m: usize,
        l: usize,
    ) -> Result<SimFile, CoreError> {
        let files: Vec<SimFile> = schedules
            .iter()
            .map(|gids| file_of(&gids.iter().map(|&g| vec![g]).collect::<Vec<_>>(), 1))
            .collect();
        let cfg = PageConfig::with_page_size(64);
        st_merge(
            &files,
            residues,
            m,
            l,
            cfg,
            &BufferPool::unbounded(),
            &IoCounter::new(),
        )
    }

    #[test]
    fn st_merge_inserts_residues_among_scheduled_values() {
        let all = vec![0, 1, 2, 3];
        let st = merge_st(&[all.clone(), vec![], all], &[(1, 1), (3, 1)], 4, 2).unwrap();
        let expected: Vec<Vec<u32>> = [
            (0, 0),
            (0, 2),
            (1, 0),
            (1, 1),
            (1, 2),
            (2, 0),
            (2, 2),
            (3, 0),
            (3, 1),
            (3, 2),
        ]
        .iter()
        .map(|&(g, v)| vec![g, v, 1])
        .collect();
        assert_eq!(read_all(&st, 3), expected);
    }

    #[test]
    fn st_merge_refuses_a_group_past_m() {
        let all = vec![0, 1, 2, 3];
        let msg = invalid(merge_st(&[all.clone(), vec![0, 1, 2, 3, 4]], &[], 4, 2));
        assert!(msg.contains("group 4 is outside 0..4"), "{msg}");
        let msg = invalid(merge_st(&[all.clone(), all], &[(9, 2)], 4, 2));
        assert!(msg.contains("group 9 is outside 0..4"), "{msg}");
    }

    #[test]
    fn st_merge_refuses_a_group_without_l_scheduled_values() {
        let all = vec![0, 1, 2, 3];
        let msg = invalid(merge_st(&[all.clone(), all.clone(), vec![1]], &[], 4, 2));
        assert!(
            msg.contains("group 1 is scheduled more than 2 values"),
            "{msg}"
        );
        let msg = invalid(merge_st(&[all.clone(), vec![0, 1, 3]], &[], 4, 2));
        assert!(
            msg.contains("group 2 has 1 scheduled values instead of l = 2"),
            "{msg}"
        );
        let msg = invalid(merge_st(&[vec![0, 1, 1, 2, 3], all], &[], 4, 2));
        assert!(msg.contains("group 1 is scheduled value 0 twice"), "{msg}");
    }
}
