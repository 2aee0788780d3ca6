//! Sharded out-of-core `Anatomize` for microdata far larger than memory.
//!
//! [`anatomize_external`](crate::anatomize_external) reproduces Theorem 3
//! at paper scale (46k rows, 50 pages); this module is the production-scale
//! engine behind it, targeting 10M–100M tuples. It exploits two facts.
//! Group formation depends only on the per-value bucket *sizes*, and the
//! QIT publishes every tuple's exact QI values in input order, so all that
//! group formation computes per tuple is one group id. The tuples
//! therefore stay in the row-ordered staged input `(qi…, s)`: only bucket
//! counts and one-word group ids go through the paged passes, and the ids
//! are joined back onto the input at the end. The pipeline:
//!
//! 1. **`bucket_count`** — one scan of the input counts each value's
//!    bucket.
//! 2. **`group_schedule`** — stream the frequency ladder
//!    ([`ladder_schedule`]) over the λ bucket **counts** with O(λ)
//!    resident state, writing each value's group-id sequence to a
//!    per-value schedule file through λ simultaneously open writers (the
//!    O(λ) pages of Theorem 3's group phase).
//! 3. **`bucket_assign`** — per value, replay the in-memory engine's
//!    Fisher–Yates shuffle (draw consumption depends only on the bucket
//!    size, so the RNG stream is reproduced exactly) and pair each
//!    scheduled group with the bucket position its draw pops. The value's
//!    group ids go to a one-word gid file in bucket-position order, which
//!    is row order within the value; `u32::MAX` stands for each of the
//!    ≤ l−1 positions left for residue assignment.
//! 4. **`residue_assign`** — replay the residue draws against the
//!    schedule files, recording a (value, position) → group table.
//! 5. **`qit_merge`** — a sequential join: scan the input again, give
//!    each row the next entry of its value's gid file (or its residue
//!    group) and write `(qi…, gid)`.
//! 6. **`st_merge`** — the ST in (group, value) order. Group ids are
//!    exactly `0..m`, so the merge fills a window of about one output
//!    page by direct index, reading the λ schedule files in turn: no
//!    comparisons and no heap.
//!
//! Because steps 2–4 replay the exact RNG draw sequence of the in-memory
//! [`anatomize`](fn@crate::anatomize), the published QIT/ST are **bit-for-bit
//! identical** to `AnatomizedTables::publish(md, anatomize(md, cfg), l)` —
//! the differential oracle `tests/sharded_differential.rs` and the
//! `bench_anatomize_external` identity gate pin this at every overlapping
//! scale.
//!
//! Total logical I/O stays `O(n/b)`: two scans of the input, a constant
//! number of sequential passes over one-word-per-tuple files, and the
//! QIT/ST writes ([`model_pages`] gives the closed-form bill the
//! benchmarks gate against). Resident state is O(λ) buffer pages plus a
//! transient O(max bucket) permutation and gid array during
//! `bucket_assign` — the unavoidable cost of replaying the shuffle. Every
//! page operation runs on the calling thread. Each pass takes and gives
//! its rows a page at a time ([`SeqReader::next_page`],
//! [`SeqWriter::push_rows`]); only the merges' per-value gid and schedule
//! readers, which interleave, go a record at a time.

use crate::anatomize::{ladder_schedule, round_robin_schedule, AnatomizeConfig, BucketStrategy};
use crate::anatomize_io::{microdata_to_file, tables_from_files};
use crate::diversity::check_eligibility;
use crate::error::CoreError;
use anatomy_storage::{
    BufferPool, IoCounter, IoStats, PageConfig, SeqReader, SeqWriter, SimFile, U32RowCodec,
};
use anatomy_tables::Microdata;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Extra pages the budget reserves beyond one page per sensitive value:
/// the QIT join's input reader and output page, or the ST merge's output
/// page and window.
pub const DOUBLE_BUFFER_SLACK: usize = 2;

/// The gid-file entry of a bucket position left for residue assignment.
const RESIDUE: u32 = u32::MAX;

/// Configuration of the sharded engine: page geometry plus a page budget,
/// given as a shard fan-out times pages per shard.
///
/// The run's page budget is **derived** from this configuration —
/// `shards · pages_per_shard + DOUBLE_BUFFER_SLACK` — instead of the fixed
/// 50-page pool the external path uses. That budget is all the two
/// numbers set: the engine makes the same passes at every fan-out.
/// [`anatomize_sharded`] fails with [`CoreError::ShardBudgetTooSmall`] when
/// the sensitive domain demands more resident state (one page per value at
/// the join and merge phases) than that budget supplies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    page: PageConfig,
    shards: usize,
    pages_per_shard: usize,
}

impl ShardConfig {
    /// A validated configuration. Errors with
    /// [`CoreError::InvalidShardConfig`] when `shards` is zero or
    /// `pages_per_shard` is below 3.
    pub fn new(page: PageConfig, shards: usize, pages_per_shard: usize) -> Result<Self, CoreError> {
        if shards == 0 {
            return Err(CoreError::InvalidShardConfig(
                "shard count must be at least 1".to_string(),
            ));
        }
        if pages_per_shard < 3 {
            return Err(CoreError::InvalidShardConfig(format!(
                "pages_per_shard must be at least 3, got {pages_per_shard}"
            )));
        }
        Ok(ShardConfig {
            page,
            shards,
            pages_per_shard,
        })
    }

    /// 4096-byte pages and a budget of 8 shards × 16 pages + 2 — a
    /// sensible default for the CENSUS-shaped workloads (λ = 50) of the
    /// benchmarks.
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

    /// The shard fan-out: one factor of the page budget.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Buffer pages per shard: the other factor of the page budget.
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

    /// Pages the widest phases of a run over a sensitive domain of
    /// `lambda` values keep resident: one gid-file or schedule page per
    /// value, plus the QIT join's input and output pages or the ST merge's
    /// output page and window.
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
    /// Total logical I/O of the run (all phases).
    pub stats: IoStats,
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
/// the benchmarks' I/O gates compare measurements against.
///
/// Counts every sequential pass the pipeline makes, with one partial-page
/// slack term per file opened: two scans of the `(qi…, s)` input, the
/// one-word schedule files written once and read twice (plus the residual
/// values' files once more), the one-word gid files written and read once,
/// and the QIT and ST written once. Only the page size of `shard` enters:
/// the fan-out changes no pass.
pub fn model_pages(n: usize, d: usize, lambda: usize, l: usize, shard: &ShardConfig) -> u64 {
    let page = shard.page();
    let pages = |records: usize, arity: usize| -> u64 {
        page.pages_for(records, arity * 4).unwrap_or(0) as u64
    };
    let lam = lambda as u64;
    let input = pages(n, d + 1);
    // Schedule and gid files: one word per tuple over λ files.
    let ids = pages(n, 1) + lam;
    let qit = pages(n, d + 1);
    let st = pages(n, 3);
    // bucket_count: read the input.
    let bucket_count = input;
    // group_schedule: write the schedule files.
    let group_schedule = ids;
    // bucket_assign: read the schedule files, write the gid files.
    let bucket_assign = ids + ids;
    // residue_assign: re-read the schedule files of the ≤ l−1 residual
    // values.
    let residue = (l as u64).saturating_sub(1) * (pages(n, 1) / lam.max(1) + 1);
    // qit_merge: read the input and the gid files, write the QIT.
    let qit_merge = input + ids + (qit + 1);
    // st_merge: read the schedule files again, write the ST.
    let st_merge = ids + (st + 1);
    bucket_count + group_schedule + bucket_assign + residue + qit_merge + st_merge
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
/// `counter` accumulates the run's total logical I/O; every page
/// operation runs on the calling thread. The page budget is derived from
/// `shard` — see [`ShardConfig`].
///
/// The published QIT/ST are bit-for-bit identical to the in-memory
/// engine's:
/// `AnatomizedTables::publish(md, &anatomize(md, config)?, config.l)`.
///
/// Bucket positions are stored as `u32`, so `md` may hold at most
/// `u32::MAX` rows.
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
        });
    }
    if n > u32::MAX as usize {
        return Err(CoreError::InvalidShardConfig(format!(
            "bucket positions are u32: {n} rows exceed the 2^32 - 1 limit"
        )));
    }

    let cfg = shard.page();
    let pool = BufferPool::new(budget);
    let before = counter.stats();
    let row_codec = U32RowCodec::new(d + 1);
    let gid_codec = U32RowCodec::new(1);

    // The row-ordered input `(qi…, s)`. Staging it is not billed (the
    // microdata models pre-existing data); every read of it is.
    let input = microdata_to_file(md, cfg)?;

    // ---- Phase 1: count each value's bucket. ----
    let counts = {
        let _phase = obs.span("bucket_count");
        let mut counts = vec![0usize; lambda];
        let mut reader = SeqReader::open(&input, row_codec, &pool, counter.clone())?;
        while let Some(page) = reader.next_page()? {
            for &s in page[d..].iter().step_by(d + 1) {
                counts[s as usize] += 1;
            }
        }
        counts
    };

    // ---- Phase 2: stream the group schedule over the bucket counts. ----
    // O(λ) resident state: the ladder itself plus one open writer (= one
    // buffer page) per sensitive value.
    let mut sched_files: Vec<SimFile> = (0..lambda).map(|_| SimFile::new()).collect();
    let outcome = {
        let _phase = obs.span("group_schedule");
        let mut writers: Vec<SeqWriter<'_>> = sched_files
            .iter_mut()
            .map(|f| SeqWriter::open(f, gid_codec, cfg, &pool, counter.clone()))
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

    // ---- Phase 3: replay the shuffles, write each value's group ids. ----
    // The in-memory engine seeds one StdRng and shuffles every bucket in
    // value order before drawing anything else; shuffle consumption
    // depends only on the bucket length, so shuffling the index range
    // 0..s_v reproduces the exact draw stream.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut gid_files: Vec<SimFile> = (0..lambda).map(|_| SimFile::new()).collect();
    // Per value, the bucket positions left for residue assignment, in pop
    // order. At most l − 1 across all values (Property 1).
    let mut residue_positions: Vec<Vec<u32>> = vec![Vec::new(); lambda];
    {
        let _phase = obs.span("bucket_assign");
        let mut perm: Vec<u32> = Vec::new();
        let mut gid_of_pos: Vec<u32> = Vec::new();
        for v in 0..lambda {
            let s_v = counts[v];
            let left = s_v - sched_files[v].record_count();
            perm.clear();
            perm.extend(0..s_v as u32);
            perm.shuffle(&mut rng);
            // The k-th draw from this bucket pops the tuple at position
            // perm[s_v − 1 − k] and joins the k-th group of the value's
            // schedule. The pops after the last draw, from perm[left − 1]
            // down to perm[0], happen during residue assignment.
            gid_of_pos.clear();
            gid_of_pos.resize(s_v, RESIDUE);
            let mut reader = SeqReader::open(&sched_files[v], gid_codec, &pool, counter.clone())?;
            // Draw k pops perm[s_v − 1 − k]: walk perm down from its end.
            let mut pops = perm[left..].iter().rev();
            while let Some(page) = reader.next_page()? {
                for (&gid, &pos) in page.iter().zip(pops.by_ref()) {
                    gid_of_pos[pos as usize] = gid;
                }
            }
            drop(reader);
            residue_positions[v] = perm[..left].iter().rev().copied().collect();
            let mut w = SeqWriter::open(&mut gid_files[v], gid_codec, cfg, &pool, counter.clone())?;
            w.push_rows(&gid_of_pos)?;
            w.finish()?;
        }
    }

    // ---- Phase 4: replay the residue draws (Lines 9–12). ----
    // Visit order comes from the schedule; candidate lists are replayed
    // against the per-value schedule files exactly as the in-memory
    // engine maintains them (built once per value, shrunk per pick). Each
    // residue is kept as (value, position, gid), sorted for the join.
    let mut residues: Vec<(u32, u32, u32)> = Vec::new();
    {
        let _phase = obs.span("residue_assign");
        for &v in &outcome.residual {
            let pending = std::mem::take(&mut residue_positions[v as usize]);
            if pending.is_empty() {
                continue;
            }
            let sched: Vec<u32> = {
                let file = &sched_files[v as usize];
                let mut reader = SeqReader::open(file, gid_codec, &pool, counter.clone())?;
                let mut sched = Vec::with_capacity(file.record_count());
                while let Some(page) = reader.next_page()? {
                    sched.extend_from_slice(page);
                }
                sched
            };
            let mut picked: Vec<u32> = Vec::new();
            for pos in pending {
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
                residues.push((v, pos, gid));
            }
        }
        residues.sort_unstable();
    }

    // ---- Phase 5: join the group ids onto the input rows (QIT). ----
    let qit = {
        let _phase = obs.span("qit_merge");
        qit_merge(&input, &gid_files, &residues, m, d, cfg, &pool, counter)?
    };
    drop(gid_files);
    drop(input);

    // ---- Phase 6: to (group, value) order (ST). ----
    let st = {
        let _phase = obs.span("st_merge");
        let mut residue_keys: Vec<(u32, u32)> =
            residues.iter().map(|&(v, _, gid)| (gid, v)).collect();
        residue_keys.sort_unstable();
        st_merge(&sched_files, &residue_keys, m, l, cfg, &pool, counter)?
    };

    obs.counter("core.sharded_runs").incr();
    obs.counter("core.rows_anatomized_sharded").add(n as u64);
    let stats = counter.stats().since(&before);
    obs.gauge("sharded.pages_read")
        .set(stats.page_reads.min(i64::MAX as u64) as i64);
    obs.gauge("sharded.pages_written")
        .set(stats.page_writes.min(i64::MAX as u64) as i64);

    Ok(ShardedAnatomizeOutput {
        qit,
        st,
        groups: m,
        stats,
    })
}

/// Phase 5: the QIT `(qi…, gid)` in the microdata's row order, by one
/// sequential join of the `(qi…, s)` input with the gid files.
///
/// Gid file `v` lists value `v`'s group ids in bucket-position order,
/// which is the order of its rows in the input, so each input row takes
/// the next entry of its value's file. A `RESIDUE` entry takes its group
/// from `residues`, ascending `(value, position, gid)` triples. A gid file
/// that ends before its value's rows do or runs past them, a group id of
/// `m` or more and a residue entry with no residue are an
/// [`CoreError::InvalidPartition`] naming the value.
///
/// Each input page's QIT rows are built in one page-sized buffer and
/// written with one call, so a QIT page is flushed after the gid reads of
/// the next input page's rows. Leases a page per gid file, the input's
/// page and the output page.
#[allow(clippy::too_many_arguments)]
fn qit_merge(
    input: &SimFile,
    gid_files: &[SimFile],
    residues: &[(u32, u32, u32)],
    m: usize,
    d: usize,
    cfg: PageConfig,
    pool: &BufferPool,
    counter: &IoCounter,
) -> Result<SimFile, CoreError> {
    let row_codec = U32RowCodec::new(d + 1);
    let mut gids: Vec<SeqReader<'_>> = gid_files
        .iter()
        .map(|f| SeqReader::open(f, U32RowCodec::new(1), pool, counter.clone()))
        .collect::<Result<_, _>>()?;
    let mut rows = SeqReader::open(input, row_codec, pool, counter.clone())?;
    let mut qit = SimFile::new();
    let mut w = SeqWriter::open(&mut qit, row_codec, cfg, pool, counter.clone())?;
    // Each value's next bucket position.
    let mut next = vec![0u32; gid_files.len()];
    // One input page's QIT rows: the page with each row's value replaced
    // by its group id. QIT rows are as wide as input rows, so this is one
    // output page.
    let mut out = Vec::with_capacity(cfg.records_per_page(row_codec.record_len())? * (d + 1));
    while let Some(page) = rows.next_page()? {
        out.clear();
        out.extend_from_slice(page);
        for row in out.chunks_exact_mut(d + 1) {
            let v = row[d] as usize;
            let pos = &mut next[v];
            let Some(&[entry]) = gids[v].next_row()? else {
                return Err(CoreError::InvalidPartition(format!(
                    "QIT merge: the gid file of value {v} ends after {pos} of its rows"
                )));
            };
            let gid = if entry == RESIDUE {
                let key = (v as u32, *pos);
                let i = residues
                    .binary_search_by_key(&key, |&(value, p, _)| (value, p))
                    .map_err(|_| {
                        CoreError::InvalidPartition(format!(
                            "QIT merge: position {pos} of value {v} is marked residue but has none"
                        ))
                    })?;
                residues[i].2
            } else {
                entry
            };
            if gid as usize >= m {
                return Err(CoreError::InvalidPartition(format!(
                    "QIT merge: value {v} names group {gid}, outside 0..{m}"
                )));
            }
            *pos += 1;
            row[d] = gid;
        }
        w.push_rows(&out)?;
    }
    for (v, reader) in gids.iter_mut().enumerate() {
        if reader.next_row()?.is_some() {
            return Err(CoreError::InvalidPartition(format!(
                "QIT merge: the gid file of value {v} runs past its {} rows",
                next[v]
            )));
        }
    }
    w.finish()?;
    Ok(qit)
}

/// Phase 6: the ST `(gid, value, 1)` in (group, value) order.
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
/// Each window's records are written with one call. Leases a page per
/// schedule, the output page and the window's page.
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
    // The window's ST records, back to back.
    let mut window: Vec<u32> = Vec::with_capacity(3 * (values.len() + l));
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
        window.clear();
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
                    window.extend_from_slice(&[gid, v, 1]);
                }
                window.extend_from_slice(&[gid, value, 1]);
            }
            for v in scheduled {
                window.extend_from_slice(&[gid, v, 1]);
            }
        }
        w.push_rows(&window)?;
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
    fn one_run_bills_each_pass_exactly() {
        // 6 003 rows over 10 values (601 each for values 0–2, 600 for the
        // rest) at l = 5: 1 200 groups and 3 residues, one in each of three
        // values. 256-byte pages hold 32 input or QIT rows, 64 ids or 21
        // ST records. Pass by pass:
        // - bucket_count reads the input: ⌈6003/32⌉ = 188 pages;
        // - group_schedule writes 10 schedule files of 599–600 ids, 10
        //   pages each: 100;
        // - bucket_assign reads them (100) and writes 10 gid files of
        //   600–601 ids (100);
        // - residue_assign re-reads the 3 residual values' schedules: 30;
        // - qit_merge reads the input (188) and the gid files (100) and
        //   writes the QIT (188);
        // - st_merge reads the schedules (100) and writes ⌈6003/21⌉ = 286
        //   ST pages.
        const READS: u64 = 188 + 100 + 30 + 188 + 100 + 100;
        const WRITES: u64 = 100 + 100 + 188 + 286;
        let n = 6003usize;
        let tuples: Vec<(u32, u32)> = (0..n).map(|i| (i as u32 % 900, i as u32 % 10)).collect();
        let md = md_from(&tuples, 900, 10);
        let config = AnatomizeConfig::new(5);
        let shard = shard_cfg(256, 1, 16);
        let out = anatomize_sharded(&md, &config, &shard, &IoCounter::new()).unwrap();
        let qi_schema = md.table().schema().project(&[0]).unwrap();
        assert_eq!(out.into_tables(qi_schema, 5).unwrap(), oracle(&md, &config));
        assert_eq!(out.groups, 1200);
        assert_eq!(
            (out.stats.page_reads, out.stats.page_writes),
            (READS, WRITES)
        );
        // The model charges every per-value file a partial page and every
        // one of the l − 1 possible residual values a schedule file.
        let model = model_pages(n, 1, 10, 5, &shard);
        assert_eq!(model, 1412);
        let measured = out.stats.total() as f64;
        assert!(
            measured <= model as f64 * 1.5 && measured >= model as f64 / 1.5,
            "measured {measured} vs model {model}"
        );
        // The fan-out sets only the budget: the same run at 4 shards makes
        // the same passes.
        let wide = anatomize_sharded(&md, &config, &shard_cfg(256, 4, 8), &IoCounter::new());
        assert_eq!(wide.unwrap().stats, out.stats);
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

    /// The QIT join of 20 input rows `(100 + r, r % 2)` (d = 1) with the
    /// given per-value gid files and `(value, position, gid)` residues
    /// over `m` groups, on 64-byte pages.
    fn join(
        gids: &[Vec<u32>],
        residues: &[(u32, u32, u32)],
        m: usize,
    ) -> Result<SimFile, CoreError> {
        let rows: Vec<Vec<u32>> = (0..20).map(|r| vec![100 + r, r % 2]).collect();
        let files: Vec<SimFile> = gids
            .iter()
            .map(|g| file_of(&g.iter().map(|&x| vec![x]).collect::<Vec<_>>(), 1))
            .collect();
        qit_merge(
            &file_of(&rows, 2),
            &files,
            residues,
            m,
            1,
            PageConfig::with_page_size(64),
            &BufferPool::unbounded(),
            &IoCounter::new(),
        )
    }

    /// Gid files giving row `r` group `r / 2`: each value's position `p`
    /// gets group `p`.
    fn halves() -> Vec<Vec<u32>> {
        vec![(0..10).collect(), (0..10).collect()]
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
    fn qit_merge_joins_group_ids_onto_rows_in_order() {
        // Row 9 (value 1, position 4) is a residue sent to group 4.
        let mut gids = halves();
        gids[1][4] = RESIDUE;
        let qit = join(&gids, &[(1, 4, 4)], 10).unwrap();
        let expected: Vec<Vec<u32>> = (0..20).map(|r| vec![100 + r, r / 2]).collect();
        assert_eq!(read_all(&qit, 2), expected);
    }

    #[test]
    fn qit_merge_refuses_a_gid_file_that_ends_early_or_runs_long() {
        let mut gids = halves();
        gids[1].pop();
        let msg = invalid(join(&gids, &[], 10));
        assert!(
            msg.contains("gid file of value 1 ends after 9 of its rows"),
            "{msg}"
        );
        let mut gids = halves();
        gids[0].push(3);
        let msg = invalid(join(&gids, &[], 10));
        assert!(
            msg.contains("gid file of value 0 runs past its 10 rows"),
            "{msg}"
        );
    }

    #[test]
    fn qit_merge_refuses_a_group_past_m() {
        let mut gids = halves();
        gids[0][7] = 10;
        let msg = invalid(join(&gids, &[], 10));
        assert!(
            msg.contains("value 0 names group 10, outside 0..10"),
            "{msg}"
        );
        let mut gids = halves();
        gids[1][4] = RESIDUE;
        let msg = invalid(join(&gids, &[(1, 4, 12)], 10));
        assert!(
            msg.contains("value 1 names group 12, outside 0..10"),
            "{msg}"
        );
    }

    #[test]
    fn qit_merge_refuses_a_residue_entry_without_a_residue() {
        let mut gids = halves();
        gids[1][4] = RESIDUE;
        let msg = invalid(join(&gids, &[(1, 5, 4)], 10));
        assert!(
            msg.contains("position 4 of value 1 is marked residue but has none"),
            "{msg}"
        );
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
