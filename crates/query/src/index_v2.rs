//! Bitmap index v2: density-adaptive containers + vectorized batch
//! evaluation.
//!
//! [`crate::index::QueryIndex`] (v1) stores one uncompressed [`Bitmap`]
//! per (attribute, value) — `Σ_i |dom(A_i)| · ⌈n/64⌉` words, which is
//! gigabytes at the ROADMAP's 10M-tuple scale, and every query walks
//! full bitmaps independently. [`QueryIndexV2`] replaces both halves:
//!
//! * **storage** — each (attribute, value) holds one
//!   [`Container`] per non-empty 2¹⁶-row chunk, picked by density
//!   (sorted array / packed bitmap / run-length; see
//!   [`crate::container`]). Because each row contributes exactly one
//!   value per attribute, a column's containers cost `O(n)` bytes
//!   *total* regardless of domain size — versus v1's
//!   `O(n·|dom|/64)`.
//! * **predicate unions** — value containers of one attribute
//!   partition the rows, so `⋃_{v∈V}` can also be computed as
//!   `¬⋃_{v∉V}`; the planner takes whichever side has the smaller
//!   summed container cost (`ColumnIndexV2::or_values`). The result
//!   is the same bit pattern either way.
//! * **batch evaluation** — [`evaluate_exact_batch_v2`] /
//!   [`estimate_anatomy_batch_v2`] answer an entire workload in one
//!   pass: queries are clustered by identical QI predicate lists,
//!   clusters are sorted lexicographically and walked with a
//!   longest-common-prefix stack so each shared partial intersection
//!   is materialized once, each cluster's sensitive-value counts are
//!   computed once (see below), and the per-group hit-count loop streams
//!   the accumulator words in ascending group order (each word touched
//!   once). Cluster runs sharing a first predicate are chunked across
//!   [`Pool`] as [`ItemCost::Heavy`] items.
//! * **sensitive counts** — an exact COUNT needs, per wanted sensitive
//!   value, the rows of the QI conjunction carrying it. The index keeps
//!   both the sensitive column's containers and each row's code in
//!   permuted order (4 bytes per row), and counts whichever way is
//!   cheaper for the input: one scan of the conjunction's set bits into a
//!   λ-histogram (popcount plus word count) or one `and_count` per wanted
//!   value (their summed container cost). A narrow conjunction under a
//!   wide sensitive predicate, the drill-down shape, scans.
//!
//! Everything here is an **exact replacement**: exact COUNTs are
//! bit-identical to [`crate::evaluate_exact`] and estimates sum
//! identical f64 terms in identical ascending-group order as
//! [`fn@crate::estimate_anatomy`] — the scalar paths and index v1 stay in
//! the crate as differential oracles, and the proptest
//! `v2_equals_scalar` below pins the contract across both
//! [`BucketStrategy`](anatomy_core::BucketStrategy) arms and all three
//! container kinds.

use crate::bitmap::Bitmap;
use crate::container::{Container, ContainerMix, CHUNK_BITS, CHUNK_WORDS};
use crate::error::QueryError;
use crate::index::QueryIndex;
use crate::query::CountQuery;
use anatomy_core::AnatomizedTables;
use anatomy_pool::{ItemCost, Pool};
use anatomy_tables::Microdata;
use std::collections::BTreeMap;

/// One (attribute, value)'s rows: containers for each non-empty chunk,
/// with the summed kernel cost cached for union planning.
#[derive(Debug, Clone)]
struct ValueContainers {
    /// `(chunk_index, container)`, ascending by chunk.
    chunks: Vec<(u32, Container)>,
    /// `Σ` [`Container::op_cost`] — the planner's price for including
    /// this value on either side of a union.
    op_cost: usize,
}

impl ValueContainers {
    fn or_into(&self, words: &mut [u64]) {
        for (chunk, c) in &self.chunks {
            c.or_into(words, *chunk as usize * CHUNK_WORDS);
        }
    }

    fn and_count(&self, words: &[u64]) -> u64 {
        self.chunks
            .iter()
            .map(|(chunk, c)| c.and_count(words, *chunk as usize * CHUNK_WORDS))
            .sum()
    }
}

/// All values of one attribute.
#[derive(Debug, Clone)]
struct ColumnIndexV2 {
    values: Vec<ValueContainers>,
    /// `Σ` over values — the whole column's worth of rows.
    total_op_cost: usize,
}

impl ColumnIndexV2 {
    /// Index `codes` (one per original row) for a domain of
    /// `domain_size` codes; `row_at[p]` is the original row at permuted
    /// position `p`, so per-value position lists come out ascending.
    fn build(codes: &[u32], domain_size: u32, row_at: &[usize]) -> ColumnIndexV2 {
        let mut positions: Vec<Vec<u32>> = vec![Vec::new(); domain_size as usize];
        for (p, &r) in row_at.iter().enumerate() {
            positions[codes[r] as usize].push(p as u32);
        }
        let values: Vec<ValueContainers> = positions
            .into_iter()
            .map(|pos| {
                let mut chunks = Vec::new();
                let mut start = 0usize;
                while start < pos.len() {
                    let chunk = pos[start] >> CHUNK_BITS;
                    let end = start + pos[start..].partition_point(|&p| p >> CHUNK_BITS == chunk);
                    let offsets: Vec<u16> = pos[start..end].iter().map(|&p| p as u16).collect();
                    chunks.push((chunk, Container::from_sorted(&offsets)));
                    start = end;
                }
                let op_cost = chunks.iter().map(|(_, c)| c.op_cost()).sum();
                ValueContainers { chunks, op_cost }
            })
            .collect();
        let total_op_cost = values.iter().map(|v| v.op_cost).sum();
        ColumnIndexV2 {
            values,
            total_op_cost,
        }
    }

    /// OR the union of `values` (sorted, in-domain) into `out`, cleared
    /// first. Takes the direct side or the complement side
    /// (`¬⋃_{v∉values}`), whichever has the smaller summed container
    /// cost — the bit pattern is identical because the value containers
    /// partition the rows.
    fn or_values(&self, values: &[u32], out: &mut Bitmap) {
        out.clear();
        let direct = self.cost_of(values);
        let complement = self.total_op_cost - direct + out.word_count();
        if direct <= complement {
            for &v in values {
                self.values[v as usize].or_into(out.words_mut());
            }
        } else {
            for (v, vc) in self.values.iter().enumerate() {
                if values.binary_search(&(v as u32)).is_err() {
                    vc.or_into(out.words_mut());
                }
            }
            out.invert();
        }
    }

    /// Summed container cost of `values` (in-domain): one kernel pass
    /// over each value's containers.
    fn cost_of(&self, values: &[u32]) -> usize {
        values
            .iter()
            .map(|&v| self.values[v as usize].op_cost)
            .sum()
    }

    /// Whether counting the `values` among `acc`'s rows is cheaper by one
    /// scan of `acc`'s set bits than by one `and_count` per value, in the
    /// planner's word-operation units.
    fn scan_is_cheaper(&self, acc: &Bitmap, values: &[u32]) -> bool {
        acc.count_ones() as usize + acc.word_count() < self.cost_of(values)
    }

    fn container_mix(&self) -> ContainerMix {
        let mut mix = ContainerMix::default();
        for vc in &self.values {
            for (_, c) in &vc.chunks {
                mix.add(c);
            }
        }
        mix
    }
}

/// The compressed, batch-oriented successor of
/// [`QueryIndex`].
///
/// Same three build configurations and the same evaluation contract as
/// v1 — [`QueryIndexV2::try_evaluate_exact`] and
/// [`QueryIndexV2::estimate_anatomy`] are bit-for-bit equal to the
/// scalar paths — plus the whole-workload evaluators
/// [`evaluate_exact_batch_v2`] and [`estimate_anatomy_batch_v2`].
#[derive(Debug, Clone)]
pub struct QueryIndexV2 {
    n: usize,
    qi: Vec<ColumnIndexV2>,
    /// Absent when built from a publication alone.
    sens: Option<ColumnIndexV2>,
    /// `sens_codes[p]`: the sensitive code of the row at permuted
    /// position `p`, built with `sens` (empty without it).
    sens_codes: Vec<u32>,
    /// Per-group `[start, end)` permuted-position ranges.
    group_ranges: Vec<(usize, usize)>,
    grouped: bool,
}

impl QueryIndexV2 {
    /// Index `md` alone: exact evaluation only, all rows in one range.
    pub fn from_microdata(md: &Microdata) -> QueryIndexV2 {
        let _span = anatomy_obs::global().span("query.index_v2_build");
        let row_at: Vec<usize> = (0..md.len()).collect();
        let index = QueryIndexV2 {
            n: md.len(),
            qi: Self::qi_columns(md, &row_at),
            sens: Some(ColumnIndexV2::build(
                md.sensitive_codes(),
                md.sensitive_domain_size(),
                &row_at,
            )),
            sens_codes: md.sensitive_codes().to_vec(),
            group_ranges: vec![(0, md.len())],
            grouped: false,
        };
        index.observe_build();
        index
    }

    /// Index the microdata/publication pair with group-clustered rows:
    /// both exact evaluation and the anatomy estimator are available.
    pub fn build(md: &Microdata, tables: &AnatomizedTables) -> Result<QueryIndexV2, QueryError> {
        if tables.len() != md.len() || tables.qi_count() != md.qi_count() {
            return Err(QueryError::BadSpec(format!(
                "index build mismatch: microdata is {}×{} QI but publication is {}×{}",
                md.len(),
                md.qi_count(),
                tables.len(),
                tables.qi_count()
            )));
        }
        let _span = anatomy_obs::global().span("query.index_v2_build");
        let (pos, group_ranges) = QueryIndex::cluster_by_group(tables);
        let row_at = invert_permutation(&pos);
        let sens_codes = row_at.iter().map(|&r| md.sensitive_codes()[r]).collect();
        let index = QueryIndexV2 {
            n: md.len(),
            qi: Self::qi_columns(md, &row_at),
            sens: Some(ColumnIndexV2::build(
                md.sensitive_codes(),
                md.sensitive_domain_size(),
                &row_at,
            )),
            sens_codes,
            group_ranges,
            grouped: true,
        };
        index.observe_build();
        Ok(index)
    }

    /// Index a publication alone (the analyst's view): only the anatomy
    /// estimator is available.
    pub fn from_published(tables: &AnatomizedTables) -> QueryIndexV2 {
        let _span = anatomy_obs::global().span("query.index_v2_build");
        let (pos, group_ranges) = QueryIndex::cluster_by_group(tables);
        let row_at = invert_permutation(&pos);
        let qi = (0..tables.qi_count())
            .map(|i| ColumnIndexV2::build(tables.qi_codes(i), tables.qi_domain_size(i), &row_at))
            .collect();
        let index = QueryIndexV2 {
            n: tables.len(),
            qi,
            sens: None,
            sens_codes: Vec::new(),
            group_ranges,
            grouped: true,
        };
        index.observe_build();
        index
    }

    fn qi_columns(md: &Microdata, row_at: &[usize]) -> Vec<ColumnIndexV2> {
        (0..md.qi_count())
            .map(|i| ColumnIndexV2::build(md.qi_codes(i), md.qi_domain_size(i), row_at))
            .collect()
    }

    fn observe_build(&self) {
        let obs = anatomy_obs::global();
        if obs.enabled() {
            obs.counter("query.index_builds").incr();
            self.report_gauges();
        }
    }

    /// (Re-)publish the footprint and container-mix gauges to the
    /// global registry. `anatomy serve` builds its indexes before the
    /// registry is enabled, then calls this once the registry is on so
    /// `METRICS` carries them.
    pub fn report_gauges(&self) {
        let obs = anatomy_obs::global();
        let mix = self.container_mix();
        obs.gauge("query.index_v2_bytes")
            .set(self.memory_bytes() as i64);
        obs.gauge("query.index_v2_containers_array")
            .set(mix.arrays as i64);
        obs.gauge("query.index_v2_containers_bitmap")
            .set(mix.bitmaps as i64);
        obs.gauge("query.index_v2_containers_run")
            .set(mix.runs as i64);
    }

    /// Number of indexed rows `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the index covers no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of indexed QI attributes `d`.
    #[inline]
    pub fn qi_count(&self) -> usize {
        self.qi.len()
    }

    /// Number of group ranges (1 when built from microdata alone).
    #[inline]
    pub fn group_count(&self) -> usize {
        self.group_ranges.len()
    }

    /// Whether the index carries a real publication's group clustering.
    #[inline]
    pub fn is_grouped(&self) -> bool {
        self.grouped
    }

    /// Per-kind container census across every column (QI and
    /// sensitive).
    pub fn container_mix(&self) -> ContainerMix {
        let mut mix = ContainerMix::default();
        for col in self.qi.iter().chain(self.sens.iter()) {
            let m = col.container_mix();
            mix.arrays += m.arrays;
            mix.bitmaps += m.bitmaps;
            mix.runs += m.runs;
            mix.array_bytes += m.array_bytes;
            mix.bitmap_bytes += m.bitmap_bytes;
            mix.run_bytes += m.run_bytes;
        }
        mix
    }

    /// Total payload bytes — every container plus the per-row sensitive
    /// codes (4 bytes per row when the index carries the sensitive
    /// column) — the number to compare against v1's `memory_words() * 8`.
    pub fn memory_bytes(&self) -> usize {
        self.container_mix().container_bytes() + 4 * self.sens_codes.len()
    }

    /// The conjunction bitmap of `query`'s QI predicates, or `None`
    /// when no row can qualify. No QI predicates → all-ones.
    fn qi_conjunction(&self, query: &CountQuery) -> Option<Bitmap> {
        let mut acc: Option<Bitmap> = None;
        let mut scratch = Bitmap::new(self.n);
        for (attr, pred) in &query.qi_preds {
            let col = &self.qi[*attr];
            match &mut acc {
                None => {
                    let mut first = Bitmap::new(self.n);
                    col.or_values(pred.values(), &mut first);
                    if !first.any() {
                        return None;
                    }
                    acc = Some(first);
                }
                Some(acc) => {
                    col.or_values(pred.values(), &mut scratch);
                    if !acc.intersect_with(&scratch) {
                        return None;
                    }
                }
            }
        }
        Some(acc.unwrap_or_else(|| Bitmap::ones(self.n)))
    }

    /// Count each of the `wanted` sensitive values (sorted, distinct,
    /// in-domain) among `acc`'s rows, indexed by code; entries of other
    /// codes are unspecified. Scans `acc` into a histogram of
    /// `sens_codes` or probes each value's containers, whichever
    /// [`ColumnIndexV2::scan_is_cheaper`] says. The counts are integers,
    /// so both ways give identical answers.
    fn sensitive_counts(&self, sens: &ColumnIndexV2, acc: &Bitmap, wanted: &[u32]) -> Vec<u64> {
        let mut counts = vec![0u64; sens.values.len()];
        if sens.scan_is_cheaper(acc, wanted) {
            for p in acc.iter_ones() {
                counts[self.sens_codes[p] as usize] += 1;
            }
        } else {
            for &v in wanted {
                counts[v as usize] = sens.values[v as usize].and_count(acc.words());
            }
        }
        counts
    }

    /// Exact COUNT, or an error when the index was built from a
    /// publication alone and carries no sensitive column.
    ///
    /// The sensitive predicate needs no union materialization at all:
    /// one attribute's values partition the rows, so the COUNT is the sum
    /// of the per-value counts within the QI conjunction
    /// (`sensitive_counts`).
    pub fn try_evaluate_exact(&self, query: &CountQuery) -> Result<u64, QueryError> {
        let sens = self.sens.as_ref().ok_or_else(|| {
            QueryError::BadSpec(
                "exact evaluation needs an index built from microdata \
                 (QueryIndexV2::from_microdata or QueryIndexV2::build)"
                    .into(),
            )
        })?;
        if self.n == 0 {
            return Ok(0);
        }
        let Some(acc) = self.qi_conjunction(query) else {
            return Ok(0);
        };
        let wanted = query.sens_pred.values();
        let counts = self.sensitive_counts(sens, &acc, wanted);
        Ok(wanted.iter().map(|&v| counts[v as usize]).sum())
    }

    /// The anatomy estimate (Section 1.2), bit-for-bit equal to
    /// [`fn@crate::estimate_anatomy`]: identical term set, skip rules, and
    /// ascending-group accumulation order.
    ///
    /// # Panics
    ///
    /// Panics when the index is ungrouped or its group count disagrees
    /// with `tables` (a pairing bug, not a data property).
    pub fn estimate_anatomy(&self, tables: &AnatomizedTables, query: &CountQuery) -> f64 {
        self.check_grouping(tables);
        let Some(acc) = self.qi_conjunction(query) else {
            return 0.0;
        };
        let mut estimate = 0.0f64;
        for (j, &(start, end)) in self.group_ranges.iter().enumerate() {
            let h = acc.count_range(start, end) as u32;
            if h == 0 {
                continue;
            }
            let mass = tables.sensitive_mass(j as u32, |v| query.sens_pred.contains(v.code()));
            if mass == 0 {
                continue;
            }
            estimate += (h as f64 / tables.group_size(j as u32) as f64) * mass as f64;
        }
        estimate
    }

    fn check_grouping(&self, tables: &AnatomizedTables) {
        assert!(
            self.grouped,
            "anatomy estimation needs an index built with a publication \
             (QueryIndexV2::build or QueryIndexV2::from_published)"
        );
        assert_eq!(
            self.group_ranges.len(),
            tables.group_count(),
            "index was built for a different publication"
        );
    }
}

/// `pos` maps original row → permuted position; the inverse maps
/// permuted position → original row.
fn invert_permutation(pos: &[usize]) -> Vec<usize> {
    let mut row_at = vec![0usize; pos.len()];
    for (r, &p) in pos.iter().enumerate() {
        row_at[p] = r;
    }
    row_at
}

/// Exact COUNT of `query` via `index` — the v2 replacement for
/// [`crate::evaluate_exact`].
///
/// # Panics
///
/// Panics when `index` was built from a publication alone; use
/// [`QueryIndexV2::try_evaluate_exact`] to handle that case.
pub fn evaluate_exact_indexed_v2(index: &QueryIndexV2, query: &CountQuery) -> u64 {
    index
        .try_evaluate_exact(query)
        .expect("index carries no sensitive column")
}

/// The anatomy estimate of `query` via `index` — the v2 replacement
/// for [`fn@crate::estimate_anatomy`]. See [`QueryIndexV2::estimate_anatomy`].
pub fn estimate_anatomy_indexed_v2(
    index: &QueryIndexV2,
    tables: &AnatomizedTables,
    query: &CountQuery,
) -> f64 {
    index.estimate_anatomy(tables, query)
}

/// Queries sharing one exact QI predicate list, in lexicographic key
/// order. `query_ids` index the caller's slice.
struct Cluster {
    key: Vec<(usize, Vec<u32>)>,
    query_ids: Vec<usize>,
}

/// Cluster `queries` by identical QI predicate lists and return the
/// clusters sorted lexicographically, plus the `[start, end)` spans of
/// consecutive clusters sharing a first predicate (the unit of
/// pool-level parallelism: all longest-common-prefix sharing happens
/// inside one span).
fn cluster_queries(queries: &[CountQuery]) -> (Vec<Cluster>, Vec<(usize, usize)>) {
    let mut map: BTreeMap<Vec<(usize, Vec<u32>)>, Vec<usize>> = BTreeMap::new();
    for (i, q) in queries.iter().enumerate() {
        let key: Vec<(usize, Vec<u32>)> = q
            .qi_preds
            .iter()
            .map(|(attr, pred)| (*attr, pred.values().to_vec()))
            .collect();
        map.entry(key).or_default().push(i);
    }
    let clusters: Vec<Cluster> = map
        .into_iter()
        .map(|(key, query_ids)| Cluster { key, query_ids })
        .collect();
    let mut spans = Vec::new();
    let mut start = 0usize;
    for i in 1..=clusters.len() {
        let boundary = i == clusters.len()
            || clusters[i].key.first() != clusters[start].key.first()
            || clusters[i].key.is_empty();
        if boundary {
            spans.push((start, i));
            start = i;
        }
    }
    (clusters, spans)
}

/// Walk `clusters` (a lexicographically sorted run) with a
/// longest-common-prefix stack: each distinct predicate prefix's
/// partial intersection is materialized exactly once and reused by
/// every cluster that shares it. `visit` receives each cluster's query
/// ids and its final conjunction (`None` = provably empty, every
/// answer is 0 / 0.0).
fn walk_clusters(
    index: &QueryIndexV2,
    clusters: &[Cluster],
    mut visit: impl FnMut(&[usize], Option<&Bitmap>),
) {
    // (prefix element, partial intersection, any bit set)
    let mut stack: Vec<((usize, Vec<u32>), Bitmap, bool)> = Vec::new();
    let mut scratch = Bitmap::new(index.n);
    let mut ones: Option<Bitmap> = None;
    for cluster in clusters {
        let mut keep = 0;
        while keep < stack.len() && keep < cluster.key.len() && stack[keep].0 == cluster.key[keep] {
            keep += 1;
        }
        stack.truncate(keep);
        for elem in &cluster.key[keep..] {
            let (bm, alive) = match stack.last() {
                Some((_, _, false)) => (Bitmap::new(index.n), false),
                Some((_, prev, true)) => {
                    index.qi[elem.0].or_values(&elem.1, &mut scratch);
                    let mut bm = prev.clone();
                    let alive = bm.intersect_with(&scratch);
                    (bm, alive)
                }
                None => {
                    let mut bm = Bitmap::new(index.n);
                    index.qi[elem.0].or_values(&elem.1, &mut bm);
                    let alive = bm.any();
                    (bm, alive)
                }
            };
            stack.push((elem.clone(), bm, alive));
        }
        match stack.last() {
            Some((_, _, false)) => visit(&cluster.query_ids, None),
            Some((_, bm, true)) => visit(&cluster.query_ids, Some(bm)),
            None => {
                let all = ones.get_or_insert_with(|| Bitmap::ones(index.n));
                visit(&cluster.query_ids, Some(all));
            }
        }
    }
}

/// Hit count per group range: one streaming pass in ascending group
/// order, so accumulator words enter cache once (adjacent ranges share
/// only their boundary words).
fn group_hits(index: &QueryIndexV2, acc: &Bitmap) -> Vec<(u32, u32)> {
    let mut nonzero = Vec::new();
    for (j, &(start, end)) in index.group_ranges.iter().enumerate() {
        let h = acc.count_range(start, end) as u32;
        if h > 0 {
            nonzero.push((j as u32, h));
        }
    }
    nonzero
}

fn observe_batch(queries: usize, clusters: usize) {
    let obs = anatomy_obs::global();
    obs.counter("query.batches").incr();
    obs.counter("query.batch_queries").add(queries as u64);
    obs.counter("query.batch_v2_clusters").add(clusters as u64);
    anatomy_obs::tracer().emit(anatomy_obs::EventKind::QueryBatch {
        queries: queries as u64,
    });
}

/// Exact COUNTs for a whole batch via `index`, on `pool` — the v2
/// counterpart of [`crate::evaluate_exact_batch`], bit-identical to
/// per-query [`evaluate_exact_indexed_v2`] (and hence to the scalar
/// scan).
///
/// Within each cluster the counts of every sensitive value any of its
/// queries wants are computed once, by one scan or by per-value probes
/// (see [`QueryIndexV2::try_evaluate_exact`]), and shared by every query;
/// this is exact because one attribute's values partition the rows.
///
/// # Panics
///
/// Like [`evaluate_exact_indexed_v2`]: the index must carry a
/// sensitive column.
pub fn evaluate_exact_batch_v2(
    pool: &Pool,
    index: &QueryIndexV2,
    queries: &[CountQuery],
) -> Vec<u64> {
    let obs = anatomy_obs::global();
    let _span = obs.span("query.batch_v2");
    let sens = index
        .sens
        .as_ref()
        .expect("index carries no sensitive column");
    let (clusters, spans) = cluster_queries(queries);
    observe_batch(queries.len(), clusters.len());
    let per_span = pool.par_map_hinted(&spans, ItemCost::Heavy, |&(lo, hi)| {
        let mut answers: Vec<(usize, u64)> = Vec::new();
        walk_clusters(index, &clusters[lo..hi], |qids, acc| match acc {
            None => answers.extend(qids.iter().map(|&q| (q, 0))),
            Some(acc) => {
                let mut wanted: Vec<u32> = qids
                    .iter()
                    .flat_map(|&q| queries[q].sens_pred.values().iter().copied())
                    .collect();
                wanted.sort_unstable();
                wanted.dedup();
                let counts = index.sensitive_counts(sens, acc, &wanted);
                for &q in qids {
                    let pred = queries[q].sens_pred.values();
                    answers.push((q, pred.iter().map(|&v| counts[v as usize]).sum()));
                }
            }
        });
        answers
    });
    let mut out = vec![0u64; queries.len()];
    for (q, a) in per_span.into_iter().flatten() {
        out[q] = a;
    }
    out
}

/// Anatomy estimates for a whole batch via `index`, on `pool` — the v2
/// counterpart of [`crate::estimate_anatomy_batch`], bit-identical to
/// per-query [`estimate_anatomy_indexed_v2`] (and hence to the scalar
/// estimator).
///
/// Within each cluster the group hit counts `h_j` are computed once
/// and shared; the f64 accumulation per query still runs in ascending
/// group order with the scalar estimator's skip rules, so the sums are
/// identical.
///
/// # Panics
///
/// Like [`QueryIndexV2::estimate_anatomy`]: the index must be grouped
/// and match `tables`.
pub fn estimate_anatomy_batch_v2(
    pool: &Pool,
    index: &QueryIndexV2,
    tables: &AnatomizedTables,
    queries: &[CountQuery],
) -> Vec<f64> {
    let obs = anatomy_obs::global();
    let _span = obs.span("query.batch_v2");
    index.check_grouping(tables);
    let (clusters, spans) = cluster_queries(queries);
    observe_batch(queries.len(), clusters.len());
    let per_span = pool.par_map_hinted(&spans, ItemCost::Heavy, |&(lo, hi)| {
        let mut answers: Vec<(usize, f64)> = Vec::new();
        walk_clusters(index, &clusters[lo..hi], |qids, acc| match acc {
            None => answers.extend(qids.iter().map(|&q| (q, 0.0))),
            Some(acc) => {
                let nonzero = group_hits(index, acc);
                for &q in qids {
                    let pred = &queries[q].sens_pred;
                    let mut estimate = 0.0f64;
                    for &(j, h) in &nonzero {
                        let mass = tables.sensitive_mass(j, |v| pred.contains(v.code()));
                        if mass == 0 {
                            continue;
                        }
                        estimate += (h as f64 / tables.group_size(j) as f64) * mass as f64;
                    }
                    answers.push((q, estimate));
                }
            }
        });
        answers
    });
    let mut out = vec![0.0f64; queries.len()];
    for (q, a) in per_span.into_iter().flatten() {
        out[q] = a;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::ContainerKind;
    use crate::estimate_anatomy::estimate_anatomy;
    use crate::exact::evaluate_exact;
    use crate::index::{estimate_anatomy_indexed, evaluate_exact_indexed};
    use crate::predicate::InPredicate;
    use crate::workload::WorkloadSpec;
    use anatomy_core::{anatomize, AnatomizeConfig, BucketStrategy};
    use anatomy_tables::{Attribute, Schema, TableBuilder};

    /// OCC-5-shaped microdata: wide + binary + medium QI domains so the
    /// index exercises array, bitmap, and run containers at once.
    fn structured_md(n: usize) -> Microdata {
        let schema = Schema::new(vec![
            Attribute::numerical("A", 78),
            Attribute::categorical("B", 2),
            Attribute::numerical("C", 17),
            Attribute::categorical("S", 50),
        ])
        .unwrap();
        let mut b = TableBuilder::new(schema);
        for i in 0..n as u32 {
            b.push_row(&[(i * 31 + 7) % 78, i % 2, (i / 3) % 17, (i * 7 + 3) % 50])
                .unwrap();
        }
        Microdata::with_leading_qi(b.finish(), 3).unwrap()
    }

    fn published(
        md: &Microdata,
        l: usize,
        strategy: BucketStrategy,
    ) -> (AnatomizedTables, QueryIndexV2, QueryIndex) {
        let cfg = AnatomizeConfig::new(l).with_seed(7).with_strategy(strategy);
        let partition = anatomize(md, &cfg).unwrap();
        let tables = AnatomizedTables::publish(md, &partition, l).unwrap();
        let v2 = QueryIndexV2::build(md, &tables).unwrap();
        let v1 = QueryIndex::build(md, &tables).unwrap();
        (tables, v2, v1)
    }

    #[test]
    fn mixed_density_columns_use_all_container_kinds() {
        let md = structured_md(20_000);
        let index = QueryIndexV2::from_microdata(&md);
        let mix = index.container_mix();
        // Binary column B alternates (bitmap), C = (i/3)%17 makes runs
        // of 3 (runs), A and S scatter sparsely (arrays).
        assert!(mix.arrays > 0, "no array containers in {mix:?}");
        assert!(mix.bitmaps > 0, "no bitmap containers in {mix:?}");
        assert!(mix.runs > 0, "no run containers in {mix:?}");
        // Containers plus one 4-byte sensitive code per row.
        assert_eq!(index.memory_bytes(), mix.container_bytes() + 4 * md.len());
        let _ = ContainerKind::Array.name();
    }

    #[test]
    fn v2_memory_stays_below_v1_at_equal_n() {
        let md = structured_md(20_000);
        let tables = {
            let partition = anatomize(&md, &AnatomizeConfig::new(4)).unwrap();
            AnatomizedTables::publish(&md, &partition, 4).unwrap()
        };
        let v1 = QueryIndex::build(&md, &tables).unwrap();
        let v2 = QueryIndexV2::build(&md, &tables).unwrap();
        assert!(
            v2.memory_bytes() < v1.memory_words() * 8,
            "v2 {} bytes vs v1 {} bytes",
            v2.memory_bytes(),
            v1.memory_words() * 8
        );
    }

    #[test]
    fn single_query_paths_match_v1_and_scalar() {
        let md = structured_md(3000);
        for strategy in [BucketStrategy::LargestFirst, BucketStrategy::RoundRobin] {
            let (tables, v2, v1) = published(&md, 4, strategy);
            for qd in 1..=3usize {
                let spec = WorkloadSpec {
                    qd,
                    selectivity: 0.05,
                    count: 30,
                    seed: 5,
                };
                for q in spec.generate(&md).unwrap() {
                    assert_eq!(
                        evaluate_exact_indexed_v2(&v2, &q),
                        evaluate_exact(&md, &q),
                        "exact mismatch on {q}"
                    );
                    let scalar = estimate_anatomy(&tables, &q);
                    assert_eq!(
                        estimate_anatomy_indexed_v2(&v2, &tables, &q).to_bits(),
                        scalar.to_bits(),
                        "estimate mismatch on {q}"
                    );
                    assert_eq!(
                        estimate_anatomy_indexed(&v1, &tables, &q).to_bits(),
                        scalar.to_bits(),
                        "v1 regression on {q}"
                    );
                    assert_eq!(evaluate_exact_indexed(&v1, &q), evaluate_exact(&md, &q));
                }
            }
        }
    }

    /// Row counts straddling the container chunk length (n = 2¹⁶ ± 1
    /// and 2¹⁶ exactly): the final chunk's accumulator tail is 1 word,
    /// absent, or full-width, and every path — serial evaluation and the
    /// chunked batch evaluators — must agree with the scalar oracle bit
    /// for bit.
    #[test]
    fn chunk_boundary_row_counts_agree_with_the_scalar_oracle() {
        use crate::container::CHUNK_LEN;
        for n in [CHUNK_LEN - 1, CHUNK_LEN, CHUNK_LEN + 1] {
            let md = structured_md(n);
            let (tables, v2, _) = published(&md, 4, BucketStrategy::LargestFirst);
            let queries = vec![
                // Dense prefix: B = 0 is a bitmap container in every
                // chunk, including the truncated final one.
                CountQuery {
                    qi_preds: vec![(1, InPredicate::new(vec![0], 2).unwrap())],
                    sens_pred: InPredicate::new(vec![3], 50).unwrap(),
                },
                // Run-shaped C plus sparse A: exercises the run and
                // array kernels against the short accumulator tail.
                CountQuery {
                    qi_preds: vec![
                        (0, InPredicate::range(0, 38, 78).unwrap()),
                        (2, InPredicate::new(vec![16], 17).unwrap()),
                    ],
                    sens_pred: InPredicate::full(50),
                },
                // No QI predicate: the whole-space path.
                CountQuery {
                    qi_preds: vec![],
                    sens_pred: InPredicate::new(vec![0, 49], 50).unwrap(),
                },
            ];
            let built: usize = v2
                .qi
                .iter()
                .chain(v2.sens.iter())
                .flat_map(|col| &col.values)
                .map(|vc| vc.chunks.len())
                .sum();
            assert!(built > 0, "n = {n}: no containers built");
            let pool = Pool::new(2);
            let exact_batch = evaluate_exact_batch_v2(&pool, &v2, &queries);
            let est_batch = estimate_anatomy_batch_v2(&pool, &v2, &tables, &queries);
            for (i, q) in queries.iter().enumerate() {
                assert_eq!(
                    evaluate_exact_indexed_v2(&v2, q),
                    evaluate_exact(&md, q),
                    "n = {n}, query {i}"
                );
                assert_eq!(exact_batch[i], evaluate_exact(&md, q), "n = {n}, query {i}");
                let scalar = estimate_anatomy(&tables, q);
                assert_eq!(
                    estimate_anatomy_indexed_v2(&v2, &tables, q).to_bits(),
                    scalar.to_bits(),
                    "n = {n}, query {i}"
                );
                assert_eq!(
                    est_batch[i].to_bits(),
                    scalar.to_bits(),
                    "n = {n}, query {i}"
                );
            }
        }
    }

    /// One drill-down prefix over rows crossing a chunk boundary: a
    /// 1-value batch takes the probe side and a 50-value batch the scan
    /// side, and both give `evaluate_exact`'s answers, batched and not.
    #[test]
    fn drilldown_counts_agree_on_scan_and_probe_sides() {
        use crate::container::CHUNK_LEN;
        let md = structured_md(CHUNK_LEN + 4_464);
        let (_, v2, _) = published(&md, 4, BucketStrategy::LargestFirst);
        let sens = v2.sens.as_ref().unwrap();
        let prefix = vec![
            (0, InPredicate::range(0, 9, 78).unwrap()),
            (1, InPredicate::new(vec![0], 2).unwrap()),
        ];
        let batch = |values: &[u32]| -> Vec<CountQuery> {
            values
                .iter()
                .map(|&s| CountQuery {
                    qi_preds: prefix.clone(),
                    sens_pred: InPredicate::new(vec![s], 50).unwrap(),
                })
                .collect()
        };
        let acc = v2.qi_conjunction(&batch(&[0])[0]).unwrap();
        assert!(acc.count_ones() > 0);
        let all: Vec<u32> = (0..50).collect();
        assert!(!sens.scan_is_cheaper(&acc, &[7]), "1 value must probe");
        assert!(sens.scan_is_cheaper(&acc, &all), "50 values must scan");
        let pool = Pool::new(2);
        for values in [&[7u32][..], &all] {
            let queries = batch(values);
            let answers = evaluate_exact_batch_v2(&pool, &v2, &queries);
            for (q, answer) in queries.iter().zip(answers) {
                assert_eq!(answer, evaluate_exact(&md, q), "{q}");
                assert_eq!(v2.try_evaluate_exact(q).unwrap(), answer, "{q}");
            }
        }
        // One query wanting every value scans too.
        let wide = CountQuery {
            qi_preds: prefix.clone(),
            sens_pred: InPredicate::full(50),
        };
        assert_eq!(
            v2.try_evaluate_exact(&wide).unwrap(),
            evaluate_exact(&md, &wide)
        );
    }

    #[test]
    fn batch_paths_match_scalar_on_shared_prefix_workloads() {
        let md = structured_md(4000);
        let (tables, v2, _) = published(&md, 4, BucketStrategy::LargestFirst);
        // Drilldown shape: few QI prefixes × every sensitive value —
        // the workload the cluster walker is built for.
        let mut queries = Vec::new();
        for lo in [0u32, 20, 40] {
            for s in 0..50u32 {
                queries.push(CountQuery {
                    qi_preds: vec![
                        (0, InPredicate::range(lo, lo + 19, 78).unwrap()),
                        (1, InPredicate::new(vec![0], 2).unwrap()),
                    ],
                    sens_pred: InPredicate::new(vec![s], 50).unwrap(),
                });
            }
        }
        // Plus irregular queries: no QI preds, full-domain, disjoint.
        queries.push(CountQuery {
            qi_preds: vec![],
            sens_pred: InPredicate::full(50),
        });
        queries.push(CountQuery {
            qi_preds: vec![(2, InPredicate::full(17))],
            sens_pred: InPredicate::new(vec![3, 7], 50).unwrap(),
        });
        let pool = Pool::new(4);
        let exact = evaluate_exact_batch_v2(&pool, &v2, &queries);
        let est = estimate_anatomy_batch_v2(&pool, &v2, &tables, &queries);
        for (i, q) in queries.iter().enumerate() {
            assert_eq!(exact[i], evaluate_exact(&md, q), "query {i}");
            assert_eq!(
                est[i].to_bits(),
                estimate_anatomy(&tables, q).to_bits(),
                "query {i}"
            );
        }
    }

    #[test]
    fn empty_conjunctions_and_dead_prefixes_answer_zero() {
        let md = structured_md(1000);
        let (tables, v2, _) = published(&md, 4, BucketStrategy::LargestFirst);
        // C = (i/3) % 17 never exceeds 16; pair a live prefix with a
        // dead extension and a fully dead prefix.
        let dead = CountQuery {
            qi_preds: vec![
                (0, InPredicate::new(vec![0], 78).unwrap()),
                (1, InPredicate::new(vec![1], 2).unwrap()),
                (2, InPredicate::new(vec![16], 17).unwrap()),
            ],
            sens_pred: InPredicate::full(50),
        };
        let queries = vec![dead.clone(), dead];
        let pool = Pool::new(2);
        let exact = evaluate_exact_batch_v2(&pool, &v2, &queries);
        let est = estimate_anatomy_batch_v2(&pool, &v2, &tables, &queries);
        for i in 0..queries.len() {
            assert_eq!(exact[i], evaluate_exact(&md, &queries[i]));
            assert_eq!(
                est[i].to_bits(),
                estimate_anatomy(&tables, &queries[i]).to_bits()
            );
        }
    }

    #[test]
    fn published_only_index_estimates_but_cannot_count() {
        let md = structured_md(600);
        let partition = anatomize(&md, &AnatomizeConfig::new(4)).unwrap();
        let tables = AnatomizedTables::publish(&md, &partition, 4).unwrap();
        let index = QueryIndexV2::from_published(&tables);
        let q = CountQuery {
            qi_preds: vec![(0, InPredicate::range(0, 40, 78).unwrap())],
            sens_pred: InPredicate::new(vec![1], 50).unwrap(),
        };
        assert_eq!(
            index.estimate_anatomy(&tables, &q).to_bits(),
            estimate_anatomy(&tables, &q).to_bits()
        );
        assert!(index.try_evaluate_exact(&q).is_err());
    }

    #[test]
    fn build_rejects_mismatched_pairs() {
        let md = structured_md(100);
        let other = structured_md(200);
        let partition = anatomize(&other, &AnatomizeConfig::new(4)).unwrap();
        let tables = AnatomizedTables::publish(&other, &partition, 4).unwrap();
        assert!(QueryIndexV2::build(&md, &tables).is_err());
    }

    #[test]
    fn empty_microdata_index_is_sane() {
        let schema = Schema::new(vec![
            Attribute::numerical("A", 10),
            Attribute::categorical("S", 4),
        ])
        .unwrap();
        let md = Microdata::with_leading_qi(TableBuilder::new(schema).finish(), 1).unwrap();
        let index = QueryIndexV2::from_microdata(&md);
        let q = CountQuery {
            qi_preds: vec![(0, InPredicate::new(vec![3], 10).unwrap())],
            sens_pred: InPredicate::full(4),
        };
        assert_eq!(evaluate_exact_indexed_v2(&index, &q), 0);
        let pool = Pool::new(1);
        assert_eq!(evaluate_exact_batch_v2(&pool, &index, &[q]), vec![0]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            /// The differential oracle of the ISSUE: on arbitrary
            /// microdata, both bucket strategies, and workloads whose
            /// selectivities sweep the container density thresholds,
            /// every v2 path — single-query and batch, exact and
            /// estimate — equals the scalar oracles bit-for-bit.
            #[test]
            fn v2_equals_scalar(
                rows in proptest::collection::vec((0u32..12, 0u32..2, 0u32..6), 16..160),
                round_robin in 0u32..2,
                sel_idx in 0usize..4,
                l in 2usize..4,
                seed in 0u64..30,
            ) {
                // Selectivities spanning the container density
                // thresholds: near-point predicates (arrays) up to
                // full-domain ones (complement-side unions, runs).
                let selectivity = [0.01, 0.1, 0.6, 1.0][sel_idx];
                let schema = Schema::new(vec![
                    Attribute::numerical("A", 12),
                    Attribute::categorical("B", 2),
                    Attribute::categorical("S", 6),
                ])
                .unwrap();
                let mut b = TableBuilder::new(schema);
                for (a, bb, s) in &rows {
                    b.push_row(&[*a, *bb, *s]).unwrap();
                }
                let md = Microdata::with_leading_qi(b.finish(), 2).unwrap();
                let strategy = if round_robin == 1 {
                    BucketStrategy::RoundRobin
                } else {
                    BucketStrategy::LargestFirst
                };

                let spec = WorkloadSpec { qd: 2, selectivity, count: 12, seed };
                let Ok(queries) = spec.generate(&md) else { return Ok(()); };

                // Exact against the microdata-only index.
                let md_index = QueryIndexV2::from_microdata(&md);
                let pool = Pool::new(2);
                let batch = evaluate_exact_batch_v2(&pool, &md_index, &queries);
                for (i, q) in queries.iter().enumerate() {
                    let oracle = evaluate_exact(&md, q);
                    prop_assert_eq!(evaluate_exact_indexed_v2(&md_index, q), oracle);
                    prop_assert_eq!(batch[i], oracle);
                }

                // Estimates against an eligible publication.
                let Ok(partition) =
                    anatomize(&md, &AnatomizeConfig::new(l).with_seed(seed).with_strategy(strategy))
                else {
                    return Ok(());
                };
                let tables = AnatomizedTables::publish(&md, &partition, l).unwrap();
                let index = QueryIndexV2::build(&md, &tables).unwrap();
                let est_batch = estimate_anatomy_batch_v2(&pool, &index, &tables, &queries);
                let exact_batch = evaluate_exact_batch_v2(&pool, &index, &queries);
                for (i, q) in queries.iter().enumerate() {
                    prop_assert_eq!(exact_batch[i], evaluate_exact(&md, q));
                    let scalar = estimate_anatomy(&tables, q);
                    prop_assert_eq!(
                        estimate_anatomy_indexed_v2(&index, &tables, q).to_bits(),
                        scalar.to_bits()
                    );
                    prop_assert_eq!(est_batch[i].to_bits(), scalar.to_bits());
                }
            }
        }
    }
}
