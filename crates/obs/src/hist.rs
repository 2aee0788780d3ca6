//! Log₂-bucketed histograms for latencies and sizes.
//!
//! A value `v` lands in bucket `0` if `v == 0`, else in bucket
//! `64 - v.leading_zeros()`, so bucket `i ≥ 1` covers `[2^(i-1), 2^i)`.
//! 65 buckets therefore cover all of `u64` — nanosecond latencies from
//! sub-microsecond to hours, row counts from one to the address space —
//! with a fixed 65-word footprint and one `fetch_add` per record.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

pub(crate) const BUCKETS: usize = 65;

#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Upper bound (inclusive) of the values a bucket can hold.
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

#[derive(Debug)]
pub(crate) struct HistCell {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistCell {
    fn default() -> Self {
        HistCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl HistCell {
    pub(crate) fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// A log₂ histogram handle. Cheap to clone; clones share the cell.
#[derive(Debug, Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cell: Arc<HistCell>,
}

impl Histogram {
    pub(crate) fn new(enabled: Arc<AtomicBool>, cell: Arc<HistCell>) -> Self {
        Histogram { enabled, cell }
    }

    /// Record one value (no-op while the registry is disabled).
    #[inline]
    pub fn record(&self, v: u64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.cell.record(v);
        }
    }

    /// Current contents.
    pub fn snapshot(&self) -> HistSnapshot {
        self.cell.snapshot()
    }
}

/// Point-in-time histogram contents. Keeps the raw bucket counts so
/// deltas ([`HistSnapshot::since`]) can still answer percentile queries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values (wraps only past `u64::MAX` total).
    pub sum: u64,
    /// Largest recorded value (high-water over the cell's lifetime; a
    /// delta caps it by the window's highest occupied bucket, see
    /// [`HistSnapshot::since`]).
    pub max: u64,
    /// One count per log₂ bucket, index `0..=64`.
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Mean of recorded values, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `p`-quantile
    /// (`0.0 ..= 1.0`), `0` when empty. A log₂ histogram answers
    /// percentiles to within 2×, which is the granularity that matters
    /// for "did this phase regress by an order of magnitude".
    ///
    /// Every percentile is capped at [`max`](HistSnapshot::max), so no
    /// reported quantile can exceed the largest value actually seen
    /// (`percentile(1.0) == max` exactly). `p <= 0.0` is well-defined
    /// as rank 1 — the smallest recorded value's bucket upper bound —
    /// and `p` outside `0.0..=1.0` is clamped into range.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Counts accumulated since `earlier` (same histogram, earlier
    /// snapshot). The cell only tracks a lifetime high-water `max`, so
    /// the delta takes `self.max` *capped by the upper bound of the
    /// window's highest occupied bucket* (`0` for an empty window):
    /// without the cap, a delta whose largest value landed in a low
    /// bucket would report the stale lifetime max, and percentiles —
    /// which are themselves capped at `max` — would inherit bounds no
    /// value in the window ever reached.
    ///
    /// Registry-produced snapshots always have `BUCKETS` (65) buckets;
    /// mismatched lengths (possible with a deserialized or hand-built
    /// snapshot) are a debug assertion, and release builds pad the
    /// shorter side with zeros rather than silently truncating.
    pub fn since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        debug_assert_eq!(
            self.buckets.len(),
            earlier.buckets.len(),
            "HistSnapshot::since across mismatched bucket counts"
        );
        let n = self.buckets.len().max(earlier.buckets.len());
        let buckets: Vec<u64> = (0..n)
            .map(|i| {
                let now = self.buckets.get(i).copied().unwrap_or(0);
                let then = earlier.buckets.get(i).copied().unwrap_or(0);
                now.saturating_sub(then)
            })
            .collect();
        let window_upper = buckets.iter().rposition(|&c| c > 0).map_or(0, bucket_upper);
        HistSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max.min(window_upper),
            buckets,
        }
    }

    /// Fold another snapshot of the *same* histogram into this one —
    /// the composition a rolling window needs when its per-tick deltas
    /// are re-aggregated over a ring. Buckets, counts, and sums add;
    /// `max` takes the larger side, so a merged window's percentiles —
    /// capped at `max` like every percentile — can never exceed the
    /// largest (window-capped) max of any constituent delta.
    pub fn merge_in(&mut self, other: &HistSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] = self.buckets[i].saturating_add(c);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_partition_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 1..BUCKETS {
            assert_eq!(bucket_of(bucket_upper(i)), i, "upper bound of {i}");
        }
    }

    fn recording_hist() -> Histogram {
        Histogram::new(
            Arc::new(AtomicBool::new(true)),
            Arc::new(HistCell::default()),
        )
    }

    #[test]
    fn mean_and_percentiles() {
        let h = recording_hist();
        for v in [1u64, 2, 4, 8, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1015);
        assert_eq!(s.max, 1000);
        assert_eq!(s.mean(), 203.0);
        // p50 rank = 3 → third value (4) → bucket [4,8) upper bound 7.
        assert_eq!(s.percentile(0.5), 7);
        // p100 caps at the observed max, not the bucket bound.
        assert_eq!(s.percentile(1.0), 1000);
        assert_eq!(HistSnapshot::default().percentile(0.9), 0);
    }

    fn short_snapshot() -> HistSnapshot {
        // A hand-built (e.g. deserialized) snapshot with fewer buckets
        // than the registry's fixed 65.
        HistSnapshot {
            count: 1,
            sum: 2,
            max: 2,
            buckets: vec![0, 0, 1],
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "mismatched bucket counts")]
    fn since_asserts_on_mismatched_lengths() {
        let h = recording_hist();
        h.record(2);
        let _ = h.snapshot().since(&short_snapshot());
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn since_pads_mismatched_lengths_symmetrically() {
        let h = recording_hist();
        h.record(2);
        h.record(1000);
        // Longer self vs shorter earlier: the tail survives untouched.
        let d = h.snapshot().since(&short_snapshot());
        assert_eq!(d.buckets.len(), BUCKETS);
        assert_eq!(d.buckets[bucket_of(2)], 0);
        assert_eq!(d.buckets[bucket_of(1000)], 1);
        // Shorter self vs longer earlier: result spans the longer side.
        let d = short_snapshot().since(&h.snapshot());
        assert_eq!(d.buckets.len(), BUCKETS);
        assert!(d.buckets.iter().all(|&c| c == 0));
    }

    #[test]
    fn percentile_zero_is_rank_one() {
        let h = recording_hist();
        for v in [5u64, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        // p=0.0 clamps to rank 1: the smallest value's bucket bound.
        assert_eq!(s.percentile(0.0), 7); // 5 lands in [4,8)
        assert_eq!(s.percentile(-3.0), 7); // clamped into range
        assert_eq!(s.percentile(2.0), 1000); // clamped to p=1.0 → max
    }

    #[test]
    fn percentiles_never_exceed_max() {
        // A single value whose bucket bound exceeds it: every quantile
        // must report the observed max, not the looser bucket bound.
        let h = recording_hist();
        h.record(1000); // bucket [512, 1024), upper bound 1023
        let s = h.snapshot();
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.percentile(p), 1000, "p={p}");
        }
    }

    #[test]
    fn since_caps_max_to_the_window() {
        let h = recording_hist();
        h.record(1_000_000); // lifetime max, outside the window
        let before = h.snapshot();
        h.record(900);
        h.record(1000);
        let d = h.snapshot().since(&before);
        assert_eq!(d.count, 2);
        // The delta's max is bounded by its highest occupied bucket
        // ([512,1024) → 1023), not the stale lifetime high-water.
        assert_eq!(d.max, 1023);
        assert!(d.percentile(0.5) <= d.max);
        assert_eq!(d.percentile(1.0), 1023);
        // An empty window reports zero, not the lifetime max.
        let empty = h.snapshot().since(&h.snapshot());
        assert_eq!(empty.count, 0);
        assert_eq!(empty.max, 0);
    }

    #[test]
    fn since_subtracts_buckets() {
        let h = recording_hist();
        h.record(10);
        let before = h.snapshot();
        h.record(10);
        h.record(3);
        let d = h.snapshot().since(&before);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 13);
        assert_eq!(d.buckets[bucket_of(10)], 1);
        assert_eq!(d.buckets[bucket_of(3)], 1);
    }
}
