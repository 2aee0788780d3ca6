//! Rolling time windows over registry snapshots.
//!
//! A long-lived process (the resident `anatomy serve`) needs more than
//! lifetime aggregates: "what is p99 *right now*" and "what was the
//! query rate over the last minute" are window questions. This module
//! answers them with O(ring) memory and **zero** added write-path cost:
//! the hot paths keep recording through the same one-relaxed-atomic
//! instruments, and a single sampler thread periodically captures a
//! [`Snapshot`] delta ([`Snapshot::since`]) into a fixed ring of time
//! buckets.
//!
//! Two rings are kept (the classic 60×1s / 60×1m layout by default): a
//! *fine* ring of one delta per tick, and a *coarse* ring where every
//! `coarse_every` ticks fold into one bucket. Aggregating a window
//! merges the occupied buckets ([`Snapshot::merge_in`]), so windowed
//! histogram percentiles inherit the delta-capping fix: a merged
//! window's `max` is the largest *window-capped* max of its buckets,
//! and no reported percentile can exceed it.
//!
//! Gauges get window semantics sampled at tick granularity: the value
//! is the latest sample, the max is the highest sample *inside the
//! window* — not the lifetime high-water mark the cumulative snapshot
//! carries. A spike older than the ring ages out.

use crate::registry::GaugeStats;
use crate::snapshot::Snapshot;
use crate::Registry;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Ring layout: tick width and bucket counts of the fine/coarse rings.
#[derive(Debug, Clone)]
pub struct WindowConfig {
    /// Sampler period — the width of one fine bucket and the staleness
    /// bound of every windowed answer.
    pub tick: Duration,
    /// Fine-ring length, in ticks (window span = `tick × fine_len`).
    pub fine_len: usize,
    /// Ticks folded into one coarse bucket.
    pub coarse_every: usize,
    /// Coarse-ring length, in coarse buckets.
    pub coarse_len: usize,
}

impl Default for WindowConfig {
    /// 60 × 1s fine plus 60 × 1m coarse: one hour of history in 120
    /// snapshots.
    fn default() -> WindowConfig {
        WindowConfig {
            tick: Duration::from_secs(1),
            fine_len: 60,
            coarse_every: 60,
            coarse_len: 60,
        }
    }
}

impl WindowConfig {
    fn clamped(mut self) -> WindowConfig {
        self.tick = self.tick.max(Duration::from_millis(1));
        self.fine_len = self.fine_len.max(1);
        self.coarse_every = self.coarse_every.max(1);
        self.coarse_len = self.coarse_len.max(1);
        self
    }
}

/// A fixed ring of per-bucket deltas. Pushing past capacity overwrites
/// the oldest bucket; aggregation walks the occupied buckets oldest
/// first so gauge "latest value" semantics come out right.
#[derive(Debug)]
struct Ring {
    slots: Vec<Option<Snapshot>>,
    /// Next slot to overwrite; slots `[next - filled, next)` (mod len)
    /// are occupied, oldest first.
    next: usize,
    filled: usize,
}

impl Ring {
    fn new(len: usize) -> Ring {
        Ring {
            slots: (0..len).map(|_| None).collect(),
            next: 0,
            filled: 0,
        }
    }

    fn push(&mut self, delta: Snapshot) {
        self.slots[self.next] = Some(delta);
        self.next = (self.next + 1) % self.slots.len();
        self.filled = (self.filled + 1).min(self.slots.len());
    }

    /// Merge the occupied buckets, oldest first.
    fn aggregate(&self) -> (Snapshot, usize) {
        let len = self.slots.len();
        let mut merged = Snapshot::default();
        for i in 0..self.filled {
            let idx = (self.next + len - self.filled + i) % len;
            if let Some(delta) = &self.slots[idx] {
                merged.merge_in(delta);
            }
        }
        (merged, self.filled)
    }
}

/// One window's merged view: everything the ring currently covers.
#[derive(Debug, Clone)]
pub struct WindowAggregate {
    /// Human label, e.g. `"60s"` or `"60m"` (span = bucket × length).
    pub label: String,
    /// Occupied buckets (< ring length until the ring fills).
    pub buckets: usize,
    /// Seconds the occupied buckets span.
    pub seconds: f64,
    /// The merged delta: counters are per-window totals, histograms
    /// answer window percentiles, gauges carry the latest sample and
    /// the window-sampled max.
    pub delta: Snapshot,
}

impl WindowAggregate {
    /// A counter's per-second rate over the window (`0.0` while empty).
    pub fn rate(&self, counter: &str) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.delta.counters.get(counter).copied().unwrap_or(0) as f64 / self.seconds
    }
}

/// Label a window span like `45s`, `60s`, `60m`, `2h`.
fn span_label(seconds: f64) -> String {
    let s = seconds.round() as u64;
    if s >= 7200 && s.is_multiple_of(3600) {
        format!("{}h", s / 3600)
    } else if s >= 120 && s.is_multiple_of(60) {
        format!("{}m", s / 60)
    } else {
        format!("{s}s")
    }
}

/// The ring state behind a sampler: feed it cumulative snapshots with
/// [`Windows::tick`], read merged views with [`Windows::aggregates`].
/// Plain data — callers that want a thread wrap it in the
/// [`Sampler`].
#[derive(Debug)]
pub struct Windows {
    cfg: WindowConfig,
    /// Cumulative registry state at the previous tick.
    last: Snapshot,
    fine: Ring,
    coarse: Ring,
    /// Fine deltas accumulating toward the next coarse bucket.
    coarse_acc: Snapshot,
    coarse_pending: usize,
    ticks: u64,
}

impl Windows {
    pub fn new(cfg: WindowConfig) -> Windows {
        let cfg = cfg.clamped();
        Windows {
            fine: Ring::new(cfg.fine_len),
            coarse: Ring::new(cfg.coarse_len),
            cfg,
            last: Snapshot::default(),
            coarse_acc: Snapshot::default(),
            coarse_pending: 0,
            ticks: 0,
        }
    }

    /// Ticks absorbed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The configured layout.
    pub fn config(&self) -> &WindowConfig {
        &self.cfg
    }

    /// Absorb one cumulative snapshot: the delta against the previous
    /// tick goes into the fine ring and accumulates toward the next
    /// coarse bucket. Gauges are re-stamped as point samples (`max =
    /// value`), so windows report window-scoped high-water marks
    /// instead of the registry's lifetime ones.
    pub fn tick(&mut self, now: Snapshot) {
        let mut delta = now.since(&self.last);
        for (name, g) in &mut delta.gauges {
            let sampled = now.gauges.get(name).map(|s| s.value).unwrap_or(g.value);
            *g = GaugeStats {
                value: sampled,
                max: sampled,
            };
        }
        self.last = now;
        self.fine.push(delta.clone());
        self.coarse_acc.merge_in(&delta);
        self.coarse_pending += 1;
        if self.coarse_pending >= self.cfg.coarse_every {
            self.coarse.push(std::mem::take(&mut self.coarse_acc));
            self.coarse_pending = 0;
        }
        self.ticks += 1;
    }

    /// Merged views of both rings, fine first. A coarse view appears
    /// once its first bucket completes.
    pub fn aggregates(&self) -> Vec<WindowAggregate> {
        let tick_secs = self.cfg.tick.as_secs_f64();
        let fine_span = tick_secs * self.cfg.fine_len as f64;
        let coarse_span = tick_secs * self.cfg.coarse_every as f64 * self.cfg.coarse_len as f64;
        let mut out = Vec::with_capacity(2);
        let (delta, buckets) = self.fine.aggregate();
        out.push(WindowAggregate {
            label: span_label(fine_span),
            buckets,
            seconds: tick_secs * buckets as f64,
            delta,
        });
        let (delta, buckets) = self.coarse.aggregate();
        if buckets > 0 {
            out.push(WindowAggregate {
                label: span_label(coarse_span),
                buckets,
                seconds: tick_secs * self.cfg.coarse_every as f64 * buckets as f64,
                delta,
            });
        }
        out
    }
}

/// A background thread sampling a registry into a shared [`Windows`].
/// [`Sampler::stop`] joins it; dropping without stopping leaves a
/// detached thread that parks forever on its stop flag, so call
/// [`Sampler::stop`] on every exit path that outlives the registry's
/// useful life (the serve shutdown path does).
pub struct Sampler {
    stop: Arc<AtomicBool>,
    windows: Arc<Mutex<Windows>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// How often a sampler thread re-checks its stop flag while waiting out
/// a tick, bounding shutdown latency without shortening the tick.
const STOP_POLL: Duration = Duration::from_millis(25);

/// Spawn a sampler thread over `registry` with the given ring layout.
/// Each tick takes one `registry.snapshot()` — the cost is O(registered
/// instruments) on the sampler thread only; writers keep their single
/// relaxed-atomic fast path.
pub fn start_sampler(registry: &'static Registry, cfg: WindowConfig) -> Sampler {
    let cfg = cfg.clamped();
    let windows = Arc::new(Mutex::new(Windows::new(cfg.clone())));
    start_sampler_into(registry, windows)
}

/// Like [`start_sampler`], but feed ring state the caller already holds
/// a handle to — so a server can park the same `Arc` in its shared
/// connection state and render `METRICS` responses from it without
/// owning the [`Sampler`]. The tick period comes from the `Windows`'
/// own [`WindowConfig`].
pub fn start_sampler_into(registry: &'static Registry, windows: Arc<Mutex<Windows>>) -> Sampler {
    let cfg = {
        let mut w = w_lock(&windows);
        // Seed tick 0 on the caller's thread, so the first real tick is
        // a delta from this call, and work recorded after it returns is
        // in the first window rather than the seed.
        w.last = registry.snapshot();
        w.cfg.clone().clamped()
    };
    let stop = Arc::new(AtomicBool::new(false));
    let thread_windows = Arc::clone(&windows);
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("obs-sampler".to_string())
        .spawn(move || {
            let mut elapsed = Duration::ZERO;
            loop {
                if thread_stop.load(Ordering::Acquire) {
                    return;
                }
                let step = STOP_POLL.min(cfg.tick);
                std::thread::sleep(step);
                elapsed += step;
                if elapsed >= cfg.tick {
                    elapsed = Duration::ZERO;
                    let snap = registry.snapshot();
                    w_lock(&thread_windows).tick(snap);
                }
            }
        })
        .expect("spawn obs-sampler thread");
    Sampler {
        stop,
        windows,
        handle: Some(handle),
    }
}

fn w_lock(m: &Mutex<Windows>) -> std::sync::MutexGuard<'_, Windows> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Sampler {
    /// The shared ring state, for readers (the `METRICS` endpoint).
    pub fn windows(&self) -> Arc<Mutex<Windows>> {
        Arc::clone(&self.windows)
    }

    /// Current merged views (convenience over locking
    /// [`Sampler::windows`]).
    pub fn aggregates(&self) -> Vec<WindowAggregate> {
        w_lock(&self.windows).aggregates()
    }

    /// Stop and join the sampler thread, taking one final tick first so
    /// work completed just before shutdown lands in a window.
    pub fn stop(mut self, registry: &Registry) {
        w_lock(&self.windows).tick(registry.snapshot());
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn cfg(fine_len: usize, coarse_every: usize, coarse_len: usize) -> WindowConfig {
        WindowConfig {
            tick: Duration::from_secs(1),
            fine_len,
            coarse_every,
            coarse_len,
        }
    }

    #[test]
    fn windows_isolate_per_tick_deltas() {
        let r = Registry::new();
        r.set_enabled(true);
        let c = r.counter("events");
        let mut w = Windows::new(cfg(4, 4, 2));
        w.tick(r.snapshot()); // empty baseline tick
        c.add(10);
        w.tick(r.snapshot());
        c.add(5);
        w.tick(r.snapshot());
        let aggs = w.aggregates();
        let fine = &aggs[0];
        assert_eq!(fine.delta.counters["events"], 15);
        assert_eq!(fine.buckets, 3);
        assert_eq!(fine.rate("events"), 5.0);
    }

    #[test]
    fn ring_wraparound_ages_out_old_buckets() {
        let r = Registry::new();
        r.set_enabled(true);
        let c = r.counter("events");
        let mut w = Windows::new(cfg(3, 64, 2));
        c.add(100);
        w.tick(r.snapshot()); // bucket A: 100
        for _ in 0..3 {
            c.add(1);
            w.tick(r.snapshot()); // three buckets of 1 push A out
        }
        let fine = &w.aggregates()[0];
        assert_eq!(fine.buckets, 3, "ring stays at capacity");
        assert_eq!(
            fine.delta.counters["events"], 3,
            "the pre-wrap bucket aged out"
        );
    }

    #[test]
    fn empty_windows_are_well_defined() {
        let w = Windows::new(cfg(4, 4, 2));
        let aggs = w.aggregates();
        assert_eq!(aggs.len(), 1, "no coarse view before its first bucket");
        assert_eq!(aggs[0].buckets, 0);
        assert_eq!(aggs[0].seconds, 0.0);
        assert_eq!(aggs[0].rate("anything"), 0.0);
        assert!(aggs[0].delta.counters.is_empty());

        // Ticks with no registry activity produce empty-but-occupied
        // buckets: percentiles answer 0, rates answer 0.
        let r = Registry::new();
        r.set_enabled(true);
        let h = r.histogram("ns");
        let mut w = Windows::new(cfg(4, 4, 2));
        w.tick(r.snapshot());
        w.tick(r.snapshot());
        let fine = &w.aggregates()[0];
        assert_eq!(fine.buckets, 2);
        assert!(!fine.delta.hists.contains_key("ns") || fine.delta.hists["ns"].count == 0);
        h.record(7); // later activity does not rewrite past windows
        assert_eq!(
            w.aggregates()[0]
                .delta
                .hists
                .get("ns")
                .map_or(0, |h| h.count),
            0
        );
    }

    #[test]
    fn hist_deltas_compose_across_adjacent_windows() {
        // The PR 6 max-capping fix must survive re-aggregation: merging
        // adjacent window deltas caps the merged max at the largest
        // window-capped constituent, and percentiles never exceed it.
        let r = Registry::new();
        r.set_enabled(true);
        let h = r.histogram("lat");
        h.record(1_000_000); // lifetime max, before any window
        let base = r.snapshot();
        h.record(900);
        let mid = r.snapshot();
        h.record(40);
        let end = r.snapshot();

        let w1 = mid.hists["lat"].since(&base.hists["lat"]);
        let w2 = end.hists["lat"].since(&mid.hists["lat"]);
        assert_eq!(w1.max, 1023, "window 1 capped to its occupied bucket");
        assert_eq!(w2.max, 63);
        let mut merged = w1.clone();
        merged.merge_in(&w2);
        assert_eq!(merged.count, 2);
        assert_eq!(merged.max, 1023, "merge keeps the larger window cap");
        for p in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert!(
                merged.percentile(p) <= merged.max,
                "p{p} exceeded the merged window max"
            );
        }
        // And through the Windows ring itself:
        let mut w = Windows::new(cfg(4, 4, 2));
        w.last = base;
        w.tick(mid.clone());
        w.tick(end);
        let fine = &w.aggregates()[0];
        assert_eq!(fine.delta.hists["lat"].count, 2);
        assert_eq!(fine.delta.hists["lat"].max, 1023);
        assert!(fine.delta.hists["lat"].percentile(0.99) <= 1023);
    }

    #[test]
    fn gauges_report_window_scoped_maxima() {
        let r = Registry::new();
        r.set_enabled(true);
        let g = r.gauge("depth");
        g.set(50); // lifetime high-water, before the window
        g.set(2);
        let mut w = Windows::new(cfg(2, 64, 2));
        w.tick(r.snapshot());
        g.set(5);
        w.tick(r.snapshot());
        g.set(3);
        w.tick(r.snapshot());
        let fine = &w.aggregates()[0];
        let d = fine.delta.gauges["depth"];
        assert_eq!(d.value, 3, "latest sample wins");
        assert_eq!(d.max, 5, "window max is sampled, not the lifetime 50");
    }

    #[test]
    fn coarse_ring_folds_fine_ticks() {
        let r = Registry::new();
        r.set_enabled(true);
        let c = r.counter("n");
        let mut w = Windows::new(cfg(2, 3, 4));
        for _ in 0..6 {
            c.add(1);
            w.tick(r.snapshot());
        }
        let aggs = w.aggregates();
        assert_eq!(aggs.len(), 2, "coarse view appears after 3 ticks");
        let coarse = &aggs[1];
        assert_eq!(coarse.buckets, 2);
        assert_eq!(coarse.delta.counters["n"], 6, "coarse keeps all 6 ticks");
        // The fine ring only spans its 2 newest ticks.
        assert_eq!(aggs[0].delta.counters["n"], 2);
    }

    #[test]
    fn concurrent_writers_during_ticks_lose_nothing() {
        // Writers hammer a counter and a histogram while a "sampler"
        // ticks concurrently: across all windows plus the live remainder
        // every recorded event is accounted for exactly once.
        let r: &'static Registry = Box::leak(Box::new(Registry::new()));
        r.set_enabled(true);
        let total = std::sync::atomic::AtomicU64::new(0);
        let mut w = Windows::new(cfg(1024, 1 << 20, 1));
        std::thread::scope(|s| {
            let total = &total;
            for _ in 0..4 {
                s.spawn(move || {
                    let c = r.counter("events");
                    let h = r.histogram("sizes");
                    for i in 0..5_000u64 {
                        c.incr();
                        h.record(i % 97);
                        total.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
            for _ in 0..50 {
                w.tick(r.snapshot());
                std::thread::yield_now();
            }
        });
        w.tick(r.snapshot()); // final tick collects the stragglers
        let fine = &w.aggregates()[0];
        assert_eq!(fine.delta.counters["events"], 20_000);
        assert_eq!(fine.delta.hists["sizes"].count, 20_000);
        assert_eq!(total.load(std::sync::atomic::Ordering::Relaxed), 20_000);
    }

    #[test]
    fn sampler_thread_ticks_and_stops() {
        let r: &'static Registry = Box::leak(Box::new(Registry::new()));
        r.set_enabled(true);
        let c = r.counter("bg");
        // fine span (5ms × 2048 ≈ 10s) exceeds the poll deadline, so
        // the counter's bucket cannot age out under CI scheduling jitter.
        let sampler = start_sampler(
            r,
            WindowConfig {
                tick: Duration::from_millis(5),
                fine_len: 2048,
                coarse_every: 4,
                coarse_len: 8,
            },
        );
        c.add(42);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let aggs = sampler.aggregates();
            if aggs[0].delta.counters.get("bg").copied().unwrap_or(0) == 42 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "sampler never absorbed the counter"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        c.add(1);
        let windows = sampler.windows();
        sampler.stop(r); // final tick must collect the last add
        let aggs = w_lock(&windows).aggregates();
        assert_eq!(aggs[0].delta.counters["bg"], 43);
    }

    #[test]
    fn span_labels_humanize() {
        assert_eq!(span_label(45.0), "45s");
        assert_eq!(span_label(60.0), "60s");
        assert_eq!(span_label(3600.0), "60m");
        assert_eq!(span_label(7200.0), "2h");
    }
}
