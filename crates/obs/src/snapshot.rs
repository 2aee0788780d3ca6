//! Point-in-time capture of a whole [`Registry`](crate::Registry).

use crate::hist::HistSnapshot;
use crate::registry::GaugeStats;
use crate::span::SpanStats;
use std::collections::BTreeMap;

/// Everything a registry knew at one instant. `BTreeMap`s keep the
/// serialization order deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → level and high-water mark.
    pub gauges: BTreeMap<String, GaugeStats>,
    /// Histogram name → bucketed contents.
    pub hists: BTreeMap<String, HistSnapshot>,
    /// Span path (`"a/b/c"`) → aggregate timing.
    pub spans: BTreeMap<String, SpanStats>,
}

impl Snapshot {
    /// Activity between `earlier` and `self`, for attributing counts to
    /// one bench cell out of a longer process. Counters, histogram
    /// buckets, and span calls/totals subtract; gauges and span extrema
    /// (`min_ns`/`max_ns`) keep the later snapshot's values, while a
    /// histogram delta's `max` is additionally capped by the window's
    /// highest occupied bucket ([`HistSnapshot::since`]). Spans with no
    /// calls in the window are left out, so no lifetime extrema leak into
    /// a window that never ran them. Other instruments absent from
    /// `earlier` pass through unchanged.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| {
                (
                    k.clone(),
                    v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                )
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    match earlier.hists.get(k) {
                        Some(e) => v.since(e),
                        None => v.clone(),
                    },
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    match earlier.spans.get(k) {
                        Some(e) => v.since(e),
                        None => *v,
                    },
                )
            })
            .filter(|(_, delta)| delta.calls > 0)
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            hists,
            spans,
        }
    }

    /// Fold a *later* delta into this one, so a rolling window can
    /// re-aggregate a ring of per-tick deltas into one view. Counters
    /// add; histograms and spans merge ([`HistSnapshot::merge_in`],
    /// [`SpanStats::merge_in`]); gauges keep the later delta's value
    /// while widening `max` across both sides — with sampled per-tick
    /// gauges that makes the merged `max` a window-scoped high-water
    /// mark, not the lifetime one.
    pub fn merge_in(&mut self, later: &Snapshot) {
        for (k, &v) in &later.counters {
            let slot = self.counters.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(v);
        }
        for (k, g) in &later.gauges {
            let slot = self.gauges.entry(k.clone()).or_default();
            slot.value = g.value;
            slot.max = slot.max.max(g.max);
        }
        for (k, h) in &later.hists {
            self.hists.entry(k.clone()).or_default().merge_in(h);
        }
        for (k, s) in &later.spans {
            self.spans.entry(k.clone()).or_default().merge_in(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn since_isolates_a_window() {
        let r = Registry::new();
        r.set_enabled(true);
        let c = r.counter("events");
        let h = r.histogram("sizes");
        c.add(10);
        h.record(4);
        {
            let _s = r.span("phase");
        }
        let before = r.snapshot();
        c.add(5);
        h.record(8);
        {
            let _s = r.span("phase");
        }
        let delta = r.snapshot().since(&before);
        assert_eq!(delta.counters["events"], 5);
        assert_eq!(delta.hists["sizes"].count, 1);
        assert_eq!(delta.hists["sizes"].sum, 8);
        assert_eq!(delta.spans["phase"].calls, 1);
    }

    #[test]
    fn spans_idle_in_the_window_are_left_out() {
        let r = Registry::new();
        r.set_enabled(true);
        {
            let _s = r.span("before_only");
        }
        let before = r.snapshot();
        {
            let _s = r.span("in_window");
        }
        let delta = r.snapshot().since(&before);
        assert!(!delta.spans.contains_key("before_only"), "{delta:?}");
        assert_eq!(delta.spans["in_window"].calls, 1);
    }

    #[test]
    fn new_instruments_pass_through() {
        let r = Registry::new();
        r.set_enabled(true);
        let before = r.snapshot();
        r.counter("late").add(3);
        let delta = r.snapshot().since(&before);
        assert_eq!(delta.counters["late"], 3);
    }
}
