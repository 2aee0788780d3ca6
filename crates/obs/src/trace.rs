//! Event-journal tracing: per-thread write-once journals of typed events.
//!
//! Where the [`Registry`](crate::Registry) keeps lifetime *aggregates*
//! (how much, how many), the tracer keeps the *timeline*: which page op
//! stalled, how pool workers interleaved, at which op index a fault
//! fired. Each thread owns a bounded journal of [`TraceEvent`]s; the
//! owning thread appends without taking any lock (one relaxed atomic
//! check when the tracer is disabled, a handful of stores when enabled),
//! and snapshots from other threads see a consistent *prefix* of every
//! journal.
//!
//! # Memory model
//!
//! A journal is a `Box` of write-once slots plus an atomic length. Only
//! the owning thread writes: it initialises slot `len`, then publishes
//! `len + 1` with `Release`. Readers load the length with `Acquire` and
//! read only `0..len`, so they never observe a torn or uninitialised
//! event. When a journal fills, further events are *dropped* (newest
//! lost, counted in [`ThreadTrace::dropped`]) rather than wrapping —
//! a captured trace is therefore always a valid prefix with balanced
//! causality, never a window with orphaned `SpanEnd`s.
//!
//! # Causal span IDs
//!
//! Every traced span gets a process-unique nonzero id from one global
//! counter; its parent is the id of the span enclosing it on the *same
//! thread* (`0` for roots). `SpanEnd` bypasses the enabled gate so a
//! span opened while tracing was on always closes in the journal even
//! if tracing is switched off mid-span — nesting stays balanced.
//!
//! # Exports
//!
//! [`TraceSnapshot::to_chrome_json`] renders Chrome trace-event JSON
//! that loads directly in Perfetto or `chrome://tracing`;
//! [`TraceSnapshot::to_jsonl`] renders one event per line for shell
//! tooling. [`validate_trace`] (and the `check_trace` bin) accepts both
//! and checks nesting, parent-ID causality, and timestamp monotonicity.

use crate::json::Json;
use crate::registry::lock;
use std::cell::{OnceCell, UnsafeCell};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events each thread journal can hold before dropping (per thread).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 16;

/// One typed trace event. `Copy` so journal slots never need dropping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened: `id` is process-unique and nonzero, `parent` is
    /// the enclosing span's id on the same thread (`0` for roots).
    SpanBegin {
        id: u64,
        parent: u64,
        name: &'static str,
    },
    /// The matching close of `SpanBegin { id, .. }` on the same thread.
    SpanEnd { id: u64, name: &'static str },
    /// A storage page read; `op` is the 0-based per-thread read index —
    /// the same index a `FaultConfig` read schedule keys on.
    PageRead { op: u64, page: u64 },
    /// A storage page write; `op` matches the fault write schedule.
    PageWrite { op: u64, page: u64 },
    /// An injected fault fired at read/write op `op`.
    FaultFired { op: u64, write: bool },
    /// A pool batch of `shares` shares was queued; `batch` ids the batch.
    PoolDispatch { batch: u64, shares: u64 },
    /// One share of `batch` finished; `helped` marks caller help-drain.
    PoolShareDone { batch: u64, helped: bool },
    /// A query batch of `queries` predicates was evaluated.
    QueryBatch { queries: u64 },
}

/// One journal entry: a monotonic timestamp plus the typed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the tracer's epoch (process start of tracing).
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A write-once slot; only the owning thread writes, see module docs.
struct Slot(UnsafeCell<MaybeUninit<TraceEvent>>);

struct Journal {
    tid: u64,
    thread_name: String,
    slots: Box<[Slot]>,
    /// Published length: slots `0..len` are initialised.
    len: AtomicUsize,
    /// Events lost to overflow.
    dropped: AtomicU64,
}

// SAFETY: every field but `slots` is `Send` on its own, and a `Slot` holds
// a `Copy` event with no thread affinity, so moving the journal to another
// thread moves plain data.
unsafe impl Send for Journal {}
// SAFETY: `tid` and `thread_name` are never written after `new`, and `len`
// and `dropped` are atomics. Of `slots`, concurrent readers only touch
// slots below the Acquire-loaded `len`, which the single writing (owner)
// thread published with Release *after* initialising the slot. The owner
// never rewrites a slot.
unsafe impl Sync for Journal {}

impl Journal {
    fn new(tid: u64, thread_name: String, capacity: usize) -> Journal {
        Journal {
            tid,
            thread_name,
            slots: (0..capacity)
                .map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit())))
                .collect(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Owner-thread append. Drops (newest) when full.
    fn push(&self, ev: TraceEvent) {
        let len = self.len.load(Ordering::Relaxed);
        if len == self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: only the owning thread pushes, and slot `len` is not
        // yet visible to readers (len unpublished), so this write races
        // with nothing.
        unsafe { (*self.slots[len].0.get()).write(ev) };
        self.len.store(len + 1, Ordering::Release);
    }

    /// Events `from..published_len`, copied out.
    fn read_from(&self, from: usize) -> Vec<TraceEvent> {
        let n = self.len.load(Ordering::Acquire);
        (from.min(n)..n)
            // SAFETY: slots below the Acquire-loaded len are initialised
            // and never rewritten; TraceEvent is Copy.
            .map(|i| unsafe { (*self.slots[i].0.get()).assume_init_read() })
            .collect()
    }
}

thread_local! {
    static JOURNAL: OnceCell<Arc<Journal>> = const { OnceCell::new() };
}

/// The process-wide event tracer; obtain it with [`tracer`].
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    journals: Mutex<Vec<Arc<Journal>>>,
}

/// The process-wide [`Tracer`], created disabled on first use.
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(0),
        next_tid: AtomicU64::new(0),
        journals: Mutex::new(Vec::new()),
    })
}

impl Tracer {
    /// Turn event recording on or off. Journals persist across toggles;
    /// use [`Tracer::mark`] + [`Tracer::snapshot_since`] to scope a run.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether events currently record (one relaxed load — this is the
    /// entire hot-path cost while disabled).
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// A fresh process-unique nonzero span id.
    pub fn next_span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Record `kind` in the calling thread's journal if tracing is on.
    #[inline]
    pub fn emit(&self, kind: EventKind) {
        if self.enabled() {
            self.emit_always(kind);
        }
    }

    /// Record `kind` unconditionally — used by `SpanEnd` so a span that
    /// began in the journal always ends there, even if tracing was
    /// disabled mid-span.
    pub(crate) fn emit_always(&self, kind: EventKind) {
        let ts_ns = self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let ev = TraceEvent { ts_ns, kind };
        JOURNAL.with(|j| {
            j.get_or_init(|| {
                let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
                let name = std::thread::current().name().unwrap_or("").to_string();
                let journal = Arc::new(Journal::new(tid, name, DEFAULT_JOURNAL_CAPACITY));
                lock(&self.journals).push(Arc::clone(&journal));
                journal
            })
            .push(ev)
        });
    }

    /// The calling thread's tracer-assigned thread id (registers the
    /// thread's journal on first use).
    pub fn current_tid(&self) -> u64 {
        JOURNAL.with(|j| {
            j.get_or_init(|| {
                let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
                let name = std::thread::current().name().unwrap_or("").to_string();
                let journal = Arc::new(Journal::new(tid, name, DEFAULT_JOURNAL_CAPACITY));
                lock(&self.journals).push(Arc::clone(&journal));
                journal
            })
            .tid
        })
    }

    /// A position marker: [`Tracer::snapshot_since`] returns only the
    /// events recorded after this mark (journals are never cleared, so
    /// concurrent scopes cannot corrupt each other).
    pub fn mark(&self) -> TraceMark {
        TraceMark {
            lens: lock(&self.journals)
                .iter()
                .map(|j| (j.tid, j.len.load(Ordering::Acquire)))
                .collect(),
        }
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> TraceSnapshot {
        self.snapshot_since(&TraceMark { lens: Vec::new() })
    }

    /// Events recorded after `mark`, grouped per thread.
    pub fn snapshot_since(&self, mark: &TraceMark) -> TraceSnapshot {
        let journals: Vec<Arc<Journal>> = lock(&self.journals).clone();
        let mut threads: Vec<ThreadTrace> = journals
            .iter()
            .map(|j| {
                let from = mark
                    .lens
                    .iter()
                    .find(|(tid, _)| *tid == j.tid)
                    .map(|(_, len)| *len)
                    .unwrap_or(0);
                ThreadTrace {
                    tid: j.tid,
                    thread_name: j.thread_name.clone(),
                    dropped: j.dropped.load(Ordering::Relaxed),
                    events: j.read_from(from),
                }
            })
            .collect();
        threads.sort_by_key(|t| t.tid);
        TraceSnapshot { threads }
    }
}

/// Opaque journal-position marker from [`Tracer::mark`].
#[derive(Debug, Clone)]
pub struct TraceMark {
    lens: Vec<(u64, usize)>,
}

/// One thread's slice of a [`TraceSnapshot`].
#[derive(Debug, Clone)]
pub struct ThreadTrace {
    /// Tracer-assigned sequential thread id (stable per OS thread).
    pub tid: u64,
    /// The OS thread's name at journal creation, possibly empty.
    pub thread_name: String,
    /// Events lost to journal overflow (lifetime, not scoped).
    pub dropped: u64,
    /// Events in record order; timestamps are non-decreasing.
    pub events: Vec<TraceEvent>,
}

/// A consistent copy of every thread journal; see [`Tracer::snapshot`].
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Per-thread event streams, sorted by `tid`.
    pub threads: Vec<ThreadTrace>,
}

fn esc(s: &str) -> String {
    Json::Str(s.to_string()).render(false)
}

fn chrome_event(tid: u64, ev: &TraceEvent) -> String {
    let ts = ev.ts_ns as f64 / 1000.0;
    let head = |ph: &str, name: &str| {
        format!(
            "{{\"ph\":\"{ph}\",\"name\":{},\"pid\":1,\"tid\":{tid},\"ts\":{ts}",
            esc(name)
        )
    };
    match ev.kind {
        EventKind::SpanBegin { id, parent, name } => format!(
            "{},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
            head("B", name)
        ),
        EventKind::SpanEnd { id, name } => {
            format!("{},\"args\":{{\"id\":{id}}}}}", head("E", name))
        }
        EventKind::PageRead { op, page } => format!(
            "{},\"s\":\"t\",\"args\":{{\"op\":{op},\"page\":{page}}}}}",
            head("i", "storage.page_read")
        ),
        EventKind::PageWrite { op, page } => format!(
            "{},\"s\":\"t\",\"args\":{{\"op\":{op},\"page\":{page}}}}}",
            head("i", "storage.page_write")
        ),
        EventKind::FaultFired { op, write } => format!(
            "{},\"s\":\"t\",\"args\":{{\"op\":{op},\"path\":\"{}\"}}}}",
            head("i", "storage.fault"),
            if write { "write" } else { "read" }
        ),
        EventKind::PoolDispatch { batch, shares } => format!(
            "{},\"s\":\"t\",\"args\":{{\"batch\":{batch},\"shares\":{shares}}}}}",
            head("i", "pool.dispatch")
        ),
        EventKind::PoolShareDone { batch, helped } => format!(
            "{},\"s\":\"t\",\"args\":{{\"batch\":{batch},\"helped\":{helped}}}}}",
            head("i", "pool.share_done")
        ),
        EventKind::QueryBatch { queries } => format!(
            "{},\"s\":\"t\",\"args\":{{\"queries\":{queries}}}}}",
            head("i", "query.batch")
        ),
    }
}

fn jsonl_event(tid: u64, ev: &TraceEvent) -> String {
    let head = |ph: &str, name: &str| {
        format!(
            "{{\"ts_ns\":{},\"tid\":{tid},\"ph\":\"{ph}\",\"name\":{}",
            ev.ts_ns,
            esc(name)
        )
    };
    match ev.kind {
        EventKind::SpanBegin { id, parent, name } => format!(
            "{},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
            head("B", name)
        ),
        EventKind::SpanEnd { id, name } => {
            format!("{},\"args\":{{\"id\":{id}}}}}", head("E", name))
        }
        EventKind::PageRead { op, page } => format!(
            "{},\"args\":{{\"op\":{op},\"page\":{page}}}}}",
            head("i", "storage.page_read")
        ),
        EventKind::PageWrite { op, page } => format!(
            "{},\"args\":{{\"op\":{op},\"page\":{page}}}}}",
            head("i", "storage.page_write")
        ),
        EventKind::FaultFired { op, write } => format!(
            "{},\"args\":{{\"op\":{op},\"path\":\"{}\"}}}}",
            head("i", "storage.fault"),
            if write { "write" } else { "read" }
        ),
        EventKind::PoolDispatch { batch, shares } => format!(
            "{},\"args\":{{\"batch\":{batch},\"shares\":{shares}}}}}",
            head("i", "pool.dispatch")
        ),
        EventKind::PoolShareDone { batch, helped } => format!(
            "{},\"args\":{{\"batch\":{batch},\"helped\":{helped}}}}}",
            head("i", "pool.share_done")
        ),
        EventKind::QueryBatch { queries } => format!(
            "{},\"args\":{{\"queries\":{queries}}}}}",
            head("i", "query.batch")
        ),
    }
}

impl TraceSnapshot {
    /// Total events across all threads.
    pub fn event_count(&self) -> usize {
        self.threads.iter().map(|t| t.events.len()).sum()
    }

    /// Total events lost to journal overflow (lifetime).
    pub fn dropped_count(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Render as Chrome trace-event JSON (object format), loadable in
    /// Perfetto and `chrome://tracing`. Timestamps are microseconds
    /// (fractional, ns precision preserved); thread names are emitted
    /// as `M` metadata events.
    pub fn to_chrome_json(&self) -> String {
        let mut parts: Vec<String> = Vec::with_capacity(self.event_count() + self.threads.len());
        for t in &self.threads {
            if !t.thread_name.is_empty() {
                parts.push(format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
                    t.tid,
                    esc(&t.thread_name)
                ));
            }
            for ev in &t.events {
                parts.push(chrome_event(t.tid, ev));
            }
        }
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_events\":{}}},\"traceEvents\":[\n{}\n]}}\n",
            self.dropped_count(),
            parts.join(",\n")
        )
    }

    /// Render as line-delimited JSON, one event per line, `ts_ns` exact.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for t in &self.threads {
            for ev in &t.events {
                out.push_str(&jsonl_event(t.tid, ev));
                out.push('\n');
            }
        }
        out
    }

    /// Write the trace to `path`: JSONL when the path ends in `.jsonl`,
    /// Chrome trace-event JSON otherwise.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        let body = if path.ends_with(".jsonl") {
            self.to_jsonl()
        } else {
            self.to_chrome_json()
        };
        std::fs::write(path, body)
    }
}

/// What [`validate_trace`] found in a structurally valid trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Events checked (metadata `M` records excluded).
    pub events: usize,
    /// Distinct thread ids seen.
    pub threads: usize,
    /// `SpanBegin` events (== closed + unclosed spans).
    pub spans: usize,
    /// Spans still open at end of trace (legal: snapshot mid-phase).
    pub unclosed: usize,
    /// Instant events.
    pub instants: usize,
}

struct OpenSpan {
    id: u64,
    name: Option<String>,
}

/// Validate a trace produced by this module — Chrome trace-event JSON
/// or JSONL, auto-detected. Checks, per thread in file order:
/// timestamps non-decreasing; every `B` carries a globally-unique
/// nonzero id and a parent equal to the id of the innermost open span
/// on that thread (`0` when none — causality); every `E` closes the
/// innermost open span (matching id, and name when present). Unclosed
/// spans at end-of-trace are allowed and counted.
pub fn validate_trace(text: &str) -> Result<TraceSummary, String> {
    // Chrome object format is one JSON document with a traceEvents
    // array; a JSONL file fails the whole-text parse (one document per
    // line) or parses to an object without traceEvents.
    let whole = Json::parse(text);
    let is_chrome = whole
        .as_ref()
        .map(|j| j.get("traceEvents").is_some())
        .unwrap_or(false);
    let events: Vec<Json> = if is_chrome {
        let top = whole.unwrap();
        top.get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("missing traceEvents array")?
            .to_vec()
    } else {
        let mut evs = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            evs.push(
                Json::parse(line)
                    .map_err(|e| format!("line {}: not valid JSON: {e}", lineno + 1))?,
            );
        }
        evs
    };

    let mut summary = TraceSummary::default();
    let mut seen_ids = std::collections::BTreeSet::new();
    // Per-tid state: (last timestamp in ns, open-span stack).
    let mut per_tid: std::collections::BTreeMap<u64, (f64, Vec<OpenSpan>)> =
        std::collections::BTreeMap::new();

    for (idx, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {idx}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        let tid = ev
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {idx}: missing tid"))?;
        // Chrome format carries µs `ts`; JSONL carries exact `ts_ns`.
        let ts_ns = match ev.get("ts_ns").and_then(Json::as_u64) {
            Some(ns) => ns as f64,
            None => {
                ev.get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {idx}: missing ts"))?
                    * 1000.0
            }
        };
        let entry = per_tid.entry(tid).or_insert((0.0, Vec::new()));
        if ts_ns < entry.0 {
            return Err(format!(
                "event {idx}: timestamp regressed on tid {tid} ({ts_ns}ns < {}ns)",
                entry.0
            ));
        }
        entry.0 = ts_ns;
        summary.events += 1;

        let args = ev.get("args");
        match ph {
            "B" => {
                let id = args
                    .and_then(|a| a.get("id"))
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {idx}: B without args.id"))?;
                if id == 0 {
                    return Err(format!("event {idx}: span id 0 is reserved for roots"));
                }
                if !seen_ids.insert(id) {
                    return Err(format!("event {idx}: duplicate span id {id}"));
                }
                let parent = args
                    .and_then(|a| a.get("parent"))
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {idx}: B without args.parent"))?;
                let expect = entry.1.last().map(|s| s.id).unwrap_or(0);
                if parent != expect {
                    return Err(format!(
                        "event {idx}: span {id} claims parent {parent}, but innermost open span on tid {tid} is {expect}"
                    ));
                }
                entry.1.push(OpenSpan {
                    id,
                    name: ev.get("name").and_then(Json::as_str).map(str::to_string),
                });
                summary.spans += 1;
            }
            "E" => {
                let id = args
                    .and_then(|a| a.get("id"))
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {idx}: E without args.id"))?;
                let open = entry
                    .1
                    .pop()
                    .ok_or_else(|| format!("event {idx}: E with no open span on tid {tid}"))?;
                if open.id != id {
                    return Err(format!(
                        "event {idx}: E closes span {id} but innermost open span on tid {tid} is {}",
                        open.id
                    ));
                }
                if let (Some(open_name), Some(end_name)) =
                    (&open.name, ev.get("name").and_then(Json::as_str))
                {
                    if open_name != end_name {
                        return Err(format!(
                            "event {idx}: E named {end_name:?} closes span {id} opened as {open_name:?}"
                        ));
                    }
                }
            }
            "i" | "I" => summary.instants += 1,
            other => return Err(format!("event {idx}: unknown ph {other:?}")),
        }
    }
    summary.threads = per_tid.len();
    summary.unclosed = per_tid.values().map(|(_, stack)| stack.len()).sum();
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tracer is process-global; serialize tests that toggle it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    struct Traced;
    impl Traced {
        fn on() -> Traced {
            tracer().set_enabled(true);
            Traced
        }
    }
    impl Drop for Traced {
        fn drop(&mut self) {
            tracer().set_enabled(false);
        }
    }

    fn own_events(snap: &TraceSnapshot) -> Vec<TraceEvent> {
        let tid = tracer().current_tid();
        snap.threads
            .iter()
            .find(|t| t.tid == tid)
            .map(|t| t.events.clone())
            .unwrap_or_default()
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let _g = lock(&TEST_LOCK);
        let mark = tracer().mark();
        tracer().emit(EventKind::QueryBatch { queries: 3 });
        assert_eq!(own_events(&tracer().snapshot_since(&mark)).len(), 0);
    }

    #[test]
    fn events_round_trip_and_validate() {
        let _g = lock(&TEST_LOCK);
        let mark = tracer().mark();
        let _t = Traced::on();
        let a = tracer().next_span_id();
        tracer().emit(EventKind::SpanBegin {
            id: a,
            parent: 0,
            name: "outer",
        });
        let b = tracer().next_span_id();
        tracer().emit(EventKind::SpanBegin {
            id: b,
            parent: a,
            name: "inner",
        });
        tracer().emit(EventKind::PageWrite { op: 0, page: 7 });
        tracer().emit(EventKind::SpanEnd {
            id: b,
            name: "inner",
        });
        tracer().emit(EventKind::SpanEnd {
            id: a,
            name: "outer",
        });
        let snap = tracer().snapshot_since(&mark);
        let events = own_events(&snap);
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));

        let own = TraceSnapshot {
            threads: vec![ThreadTrace {
                tid: tracer().current_tid(),
                thread_name: String::new(),
                dropped: 0,
                events,
            }],
        };
        let chrome = validate_trace(&own.to_chrome_json()).expect("chrome export validates");
        assert_eq!(chrome.spans, 2);
        assert_eq!(chrome.unclosed, 0);
        assert_eq!(chrome.instants, 1);
        let jsonl = validate_trace(&own.to_jsonl()).expect("jsonl export validates");
        assert_eq!(jsonl, chrome);
    }

    #[test]
    fn snapshot_since_scopes_to_the_mark() {
        let _g = lock(&TEST_LOCK);
        let _t = Traced::on();
        tracer().emit(EventKind::QueryBatch { queries: 1 });
        let mark = tracer().mark();
        tracer().emit(EventKind::QueryBatch { queries: 2 });
        let events = own_events(&tracer().snapshot_since(&mark));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::QueryBatch { queries: 2 });
    }

    #[test]
    fn overflow_drops_newest_and_counts() {
        let j = Journal::new(0, String::new(), 2);
        for op in 0..5 {
            j.push(TraceEvent {
                ts_ns: op,
                kind: EventKind::PageRead { op, page: 0 },
            });
        }
        let events = j.read_from(0);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, EventKind::PageRead { op: 0, page: 0 });
        assert_eq!(events[1].kind, EventKind::PageRead { op: 1, page: 0 });
        assert_eq!(j.dropped.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn cross_thread_snapshot_sees_prefix() {
        let j = Arc::new(Journal::new(0, String::new(), 1024));
        let writer = Arc::clone(&j);
        std::thread::scope(|s| {
            s.spawn(move || {
                for op in 0..1000 {
                    writer.push(TraceEvent {
                        ts_ns: op,
                        kind: EventKind::PageRead { op, page: op },
                    });
                }
            });
            for _ in 0..100 {
                let events = j.read_from(0);
                // Every observed prefix is internally consistent.
                for (i, ev) in events.iter().enumerate() {
                    assert_eq!(ev.ts_ns, i as u64);
                }
            }
        });
        assert_eq!(j.read_from(0).len(), 1000);
    }

    #[test]
    fn validator_rejects_bad_parent() {
        let text = r#"{"ts_ns":1,"tid":0,"ph":"B","name":"a","args":{"id":900001,"parent":0}}
{"ts_ns":2,"tid":0,"ph":"B","name":"b","args":{"id":900002,"parent":77}}
"#;
        let err = validate_trace(text).unwrap_err();
        assert!(err.contains("parent"), "{err}");
    }

    #[test]
    fn validator_rejects_unbalanced_end() {
        let text = r#"{"ts_ns":1,"tid":0,"ph":"B","name":"a","args":{"id":910001,"parent":0}}
{"ts_ns":2,"tid":0,"ph":"E","name":"a","args":{"id":910009}}
"#;
        let err = validate_trace(text).unwrap_err();
        assert!(err.contains("innermost"), "{err}");
    }

    #[test]
    fn validator_rejects_time_regression() {
        let text = r#"{"ts_ns":5,"tid":0,"ph":"i","name":"query.batch","args":{"queries":1}}
{"ts_ns":4,"tid":0,"ph":"i","name":"query.batch","args":{"queries":1}}
"#;
        let err = validate_trace(text).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
    }

    #[test]
    fn validator_counts_unclosed_spans() {
        let text = r#"{"ts_ns":1,"tid":0,"ph":"B","name":"a","args":{"id":920001,"parent":0}}
"#;
        let s = validate_trace(text).unwrap();
        assert_eq!(s.spans, 1);
        assert_eq!(s.unclosed, 1);
    }

    #[test]
    fn validator_rejects_duplicate_ids() {
        let text = r#"{"ts_ns":1,"tid":0,"ph":"B","name":"a","args":{"id":930001,"parent":0}}
{"ts_ns":2,"tid":1,"ph":"B","name":"b","args":{"id":930001,"parent":0}}
"#;
        let err = validate_trace(text).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }
}
