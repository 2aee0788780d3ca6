//! # anatomy-pool
//!
//! A persistent, chunked worker pool for the experiment harness.
//!
//! The bench runner used to spawn fresh OS threads (`std::thread::scope`)
//! for every `par_map` call — thousands of times across the Figure 4–9
//! sweeps, paying thread spawn/join latency per query batch. This crate
//! spawns the workers **once** ([`Pool::global`]) and reuses them for
//! every batch, with a scoped API that accepts borrowed data:
//!
//! ```
//! use anatomy_pool::Pool;
//!
//! let squares = Pool::global().par_map(&[1u64, 2, 3], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9]);
//! ```
//!
//! Design notes:
//!
//! * **Chunked, not work-stealing.** A batch is split into contiguous
//!   chunks handed out through one atomic cursor; workers (and the
//!   caller, which always participates) grab the next chunk when free.
//!   That gives dynamic load balancing without per-item synchronization
//!   or deque machinery.
//! * **Scoped.** `par_map` blocks until every worker involved in the
//!   batch has finished, so closures may borrow from the caller's stack.
//!   Waiting callers *help*: they drain other queued batch shares while
//!   blocked, which makes nested `par_map` calls (a parallel sweep whose
//!   cells run parallel query batches) deadlock-free on one shared pool.
//! * **Cost-aware serial cutoff.** A flat `len < 32` threshold is wrong
//!   for e.g. 16 grid points that each anatomize 500k rows. The
//!   [`ItemCost`] hint lets callers declare items cheap (default cutoff)
//!   or heavy (parallelize from 2 items).

#![deny(clippy::undocumented_unsafe_blocks)]

use std::collections::VecDeque;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// How expensive one item of a `par_map` batch is, relative to the cost
/// of scheduling it onto another thread.
///
/// This is the caller-supplied hint deciding the serial cutoff: the pool
/// cannot see inside the closure, and "many cheap items" and "few
/// expensive items" want opposite treatment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ItemCost {
    /// Microseconds-scale items (one query against an index): run
    /// serially below [`CHEAP_SERIAL_CUTOFF`] items.
    #[default]
    Cheap,
    /// Milliseconds-scale-or-more items (one experiment cell, one
    /// anatomization): parallelize from 2 items up.
    Heavy,
}

/// Batches of [`ItemCost::Cheap`] items shorter than this run serially.
pub const CHEAP_SERIAL_CUTOFF: usize = 32;

impl ItemCost {
    fn serial_cutoff(self) -> usize {
        match self {
            ItemCost::Cheap => CHEAP_SERIAL_CUTOFF,
            ItemCost::Heavy => 2,
        }
    }

    /// Chunk size for a batch of `len` items on `threads` lanes: heavy
    /// items are handed out one by one, cheap ones in blocks (several per
    /// lane so the cursor still load-balances uneven chunks).
    fn chunk_size(self, len: usize, threads: usize) -> usize {
        match self {
            ItemCost::Cheap => (len / (threads * 4)).max(1),
            ItemCost::Heavy => 1,
        }
    }
}

/// A share of one batch, queued for workers to pick up. The pointer is a
/// lifetime-erased `&BatchState` living on the `par_map` caller's stack;
/// it stays valid because `par_map` does not return before `pending`
/// reaches zero, and every share bumps `pending` until it has run.
struct Share {
    state: *const (),
    /// The `bool` marks the lane: `true` when a *waiting caller* ran the
    /// share while help-draining, `false` for a dedicated worker.
    run: unsafe fn(*const (), &PoolInner, bool),
}

// SAFETY: the pointed-to BatchState is Sync (it only hands out work
// through atomics) and outlives the share per the scoped protocol above.
unsafe impl Send for Share {}

/// Scheduling instruments, registered once per pool against the
/// process-wide `anatomy-obs` registry. Every handle is a no-op while
/// the registry is disabled (the default), so the hot path pays one
/// relaxed load per event.
struct PoolObs {
    /// Shares currently sitting in the queue (gauge + high-water mark).
    queue_depth: anatomy_obs::Gauge,
    /// Parallel batches dispatched (serial-cutoff batches not counted).
    batches: anatomy_obs::Counter,
    /// Shares popped by dedicated workers.
    worker_shares: anatomy_obs::Counter,
    /// Shares popped by a *waiting caller* helping to drain the queue —
    /// the pool's work-conservation path for nested batches.
    help_drained: anatomy_obs::Counter,
    /// Wall time one share spent draining its batch's cursor, ns.
    share_ns: anatomy_obs::Histogram,
}

impl PoolObs {
    fn new() -> PoolObs {
        let registry = anatomy_obs::global();
        PoolObs {
            queue_depth: registry.gauge("pool.queue_depth"),
            batches: registry.counter("pool.batches"),
            worker_shares: registry.counter("pool.worker_shares"),
            help_drained: registry.counter("pool.help_drained"),
            share_ns: registry.histogram("pool.share_ns"),
        }
    }
}

struct PoolInner {
    queue: Mutex<VecDeque<Share>>,
    /// Signaled on every queue push and every share completion; workers
    /// and helping waiters share it.
    activity: Condvar,
    shutdown: AtomicBool,
    workers: usize,
    obs: PoolObs,
}

/// A persistent worker pool. See the crate docs.
pub struct Pool {
    inner: Arc<PoolInner>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Pool with `threads` total lanes of parallelism: the caller of each
    /// batch counts as one lane, so `threads - 1` OS threads are spawned.
    /// `Pool::new(1)` spawns nothing and runs every batch inline.
    pub fn new(threads: usize) -> Pool {
        let workers = threads.max(1) - 1;
        let inner = Arc::new(PoolInner {
            queue: Mutex::new(VecDeque::new()),
            activity: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers,
            obs: PoolObs::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("anatomy-pool-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { inner, handles }
    }

    /// The process-wide pool, sized to the machine and spawned on first
    /// use. All harness parallelism shares it, so nested parallel calls
    /// time-slice one set of threads instead of oversubscribing.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4);
            Pool::new(threads)
        })
    }

    /// Total lanes of parallelism (spawned workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.inner.workers + 1
    }

    /// Order-preserving parallel map with the default ([`ItemCost::Cheap`])
    /// serial cutoff.
    pub fn par_map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        self.par_map_hinted(items, ItemCost::Cheap, f)
    }

    /// Order-preserving parallel map with an explicit cost hint.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of `f` on the calling thread, after all
    /// lanes of the batch have stopped. Results computed before the
    /// panic are leaked, not dropped.
    pub fn par_map_hinted<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(
        &self,
        items: &[T],
        cost: ItemCost,
        f: F,
    ) -> Vec<R> {
        let n = items.len();
        if n < cost.serial_cutoff() || self.threads() == 1 {
            return items.iter().map(f).collect();
        }

        let mut slots: Vec<MaybeUninit<R>> = Vec::with_capacity(n);
        // SAFETY: MaybeUninit needs no initialization; len tracks capacity.
        unsafe { slots.set_len(n) };

        let chunk = cost.chunk_size(n, self.threads());
        let state: BatchState<T, R, F> = BatchState {
            items: items.as_ptr() as *const (),
            slots: slots.as_mut_ptr() as *mut (),
            len: n,
            chunk,
            cursor: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            // A nonzero batch id (drawn from the tracer's span-id space,
            // so it is process-unique) marks this batch for the journal.
            trace_batch: if anatomy_obs::tracer().enabled() {
                anatomy_obs::tracer().next_span_id()
            } else {
                0
            },
            f: &f as *const _ as *const (),
            marker: std::marker::PhantomData,
        };

        // Offer one share per worker (capped by the chunk count beyond
        // the caller's own lane); each share bumps `pending` until done.
        let shares = self.inner.workers.min(n.div_ceil(chunk).saturating_sub(1));
        if shares > 0 {
            state.pending.store(shares, Ordering::Relaxed);
            let mut queue = self.inner.queue.lock().expect("pool lock");
            for _ in 0..shares {
                queue.push_back(Share {
                    state: &state as *const BatchState<T, R, _> as *const (),
                    run: run_batch_share::<T, R, F>,
                });
            }
            drop(queue);
            self.inner.obs.batches.incr();
            self.inner.obs.queue_depth.add(shares as i64);
            if state.trace_batch != 0 {
                anatomy_obs::tracer().emit(anatomy_obs::EventKind::PoolDispatch {
                    batch: state.trace_batch,
                    shares: shares as u64,
                });
            }
            self.inner.activity.notify_all();
        }

        // The caller is lane zero.
        let caller = catch_unwind(AssertUnwindSafe(|| state.work()));
        self.wait_for_batch(&state.pending);

        if caller.is_err() || state.panicked.load(Ordering::Acquire) {
            // Slots are in an unknown mixed state; leak them rather than
            // double-drop.
            std::mem::forget(slots);
            match caller {
                Err(payload) => resume_unwind(payload),
                Ok(()) => panic!("anatomy-pool worker panicked during par_map"),
            }
        }

        let mut slots = ManuallyDrop::new(slots);
        // SAFETY: every index in 0..n was written exactly once (cursor
        // hands out disjoint ranges; pending == 0 means all lanes done and
        // their writes are ordered before the Acquire loads in wait), and
        // `MaybeUninit<R>` has `R`'s size and alignment, so the buffer,
        // length and capacity are a valid `Vec<R>`; `ManuallyDrop` keeps
        // the old vector from freeing it.
        unsafe { Vec::from_raw_parts(slots.as_mut_ptr() as *mut R, n, slots.capacity()) }
    }

    /// [`Pool::par_map_hinted`] for side-effecting closures.
    pub fn par_for_each<T: Sync>(&self, items: &[T], cost: ItemCost, f: impl Fn(&T) + Sync) {
        self.par_map_hinted(items, cost, |item| f(item));
    }

    /// Block until `pending` hits zero, running other queued shares while
    /// waiting (so nested batches always make progress). No lost wakeups:
    /// completions decrement `pending` and notify under the queue lock,
    /// and this loop re-checks `pending` while holding it.
    fn wait_for_batch(&self, pending: &AtomicUsize) {
        loop {
            if pending.load(Ordering::Acquire) == 0 {
                return;
            }
            let mut queue = self.inner.queue.lock().expect("pool lock");
            if let Some(share) = queue.pop_front() {
                drop(queue);
                self.inner.obs.queue_depth.add(-1);
                self.inner.obs.help_drained.incr();
                // SAFETY: shares in the queue point at live batch states
                // (their owners are blocked right here until they run).
                unsafe { (share.run)(share.state, &self.inner, true) };
                continue;
            }
            if pending.load(Ordering::Acquire) == 0 {
                return;
            }
            drop(self.inner.activity.wait(queue).expect("pool lock"));
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        self.inner.activity.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Shared per-batch state, living on the `par_map` caller's stack.
struct BatchState<T, R, F> {
    items: *const (),
    slots: *mut (),
    len: usize,
    chunk: usize,
    cursor: AtomicUsize,
    /// Queued shares that have not finished yet.
    pending: AtomicUsize,
    panicked: AtomicBool,
    /// Journal id for this batch's dispatch/share-done events, `0` when
    /// tracing was off at dispatch.
    trace_batch: u64,
    f: *const (),
    marker: std::marker::PhantomData<fn(&F, &T) -> R>,
}

impl<T: Sync, R: Send, F: Fn(&T) -> R + Sync> BatchState<T, R, F> {
    /// Pull chunks off the cursor until the batch is drained.
    fn work(&self) {
        // SAFETY: items/f outlive the batch (scoped protocol); each slot
        // index is handed to exactly one lane by the cursor.
        let items = unsafe { std::slice::from_raw_parts(self.items as *const T, self.len) };
        let slots = self.slots as *mut MaybeUninit<R>;
        // SAFETY: `f` points at the caller's closure, which outlives the
        // batch like `items` (scoped protocol), and `F: Sync` lets every
        // lane share it.
        let f = unsafe { &*(self.f as *const F) };
        loop {
            if self.panicked.load(Ordering::Relaxed) {
                return;
            }
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.len {
                return;
            }
            let end = (start + self.chunk).min(self.len);
            for (off, item) in items[start..end].iter().enumerate() {
                // SAFETY: `start + off < len`, the slots' length, and the
                // cursor handed this index to this lane alone.
                unsafe { (*slots.add(start + off)).write(f(item)) };
            }
        }
    }
}

/// Type-erased entry point a queued [`Share`] runs on a worker.
///
/// SAFETY contract: `ptr` is a live `&BatchState<T, R, F>` whose owner
/// blocks until `pending` reaches zero. The completion decrement happens
/// under the queue lock so a waiter in [`Pool::wait_for_batch`] cannot
/// miss the notification.
unsafe fn run_batch_share<T: Sync, R: Send, F: Fn(&T) -> R + Sync>(
    ptr: *const (),
    inner: &PoolInner,
    helped: bool,
) {
    // SAFETY: the caller vouches that `ptr` is a live batch state of
    // these types, whose owner blocks until this share completes.
    let state = unsafe { &*(ptr as *const BatchState<T, R, F>) };
    // Only read the clock when the registry records; the histogram's own
    // enabled check would not save the two `Instant` calls.
    let start = anatomy_obs::global()
        .enabled()
        .then(std::time::Instant::now);
    if catch_unwind(AssertUnwindSafe(|| state.work())).is_err() {
        state.panicked.store(true, Ordering::Release);
    }
    if let Some(start) = start {
        inner
            .obs
            .share_ns
            .record(start.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }
    if state.trace_batch != 0 {
        anatomy_obs::tracer().emit(anatomy_obs::EventKind::PoolShareDone {
            batch: state.trace_batch,
            helped,
        });
    }
    let guard = inner.queue.lock().expect("pool lock");
    state.pending.fetch_sub(1, Ordering::Release);
    inner.activity.notify_all();
    drop(guard);
}

fn worker_loop(inner: &PoolInner) {
    loop {
        let share = {
            let mut queue = inner.queue.lock().expect("pool lock");
            loop {
                if let Some(share) = queue.pop_front() {
                    break share;
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = inner.activity.wait(queue).expect("pool lock");
            }
        };
        inner.obs.queue_depth.add(-1);
        inner.obs.worker_shares.incr();
        // SAFETY: see Share.
        unsafe { (share.run)(share.state, inner, false) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let out = pool.par_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn serial_cutoff_still_computes() {
        let pool = Pool::new(4);
        let out = pool.par_map(&[1u32, 2, 3], |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn heavy_hint_parallelizes_tiny_batches() {
        // Two items, each slow: with the Heavy hint both lanes engage.
        // (Correctness is asserted; overlap we can only encourage.)
        let pool = Pool::new(2);
        let out = pool.par_map_hinted(&[30u64, 40], ItemCost::Heavy, |&ms| {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            ms * 10
        });
        assert_eq!(out, vec![300, 400]);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        let items: Vec<u64> = (0..100).collect();
        assert_eq!(pool.par_map(&items, |&x| x + 7)[99], 106);
    }

    #[test]
    fn nested_par_map_completes() {
        let pool = Pool::new(3);
        let outer: Vec<u64> = (0..8).collect();
        let out = pool.par_map_hinted(&outer, ItemCost::Heavy, |&o| {
            let inner: Vec<u64> = (0..200).collect();
            pool.par_map(&inner, |&i| i * o).iter().sum::<u64>()
        });
        let expect: Vec<u64> = outer.iter().map(|&o| o * (199 * 200 / 2)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn saturated_nested_batches_complete_via_help_draining() {
        // Many caller threads on a small pool, every outer item issuing
        // a nested Heavy batch: the share queue saturates with shares
        // from a dozen live batches while every lane is occupied. The
        // blocked callers must help-drain their way out; a pool that
        // parked waiters without draining would deadlock here. The
        // watchdog turns that deadlock into a loud failure instead of a
        // hung test binary.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = Pool::new(3); // 2 workers, 6 concurrent callers
            std::thread::scope(|s| {
                for t in 0..6u64 {
                    let pool = &pool;
                    s.spawn(move || {
                        let outer: Vec<u64> = (0..8).map(|i| i + 100 * t).collect();
                        let sums = pool.par_map_hinted(&outer, ItemCost::Heavy, |&o| {
                            let inner: Vec<u64> = (o..o + 64).collect();
                            pool.par_map_hinted(&inner, ItemCost::Heavy, |&i| i * 2)
                                .iter()
                                .sum::<u64>()
                        });
                        for (i, &o) in outer.iter().enumerate() {
                            let expect: u64 = (o..o + 64).map(|i| i * 2).sum();
                            assert_eq!(sums[i], expect, "caller {t}, outer item {i}");
                        }
                    });
                }
            });
            tx.send(()).unwrap();
        });
        rx.recv_timeout(std::time::Duration::from_secs(120))
            .expect("saturated nested batches deadlocked");
    }

    #[test]
    fn heavy_batch_of_exactly_threads_items_engages_every_lane() {
        // shares = workers.min(chunks - 1) must queue `threads - 1`
        // shares for a Heavy batch of `threads` items — the caller takes
        // one chunk, every worker gets one. An off-by-one here shows up
        // as a high-water concurrency below `threads`, because the lane
        // running two items runs them sequentially. The spin below is a
        // barrier: each lane waits (bounded) until all four are live, so
        // with correct share accounting the high-water is exactly 4.
        use std::time::{Duration, Instant};
        let pool = Pool::new(4);
        let live = AtomicUsize::new(0);
        let high = AtomicUsize::new(0);
        let items: Vec<u64> = (0..4).collect();
        pool.par_for_each(&items, ItemCost::Heavy, |_| {
            live.fetch_add(1, Ordering::SeqCst);
            high.fetch_max(live.load(Ordering::SeqCst), Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(5);
            while live.load(Ordering::SeqCst) < 4 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            high.fetch_max(live.load(Ordering::SeqCst), Ordering::SeqCst);
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert_eq!(
            high.load(Ordering::SeqCst),
            4,
            "a lane sat idle on a Heavy batch of exactly `threads` items"
        );
    }

    #[test]
    fn global_pool_is_shared_and_reused() {
        let a = Pool::global() as *const Pool;
        let b = Pool::global() as *const Pool;
        assert_eq!(a, b);
        assert!(Pool::global().threads() >= 1);
        let sum: u64 = Pool::global()
            .par_map(&(0..500).collect::<Vec<u64>>(), |&x| x)
            .iter()
            .sum();
        assert_eq!(sum, 499 * 500 / 2);
    }

    #[test]
    fn borrows_caller_stack_state() {
        let pool = Pool::new(4);
        let total = AtomicU64::new(0);
        let items: Vec<u64> = (1..=100).collect();
        pool.par_for_each(&items, ItemCost::Cheap, |&x| {
            total.fetch_add(x, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn panics_propagate_to_caller() {
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..100).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |&x| {
                assert!(x != 57, "boom");
                x
            })
        }));
        assert!(result.is_err());
        // The pool survives a panicked batch.
        assert_eq!(pool.par_map(&items, |&x| x).len(), 100);
    }

    #[test]
    fn many_sequential_batches_reuse_workers() {
        let pool = Pool::new(4);
        for round in 0..200u64 {
            let items: Vec<u64> = (0..64).collect();
            let out = pool.par_map(&items, |&x| x + round);
            assert_eq!(out[63], 63 + round);
        }
    }
}
