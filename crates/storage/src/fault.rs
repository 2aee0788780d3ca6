//! Seeded fault injection for the simulated file layer.
//!
//! A [`FaultConfig`] is a schedule of physical faults keyed by operation
//! index: "truncate the 3rd page write", "flip a bit in the 0th page
//! read", "return ENOSPC on the 5th write". Installing it with
//! [`FaultScope::install`] arms the schedule for the current thread;
//! every page flushed by [`SeqWriter`](crate::SeqWriter) and every page
//! loaded by [`SeqReader`](crate::SeqReader) on that thread then passes
//! through the schedule until the scope is dropped.
//!
//! The state is thread-local on purpose: `anatomize_external` creates
//! its scratch [`SimFile`](crate::SimFile)s internally, so callers
//! cannot wrap them directly — but arming the thread lets a test inject
//! faults into the middle of the pipeline while parallel tests on other
//! threads stay clean.
//!
//! ```
//! use anatomy_storage::fault::{FaultConfig, FaultScope};
//! use anatomy_storage::{
//!     BufferPool, IoCounter, PageConfig, SeqWriter, SimFile, StorageError, U32RowCodec,
//! };
//!
//! let _scope = FaultScope::install(FaultConfig::new().disk_full(0));
//! let mut file = SimFile::new();
//! let pool = BufferPool::unbounded();
//! let mut w = SeqWriter::open(
//!     &mut file,
//!     U32RowCodec::new(1),
//!     PageConfig::with_page_size(8),
//!     &pool,
//!     IoCounter::new(),
//! )
//! .unwrap();
//! w.push(&[1]).unwrap();
//! w.push(&[2]).unwrap();
//! // The first page flush hits the scheduled ENOSPC.
//! assert!(matches!(w.push(&[3]), Err(StorageError::DiskFull { .. })));
//! ```

use crate::error::StorageError;
use anatomy_obs::EventKind;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Keep only the first `keep` bytes of a written page (a torn/short
    /// write that the device acknowledged anyway).
    ShortWrite {
        /// Bytes that survive.
        keep: usize,
    },
    /// Flip one bit of a written page after its header was computed.
    BitFlipWrite {
        /// Bit position; reduced modulo the page's bit length.
        bit: u64,
    },
    /// Reject a page write outright (ENOSPC).
    DiskFull,
    /// Deliver only the first `keep` bytes of a read page.
    ShortRead {
        /// Bytes that survive.
        keep: usize,
    },
    /// Flip one bit of a page as it is read.
    BitFlipRead {
        /// Bit position; reduced modulo the page's bit length.
        bit: u64,
    },
}

impl FaultKind {
    /// Whether this fault fires on the write path.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            FaultKind::ShortWrite { .. } | FaultKind::BitFlipWrite { .. } | FaultKind::DiskFull
        )
    }
}

/// A schedule of faults, keyed by 0-based page-operation index.
///
/// Write faults count page *writes* (flushes) since the scope was
/// installed, across all files on the thread; read faults count page
/// loads the same way. Operations with no scheduled fault proceed
/// untouched.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultConfig {
    on_write: Vec<(u64, FaultKind)>,
    on_read: Vec<(u64, FaultKind)>,
}

impl FaultConfig {
    /// An empty schedule (no faults).
    pub fn new() -> Self {
        FaultConfig::default()
    }

    /// Truncate the `op`-th page write to its first `keep` bytes.
    pub fn short_write(mut self, op: u64, keep: usize) -> Self {
        self.on_write.push((op, FaultKind::ShortWrite { keep }));
        self
    }

    /// Flip bit `bit` (mod page length) of the `op`-th page write.
    pub fn bit_flip_write(mut self, op: u64, bit: u64) -> Self {
        self.on_write.push((op, FaultKind::BitFlipWrite { bit }));
        self
    }

    /// Fail the `op`-th page write with [`StorageError::DiskFull`].
    pub fn disk_full(mut self, op: u64) -> Self {
        self.on_write.push((op, FaultKind::DiskFull));
        self
    }

    /// Truncate the `op`-th page read to its first `keep` bytes.
    pub fn short_read(mut self, op: u64, keep: usize) -> Self {
        self.on_read.push((op, FaultKind::ShortRead { keep }));
        self
    }

    /// Flip bit `bit` (mod page length) of the `op`-th page read.
    pub fn bit_flip_read(mut self, op: u64, bit: u64) -> Self {
        self.on_read.push((op, FaultKind::BitFlipRead { bit }));
        self
    }

    /// Schedule `kind` at operation `op` on its natural path.
    pub fn with_fault(mut self, op: u64, kind: FaultKind) -> Self {
        if kind.is_write() {
            self.on_write.push((op, kind));
        } else {
            self.on_read.push((op, kind));
        }
        self
    }

    /// A schedule of one pseudo-random fault derived from `seed` via
    /// splitmix64 (no dependency on any RNG crate). Deterministic:
    /// equal seeds give equal schedules.
    pub fn seeded(seed: u64) -> Self {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let op = next() % 16;
        let kind = match next() % 5 {
            0 => FaultKind::ShortWrite {
                keep: (next() % 8) as usize,
            },
            1 => FaultKind::BitFlipWrite { bit: next() % 512 },
            2 => FaultKind::DiskFull,
            3 => FaultKind::ShortRead {
                keep: (next() % 8) as usize,
            },
            _ => FaultKind::BitFlipRead { bit: next() % 512 },
        };
        FaultConfig::new().with_fault(op, kind)
    }

    /// All scheduled faults, for display/debugging.
    pub fn faults(&self) -> impl Iterator<Item = (u64, FaultKind)> + '_ {
        self.on_write.iter().chain(self.on_read.iter()).copied()
    }
}

struct FaultState {
    cfg: FaultConfig,
    writes: u64,
    reads: u64,
}

thread_local! {
    /// The stack of armed scopes on this thread; the *top* entry is the
    /// authoritative schedule (inner scopes shadow outer ones).
    static STACK: RefCell<Vec<FaultState>> = const { RefCell::new(Vec::new()) };
    /// (writes, reads) on this thread while *no* fault scope is armed,
    /// so trace events always carry a page-operation index. With a
    /// scope armed the scope's own counters are authoritative — they
    /// are the indices a [`FaultConfig`] schedule keys on, so a trace
    /// pinpoints the exact op a fault fired at.
    static FREE_OPS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// RAII guard arming a [`FaultConfig`] for the current thread.
///
/// Dropping the scope restores whatever schedule (usually none) was
/// active before, so scopes nest. Disarming is unconditional: the guard
/// remembers the stack depth it was installed at and truncates back to
/// it on drop, so a panic unwinding through the guarded code — or a
/// guard dropped out of order relative to a later one — can never leak
/// an armed schedule into unrelated code sharing the thread. The guard
/// is `!Send`: it must be dropped on the thread it armed.
pub struct FaultScope {
    depth: usize,
    _not_send: PhantomData<*const ()>,
}

impl FaultScope {
    /// Arm `cfg` on this thread until the returned guard is dropped.
    pub fn install(cfg: FaultConfig) -> FaultScope {
        let depth = STACK.with(|s| {
            let mut s = s.borrow_mut();
            s.push(FaultState {
                cfg,
                writes: 0,
                reads: 0,
            });
            s.len() - 1
        });
        FaultScope {
            depth,
            _not_send: PhantomData,
        }
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        // Truncating (rather than popping) also evicts any scope that
        // was installed above this one and outlived its own guard, so
        // out-of-order drops cannot resurrect a stale schedule.
        // `try_with`: drops during thread teardown find the TLS already
        // destroyed; disarming is then moot and must not panic/abort.
        let _ = STACK.try_with(|s| s.borrow_mut().truncate(self.depth));
    }
}

fn flip(payload: &mut [u8], bit: u64) {
    if payload.is_empty() {
        return;
    }
    let pos = bit % (payload.len() as u64 * 8);
    payload[(pos / 8) as usize] ^= 1 << (pos % 8);
}

/// Write-path hook: called by `SeqWriter` with the payload it is about
/// to store, after the page header has been computed. May truncate or
/// corrupt `payload` in place, or veto the write entirely. Journals a
/// `PageWrite` trace event (plus `FaultFired` when a schedule entry
/// matched — emitted even when the fault vetoes the write, so the
/// trace records exactly which op died).
pub(crate) fn on_write(payload: &mut Vec<u8>, page: usize) -> Result<(), StorageError> {
    let (op, fired, verdict) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        match s.last_mut() {
            None => {
                let op = FREE_OPS.with(|c| {
                    let (w, r) = c.get();
                    c.set((w + 1, r));
                    w
                });
                (op, false, Ok(()))
            }
            Some(state) => {
                let op = state.writes;
                state.writes += 1;
                let mut fired = false;
                let mut verdict = Ok(());
                for &(at, kind) in &state.cfg.on_write {
                    if at != op {
                        continue;
                    }
                    match kind {
                        FaultKind::ShortWrite { keep } => {
                            payload.truncate(keep);
                            fired = true;
                        }
                        FaultKind::BitFlipWrite { bit } => {
                            flip(payload, bit);
                            fired = true;
                        }
                        FaultKind::DiskFull => {
                            fired = true;
                            verdict = Err(StorageError::DiskFull { page });
                            break;
                        }
                        _ => {}
                    }
                }
                (op, fired, verdict)
            }
        }
    });
    let t = anatomy_obs::tracer();
    if t.enabled() {
        t.emit(EventKind::PageWrite {
            op,
            page: page as u64,
        });
        if fired {
            t.emit(EventKind::FaultFired { op, write: true });
        }
    }
    verdict
}

/// Read-path hook: called by `SeqReader` as it loads page `page`, before
/// header verification. Returns the read faults scheduled at this op, in
/// schedule order, for [`apply_read`] to apply to a copy of the payload
/// (never the stored page); empty, with no allocation, when none fires.
/// Journals a `PageRead` trace event (plus `FaultFired` when a schedule
/// entry matched).
pub(crate) fn on_read(page: usize) -> Vec<FaultKind> {
    let (op, fired) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        match s.last_mut() {
            None => {
                let op = FREE_OPS.with(|c| {
                    let (w, r) = c.get();
                    c.set((w, r + 1));
                    r
                });
                (op, Vec::new())
            }
            Some(state) => {
                let op = state.reads;
                state.reads += 1;
                let fired = state
                    .cfg
                    .on_read
                    .iter()
                    .filter(|&&(at, _)| at == op)
                    .map(|&(_, kind)| kind)
                    .collect();
                (op, fired)
            }
        }
    });
    let t = anatomy_obs::tracer();
    if t.enabled() {
        t.emit(EventKind::PageRead {
            op,
            page: page as u64,
        });
        if !fired.is_empty() {
            t.emit(EventKind::FaultFired { op, write: false });
        }
    }
    fired
}

/// Apply read faults from [`on_read`] to `payload`, a copy of a page's
/// stored bytes, in order: truncate it or flip one of its bits.
pub(crate) fn apply_read(payload: &mut Vec<u8>, faults: &[FaultKind]) {
    for &kind in faults {
        match kind {
            FaultKind::ShortRead { keep } => payload.truncate(keep),
            FaultKind::BitFlipRead { bit } => flip(payload, bit),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_nest_and_restore() {
        assert!(on_write(&mut vec![0u8; 4], 0).is_ok());
        let outer = FaultScope::install(FaultConfig::new().disk_full(0));
        {
            let _inner = FaultScope::install(FaultConfig::new());
            // Inner scope has no faults; the outer schedule is shadowed.
            assert!(on_write(&mut vec![0u8; 4], 0).is_ok());
        }
        // Outer schedule restored, its counter untouched by the inner ops.
        assert!(matches!(
            on_write(&mut vec![0u8; 4], 3),
            Err(StorageError::DiskFull { page: 3 })
        ));
        drop(outer);
        assert!(on_write(&mut vec![0u8; 4], 0).is_ok());
    }

    #[test]
    fn faults_fire_at_their_op_index_only() {
        let _scope = FaultScope::install(
            FaultConfig::new()
                .short_write(1, 2)
                .bit_flip_read(0, 3)
                .short_read(2, 0),
        );
        let mut w0 = vec![0xAAu8; 4];
        on_write(&mut w0, 0).unwrap();
        assert_eq!(w0.len(), 4); // untouched
        let mut w1 = vec![0xAAu8; 4];
        on_write(&mut w1, 1).unwrap();
        assert_eq!(w1, vec![0xAA, 0xAA]); // truncated

        let mut r0 = vec![0u8; 4];
        apply_read(&mut r0, &on_read(0));
        assert_eq!(r0[0], 1 << 3); // bit 3 flipped
        assert!(on_read(1).is_empty()); // untouched
        let mut r2 = vec![0u8; 4];
        apply_read(&mut r2, &on_read(2));
        assert!(r2.is_empty()); // short read to zero bytes
    }

    #[test]
    fn panicking_scope_disarms_its_schedule() {
        // A panic unwinding through the guarded code must still disarm
        // the schedule: the next operation on this thread is fault-free.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _scope = FaultScope::install(FaultConfig::new().disk_full(0));
            panic!("test failure inside a fault scope");
        }));
        assert!(unwound.is_err());
        assert!(on_write(&mut vec![0u8; 4], 0).is_ok());
    }

    #[test]
    fn panic_with_nested_scopes_disarms_all_of_them() {
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _outer = FaultScope::install(FaultConfig::new().disk_full(0));
            let _inner = FaultScope::install(FaultConfig::new().bit_flip_read(0, 1));
            panic!("boom with two scopes armed");
        }));
        assert!(unwound.is_err());
        assert!(on_write(&mut vec![0u8; 4], 0).is_ok());
        assert!(on_read(0).is_empty()); // no flip: inner scope gone too
    }

    #[test]
    fn out_of_order_drops_cannot_leak_a_schedule() {
        // Guards dropped in installation order (not reverse order):
        // dropping `a` must evict `b`'s shadowing entry as well, and
        // dropping `b` afterwards must not resurrect `a`'s armed
        // schedule. (The pre-stack implementation restored `b.prev`,
        // i.e. `a`'s DiskFull schedule, here.)
        let a = FaultScope::install(FaultConfig::new().disk_full(0));
        let b = FaultScope::install(FaultConfig::new());
        drop(a);
        drop(b);
        assert!(on_write(&mut vec![0u8; 4], 0).is_ok());
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        assert_eq!(FaultConfig::seeded(42), FaultConfig::seeded(42));
        // A handful of seeds should not all collapse to the same fault.
        let distinct: std::collections::HashSet<String> = (0..16u64)
            .map(|s| format!("{:?}", FaultConfig::seeded(s)))
            .collect();
        assert!(distinct.len() > 3);
    }

    #[test]
    fn bit_flip_wraps_and_ignores_empty() {
        let mut p = vec![0u8; 2];
        flip(&mut p, 17); // 17 mod 16 = 1
        assert_eq!(p, vec![0b10, 0]);
        let mut empty: Vec<u8> = vec![];
        flip(&mut empty, 5);
        assert!(empty.is_empty());
    }
}
