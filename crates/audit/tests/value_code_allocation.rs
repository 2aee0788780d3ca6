//! A release's sensitive codes must not size an allocation: auditing a
//! small, well-formed release whose ST names value 4294967294 runs every
//! registered check with its usual verdict, and the per-value estimator
//! answers it, with no allocation larger than a few KiB.
//!
//! This file holds one test because the counting allocator below is the
//! whole test binary's allocator.

use anatomy_audit::{audit_release, names_for, Stage};
use anatomy_core::{AnatomizedTables, StRecord};
use anatomy_query::estimate_anatomy_per_value;
use anatomy_tables::{Attribute, Schema, TableBuilder, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The largest allocation the test tolerates while auditing.
const LIMIT: usize = 4096;

/// Requests above this are refused outright while armed, so a regression
/// aborts the test instead of asking the host for gigabytes.
const REFUSE_ABOVE: usize = 1 << 30;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, recording the largest request made while armed.
struct Counting;

impl Counting {
    /// Note a request of `size` bytes; false when it must be refused.
    fn admit(size: usize) -> bool {
        if !ARMED.load(Ordering::Relaxed) {
            return true;
        }
        LARGEST.fetch_max(size, Ordering::Relaxed);
        size <= REFUSE_ABOVE
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments,
// or returns null, which the `GlobalAlloc` contract allows for any
// request.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !Counting::admit(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller's layout, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !Counting::admit(layout.size()) {
            return std::ptr::null_mut();
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if !Counting::admit(new_size) {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` with the allocator armed; returns its result and the largest
/// allocation it made.
fn armed<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let out = f();
    ARMED.store(false, Ordering::Relaxed);
    (out, LARGEST.load(Ordering::Relaxed))
}

#[test]
fn a_huge_sensitive_code_sizes_no_allocation() {
    const HUGE: u32 = 4_294_967_294;
    // Two 2-diverse groups of two tuples; each holds the huge value once.
    let schema = Schema::new(vec![Attribute::numerical("Age", 100)]).unwrap();
    let mut qit = TableBuilder::new(schema);
    for age in [30, 31, 40, 41] {
        qit.push_row(&[age]).unwrap();
    }
    let record = |group, value, count| StRecord {
        group,
        value: Value(value),
        count,
    };
    let st = vec![
        record(0, 3, 1),
        record(0, HUGE, 1),
        record(1, 0, 1),
        record(1, HUGE, 1),
    ];
    let tables = AnatomizedTables::from_parts(qit.finish(), vec![0, 0, 1, 1], st, 2).unwrap();

    let (report, largest) = armed(|| audit_release(&tables, 2));
    assert!(report.passed(), "{}", report.render());
    let ran: Vec<&str> = report.checks.iter().map(|c| c.name).collect();
    assert_eq!(ran, names_for(Stage::Anatomize));
    assert!(
        largest <= LIMIT,
        "auditing a 4-row release made a {largest}-byte allocation"
    );

    let (estimates, largest) = armed(|| estimate_anatomy_per_value(&tables, &[]));
    assert_eq!(
        estimates,
        vec![(Value(0), 1.0), (Value(3), 1.0), (Value(HUGE), 2.0)]
    );
    assert!(
        largest <= LIMIT,
        "estimating a 4-row release made a {largest}-byte allocation"
    );
}
