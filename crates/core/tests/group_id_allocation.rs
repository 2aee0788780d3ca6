//! A release's group ids must not size an allocation: a two-row QIT that
//! names group 4294967295 is refused with the usual not-dense error, and
//! no allocation made while parsing it is larger than a few KiB.
//!
//! This file holds one test because the counting allocator below is the
//! whole test binary's allocator.

use anatomy_core::parse_release;
use anatomy_tables::{Attribute, Schema};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The largest allocation the test tolerates while parsing.
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

#[test]
fn a_huge_group_id_sizes_no_allocation() {
    let qi_schema = Schema::new(vec![Attribute::numerical("Age", 100)]).unwrap();
    let qit = "Age,Group-ID\n1,4294967295\n2,4294967295\n";
    let st = "Group-ID,As,Count\n4294967295,0,1\n4294967295,1,1\n";

    ARMED.store(true, Ordering::Relaxed);
    let result = parse_release(qi_schema, qit, st, 2);
    ARMED.store(false, Ordering::Relaxed);

    let err = result.expect_err("a release whose only group id is 4294967295 is not dense");
    assert_eq!(
        err.to_string(),
        "invalid partition: group ids are not dense: group 0 has no tuples"
    );
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= LIMIT,
        "parsing a 2-row release made a {largest}-byte allocation"
    );
}
