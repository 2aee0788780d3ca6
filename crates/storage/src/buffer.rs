//! A fixed budget of in-memory pages.
//!
//! The paper's experiments run with "a memory capacity of 50 pages"
//! (Section 6.2), and Theorem 3's proof is explicit about how `Anatomize`
//! spends that budget: one buffer page per hash bucket during partitioning,
//! one input page per bucket plus one output page during group creation, and
//! so on. [`BufferPool`] makes that accounting *enforced* instead of
//! narrated: every reader and writer must hold a [`PageLease`] and
//! construction fails loudly when an algorithm would exceed its budget.
//!
//! The free count is a lock-free atomic, so clones of one pool shared
//! across threads never serialize on a mutex just to charge pages.

use crate::error::StorageError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct PoolInner {
    capacity: usize,
    free: AtomicUsize,
}

/// A pool of simulated buffer pages with a hard capacity.
#[derive(Debug, Clone)]
pub struct BufferPool {
    inner: Arc<PoolInner>,
}

impl BufferPool {
    /// A pool with `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            inner: Arc::new(PoolInner {
                capacity,
                free: AtomicUsize::new(capacity),
            }),
        }
    }

    /// The paper's 50-page budget.
    pub fn paper() -> Self {
        BufferPool::new(crate::page::PAPER_MEMORY_PAGES)
    }

    /// An effectively unlimited pool, for tests and for in-memory callers
    /// that do not model a memory budget.
    pub fn unbounded() -> Self {
        BufferPool::new(usize::MAX / 2)
    }

    /// Total capacity in pages.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Pages currently free.
    pub fn free(&self) -> usize {
        self.inner.free.load(Ordering::Acquire)
    }

    /// Pages currently leased.
    pub fn in_use(&self) -> usize {
        self.capacity() - self.free()
    }

    /// Acquire `pages` buffer pages, or fail if the pool cannot supply them.
    ///
    /// The lease is released when the returned [`PageLease`] is dropped.
    /// Safe to call from any thread; concurrent leases race on a
    /// compare-exchange loop, so two threads can never jointly overdraw
    /// the budget.
    pub fn try_lease(&self, pages: usize) -> Result<PageLease, StorageError> {
        let mut free = self.inner.free.load(Ordering::Acquire);
        loop {
            if pages > free {
                return Err(StorageError::PoolExhausted {
                    requested: pages,
                    available: free,
                    capacity: self.inner.capacity,
                });
            }
            match self.inner.free.compare_exchange_weak(
                free,
                free - pages,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    return Ok(PageLease {
                        pool: Arc::clone(&self.inner),
                        pages,
                    })
                }
                Err(actual) => free = actual,
            }
        }
    }
}

/// RAII lease over a number of buffer pages; pages return to the pool on
/// drop.
#[derive(Debug)]
pub struct PageLease {
    pool: Arc<PoolInner>,
    pages: usize,
}

impl PageLease {
    /// Number of pages held by this lease.
    pub fn pages(&self) -> usize {
        self.pages
    }
}

impl Drop for PageLease {
    fn drop(&mut self) {
        self.pool.free.fetch_add(self.pages, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_and_release() {
        let pool = BufferPool::new(10);
        assert_eq!(pool.free(), 10);
        let a = pool.try_lease(4).unwrap();
        assert_eq!(pool.free(), 6);
        assert_eq!(pool.in_use(), 4);
        assert_eq!(a.pages(), 4);
        drop(a);
        assert_eq!(pool.free(), 10);
    }

    #[test]
    fn exhaustion_is_reported() {
        let pool = BufferPool::new(3);
        let _a = pool.try_lease(2).unwrap();
        let err = pool.try_lease(2).unwrap_err();
        assert_eq!(
            err,
            StorageError::PoolExhausted {
                requested: 2,
                available: 1,
                capacity: 3
            }
        );
    }

    #[test]
    fn clones_share_the_budget() {
        let pool = BufferPool::new(5);
        let pool2 = pool.clone();
        let _a = pool.try_lease(3).unwrap();
        assert_eq!(pool2.free(), 2);
        assert!(pool2.try_lease(3).is_err());
    }

    #[test]
    fn paper_pool_has_fifty_pages() {
        assert_eq!(BufferPool::paper().capacity(), 50);
    }

    #[test]
    fn zero_page_lease_always_succeeds() {
        let pool = BufferPool::new(0);
        let l = pool.try_lease(0).unwrap();
        assert_eq!(l.pages(), 0);
    }

    #[test]
    fn concurrent_leases_never_overdraw() {
        let pool = BufferPool::new(64);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        if let Ok(lease) = pool.try_lease(7) {
                            assert!(pool.free() <= pool.capacity());
                            drop(lease);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.free(), 64);
        assert_eq!(pool.in_use(), 0);
    }
}
