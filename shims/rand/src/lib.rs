//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this in-tree crate
//! provides exactly the subset of the `rand` API the workspace uses:
//!
//! * [`rngs::StdRng`] — a deterministic xoshiro256++ generator;
//! * [`SeedableRng::seed_from_u64`] — SplitMix64 seed expansion, the same
//!   scheme the xoshiro reference implementation recommends;
//! * [`RngExt::random`] / [`RngExt::random_range`] — uniform draws;
//! * [`seq::SliceRandom::shuffle`] — Fisher–Yates;
//! * [`seq::index::sample`] — distinct index sampling without replacement.
//!
//! Determinism is part of the contract: every experiment seed in the
//! workspace pins its output through this generator, so the algorithm must
//! not change silently. The statistical quality of xoshiro256++ is more
//! than adequate for workload generation and randomized tie-breaking (it
//! passes BigCrush); nothing here is used for cryptography.

#![forbid(unsafe_code)]

pub mod rngs;
pub mod seq;

use core::ops::Range;

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Expand a 64-bit seed into a full generator state.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Core 64-bit output, the primitive everything else is derived from.
pub trait RngCore {
    /// The next 64 raw bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 raw bits (high half of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// A type that can be drawn uniformly by [`RngExt::random`].
pub trait Standard: Sized {
    /// Draw one value from `rng`.
    fn draw(rng: &mut (impl RngCore + ?Sized)) -> Self;
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn draw(rng: &mut (impl RngCore + ?Sized)) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn draw(rng: &mut (impl RngCore + ?Sized)) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for u32 {
    fn draw(rng: &mut (impl RngCore + ?Sized)) -> u32 {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn draw(rng: &mut (impl RngCore + ?Sized)) -> u64 {
        rng.next_u64()
    }
}

/// An integer type [`RngExt::random_range`] can sample.
pub trait UniformInt: Copy + PartialOrd {
    /// Widen to u64 (ranges are non-negative in this workspace).
    fn to_u64(self) -> u64;
    /// Narrow from u64 (the value is `< self` bound, so it fits).
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformInt for $t {
            #[inline]
            fn to_u64(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}

impl_uniform_int!(u8, u16, u32, u64, usize);

/// Convenience draws on top of [`RngCore`] (the `rand 0.10` `Rng` surface
/// this workspace touches).
pub trait RngExt: RngCore {
    /// A uniform draw of `T`.
    fn random<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A uniform draw from the half-open `range`.
    ///
    /// Uses Lemire's multiply-shift rejection method: unbiased, one
    /// division only on rejection.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn random_range<T: UniformInt>(&mut self, range: Range<T>) -> T {
        let lo = range.start.to_u64();
        let hi = range.end.to_u64();
        assert!(lo < hi, "random_range called with an empty range");
        let span = hi - lo;
        T::from_u64(lo + uniform_below(self, span))
    }
}

impl<R: RngCore + ?Sized> RngExt for R {}

/// Unbiased uniform draw from `0..span` (`span > 0`).
fn uniform_below(rng: &mut (impl RngCore + ?Sized), span: u64) -> u64 {
    debug_assert!(span > 0);
    // Lemire 2019, "Fast Random Integer Generation in an Interval".
    let mut x = rng.next_u64();
    let mut m = (x as u128).wrapping_mul(span as u128);
    let mut low = m as u64;
    if low < span {
        let threshold = span.wrapping_neg() % span;
        while low < threshold {
            x = rng.next_u64();
            m = (x as u128).wrapping_mul(span as u128);
            low = m as u64;
        }
    }
    (m >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_is_inclusive_exclusive_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.random_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "bucket count {c} far from 1000");
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.random_range(3u32..3);
    }

    #[test]
    fn shuffle_permutes() {
        use crate::seq::SliceRandom;
        let mut v: Vec<u32> = (0..50).collect();
        let orig = v.clone();
        let mut rng = StdRng::seed_from_u64(3);
        v.shuffle(&mut rng);
        assert_ne!(v, orig);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig);
    }

    #[test]
    fn index_sample_is_distinct_and_in_range() {
        let mut rng = StdRng::seed_from_u64(4);
        for k in [0, 1, 5, 20] {
            let idx: Vec<usize> = seq::index::sample(&mut rng, 20, k).into_iter().collect();
            assert_eq!(idx.len(), k);
            let mut sorted = idx.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), k, "duplicates in {idx:?}");
            assert!(idx.iter().all(|&i| i < 20));
        }
    }
}
