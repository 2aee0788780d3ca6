//! Offline stand-in for the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this in-tree crate
//! implements the property-testing surface the workspace uses:
//!
//! * the [`proptest!`] macro (`fn name(arg in strategy, ...) { body }`),
//! * range strategies (`0u32..50`, `3usize..=8`), tuple strategies, and
//!   [`collection::vec`],
//! * [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
//!   [`prop_assume!`], and [`ProptestConfig::with_cases`].
//!
//! Differences from real proptest, deliberately accepted:
//!
//! * **No shrinking.** A failing case reports its inputs (via `Debug` in
//!   the panic message) but is not minimized.
//! * **Deterministic seeds.** Cases derive from a fixed per-test stream,
//!   so failures reproduce exactly across runs; there is no
//!   `PROPTEST_CASES`/regression-file machinery.
//! * **`prop_assume!` skips** the case rather than re-drawing it.
//!
//! These trade-offs keep the implementation small while preserving what the
//! test-suite relies on: many diverse deterministic cases per property.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;
use std::ops::{Range, RangeInclusive};

pub mod collection;

/// Everything a property test module needs.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, ProptestConfig,
        Strategy, TestCaseError, TestCaseResult,
    };
}

/// How a property run is configured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// Real proptest's default of 256 cases.
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A failed (or rejected) test case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestCaseError {
    /// An assertion failed with this message.
    Fail(String),
    /// The case was rejected by [`prop_assume!`].
    Reject,
}

impl TestCaseError {
    /// An assertion failure carrying `msg`.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(msg) => write!(f, "{msg}"),
            TestCaseError::Reject => write!(f, "case rejected by prop_assume!"),
        }
    }
}

/// The result type of one generated case.
pub type TestCaseResult = Result<(), TestCaseError>;

/// A generator of test-case values.
pub trait Strategy {
    /// The value type this strategy produces.
    type Value: fmt::Debug;

    /// Produce one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

/// Strategies are used by shared reference inside tuple/vec combinators.
impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (**self).generate(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                rng.random_range(self.clone())
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                if hi < <$t>::MAX {
                    rng.random_range(lo..hi + 1)
                } else if lo > 0 {
                    // [lo-1, hi) shifted up by one is [lo, hi].
                    rng.random_range(lo - 1..hi) + 1
                } else {
                    // Full domain: raw bits are uniform over it.
                    rand::RngCore::next_u64(rng) as $t
                }
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident / $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A / 0);
    (A / 0, B / 1);
    (A / 0, B / 1, C / 2);
    (A / 0, B / 1, C / 2, D / 3);
    (A / 0, B / 1, C / 2, D / 3, E / 4);
}

/// Internal runner invoked by the [`proptest!`] expansion. Not part of the
/// mimicked API.
#[doc(hidden)]
pub fn run_property<F>(test_path: &str, config: &ProptestConfig, mut case: F)
where
    F: FnMut(&mut StdRng) -> Result<String, (String, TestCaseError)>,
{
    // Per-test deterministic stream: FNV-1a over the test path.
    let mut seed = 0xCBF2_9CE4_8422_2325u64;
    for b in test_path.bytes() {
        seed ^= b as u64;
        seed = seed.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for case_no in 0..config.cases {
        let mut rng = StdRng::seed_from_u64(seed ^ (case_no as u64).wrapping_mul(0x9E37_79B9));
        match case(&mut rng) {
            Ok(_) => {}
            Err((_, TestCaseError::Reject)) => {}
            Err((inputs, TestCaseError::Fail(msg))) => panic!(
                "proptest property `{test_path}` failed at case {case_no}/{}:\n  {msg}\n  inputs: {inputs}",
                config.cases
            ),
        }
    }
}

/// Define property tests: each function runs `config.cases` times over
/// freshly generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns! { (<$crate::ProptestConfig as ::core::default::Default>::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:ident in $strat:expr ),+ $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $cfg;
                $crate::run_property(
                    concat!(module_path!(), "::", stringify!($name)),
                    &config,
                    |rng| {
                        $( let $arg = $crate::Strategy::generate(&($strat), rng); )+
                        let inputs = format!(
                            concat!($(stringify!($arg), " = {:?}, "),+),
                            $(&$arg),+
                        );
                        let outcome: $crate::TestCaseResult = (|| {
                            $body
                            #[allow(unreachable_code)]
                            Ok(())
                        })();
                        match outcome {
                            Ok(()) => Ok(inputs),
                            Err(e) => Err((inputs, e)),
                        }
                    },
                );
            }
        )*
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless the two sides compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{} == {}` (left: {:?}, right: {:?})",
            stringify!($lhs), stringify!($rhs), l, r
        );
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(*l == *r, $($fmt)+);
    }};
}

/// Fail the current case if the two sides compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr) => {{
        let (l, r) = (&$lhs, &$rhs);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{} != {}` (both: {:?})",
            stringify!($lhs),
            stringify!($rhs),
            l
        );
    }};
}

/// Skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_stay_in_bounds(a in 3u32..17, b in 5usize..=9, c in 0u64..1) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((5..=9).contains(&b));
            prop_assert_eq!(c, 0);
        }

        #[test]
        fn tuples_and_vecs_compose(
            pair in (0u32..4, 10u32..20),
            rows in crate::collection::vec((0u32..100, 0u8..2), 0..30),
        ) {
            prop_assert!(pair.0 < 4 && pair.1 >= 10);
            prop_assert!(rows.len() < 30);
            for (x, y) in rows {
                prop_assert!(x < 100);
                prop_assert!(y < 2);
            }
        }

        #[test]
        fn assume_skips(n in 0u32..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn early_ok_return_is_allowed(n in 0u32..10) {
            if n > 3 {
                return Ok(());
            }
            prop_assert!(n <= 3);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn always_fails(n in 0u32..4) {
                prop_assert!(n > 100, "n was {}", n);
            }
        }
        always_fails();
    }

    #[test]
    fn vec_length_bounds_are_respected() {
        use crate::Strategy;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let strat = crate::collection::vec(0u32..5, 3..=3);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            assert_eq!(strat.generate(&mut rng).len(), 3);
        }
    }
}
