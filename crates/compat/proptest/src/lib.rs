//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of the proptest 1.x API this workspace's property
//! tests use: the [`proptest!`] macro, `prop_assert!`/`prop_assert_eq!`,
//! [`prop_oneof!`], [`strategy::Strategy`] with `prop_map`, range and tuple
//! strategies, [`collection::vec`], [`Just`], [`any`], and
//! [`ProptestConfig::with_cases`].
//!
//! Differences from upstream proptest, by design:
//!
//! * **No shrinking.** A failing case panics with the generated inputs
//!   left to the assertion message; there is no minimization pass.
//! * **Deterministic seeding.** Each test derives its RNG seed from the
//!   test's name (FNV-1a), so runs are reproducible without a persistence
//!   file. Set `PROPTEST_SEED` to override the base seed.
//! * Failure persistence files, `prop_filter`, and recursive strategies
//!   are not implemented (unused here).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod strategy;

pub use strategy::{any, Just, Strategy};

#[doc(hidden)]
pub mod __rt {
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;
}

/// Runtime configuration for a [`proptest!`] block.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // Upstream defaults to 256; 64 keeps the suite fast on small CI
        // machines while still exploring the space every run.
        ProptestConfig { cases: 64 }
    }
}

/// Derives the per-test RNG seed from the test name (FNV-1a 64), xor'd
/// with `PROPTEST_SEED` when set.
pub fn seed_for(test_name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in test_name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let base = std::env::var("PROPTEST_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0);
    h ^ base
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// Element-count specification for [`vec()`]: a fixed size or a range.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from an element strategy.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut StdRng) -> Self::Value {
            let len = if self.size.lo + 1 == self.size.hi {
                self.size.lo
            } else {
                rng.gen_range(self.size.lo..self.size.hi)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Strategy for a `Vec` of `size` elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// The usual wildcard-import surface: strategies, macros, config.
pub mod prelude {
    pub use crate::collection::vec as prop_vec;
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Weighted (or unweighted) union of strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

/// Declares property tests: each `fn name(arg in strategy, …) { body }`
/// becomes a `#[test]` running the body over random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@config ($cfg) $($rest)*);
    };
    (@config ($cfg:expr) $($(#[$meta:meta])* fn $name:ident (
        $($arg:ident in $strat:expr),* $(,)?
    ) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut proptest_rng = <$crate::__rt::StdRng as $crate::__rt::SeedableRng>::seed_from_u64(
                    $crate::seed_for(concat!(module_path!(), "::", stringify!($name))),
                );
                for _ in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut proptest_rng);)*
                    $body
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn ranges_stay_in_bounds(x in 0usize..10, y in -5i64..=5) {
            prop_assert!(x < 10);
            prop_assert!((-5..=5).contains(&y));
        }

        #[test]
        fn tuples_and_vecs_compose(
            pair in (0usize..4, 0u64..100),
            items in crate::collection::vec(0usize..7, 0..20),
        ) {
            prop_assert!(pair.0 < 4 && pair.1 < 100);
            prop_assert!(items.len() < 20);
            prop_assert!(items.iter().all(|&i| i < 7));
        }

        #[test]
        fn oneof_maps_and_just(v in prop_oneof![
            3 => (0i64..10).prop_map(|x| x * 2),
            1 => Just(-1i64),
        ]) {
            prop_assert!(v == -1 || (v % 2 == 0 && (0..20).contains(&v)));
        }

        #[test]
        fn any_bool_is_generated(b in any::<bool>()) {
            let _ = b;
            prop_assert!(true);
        }
    }
}
