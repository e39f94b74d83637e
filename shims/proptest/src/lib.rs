//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! Provides the [`proptest!`] macro over a seeded deterministic generator:
//! each property runs for a fixed number of cases (default 64, override with
//! the `PROPTEST_CASES` environment variable), with inputs drawn from
//! [`Strategy`](strategy::Strategy) implementations for numeric ranges, tuples, `any::<T>()`, and
//! [`collection::vec`]. `prop_assert!`/`prop_assert_eq!` panic on failure
//! like plain assertions; `prop_assume!` skips the current case.
//!
//! Unlike upstream proptest there is no shrinking — a failing case prints its
//! seed-deterministic inputs via the assertion message instead.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runtime support used by the [`proptest!`] expansion.
pub mod test_runner {
    use super::*;

    /// Number of cases per property (`PROPTEST_CASES` overrides).
    pub fn cases() -> usize {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    /// Deterministic per-property generator: FNV-1a of the test name.
    pub fn rng_for(name: &str) -> StdRng {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        StdRng::seed_from_u64(hash)
    }
}

/// Input-generation strategies.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::ops::Range;

    /// A sampleable input domain.
    pub trait Strategy {
        /// The generated value type.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;
    }

    impl Strategy for Range<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut StdRng) -> f64 {
            self.start + (self.end - self.start) * rng.gen::<f64>()
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;

        fn sample(&self, rng: &mut StdRng) -> f32 {
            self.start + (self.end - self.start) * rng.gen::<f32>()
        }
    }

    macro_rules! impl_int_range {
        ($($ty:ty),*) => {$(
            impl Strategy for Range<$ty> {
                type Value = $ty;

                fn sample(&self, rng: &mut StdRng) -> $ty {
                    let span = (self.end as i128) - (self.start as i128);
                    debug_assert!(span > 0, "empty integer range strategy");
                    let offset = (rng.gen::<u64>() as i128).rem_euclid(span);
                    (self.start as i128 + offset) as $ty
                }
            }
        )*};
    }

    impl_int_range!(i8, i16, i32, i64, isize, u8, u16, u32, u64, usize);

    /// Strategy produced by [`crate::arbitrary::any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(pub(crate) std::marker::PhantomData<T>);

    impl Strategy for Any<bool> {
        type Value = bool;

        fn sample(&self, rng: &mut StdRng) -> bool {
            rng.gen::<bool>()
        }
    }

    impl Strategy for Any<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut StdRng) -> f64 {
            // Finite, sign-balanced, wide dynamic range.
            let magnitude = (rng.gen::<f64>() * 600.0) - 300.0;
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            sign * magnitude.exp2()
        }
    }

    impl Strategy for Any<u64> {
        type Value = u64;

        fn sample(&self, rng: &mut StdRng) -> u64 {
            rng.gen::<u64>()
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($name:ident : $idx:tt),+);)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);

                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A: 0, B: 1);
        (A: 0, B: 1, C: 2);
        (A: 0, B: 1, C: 2, D: 3);
    }

    /// Strategy for variable-length vectors (see [`crate::collection::vec`]).
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        pub(crate) element: S,
        pub(crate) len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = self.len.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Collection strategies (mirrors `proptest::collection`).
pub mod collection {
    use super::strategy::{Strategy, VecStrategy};
    use std::ops::Range;

    /// A strategy for vectors whose length is drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }
}

/// `any::<T>()` support (mirrors `proptest::arbitrary`).
pub mod arbitrary {
    use super::strategy::Any;

    /// The full-domain strategy for `T`.
    pub fn any<T>() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Everything a property test file needs (mirrors `proptest::prelude`).
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::Strategy;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// Module alias so `prop::collection::vec(...)` resolves as upstream.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Defines deterministic property tests; see the crate docs.
#[macro_export]
macro_rules! proptest {
    ($(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let mut __rng = $crate::test_runner::rng_for(stringify!($name));
            for __case in 0..$crate::test_runner::cases() {
                let _ = __case;
                $(
                    let $arg = $crate::strategy::Strategy::sample(&($strategy), &mut __rng);
                )*
                // Per-case closure so `prop_assume!` can skip via `return`.
                let mut __one_case = || $body;
                __one_case();
            }
        }
    )*};
}

/// Asserts a property-test condition (panics on failure, like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Skips the current case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($rest:tt)*)?) => {
        if !($cond) {
            return;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_respect_bounds(x in 1.5f64..9.5, n in 3u64..17) {
            prop_assert!((1.5..9.5).contains(&x));
            prop_assert!((3..17).contains(&n));
        }

        #[test]
        fn vectors_respect_length(v in prop::collection::vec(0.0f64..1.0, 2..8)) {
            prop_assert!(v.len() >= 2 && v.len() < 8);
            for x in &v {
                prop_assert!((0.0..1.0).contains(x));
            }
        }

        #[test]
        fn tuples_and_any(pair in (0u8..4, 0.0f64..2.0), flag in any::<bool>()) {
            prop_assert!(pair.0 < 4);
            prop_assert!(pair.1 < 2.0);
            prop_assume!(flag);
            prop_assert!(flag);
        }
    }

    #[test]
    fn determinism_same_name_same_stream() {
        use crate::strategy::Strategy;
        let mut a = crate::test_runner::rng_for("t");
        let mut b = crate::test_runner::rng_for("t");
        for _ in 0..32 {
            assert_eq!((0.0f64..1.0).sample(&mut a), (0.0f64..1.0).sample(&mut b));
        }
    }
}
