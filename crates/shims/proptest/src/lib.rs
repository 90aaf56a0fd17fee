//! Offline stand-in for the [`proptest`](https://crates.io/crates/proptest)
//! crate.
//!
//! This build environment has no crate registry, so the workspace ships a
//! minimal property-testing runner covering exactly the surface its test
//! suites use: the [`proptest!`] macro (both `pat in strategy` and
//! `ident: Type` argument forms), integer-range / tuple /
//! [`Just`](strategy::Just) / [`prop_oneof!`] / [`collection::vec`] /
//! `prop_map` strategies, `any::<T>()`, and the `prop_assert*` macros.
//!
//! Differences from the real crate, deliberately accepted:
//!
//! * **no shrinking** — a failing case reports its case number and seed,
//!   which is enough to reproduce it deterministically;
//! * **fixed seeding** — cases are generated from a per-test fixed seed
//!   sequence, so runs are fully reproducible (no `PROPTEST_CASES` /
//!   failure-persistence machinery);
//! * `prop_assert!` panics instead of returning `Err`, so control flow
//!   inside properties is plain `assert!` semantics.

#![forbid(unsafe_code)]

pub use rand;

/// Strategies: composable random-value generators.
pub mod strategy {
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A generator of values of type `Value`.
    pub trait Strategy {
        /// The type of generated values.
        type Value;
        /// Samples one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }
    }

    /// A boxed strategy, used by `prop_oneof!` to mix heterogeneous
    /// strategies with a common value type.
    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    /// Boxes a strategy (helper for `prop_oneof!`).
    pub fn boxed<S: Strategy + 'static>(s: S) -> BoxedStrategy<S::Value> {
        Box::new(s)
    }

    impl<S: Strategy + ?Sized> Strategy for Box<S> {
        type Value = S::Value;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            (**self).sample(rng)
        }
    }

    /// Always produces a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn sample(&self, rng: &mut StdRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// A weighted choice between boxed strategies (`prop_oneof!`).
    pub struct Union<T> {
        options: Vec<(u32, BoxedStrategy<T>)>,
        total: u64,
    }

    impl<T> Union<T> {
        /// Builds the union; weights must not all be zero.
        ///
        /// # Panics
        ///
        /// Panics if `options` is empty or the weights sum to zero.
        pub fn new(options: Vec<(u32, BoxedStrategy<T>)>) -> Self {
            let total: u64 = options.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! needs a positive total weight");
            Union { options, total }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            let mut pick = rng.random_range(0..self.total);
            for (w, s) in &self.options {
                if pick < *w as u64 {
                    return s.sample(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weights were validated in Union::new")
        }
    }

    macro_rules! impl_int_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.random_range(self.clone())
                }
            }
        )*};
    }

    impl_int_strategies!(u8, u16, u32, u64, usize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident : $idx:tt),*) => {
            impl<$($name: Strategy),*> Strategy for ($($name,)*) {
                type Value = ($($name::Value,)*);
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)*)
                }
            }
        };
    }

    impl_tuple_strategy!(A: 0, B: 1);
    impl_tuple_strategy!(A: 0, B: 1, C: 2);
    impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);
}

/// `any::<T>()` support.
pub mod arbitrary {
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore};

    use crate::strategy::Strategy;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        /// Samples an arbitrary value of the type.
        fn arbitrary(rng: &mut StdRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut StdRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut StdRng) -> bool {
            rng.random_bool(0.5)
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn sample(&self, rng: &mut StdRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// A strategy producing arbitrary values of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use rand::rngs::StdRng;
    use rand::Rng;

    use crate::strategy::Strategy;

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        elem: S,
        size: core::ops::Range<usize>,
    }

    /// A vector of `size.start..size.end` elements drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = if self.size.is_empty() {
                self.size.start
            } else {
                rng.random_range(self.size.clone())
            };
            (0..len).map(|_| self.elem.sample(rng)).collect()
        }
    }
}

/// The test runner driving each property over many sampled cases.
pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runner configuration (only the case count is supported).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// How many sampled cases to run per property.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }

    /// Runs `body` once per case with a deterministic per-case RNG; on a
    /// panic, reports the case number and seed before propagating.
    pub fn run<F: FnMut(&mut StdRng)>(config: &Config, mut body: F) {
        for case in 0..config.cases {
            // An arbitrary fixed stream; fully deterministic run-to-run.
            let seed = 0x005E_ED0F_CA5E_u64.wrapping_add(0x9E37_79B9 * case as u64);
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
            if let Err(panic) = outcome {
                eprintln!(
                    "proptest (shim): property failed at case {case}/{} (case seed {seed:#x})",
                    config.cases
                );
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// The subset of `proptest::prelude` the workspace uses.
pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};

    /// Mirror of the `proptest::prop` module path (`prop::collection::…`).
    pub mod prop {
        pub use crate::collection;
    }
}

/// Panic-based stand-in for proptest's `prop_assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Panic-based stand-in for proptest's `prop_assert_eq!`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Weighted (or unweighted) choice between strategies with one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($weight as u32, $crate::strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $((1u32, $crate::strategy::boxed($strat))),+
        ])
    };
}

/// The property-test declaration macro.
///
/// Supports the two argument forms of the real crate:
/// `name(pat in strategy, …)` and `name(ident: Type, …)` (the latter means
/// `any::<Type>()`), plus a leading `#![proptest_config(expr)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: expands each test fn.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident ( $($args:tt)* ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config = $cfg;
            $crate::__proptest_case! { (__config) [] $($args)* , @end $body }
        }
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: parses the argument list into
/// `(pattern, strategy)` pairs and emits the runner call.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_case {
    // `pat in strategy` argument.
    (($cfg:ident) [$($acc:tt)*] $pat:pat in $strat:expr, $($rest:tt)*) => {
        $crate::__proptest_case! { ($cfg) [$($acc)* { $pat, $strat }] $($rest)* }
    };
    // `ident: Type` argument (= `any::<Type>()`).
    (($cfg:ident) [$($acc:tt)*] $id:ident : $ty:ty, $($rest:tt)*) => {
        $crate::__proptest_case! {
            ($cfg) [$($acc)* { $id, $crate::arbitrary::any::<$ty>() }] $($rest)*
        }
    };
    // A trailing comma in the source argument list leaves a stray comma
    // before the appended `@end` marker — absorb it.
    (($cfg:ident) [$($acc:tt)*] , @end $body:block) => {
        $crate::__proptest_case! { ($cfg) [$($acc)*] @end $body }
    };
    // All arguments consumed: emit the runner loop.
    (($cfg:ident) [$({ $pat:pat, $strat:expr })*] @end $body:block) => {
        $crate::test_runner::run(&$cfg, |__proptest_rng| {
            $(let $pat = $crate::strategy::Strategy::sample(&($strat), __proptest_rng);)*
            $body
        });
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_pair() -> impl Strategy<Value = (usize, u64)> {
        (1usize..10, any::<u64>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_respected(n in 3usize..7, m in 0u16..=4, seed: u64) {
            prop_assert!((3..7).contains(&n));
            prop_assert!(m <= 4);
            let _ = seed;
        }

        #[test]
        fn tuples_and_maps_compose((a, b) in arb_pair(), v in prop::collection::vec(0u16..6, 0..6)) {
            prop_assert!((1..10).contains(&a));
            let doubled = (0usize..4).prop_map(|x| x * 2);
            let _ = b;
            prop_assert!(v.len() < 6);
            let _ = doubled;
        }

        #[test]
        fn oneof_picks_all_branches(x in prop_oneof![3 => 0usize..1, 1 => 10usize..11]) {
            prop_assert!(x == 0 || x == 10);
        }
    }

    #[test]
    fn runner_is_deterministic() {
        let mut first: Vec<u64> = Vec::new();
        let mut second: Vec<u64> = Vec::new();
        let cfg = ProptestConfig::with_cases(8);
        crate::test_runner::run(&cfg, |rng| {
            first.push(rand::RngCore::next_u64(rng));
        });
        crate::test_runner::run(&cfg, |rng| {
            second.push(rand::RngCore::next_u64(rng));
        });
        assert_eq!(first, second);
    }
}
