//! Hermetic stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest's surface the workspace's property
//! tests use: the [`Strategy`] trait (with `prop_map`), [`any`], range and
//! tuple strategies, [`collection::vec`], [`ProptestConfig`], and the
//! [`proptest!`] / [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Semantics are simplified deliberately: each test runs
//! `ProptestConfig::cases` deterministic cases (seeded per case index),
//! and failures panic immediately — there is no shrinking. That trades
//! diagnostic convenience for zero dependencies; failing seeds are
//! reported in the panic message so a case can be replayed by hand.

use rand::rngs::StdRng;
use rand::{Rng, SampleRange, SeedableRng};

#[doc(hidden)]
pub use rand as __rand;

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
    };
}

/// Per-test configuration (only the case count is honoured).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 32 }
    }
}

/// A recipe for generating random values of `Self::Value`.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draw one value.
    fn sample(&self, rng: &mut StdRng) -> Self::Value;

    /// Transform every generated value with `f`.
    fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn sample(&self, rng: &mut StdRng) -> O {
        (self.f)(self.inner.sample(rng))
    }
}

/// Types with a canonical whole-domain strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut StdRng) -> Self;
}

macro_rules! impl_arbitrary {
    ($($t:ty),+ $(,)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen()
            }
        }
    )+};
}
impl_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, bool, f64);

/// Whole-domain strategy for `T` (proptest's `any::<T>()`).
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(core::marker::PhantomData)
}

/// Strategy returned by [`any`].
#[derive(Clone, Copy, Debug)]
pub struct Any<T>(core::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

impl<T: Clone> Strategy for core::ops::Range<T>
where
    core::ops::Range<T>: SampleRange<T>,
{
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

impl<T: Clone> Strategy for core::ops::RangeInclusive<T>
where
    core::ops::RangeInclusive<T>: SampleRange<T>,
{
    type Value = T;

    fn sample(&self, rng: &mut StdRng) -> T {
        rng.gen_range(self.clone())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident),+)),+ $(,)?) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn sample(&self, rng: &mut StdRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($s,)+) = self;
                ($($s.sample(rng),)+)
            }
        }
    )+};
}
impl_tuple_strategy!((A), (A, B), (A, B, C), (A, B, C, D), (A, B, C, D, E));

pub mod collection {
    //! Collection strategies (only `vec` is provided).

    use super::{StdRng, Strategy};

    /// Strategy for `Vec<S::Value>` of exactly `len` elements.
    #[must_use]
    pub fn vec<S: Strategy>(element: S, len: usize) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        len: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Self::Value {
            (0..self.len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Deterministic per-case generator: the stream depends only on the test
/// name and case index, so failures reproduce across runs and machines
/// while distinct properties still draw distinct input streams.
#[doc(hidden)]
#[must_use]
pub fn case_rng(test_name: &str, case: u32) -> StdRng {
    // FNV-1a over the test name, mixed with the case index.
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in test_name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    StdRng::seed_from_u64(h ^ (u64::from(case) << 17))
}

/// Define property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` sampled instances of `body`.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $( #[test] fn $name:ident( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            #[test]
            fn $name() {
                let __cfg: $crate::ProptestConfig = $cfg;
                for __case in 0..__cfg.cases {
                    let mut __rng = $crate::case_rng(stringify!($name), __case);
                    $( let $pat = $crate::Strategy::sample(&($strat), &mut __rng); )+
                    $body
                }
            }
        )*
    };
    (
        $( #[test] fn $name:ident( $($pat:pat_param in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $crate::proptest! {
            #![proptest_config($crate::ProptestConfig::default())]
            $( #[test] fn $name( $($pat in $strat),+ ) $body )*
        }
    };
}

/// `assert!` under a name the proptest dialect expects.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// `assert_eq!` under a name the proptest dialect expects.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// `assert_ne!` under a name the proptest dialect expects.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn ranges_and_maps_sample_in_bounds() {
        let mut rng = super::case_rng("ranges_and_maps", 0);
        let s = (1usize..10).prop_map(|x| x * 2);
        for _ in 0..100 {
            let v = s.sample(&mut rng);
            assert!((2..20).contains(&v) && v % 2 == 0);
        }
    }

    #[test]
    fn vec_strategy_has_exact_length() {
        let mut rng = super::case_rng("vec_strategy", 1);
        let s = super::collection::vec(any::<u64>(), 9);
        assert_eq!(s.sample(&mut rng).len(), 9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn macro_binds_tuples_and_scalars((a, b) in (0u64..100, 0u64..100), c in any::<u64>()) {
            prop_assert!(a < 100 && b < 100);
            prop_assert_eq!(c / 2, c >> 1);
        }
    }
}
