//! Offline stand-in for `proptest`: a compact property-testing runner
//! exposing the subset of the proptest 1.x API the workspace's suites
//! use — the [`proptest!`] macro, range and `any::<T>()` strategies,
//! `prop::collection::vec`, [`ProptestConfig::with_cases`], and the
//! `prop_assert*` macros.
//!
//! Differences from real proptest, deliberately accepted offline:
//!
//! * no shrinking — a failing case panics with the `prop_assert`
//!   message (which in these suites interpolates the offending values);
//! * deterministic seeding — each test's RNG is seeded from a hash of
//!   the test's name, so failures reproduce exactly across runs;
//! * strategies are sampled independently per case (no recursive or
//!   filtered strategies, which the workspace does not use).

use std::ops::{Range, RangeInclusive};

/// Deterministic generator driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from raw state.
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Seed from a test name (FNV-1a), so every property gets its own
    /// reproducible stream.
    pub fn from_name(name: &str) -> Self {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01B3);
        }
        TestRng::new(h)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Per-`proptest!`-block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases each property is checked against.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run each property `cases` times.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// A recipe for generating random values of `Self::Value`.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// Tuples of strategies generate tuples of values, as in real proptest.
macro_rules! tuple_strategy {
    ($($s:ident / $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(S0 / 0, S1 / 1);
tuple_strategy!(S0 / 0, S1 / 1, S2 / 2);
tuple_strategy!(S0 / 0, S1 / 1, S2 / 2, S3 / 3);

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end.wrapping_sub(self.start) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                if lo == <$t>::MIN && hi == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                let span = hi.wrapping_sub(lo) as u64 + 1;
                lo.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize);

macro_rules! signed_range_strategy {
    ($($t:ty => $u:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                if lo == <$t>::MIN && hi == <$t>::MAX {
                    return rng.next_u64() as $t;
                }
                let span = (hi as $u).wrapping_sub(lo as $u) as u64 + 1;
                lo.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}
signed_range_strategy!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

macro_rules! float_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let v = self.start + (rng.next_f64() as $t) * (self.end - self.start);
                // Rounding can land exactly on `end`; keep the range half-open.
                if v < self.end {
                    v
                } else {
                    self.end.next_down()
                }
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                lo + (rng.next_f64() as $t) * (hi - lo)
            }
        }
    )*};
}
float_range_strategy!(f32, f64);

/// Always produces a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Types with a canonical full-range strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// Draw one unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Unconstrained finite doubles across magnitudes (proptest's
        // `any::<f64>()` also yields non-finite values; the workspace
        // only fuzzes byte streams, so finite is sufficient here).
        let exp = rng.below(125) as i32 - 62;
        (rng.next_f64() * 2.0 - 1.0) * 2f64.powi(exp)
    }
}

/// Strategy wrapper returned by [`any`].
#[derive(Debug, Clone, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for `T`: `any::<u8>()`, …
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (mirrors `proptest::collection`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(exact: usize) -> Self {
            SizeRange {
                min: exact,
                max_inclusive: exact,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max_inclusive: r.end - 1,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max_inclusive: *r.end(),
            }
        }
    }

    /// Strategy producing `Vec`s of values drawn from `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_inclusive - self.size.min) as u64 + 1;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `vec(element, 8..200)` — a `Vec` whose length is drawn from the
    /// size range and whose elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Glob-import surface mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, Arbitrary, Just, ProptestConfig, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Assert a condition inside a property (panics with context; this
/// stub performs no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Define property tests: each `fn name(arg in strategy, ..) { body }`
/// becomes a `#[test]` that checks `body` against `cases` random
/// draws of its strategies.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $argpat:pat in $strategy:expr ),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::TestRng::from_name(stringify!($name));
            for __case in 0..__config.cases {
                let _ = __case;
                $( let $argpat = $crate::Strategy::generate(&($strategy), &mut __rng); )+
                $body
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    fn bounded(n: usize) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(-1.0f64..1.0, 1..n)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_in_bounds(x in -3.0f64..3.0, n in 1usize..10, b in 0u8..8) {
            prop_assert!((-3.0..3.0).contains(&x));
            prop_assert!((1..10).contains(&n));
            prop_assert!(b < 8);
        }

        #[test]
        fn vec_sizes_respected(v in bounded(20), w in prop::collection::vec(any::<u8>(), 3..=3)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert_eq!(w.len(), 3);
        }
    }

    proptest! {
        #[test]
        fn default_config_runs(x in 0u32..100) {
            prop_assert!(x < 100);
        }
    }

    #[test]
    fn float_range_strategy_stays_half_open() {
        let mut rng = TestRng::from_name("half_open");
        let strat = 1.0f64..1.0f64.next_up();
        for _ in 0..10_000 {
            assert_eq!(strat.generate(&mut rng), 1.0);
        }
    }

    #[test]
    fn full_width_signed_range_does_not_overflow() {
        let mut rng = TestRng::from_name("full_width");
        let strat = i64::MIN..=i64::MAX;
        for _ in 0..100 {
            let _ = strat.generate(&mut rng);
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::from_name("abc");
        let mut b = TestRng::from_name("abc");
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::from_name("abd");
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
