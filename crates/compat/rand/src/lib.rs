//! Offline stand-in for the `rand` crate (0.8-era API surface).
//!
//! This build environment has no access to a crates.io registry, so the
//! workspace vendors the narrow slice of `rand` the code actually uses:
//! [`Rng`] (`gen`, `gen_range`, `gen_bool`, `sample`), [`SeedableRng`]
//! (`seed_from_u64`), and [`rngs::StdRng`]. The generator behind
//! `StdRng` is xoshiro256** seeded through SplitMix64 — not the
//! ChaCha12 of the real crate, but statistically strong enough for the
//! calibrated dataset generators and deterministic across runs, which is
//! what the reproduction needs. Swapping in the real `rand` later only
//! requires replacing the path dependency; call sites are unchanged.

/// Low-level source of random 64-bit words.
pub trait RngCore {
    /// Next raw 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Next raw 32-bit value (top bits of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing random value generation, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Sample a value from the standard distribution of `T` (uniform
    /// `[0, 1)` for floats, full range for integers).
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    /// Sample uniformly from a range (`lo..hi` or `lo..=hi`).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: distributions::SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Bernoulli draw with success probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }

    /// Sample from an explicit distribution.
    fn sample<T, D: distributions::Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Deterministic construction of generators from integer seeds.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;

    /// Non-deterministic construction is unavailable offline; this
    /// falls back to a fixed seed so behavior stays reproducible.
    fn from_entropy() -> Self {
        Self::seed_from_u64(0x9E37_79B9_7F4A_7C15)
    }
}

/// The concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256** generator seeded via SplitMix64 (stands in for the
    /// real crate's ChaCha12-based `StdRng`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> Self {
            // SplitMix64 expansion, as recommended by the xoshiro authors.
            let mut sm = state;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

/// Distributions and range sampling.
pub mod distributions {
    use super::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A distribution over values of `T`.
    pub trait Distribution<T> {
        /// Draw one value.
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "standard" distribution: uniform `[0, 1)` for floats, full
    /// range for integers, fair coin for `bool`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    impl Distribution<f64> for Standard {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            // 53 uniform mantissa bits.
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<bool> for Standard {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! standard_int {
        ($($t:ty),*) => {$(
            impl Distribution<$t> for Standard {
                #[inline]
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    /// Ranges that can be sampled uniformly (`rng.gen_range(..)`).
    pub trait SampleRange<T> {
        /// Draw one value from the range.
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
    }

    /// Multiply-shift bounded draw in `[0, span)`; bias is below 2⁻⁶⁴·span,
    /// negligible for every span this workspace uses.
    #[inline]
    fn below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
        debug_assert!(span > 0);
        ((rng.next_u64() as u128 * span as u128) >> 64) as u64
    }

    macro_rules! sample_range_uint {
        ($($t:ty),*) => {$(
            impl SampleRange<$t> for Range<$t> {
                #[inline]
                fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "empty range in gen_range");
                    let span = (self.end - self.start) as u64;
                    self.start + below(rng, span) as $t
                }
            }
            impl SampleRange<$t> for RangeInclusive<$t> {
                #[inline]
                fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range in gen_range");
                    if lo == <$t>::MIN && hi == <$t>::MAX {
                        return rng.next_u64() as $t;
                    }
                    let span = (hi - lo) as u64 + 1;
                    lo + below(rng, span) as $t
                }
            }
        )*};
    }
    sample_range_uint!(u8, u16, u32, u64, usize);

    macro_rules! sample_range_int {
        ($($t:ty => $u:ty),*) => {$(
            impl SampleRange<$t> for Range<$t> {
                #[inline]
                fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "empty range in gen_range");
                    let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                    self.start.wrapping_add(below(rng, span) as $t)
                }
            }
            impl SampleRange<$t> for RangeInclusive<$t> {
                #[inline]
                fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range in gen_range");
                    if lo == <$t>::MIN && hi == <$t>::MAX {
                        return rng.next_u64() as $t;
                    }
                    let span = (hi as $u).wrapping_sub(lo as $u) as u64 + 1;
                    lo.wrapping_add(below(rng, span) as $t)
                }
            }
        )*};
    }
    sample_range_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

    macro_rules! sample_range_float {
        ($($t:ty),*) => {$(
            impl SampleRange<$t> for Range<$t> {
                #[inline]
                fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "empty range in gen_range");
                    let u: f64 = rng.gen();
                    let v = self.start + (u as $t) * (self.end - self.start);
                    // Rounding can land exactly on `end`; keep the range half-open.
                    if v < self.end { v } else { self.end.next_down() }
                }
            }
            impl SampleRange<$t> for RangeInclusive<$t> {
                #[inline]
                fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range in gen_range");
                    let u: f64 = rng.gen();
                    lo + (u as $t) * (hi - lo)
                }
            }
        )*};
    }
    sample_range_float!(f32, f64);
}

pub use distributions::{Distribution, Standard};

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn deterministic_streams() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        // Mean of U[0,1) over 10k draws is 0.5 within ~1.5%.
        assert!((sum / 10_000.0 - 0.5).abs() < 0.015);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1_000 {
            let u = rng.gen_range(3usize..10);
            assert!((3..10).contains(&u));
            let i = rng.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&i));
            let f = rng.gen_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn float_range_stays_half_open_under_rounding() {
        // A one-ulp-wide range makes `lo + u * (hi - lo)` round up to
        // `hi` for roughly half of all draws; the clamp must keep every
        // result strictly below `hi`.
        let mut rng = StdRng::seed_from_u64(11);
        let hi32 = 1.0f32.next_up();
        let hi64 = 1.0f64.next_up();
        for _ in 0..10_000 {
            assert_eq!(rng.gen_range(1.0f32..hi32), 1.0f32);
            assert_eq!(rng.gen_range(1.0f64..hi64), 1.0f64);
        }
    }

    #[test]
    fn full_width_integer_ranges_do_not_overflow() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..100 {
            let _: i64 = rng.gen_range(i64::MIN..=i64::MAX);
            let _: u64 = rng.gen_range(u64::MIN..=u64::MAX);
        }
    }

    #[test]
    fn unsized_rng_usable_through_generic_fns() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen::<f64>()
        }
        let mut rng = StdRng::seed_from_u64(1);
        let x = draw(&mut rng);
        assert!((0.0..1.0).contains(&x));
    }
}
