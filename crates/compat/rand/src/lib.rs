//! Offline stand-in for the `rand` crate.
//!
//! The build environment of this repository has no access to crates.io, so
//! the workspace vendors a minimal, std-only implementation of the small
//! `rand` 0.8 API surface the codebase actually uses: [`rngs::StdRng`],
//! [`SeedableRng::seed_from_u64`], the [`Rng`] methods `gen`,
//! `gen_range`, and `gen_bool`, and [`distributions::Uniform`] with its
//! [`distributions::Distribution::sample`] for integer ranges drawn many
//! times. `Uniform::new(lo, hi).sample(rng)` returns what
//! `rng.gen_range(lo..hi)` would and consumes the same draws; it only
//! computes the rejection zone once instead of on every call.
//!
//! The generator behind [`rngs::StdRng`] is xoshiro256++ seeded through
//! SplitMix64 — deterministic, high-quality, and fast, but **not** the
//! ChaCha12 stream of the real `rand::rngs::StdRng`: seeds produce
//! different (equally reproducible) sequences than upstream `rand` would.
//! All simulation results in this repository are defined relative to this
//! generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator: a source of uniform `u64`s.
pub trait RngCore {
    /// Returns the next 32 uniformly random bits.
    fn next_u32(&mut self) -> u32;

    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be deterministically constructed from a seed.
pub trait SeedableRng: Sized {
    /// The raw seed type.
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Creates a generator from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Creates a generator from a `u64` seed (via SplitMix64 expansion).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = SplitMix64 { state };
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = sm.next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Types that can be sampled uniformly from the "standard" distribution
/// (`[0, 1)` for floats, the full range for integers).
pub trait StandardSample: Sized {
    /// Draws one value from the standard distribution.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1)
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardSample for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

/// Types with a uniform sampler over an arbitrary sub-range.
pub trait SampleUniform: Sized {
    /// Uniform draw from `[lo, hi)` (`inclusive = false`) or `[lo, hi]`.
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        inclusive: bool,
    ) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                use distributions::{Distribution, Uniform};
                let uniform = if inclusive {
                    Uniform::new_inclusive(lo, hi)
                } else {
                    Uniform::new(lo, hi)
                };
                uniform.sample(rng)
            }
        }

        impl distributions::SampleInt for $t {
            #[inline]
            fn widen(self) -> i128 {
                self as i128
            }

            #[inline]
            fn narrow(wide: i128) -> Self {
                wide as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        inclusive: bool,
    ) -> Self {
        assert!(
            lo < hi || (inclusive && lo <= hi),
            "cannot sample from empty range"
        );
        let unit = f64::sample_standard(rng);
        let v = lo + (hi - lo) * unit;
        if !inclusive && v >= hi {
            lo
        } else {
            v.clamp(lo, hi)
        }
    }
}

impl SampleUniform for f32 {
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        lo: Self,
        hi: Self,
        inclusive: bool,
    ) -> Self {
        assert!(
            lo < hi || (inclusive && lo <= hi),
            "cannot sample from empty range"
        );
        let unit = f32::sample_standard(rng);
        let v = lo + (hi - lo) * unit;
        if !inclusive && v >= hi {
            lo
        } else {
            v.clamp(lo, hi)
        }
    }
}

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one uniform value from the range.
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_between(rng, lo, hi, true)
    }
}

/// High-level sampling methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value from the standard distribution of `T`.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Draws a uniform value from `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, Rg>(&mut self, range: Rg) -> T
    where
        T: SampleUniform,
        Rg: SampleRange<T>,
    {
        range.sample_one(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range: {p}"
        );
        f64::sample_standard(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Distributions sampled many times from one precomputed description.
pub mod distributions {
    use super::RngCore;

    /// Types that can be sampled by a distribution.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Primitive integers, which [`Uniform`] samples through `i128`.
    pub trait SampleInt: Copy {
        /// The value as an `i128`.
        fn widen(self) -> i128;
        /// The `i128` back as a value (truncating).
        fn narrow(wide: i128) -> Self;
    }

    /// A uniform distribution over an integer range, with the rejection
    /// zone of [`crate::Rng::gen_range`] computed once at construction.
    ///
    /// Sampling consumes exactly the draws `gen_range` consumes over the
    /// same range and returns the same value.
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::distributions::{Distribution, Uniform};
    /// use rand::rngs::StdRng;
    /// use rand::{Rng, SeedableRng};
    ///
    /// let die = Uniform::new(1u32, 7);
    /// let (mut a, mut b) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
    /// for _ in 0..100 {
    ///     assert_eq!(die.sample(&mut a), b.gen_range(1u32..7));
    /// }
    /// ```
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Uniform<X> {
        low: X,
        span: u64,
        zone: u64,
    }

    impl<X: SampleInt> Uniform<X> {
        /// The uniform distribution over `low..high`.
        ///
        /// # Panics
        ///
        /// Panics if the range is empty.
        pub fn new(low: X, high: X) -> Self {
            Self::with_span(low, int_span(low.widen(), high.widen(), false))
        }

        /// The uniform distribution over `low..=high`.
        ///
        /// # Panics
        ///
        /// Panics if the range is empty.
        pub fn new_inclusive(low: X, high: X) -> Self {
            Self::with_span(low, int_span(low.widen(), high.widen(), true))
        }

        fn with_span(low: X, span: u64) -> Self {
            Uniform {
                low,
                span,
                zone: rejection_zone(span),
            }
        }
    }

    impl<X: SampleInt> Distribution<X> for Uniform<X> {
        /// Widening-multiply rejection sampling: the high word of
        /// `draw · span` for the first draw at or below the zone. Unbiased;
        /// a draw is rejected with probability `(2^64 mod span) / 2^64`,
        /// which only large spans make noticeable (almost half of all
        /// draws just above 2^63).
        #[inline]
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> X {
            loop {
                let draw = rng.next_u64();
                if draw <= self.zone {
                    let off = (u128::from(draw) * u128::from(self.span)) >> 64;
                    return X::narrow(self.low.widen() + off as i128);
                }
            }
        }
    }

    /// The number of values in `lo..hi` (`lo..=hi` when `inclusive`),
    /// checked to be non-empty. Every span used in this workspace fits in a
    /// `u64`.
    #[inline]
    fn int_span(lo: i128, hi: i128, inclusive: bool) -> u64 {
        assert!(
            lo < hi || (inclusive && lo == hi),
            "cannot sample from empty range"
        );
        u64::try_from((hi - lo) as u128 + u128::from(inclusive)).expect("range span exceeds u64")
    }

    /// The largest accepted draw for a `span` of values:
    /// `2^64 − (2^64 mod span) − 1`, so the accepted draws split evenly
    /// over the span.
    #[inline]
    fn rejection_zone(span: u64) -> u64 {
        u64::MAX - (u64::MAX - span + 1) % span
    }
}

/// Concrete generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (xoshiro256++).
    ///
    /// See the crate docs: this is a compatible stand-in for
    /// `rand::rngs::StdRng`, not a bit-for-bit reimplementation.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        #[inline]
        fn next_u64(&mut self) -> u64 {
            // xoshiro256++ (Blackman & Vigna, 2019)
            let out = self.s[0]
                .wrapping_add(self.s[3])
                .rotate_left(23)
                .wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(bytes);
            }
            // An all-zero state is a fixed point of xoshiro; nudge it.
            if s == [0u64; 4] {
                s = [0x9E37_79B9_7F4A_7C15, 0x6A09_E667_F3BC_C909, 1, 2];
            }
            StdRng { s }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 10);
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&x));
            let y = rng.gen_range(0usize..3);
            assert!(y < 3);
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn gen_bool_matches_probability_roughly() {
        let mut rng = StdRng::seed_from_u64(9);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits = {hits}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn standard_f64_is_unit_interval() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..1000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn mut_ref_is_an_rng_too() {
        fn takes_rng<R: Rng>(rng: &mut R) -> u64 {
            rng.gen_range(0u64..100)
        }
        let mut rng = StdRng::seed_from_u64(11);
        let r = &mut rng;
        assert!(takes_rng(r) < 100);
    }
}
