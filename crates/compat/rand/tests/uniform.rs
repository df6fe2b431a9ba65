//! Property test: `Uniform` is `gen_range` with its rejection zone
//! computed once.
//!
//! Over random `u32`, `u64` and `usize` spans — including spans just above
//! 2^63, where the zone rejects almost half of all draws — and with
//! `gen_bool` calls interleaved, `Uniform::new(0, s).sample(&mut a)` must
//! return the values `b.gen_range(0..s)` returns, and both generators must
//! end in the same state.

use rand::distributions::{Distribution, SampleInt, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SampleUniform, SeedableRng};

/// Counts the `u64` draws taken from the wrapped generator.
struct Counting<'a> {
    rng: &'a mut StdRng,
    draws: u64,
}

impl RngCore for Counting<'_> {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
}

/// Samples `span` through both paths `rounds` times from two copies of one
/// generator, interleaving `gen_bool`, and returns the draws the `Uniform`
/// side consumed.
fn check_span<T>(span: T, low: T, seed: u64, rounds: usize) -> u64
where
    T: SampleInt + SampleUniform + PartialEq + std::fmt::Debug,
{
    let high = T::narrow(low.widen() + span.widen());
    let uniform = Uniform::new(low, high);
    let mut a = StdRng::seed_from_u64(seed);
    let mut b = a.clone();
    let mut counted = Counting {
        rng: &mut a,
        draws: 0,
    };
    for i in 0..rounds {
        if i % 3 == 1 {
            let p = (i % 7) as f64 / 6.0;
            assert_eq!(counted.gen_bool(p), b.gen_bool(p));
        }
        assert_eq!(
            uniform.sample(&mut counted),
            b.gen_range(low..high),
            "span {span:?}, draw {i}"
        );
    }
    let draws = counted.draws;
    assert_eq!(a, b, "span {span:?}: generators diverged");
    draws
}

#[test]
fn uniform_matches_gen_range_on_random_spans() {
    let mut spans = StdRng::seed_from_u64(0x5EED);
    for case in 0..200u64 {
        // Mostly small spans (the Step-3 sides), some anywhere in range.
        let small = spans.gen_range(1u64..64);
        let wide = spans.gen_range(1u64..=u64::from(u32::MAX));
        check_span(small as u32, 0, case, 40);
        check_span(wide as u32, 0, case, 40);
        check_span(small as usize, 0, case, 40);
        check_span(wide as usize, spans.gen_range(0usize..1000), case, 40);
        check_span(spans.gen_range(1u64..u64::MAX / 2), 0, case, 40);
        check_span(small, u64::MAX - small, case, 40);
    }
}

#[test]
fn uniform_matches_gen_range_just_above_two_to_the_63() {
    let mut spans = StdRng::seed_from_u64(0x2_63);
    for case in 0..50u64 {
        let span = (1u64 << 63) + spans.gen_range(1u64..1 << 20);
        let rounds = 400;
        let draws = check_span(span, 0, case, rounds);
        // The zone keeps just over half of the draws: the rejection loop
        // ran, and both paths retried identically.
        assert!(
            draws > rounds as u64 * 3 / 2,
            "{draws} draws for {rounds} samples"
        );
        check_span(span as usize, 0, case, 40);
    }
}

#[test]
fn inclusive_uniform_matches_inclusive_gen_range() {
    let mut a = StdRng::seed_from_u64(17);
    let mut b = a.clone();
    for (low, high) in [
        (0u64, 0u64),
        (3, 9),
        (0, u64::MAX - 1),
        (1 << 63, u64::MAX - 1),
    ] {
        let uniform = Uniform::new_inclusive(low, high);
        for _ in 0..100 {
            assert_eq!(uniform.sample(&mut a), b.gen_range(low..=high));
        }
    }
    assert_eq!(a, b);
}
