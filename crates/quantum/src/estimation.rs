//! Quantum amplitude estimation and quantum counting (exact simulation).
//!
//! An extension of the paper's toolbox: Brassard–Høyer–Mosca–Tapp
//! amplitude estimation applies phase estimation to the Grover iterate and
//! measures an `m`-bit register whose outcome `y` encodes the rotation
//! angle: `θ̃ = π·y/M` with `M = 2^m`, using `M − 1` oracle applications.
//! Counting the solutions of a search problem to within
//! `O(√(t(X−t))/M + X/M²)` follows immediately — a quadratic speedup over
//! classical sampling.
//!
//! Because the eigenphases of the Grover iterate are `±2θ` exactly, the
//! outcome distribution of the phase-estimation register is known in
//! closed form (the Fejér kernel), so the simulation below is *exact*:
//! it computes the true outcome distribution and samples from it.

use rand::Rng;

/// `M = 2^m`, the number of outcomes of an `m`-bit register.
///
/// # Panics
///
/// Panics if `2^m` does not fit a `usize`, rather than wrap the shift.
fn register_size(m_bits: u32) -> usize {
    1usize
        .checked_shl(m_bits)
        .unwrap_or_else(|| panic!("a {m_bits}-bit register has more outcomes than a usize holds"))
}

/// Exact simulation of canonical amplitude estimation.
///
/// # Examples
///
/// ```
/// use qcc_quantum::AmplitudeEstimator;
/// use rand::SeedableRng;
///
/// // 12 solutions among 64 items, 7-bit register
/// let est = AmplitudeEstimator::new(64, 12);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let out = est.estimate(7, &mut rng);
/// let err = (out.amplitude_estimate - 12.0 / 64.0).abs();
/// assert!(err < est.error_bound(7) + 1e-9);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AmplitudeEstimator {
    domain_size: usize,
    solution_count: usize,
}

/// One amplitude-estimation measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EstimateOutcome {
    /// The measured register value `y ∈ 0..2^m`.
    pub register: usize,
    /// The amplitude estimate `ã = sin²(π y / M)`.
    pub amplitude_estimate: f64,
    /// Estimated solution count `ã · |X|`.
    pub count_estimate: f64,
    /// Grover-iterate applications consumed (`M − 1`).
    pub oracle_queries: u64,
}

impl AmplitudeEstimator {
    /// Creates an estimator for `solution_count` solutions among
    /// `domain_size` items.
    ///
    /// # Panics
    ///
    /// Panics if `domain_size == 0` or `solution_count > domain_size`.
    pub fn new(domain_size: usize, solution_count: usize) -> Self {
        assert!(domain_size > 0);
        assert!(solution_count <= domain_size);
        AmplitudeEstimator {
            domain_size,
            solution_count,
        }
    }

    /// The true amplitude `a = |A¹|/|X|`.
    pub fn true_amplitude(&self) -> f64 {
        self.solution_count as f64 / self.domain_size as f64
    }

    /// The exact outcome distribution of the `m`-bit register.
    ///
    /// Entry `y` is the probability of measuring `y`. The distribution is
    /// the average of two Fejér kernels centred at `±ω M` where
    /// `ω = θ/π` (they coincide for `a ∈ {0, 1}`).
    ///
    /// # Panics
    ///
    /// Panics if `2^m_bits` does not fit a `usize`.
    pub fn outcome_distribution(&self, m_bits: u32) -> Vec<f64> {
        let m = register_size(m_bits);
        let theta = self.true_amplitude().sqrt().asin();
        let omega = theta / std::f64::consts::PI; // in [0, 1/2]
        let fejer = |x: f64| -> f64 {
            // sin²(Mπx) / (M² sin²(πx)), continuous at integers
            let frac = x - x.round();
            if frac.abs() < 1e-15 {
                return 1.0;
            }
            let num = (m as f64 * std::f64::consts::PI * x).sin().powi(2);
            let den = (m as f64).powi(2) * (std::f64::consts::PI * x).sin().powi(2);
            num / den
        };
        let mut dist: Vec<f64> = (0..m)
            .map(|y| {
                let yy = y as f64 / m as f64;
                0.5 * (fejer(yy - omega) + fejer(yy + omega))
            })
            .collect();
        let total: f64 = dist.iter().sum();
        debug_assert!((total - 1.0).abs() < 1e-6, "distribution sums to {total}");
        for p in &mut dist {
            *p /= total;
        }
        dist
    }

    /// Samples one amplitude-estimation measurement with an `m`-bit
    /// register (`2^m − 1` oracle queries).
    ///
    /// # Panics
    ///
    /// Panics if `2^m_bits` does not fit a `usize`.
    pub fn estimate<R: Rng>(&self, m_bits: u32, rng: &mut R) -> EstimateOutcome {
        let dist = self.outcome_distribution(m_bits);
        let mut u: f64 = rng.gen();
        let mut register = dist.len() - 1;
        for (y, &p) in dist.iter().enumerate() {
            if u < p {
                register = y;
                break;
            }
            u -= p;
        }
        let m = dist.len() as f64;
        let angle = std::f64::consts::PI * register as f64 / m;
        let amplitude_estimate = angle.sin().powi(2);
        EstimateOutcome {
            register,
            amplitude_estimate,
            count_estimate: amplitude_estimate * self.domain_size as f64,
            oracle_queries: (dist.len() - 1) as u64,
        }
    }

    /// The canonical error bound: with probability `≥ 8/π²`,
    /// `|ã − a| ≤ 2π√(a(1−a))/M + π²/M²`.
    ///
    /// # Panics
    ///
    /// Panics if `2^m_bits` does not fit a `usize`.
    pub fn error_bound(&self, m_bits: u32) -> f64 {
        let m = register_size(m_bits) as f64;
        let a = self.true_amplitude();
        2.0 * std::f64::consts::PI * (a * (1.0 - a)).sqrt() / m
            + std::f64::consts::PI.powi(2) / (m * m)
    }

    /// Register size sufficient for *exact* counting with constant
    /// probability: the count error `X·error_bound < 1/2`.
    pub fn bits_for_exact_count(&self) -> u32 {
        let x = self.domain_size as f64;
        let a = self.true_amplitude();
        // X·(2π√(a(1−a))/M) < 1/2 ⟸ M > 4π√(t(X−t)); add slack bits
        let target = 4.0 * std::f64::consts::PI * (a * (1.0 - a)).sqrt() * x + 2.0;
        (target.log2().ceil() as u32 + 1).max(1)
    }
}

/// Quantum counting: estimates the number of solutions, rounding the
/// amplitude estimate, and repeats `repetitions` times taking the median
/// register (majority amplification of the `8/π²` guarantee).
///
/// Returns `(count estimate, total oracle queries)`.
///
/// # Examples
///
/// ```
/// use qcc_quantum::quantum_count;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let (count, _queries) = quantum_count(256, 17, 9, 5, &mut rng);
/// assert!((count as i64 - 17).abs() <= 1);
/// ```
pub fn quantum_count<R: Rng>(
    domain_size: usize,
    solution_count: usize,
    m_bits: u32,
    repetitions: u32,
    rng: &mut R,
) -> (u64, u64) {
    assert!(repetitions > 0);
    let est = AmplitudeEstimator::new(domain_size, solution_count);
    let mut estimates = Vec::with_capacity(repetitions as usize);
    let mut queries = 0;
    for _ in 0..repetitions {
        let out = est.estimate(m_bits, rng);
        estimates.push(out.count_estimate);
        queries += out.oracle_queries;
    }
    estimates.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let median = estimates[estimates.len() / 2];
    (median.round().max(0.0) as u64, queries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "a 64-bit register has more outcomes than a usize holds")]
    fn registers_wider_than_a_usize_panic_instead_of_wrapping() {
        // A wrapped shift would read 64 bits as a 1-outcome register.
        AmplitudeEstimator::new(16, 3).error_bound(64);
    }

    #[test]
    fn distribution_is_normalized_and_concentrated() {
        for &(x, t) in &[(64usize, 1usize), (64, 12), (100, 50), (16, 0), (16, 16)] {
            let est = AmplitudeEstimator::new(x, t);
            let dist = est.outcome_distribution(8);
            let total: f64 = dist.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "({x},{t}) sums to {total}");
            // mass within the canonical error bound around the true angle
            let theta = est.true_amplitude().sqrt().asin();
            let m = dist.len() as f64;
            let mass: f64 = dist
                .iter()
                .enumerate()
                .filter(|(y, _)| {
                    let angle = std::f64::consts::PI * *y as f64 / m;
                    let est_a = angle.sin().powi(2);
                    (est_a - theta.sin().powi(2)).abs() <= est.error_bound(8) + 1e-12
                })
                .map(|(_, p)| p)
                .sum();
            assert!(
                mass >= 8.0 / std::f64::consts::PI.powi(2) - 1e-9,
                "({x},{t}): {mass}"
            );
        }
    }

    #[test]
    fn zero_and_full_amplitudes_are_exact() {
        let mut rng = StdRng::seed_from_u64(61);
        let est0 = AmplitudeEstimator::new(32, 0);
        assert_eq!(est0.estimate(6, &mut rng).register, 0);
        let est1 = AmplitudeEstimator::new(32, 32);
        let out = est1.estimate(6, &mut rng);
        assert!((out.amplitude_estimate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn estimates_concentrate_within_the_bound() {
        let mut rng = StdRng::seed_from_u64(62);
        let est = AmplitudeEstimator::new(128, 24);
        let bound = est.error_bound(8);
        let trials = 500;
        let within = (0..trials)
            .filter(|_| {
                let out = est.estimate(8, &mut rng);
                (out.amplitude_estimate - est.true_amplitude()).abs() <= bound
            })
            .count();
        // canonical guarantee is 8/π² ≈ 0.81
        assert!(within as f64 / trials as f64 > 0.75, "{within}/{trials}");
    }

    #[test]
    fn quantum_count_is_near_exact_with_enough_bits() {
        let mut rng = StdRng::seed_from_u64(63);
        for &(x, t) in &[(64usize, 7usize), (256, 17), (256, 100)] {
            let est = AmplitudeEstimator::new(x, t);
            let bits = est.bits_for_exact_count();
            let (count, queries) = quantum_count(x, t, bits, 7, &mut rng);
            assert!(
                (count as i64 - t as i64).abs() <= 1,
                "({x},{t}): counted {count} with {bits} bits"
            );
            assert!(queries > 0);
        }
    }

    #[test]
    fn query_cost_is_m_minus_one_per_repetition() {
        let mut rng = StdRng::seed_from_u64(64);
        let est = AmplitudeEstimator::new(32, 4);
        let out = est.estimate(5, &mut rng);
        assert_eq!(out.oracle_queries, 31);
    }

    #[test]
    fn error_bound_shrinks_with_register_size() {
        let est = AmplitudeEstimator::new(1000, 300);
        assert!(est.error_bound(10) < est.error_bound(6));
        assert!(est.error_bound(14) < 0.002);
    }
}
