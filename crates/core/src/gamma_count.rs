//! Distributed quantum triangle *counting* (an extension of the paper).
//!
//! `FindEdgesWithPromise` only detects `Γ(u, v) > 0`; its Proposition-1
//! wrapper additionally needs the promise `Γ = O(log n)`. A natural
//! extension of the toolbox — and the quantum analogue of the classical
//! sampling estimator inside `IdentifyClass` — is *quantum counting*:
//! amplitude estimation over the apex domain returns `Γ(u, v)` to within
//! `O(√Γ)` using `O(√(Γ·n))`-ish oracle queries instead of the classical
//! `n`.
//!
//! The implementation runs one amplitude estimation per queried pair, all
//! pairs in parallel: each Grover-iterate application is realized as one
//! joint network exchange (query pair + weight out to an apex owner, one
//! bit back), so the round bill is measured, not assumed.

use crate::problem::PairSet;
use crate::wire::{pair_bits, weight_bits, Wire};
use crate::ApspError;
use qcc_congest::{Clique, Envelope, NodeId};
use qcc_graph::UGraph;
use qcc_quantum::AmplitudeEstimator;
use rand::Rng;

/// The widest phase register [`quantum_gamma_count`] accepts. Each extra
/// bit doubles the work: `2^m − 1` joint exchanges per repetition and
/// `2^m` outcome probabilities per pair.
pub const MAX_GAMMA_BITS: u32 = 24;

/// Result of a distributed quantum Γ-counting run.
#[derive(Clone, Debug)]
pub struct GammaCountReport {
    /// Per queried pair: `(u, v, estimated Γ, true Γ)`.
    pub estimates: Vec<(usize, usize, u64, usize)>,
    /// Rounds consumed.
    pub rounds: u64,
    /// Oracle queries per pair (each backed by a real exchange).
    pub oracle_queries: u64,
}

impl GammaCountReport {
    /// Largest absolute counting error across pairs.
    pub fn max_error(&self) -> u64 {
        self.estimates
            .iter()
            .map(|&(_, _, est, truth)| est.abs_diff(truth as u64))
            .max()
            .unwrap_or(0)
    }
}

/// Estimates `Γ(u, v)` for every pair of `pairs` by parallel amplitude
/// estimation with an `m_bits` register and `repetitions`-fold median
/// amplification.
///
/// # Errors
///
/// * [`ApspError::RegisterBits`] if `m_bits` is outside
///   `1..=`[`MAX_GAMMA_BITS`], before any round is charged.
/// * Simulator-level errors, propagated.
///
/// # Panics
///
/// Panics if any queried pair is not an edge of `g`.
///
/// # Examples
///
/// ```
/// use qcc_apsp::{quantum_gamma_count, PairSet};
/// use qcc_congest::Clique;
/// use qcc_graph::book_graph;
/// use rand::SeedableRng;
///
/// let g = book_graph(16, 5);
/// let mut pairs = PairSet::new();
/// pairs.insert(0, 1);
/// let mut net = Clique::new(16)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(4);
/// let report = quantum_gamma_count(&g, &pairs, 8, 5, &mut net, &mut rng)?;
/// assert_eq!(report.estimates[0].2, 5); // Γ(0, 1) = 5 counted exactly
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn quantum_gamma_count<R: Rng>(
    g: &UGraph,
    pairs: &PairSet,
    m_bits: u32,
    repetitions: u32,
    net: &mut Clique,
    rng: &mut R,
) -> Result<GammaCountReport, ApspError> {
    if !(1..=MAX_GAMMA_BITS).contains(&m_bits) {
        return Err(ApspError::RegisterBits { bits: m_bits });
    }
    let n = g.n();
    if net.n() != n {
        return Err(ApspError::DimensionMismatch {
            expected: n,
            actual: net.n(),
        });
    }
    let rounds_before = net.rounds();
    let query_list: Vec<(usize, usize, i64)> = pairs
        .iter()
        .map(|(u, v)| {
            let w = g
                .weight(u, v)
                .finite()
                .unwrap_or_else(|| panic!("pair ({u}, {v}) is not an edge"));
            (u, v, w)
        })
        .collect();

    // Census (local, free): the exact Γ per pair, for exact QAE statistics.
    let truths: Vec<usize> = query_list.iter().map(|&(u, v, _)| g.gamma(u, v)).collect();

    let pb = pair_bits(n);
    let wb = weight_bits(
        g.edges()
            .map(|(_, _, w)| w.unsigned_abs())
            .max()
            .unwrap_or(1),
    );
    let m = 1u64 << m_bits;
    let queries_per_pair = repetitions as u64 * (m - 1);

    // Every Grover-iterate application of every repetition is one joint
    // exchange: each pair sends its query to a sampled apex owner and gets
    // one bit back. (The quantum register is superposed over apexes; the
    // sampled apex is the executed proxy that exercises the network.)
    net.begin_phase("gamma-count/oracle");
    for _ in 0..queries_per_pair {
        let mut sends: Vec<Envelope<Wire<(usize, usize, i64)>>> = Vec::new();
        for &(u, v, w) in &query_list {
            let apex = rng.gen_range(0..n);
            sends.push(Envelope::new(
                NodeId::new(u),
                NodeId::new(apex),
                Wire::new((u, v, w), pb + wb),
            ));
        }
        let boxes = net.exchange(sends)?;
        let mut replies: Vec<Envelope<Wire<bool>>> = Vec::new();
        for host in NodeId::all(n) {
            for (asker, msg) in boxes.of(host) {
                let (u, v, _w) = msg.value;
                // apex owner checks its two incident weights locally
                let answer = g.is_negative_triangle(u, v, host.index());
                replies.push(Envelope::new(host, *asker, Wire::new(answer, 1)));
            }
        }
        net.exchange(replies)?;
    }

    // Exact QAE outcome per pair (median of repetitions).
    let mut estimates = Vec::with_capacity(query_list.len());
    for (&(u, v, _), &truth) in query_list.iter().zip(&truths) {
        let est = AmplitudeEstimator::new(n, truth);
        let mut samples: Vec<f64> = (0..repetitions)
            .map(|_| est.estimate(m_bits, rng).count_estimate)
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let median = samples[samples.len() / 2].round().max(0.0) as u64;
        estimates.push((u, v, median, truth));
    }

    Ok(GammaCountReport {
        estimates,
        rounds: net.rounds() - rounds_before,
        oracle_queries: queries_per_pair,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_graph::{book_graph, congestion_hotspot, random_ugraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn out_of_range_registers_are_rejected_before_any_round() {
        let g = book_graph(16, 3);
        let mut pairs = PairSet::new();
        pairs.insert(0, 1);
        let mut net = Clique::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(700);
        for bits in [0, MAX_GAMMA_BITS + 1, 64, 65, 200] {
            let e = quantum_gamma_count(&g, &pairs, bits, 5, &mut net, &mut rng).unwrap_err();
            assert_eq!(e, ApspError::RegisterBits { bits });
            assert!(!e.is_retryable());
        }
        assert_eq!(net.rounds(), 0);
        assert!(quantum_gamma_count(&g, &pairs, 1, 1, &mut net, &mut rng).is_ok());
    }

    #[test]
    fn counts_book_spines_exactly() {
        let g = book_graph(16, 7);
        let mut pairs = PairSet::new();
        pairs.insert(0, 1);
        pairs.insert(0, 2);
        let mut net = Clique::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(701);
        let report = quantum_gamma_count(&g, &pairs, 8, 5, &mut net, &mut rng).unwrap();
        let by_pair: std::collections::HashMap<(usize, usize), u64> = report
            .estimates
            .iter()
            .map(|&(u, v, est, _)| ((u, v), est))
            .collect();
        assert_eq!(by_pair[&(0, 1)], 7);
        assert_eq!(by_pair[&(0, 2)], 1);
        assert!(report.rounds > 0);
    }

    #[test]
    fn estimates_track_truth_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(702);
        let g = random_ugraph(16, 0.6, 4, &mut rng);
        let pairs: PairSet = g.edges().map(|(u, v, _)| (u, v)).take(10).collect();
        let mut net = Clique::new(16).unwrap();
        let report = quantum_gamma_count(&g, &pairs, 9, 5, &mut net, &mut rng).unwrap();
        assert!(report.max_error() <= 1, "max error {}", report.max_error());
    }

    #[test]
    fn hotspot_heavy_pairs_are_counted() {
        let (g, base_pairs) = congestion_hotspot(32, 2, 20);
        let pairs: PairSet = base_pairs.iter().copied().collect();
        let mut net = Clique::new(32).unwrap();
        let mut rng = StdRng::seed_from_u64(703);
        let report = quantum_gamma_count(&g, &pairs, 10, 5, &mut net, &mut rng).unwrap();
        for &(_, _, est, truth) in &report.estimates {
            assert_eq!(truth, 20);
            assert!(est.abs_diff(20) <= 1, "estimated {est}");
        }
    }

    #[test]
    #[should_panic(expected = "not an edge")]
    fn non_edges_are_rejected() {
        let g = book_graph(16, 2);
        let mut pairs = PairSet::new();
        pairs.insert(10, 11);
        let mut net = Clique::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(704);
        let _ = quantum_gamma_count(&g, &pairs, 6, 3, &mut net, &mut rng);
    }

    #[test]
    fn wrong_network_size_is_an_error() {
        let g = book_graph(16, 2);
        let pairs = PairSet::new();
        let mut net = Clique::new(8).unwrap();
        let mut rng = StdRng::seed_from_u64(705);
        let err = quantum_gamma_count(&g, &pairs, 6, 3, &mut net, &mut rng).unwrap_err();
        assert!(matches!(err, ApspError::DimensionMismatch { .. }));
    }

    #[test]
    fn rounds_scale_with_register_size() {
        let g = book_graph(16, 3);
        let mut pairs = PairSet::new();
        pairs.insert(0, 1);
        let mut rng = StdRng::seed_from_u64(706);
        let mut rounds = Vec::new();
        for bits in [5u32, 7] {
            let mut net = Clique::new(16).unwrap();
            let report = quantum_gamma_count(&g, &pairs, bits, 3, &mut net, &mut rng).unwrap();
            rounds.push(report.rounds);
        }
        // 4x the register: about 4x the exchanges
        assert!(rounds[1] > 3 * rounds[0], "rounds {rounds:?}");
    }
}
