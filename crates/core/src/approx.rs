//! Approximate APSP by weight quantization: ablating the `log W` factor.
//!
//! The exact pipeline pays `O(log M)` `FindEdges` calls per distance
//! product (Proposition 2's binary search), with `M` up to `nW` — that is
//! the `log W` in Theorem 1. The classic scaling observation is that
//! *quantizing* the weights — rounding each arc up to a multiple of `q`
//! and dividing through — shrinks the searched magnitude from `W` to
//! `W/q` while adding at most `q` per arc, i.e. `(n−1)·q` per distance.
//! Choosing `q = ⌈εW/n⌉` caps the binary-search depth at
//! `O(log(n/ε))` *independent of `W`*, at the price of an additive error
//! `≤ εW` (a `(1+ε)`-approximation whenever distances are `Ω(W)`, as in
//! the dense random instances the approximate literature targets).
//!
//! This module implements quantization on top of the exact distributed
//! pipeline and measures the call-count/error trade (experiment E15).

use crate::distance_product::distributed_distance_product;
use crate::params::Params;
use crate::step3::SearchBackend;
use crate::ApspError;
use qcc_graph::{DiGraph, ExtWeight, WeightMatrix};
use rand::Rng;

/// Result of a quantized APSP run.
#[derive(Clone, Debug)]
pub struct QuantizedApspReport {
    /// Approximate distances: `d ≤ d̃ ≤ d + (n−1)·q` per reachable pair.
    pub distances: WeightMatrix,
    /// Rounds on the physical network.
    pub rounds: u64,
    /// Distance products performed.
    pub products: u32,
    /// Total `FindEdges` calls (the quantity quantization shrinks).
    pub find_edges_calls: u32,
    /// The quantum `q` actually used.
    pub quantum: i64,
}

/// Rounds every finite entry up to the next multiple of `q` and divides
/// by `q` (the quantized matrix the pipeline runs on).
///
/// # Panics
///
/// Panics if `q <= 0` or any finite entry is negative (quantization is a
/// positive-weights technique).
pub fn quantize_weights(m: &WeightMatrix, q: i64) -> WeightMatrix {
    assert!(q > 0, "quantum must be positive");
    WeightMatrix::from_fn(m.n(), |i, j| match m[(i, j)] {
        ExtWeight::Finite(x) => {
            assert!(x >= 0, "quantization requires nonnegative weights");
            ExtWeight::Finite(x.div_euclid(q) + i64::from(x.rem_euclid(q) != 0))
        }
        other => other,
    })
}

/// APSP with weights quantized to multiples of `q`, through the exact
/// distributed pipeline on the divided weights.
///
/// Guarantee: `d(u,v) ≤ d̃(u,v) ≤ d(u,v) + (n−1)·q` for every reachable
/// pair, and reachability is preserved exactly.
///
/// # Errors
///
/// Propagates pipeline errors.
///
/// # Panics
///
/// Panics if `q <= 0` or the graph has a negative arc.
pub fn quantized_apsp<R: Rng>(
    g: &DiGraph,
    q: i64,
    params: Params,
    backend: SearchBackend,
    rng: &mut R,
) -> Result<QuantizedApspReport, ApspError> {
    assert!(q > 0);
    assert!(
        g.arcs().all(|(_, _, w)| w >= 0),
        "quantization requires nonnegative weights"
    );
    let n = g.n();
    let mut current = quantize_weights(&g.adjacency_matrix(), q);
    let mut rounds = 0u64;
    let mut products = 0u32;
    let mut calls = 0u32;
    let mut exponent: u64 = 1;
    while exponent < (n.max(2) as u64) - 1 {
        let report = distributed_distance_product(&current, &current, params, backend, rng)?;
        rounds += report.physical_rounds();
        products += 1;
        calls += report.find_edges_calls;
        current = report.product;
        exponent *= 2;
    }
    // scale back to original units
    let distances = WeightMatrix::from_fn(n, |i, j| match current[(i, j)] {
        ExtWeight::Finite(x) => ExtWeight::Finite(x * q),
        other => other,
    });
    Ok(QuantizedApspReport {
        distances,
        rounds,
        products,
        find_edges_calls: calls,
        quantum: q,
    })
}

/// Convenience: the quantum achieving additive error `≤ ε·W` on an
/// `n`-vertex graph with weights `≤ W`: `q = max(1, ⌈εW/n⌉)`.
pub fn quantum_for_epsilon(n: usize, w_max: u64, epsilon: f64) -> i64 {
    assert!(epsilon > 0.0);
    ((epsilon * w_max as f64 / n.max(1) as f64).ceil() as i64).max(1)
}

/// Verifies the additive guarantee of a quantized distance matrix against
/// the exact one; returns the maximum observed additive error.
///
/// # Panics
///
/// Panics if an approximate entry undershoots the exact distance or
/// disagrees on reachability.
pub fn max_additive_error(exact: &WeightMatrix, approx: &WeightMatrix) -> i64 {
    assert_eq!(exact.n(), approx.n());
    let mut worst = 0i64;
    for (i, j, &e) in exact.entries() {
        let a = approx[(i, j)];
        match (e, a) {
            (ExtWeight::Finite(ev), ExtWeight::Finite(av)) => {
                assert!(
                    av >= ev,
                    "approximation undershot at ({i},{j}): {av} < {ev}"
                );
                worst = worst.max(av - ev);
            }
            (ExtWeight::PosInf, ExtWeight::PosInf) => {}
            other => panic!("reachability mismatch at ({i},{j}): {other:?}"),
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_graph::{floyd_warshall, random_nonneg_digraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quantize_rounds_up_to_multiples() {
        let mut g = DiGraph::new(3);
        g.add_arc(0, 1, 7);
        g.add_arc(1, 2, 10);
        let qm = quantize_weights(&g.adjacency_matrix(), 5);
        assert_eq!(qm[(0, 1)], ExtWeight::from(2)); // ceil(7/5)
        assert_eq!(qm[(1, 2)], ExtWeight::from(2)); // 10/5
        assert_eq!(qm[(0, 2)], ExtWeight::PosInf);
        assert_eq!(qm[(0, 0)], ExtWeight::from(0));
    }

    #[test]
    fn additive_error_respects_the_bound() {
        let mut rng = StdRng::seed_from_u64(901);
        let g = random_nonneg_digraph(9, 0.5, 200, &mut rng);
        let exact = floyd_warshall(&g.adjacency_matrix()).unwrap();
        for &q in &[1i64, 5, 25, 100] {
            let report =
                quantized_apsp(&g, q, Params::paper(), SearchBackend::Classical, &mut rng).unwrap();
            let err = max_additive_error(&exact, &report.distances);
            assert!(err <= (9 - 1) * q, "q = {q}: error {err}");
        }
    }

    #[test]
    fn q_one_is_exact() {
        let mut rng = StdRng::seed_from_u64(902);
        let g = random_nonneg_digraph(8, 0.5, 30, &mut rng);
        let exact = floyd_warshall(&g.adjacency_matrix()).unwrap();
        let report =
            quantized_apsp(&g, 1, Params::paper(), SearchBackend::Classical, &mut rng).unwrap();
        assert_eq!(report.distances, exact);
    }

    #[test]
    fn coarser_quantum_uses_fewer_find_edges_calls() {
        let mut rng = StdRng::seed_from_u64(903);
        let g = random_nonneg_digraph(8, 0.6, 4000, &mut rng);
        let fine =
            quantized_apsp(&g, 1, Params::paper(), SearchBackend::Classical, &mut rng).unwrap();
        let coarse =
            quantized_apsp(&g, 512, Params::paper(), SearchBackend::Classical, &mut rng).unwrap();
        assert!(
            coarse.find_edges_calls < fine.find_edges_calls / 2,
            "coarse {} vs fine {}",
            coarse.find_edges_calls,
            fine.find_edges_calls
        );
    }

    #[test]
    fn epsilon_helper_scales_inversely_with_n() {
        assert_eq!(quantum_for_epsilon(10, 1000, 0.1), 10);
        assert_eq!(quantum_for_epsilon(100, 1000, 0.1), 1);
        assert!(quantum_for_epsilon(4, 10, 0.01) >= 1);
    }

    #[test]
    fn unreachable_pairs_stay_unreachable() {
        let mut g = DiGraph::new(5);
        g.add_arc(0, 1, 3);
        g.add_arc(1, 2, 4);
        let mut rng = StdRng::seed_from_u64(904);
        let report =
            quantized_apsp(&g, 2, Params::paper(), SearchBackend::Classical, &mut rng).unwrap();
        assert_eq!(report.distances[(3, 4)], ExtWeight::PosInf);
        assert!(report.distances[(0, 2)].is_finite());
    }

    #[test]
    #[should_panic(expected = "nonnegative")]
    fn negative_weights_are_rejected() {
        let mut g = DiGraph::new(3);
        g.add_arc(0, 1, -2);
        let mut rng = StdRng::seed_from_u64(905);
        let _ = quantized_apsp(&g, 2, Params::paper(), SearchBackend::Classical, &mut rng);
    }
}
