//! The end-to-end APSP algorithms (Proposition 3, Theorem 1).
//!
//! `A_G^{n}` under the distance product holds all shortest distances, and
//! repeated squaring needs only `⌈log₂(n−1)⌉` products, each computed with
//! the Proposition 2 binary search over `FindEdges`. With the quantum
//! `FindEdges` backend the total cost is `O~(n^{1/4} log W)` rounds —
//! Theorem 1; with the classical backend the same pipeline costs
//! `O~(√n log W)`, and two further baselines (full broadcast, semiring
//! matrix multiplication) complete the comparison of experiment E9.

use crate::distance_product::distributed_distance_product_configured;
use crate::params::Params;
use crate::run::in_span;
use crate::step3::SearchBackend;
use crate::ApspError;
use qcc_congest::{NetConfig, TraceSink};
use qcc_graph::{DiGraph, ExtWeight, WeightMatrix};
use rand::Rng;

/// Which APSP algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApspAlgorithm {
    /// Theorem 1: repeated squaring over quantum `FindEdges`
    /// (`O~(n^{1/4} log W)` rounds).
    QuantumTriangle,
    /// The same pipeline with classical Step-3 searches
    /// (`O~(√n log W)` rounds).
    ClassicalTriangle,
    /// Full input broadcast + local Floyd–Warshall (`O(n)` rounds).
    NaiveBroadcast,
    /// Distributed semiring matrix multiplication (Censor-Hillel et al.,
    /// `O~(n^{1/3})` rounds).
    SemiringSquaring,
}

/// Result of an APSP run.
#[derive(Clone, Debug)]
pub struct ApspReport {
    /// All-pairs shortest distances (`dist[(u, v)]`).
    pub distances: WeightMatrix,
    /// Rounds on the physical `n`-node network (simulation factors already
    /// applied, see [`crate::distance_product`]).
    pub rounds: u64,
    /// Distance products performed (the `O(log n)` squaring factor).
    pub products: u32,
    /// The algorithm that produced this report.
    pub algorithm: ApspAlgorithm,
}

/// Solves APSP on a weighted digraph with the selected algorithm.
///
/// # Errors
///
/// * [`ApspError::NegativeCycle`] if the graph has a negative cycle.
/// * Propagated errors from the underlying distributed subroutines.
///
/// # Examples
///
/// ```
/// use qcc_apsp::{apsp, ApspAlgorithm, Params};
/// use qcc_graph::{floyd_warshall, DiGraph};
/// use rand::SeedableRng;
///
/// let mut g = DiGraph::new(8);
/// g.add_arc(0, 1, 2);
/// g.add_arc(1, 2, -1);
/// g.add_arc(2, 3, 5);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let report = apsp(&g, Params::paper(), ApspAlgorithm::NaiveBroadcast, &mut rng)?;
/// assert_eq!(report.distances, floyd_warshall(&g.adjacency_matrix())?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn apsp<R: Rng>(
    g: &DiGraph,
    params: Params,
    algorithm: ApspAlgorithm,
    rng: &mut R,
) -> Result<ApspReport, ApspError> {
    apsp_traced(g, params, algorithm, rng, None)
}

/// [`apsp`] with an optional NDJSON trace sink.
///
/// The run is wrapped in a root `apsp` span; each squaring product becomes
/// a `product-k` child scaled by the virtual-network simulation factor, so
/// the trace's scaled root-span round total equals [`ApspReport::rounds`]
/// exactly (`qcc trace-summary --expect-rounds` checks this). Round charges
/// are byte-identical with and without a sink.
///
/// # Errors
///
/// Same as [`apsp`].
pub fn apsp_traced<R: Rng>(
    g: &DiGraph,
    params: Params,
    algorithm: ApspAlgorithm,
    rng: &mut R,
    trace: Option<&TraceSink>,
) -> Result<ApspReport, ApspError> {
    apsp_configured(g, params, algorithm, rng, trace, &NetConfig::default())
}

/// [`apsp_traced`] with a network configuration: every internal `Clique`
/// is armed with `netcfg`'s fault plan and reliable-delivery envelope.
/// Injected faults that break through the envelope surface as
/// [`ApspError::Faulted`], carrying the physical rounds the failed run
/// already charged.
pub(crate) fn apsp_configured<R: Rng>(
    g: &DiGraph,
    params: Params,
    algorithm: ApspAlgorithm,
    rng: &mut R,
    trace: Option<&TraceSink>,
    netcfg: &NetConfig,
) -> Result<ApspReport, ApspError> {
    match algorithm {
        ApspAlgorithm::QuantumTriangle => {
            squaring_apsp(g, params, SearchBackend::Quantum, rng, trace, netcfg)
        }
        ApspAlgorithm::ClassicalTriangle => {
            squaring_apsp(g, params, SearchBackend::Classical, rng, trace, netcfg)
        }
        ApspAlgorithm::NaiveBroadcast => crate::baselines::naive_broadcast_apsp(g, trace, netcfg),
        ApspAlgorithm::SemiringSquaring => {
            crate::baselines::semiring_apsp(g, params.worker_threads(), trace, netcfg)
        }
    }
}

fn squaring_apsp<R: Rng>(
    g: &DiGraph,
    params: Params,
    backend: SearchBackend,
    rng: &mut R,
    trace: Option<&TraceSink>,
    netcfg: &NetConfig,
) -> Result<ApspReport, ApspError> {
    let (distances, rounds, products) =
        square_to_closure(g.adjacency_matrix(), trace, |current| {
            let report = distributed_distance_product_configured(
                current, current, params, backend, rng, trace, netcfg,
            )?;
            debug_assert_eq!(report.simulation_factor, 9);
            Ok((report.physical_rounds(), report.product))
        })?;
    let algorithm = match backend {
        SearchBackend::Quantum => ApspAlgorithm::QuantumTriangle,
        SearchBackend::Classical => ApspAlgorithm::ClassicalTriangle,
    };
    Ok(ApspReport {
        distances,
        rounds,
        products,
        algorithm,
    })
}

/// Repeated squaring (Proposition 3), shared by [`apsp_traced`],
/// [`crate::apsp_with_paths_traced`] and [`crate::quantized_apsp`]:
/// squares `adjacency` with `product` until the exponent reaches `n − 1`,
/// since shortest paths have at most `n − 1` arcs. `product` returns one
/// product's physical rounds and matrix. Returns the closure, the total
/// physical rounds and the number of products.
///
/// With a sink, the run is a root `apsp` span with one `product-k` child
/// per product, scaled by the virtual `Clique(3n)`'s simulation factor 9,
/// so the trace's scaled total equals the returned rounds. Every span is
/// closed on every path out.
///
/// # Errors
///
/// * A failed product, as [`ApspError::Faulted`] carrying the rounds of
///   the completed products plus those the failed one charged.
/// * [`ApspError::NegativeCycle`] if the closure has a negative diagonal
///   entry.
pub(crate) fn square_to_closure(
    adjacency: WeightMatrix,
    trace: Option<&TraceSink>,
    mut product: impl FnMut(&WeightMatrix) -> Result<(u64, WeightMatrix), ApspError>,
) -> Result<(WeightMatrix, u64, u32), ApspError> {
    let n = adjacency.n();
    let mut current = adjacency;
    let mut rounds = 0u64;
    let mut products = 0u32;
    in_span(trace, "apsp", 1, || -> Result<(), ApspError> {
        let mut exponent: u64 = 1;
        while exponent < (n.max(2) as u64) - 1 {
            let label = format!("product-{products}");
            let (product_rounds, next) = in_span(trace, &label, 9, || product(&current))
                .map_err(|e| ApspError::faulted(rounds + e.rounds_charged(), e))?;
            rounds += product_rounds;
            current = next;
            products += 1;
            exponent *= 2;
        }
        Ok(())
    })?;
    // Negative cycle ⟺ some negative diagonal entry of the closure.
    if (0..n).any(|i| current[(i, i)] < ExtWeight::ZERO) {
        return Err(ApspError::NegativeCycle);
    }
    Ok((current, rounds, products))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_graph::{floyd_warshall, random_reweighted_digraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn quantum_apsp_matches_floyd_warshall() {
        let mut rng = StdRng::seed_from_u64(111);
        let g = random_reweighted_digraph(8, 0.5, 4, &mut rng);
        let expected = floyd_warshall(&g.adjacency_matrix()).unwrap();
        let report = apsp(
            &g,
            Params::paper(),
            ApspAlgorithm::QuantumTriangle,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.distances, expected);
        assert!(report.rounds > 0);
        assert!(report.products >= 3); // ceil(log2(7))
    }

    #[test]
    fn classical_triangle_apsp_matches_floyd_warshall() {
        let mut rng = StdRng::seed_from_u64(112);
        let g = random_reweighted_digraph(10, 0.4, 5, &mut rng);
        let expected = floyd_warshall(&g.adjacency_matrix()).unwrap();
        let report = apsp(
            &g,
            Params::paper(),
            ApspAlgorithm::ClassicalTriangle,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.distances, expected);
    }

    #[test]
    fn disconnected_vertices_stay_infinite() {
        let mut g = DiGraph::new(6);
        g.add_arc(0, 1, 3);
        let mut rng = StdRng::seed_from_u64(113);
        let report = apsp(
            &g,
            Params::paper(),
            ApspAlgorithm::ClassicalTriangle,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.distances[(0, 1)], ExtWeight::from(3));
        assert_eq!(report.distances[(1, 0)], ExtWeight::PosInf);
        assert_eq!(report.distances[(4, 5)], ExtWeight::PosInf);
    }

    #[test]
    fn negative_cycle_is_reported() {
        let mut g = DiGraph::new(6);
        g.add_arc(0, 1, 1);
        g.add_arc(1, 2, -3);
        g.add_arc(2, 0, 1);
        let mut rng = StdRng::seed_from_u64(114);
        let err = apsp(
            &g,
            Params::paper(),
            ApspAlgorithm::ClassicalTriangle,
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(err, ApspError::NegativeCycle);
    }

    #[test]
    fn tiny_graphs_work() {
        let mut g = DiGraph::new(2);
        g.add_arc(0, 1, -4);
        let mut rng = StdRng::seed_from_u64(115);
        let report = apsp(
            &g,
            Params::paper(),
            ApspAlgorithm::QuantumTriangle,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.distances[(0, 1)], ExtWeight::from(-4));
        assert_eq!(report.distances[(0, 0)], ExtWeight::ZERO);
    }
}
