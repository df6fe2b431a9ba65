//! Shortest-path *reconstruction* over the distributed pipeline
//! (footnote 1 of the paper).
//!
//! The distributed distance product is witness-free, so we apply the
//! standard weight-scaling trick ([`qcc_graph::scale_for_witness`]): run
//! the same Proposition-2 binary search on matrices whose entries are
//! `(n+1)`-scaled with the inner index folded into the remainder. Weight
//! magnitudes grow by a factor `n + 1`, which adds one `log n` to the
//! `O(log M)` call count — the "polylogarithmic factor" the footnote
//! pays — and every other part of the pipeline is reused unchanged.

use crate::apsp::square_to_closure;
use crate::distance_product::distributed_distance_product_configured;
use crate::params::Params;
use crate::step3::SearchBackend;
use crate::ApspError;
use qcc_congest::{NetConfig, TraceSink};
use qcc_graph::{
    decode_witness, scale_for_witness, DiGraph, PathOracle, WeightMatrix, WitnessedProduct,
};
use rand::Rng;

/// Result of a witnessed distributed distance product.
#[derive(Clone, Debug)]
pub struct WitnessedProductReport {
    /// Product and witnesses.
    pub witnessed: WitnessedProduct,
    /// Rounds on the physical network (simulation factor applied).
    pub rounds: u64,
    /// `FindEdges` invocations (≈ one `log n` more than the plain product).
    pub find_edges_calls: u32,
}

/// Computes `A ⋆ B` *with witnesses* through the distributed pipeline,
/// with an optional NDJSON trace sink: the product's virtual `Clique(3n)`
/// attaches to it, so its spans nest under whatever span the caller has
/// open.
///
/// # Errors
///
/// Same as [`crate::distributed_distance_product`].
pub fn distributed_witnessed_product<R: Rng>(
    a: &WeightMatrix,
    b: &WeightMatrix,
    params: Params,
    backend: SearchBackend,
    rng: &mut R,
    trace: Option<&TraceSink>,
) -> Result<WitnessedProductReport, ApspError> {
    let n = a.n();
    let (a2, b2) = scale_for_witness(a, b);
    let report = distributed_distance_product_configured(
        &a2,
        &b2,
        params,
        backend,
        rng,
        trace,
        &NetConfig::default(),
    )?;
    let witnessed = decode_witness(n, &report.product);
    Ok(WitnessedProductReport {
        witnessed,
        rounds: report.physical_rounds(),
        find_edges_calls: report.find_edges_calls,
    })
}

/// Result of a full APSP-with-paths run.
#[derive(Clone, Debug)]
pub struct ApspPathsReport {
    /// Distances plus per-level witnesses; call
    /// [`PathOracle::path`] to extract explicit shortest paths.
    pub oracle: PathOracle,
    /// Rounds on the physical network.
    pub rounds: u64,
    /// Witnessed distance products performed.
    pub products: u32,
}

/// Solves APSP *and* retains enough witnesses to output every shortest
/// path, via repeated witnessed squaring.
///
/// # Errors
///
/// * [`ApspError::NegativeCycle`] if the graph has one.
/// * A failed witnessed product (network or stage error), as
///   [`ApspError::Faulted`] carrying every round charged up to the failure.
///
/// # Examples
///
/// ```
/// use qcc_apsp::{apsp_with_paths, Params, SearchBackend};
/// use qcc_graph::{path_weight, DiGraph};
/// use rand::SeedableRng;
///
/// let mut g = DiGraph::new(5);
/// g.add_arc(0, 1, 4);
/// g.add_arc(1, 2, -2);
/// g.add_arc(0, 2, 9);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let report = apsp_with_paths(&g, Params::paper(), SearchBackend::Classical, &mut rng)?;
/// let path = report.oracle.path(0, 2).unwrap();
/// assert_eq!(path, vec![0, 1, 2]); // the detour beats the direct arc
/// assert_eq!(path_weight(&g, &path), Some(2));
/// # Ok::<(), qcc_apsp::ApspError>(())
/// ```
pub fn apsp_with_paths<R: Rng>(
    g: &DiGraph,
    params: Params,
    backend: SearchBackend,
    rng: &mut R,
) -> Result<ApspPathsReport, ApspError> {
    apsp_with_paths_traced(g, params, backend, rng, None)
}

/// [`apsp_with_paths`] with an optional NDJSON trace sink: a root `apsp`
/// span with one `product-k` child per witnessed squaring, each scaled by
/// the virtual-network simulation factor so the trace's scaled root total
/// equals [`ApspPathsReport::rounds`]. Round charges are byte-identical
/// with and without a sink.
///
/// # Errors
///
/// Same as [`apsp_with_paths`].
pub fn apsp_with_paths_traced<R: Rng>(
    g: &DiGraph,
    params: Params,
    backend: SearchBackend,
    rng: &mut R,
    trace: Option<&TraceSink>,
) -> Result<ApspPathsReport, ApspError> {
    let adjacency = g.adjacency_matrix();
    let mut levels = Vec::new();
    let (closure, rounds, products) = square_to_closure(adjacency.clone(), trace, |current| {
        let report = distributed_witnessed_product(current, current, params, backend, rng, trace)?;
        levels.push(report.witnessed.witness);
        Ok((report.rounds, report.witnessed.product))
    })?;
    Ok(ApspPathsReport {
        oracle: PathOracle::from_parts(adjacency, levels, closure),
        rounds,
        products,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{apsp_traced, ApspAlgorithm};
    use qcc_congest::{parse_trace, TraceSummary};
    use qcc_graph::{
        distance_product, floyd_warshall, path_weight, random_reweighted_digraph, ExtWeight,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// An IdentifyClass abort in the first product: both entries must
    /// close every span they opened and bill the same rounds.
    #[test]
    fn a_failed_product_closes_the_trace_and_bills_its_rounds() {
        let params = Params {
            identify_abort: 0.0,
            ..Params::paper()
        };
        let run = |with_paths: bool| {
            let mut rng = StdRng::seed_from_u64(5);
            let g = random_reweighted_digraph(8, 0.5, 6, &mut rng);
            let (sink, buffer) = TraceSink::in_memory();
            let err = if with_paths {
                apsp_with_paths_traced(&g, params, SearchBackend::Quantum, &mut rng, Some(&sink))
                    .unwrap_err()
            } else {
                let algorithm = ApspAlgorithm::QuantumTriangle;
                apsp_traced(&g, params, algorithm, &mut rng, Some(&sink)).unwrap_err()
            };
            let events = parse_trace(&buffer.contents()).unwrap();
            let summary = TraceSummary::from_events(&events).unwrap();
            summary.verify().unwrap();
            (err, summary.total_rounds())
        };
        let (plain, plain_total) = run(false);
        assert!(
            matches!(&plain, ApspError::Faulted { rounds: 882, source }
                if matches!(**source, ApspError::StageAborted { .. })),
            "{plain:?}"
        );
        assert_eq!(run(true), (plain, plain_total));
    }

    #[test]
    fn witnessed_product_matches_plain_product() {
        let mut rng = StdRng::seed_from_u64(601);
        let g = random_reweighted_digraph(5, 0.6, 5, &mut rng);
        let a = g.adjacency_matrix();
        let report = distributed_witnessed_product(
            &a,
            &a,
            Params::paper(),
            SearchBackend::Classical,
            &mut rng,
            None,
        )
        .unwrap();
        assert_eq!(report.witnessed.product, distance_product(&a, &a));
        for i in 0..5 {
            for j in 0..5 {
                if let Some(k) = report.witnessed.witness[(i, j)] {
                    assert_eq!(a[(i, k)] + a[(k, j)], report.witnessed.product[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn witness_scaling_costs_about_one_extra_log() {
        let mut rng = StdRng::seed_from_u64(602);
        let g = random_reweighted_digraph(4, 0.7, 4, &mut rng);
        let a = g.adjacency_matrix();
        let plain = crate::distance_product::distributed_distance_product(
            &a,
            &a,
            Params::paper(),
            SearchBackend::Classical,
            &mut rng,
        )
        .unwrap();
        let witnessed = distributed_witnessed_product(
            &a,
            &a,
            Params::paper(),
            SearchBackend::Classical,
            &mut rng,
            None,
        )
        .unwrap();
        let extra = witnessed
            .find_edges_calls
            .saturating_sub(plain.find_edges_calls);
        // scaling multiplies M by n+1 = 5: log2(5) ≈ 2.3 extra calls
        assert!(extra <= 4, "extra calls: {extra}");
        assert!(witnessed.find_edges_calls > plain.find_edges_calls);
    }

    #[test]
    fn distributed_paths_are_shortest_paths() {
        let mut rng = StdRng::seed_from_u64(603);
        let g = random_reweighted_digraph(7, 0.45, 5, &mut rng);
        let fw = floyd_warshall(&g.adjacency_matrix()).unwrap();
        let report =
            apsp_with_paths(&g, Params::paper(), SearchBackend::Classical, &mut rng).unwrap();
        assert_eq!(report.oracle.distances(), &fw);
        for u in 0..7 {
            for v in 0..7 {
                if u == v {
                    continue;
                }
                match report.oracle.path(u, v) {
                    Some(path) => {
                        let w = path_weight(&g, &path).expect("valid hops");
                        assert_eq!(ExtWeight::from(w), fw[(u, v)], "({u},{v})");
                    }
                    None => assert_eq!(fw[(u, v)], ExtWeight::PosInf),
                }
            }
        }
    }

    #[test]
    fn quantum_backend_reconstructs_paths_too() {
        let mut rng = StdRng::seed_from_u64(604);
        let g = random_reweighted_digraph(5, 0.6, 3, &mut rng);
        let fw = floyd_warshall(&g.adjacency_matrix()).unwrap();
        let report =
            apsp_with_paths(&g, Params::paper(), SearchBackend::Quantum, &mut rng).unwrap();
        assert_eq!(report.oracle.distances(), &fw);
        for u in 0..5 {
            for v in 0..5 {
                if let Some(path) = report.oracle.path(u, v) {
                    if u != v {
                        let w = path_weight(&g, &path).unwrap();
                        assert_eq!(ExtWeight::from(w), fw[(u, v)]);
                    }
                }
            }
        }
    }

    #[test]
    fn negative_cycles_are_detected_in_path_mode() {
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1, -3);
        g.add_arc(1, 0, 2);
        let mut rng = StdRng::seed_from_u64(605);
        let err =
            apsp_with_paths(&g, Params::paper(), SearchBackend::Classical, &mut rng).unwrap_err();
        assert_eq!(err, ApspError::NegativeCycle);
    }
}
