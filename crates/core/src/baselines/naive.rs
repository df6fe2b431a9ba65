//! The trivial APSP baseline: broadcast everything, solve locally.

use crate::apsp::{ApspAlgorithm, ApspReport};
use crate::run::on_clique;
use crate::wire::{weight_bits, Wire};
use crate::ApspError;
use qcc_congest::{NetConfig, NodeId, TraceSink};
use qcc_graph::{floyd_warshall, DiGraph};

/// Solves APSP by having every node broadcast its full adjacency row and
/// then running Floyd–Warshall locally.
///
/// Costs `Θ(n · w / B) = Θ(n)` rounds (each node pushes `n` weights of `w`
/// bits over `B`-bit links): the upper bound every sub-linear algorithm is
/// compared against. The internal `Clique` attaches to `trace` (round
/// charges are byte-identical with and without a sink) and is armed with
/// `netcfg`'s fault plan and reliable-delivery envelope before the gossip.
///
/// # Errors
///
/// Returns [`ApspError::NegativeCycle`] if the graph has a negative cycle;
/// injected faults that break through the envelope surface as
/// [`ApspError::Faulted`].
///
/// # Examples
///
/// ```
/// use qcc_apsp::naive_broadcast_apsp;
/// use qcc_congest::NetConfig;
/// use qcc_graph::{DiGraph, ExtWeight};
///
/// let mut g = DiGraph::new(4);
/// g.add_arc(0, 1, 2);
/// g.add_arc(1, 2, 3);
/// let report = naive_broadcast_apsp(&g, None, &NetConfig::default())?;
/// assert_eq!(report.distances[(0, 2)], ExtWeight::from(5));
/// # Ok::<(), qcc_apsp::ApspError>(())
/// ```
pub fn naive_broadcast_apsp(
    g: &DiGraph,
    trace: Option<&TraceSink>,
    netcfg: &NetConfig,
) -> Result<ApspReport, ApspError> {
    let n = g.n();
    let (reconstructed, rounds) = on_clique(n, netcfg, trace, Some("apsp"), |net| {
        net.begin_phase("naive/broadcast-rows");
        let wb = weight_bits(g.weight_magnitude());
        // Each node's item list: its full out-row (one weight per other
        // vertex, absent arcs included — the row is dense information).
        let items: Vec<Vec<Wire<(usize, Option<i64>)>>> = (0..n)
            .map(|u| {
                (0..n)
                    .filter(|&v| v != u)
                    .map(|v| Wire::new((v, g.weight(u, v).finite()), wb))
                    .collect()
            })
            .collect();
        let views = net.gossip(items)?;

        // Every node now reconstructs the full graph; verify on node 0's view.
        let mut reconstructed = DiGraph::new(n);
        for (origin, msg) in views.of(NodeId::new(0)) {
            let (v, w) = msg.value;
            if let Some(w) = w {
                reconstructed.add_arc(origin.index(), v, w);
            }
        }
        // On a faulty network without the envelope the gossip can silently
        // lose rows; the reconstruction invariant only holds on reliable runs.
        debug_assert!(
            net.fault_plan().is_some() || &reconstructed == g,
            "gossip must reconstruct the graph"
        );
        Ok(reconstructed)
    })?;
    let distances = floyd_warshall(&reconstructed.adjacency_matrix())?;
    Ok(ApspReport {
        distances,
        rounds,
        products: 0,
        algorithm: ApspAlgorithm::NaiveBroadcast,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_graph::{floyd_warshall, random_reweighted_digraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_floyd_warshall() {
        let mut rng = StdRng::seed_from_u64(121);
        let g = random_reweighted_digraph(12, 0.5, 6, &mut rng);
        let report = naive_broadcast_apsp(&g, None, &NetConfig::default()).unwrap();
        assert_eq!(
            report.distances,
            floyd_warshall(&g.adjacency_matrix()).unwrap()
        );
        assert_eq!(report.algorithm, ApspAlgorithm::NaiveBroadcast);
    }

    #[test]
    fn rounds_scale_linearly_with_n() {
        let mut rng = StdRng::seed_from_u64(122);
        let g16 = random_reweighted_digraph(16, 0.5, 6, &mut rng);
        let g64 = random_reweighted_digraph(64, 0.5, 6, &mut rng);
        let r16 = naive_broadcast_apsp(&g16, None, &NetConfig::default())
            .unwrap()
            .rounds;
        let r64 = naive_broadcast_apsp(&g64, None, &NetConfig::default())
            .unwrap()
            .rounds;
        // 4x the nodes: roughly 4x the rounds (bandwidth grows by log factor)
        assert!(r64 >= 2 * r16, "r16 = {r16}, r64 = {r64}");
    }

    #[test]
    fn negative_cycle_is_detected() {
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1, -2);
        g.add_arc(1, 0, 1);
        assert_eq!(
            naive_broadcast_apsp(&g, None, &NetConfig::default()).unwrap_err(),
            ApspError::NegativeCycle
        );
    }
}
