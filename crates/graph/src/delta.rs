//! Incremental distance-matrix repair and the local fixpoint certificate.
//!
//! Local (non-distributed) machinery behind the APSP serving hot path:
//!
//! * [`delta_repair`] — exact repair after arc decreases (insertions
//!   included): every pair is relaxed through each changed arc in turn,
//!   `O(k·n²)` for `k` arcs;
//! * [`parent_path`] — the route that the parent pointers of
//!   [`crate::sssp_row_with_parents`] (the single-source relaxation that
//!   recomputes one evicted row) encode;
//! * [`min_plus_fixpoint_certificate`] — the Las-Vegas driver's
//!   certificate (zero diagonal, `D ≤ A₀`, `D ⊗ D = D`) evaluated locally,
//!   which gossip APSP runs on its local solve.
//!
//! ## Why one relaxation per arc is exact
//!
//! Let `D` be the distance matrix of a graph without a negative cycle, and
//! lower the arc `(u, v)` to `w`. A negative cycle of the new graph must
//! use the arc, and the lightest cycle through it weighs `D[v,u] + w`, so
//! the new graph has one exactly when `D[v,u] + w < 0`. Otherwise a
//! shortest simple path crosses the arc at most once: either it avoids the
//! arc and weighs at least `D[i,j]`, or it is a path to `u`, the arc, and a
//! path from `v`, weighing at least `D[i,u] + w + D[v,j]`. Both terms are
//! weights of walks in the new graph, so
//! `D'[i,j] = min(D[i,j], D[i,u] + w + D[v,j])` is exact. Row `v` and
//! column `u` are fixed points of this step (`D[v,u] + w ≥ 0`), so it can
//! run in place. Several arcs are applied one after another, each on the
//! exact matrix its predecessors left; a decrease never removes a negative
//! cycle, so rejecting at the first arc that closes one is exact too. A
//! weight *increase* can leave stale entries too small, which no local
//! relaxation detects, so callers route increases and deletions to a full
//! recompute.

use crate::apsp_ref::{bellman_ford, NegativeCycleError};
use crate::digraph::DiGraph;
use crate::matrix::{distance_product, WeightMatrix};
use crate::weight::ExtWeight;

/// One edge-weight change: the arc `(u, v)` now weighs `weight`.
///
/// A non-finite `weight` means the arc carries no usable route
/// (`PosInf` = deleted); such deltas contribute nothing to a repair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Tail vertex.
    pub u: usize,
    /// Head vertex.
    pub v: usize,
    /// The new weight of the arc.
    pub weight: ExtWeight,
}

/// Walks `parents` back from `dst` to `src` and returns the shortest path
/// as a vertex sequence (both endpoints inclusive), or `None` when the
/// pointers never reach `src` (unreachable `dst`, or corrupted pointers —
/// the walk is cut after `n` hops instead of looping forever).
pub fn parent_path(src: usize, dst: usize, parents: &[Option<usize>]) -> Option<Vec<usize>> {
    if src == dst {
        return Some(vec![src]);
    }
    let mut path = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = parents[cur]?;
        path.push(cur);
        if path.len() > parents.len() {
            return None;
        }
    }
    path.reverse();
    Some(path)
}

/// The distance matrix after the arcs of `deltas` were lowered, one after
/// another in order: `d` must be the exact distance matrix of a graph
/// without a negative cycle, and each delta a decrease of its arc (from
/// `+∞` for a new arc) relative to the graph its predecessors left.
///
/// Each arc `(u, v)` of weight `w` relaxes every pair through it,
/// `D[i,j] = min(D[i,j], D[i,u] + w + D[v,j])`, which is exact for a
/// decrease (see the module docs); `k` arcs cost `O(k·n²)`. Deltas with a
/// non-finite weight are skipped. Sums use [`ExtWeight`] addition, so they
/// saturate instead of overflowing.
///
/// # Errors
///
/// [`NegativeCycleError`] when an arc closes a negative cycle
/// (`D[v,u] + w < 0` on the matrix its predecessors left).
///
/// # Panics
///
/// Panics if a delta endpoint is out of range.
pub fn delta_repair(
    d: &WeightMatrix,
    deltas: &[EdgeDelta],
) -> Result<WeightMatrix, NegativeCycleError> {
    let n = d.n();
    let mut out = d.clone();
    let mut via = vec![ExtWeight::PosInf; n];
    for e in deltas.iter().filter(|e| e.weight.is_finite()) {
        assert!(e.u < n && e.v < n, "delta endpoint out of range");
        if out[(e.v, e.u)] + e.weight < ExtWeight::ZERO {
            return Err(NegativeCycleError);
        }
        via.copy_from_slice(out.row(e.v));
        for row in out.as_mut_slice().chunks_exact_mut(n) {
            let head = row[e.u] + e.weight;
            if head == ExtWeight::PosInf {
                continue;
            }
            for (dij, &dvj) in row.iter_mut().zip(&via) {
                let cand = head + dvj;
                if cand < *dij {
                    *dij = cand;
                }
            }
        }
    }
    Ok(out)
}

/// The certificate's local conditions: zero diagonal and `D ≤ A₀`
/// pointwise (`adj` is the adjacency matrix with zero diagonal). Shared
/// by the distributed Las-Vegas driver and
/// [`min_plus_fixpoint_certificate`].
pub fn certificate_local_ok(adj: &WeightMatrix, d: &WeightMatrix) -> bool {
    let n = adj.n();
    if d.n() != n {
        return false;
    }
    if (0..n).any(|i| d[(i, i)] != ExtWeight::ZERO) {
        return false;
    }
    d.as_slice().iter().zip(adj.as_slice()).all(|(x, a)| x <= a)
}

/// The full min-plus fixpoint certificate, evaluated locally: zero
/// diagonal, `D ≤ A₀` pointwise, and `D ⊗ D = D`.
///
/// Accepts exactly the true distance matrix among all *overestimates*
/// (conditions 2–3 force `D ≤ dist` by induction on path length; if the
/// graph had a negative cycle through `x`, the same induction would force
/// `D[x,x] < 0`, violating condition 1 — so a passing matrix also proves
/// the absence of negative cycles). Underestimates can pass; callers must
/// only hand it candidates that are overestimates by construction.
pub fn min_plus_fixpoint_certificate(adj: &WeightMatrix, d: &WeightMatrix) -> bool {
    certificate_local_ok(adj, d) && distance_product(d, d) == *d
}

/// Whether the graph contains a negative cycle anywhere, via one
/// Bellman–Ford run from a virtual source with zero-weight arcs to every
/// vertex (the Johnson augmentation) — `O(nm)` time and no distance
/// matrix.
pub fn has_negative_cycle(g: &DiGraph) -> bool {
    let n = g.n();
    let mut aug = DiGraph::new(n + 1);
    for (u, v, w) in g.arcs() {
        aug.add_arc(u, v, w);
    }
    for v in 0..n {
        aug.add_arc(n, v, 0);
    }
    bellman_ford(&aug, n).is_err()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp_ref::{floyd_warshall, sssp_row_with_parents};
    use crate::generators::random_reweighted_digraph;
    use crate::matrix::TROPICAL_FINITE_MAX;
    use crate::paths::path_weight;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn w(x: i64) -> ExtWeight {
        ExtWeight::from(x)
    }

    fn delta(u: usize, v: usize, weight: ExtWeight) -> EdgeDelta {
        EdgeDelta { u, v, weight }
    }

    /// Applies `deltas` to `g` and returns what a full recompute gives.
    fn recomputed(g: &DiGraph, deltas: &[EdgeDelta]) -> Result<WeightMatrix, NegativeCycleError> {
        let mut g = g.clone();
        for e in deltas {
            if let ExtWeight::Finite(x) = e.weight {
                g.add_arc(e.u, e.v, x);
            }
        }
        floyd_warshall(&g.adjacency_matrix())
    }

    #[test]
    fn row_with_parents_matches_bellman_ford_and_yields_real_paths() {
        let mut rng = StdRng::seed_from_u64(601);
        for _ in 0..5 {
            let g = random_reweighted_digraph(9, 0.5, 12, &mut rng);
            for src in 0..9 {
                let plain = bellman_ford(&g, src).unwrap();
                let (dist, parents) = sssp_row_with_parents(&g, src).unwrap();
                assert_eq!(dist, plain, "src {src}");
                for (v, d) in dist.iter().enumerate() {
                    match *d {
                        ExtWeight::Finite(x) => {
                            let p = parent_path(src, v, &parents).expect("reachable");
                            assert_eq!(p.first(), Some(&src));
                            assert_eq!(p.last(), Some(&v));
                            if src != v {
                                assert_eq!(path_weight(&g, &p), Some(x), "({src},{v})");
                            }
                        }
                        _ => assert_eq!(parent_path(src, v, &parents), None),
                    }
                }
            }
        }
    }

    #[test]
    fn row_with_parents_detects_reachable_negative_cycle() {
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1, 1);
        g.add_arc(1, 2, -3);
        g.add_arc(2, 1, 1);
        assert_eq!(sssp_row_with_parents(&g, 0), Err(NegativeCycleError));
        assert!(sssp_row_with_parents(&g, 3).is_ok());
    }

    #[test]
    fn parent_path_handles_trivial_and_unreachable() {
        assert_eq!(parent_path(2, 2, &[None, None, None]), Some(vec![2]));
        assert_eq!(parent_path(0, 2, &[None, None, None]), None);
        // corrupted pointers (a 1 ↔ 2 loop) terminate instead of hanging
        assert_eq!(parent_path(0, 2, &[None, Some(2), Some(1)]), None);
    }

    #[test]
    fn single_arc_decrease_repairs_exactly() {
        let mut rng = StdRng::seed_from_u64(602);
        let (mut repaired, mut rejected) = (0, 0);
        for _ in 0..16 {
            let g = random_reweighted_digraph(9, 0.5, 10, &mut rng);
            let d = floyd_warshall(&g.adjacency_matrix()).unwrap();
            for (u, v, old) in g.arcs().take(4) {
                let deltas = [delta(u, v, w(old - 3))];
                let got = delta_repair(&d, &deltas);
                assert_eq!(got, recomputed(&g, &deltas), "({u},{v})");
                if got.is_ok() {
                    repaired += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        assert!(repaired > 0 && rejected > 0, "{repaired} / {rejected}");
    }

    #[test]
    fn two_new_arcs_chain_in_one_repair() {
        // Empty 3-graph; both arcs of the path 0 → 1 → 2 arrive in one
        // update. The second arc relaxes through the first one's result.
        let d = floyd_warshall(&DiGraph::new(3).adjacency_matrix()).unwrap();
        let got = delta_repair(&d, &[delta(0, 1, w(2)), delta(1, 2, w(3))]).unwrap();
        assert_eq!(got[(0, 1)], w(2));
        assert_eq!(got[(0, 2)], w(5));
        assert_eq!(got[(2, 0)], ExtWeight::PosInf);
    }

    #[test]
    fn repair_matches_floyd_warshall_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(604);
        for trial in 0..12 {
            let g = random_reweighted_digraph(11, 0.4, 9, &mut rng);
            let d = floyd_warshall(&g.adjacency_matrix()).unwrap();
            // Two lowered or inserted arcs, then an inert deletion.
            let deltas: Vec<EdgeDelta> = [
                (trial % 11, (trial + 3) % 11),
                ((trial + 5) % 11, (trial + 1) % 11),
            ]
            .into_iter()
            .map(|(u, v)| delta(u, v, g.weight(u, v).min_with(w(4)) + w(-2)))
            .chain([delta(1, 2, ExtWeight::PosInf)])
            .collect();
            assert_eq!(
                delta_repair(&d, &deltas),
                recomputed(&g, &deltas),
                "trial {trial}"
            );
        }
    }

    #[test]
    fn repair_is_exact_beyond_the_flat_domain() {
        // 0 → 1 weighs more than the flat kernels take; lowering 1 → 2
        // must still route 0 → 2 through it exactly.
        let big = TROPICAL_FINITE_MAX + 10;
        let mut g = DiGraph::new(3);
        g.add_arc(0, 1, big);
        g.add_arc(1, 2, 5);
        let d = floyd_warshall(&g.adjacency_matrix()).unwrap();
        let deltas = [delta(1, 2, w(3))];
        let got = delta_repair(&d, &deltas).unwrap();
        assert_eq!(got[(0, 2)], w(big + 3));
        assert_eq!(Ok(got), recomputed(&g, &deltas));
    }

    #[test]
    fn no_live_deltas_returns_the_input() {
        let d = WeightMatrix::distance_identity(4);
        assert_eq!(
            delta_repair(&d, &[delta(0, 1, ExtWeight::PosInf)]),
            Ok(d.clone())
        );
        assert_eq!(delta_repair(&d, &[]), Ok(d));
    }

    #[test]
    fn closing_a_negative_cycle_is_rejected() {
        let mut g = DiGraph::new(3);
        g.add_arc(0, 1, 2);
        g.add_arc(1, 2, 2);
        let d = floyd_warshall(&g.adjacency_matrix()).unwrap();
        // 2 → 0 at −4 closes a zero-weight cycle, at −5 a negative one.
        assert!(delta_repair(&d, &[delta(2, 0, w(-4))]).is_ok());
        assert_eq!(
            delta_repair(&d, &[delta(2, 0, w(-5))]),
            Err(NegativeCycleError)
        );
        // Neither arc alone closes a cycle; the second one, after the
        // first, does.
        assert_eq!(
            delta_repair(&d, &[delta(2, 0, w(-3)), delta(1, 2, w(0))]),
            Err(NegativeCycleError)
        );
    }

    #[test]
    fn certificate_accepts_truth_and_rejects_overestimates() {
        let mut rng = StdRng::seed_from_u64(603);
        let g = random_reweighted_digraph(8, 0.5, 7, &mut rng);
        let adj = g.adjacency_matrix();
        let exact = floyd_warshall(&adj).unwrap();
        assert!(certificate_local_ok(&adj, &exact));
        assert!(min_plus_fixpoint_certificate(&adj, &exact));

        let (u, v, _) = exact
            .entries()
            .find(|&(i, j, &x)| i != j && x.is_finite())
            .map(|(i, j, &x)| (i, j, x))
            .expect("some reachable pair");
        let mut over = exact.clone();
        over[(u, v)] = over[(u, v)] + w(1);
        assert!(!min_plus_fixpoint_certificate(&adj, &over));

        let mut bad_diag = exact.clone();
        bad_diag[(0, 0)] = w(1);
        assert!(!certificate_local_ok(&adj, &bad_diag));

        let wrong_n = WeightMatrix::distance_identity(adj.n() + 1);
        assert!(!certificate_local_ok(&adj, &wrong_n));
    }

    #[test]
    fn underestimates_slip_past_the_certificate() {
        // The documented blind spot: on the arcless 2-graph the matrix
        // with D[0,1] = -5 is idempotent, ≤ A₀ and zero-diagonal, yet -5
        // underestimates the true +∞. This is why callers may only hand
        // it matrices that are overestimates by construction.
        let g = DiGraph::new(2);
        let mut d = WeightMatrix::distance_identity(2);
        d[(0, 1)] = w(-5);
        assert!(min_plus_fixpoint_certificate(&g.adjacency_matrix(), &d));
    }

    #[test]
    fn negative_cycle_detection_via_virtual_source() {
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1, 2);
        g.add_arc(1, 2, -1);
        assert!(!has_negative_cycle(&g));
        // cycle 2 → 3 → 2 of weight -1, unreachable from vertex 0
        g.add_arc(2, 3, -3);
        g.add_arc(3, 2, 2);
        assert!(has_negative_cycle(&g));
    }
}
