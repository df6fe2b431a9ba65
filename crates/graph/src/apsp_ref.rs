//! Sequential all-pairs shortest path oracles.
//!
//! These run on a single machine and serve as ground truth for the
//! distributed algorithms: Floyd–Warshall (negative weights, cycle
//! detection), Bellman–Ford (single source), and Johnson's algorithm
//! (reweighting + Dijkstra, asymptotically faster on sparse graphs and an
//! independent cross-check of Floyd–Warshall).

use crate::digraph::DiGraph;
use crate::matrix::{
    tropical_decode, tropical_decode_matrix, tropical_encode, WeightMatrix, TROPICAL_FINITE_MAX,
    TROPICAL_NONE,
};
use crate::weight::ExtWeight;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use std::ops::Add;

/// The input graph contains a negative cycle, so shortest distances are
/// undefined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NegativeCycleError;

impl fmt::Display for NegativeCycleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "graph contains a negative cycle")
    }
}

impl Error for NegativeCycleError {}

/// Floyd–Warshall on an adjacency matrix (`A_G[i,i] = 0`).
///
/// Returns the full distance matrix, or an error if the graph has a
/// negative cycle (a diagonal entry turns negative).
///
/// Inputs without a `−∞` entry whose largest finite magnitude `M` obeys
/// `(n − 1)·M ≤` [`TROPICAL_FINITE_MAX`] run on the sentinel-coded `i64`
/// lanes of the product kernel ([`TROPICAL_NONE`] for `+∞`); every other
/// input runs the same relaxation over [`ExtWeight`]. Both give the same
/// matrix, and the flat pass is exact for these reasons:
///
/// * Pivot `k` relaxes row `i` only while `d[i,k]` is finite, and the pass
///   returns [`NegativeCycleError`] at the first negative diagonal entry.
///   So every pivot starts with a nonnegative diagonal, under which a
///   finite entry is the weight of a walk whose cycles are nonnegative:
///   at least a simple path's `−(n − 1)·M`, at most a simple path's
///   `(n − 1)·M` (a simple cycle's `n·M` on the diagonal). Within a pivot
///   no value leaves `±2(n − 1)·M`, and `n·M ≤ 2·TROPICAL_FINITE_MAX`.
/// * A `+∞` entry lowered through the sentinel stays above
///   `TROPICAL_NONE − 2(n − 1)·M > 2·TROPICAL_FINITE_MAX` and decodes back
///   to `+∞` ([`tropical_decode`]); no sum overflows `i64`.
/// * With `d[k,k] ≥ 0`, row `k` and column `k` are fixed points of pivot
///   `k`, so relaxing in place sees the values the `ExtWeight` pass reads
///   from its snapshot of row `k`.
///
/// A negative diagonal entry is the weight of a closed walk, so both
/// passes report an error exactly when the graph has a negative cycle.
///
/// # Examples
///
/// ```
/// use qcc_graph::{floyd_warshall, DiGraph, ExtWeight};
///
/// let mut g = DiGraph::new(3);
/// g.add_arc(0, 1, 2);
/// g.add_arc(1, 2, -1);
/// let d = floyd_warshall(&g.adjacency_matrix())?;
/// assert_eq!(d[(0, 2)], ExtWeight::from(1));
/// # Ok::<(), qcc_graph::NegativeCycleError>(())
/// ```
pub fn floyd_warshall(adj: &WeightMatrix) -> Result<WeightMatrix, NegativeCycleError> {
    let n = adj.n();
    match tropical_encode(adj) {
        Some(mut d) if within_flat_domain(n, adj.max_finite_magnitude()) => {
            floyd_warshall_flat(&mut d, n)?;
            Ok(tropical_decode_matrix(n, &d))
        }
        _ => floyd_warshall_ext(adj),
    }
}

/// Whether walks of up to `n − 1` arcs of magnitude at most `m` stay
/// within [`TROPICAL_FINITE_MAX`], the domain of the flat oracles.
fn within_flat_domain(n: usize, m: u64) -> bool {
    (n.saturating_sub(1) as u64)
        .checked_mul(m)
        .is_some_and(|bound| bound <= TROPICAL_FINITE_MAX as u64)
}

/// The flat pass of [`floyd_warshall`], in place on coded entries.
fn floyd_warshall_flat(d: &mut [i64], n: usize) -> Result<(), NegativeCycleError> {
    if (0..n).any(|i| d[i * n + i] < 0) {
        return Err(NegativeCycleError);
    }
    let mut pivot = vec![TROPICAL_NONE; n];
    for k in 0..n {
        pivot.copy_from_slice(&d[k * n..(k + 1) * n]);
        for (i, row) in d.chunks_exact_mut(n).enumerate() {
            let dik = row[k];
            if tropical_decode(dik).is_none() {
                continue;
            }
            for (dij, &dkj) in row.iter_mut().zip(&pivot) {
                let cand = dik + dkj;
                if cand < *dij {
                    *dij = cand;
                }
            }
            if row[i] < 0 {
                return Err(NegativeCycleError);
            }
        }
    }
    Ok(())
}

/// The [`ExtWeight`] pass of [`floyd_warshall`]: each pivot relaxes every
/// row against a snapshot of pivot row `k`.
fn floyd_warshall_ext(adj: &WeightMatrix) -> Result<WeightMatrix, NegativeCycleError> {
    let n = adj.n();
    let mut d = adj.clone();
    let mut pivot = vec![ExtWeight::PosInf; n];
    for k in 0..n {
        pivot.copy_from_slice(d.row(k));
        for row in d.as_mut_slice().chunks_exact_mut(n) {
            let dik = row[k];
            if dik == ExtWeight::PosInf {
                continue;
            }
            for (dij, &dkj) in row.iter_mut().zip(&pivot) {
                let cand = dik + dkj;
                if cand < *dij {
                    *dij = cand;
                }
            }
        }
    }
    if (0..n).any(|i| d[(i, i)] < ExtWeight::ZERO) {
        return Err(NegativeCycleError);
    }
    Ok(d)
}

/// Bellman–Ford single-source shortest paths.
///
/// Returns the distance vector from `src`, or an error if a negative cycle
/// is reachable from `src`: the distances of [`sssp_row_with_parents`].
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn bellman_ford(g: &DiGraph, src: usize) -> Result<Vec<ExtWeight>, NegativeCycleError> {
    sssp_row_with_parents(g, src).map(|(dist, _)| dist)
}

/// Bellman–Ford single-source relaxation with parent tracking.
///
/// Returns `(dist, parent)` where `parent[v]` is the predecessor of `v` on
/// a shortest path from `src` (`None` for `src` itself and for unreachable
/// vertices). Because parents are only rewritten on *strict* improvement,
/// the parent pointers form a tree rooted at `src` whenever the graph has
/// no negative cycle — a cycle of parent pointers would certify a cycle of
/// total weight `< 0`.
///
/// Each pass relaxes the arcs in row-major order until a pass changes
/// nothing (at most `n − 1` passes); after `n − 1` passes that all changed
/// something, an arc that still relaxes proves a negative cycle. A pass
/// skips the arcs of a tail whose distance has not fallen since they were
/// last relaxed: none of them can relax, so every other arc sees the same
/// values as in a full pass. Every value is the weight of a walk from
/// `src`, which without a reachable negative cycle is at least a simple
/// path's `−(n − 1)·M` for the largest arc magnitude `M`: the loop reports
/// the cycle as soon as a value drops below that floor. On graphs with
/// `(n − 1)·M ≤` [`TROPICAL_FINITE_MAX`] the distances live on `i64` lanes
/// ([`TROPICAL_NONE`] for `+∞`), other graphs on `i128` lanes; either way
/// no sum leaves the lanes. A distance outside `i64`, which only a graph
/// above the guard reaches, reads as the infinity of its sign, as
/// [`ExtWeight`] sums saturate.
///
/// # Errors
///
/// [`NegativeCycleError`] if a negative cycle is reachable from `src`.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn sssp_row_with_parents(
    g: &DiGraph,
    src: usize,
) -> Result<(Vec<ExtWeight>, Vec<Option<usize>>), NegativeCycleError> {
    let n = g.n();
    assert!(src < n, "source out of range");
    let m = g.weight_magnitude();
    let floor = -(n as i128 - 1) * i128::from(m);
    if within_flat_domain(n, m) {
        relax_from(g, src, (TROPICAL_NONE, NO_ARC), floor as i64)
    } else {
        relax_from(g, src, (WIDE_NONE, WIDE_NO_ARC), floor)
    }
}

/// The weight of an absent arc (or of the diagonal) on the `i64` lanes of
/// [`sssp_row_with_parents`]: any distance plus it lies above
/// [`TROPICAL_NONE`], so such an entry never relaxes, and below `i64::MAX`.
const NO_ARC: i64 = TROPICAL_NONE + 2 * TROPICAL_FINITE_MAX;

/// `+∞` on the `i128` lanes of [`sssp_row_with_parents`]. A distance there
/// lies within `±(n − 1)·M < 2^96` (a dense `n × n` table has `n < 2^32`,
/// and `M ≤ 2^63`), far below it.
const WIDE_NONE: i128 = 1 << 125;

/// An absent arc on the `i128` lanes: any distance plus it lies above
/// [`WIDE_NONE`] and below `i128::MAX`.
const WIDE_NO_ARC: i128 = 1 << 126;

/// The relaxation loop of [`sssp_row_with_parents`] on one lane type:
/// `none` codes `+∞` and `no_arc` an absent arc, and a value below `floor`
/// proves a negative cycle.
fn relax_from<T>(
    g: &DiGraph,
    src: usize,
    (none, no_arc): (T, T),
    floor: T,
) -> Result<(Vec<ExtWeight>, Vec<Option<usize>>), NegativeCycleError>
where
    T: Copy + PartialOrd + Add<Output = T> + From<i64> + TryInto<i64>,
{
    let n = g.n();
    let coded: Vec<T> = g
        .weights()
        .as_slice()
        .iter()
        .map(|w| w.finite().map_or(no_arc, T::from))
        .collect();
    let row = |u: usize| &coded[u * n..(u + 1) * n];
    let zero = T::from(0);
    let mut dist = vec![none; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    // Tails whose distance fell since their arcs were last relaxed.
    let mut stale = vec![false; n];
    dist[src] = zero;
    stale[src] = true;
    let mut settled = false;
    for _ in 0..n.saturating_sub(1) {
        settled = true;
        for u in 0..n {
            if !stale[u] {
                continue;
            }
            stale[u] = false;
            let du = dist[u];
            for (v, &w) in row(u).iter().enumerate() {
                let cand = du + w;
                if cand < dist[v] {
                    if cand < floor {
                        return Err(NegativeCycleError);
                    }
                    dist[v] = cand;
                    parent[v] = Some(u);
                    stale[v] = true;
                    settled = false;
                }
            }
        }
        if settled {
            break;
        }
    }
    let relaxes = |u: usize| {
        row(u)
            .iter()
            .enumerate()
            .any(|(v, &w)| dist[u] + w < dist[v])
    };
    if !settled && (0..n).any(|u| stale[u] && relaxes(u)) {
        return Err(NegativeCycleError);
    }
    let dist = dist
        .into_iter()
        .map(|d| match d.try_into() {
            _ if d >= none => ExtWeight::PosInf,
            Ok(d) => ExtWeight::Finite(d),
            Err(_) if d > zero => ExtWeight::PosInf,
            Err(_) => ExtWeight::NegInf,
        })
        .collect();
    Ok((dist, parent))
}

/// Dijkstra on nonnegative arc weights.
///
/// # Panics
///
/// Panics if `src` is out of range or any arc weight is negative.
pub fn dijkstra(g: &DiGraph, src: usize) -> Vec<ExtWeight> {
    let n = g.n();
    assert!(src < n);
    let mut dist = vec![ExtWeight::PosInf; n];
    dist[src] = ExtWeight::ZERO;
    let mut heap: BinaryHeap<Reverse<(i64, usize)>> = BinaryHeap::new();
    heap.push(Reverse((0, src)));
    while let Some(Reverse((du, u))) = heap.pop() {
        if ExtWeight::from(du) > dist[u] {
            continue;
        }
        for (v, w) in g.out_neighbors(u) {
            assert!(w >= 0, "dijkstra requires nonnegative weights");
            let cand = du + w;
            if ExtWeight::from(cand) < dist[v] {
                dist[v] = ExtWeight::from(cand);
                heap.push(Reverse((cand, v)));
            }
        }
    }
    dist
}

/// Johnson's algorithm: full APSP with negative arcs via Bellman–Ford
/// reweighting plus `n` Dijkstra runs.
///
/// Returns the distance matrix, or an error if the graph has a negative
/// cycle.
///
/// The `n` per-source Dijkstra runs are independent and fan out once per
/// call across scoped workers (`QCC_THREADS`, see
/// [`qcc_perf::resolve_threads`]); each writes only its own row of the
/// distance matrix, so the result is identical for every worker count.
pub fn johnson(g: &DiGraph) -> Result<WeightMatrix, NegativeCycleError> {
    let threads = qcc_perf::resolve_threads(None);
    let n = g.n();
    // Virtual source n with zero-weight arcs to every vertex.
    let mut aug = DiGraph::new(n + 1);
    for (u, v, w) in g.arcs() {
        aug.add_arc(u, v, w);
    }
    for v in 0..n {
        aug.add_arc(n, v, 0);
    }
    let h = bellman_ford(&aug, n)?;
    let mut reweighted = DiGraph::new(n);
    for (u, v, w) in g.arcs() {
        let hu = h[u].finite().expect("virtual source reaches every vertex");
        let hv = h[v].finite().expect("virtual source reaches every vertex");
        reweighted.add_arc(u, v, w + hu - hv);
    }
    let mut dist = WeightMatrix::filled(n, ExtWeight::PosInf);
    let reweighted = &reweighted;
    let h = &h;
    qcc_perf::for_each_row_band(dist.as_mut_slice(), n, threads, |rows, dist_rows| {
        for (bi, u) in rows.enumerate() {
            let du = dijkstra(reweighted, u);
            let hu = h[u].finite().expect("reachable");
            let row = &mut dist_rows[bi * n..(bi + 1) * n];
            for (v, slot) in row.iter_mut().enumerate() {
                *slot = if u == v {
                    ExtWeight::ZERO
                } else {
                    match du[v] {
                        ExtWeight::Finite(x) => {
                            let hv = h[v].finite().expect("reachable");
                            ExtWeight::from(x - hu + hv)
                        }
                        other => other,
                    }
                };
            }
        }
    });
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_reweighted_digraph;
    use crate::matrix::distance_power;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_graph() -> DiGraph {
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1, 1);
        g.add_arc(1, 2, 2);
        g.add_arc(2, 3, 3);
        g
    }

    #[test]
    fn floyd_warshall_on_a_line() {
        let d = floyd_warshall(&line_graph().adjacency_matrix()).unwrap();
        assert_eq!(d[(0, 3)], ExtWeight::from(6));
        assert_eq!(d[(3, 0)], ExtWeight::PosInf);
        assert_eq!(d[(2, 2)], ExtWeight::ZERO);
    }

    #[test]
    fn floyd_warshall_detects_negative_cycle() {
        let mut g = DiGraph::new(3);
        g.add_arc(0, 1, 1);
        g.add_arc(1, 0, -2);
        assert_eq!(
            floyd_warshall(&g.adjacency_matrix()),
            Err(NegativeCycleError)
        );
    }

    #[test]
    fn floyd_warshall_uses_negative_shortcuts() {
        let mut g = DiGraph::new(3);
        g.add_arc(0, 1, 10);
        g.add_arc(0, 2, 1);
        g.add_arc(2, 1, -5);
        let d = floyd_warshall(&g.adjacency_matrix()).unwrap();
        assert_eq!(d[(0, 1)], ExtWeight::from(-4));
    }

    #[test]
    fn bellman_ford_matches_floyd_warshall() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..5 {
            let g = random_reweighted_digraph(9, 0.5, 15, &mut rng);
            let fw = floyd_warshall(&g.adjacency_matrix()).unwrap();
            for src in 0..9 {
                let bf = bellman_ford(&g, src).unwrap();
                for v in 0..9 {
                    assert_eq!(bf[v], fw[(src, v)], "src {src} v {v}");
                }
            }
        }
    }

    #[test]
    fn bellman_ford_detects_reachable_negative_cycle() {
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1, 1);
        g.add_arc(1, 2, -3);
        g.add_arc(2, 1, 1);
        assert_eq!(bellman_ford(&g, 0), Err(NegativeCycleError));
        // unreachable from 3: fine
        assert!(bellman_ford(&g, 3).is_ok());
    }

    #[test]
    fn johnson_matches_floyd_warshall() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..5 {
            let g = random_reweighted_digraph(10, 0.4, 12, &mut rng);
            let fw = floyd_warshall(&g.adjacency_matrix()).unwrap();
            let jo = johnson(&g).unwrap();
            assert_eq!(fw, jo);
        }
    }

    #[test]
    fn johnson_detects_negative_cycle() {
        let mut g = DiGraph::new(2);
        g.add_arc(0, 1, -1);
        g.add_arc(1, 0, -1);
        assert_eq!(johnson(&g), Err(NegativeCycleError));
    }

    #[test]
    fn dijkstra_on_nonnegative_weights() {
        let d = dijkstra(&line_graph(), 0);
        assert_eq!(d[3], ExtWeight::from(6));
        assert_eq!(d[0], ExtWeight::ZERO);
    }

    #[test]
    fn distance_power_matches_floyd_warshall() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = random_reweighted_digraph(8, 0.5, 10, &mut rng);
        let adj = g.adjacency_matrix();
        let fw = floyd_warshall(&adj).unwrap();
        let pow = distance_power(&adj, 7);
        assert_eq!(fw, pow);
    }

    #[test]
    fn error_type_displays() {
        assert!(NegativeCycleError.to_string().contains("negative cycle"));
    }
}
