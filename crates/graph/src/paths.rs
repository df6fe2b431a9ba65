//! Shortest *paths* (not just distances): witness-tracking distance
//! products and path reconstruction.
//!
//! Footnote 1 of the paper: "Using standard techniques, the approach can
//! be adapted to return the shortest paths as well, at a cost of
//! increasing the complexity only by a polylogarithmic factor." The
//! standard technique implemented here is *weight scaling*: replace
//! `A[i,k] + B[k,j]` by `(A[i,k] + B[k,j])·(n+1) + k`; the minimum then
//! encodes both the true minimum (quotient) and a witness `k` achieving it
//! (remainder), at the price of a `log n` blow-up in weight magnitude —
//! exactly the polylog factor the footnote promises.

use crate::matrix::{SquareMatrix, WeightMatrix};
use crate::weight::ExtWeight;

/// A distance product together with a witness matrix: `witness[(i, j)]` is
/// an index `k` attaining `C[i,j] = A[i,k] + B[k,j]` (`None` when
/// `C[i,j] = +∞`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WitnessedProduct {
    /// The distance product `A ⋆ B`.
    pub product: WeightMatrix,
    /// A minimizing inner index per entry.
    pub witness: SquareMatrix<Option<usize>>,
}

/// Sequential distance product with witnesses (the reference the
/// distributed implementation is validated against).
///
/// # Panics
///
/// Panics if dimensions differ.
///
/// # Examples
///
/// ```
/// use qcc_graph::{distance_product_with_witness, ExtWeight, WeightMatrix};
///
/// let a = WeightMatrix::from_fn(2, |i, j| ExtWeight::from((i + j) as i64));
/// let w = distance_product_with_witness(&a, &a);
/// let k = w.witness[(0, 0)].unwrap();
/// // the witness attains the product value
/// assert_eq!(a[(0, k)] + a[(k, 0)], w.product[(0, 0)]);
/// ```
pub fn distance_product_with_witness(a: &WeightMatrix, b: &WeightMatrix) -> WitnessedProduct {
    assert_eq!(a.n(), b.n());
    let n = a.n();
    let mut product = WeightMatrix::filled(n, ExtWeight::PosInf);
    let mut witness = SquareMatrix::filled(n, None);
    for i in 0..n {
        for k in 0..n {
            let aik = a[(i, k)];
            if aik == ExtWeight::PosInf {
                continue;
            }
            for j in 0..n {
                let cand = aik + b[(k, j)];
                if cand < product[(i, j)] {
                    product[(i, j)] = cand;
                    witness[(i, j)] = Some(k);
                }
            }
        }
    }
    WitnessedProduct { product, witness }
}

/// Applies the weight-scaling encoding: `A'[i,k] = A[i,k]·(n+1)` and
/// `B'[k,j] = B[k,j]·(n+1) + k`, so that any plain distance product of the
/// scaled matrices carries a witness in its remainder mod `n+1`.
///
/// Used by the distributed implementation, which can then reuse the plain
/// (witness-free) product machinery end to end. A scaled entry that leaves
/// the `i64` range saturates instead of wrapping, so its magnitude stays
/// above any bound the product checks.
pub fn scale_for_witness(a: &WeightMatrix, b: &WeightMatrix) -> (WeightMatrix, WeightMatrix) {
    assert_eq!(a.n(), b.n());
    let n = a.n();
    let s = (n + 1) as i64;
    let scale = |w: ExtWeight, add: i64| match w {
        ExtWeight::Finite(x) => ExtWeight::Finite(x.saturating_mul(s).saturating_add(add)),
        other => other,
    };
    let a2 = WeightMatrix::from_fn(n, |i, k| scale(a[(i, k)], 0));
    let b2 = WeightMatrix::from_fn(n, |k, j| scale(b[(k, j)], k as i64));
    (a2, b2)
}

/// Decodes a scaled product back into `(plain product, witnesses)`.
///
/// Inverse of [`scale_for_witness`] composed with a distance product:
/// `decode_witness(n, scaled ⋆-product)` recovers the plain product and a
/// minimizing witness per finite entry.
pub fn decode_witness(n: usize, scaled: &WeightMatrix) -> WitnessedProduct {
    let s = (n + 1) as i64;
    let mut product = WeightMatrix::filled(n, ExtWeight::PosInf);
    let mut witness = SquareMatrix::filled(n, None);
    for i in 0..n {
        for j in 0..n {
            if let ExtWeight::Finite(x) = scaled[(i, j)] {
                product[(i, j)] = ExtWeight::Finite(x.div_euclid(s));
                witness[(i, j)] = Some(x.rem_euclid(s) as usize);
            }
        }
    }
    WitnessedProduct { product, witness }
}

/// The witness matrices of a repeated-squaring APSP run, enough to
/// reconstruct an explicit shortest path for every pair.
///
/// Level `l` stores the witnesses of `D_{2^l} = D_{2^{l-1}} ⋆ D_{2^{l-1}}`.
#[derive(Clone, Debug)]
pub struct PathOracle {
    base: WeightMatrix,
    levels: Vec<SquareMatrix<Option<usize>>>,
    distances: WeightMatrix,
}

impl PathOracle {
    /// Builds the oracle by sequential witnessed squaring (reference
    /// implementation; the distributed variant lives in `qcc-apsp`).
    ///
    /// `adjacency` is the `A_G` matrix (0 diagonal).
    pub fn build(adjacency: &WeightMatrix) -> PathOracle {
        let n = adjacency.n();
        let mut current = adjacency.clone();
        let mut levels = Vec::new();
        let mut exponent: u64 = 1;
        while exponent < (n.max(2) as u64) - 1 {
            let w = distance_product_with_witness(&current, &current);
            levels.push(w.witness);
            current = w.product;
            exponent *= 2;
        }
        PathOracle {
            base: adjacency.clone(),
            levels,
            distances: current,
        }
    }

    /// Creates an oracle from externally computed parts (used by the
    /// distributed implementation).
    pub fn from_parts(
        base: WeightMatrix,
        levels: Vec<SquareMatrix<Option<usize>>>,
        distances: WeightMatrix,
    ) -> PathOracle {
        PathOracle {
            base,
            levels,
            distances,
        }
    }

    /// The all-pairs distance matrix.
    pub fn distances(&self) -> &WeightMatrix {
        &self.distances
    }

    /// Reconstructs a shortest path from `u` to `v` as a *simple* vertex
    /// sequence (inclusive of both endpoints). Returns `None` if `v` is
    /// unreachable.
    ///
    /// The path's total weight equals `distances()[(u, v)]` and its length
    /// is at most `n − 1` arcs. Witness expansion can produce walks that
    /// revisit a vertex when the graph has zero-weight cycles; those loops
    /// necessarily carry weight exactly 0 (the walk's total equals the
    /// distance and no cycle is negative), so they are spliced out.
    pub fn path(&self, u: usize, v: usize) -> Option<Vec<usize>> {
        if self.distances[(u, v)] == ExtWeight::PosInf {
            return None;
        }
        let mut vertices = vec![u];
        self.expand(self.levels.len(), u, v, &mut vertices);
        // collapse the self-loop padding introduced by the 0-diagonal
        vertices.dedup();
        // splice out zero-weight loops: keep the first occurrence of each
        // vertex and drop everything walked between repeat visits
        let mut position: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::new();
        let mut simple: Vec<usize> = Vec::with_capacity(vertices.len());
        for x in vertices {
            match position.get(&x) {
                Some(&i) => {
                    for removed in simple.drain(i + 1..) {
                        position.remove(&removed);
                    }
                }
                None => {
                    position.insert(x, simple.len());
                    simple.push(x);
                }
            }
        }
        Some(simple)
    }

    fn expand(&self, level: usize, u: usize, v: usize, out: &mut Vec<usize>) {
        if u == v {
            return;
        }
        if level == 0 {
            debug_assert!(
                self.base[(u, v)].is_finite(),
                "level-0 hop ({u}, {v}) must be an arc or diagonal"
            );
            out.push(v);
            return;
        }
        let mid = self.levels[level - 1][(u, v)].expect("finite entries carry witnesses");
        self.expand(level - 1, u, mid, out);
        self.expand(level - 1, mid, v, out);
    }
}

/// Extracts an explicit negative cycle from a graph that has one, or
/// `None` if none exists. Uses Floyd–Warshall parent tracking.
///
/// The returned cycle lists vertices in order (first ≠ last; the closing
/// arc is implicit) and its total arc weight is negative.
///
/// # Examples
///
/// ```
/// use qcc_graph::{find_negative_cycle, DiGraph};
///
/// let mut g = DiGraph::new(4);
/// g.add_arc(0, 1, 1);
/// g.add_arc(1, 2, -3);
/// g.add_arc(2, 1, 1);
/// let cycle = find_negative_cycle(&g).unwrap();
/// assert!(cycle.contains(&1) && cycle.contains(&2));
/// ```
pub fn find_negative_cycle(g: &crate::digraph::DiGraph) -> Option<Vec<usize>> {
    let n = g.n();
    let mut dist = g.adjacency_matrix();
    let mut next: SquareMatrix<Option<usize>> = SquareMatrix::from_fn(n, |i, j| {
        if i != j && g.weight(i, j).is_finite() {
            Some(j)
        } else {
            None
        }
    });
    for k in 0..n {
        for i in 0..n {
            let dik = dist[(i, k)];
            if dik == ExtWeight::PosInf {
                continue;
            }
            for j in 0..n {
                let cand = dik + dist[(k, j)];
                if cand < dist[(i, j)] {
                    dist[(i, j)] = cand;
                    next[(i, j)] = next[(i, k)];
                }
            }
        }
    }
    let start = (0..n).find(|&i| dist[(i, i)] < ExtWeight::ZERO)?;
    // walk successor pointers from `start` back to itself; to guarantee a
    // *simple* cycle, walk until a repeat and cut there.
    let mut seen = vec![usize::MAX; n];
    let mut walk = Vec::new();
    let mut cur = start;
    loop {
        if seen[cur] != usize::MAX {
            let cycle: Vec<usize> = walk[seen[cur]..].to_vec();
            return Some(cycle);
        }
        seen[cur] = walk.len();
        walk.push(cur);
        cur = next[(cur, start)].expect("negative diagonal implies a pointer");
    }
}

/// Total arc weight of a vertex cycle (closing arc included).
///
/// # Panics
///
/// Panics if any consecutive pair (or the closing pair) is not an arc.
pub fn cycle_weight(g: &crate::digraph::DiGraph, cycle: &[usize]) -> i64 {
    assert!(!cycle.is_empty());
    let mut total = 0;
    for w in cycle.windows(2) {
        total += g
            .weight(w[0], w[1])
            .finite()
            .expect("cycle edge must exist");
    }
    total += g
        .weight(*cycle.last().expect("nonempty"), cycle[0])
        .finite()
        .expect("closing edge must exist");
    total
}

/// Total arc weight of a path (vertex sequence), `None` if some hop is
/// missing.
pub fn path_weight(g: &crate::digraph::DiGraph, path: &[usize]) -> Option<i64> {
    let mut total = 0;
    for w in path.windows(2) {
        total += g.weight(w[0], w[1]).finite()?;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp_ref::floyd_warshall;
    use crate::digraph::DiGraph;
    use crate::generators::random_reweighted_digraph;
    use crate::matrix::distance_product;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn witnesses_attain_the_product() {
        let mut rng = StdRng::seed_from_u64(501);
        for _ in 0..5 {
            let g = random_reweighted_digraph(7, 0.5, 6, &mut rng);
            let a = g.adjacency_matrix();
            let w = distance_product_with_witness(&a, &a);
            assert_eq!(w.product, distance_product(&a, &a));
            for i in 0..7 {
                for j in 0..7 {
                    if let Some(k) = w.witness[(i, j)] {
                        assert_eq!(a[(i, k)] + a[(k, j)], w.product[(i, j)]);
                    } else {
                        assert_eq!(w.product[(i, j)], ExtWeight::PosInf);
                    }
                }
            }
        }
    }

    #[test]
    fn scaling_round_trips_with_witnesses() {
        let mut rng = StdRng::seed_from_u64(502);
        let g = random_reweighted_digraph(8, 0.5, 5, &mut rng);
        let a = g.adjacency_matrix();
        let (a2, b2) = scale_for_witness(&a, &a);
        let scaled = distance_product(&a2, &b2);
        let decoded = decode_witness(8, &scaled);
        assert_eq!(decoded.product, distance_product(&a, &a));
        for i in 0..8 {
            for j in 0..8 {
                if let Some(k) = decoded.witness[(i, j)] {
                    assert_eq!(a[(i, k)] + a[(k, j)], decoded.product[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn paths_match_distances_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(503);
        for trial in 0..5 {
            let g = random_reweighted_digraph(9, 0.4, 6, &mut rng);
            let adj = g.adjacency_matrix();
            let oracle = PathOracle::build(&adj);
            let fw = floyd_warshall(&adj).unwrap();
            assert_eq!(oracle.distances(), &fw, "trial {trial}");
            for u in 0..9 {
                for v in 0..9 {
                    match oracle.path(u, v) {
                        Some(path) => {
                            assert_eq!(path[0], u);
                            assert_eq!(*path.last().unwrap(), v);
                            assert!(path.len() <= 9);
                            if u != v {
                                let w = path_weight(&g, &path).expect("valid hops");
                                assert_eq!(ExtWeight::from(w), fw[(u, v)], "({u},{v})");
                            }
                        }
                        None => assert_eq!(fw[(u, v)], ExtWeight::PosInf),
                    }
                }
            }
        }
    }

    #[test]
    fn zero_weight_cycles_do_not_inflate_paths() {
        // regression (proptest seed 79): zero-weight cycles let witness
        // expansion emit non-simple walks; path() must splice them out
        let mut rng = StdRng::seed_from_u64(79);
        let g = random_reweighted_digraph(6, 0.5, 5, &mut rng);
        let oracle = PathOracle::build(&g.adjacency_matrix());
        let fw = floyd_warshall(&g.adjacency_matrix()).unwrap();
        for u in 0..6 {
            for v in 0..6 {
                if let Some(p) = oracle.path(u, v) {
                    assert!(p.len() <= 6, "({u},{v}): {p:?}");
                    let mut sorted = p.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(sorted.len(), p.len(), "({u},{v}): not simple: {p:?}");
                    if u != v {
                        let w = path_weight(&g, &p).expect("valid hops");
                        assert_eq!(ExtWeight::from(w), fw[(u, v)]);
                    }
                }
            }
        }
    }

    #[test]
    fn trivial_paths_are_single_vertices() {
        let g = DiGraph::new(4);
        let oracle = PathOracle::build(&g.adjacency_matrix());
        assert_eq!(oracle.path(2, 2), Some(vec![2]));
        assert_eq!(oracle.path(0, 3), None);
    }

    #[test]
    fn negative_cycle_extraction_returns_a_real_cycle() {
        let mut g = DiGraph::new(5);
        g.add_arc(0, 1, 2);
        g.add_arc(1, 2, -1);
        g.add_arc(2, 3, -1);
        g.add_arc(3, 1, 1);
        let cycle = find_negative_cycle(&g).expect("1->2->3->1 is negative");
        assert!(cycle_weight(&g, &cycle) < 0, "cycle {cycle:?}");
        // the cycle is simple
        let mut sorted = cycle.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), cycle.len());
    }

    #[test]
    fn acyclic_graphs_have_no_negative_cycle() {
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1, -5);
        g.add_arc(1, 2, -5);
        g.add_arc(2, 3, -5);
        assert_eq!(find_negative_cycle(&g), None);
    }

    #[test]
    fn negative_self_reachable_cycle_found_in_random_graphs() {
        // plant a negative cycle in an otherwise positive random graph
        let mut rng = StdRng::seed_from_u64(504);
        let mut g = crate::generators::random_nonneg_digraph(10, 0.4, 9, &mut rng);
        g.add_arc(4, 7, -6);
        g.add_arc(7, 4, 2);
        let cycle = find_negative_cycle(&g).expect("planted cycle");
        assert!(cycle_weight(&g, &cycle) < 0);
    }
}
