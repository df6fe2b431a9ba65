//! Weighted directed graphs — the input of the APSP problem.

use crate::matrix::WeightMatrix;
use crate::weight::ExtWeight;

/// A weighted directed graph on vertices `0..n` without self-loops.
///
/// Stored densely as a weight matrix: `weight(i, j) = PosInf` means the arc
/// `(i, j)` is absent. The diagonal is fixed at `0` in the adjacency-matrix
/// view (`A_G[i,i] = 0`, as in Section 3 of the paper).
///
/// # Examples
///
/// ```
/// use qcc_graph::{DiGraph, ExtWeight};
///
/// let mut g = DiGraph::new(3);
/// g.add_arc(0, 1, 4);
/// g.add_arc(1, 2, -1);
/// assert_eq!(g.weight(0, 1), ExtWeight::from(4));
/// assert_eq!(g.weight(1, 0), ExtWeight::PosInf);
/// assert_eq!(g.arc_count(), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiGraph {
    weights: WeightMatrix,
}

impl DiGraph {
    /// Creates an arcless directed graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        DiGraph {
            weights: WeightMatrix::filled(n, ExtWeight::PosInf),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.weights.n()
    }

    /// Adds (or overwrites) the arc `(u, v)` with the given weight.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loops are excluded by the problem statement)
    /// or if either endpoint is out of range.
    pub fn add_arc(&mut self, u: usize, v: usize, weight: i64) {
        assert_ne!(u, v, "self-loops are not allowed");
        self.weights[(u, v)] = ExtWeight::from(weight);
    }

    /// Removes the arc `(u, v)` if present.
    pub fn remove_arc(&mut self, u: usize, v: usize) {
        self.weights[(u, v)] = ExtWeight::PosInf;
    }

    /// Weight of the arc `(u, v)`, `PosInf` if absent.
    pub fn weight(&self, u: usize, v: usize) -> ExtWeight {
        if u == v {
            ExtWeight::PosInf
        } else {
            self.weights[(u, v)]
        }
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.weights
            .entries()
            .filter(|&(i, j, &w)| i != j && w.is_finite())
            .count()
    }

    /// Iterates over arcs as `(u, v, weight)`.
    pub fn arcs(&self) -> impl Iterator<Item = (usize, usize, i64)> + '_ {
        self.weights.entries().filter_map(|(i, j, &w)| {
            if i == j {
                None
            } else {
                w.finite().map(|x| (i, j, x))
            }
        })
    }

    /// The weight table: `+∞` for absent arcs and on the diagonal.
    pub(crate) fn weights(&self) -> &WeightMatrix {
        &self.weights
    }

    /// The out-neighborhood row of vertex `u`: `(v, weight)` pairs.
    pub fn out_neighbors(&self, u: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.weights
            .row(u)
            .iter()
            .enumerate()
            .filter_map(move |(v, &w)| {
                if v != u {
                    w.finite().map(|x| (v, x))
                } else {
                    None
                }
            })
    }

    /// Largest absolute arc weight (the `W` of "weights in `{−W..W}`").
    pub fn weight_magnitude(&self) -> u64 {
        self.weights.max_finite_magnitude()
    }

    /// The adjacency matrix `A_G` of Section 3: `0` on the diagonal, arc
    /// weights off-diagonal, `+∞` for absent arcs.
    pub fn adjacency_matrix(&self) -> WeightMatrix {
        WeightMatrix::from_fn(self.n(), |i, j| {
            if i == j {
                ExtWeight::ZERO
            } else {
                self.weights[(i, j)]
            }
        })
    }

    /// Builds a graph from an adjacency matrix view (inverse of
    /// [`DiGraph::adjacency_matrix`]; diagonal entries are ignored).
    pub fn from_adjacency_matrix(m: &WeightMatrix) -> Self {
        let mut g = DiGraph::new(m.n());
        for (i, j, &w) in m.entries() {
            if i != j {
                if let Some(x) = w.finite() {
                    g.add_arc(i, j, x);
                }
            }
        }
        g
    }

    /// Builds a graph from an arc list.
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints.
    ///
    /// # Examples
    ///
    /// ```
    /// use qcc_graph::DiGraph;
    ///
    /// let g = DiGraph::from_arcs(3, [(0, 1, 5), (1, 2, -1)]);
    /// assert_eq!(g.arc_count(), 2);
    /// ```
    pub fn from_arcs(n: usize, arcs: impl IntoIterator<Item = (usize, usize, i64)>) -> Self {
        let mut g = DiGraph::new(n);
        for (u, v, w) in arcs {
            g.add_arc(u, v, w);
        }
        g
    }

    /// The transpose graph: every arc `(u, v)` becomes `(v, u)`.
    ///
    /// Distances in the transpose are the reversed distances, so a
    /// single-source run on the transpose yields single-*destination*
    /// distances in the original.
    pub fn transpose(&self) -> DiGraph {
        let mut g = DiGraph::new(self.n());
        for (u, v, w) in self.arcs() {
            g.add_arc(v, u, w);
        }
        g
    }

    /// The subgraph induced by `vertices` (relabelled `0..vertices.len()`
    /// in the given order).
    ///
    /// # Panics
    ///
    /// Panics if `vertices` contains duplicates or out-of-range ids.
    pub fn induced(&self, vertices: &[usize]) -> DiGraph {
        let mut g = DiGraph::new(vertices.len());
        for (i, &u) in vertices.iter().enumerate() {
            for (j, &v) in vertices.iter().enumerate() {
                if i != j {
                    assert!(u != v, "duplicate vertex {u} in induced set");
                    if let Some(w) = self.weight(u, v).finite() {
                        g.add_arc(i, j, w);
                    }
                }
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_graph_has_no_arcs() {
        let g = DiGraph::new(4);
        assert_eq!(g.arc_count(), 0);
        assert_eq!(g.n(), 4);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_is_rejected() {
        DiGraph::new(3).add_arc(1, 1, 0);
    }

    #[test]
    fn arcs_are_directed() {
        let mut g = DiGraph::new(3);
        g.add_arc(0, 2, 7);
        assert_eq!(g.weight(0, 2), ExtWeight::from(7));
        assert_eq!(g.weight(2, 0), ExtWeight::PosInf);
    }

    #[test]
    fn remove_arc_restores_infinity() {
        let mut g = DiGraph::new(3);
        g.add_arc(0, 1, -2);
        g.remove_arc(0, 1);
        assert_eq!(g.weight(0, 1), ExtWeight::PosInf);
        assert_eq!(g.arc_count(), 0);
    }

    #[test]
    fn adjacency_matrix_round_trips() {
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1, 3);
        g.add_arc(2, 3, -5);
        g.add_arc(3, 0, 11);
        let m = g.adjacency_matrix();
        assert_eq!(m[(0, 0)], ExtWeight::ZERO);
        assert_eq!(m[(0, 1)], ExtWeight::from(3));
        assert_eq!(DiGraph::from_adjacency_matrix(&m), g);
    }

    #[test]
    fn out_neighbors_lists_finite_arcs() {
        let mut g = DiGraph::new(3);
        g.add_arc(1, 0, 2);
        g.add_arc(1, 2, 4);
        let neigh: Vec<_> = g.out_neighbors(1).collect();
        assert_eq!(neigh, vec![(0, 2), (2, 4)]);
    }

    #[test]
    fn weight_magnitude_tracks_extremes() {
        let mut g = DiGraph::new(3);
        g.add_arc(0, 1, -9);
        g.add_arc(1, 2, 4);
        assert_eq!(g.weight_magnitude(), 9);
    }

    #[test]
    fn from_arcs_round_trips_with_arcs() {
        let g = DiGraph::from_arcs(5, [(0, 1, 2), (3, 4, -7), (4, 0, 9)]);
        let collected: Vec<_> = g.arcs().collect();
        assert_eq!(collected, vec![(0, 1, 2), (3, 4, -7), (4, 0, 9)]);
    }

    #[test]
    fn transpose_reverses_every_arc() {
        let g = DiGraph::from_arcs(4, [(0, 1, 2), (1, 3, -1), (3, 0, 5)]);
        let t = g.transpose();
        assert_eq!(t.weight(1, 0), ExtWeight::from(2));
        assert_eq!(t.weight(3, 1), ExtWeight::from(-1));
        assert_eq!(t.weight(0, 1), ExtWeight::PosInf);
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let g = DiGraph::from_arcs(5, [(0, 2, 1), (2, 4, 3), (4, 0, 5), (1, 3, 9)]);
        let sub = g.induced(&[0, 2, 4]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.weight(0, 1), ExtWeight::from(1)); // 0 -> 2
        assert_eq!(sub.weight(1, 2), ExtWeight::from(3)); // 2 -> 4
        assert_eq!(sub.weight(2, 0), ExtWeight::from(5)); // 4 -> 0
        assert_eq!(sub.arc_count(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn induced_rejects_duplicates() {
        let g = DiGraph::new(3);
        let _ = g.induced(&[0, 0]);
    }

    #[test]
    fn arcs_iterator_matches_count() {
        let mut g = DiGraph::new(5);
        g.add_arc(0, 4, 1);
        g.add_arc(4, 0, 1);
        g.add_arc(2, 3, 1);
        assert_eq!(g.arcs().count(), g.arc_count());
    }
}
