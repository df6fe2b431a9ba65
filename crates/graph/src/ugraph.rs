//! Undirected weighted graphs and the negative-triangle census.
//!
//! `FindEdges` (Section 3 of the paper) operates on an undirected weighted
//! graph `G = (V, E, f)`: a triple `{u, v, w}` is a *negative triangle* if
//! all three edges exist and `f(u,v) + f(u,w) + f(v,w) < 0`. The quantity
//! `Γ(u, v)` counts the negative triangles through the pair `{u, v}`. This
//! module provides the graph type plus exhaustive `O(n³)` reference
//! procedures that the distributed algorithms are validated against.

use crate::matrix::SquareMatrix;
use crate::weight::ExtWeight;

/// An undirected weighted graph on vertices `0..n` without self-loops.
///
/// # Examples
///
/// ```
/// use qcc_graph::{ExtWeight, UGraph};
///
/// let mut g = UGraph::new(3);
/// g.add_edge(0, 1, -4);
/// assert_eq!(g.weight(1, 0), ExtWeight::from(-4)); // symmetric
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UGraph {
    weights: SquareMatrix<ExtWeight>,
}

impl UGraph {
    /// Creates an edgeless undirected graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        UGraph {
            weights: SquareMatrix::filled(n, ExtWeight::PosInf),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.weights.n()
    }

    /// Adds (or overwrites) the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, weight: i64) {
        assert_ne!(u, v, "self-loops are not allowed");
        self.weights[(u, v)] = ExtWeight::from(weight);
        self.weights[(v, u)] = ExtWeight::from(weight);
    }

    /// Removes the edge `{u, v}` if present.
    pub fn remove_edge(&mut self, u: usize, v: usize) {
        self.weights[(u, v)] = ExtWeight::PosInf;
        self.weights[(v, u)] = ExtWeight::PosInf;
    }

    /// Weight of edge `{u, v}`, `PosInf` if absent.
    pub fn weight(&self, u: usize, v: usize) -> ExtWeight {
        if u == v {
            ExtWeight::PosInf
        } else {
            self.weights[(u, v)]
        }
    }

    /// Whether the edge `{u, v}` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u != v && self.weights[(u, v)].is_finite()
    }

    /// Number of (undirected) edges.
    pub fn edge_count(&self) -> usize {
        self.edges().count()
    }

    /// Iterates over edges as `(u, v, weight)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, i64)> + '_ {
        self.weights.entries().filter_map(|(i, j, &w)| {
            if i < j {
                w.finite().map(|x| (i, j, x))
            } else {
                None
            }
        })
    }

    /// The neighbor set `N_G(u)` as `(v, weight)` pairs.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, i64)> + '_ {
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

    /// Whether `{u, v, w}` forms a negative triangle (Definition 1).
    pub fn is_negative_triangle(&self, u: usize, v: usize, w: usize) -> bool {
        if u == v || u == w || v == w {
            return false;
        }
        match (
            self.weight(u, v).finite(),
            self.weight(u, w).finite(),
            self.weight(v, w).finite(),
        ) {
            (Some(a), Some(b), Some(c)) => a + b + c < 0,
            _ => false,
        }
    }

    /// Whether some `w` in `block` completes a negative triangle with the
    /// pair `{u, v}`: `block.any(|w| self.is_negative_triangle(u, v, w))`,
    /// with the two endpoints' weight rows read once instead of three
    /// lookups per apex.
    ///
    /// # Examples
    ///
    /// ```
    /// use qcc_graph::UGraph;
    ///
    /// let mut g = UGraph::new(4);
    /// g.add_edge(0, 1, -5);
    /// g.add_edge(0, 3, 2);
    /// g.add_edge(1, 3, 2);
    /// assert!(g.has_negative_apex(0, 1, 2..4));
    /// assert!(!g.has_negative_apex(0, 1, 0..3)); // vertex 2 is no apex
    /// ```
    pub fn has_negative_apex(&self, u: usize, v: usize, block: std::ops::Range<usize>) -> bool {
        if block.is_empty() {
            return false;
        }
        let Some(a) = self.weight(u, v).finite() else {
            return false;
        };
        // The diagonal is never finite, so `w ∈ {u, v}` completes nothing.
        let (from_u, from_v) = (self.weights.row(u), self.weights.row(v));
        from_u[block.clone()]
            .iter()
            .zip(&from_v[block])
            .any(|(&b, &c)| match (b.finite(), c.finite()) {
                (Some(b), Some(c)) => a + b + c < 0,
                _ => false,
            })
    }

    /// `Γ(u, v)`: the number of negative triangles through the pair `{u, v}`.
    ///
    /// Reference implementation in `O(n)` time per pair.
    pub fn gamma(&self, u: usize, v: usize) -> usize {
        (0..self.n())
            .filter(|&w| self.is_negative_triangle(u, v, w))
            .count()
    }

    /// The matrix of all `Γ(u, v)` values (`O(n³)` reference census).
    pub fn gamma_matrix(&self) -> SquareMatrix<usize> {
        let n = self.n();
        let mut gamma = SquareMatrix::filled(n, 0usize);
        for u in 0..n {
            for v in (u + 1)..n {
                let g = self.gamma(u, v);
                gamma[(u, v)] = g;
                gamma[(v, u)] = g;
            }
        }
        gamma
    }

    /// All pairs `{u, v}` (as `u < v`) involved in at least one negative
    /// triangle — the exact answer of `FindEdges`.
    pub fn negative_triangle_pairs(&self) -> Vec<(usize, usize)> {
        let gamma = self.gamma_matrix();
        let mut pairs = Vec::new();
        for u in 0..self.n() {
            for v in (u + 1)..self.n() {
                if gamma[(u, v)] > 0 {
                    pairs.push((u, v));
                }
            }
        }
        pairs
    }

    /// Lists all negative triangles as sorted triples.
    pub fn negative_triangles(&self) -> Vec<(usize, usize, usize)> {
        let n = self.n();
        let mut out = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                for w in (v + 1)..n {
                    if self.is_negative_triangle(u, v, w) {
                        out.push((u, v, w));
                    }
                }
            }
        }
        out
    }

    /// Keeps each edge independently with probability `p`, returning the
    /// sampled subgraph (used by the Proposition 1 reduction).
    pub fn sample_edges<R: rand::Rng>(&self, p: f64, rng: &mut R) -> UGraph {
        let mut g = UGraph::new(self.n());
        for (u, v, w) in self.edges() {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(u, v, w);
            }
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn triangle(a: i64, b: i64, c: i64) -> UGraph {
        let mut g = UGraph::new(3);
        g.add_edge(0, 1, a);
        g.add_edge(0, 2, b);
        g.add_edge(1, 2, c);
        g
    }

    #[test]
    fn edges_are_symmetric() {
        let mut g = UGraph::new(4);
        g.add_edge(3, 1, 9);
        assert_eq!(g.weight(1, 3), ExtWeight::from(9));
        assert!(g.has_edge(3, 1) && g.has_edge(1, 3));
    }

    #[test]
    fn negative_triangle_detection_matches_definition() {
        assert!(triangle(-1, -1, -1).is_negative_triangle(0, 1, 2));
        assert!(triangle(-5, 2, 2).is_negative_triangle(2, 0, 1)); // order-insensitive
        assert!(!triangle(1, 1, -2).is_negative_triangle(0, 1, 2)); // sum 0 is not negative
        assert!(!triangle(1, 1, 1).is_negative_triangle(0, 1, 2));
    }

    #[test]
    fn missing_edge_breaks_triangle() {
        let mut g = triangle(-10, -10, -10);
        g.remove_edge(0, 2);
        assert!(!g.is_negative_triangle(0, 1, 2));
        assert_eq!(g.gamma(0, 1), 0);
    }

    #[test]
    fn gamma_counts_all_apexes() {
        // book: pair {0,1} with heavy negative edge, apexes 2, 3, 4
        let mut g = UGraph::new(5);
        g.add_edge(0, 1, -10);
        for w in 2..5 {
            g.add_edge(0, w, 4);
            g.add_edge(1, w, 4);
        }
        assert_eq!(g.gamma(0, 1), 3);
        // each apex pair {0,w} sits in exactly one negative triangle (0,w,1)
        assert_eq!(g.gamma(0, 2), 1);
        assert_eq!(g.gamma(2, 1), 1);
        assert_eq!(g.gamma(2, 3), 0);
    }

    #[test]
    fn census_and_pairs_agree() {
        let mut g = UGraph::new(6);
        g.add_edge(0, 1, -10);
        g.add_edge(0, 2, 4);
        g.add_edge(1, 2, 4);
        g.add_edge(3, 4, 100);
        let pairs = g.negative_triangle_pairs();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(g.negative_triangles(), vec![(0, 1, 2)]);
        let gamma = g.gamma_matrix();
        assert_eq!(gamma[(0, 1)], 1);
        assert_eq!(gamma[(3, 4)], 0);
    }

    #[test]
    fn degenerate_triples_are_never_triangles() {
        let g = triangle(-5, -5, -5);
        assert!(!g.is_negative_triangle(0, 0, 1));
        assert!(!g.is_negative_triangle(2, 1, 1));
    }

    #[test]
    fn sampling_with_p_one_keeps_everything() {
        let g = triangle(-1, 2, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let s = g.sample_edges(1.0, &mut rng);
        assert_eq!(s, g);
    }

    #[test]
    fn sampling_with_p_zero_removes_everything() {
        let g = triangle(-1, 2, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let s = g.sample_edges(0.0, &mut rng);
        assert_eq!(s.edge_count(), 0);
    }
}
