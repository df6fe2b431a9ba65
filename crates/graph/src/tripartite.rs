//! The Vassilevska Williams–Williams tripartite construction.
//!
//! Proposition 2 of the paper reduces the distance product `A ⋆ B` to
//! finding the edges involved in negative triangles: build the undirected
//! tripartite graph on `I ∪ J ∪ K` (each a copy of `[n]`) with
//!
//! * `f(i, k) = A[i, k]` for `(i, k) ∈ I × K`,
//! * `f(j, k) = B[k, j]` for `(j, k) ∈ J × K`,
//! * `f(i, j) = −D[i, j]` for `(i, j) ∈ I × J`,
//!
//! so that `{i, j, k}` is a negative triangle iff `A[i,k] + B[k,j] < D[i,j]`,
//! and the pair `{i, j}` sits in a negative triangle iff
//! `(A ⋆ B)[i, j] < D[i, j]`. A binary search over the entries of `D`
//! (Proposition 2's outer loop, implemented in `qcc-apsp`) then pins down
//! every entry of the product.

use crate::matrix::{SquareMatrix, WeightMatrix};
use crate::ugraph::UGraph;
use crate::weight::ExtWeight;

/// Vertex layout of the tripartite graph: `I = 0..n`, `J = n..2n`, `K = 2n..3n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TripartiteLayout {
    /// Side length of the matrices involved.
    pub n: usize,
}

impl TripartiteLayout {
    /// Creates the layout for `n × n` matrices.
    pub fn new(n: usize) -> Self {
        TripartiteLayout { n }
    }

    /// Total number of vertices (`3n`).
    pub fn vertex_count(&self) -> usize {
        3 * self.n
    }

    /// Vertex id of `i ∈ I`.
    pub fn i_vertex(&self, i: usize) -> usize {
        debug_assert!(i < self.n);
        i
    }

    /// Vertex id of `j ∈ J`.
    pub fn j_vertex(&self, j: usize) -> usize {
        debug_assert!(j < self.n);
        self.n + j
    }

    /// Vertex id of `k ∈ K`.
    pub fn k_vertex(&self, k: usize) -> usize {
        debug_assert!(k < self.n);
        2 * self.n + k
    }

    /// Decodes a vertex id into its side and index.
    pub fn decode(&self, v: usize) -> TripartiteVertex {
        match v / self.n {
            0 => TripartiteVertex::I(v),
            1 => TripartiteVertex::J(v - self.n),
            2 => TripartiteVertex::K(v - 2 * self.n),
            _ => panic!("vertex {v} out of range for layout n={}", self.n),
        }
    }

    /// Extracts the `(i, j)` matrix coordinates from a vertex pair, if the
    /// pair spans `I × J`.
    pub fn as_ij_pair(&self, u: usize, v: usize) -> Option<(usize, usize)> {
        match (self.decode(u), self.decode(v)) {
            (TripartiteVertex::I(i), TripartiteVertex::J(j))
            | (TripartiteVertex::J(j), TripartiteVertex::I(i)) => Some((i, j)),
            _ => None,
        }
    }
}

/// A vertex of the tripartite graph, tagged by its side.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TripartiteVertex {
    /// Row side (`i` of `C[i,j]`).
    I(usize),
    /// Column side (`j` of `C[i,j]`).
    J(usize),
    /// Inner-dimension side (`k` of the min over `A[i,k] + B[k,j]`).
    K(usize),
}

/// Builds the tripartite negative-triangle graph for matrices `A`, `B` and
/// threshold matrix `D`.
///
/// Entries `+∞` in `A`/`B` yield absent edges (they can never witness the
/// minimum); entries `−∞` are mapped to a finite surrogate low enough to
/// make any triangle through them negative.
///
/// # Panics
///
/// Panics if the dimensions of `A`, `B`, `D` differ.
///
/// # Examples
///
/// ```
/// use qcc_graph::{build_tripartite, ExtWeight, SquareMatrix, WeightMatrix};
///
/// let a = WeightMatrix::from_fn(2, |_, _| ExtWeight::from(1));
/// let b = WeightMatrix::from_fn(2, |_, _| ExtWeight::from(1));
/// let d = SquareMatrix::filled(2, 3i64);
/// let (g, layout) = build_tripartite(&a, &b, &d);
/// // A[i,k] + B[k,j] = 2 < 3 = D[i,j]: every (i, j, k) is a negative triangle
/// assert!(g.is_negative_triangle(layout.i_vertex(0), layout.j_vertex(0), layout.k_vertex(1)));
/// ```
pub fn build_tripartite(
    a: &WeightMatrix,
    b: &WeightMatrix,
    d: &SquareMatrix<i64>,
) -> (UGraph, TripartiteLayout) {
    assert_eq!(a.n(), b.n());
    assert_eq!(a.n(), d.n());
    let n = a.n();
    let layout = TripartiteLayout::new(n);
    // Surrogate for -inf: beyond any achievable finite triangle sum. Near
    // the distance product's magnitude bound 3·max + 1 leaves i64, so it
    // saturates; only -inf entries read it.
    let max_mag = a.max_finite_magnitude_with(b).max(
        d.entries()
            .map(|(_, _, &x)| x.unsigned_abs())
            .max()
            .unwrap_or(0),
    ) as i64;
    let neg_surrogate = -max_mag.saturating_mul(3).saturating_add(1);
    let finite = |w: ExtWeight| -> Option<i64> {
        match w {
            ExtWeight::Finite(x) => Some(x),
            ExtWeight::NegInf => Some(neg_surrogate),
            ExtWeight::PosInf => None,
        }
    };
    let mut g = UGraph::new(layout.vertex_count());
    for i in 0..n {
        for k in 0..n {
            if let Some(x) = finite(a[(i, k)]) {
                g.add_edge(layout.i_vertex(i), layout.k_vertex(k), x);
            }
        }
    }
    for j in 0..n {
        for k in 0..n {
            if let Some(x) = finite(b[(k, j)]) {
                g.add_edge(layout.j_vertex(j), layout.k_vertex(k), x);
            }
        }
    }
    for i in 0..n {
        for j in 0..n {
            g.add_edge(layout.i_vertex(i), layout.j_vertex(j), -d[(i, j)]);
        }
    }
    (g, layout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::distance_product;

    fn small_instance() -> (WeightMatrix, WeightMatrix, SquareMatrix<i64>) {
        let a = WeightMatrix::from_fn(3, |i, k| ExtWeight::from((i as i64) - (k as i64) + 1));
        let b = WeightMatrix::from_fn(3, |k, j| ExtWeight::from((k as i64) * (j as i64) - 2));
        let d = SquareMatrix::from_fn(3, |i, j| (i + j) as i64);
        (a, b, d)
    }

    #[test]
    fn layout_indices_partition_vertices() {
        let layout = TripartiteLayout::new(4);
        assert_eq!(layout.vertex_count(), 12);
        assert_eq!(layout.decode(layout.i_vertex(2)), TripartiteVertex::I(2));
        assert_eq!(layout.decode(layout.j_vertex(0)), TripartiteVertex::J(0));
        assert_eq!(layout.decode(layout.k_vertex(3)), TripartiteVertex::K(3));
    }

    #[test]
    fn ij_pair_extraction_ignores_other_sides() {
        let layout = TripartiteLayout::new(2);
        assert_eq!(
            layout.as_ij_pair(layout.i_vertex(1), layout.j_vertex(0)),
            Some((1, 0))
        );
        assert_eq!(
            layout.as_ij_pair(layout.j_vertex(0), layout.i_vertex(1)),
            Some((1, 0))
        );
        assert_eq!(
            layout.as_ij_pair(layout.i_vertex(1), layout.k_vertex(0)),
            None
        );
    }

    #[test]
    fn negative_triangles_characterize_product_threshold() {
        let (a, b, d) = small_instance();
        let (g, layout) = build_tripartite(&a, &b, &d);
        let c = distance_product(&a, &b);
        for i in 0..3 {
            for j in 0..3 {
                let in_triangle = (0..3).any(|k| {
                    g.is_negative_triangle(
                        layout.i_vertex(i),
                        layout.j_vertex(j),
                        layout.k_vertex(k),
                    )
                });
                let expected = c[(i, j)] < ExtWeight::from(d[(i, j)]);
                assert_eq!(in_triangle, expected, "pair ({i}, {j})");
            }
        }
    }

    #[test]
    fn pos_inf_entries_produce_no_edges() {
        let mut a = WeightMatrix::filled(2, ExtWeight::PosInf);
        a[(0, 0)] = ExtWeight::from(0);
        let b = WeightMatrix::filled(2, ExtWeight::PosInf);
        let d = SquareMatrix::filled(2, 100i64);
        let (g, layout) = build_tripartite(&a, &b, &d);
        // only one I-K edge plus the I-J clique edges exist
        assert!(g.has_edge(layout.i_vertex(0), layout.k_vertex(0)));
        assert!(!g.has_edge(layout.i_vertex(0), layout.k_vertex(1)));
        assert!(!g.has_edge(layout.j_vertex(0), layout.k_vertex(0)));
        // no K-side witness: no negative triangles at all
        assert!(g.negative_triangles().is_empty());
    }

    #[test]
    fn neg_inf_entries_force_negative_triangles() {
        let mut a = WeightMatrix::filled(2, ExtWeight::from(5));
        a[(0, 1)] = ExtWeight::NegInf;
        let b = WeightMatrix::filled(2, ExtWeight::from(5));
        let d = SquareMatrix::filled(2, 0i64);
        let (g, layout) = build_tripartite(&a, &b, &d);
        // A[0,1] = -inf makes (i=0, j, k=1) negative for every j
        assert!(g.is_negative_triangle(layout.i_vertex(0), layout.j_vertex(0), layout.k_vertex(1)));
        assert!(g.is_negative_triangle(layout.i_vertex(0), layout.j_vertex(1), layout.k_vertex(1)));
    }

    #[test]
    fn no_triangles_within_one_side() {
        let (a, b, d) = small_instance();
        let (g, layout) = build_tripartite(&a, &b, &d);
        // I-I pairs have no edge
        assert!(!g.has_edge(layout.i_vertex(0), layout.i_vertex(1)));
        assert!(!g.has_edge(layout.k_vertex(0), layout.k_vertex(2)));
    }
}
