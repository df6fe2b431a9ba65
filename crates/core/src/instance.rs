//! A `FindEdgesWithPromise` instance with its derived partitions and labelings.

use crate::params::Params;
use crate::problem::PairSet;
use qcc_graph::{PaperPartitions, TripleLabeling, UGraph};

/// An instance of `FindEdgesWithPromise`: the graph, the pair set `S`, the
/// constants, and the Section 5.1 partitions/labelings derived from `n`.
///
/// The network size equals the vertex count (the standard identification of
/// graph vertices with network nodes; callers running on *virtual* networks
/// — e.g. the `3n`-vertex tripartite reduction — create a `Clique(3n)` and
/// account the constant simulation factor at the top level, see
/// `DESIGN.md`).
#[derive(Clone, Debug)]
pub struct Instance<'a> {
    /// The undirected weighted graph.
    pub graph: &'a UGraph,
    /// The pair set `S` the output is restricted to.
    pub s: &'a PairSet,
    /// Algorithm constants.
    pub params: Params,
    /// The coarse (`V`) and fine (`V'`) partitions.
    pub parts: PaperPartitions,
    /// The `T = V × V × V'` labeling (gathering nodes).
    pub triples: TripleLabeling,
    /// The `V × V × [√n]` labeling (search nodes): the same `q × q × s`
    /// labeling as `triples`, read as `(u, v, x)`.
    pub searches: TripleLabeling,
    /// Largest edge-weight magnitude (see [`Instance::weight_magnitude`]).
    weight_magnitude: u64,
    /// Dense `S`-membership mask at `u · n + v` (both orientations).
    s_mask: Vec<bool>,
}

impl<'a> Instance<'a> {
    /// Builds the instance and its labelings.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty.
    pub fn new(graph: &'a UGraph, s: &'a PairSet, params: Params) -> Self {
        let n = graph.n();
        assert!(n > 0, "empty graph");
        let parts = PaperPartitions::new(n);
        let triples = TripleLabeling::new(&parts, n);
        let searches = triples.clone();
        let weight_magnitude = graph
            .edges()
            .map(|(_, _, w)| w.unsigned_abs())
            .max()
            .unwrap_or(1);
        // Pairs with an endpoint outside the graph can never be queried.
        let mut s_mask = vec![false; n * n];
        for (u, v) in s.iter().filter(|&(_, v)| v < n) {
            s_mask[u * n + v] = true;
            s_mask[v * n + u] = true;
        }
        Instance {
            graph,
            s,
            params,
            parts,
            triples,
            searches,
            weight_magnitude,
            s_mask,
        }
    }

    /// Number of vertices (= network nodes).
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Largest edge-weight magnitude, for wire-format sizing.
    pub fn weight_magnitude(&self) -> u64 {
        self.weight_magnitude
    }

    /// Whether the pair `{u, v}` of vertices of the graph is in `S`: one
    /// dense lookup in place of [`PairSet::contains`].
    #[inline]
    pub(crate) fn in_s(&self, u: usize, v: usize) -> bool {
        self.s_mask[u * self.n() + v]
    }

    /// `Δ(u, v; w)` of Definition 3: the pairs of `P(u, v) ∩ S` that form a
    /// negative triangle with an apex in fine block `w`. Exhaustive
    /// reference, used by tests and by the honesty cross-checks.
    pub fn delta(&self, bu: usize, bv: usize, bw: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (u, v) in self.parts.coarse.pair_set(bu, bv) {
            if !self.s.contains(u, v) {
                continue;
            }
            let hit = self
                .parts
                .fine
                .block(bw)
                .any(|w| self.graph.is_negative_triangle(u, v, w));
            if hit {
                out.push((u, v));
            }
        }
        out
    }

    /// Whether some vertex of fine block `bw` completes a negative triangle
    /// with the pair `{u, v}` — the predicate of the Step-3 searches.
    pub fn has_apex_in_block(&self, u: usize, v: usize, bw: usize) -> bool {
        self.graph
            .has_negative_apex(u, v, self.parts.fine.block(bw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_graph::book_graph;

    #[test]
    fn instance_builds_consistent_labelings() {
        let g = book_graph(16, 3);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::scaled());
        assert_eq!(inst.n(), 16);
        assert_eq!(inst.triples.labeling().label_count(), 16);
        assert_eq!(inst.searches.labeling().label_count(), 16);
    }

    #[test]
    fn delta_matches_manual_count() {
        // book graph: pair {0,1} has apexes 2, 3, 4
        let g = book_graph(16, 3);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::scaled());
        let bu = inst.parts.coarse.block_of(0);
        let bv = inst.parts.coarse.block_of(1);
        // apexes 2..5 live in fine blocks of size 4: block_of(2) == 0
        let bw = inst.parts.fine.block_of(2);
        let delta = inst.delta(bu, bv, bw);
        assert!(delta.contains(&(0, 1)));
        // a block with no apexes contributes nothing for pairs away from the book
        let far = inst.parts.fine.num_blocks() - 1;
        assert!(!inst.delta(bu, bv, far).contains(&(0, 1)) || far == bw);
    }

    #[test]
    fn has_apex_agrees_with_delta() {
        let g = book_graph(16, 2);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::scaled());
        for bw in 0..inst.parts.fine.num_blocks() {
            let expected = inst.has_apex_in_block(0, 1, bw);
            let bu = inst.parts.coarse.block_of(0);
            let bv = inst.parts.coarse.block_of(1);
            let in_delta = inst.delta(bu, bv, bw).contains(&(0, 1));
            assert_eq!(expected, in_delta, "block {bw}");
        }
    }

    #[test]
    fn s_mask_agrees_with_the_pair_set() {
        let g = book_graph(16, 2);
        let mut s = PairSet::new();
        s.insert(3, 1);
        s.insert(7, 15);
        s.insert(2, 40); // endpoint outside the graph: ignored
        let inst = Instance::new(&g, &s, Params::scaled());
        for u in 0..16 {
            for v in 0..16 {
                assert_eq!(inst.in_s(u, v), s.contains(u, v), "({u}, {v})");
            }
        }
    }

    #[test]
    fn weight_magnitude_defaults_to_one() {
        let g = UGraph::new(4);
        let s = PairSet::new();
        let inst = Instance::new(&g, &s, Params::scaled());
        assert_eq!(inst.weight_magnitude(), 1);
    }
}
