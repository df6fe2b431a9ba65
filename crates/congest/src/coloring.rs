//! Bipartite multigraph edge coloring (König's theorem, constructive).
//!
//! The routing primitive of Dolev, Lenzen and Peled ("Tri, Tri Again",
//! DISC 2012) — Lemma 1 of Izumi & Le Gall — delivers any message set in
//! which no node sources or sinks more than `n` messages within two rounds.
//! The constructive core is an edge coloring of the *demand multigraph*
//! (one edge per message, sources on the left, destinations on the right):
//! by König's edge-coloring theorem a bipartite multigraph of maximum
//! degree `Δ` admits a proper coloring with exactly `Δ` colors, and a color
//! class is precisely a set of messages in which every (source, color) and
//! (destination, color) pair appears at most once — i.e. a valid assignment
//! of messages to intermediate relay nodes.
//!
//! This module implements the classic alternating-path (Kempe chain)
//! algorithm: `O(m · Δ)` time, exact `Δ` colors. [`crate::Clique::route`]
//! does not call it: a route's cost and busiest link are closed forms in
//! `Δ`. Experiment E13 (`exp_routing`) and the tests build the schedule
//! with it and check those closed forms.

/// An edge of the demand multigraph: `(left, right)` with multiplicity
/// expressed by repetition.
pub type DemandEdge = (usize, usize);

/// A proper edge coloring of a bipartite multigraph.
#[derive(Clone, Debug)]
#[must_use]
pub struct EdgeColoring {
    /// `colors[i]` is the color assigned to input edge `i`.
    pub colors: Vec<usize>,
    /// Number of colors used (equals the maximum degree).
    pub num_colors: usize,
}

/// Computes the maximum degree of the bipartite demand multigraph.
#[must_use]
pub fn max_degree(edges: &[DemandEdge], n_left: usize, n_right: usize) -> usize {
    let mut left_deg = vec![0usize; n_left];
    let mut right_deg = vec![0usize; n_right];
    for &(u, v) in edges {
        left_deg[u] += 1;
        right_deg[v] += 1;
    }
    left_deg.into_iter().chain(right_deg).max().unwrap_or(0)
}

/// Properly edge-colors a bipartite multigraph with `Δ` colors.
///
/// `edges` lists `(left, right)` endpoints; parallel edges are allowed and
/// receive distinct colors. The returned coloring uses exactly
/// `max_degree(edges)` colors (König's theorem), the optimum.
///
/// # Panics
///
/// Panics if an endpoint is out of range.
///
/// # Examples
///
/// ```
/// use qcc_congest::coloring::{color_bipartite, max_degree};
///
/// // two parallel edges (0,0) plus (0,1),(1,0): max degree 3
/// let edges = vec![(0, 0), (0, 0), (0, 1), (1, 0)];
/// let coloring = color_bipartite(&edges, 2, 2);
/// assert_eq!(coloring.num_colors, max_degree(&edges, 2, 2));
/// ```
pub fn color_bipartite(edges: &[DemandEdge], n_left: usize, n_right: usize) -> EdgeColoring {
    let delta = max_degree(edges, n_left, n_right);
    if delta == 0 {
        return EdgeColoring {
            colors: Vec::new(),
            num_colors: 0,
        };
    }
    assert!(
        edges.len() < u32::MAX as usize,
        "demand multigraph too large for u32 edge indices"
    );
    let mut colors = vec![usize::MAX; edges.len()];
    // at[node · Δ + color] = edge index carrying that color at that node,
    // or u32::MAX. Edge indices are `u32` so the tables stay small enough
    // to be cache-resident — the Kempe walk is a chain of dependent random
    // accesses into them. The mask tables mirror occupancy one bit per
    // slot, `⌈Δ/64⌉` words per node, so the free-color scan tests 64 slots
    // per word; padding bits at indices ≥ Δ in each node's last word are
    // pre-set so the scan never selects them. The hints are per-node lower
    // bounds on the first non-full mask word.
    let words = delta.div_ceil(64);
    let pad = if delta.is_multiple_of(64) {
        0
    } else {
        !0u64 << (delta % 64)
    };
    let mut left_at = vec![u32::MAX; n_left * delta];
    let mut right_at = vec![u32::MAX; n_right * delta];
    let mut left_mask = vec![0u64; n_left * words];
    let mut right_mask = vec![0u64; n_right * words];
    for u in 0..n_left {
        left_mask[u * words + words - 1] = pad;
    }
    for v in 0..n_right {
        right_mask[v * words + words - 1] = pad;
    }
    let mut left_hint = vec![0usize; n_left];
    let mut right_hint = vec![0usize; n_right];
    // `u32` copy of the input edges, halving the walk's lookup footprint.
    let edg: Vec<(u32, u32)> = edges
        .iter()
        .map(|&(eu, ev)| (eu as u32, ev as u32))
        .collect();

    for (idx, &(u, v)) in edges.iter().enumerate() {
        assert!(u < n_left && v < n_right, "edge endpoint out of range");
        let a = free_color(&left_mask, &mut left_hint, words, u);
        let b = free_color(&right_mask, &mut right_hint, words, v);
        debug_assert_eq!(left_at[u * delta + a], u32::MAX);
        debug_assert_eq!(right_at[v * delta + b], u32::MAX);
        if a == b {
            colors[idx] = a;
            left_at[u * delta + a] = idx as u32;
            right_at[v * delta + a] = idx as u32;
            set_bit(&mut left_mask, words, u, a);
            set_bit(&mut right_mask, words, v, a);
            continue;
        }
        // Make color `a` free at `v` by flipping the (a, b)-alternating path
        // starting from `v`. The path cannot reach `u` because `u` has no
        // `a`-colored edge, and left vertices are entered via `a`.
        //
        // The flip happens during the walk itself: recoloring the path swaps
        // the contents of slots `a` and `b` at every visited node (for the
        // ends, one of the two is empty), and since the path never revisits
        // a node the swap at the current node cannot disturb a later lookup.
        // Occupancy only changes at the two path ends — interior nodes keep
        // both colors — so the masks stay untouched in the loop body.
        let mut node = v;
        let mut on_right = true;
        let mut want = a;
        let mut steps = 0usize;
        loop {
            let at = if on_right {
                &mut right_at
            } else {
                &mut left_at
            };
            let slot_w = node * delta + want;
            let e = at[slot_w];
            if e == u32::MAX {
                break;
            }
            let other = a + b - want;
            let slot_o = node * delta + other;
            at[slot_w] = at[slot_o];
            at[slot_o] = e;
            if steps == 0 {
                // The start node `v` gains color `b` (its `a`-edge flips);
                // its bit `a` stays set because the final assignment below
                // re-occupies it.
                set_bit(&mut right_mask, words, node, b);
            }
            // The traversed edge had color `want` and flips to the other.
            colors[e as usize] = other;
            let (eu, ev) = edg[e as usize];
            node = if on_right { eu as usize } else { ev as usize };
            on_right = !on_right;
            want = other;
            steps += 1;
        }
        if steps > 0 {
            // Path end: the incoming edge moves from slot `other` to the
            // free slot `want`, the only occupancy change besides `v`.
            let other = a + b - want;
            let (at, mask, hint) = if on_right {
                (&mut right_at, &mut right_mask, &mut right_hint)
            } else {
                (&mut left_at, &mut left_mask, &mut left_hint)
            };
            at[node * delta + want] = at[node * delta + other];
            at[node * delta + other] = u32::MAX;
            clear_bit(mask, hint, words, node, other);
            set_bit(mask, words, node, want);
        }
        debug_assert_eq!(left_at[u * delta + a], u32::MAX);
        debug_assert_eq!(right_at[v * delta + a], u32::MAX);
        colors[idx] = a;
        left_at[u * delta + a] = idx as u32;
        right_at[v * delta + a] = idx as u32;
        set_bit(&mut left_mask, words, u, a);
        set_bit(&mut right_mask, words, v, a);
    }

    EdgeColoring {
        colors,
        num_colors: delta,
    }
}

/// First free color at `node`: the lowest zero bit in its occupancy mask.
/// `hint[node]` is a lazy lower bound — every word strictly below it is
/// full — so the scan starts there instead of at word 0, and the found
/// word becomes the new hint. The result is identical to a linear scan of
/// the slot table for the first `usize::MAX` entry.
fn free_color(mask: &[u64], hint: &mut [usize], words: usize, node: usize) -> usize {
    let row = &mask[node * words..(node + 1) * words];
    debug_assert!(row[..hint[node]].iter().all(|&w| w == !0));
    for (w, &bits) in row.iter().enumerate().skip(hint[node]) {
        if bits != !0 {
            hint[node] = w;
            return w * 64 + bits.trailing_ones() as usize;
        }
    }
    panic!("a free color always exists below the maximum degree");
}

/// Marks color `c` occupied at `node`. The hint stays a valid lower bound:
/// filling a word only moves the true first-free word up, never down.
fn set_bit(mask: &mut [u64], words: usize, node: usize, c: usize) {
    mask[node * words + c / 64] |= 1 << (c % 64);
}

/// Marks color `c` free at `node`, pulling the hint back if the freed word
/// is below it.
fn clear_bit(mask: &mut [u64], hint: &mut [usize], words: usize, node: usize, c: usize) {
    let w = c / 64;
    mask[node * words + w] &= !(1 << (c % 64));
    if w < hint[node] {
        hint[node] = w;
    }
}

/// Verifies that a coloring is proper: no two edges sharing a left or right
/// endpoint have the same color. Used by tests and debug assertions.
#[must_use]
pub fn is_proper(
    edges: &[DemandEdge],
    coloring: &EdgeColoring,
    n_left: usize,
    n_right: usize,
) -> bool {
    let num_colors = coloring.num_colors;
    let mut left_seen = vec![false; n_left * num_colors.max(1)];
    let mut right_seen = vec![false; n_right * num_colors.max(1)];
    for (idx, &(u, v)) in edges.iter().enumerate() {
        let c = coloring.colors[idx];
        if c >= num_colors {
            return false;
        }
        let lu = u * num_colors + c;
        let rv = v * num_colors + c;
        if left_seen[lu] || right_seen[rv] {
            return false;
        }
        left_seen[lu] = true;
        right_seen[rv] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_graph_uses_zero_colors() {
        let coloring = color_bipartite(&[], 4, 4);
        assert_eq!(coloring.num_colors, 0);
        assert!(coloring.colors.is_empty());
    }

    #[test]
    fn single_edge_uses_one_color() {
        let edges = vec![(0, 1)];
        let c = color_bipartite(&edges, 2, 2);
        assert_eq!(c.num_colors, 1);
        assert!(is_proper(&edges, &c, 2, 2));
    }

    #[test]
    fn parallel_edges_get_distinct_colors() {
        let edges = vec![(0, 0), (0, 0), (0, 0)];
        let c = color_bipartite(&edges, 1, 1);
        assert_eq!(c.num_colors, 3);
        assert!(is_proper(&edges, &c, 1, 1));
        let mut cs = c.colors.clone();
        cs.sort_unstable();
        assert_eq!(cs, vec![0, 1, 2]);
    }

    #[test]
    fn complete_bipartite_uses_n_colors() {
        let n = 6;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in 0..n {
                edges.push((u, v));
            }
        }
        let c = color_bipartite(&edges, n, n);
        assert_eq!(c.num_colors, n);
        assert!(is_proper(&edges, &c, n, n));
    }

    #[test]
    fn random_multigraphs_are_colored_optimally() {
        let mut rng = StdRng::seed_from_u64(0xC01);
        for trial in 0..40 {
            let n = 2 + (trial % 7);
            let m = rng.gen_range(0..60);
            let edges: Vec<DemandEdge> = (0..m)
                .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let delta = max_degree(&edges, n, n);
            let c = color_bipartite(&edges, n, n);
            assert_eq!(c.num_colors, delta, "trial {trial}");
            assert!(is_proper(&edges, &c, n, n), "trial {trial}");
        }
    }

    #[test]
    fn star_needs_degree_colors() {
        // node 0 sends to everyone: degree n on the left
        let n = 9;
        let edges: Vec<DemandEdge> = (0..n).map(|v| (0, v)).collect();
        let c = color_bipartite(&edges, 1, n);
        assert_eq!(c.num_colors, n);
        assert!(is_proper(&edges, &c, 1, n));
    }

    #[test]
    fn gather_needs_degree_colors() {
        // everyone sends to node 0: degree n on the right
        let n = 9;
        let edges: Vec<DemandEdge> = (0..n).map(|u| (u, 0)).collect();
        let c = color_bipartite(&edges, n, 1);
        assert_eq!(c.num_colors, n);
        assert!(is_proper(&edges, &c, n, 1));
    }
}
