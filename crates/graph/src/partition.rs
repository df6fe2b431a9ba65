//! Vertex partitions and the labeling schemes of Section 5.1.
//!
//! The algorithm `ComputePairs` uses two partitions of the vertex set:
//!
//! * a **coarse** partition `V` into `n^{1/4}` blocks of `n^{3/4}` vertices,
//! * a **fine** partition `V'` into `√n` blocks of `√n` vertices,
//!
//! plus two extra labelings of the *network* nodes:
//!
//! * the **triple labeling** `T = V × V × V'` (`|T| = n`): node `(u, v, w)`
//!   gathers the weights of all edges in `P(u, w)` and `P(w, v)`;
//! * the **search labeling** `V × V × [√n]`: node `(u, v, x)` runs the
//!   quantum searches for the pair block `Λ_x(u, v)`.
//!
//! Both are the same `q × q × s` product of the coarse and fine block
//! counts, so one type, [`TripleLabeling`], encodes both.
//!
//! For `n = m⁴` all sizes are exact and both labelings are bijections onto
//! the `n` network nodes. For other `n` the paper rounds the block counts
//! up; the labelings then have slightly more labels than nodes and each
//! node simulates at most a constant number of labels (tracked by
//! [`Labeling::max_labels_per_node`]).

/// A partition of `0..n_items` into contiguous blocks of near-equal size.
///
/// # Examples
///
/// ```
/// use qcc_graph::Partition;
///
/// let p = Partition::equal(10, 3);
/// assert_eq!(p.num_blocks(), 3);
/// assert_eq!(p.block(0), 0..4);
/// assert_eq!(p.block_of(9), 2);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    bounds: Vec<usize>, // block b = bounds[b]..bounds[b+1]
    block_of: Vec<usize>,
}

impl Partition {
    /// Splits `0..n_items` into `num_blocks` contiguous blocks whose sizes
    /// differ by at most one.
    ///
    /// # Panics
    ///
    /// Panics if `num_blocks == 0` or `num_blocks > n_items` (with
    /// `n_items > 0`).
    pub fn equal(n_items: usize, num_blocks: usize) -> Self {
        assert!(num_blocks > 0, "need at least one block");
        assert!(num_blocks <= n_items.max(1), "more blocks than items");
        let base = n_items / num_blocks;
        let extra = n_items % num_blocks;
        let mut bounds = Vec::with_capacity(num_blocks + 1);
        let mut block_of = vec![0; n_items];
        let mut start = 0;
        for b in 0..num_blocks {
            bounds.push(start);
            let size = base + usize::from(b < extra);
            block_of[start..start + size].fill(b);
            start += size;
        }
        bounds.push(start);
        Partition { bounds, block_of }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Number of partitioned items.
    pub fn n_items(&self) -> usize {
        *self.bounds.last().expect("bounds nonempty")
    }

    /// The items of block `b` (contiguous range).
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block(&self, b: usize) -> std::ops::Range<usize> {
        self.bounds[b]..self.bounds[b + 1]
    }

    /// The block containing `item`.
    ///
    /// # Panics
    ///
    /// Panics if `item` is out of range.
    pub fn block_of(&self, item: usize) -> usize {
        self.block_of[item]
    }

    /// Size of block `b`.
    pub fn block_size(&self, b: usize) -> usize {
        self.bounds[b + 1] - self.bounds[b]
    }

    /// All unordered pairs `{u, v}` with `u ∈ block(a)`, `v ∈ block(b)`,
    /// `u ≠ v` — the set `P(U, U')` of the paper. Each pair is listed once,
    /// as `(min, max)`.
    pub fn pair_set(&self, a: usize, b: usize) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for u in self.block(a) {
            for v in self.block(b) {
                if u < v {
                    pairs.push((u, v));
                } else if v < u && a != b {
                    pairs.push((v, u));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }
}

/// Integer `⌈x^{1/4}⌉`-style helpers used to size the paper's partitions.
fn ceil_root(n: usize, k: u32) -> usize {
    if n == 0 {
        return 0;
    }
    let mut r = (n as f64).powf(1.0 / f64::from(k)).round() as usize;
    while r.saturating_pow(k) < n {
        r += 1;
    }
    while r > 1 && (r - 1).saturating_pow(k) >= n {
        r -= 1;
    }
    r
}

/// `⌈√n⌉` as used for the fine partition.
pub fn ceil_sqrt(n: usize) -> usize {
    ceil_root(n, 2)
}

/// `⌈n^{1/4}⌉` as used for the coarse partition.
pub fn ceil_fourth_root(n: usize) -> usize {
    ceil_root(n, 4)
}

/// The two vertex partitions of Section 5.1.
#[derive(Clone, Debug)]
pub struct PaperPartitions {
    /// `V`: `⌈n^{1/4}⌉` blocks of `≈ n^{3/4}` vertices.
    pub coarse: Partition,
    /// `V'`: `⌈√n⌉` blocks of `≈ √n` vertices.
    pub fine: Partition,
}

impl PaperPartitions {
    /// Builds both partitions for an `n`-vertex graph.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        let q = ceil_fourth_root(n).max(1).min(n);
        let s = ceil_sqrt(n).max(1).min(n);
        PaperPartitions {
            coarse: Partition::equal(n, q),
            fine: Partition::equal(n, s),
        }
    }

    /// Whether `n` admits the exact paper sizes (`n = m⁴`).
    pub fn is_exact(&self) -> bool {
        let q = self.coarse.num_blocks();
        let s = self.fine.num_blocks();
        q * q == s && s * s == self.coarse.n_items()
    }
}

/// A labeling of network nodes by tuples, as in Section 5.1.
///
/// Labels are tuples drawn from a product space of size `label_count`;
/// label `t` lives on node `t mod n`. For exact `n` (`label_count == n`)
/// this is a bijection.
#[derive(Clone, Debug)]
pub struct Labeling {
    label_count: usize,
    n_nodes: usize,
}

impl Labeling {
    /// Creates a labeling of `n_nodes` nodes by `label_count` labels.
    pub fn new(label_count: usize, n_nodes: usize) -> Self {
        assert!(n_nodes > 0);
        Labeling {
            label_count,
            n_nodes,
        }
    }

    /// Total number of labels.
    pub fn label_count(&self) -> usize {
        self.label_count
    }

    /// The node hosting label `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn node_of(&self, t: usize) -> usize {
        assert!(t < self.label_count, "label {t} out of range");
        t % self.n_nodes
    }

    /// Labels hosted by `node`.
    pub fn labels_of(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        (node..self.label_count).step_by(self.n_nodes)
    }

    /// Maximum number of labels any node simulates (1 when exact).
    pub fn max_labels_per_node(&self) -> usize {
        self.label_count.div_ceil(self.n_nodes)
    }
}

/// The triple labeling `T = V × V × V'` of Section 5.1, which is also its
/// search labeling `V × V × [√n]` (see the module docs).
///
/// # Examples
///
/// ```
/// use qcc_graph::{PaperPartitions, TripleLabeling};
///
/// let parts = PaperPartitions::new(16);
/// let t = TripleLabeling::new(&parts, 16);
/// assert_eq!(t.labeling().label_count(), 16); // q² · s = 2·2·4
/// let (u, v, w) = t.decode(7);
/// assert_eq!(t.encode(u, v, w), 7);
/// ```
#[derive(Clone, Debug)]
pub struct TripleLabeling {
    q: usize,
    s: usize,
    labeling: Labeling,
}

impl TripleLabeling {
    /// Builds the labeling `V × V × V'` over `n_nodes` network nodes.
    pub fn new(parts: &PaperPartitions, n_nodes: usize) -> Self {
        let q = parts.coarse.num_blocks();
        let s = parts.fine.num_blocks();
        TripleLabeling {
            q,
            s,
            labeling: Labeling::new(q * q * s, n_nodes),
        }
    }

    /// Encodes `(u, v, w)` (coarse, coarse, fine block indices) as a label.
    pub fn encode(&self, u: usize, v: usize, w: usize) -> usize {
        debug_assert!(u < self.q && v < self.q && w < self.s);
        (u * self.q + v) * self.s + w
    }

    /// Decodes a label into `(u, v, w)`.
    pub fn decode(&self, t: usize) -> (usize, usize, usize) {
        let w = t % self.s;
        let uv = t / self.s;
        (uv / self.q, uv % self.q, w)
    }

    /// The underlying node assignment.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// Iterates over all `(u, v, w)` triples with their label ids.
    pub fn triples(&self) -> impl Iterator<Item = (usize, (usize, usize, usize))> + '_ {
        (0..self.labeling.label_count()).map(move |t| (t, self.decode(t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_partition_covers_everything_once() {
        let p = Partition::equal(11, 4);
        let mut seen = [false; 11];
        for b in 0..p.num_blocks() {
            for item in p.block(b) {
                assert!(!seen[item]);
                seen[item] = true;
                assert_eq!(p.block_of(item), b);
            }
        }
        assert!(seen.iter().all(|&x| x));
        let sizes: Vec<_> = (0..4).map(|b| p.block_size(b)).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 11);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
    }

    #[test]
    fn roots_are_exact_on_perfect_powers() {
        assert_eq!(ceil_sqrt(16), 4);
        assert_eq!(ceil_sqrt(17), 5);
        assert_eq!(ceil_fourth_root(16), 2);
        assert_eq!(ceil_fourth_root(81), 3);
        assert_eq!(ceil_fourth_root(82), 4);
        assert_eq!(ceil_fourth_root(625), 5);
        assert_eq!(ceil_sqrt(1), 1);
        assert_eq!(ceil_fourth_root(1), 1);
    }

    #[test]
    fn paper_partitions_are_exact_on_fourth_powers() {
        for m in 2..6usize {
            let n = m.pow(4);
            let parts = PaperPartitions::new(n);
            assert!(parts.is_exact(), "n = {n}");
            assert_eq!(parts.coarse.num_blocks(), m);
            assert_eq!(parts.fine.num_blocks(), m * m);
            assert!(parts.coarse.block(0).len() == m.pow(3));
            assert!(parts.fine.block(0).len() == m * m);
        }
    }

    #[test]
    fn paper_partitions_handle_inexact_sizes() {
        let parts = PaperPartitions::new(100);
        assert_eq!(parts.coarse.n_items(), 100);
        assert_eq!(parts.fine.n_items(), 100);
        assert_eq!(parts.fine.num_blocks(), 10);
        assert_eq!(parts.coarse.num_blocks(), 4); // ceil(100^{1/4}) = 4
    }

    #[test]
    fn pair_set_counts_cross_and_same_block() {
        let p = Partition::equal(6, 3); // blocks {0,1}, {2,3}, {4,5}
        assert_eq!(p.pair_set(0, 1), vec![(0, 2), (0, 3), (1, 2), (1, 3)]);
        assert_eq!(p.pair_set(0, 0), vec![(0, 1)]);
        // symmetric arguments give the same set
        assert_eq!(p.pair_set(1, 0), p.pair_set(0, 1));
    }

    #[test]
    fn triple_labeling_is_a_bijection_on_exact_n() {
        let n = 16;
        let parts = PaperPartitions::new(n);
        let t = TripleLabeling::new(&parts, n);
        assert_eq!(t.labeling().label_count(), n);
        assert_eq!(t.labeling().max_labels_per_node(), 1);
        let mut seen = vec![false; n];
        for (label, (u, v, w)) in t.triples() {
            assert_eq!(t.encode(u, v, w), label);
            let node = t.labeling().node_of(label);
            assert!(!seen[node]);
            seen[node] = true;
        }
    }

    #[test]
    fn labeling_distributes_excess_labels() {
        let l = Labeling::new(10, 4);
        assert_eq!(l.max_labels_per_node(), 3);
        let mut counts = [0; 4];
        for t in 0..10 {
            counts[l.node_of(t)] += 1;
        }
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert!(counts.iter().all(|&c| c <= 3));
        let on_node1: Vec<_> = l.labels_of(1).collect();
        assert_eq!(on_node1, vec![1, 5, 9]);
    }

    #[test]
    fn labeling_round_trips_at_n81() {
        let parts = PaperPartitions::new(81);
        let s = TripleLabeling::new(&parts, 81);
        for (label, (u, v, x)) in s.triples() {
            assert_eq!(s.encode(u, v, x), label);
        }
        assert_eq!(s.labeling().label_count(), 3 * 3 * 9);
    }
}
