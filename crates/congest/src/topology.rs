//! General communication topologies for the transport layer.
//!
//! The CONGEST-CLIQUE simulator assumes a complete graph; the related
//! CONGEST literature (Le Gall–Magniez diameter, Wang–Wu–Yao
//! eccentricities) lives on arbitrary networks. A [`Topology`] describes
//! which ordered pairs of nodes share a physical link, and the
//! [`crate::transport::GossipTransport`] restricts its traffic to those
//! links. All topologies here are undirected (a link carries messages
//! both ways) and self-loop-free.
//!
//! Generators are *seeded*: [`Topology::random_mesh`] derives every edge
//! from a SplitMix64 stream over its seed, so experiments are replayable
//! without touching the simulated algorithm's RNG. Connectivity is
//! checked up front — a transport handed a disconnected topology fails
//! with the typed [`CongestError::Partitioned`] before charging a round,
//! never by silently losing the unreachable component.

use crate::error::CongestError;

/// An undirected communication topology on `n` nodes.
///
/// # Examples
///
/// ```
/// use qcc_congest::Topology;
///
/// let t = Topology::ring(5);
/// assert_eq!(t.n(), 5);
/// assert_eq!(t.neighbors(0), &[1, 4]);
/// assert!(t.is_connected());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    n: usize,
    /// Sorted neighbor lists, one per node.
    adj: Vec<Vec<usize>>,
    label: String,
}

impl Topology {
    /// Builds a topology from an explicit undirected edge list. Duplicate
    /// edges, self-loops, and orientation are normalized away.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node outside `0..n`.
    #[must_use]
    pub fn from_edges(n: usize, edges: &[(usize, usize)], label: &str) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            assert!(u < n && v < n, "edge ({u}, {v}) outside 0..{n}");
            if u == v {
                continue;
            }
            adj[u].push(v);
            adj[v].push(u);
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        Topology {
            n,
            adj,
            label: label.to_string(),
        }
    }

    /// The complete graph: every pair of nodes shares a link (the classic
    /// CONGEST-CLIQUE substrate, useful as a gossip baseline).
    #[must_use]
    pub fn clique(n: usize) -> Self {
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
            .collect();
        Topology::from_edges(n, &edges, "clique")
    }

    /// The cycle `0 — 1 — ⋯ — (n−1) — 0` (diameter `⌊n/2⌋`, the
    /// worst-case sparse connected topology).
    #[must_use]
    pub fn ring(n: usize) -> Self {
        let edges: Vec<(usize, usize)> = (0..n).map(|u| (u, (u + 1) % n)).collect();
        Topology::from_edges(n, &edges, "ring")
    }

    /// A 2-D torus grid on `rows × cols = n` nodes, with `rows` chosen as
    /// the largest divisor of `n` at most `⌊√n⌋` (a prime `n` degenerates
    /// to the ring). Node `(r, c)` sits at index `r · cols + c` and links
    /// to its four wrap-around grid neighbors.
    #[must_use]
    pub fn torus(n: usize) -> Self {
        let mut rows = 1;
        let mut d = 1;
        while d * d <= n {
            if n.is_multiple_of(d) {
                rows = d;
            }
            d += 1;
        }
        let cols = n / rows.max(1);
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let idx = r * cols + c;
                edges.push((idx, r * cols + (c + 1) % cols));
                edges.push((idx, ((r + 1) % rows) * cols + c));
            }
        }
        Topology::from_edges(n, &edges, "torus")
    }

    /// A seeded random mesh: a random Hamiltonian cycle (guaranteeing
    /// connectivity) plus random chords until the average degree reaches
    /// `degree`. Every edge is a pure function of `(n, degree, seed)`.
    #[must_use]
    pub fn random_mesh(n: usize, degree: usize, seed: u64) -> Self {
        let mut rng = TopoRng::new(seed);
        // Fisher–Yates permutation → random Hamiltonian cycle backbone.
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }
        let mut edges: Vec<(usize, usize)> = (0..n).map(|i| (perm[i], perm[(i + 1) % n])).collect();
        if n > 2 {
            // Chords until the average degree target; the dedup in
            // `from_edges` makes re-drawn duplicates harmless, so cap the
            // attempts to keep termination unconditional.
            let target_edges = n * degree.max(2) / 2;
            let mut attempts = 0;
            while edges.len() < target_edges && attempts < 16 * target_edges {
                attempts += 1;
                let u = (rng.next_u64() % n as u64) as usize;
                let v = (rng.next_u64() % n as u64) as usize;
                if u != v
                    && !edges
                        .iter()
                        .any(|&(a, b)| (a, b) == (u, v) || (a, b) == (v, u))
                {
                    edges.push((u, v));
                }
            }
        }
        Topology::from_edges(
            n,
            &edges,
            &format!("mesh(d={}, seed={seed})", degree.max(2)),
        )
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Human-readable label (`clique`, `ring`, `mesh(d=…, seed=…)`, …).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The sorted neighbor list of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u ≥ n`.
    #[must_use]
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// Number of undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Whether `u` and `v` share a link.
    #[must_use]
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u < self.n && self.adj[u].binary_search(&v).is_ok()
    }

    /// Number of nodes reachable from node 0 (BFS).
    #[must_use]
    pub fn reachable_from_zero(&self) -> usize {
        if self.n == 0 {
            return 0;
        }
        let mut seen = vec![false; self.n];
        let mut queue = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = queue.pop() {
            for &v in &self.adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    queue.push(v);
                }
            }
        }
        count
    }

    /// Whether every node is reachable from node 0 (equivalently, from
    /// every node — the topology is undirected).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.reachable_from_zero() == self.n
    }

    /// Rejects disconnected topologies with the typed
    /// [`CongestError::Partitioned`].
    ///
    /// # Errors
    ///
    /// [`CongestError::Partitioned`] when some node is unreachable.
    pub fn require_connected(&self) -> Result<(), CongestError> {
        let reachable = self.reachable_from_zero();
        if reachable == self.n {
            Ok(())
        } else {
            Err(CongestError::Partitioned {
                reachable,
                n: self.n,
            })
        }
    }

    /// The longest shortest-hop distance between any pair, or `None` when
    /// disconnected.
    #[must_use]
    pub fn hop_diameter(&self) -> Option<u64> {
        let n = self.n;
        let mut best = 0u64;
        for start in 0..n {
            let mut dist = vec![u64::MAX; n];
            dist[start] = 0;
            let mut frontier = vec![start];
            let mut seen = 1;
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for &u in &frontier {
                    for &v in &self.adj[u] {
                        if dist[v] == u64::MAX {
                            dist[v] = dist[u] + 1;
                            best = best.max(dist[v]);
                            seen += 1;
                            next.push(v);
                        }
                    }
                }
                frontier = next;
            }
            if seen != n {
                return None;
            }
        }
        Some(best)
    }
}

/// The parseable CLI/bench topology selector; `build` instantiates it at
/// a concrete size.
///
/// # Examples
///
/// ```
/// use qcc_congest::TopologySpec;
///
/// let spec = TopologySpec::parse("mesh:4").unwrap();
/// let t = spec.build(10, 7);
/// assert!(t.is_connected());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopologySpec {
    /// Complete graph.
    Clique,
    /// Single cycle.
    Ring,
    /// Seeded random mesh with the given average degree.
    Mesh {
        /// Average degree target (≥ 2; the backbone cycle guarantees 2).
        degree: usize,
    },
    /// 2-D wrap-around grid.
    Torus,
}

impl TopologySpec {
    /// Parses `clique`, `ring`, `mesh`, `mesh:DEGREE`, or `torus`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown topology or malformed degree.
    pub fn parse(text: &str) -> Result<TopologySpec, String> {
        match text {
            "clique" => Ok(TopologySpec::Clique),
            "ring" => Ok(TopologySpec::Ring),
            "mesh" => Ok(TopologySpec::Mesh { degree: 4 }),
            "torus" => Ok(TopologySpec::Torus),
            other => {
                if let Some(d) = other.strip_prefix("mesh:") {
                    let degree: usize = d
                        .parse()
                        .map_err(|_| format!("mesh degree {d:?} is not a number"))?;
                    if degree < 2 {
                        return Err(format!("mesh degree must be at least 2, got {degree}"));
                    }
                    Ok(TopologySpec::Mesh { degree })
                } else {
                    Err(format!(
                        "unknown topology {other:?} (expected clique|ring|mesh[:D]|torus)"
                    ))
                }
            }
        }
    }

    /// The canonical spelling accepted back by [`TopologySpec::parse`].
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            TopologySpec::Clique => "clique".into(),
            TopologySpec::Ring => "ring".into(),
            TopologySpec::Mesh { degree } => format!("mesh:{degree}"),
            TopologySpec::Torus => "torus".into(),
        }
    }

    /// Instantiates the topology on `n` nodes; `seed` feeds the mesh
    /// generator (the deterministic topologies ignore it).
    #[must_use]
    pub fn build(&self, n: usize, seed: u64) -> Topology {
        match *self {
            TopologySpec::Clique => Topology::clique(n),
            TopologySpec::Ring => Topology::ring(n),
            TopologySpec::Mesh { degree } => Topology::random_mesh(n, degree, seed),
            TopologySpec::Torus => Topology::torus(n),
        }
    }
}

impl std::fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// SplitMix64 generator for topology construction, independent of both
/// the algorithm RNG and the fault stream.
struct TopoRng {
    state: u64,
}

impl TopoRng {
    fn new(seed: u64) -> Self {
        TopoRng {
            state: seed ^ 0x7097_0109_7097_0109,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clique_is_complete_and_connected() {
        let t = Topology::clique(6);
        assert_eq!(t.edge_count(), 15);
        assert!(t.is_connected());
        assert!(t.has_edge(0, 5) && t.has_edge(5, 0));
        assert!(!t.has_edge(3, 3));
    }

    #[test]
    fn ring_has_n_edges_and_degree_two() {
        let t = Topology::ring(7);
        assert_eq!(t.edge_count(), 7);
        for u in 0..7 {
            assert_eq!(t.neighbors(u).len(), 2, "node {u}");
        }
        assert!(t.is_connected());
        assert_eq!(t.hop_diameter(), Some(3));
    }

    #[test]
    fn torus_factors_into_a_grid() {
        let t = Topology::torus(12); // 3 × 4
        assert!(t.is_connected());
        // Interior torus nodes have degree 4 (wrap-around on both axes).
        assert!(t.neighbors(0).len() >= 3);
        // Prime n degenerates to the ring.
        let p = Topology::torus(7);
        assert_eq!(p.edge_count(), 7);
        assert!(p.is_connected());
    }

    #[test]
    fn random_mesh_is_seeded_and_connected() {
        let a = Topology::random_mesh(12, 4, 7);
        let b = Topology::random_mesh(12, 4, 7);
        assert_eq!(a, b, "same seed, same mesh");
        let c = Topology::random_mesh(12, 4, 8);
        assert_ne!(a, c, "different seed should differ here");
        assert!(a.is_connected(), "backbone cycle guarantees connectivity");
        assert!(a.edge_count() >= 12, "chords on top of the cycle");
    }

    #[test]
    fn disconnection_is_a_typed_error() {
        let t = Topology::from_edges(4, &[(0, 1), (2, 3)], "split");
        assert!(!t.is_connected());
        assert_eq!(
            t.require_connected().unwrap_err(),
            CongestError::Partitioned { reachable: 2, n: 4 }
        );
        assert!(Topology::ring(4).require_connected().is_ok());
    }

    #[test]
    fn spec_parses_and_round_trips() {
        for text in ["clique", "ring", "mesh", "mesh:6", "torus"] {
            let spec = TopologySpec::parse(text).unwrap();
            assert_eq!(TopologySpec::parse(&spec.label()).unwrap(), spec);
        }
        assert_eq!(
            TopologySpec::parse("mesh").unwrap(),
            TopologySpec::Mesh { degree: 4 }
        );
        assert!(TopologySpec::parse("hypercube").is_err());
        assert!(TopologySpec::parse("mesh:1").is_err());
        assert!(TopologySpec::parse("mesh:x").is_err());
        let t = TopologySpec::parse("torus").unwrap().build(9, 0);
        assert_eq!(t.n(), 9);
        assert!(t.is_connected());
    }

    #[test]
    fn from_edges_normalizes_duplicates_and_loops() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 0), (2, 2), (1, 2)], "x");
        assert_eq!(t.edge_count(), 2);
        assert_eq!(t.neighbors(1), &[0, 2]);
    }
}
