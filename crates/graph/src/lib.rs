//! # qcc-graph — graphs, tropical matrices and workloads
//!
//! Graph-theoretic substrate for the reproduction of *"Quantum Distributed
//! Algorithm for the All-Pairs Shortest Path Problem in the CONGEST-CLIQUE
//! Model"* (Izumi & Le Gall, PODC 2019):
//!
//! * [`ExtWeight`] — integers extended with `±∞` under min-plus saturation;
//! * [`SquareMatrix`] / [`WeightMatrix`] — dense matrices with the
//!   sequential [`distance_product`] and [`distance_power`] references
//!   (Definition 2, Proposition 3);
//! * [`DiGraph`] — weighted digraphs, the APSP input;
//! * [`UGraph`] — undirected weighted graphs with the negative-triangle
//!   census (`Γ(u, v)` of Definition 1);
//! * [`build_tripartite`] — the Vassilevska Williams–Williams reduction
//!   graph (Proposition 2);
//! * [`Partition`], [`PaperPartitions`], [`TripleLabeling`],
//!   [`SearchLabeling`] — the vertex partitions and node labelings of
//!   Section 5.1;
//! * [`floyd_warshall`], [`bellman_ford`], [`johnson`] — sequential oracles;
//! * [`generators`] — reproducible workloads for the experiments.
//!
//! ## Example
//!
//! ```
//! use qcc_graph::{floyd_warshall, generators, ExtWeight};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let g = generators::random_reweighted_digraph(16, 0.4, 10, &mut rng);
//! let dist = floyd_warshall(&g.adjacency_matrix())?;
//! assert_eq!(dist[(0, 0)], ExtWeight::ZERO);
//! # Ok::<(), qcc_graph::NegativeCycleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apsp_ref;
mod delta;
mod digraph;
pub mod generators;
mod matrix;
mod partition;
mod paths;
mod tripartite;
mod ugraph;
mod weight;

pub use apsp_ref::{
    bellman_ford, dijkstra, floyd_warshall, johnson, sssp_row_with_parents, NegativeCycleError,
};
pub use delta::{
    certificate_local_ok, delta_repair, has_negative_cycle, min_plus_fixpoint_certificate,
    parent_path, EdgeDelta,
};
pub use digraph::DiGraph;
pub use generators::{
    book_graph, complete_digraph, congestion_hotspot, cycle_digraph, path_digraph,
    planted_disjoint_triangles, random_nonneg_digraph, random_reweighted_digraph, random_ugraph,
};
pub use matrix::{
    distance_power, distance_product, distance_product_with_threads, min_plus_flat_into,
    tropical_decode, SquareMatrix, WeightMatrix, MIN_PLUS_TILE, TROPICAL_FINITE_MAX, TROPICAL_NONE,
};
pub use partition::{
    ceil_fourth_root, ceil_sqrt, Labeling, PaperPartitions, Partition, SearchLabeling,
    TripleLabeling,
};
pub use paths::{
    cycle_weight, decode_witness, distance_product_with_witness, find_negative_cycle, path_weight,
    scale_for_witness, PathOracle, WitnessedProduct,
};
pub use tripartite::{build_tripartite, TripartiteLayout, TripartiteVertex};
pub use ugraph::UGraph;
pub use weight::ExtWeight;
