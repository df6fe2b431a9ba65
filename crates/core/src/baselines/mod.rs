//! Classical baselines the quantum algorithm is measured against.
//!
//! * [`naive_broadcast_apsp`] — every node broadcasts its adjacency row and
//!   solves locally: `O(n)` rounds, the trivial upper bound.
//! * [`semiring_apsp`] — repeated squaring over the distributed semiring
//!   matrix multiplication of Censor-Hillel et al.: `O~(n^{1/3})` rounds,
//!   the classical state of the art the paper's Theorem 1 beats.
//! * [`dolev_find_edges`] — the triangle-listing `FindEdges` of Dolev,
//!   Lenzen & Peled ("Tri, Tri Again"): `O~(n^{1/3})` rounds, the
//!   combinatorial baseline the paper cites for negative-triangle listing.

mod dolev;
mod naive;
mod semiring;

pub use dolev::dolev_find_edges;
pub use naive::naive_broadcast_apsp;
pub use semiring::{semiring_apsp, semiring_distance_product};
