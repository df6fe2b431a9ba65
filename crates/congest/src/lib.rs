//! # qcc-congest — a CONGEST-CLIQUE network simulator
//!
//! This crate simulates the **CONGEST-CLIQUE** model of distributed
//! computing: `n` nodes communicate over a fully connected network by
//! exchanging messages of `O(log n)` bits in synchronous rounds. It is the
//! communication substrate of the reproduction of *"Quantum Distributed
//! Algorithm for the All-Pairs Shortest Path Problem in the CONGEST-CLIQUE
//! Model"* (Izumi & Le Gall, PODC 2019).
//!
//! The simulator is *bit-accounted*: every payload reports its wire size via
//! the [`Payload`] trait, every ordered link carries at most
//! [`Clique::bandwidth_bits`] bits per round, and round charges are derived
//! from the executed message schedule — never assumed.
//!
//! ## Primitives
//!
//! * [`Clique::exchange`] — direct delivery on `(src, dst)` links.
//! * [`Clique::route`] — Lemma 1 of the paper (Dolev, Lenzen & Peled): any
//!   message set with per-node load at most `n` units is delivered in two
//!   rounds through relays, and a heavier set with maximum load `Δ` in
//!   `2·⌈Δ/n⌉`. The relays follow an exact König edge coloring of the
//!   demand multigraph ([`coloring`]), which König's theorem guarantees;
//!   the charge and the busiest link (`⌈Δ/n⌉` units per hop) are closed
//!   forms in `Δ`, so the schedule itself is only built by experiment E13
//!   and the tests.
//! * [`Clique::broadcast`] / [`Clique::gossip`] — one-to-all and all-to-all
//!   broadcast.
//!
//! ## Example
//!
//! ```
//! use qcc_congest::{collect_sends, Clique, Envelope, NodeId};
//!
//! # fn main() -> Result<(), qcc_congest::CongestError> {
//! let n = 8;
//! let mut net = Clique::new(n)?;
//!
//! // Every node sends its id to node 0; Lemma 1 routes the gather.
//! let sends = collect_sends(n, |u| {
//!     vec![Envelope::new(u, NodeId::new(0), u.index() as u64)]
//! });
//! let inboxes = net.route(sends)?;
//! assert_eq!(inboxes.of(NodeId::new(0)).len(), n);
//! println!("gather took {} rounds", net.rounds());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
pub mod coloring;
mod envelope;
mod error;
mod fault;
pub mod json;
mod metrics;
mod network;
mod node;
mod payload;
mod reliable;
pub mod rlnc;
mod tally;
pub mod topology;
pub mod trace;
mod transport;

pub use envelope::{collect_sends, total_bits, Envelope, GossipViews, Inboxes};
pub use error::CongestError;
pub use fault::{FaultCounts, FaultKind, FaultPlan, NetConfig};
pub use metrics::{Metrics, PhaseStats};
pub use network::{Clique, DEFAULT_BANDWIDTH_FACTOR};
pub use node::NodeId;
pub use payload::{bits_for_count, bits_for_weight_range, Payload, RawBits};
pub use reliable::ReliableConfig;
pub use tally::{Leg, LinkTally};
pub use topology::{Topology, TopologySpec};
pub use transport::{GossipStats, GossipTransport, WaveStats, DEFAULT_GOSSIP_CHUNKS};

pub use trace::{
    parse_trace, parse_trace_line, CommEvent, CommTotals, SpanSummary, TraceBuffer, TraceError,
    TraceEvent, TraceSink, TraceSummary,
};
