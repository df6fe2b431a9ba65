//! Coded gossip over a general topology.
//!
//! [`GossipTransport`] runs the two collective shapes the gossip APSP
//! baseline needs — one node's block to everyone, and every node's block
//! to everyone — over a general [`Topology`] (ring, torus, random mesh) as
//! RLNC-coded gossip. A broadcast source commits a block of
//! [`crate::rlnc`] chunks and every node forwards fresh random linear
//! combinations to its neighbors each wave until all nodes reach full
//! decoding rank. Redundancy replaces retransmission: the transport
//! deliberately does *not* use the ack/retransmit envelope, so the
//! transport matrix can compare coded degradation against retry-based
//! recovery under the same [`FaultPlan`].
//!
//! All traffic goes through an inner [`Clique`] engine restricted to
//! topology edges, so fault injection, round charging, the phase metrics,
//! and the NDJSON trace's span tree compose for free. Failure is always typed —
//! [`CongestError::Partitioned`] for disconnected topologies (rejected at
//! construction), [`CongestError::DecodeFailed`] when coding redundancy is
//! outrun by losses, [`CongestError::NodeCrashed`] for fail-stop — never a
//! silently wrong result.
//!
//! ## Wasted-bandwidth accounting
//!
//! A coded packet a node receives is *innovative* when it raises the
//! node's decoding rank, otherwise *wasted*. [`GossipStats`] counts both
//! (in packets and bits), plus `full_nodes` per wave — the
//! redundancy-overhead curve the transport matrix reports. A dropped
//! packet's bits were still charged on the wire (the fault model charges
//! a crashed receiver's inbound links too) but are counted by the fault
//! tally, not as gossip waste: waste here means "arrived but taught the
//! receiver nothing".

use crate::envelope::Envelope;
use crate::error::CongestError;
use crate::fault::FaultPlan;
use crate::network::Clique;
use crate::node::NodeId;
use crate::payload::Payload;
use crate::rlnc::{split_block, unframe, Decoder, PacketRng};
use crate::topology::Topology;
use crate::trace::TraceSink;

/// Per-wave coded-gossip accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WaveStats {
    /// Wave index within its broadcast (0-based).
    pub wave: u64,
    /// Coded packets put on the wire this wave.
    pub sent: u64,
    /// Received packets that raised a decoder's rank.
    pub innovative: u64,
    /// Received packets that taught the receiver nothing.
    pub wasted: u64,
    /// Nodes at full decoding rank after this wave.
    pub full_nodes: usize,
}

/// Cumulative coded-gossip statistics for a [`GossipTransport`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Completed block broadcasts.
    pub broadcasts: u64,
    /// Total gossip waves across all broadcasts.
    pub waves: u64,
    /// Coded packets put on the wire.
    pub packets_sent: u64,
    /// Packets that raised some decoder's rank on arrival.
    pub innovative_packets: u64,
    /// Packets that arrived but were linearly dependent — the wasted
    /// bandwidth of coded redundancy.
    pub wasted_packets: u64,
    /// Bits of those wasted packets.
    pub wasted_bits: u64,
    /// Nodes at full rank when the most recent broadcast finished.
    pub full_nodes: usize,
    /// Per-wave breakdown, in execution order across broadcasts.
    pub per_wave: Vec<WaveStats>,
}

impl GossipStats {
    /// Wasted packets as a fraction of all packets sent (0 when nothing
    /// was sent).
    #[must_use]
    pub fn waste_fraction(&self) -> f64 {
        if self.packets_sent == 0 {
            0.0
        } else {
            self.wasted_packets as f64 / self.packets_sent as f64
        }
    }
}

/// RLNC-coded gossip over a general [`Topology`].
///
/// All traffic flows through an inner [`Clique`] engine restricted to
/// topology edges, so fault injection, round charging, and tracing are
/// the clique's own. See the module docs for the protocol and failure
/// semantics.
///
/// # Examples
///
/// ```
/// use qcc_congest::{GossipTransport, NodeId, Topology};
///
/// let topo = Topology::ring(6);
/// let mut t = GossipTransport::new(topo, 7).unwrap();
/// let views = t.broadcast_block(NodeId::new(0), b"hello mesh").unwrap();
/// assert!(views.iter().all(|v| v == b"hello mesh"));
/// assert!(t.gossip_stats().packets_sent > 0);
/// ```
#[derive(Clone, Debug)]
pub struct GossipTransport {
    topo: Topology,
    net: Clique,
    chunks: usize,
    seed: u64,
    wave_cap: Option<u64>,
    broadcast_counter: u64,
    stats: GossipStats,
}

/// Default chunks per broadcast block (the SNIPPETS exemplar's 10,
/// rounded to a power of two).
pub const DEFAULT_GOSSIP_CHUNKS: usize = 8;

impl GossipTransport {
    /// Builds a coded-gossip transport over `topo`; `seed` drives the
    /// coding coefficients (independent of algorithm and fault RNGs).
    ///
    /// # Errors
    ///
    /// [`CongestError::Partitioned`] when `topo` is disconnected — a
    /// typed rejection before any round is charged.
    pub fn new(topo: Topology, seed: u64) -> Result<Self, CongestError> {
        topo.require_connected()?;
        let net = Clique::new(topo.n())?;
        Ok(GossipTransport {
            topo,
            net,
            chunks: DEFAULT_GOSSIP_CHUNKS,
            seed,
            wave_cap: None,
            broadcast_counter: 0,
            stats: GossipStats::default(),
        })
    }

    /// Sets the chunks per block. `1` degenerates to uncoded flooding —
    /// every packet is the whole block — which is the "retry by
    /// repetition" baseline the transport matrix calls *flood*.
    ///
    /// # Panics
    ///
    /// Panics when `chunks == 0`.
    #[must_use]
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks > 0, "need at least one chunk");
        self.chunks = chunks;
        self
    }

    /// Caps the waves a single broadcast may take before it fails with
    /// [`CongestError::DecodeFailed`]. Defaults to
    /// `8 · (chunks + hop diameter) + 40`.
    #[must_use]
    pub fn with_wave_cap(mut self, cap: u64) -> Self {
        self.wave_cap = Some(cap);
        self
    }

    /// Read access to the inner round/metrics engine.
    #[must_use]
    pub fn network(&self) -> &Clique {
        &self.net
    }

    /// Total synchronous rounds charged so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.net.rounds()
    }

    /// Cumulative coded-gossip statistics.
    #[must_use]
    pub fn gossip_stats(&self) -> &GossipStats {
        &self.stats
    }

    /// Opens a top-level accounting phase.
    pub fn begin_phase(&mut self, label: &str) {
        self.net.begin_phase(label);
    }

    /// Closes any spans left open (error-path cleanup).
    pub fn close_all_spans(&mut self) {
        self.net.close_all_spans();
    }

    /// Attaches an NDJSON trace sink.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.net.set_trace_sink(sink);
    }

    /// Arms deterministic fault injection.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.net.set_fault_plan(plan);
    }

    /// One node delivers `block` to every node; returns each node's copy
    /// (index = node id), all byte-identical to `block` on success.
    ///
    /// # Errors
    ///
    /// [`CongestError::UnknownNode`] for an out-of-range source;
    /// [`CongestError::NodeCrashed`] or [`CongestError::DecodeFailed`]
    /// when faults defeat delivery.
    pub fn broadcast_block(
        &mut self,
        src: NodeId,
        block: &[u8],
    ) -> Result<Vec<Vec<u8>>, CongestError> {
        self.net.push_span(&format!("rlnc/src{}", src.index()));
        let result = self.broadcast_inner(src, block);
        self.net.pop_span();
        result
    }

    /// Every node contributes one block; returns `views[node][src]` =
    /// node's copy of `src`'s block, complete on every node or a typed
    /// error.
    ///
    /// # Errors
    ///
    /// [`CongestError::UnknownNode`] unless there is one block per node;
    /// otherwise as [`GossipTransport::broadcast_block`].
    pub fn gossip_blocks(&mut self, blocks: &[Vec<u8>]) -> Result<Vec<Vec<Vec<u8>>>, CongestError> {
        let n = self.topo.n();
        if blocks.len() != n {
            return Err(CongestError::UnknownNode {
                node: NodeId::new(blocks.len()),
                n,
            });
        }
        // A conservative sequential schedule: one coded broadcast per
        // source. Rounds add up source by source, which upper-bounds any
        // interleaved schedule and keeps the accounting legible.
        let mut views: Vec<Vec<Vec<u8>>> = vec![Vec::with_capacity(n); n];
        for (i, block) in blocks.iter().enumerate() {
            let copies = self.broadcast_block(NodeId::new(i), block)?;
            for (view, copy) in views.iter_mut().zip(copies) {
                view.push(copy);
            }
        }
        Ok(views)
    }

    fn effective_wave_cap(&self) -> u64 {
        self.wave_cap.unwrap_or_else(|| {
            let diameter = self.topo.hop_diameter().unwrap_or(0);
            8 * (self.chunks as u64 + diameter) + 40
        })
    }

    fn is_crashed(&self, node: usize) -> bool {
        self.net
            .faults
            .as_ref()
            .is_some_and(|f| f.is_crashed(NodeId::new(node)))
    }

    /// One RLNC broadcast: spray coded packets along topology edges until
    /// every node decodes, a node crashes, or the wave cap runs out.
    fn broadcast_inner(&mut self, src: NodeId, block: &[u8]) -> Result<Vec<Vec<u8>>, CongestError> {
        let n = self.topo.n();
        if src.index() >= n {
            return Err(CongestError::UnknownNode { node: src, n });
        }
        let parts = split_block(block, self.chunks);
        let chunk_bytes = parts[0].len();
        self.broadcast_counter += 1;
        let epoch = self.broadcast_counter;
        let mut decoders: Vec<Decoder> = (0..n)
            .map(|i| {
                if i == src.index() {
                    Decoder::source(&parts)
                } else {
                    Decoder::new(self.chunks, chunk_bytes)
                }
            })
            .collect();
        let mut rngs: Vec<PacketRng> = (0..n)
            .map(|i| PacketRng::new(self.seed ^ (epoch << 24) ^ (i as u64)))
            .collect();
        let rounds_before = Clique::rounds(&self.net);
        let cap = self.effective_wave_cap();
        let mut wave = 0u64;
        loop {
            // Fail-stop is unrecoverable for gossip: a crashed node can
            // never decode, so surface it as the typed error immediately.
            if let Some(node) = (0..n).find(|&i| self.is_crashed(i)) {
                return Err(CongestError::NodeCrashed {
                    node: NodeId::new(node),
                    phase: self.net.phase_label(),
                });
            }
            let full = decoders.iter().filter(|d| d.is_full()).count();
            if full == n {
                break;
            }
            if wave >= cap {
                return Err(CongestError::DecodeFailed {
                    phase: self.net.phase_label(),
                    undecoded: n - full,
                    rounds: Clique::rounds(&self.net) - rounds_before,
                });
            }
            // Every informed node sprays one fresh combination per
            // neighbor — no acks, no feedback; the redundancy is the
            // mechanism and the waste is measured, not hidden.
            let mut sends = Vec::new();
            for u in 0..n {
                if decoders[u].rank() == 0 || self.is_crashed(u) {
                    continue;
                }
                for &v in self.topo.neighbors(u) {
                    let packet = decoders[u]
                        .emit(&mut rngs[u])
                        .expect("rank > 0 emits a packet");
                    sends.push(Envelope::new(NodeId::new(u), NodeId::new(v), packet));
                }
            }
            if sends.is_empty() {
                // Unreachable with a connected topology and a live source,
                // but guard against looping forever.
                return Err(CongestError::DecodeFailed {
                    phase: self.net.phase_label(),
                    undecoded: n - full,
                    rounds: Clique::rounds(&self.net) - rounds_before,
                });
            }
            let sent = sends.len() as u64;
            let inboxes = self.net.exchange(sends)?;
            wave += 1;
            let mut innovative = 0u64;
            let mut wasted = 0u64;
            let mut wasted_bits = 0u64;
            for (v, decoder) in decoders.iter_mut().enumerate() {
                let me = NodeId::new(v);
                for (_, packet) in inboxes.of(me) {
                    if decoder.absorb(&packet.coeffs, &packet.data) {
                        innovative += 1;
                    } else {
                        wasted += 1;
                        wasted_bits += packet.bit_size();
                    }
                }
            }
            let full_now = decoders.iter().filter(|d| d.is_full()).count();
            self.stats.waves += 1;
            self.stats.packets_sent += sent;
            self.stats.innovative_packets += innovative;
            self.stats.wasted_packets += wasted;
            self.stats.wasted_bits += wasted_bits;
            self.stats.full_nodes = full_now;
            self.stats.per_wave.push(WaveStats {
                wave: wave - 1,
                sent,
                innovative,
                wasted,
                full_nodes: full_now,
            });
        }
        self.stats.broadcasts += 1;
        self.stats.full_nodes = n;
        let mut out = Vec::with_capacity(n);
        for (i, d) in decoders.iter().enumerate() {
            let framed = d.decode().ok_or_else(|| CongestError::DecodeFailed {
                phase: self.net.phase_label(),
                undecoded: 1,
                rounds: Clique::rounds(&self.net) - rounds_before,
            })?;
            let block = unframe(&framed).ok_or_else(|| CongestError::DecodeFailed {
                phase: self.net.phase_label(),
                undecoded: 1,
                rounds: Clique::rounds(&self.net) - rounds_before,
            })?;
            debug_assert_eq!(
                block.len(),
                out.first().map_or(block.len(), Vec::len),
                "{i}"
            );
            out.push(block);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{parse_trace, TraceSummary};

    #[test]
    fn gossip_broadcast_decodes_on_every_topology() {
        let block: Vec<u8> = (0..50).map(|i| (i * 7) as u8).collect();
        for topo in [
            Topology::clique(6),
            Topology::ring(6),
            Topology::torus(6),
            Topology::random_mesh(9, 4, 3),
        ] {
            let n = topo.n();
            let label = topo.label().to_string();
            let mut t = GossipTransport::new(topo, 11).unwrap();
            let views = t.broadcast_block(NodeId::new(1), &block).unwrap();
            assert_eq!(views.len(), n, "{label}");
            assert!(views.iter().all(|v| v == &block), "{label}");
            let stats = t.gossip_stats();
            assert_eq!(stats.full_nodes, n, "{label}");
            assert!(stats.packets_sent > 0, "{label}");
            assert!(stats.innovative_packets >= (n as u64 - 1), "{label}");
            assert!(t.rounds() > 0, "{label}");
        }
    }

    #[test]
    fn flood_mode_is_chunks_one() {
        let mut t = GossipTransport::new(Topology::ring(5), 2)
            .unwrap()
            .with_chunks(1);
        let views = t.broadcast_block(NodeId::new(0), b"flood").unwrap();
        assert!(views.iter().all(|v| v == b"flood"));
        // One chunk: a ring needs about diameter waves to cover.
        let stats = t.gossip_stats();
        assert!(stats.waves >= 2, "waves = {}", stats.waves);
    }

    #[test]
    fn partitioned_topology_is_rejected_at_construction() {
        let topo = Topology::from_edges(6, &[(0, 1), (2, 3), (4, 5)], "islands");
        let err = GossipTransport::new(topo, 0).unwrap_err();
        assert_eq!(err, CongestError::Partitioned { reachable: 2, n: 6 });
    }

    #[test]
    fn crash_surfaces_as_typed_error() {
        let mut t = GossipTransport::new(Topology::ring(6), 4).unwrap();
        let mut plan = FaultPlan::parse("crash=3@0,seed=1").unwrap();
        plan.seed = 1;
        t.set_fault_plan(plan);
        let err = t.broadcast_block(NodeId::new(0), b"doomed").unwrap_err();
        match err {
            CongestError::NodeCrashed { node, .. } => assert_eq!(node.index(), 3),
            other => panic!("expected NodeCrashed, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_wave_cap_is_decode_failed() {
        // Cap of zero: the first wave never happens, so the broadcast
        // must fail with the typed decode error, never hang or lie.
        let mut t = GossipTransport::new(Topology::ring(5), 4)
            .unwrap()
            .with_wave_cap(0);
        let err = t.broadcast_block(NodeId::new(0), b"never").unwrap_err();
        match err {
            CongestError::DecodeFailed { undecoded, .. } => assert_eq!(undecoded, 4),
            other => panic!("expected DecodeFailed, got {other:?}"),
        }
    }

    #[test]
    fn gossip_blocks_all_sources_all_views() {
        let n = 5;
        let (sink, buffer) = TraceSink::in_memory();
        let mut t = GossipTransport::new(Topology::torus(n), 8).unwrap();
        t.set_trace_sink(sink);
        let blocks: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 8 + i]).collect();
        let views = t.gossip_blocks(&blocks).unwrap();
        for view in &views {
            assert_eq!(view, &blocks);
        }
        assert_eq!(t.gossip_stats().broadcasts, n as u64);
        t.close_all_spans();
        // Every source's broadcast charged rounds to its own rlnc/srcN span.
        let events = parse_trace(&buffer.contents()).unwrap();
        let summary = TraceSummary::from_events(&events).unwrap();
        summary.verify().unwrap();
        let charged: Vec<&str> = summary
            .spans()
            .iter()
            .enumerate()
            .filter(|&(idx, s)| s.label.starts_with("rlnc/") && summary.subtree_rounds(idx) > 0)
            .map(|(_, s)| s.label.as_str())
            .collect();
        assert_eq!(
            charged,
            [
                "rlnc/src0",
                "rlnc/src1",
                "rlnc/src2",
                "rlnc/src3",
                "rlnc/src4"
            ]
        );
        assert_eq!(summary.total_rounds(), t.rounds());
    }

    #[test]
    fn gossip_survives_mild_drop_rates() {
        let mut t = GossipTransport::new(Topology::random_mesh(8, 4, 2), 6).unwrap();
        t.set_fault_plan(FaultPlan::parse("drop=0.05,seed=3").unwrap());
        let block: Vec<u8> = (0..40).collect();
        let views = t.broadcast_block(NodeId::new(0), &block).unwrap();
        assert!(views.iter().all(|v| v == &block));
        let stats = t.gossip_stats();
        assert!(
            stats.innovative_packets + stats.wasted_packets <= stats.packets_sent,
            "drops mean fewer arrivals than sends"
        );
    }

    #[test]
    fn stats_waste_fraction_is_bounded() {
        let mut s = GossipStats::default();
        assert_eq!(s.waste_fraction(), 0.0);
        s.packets_sent = 10;
        s.wasted_packets = 3;
        assert!((s.waste_fraction() - 0.3).abs() < 1e-12);
    }
}
