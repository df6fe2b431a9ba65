//! The synchronous CONGEST-CLIQUE network.
//!
//! [`Clique`] simulates `n` nodes connected by a complete graph of reliable
//! links. Time advances in synchronous rounds; in each round every ordered
//! pair of nodes may carry one message of at most `B = Θ(log n)` bits.
//! The simulator executes message schedules exactly and charges rounds
//! according to the model's rules:
//!
//! * **Direct exchange** ([`Clique::exchange`]): messages travel on the
//!   `(src, dst)` link; a phase in which the busiest link carries `L` bits
//!   takes `⌈L / B⌉` rounds (all links operate in parallel).
//! * **Routed exchange** ([`Clique::route`]): implements Lemma 1 of the
//!   paper (Dolev, Lenzen & Peled): any message set in which no node sends
//!   or receives more than `n` message units is delivered in 2 rounds via
//!   intermediate relays. Heavier sets take `2·⌈Δ/n⌉` rounds where `Δ` is
//!   the maximum per-node unit load. The relay schedule, an exact König
//!   edge coloring of the demand multigraph ([`crate::coloring`]), exists
//!   by König's theorem; its cost and its busiest link (`⌈Δ/n⌉` units per
//!   hop) are closed forms in `Δ`, so the simulator charges them without
//!   building it.
//!
//! Local computation is free, as in the model. Messages from a node to
//! itself are local and cost nothing.
//!
//! # Host performance
//!
//! A simulation run makes one `exchange`/`route` call per communication
//! phase, often many thousands per experiment, so the accounting paths are
//! written to be allocation-free after warm-up: link-bit tallies live in a
//! dense `n²` scratch vector indexed by `src · n + dst` (cleared sparsely
//! through a touched-index list), payload bit-sizes are computed once per
//! envelope into a reusable buffer, inboxes are pre-sized from a counting
//! pass, a route is charged from its per-node unit loads alone, and gossip
//! on a transparent network is charged from its list sizes. Under faults
//! the ack/retransmit envelope never touches a payload until the end: each
//! wave is charged from the pending messages' links and sealed widths by
//! the same accounting code as a raw call, its acks are read off the
//! arriving copies by one counting pass, and the payloads are placed once,
//! by the raw delivery's counting placement, when every message is acked
//! (see [`crate::ReliableConfig`]). None of this affects the *model*:
//! charged rounds and all other metrics are byte-identical to the
//! straightforward implementation, which `tests/determinism.rs` pins
//! against recorded counts.

use crate::envelope::{Envelope, GossipViews, Inboxes};
use crate::error::CongestError;
use crate::fault::{FaultCounts, FaultKind, FaultPlan, FaultState, MsgFate};
use crate::metrics::Metrics;
use crate::node::NodeId;
use crate::payload::{bits_for_count, Payload};
use crate::reliable::ReliableConfig;
use crate::tally::{Leg, LinkTally};
use crate::trace::TraceSink;

/// Default multiplier: one message carries `DEFAULT_BANDWIDTH_FACTOR · ⌈log₂ n⌉` bits.
///
/// The model allows `O(log n)` bits per message; the factor of 16 lets one
/// message carry a small constant number of (vertex id, vertex id, weight)
/// records, which keeps the constants of the simulated algorithms close to
/// the paper's presentation.
pub const DEFAULT_BANDWIDTH_FACTOR: u64 = 16;

/// The raw primitive that carries a call's messages.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Wave {
    /// Direct link delivery, tagged with its trace kind (`"exchange"`,
    /// `"broadcast"`, `"gossip"`, or the envelope's `"ack"`).
    Exchange(&'static str),
    /// Lemma 1 relay routing.
    Route,
}

/// Reusable per-call working memory of a [`Clique`].
///
/// Every buffer is either fixed-size (allocated once in the constructor)
/// or grows to the largest phase seen and is then reused. The dense `n²`
/// tallies are cleared sparsely: each write records its index in a touched
/// list, and the tally is zeroed through that list after the maximum is
/// read, so a phase touching `m` links costs `O(m)`, not `O(n²)`.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Dense `n²` per-link bit tally for `exchange`, indexed `src · n + dst`.
    link_bits: Vec<u64>,
    /// Indices of `link_bits` written this call.
    touched_links: Vec<usize>,
    /// Per-node outgoing bits (or units, in `route`).
    out_load: Vec<u64>,
    /// Per-node incoming bits (or units, in `route`).
    in_load: Vec<u64>,
    /// Dense `n²` per-`(dst, src)` message tally for arena placement and
    /// the envelope's ack order, indexed `dst · n + src`; doubles as the
    /// write-cursor table during the placement pass.
    pair_counts: Vec<u32>,
    /// Copies of each message of the current call that arrive under the
    /// armed fault plan (0–2).
    fate_copies: Vec<u8>,
    /// Bit size of each message of the current call, computed once per
    /// call (sealed widths in an envelope wave).
    bit_sizes: Vec<u64>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            link_bits: vec![0; n * n],
            out_load: vec![0; n],
            in_load: vec![0; n],
            pair_counts: vec![0; n * n],
            ..Scratch::default()
        }
    }
}

/// A synchronous fully connected network of `n` nodes with `O(log n)`-bit links.
///
/// # Examples
///
/// ```
/// use qcc_congest::{Clique, Envelope, NodeId};
///
/// let mut net = Clique::new(4)?;
/// let sends = vec![Envelope::new(NodeId::new(0), NodeId::new(1), 7u64)];
/// let inboxes = net.exchange(sends)?;
/// assert_eq!(inboxes.of(NodeId::new(1)), &[(NodeId::new(0), 7u64)]);
/// assert!(net.rounds() >= 1);
/// # Ok::<(), qcc_congest::CongestError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Clique {
    n: usize,
    bandwidth_bits: u64,
    pub(crate) metrics: Metrics,
    scratch: Scratch,
    /// Active fault injection, `None` for a perfectly reliable network.
    /// With `None` every primitive keeps its exact raw code path, so
    /// round counts stay byte-identical to a fault-free build.
    pub(crate) faults: Option<FaultState>,
    /// Ack/retransmit envelope configuration; engages only together with
    /// `faults` (see [`Clique::envelope_active`]).
    pub(crate) reliable: Option<ReliableConfig>,
}

impl Clique {
    /// Creates an `n`-node network with the default bandwidth
    /// `DEFAULT_BANDWIDTH_FACTOR · ⌈log₂ n⌉` bits per link per round.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::EmptyNetwork`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self, CongestError> {
        Self::with_bandwidth(n, DEFAULT_BANDWIDTH_FACTOR * bits_for_count(n.max(2)))
    }

    /// Creates an `n`-node network with an explicit per-link bandwidth in bits.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::EmptyNetwork`] if `n == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bits == 0`.
    pub fn with_bandwidth(n: usize, bandwidth_bits: u64) -> Result<Self, CongestError> {
        if n == 0 {
            return Err(CongestError::EmptyNetwork);
        }
        assert!(bandwidth_bits > 0, "bandwidth must be positive");
        Ok(Clique {
            n,
            bandwidth_bits,
            metrics: Metrics::new(),
            scratch: Scratch::new(n),
            faults: None,
            reliable: None,
        })
    }

    /// Number of nodes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-link bandwidth in bits per round.
    #[must_use]
    pub fn bandwidth_bits(&self) -> u64 {
        self.bandwidth_bits
    }

    /// Total rounds consumed so far.
    #[must_use]
    pub fn rounds(&self) -> u64 {
        self.metrics.total_rounds()
    }

    /// Accumulated communication metrics.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Starts a new named accounting phase (see [`Metrics::begin_phase`]).
    pub fn begin_phase(&mut self, label: &str) {
        self.metrics.begin_phase(label);
    }

    /// Ends the current phase's leaf span (see [`Metrics::end_phase`]).
    pub fn end_phase(&mut self) {
        self.metrics.end_phase();
    }

    /// Opens an explicit grouping span (see [`Metrics::push_span`]).
    pub fn push_span(&mut self, label: &str) {
        self.metrics.push_span(label);
    }

    /// Closes the innermost grouping span (see [`Metrics::pop_span`]).
    pub fn pop_span(&mut self) {
        self.metrics.pop_span();
    }

    /// Closes every open span so an attached trace is well formed
    /// (see [`Metrics::close_all_spans`]).
    pub fn close_all_spans(&mut self) {
        self.metrics.close_all_spans();
    }

    /// Attaches an NDJSON trace sink (see [`Metrics::set_trace_sink`]).
    /// Tracing is pure observation: charged rounds are byte-identical with
    /// and without a sink.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.metrics.set_trace_sink(sink);
    }

    /// Arms deterministic fault injection from `plan`.
    ///
    /// An empty plan (no rates, no crashes) stores nothing at all, so the
    /// primitives keep their exact raw code path and round accounting stays
    /// byte-identical to a network that never heard of faults.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = if plan.is_empty() {
            None
        } else {
            Some(FaultState::new(plan, self.n))
        };
    }

    /// Enables the ack/retransmit envelope (see [`crate::ReliableConfig`]).
    ///
    /// The envelope only changes behaviour while a non-empty fault plan is
    /// armed; on a reliable network it is configuration without effect.
    pub fn set_reliable_delivery(&mut self, cfg: ReliableConfig) {
        self.reliable = Some(cfg);
    }

    /// The armed fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| &f.plan)
    }

    /// Global tally of injected faults.
    #[must_use]
    pub fn fault_counts(&self) -> &FaultCounts {
        self.metrics.fault_counts()
    }

    /// True when communication runs through the reliable-delivery envelope:
    /// faults are armed *and* an envelope is configured.
    #[must_use]
    pub fn envelope_active(&self) -> bool {
        self.faults.is_some() && self.reliable.is_some()
    }

    /// True when the network delivers exactly what is sent: no fault plan
    /// armed and no reliable-delivery envelope. Bulk evaluators use this to
    /// decide whether a phase may be charged analytically via
    /// [`Clique::charge_exchange_tally`] with answers computed locally;
    /// lossy or enveloped networks need real payloads on the wire.
    #[must_use]
    pub fn is_transparent(&self) -> bool {
        self.faults.is_none() && self.reliable.is_none()
    }

    /// Label of the innermost open accounting phase, for fault diagnostics.
    pub(crate) fn phase_label(&self) -> String {
        self.metrics
            .current_phase()
            .unwrap_or("(unlabelled)")
            .to_string()
    }

    /// Per-communication-call fault bookkeeping: advances the fate stream
    /// and fires crash events whose round has arrived. No-op without faults.
    fn fault_call_begin(&mut self) {
        let Some(faults) = &mut self.faults else {
            return;
        };
        faults.begin_call();
        let newly_crashed = faults.update_crashes(self.metrics.total_rounds());
        for _ in 0..newly_crashed {
            self.metrics.record_fault(FaultKind::Crash);
        }
    }

    /// Copies of message `idx` on `src → dst` that arrive under the armed
    /// fault plan, recording per-message fault events exactly as legacy
    /// per-message delivery did. Local messages never fault; messages
    /// touching a crashed endpoint vanish silently (the crash itself was
    /// recorded once by [`Clique::fault_call_begin`]).
    fn message_fate(&mut self, idx: usize, src: NodeId, dst: NodeId) -> u8 {
        if src == dst {
            return 1;
        }
        let fate = {
            let faults = self.faults.as_ref().expect("message_fate needs faults");
            if faults.is_crashed(src) || faults.is_crashed(dst) {
                return 0;
            }
            faults.fate(idx as u64, src, dst)
        };
        match fate {
            MsgFate::Deliver => 1,
            MsgFate::Drop => {
                self.metrics.record_fault(FaultKind::Drop);
                0
            }
            // Links are checksummed: a corrupted message is detected and
            // discarded by the receiver, not delivered mangled.
            MsgFate::Corrupt => {
                self.metrics.record_fault(FaultKind::Corrupt);
                0
            }
            MsgFate::Duplicate => {
                self.metrics.record_fault(FaultKind::Duplicate);
                2
            }
        }
    }

    /// Resolves the fate of every message of the current call, in
    /// submission order: message `j` travels on the `j`-th of `links`.
    /// Fault events are recorded as they are drawn, right after the call's
    /// comm event, as the trace format expects. Returns the copies of each
    /// message that arrive (0–2), which stay readable until the next call.
    pub(crate) fn resolve_fates(&mut self, links: impl Iterator<Item = (NodeId, NodeId)>) -> &[u8] {
        self.scratch.fate_copies.clear();
        for (idx, (src, dst)) in links.enumerate() {
            let copies = self.message_fate(idx, src, dst);
            self.scratch.fate_copies.push(copies);
        }
        &self.scratch.fate_copies
    }

    /// Delivers `sends` into per-node inboxes, preserving the model's
    /// delivery order (destination; sender; submission order), with the
    /// armed fault plan's fates applied.
    fn deliver<T: Payload>(&mut self, sends: Vec<Envelope<T>>) -> Inboxes<T> {
        let faulty = self.faults.is_some();
        if faulty {
            self.resolve_fates(links_of(&sends));
        }
        self.place(sends, faulty)
    }

    /// Places `sends` into per-node inboxes in the model's delivery order.
    /// With `fated`, send `i` arrives `scratch.fate_copies[i]` times (the
    /// two copies of a duplicate adjacent); otherwise every send arrives
    /// once.
    ///
    /// Each record goes directly to its final arena offset via a
    /// `(dst, src)` counting pass — no per-node vectors and no sort.
    /// `tests/delivery_reference.rs` checks the result against a stable
    /// sort of the arriving copies.
    pub(crate) fn place<T: Payload>(&mut self, sends: Vec<Envelope<T>>, fated: bool) -> Inboxes<T> {
        let n = self.n;
        let s = &mut self.scratch;
        let copies_of = |fates: &[u8], idx: usize| if fated { fates[idx] } else { 1 };
        let fates = &s.fate_copies;
        let arrivals = sends
            .iter()
            .enumerate()
            .map(|(idx, e)| (e.src, e.dst, copies_of(fates, idx)));
        let total = arrival_cursors(&mut s.pair_counts, n, arrivals);
        // The first cursor of each destination's row is its inbox offset.
        let mut starts: Vec<usize> = (0..n).map(|d| s.pair_counts[d * n] as usize).collect();
        starts.push(total);
        // Place each send (in submission order) at its cursor. Within a
        // (dst, src) pair cursors advance with submission order, so the
        // placement reproduces the stable sort without sorting.
        let mut slots: Vec<Option<(NodeId, T)>> = Vec::new();
        slots.resize_with(total, || None);
        for (idx, e) in sends.into_iter().enumerate() {
            let copies = copies_of(&s.fate_copies, idx);
            if copies == 0 {
                continue;
            }
            for _ in 1..copies {
                let pos = next_slot(&mut s.pair_counts, n, e.src, e.dst);
                slots[pos] = Some((e.src, e.payload.clone()));
            }
            let pos = next_slot(&mut s.pair_counts, n, e.src, e.dst);
            slots[pos] = Some((e.src, e.payload));
        }
        let data: Vec<(NodeId, T)> = slots
            .into_iter()
            .map(|slot| slot.expect("tally placed every arriving copy"))
            .collect();
        Inboxes::from_parts(data, starts)
    }

    /// Lists the copies that arrived in the call whose fates were resolved
    /// last, in the model's delivery order (receiver; sender; submission
    /// order; the two copies of a duplicate adjacent): `out[k]` is the tag
    /// of the message behind the `k`-th arriving copy. Message `j` of that
    /// call is the `j`-th of `msgs`, as `(src, dst, tag)`.
    pub(crate) fn arrivals_in_delivery_order<I>(&mut self, msgs: I, out: &mut Vec<usize>)
    where
        I: Iterator<Item = (NodeId, NodeId, usize)> + Clone,
    {
        let n = self.n;
        let s = &mut self.scratch;
        let fates = &s.fate_copies;
        let arrivals = msgs
            .clone()
            .zip(fates)
            .map(|((src, dst, _), &copies)| (src, dst, copies));
        let total = arrival_cursors(&mut s.pair_counts, n, arrivals);
        out.clear();
        out.resize(total, 0);
        for ((src, dst, tag), &copies) in msgs.zip(fates) {
            for _ in 0..copies {
                out[next_slot(&mut s.pair_counts, n, src, dst)] = tag;
            }
        }
    }

    fn validate<T>(&self, sends: &[Envelope<T>]) -> Result<(), CongestError> {
        for e in sends {
            for node in [e.src, e.dst] {
                if node.index() >= self.n {
                    return Err(CongestError::UnknownNode { node, n: self.n });
                }
            }
        }
        Ok(())
    }

    /// Fills the bit-size cache: entry `i` is the width of message `i` of
    /// the next call.
    pub(crate) fn set_bit_sizes(&mut self, sizes: impl Iterator<Item = u64>) {
        self.scratch.bit_sizes.clear();
        self.scratch.bit_sizes.extend(sizes);
    }

    /// The bit-size cache (see [`Clique::set_bit_sizes`]).
    pub(crate) fn bit_sizes(&self) -> &[u64] {
        &self.scratch.bit_sizes
    }

    /// Runs one call whose message widths are cached: through the
    /// ack/retransmit envelope when it is active, else charged on `wave`'s
    /// primitive and delivered raw.
    fn send_presized<T: Payload>(
        &mut self,
        sends: Vec<Envelope<T>>,
        wave: Wave,
    ) -> Result<Inboxes<T>, CongestError> {
        if self.envelope_active() {
            return self.deliver_reliably(sends, wave);
        }
        self.charge_wave(links_of(&sends), wave);
        Ok(self.deliver(sends))
    }

    /// Charges one call on `wave`'s primitive: message `i` travels on the
    /// `i`-th of `links` and is `scratch.bit_sizes[i]` bits wide. Starts
    /// the call's fault bookkeeping first, so crashes due by now silence
    /// their senders.
    pub(crate) fn charge_wave<I>(&mut self, links: I, wave: Wave)
    where
        I: ExactSizeIterator<Item = (NodeId, NodeId)>,
    {
        self.fault_call_begin();
        debug_assert_eq!(links.len(), self.scratch.bit_sizes.len());
        match wave {
            Wave::Exchange(kind) => self.charge_exchange(links, kind),
            Wave::Route => self.charge_route(links),
        }
    }

    /// Delivers messages directly on their `(src, dst)` links.
    ///
    /// The phase costs `max over ordered pairs (u,v) of ⌈bits(u→v) / B⌉`
    /// rounds: links operate in parallel, and consecutive rounds on the same
    /// link transmit fragments of the queued payloads in order. Messages
    /// with `src == dst` are local and free.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::UnknownNode`] if any endpoint is out of range.
    pub fn exchange<T: Payload>(
        &mut self,
        sends: Vec<Envelope<T>>,
    ) -> Result<Inboxes<T>, CongestError> {
        self.validate(&sends)?;
        self.set_bit_sizes(sends.iter().map(|e| e.payload.bit_size()));
        self.send_presized(sends, Wave::Exchange("exchange"))
    }

    /// Charges one direct-link call (see [`Clique::charge_wave`]); `kind`
    /// tags the trace event (`broadcast`, `gossip` and the envelope's
    /// `ack` waves funnel here).
    fn charge_exchange(
        &mut self,
        links: impl Iterator<Item = (NodeId, NodeId)>,
        kind: &'static str,
    ) {
        let n = self.n;
        let s = &mut self.scratch;
        let faults = self.faults.as_ref();
        s.out_load.fill(0);
        s.in_load.fill(0);
        let mut total_bits = 0u64;
        let mut message_count = 0u64;
        for ((src, dst), &bits) in links.zip(&s.bit_sizes) {
            // A fail-stopped sender emits nothing, so its messages are not
            // charged; a crashed *receiver*'s inbound links still carry the
            // (wasted) bits.
            let sender_up = faults.is_none_or(|f| !f.is_crashed(src));
            if src != dst && sender_up {
                let link = src.index() * n + dst.index();
                if s.link_bits[link] == 0 && bits > 0 {
                    s.touched_links.push(link);
                }
                s.link_bits[link] += bits;
                s.out_load[src.index()] += bits;
                s.in_load[dst.index()] += bits;
                total_bits += bits;
                message_count += 1;
            }
        }
        let max_link = s
            .touched_links
            .iter()
            .map(|&l| s.link_bits[l])
            .max()
            .unwrap_or(0);
        for &l in &s.touched_links {
            s.link_bits[l] = 0;
        }
        s.touched_links.clear();
        let rounds = max_link.div_ceil(self.bandwidth_bits);
        let max_out = s.out_load.iter().copied().max().unwrap_or(0);
        let max_in = s.in_load.iter().copied().max().unwrap_or(0);
        // Record the comm event before the fates are drawn so per-message
        // fault events in the trace follow the call that carried them.
        self.metrics.record_comm(
            kind,
            rounds,
            message_count,
            total_bits,
            max_link,
            max_out,
            max_in,
        );
    }

    /// Charges one `exchange` phase from a [`LinkTally`] instead of
    /// materialized envelopes, every message exactly `bits_per_msg` bits
    /// wide. [`Leg::Forward`] charges each message on the link it was
    /// tallied on; [`Leg::Reverse`] charges one message on the reverse link
    /// for each, as the replies to a tallied query leg travel. Rounds,
    /// message and bit totals, per-link and per-node maxima, and the
    /// emitted trace event are byte-identical to [`Clique::exchange`] over
    /// the same traffic; local (`src == dst`) messages are free, as in the
    /// materialized path. Costs `O(n)` plus the tally's link count. Returns
    /// the rounds charged.
    ///
    /// Only available on a transparent network ([`Clique::is_transparent`]):
    /// faulty or enveloped networks need real payloads on the wire to drop,
    /// duplicate, or acknowledge, so callers must fall back to
    /// [`Clique::exchange`] there.
    ///
    /// # Panics
    ///
    /// Panics if the network is not transparent or the tally covers a
    /// network of another size.
    pub fn charge_exchange_tally(&mut self, tally: &LinkTally, bits_per_msg: u64, leg: Leg) -> u64 {
        assert!(
            self.is_transparent(),
            "charge-only exchange requires a transparent network"
        );
        assert_eq!(tally.n(), self.n, "tally must cover this network");
        let s = &mut self.scratch;
        s.out_load.fill(0);
        s.in_load.fill(0);
        let mut total_bits = 0u64;
        let mut message_count = 0u64;
        let mut max_link = 0u64;
        for (a, b, count) in tally.links() {
            if a == b {
                continue;
            }
            let (src, dst) = match leg {
                Leg::Forward => (a, b),
                Leg::Reverse => (b, a),
            };
            let bits = u64::from(count) * bits_per_msg;
            message_count += u64::from(count);
            total_bits += bits;
            max_link = max_link.max(bits);
            s.out_load[src] += bits;
            s.in_load[dst] += bits;
        }
        let rounds = max_link.div_ceil(self.bandwidth_bits);
        let max_out = s.out_load.iter().copied().max().unwrap_or(0);
        let max_in = s.in_load.iter().copied().max().unwrap_or(0);
        self.metrics.record_comm(
            "exchange",
            rounds,
            message_count,
            total_bits,
            max_link,
            max_out,
            max_in,
        );
        rounds
    }

    /// Charges one `route` phase from a pre-tallied link table instead of
    /// materialized envelopes: `link_msgs[src · n + dst]` messages on each
    /// link, every message exactly `bits_per_msg` bits wide. The recorded
    /// rounds, totals, maxima, and trace event are byte-identical to
    /// [`Clique::route`] over the same traffic, whose charge depends only
    /// on the per-node unit loads; local (`src == dst`) entries are free.
    /// Costs `O(n²)`. Returns the rounds charged.
    ///
    /// # Panics
    ///
    /// Panics if the network is not transparent or `link_msgs.len() ≠ n²`.
    pub fn charge_route_tally(&mut self, link_msgs: &[u32], bits_per_msg: u64) -> u64 {
        assert!(
            self.is_transparent(),
            "charge-only route requires a transparent network"
        );
        let n = self.n;
        assert_eq!(link_msgs.len(), n * n, "link table must be n × n");
        let units_per_msg = bits_per_msg.div_ceil(self.bandwidth_bits).max(1);
        let s = &mut self.scratch;
        s.out_load.fill(0);
        s.in_load.fill(0);
        let mut unit_count = 0u64;
        let mut message_count = 0u64;
        for src in 0..n {
            let row = &link_msgs[src * n..(src + 1) * n];
            for (dst, &count) in row.iter().enumerate() {
                if count == 0 || src == dst {
                    continue;
                }
                let units = u64::from(count) * units_per_msg;
                message_count += u64::from(count);
                unit_count += units;
                s.out_load[src] += units;
                s.in_load[dst] += units;
            }
        }
        self.record_route(unit_count, message_count * bits_per_msg)
    }

    /// Delivers messages through intermediate relays (Lemma 1 of the paper).
    ///
    /// Each payload is fragmented into *units* of at most `B` bits. The
    /// demand multigraph over units (one edge `src → dst` per unit) has
    /// maximum degree `Δ`, the largest per-node unit load, and admits a
    /// proper edge coloring with `Δ` colors (König's theorem); color `c`
    /// routes its units through relay node `c mod n` during batch `⌊c/n⌋`.
    /// Every batch takes exactly 2 rounds (one hop to the relay, one hop
    /// onward), so the phase costs `2·⌈Δ/n⌉` rounds.
    ///
    /// The call records the busiest link of one hop as `⌈Δ/n⌉·B` bits, so
    /// `rounds = 2·max_link_bits/B`. Every such schedule attains it: a
    /// node of degree `Δ` uses all `Δ` colors, so its link to relay 0
    /// carries `⌈Δ/n⌉` units, and no link carries more, since below `Δ` at
    /// most `⌈Δ/n⌉` colors share one residue mod `n`. The value depends on
    /// `Δ` alone, so the schedule is never constructed.
    ///
    /// When no node sources or sinks more than `n` units this is the
    /// textbook 2-round guarantee.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::UnknownNode`] if any endpoint is out of range.
    pub fn route<T: Payload>(
        &mut self,
        sends: Vec<Envelope<T>>,
    ) -> Result<Inboxes<T>, CongestError> {
        self.validate(&sends)?;
        self.set_bit_sizes(sends.iter().map(|e| e.payload.bit_size()));
        self.send_presized(sends, Wave::Route)
    }

    /// Charges one Lemma 1 relay call (see [`Clique::charge_wave`]).
    fn charge_route(&mut self, links: impl Iterator<Item = (NodeId, NodeId)>) {
        let s = &mut self.scratch;
        let faults = self.faults.as_ref();
        s.out_load.fill(0);
        s.in_load.fill(0);
        let mut total_bits = 0u64;
        let mut unit_count = 0u64;
        for ((src, dst), &bits) in links.zip(&s.bit_sizes) {
            if src == dst || faults.is_some_and(|f| f.is_crashed(src)) {
                continue;
            }
            total_bits += bits;
            let k = bits.div_ceil(self.bandwidth_bits).max(1);
            unit_count += k;
            s.out_load[src.index()] += k;
            s.in_load[dst.index()] += k;
        }
        self.record_route(unit_count, total_bits);
    }

    /// Records one Lemma 1 call of `units` fragment units carrying `bits`
    /// payload bits, each unit crossing two hops, from the per-node unit
    /// loads in the scratch tallies. Returns the rounds charged.
    fn record_route(&mut self, units: u64, bits: u64) -> u64 {
        let s = &self.scratch;
        let b = self.bandwidth_bits;
        // The per-node unit loads are exactly the left/right degrees of the
        // demand multigraph, so Δ is their maximum.
        let max_out = s.out_load.iter().copied().max().unwrap_or(0);
        let max_in = s.in_load.iter().copied().max().unwrap_or(0);
        let batches = max_out.max(max_in).div_ceil(self.n as u64);
        let rounds = 2 * batches;
        self.metrics.record_comm(
            "route",
            rounds,
            2 * units,
            2 * bits,
            batches * b,
            max_out * b,
            max_in * b,
        );
        rounds
    }

    /// One node sends the same payload to every other node.
    ///
    /// Costs `⌈bits / B⌉` rounds: the broadcaster writes the same fragment
    /// on all of its `n − 1` links each round.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::UnknownNode`] if `src` is out of range.
    pub fn broadcast<T: Payload>(
        &mut self,
        src: NodeId,
        payload: T,
    ) -> Result<Inboxes<T>, CongestError> {
        if src.index() >= self.n {
            return Err(CongestError::UnknownNode {
                node: src,
                n: self.n,
            });
        }
        // The payload is identical on every link: size it once, not n − 1
        // times.
        let bits = payload.bit_size();
        let sends: Vec<Envelope<T>> = NodeId::all(self.n)
            .filter(|&dst| dst != src)
            .map(|dst| Envelope::new(src, dst, payload.clone()))
            .collect();
        self.set_bit_sizes(std::iter::repeat_n(bits, sends.len()));
        self.send_presized(sends, Wave::Exchange("broadcast"))
    }

    /// Every node broadcasts its own list of items to every other node.
    ///
    /// Returns what each node then holds: the concatenation of all nodes'
    /// lists as `(origin, item)` pairs in origin order (including its own
    /// items). Costs `⌈max node list bits / B⌉` rounds.
    ///
    /// On a transparent network ([`Clique::is_transparent`]) every node
    /// receives every list, so the `n − 1` copies of each list are charged
    /// from the list sizes alone and the single view all nodes share is
    /// built once; rounds, metrics and the trace event are byte-identical
    /// to sending the copies. Faulty or enveloped networks send them.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::UnknownNode`] if `items.len() != n` (reported
    /// as an unknown node at index `items.len()`).
    pub fn gossip<T: Payload>(
        &mut self,
        items: Vec<Vec<T>>,
    ) -> Result<GossipViews<T>, CongestError> {
        if items.len() != self.n {
            return Err(CongestError::UnknownNode {
                node: NodeId::new(items.len()),
                n: self.n,
            });
        }
        if self.is_transparent() {
            self.charge_gossip(&items);
            let mut view = Vec::with_capacity(items.iter().map(Vec::len).sum());
            for (i, list) in items.into_iter().enumerate() {
                view.extend(list.into_iter().map(|item| (NodeId::new(i), item)));
            }
            return Ok(GossipViews::shared(self.n, view));
        }
        // Each list is replicated to n − 1 destinations: size it once per
        // source and pre-fill the bit-size cache in send order.
        let mut sends = Vec::with_capacity(self.n.saturating_sub(1) * self.n);
        self.scratch.bit_sizes.clear();
        for (i, list) in items.iter().enumerate() {
            let src = NodeId::new(i);
            let bits = list.bit_size();
            for dst in NodeId::all(self.n) {
                if dst == src {
                    continue;
                }
                sends.push(Envelope::new(src, dst, list.clone()));
                self.scratch.bit_sizes.push(bits);
            }
        }
        let inboxes = self.send_presized(sends, Wave::Exchange("gossip"))?;
        let mut out: Vec<Vec<(NodeId, T)>> = Vec::with_capacity(self.n);
        for (i, own) in items.into_iter().enumerate() {
            let me = NodeId::new(i);
            let inbox = inboxes.of(me);
            let mut all: Vec<(NodeId, T)> = Vec::with_capacity(
                own.len() + inbox.iter().map(|(_, list)| list.len()).sum::<usize>(),
            );
            all.extend(own.into_iter().map(|item| (me, item)));
            for (src, list) in inbox {
                for item in list {
                    all.push((*src, item.clone()));
                }
            }
            all.sort_by_key(|(src, _)| *src);
            out.push(all);
        }
        Ok(GossipViews::per_node(out))
    }

    /// Charges one `gossip` phase in which every list travels to the
    /// `n − 1` other nodes, from the list sizes `b_i` alone: `n(n − 1)`
    /// messages of `(n − 1)·Σb` bits, busiest link `max b`, busiest sender
    /// `(n − 1)·max b` and busiest receiver `Σb − min b` bits — what the
    /// materialized exchange records for the same copies.
    fn charge_gossip<T: Payload>(&mut self, items: &[Vec<T>]) {
        let copies = self.n as u64 - 1;
        let (mut sum, mut max, mut min) = (0u64, 0u64, u64::MAX);
        for list in items {
            let bits = list.bit_size();
            sum += bits;
            max = max.max(bits);
            min = min.min(bits);
        }
        let max_link = if copies == 0 { 0 } else { max };
        self.metrics.record_comm(
            "gossip",
            max_link.div_ceil(self.bandwidth_bits),
            copies * self.n as u64,
            copies * sum,
            max_link,
            copies * max,
            sum - min,
        );
    }

    /// Charges `rounds` synchronous rounds without moving data.
    ///
    /// The reliable envelope charges its deterministic retransmit backoff
    /// through it as idle rounds, and tests use it to charge known amounts.
    /// Every shipped algorithm executes its messages.
    pub fn charge_rounds(&mut self, rounds: u64) {
        self.metrics.record_comm("charge", rounds, 0, 0, 0, 0, 0);
    }
}

/// The `(src, dst)` link of each send, in submission order.
fn links_of<T>(sends: &[Envelope<T>]) -> impl ExactSizeIterator<Item = (NodeId, NodeId)> + '_ {
    sends.iter().map(|e| (e.src, e.dst))
}

/// Tallies `(src, dst, copies)` arrivals into the dense `n²` table
/// `cursors`, indexed `dst · n + src`, and turns the tally into write
/// cursors by an exclusive prefix sum in `(dst, src)` order: each cell then
/// holds the delivery-order position of its first copy. Returns the number
/// of arriving copies.
fn arrival_cursors(
    cursors: &mut [u32],
    n: usize,
    arrivals: impl Iterator<Item = (NodeId, NodeId, u8)>,
) -> usize {
    cursors.fill(0);
    for (src, dst, copies) in arrivals {
        cursors[dst.index() * n + src.index()] += u32::from(copies);
    }
    let mut run = 0usize;
    for cell in cursors.iter_mut() {
        let count = *cell as usize;
        *cell = run as u32;
        run += count;
    }
    run
}

/// Claims the next delivery-order position of a copy on `src → dst` from
/// [`arrival_cursors`]' table.
fn next_slot(cursors: &mut [u32], n: usize, src: NodeId, dst: NodeId) -> usize {
    let cell = &mut cursors[dst.index() * n + src.index()];
    let pos = *cell as usize;
    *cell += 1;
    pos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::RawBits;
    use crate::trace::{parse_trace, TraceSummary};

    fn net(n: usize) -> Clique {
        Clique::new(n).expect("nonzero n")
    }

    #[test]
    fn empty_network_is_rejected() {
        assert_eq!(Clique::new(0).unwrap_err(), CongestError::EmptyNetwork);
    }

    #[test]
    fn unknown_node_is_rejected() {
        let mut c = net(2);
        let bad = vec![Envelope::new(NodeId::new(0), NodeId::new(5), 1u64)];
        assert!(matches!(
            c.exchange(bad),
            Err(CongestError::UnknownNode { .. })
        ));
    }

    #[test]
    fn broadcast_from_unknown_node_is_rejected() {
        let mut c = net(2);
        assert!(matches!(
            c.broadcast(NodeId::new(7), 1u64),
            Err(CongestError::UnknownNode { .. })
        ));
    }

    #[test]
    fn single_small_message_takes_one_round() {
        let mut c = net(4);
        let sends = vec![Envelope::new(NodeId::new(0), NodeId::new(1), true)];
        let inboxes = c.exchange(sends).unwrap();
        assert_eq!(c.rounds(), 1);
        assert_eq!(inboxes.of(NodeId::new(1)).len(), 1);
    }

    #[test]
    fn local_messages_are_free() {
        let mut c = net(4);
        let sends = vec![Envelope::new(NodeId::new(2), NodeId::new(2), 9u64)];
        let inboxes = c.exchange(sends).unwrap();
        assert_eq!(c.rounds(), 0);
        assert_eq!(inboxes.of(NodeId::new(2)), &[(NodeId::new(2), 9u64)]);
    }

    #[test]
    fn link_rounds_scale_with_queued_bits() {
        let mut c = Clique::with_bandwidth(3, 32).unwrap();
        // 5 messages of 32 bits on the same link: 5 rounds
        let sends: Vec<_> = (0..5)
            .map(|_| Envelope::new(NodeId::new(0), NodeId::new(1), 7u32))
            .collect();
        c.exchange(sends).unwrap();
        assert_eq!(c.rounds(), 5);
    }

    #[test]
    fn parallel_links_do_not_add_rounds() {
        let mut c = Clique::with_bandwidth(4, 32).unwrap();
        // every node sends one 32-bit message to its successor: 1 round
        let sends: Vec<_> = (0..4)
            .map(|u| Envelope::new(NodeId::new(u), NodeId::new((u + 1) % 4), 7u32))
            .collect();
        c.exchange(sends).unwrap();
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn oversized_message_fragments_across_rounds() {
        let mut c = Clique::with_bandwidth(2, 10).unwrap();
        let sends = vec![Envelope::new(
            NodeId::new(0),
            NodeId::new(1),
            RawBits::new(0, 35),
        )];
        c.exchange(sends).unwrap();
        assert_eq!(c.rounds(), 4); // ceil(35/10)
    }

    #[test]
    fn lemma1_balanced_set_takes_two_rounds() {
        // every node sends exactly n unit messages, one per destination,
        // but all concentrated through the demand graph: still 2 rounds.
        let n = 8;
        let mut c = Clique::with_bandwidth(n, 16).unwrap();
        let mut sends = Vec::new();
        for u in 0..n {
            for v in 0..n {
                if u != v {
                    sends.push(Envelope::new(
                        NodeId::new(u),
                        NodeId::new(v),
                        RawBits::new(0, 16),
                    ));
                }
            }
        }
        c.route(sends).unwrap();
        assert_eq!(c.rounds(), 2);
    }

    #[test]
    fn lemma1_hot_pair_still_takes_two_rounds() {
        // n messages from node 0 all destined to node 1: direct delivery
        // would take n rounds, Lemma 1 relays them in 2.
        let n = 8;
        let mut c = Clique::with_bandwidth(n, 16).unwrap();
        let sends: Vec<_> = (0..n)
            .map(|i| Envelope::new(NodeId::new(0), NodeId::new(1), RawBits::new(i as u64, 16)))
            .collect();
        let inboxes = c.route(sends).unwrap();
        assert_eq!(c.rounds(), 2);
        assert_eq!(inboxes.of(NodeId::new(1)).len(), n);
    }

    #[test]
    fn lemma1_overloaded_set_scales_linearly() {
        // 3n units out of one node: 2 * ceil(3n/n) = 6 rounds
        let n = 4;
        let mut c = Clique::with_bandwidth(n, 16).unwrap();
        let mut sends = Vec::new();
        for rep in 0..3 {
            for v in 1..n {
                sends.push(Envelope::new(
                    NodeId::new(0),
                    NodeId::new(v),
                    RawBits::new(rep, 16),
                ));
            }
            sends.push(Envelope::new(
                NodeId::new(0),
                NodeId::new(1),
                RawBits::new(rep, 16),
            ));
        }
        // loads: out(0) = 3 * n = 12 units -> delta = 12 -> 2*ceil(12/4)=6
        c.route(sends).unwrap();
        assert_eq!(c.rounds(), 6);
    }

    #[test]
    fn route_delivers_every_payload() {
        let n = 5;
        let mut c = net(n);
        let mut sends = Vec::new();
        for u in 0..n {
            for v in 0..n {
                sends.push(Envelope::new(
                    NodeId::new(u),
                    NodeId::new(v),
                    (u as u64) * 100 + v as u64,
                ));
            }
        }
        let inboxes = c.route(sends).unwrap();
        for v in 0..n {
            let inbox = inboxes.of(NodeId::new(v));
            assert_eq!(inbox.len(), n);
            for (src, payload) in inbox {
                assert_eq!(*payload, (src.index() as u64) * 100 + v as u64);
            }
        }
    }

    #[test]
    fn broadcast_reaches_everyone_in_fragment_rounds() {
        let mut c = Clique::with_bandwidth(6, 8).unwrap();
        let inboxes = c.broadcast(NodeId::new(2), RawBits::new(1, 20)).unwrap();
        assert_eq!(c.rounds(), 3); // ceil(20/8)
        for v in 0..6 {
            if v == 2 {
                assert!(inboxes.of(NodeId::new(v)).is_empty());
            } else {
                assert_eq!(inboxes.of(NodeId::new(v)).len(), 1);
            }
        }
    }

    #[test]
    fn gossip_distributes_all_lists() {
        let mut c = net(3);
        let items = vec![vec![10u64], vec![20u64, 21u64], vec![]];
        let all = c.gossip(items).unwrap();
        for node in NodeId::all(3) {
            let values: Vec<u64> = all.of(node).iter().map(|(_, x)| *x).collect();
            assert_eq!(values, vec![10, 20, 21]);
        }
    }

    #[test]
    fn gossip_wrong_arity_is_rejected() {
        let mut c = net(3);
        assert!(c.gossip(vec![vec![1u64]]).is_err());
    }

    #[test]
    fn phases_capture_round_breakdown() {
        let mut c = net(4);
        c.begin_phase("first");
        c.exchange(vec![Envelope::new(NodeId::new(0), NodeId::new(1), 1u64)])
            .unwrap();
        c.begin_phase("second");
        c.exchange(vec![Envelope::new(NodeId::new(1), NodeId::new(2), 1u64)])
            .unwrap();
        assert_eq!(c.metrics().phases().len(), 2);
        assert_eq!(
            c.metrics().rounds_with_prefix("first"),
            c.metrics().phases()[0].rounds
        );
    }

    #[test]
    fn scratch_does_not_leak_between_calls() {
        // two identical exchanges on one network must each charge the same
        // rounds: a stale link tally would inflate the second.
        let mut c = Clique::with_bandwidth(3, 32).unwrap();
        let mk = || vec![Envelope::new(NodeId::new(0), NodeId::new(1), 7u32)];
        c.exchange(mk()).unwrap();
        assert_eq!(c.rounds(), 1);
        c.exchange(mk()).unwrap();
        assert_eq!(c.rounds(), 2);
        c.route(mk()).unwrap();
        let after_route = c.rounds();
        c.route(mk()).unwrap();
        assert_eq!(c.rounds() - after_route, after_route - 2);
    }

    /// One 32-bit message per node to its successor: a single round at the
    /// default bandwidth for every `n` used in these tests.
    fn all_to_successor(n: usize) -> Vec<Envelope<u32>> {
        (0..n)
            .map(|u| Envelope::new(NodeId::new(u), NodeId::new((u + 1) % n), u as u32))
            .collect()
    }

    fn drop_plan(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            drop_rate: rate,
            seed,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn empty_fault_plan_arms_nothing() {
        let mut c = net(4);
        c.set_fault_plan(FaultPlan::default());
        assert!(c.fault_plan().is_none());
        assert!(!c.envelope_active());
        c.exchange(all_to_successor(4)).unwrap();
        assert_eq!(c.fault_counts().total(), 0);
    }

    #[test]
    fn dropped_messages_are_charged_but_not_delivered() {
        let n = 8;
        let run = |seed: u64| {
            let mut c = net(n);
            c.set_fault_plan(drop_plan(0.5, seed));
            let inboxes = c.exchange(all_to_successor(n)).unwrap();
            (c.rounds(), inboxes.message_count(), c.fault_counts().drops)
        };
        let (rounds, delivered, drops) = run(7);
        // The wire carried every message even though some never arrived.
        assert_eq!(rounds, 1);
        assert_eq!(delivered as u64 + drops, n as u64);
        assert!(drops > 0, "rate 0.5 over 8 messages should drop something");
        // Same seed, same fates; this is what makes failures replayable.
        assert_eq!(run(7), (rounds, delivered, drops));
        assert_ne!(run(7).1, run(8).1, "different seeds should differ here");
    }

    #[test]
    fn duplicated_messages_arrive_twice() {
        let n = 4;
        let mut c = net(n);
        c.set_fault_plan(FaultPlan {
            duplicate_rate: 1.0,
            ..FaultPlan::default()
        });
        let inboxes = c.exchange(all_to_successor(n)).unwrap();
        assert_eq!(inboxes.message_count(), 2 * n);
        assert_eq!(c.fault_counts().duplications, n as u64);
        assert_eq!(c.rounds(), 1, "duplication is delivery-level, not wire");
    }

    #[test]
    fn crashed_sender_is_silent_and_free() {
        let n = 4;
        let mut c = net(n);
        c.set_fault_plan(FaultPlan {
            crashes: vec![(NodeId::new(0), 0)],
            ..FaultPlan::default()
        });
        let sends = vec![Envelope::new(NodeId::new(0), NodeId::new(1), 5u32)];
        let inboxes = c.exchange(sends).unwrap();
        assert_eq!(c.rounds(), 0, "a fail-stopped sender emits nothing");
        assert_eq!(inboxes.message_count(), 0);
        assert_eq!(c.fault_counts().crashes, 1);
        // The crash is recorded once, not once per subsequent call.
        c.exchange(vec![Envelope::new(NodeId::new(1), NodeId::new(2), 5u64)])
            .unwrap();
        assert_eq!(c.fault_counts().crashes, 1);
    }

    #[test]
    fn crashed_receiver_still_costs_the_sender() {
        let n = 4;
        let mut c = net(n);
        c.set_fault_plan(FaultPlan {
            crashes: vec![(NodeId::new(1), 0)],
            ..FaultPlan::default()
        });
        let sends = vec![Envelope::new(NodeId::new(0), NodeId::new(1), 5u32)];
        let inboxes = c.exchange(sends).unwrap();
        assert_eq!(c.rounds(), 1, "bits to a dead node still occupy the link");
        assert_eq!(inboxes.message_count(), 0);
    }

    #[test]
    fn faults_naming_missing_nodes_never_fire() {
        // Node 9 is not in a 4-node network: its crash and its link never
        // fire, and every message arrives.
        let n = 4;
        let mut c = net(n);
        c.set_fault_plan(FaultPlan {
            crashes: vec![(NodeId::new(9), 0)],
            link_drop: vec![((NodeId::new(0), NodeId::new(9)), 1.0)],
            ..FaultPlan::default()
        });
        let inboxes = c.exchange(all_to_successor(n)).unwrap();
        assert_eq!(inboxes.message_count(), n);
        assert_eq!(c.fault_counts().total(), 0);
    }

    #[test]
    fn route_applies_fates_per_message() {
        let n = 8;
        let mut c = net(n);
        c.set_fault_plan(drop_plan(0.5, 3));
        let inboxes = c.route(all_to_successor(n)).unwrap();
        assert_eq!(c.rounds(), 2, "Lemma 1 charge is fault-independent");
        assert_eq!(
            inboxes.message_count() as u64 + c.fault_counts().drops,
            n as u64
        );
        assert!(c.fault_counts().drops > 0);
    }

    #[test]
    fn envelope_masks_heavy_drop_rates() {
        let n = 8;
        let mut raw = net(n);
        raw.exchange(all_to_successor(n)).unwrap();
        let raw_rounds = raw.rounds();

        let mut c = net(n);
        c.set_fault_plan(drop_plan(0.4, 11));
        c.set_reliable_delivery(ReliableConfig::default());
        assert!(c.envelope_active());
        let inboxes = c.exchange(all_to_successor(n)).unwrap();
        for u in 0..n {
            let inbox = inboxes.of(NodeId::new((u + 1) % n));
            assert_eq!(inbox, &[(NodeId::new(u), u as u32)]);
        }
        assert!(
            c.rounds() > raw_rounds,
            "retransmits and acks must cost extra rounds ({} vs {raw_rounds})",
            c.rounds()
        );
        assert!(c.fault_counts().drops > 0);
    }

    #[test]
    fn envelope_reports_delivery_failure_when_budget_runs_out() {
        let mut c = net(4);
        c.set_fault_plan(drop_plan(1.0, 1));
        c.set_reliable_delivery(ReliableConfig {
            max_retries: 2,
            backoff_base: 1,
        });
        c.begin_phase("doomed");
        let err = c.exchange(all_to_successor(4)).unwrap_err();
        match err {
            CongestError::DeliveryFailed {
                phase,
                undelivered,
                attempts,
            } => {
                assert_eq!(phase, "doomed");
                assert_eq!(undelivered, 4);
                assert_eq!(attempts, 3, "initial wave plus two retries");
            }
            other => panic!("expected DeliveryFailed, got {other:?}"),
        }
        // Backoff before waves 1 and 2 is charged: 1 + 2 idle rounds on top
        // of 3 data waves of ⌈(32 + 2 seq bits) / 32⌉ = 2 rounds each (acks
        // never fire — nothing arrives).
        assert_eq!(c.rounds(), 3 * 2 + 1 + 2);
    }

    #[test]
    fn envelope_blames_a_crashed_endpoint() {
        let mut c = net(4);
        c.set_fault_plan(FaultPlan {
            crashes: vec![(NodeId::new(2), 0)],
            ..FaultPlan::default()
        });
        c.set_reliable_delivery(ReliableConfig {
            max_retries: 1,
            backoff_base: 0,
        });
        c.begin_phase("gather");
        let err = c
            .exchange(vec![Envelope::new(NodeId::new(0), NodeId::new(2), 9u64)])
            .unwrap_err();
        assert_eq!(
            err,
            CongestError::NodeCrashed {
                node: NodeId::new(2),
                phase: "gather".into()
            }
        );
    }

    #[test]
    fn envelope_preserves_gossip_and_broadcast_semantics() {
        let n = 5;
        let mut c = net(n);
        c.set_fault_plan(drop_plan(0.3, 21));
        c.set_reliable_delivery(ReliableConfig::default());
        let items: Vec<Vec<u64>> = (0..n).map(|i| vec![i as u64 * 10]).collect();
        let all = c.gossip(items).unwrap();
        for node in NodeId::all(n) {
            let values: Vec<u64> = all.of(node).iter().map(|(_, x)| *x).collect();
            assert_eq!(values, vec![0, 10, 20, 30, 40]);
        }
        let inboxes = c.broadcast(NodeId::new(0), 7u64).unwrap();
        for v in 1..n {
            assert_eq!(inboxes.of(NodeId::new(v)), &[(NodeId::new(0), 7u64)]);
        }
    }

    #[test]
    fn faults_are_visible_in_trace_spans() {
        let (sink, buffer) = TraceSink::in_memory();
        let mut c = net(6);
        c.set_trace_sink(sink);
        c.set_fault_plan(drop_plan(0.5, 2));
        c.push_span("phase-a");
        c.exchange(all_to_successor(6)).unwrap();
        c.pop_span();
        let drops = c.fault_counts().drops;
        assert!(drops > 0);
        let summary = TraceSummary::from_events(&parse_trace(&buffer.contents()).unwrap()).unwrap();
        assert_eq!(summary.spans()[0].label, "phase-a");
        assert_eq!(summary.subtree_faults(0), drops);
        assert_eq!(summary.total_faults(), drops);
    }

    #[test]
    fn zero_bit_payloads_cost_nothing() {
        let mut c = Clique::with_bandwidth(4, 16).unwrap();
        let sends = vec![Envelope::new(
            NodeId::new(0),
            NodeId::new(1),
            RawBits::new(0, 0),
        )];
        let inboxes = c.exchange(sends).unwrap();
        assert_eq!(c.rounds(), 0);
        assert_eq!(inboxes.of(NodeId::new(1)).len(), 1);
    }
}
