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
//!   intermediate relays, chosen by an exact König edge coloring of the
//!   demand multigraph. Heavier sets take `2·⌈Δ/n⌉` rounds where `Δ` is the
//!   maximum per-node unit load.
//!
//! Local computation is free, as in the model. Messages from a node to
//! itself are local and cost nothing.
//!
//! # Host performance
//!
//! A simulation run makes one `exchange`/`route` call per communication
//! phase, often many thousands per experiment, so the accounting paths are
//! written to be allocation-free after warm-up: link-bit and relay-load
//! tallies live in dense `n²` scratch vectors indexed by `src · n + dst`
//! (cleared sparsely through touched-index lists), payload bit-sizes are
//! computed once per envelope into a reusable buffer, inboxes are pre-sized
//! from a counting pass, and the König coloring reuses its slot tables
//! across calls ([`ColoringScratch`]). None of this affects the *model*:
//! charged rounds and all other metrics are byte-identical to the
//! straightforward implementation, which `tests/determinism.rs` pins
//! against recorded counts.

use crate::coloring::{color_bipartite_into, is_proper_colors, ColoringScratch};
use crate::envelope::{Envelope, Inboxes};
use crate::error::CongestError;
use crate::fault::{FaultCounts, FaultKind, FaultPlan, FaultState, MsgFate};
use crate::metrics::Metrics;
use crate::node::NodeId;
use crate::payload::{bits_for_count, Payload};
use crate::reliable::{ReliableConfig, Wave};
use crate::tally::{Leg, LinkTally};
use crate::trace::TraceSink;

/// Default multiplier: one message carries `DEFAULT_BANDWIDTH_FACTOR · ⌈log₂ n⌉` bits.
///
/// The model allows `O(log n)` bits per message; the factor of 16 lets one
/// message carry a small constant number of (vertex id, vertex id, weight)
/// records, which keeps the constants of the simulated algorithms close to
/// the paper's presentation.
pub const DEFAULT_BANDWIDTH_FACTOR: u64 = 16;

/// Unit-count threshold up to which [`Clique::route`] constructs (and, in
/// debug builds, verifies) the explicit König relay schedule. Larger
/// routings use the degree bound directly — the schedule's existence is
/// König's theorem.
pub const EXPLICIT_SCHEDULE_LIMIT: usize = 50_000;

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
    /// Dense `n²` per-link unit tally for `route`'s relay schedule.
    relay_units: Vec<u64>,
    /// Indices of `relay_units` written this call.
    touched_relays: Vec<usize>,
    /// Per-node outgoing bits (or units, in `route`).
    out_load: Vec<u64>,
    /// Per-node incoming bits (or units, in `route`).
    in_load: Vec<u64>,
    /// Dense `n²` per-`(dst, src)` message tally for arena placement,
    /// indexed `dst · n + src`; doubles as the write-cursor table during
    /// the placement pass.
    pair_counts: Vec<u32>,
    /// Copies of each send that arrive under the armed fault plan (0–2).
    fate_copies: Vec<u8>,
    /// Bit size of each envelope, computed once per call.
    bit_sizes: Vec<u64>,
    /// `route`'s demand multigraph, one entry per fragment unit.
    units: Vec<(usize, usize)>,
    /// Colors assigned to `units` by the König coloring.
    colors: Vec<usize>,
    /// Slot tables of the König coloring.
    coloring: ColoringScratch,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            link_bits: vec![0; n * n],
            relay_units: vec![0; n * n],
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
    /// When true, delivery stages `(dst, src, payload)` records and stable
    /// sorts them — the straightforward reference path. The default arena
    /// path places records by counting; `tests/` pin the two byte-identical.
    legacy_delivery: bool,
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
            legacy_delivery: false,
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

    /// Resets round and metric counters, keeping the topology.
    ///
    /// Any attached trace sink is dropped with the metrics.
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::new();
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

    /// The configured reliable-delivery envelope, if any.
    #[must_use]
    pub fn reliable_config(&self) -> Option<ReliableConfig> {
        self.reliable
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

    /// Enables (or disables) the staged-and-sorted reference delivery path.
    ///
    /// Both paths produce byte-identical inboxes, rounds, and metrics; the
    /// arena path is the fast default. The switch exists so equivalence
    /// tests can run the same schedule through both engines.
    pub fn set_legacy_delivery(&mut self, on: bool) {
        self.legacy_delivery = on;
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

    /// Delivers `sends` into per-node inboxes, preserving the model's
    /// delivery order (destination; sender; submission order).
    ///
    /// The default engine places each record directly at its final arena
    /// offset via a `(dst, src)` counting pass — no per-node vectors and no
    /// sort. The legacy engine stages records and stable-sorts them; both
    /// are byte-identical (pinned by the inbox-equivalence tests).
    fn deliver<T: Payload>(&mut self, sends: Vec<Envelope<T>>) -> Inboxes<T> {
        let n = self.n;
        let faulty = self.faults.is_some();
        // Resolve fates first (recording fault events in submission order,
        // right after the comm event, as the trace format expects).
        self.scratch.fate_copies.clear();
        if faulty {
            for (idx, e) in sends.iter().enumerate() {
                let copies = self.message_fate(idx, e.src, e.dst);
                self.scratch.fate_copies.push(copies);
            }
        }

        if self.legacy_delivery {
            let mut staged: Vec<(NodeId, NodeId, T)> = Vec::with_capacity(sends.len());
            for (idx, e) in sends.into_iter().enumerate() {
                let copies = if faulty {
                    self.scratch.fate_copies[idx]
                } else {
                    1
                };
                if copies == 2 {
                    staged.push((e.dst, e.src, e.payload.clone()));
                }
                if copies >= 1 {
                    staged.push((e.dst, e.src, e.payload));
                }
            }
            return Inboxes::from_staged(n, staged);
        }

        let s = &mut self.scratch;
        // Pass 1: per-(dst, src) tallies of arriving copies.
        s.pair_counts.fill(0);
        let mut total = 0usize;
        for (idx, e) in sends.iter().enumerate() {
            let copies = if faulty {
                usize::from(s.fate_copies[idx])
            } else {
                1
            };
            s.pair_counts[e.dst.index() * n + e.src.index()] += copies as u32;
            total += copies;
        }
        // Pass 2: exclusive prefix sum in (dst, src) order turns the tally
        // into write cursors and yields the per-destination offsets.
        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0usize);
        let mut run = 0usize;
        for d in 0..n {
            for src in 0..n {
                let cell = &mut s.pair_counts[d * n + src];
                let count = *cell as usize;
                *cell = run as u32;
                run += count;
            }
            starts.push(run);
        }
        debug_assert_eq!(run, total);
        // Pass 3: place each send (in submission order) at its cursor.
        // Within a (dst, src) pair cursors advance with submission order,
        // so the placement reproduces the stable sort without sorting.
        let mut slots: Vec<Option<(NodeId, T)>> = Vec::new();
        slots.resize_with(total, || None);
        for (idx, e) in sends.into_iter().enumerate() {
            let copies = if faulty {
                usize::from(s.fate_copies[idx])
            } else {
                1
            };
            if copies == 0 {
                continue;
            }
            let cell = e.dst.index() * n + e.src.index();
            for _ in 1..copies {
                let pos = s.pair_counts[cell] as usize;
                s.pair_counts[cell] += 1;
                slots[pos] = Some((e.src, e.payload.clone()));
            }
            let pos = s.pair_counts[cell] as usize;
            s.pair_counts[cell] += 1;
            slots[pos] = Some((e.src, e.payload));
        }
        let data: Vec<(NodeId, T)> = slots
            .into_iter()
            .map(|slot| slot.expect("tally placed every arriving copy"))
            .collect();
        Inboxes::from_parts(data, starts)
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

    /// Fills the bit-size cache for `sends`, one `bit_size()` call each.
    pub(crate) fn cache_bit_sizes<T: Payload>(&mut self, sends: &[Envelope<T>]) {
        self.scratch.bit_sizes.clear();
        self.scratch
            .bit_sizes
            .extend(sends.iter().map(|e| e.payload.bit_size()));
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
        if self.envelope_active() {
            return self.deliver_reliably(sends, Wave::Exchange("exchange"));
        }
        self.cache_bit_sizes(&sends);
        Ok(self.exchange_presized(sends, "exchange"))
    }

    /// `exchange` body, assuming endpoints are validated and
    /// `scratch.bit_sizes[i]` already holds the size of `sends[i]`.
    /// `kind` tags the trace event (`broadcast` and `gossip` funnel here).
    pub(crate) fn exchange_presized<T: Payload>(
        &mut self,
        sends: Vec<Envelope<T>>,
        kind: &'static str,
    ) -> Inboxes<T> {
        self.fault_call_begin();
        let n = self.n;
        let s = &mut self.scratch;
        let faults = self.faults.as_ref();
        debug_assert_eq!(s.bit_sizes.len(), sends.len());
        s.out_load.fill(0);
        s.in_load.fill(0);
        let mut total_bits = 0u64;
        let mut message_count = 0u64;
        for (e, &bits) in sends.iter().zip(&s.bit_sizes) {
            // A fail-stopped sender emits nothing, so its messages are not
            // charged; a crashed *receiver*'s inbound links still carry the
            // (wasted) bits.
            let sender_up = faults.is_none_or(|f| !f.is_crashed(e.src));
            if e.src != e.dst && sender_up {
                let link = e.src.index() * n + e.dst.index();
                if s.link_bits[link] == 0 && bits > 0 {
                    s.touched_links.push(link);
                }
                s.link_bits[link] += bits;
                s.out_load[e.src.index()] += bits;
                s.in_load[e.dst.index()] += bits;
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
        // Record the comm event before delivery so per-message fault events
        // in the trace follow the call that carried them.
        self.metrics.record_comm(
            kind,
            rounds,
            message_count,
            total_bits,
            max_link,
            max_out,
            max_in,
        );
        self.deliver(sends)
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
    /// materialized envelopes, every message exactly `bits_per_msg` bits
    /// wide — but only when the fragment-unit multiset is past
    /// [`EXPLICIT_SCHEDULE_LIMIT`], where the materialized path also skips
    /// the explicit König schedule and records the degree bound `⌈Δ/n⌉` as
    /// the relay-link maximum. Below the limit the relay maximum comes from
    /// the actual coloring of the submission-ordered unit list, which a
    /// tally cannot reproduce: the call records **nothing** and returns
    /// `None`, and the caller must fall back to [`Clique::route`].
    ///
    /// On `Some(rounds)`, the recorded rounds, totals, maxima, and trace
    /// event are byte-identical to [`Clique::route`] over the same traffic.
    ///
    /// # Panics
    ///
    /// Panics if the network is not transparent or `link_msgs.len() ≠ n²`.
    pub fn charge_route_tally(&mut self, link_msgs: &[u32], bits_per_msg: u64) -> Option<u64> {
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
        if unit_count as usize <= EXPLICIT_SCHEDULE_LIMIT {
            return None;
        }
        let total_bits = message_count * bits_per_msg;
        let max_out = s.out_load.iter().copied().max().unwrap_or(0);
        let max_in = s.in_load.iter().copied().max().unwrap_or(0);
        let delta = max_out.max(max_in);
        let batches = delta.div_ceil(n as u64);
        let rounds = 2 * batches;
        self.metrics.record_comm(
            "route",
            rounds,
            2 * unit_count,
            2 * total_bits,
            batches * self.bandwidth_bits,
            max_out * self.bandwidth_bits,
            max_in * self.bandwidth_bits,
        );
        Some(rounds)
    }

    /// Delivers messages through intermediate relays (Lemma 1 of the paper).
    ///
    /// Each payload is fragmented into *units* of at most `B` bits. The
    /// demand multigraph over units is edge-colored with `Δ` colors (the
    /// maximum per-node unit load) via König's theorem; color `c` routes its
    /// unit through relay node `c mod n` during batch `⌊c / n⌋`. Every batch
    /// takes exactly 2 rounds (one hop to the relay, one hop onward), so the
    /// phase costs `2·⌈Δ/n⌉` rounds.
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
        if self.envelope_active() {
            return self.deliver_reliably(sends, Wave::Route);
        }
        Ok(self.route_raw(sends))
    }

    /// `route` body, assuming endpoints are validated. Faults (if armed)
    /// apply per message after charging; the envelope is *not* consulted.
    pub(crate) fn route_raw<T: Payload>(&mut self, sends: Vec<Envelope<T>>) -> Inboxes<T> {
        self.fault_call_begin();
        self.cache_bit_sizes(&sends);
        let n = self.n;
        let s = &mut self.scratch;
        let faults = self.faults.as_ref();
        s.units.clear();
        s.out_load.fill(0);
        s.in_load.fill(0);
        let mut total_bits = 0u64;
        let mut unit_count = 0u64;
        for (e, &bits) in sends.iter().zip(&s.bit_sizes) {
            if e.src == e.dst || faults.is_some_and(|f| f.is_crashed(e.src)) {
                continue;
            }
            total_bits += bits;
            let k = bits.div_ceil(self.bandwidth_bits).max(1);
            unit_count += k;
            s.out_load[e.src.index()] += k;
            s.in_load[e.dst.index()] += k;
        }
        // The per-node unit loads are exactly the left/right degrees of the
        // demand multigraph, so Δ is their maximum.
        let max_out = s.out_load.iter().copied().max().unwrap_or(0);
        let max_in = s.in_load.iter().copied().max().unwrap_or(0);
        let delta = max_out.max(max_in);
        let batches = delta.div_ceil(n as u64);
        let rounds = 2 * batches;
        // Relay-link load: within one batch each (src, relay) and
        // (relay, dst) pair carries at most one unit, so the busiest link
        // carries at most `batches` units of ≤ B bits each. The explicit
        // König schedule is constructed (and checked) up to a size limit;
        // beyond it only the degree bound is computed — the coloring's
        // existence is König's theorem, and its cost (`O(m·Δ)`) is a
        // simulator-host concern, not a model concern. The unit multiset is
        // only materialized when the schedule actually gets built.
        let max_link_units = if unit_count as usize <= EXPLICIT_SCHEDULE_LIMIT {
            s.units.reserve(unit_count as usize);
            for (e, &bits) in sends.iter().zip(&s.bit_sizes) {
                if e.src == e.dst || faults.is_some_and(|f| f.is_crashed(e.src)) {
                    continue;
                }
                let k = bits.div_ceil(self.bandwidth_bits).max(1);
                let (src, dst) = (e.src.index(), e.dst.index());
                for _ in 0..k {
                    s.units.push((src, dst));
                }
            }
            let num_colors = color_bipartite_into(&s.units, n, n, &mut s.coloring, &mut s.colors);
            debug_assert!(is_proper_colors(&s.units, &s.colors, num_colors, n, n));
            for (i, &(src, dst)) in s.units.iter().enumerate() {
                let relay = s.colors[i] % n;
                for link in [src * n + relay, relay * n + dst] {
                    if s.relay_units[link] == 0 {
                        s.touched_relays.push(link);
                    }
                    s.relay_units[link] += 1;
                }
            }
            let max = s
                .touched_relays
                .iter()
                .map(|&l| s.relay_units[l])
                .max()
                .unwrap_or(0);
            for &l in &s.touched_relays {
                s.relay_units[l] = 0;
            }
            s.touched_relays.clear();
            max
        } else {
            batches
        };
        self.metrics.record_comm(
            "route",
            rounds,
            2 * unit_count,
            2 * total_bits,
            max_link_units * self.bandwidth_bits,
            max_out * self.bandwidth_bits,
            max_in * self.bandwidth_bits,
        );
        self.deliver(sends)
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
        if self.envelope_active() {
            return self.deliver_reliably(sends, Wave::Exchange("broadcast"));
        }
        self.scratch.bit_sizes.clear();
        self.scratch.bit_sizes.resize(sends.len(), bits);
        Ok(self.exchange_presized(sends, "broadcast"))
    }

    /// Every node broadcasts its own list of items to every other node.
    ///
    /// Returns, for each node, the concatenation of all nodes' lists as
    /// `(origin, item)` pairs (including its own items). Costs
    /// `⌈max node list bits / B⌉` rounds.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::UnknownNode`] if `items.len() != n` (reported
    /// as an unknown node at index `n`).
    pub fn gossip<T: Payload>(
        &mut self,
        items: Vec<Vec<T>>,
    ) -> Result<Vec<Vec<(NodeId, T)>>, CongestError> {
        if items.len() != self.n {
            return Err(CongestError::UnknownNode {
                node: NodeId::new(items.len()),
                n: self.n,
            });
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
        let inboxes = if self.envelope_active() {
            self.deliver_reliably(sends, Wave::Exchange("gossip"))?
        } else {
            self.exchange_presized(sends, "gossip")
        };
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
        Ok(out)
    }

    /// Charges `rounds` synchronous rounds without moving data.
    ///
    /// Reserved for algorithm steps whose communication is analyzed
    /// analytically rather than executed (currently only used by tests and
    /// calibration code; every shipped algorithm executes its messages).
    pub fn charge_rounds(&mut self, rounds: u64) {
        self.metrics.record_comm("charge", rounds, 0, 0, 0, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::RawBits;

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
        for node_view in &all {
            let values: Vec<u64> = node_view.iter().map(|(_, x)| *x).collect();
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
    fn reset_clears_counters() {
        let mut c = net(4);
        c.exchange(vec![Envelope::new(NodeId::new(0), NodeId::new(1), 1u64)])
            .unwrap();
        assert!(c.rounds() > 0);
        c.reset_metrics();
        assert_eq!(c.rounds(), 0);
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
        for view in &all {
            let values: Vec<u64> = view.iter().map(|(_, x)| *x).collect();
            assert_eq!(values, vec![0, 10, 20, 30, 40]);
        }
        let inboxes = c.broadcast(NodeId::new(0), 7u64).unwrap();
        for v in 1..n {
            assert_eq!(inboxes.of(NodeId::new(v)), &[(NodeId::new(0), 7u64)]);
        }
    }

    #[test]
    fn faults_are_visible_in_metrics_spans() {
        let mut c = net(6);
        c.set_fault_plan(drop_plan(0.5, 2));
        c.push_span("phase-a");
        c.exchange(all_to_successor(6)).unwrap();
        c.pop_span();
        let drops = c.fault_counts().drops;
        assert!(drops > 0);
        let span = &c.metrics().spans()[0];
        assert_eq!(span.faults.drops, drops);
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
