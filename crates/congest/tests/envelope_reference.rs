//! Lockstep reference model of the ack/retransmit envelope.
//!
//! [`Reference`] re-implements the envelope protocol as it was first
//! written, over the public API only: every wave seals its pending
//! payloads with a test-local [`Sealed`] type and sends them with
//! [`Clique::exchange`] or [`Clique::route`] on a network armed with the
//! same [`FaultPlan`] but no [`ReliableConfig`] (so faults apply raw), the
//! receivers' acks travel as [`RawBits`] through another `exchange`,
//! backoff is [`Clique::charge_rounds`], and the accepted copies are
//! stable-sorted by `(dst, src)` into inboxes.
//!
//! The library and the reference are driven with identical seeded traffic
//! — exchanges, routes (one submitted twice, so the relay-schedule reuse
//! runs), broadcasts and gossip, with local, zero-bit and fragmenting
//! payloads and empty calls — on n = 1..=9 under drop, corrupt, duplicate
//! and per-link plans, crashes at round 0 and at a round first reached
//! between two waves, `max_retries` 0..=3 and `backoff_base` 0..=2. They
//! must agree on every inbox, gossip view and typed error, on rounds,
//! per-phase stats and fault counts, and on the NDJSON trace once the
//! comm events' `kind`s are normalized (the reference tags every direct
//! wave `exchange`).

use qcc_congest::trace::{TraceBuffer, TraceSink};
use qcc_congest::{
    bits_for_count, Clique, CongestError, Envelope, FaultPlan, NodeId, Payload, RawBits,
    ReliableConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A payload sealed with its per-call sequence number.
#[derive(Clone, Debug)]
struct Sealed<T> {
    seq: u64,
    seq_bits: u64,
    payload: T,
}

impl<T: Payload> Payload for Sealed<T> {
    fn bit_size(&self) -> u64 {
        self.seq_bits + self.payload.bit_size()
    }
}

/// Per-node inboxes, `(sender, payload)` in delivery order.
type Boxes<T> = Vec<Vec<(NodeId, T)>>;

/// The raw primitive carrying a reference call's data waves.
#[derive(Clone, Copy)]
enum Primitive {
    Exchange,
    Route,
}

/// The envelope as first written, on a network without one.
struct Reference {
    net: Clique,
    plan: FaultPlan,
    cfg: ReliableConfig,
    /// `net.rounds()` at the start of each raw call, with whether the call
    /// opened its envelope call (its first data wave).
    call_starts: Vec<(u64, bool)>,
}

impl Reference {
    /// One raw call, remembering the rounds it started at: a crash is due
    /// once a call starts at or after its round.
    fn raw<T: Payload>(
        &mut self,
        sends: Vec<Envelope<T>>,
        primitive: Primitive,
        first: bool,
    ) -> Vec<Vec<(NodeId, T)>> {
        self.call_starts.push((self.net.rounds(), first));
        let inboxes = match primitive {
            Primitive::Exchange => self.net.exchange(sends),
            Primitive::Route => self.net.route(sends),
        };
        inboxes.expect("endpoints are valid").into_vec()
    }

    fn crashed(&self, node: NodeId) -> bool {
        let Some(&(rounds, _)) = self.call_starts.last() else {
            return false;
        };
        self.plan
            .crashes
            .iter()
            .any(|&(v, at)| v == node && at <= rounds)
    }

    fn phase(&self) -> String {
        self.net
            .metrics()
            .current_phase()
            .unwrap_or("(unlabelled)")
            .to_string()
    }

    fn deliver<T: Payload>(
        &mut self,
        sends: Vec<Envelope<T>>,
        primitive: Primitive,
    ) -> Result<Boxes<T>, CongestError> {
        let n = self.net.n();
        let total = sends.len();
        let seq_bits = bits_for_count(total.max(2));
        let mut pending: Vec<Envelope<Sealed<T>>> = sends
            .into_iter()
            .enumerate()
            .map(|(i, e)| {
                let sealed = Sealed {
                    seq: i as u64,
                    seq_bits,
                    payload: e.payload,
                };
                Envelope::new(e.src, e.dst, sealed)
            })
            .collect();
        let mut delivered = vec![false; total];
        let mut acked = vec![false; total];
        let mut accepted: Vec<(u64, NodeId, NodeId, T)> = Vec::new();
        let mut waves = 0u32;
        while !pending.is_empty() && waves <= self.cfg.max_retries {
            if waves > 0 {
                self.net
                    .charge_rounds(self.cfg.backoff_base * u64::from(waves));
            }
            waves += 1;
            let inboxes = self.raw(pending.clone(), primitive, waves == 1);
            let mut acks: Vec<Envelope<RawBits>> = Vec::new();
            for (receiver, inbox) in inboxes.into_iter().enumerate() {
                let me = NodeId::new(receiver);
                for (src, sealed) in inbox {
                    let seq = sealed.seq as usize;
                    if !delivered[seq] {
                        delivered[seq] = true;
                        accepted.push((sealed.seq, src, me, sealed.payload));
                    }
                    acks.push(Envelope::new(me, src, RawBits::new(sealed.seq, seq_bits)));
                }
            }
            if !acks.is_empty() {
                for inbox in self.raw(acks, Primitive::Exchange, false) {
                    for (_, ack) in inbox {
                        acked[ack.tag as usize] = true;
                    }
                }
            }
            pending.retain(|e| !acked[e.payload.seq as usize]);
        }
        if !pending.is_empty() {
            for e in &pending {
                for node in [e.src, e.dst] {
                    if self.crashed(node) {
                        return Err(CongestError::NodeCrashed {
                            node,
                            phase: self.phase(),
                        });
                    }
                }
            }
            return Err(CongestError::DeliveryFailed {
                phase: self.phase(),
                undelivered: pending.len() as u64,
                attempts: waves,
            });
        }
        accepted.sort_by_key(|&(seq, _, _, _)| seq);
        accepted.sort_by_key(|&(_, src, dst, _)| (dst, src));
        let mut boxes: Boxes<T> = vec![Vec::new(); n];
        for (_, src, dst, payload) in accepted {
            boxes[dst.index()].push((src, payload));
        }
        Ok(boxes)
    }

    /// [`Clique::broadcast`]'s sends through the reference envelope.
    fn broadcast<T: Payload>(&mut self, src: NodeId, payload: T) -> Result<Boxes<T>, CongestError> {
        let sends = NodeId::all(self.net.n())
            .filter(|&dst| dst != src)
            .map(|dst| Envelope::new(src, dst, payload.clone()))
            .collect();
        self.deliver(sends, Primitive::Exchange)
    }

    /// [`Clique::gossip`]'s sends through the reference envelope, and the
    /// views it assembles from them.
    fn gossip<T: Payload>(&mut self, items: Vec<Vec<T>>) -> Result<Boxes<T>, CongestError> {
        let n = self.net.n();
        let mut sends = Vec::new();
        for (i, list) in items.iter().enumerate() {
            for dst in NodeId::all(n).filter(|&dst| dst != NodeId::new(i)) {
                sends.push(Envelope::new(NodeId::new(i), dst, list.clone()));
            }
        }
        let inboxes = self.deliver(sends, Primitive::Exchange)?;
        let mut views = Vec::with_capacity(n);
        for ((i, own), inbox) in items.into_iter().enumerate().zip(inboxes) {
            let me = NodeId::new(i);
            let mut view: Vec<(NodeId, T)> = own.into_iter().map(|item| (me, item)).collect();
            for (src, list) in inbox {
                view.extend(list.into_iter().map(|item| (src, item)));
            }
            view.sort_by_key(|(src, _)| *src);
            views.push(view);
        }
        Ok(views)
    }
}

/// One communication call of a test script.
#[derive(Clone, Debug)]
enum Call {
    Exchange(Vec<Envelope<RawBits>>),
    Route(Vec<Envelope<RawBits>>),
    Broadcast(NodeId, RawBits),
    Gossip(Vec<Vec<RawBits>>),
}

/// A payload that is zero-bit, fits one 16-bit fragment, or fragments.
fn payload(rng: &mut StdRng) -> RawBits {
    let bits = match rng.gen_range(0..4) {
        0 => 0,
        1 => rng.gen_range(1..=16),
        _ => rng.gen_range(17..=70),
    };
    RawBits::new(rng.gen_range(0..1000), bits)
}

/// Up to `max` sends between random nodes; about one in five is local.
fn traffic(rng: &mut StdRng, n: usize, max: usize) -> Vec<Envelope<RawBits>> {
    (0..rng.gen_range(0..=max))
        .map(|_| {
            let src = rng.gen_range(0..n);
            let dst = if rng.gen_bool(0.2) {
                src
            } else {
                rng.gen_range(0..n)
            };
            Envelope::new(NodeId::new(src), NodeId::new(dst), payload(rng))
        })
        .collect()
}

/// A script of 3–6 calls. Some route is followed by the identical route,
/// and empty exchanges and routes are common.
fn script(rng: &mut StdRng, n: usize) -> Vec<Call> {
    let mut calls = Vec::new();
    while calls.len() < rng.gen_range(3..=6) {
        match rng.gen_range(0..5) {
            0 => calls.push(Call::Exchange(traffic(rng, n, 24))),
            1 => {
                let sends = traffic(rng, n, 24);
                calls.push(Call::Route(sends.clone()));
                calls.push(Call::Route(sends));
            }
            2 => calls.push(Call::Route(traffic(rng, n, 24))),
            3 => calls.push(Call::Broadcast(
                NodeId::new(rng.gen_range(0..n)),
                payload(rng),
            )),
            _ => {
                let lists = (0..n)
                    .map(|_| (0..rng.gen_range(0..=3)).map(|_| payload(rng)).collect())
                    .collect();
                calls.push(Call::Gossip(lists));
            }
        }
    }
    calls
}

/// A non-empty plan mixing drop, corrupt, duplicate and per-link rates.
fn plan(rng: &mut StdRng, n: usize) -> FaultPlan {
    let mut rate = |p: f64, max: f64| {
        if rng.gen_bool(p) {
            rng.gen_range(0.0..max)
        } else {
            0.0
        }
    };
    let mut plan = FaultPlan {
        drop_rate: rate(0.7, 0.5),
        corrupt_rate: rate(0.4, 0.3),
        duplicate_rate: rate(0.5, 0.4),
        seed: rng.gen_range(0..1_000_000),
        ..FaultPlan::default()
    };
    if n > 1 && rng.gen_bool(0.3) {
        let src = rng.gen_range(0..n);
        let dst = (src + rng.gen_range(1..n)) % n;
        let rate = if rng.gen_bool(0.5) { 1.0 } else { 0.0 };
        plan.link_drop
            .push(((NodeId::new(src), NodeId::new(dst)), rate));
    }
    if plan.is_empty() {
        plan.drop_rate = 0.2;
    }
    plan
}

/// What one call returned, with inboxes and views laid out per node.
type Outcome = Result<Boxes<RawBits>, CongestError>;

/// The library's network: `plan` under the envelope `cfg`.
fn run_library(
    n: usize,
    plan: &FaultPlan,
    cfg: ReliableConfig,
    calls: &[Call],
) -> (Vec<Outcome>, Clique, TraceBuffer) {
    let mut net = Clique::with_bandwidth(n, 16).unwrap();
    let (sink, trace) = TraceSink::in_memory();
    net.set_trace_sink(sink);
    net.set_fault_plan(plan.clone());
    net.set_reliable_delivery(cfg);
    let per_node = |n: usize, of: &dyn Fn(NodeId) -> Vec<(NodeId, RawBits)>| {
        NodeId::all(n).map(of).collect::<Boxes<RawBits>>()
    };
    let mut outcomes = Vec::new();
    for (i, call) in calls.iter().enumerate() {
        net.begin_phase(&format!("call-{i}"));
        let outcome = match call.clone() {
            Call::Exchange(sends) => net
                .exchange(sends)
                .map(|b| per_node(n, &|v| b.of(v).to_vec())),
            Call::Route(sends) => net.route(sends).map(|b| per_node(n, &|v| b.of(v).to_vec())),
            Call::Broadcast(src, p) => net
                .broadcast(src, p)
                .map(|b| per_node(n, &|v| b.of(v).to_vec())),
            Call::Gossip(items) => net
                .gossip(items)
                .map(|views| per_node(n, &|v| views.of(v).to_vec())),
        };
        outcomes.push(outcome);
    }
    net.close_all_spans();
    (outcomes, net, trace)
}

/// The reference on a network armed with `plan` alone.
fn run_reference(
    n: usize,
    plan: &FaultPlan,
    cfg: ReliableConfig,
    calls: &[Call],
) -> (Vec<Outcome>, Reference, TraceBuffer) {
    let mut net = Clique::with_bandwidth(n, 16).unwrap();
    let (sink, trace) = TraceSink::in_memory();
    net.set_trace_sink(sink);
    net.set_fault_plan(plan.clone());
    assert!(!net.envelope_active());
    let mut reference = Reference {
        net,
        plan: plan.clone(),
        cfg,
        call_starts: Vec::new(),
    };
    let mut outcomes = Vec::new();
    for (i, call) in calls.iter().enumerate() {
        reference.net.begin_phase(&format!("call-{i}"));
        let outcome = match call.clone() {
            Call::Exchange(sends) => reference.deliver(sends, Primitive::Exchange),
            Call::Route(sends) => reference.deliver(sends, Primitive::Route),
            Call::Broadcast(src, p) => reference.broadcast(src, p),
            Call::Gossip(items) => reference.gossip(items),
        };
        outcomes.push(outcome);
    }
    reference.net.close_all_spans();
    (outcomes, reference, trace)
}

/// The trace with every direct wave's comm `kind` read as `exchange`.
fn normalized(trace: &TraceBuffer) -> Vec<String> {
    trace
        .contents()
        .lines()
        .map(|line| {
            ["broadcast", "gossip", "ack"]
                .iter()
                .fold(line.to_owned(), |l, kind| {
                    l.replace(
                        &format!("\"ev\":\"comm\",\"kind\":\"{kind}\""),
                        "\"ev\":\"comm\",\"kind\":\"exchange\"",
                    )
                })
        })
        .collect()
}

/// How often the cases reached each behaviour worth covering.
#[derive(Debug, Default)]
struct Coverage {
    delivered_after_retry: u64,
    delivery_failed: u64,
    node_crashed: u64,
    duplicates: u64,
    crash_between_waves: u64,
}

/// Runs one seeded case through both sides and asserts they agree.
/// `crash` is `None`, `Some(true)` for a crash at round 0, or
/// `Some(false)` for a crash at a round first reached between two waves.
fn check_case(seed: u64, crash: Option<bool>, coverage: &mut Coverage) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..=9);
    let mut plan = plan(&mut rng, n);
    let cfg = ReliableConfig {
        max_retries: rng.gen_range(0..=3),
        backoff_base: rng.gen_range(0..=2),
    };
    let calls = script(&mut rng, n);
    let victim = NodeId::new(rng.gen_range(0..n));
    match crash {
        None => {}
        Some(true) => plan.crashes.push((victim, 0)),
        Some(false) => {
            // A wave after the first of its call, starting at a round no
            // earlier call start reached: the crash fires between waves.
            let (_, dry, _) = run_reference(n, &plan, cfg, &calls);
            let starts = &dry.call_starts;
            let between = (1..starts.len())
                .filter(|&k| !starts[k].1 && starts[k].0 > starts[k - 1].0)
                .map(|k| starts[k].0)
                .collect::<Vec<_>>();
            if between.is_empty() {
                return;
            }
            let round = between[rng.gen_range(0..between.len())];
            plan.crashes.push((victim, round));
            coverage.crash_between_waves += 1;
        }
    }

    let (lib, lib_net, lib_trace) = run_library(n, &plan, cfg, &calls);
    let (reference, ref_side, ref_trace) = run_reference(n, &plan, cfg, &calls);
    let ref_net = &ref_side.net;
    let context = format!("seed {seed}, n {n}, plan {plan}, {cfg:?}");
    assert_eq!(lib, reference, "{context}");
    assert_eq!(lib_net.rounds(), ref_net.rounds(), "{context}");
    assert_eq!(
        lib_net.metrics().phases(),
        ref_net.metrics().phases(),
        "{context}"
    );
    assert_eq!(lib_net.fault_counts(), ref_net.fault_counts(), "{context}");
    let (lib_lines, ref_lines) = (normalized(&lib_trace), normalized(&ref_trace));
    assert_eq!(lib_lines.len(), ref_lines.len(), "{context}");
    for (l, r) in lib_lines.iter().zip(&ref_lines) {
        assert_eq!(l, r, "{context}");
    }

    for outcome in &lib {
        match outcome {
            Err(CongestError::DeliveryFailed { .. }) => coverage.delivery_failed += 1,
            Err(CongestError::NodeCrashed { .. }) => coverage.node_crashed += 1,
            Err(e) => panic!("unexpected error {e}: {context}"),
            Ok(_) => {}
        }
    }
    let data_waves = ref_side.call_starts.iter().filter(|s| s.1).count();
    if lib.iter().all(Result::is_ok) && ref_side.call_starts.len() > 2 * data_waves {
        coverage.delivered_after_retry += 1;
    }
    coverage.duplicates += lib_net.fault_counts().duplications;
}

#[test]
fn envelope_matches_the_reference_protocol() {
    let mut coverage = Coverage::default();
    for seed in 0..300 {
        check_case(seed, None, &mut coverage);
    }
    assert!(coverage.delivered_after_retry > 0, "{coverage:?}");
    assert!(coverage.delivery_failed > 0, "{coverage:?}");
    assert!(coverage.duplicates > 0, "{coverage:?}");
}

#[test]
fn envelope_matches_the_reference_under_crashes() {
    let mut coverage = Coverage::default();
    for seed in 1000..1150 {
        check_case(seed, Some(true), &mut coverage);
        check_case(seed, Some(false), &mut coverage);
    }
    assert!(coverage.node_crashed > 0, "{coverage:?}");
    assert!(coverage.crash_between_waves > 0, "{coverage:?}");
}

/// A call without messages runs no wave at all: nothing is charged, no
/// comm event is traced, and the fault stream does not advance.
#[test]
fn empty_calls_run_no_wave() {
    let plan = FaultPlan::parse("drop=0.3,dup=0.2,crash=0@0,seed=5").unwrap();
    let cfg = ReliableConfig::default();
    for n in 1..=9 {
        let mut calls = vec![Call::Exchange(Vec::new()), Call::Route(Vec::new())];
        if n == 1 {
            calls.push(Call::Broadcast(NodeId::new(0), RawBits::new(1, 40)));
            calls.push(Call::Gossip(vec![vec![RawBits::new(2, 40)]]));
        }
        let (lib, lib_net, lib_trace) = run_library(n, &plan, cfg, &calls);
        let (reference, ref_side, ref_trace) = run_reference(n, &plan, cfg, &calls);
        assert_eq!(lib, reference);
        assert!(ref_side.call_starts.is_empty());
        assert_eq!(lib_net.rounds(), 0);
        assert_eq!(lib_net.fault_counts().total(), 0, "no call, no crash");
        assert!(!lib_trace.contents().contains("\"comm\""));
        assert_eq!(normalized(&lib_trace), normalized(&ref_trace));
    }
}
