//! Round-accounting determinism pins.
//!
//! The zero-allocation rewrite of [`Clique`]'s internals (dense scratch
//! buffers instead of per-call `HashMap`s, reused coloring buffers,
//! pre-sized inboxes) is a host-side optimisation only: the charged rounds
//! and every other metric are part of the *model*, and must not move by a
//! single unit. Each scenario below asserts exact equality against counts
//! recorded from the pre-refactor simulator, so any accounting drift —
//! however it is introduced — fails loudly.
//!
//! One field was re-recorded on purpose: a route's `max_link_bits` is the
//! busiest relay link of one hop, `⌈Δ/n⌉·B`, which every König schedule
//! attains (so `rounds = 2·max_link_bits/B`). It replaced a both-hop count
//! read off one particular coloring; the `lemma1_*` rounds, messages, bits
//! and node maxima are the original recordings.

use qcc_congest::{
    parse_trace, Clique, Envelope, FaultPlan, NodeId, RawBits, ReliableConfig, TraceSink,
    TraceSummary,
};

/// The full metric signature of a finished simulation.
#[derive(Debug, PartialEq, Eq)]
struct Signature {
    rounds: u64,
    messages: u64,
    bits: u64,
    max_link_bits: u64,
    max_node_out_bits: u64,
    max_node_in_bits: u64,
}

fn signature(c: &Clique) -> Signature {
    let m = c.metrics();
    let p = &m.phases()[0];
    assert_eq!(m.phases().len(), 1, "scenarios run in a single phase");
    Signature {
        rounds: m.total_rounds(),
        messages: m.total_messages(),
        bits: m.total_bits(),
        max_link_bits: p.max_link_bits,
        max_node_out_bits: p.max_node_out_bits,
        max_node_in_bits: p.max_node_in_bits,
    }
}

#[test]
fn lemma1_balanced_counts_are_pinned() {
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
    assert_eq!(
        signature(&c),
        Signature {
            rounds: 2,
            messages: 112,
            bits: 1792,
            max_link_bits: 16,
            max_node_out_bits: 112,
            max_node_in_bits: 112,
        }
    );
}

#[test]
fn lemma1_hot_pair_counts_are_pinned() {
    let n = 8;
    let mut c = Clique::with_bandwidth(n, 16).unwrap();
    let sends: Vec<_> = (0..n)
        .map(|i| Envelope::new(NodeId::new(0), NodeId::new(1), RawBits::new(i as u64, 16)))
        .collect();
    c.route(sends).unwrap();
    assert_eq!(
        signature(&c),
        Signature {
            rounds: 2,
            messages: 16,
            bits: 256,
            max_link_bits: 16,
            max_node_out_bits: 128,
            max_node_in_bits: 128,
        }
    );
}

#[test]
fn lemma1_overloaded_counts_are_pinned() {
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
    c.route(sends).unwrap();
    assert_eq!(
        signature(&c),
        Signature {
            rounds: 6,
            messages: 24,
            bits: 384,
            max_link_bits: 48,
            max_node_out_bits: 192,
            max_node_in_bits: 96,
        }
    );
}

#[test]
fn lemma1_mixed_sizes_counts_are_pinned() {
    // payloads up to 60 bits on 16-bit links fragment into 1..=4 units each
    let n = 6;
    let mut c = Clique::with_bandwidth(n, 16).unwrap();
    let mut sends = Vec::new();
    for u in 0..n {
        for v in 0..n {
            if u != v {
                let bits = 8 + 13 * ((u * n + v) % 5) as u64;
                sends.push(Envelope::new(
                    NodeId::new(u),
                    NodeId::new(v),
                    RawBits::new(u as u64, bits),
                ));
            }
        }
    }
    c.route(sends).unwrap();
    assert_eq!(
        signature(&c),
        Signature {
            rounds: 6,
            messages: 156,
            bits: 2040,
            max_link_bits: 48,
            max_node_out_bits: 224,
            max_node_in_bits: 224,
        }
    );
}

#[test]
fn gossip_small_counts_are_pinned() {
    let mut c = Clique::new(3).unwrap();
    let items = vec![vec![10u64], vec![20u64, 21u64], vec![]];
    c.gossip(items).unwrap();
    assert_eq!(
        signature(&c),
        Signature {
            rounds: 4,
            messages: 6,
            bits: 384,
            max_link_bits: 128,
            max_node_out_bits: 256,
            max_node_in_bits: 192,
        }
    );
}

#[test]
fn gossip_uneven_counts_are_pinned() {
    let mut c = Clique::new(5).unwrap();
    let items: Vec<Vec<u64>> = (0..5).map(|i| (0..i as u64 * 3).collect()).collect();
    c.gossip(items).unwrap();
    assert_eq!(
        signature(&c),
        Signature {
            rounds: 16,
            messages: 20,
            bits: 7680,
            max_link_bits: 768,
            max_node_out_bits: 3072,
            max_node_in_bits: 1920,
        }
    );
}

#[test]
fn exchange_fragmented_counts_are_pinned() {
    let mut c = Clique::with_bandwidth(2, 10).unwrap();
    c.exchange(vec![Envelope::new(
        NodeId::new(0),
        NodeId::new(1),
        RawBits::new(0, 35),
    )])
    .unwrap();
    assert_eq!(
        signature(&c),
        Signature {
            rounds: 4,
            messages: 1,
            bits: 35,
            max_link_bits: 35,
            max_node_out_bits: 35,
            max_node_in_bits: 35,
        }
    );
}

#[test]
fn broadcast_fragmented_counts_are_pinned() {
    let mut c = Clique::with_bandwidth(6, 8).unwrap();
    c.broadcast(NodeId::new(2), RawBits::new(1, 20)).unwrap();
    assert_eq!(
        signature(&c),
        Signature {
            rounds: 3,
            messages: 5,
            bits: 100,
            max_link_bits: 20,
            max_node_out_bits: 100,
            max_node_in_bits: 20,
        }
    );
}

/// Runs the pinned scenarios above once more, optionally traced and with an
/// arbitrary extra configuration step, and returns their signatures. Used to
/// prove that pure-observation features (tracing) and inert configuration
/// (an empty fault plan, an envelope with no faults to mask) never move a
/// single charged unit.
fn run_pinned_scenarios_with(
    trace: Option<&TraceSink>,
    configure: impl Fn(&mut Clique),
) -> Vec<Signature> {
    let mut signatures = Vec::new();
    let attach = |c: &mut Clique, label: &str| {
        if let Some(sink) = trace {
            c.set_trace_sink(sink.clone());
        }
        configure(c);
        c.push_span(label);
    };

    // Balanced all-to-all route (the Lemma 1 workhorse).
    let n = 8;
    let mut c = Clique::with_bandwidth(n, 16).unwrap();
    attach(&mut c, "route-balanced");
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
    c.close_all_spans();
    signatures.push(signature(&c));

    // Uneven gossip.
    let mut c = Clique::new(5).unwrap();
    attach(&mut c, "gossip-uneven");
    let items: Vec<Vec<u64>> = (0..5).map(|i| (0..i as u64 * 3).collect()).collect();
    c.gossip(items).unwrap();
    c.close_all_spans();
    signatures.push(signature(&c));

    // Fragmented exchange.
    let mut c = Clique::with_bandwidth(2, 10).unwrap();
    attach(&mut c, "exchange-fragmented");
    c.exchange(vec![Envelope::new(
        NodeId::new(0),
        NodeId::new(1),
        RawBits::new(0, 35),
    )])
    .unwrap();
    c.close_all_spans();
    signatures.push(signature(&c));

    // Fragmented broadcast.
    let mut c = Clique::with_bandwidth(6, 8).unwrap();
    attach(&mut c, "broadcast-fragmented");
    c.broadcast(NodeId::new(2), RawBits::new(1, 20)).unwrap();
    c.close_all_spans();
    signatures.push(signature(&c));

    signatures
}

fn run_pinned_scenarios(trace: Option<&TraceSink>) -> Vec<Signature> {
    run_pinned_scenarios_with(trace, |_| {})
}

#[test]
fn tracing_leaves_every_charged_unit_untouched() {
    let plain = run_pinned_scenarios(None);
    let (sink, _buffer) = TraceSink::in_memory();
    let traced = run_pinned_scenarios(Some(&sink));
    assert_eq!(plain, traced, "tracing must be pure observation");
}

#[test]
fn empty_fault_plan_leaves_every_charged_unit_untouched() {
    // Arming an empty plan (and even a reliable-delivery envelope on top)
    // must keep the raw code path: every signature stays byte-identical.
    let plain = run_pinned_scenarios(None);
    let with_empty_plan = run_pinned_scenarios_with(None, |c| {
        c.set_fault_plan(FaultPlan::default());
    });
    assert_eq!(plain, with_empty_plan, "an empty fault plan must be inert");
    let with_idle_envelope = run_pinned_scenarios_with(None, |c| {
        c.set_fault_plan(FaultPlan::default());
        c.set_reliable_delivery(ReliableConfig::default());
    });
    assert_eq!(
        plain, with_idle_envelope,
        "the envelope must not engage without faults"
    );
}

#[test]
fn traces_of_pinned_scenarios_are_well_formed_and_sum_correctly() {
    let (sink, buffer) = TraceSink::in_memory();
    let signatures = run_pinned_scenarios(Some(&sink));
    let events = parse_trace(&buffer.contents()).unwrap();
    let summary = TraceSummary::from_events(&events).unwrap();
    summary.verify().unwrap();
    let expected: u64 = signatures.iter().map(|s| s.rounds).sum();
    assert_eq!(summary.total_rounds(), expected);
    // One root span per scenario, all factor 1.
    assert_eq!(summary.roots().len(), signatures.len());
}

#[test]
fn repeated_phases_reuse_scratch_without_drift() {
    // ten consecutive route phases on one Clique must each charge exactly
    // what a fresh Clique would: scratch reuse may not leak state between
    // calls.
    let n = 8;
    let mut warm = Clique::with_bandwidth(n, 16).unwrap();
    for trial in 0..10 {
        let sends: Vec<_> = (0..n)
            .map(|i| {
                Envelope::new(
                    NodeId::new(i),
                    NodeId::new((i + 1 + trial) % n),
                    RawBits::new(i as u64, 16),
                )
            })
            .collect();
        let mut fresh = Clique::with_bandwidth(n, 16).unwrap();
        fresh.route(sends.clone()).unwrap();
        let before = warm.rounds();
        warm.route(sends).unwrap();
        assert_eq!(warm.rounds() - before, fresh.rounds(), "trial {trial}");
    }
}
