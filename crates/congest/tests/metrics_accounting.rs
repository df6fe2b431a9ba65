//! Metrics accounting pins: hand-computed values for the flat phase view
//! and for the span tree an attached trace records.
//!
//! The determinism suite pins the *network* charges; this suite pins how
//! those charges are *attributed* — the implicit `"(unlabelled)"` phase,
//! the per-phase max statistics of `route`/`broadcast`, and the span-tree
//! invariant that a child's rounds never exceed its parent's.

use qcc_congest::{
    parse_trace, Clique, Envelope, Metrics, NodeId, RawBits, TraceBuffer, TraceEvent, TraceSink,
    TraceSummary,
};

/// Hand-computed: 8 nodes, 16-bit links, every ordered pair sends one
/// 16-bit payload. Every node sends and receives Δ = 7 units, so Lemma 1
/// relays them in one batch of 2 rounds and the busiest link of each hop
/// carries ⌈7/8⌉ = 1 unit of 16 bits; each node sends/receives 7 messages
/// of 16 bits = 112 bits.
fn balanced_route(net: &mut Clique) {
    let n = 8;
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
    net.route(sends).unwrap();
}

/// The 8-node, 16-bit network of [`balanced_route`] with an in-memory
/// trace attached.
fn traced_net() -> (Clique, TraceBuffer) {
    let (sink, buffer) = TraceSink::in_memory();
    let mut net = Clique::with_bandwidth(8, 16).unwrap();
    net.set_trace_sink(sink);
    (net, buffer)
}

/// The trace written so far, rebuilt and verified.
fn summary(buffer: &TraceBuffer) -> TraceSummary {
    let summary = TraceSummary::from_events(&parse_trace(&buffer.contents()).unwrap()).unwrap();
    summary.verify().unwrap();
    summary
}

#[test]
fn comm_before_any_phase_lands_in_the_implicit_phase() {
    let (mut net, buffer) = traced_net();
    balanced_route(&mut net);
    net.close_all_spans();
    let m = net.metrics();
    assert_eq!(m.phases().len(), 1);
    assert_eq!(m.phases()[0].label, "(unlabelled)");
    assert_eq!(m.phases()[0].rounds, 2);
    assert_eq!(m.phases()[0].rounds, m.total_rounds());
    // The implicit phase also exists as a root leaf span.
    let summary = summary(&buffer);
    assert_eq!(summary.spans().len(), 1);
    assert_eq!(summary.roots(), [0]);
    let span = &summary.spans()[0];
    assert_eq!(span.label, "(unlabelled)");
    assert_eq!(span.closed_rounds, Some(2));
    assert_eq!(span.own.calls, 1);
}

#[test]
fn route_phase_max_stats_match_hand_computation() {
    let mut net = Clique::with_bandwidth(8, 16).unwrap();
    net.begin_phase("balanced");
    balanced_route(&mut net);
    let p = &net.metrics().phases()[0];
    assert_eq!(p.label, "balanced");
    assert_eq!(p.rounds, 2);
    // Lemma 1 relays through intermediaries, so each payload is counted on
    // both hops: 2 × 8 × 7 = 112 messages of 16 bits.
    assert_eq!(p.messages, 112);
    assert_eq!(p.bits, 112 * 16);
    assert_eq!(p.max_link_bits, 16); // one unit per link and hop: ⌈Δ/n⌉ = 1
    assert_eq!(p.max_node_out_bits, 7 * 16);
    assert_eq!(p.max_node_in_bits, 7 * 16);
}

#[test]
fn broadcast_phase_max_stats_match_hand_computation() {
    // 6 nodes, 8-bit links, one 20-bit payload from node 2 to the other 5:
    // ⌈20/8⌉ = 3 rounds, per-link 20 bits, sender pushes 5×20 = 100 bits.
    let mut net = Clique::with_bandwidth(6, 8).unwrap();
    net.begin_phase("bcast");
    net.broadcast(NodeId::new(2), RawBits::new(1, 20)).unwrap();
    let p = &net.metrics().phases()[0];
    assert_eq!(p.rounds, 3);
    assert_eq!(p.messages, 5);
    assert_eq!(p.bits, 100);
    assert_eq!(p.max_link_bits, 20);
    assert_eq!(p.max_node_out_bits, 100);
    assert_eq!(p.max_node_in_bits, 20);
}

#[test]
fn flat_phase_rounds_always_sum_to_the_total() {
    let mut net = Clique::with_bandwidth(8, 16).unwrap();
    net.push_span("outer");
    net.begin_phase("first");
    balanced_route(&mut net);
    net.push_span("inner");
    net.begin_phase("second");
    balanced_route(&mut net);
    balanced_route(&mut net);
    net.close_all_spans();
    let m = net.metrics();
    let phase_sum: u64 = m.phases().iter().map(|p| p.rounds).sum();
    assert_eq!(phase_sum, m.total_rounds());
    assert_eq!(m.total_rounds(), 6);
}

/// Checks that the children of every span together record no more rounds
/// at their close than the span itself, with the parent links read from
/// the open events; returns the rounds the first root's children record.
fn assert_children_bounded(buffer: &TraceBuffer) -> Vec<u64> {
    let events = parse_trace(&buffer.contents()).unwrap();
    let summary = summary(buffer);
    let recorded = |id: u64| {
        let span = summary.spans().iter().find(|s| s.id == id).unwrap();
        span.closed_rounds.expect("a Metrics close records rounds")
    };
    let children = |of: u64| -> Vec<u64> {
        events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Open {
                    id,
                    parent: Some(p),
                    ..
                } if *p == of => Some(recorded(*id)),
                _ => None,
            })
            .collect()
    };
    for span in summary.spans() {
        let child_sum: u64 = children(span.id).iter().sum();
        assert!(
            child_sum <= recorded(span.id),
            "span {:?}: children sum to {child_sum} > own {}",
            span.label,
            recorded(span.id)
        );
    }
    children(summary.spans()[summary.roots()[0]].id)
}

#[test]
fn span_tree_children_never_exceed_their_parent() {
    let (mut net, buffer) = traced_net();
    net.push_span("apsp");
    for product in 0..2 {
        net.push_span(&format!("product-{product}"));
        net.begin_phase("gather");
        balanced_route(&mut net);
        net.begin_phase("search");
        balanced_route(&mut net);
        net.pop_span();
    }
    // Rounds charged to "apsp" directly, outside any product.
    net.charge_rounds(5);
    net.close_all_spans();
    let product_rounds = assert_children_bounded(&buffer);
    // Hand-computed: root holds 2 products × 2 phases × 2 rounds + 5.
    let summary = summary(&buffer);
    let root = &summary.spans()[0];
    assert_eq!(root.label, "apsp");
    assert_eq!(root.closed_rounds, Some(13));
    assert_eq!(product_rounds, vec![4, 4]);
}

#[test]
fn every_open_span_sees_every_call() {
    let (mut net, buffer) = traced_net();
    net.push_span("run");
    net.begin_phase("work");
    balanced_route(&mut net); // 2 rounds
    net.charge_rounds(1);
    net.charge_rounds(0); // a free call
    net.close_all_spans();
    // Both the group span and the leaf saw all three calls.
    let summary = summary(&buffer);
    let closed: Vec<Option<u64>> = summary.spans().iter().map(|s| s.closed_rounds).collect();
    assert_eq!(closed, [Some(3), Some(3)]);
    assert_eq!(summary.spans()[1].own.calls, 3);
    assert_eq!(net.metrics().total_rounds(), 3);
}

#[test]
fn standalone_metrics_follow_the_same_rules() {
    let (sink, buffer) = TraceSink::in_memory();
    let mut m = Metrics::new();
    m.set_trace_sink(sink);
    m.push_span("g");
    m.record_exchange(2, 4, 64, 32, 48, 40);
    m.record_exchange(3, 1, 16, 40, 16, 16);
    m.close_all_spans();
    // The implicit phase takes componentwise maxima; the group span too.
    assert_eq!(m.phases()[0].max_link_bits, 40);
    assert_eq!(m.phases()[0].max_node_out_bits, 48);
    let summary = summary(&buffer);
    assert_eq!(summary.spans()[0].label, "g");
    assert_eq!(summary.spans()[0].closed_rounds, Some(5));
    assert_eq!(summary.subtree_max_link_bits(0), 40);
    assert_eq!(summary.spans()[1].label, "(unlabelled)");
    assert_eq!(summary.spans()[1].own.calls, 2);
}
