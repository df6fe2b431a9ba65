//! Metrics accounting pins: hand-computed values for the flat phase view,
//! the hierarchical span tree, and the per-call round histograms.
//!
//! The determinism suite pins the *network* charges; this suite pins how
//! those charges are *attributed* — the implicit `"(unlabelled)"` phase,
//! the per-phase max statistics of `route`/`broadcast`, and the span-tree
//! invariant that a child's rounds never exceed its parent's.

use qcc_congest::{Clique, Envelope, Metrics, NodeId, RawBits, Span};

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

#[test]
fn comm_before_any_phase_lands_in_the_implicit_phase() {
    let mut net = Clique::with_bandwidth(8, 16).unwrap();
    balanced_route(&mut net);
    let m = net.metrics();
    assert_eq!(m.phases().len(), 1);
    assert_eq!(m.phases()[0].label, "(unlabelled)");
    assert_eq!(m.phases()[0].rounds, 2);
    assert_eq!(m.phases()[0].rounds, m.total_rounds());
    // The implicit phase also exists as a root leaf span.
    assert_eq!(m.spans().len(), 1);
    assert_eq!(m.spans()[0].label, "(unlabelled)");
    assert_eq!(m.spans()[0].parent, None);
    assert_eq!(m.spans()[0].totals.rounds, 2);
    assert_eq!(m.spans()[0].totals.calls, 1);
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

fn assert_children_bounded(spans: &[Span]) {
    for (idx, span) in spans.iter().enumerate() {
        let child_sum: u64 = span
            .children
            .iter()
            .map(|&c| {
                assert_eq!(spans[c].parent, Some(idx), "child/parent links agree");
                spans[c].totals.rounds
            })
            .sum();
        assert!(
            child_sum <= span.totals.rounds,
            "span {:?}: children sum to {child_sum} > own {}",
            span.label,
            span.totals.rounds
        );
    }
}

#[test]
fn span_tree_children_never_exceed_their_parent() {
    let mut net = Clique::with_bandwidth(8, 16).unwrap();
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
    let m = net.metrics();
    assert_children_bounded(m.spans());
    // Hand-computed: root holds 2 products × 2 phases × 2 rounds + 5.
    let root = &m.spans()[0];
    assert_eq!(root.label, "apsp");
    assert_eq!(root.totals.rounds, 13);
    let product_rounds: Vec<u64> = root
        .children
        .iter()
        .map(|&c| m.spans()[c].totals.rounds)
        .collect();
    assert_eq!(product_rounds, vec![4, 4]);
}

#[test]
fn histograms_count_every_call_once_per_open_span() {
    let mut net = Clique::with_bandwidth(8, 16).unwrap();
    net.push_span("run");
    net.begin_phase("work");
    balanced_route(&mut net); // 2 rounds → bucket for 2..=3
    net.charge_rounds(1); // 1 round → bucket for exactly 1
    net.charge_rounds(0); // free call → bucket 0
    net.close_all_spans();
    let m = net.metrics();
    assert_eq!(m.histogram().compact(), "0:1 1:1 2:1");
    assert_eq!(m.histogram().total_calls(), 3);
    // Both the group span and the leaf saw all three calls.
    assert_eq!(m.spans()[0].histogram.total_calls(), 3);
    assert_eq!(m.spans()[1].histogram.total_calls(), 3);
}

#[test]
fn metrics_reset_clears_spans_and_histograms() {
    let mut net = Clique::with_bandwidth(8, 16).unwrap();
    net.push_span("before");
    balanced_route(&mut net);
    net.reset_metrics();
    let m = net.metrics();
    assert_eq!(m.total_rounds(), 0);
    assert!(m.spans().is_empty());
    assert_eq!(m.histogram().total_calls(), 0);
    // A fresh accounting epoch works as usual afterwards.
    net.begin_phase("after");
    balanced_route(&mut net);
    assert_eq!(net.metrics().total_rounds(), 2);
}

#[test]
fn standalone_metrics_follow_the_same_rules() {
    let mut m = Metrics::new();
    m.push_span("g");
    m.record_exchange(2, 4, 64, 32, 48, 40);
    m.record_exchange(3, 1, 16, 40, 16, 16);
    m.close_all_spans();
    // The implicit phase takes componentwise maxima; the group span too.
    assert_eq!(m.phases()[0].max_link_bits, 40);
    assert_eq!(m.phases()[0].max_node_out_bits, 48);
    assert_eq!(m.spans()[0].totals.rounds, 5);
    assert_eq!(m.spans()[0].totals.max_link_bits, 40);
    assert_eq!(m.spans()[0].totals.calls, 2);
}
