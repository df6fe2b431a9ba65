//! Property-based tests for the CONGEST-CLIQUE simulator.

use proptest::collection::vec;
use proptest::prelude::*;
use qcc_congest::coloring::{color_bipartite, is_proper, max_degree};
use qcc_congest::trace::TraceSink;
use qcc_congest::{Clique, Envelope, FaultPlan, Leg, LinkTally, NodeId, RawBits, ReliableConfig};

proptest! {
    /// König coloring is always proper and uses exactly Δ colors.
    #[test]
    fn coloring_is_proper_and_optimal(
        n in 1usize..12,
        raw_edges in vec((0usize..12, 0usize..12), 0..120),
    ) {
        let edges: Vec<(usize, usize)> = raw_edges
            .into_iter()
            .map(|(u, v)| (u % n, v % n))
            .collect();
        let delta = max_degree(&edges, n, n);
        let coloring = color_bipartite(&edges, n, n);
        prop_assert_eq!(coloring.num_colors, delta);
        prop_assert!(is_proper(&edges, &coloring, n, n));
    }

    /// Direct exchange delivers every message exactly once, in sender order.
    #[test]
    fn exchange_delivers_everything(
        n in 1usize..10,
        raw in vec((0usize..10, 0usize..10, 0u64..1000), 0..80),
    ) {
        let sends: Vec<Envelope<u64>> = raw
            .into_iter()
            .map(|(u, v, x)| Envelope::new(NodeId::new(u % n), NodeId::new(v % n), x))
            .collect();
        let count = sends.len();
        let mut net = Clique::new(n).unwrap();
        let inboxes = net.exchange(sends).unwrap();
        prop_assert_eq!(inboxes.message_count(), count);
    }

    /// Routed exchange delivers everything and never beats the theoretical
    /// lower bound of ⌈Δ_bits / (n · B)⌉ rounds, while never exceeding
    /// 2·⌈Δ_units / n⌉.
    #[test]
    fn route_round_bounds(
        n in 2usize..10,
        raw in vec((0usize..10, 0usize..10), 1..120),
    ) {
        let sends: Vec<Envelope<RawBits>> = raw
            .into_iter()
            .map(|(u, v)| Envelope::new(NodeId::new(u % n), NodeId::new(v % n), RawBits::new(0, 16)))
            .collect();
        let units: Vec<(usize, usize)> = sends
            .iter()
            .filter(|e| e.src != e.dst)
            .map(|e| (e.src.index(), e.dst.index()))
            .collect();
        let delta = max_degree(&units, n, n) as u64;
        let count = sends.len();
        let mut net = Clique::with_bandwidth(n, 16).unwrap();
        let inboxes = net.route(sends).unwrap();
        prop_assert_eq!(inboxes.message_count(), count);
        let expected = 2 * delta.div_ceil(n as u64);
        prop_assert_eq!(net.rounds(), expected);
    }

    /// Gossip gives every node the same global view.
    #[test]
    fn gossip_views_agree(
        n in 1usize..8,
        lists in vec(vec(0u64..100, 0..5), 1..8),
    ) {
        let mut items: Vec<Vec<u64>> = lists;
        items.resize(n, Vec::new());
        items.truncate(n);
        let mut net = Clique::new(n).unwrap();
        let views = net.gossip(items).unwrap();
        for w in views.windows(2) {
            prop_assert_eq!(&w[0], &w[1]);
        }
    }

    /// An empty fault plan (with or without an armed envelope) is
    /// byte-identical to no plan at all: same inboxes, same rounds.
    #[test]
    fn empty_fault_plan_is_inert(
        n in 1usize..8,
        raw in vec((0usize..8, 0usize..8, 0u32..1000), 0..60),
        arm_envelope in 0u8..2,
    ) {
        let sends: Vec<Envelope<u32>> = raw
            .into_iter()
            .map(|(u, v, x)| Envelope::new(NodeId::new(u % n), NodeId::new(v % n), x))
            .collect();

        let mut plain = Clique::new(n).unwrap();
        let baseline = plain.exchange(sends.clone()).unwrap();

        let mut armed = Clique::new(n).unwrap();
        armed.set_fault_plan(FaultPlan::default());
        if arm_envelope == 1 {
            armed.set_reliable_delivery(ReliableConfig::default());
        }
        let inboxes = armed.exchange(sends).unwrap();

        prop_assert_eq!(armed.rounds(), plain.rounds());
        for node in NodeId::all(n) {
            prop_assert_eq!(inboxes.of(node), baseline.of(node));
        }
    }

    /// The arena counting-placement delivery engine is byte-identical to
    /// the legacy staged-and-sorted reference path: same per-node inboxes
    /// (payloads *and* order), same charged rounds, same message/bit
    /// totals, same fault tallies — across exchange and route, with and
    /// without a non-empty fault plan (drops, corruptions, duplications,
    /// and a crash).
    #[test]
    fn arena_and_legacy_delivery_are_byte_identical(
        n in 2usize..8,
        raw in vec((0usize..8, 0usize..8, 0u32..1000), 0..60),
        use_route in 0u8..2,
        faulty in 0u8..2,
        drop in 0.0f64..0.4,
        dup in 0.0f64..0.4,
        corrupt in 0.0f64..0.3,
        seed in 0u64..500,
    ) {
        let sends: Vec<Envelope<u32>> = raw
            .into_iter()
            .map(|(u, v, x)| Envelope::new(NodeId::new(u % n), NodeId::new(v % n), x))
            .collect();
        let plan = FaultPlan {
            drop_rate: drop,
            corrupt_rate: corrupt,
            duplicate_rate: dup,
            crashes: vec![(NodeId::new(n - 1), 2)],
            seed,
            ..FaultPlan::default()
        };
        let run = |legacy: bool| {
            let mut net = Clique::new(n).unwrap();
            net.set_legacy_delivery(legacy);
            if faulty == 1 {
                net.set_fault_plan(plan.clone());
            }
            // Two phases: the second reuses warm scratch and advances the
            // fate stream, so submission-order bookkeeping is exercised.
            let first = if use_route == 1 {
                net.route(sends.clone()).unwrap()
            } else {
                net.exchange(sends.clone()).unwrap()
            };
            let second = net.exchange(sends.clone()).unwrap();
            let totals = (
                net.rounds(),
                net.metrics().total_messages(),
                net.metrics().total_bits(),
                *net.fault_counts(),
            );
            (first, second, totals)
        };
        let (arena1, arena2, arena_totals) = run(false);
        let (legacy1, legacy2, legacy_totals) = run(true);
        prop_assert_eq!(arena_totals, legacy_totals);
        for node in NodeId::all(n) {
            prop_assert_eq!(arena1.of(node), legacy1.of(node));
            prop_assert_eq!(arena2.of(node), legacy2.of(node));
        }
    }

    /// Charging an exchange from a sparse link tally
    /// ([`Clique::charge_exchange_tally`]) records exactly what
    /// materializing the same fixed-width traffic through
    /// [`Clique::exchange`] records — rounds, message count, bit total,
    /// phase maxima, and the NDJSON comm events — on both legs: the tallied
    /// queries ([`Leg::Forward`]) and one reply per query on the reverse
    /// link ([`Leg::Reverse`]). Local (`src == dst`) messages are tallied
    /// and free on both sides, repeated links accumulate, and a cleared
    /// tally is reused for a second evaluation.
    #[test]
    fn charge_only_exchange_matches_materialized(
        n in 2usize..8,
        batches in vec(vec((0usize..8, 0usize..8, 1u32..4), 0..40), 2..3),
        query_bits in 1u64..200,
        reply_bits in 1u64..200,
    ) {
        let (sink, materialized_trace) = TraceSink::in_memory();
        let mut materialized = Clique::new(n).unwrap();
        materialized.set_trace_sink(sink);
        let (sink, charged_trace) = TraceSink::in_memory();
        let mut charged = Clique::new(n).unwrap();
        charged.set_trace_sink(sink);
        let mut tally = LinkTally::new(n);
        for links in &batches {
            let mut queries = Vec::new();
            let mut replies = Vec::new();
            tally.clear();
            for &(u, v, count) in links {
                let (src, dst) = (NodeId::new(u % n), NodeId::new(v % n));
                tally.add(src.index(), dst.index(), count);
                for _ in 0..count {
                    queries.push(Envelope::new(src, dst, RawBits::new(0, query_bits)));
                    replies.push(Envelope::new(dst, src, RawBits::new(0, reply_bits)));
                }
            }
            materialized.begin_phase("queries");
            materialized.exchange(queries).unwrap();
            materialized.begin_phase("replies");
            materialized.exchange(replies).unwrap();
            charged.begin_phase("queries");
            charged.charge_exchange_tally(&tally, query_bits, Leg::Forward);
            charged.begin_phase("replies");
            charged.charge_exchange_tally(&tally, reply_bits, Leg::Reverse);
        }
        materialized.close_all_spans();
        charged.close_all_spans();

        prop_assert_eq!(charged.rounds(), materialized.rounds());
        prop_assert_eq!(charged.metrics().total_messages(), materialized.metrics().total_messages());
        prop_assert_eq!(charged.metrics().total_bits(), materialized.metrics().total_bits());
        let (c, m) = (charged.metrics().phases(), materialized.metrics().phases());
        prop_assert_eq!(c.len(), m.len());
        for (c, m) in c.iter().zip(m) {
            prop_assert_eq!(c.rounds, m.rounds);
            prop_assert_eq!(c.messages, m.messages);
            prop_assert_eq!(c.bits, m.bits);
            prop_assert_eq!(c.max_link_bits, m.max_link_bits);
            prop_assert_eq!(c.max_node_out_bits, m.max_node_out_bits);
            prop_assert_eq!(c.max_node_in_bits, m.max_node_in_bits);
        }
        let comm_events = |text: String| -> Vec<String> {
            text.lines()
                .filter(|line| line.contains("\"comm\""))
                .map(str::to_owned)
                .collect()
        };
        let (c, m) = (comm_events(charged_trace.contents()), comm_events(materialized_trace.contents()));
        prop_assert_eq!(c.len(), 2 * batches.len());
        prop_assert_eq!(c, m);
    }

    /// Under pure drop faults the envelope either delivers everything
    /// exactly once or fails with a typed error — never a silent loss.
    #[test]
    fn envelope_is_all_or_error(
        n in 2usize..8,
        raw in vec((0usize..8, 0usize..8, 0u32..1000), 1..40),
        drop in 0.0f64..0.6,
        seed in 0u64..500,
    ) {
        let sends: Vec<Envelope<u32>> = raw
            .into_iter()
            .map(|(u, v, x)| Envelope::new(NodeId::new(u % n), NodeId::new(v % n), x))
            .collect();
        let count = sends.len();
        let mut net = Clique::new(n).unwrap();
        net.set_fault_plan(FaultPlan {
            drop_rate: drop,
            seed,
            ..FaultPlan::default()
        });
        net.set_reliable_delivery(ReliableConfig::default());
        match net.exchange(sends) {
            Ok(inboxes) => prop_assert_eq!(inboxes.message_count(), count),
            Err(e) => prop_assert!(e.to_string().contains("undelivered")),
        }
    }
}
