//! Property-based tests for the CONGEST-CLIQUE simulator.

use proptest::collection::vec;
use proptest::prelude::*;
use qcc_congest::coloring::{color_bipartite, is_proper, max_degree};
use qcc_congest::trace::TraceSink;
use qcc_congest::{Clique, Envelope, FaultPlan, Leg, LinkTally, NodeId, RawBits, ReliableConfig};

proptest! {
    /// König coloring is always proper and uses exactly Δ colors, and the
    /// relay schedule it defines has the closed-form busiest link that
    /// [`Clique::route`] records. With color `c` relayed through node
    /// `c mod n`, a link carries units of distinct colors below Δ that
    /// share one residue mod n, so at most ⌈Δ/n⌉ per hop; a node of degree
    /// d uses d distinct colors, so one of its links carries at least
    /// ⌈d/n⌉. The hop on the side of a degree-Δ node therefore peaks at
    /// exactly ⌈Δ/n⌉ (0 when Δ = 0); the other hop peaks at ⌈d/n⌉ or more
    /// for its own largest degree d, which may fall below Δ.
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

        let mut out_deg = vec![0usize; n];
        let mut in_deg = vec![0usize; n];
        for &(u, v) in &edges {
            out_deg[u] += 1;
            in_deg[v] += 1;
        }
        let max_out = out_deg.into_iter().max().unwrap_or(0);
        let max_in = in_deg.into_iter().max().unwrap_or(0);
        let bound = delta.div_ceil(n);
        let (hop1, hop2) = hop_maxima(&edges, &coloring.colors, n);
        // One of max_out and max_in is Δ, which pins its hop to ⌈Δ/n⌉.
        prop_assert!(max_out.div_ceil(n) <= hop1 && hop1 <= bound);
        prop_assert!(max_in.div_ceil(n) <= hop2 && hop2 <= bound);
        prop_assert_eq!(hop1.max(hop2), bound);
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

    /// Routed exchange delivers everything in exactly 2·⌈Δ_units / n⌉
    /// rounds and records one hop's busiest relay link, ⌈Δ_units / n⌉
    /// units of B bits, as the call's `max_link_bits`.
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
        prop_assert_eq!(net.metrics().max_link_bits(), delta.div_ceil(n as u64) * 16);
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
        for node in NodeId::all(n).skip(1) {
            prop_assert_eq!(views.of(node), views.of(NodeId::new(0)));
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
        let (c, m) = (comm_events(&charged_trace.contents()), comm_events(&materialized_trace.contents()));
        prop_assert_eq!(c.len(), 2 * batches.len());
        prop_assert_eq!(c, m);
    }

    /// Charging a route from a link table ([`Clique::charge_route_tally`])
    /// records exactly what routing the same fixed-width traffic through
    /// [`Clique::route`] records — rounds, message count, bit total, phase
    /// maxima, and the NDJSON comm events — at every size. Per-link counts
    /// capped at n, 2n or 3n put Δ below, at and above multiples of n, local
    /// (diagonal) entries are tallied and free on both sides, widths up to
    /// 4B fragment each message into several units, and a second table
    /// reuses the warm network.
    #[test]
    fn charge_only_route_matches_materialized(
        n in 1usize..=12,
        tables in vec((vec((0usize..144, 0usize..37), 0..24), 1usize..4), 2..3),
        width in 0u64..1024,
    ) {
        let mut materialized = Clique::new(n).unwrap();
        let bits_per_msg = 1 + width % (4 * materialized.bandwidth_bits());
        let (sink, materialized_trace) = TraceSink::in_memory();
        materialized.set_trace_sink(sink);
        let (sink, charged_trace) = TraceSink::in_memory();
        let mut charged = Clique::new(n).unwrap();
        charged.set_trace_sink(sink);
        for (cells, load) in &tables {
            let mut link_msgs = vec![0u32; n * n];
            for &(cell, count) in cells {
                link_msgs[cell % (n * n)] += (count % (load * n + 1)) as u32;
            }
            let mut sends = Vec::new();
            for (link, &count) in link_msgs.iter().enumerate() {
                let (src, dst) = (NodeId::new(link / n), NodeId::new(link % n));
                for _ in 0..count {
                    sends.push(Envelope::new(src, dst, RawBits::new(0, bits_per_msg)));
                }
            }
            materialized.begin_phase("route");
            let before = materialized.rounds();
            materialized.route(sends).unwrap();
            charged.begin_phase("route");
            let rounds = charged.charge_route_tally(&link_msgs, bits_per_msg);
            prop_assert_eq!(rounds, materialized.rounds() - before);
        }
        materialized.close_all_spans();
        charged.close_all_spans();

        prop_assert_eq!(charged.rounds(), materialized.rounds());
        prop_assert_eq!(charged.metrics().total_messages(), materialized.metrics().total_messages());
        prop_assert_eq!(charged.metrics().total_bits(), materialized.metrics().total_bits());
        prop_assert_eq!(charged.metrics().phases(), materialized.metrics().phases());
        let (c, m) = (comm_events(&charged_trace.contents()), comm_events(&materialized_trace.contents()));
        prop_assert_eq!(c.len(), tables.len());
        prop_assert_eq!(c, m);
    }

    /// Gossip on a transparent network is charged from the list sizes and
    /// returns one shared view; a network with an inactive envelope (no
    /// fault plan) sends every copy. Both give the same views, rounds,
    /// per-phase stats and trace `comm` events.
    #[test]
    fn analytic_gossip_matches_materialized(
        n in 1usize..=12,
        lists in vec(vec((0u64..1000, 0u64..300), 0..6), 12..13),
        empty in vec(0u8..3, 12..13),
    ) {
        let items: Vec<Vec<RawBits>> = lists
            .iter()
            .zip(&empty)
            .take(n)
            .map(|(list, &e)| {
                // About a third of the nodes gossip nothing.
                if e == 0 {
                    Vec::new()
                } else {
                    list.iter().map(|&(tag, bits)| RawBits::new(tag, bits)).collect()
                }
            })
            .collect();
        let (sink, analytic_trace) = TraceSink::in_memory();
        let mut analytic = Clique::new(n).unwrap();
        analytic.set_trace_sink(sink);
        let (sink, materialized_trace) = TraceSink::in_memory();
        let mut materialized = Clique::new(n).unwrap();
        materialized.set_trace_sink(sink);
        materialized.set_reliable_delivery(ReliableConfig::default());
        prop_assert!(analytic.is_transparent());
        prop_assert!(!materialized.is_transparent() && !materialized.envelope_active());

        analytic.begin_phase("gossip");
        let a = analytic.gossip(items.clone()).unwrap();
        materialized.begin_phase("gossip");
        let m = materialized.gossip(items).unwrap();
        analytic.close_all_spans();
        materialized.close_all_spans();

        for node in NodeId::all(n) {
            prop_assert_eq!(a.of(node), m.of(node));
        }
        prop_assert_eq!(analytic.rounds(), materialized.rounds());
        prop_assert_eq!(analytic.metrics().phases(), materialized.metrics().phases());
        let (a, m) = (
            comm_events(&analytic_trace.contents()),
            comm_events(&materialized_trace.contents()),
        );
        prop_assert_eq!(a.len(), 1);
        prop_assert_eq!(a, m);
    }

    /// A route's charge is a function of its traffic and the crash state
    /// alone, never of earlier calls on the same network. Routing A, A, B,
    /// A on one network (B has A's unit count and degrees but different
    /// pairs), and the same traffic before and after a crash silences one
    /// of its senders, must each charge what the route charges on a fresh
    /// network.
    #[test]
    fn reused_relay_schedules_match_fresh_routes(
        n in 4usize..9,
        raw in vec((0usize..9, 0usize..9, 1u64..64), 0..40),
        crashed in 0usize..2,
    ) {
        // Two messages of equal width whose destinations B swaps: every
        // node keeps its degrees, but two pairs change.
        let mut a: Vec<(usize, usize, u64)> = vec![(0, 1, 20), (2, 3, 20)];
        a.extend(raw.into_iter().map(|(u, v, bits)| (u % n, v % n, bits)));
        let mut b = a.clone();
        b[0].1 = 3;
        b[1].1 = 1;
        let sends = |traffic: &[(usize, usize, u64)]| -> Vec<Envelope<RawBits>> {
            traffic
                .iter()
                .map(|&(u, v, bits)| Envelope::new(NodeId::new(u), NodeId::new(v), RawBits::new(0, bits)))
                .collect()
        };
        let last_phase = |net: &Clique| net.metrics().phases().last().cloned().unwrap();
        let fresh = |traffic: &[(usize, usize, u64)], plan: FaultPlan| {
            let mut net = Clique::with_bandwidth(n, 16).unwrap();
            net.set_fault_plan(plan);
            net.begin_phase("route");
            net.route(sends(traffic)).unwrap();
            last_phase(&net)
        };

        let mut reused = Clique::with_bandwidth(n, 16).unwrap();
        for traffic in [&a, &a, &b, &a] {
            reused.begin_phase("route");
            reused.route(sends(traffic)).unwrap();
            prop_assert_eq!(last_phase(&reused), fresh(traffic, FaultPlan::default()));
        }

        // The first route charges at least two rounds, so a crash at round
        // 1 silences the sender between the two identical submissions.
        let crash_at = |round: u64| FaultPlan {
            crashes: vec![(NodeId::new(2 * crashed), round)],
            ..FaultPlan::default()
        };
        let mut crashing = Clique::with_bandwidth(n, 16).unwrap();
        crashing.set_fault_plan(crash_at(1));
        for round in [1, 0] {
            crashing.begin_phase("route");
            crashing.route(sends(&a)).unwrap();
            prop_assert_eq!(last_phase(&crashing), fresh(&a, crash_at(round)));
        }
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

/// Units on the busiest hop-1 `(src, relay)` and hop-2 `(relay, dst)` link
/// when color `c` relays through node `c mod n`.
fn hop_maxima(edges: &[(usize, usize)], colors: &[usize], n: usize) -> (usize, usize) {
    let mut hop1 = vec![0usize; n * n];
    let mut hop2 = vec![0usize; n * n];
    for (&(src, dst), &c) in edges.iter().zip(colors) {
        let relay = c % n;
        hop1[src * n + relay] += 1;
        hop2[relay * n + dst] += 1;
    }
    let busiest = |loads: Vec<usize>| loads.into_iter().max().unwrap_or(0);
    (busiest(hop1), busiest(hop2))
}

/// The `comm` events of an NDJSON trace, one line each.
fn comm_events(text: &str) -> Vec<String> {
    text.lines()
        .filter(|line| line.contains("\"comm\""))
        .map(str::to_owned)
        .collect()
}
