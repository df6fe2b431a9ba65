//! Property-based tests for the coded-gossip transport: coded gossip must
//! deliver exactly or fail typed under any seeded fault plan, and fault
//! specs must round-trip through their canonical form.

use proptest::collection::vec;
use proptest::prelude::*;
use qcc_congest::{CongestError, FaultPlan, GossipTransport, NodeId, Topology, TopologySpec};

/// Builds one of the seeded topology families from two free parameters.
fn pick_topology(which: u8, n: usize, degree: usize, seed: u64) -> Topology {
    match which % 4 {
        0 => TopologySpec::Clique.build(n, seed),
        1 => TopologySpec::Ring.build(n, seed),
        2 => TopologySpec::Mesh {
            degree: degree.clamp(2, n.saturating_sub(1).max(2)),
        }
        .build(n, seed),
        _ => TopologySpec::Torus.build(n, seed),
    }
}

proptest! {
    /// The canonical spec of any fault plan parses back to the same plan:
    /// `parse(plan.to_spec()) == plan` (Rust float formatting is
    /// shortest-round-trip, so the rates survive exactly).
    #[test]
    fn fault_spec_round_trips(
        drop in 0.0f64..1.0,
        corrupt in 0.0f64..1.0,
        dup in 0.0f64..1.0,
        links in vec((0usize..8, 0usize..8, 0.0f64..1.0), 0..4),
        crashes in vec((0usize..8, 0u64..1000), 0..3),
        seed in 0u64..10_000,
    ) {
        let plan = FaultPlan {
            drop_rate: drop,
            corrupt_rate: corrupt,
            duplicate_rate: dup,
            link_drop: links
                .into_iter()
                .map(|(s, d, r)| ((NodeId::new(s), NodeId::new(d)), r))
                .collect(),
            crashes: crashes
                .into_iter()
                .map(|(node, round)| (NodeId::new(node), round))
                .collect(),
            seed,
        };
        let spec = plan.to_spec();
        let reparsed = FaultPlan::parse(&spec)
            .unwrap_or_else(|e| panic!("canonical spec {spec:?} failed to parse: {e}"));
        prop_assert_eq!(reparsed, plan);
    }

    /// Coded gossip under ANY seeded fault plan on ANY connected seeded
    /// topology either hands every node the exact source block or fails
    /// with a typed transport error — never a silently wrong or partial
    /// delivery.
    #[test]
    fn gossip_broadcast_is_exact_or_typed(
        which in 0u8..4,
        n in 3usize..8,
        degree in 2usize..5,
        topo_seed in 0u64..100,
        block in vec(0u8..=255, 1..40),
        src in 0usize..8,
        chunks in 1usize..6,
        drop in 0.0f64..0.5,
        corrupt in 0.0f64..0.3,
        dup in 0.0f64..0.3,
        crash_arm in 0u8..2,
        crash_round in 0u64..30,
        fault_seed in 0u64..500,
    ) {
        let topo = pick_topology(which, n, degree, topo_seed);
        let src = src % n;
        let mut t = GossipTransport::new(topo, topo_seed ^ 0x9e37)
            .unwrap()
            .with_chunks(chunks);
        t.set_fault_plan(FaultPlan {
            drop_rate: drop,
            corrupt_rate: corrupt,
            duplicate_rate: dup,
            crashes: if crash_arm == 1 {
                vec![(NodeId::new((src + 1) % n), crash_round)]
            } else {
                Vec::new()
            },
            seed: fault_seed,
            ..FaultPlan::default()
        });
        match t.broadcast_block(NodeId::new(src), &block) {
            Ok(views) => {
                prop_assert_eq!(views.len(), n);
                for view in &views {
                    prop_assert_eq!(view, &block);
                }
            }
            Err(
                CongestError::DeliveryFailed { .. }
                | CongestError::DecodeFailed { .. }
                | CongestError::NodeCrashed { .. },
            ) => {}
            Err(other) => prop_assert!(false, "untyped gossip failure: {other}"),
        }
    }
}
