//! Reference model of the model's delivery order.
//!
//! [`Clique`] places every arriving copy straight at its arena offset by a
//! `(dst, src)` counting pass. [`staged_inboxes`] is delivery as first
//! written: stage `(dst, src, payload)` for each arriving copy in
//! submission order, the two copies of a duplicate adjacent, then
//! stable-sort by `(dst, src)`. Every payload carries its submission index,
//! so the test reads off the library's inboxes which copies arrived, checks
//! that set against the fault tallies, and requires the library's inboxes
//! to equal the reference's for the same exchange-then-route schedules,
//! with and without a fault plan (drops, corruptions, duplications and a
//! crash).

use proptest::collection::vec;
use proptest::prelude::*;
use qcc_congest::{Clique, Envelope, FaultCounts, FaultPlan, Inboxes, NodeId};

/// Per-node inboxes of the staged copies, stable-sorted by `(dst, src)`.
fn staged_inboxes<T>(n: usize, mut staged: Vec<(NodeId, NodeId, T)>) -> Vec<Vec<(NodeId, T)>> {
    staged.sort_by_key(|&(dst, src, _)| (dst, src));
    let mut boxes: Vec<Vec<(NodeId, T)>> = (0..n).map(|_| Vec::new()).collect();
    for (dst, src, payload) in staged {
        boxes[dst.index()].push((src, payload));
    }
    boxes
}

/// Runs one call through the library and checks its inboxes against the
/// reference. `sends[i]` carries payload `(i, x)`.
fn check_call(net: &mut Clique, sends: &[Envelope<(u32, u32)>], route: bool) {
    let n = net.n();
    let before = *net.fault_counts();
    let inboxes: Inboxes<(u32, u32)> = if route {
        net.route(sends.to_vec()).unwrap()
    } else {
        net.exchange(sends.to_vec()).unwrap()
    };
    let after = *net.fault_counts();

    // Which copies arrived, by submission index.
    let mut copies = vec![0usize; sends.len()];
    for (_, inbox) in inboxes.iter() {
        for &(_, (tag, _)) in inbox {
            copies[tag as usize] += 1;
        }
    }
    // A message touching a crashed node vanishes without a fault event of
    // its own; a local one always arrives.
    let crashed = after.crashes > 0;
    let dead = NodeId::new(n - 1);
    let vanished = sends
        .iter()
        .filter(|e| crashed && e.src != e.dst && (e.src == dead || e.dst == dead))
        .count();
    let delta = |f: fn(&FaultCounts) -> u64| (f(&after) - f(&before)) as usize;
    assert!(copies.iter().all(|&c| c <= 2));
    assert_eq!(
        copies.iter().filter(|&&c| c == 0).count(),
        delta(|f| f.drops) + delta(|f| f.corruptions) + vanished
    );
    assert_eq!(
        copies.iter().filter(|&&c| c == 2).count(),
        delta(|f| f.duplications)
    );

    let staged: Vec<(NodeId, NodeId, (u32, u32))> = sends
        .iter()
        .zip(&copies)
        .flat_map(|(e, &c)| std::iter::repeat_n((e.dst, e.src, e.payload), c))
        .collect();
    let expected = staged_inboxes(n, staged);
    for node in NodeId::all(n) {
        assert_eq!(inboxes.of(node), &expected[node.index()][..]);
    }
}

proptest! {
    /// The arena's counting placement equals the staged stable sort of the
    /// copies that arrived, across exchange and route, with and without a
    /// non-empty fault plan. Two calls per network: the second reuses warm
    /// scratch and advances the fate stream.
    #[test]
    fn arena_delivery_matches_the_staged_reference(
        n in 2usize..8,
        raw in vec((0usize..8, 0usize..8, 0u32..1000), 0..60),
        use_route in 0u8..2,
        faulty in 0u8..2,
        drop in 0.0f64..0.4,
        dup in 0.0f64..0.4,
        corrupt in 0.0f64..0.3,
        seed in 0u64..500,
    ) {
        let sends: Vec<Envelope<(u32, u32)>> = raw
            .into_iter()
            .enumerate()
            .map(|(i, (u, v, x))| Envelope::new(NodeId::new(u % n), NodeId::new(v % n), (i as u32, x)))
            .collect();
        let mut net = Clique::new(n).unwrap();
        if faulty == 1 {
            net.set_fault_plan(FaultPlan {
                drop_rate: drop,
                corrupt_rate: corrupt,
                duplicate_rate: dup,
                crashes: vec![(NodeId::new(n - 1), 2)],
                seed,
                ..FaultPlan::default()
            });
        }
        check_call(&mut net, &sends, use_route == 1);
        check_call(&mut net, &sends, false);
    }
}

#[test]
fn staged_records_order_by_destination_then_sender() {
    let boxes = staged_inboxes(
        2,
        vec![
            (NodeId::new(0), NodeId::new(1), 10u64),
            (NodeId::new(1), NodeId::new(0), 30u64),
            (NodeId::new(0), NodeId::new(0), 20u64),
            (NodeId::new(0), NodeId::new(1), 11u64),
        ],
    );
    let inbox = &boxes[0];
    assert_eq!(inbox[0], (NodeId::new(0), 20));
    assert_eq!(inbox[1], (NodeId::new(1), 10));
    assert_eq!(inbox[2], (NodeId::new(1), 11), "submission order kept");
    assert_eq!(boxes[1], [(NodeId::new(0), 30)]);
    assert_eq!(boxes.iter().map(Vec::len).sum::<usize>(), 4);
}
