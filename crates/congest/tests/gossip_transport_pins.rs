//! Charged-round and coded-gossip counter pins for [`GossipTransport`].
//!
//! `determinism.rs` pins the clique primitives; these scenarios pin the
//! RLNC transport the same way. Rounds, the [`GossipStats`] counters and
//! the per-wave `full_nodes` curve depend on every coded packet's bytes
//! and every decoder's innovative/wasted verdict, so a host-side change
//! to the coding kernel that moved either would move these numbers.

use qcc_congest::{FaultPlan, GossipTransport, NodeId, Topology};

/// Rounds, the gossip counters, and an FNV-1a digest of the per-wave
/// `full_nodes` sequence.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    rounds: u64,
    waves: u64,
    packets_sent: u64,
    innovative_packets: u64,
    wasted_packets: u64,
    wasted_bits: u64,
    full_nodes_digest: u64,
}

fn pin(t: &GossipTransport) -> Pin {
    let stats = t.gossip_stats();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for wave in &stats.per_wave {
        for byte in (wave.full_nodes as u64).to_le_bytes() {
            digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Pin {
        rounds: t.rounds(),
        waves: stats.waves,
        packets_sent: stats.packets_sent,
        innovative_packets: stats.innovative_packets,
        wasted_packets: stats.wasted_packets,
        wasted_bits: stats.wasted_bits,
        full_nodes_digest: digest,
    }
}

/// `n` blocks of `8n` bytes each, the size of a serialized adjacency row.
fn blocks(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            (0..8 * n)
                .map(|j| (i * 31 + j * 7 + (j >> 3)) as u8)
                .collect()
        })
        .collect()
}

fn lossy_mesh_gossip(chunks: Option<usize>) -> Pin {
    let n = 24;
    let mut t = GossipTransport::new(Topology::random_mesh(n, 4, 7), 7).unwrap();
    if let Some(chunks) = chunks {
        t = t.with_chunks(chunks);
    }
    t.set_fault_plan(FaultPlan::parse("drop=0.05,seed=3").unwrap());
    let blocks = blocks(n);
    let views = t.gossip_blocks(&blocks).unwrap();
    assert!(views.iter().all(|view| *view == blocks));
    pin(&t)
}

#[test]
fn lossy_mesh_gossip_with_default_chunks_is_pinned() {
    assert_eq!(
        lossy_mesh_gossip(None),
        Pin {
            rounds: 660,
            waves: 165,
            packets_sent: 10_704,
            innovative_packets: 4_416,
            wasted_packets: 5_744,
            wasted_bits: 1_516_416,
            full_nodes_digest: 134_429_734_180_667_706,
        }
    );
}

#[test]
fn lossy_mesh_flooding_with_one_chunk_is_pinned() {
    assert_eq!(
        lossy_mesh_gossip(Some(1)),
        Pin {
            rounds: 1_760,
            waves: 88,
            packets_sent: 3_303,
            innovative_packets: 552,
            wasted_packets: 2_606,
            wasted_bits: 4_107_056,
            full_nodes_digest: 4_692_026_617_949_748_419,
        }
    );
}

#[test]
fn fault_free_ring_broadcast_is_pinned() {
    let mut t = GossipTransport::new(Topology::ring(12), 7).unwrap();
    let block = blocks(12).swap_remove(5);
    let views = t.broadcast_block(NodeId::new(5), &block).unwrap();
    assert!(views.iter().all(|view| *view == block));
    assert_eq!(
        pin(&t),
        Pin {
            rounds: 27,
            waves: 9,
            packets_sent: 144,
            innovative_packets: 88,
            wasted_packets: 56,
            wasted_bits: 9_408,
            full_nodes_digest: 13_959_280_725_642_616_651,
        }
    );
}
