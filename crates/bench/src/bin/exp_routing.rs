//! Experiment E13 — Lemma 1 (Dolev, Lenzen & Peled): 2-round routing.
//!
//! Paper claim: any message set in which no node sources or sinks more
//! than `n` messages is deliverable in 2 rounds. We route balanced,
//! hot-pair, and overloaded message sets and compare against the direct
//! (unrouted) delivery, plus the degradation curve for loads `L·n`.
//!
//! `Clique::route` charges the relay schedule in closed form; this
//! experiment constructs it. For every message set it colors the demand
//! multigraph (one edge per fragment unit) with
//! `coloring::color_bipartite` and sends color `c` through relay `c mod n`
//! in batch `⌊c/n⌋`. It checks that the coloring is proper with `Δ`
//! colors, that no batch uses a `(src, relay)` or `(relay, dst)` link
//! twice, and that the batch count and the busiest link of one hop equal
//! the rounds / 2 and the `max_link_bits / B` that `Clique::route`
//! records. Exits 1 on any mismatch.
//!
//! ```text
//! cargo run --release -p qcc-bench --bin exp_routing
//! ```

use std::collections::HashSet;

use qcc_bench::{banner, Table};
use qcc_congest::coloring::{color_bipartite, is_proper, max_degree};
use qcc_congest::{Clique, Envelope, NodeId, RawBits};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn unit(bits: u64) -> RawBits {
    RawBits::new(0, bits)
}

/// The explicit König schedule of one message set.
struct Schedule {
    /// Maximum per-node unit load of the demand multigraph.
    delta: usize,
    /// Batches of `n` colors, two rounds each.
    batches: u64,
    /// Units on the busiest link of either hop, `(src, relay)` or
    /// `(relay, dst)`.
    busiest_hop_link: u64,
}

/// Builds and checks the relay schedule of `sends` on `n` nodes with
/// `b`-bit links: one demand edge per fragment unit of a non-local message.
fn schedule(sends: &[Envelope<RawBits>], n: usize, b: u64) -> Result<Schedule, String> {
    let mut units = Vec::new();
    for e in sends.iter().filter(|e| e.src != e.dst) {
        let k = e.payload.bits.div_ceil(b).max(1);
        for _ in 0..k {
            units.push((e.src.index(), e.dst.index()));
        }
    }
    let delta = max_degree(&units, n, n);
    let coloring = color_bipartite(&units, n, n);
    if !is_proper(&units, &coloring, n, n) || coloring.num_colors != delta {
        return Err(format!(
            "coloring is improper or uses {} colors for Δ = {delta}",
            coloring.num_colors
        ));
    }
    // Hop 1 runs (src, relay), hop 2 (relay, dst); a link may carry one
    // unit per batch and hop.
    let mut used = HashSet::new();
    let mut hop_load = vec![[0u64; 2]; n * n];
    for (&(src, dst), &color) in units.iter().zip(&coloring.colors) {
        let (relay, batch) = (color % n, color / n);
        for (hop, link) in [(0, src * n + relay), (1, relay * n + dst)] {
            if !used.insert((batch, hop, link)) {
                return Err(format!(
                    "batch {batch} uses hop-{} link {link} twice",
                    hop + 1
                ));
            }
            hop_load[link][hop] += 1;
        }
    }
    Ok(Schedule {
        delta,
        batches: coloring.colors.iter().max().map_or(0, |&c| c / n + 1) as u64,
        busiest_hop_link: hop_load.iter().flatten().copied().max().unwrap_or(0),
    })
}

/// Routes `sends` on a fresh network and checks its charge against the
/// constructed schedule. Returns `(schedule, rounds)`.
fn route_checked(
    sends: Vec<Envelope<RawBits>>,
    n: usize,
    b: u64,
) -> Result<(Schedule, u64), String> {
    let built = schedule(&sends, n, b)?;
    let mut net = Clique::with_bandwidth(n, b).unwrap();
    net.route(sends).unwrap();
    let rounds = net.rounds();
    if rounds != 2 * built.batches {
        return Err(format!(
            "route charged {rounds} rounds, the schedule has {} batches",
            built.batches
        ));
    }
    let recorded = net.metrics().max_link_bits();
    if recorded != built.busiest_hop_link * b {
        return Err(format!(
            "route recorded max_link_bits {recorded}, the schedule's busiest hop link \
             carries {} units of {b} bits",
            built.busiest_hop_link
        ));
    }
    Ok((built, rounds))
}

/// Reports a schedule mismatch and exits 1.
fn fail(label: &str, why: String) -> ! {
    eprintln!("exp_routing: FAIL — {label}: {why}");
    std::process::exit(1);
}

fn main() {
    qcc_bench::read_flags("exp_routing", "", "", |_| Ok(()));
    banner(
        "E13",
        "Lemma 1: bounded-load message sets route in exactly 2 rounds",
    );
    let n = 64;
    let bits = 16;
    let mut rng = StdRng::seed_from_u64(0xE13);

    let mut table = Table::new(&[
        "message set",
        "messages",
        "direct rounds",
        "lemma1 rounds",
        "Δ",
        "batches",
        "busiest hop link",
    ]);

    // (a) random permutation load: n messages, 1 per source/dest
    let perm: Vec<Envelope<RawBits>> = {
        let mut dests: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            dests.swap(i, rng.gen_range(0..=i));
        }
        (0..n)
            .map(|u| Envelope::new(NodeId::new(u), NodeId::new(dests[u]), unit(bits)))
            .collect()
    };
    // (b) hot pair: n messages all from node 0 to node 1
    let hot: Vec<Envelope<RawBits>> = (0..n)
        .map(|_| Envelope::new(NodeId::new(0), NodeId::new(1), unit(bits)))
        .collect();
    // (c) full bipartite burst: every node sends one unit to every node
    let full: Vec<Envelope<RawBits>> = (0..n)
        .flat_map(|u| {
            (0..n)
                .filter(move |&v| v != u)
                .map(move |v| Envelope::new(NodeId::new(u), NodeId::new(v), unit(bits)))
        })
        .collect();

    for (label, sends) in [
        ("permutation", perm),
        ("hot pair (n->1 link)", hot),
        ("all-to-all", full),
    ] {
        let count = sends.len();
        let mut direct = Clique::with_bandwidth(n, bits).unwrap();
        direct.exchange(sends.clone()).unwrap();
        let (built, rounds) = route_checked(sends, n, bits).unwrap_or_else(|why| fail(label, why));
        table.row(&[
            &label,
            &count,
            &direct.rounds(),
            &rounds,
            &built.delta,
            &built.batches,
            &built.busiest_hop_link,
        ]);
    }
    table.print();

    banner(
        "E13b",
        "overload degradation: 2*ceil(L/n) rounds at per-node load L*n",
    );
    let mut table = Table::new(&[
        "load factor L",
        "lemma1 rounds",
        "predicted 2*ceil(L)",
        "batches",
        "busiest hop link",
    ]);
    for &load in &[1usize, 2, 3, 5, 8] {
        let sends: Vec<Envelope<RawBits>> = (0..load)
            .flat_map(|_| {
                (0..n).map(|v| Envelope::new(NodeId::new(0), NodeId::new(v % n), unit(bits)))
            })
            .filter(|e| e.src != e.dst)
            .collect();
        // pad each destination evenly: node 0 sources load*n units
        let (built, rounds) =
            route_checked(sends, n, bits).unwrap_or_else(|why| fail(&format!("load {load}"), why));
        table.row(&[
            &load,
            &rounds,
            &(2 * load as u64),
            &built.batches,
            &built.busiest_hop_link,
        ]);
    }
    table.print();

    println!(
        "\nschedule check: every coloring proper with Δ colors, no link twice per batch, \
         batches = rounds / 2, busiest hop link = max_link_bits / B"
    );
}
