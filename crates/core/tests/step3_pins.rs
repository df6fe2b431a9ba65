//! Draw-for-draw pins of the quantum Step 3, one per way its lockstep
//! evaluations are charged.
//!
//! Each test runs `compute_pairs` with the quantum backend and pins the
//! found pairs, the witnesses, `Step3Stats`, the network's charged rounds
//! and the RNG's next `u64` after the call. A reordered or extra draw may
//! leave the round total unchanged, but it always moves the RNG's stream
//! position, so the last pin catches what the others can miss.
//!
//! The cases:
//!
//! * **the charge session at the benchmark's scale** — a transparent
//!   clique with `Params::scaled()` at n = 96 (the virtual clique of an
//!   n = 32 APSP), where classes 2–3 keep one copy per triple and class 4
//!   has two;
//! * **duplicated triples** — a small `dup_denominator`, so classes 1–3
//!   get 3, 7 and 14 copies per triple and every `(search, target)` query
//!   list is split across them;
//! * **typicality refusals** — a list cap below the longest lists, so the
//!   session refuses most evaluations;
//! * **materialized evaluations** — a fault plan under the reliable
//!   envelope, so every evaluation ships real query and answer envelopes.

use qcc_apsp::{compute_pairs, reference_find_edges, ComputePairsReport, PairSet, Params};
use qcc_apsp::{FoundWitness, SearchBackend, Step3Stats};
use qcc_congest::{Clique, FaultPlan, ReliableConfig};
use qcc_graph::random_ugraph;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// What a pin fixes about one `compute_pairs` run.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    found: usize,
    found_digest: u64,
    witnesses: usize,
    witness_digest: u64,
    stats: Step3Stats,
    rounds: u64,
    next_u64: u64,
}

/// FNV-1a over a word sequence: a compact, order-sensitive fingerprint.
fn digest(words: impl IntoIterator<Item = usize>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in (w as u64).to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn pin_of(report: &ComputePairsReport, net: &Clique, rng: &mut StdRng) -> Pin {
    let witness_words = |w: &FoundWitness| [w.u, w.v, w.block];
    Pin {
        found: report.found.len(),
        found_digest: digest(report.found.iter().flat_map(|(u, v)| [u, v])),
        witnesses: report.witnesses.len(),
        witness_digest: digest(report.witnesses.iter().flat_map(witness_words)),
        stats: report.stats,
        rounds: net.rounds(),
        next_u64: rng.next_u64(),
    }
}

/// Runs the quantum `compute_pairs` on a seeded random graph over all
/// pairs and returns its pin, with whether the answer was exact.
fn run(n: usize, params: Params, seed: u64, net: &mut Clique) -> (Pin, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = random_ugraph(n, 0.5, 8, &mut rng);
    let s = PairSet::all_pairs(n);
    let report = compute_pairs(&g, &s, params, SearchBackend::Quantum, net, &mut rng).unwrap();
    let exact = report.found == reference_find_edges(&g, &s);
    (pin_of(&report, net, &mut rng), exact)
}

#[test]
fn charge_session_is_pinned() {
    let mut net = Clique::new(96).unwrap();
    let (pin, exact) = run(96, Params::scaled(), 0x5E3, &mut net);
    assert!(exact);
    assert_eq!(
        pin,
        Pin {
            found: 2252,
            found_digest: 16297674691070136904,
            witnesses: 14555,
            witness_digest: 1149590072907752380,
            stats: Step3Stats {
                searches: 59430,
                iterations: 65,
                eval_calls: 107,
                typicality_violations: 0,
                repetitions: 42,
            },
            rounds: 5970,
            next_u64: 12163496918944252534,
        }
    );
}

#[test]
fn duplicated_triples_are_pinned() {
    let mut params = Params::scaled();
    params.dup_denominator = 0.1;
    let mut net = Clique::new(48).unwrap();
    let (pin, exact) = run(48, params, 0x5E4, &mut net);
    assert!(exact);
    assert_eq!(
        pin,
        Pin {
            found: 540,
            found_digest: 12113411218296979921,
            witnesses: 2188,
            witness_digest: 6487951674247177587,
            stats: Step3Stats {
                searches: 11158,
                iterations: 30,
                eval_calls: 60,
                typicality_violations: 0,
                repetitions: 30,
            },
            rounds: 410,
            next_u64: 8268324814610597816,
        }
    );
}

#[test]
fn typicality_refusals_are_pinned() {
    // A list cap of 16–124 queries against up to 139 per search label: the
    // session refuses 98 of the 129 evaluations, and a refused measurement
    // confirms nothing, so the answer is incomplete.
    let mut params = Params::scaled();
    params.list_bound = 0.2;
    let mut net = Clique::new(48).unwrap();
    let (pin, exact) = run(48, params, 0x5E6, &mut net);
    assert!(!exact);
    assert_eq!(
        pin,
        Pin {
            found: 439,
            found_digest: 37645168709611968,
            witnesses: 1524,
            witness_digest: 1755731492725760656,
            stats: Step3Stats {
                searches: 9870,
                iterations: 68,
                eval_calls: 129,
                typicality_violations: 98,
                repetitions: 61,
            },
            rounds: 486,
            next_u64: 1235040484456664552,
        }
    );
}

#[test]
fn materialized_evaluations_are_pinned() {
    let mut net = Clique::new(24).unwrap();
    net.set_fault_plan(FaultPlan {
        drop_rate: 0.05,
        seed: 11,
        ..FaultPlan::default()
    });
    net.set_reliable_delivery(ReliableConfig::default());
    let (pin, exact) = run(24, Params::scaled(), 0x5E5, &mut net);
    assert!(exact);
    assert_eq!(
        pin,
        Pin {
            found: 124,
            found_digest: 1652917450585724203,
            witnesses: 273,
            witness_digest: 12441890148155537315,
            stats: Step3Stats {
                searches: 3290,
                iterations: 27,
                eval_calls: 51,
                typicality_violations: 0,
                repetitions: 24,
            },
            rounds: 3059,
            next_u64: 3328830952068912949,
        }
    );
}
