//! Lockstep reference model of Step 2 of ComputePairs (the Λ covering).
//!
//! [`reference_cover`] is `build_lambda_cover` as it was first written,
//! over the public API only: every search label copies the pairs it
//! samples out of its block pair's universe, counts their endpoints for
//! the balance check, and (on a transparent network) tallies its requests
//! and filters its kept list pair by pair. [`reference_deterministic`] is
//! the deterministic covering as first written, which always routed its
//! requests and replies as messages.
//!
//! The library and the reference are driven with identical seeded
//! instances: n = 2..=40 and n = 96, sampling probabilities below 1, just
//! below 1 and clamped to 1, balance caps that never abort, that abort on
//! the first label with a sample, an integer cap a count can equal
//! without violating it, and at n = 96 one between the diagonal
//! universes' degree (23) and the off-diagonal ones' (24), so the first
//! violating label is not label 0; `S` all pairs, a random subset and
//! empty; a transparent network and a materialized one (the reliable
//! envelope armed without faults). They must agree on the attempt, every
//! kept list and sample size, the RNG's next draw, the rounds, the
//! per-phase stats and the NDJSON trace.

use qcc_apsp::lambda::{build_deterministic_cover, build_lambda_cover, KeptPair, LambdaAttempt};
use qcc_apsp::{pair_bits, sample_indices, weight_bits, Instance, PairSet, Params, Wire};
use qcc_congest::trace::{TraceBuffer, TraceSink};
use qcc_congest::{Clique, Envelope, NodeId, ReliableConfig};
use qcc_graph::{random_ugraph, UGraph};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;

/// Per search label: the pairs it sampled.
type Sampled = Vec<Vec<(usize, usize)>>;

/// A reply: label, pair, weight and `S` membership.
type Reply = Wire<(usize, usize, usize, Option<i64>, bool)>;

/// What the reference reports of one attempt.
#[derive(Debug)]
enum RefAttempt {
    Balanced {
        kept: Vec<Vec<KeptPair>>,
        sampled: Sampled,
    },
    Aborted {
        label: usize,
        observed: usize,
        cap: f64,
    },
}

/// Step 2 as first written: per-label copies, per-label balance scans,
/// per-label request tallies and kept filters.
fn reference_cover<R: Rng>(inst: &Instance<'_>, net: &mut Clique, rng: &mut R) -> RefAttempt {
    let n = inst.n();
    let p = inst.params.lambda_probability(n);
    let cap = inst.params.balance_cap(n);
    let label_count = inst.searches.labeling().label_count();

    let q = inst.parts.coarse.num_blocks();
    let mut pair_universe: HashMap<(usize, usize), Vec<(usize, usize)>> = HashMap::new();
    for bu in 0..q {
        for bv in bu..q {
            pair_universe.insert((bu, bv), inst.parts.coarse.pair_set(bu, bv));
        }
    }
    let universe_of = |bu: usize, bv: usize| -> &Vec<(usize, usize)> {
        &pair_universe[&(bu.min(bv), bu.max(bv))]
    };

    let mut sampled: Sampled = Vec::with_capacity(label_count);
    let mut violation: Option<(usize, usize)> = None;
    let mut flags = vec![false; n];
    let mut per_vertex = vec![0usize; n];
    let mut touched: Vec<usize> = Vec::new();
    for (label, (bu, bv, _x)) in inst.searches.triples() {
        let universe = universe_of(bu, bv);
        let picked: Vec<(usize, usize)> = sample_indices(universe.len(), p, rng)
            .into_iter()
            .map(|i| universe[i])
            .collect();
        for &(a, b) in &picked {
            for endpoint in [a, b] {
                let count = &mut per_vertex[endpoint];
                if *count == 0 {
                    touched.push(endpoint);
                }
                *count += 1;
                if (*count as f64) > cap && violation.is_none() {
                    violation = Some((label, *count));
                }
            }
        }
        for &endpoint in &touched {
            per_vertex[endpoint] = 0;
        }
        touched.clear();
        if violation.map(|(l, _)| l) == Some(label) {
            flags[inst.searches.labeling().node_of(label)] = true;
        }
        sampled.push(picked);
    }
    net.begin_phase("compute-pairs/step2-abort-consensus");
    if net.agree_any(&flags).unwrap() {
        let (label, observed) = violation.expect("flag implies a recorded violation");
        return RefAttempt::Aborted {
            label,
            observed,
            cap,
        };
    }

    net.begin_phase("compute-pairs/step2-requests");
    let kept = if net.is_transparent() {
        let pb = pair_bits(n);
        let wb = weight_bits(inst.weight_magnitude());
        let mut query_links = vec![0u32; n * n];
        for (label, picked) in sampled.iter().enumerate() {
            let src = inst.searches.labeling().node_of(label);
            for &(u, _v) in picked {
                query_links[src * n + u] += 1;
            }
        }
        net.charge_route_tally(&query_links, pb);
        net.begin_phase("compute-pairs/step2-responses");
        let mut reply_links = vec![0u32; n * n];
        for owner in 0..n {
            for asker in 0..n {
                reply_links[owner * n + asker] = query_links[asker * n + owner];
            }
        }
        net.charge_route_tally(&reply_links, pb + wb + 2);
        let mut kept: Vec<Vec<KeptPair>> = vec![Vec::new(); label_count];
        for (label, picked) in sampled.iter().enumerate() {
            for &(u, v) in picked {
                if !inst.s.contains(u, v) {
                    continue;
                }
                if let Some(w) = inst.graph.weight(u, v).finite() {
                    kept[label].push(KeptPair { u, v, weight: w });
                }
            }
        }
        kept
    } else {
        routed_weights(inst, net, &sampled)
    };
    RefAttempt::Balanced { kept, sampled }
}

/// The materialized weight loading as first written: one request per
/// sampled pair to its owner, one reply carrying weight and `S`
/// membership, kept lists sorted.
fn routed_weights(
    inst: &Instance<'_>,
    net: &mut Clique,
    sampled: &[Vec<(usize, usize)>],
) -> Vec<Vec<KeptPair>> {
    let n = inst.n();
    let pb = pair_bits(n);
    let wb = weight_bits(inst.weight_magnitude());
    let mut requests: Vec<Envelope<Wire<(usize, usize, usize)>>> = Vec::new();
    for (label, picked) in sampled.iter().enumerate() {
        let src = NodeId::new(inst.searches.labeling().node_of(label));
        for &(u, v) in picked {
            requests.push(Envelope::new(
                src,
                NodeId::new(u),
                Wire::new((label, u, v), pb),
            ));
        }
    }
    let request_boxes = net.route(requests).unwrap();
    net.begin_phase("compute-pairs/step2-responses");
    let mut responses: Vec<Envelope<Reply>> = Vec::new();
    for owner in NodeId::all(n) {
        for (asker, msg) in request_boxes.of(owner) {
            let (label, u, v) = msg.value;
            let weight = inst.graph.weight(u, v).finite();
            let in_s = inst.s.contains(u, v);
            responses.push(Envelope::new(
                owner,
                *asker,
                Wire::new((label, u, v, weight, in_s), pb + wb + 2),
            ));
        }
    }
    let response_boxes = net.route(responses).unwrap();
    let mut kept: Vec<Vec<KeptPair>> = vec![Vec::new(); sampled.len()];
    for node in NodeId::all(n) {
        for (_owner, msg) in response_boxes.of(node) {
            let (label, u, v, weight, in_s) = msg.value;
            if let (Some(w), true) = (weight, in_s) {
                kept[label].push(KeptPair { u, v, weight: w });
            }
        }
    }
    for list in &mut kept {
        list.sort_by_key(|kp| (kp.u, kp.v));
    }
    kept
}

/// The deterministic covering as first written: the `x`-th chunk of each
/// universe, always loaded through routed messages.
fn reference_deterministic(inst: &Instance<'_>, net: &mut Clique) -> (Vec<Vec<KeptPair>>, Sampled) {
    let s = inst.parts.fine.num_blocks();
    let mut sampled = vec![Vec::new(); inst.searches.labeling().label_count()];
    for (label, (bu, bv, x)) in inst.searches.triples() {
        let universe = inst.parts.coarse.pair_set(bu, bv);
        let chunk = universe.len().div_ceil(s);
        let start = (x * chunk).min(universe.len());
        let end = ((x + 1) * chunk).min(universe.len());
        sampled[label] = universe[start..end].to_vec();
    }
    net.begin_phase("compute-pairs/step2-requests");
    let kept = routed_weights(inst, net, &sampled);
    (kept, sampled)
}

/// The network kinds both sides run on.
#[derive(Clone, Copy, Debug)]
enum NetKind {
    Transparent,
    /// The reliable envelope armed without a fault plan: every call is
    /// materialized and delivered.
    Materialized,
}

fn network(n: usize, kind: NetKind) -> (Clique, TraceBuffer) {
    let mut net = Clique::new(n).unwrap();
    if let NetKind::Materialized = kind {
        net.set_reliable_delivery(ReliableConfig::default());
    }
    let (sink, trace) = TraceSink::in_memory();
    net.set_trace_sink(sink);
    (net, trace)
}

/// The `S` kinds of a case.
#[derive(Clone, Copy, Debug)]
enum SKind {
    All,
    Random,
    Empty,
}

fn pair_set(n: usize, kind: SKind, rng: &mut StdRng) -> PairSet {
    match kind {
        SKind::All => PairSet::all_pairs(n),
        SKind::Empty => PairSet::new(),
        SKind::Random => {
            let mut s = PairSet::new();
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_bool(0.4) {
                        s.insert(u, v);
                    }
                }
            }
            s
        }
    }
}

/// `lambda_rate` that makes the sampling probability at `n` about
/// `target`, clamped to 1 for `target > 1`.
fn rate_for(n: usize, target: f64) -> f64 {
    target * (n as f64).sqrt() / Params::log_n(n)
}

/// `balance_factor` that makes the balance cap at `n` equal `cap`.
/// Where the arithmetic can reach it exactly, an integer `cap` comes out
/// exact, so that a count equal to it is not a violation.
fn factor_for(n: usize, cap: f64) -> f64 {
    let mut params = Params::scaled();
    params.balance_factor = 1.0;
    let unit = params.balance_cap(n);
    params.balance_factor = cap / unit;
    for _ in 0..64 {
        let got = params.balance_cap(n);
        if got == cap {
            break;
        }
        params.balance_factor = if got < cap {
            params.balance_factor.next_up()
        } else {
            params.balance_factor.next_down()
        };
    }
    params.balance_factor
}

/// Runs one case through both sides and asserts they agree; returns the
/// library's attempt.
fn check_case(
    graph: &UGraph,
    s: &PairSet,
    params: Params,
    net_kind: NetKind,
    seed: u64,
) -> LambdaAttempt {
    let n = graph.n();
    let inst = Instance::new(graph, s, params);
    let context = format!(
        "n {n}, p {}, cap {}, |S| {}, {net_kind:?}, seed {seed}",
        params.lambda_probability(n),
        params.balance_cap(n),
        s.len()
    );

    let (mut lib_net, lib_trace) = network(n, net_kind);
    let mut lib_rng = StdRng::seed_from_u64(seed);
    let lib = build_lambda_cover(&inst, &mut lib_net, &mut lib_rng).unwrap();
    lib_net.close_all_spans();

    let (mut ref_net, ref_trace) = network(n, net_kind);
    let mut ref_rng = StdRng::seed_from_u64(seed);
    let reference = reference_cover(&inst, &mut ref_net, &mut ref_rng);
    ref_net.close_all_spans();

    match (&lib, &reference) {
        (
            LambdaAttempt::Aborted {
                label,
                observed,
                cap,
            },
            RefAttempt::Aborted {
                label: ref_label,
                observed: ref_observed,
                cap: ref_cap,
            },
        ) => {
            assert_eq!(label, ref_label, "{context}");
            assert_eq!(observed, ref_observed, "{context}");
            assert_eq!(cap.to_bits(), ref_cap.to_bits(), "{context}");
        }
        (
            LambdaAttempt::Balanced(cover),
            RefAttempt::Balanced {
                kept: ref_kept,
                sampled: ref_sampled,
            },
        ) => {
            assert_eq!(&cover.kept, ref_kept, "{context}");
            let sizes: Vec<usize> = ref_sampled.iter().map(Vec::len).collect();
            assert_eq!(cover.sampled, sizes, "{context}");
        }
        _ => panic!("attempt kinds differ: {lib:?} vs {reference:?}; {context}"),
    }
    assert_eq!(lib_rng.next_u64(), ref_rng.next_u64(), "{context}");
    assert_eq!(lib_net.rounds(), ref_net.rounds(), "{context}");
    assert_eq!(
        lib_net.metrics().phases(),
        ref_net.metrics().phases(),
        "{context}"
    );
    assert_eq!(lib_trace.contents(), ref_trace.contents(), "{context}");
    lib
}

/// Sampling probabilities of a case: below 1, just below 1, and clamped
/// to 1.
const TARGET_P: [f64; 3] = [0.35, 1.0 - 1e-3, 2.0];

#[test]
fn library_matches_the_reference_on_small_instances() {
    let mut aborts = 0;
    let mut balanced = 0;
    for n in 2..=40 {
        let mut rng = StdRng::seed_from_u64(0x1A3B_DA00 + n as u64);
        let graph = random_ugraph(n, 0.5, 6, &mut rng);
        for (t, &target) in TARGET_P.iter().enumerate() {
            for (k, s_kind) in [SKind::All, SKind::Random, SKind::Empty]
                .into_iter()
                .enumerate()
            {
                let s = pair_set(n, s_kind, &mut rng);
                // Never abort, abort on the first label with a sample, or
                // on the first whose vertex has three partners.
                for cap in [1e9, 0.5, 2.0] {
                    let mut params = Params::scaled();
                    params.lambda_rate = rate_for(n, target);
                    params.balance_factor = factor_for(n, cap);
                    assert_eq!(params.lambda_probability(n) == 1.0, target > 1.0);
                    let net_kind = if (n + t + k) % 2 == 0 {
                        NetKind::Transparent
                    } else {
                        NetKind::Materialized
                    };
                    match check_case(&graph, &s, params, net_kind, rng.gen()) {
                        LambdaAttempt::Aborted { .. } => aborts += 1,
                        LambdaAttempt::Balanced(_) => balanced += 1,
                    }
                }
            }
        }
    }
    assert!(
        aborts > 0 && balanced > 0,
        "{aborts} aborts, {balanced} balanced"
    );
}

#[test]
fn library_matches_the_reference_at_n96() {
    let n = 96;
    let mut rng = StdRng::seed_from_u64(0x1A3B_DA96);
    let graph = random_ugraph(n, 0.3, 20, &mut rng);
    let all = PairSet::all_pairs(n);
    let random = pair_set(n, SKind::Random, &mut rng);
    let empty = PairSet::new();
    let mut params = Params::scaled();
    assert_eq!(params.lambda_probability(n), 1.0, "the E1 regime");

    // p = 1 with S all, random and empty, on both network kinds.
    for s in [&all, &random, &empty] {
        for net_kind in [NetKind::Transparent, NetKind::Materialized] {
            let attempt = check_case(&graph, s, params, net_kind, rng.gen());
            assert!(matches!(attempt, LambdaAttempt::Balanced(_)));
        }
    }
    // A cap below every degree aborts on label 0.
    params.balance_factor = factor_for(n, 0.5);
    for net_kind in [NetKind::Transparent, NetKind::Materialized] {
        match check_case(&graph, &all, params, net_kind, rng.gen()) {
            LambdaAttempt::Aborted {
                label, observed, ..
            } => assert_eq!((label, observed), (0, 1)),
            LambdaAttempt::Balanced(_) => panic!("expected an abort"),
        }
    }
    // A cap between the diagonal universes' degree (23) and the
    // off-diagonal ones' (24): the first violating label is the first
    // off-diagonal one, (0, 1, 0).
    params.balance_factor = factor_for(n, 23.5);
    let first_off_diagonal = Instance::new(&graph, &all, params).searches.encode(0, 1, 0);
    for net_kind in [NetKind::Transparent, NetKind::Materialized] {
        match check_case(&graph, &all, params, net_kind, rng.gen()) {
            LambdaAttempt::Aborted {
                label, observed, ..
            } => assert_eq!((label, observed), (first_off_diagonal, 24)),
            LambdaAttempt::Balanced(_) => panic!("expected an abort"),
        }
    }
    // p < 1 and p just below 1, balanced and aborting at the in-between cap.
    for target in [0.35, 1.0 - 1e-3] {
        params.lambda_rate = rate_for(n, target);
        for cap in [1e9, 23.5] {
            params.balance_factor = factor_for(n, cap);
            check_case(&graph, &random, params, NetKind::Transparent, rng.gen());
        }
    }
}

#[test]
fn deterministic_cover_matches_the_routed_reference() {
    for n in [2, 5, 16, 27, 40] {
        let mut rng = StdRng::seed_from_u64(0xDE7 + n as u64);
        let graph = random_ugraph(n, 0.5, 6, &mut rng);
        for s_kind in [SKind::All, SKind::Random, SKind::Empty] {
            let s = pair_set(n, s_kind, &mut rng);
            let inst = Instance::new(&graph, &s, Params::scaled());
            for net_kind in [NetKind::Transparent, NetKind::Materialized] {
                let context = format!("n {n}, {s_kind:?}, {net_kind:?}");
                let (mut lib_net, lib_trace) = network(n, net_kind);
                let cover = build_deterministic_cover(&inst, &mut lib_net).unwrap();
                lib_net.close_all_spans();
                let (mut ref_net, ref_trace) = network(n, net_kind);
                let (kept, sampled) = reference_deterministic(&inst, &mut ref_net);
                ref_net.close_all_spans();
                assert_eq!(cover.kept, kept, "{context}");
                let sizes: Vec<usize> = sampled.iter().map(Vec::len).collect();
                assert_eq!(cover.sampled, sizes, "{context}");
                assert_eq!(lib_net.rounds(), ref_net.rounds(), "{context}");
                assert_eq!(
                    lib_net.metrics().phases(),
                    ref_net.metrics().phases(),
                    "{context}"
                );
                assert_eq!(lib_trace.contents(), ref_trace.contents(), "{context}");
            }
        }
    }
}
