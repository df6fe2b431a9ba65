//! Pins of the attempt → certify → retry → fallback loop on the paths the
//! command line cannot reach.
//!
//! `--faults` always arms the reliable envelope, so a command line never
//! sees the distance search retry or fall back. These runs switch the
//! envelope off (`reliable: None`) to drive the loop through its failure
//! branches. Each case pins the returned value or error, the attempt
//! records as `(verified, error.is_some(), fallback)`, the round total,
//! and an FNV-1a digest of the full NDJSON trace, which moves with any
//! change to a span label, a reseed salt, a charged round or the order of
//! the RNG draws. Where a run ends in an error, the attempt spans and the
//! round total are read from its trace. The digests were re-captured when
//! a `Metrics` close event came to carry `rounds` alone: with `messages`,
//! `bits`, the three maxima, `calls` and `hist` stripped from its close
//! lines, each earlier trace equals the new one byte for byte.
//!
//! The cases:
//!
//! * **the distance search falls back** — a diameter run whose three
//!   quantum searches each lose an oracle evaluation, then the verified
//!   classical scan (`drop=0.3,seed=4`);
//! * **the same run under `FallbackPolicy::Fail`** — the distance stage
//!   exhausts its certificate first;
//! * **the search stage's last error** — under `Fail`, a run whose
//!   distance stage certifies and whose three searches fail
//!   (`drop=0.3,seed=16`);
//! * **the eccentricity gather falls back** (`drop=0.3,seed=5`);
//! * **the driver falls back** — the unprotected `drop=0.35,seed=12` case
//!   of the driver's unit tests;
//! * **gossip retries** — two decode failures, then a verified matrix;
//! * **a gossip crash** — `crash=2@0` with one retry, a bare `NodeCrashed`.

use qcc_apsp::{
    apsp_driver, distance_params, gossip_apsp, ApspAlgorithm, ApspError, DistanceParam,
    DistanceParamReport, DriverConfig, ExtremumBackend, ExtremumConfig, FallbackPolicy,
    GossipApspConfig,
};
use qcc_congest::{
    parse_trace, CongestError, FaultPlan, NetConfig, NodeId, TopologySpec, TraceEvent, TraceSink,
    TraceSummary,
};
use qcc_graph::{floyd_warshall, random_reweighted_digraph, DiGraph, ExtWeight};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over bytes: a compact, order-sensitive fingerprint.
fn digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Every record of an attempt list as `(verified, error.is_some(), fallback)`.
macro_rules! shape {
    ($attempts:expr) => {
        $attempts
            .iter()
            .map(|a| (a.verified, a.error.is_some(), a.fallback))
            .collect::<Vec<_>>()
    };
}

/// The labels of the trace's Las-Vegas spans in the order they opened,
/// and the trace's round total.
fn spans_and_rounds(trace: &str) -> (Vec<String>, u64) {
    const LOOP_LABELS: [&str; 7] = [
        "driver",
        "attempt-",
        "verify-",
        "fallback",
        "distance-param",
        "ext-",
        "gossip-apsp-",
    ];
    let events = parse_trace(trace).expect("well-formed trace");
    let labels = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Open { label, .. } => Some(label.clone()),
            _ => None,
        })
        .filter(|label| LOOP_LABELS.iter().any(|p| label.starts_with(p)))
        .collect();
    let summary = TraceSummary::from_events(&events).expect("balanced trace");
    (labels, summary.total_rounds())
}

fn labels(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

fn unprotected(spec: &str) -> NetConfig {
    NetConfig {
        faults: Some(FaultPlan::parse(spec).expect("valid fault spec")),
        reliable: None,
    }
}

/// `random_reweighted_digraph(10, 0.6, 6)` drawn from seed 11, the same
/// RNG then driving a traced run with naive distances, the quantum
/// search, two retries and no envelope.
fn distance_run(
    param: DistanceParam,
    faults: &str,
    fallback: FallbackPolicy,
) -> (Result<DistanceParamReport, ApspError>, String) {
    let mut rng = StdRng::seed_from_u64(11);
    let g = random_reweighted_digraph(10, 0.6, 6, &mut rng);
    let mut cfg = ExtremumConfig::new(param);
    cfg.driver.algorithm = ApspAlgorithm::NaiveBroadcast;
    cfg.backend = ExtremumBackend::Quantum;
    cfg.driver.max_retries = 2;
    cfg.driver.fallback = fallback;
    cfg.driver.net = unprotected(faults);
    let (sink, trace) = TraceSink::in_memory();
    let result = distance_params(&g, &cfg, &mut rng, Some(&sink));
    (result, trace.contents())
}

#[test]
fn distance_search_falls_back_to_the_verified_scan() {
    let (result, trace) = distance_run(
        DistanceParam::Diameter,
        "drop=0.3,seed=4",
        FallbackPolicy::Semiring,
    );
    let report = result.expect("the fallback certifies");
    assert_eq!(report.value, ExtWeight::from(8));
    assert_eq!(report.witness, Some(1));
    assert!(report.verified && report.used_fallback);
    assert_eq!(
        (
            report.total_rounds,
            report.distance_rounds,
            report.search_rounds
        ),
        (860, 718, 142)
    );
    assert_eq!(report.evaluations, 10);
    assert_eq!(
        shape!(report.search_attempts),
        [
            (None, true, false),
            (None, true, false),
            (None, true, false),
            (Some(true), false, true),
        ]
    );
    assert_eq!(
        spans_and_rounds(&trace),
        (
            labels(&[
                "distance-param",
                "driver",
                "attempt-0",
                "attempt-1",
                "attempt-2",
                "fallback",
                "verify-fallback",
                "ext-attempt-0",
                "ext-attempt-1",
                "ext-attempt-2",
                "ext-fallback",
                "ext-verify-fallback",
            ]),
            860
        )
    );
    assert_eq!(digest(trace.as_bytes()), 0x2350_1607_96f6_e7cf);
}

#[test]
fn fallback_policy_fail_returns_the_distance_stage_error() {
    let (result, trace) = distance_run(
        DistanceParam::Diameter,
        "drop=0.3,seed=4",
        FallbackPolicy::Fail,
    );
    assert_eq!(
        result.unwrap_err(),
        ApspError::VerificationFailed { attempts: 3 }
    );
    assert_eq!(
        spans_and_rounds(&trace),
        (
            labels(&[
                "distance-param",
                "driver",
                "attempt-0",
                "attempt-1",
                "attempt-2",
            ]),
            3
        )
    );
    assert_eq!(digest(trace.as_bytes()), 0xe660_d771_c893_f49a);
}

#[test]
fn fallback_policy_fail_returns_the_last_search_error() {
    let (result, trace) = distance_run(
        DistanceParam::Diameter,
        "drop=0.3,seed=16",
        FallbackPolicy::Fail,
    );
    let err = result.unwrap_err();
    assert_eq!(
        err,
        ApspError::Faulted {
            rounds: 4,
            source: Box::new(ApspError::Internal {
                context: "oracle evaluation of node 8 lost on the wire".into(),
            }),
        }
    );
    assert_eq!(
        spans_and_rounds(&trace),
        (
            labels(&[
                "distance-param",
                "driver",
                "attempt-0",
                "verify-0",
                "ext-attempt-0",
                "ext-attempt-1",
                "ext-attempt-2",
            ]),
            126
        )
    );
    assert_eq!(digest(trace.as_bytes()), 0xe26c_a43f_c909_ff5f);
}

#[test]
fn eccentricity_gather_falls_back() {
    let (result, trace) = distance_run(
        DistanceParam::Eccentricities,
        "drop=0.3,seed=5",
        FallbackPolicy::Semiring,
    );
    let report = result.expect("the fallback gathers");
    let ecc: Vec<ExtWeight> = [6, 8, 6, 5, 4, 4, 1, 0, 6, 3]
        .into_iter()
        .map(ExtWeight::from)
        .collect();
    assert_eq!(report.eccentricities, ecc);
    assert_eq!(report.value, ExtWeight::from(8));
    assert!(report.verified && report.used_fallback);
    assert_eq!(
        (
            report.total_rounds,
            report.distance_rounds,
            report.search_rounds
        ),
        (787, 751, 36)
    );
    assert_eq!(report.evaluations, 10);
    assert_eq!(
        shape!(report.search_attempts),
        [
            (None, true, false),
            (None, true, false),
            (None, true, false),
            (None, false, true),
        ]
    );
    assert_eq!(
        spans_and_rounds(&trace),
        (
            labels(&[
                "distance-param",
                "driver",
                "attempt-0",
                "attempt-1",
                "attempt-2",
                "fallback",
                "verify-fallback",
                "ext-attempt-0",
                "ext-attempt-1",
                "ext-attempt-2",
                "ext-fallback",
            ]),
            787
        )
    );
    assert_eq!(digest(trace.as_bytes()), 0x4776_4721_ac57_47c3);
}

#[test]
fn unprotected_driver_run_falls_back() {
    let mut rng = StdRng::seed_from_u64(203);
    let g = random_reweighted_digraph(10, 0.6, 6, &mut rng);
    let cfg = DriverConfig {
        algorithm: ApspAlgorithm::NaiveBroadcast,
        max_retries: 1,
        net: unprotected("drop=0.35,seed=12"),
        ..DriverConfig::default()
    };
    let (sink, trace) = TraceSink::in_memory();
    let out = apsp_driver(&g, &cfg, &mut rng, Some(&sink)).expect("the fallback certifies");
    let trace = trace.contents();
    assert_eq!(out.report.distances, exact(&g));
    assert_eq!(out.report.algorithm, ApspAlgorithm::SemiringSquaring);
    assert!(out.verified && out.used_fallback);
    assert_eq!((out.total_rounds, out.report.rounds), (1_037, 776));
    assert_eq!(
        shape!(out.attempts),
        [
            (Some(false), false, false),
            (Some(false), false, false),
            (Some(true), false, true),
        ]
    );
    assert_eq!(
        spans_and_rounds(&trace),
        (
            labels(&[
                "driver",
                "attempt-0",
                "attempt-1",
                "fallback",
                "verify-fallback",
            ]),
            1_037
        )
    );
    assert_eq!(digest(trace.as_bytes()), 0x17fb_76ee_e153_bf26);
}

fn exact(g: &DiGraph) -> qcc_graph::WeightMatrix {
    floyd_warshall(&g.adjacency_matrix()).expect("no negative cycle")
}

/// `random_reweighted_digraph(8, 0.5, 6)` from seed 23, gossiped under
/// `cfg`, traced.
fn gossip_run(
    cfg: &GossipApspConfig,
) -> (
    DiGraph,
    Result<qcc_apsp::GossipApspReport, ApspError>,
    String,
) {
    let mut rng = StdRng::seed_from_u64(23);
    let g = random_reweighted_digraph(8, 0.5, 6, &mut rng);
    let (sink, trace) = TraceSink::in_memory();
    let result = gossip_apsp(&g, cfg, Some(&sink));
    (g, result, trace.contents())
}

#[test]
fn gossip_retries_decode_failures() {
    let cfg = GossipApspConfig {
        topology: TopologySpec::Ring,
        net: NetConfig::faulty(FaultPlan::parse("drop=0.9,seed=0").expect("valid fault spec")),
        max_retries: 3,
        ..GossipApspConfig::default()
    };
    let (g, result, trace) = gossip_run(&cfg);
    let report = result.expect("the third attempt decodes");
    assert_eq!(report.distances, exact(&g));
    assert!(report.verified);
    assert_eq!((report.total_rounds, report.rounds), (5_496, 2_652));
    let records: Vec<(Option<bool>, bool)> = report
        .attempts
        .iter()
        .map(|a| (a.verified, a.error.is_some()))
        .collect();
    assert_eq!(records, [(None, true), (None, true), (Some(true), false)]);
    assert_eq!(
        spans_and_rounds(&trace),
        (
            labels(&["gossip-apsp-0", "gossip-apsp-1", "gossip-apsp-2"]),
            5_496
        )
    );
    assert_eq!(digest(trace.as_bytes()), 0x473d_beea_fb39_629b);
}

#[test]
fn gossip_crash_returns_the_bare_typed_error() {
    let cfg = GossipApspConfig {
        net: NetConfig::faulty(FaultPlan::parse("crash=2@0,seed=5").expect("valid fault spec")),
        max_retries: 1,
        ..GossipApspConfig::default()
    };
    let (_, result, trace) = gossip_run(&cfg);
    assert_eq!(
        result.unwrap_err(),
        ApspError::Congest(CongestError::NodeCrashed {
            node: NodeId::new(2),
            phase: "gossip-apsp-1".into(),
        })
    );
    assert_eq!(
        spans_and_rounds(&trace),
        (labels(&["gossip-apsp-0", "gossip-apsp-1"]), 6)
    );
    assert_eq!(digest(trace.as_bytes()), 0xfd6e_cc2a_a91b_d052);
}
