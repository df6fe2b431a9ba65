//! End-to-end pins of the Las-Vegas driver on enveloped networks.
//!
//! Every exchange of these runs goes through the ack/retransmit envelope:
//! the quantum pipeline's gathers, Step-2 routes and materialized Step-3
//! evaluations, the certificate, and the semiring fallback. Each test pins
//! what the driver reports and an FNV-1a digest of the full NDJSON trace,
//! which moves with any change to a charged round, a fault event or the
//! order of the calls.
//!
//! The cases:
//!
//! * **the benchmark's `quantum_faulty` instance 0** — seed `0xE1`,
//!   `random_reweighted_digraph(8, 0.5, 8)`, `Params::scaled()` under
//!   `drop=0.02,corrupt=0.01,seed=9`, verified, 3 retries, semiring
//!   fallback: total rounds, attempts and the injected fault counts;
//! * **a crash** — the same recipe at n = 9 under
//!   `drop=0.05,crash=3@40,seed=7`, where every attempt loses node 3: the
//!   typed error (the driver reports that no attempt verified) and the
//!   fault counts, one crash event per attempt.

use qcc_apsp::Params;
use qcc_apsp::{apsp_driver, ApspAlgorithm, ApspError, DriverConfig, DriverReport, FallbackPolicy};
use qcc_congest::{
    parse_trace, FaultCounts, FaultKind, FaultPlan, NetConfig, TraceEvent, TraceSink,
};
use qcc_graph::random_reweighted_digraph;
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

/// Captured from the envelope that sealed, cloned and re-sorted payloads in
/// every wave; the payload-free envelope must reproduce them exactly. The
/// two trace digests were re-captured when a route's `max_link_bits` became
/// one hop's busiest relay link, `⌈Δ/n⌉·B`: with every `max_link_bits`
/// value masked, the traces equal the earlier recordings byte for byte.
/// They were re-captured again when a `Metrics` close event came to carry
/// `rounds` alone: with `messages`, `bits`, the three maxima, `calls` and
/// `hist` stripped from its close lines, each earlier trace equals the new
/// one byte for byte.
const PINNED_ATTEMPTS: usize = 1;
const PINNED_FAULTS: FaultCounts = FaultCounts {
    drops: 37_499,
    corruptions: 18_453,
    duplications: 0,
    crashes: 0,
};
const PINNED_TRACE: u64 = 0x7f06_323b_eadc_59b3;
const PINNED_CRASH_ERROR: ApspError = ApspError::VerificationFailed { attempts: 5 };
const PINNED_CRASH_FAULTS: FaultCounts = FaultCounts {
    drops: 1_869,
    corruptions: 0,
    duplications: 0,
    crashes: 5,
};
const PINNED_CRASH_TRACE: u64 = 0xc831_cb73_781c_065f;

/// The benchmark's instance recipe on `n` vertices under `faults`, traced.
fn drive(n: usize, faults: &str) -> (Result<DriverReport, ApspError>, String) {
    let mut rng = StdRng::seed_from_u64(0xE1);
    let g = random_reweighted_digraph(n, 0.5, 8, &mut rng);
    let cfg = DriverConfig {
        algorithm: ApspAlgorithm::QuantumTriangle,
        params: Params::scaled(),
        max_retries: 3,
        verify: true,
        fallback: FallbackPolicy::Semiring,
        net: NetConfig::faulty(FaultPlan::parse(faults).expect("valid fault spec")),
    };
    let (sink, trace) = TraceSink::in_memory();
    let result = apsp_driver(&g, &cfg, &mut rng, Some(&sink));
    (result, trace.contents())
}

/// The injected faults the trace records, by kind.
fn fault_counts(trace: &str) -> FaultCounts {
    let mut counts = FaultCounts::default();
    for event in parse_trace(trace).expect("well-formed trace") {
        if let TraceEvent::Fault { kind, .. } = event {
            let kind = match kind.as_str() {
                "drop" => FaultKind::Drop,
                "corrupt" => FaultKind::Corrupt,
                "duplicate" => FaultKind::Duplicate,
                "crash" => FaultKind::Crash,
                other => panic!("unknown fault kind {other}"),
            };
            counts.record(kind);
        }
    }
    counts
}

#[test]
fn quantum_faulty_instance_is_pinned() {
    let (result, trace) = drive(8, "drop=0.02,corrupt=0.01,seed=9");
    let report = result.expect("the driver certifies an answer");
    assert!(report.verified && !report.used_fallback);
    assert_eq!(report.total_rounds, 257_826);
    assert_eq!(report.attempts.len(), PINNED_ATTEMPTS);
    assert_eq!(fault_counts(&trace), PINNED_FAULTS);
    assert_eq!(digest(trace.as_bytes()), PINNED_TRACE);
}

#[test]
fn crashed_node_run_is_pinned() {
    let (result, trace) = drive(9, "drop=0.05,crash=3@40,seed=7");
    assert_eq!(result.unwrap_err(), PINNED_CRASH_ERROR);
    assert_eq!(fault_counts(&trace), PINNED_CRASH_FAULTS);
    assert_eq!(digest(trace.as_bytes()), PINNED_CRASH_TRACE);
}
