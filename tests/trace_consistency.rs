//! End-to-end trace self-consistency: for every CLI subcommand that takes
//! `--trace`, the NDJSON file it writes must (a) parse, (b) pass the span
//! tree's internal verification, and (c) agree *exactly* — scaled root
//! totals against printed round counts — with what the command reported on
//! stdout. This is the acceptance gate for the tracing subsystem: a trace
//! that disagrees with the simulator's own accounting is worse than none.

use qcc::algo::{ApspAlgorithm, SearchBackend, TransportKind};
use qcc::cli::{run, Command, Solve};
use qcc::congest::{parse_trace, TraceSummary};
use std::path::PathBuf;

fn temp_trace(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "qcc-trace-consistency-{tag}-{}.ndjson",
        std::process::id()
    ))
}

/// Extracts the first integer that precedes the word "rounds" in CLI output.
fn rounds_from_output(text: &str) -> u64 {
    let mut last_token: Option<&str> = None;
    for token in text.split_whitespace() {
        if token.starts_with("rounds") {
            if let Some(prev) = last_token {
                if let Ok(v) = prev.trim_end_matches(',').parse() {
                    return v;
                }
            }
        }
        last_token = Some(token);
    }
    panic!("no `<N> rounds` in output:\n{text}");
}

/// Runs `cmd`, parses the trace it wrote, verifies it, and checks the
/// scaled total equals the printed round count.
fn assert_trace_matches_stdout(cmd: &Command, path: &PathBuf) {
    let mut buf = Vec::new();
    run(cmd, &mut buf).unwrap();
    let stdout = String::from_utf8(buf).unwrap();
    let printed = rounds_from_output(&stdout);

    let text = std::fs::read_to_string(path).unwrap();
    let events = parse_trace(&text).unwrap_or_else(|e| panic!("{cmd:?}: {e}"));
    let summary = TraceSummary::from_events(&events).unwrap();
    summary.verify().unwrap_or_else(|e| panic!("{cmd:?}: {e}"));
    assert_eq!(
        summary.total_rounds(),
        printed,
        "{cmd:?}: trace total disagrees with printed rounds\n{stdout}"
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn traced_quantum_apsp_agrees_with_its_report() {
    let path = temp_trace("apsp-quantum");
    assert_trace_matches_stdout(
        &Command::Apsp {
            solve: Solve {
                n: 5,
                seed: 11,
                algorithm: ApspAlgorithm::QuantumTriangle,
                w_max: 4,
                trace: Some(path.to_string_lossy().into_owned()),
                faults: None,
                verify: false,
                max_retries: 3,
            },
            transport: TransportKind::Clique,
            topology: None,
        },
        &path,
    );
}

#[test]
fn traced_gossip_apsp_agrees_with_its_report() {
    // The gossip transport routes everything through an inner clique, so
    // the span tree and the printed total must agree exactly even with
    // faults in play.
    let path = temp_trace("apsp-gossip");
    assert_trace_matches_stdout(
        &Command::Apsp {
            solve: Solve {
                n: 6,
                seed: 11,
                algorithm: ApspAlgorithm::NaiveBroadcast,
                w_max: 4,
                trace: Some(path.to_string_lossy().into_owned()),
                faults: Some(qcc::congest::FaultPlan::parse("drop=0.05,seed=3").unwrap()),
                verify: false,
                max_retries: 3,
            },
            transport: TransportKind::Gossip,
            topology: Some(qcc::congest::TopologySpec::Mesh { degree: 4 }),
        },
        &path,
    );
}

#[test]
fn traced_classical_apsp_agrees_with_its_report() {
    let path = temp_trace("apsp-classical");
    assert_trace_matches_stdout(
        &Command::Apsp {
            solve: Solve {
                n: 5,
                seed: 12,
                algorithm: ApspAlgorithm::ClassicalTriangle,
                w_max: 4,
                trace: Some(path.to_string_lossy().into_owned()),
                faults: None,
                verify: false,
                max_retries: 3,
            },
            transport: TransportKind::Clique,
            topology: None,
        },
        &path,
    );
}

#[test]
fn traced_baseline_apsp_agrees_with_their_reports() {
    for (tag, algorithm) in [
        ("apsp-naive", ApspAlgorithm::NaiveBroadcast),
        ("apsp-semiring", ApspAlgorithm::SemiringSquaring),
    ] {
        let path = temp_trace(tag);
        assert_trace_matches_stdout(
            &Command::Apsp {
                solve: Solve {
                    n: 8,
                    seed: 13,
                    algorithm,
                    w_max: 6,
                    trace: Some(path.to_string_lossy().into_owned()),
                    faults: None,
                    verify: false,
                    max_retries: 3,
                },
                transport: TransportKind::Clique,
                topology: None,
            },
            &path,
        );
    }
}

#[test]
fn traced_find_edges_agrees_with_its_report() {
    let path = temp_trace("find-edges");
    assert_trace_matches_stdout(
        &Command::FindEdges {
            n: 16,
            seed: 14,
            backend: SearchBackend::Classical,
            trace: Some(path.to_string_lossy().into_owned()),
        },
        &path,
    );
}

#[test]
fn traced_paths_agrees_with_its_report() {
    let path = temp_trace("paths");
    assert_trace_matches_stdout(
        &Command::Paths {
            n: 6,
            seed: 15,
            trace: Some(path.to_string_lossy().into_owned()),
        },
        &path,
    );
}

#[test]
fn traced_gamma_agrees_with_its_report() {
    let path = temp_trace("gamma");
    assert_trace_matches_stdout(
        &Command::Gamma {
            n: 12,
            seed: 16,
            bits: 6,
            trace: Some(path.to_string_lossy().into_owned()),
        },
        &path,
    );
}

#[test]
fn quantum_trace_has_the_expected_hierarchy() {
    // The quantum pipeline's trace must read apsp → product-k → the
    // distance-product binary search → the step labels — the hierarchical
    // labelling that motivated the span tree.
    let path = temp_trace("hierarchy");
    let cmd = Command::Apsp {
        solve: Solve {
            n: 5,
            seed: 17,
            algorithm: ApspAlgorithm::QuantumTriangle,
            w_max: 4,
            trace: Some(path.to_string_lossy().into_owned()),
            faults: None,
            verify: false,
            max_retries: 3,
        },
        transport: TransportKind::Clique,
        topology: None,
    };
    run(&cmd, &mut Vec::new()).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let events = parse_trace(&text).unwrap();
    let summary = TraceSummary::from_events(&events).unwrap();
    summary.verify().unwrap();

    let labels: Vec<&str> = summary.spans().iter().map(|s| s.label.as_str()).collect();
    assert_eq!(summary.roots().len(), 1);
    assert_eq!(summary.spans()[summary.roots()[0]].label, "apsp");
    assert!(labels.contains(&"product-0"), "{labels:?}");
    assert!(
        labels
            .iter()
            .any(|l| l.starts_with("distance-product/call")),
        "{labels:?}"
    );
    assert!(
        labels.iter().any(|l| l.starts_with("find-edges/")),
        "{labels:?}"
    );
    assert!(labels.iter().any(|l| l.starts_with("step3/")), "{labels:?}");
    // product spans carry the paper's 9x virtual-network factor.
    let product = summary
        .spans()
        .iter()
        .position(|s| s.label == "product-0")
        .unwrap();
    assert_eq!(summary.spans()[product].factor, 9);
    // Depths are consistent with the nesting: apsp(0) → product(1) → ...
    assert_eq!(summary.spans()[summary.roots()[0]].depth, 0);
    assert_eq!(summary.spans()[product].depth, 1);
    std::fs::remove_file(&path).ok();
}
