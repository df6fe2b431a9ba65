//! End-to-end checks of the distance-parameter suite (`qcc diameter`,
//! `qcc radius`, `qcc ecc`): honest disconnected-graph semantics, the
//! rounds-vs-trace contract, determinism pins for the charged rounds,
//! and the Las-Vegas composition with faults and verification.

use qcc::algo::{distance_params, ApspAlgorithm, DistanceParam, ExtremumConfig};
use qcc::cli::{parse, run, RunStatus};
use qcc::graph::{DiGraph, ExtWeight};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// Parses and runs a command line, returning its status and stdout.
fn run_line(line: &str) -> (RunStatus, String) {
    let cmd = parse(&argv(line)).expect("line parses");
    let mut buf = Vec::new();
    let status = run(&cmd, &mut buf).expect("command runs");
    (status, String::from_utf8(buf).expect("utf8 output"))
}

/// The first number after the first `": "` — the reported round total.
fn extract_rounds(text: &str) -> u64 {
    text.split(": ")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .expect("rounds in output")
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("qcc-dp-{tag}-{}.ndjson", std::process::id()))
}

/// The acceptance contract: `qcc diameter --n 27 --seed 7` reports a
/// round total exactly equal to the scaled total of its own trace.
#[test]
fn diameter_n27_seed7_rounds_equal_the_trace_total() {
    let path = temp_path("n27");
    let (status, text) = run_line(&format!(
        "diameter --n 27 --seed 7 --trace {}",
        path.display()
    ));
    assert_eq!(status, RunStatus::Success);
    let rounds = extract_rounds(&text);
    let (status, summary) = run_line(&format!(
        "trace-summary {} --expect-rounds {rounds} --max-depth 2",
        path.display()
    ));
    assert_eq!(status, RunStatus::Success);
    assert!(summary.contains("distance-param"), "{summary}");
    assert!(
        summary.contains(&format!("round total matches expected {rounds}")),
        "{summary}"
    );
    std::fs::remove_file(&path).ok();
}

/// Density 0 guarantees an arcless graph: every eccentricity, the
/// diameter and the radius are honestly infinite, never 0.
#[test]
fn arcless_graph_reports_disconnected_and_infinite() {
    for param in ["diameter", "radius"] {
        let (status, text) = run_line(&format!("{param} --n 6 --seed 1 --density 0"));
        assert_eq!(status, RunStatus::Success);
        assert!(text.contains(&format!("{param} = inf")), "{text}");
        assert!(text.contains("disconnected"), "{text}");
    }
    let (_, text) = run_line("ecc --n 4 --seed 1 --density 0 --algorithm naive");
    for v in 0..4 {
        assert!(text.contains(&format!("ecc({v}) = inf")), "{text}");
    }
}

/// A single vertex is trivially connected with eccentricity 0.
#[test]
fn single_vertex_graph_is_trivially_connected() {
    let (status, text) = run_line("diameter --n 1 --seed 1 --algorithm naive");
    assert_eq!(status, RunStatus::Success);
    assert!(text.contains("diameter = 0"), "{text}");
    assert!(!text.contains("disconnected"), "{text}");
    let (_, text) = run_line("ecc --n 1 --seed 1 --algorithm naive");
    assert!(text.contains("ecc(0) = 0"), "{text}");
}

/// Directed asymmetry: a one-way path 0 → 1 → 2 has a finite radius
/// (vertex 0 reaches everything) but an infinite diameter (nothing
/// reaches back) — the two parameters must not collapse to one story.
#[test]
fn directed_asymmetry_finite_radius_infinite_diameter() {
    let mut g = DiGraph::new(3);
    g.add_arc(0, 1, 4);
    g.add_arc(1, 2, 3);
    let mut rng = StdRng::seed_from_u64(11);
    let mut cfg = ExtremumConfig::new(DistanceParam::Radius);
    cfg.driver.algorithm = ApspAlgorithm::NaiveBroadcast;
    let radius = distance_params(&g, &cfg, &mut rng, None).expect("runs");
    assert_eq!(radius.value, ExtWeight::from(7));
    assert_eq!(radius.witness, Some(0));
    assert!(!radius.connected);
    assert!(radius.verified);

    cfg.param = DistanceParam::Diameter;
    let diameter = distance_params(&g, &cfg, &mut rng, None).expect("runs");
    assert_eq!(diameter.value, ExtWeight::PosInf);
    assert!(!diameter.connected);
    assert!(diameter.verified);
}

/// Both backends find the same extremum; the scan spends exactly `n`
/// evaluations while the quantum search's count varies with the seed.
#[test]
fn quantum_and_scan_backends_agree_on_the_value() {
    let (_, q) = run_line("diameter --n 14 --seed 6 --algorithm naive --backend quantum");
    let (_, s) = run_line("diameter --n 14 --seed 6 --algorithm naive --backend scan");
    let value = |text: &str| {
        text.lines()
            .find(|l| l.starts_with("diameter = "))
            .expect("value line")
            .to_string()
    };
    assert_eq!(value(&q), value(&s), "backends disagree");
    assert!(s.contains("14 oracle evaluations"), "{s}");
}

/// Determinism pins: the charged rounds of seeded runs are part of the
/// model, recorded here so accounting drift fails loudly. A repeated run
/// must also be byte-identical.
#[test]
fn charged_rounds_are_pinned_and_repeatable() {
    let cases = [
        (
            "radius --n 12 --seed 3 --algorithm semiring --backend scan",
            53u64,
        ),
        ("ecc --n 9 --seed 2 --algorithm naive", 3),
        ("diameter --n 10 --seed 5 --algorithm naive", 64),
    ];
    for (line, pinned) in cases {
        let (status, first) = run_line(line);
        assert_eq!(status, RunStatus::Success);
        assert_eq!(extract_rounds(&first), pinned, "{line}: {first}");
        let (_, second) = run_line(line);
        assert_eq!(first, second, "{line} is not deterministic");
    }
}

/// Faults + verification compose: behind the envelope the Las-Vegas loop
/// still certifies both the distance matrix and the claimed extremum.
#[test]
fn faulty_verified_radius_certifies() {
    let (status, text) = run_line(
        "radius --n 8 --seed 9 --algorithm naive --faults drop=0.1,corrupt=0.02,seed=4 --verify",
    );
    assert_eq!(status, RunStatus::Success);
    assert!(text.contains("verified: true"), "{text}");
    assert!(text.contains("fallback: false"), "{text}");
}

/// The verified path also balances its trace: driver attempts, the
/// search certificate and the extremum spans all close, and the scaled
/// total equals the reported rounds.
#[test]
fn verified_traced_run_balances_the_trace() {
    let path = temp_path("verified");
    let (status, text) = run_line(&format!(
        "diameter --n 9 --seed 4 --algorithm naive --verify --trace {}",
        path.display()
    ));
    assert_eq!(status, RunStatus::Success);
    assert!(text.contains("verified: true"), "{text}");
    let rounds = extract_rounds(&text);
    let (status, summary) = run_line(&format!(
        "trace-summary {} --expect-rounds {rounds}",
        path.display()
    ));
    assert_eq!(status, RunStatus::Success);
    assert!(summary.contains("ext-attempt-0"), "{summary}");
    assert!(summary.contains("ext-verify-0"), "{summary}");
    std::fs::remove_file(&path).ok();
}

/// The `ecc` gather and the extremum subcommands tell one consistent
/// story: max of the printed vector = diameter, min = radius.
#[test]
fn ecc_vector_is_consistent_with_diameter_and_radius() {
    let (_, e) = run_line("ecc --n 10 --seed 8 --algorithm naive");
    let ecc: Vec<i64> = e
        .lines()
        .filter(|l| l.trim_start().starts_with("ecc("))
        .map(|l| {
            l.split("= ")
                .nth(1)
                .expect("value")
                .parse()
                .expect("finite")
        })
        .collect();
    assert_eq!(ecc.len(), 10);
    let (_, d) = run_line("diameter --n 10 --seed 8 --algorithm naive");
    let (_, r) = run_line("radius --n 10 --seed 8 --algorithm naive");
    assert!(
        d.contains(&format!("diameter = {}", ecc.iter().max().expect("n > 0"))),
        "{d}"
    );
    assert!(
        r.contains(&format!("radius = {}", ecc.iter().min().expect("n > 0"))),
        "{r}"
    );
}

/// An unverified clean run never claims `verified: true`.
#[test]
fn unverified_run_does_not_claim_verification() {
    let (_, text) = run_line("diameter --n 8 --seed 2 --algorithm naive");
    assert!(text.contains("verified: false"), "{text}");
}
