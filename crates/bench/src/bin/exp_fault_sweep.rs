//! Experiment E16 — the fault sweep: Las-Vegas APSP on lossy networks.
//!
//! A grid of seeded fault plans (drop × corrupt × dup rates, plus
//! fail-stop `crash=NODE@ROUND` cells) is applied to the simulated
//! clique and the self-verifying driver runs APSP on each cell. The
//! claim: behind the reliable envelope and the driver's certificate,
//! every cell either returns the exact Floyd–Warshall matrix or fails
//! with a *typed* outcome (a crashed node exhausts verification) —
//! faults cost rounds and retries, never silent wrong answers. The
//! table reports attempts, fallback use, and the round overhead
//! relative to the fault-free cell of the same seed.
//!
//! Usage: `exp_fault_sweep [--smoke] [--trace FILE]`
//!
//! Exits 1 if any cell's matrix disagrees with Floyd–Warshall, a lossy
//! (non-crash) cell fails verification, or a crash cell fails with
//! anything other than a typed error — this binary doubles as the CI
//! fault-sweep gate.

use qcc_apsp::{apsp_driver, ApspAlgorithm, ApspError, DriverConfig};
use qcc_bench::{banner, Table};
use qcc_congest::{FaultPlan, NetConfig};
use qcc_graph::{floyd_warshall, random_reweighted_digraph};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let (smoke, sink) = qcc_bench::read_flags("exp_fault_sweep", "--trace", "--smoke", |flags| {
        Ok(flags.switch("--smoke"))
    });
    banner(
        "E16",
        "fault sweep: seeded drops/corruption/dups/crashes + envelope + driver stay exact or fail typed",
    );

    let n = if smoke { 8 } else { 10 };
    let seeds: &[u64] = if smoke { &[1] } else { &[1, 2] };
    let drops: &[f64] = if smoke {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.05, 0.2]
    };
    let corrupts: &[f64] = &[0.0, 0.01];
    let dups: &[f64] = if smoke { &[0.0] } else { &[0.0, 0.02] };
    // Fail-stop cells ride on the mid drop rate: an immediate crash can
    // never certify (typed failure), a crash far beyond the round budget
    // behaves like no crash at all (exact matrix).
    let crashes: &[Option<(usize, u64)>] = if smoke {
        &[None, Some((1, 0))]
    } else {
        &[None, Some((1, 0)), Some((2, 1_000_000))]
    };

    let mut table = Table::new(&[
        "drop",
        "corrupt",
        "dup",
        "crash",
        "seed",
        "attempts",
        "fallback",
        "verified",
        "total rounds",
        "overhead",
        "outcome",
    ]);
    let mut failures = 0u32;
    for &seed in seeds {
        let mut rng = StdRng::seed_from_u64(0xE16 + seed);
        let g = random_reweighted_digraph(n, 0.5, 6, &mut rng);
        let oracle = floyd_warshall(&g.adjacency_matrix()).expect("no negative cycles");
        // The all-zero cell runs first and anchors the overhead column.
        let mut clean_rounds: Option<u64> = None;
        for &crash in crashes {
            for &drop in drops {
                for &corrupt in corrupts {
                    for &dup in dups {
                        // Crash cells only extend the mid drop column:
                        // the full cross-product would bloat the grid
                        // without changing what the cells can prove.
                        if crash.is_some() && (drop != drops[1] || corrupt != 0.0 || dup != 0.0) {
                            continue;
                        }
                        let plan = FaultPlan {
                            drop_rate: drop,
                            corrupt_rate: corrupt,
                            duplicate_rate: dup,
                            crashes: crash
                                .map(|(node, round)| (qcc_congest::NodeId::new(node), round))
                                .into_iter()
                                .collect(),
                            seed: seed * 1000 + 17,
                            ..FaultPlan::default()
                        };
                        let spec = plan.to_spec();
                        let crash_label = crash
                            .map_or("-".to_string(), |(node, round)| format!("{node}@{round}"));
                        let net = if plan.is_empty() {
                            NetConfig::default()
                        } else {
                            NetConfig::faulty(plan)
                        };
                        let cfg = DriverConfig {
                            algorithm: ApspAlgorithm::NaiveBroadcast,
                            net,
                            ..DriverConfig::default()
                        };
                        let mut run_rng = StdRng::seed_from_u64(seed);
                        let (row, outcome_ok) =
                            match apsp_driver(&g, &cfg, &mut run_rng, sink.as_ref()) {
                                Ok(out) => {
                                    if clean_rounds.is_none() {
                                        clean_rounds = Some(out.total_rounds);
                                    }
                                    let overhead = clean_rounds.filter(|&c| c > 0).map_or_else(
                                        || "-".into(),
                                        |c| format!("{:.2}x", out.total_rounds as f64 / c as f64),
                                    );
                                    let exact = out.verified && out.report.distances == oracle;
                                    if !exact {
                                        eprintln!(
                                            "exp_fault_sweep: [{spec}] seed={seed}: \
                                             matrix mismatch or unverified"
                                        );
                                    }
                                    (
                                        (
                                            out.attempts.len().to_string(),
                                            out.used_fallback.to_string(),
                                            out.verified.to_string(),
                                            out.total_rounds.to_string(),
                                            overhead,
                                            "exact".to_string(),
                                        ),
                                        exact,
                                    )
                                }
                                // A typed failure is an honest cell — but
                                // only crash plans are allowed to produce
                                // one; the envelope must mask pure rates.
                                Err(e @ ApspError::VerificationFailed { .. }) => {
                                    let ok = crash.is_some();
                                    if !ok {
                                        eprintln!(
                                            "exp_fault_sweep: [{spec}] seed={seed}: \
                                             unexpected failure: {e}"
                                        );
                                    }
                                    (
                                        (
                                            "-".into(),
                                            "-".into(),
                                            "false".into(),
                                            "-".into(),
                                            "-".into(),
                                            "typed-failure".into(),
                                        ),
                                        ok,
                                    )
                                }
                                Err(e) => {
                                    eprintln!("exp_fault_sweep: [{spec}] seed={seed}: {e}");
                                    (
                                        (
                                            "-".into(),
                                            "-".into(),
                                            "false".into(),
                                            "-".into(),
                                            "-".into(),
                                            "error".into(),
                                        ),
                                        false,
                                    )
                                }
                            };
                        if !outcome_ok {
                            failures += 1;
                        }
                        let (attempts, fallback, verified, rounds, overhead, outcome) = row;
                        table.row(&[
                            &drop,
                            &corrupt,
                            &dup,
                            &crash_label,
                            &seed,
                            &attempts,
                            &fallback,
                            &verified,
                            &rounds,
                            &overhead,
                            &outcome,
                        ]);
                    }
                }
            }
        }
    }
    table.print();
    if let Some(sink) = &sink {
        sink.flush().expect("trace flush");
    }
    if failures > 0 {
        eprintln!("exp_fault_sweep: {failures} cell(s) FAILED");
        std::process::exit(1);
    }
    println!(
        "\n(every cell returned the exact Floyd-Warshall matrix or a typed failure;\n\
         rate faults buy retransmit waves and verification products, fail-stop\n\
         crashes exhaust verification honestly - never silent wrong answers)"
    );
}
