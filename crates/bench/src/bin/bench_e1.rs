//! E1 end-to-end wall-clock bench: the full quantum APSP pipeline on the
//! fixed E1 instance (seed `0xE1`, density 0.5, weights ≤ 8, scaled
//! params), timed at a configurable `n`.
//!
//! At n = 81 the run charges 9,767,313 rounds; `BENCH_e1_fast.json`
//! records it with its wall-clock times, and the rounds are the pin. The
//! binary owns the end-to-end E1 measurement, and CI smoke-tests it for
//! wall-clock regressions at a reduced `n` against a checked-in reference
//! (`BENCH_e1_smoke_ref.json`).
//!
//! Usage:
//!
//! ```text
//! bench_e1 [--n N] [--reps R] [--out PATH] [--trace FILE]
//!          [--check REF.json] [--max-ratio X]
//! ```
//!
//! * Every rep replays the *identical* run (the RNG is re-seeded per rep),
//!   so charged rounds are asserted equal across reps. One warmup rep is
//!   executed and discarded before timing.
//! * `--check REF.json` compares this run's `min_ms` against the
//!   reference's `min_ms` (falling back to `median_ms`) and exits 1 when
//!   it regressed by more than `--max-ratio` (default 2.0). `min_ms` is
//!   compared because it is the noise-robust statistic on shared CI hosts.
//! * The JSON also records `trimmed_mean_ms` (mean with the fastest and
//!   slowest rep dropped) as the typical-rep statistic; it is reported,
//!   never gated on. See EXPERIMENTS.md for the rationale.

use qcc_apsp::{apsp_traced, ApspAlgorithm, Params};
use qcc_congest::TraceSink;
use qcc_graph::random_reweighted_digraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

struct E1Result {
    n: usize,
    reps: usize,
    times_ms: Vec<f64>,
    rounds: u64,
}

fn median(sorted: &[f64]) -> f64 {
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Mean with the extremes dropped (when there are at least three
/// samples): E1 tails are high-variance, so the trimmed mean tracks the
/// typical rep better than the plain mean without being as optimistic as
/// the min.
fn trimmed_mean(sorted: &[f64]) -> f64 {
    let trimmed = if sorted.len() >= 3 {
        &sorted[1..sorted.len() - 1]
    } else {
        sorted
    };
    trimmed.iter().sum::<f64>() / trimmed.len() as f64
}

fn run_e1(n: usize, reps: usize, sink: Option<&TraceSink>) -> E1Result {
    // The E1 instance: graph and algorithm randomness both come from the
    // 0xE1 stream.
    let mut times_ms = Vec::with_capacity(reps);
    let mut rounds: Option<u64> = None;
    // Rep 0 is a discarded warmup: it faults in code pages and warms the
    // allocator so the timed reps measure steady state.
    for rep in 0..=reps {
        let mut rng = StdRng::seed_from_u64(0xE1);
        let g = random_reweighted_digraph(n, 0.5, 8, &mut rng);
        let timed_sink = if rep == 1 { sink } else { None };
        let t = Instant::now();
        let report = apsp_traced(
            &g,
            Params::scaled(),
            ApspAlgorithm::QuantumTriangle,
            &mut rng,
            timed_sink,
        )
        .expect("pipeline succeeds");
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        // Identical seed ⇒ identical simulation: any drift in charged
        // rounds between reps is a determinism bug.
        assert_eq!(
            *rounds.get_or_insert(report.rounds),
            report.rounds,
            "charged rounds drifted between identical reps"
        );
        if rep > 0 {
            times_ms.push(elapsed);
        }
        eprintln!(
            "bench_e1: rep {rep}{} n={n}: {elapsed:.1} ms, {} rounds",
            if rep == 0 { " (warmup, discarded)" } else { "" },
            report.rounds
        );
    }
    E1Result {
        n,
        reps,
        times_ms,
        rounds: rounds.expect("at least one rep ran"),
    }
}

fn to_json(r: &E1Result) -> String {
    let mut sorted = r.times_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"qcc-bench-e1/v1\",");
    let _ = writeln!(
        s,
        "  \"host_available_parallelism\": {},",
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    );
    let _ = writeln!(s, "  \"n\": {},", r.n);
    let _ = writeln!(s, "  \"reps\": {},", r.reps);
    let _ = writeln!(s, "  \"median_ms\": {:.3},", median(&sorted));
    let _ = writeln!(s, "  \"trimmed_mean_ms\": {:.3},", trimmed_mean(&sorted));
    let _ = writeln!(s, "  \"min_ms\": {:.3},", sorted[0]);
    let _ = writeln!(s, "  \"rounds\": {},", r.rounds);
    let _ = write!(s, "  \"all_ms\": [");
    for (j, t) in r.times_ms.iter().enumerate() {
        if j > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{t:.3}");
    }
    s.push_str("]\n}\n");
    s
}

/// Pulls `"key": <number>` out of a flat JSON object without a JSON
/// dependency (the bench JSON is machine-written, schema-stable).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut n = 81usize;
    let mut reps = 1usize;
    let mut out_path = String::from("BENCH_e1_fast.json");
    let mut trace_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut max_ratio = 2.0f64;
    let mut it = args.iter();
    let usage = "usage: bench_e1 [--n N] [--reps R] [--out PATH] [--trace FILE] \
                 [--check REF.json] [--max-ratio X]";
    let take = |it: &mut std::slice::Iter<String>, flag: &str| -> String {
        it.next().cloned().unwrap_or_else(|| {
            eprintln!("bench_e1: {flag} requires a value\n{usage}");
            std::process::exit(2);
        })
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--n" => {
                n = take(&mut it, "--n").parse().unwrap_or_else(|_| {
                    eprintln!("bench_e1: --n requires an integer");
                    std::process::exit(2);
                })
            }
            "--reps" => {
                reps = take(&mut it, "--reps").parse().unwrap_or_else(|_| {
                    eprintln!("bench_e1: --reps requires an integer");
                    std::process::exit(2);
                })
            }
            "--out" => out_path = take(&mut it, "--out"),
            "--trace" => trace_path = Some(take(&mut it, "--trace")),
            "--check" => check_path = Some(take(&mut it, "--check")),
            "--max-ratio" => {
                max_ratio = take(&mut it, "--max-ratio").parse().unwrap_or_else(|_| {
                    eprintln!("bench_e1: --max-ratio requires a number");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("bench_e1: unknown argument `{other}`\n{usage}");
                std::process::exit(2);
            }
        }
    }
    if reps == 0 {
        eprintln!("bench_e1: --reps must be at least 1");
        std::process::exit(2);
    }
    let sink = trace_path.map(|p| {
        TraceSink::to_file(&p).unwrap_or_else(|e| {
            eprintln!("bench_e1: cannot create trace file {p}: {e}");
            std::process::exit(2);
        })
    });

    let result = run_e1(n, reps, sink.as_ref());
    if let Some(sink) = &sink {
        sink.flush().expect("trace flush");
    }
    let json = to_json(&result);
    std::fs::write(&out_path, &json).expect("write bench JSON");
    println!("{json}");
    eprintln!("bench_e1: wrote {out_path}");

    if let Some(ref_path) = check_path {
        let ref_text = std::fs::read_to_string(&ref_path).unwrap_or_else(|e| {
            eprintln!("bench_e1: cannot read reference {ref_path}: {e}");
            std::process::exit(2);
        });
        let ref_ms = json_number(&ref_text, "min_ms")
            .or_else(|| json_number(&ref_text, "median_ms"))
            .unwrap_or_else(|| {
                eprintln!("bench_e1: reference {ref_path} has no min_ms/median_ms");
                std::process::exit(2);
            });
        let mut sorted = result.times_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let ours = sorted[0];
        let ratio = ours / ref_ms;
        if let Some(ref_rounds) = json_number(&ref_text, "rounds") {
            let ref_rounds = ref_rounds as u64;
            if ref_rounds != result.rounds {
                eprintln!(
                    "bench_e1: FAIL — charged rounds {} differ from reference {} \
                     (simulation semantics changed)",
                    result.rounds, ref_rounds
                );
                std::process::exit(1);
            }
        }
        if ratio > max_ratio {
            eprintln!(
                "bench_e1: FAIL — min {ours:.1} ms is {ratio:.2}x the reference \
                 {ref_ms:.1} ms (limit {max_ratio}x)"
            );
            std::process::exit(1);
        }
        eprintln!(
            "bench_e1: check OK — min {ours:.1} ms vs reference {ref_ms:.1} ms \
             ({ratio:.2}x, limit {max_ratio}x)"
        );
    }
}
