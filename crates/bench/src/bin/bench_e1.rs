//! E1 end-to-end wall-clock bench: the full quantum APSP pipeline on the
//! fixed E1 instance (seed `0xE1`, density 0.5, weights ≤ 8, scaled
//! params), timed at a configurable `n`.
//!
//! At n = 81 the run charges 9,767,313 rounds; `BENCH_e1_fast.json`
//! records it with its wall-clock times, and the rounds are the pin. The
//! binary owns the end-to-end E1 measurement, and CI smoke-tests it for
//! host-time regressions at a reduced `n` against a checked-in reference
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
//! * Every timed rep is priced against a fixed single-threaded reference
//!   kernel ([`kernel_ms`]) timed right before and right after it: a
//!   slower or busier host stretches the kernel as much as the rep, so
//!   the rep's `ratio` (its time over the mean of the two kernel times)
//!   holds still while the host's speed drifts.
//! * `--check REF.json` compares this run's `min_ratio` against the
//!   reference's and exits 1 when it regressed by more than `--max-ratio`
//!   (default 2.0), or when the charged rounds differ from the
//!   reference's. A reference without `min_ratio` or `rounds` exits 2.
//!   The minimum is compared because it is the noise-robust statistic on
//!   shared CI hosts.
//! * The JSON also records `trimmed_mean_ms` (mean with the fastest and
//!   slowest rep dropped) as the typical-rep statistic; it is reported,
//!   never gated on. See EXPERIMENTS.md for the rationale.

use qcc::cli::CliError;
use qcc_apsp::{apsp_traced, ApspAlgorithm, Params};
use qcc_congest::{json, TraceSink};
use qcc_graph::{random_reweighted_digraph, ExtWeight, WeightMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Vertices of the reference kernel's graph: 96³ ≈ 0.9 M relaxations, a
/// few milliseconds per pass.
const KERNEL_N: usize = 96;

/// What `kernel_ms` times, as recorded in the JSON.
const KERNEL: &str = "bench_e1's ExtWeight Floyd–Warshall pass (n = 96, one thread), median of 5";

struct E1Result {
    n: usize,
    reps: usize,
    times_ms: Vec<f64>,
    /// Per timed rep: the mean of the kernel times just before and after.
    kernel_ms: Vec<f64>,
    rounds: u64,
}

impl E1Result {
    /// Each rep's time in units of its adjacent kernel time.
    fn ratios(&self) -> Vec<f64> {
        self.times_ms
            .iter()
            .zip(&self.kernel_ms)
            .map(|(t, k)| t / k)
            .collect()
    }
}

/// The fixed graph the reference kernel solves.
fn kernel_input() -> WeightMatrix {
    let mut rng = StdRng::seed_from_u64(0xE1);
    random_reweighted_digraph(KERNEL_N, 0.5, 8, &mut rng).adjacency_matrix()
}

/// One Floyd–Warshall pass over [`ExtWeight`] entries, each pivot
/// relaxing every row against a snapshot of its own row: the library's
/// single-threaded pass when `BENCH_e1_smoke_ref.json` was recorded. It
/// is this binary's own copy, so that a faster library kernel does not
/// move the unit the reps are priced in. Never inlined, so that no
/// caller's code changes how it compiles.
#[inline(never)]
fn kernel_pass(adj: &WeightMatrix) -> WeightMatrix {
    let n = adj.n();
    let mut d = adj.clone();
    let mut pivot = vec![ExtWeight::PosInf; n];
    for k in 0..n {
        pivot.copy_from_slice(d.row(k));
        for row in d.as_mut_slice().chunks_exact_mut(n) {
            let dik = row[k];
            if dik == ExtWeight::PosInf {
                continue;
            }
            for (dij, &dkj) in row.iter_mut().zip(&pivot) {
                let cand = ext_add(dik, dkj);
                if ext_less(cand, *dij) {
                    *dij = cand;
                }
            }
        }
    }
    d
}

/// `ExtWeight`'s sum, copied here: the library's own pass inlined it,
/// and a call across the crate boundary made the pass about 1.7× slower.
#[inline(always)]
fn ext_add(a: ExtWeight, b: ExtWeight) -> ExtWeight {
    use ExtWeight::*;
    match (a, b) {
        (PosInf, _) | (_, PosInf) => PosInf,
        (NegInf, _) | (_, NegInf) => NegInf,
        (Finite(a), Finite(b)) => match a.checked_add(b) {
            Some(sum) => Finite(sum),
            None if a > 0 => PosInf,
            None => NegInf,
        },
    }
}

/// `ExtWeight`'s order (`a < b`), copied for the same reason.
#[inline(always)]
fn ext_less(a: ExtWeight, b: ExtWeight) -> bool {
    use ExtWeight::*;
    match (a, b) {
        (NegInf, NegInf) | (PosInf, PosInf) | (PosInf, _) | (_, NegInf) => false,
        (NegInf, _) | (_, PosInf) => true,
        (Finite(a), Finite(b)) => a < b,
    }
}

/// Milliseconds one [`kernel_pass`] over `input` takes now: the median
/// of five, so that one interrupted pass does not count.
fn kernel_ms(input: &WeightMatrix) -> f64 {
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let closure = kernel_pass(black_box(input));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            black_box(closure);
            ms
        })
        .collect();
    runs.sort_by(f64::total_cmp);
    runs[2]
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
    let mut kernel = Vec::with_capacity(reps);
    let input = kernel_input();
    let mut rounds: Option<u64> = None;
    // Rep 0 is a discarded warmup: it faults in code pages and warms the
    // allocator so the timed reps measure steady state.
    for rep in 0..=reps {
        let mut rng = StdRng::seed_from_u64(0xE1);
        let g = random_reweighted_digraph(n, 0.5, 8, &mut rng);
        let timed_sink = if rep == 1 { sink } else { None };
        let before = kernel_ms(&input);
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
        let kernel_mean = (before + kernel_ms(&input)) / 2.0;
        // Identical seed ⇒ identical simulation: any drift in charged
        // rounds between reps is a determinism bug.
        assert_eq!(
            *rounds.get_or_insert(report.rounds),
            report.rounds,
            "charged rounds drifted between identical reps"
        );
        if rep > 0 {
            times_ms.push(elapsed);
            kernel.push(kernel_mean);
        }
        eprintln!(
            "bench_e1: rep {rep}{} n={n}: {elapsed:.1} ms ({:.1} kernels of {kernel_mean:.2} ms), \
             {} rounds",
            if rep == 0 { " (warmup, discarded)" } else { "" },
            elapsed / kernel_mean,
            report.rounds
        );
    }
    E1Result {
        n,
        reps,
        times_ms,
        kernel_ms: kernel,
        rounds: rounds.expect("at least one rep ran"),
    }
}

/// `values` as a JSON array of three-decimal numbers.
fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", items.join(", "))
}

fn min_of(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn to_json(r: &E1Result) -> String {
    let mut sorted = r.times_ms.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"qcc-bench-e1/v2\",");
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
    let _ = writeln!(s, "  \"all_ms\": {},", json_list(&r.times_ms));
    let _ = writeln!(s, "  \"kernel\": {},", json::quote(KERNEL));
    let _ = writeln!(s, "  \"kernel_ms\": {},", json_list(&r.kernel_ms));
    let _ = writeln!(s, "  \"ratios\": {},", json_list(&r.ratios()));
    let _ = writeln!(s, "  \"min_ratio\": {:.3}", min_of(&r.ratios()));
    s.push_str("}\n");
    s
}

fn main() {
    let ((n, reps, out_path, check_path, max_ratio), sink) = qcc_bench::read_flags(
        "bench_e1",
        "--n --reps --out --trace --check --max-ratio",
        "",
        |flags| {
            let reps = flags.num("--reps", 1usize)?;
            if reps == 0 {
                return Err(CliError("--reps must be at least 1".into()));
            }
            let out_path = flags.get("--out").unwrap_or("BENCH_e1_fast.json");
            Ok((
                flags.n(81)?,
                reps,
                out_path.to_string(),
                flags.get("--check").map(String::from),
                flags.num("--max-ratio", 2.0f64)?,
            ))
        },
    );

    let result = run_e1(n, reps, sink.as_ref());
    if let Some(sink) = &sink {
        sink.flush().expect("trace flush");
    }
    let json = to_json(&result);
    std::fs::write(&out_path, &json).expect("write bench JSON");
    println!("{json}");
    eprintln!("bench_e1: wrote {out_path}");

    if let Some(ref_path) = check_path {
        let reference = std::fs::read_to_string(&ref_path)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                let (value, _) = json::parse(&text).map_err(|e| e.to_string())?;
                let rounds = value.get("rounds").and_then(json::Value::as_u64);
                let ratio = value.get("min_ratio").and_then(json::Value::as_f64);
                rounds
                    .zip(ratio)
                    .ok_or_else(|| "no rounds or min_ratio".to_string())
            });
        let (ref_rounds, ref_ratio) = reference.unwrap_or_else(|e| {
            eprintln!("bench_e1: cannot use reference {ref_path}: {e}");
            std::process::exit(2);
        });
        if ref_rounds != result.rounds {
            eprintln!(
                "bench_e1: FAIL — charged rounds {} differ from reference {ref_rounds} \
                 (simulation semantics changed)",
                result.rounds
            );
            std::process::exit(1);
        }
        let ours = min_of(&result.ratios());
        let ratio = ours / ref_ratio;
        if ratio > max_ratio {
            eprintln!(
                "bench_e1: FAIL — min {ours:.1} kernels is {ratio:.2}x the reference \
                 {ref_ratio:.1} kernels (limit {max_ratio}x)"
            );
            std::process::exit(1);
        }
        eprintln!(
            "bench_e1: check OK — min {ours:.1} kernels vs reference {ref_ratio:.1} kernels \
             ({ratio:.2}x, limit {max_ratio}x)"
        );
    }
}
