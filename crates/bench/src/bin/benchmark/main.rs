//! `benchmark` — the repository benchmark: four workloads, end-to-end and
//! per-layer metrics, and span timing from outside the program. See
//! `README.md` beside this file for the workloads, metrics and bounds.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1]
//!           [--traced] [--smoke] [--out FILE]
//! benchmark compare BASE.json... -- NEW.json...
//! ```
//!
//! One workload runs in this process and prints each metric as
//! `workload metric value unit`, then, as its last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics untraced, the per-layer metrics with `--trace 1`). `--workload
//! all` (the default) re-executes itself once per workload, untraced and
//! then traced, so `peak_rss_mb` is per workload. `--out FILE` appends one
//! JSON record per run, the input of `compare`. Any wrong answer makes the
//! exit code non-zero.

mod clock;
mod compare;
mod json;
mod spans;
mod stats;
mod workloads;

use std::fs::OpenOptions;
use std::io::Write as _;
use std::process::{Command, ExitCode};
use workloads::{Options, Outcome, Workload, ALL};

/// End-to-end metrics and their units, as in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 4] = [
    ("op_cost", "Mrelax"),
    ("setup_s", "s"),
    ("charged_rounds", "rounds"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, as in `BENCHMARK.json`. A layer a
/// workload does not run reports 0.
const PER_LAYER: [(&str, &str); 41] = [
    ("host.op_cpu_s", "s"),
    ("host.relaxation_ns", "ns"),
    ("host.setup_cpu_s", "s"),
    ("step3.self_s", "s"),
    ("step3.rounds", "rounds"),
    ("step3.spans", "count"),
    ("identify_class.self_s", "s"),
    ("identify_class.rounds", "rounds"),
    ("gather.self_s", "s"),
    ("gather.rounds", "rounds"),
    ("lambda.self_s", "s"),
    ("lambda.rounds", "rounds"),
    ("find_edges.self_s", "s"),
    ("find_edges.loops", "count"),
    ("apsp.products", "count"),
    ("distance_product.calls", "count"),
    ("driver.attempts", "count"),
    ("driver.fallbacks", "count"),
    ("driver.verify_s", "s"),
    ("network.calls", "count"),
    ("network.messages", "count"),
    ("network.bits", "bits"),
    ("fault.injected", "count"),
    ("rlnc.self_s", "s"),
    ("rlnc.rounds", "rounds"),
    ("gossip.waves", "count"),
    ("gossip.packets_sent", "count"),
    ("gossip.innovative_ratio", "fraction"),
    ("gossip.attempts", "count"),
    ("serve.qps", "req/s"),
    ("serve.recompute_ms_p50", "ms"),
    ("serve.repair_ms_p50", "ms"),
    ("serve.delta_repairs", "count"),
    ("serve.full_recomputes", "count"),
    ("serve.row_misses", "count"),
    ("serve.row_miss_us_p50", "us"),
    ("serve.update_p95_ms", "ms"),
    ("serve.read_p50_us", "us"),
    ("serve.read_tail_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "fraction"),
];

/// Measured seconds per run when `--seconds` is not given; equal to
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed S] [--seconds T] \
                     [--trace 0|1] [--traced] [--smoke] [--out FILE]\n       \
                     benchmark compare BASE.json... -- NEW.json...";

struct Cli {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<String>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: None,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload = match name.as_str() {
                    "all" => None,
                    _ => Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?),
                };
            }
            "--seed" => {
                let s = value()?;
                let parsed = match s.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => s.parse(),
                };
                cli.seed = Some(parsed.map_err(|_| format!("bad seed {s}"))?);
            }
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--traced" => cli.traced = true,
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() -> ExitCode {
    // Kernels that take no `Params` (Floyd–Warshall, min-plus products)
    // read QCC_THREADS. One worker was both faster and steadier than two
    // on a shared 2-core host; set before any thread exists.
    std::env::set_var("QCC_THREADS", "1");
    if !clock::keep_freed_memory() {
        eprintln!("benchmark: mallopt refused; timed regions will include page faults");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return compare::main(&args[1..]);
    }
    match parse_cli(&args) {
        Ok(cli) => match cli.workload {
            Some(w) => run_one(w, &cli),
            None => run_all(&cli),
        },
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// The metrics a run reports: per-layer when traced, end-to-end otherwise.
fn table(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// A metric's value, 0 when the workload does not produce it.
fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .values
        .get(name)
        .copied()
        .filter(|v| v.is_finite())
        .unwrap_or(0.0)
}

/// The result line: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
fn result_json(outcome: &Outcome, traced: bool) -> String {
    let metrics: Vec<String> = table(traced)
        .iter()
        .map(|&(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value(outcome, name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn run_one(w: Workload, cli: &Cli) -> ExitCode {
    let seed = cli.seed.unwrap_or(w.default_seed());
    let opts = Options {
        seed,
        seconds: cli.seconds,
        traced: cli.traced,
        smoke: cli.smoke,
    };
    let outcome = workloads::run(w, &opts);
    for &(name, unit) in table(cli.traced) {
        println!("{} {name} {} {unit}", w.name(), value(&outcome, name));
    }
    for note in &outcome.notes {
        println!("{} # {note}", w.name());
    }
    let result = result_json(&outcome, cli.traced);
    let mut ok = outcome.failed == 0;
    if let Some(path) = &cli.out {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, \"smoke\": {}, \"seconds\": {}, {}",
            w.name(),
            u8::from(cli.traced),
            cli.smoke,
            cli.seconds,
            &result[1..]
        );
        let appended = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"));
        if let Err(e) = appended {
            eprintln!("benchmark: cannot append to {path}: {e}");
            ok = false;
        }
    }
    println!("{result}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own, untraced and then
/// traced; each child prints its own lines and appends its own record.
fn run_all(cli: &Cli) -> ExitCode {
    if let Some(path) = &cli.out {
        if let Err(e) = std::fs::write(path, "") {
            eprintln!("benchmark: cannot create {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find its own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for traced in [false, true] {
        for w in ALL {
            let mut child = Command::new(&exe);
            child
                .args([
                    "--workload",
                    w.name(),
                    "--trace",
                    if traced { "1" } else { "0" },
                ])
                .args(["--seconds", &cli.seconds.to_string()]);
            if let Some(seed) = cli.seed {
                child.args(["--seed", &seed.to_string()]);
            }
            if cli.smoke {
                child.arg("--smoke");
            }
            if let Some(path) = &cli.out {
                child.args(["--out", path]);
            }
            match child.status() {
                Ok(status) if status.success() => {}
                Ok(status) => failed.push(format!("{} trace={traced}: {status}", w.name())),
                Err(e) => failed.push(format!("{} trace={traced}: {e}", w.name())),
            }
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchmark: failed runs: {}", failed.join("; "));
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    /// `BENCHMARK.json` and this binary agree on workloads, metrics, units
    /// and run length.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let spec = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let names_units = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let expect = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_units("end_to_end"), expect(&END_TO_END));
        assert_eq!(names_units("per_layer"), expect(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, ALL.map(Workload::name));
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let bounds = compare::read_bounds(&spec).unwrap();
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
        assert!(bounds
            .iter()
            .all(|b| b.bound <= setup.bound && b.bound <= 0.25));
    }

    #[test]
    fn cli_accepts_the_driver_flags() {
        let args: Vec<String> = "--workload gossip_lossy --seed 0x2A --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&args).unwrap();
        assert_eq!(cli.workload, Some(Workload::GossipLossy));
        assert_eq!((cli.seed, cli.seconds, cli.traced), (Some(42), 3.0, true));
        for bad in [
            "--trace 2",
            "--workload nope",
            "--seconds -1",
            "--seed",
            "--bogus",
        ] {
            let args: Vec<String> = bad.split(' ').map(String::from).collect();
            assert!(parse_cli(&args).is_err(), "{bad}");
        }
    }

    /// The whole harness at smoke size: a traced run times untraced
    /// operations too, so one per workload covers both result lines. Every
    /// answer is exact, the default seed hits its pinned rounds, and every
    /// end-to-end metric is measured.
    #[test]
    fn smoke_runs_every_workload() {
        for w in ALL {
            let opts = Options {
                seed: w.default_seed(),
                seconds: 1.0,
                traced: true,
                smoke: true,
            };
            let outcome = workloads::run(w, &opts);
            assert_eq!(outcome.failed, 0, "{}", w.name());
            for &(name, _) in &END_TO_END {
                assert!(value(&outcome, name) > 0.0, "{} {name}", w.name());
            }
            assert!(value(&outcome, "trace.coverage") > 0.5, "{}", w.name());
            assert!(
                value(&outcome, "trace.overhead_ratio") > 0.0,
                "{}",
                w.name()
            );
            for traced in [false, true] {
                let parsed = json::parse(&result_json(&outcome, traced)).unwrap();
                assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
                assert_eq!(
                    parsed.get("metrics").map(|m| m.entries().len()),
                    Some(table(traced).len())
                );
            }
        }
    }
}
