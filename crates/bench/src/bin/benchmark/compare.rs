//! `benchmark compare BASE.json… -- NEW.json…`: for each workload and
//! end-to-end metric, each side's median and quartiles over its untraced
//! runs, and a verdict against the metric's bound in `BENCHMARK.json`.

use crate::json::{self, Json};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::process::ExitCode;

const USAGE: &str = "usage: benchmark compare BASE.json... -- NEW.json...";

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen.
    pub bound: f64,
}

/// workload → metric → one value per untraced run.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

pub fn main(args: &[String]) -> ExitCode {
    match compare(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark compare: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Prints the comparison; `Ok(true)` when every row is `ok`.
fn compare(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("missing `--` between the two sides")?;
    let (base, new) = (&args[..split], &args[split + 1..]);
    if base.is_empty() || new.is_empty() {
        return Err("each side needs at least one record file".into());
    }
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json in the current directory: {e}"))?;
    let bounds = read_bounds(&json::parse(&text)?)?;
    let (base, new) = (read_runs(base)?, read_runs(new)?);
    println!(
        "{:<15} {:<15} {:>28} {:>28} {:>8} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "change", "bound"
    );
    let mut clean = true;
    for (workload, base_metrics) in &base {
        let Some(new_metrics) = new.get(workload) else {
            continue;
        };
        for m in &bounds {
            let (Some(b), Some(n)) = (base_metrics.get(&m.name), new_metrics.get(&m.name)) else {
                continue;
            };
            let v = verdict(m, b, n);
            clean &= v == Verdict::Ok;
            let (bm, nm) = (median(b), median(n));
            println!(
                "{workload:<15} {:<15} {:>28} {:>28} {:>+7.1}% {:>5.0}%  {}",
                m.name,
                summary(b),
                summary(n),
                if bm == 0.0 {
                    0.0
                } else {
                    100.0 * (nm - bm) / bm
                },
                100.0 * m.bound,
                v.label()
            );
        }
    }
    Ok(clean)
}

fn summary(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values);
    format!("{} [{}, {}]", sig5(median(values)), sig5(q1), sig5(q3))
}

/// `x` with five significant digits (all of them for whole counts).
fn sig5(x: f64) -> String {
    let magnitude = if x == 0.0 {
        0
    } else {
        x.abs().log10().floor() as i32
    };
    format!("{x:.*}", (4 - magnitude).clamp(0, 12) as usize)
}

/// The verdict of one (workload, metric) row.
///
/// `Unresolved` when either side's quartile spread, as a share of its
/// median, exceeds the bound — unless every new run reads better than
/// every base run. Otherwise `Regressed` when the new median is worse than
/// the base median by more than the bound.
pub fn verdict(m: &Bound, base: &[f64], new: &[f64]) -> Verdict {
    // Positive when `a` is worse than `b`.
    let worse = |a: f64, b: f64| if m.lower_is_better { a - b } else { b - a };
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        let med = median(v).abs();
        if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med
        }
    };
    let (bm, nm) = (median(base), median(new));
    let all_better = new.iter().all(|&n| base.iter().all(|&b| worse(n, b) < 0.0));
    if spread(base).max(spread(new)) > m.bound {
        if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if bm != 0.0 && worse(nm, bm) / bm.abs() > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

pub fn read_bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    spec.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without {k}"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("name must be a string")?
                    .into(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("bound must be a number")?,
            })
        })
        .collect()
}

/// Reads `--out` record files (one JSON record per line) and keeps the
/// untraced runs.
fn read_runs(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for (i, line) in text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
        {
            let record = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
            if record.get("trace").and_then(Json::as_f64) != Some(0.0) {
                continue;
            }
            let workload = record
                .get("workload")
                .and_then(Json::as_str)
                .ok_or(format!("{path}:{}: record without a workload", i + 1))?;
            let metrics = runs.entry(workload.to_string()).or_default();
            for (name, m) in record.get("metrics").map(Json::entries).unwrap_or_default() {
                if let Some(value) = m.get("value").and_then(Json::as_f64) {
                    metrics.entry(name.clone()).or_default().push(value);
                }
            }
        }
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: "m".into(),
            lower_is_better,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_median_spread_and_direction() {
        let base = [10.0, 10.1, 9.9, 10.0];
        let lower = bound(true, 0.10);
        assert_eq!(verdict(&lower, &base, &[10.5, 10.4, 10.6]), Verdict::Ok);
        assert_eq!(
            verdict(&lower, &base, &[11.5, 11.4, 11.6]),
            Verdict::Regressed
        );
        assert_eq!(verdict(&lower, &base, &[8.0, 8.1, 7.9]), Verdict::Ok);
        // The same numbers are a regression when higher is better.
        assert_eq!(
            verdict(&bound(false, 0.10), &base, &[8.0, 8.1, 7.9]),
            Verdict::Regressed
        );
        // Spread wider than the bound: unresolved, unless every new run is
        // better than every base run.
        let noisy = [5.0, 10.0, 15.0, 20.0];
        assert_eq!(verdict(&lower, &base, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(&lower, &noisy, &[4.0, 4.5]), Verdict::Ok);
    }

    #[test]
    fn bounds_come_from_the_end_to_end_list() {
        let spec = json::parse(
            r#"{"end_to_end": [{"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.1},
                               {"name": "qps", "unit": "req/s", "better": "higher", "bound": 0.15}]}"#,
        )
        .unwrap();
        let bounds = read_bounds(&spec).unwrap();
        assert_eq!(bounds.len(), 2);
        assert!(bounds[0].lower_is_better && !bounds[1].lower_is_better);
        assert_eq!((bounds[1].name.as_str(), bounds[1].bound), ("qps", 0.15));
    }
}
