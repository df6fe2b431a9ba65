//! # qcc-bench — the experiment harness
//!
//! Shared utilities for the experiment binaries (`src/bin/exp_*.rs`) and
//! the Criterion benches (`benches/`). Every experiment of `DESIGN.md`
//! (E1–E13) has a binary that regenerates its table; the output is pasted
//! into `EXPERIMENTS.md`.
//!
//! Every binary reads its command line through [`read_flags`], which is
//! `qcc`'s flag reader: an unknown, repeated or value-less flag, or a stray
//! argument, exits 2 before any work.
//!
//! Run all experiment binaries with, e.g.:
//!
//! ```text
//! cargo run --release -p qcc-bench --bin exp_find_edges
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use qcc::cli::{collect_flags, open_sink, CliError, Flags};
use qcc_congest::TraceSink;
use std::fmt::Display;

/// A markdown table accumulated row by row and printed to stdout.
///
/// # Examples
///
/// ```
/// use qcc_bench::Table;
///
/// let mut t = Table::new(&["n", "rounds"]);
/// t.row(&[&16, &42]);
/// let rendered = t.render();
/// assert!(rendered.contains("| n | rounds |"));
/// assert!(rendered.contains("| 16 | 42 |"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the arity differs from the header.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the table as GitHub-flavored markdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Least-squares slope of `log y` against `log x` — the empirical scaling
/// exponent of a measurement series.
///
/// Returns `None` for fewer than two points or non-positive values.
///
/// # Examples
///
/// ```
/// let xs = [16.0f64, 64.0, 256.0];
/// let ys: Vec<f64> = xs.iter().map(|x: &f64| 3.0 * x.powf(0.5)).collect();
/// let slope = qcc_bench::loglog_slope(&xs, &ys).unwrap();
/// assert!((slope - 0.5).abs() < 1e-9);
/// ```
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    if xs.iter().chain(ys.iter()).any(|&v| v <= 0.0) {
        return None;
    }
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx).powi(2)).sum();
    if var == 0.0 {
        return None;
    }
    Some(cov / var)
}

/// Geometric mean of a series (0 if empty or any non-positive entry).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Prints an experiment banner (id + claim) so harness output is
/// self-describing when tee'd into logs.
pub fn banner(id: &str, claim: &str) {
    println!("\n## {id} — {claim}\n");
}

/// Reads this binary's command line through `qcc`'s flag reader
/// ([`collect_flags`]): `values` lists the flags that take a value and
/// `switches` those that do not, and `read` turns them into the binary's
/// options. Once `read` succeeds, a declared `--trace FILE` is opened as
/// an NDJSON sink ([`open_sink`]).
///
/// An unknown, repeated or value-less flag, a stray argument, an error
/// from `read` and a trace file that cannot be created all print
/// `<binary>: <message>` on stderr and exit 2, before the binary does any
/// work.
pub fn read_flags<T>(
    binary: &str,
    values: &str,
    switches: &str,
    read: impl FnOnce(&Flags) -> Result<T, CliError>,
) -> (T, Option<TraceSink>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_flags(binary, &args, values, switches, read).unwrap_or_else(|e| {
        eprintln!("{binary}: {e}");
        std::process::exit(2);
    })
}

/// The body of [`read_flags`] on an explicit argument list.
fn parse_flags<T>(
    binary: &str,
    args: &[String],
    values: &str,
    switches: &str,
    read: impl FnOnce(&Flags) -> Result<T, CliError>,
) -> Result<(T, Option<TraceSink>), CliError> {
    let flags = collect_flags(binary, args, values, switches)?;
    if let Some(extra) = flags.positionals.first() {
        return Err(CliError(format!("unexpected argument: {extra}")));
    }
    let options = read(&flags)?;
    Ok((options, open_sink(flags.trace().as_ref())?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&[&1, &"x"]);
        t.row(&[&2, &"y"]);
        let r = t.render();
        assert!(r.starts_with("| a | b |\n|---|---|\n"));
        assert!(r.contains("| 2 | y |"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_is_checked() {
        Table::new(&["a"]).row(&[&1, &2]);
    }

    #[test]
    fn slope_recovers_exponents() {
        let xs = [8.0f64, 16.0, 32.0, 64.0];
        for expo in [0.25, 0.333, 0.5, 1.0] {
            let ys: Vec<f64> = xs.iter().map(|x: &f64| 7.0 * x.powf(expo)).collect();
            let slope = loglog_slope(&xs, &ys).unwrap();
            assert!((slope - expo).abs() < 1e-9, "expo {expo}");
        }
    }

    #[test]
    fn slope_rejects_degenerate_input() {
        assert!(loglog_slope(&[1.0], &[1.0]).is_none());
        assert!(loglog_slope(&[1.0, 2.0], &[0.0, 1.0]).is_none());
        assert!(loglog_slope(&[2.0, 2.0], &[1.0, 3.0]).is_none());
    }

    #[test]
    fn geometric_mean_of_powers() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_and_open_the_trace() {
        let path =
            std::env::temp_dir().join(format!("qcc-bench-lib-{}.ndjson", std::process::id()));
        let line = format!("--smoke --trace {} --out x.json", path.display());
        let ((smoke, out), sink) =
            parse_flags("exp", &args(&line), "--out --trace", "--smoke", |flags| {
                Ok((
                    flags.switch("--smoke"),
                    flags.get("--out").map(String::from),
                ))
            })
            .unwrap();
        assert!(smoke && sink.is_some());
        assert_eq!(out.as_deref(), Some("x.json"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_command_lines_are_usage_errors() {
        let n = |flags: &Flags| flags.n(81);
        for (line, message) in [
            ("--n", "flag --n needs a value"),
            ("--n 3 --n 4", "flag --n given more than once"),
            ("--n 0", "--n must be at least 1"),
            ("--n x", "invalid value for --n: x"),
            ("--m 3", "unknown flag for `exp`: --m (allowed: --n)"),
            ("3", "unexpected argument: 3"),
        ] {
            let e = parse_flags("exp", &args(line), "--n", "", n).unwrap_err();
            assert_eq!(e.to_string(), message, "{line}");
        }
        let (n, sink) = parse_flags("exp", &[], "--n", "", n).unwrap();
        assert_eq!(n, 81);
        assert!(sink.is_none());
    }
}
