//! Byte-level transcripts of the `qcc` front end.
//!
//! Each record of `tests/data/cli_transcripts.txt` is one command line,
//! run through [`qcc::cli::parse`] and [`qcc::cli::run`] the way
//! `src/bin/qcc.rs` runs it, with everything a script can observe: stdout,
//! the error message, the exit code (1 for a run error, 2 for a parse
//! error) and an FNV-1a digest of the `--trace` file. The records cover
//! `help`, every subcommand, the CI smoke commands, the exit-3 and exit-1
//! runs and the parse errors the unit tests name. `serve` reads its
//! requests from stdin, so only its parse errors and the runs that stop
//! before the first request are here; the CI serve fixtures hold the rest.
//!
//! A record reads:
//!
//! ```text
//! $ apsp --n 6 --seed 3 --trace @apsp    argv; `@NAME` is a scratch file
//! | QuantumTriangle APSP on n=6 ...      one line per stdout line
//! error: ...                             the error message, if any
//! trace 0123456789abcdef                 FNV-1a 64 of the `--trace` file
//! exit 0
//! ```
//!
//! Records run in file order, so `trace-summary @apsp` reads the trace an
//! earlier record wrote. Blank lines and `#` comments between records are
//! ignored. On a mismatch the test writes the transcript it saw under the
//! build's scratch directory and names it in the panic message.

use qcc::cli::{parse, run};
use std::path::{Path, PathBuf};

const TRANSCRIPTS: &str = include_str!("data/cli_transcripts.txt");

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Splits the transcript file into `(argv, record text)` pairs.
fn records(text: &str) -> Vec<(&str, String)> {
    let mut out = Vec::new();
    let mut lines = text.lines();
    while let Some(line) = lines.next() {
        let Some(argv) = line.strip_prefix('$') else {
            assert!(
                line.is_empty() || line.starts_with('#'),
                "stray line outside a record: {line:?}"
            );
            continue;
        };
        let mut record = format!("{line}\n");
        loop {
            let body = lines
                .next()
                .unwrap_or_else(|| panic!("record `{line}` has no exit line"));
            record.push_str(body);
            record.push('\n');
            if body.starts_with("exit ") {
                break;
            }
        }
        out.push((argv.trim(), record));
    }
    out
}

/// Runs one command line and renders its record.
fn transcript(argv: &str, scratch: &Path) -> String {
    let path = |name: &str| scratch.join(format!("{name}.ndjson"));
    let tokens: Vec<&str> = argv.split_whitespace().collect();
    let args: Vec<String> = tokens
        .iter()
        .map(|t| match t.strip_prefix('@') {
            Some(name) => path(name).to_string_lossy().into_owned(),
            None => (*t).to_string(),
        })
        .collect();
    let traced = tokens
        .windows(2)
        .find(|w| w[0] == "--trace")
        .and_then(|w| w[1].strip_prefix('@'));
    if let Some(name) = traced {
        std::fs::remove_file(path(name)).ok();
    }

    let mut stdout = Vec::new();
    let (error, exit) = match parse(&args) {
        Err(e) => (Some(e.to_string()), 2),
        Ok(cmd) => match run(&cmd, &mut stdout) {
            Ok(status) => (None, status.exit_code()),
            Err(e) => (Some(e.to_string()), 1),
        },
    };

    let mut record = if argv.is_empty() {
        "$\n".to_string()
    } else {
        format!("$ {argv}\n")
    };
    let stdout = String::from_utf8(stdout).expect("stdout is UTF-8");
    for line in stdout.lines() {
        record.push_str(if line.is_empty() { "|" } else { "| " });
        record.push_str(line);
        record.push('\n');
    }
    if !stdout.is_empty() && !stdout.ends_with('\n') {
        record.push_str("(no newline at end of stdout)\n");
    }
    if let Some(e) = error {
        record.push_str(&format!("error: {e}\n"));
    }
    if let Some(name) = traced {
        if let Ok(bytes) = std::fs::read(path(name)) {
            record.push_str(&format!("trace {:016x}\n", fnv1a(&bytes)));
        }
    }
    record.push_str(&format!("exit {exit}\n"));
    record
}

#[test]
fn every_command_line_matches_its_transcript() {
    let expected = records(TRANSCRIPTS);
    assert!(!expected.is_empty(), "no records in the transcript file");
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("cli-transcripts-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).unwrap();

    let mut seen = String::new();
    let mut mismatches = Vec::new();
    for (argv, want) in &expected {
        let got = transcript(argv, &scratch);
        if &got != want {
            mismatches.push(format!("--- expected\n{want}+++ got\n{got}"));
        }
        seen.push_str(&got);
        seen.push('\n');
    }
    std::fs::remove_dir_all(&scratch).ok();
    if !mismatches.is_empty() {
        let actual = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli_transcripts.actual.txt");
        std::fs::write(&actual, &seen).unwrap();
        panic!(
            "{} of {} transcripts differ (all records as run: {}):\n{}",
            mismatches.len(),
            expected.len(),
            actual.display(),
            mismatches.join("\n")
        );
    }
}
