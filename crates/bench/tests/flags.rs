//! Every experiment binary reads its command line through `qcc`'s flag
//! reader: an unknown flag, a repeated value flag and a value flag without
//! its value each exit 2 before any work, with nothing on stdout, the flag
//! named on stderr and no file written.
//!
//! `benchmark` is left out: its package keeps a reader of its own.

use std::path::Path;
use std::process::Command;

/// Each binary with the value flags it declares.
const BINARIES: [(&str, &str); 19] = [
    (env!("CARGO_BIN_EXE_bench_baseline"), "--out --trace"),
    (
        env!("CARGO_BIN_EXE_bench_e1"),
        "--n --reps --out --trace --check --max-ratio",
    ),
    (env!("CARGO_BIN_EXE_exp_apsp_scaling"), "--trace"),
    (env!("CARGO_BIN_EXE_exp_congestion"), "--trace"),
    (env!("CARGO_BIN_EXE_exp_counting"), ""),
    (
        env!("CARGO_BIN_EXE_exp_distance_params"),
        "--trials --seed --out",
    ),
    (env!("CARGO_BIN_EXE_exp_distance_product"), ""),
    (env!("CARGO_BIN_EXE_exp_eval_rounds"), ""),
    (env!("CARGO_BIN_EXE_exp_fault_sweep"), "--trace"),
    (env!("CARGO_BIN_EXE_exp_find_edges"), ""),
    (env!("CARGO_BIN_EXE_exp_grover"), ""),
    (env!("CARGO_BIN_EXE_exp_identify_class"), ""),
    (env!("CARGO_BIN_EXE_exp_lambda"), ""),
    (env!("CARGO_BIN_EXE_exp_multisearch"), ""),
    (env!("CARGO_BIN_EXE_exp_quantization"), ""),
    (
        env!("CARGO_BIN_EXE_exp_query_throughput"),
        "--n --seed --queries --row-cache --out",
    ),
    (env!("CARGO_BIN_EXE_exp_reduction_loop"), ""),
    (env!("CARGO_BIN_EXE_exp_routing"), ""),
    (env!("CARGO_BIN_EXE_exp_transport_matrix"), "--out --trace"),
];

/// Runs `exe` with `args` in an empty directory of its own and checks the
/// usage-error contract: exit 2, empty stdout, `flag` named on stderr
/// after the binary's name, and the directory still empty.
fn assert_usage_error(exe: &str, args: &[&str], flag: &str) {
    let name = Path::new(exe).file_stem().unwrap().to_string_lossy();
    let dir = std::env::temp_dir().join(format!(
        "qcc-bench-flags-{}-{name}-{}",
        std::process::id(),
        args.join("_").replace('-', "")
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(exe)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    std::fs::remove_dir_all(&dir).ok();
    let case = format!("{name} {}", args.join(" "));
    assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
    assert!(out.stdout.is_empty(), "{case}: wrote to stdout");
    assert!(
        stderr.starts_with(&format!("{name}: ")) && stderr.contains(flag),
        "{case}: {stderr}"
    );
    assert!(written.is_empty(), "{case}: wrote {written:?}");
}

#[test]
fn every_binary_rejects_an_unknown_flag() {
    for (exe, _) in BINARIES {
        assert_usage_error(exe, &["--no-such-flag"], "--no-such-flag");
    }
}

#[test]
fn every_value_flag_rejects_a_repeat_and_a_missing_value() {
    for (exe, values) in BINARIES {
        for flag in values.split_whitespace() {
            assert_usage_error(exe, &[flag, "16", flag, "27"], flag);
            assert_usage_error(exe, &[flag], flag);
        }
    }
}
