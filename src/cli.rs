//! Command-line front-end (argument parsing and dispatch for `qcc`).
//!
//! Kept dependency-free: a small hand-rolled `--flag value` parser feeding
//! typed commands. Every subcommand declares the exact flag set it accepts
//! and anything else — a misspelled flag, a stray positional, a repeated
//! flag — is rejected with an error naming the offender, so typos like
//! `--wamx` fail loudly instead of silently running with defaults. The
//! binary in `src/bin/qcc.rs` is a thin wrapper so the parsing and dispatch
//! logic stays unit-testable.

use crate::algo::{
    apsp_driver, apsp_traced, apsp_with_paths_traced, compute_pairs, distance_params, gossip_apsp,
    quantum_gamma_count, reference_find_edges, ApspAlgorithm, ApspError, DistanceParam,
    DriverConfig, EngineConfig, ExtremumBackend, ExtremumConfig, FallbackPolicy, GossipApspConfig,
    LoadPlan, PairSet, Params, QueryEngine, SearchBackend, TransportKind,
};
use crate::congest::{
    parse_trace, Clique, FaultPlan, NetConfig, TopologySpec, TraceSink, TraceSummary,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run APSP on a random instance and report rounds.
    Apsp {
        /// Vertex count.
        n: usize,
        /// RNG seed.
        seed: u64,
        /// Algorithm selection.
        algorithm: ApspAlgorithm,
        /// Maximum weight magnitude.
        w_max: u64,
        /// NDJSON trace output file.
        trace: Option<String>,
        /// Seeded fault plan to inject (arms the reliable envelope).
        faults: Option<FaultPlan>,
        /// Verify the output with the Las-Vegas driver's certificate.
        verify: bool,
        /// Driver retry budget (extra attempts after the first).
        max_retries: u32,
        /// Communication substrate: the Lenzen clique or coded gossip.
        transport: TransportKind,
        /// Topology for the gossip transport (requires `--transport
        /// gossip`; defaults to `mesh:4` there).
        topology: Option<TopologySpec>,
    },
    /// Compute a distance parameter (diameter / radius / eccentricities)
    /// by extremum search over the node-held eccentricities.
    Distance {
        /// Which parameter to compute.
        param: DistanceParam,
        /// Vertex count.
        n: usize,
        /// RNG seed.
        seed: u64,
        /// Algorithm for the distance-matrix stage.
        algorithm: ApspAlgorithm,
        /// Maximum weight magnitude.
        w_max: u64,
        /// Arc density of the random instance (low values disconnect it).
        density: f64,
        /// Quantum Dürr–Høyer search or classical gather-and-scan.
        backend: ExtremumBackend,
        /// NDJSON trace output file.
        trace: Option<String>,
        /// Seeded fault plan to inject (arms the reliable envelope).
        faults: Option<FaultPlan>,
        /// Verify distances (driver certificate) and the claimed extremum
        /// (distributed witness check).
        verify: bool,
        /// Driver retry budget (extra attempts after the first).
        max_retries: u32,
    },
    /// Run `FindEdgesWithPromise` on a planted instance.
    FindEdges {
        /// Vertex count.
        n: usize,
        /// RNG seed.
        seed: u64,
        /// Quantum or classical Step 3.
        backend: SearchBackend,
        /// NDJSON trace output file.
        trace: Option<String>,
    },
    /// Reconstruct explicit shortest routes.
    Paths {
        /// Vertex count.
        n: usize,
        /// RNG seed.
        seed: u64,
        /// NDJSON trace output file.
        trace: Option<String>,
    },
    /// Count negative triangles through sample pairs by quantum counting.
    Gamma {
        /// Vertex count.
        n: usize,
        /// RNG seed.
        seed: u64,
        /// Phase-register bits.
        bits: u32,
        /// NDJSON trace output file.
        trace: Option<String>,
    },
    /// Compute APSP once, then answer NDJSON queries on stdin.
    Serve {
        /// Vertex count.
        n: usize,
        /// RNG seed.
        seed: u64,
        /// Algorithm for the initial APSP run.
        algorithm: ApspAlgorithm,
        /// Maximum weight magnitude.
        w_max: u64,
        /// Keep at most this many per-source rows resident (LRU) instead
        /// of the full matrix.
        row_cache: Option<usize>,
        /// NDJSON trace output file for the initial run.
        trace: Option<String>,
        /// Seeded fault plan to inject (arms the reliable envelope).
        faults: Option<FaultPlan>,
        /// Verify the initial run with the Las-Vegas driver's certificate.
        verify: bool,
        /// Driver retry budget (extra attempts after the first).
        max_retries: u32,
    },
    /// Render an NDJSON trace file as a span tree.
    TraceSummary {
        /// Trace file to read.
        file: String,
        /// Fail unless the scaled round total equals this.
        expect_rounds: Option<u64>,
        /// Deepest span level to print.
        max_depth: usize,
    },
    /// Print usage.
    Help,
}

/// A CLI parsing error with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text shown by `qcc help`.
pub const USAGE: &str = "\
qcc — quantum distributed APSP in the CONGEST-CLIQUE model

USAGE:
    qcc <COMMAND> [--n N] [--seed S] [flags]

COMMANDS:
    apsp           run all-pairs shortest paths   [--algorithm quantum|classical|naive|semiring] [--wmax W] [--trace FILE]
                   [--faults SPEC] [--verify] [--max-retries K]
                   [--transport clique|gossip] [--topology clique|ring|mesh[:D]|torus]
    diameter       largest shortest-path distance [--algorithm quantum|classical|naive|semiring] [--backend quantum|scan]
                   [--wmax W] [--density D] [--trace FILE] [--faults SPEC] [--verify] [--max-retries K]
    radius         smallest eccentricity          (same flags as diameter)
    ecc            full eccentricity vector       (same flags as diameter, minus --backend)
    find-edges     run FindEdgesWithPromise       [--backend quantum|classical] [--trace FILE]
    paths          APSP with explicit route extraction   [--trace FILE]
    gamma          quantum triangle counting      [--bits B] [--trace FILE]
    serve          compute APSP once, answer queries from cache
                   [--algorithm quantum|classical|naive|semiring] [--wmax W]
                   [--row-cache N] [--faults SPEC] [--verify] [--max-retries K] [--trace FILE]
    trace-summary  render an NDJSON trace tree    FILE [--expect-rounds R] [--max-depth D]
    help           show this message

Defaults: --n 8 (apsp/paths), --n 12 (diameter/radius/ecc), --n 16
(find-edges/gamma), --seed 7, --density 0.5.
--trace FILE writes one NDJSON event per span open/close, per
communication call, and per injected fault; inspect it with
`qcc trace-summary FILE`.

diameter and radius take the extremum of the per-node eccentricities
with a Durr-Hoyer quantum search run through the traced network
(O(sqrt n) expected oracle evaluations); --backend scan gathers all n
values at the coordinator instead. ecc gathers the full vector.
Unreachable pairs make eccentricities infinite: a disconnected graph
honestly reports an infinite diameter rather than 0. --density below
0.5 makes disconnected instances likely; --density 0 guarantees one.
With --verify the claimed extremum is additionally checked by a
distributed certificate (every node compares the claim against its own
eccentricity) and failed attempts retry with fresh randomness before
degrading to the verified classical scan.

--faults SPEC injects seeded, deterministic network faults and arms the
ack/retransmit envelope. SPEC is comma-separated key=value items:
drop=R, corrupt=R, dup=R (rates in [0,1]), seed=S, crash=NODE@ROUND,
link=SRC>DST:RATE, with every node below --n. --verify runs the
self-verifying Las-Vegas driver (retry up to --max-retries times, then
degrade to the classical semiring fallback).

apsp --transport gossip replaces the clique with RLNC-coded gossip over
a general topology (--topology, default mesh:4): every node broadcasts
its adjacency row as random linear combinations of coded chunks, then
solves locally. Coded redundancy replaces the ack/retransmit envelope
as the loss-recovery mechanism; a disconnected topology, a crashed
node, or losses outrunning the redundancy fail with a typed error —
never a silently wrong matrix. The output reports wasted bandwidth
(received packets that taught the receiver nothing).

serve reads NDJSON requests from stdin, one object per line, and writes
one NDJSON response per request: {\"op\":\"dist\",\"u\":0,\"v\":5},
{\"op\":\"path\",...}, {\"op\":\"update\",\"changes\":[{\"u\":0,\"v\":1,
\"weight\":7}]}, {\"op\":\"stats\"}, {\"op\":\"shutdown\"}. Malformed
lines get {\"ok\":false,...} responses. --row-cache N serves from at most
N resident per-source rows (LRU) instead of the full matrix.

EXIT CODES:
    0  success (serve: clean shutdown or end of input)
    1  error (bad input, algorithm failure)
    2  usage error
    3  no attempt passed verification (apsp, serve, diameter, radius
       and ecc with --verify)
    4  the answer came from the classical fallback (degraded)
";

/// Flags and positionals of one subcommand, validated against its
/// declared flag set.
struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positionals: Vec<String>,
}

/// Walks `args`, pairing each `--flag` with its value. Flags listed in
/// `switches` take no value and merely toggle; flags in neither list,
/// value flags without a value, and repeated flags are errors; non-flag
/// tokens are collected as positionals for the caller to vet.
fn collect_flags(
    command: &str,
    args: &[String],
    allowed: &[&str],
    switches: &[&str],
) -> Result<Flags, CliError> {
    let mut values: Vec<(String, String)> = Vec::new();
    let mut seen_switches: Vec<String> = Vec::new();
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if a.starts_with("--") {
            if switches.contains(&a.as_str()) {
                if seen_switches.iter().any(|s| s == a) {
                    return Err(CliError(format!("flag {a} given more than once")));
                }
                seen_switches.push(a.clone());
                i += 1;
                continue;
            }
            if !allowed.contains(&a.as_str()) {
                let mut all: Vec<&str> = allowed.to_vec();
                all.extend_from_slice(switches);
                return Err(CliError(format!(
                    "unknown flag for `{command}`: {a} (allowed: {})",
                    all.join(", ")
                )));
            }
            if values.iter().any(|(k, _)| k == a) {
                return Err(CliError(format!("flag {a} given more than once")));
            }
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    values.push((a.clone(), v.clone()));
                    i += 2;
                }
                _ => return Err(CliError(format!("flag {a} needs a value"))),
            }
        } else {
            positionals.push(a.clone());
            i += 1;
        }
    }
    Ok(Flags {
        values,
        switches: seen_switches,
        positionals,
    })
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("invalid value for {name}: {v}"))),
            None => Ok(default),
        }
    }

    fn opt_num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.get(name) {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError(format!("invalid value for {name}: {v}"))),
            None => Ok(None),
        }
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn trace(&self) -> Option<String> {
        self.get("--trace").map(String::from)
    }

    fn reject_positionals(&self, command: &str) -> Result<(), CliError> {
        match self.positionals.first() {
            Some(p) => Err(CliError(format!(
                "unexpected argument for `{command}`: {p}"
            ))),
            None => Ok(()),
        }
    }
}

/// Parses `--algorithm` into an [`ApspAlgorithm`] (default: quantum).
fn parse_algorithm(flags: &Flags) -> Result<ApspAlgorithm, CliError> {
    match flags.get("--algorithm") {
        None | Some("quantum") => Ok(ApspAlgorithm::QuantumTriangle),
        Some("classical") => Ok(ApspAlgorithm::ClassicalTriangle),
        Some("naive") => Ok(ApspAlgorithm::NaiveBroadcast),
        Some("semiring") => Ok(ApspAlgorithm::SemiringSquaring),
        Some(other) => Err(CliError(format!("unknown algorithm: {other}"))),
    }
}

/// Parses `--faults` into a [`FaultPlan`], if given, for a network of `n`
/// nodes: a crash or link naming a node outside it is an error.
fn parse_fault_plan(flags: &Flags, n: usize) -> Result<Option<FaultPlan>, CliError> {
    let Some(spec) = flags.get("--faults") else {
        return Ok(None);
    };
    let plan =
        FaultPlan::parse(spec).map_err(|e| CliError(format!("invalid --faults spec: {e}")))?;
    let crash_nodes = plan.crashes.iter().map(|&(node, _)| node);
    let link_nodes = plan
        .link_drop
        .iter()
        .flat_map(|&((src, dst), _)| [src, dst]);
    if let Some(node) = crash_nodes.chain(link_nodes).find(|node| node.index() >= n) {
        return Err(CliError(format!(
            "invalid --faults spec: node {} is outside the network of --n {n} nodes",
            node.index()
        )));
    }
    Ok(Some(plan))
}

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] on unknown commands, unknown flags, unknown enum
/// values, repeated flags, stray positionals, or malformed numbers.
///
/// # Examples
///
/// ```
/// use qcc::cli::{parse, Command};
/// use qcc::algo::ApspAlgorithm;
///
/// let cmd = parse(&["apsp".into(), "--n".into(), "12".into()]).unwrap();
/// assert_eq!(
///     cmd,
///     Command::Apsp {
///         n: 12,
///         seed: 7,
///         algorithm: ApspAlgorithm::QuantumTriangle,
///         w_max: 8,
///         trace: None,
///         faults: None,
///         verify: false,
///         max_retries: 3,
///         transport: qcc::algo::TransportKind::Clique,
///         topology: None,
///     }
/// );
/// // A misspelled flag is an error, not a silently ignored token:
/// assert!(parse(&["apsp".into(), "--wamx".into(), "99".into()]).is_err());
/// ```
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(command) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "apsp" => {
            let flags = collect_flags(
                command,
                rest,
                &[
                    "--n",
                    "--seed",
                    "--algorithm",
                    "--wmax",
                    "--trace",
                    "--faults",
                    "--max-retries",
                    "--transport",
                    "--topology",
                ],
                &["--verify"],
            )?;
            flags.reject_positionals(command)?;
            let algorithm = parse_algorithm(&flags)?;
            let n = flags.num("--n", 8)?;
            let faults = parse_fault_plan(&flags, n)?;
            let transport = match flags.get("--transport") {
                None => TransportKind::Clique,
                Some(t) => TransportKind::parse(t).map_err(CliError)?,
            };
            let topology = match flags.get("--topology") {
                None => None,
                Some(t) => Some(TopologySpec::parse(t).map_err(CliError)?),
            };
            if topology.is_some() && transport != TransportKind::Gossip {
                return Err(CliError(
                    "--topology requires --transport gossip (the clique has no choice \
                     of topology)"
                        .into(),
                ));
            }
            Ok(Command::Apsp {
                n,
                seed: flags.num("--seed", 7)?,
                algorithm,
                w_max: flags.num("--wmax", 8)?,
                trace: flags.trace(),
                faults,
                verify: flags.switch("--verify"),
                max_retries: flags.num("--max-retries", 3)?,
                transport,
                topology,
            })
        }
        "diameter" | "radius" | "ecc" => {
            let param = match command.as_str() {
                "diameter" => DistanceParam::Diameter,
                "radius" => DistanceParam::Radius,
                _ => DistanceParam::Eccentricities,
            };
            // `ecc` gathers the full vector; there is no extremum search
            // to pick a backend for.
            let mut allowed = vec![
                "--n",
                "--seed",
                "--algorithm",
                "--wmax",
                "--density",
                "--trace",
                "--faults",
                "--max-retries",
            ];
            if param != DistanceParam::Eccentricities {
                allowed.push("--backend");
            }
            let flags = collect_flags(command, rest, &allowed, &["--verify"])?;
            flags.reject_positionals(command)?;
            let algorithm = parse_algorithm(&flags)?;
            let n: usize = flags.num("--n", 12)?;
            if n == 0 {
                return Err(CliError("--n must be at least 1".into()));
            }
            let faults = parse_fault_plan(&flags, n)?;
            let backend = match flags.get("--backend") {
                None | Some("quantum") => ExtremumBackend::Quantum,
                Some("scan") => ExtremumBackend::ClassicalScan,
                Some(other) => return Err(CliError(format!("unknown backend: {other}"))),
            };
            let density: f64 = flags.num("--density", 0.5)?;
            if !(0.0..=1.0).contains(&density) {
                return Err(CliError(format!(
                    "--density must be in [0, 1], got {density}"
                )));
            }
            Ok(Command::Distance {
                param,
                n,
                seed: flags.num("--seed", 7)?,
                algorithm,
                w_max: flags.num("--wmax", 8)?,
                density,
                backend,
                trace: flags.trace(),
                faults,
                verify: flags.switch("--verify"),
                max_retries: flags.num("--max-retries", 3)?,
            })
        }
        "find-edges" => {
            let flags = collect_flags(
                command,
                rest,
                &["--n", "--seed", "--backend", "--trace"],
                &[],
            )?;
            flags.reject_positionals(command)?;
            let backend = match flags.get("--backend") {
                None | Some("quantum") => SearchBackend::Quantum,
                Some("classical") => SearchBackend::Classical,
                Some(other) => return Err(CliError(format!("unknown backend: {other}"))),
            };
            Ok(Command::FindEdges {
                n: flags.num("--n", 16)?,
                seed: flags.num("--seed", 7)?,
                backend,
                trace: flags.trace(),
            })
        }
        "paths" => {
            let flags = collect_flags(command, rest, &["--n", "--seed", "--trace"], &[])?;
            flags.reject_positionals(command)?;
            Ok(Command::Paths {
                n: flags.num("--n", 8)?,
                seed: flags.num("--seed", 7)?,
                trace: flags.trace(),
            })
        }
        "gamma" => {
            let flags = collect_flags(command, rest, &["--n", "--seed", "--bits", "--trace"], &[])?;
            flags.reject_positionals(command)?;
            Ok(Command::Gamma {
                n: flags.num("--n", 16)?,
                seed: flags.num("--seed", 7)?,
                bits: flags.num("--bits", 9)?,
                trace: flags.trace(),
            })
        }
        "serve" => {
            let flags = collect_flags(
                command,
                rest,
                &[
                    "--n",
                    "--seed",
                    "--algorithm",
                    "--wmax",
                    "--row-cache",
                    "--trace",
                    "--faults",
                    "--max-retries",
                ],
                &["--verify"],
            )?;
            flags.reject_positionals(command)?;
            let algorithm = parse_algorithm(&flags)?;
            let n = flags.num("--n", 8)?;
            let faults = parse_fault_plan(&flags, n)?;
            let row_cache: Option<usize> = flags.opt_num("--row-cache")?;
            if row_cache == Some(0) {
                return Err(CliError("--row-cache must be at least 1".into()));
            }
            Ok(Command::Serve {
                n,
                seed: flags.num("--seed", 7)?,
                algorithm,
                w_max: flags.num("--wmax", 8)?,
                row_cache,
                trace: flags.trace(),
                faults,
                verify: flags.switch("--verify"),
                max_retries: flags.num("--max-retries", 3)?,
            })
        }
        "trace-summary" => {
            let flags = collect_flags(command, rest, &["--expect-rounds", "--max-depth"], &[])?;
            let file = match flags.positionals.as_slice() {
                [f] => f.clone(),
                [] => return Err(CliError("trace-summary needs a trace file argument".into())),
                [_, extra, ..] => {
                    return Err(CliError(format!(
                        "unexpected argument for `{command}`: {extra}"
                    )))
                }
            };
            Ok(Command::TraceSummary {
                file,
                expect_rounds: flags.opt_num("--expect-rounds")?,
                max_depth: flags.num("--max-depth", usize::MAX)?,
            })
        }
        other => Err(CliError(format!(
            "unknown command: {other} (try `qcc help`)"
        ))),
    }
}

/// Creates the NDJSON sink for `--trace FILE`, if requested.
fn open_sink(path: Option<&String>) -> Result<Option<TraceSink>, CliError> {
    match path {
        None => Ok(None),
        Some(p) => TraceSink::to_file(p)
            .map(Some)
            .map_err(|e| CliError(format!("cannot create trace file {p}: {e}"))),
    }
}

fn flush_sink(sink: Option<&TraceSink>) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(sink) = sink {
        sink.flush()?;
    }
    Ok(())
}

/// How a successfully-parsed command finished, mapped to the process
/// exit code by `src/bin/qcc.rs`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// The command completed normally (exit 0).
    Success,
    /// The Las-Vegas driver exhausted its retries and no attempt (nor
    /// the fallback) produced a certificate-verified answer (exit 3).
    VerificationFailed,
    /// The answer is correct and verified, but it came from the
    /// classical semiring fallback, not the requested algorithm
    /// (exit 4 — distinguishable in scripts and CI).
    DegradedFallback,
}

impl RunStatus {
    /// The process exit code this status maps to.
    #[must_use]
    pub fn exit_code(self) -> u8 {
        match self {
            RunStatus::Success => 0,
            RunStatus::VerificationFailed => 3,
            RunStatus::DegradedFallback => 4,
        }
    }

    /// A one-line stderr diagnostic, if the status warrants one.
    #[must_use]
    pub fn diagnostic(self) -> Option<&'static str> {
        match self {
            RunStatus::Success => None,
            RunStatus::VerificationFailed => {
                Some("verification failed: no attempt produced a certified answer")
            }
            RunStatus::DegradedFallback => {
                Some("degraded: answer came from the classical semiring fallback")
            }
        }
    }
}

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Propagates algorithm errors and I/O errors. Driver outcomes that are
/// not hard errors (verification exhaustion, fallback degradation) are
/// reported through the returned [`RunStatus`] instead.
pub fn run(
    cmd: &Command,
    out: &mut dyn std::io::Write,
) -> Result<RunStatus, Box<dyn std::error::Error>> {
    match *cmd {
        Command::Help => {
            write!(out, "{USAGE}")?;
        }
        Command::Apsp {
            n,
            seed,
            algorithm,
            w_max,
            ref trace,
            ref faults,
            verify,
            max_retries,
            transport,
            ref topology,
        } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = crate::graph::generators::random_reweighted_digraph(n, 0.5, w_max, &mut rng);
            let sink = open_sink(trace.as_ref())?;
            if transport == TransportKind::Gossip {
                let cfg = GossipApspConfig {
                    topology: topology.unwrap_or(TopologySpec::Mesh { degree: 4 }),
                    max_retries,
                    // Gossip always certifies: the check is local and free
                    // of rounds, so there is no cheaper mode to offer.
                    verify: true,
                    net: faults.clone().map(NetConfig::faulty).unwrap_or_default(),
                    seed,
                    ..GossipApspConfig::default()
                };
                let driven = gossip_apsp(&g, &cfg, sink.as_ref());
                flush_sink(sink.as_ref())?;
                match driven {
                    Ok(report) => {
                        writeln!(
                            out,
                            "gossip APSP on n={n} (seed {seed}, topology {}): \
                             {} rounds total, {} attempt(s), verified: {}",
                            report.topology,
                            report.total_rounds,
                            report.attempts.len(),
                            report.verified,
                        )?;
                        writeln!(
                            out,
                            "coded gossip: {} packets sent, {} wasted ({:.1}%), \
                             {} full nodes",
                            report.stats.packets_sent,
                            report.stats.wasted_packets,
                            100.0 * report.stats.waste_fraction(),
                            report.stats.full_nodes,
                        )?;
                        let finite = report
                            .distances
                            .entries()
                            .filter(|(_, _, w)| w.is_finite())
                            .count();
                        writeln!(out, "{finite}/{} pairs reachable", n * n)?;
                        return Ok(RunStatus::Success);
                    }
                    Err(ApspError::VerificationFailed { attempts }) => {
                        writeln!(
                            out,
                            "gossip APSP on n={n} (seed {seed}): {attempts} attempt(s) \
                             exhausted without a verified answer"
                        )?;
                        return Ok(RunStatus::VerificationFailed);
                    }
                    Err(e) => return Err(Box::new(e)),
                }
            }
            if faults.is_none() && !verify {
                let report = apsp_traced(&g, Params::paper(), algorithm, &mut rng, sink.as_ref())?;
                flush_sink(sink.as_ref())?;
                writeln!(
                    out,
                    "{algorithm:?} APSP on n={n} (seed {seed}): {} rounds, {} products",
                    report.rounds, report.products
                )?;
                let finite = report
                    .distances
                    .entries()
                    .filter(|(_, _, w)| w.is_finite())
                    .count();
                writeln!(out, "{finite}/{} pairs reachable", n * n)?;
                return Ok(RunStatus::Success);
            }
            let cfg = DriverConfig {
                algorithm,
                params: Params::paper(),
                max_retries,
                verify,
                fallback: FallbackPolicy::Semiring,
                net: faults.clone().map(NetConfig::faulty).unwrap_or_default(),
            };
            let driven = apsp_driver(&g, &cfg, &mut rng, sink.as_ref());
            flush_sink(sink.as_ref())?;
            match driven {
                Ok(out_report) => {
                    writeln!(
                        out,
                        "{algorithm:?} APSP on n={n} (seed {seed}): {} rounds total, \
                         {} attempt(s), verified: {}, fallback: {}",
                        out_report.total_rounds,
                        out_report.attempts.len(),
                        out_report.verified,
                        out_report.used_fallback
                    )?;
                    let finite = out_report
                        .report
                        .distances
                        .entries()
                        .filter(|(_, _, w)| w.is_finite())
                        .count();
                    writeln!(out, "{finite}/{} pairs reachable", n * n)?;
                    if out_report.used_fallback {
                        return Ok(RunStatus::DegradedFallback);
                    }
                }
                Err(ApspError::VerificationFailed { attempts }) => {
                    writeln!(
                        out,
                        "{algorithm:?} APSP on n={n} (seed {seed}): \
                         {attempts} attempt(s) exhausted without a verified answer"
                    )?;
                    return Ok(RunStatus::VerificationFailed);
                }
                Err(e) => return Err(Box::new(e)),
            }
        }
        Command::Distance {
            param,
            n,
            seed,
            algorithm,
            w_max,
            density,
            backend,
            ref trace,
            ref faults,
            verify,
            max_retries,
        } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let g =
                crate::graph::generators::random_reweighted_digraph(n, density, w_max, &mut rng);
            let sink = open_sink(trace.as_ref())?;
            let cfg = ExtremumConfig {
                backend,
                driver: DriverConfig {
                    algorithm,
                    max_retries,
                    verify,
                    net: faults.clone().map(NetConfig::faulty).unwrap_or_default(),
                    ..DriverConfig::default()
                },
                ..ExtremumConfig::new(param)
            };
            let result = distance_params(&g, &cfg, &mut rng, sink.as_ref());
            flush_sink(sink.as_ref())?;
            let report = match result {
                Ok(report) => report,
                Err(ApspError::VerificationFailed { attempts }) => {
                    writeln!(
                        out,
                        "{} on n={n} (seed {seed}): \
                         {attempts} attempt(s) exhausted without a verified answer",
                        param.label()
                    )?;
                    return Ok(RunStatus::VerificationFailed);
                }
                Err(e) => return Err(Box::new(e)),
            };
            let search = match param {
                DistanceParam::Eccentricities => "gather",
                _ => backend.label(),
            };
            writeln!(
                out,
                "{} via {algorithm:?}+{search} on n={n} (seed {seed}): \
                 {} rounds total, {} oracle evaluations",
                param.label(),
                report.total_rounds,
                report.evaluations
            )?;
            match param {
                DistanceParam::Eccentricities => {
                    for (v, e) in report.eccentricities.iter().enumerate() {
                        writeln!(out, "  ecc({v}) = {e}")?;
                    }
                }
                _ => {
                    let witness = report.witness.unwrap_or(0);
                    writeln!(
                        out,
                        "{} = {} (witness vertex {witness})",
                        param.label(),
                        report.value
                    )?;
                }
            }
            if !report.connected {
                writeln!(
                    out,
                    "graph is disconnected: unreachable pairs have distance inf"
                )?;
            }
            writeln!(
                out,
                "distance stage {} rounds, search stage {} rounds, \
                 {} search attempt(s), verified: {}, fallback: {}",
                report.distance_rounds,
                report.search_rounds,
                report.search_attempts.len(),
                report.verified,
                report.used_fallback
            )?;
            if report.used_fallback {
                return Ok(RunStatus::DegradedFallback);
            }
        }
        Command::FindEdges {
            n,
            seed,
            backend,
            ref trace,
        } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, _) = crate::graph::generators::planted_disjoint_triangles(
                n,
                n / 8,
                (8.0 / n as f64).min(0.5),
                &mut rng,
            );
            let s = PairSet::all_pairs(n);
            let mut net = Clique::new(n)?;
            let sink = open_sink(trace.as_ref())?;
            if let Some(sink) = &sink {
                net.set_trace_sink(sink.clone());
            }
            net.push_span("find-edges");
            let report = compute_pairs(&g, &s, Params::paper(), backend, &mut net, &mut rng)?;
            net.close_all_spans();
            flush_sink(sink.as_ref())?;
            let exact = report.found == reference_find_edges(&g, &s);
            writeln!(
                out,
                "{backend:?} FindEdgesWithPromise on n={n}: {} pairs in {} rounds (exact: {exact})",
                report.found.len(),
                report.rounds
            )?;
        }
        Command::Paths { n, seed, ref trace } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = crate::graph::generators::random_reweighted_digraph(n, 0.5, 6, &mut rng);
            let sink = open_sink(trace.as_ref())?;
            let report = apsp_with_paths_traced(
                &g,
                Params::paper(),
                SearchBackend::Classical,
                &mut rng,
                sink.as_ref(),
            )?;
            flush_sink(sink.as_ref())?;
            writeln!(out, "witnessed APSP on n={n}: {} rounds", report.rounds)?;
            for v in 1..n.min(4) {
                match report.oracle.path(0, v) {
                    Some(p) => {
                        let d = report.oracle.distances()[(0, v)];
                        writeln!(out, "  0 -> {v}: dist {d}, route {p:?}")?;
                    }
                    None => writeln!(out, "  0 -> {v}: unreachable")?,
                }
            }
        }
        Command::Gamma {
            n,
            seed,
            bits,
            ref trace,
        } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = crate::graph::generators::random_ugraph(n, 0.5, 5, &mut rng);
            let pairs: PairSet = g.edges().map(|(u, v, _)| (u, v)).take(5).collect();
            if pairs.is_empty() {
                writeln!(out, "instance has no edges; nothing to count")?;
                return Ok(RunStatus::Success);
            }
            let mut net = Clique::new(n)?;
            let sink = open_sink(trace.as_ref())?;
            if let Some(sink) = &sink {
                net.set_trace_sink(sink.clone());
            }
            net.push_span("gamma");
            let report = quantum_gamma_count(&g, &pairs, bits, 5, &mut net, &mut rng)?;
            net.close_all_spans();
            flush_sink(sink.as_ref())?;
            for &(u, v, est, truth) in &report.estimates {
                writeln!(out, "  Gamma({u}, {v}) ~= {est} (true {truth})")?;
            }
            writeln!(
                out,
                "{} oracle queries/pair, {} rounds",
                report.oracle_queries, report.rounds
            )?;
        }
        Command::Serve {
            n,
            seed,
            algorithm,
            w_max,
            row_cache,
            ref trace,
            ref faults,
            verify,
            max_retries,
        } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = crate::graph::generators::random_reweighted_digraph(n, 0.5, w_max, &mut rng);
            let sink = open_sink(trace.as_ref())?;
            // Fault injection and verification only compose through the
            // Las-Vegas driver; the witnessed-squaring plan adds explicit
            // route witnesses when neither is requested.
            let plan = if faults.is_some() || verify {
                LoadPlan::Driver(Box::new(DriverConfig {
                    algorithm,
                    params: Params::paper(),
                    max_retries,
                    verify,
                    fallback: FallbackPolicy::Semiring,
                    net: faults.clone().map(NetConfig::faulty).unwrap_or_default(),
                }))
            } else {
                match algorithm {
                    ApspAlgorithm::QuantumTriangle => LoadPlan::Witnessed {
                        backend: SearchBackend::Quantum,
                    },
                    ApspAlgorithm::ClassicalTriangle => LoadPlan::Witnessed {
                        backend: SearchBackend::Classical,
                    },
                    other => LoadPlan::Driver(Box::new(DriverConfig {
                        algorithm: other,
                        params: Params::paper(),
                        max_retries,
                        verify: false,
                        fallback: FallbackPolicy::Semiring,
                        net: NetConfig::default(),
                    })),
                }
            };
            let cfg = EngineConfig {
                plan,
                params: Params::paper(),
                row_cache,
            };
            let loaded = QueryEngine::load(g, &cfg, &mut rng, sink.as_ref());
            flush_sink(sink.as_ref())?;
            let mut engine = match loaded {
                Ok(engine) => engine,
                Err(ApspError::VerificationFailed { attempts }) => {
                    writeln!(
                        out,
                        "serve: {attempts} attempt(s) exhausted without a verified answer"
                    )?;
                    return Ok(RunStatus::VerificationFailed);
                }
                Err(e) => return Err(Box::new(e)),
            };
            let lines = crate::serve::spawn_stdin_reader();
            crate::serve::serve(&mut engine, &lines, out)?;
            if engine.load_report().used_fallback {
                return Ok(RunStatus::DegradedFallback);
            }
        }
        Command::TraceSummary {
            ref file,
            expect_rounds,
            max_depth,
        } => {
            let text = std::fs::read_to_string(file)
                .map_err(|e| CliError(format!("cannot read {file}: {e}")))?;
            let events = parse_trace(&text)?;
            let summary = TraceSummary::from_events(&events)?;
            summary.verify()?;
            write!(out, "{}", summary.render(max_depth))?;
            if let Some(expected) = expect_rounds {
                let got = summary.total_rounds();
                if got != expected {
                    return Err(Box::new(CliError(format!(
                        "trace total is {got} rounds, expected {expected}"
                    ))));
                }
                writeln!(out, "round total matches expected {expected}")?;
            }
        }
    }
    Ok(RunStatus::Success)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("qcc-cli-{tag}-{}.ndjson", std::process::id()))
    }

    #[test]
    fn empty_and_help_parse_to_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn apsp_flags_parse() {
        let cmd = parse(&argv("apsp --n 12 --seed 3 --algorithm semiring --wmax 99")).unwrap();
        assert_eq!(
            cmd,
            Command::Apsp {
                n: 12,
                seed: 3,
                algorithm: ApspAlgorithm::SemiringSquaring,
                w_max: 99,
                trace: None,
                faults: None,
                verify: false,
                max_retries: 3,
                transport: TransportKind::Clique,
                topology: None,
            }
        );
    }

    #[test]
    fn apsp_fault_flags_parse() {
        let cmd = parse(&argv(
            "apsp --faults drop=0.1,seed=3 --verify --max-retries 2",
        ))
        .unwrap();
        match cmd {
            Command::Apsp {
                faults,
                verify,
                max_retries,
                ..
            } => {
                let plan = faults.expect("fault plan parsed");
                assert!((plan.drop_rate - 0.1).abs() < 1e-12);
                assert_eq!(plan.seed, 3);
                assert!(verify);
                assert_eq!(max_retries, 2);
            }
            other => panic!("unexpected command: {other:?}"),
        }
    }

    #[test]
    fn apsp_transport_flags_parse() {
        let cmd = parse(&argv("apsp --transport gossip --topology mesh:6")).unwrap();
        match cmd {
            Command::Apsp {
                transport,
                topology,
                ..
            } => {
                assert_eq!(transport, TransportKind::Gossip);
                assert_eq!(topology, Some(TopologySpec::Mesh { degree: 6 }));
            }
            other => panic!("unexpected command: {other:?}"),
        }
        // Topology only makes sense for gossip; on the clique it is a
        // pointed error, not a silently ignored flag.
        let e = parse(&argv("apsp --topology ring")).unwrap_err();
        assert!(e.0.contains("--transport gossip"), "{e}");
        let e = parse(&argv("apsp --transport telepathy")).unwrap_err();
        assert!(e.0.contains("telepathy"), "{e}");
        let e = parse(&argv("apsp --transport gossip --topology blob")).unwrap_err();
        assert!(e.0.contains("blob"), "{e}");
    }

    #[test]
    fn run_gossip_apsp_smoke() {
        let mut buf = Vec::new();
        let cmd = Command::Apsp {
            n: 6,
            seed: 1,
            algorithm: ApspAlgorithm::NaiveBroadcast,
            w_max: 5,
            trace: None,
            faults: Some(FaultPlan::parse("drop=0.05,seed=2").unwrap()),
            verify: false,
            max_retries: 3,
            transport: TransportKind::Gossip,
            topology: Some(TopologySpec::Ring),
        };
        let status = run(&cmd, &mut buf).unwrap();
        assert_eq!(status, RunStatus::Success);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("rounds total"), "{text}");
        assert!(text.contains("wasted"), "{text}");
        assert!(text.contains("verified: true"), "{text}");
        assert!(text.contains("topology ring"), "{text}");
    }

    #[test]
    fn distance_flags_parse() {
        let cmd = parse(&argv(
            "diameter --n 20 --seed 3 --algorithm naive --wmax 9 --density 0.25 --backend scan",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Distance {
                param: DistanceParam::Diameter,
                n: 20,
                seed: 3,
                algorithm: ApspAlgorithm::NaiveBroadcast,
                w_max: 9,
                density: 0.25,
                backend: ExtremumBackend::ClassicalScan,
                trace: None,
                faults: None,
                verify: false,
                max_retries: 3,
            }
        );
        // Defaults: n 12, seed 7, quantum APSP + quantum search.
        match parse(&argv("radius")).unwrap() {
            Command::Distance {
                param,
                n,
                seed,
                algorithm,
                backend,
                verify,
                ..
            } => {
                assert_eq!(param, DistanceParam::Radius);
                assert_eq!((n, seed), (12, 7));
                assert_eq!(algorithm, ApspAlgorithm::QuantumTriangle);
                assert_eq!(backend, ExtremumBackend::Quantum);
                assert!(!verify);
            }
            other => panic!("unexpected command: {other:?}"),
        }
        match parse(&argv("ecc --verify")).unwrap() {
            Command::Distance { param, verify, .. } => {
                assert_eq!(param, DistanceParam::Eccentricities);
                assert!(verify);
            }
            other => panic!("unexpected command: {other:?}"),
        }
    }

    #[test]
    fn distance_rejects_bad_flags() {
        // ecc has no extremum search, so no --backend.
        let e = parse(&argv("ecc --backend scan")).unwrap_err();
        assert!(e.0.contains("--backend"), "{e}");
        assert!(parse(&argv("diameter --backend analog")).is_err());
        assert!(parse(&argv("diameter --density 1.5")).is_err());
        assert!(parse(&argv("diameter --density -0.1")).is_err());
        assert!(parse(&argv("radius --n 0")).is_err());
        assert!(parse(&argv("diameter --algorithm warp")).is_err());
        assert!(parse(&argv("diameter stray")).is_err());
    }

    #[test]
    fn serve_flags_parse() {
        let cmd = parse(&argv("serve --n 12 --seed 3 --row-cache 4 --verify")).unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                n: 12,
                seed: 3,
                algorithm: ApspAlgorithm::QuantumTriangle,
                w_max: 8,
                row_cache: Some(4),
                trace: None,
                faults: None,
                verify: true,
                max_retries: 3,
            }
        );
        // Defaults mirror `apsp`.
        match parse(&argv("serve")).unwrap() {
            Command::Serve {
                n,
                seed,
                row_cache,
                verify,
                ..
            } => {
                assert_eq!((n, seed, row_cache, verify), (8, 7, None, false));
            }
            other => panic!("unexpected command: {other:?}"),
        }
    }

    #[test]
    fn serve_rejects_bad_flags() {
        let e = parse(&argv("serve --row-cache 0")).unwrap_err();
        assert!(e.0.contains("--row-cache"), "{e}");
        assert!(parse(&argv("serve --row-cache many")).is_err());
        assert!(parse(&argv("serve --algorithm warp")).is_err());
        assert!(parse(&argv("serve --batch 9")).is_err());
        assert!(parse(&argv("serve stray")).is_err());
    }

    #[test]
    fn bad_fault_specs_are_rejected() {
        let e = parse(&argv("apsp --faults drop=eleven")).unwrap_err();
        assert!(e.0.contains("invalid --faults spec"), "{e}");
        assert!(parse(&argv("apsp --faults warp=0.5")).is_err());
        // --verify is a switch: a trailing value becomes a stray positional.
        let e = parse(&argv("apsp --verify yes")).unwrap_err();
        assert!(e.0.contains("yes"), "{e}");
        // Switches cannot repeat either.
        assert!(parse(&argv("apsp --verify --verify")).is_err());
    }

    #[test]
    fn out_of_range_fault_nodes_are_rejected() {
        // A crash or link naming a node outside the network is rejected
        // with the node named, on every command that takes --faults.
        for (line, node) in [
            ("apsp --n 4 --faults crash=9@0 --verify", 9),
            ("apsp --n 4 --transport gossip --faults crash=4@0", 4),
            ("apsp --n 4 --faults link=0>9:0.5", 9),
            ("diameter --n 4 --faults drop=0.1,link=5>0:0.5", 5),
            ("serve --n 4 --faults crash=7@3", 7),
        ] {
            let e = parse(&argv(line)).unwrap_err();
            assert!(
                e.0.contains(&format!("node {node} is outside the network")),
                "{line}: {e}"
            );
        }
        assert!(parse(&argv("apsp --n 4 --faults crash=3@0,link=0>3:0.5")).is_ok());
    }

    #[test]
    fn trace_flag_parses_on_every_runner() {
        for line in [
            "apsp --trace out.ndjson",
            "find-edges --trace out.ndjson",
            "paths --trace out.ndjson",
            "gamma --trace out.ndjson",
        ] {
            let cmd = parse(&argv(line)).unwrap();
            let trace = match cmd {
                Command::Apsp { trace, .. }
                | Command::FindEdges { trace, .. }
                | Command::Paths { trace, .. }
                | Command::Gamma { trace, .. } => trace,
                other => panic!("unexpected command: {other:?}"),
            };
            assert_eq!(trace.as_deref(), Some("out.ndjson"), "{line}");
        }
    }

    #[test]
    fn trace_summary_parses() {
        assert_eq!(
            parse(&argv(
                "trace-summary run.ndjson --expect-rounds 42 --max-depth 3"
            ))
            .unwrap(),
            Command::TraceSummary {
                file: "run.ndjson".into(),
                expect_rounds: Some(42),
                max_depth: 3,
            }
        );
        assert!(parse(&argv("trace-summary")).is_err());
        assert!(parse(&argv("trace-summary a.ndjson b.ndjson")).is_err());
    }

    #[test]
    fn unknown_values_are_rejected() {
        assert!(parse(&argv("apsp --algorithm warp")).is_err());
        assert!(parse(&argv("find-edges --backend analog")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("apsp --n")).is_err());
        assert!(parse(&argv("apsp --n twelve")).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_and_named() {
        let e = parse(&argv("apsp --wamx 99")).unwrap_err();
        assert!(e.0.contains("--wamx"), "{e}");
        assert!(e.0.contains("--wmax"), "should list allowed flags: {e}");
        // Flags valid on one subcommand are still rejected on another.
        assert!(parse(&argv("paths --bits 3")).is_err());
        assert!(parse(&argv("gamma --wmax 2")).is_err());
        assert!(parse(&argv("find-edges --algorithm quantum")).is_err());
    }

    #[test]
    fn stray_positionals_and_repeats_are_rejected() {
        let e = parse(&argv("apsp extra")).unwrap_err();
        assert!(e.0.contains("extra"), "{e}");
        let e = parse(&argv("apsp --n 4 --n 5")).unwrap_err();
        assert!(e.0.contains("--n"), "{e}");
    }

    #[test]
    fn run_help_prints_usage() {
        let mut buf = Vec::new();
        run(&Command::Help, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("USAGE"));
    }

    #[test]
    fn run_apsp_smoke() {
        let mut buf = Vec::new();
        let cmd = Command::Apsp {
            n: 6,
            seed: 1,
            algorithm: ApspAlgorithm::NaiveBroadcast,
            w_max: 5,
            trace: None,
            faults: None,
            verify: false,
            max_retries: 3,
            transport: TransportKind::Clique,
            topology: None,
        };
        let status = run(&cmd, &mut buf).unwrap();
        assert_eq!(status, RunStatus::Success);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("NaiveBroadcast"));
        assert!(text.contains("rounds"));
    }

    #[test]
    fn run_find_edges_smoke() {
        let mut buf = Vec::new();
        let cmd = Command::FindEdges {
            n: 16,
            seed: 2,
            backend: SearchBackend::Classical,
            trace: None,
        };
        run(&cmd, &mut buf).unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("exact: true"));
    }

    #[test]
    fn run_paths_smoke() {
        let mut buf = Vec::new();
        run(
            &Command::Paths {
                n: 6,
                seed: 3,
                trace: None,
            },
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("witnessed APSP"));
    }

    #[test]
    fn run_gamma_smoke() {
        let mut buf = Vec::new();
        run(
            &Command::Gamma {
                n: 12,
                seed: 4,
                bits: 6,
                trace: None,
            },
            &mut buf,
        )
        .unwrap();
        assert!(String::from_utf8(buf).unwrap().contains("Gamma("));
    }

    fn distance_cmd(param: DistanceParam, n: usize, seed: u64, density: f64) -> Command {
        Command::Distance {
            param,
            n,
            seed,
            algorithm: ApspAlgorithm::NaiveBroadcast,
            w_max: 5,
            density,
            backend: ExtremumBackend::Quantum,
            trace: None,
            faults: None,
            verify: false,
            max_retries: 3,
        }
    }

    #[test]
    fn run_diameter_smoke() {
        let mut buf = Vec::new();
        let status = run(&distance_cmd(DistanceParam::Diameter, 8, 1, 0.6), &mut buf).unwrap();
        assert_eq!(status, RunStatus::Success);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("diameter = "), "{text}");
        assert!(text.contains("witness vertex"), "{text}");
        assert!(text.contains("rounds total"), "{text}");
    }

    #[test]
    fn run_distance_on_empty_graph_reports_disconnected_and_inf() {
        // Density 0 guarantees no arcs: every off-diagonal distance is
        // infinite, so the honest diameter is inf, not 0.
        let mut buf = Vec::new();
        let status = run(&distance_cmd(DistanceParam::Diameter, 5, 2, 0.0), &mut buf).unwrap();
        assert_eq!(status, RunStatus::Success);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("diameter = inf"), "{text}");
        assert!(text.contains("disconnected"), "{text}");
    }

    #[test]
    fn run_ecc_lists_the_full_vector() {
        let mut buf = Vec::new();
        let status = run(
            &distance_cmd(DistanceParam::Eccentricities, 5, 3, 1.0),
            &mut buf,
        )
        .unwrap();
        assert_eq!(status, RunStatus::Success);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("ecc(0) = "), "{text}");
        assert!(text.contains("ecc(4) = "), "{text}");
    }

    #[test]
    fn run_traced_radius_then_summary_agrees_on_rounds() {
        let path = temp_path("radius-summary");
        let mut buf = Vec::new();
        let mut cmd = distance_cmd(DistanceParam::Radius, 7, 4, 0.6);
        if let Command::Distance { trace, verify, .. } = &mut cmd {
            *trace = Some(path.to_string_lossy().into_owned());
            *verify = true;
        }
        let status = run(&cmd, &mut buf).unwrap();
        assert_eq!(status, RunStatus::Success);
        let text = String::from_utf8(buf).unwrap();
        let rounds: u64 = text
            .split(": ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("rounds in output");
        let mut buf = Vec::new();
        let status = run(
            &Command::TraceSummary {
                file: path.to_string_lossy().into_owned(),
                expect_rounds: Some(rounds),
                max_depth: usize::MAX,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(status, RunStatus::Success);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("distance-param"), "{text}");
        assert!(
            text.contains(&format!("round total matches expected {rounds}")),
            "{text}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_faulty_verified_diameter_reports_success() {
        let mut buf = Vec::new();
        let mut cmd = distance_cmd(DistanceParam::Diameter, 6, 9, 0.6);
        if let Command::Distance { faults, verify, .. } = &mut cmd {
            *faults = Some(FaultPlan::parse("drop=0.1,corrupt=0.02,seed=4").unwrap());
            *verify = true;
        }
        let status = run(&cmd, &mut buf).unwrap();
        assert_eq!(status, RunStatus::Success);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("verified: true"), "{text}");
        assert!(text.contains("fallback: false"), "{text}");
    }

    #[test]
    fn run_faulty_verified_apsp_reports_success() {
        let path = temp_path("faulty-verify");
        let mut buf = Vec::new();
        let cmd = Command::Apsp {
            n: 6,
            seed: 9,
            algorithm: ApspAlgorithm::NaiveBroadcast,
            w_max: 5,
            trace: Some(path.to_string_lossy().into_owned()),
            faults: Some(FaultPlan::parse("drop=0.1,corrupt=0.02,seed=4").unwrap()),
            verify: true,
            max_retries: 3,
            transport: TransportKind::Clique,
            topology: None,
        };
        let status = run(&cmd, &mut buf).unwrap();
        assert_eq!(status, RunStatus::Success);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("verified: true"), "{text}");
        assert!(text.contains("fallback: false"), "{text}");

        // The driver's reported round total must agree with the trace.
        let rounds: u64 = text
            .split(": ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("rounds in output");
        let mut buf = Vec::new();
        let status = run(
            &Command::TraceSummary {
                file: path.to_string_lossy().into_owned(),
                expect_rounds: Some(rounds),
                max_depth: usize::MAX,
            },
            &mut buf,
        )
        .unwrap();
        assert_eq!(status, RunStatus::Success);
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains(&format!("round total matches expected {rounds}")),
            "{text}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_crashed_node_exhausts_verification() {
        // Node 0 crashes at round 0 and stays down: every attempt and the
        // semiring fallback lose it, so the driver can never certify.
        let mut buf = Vec::new();
        let cmd = Command::Apsp {
            n: 5,
            seed: 2,
            algorithm: ApspAlgorithm::NaiveBroadcast,
            w_max: 5,
            trace: None,
            faults: Some(FaultPlan::parse("crash=0@0").unwrap()),
            verify: true,
            max_retries: 0,
            transport: TransportKind::Clique,
            topology: None,
        };
        let status = run(&cmd, &mut buf).unwrap();
        assert_eq!(status, RunStatus::VerificationFailed);
        assert_eq!(status.exit_code(), 3);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("without a verified answer"), "{text}");
    }

    #[test]
    fn run_status_exit_codes_are_distinct() {
        assert_eq!(RunStatus::Success.exit_code(), 0);
        assert_eq!(RunStatus::VerificationFailed.exit_code(), 3);
        assert_eq!(RunStatus::DegradedFallback.exit_code(), 4);
        assert!(RunStatus::Success.diagnostic().is_none());
        assert!(RunStatus::DegradedFallback.diagnostic().is_some());
    }

    #[test]
    fn run_traced_apsp_then_summary_agrees_on_rounds() {
        let path = temp_path("apsp-summary");
        let mut buf = Vec::new();
        run(
            &Command::Apsp {
                n: 6,
                seed: 5,
                algorithm: ApspAlgorithm::NaiveBroadcast,
                w_max: 5,
                trace: Some(path.to_string_lossy().into_owned()),
                faults: None,
                verify: false,
                max_retries: 3,
                transport: TransportKind::Clique,
                topology: None,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let rounds: u64 = text
            .split(": ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("rounds in output");

        let mut buf = Vec::new();
        run(
            &Command::TraceSummary {
                file: path.to_string_lossy().into_owned(),
                expect_rounds: Some(rounds),
                max_depth: usize::MAX,
            },
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("apsp"), "{text}");
        assert!(
            text.contains(&format!("round total matches expected {rounds}")),
            "{text}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_summary_rejects_wrong_expected_rounds() {
        let path = temp_path("bad-expect");
        let mut buf = Vec::new();
        run(
            &Command::Paths {
                n: 5,
                seed: 6,
                trace: Some(path.to_string_lossy().into_owned()),
            },
            &mut buf,
        )
        .unwrap();
        let e = run(
            &Command::TraceSummary {
                file: path.to_string_lossy().into_owned(),
                expect_rounds: Some(u64::MAX),
                max_depth: usize::MAX,
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(e.to_string().contains("expected"), "{e}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_summary_rejects_malformed_files() {
        let path = temp_path("malformed");
        std::fs::write(&path, "this is not ndjson\n").unwrap();
        let e = run(
            &Command::TraceSummary {
                file: path.to_string_lossy().into_owned(),
                expect_rounds: None,
                max_depth: usize::MAX,
            },
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(e.to_string().contains("line 1"), "{e}");
        std::fs::remove_file(&path).ok();
    }
}
