//! Command-line front-end (argument parsing and dispatch for `qcc`).
//!
//! Kept dependency-free: a small hand-rolled `--flag value` parser feeding
//! typed commands. One table, `FLAG_TABLE`, lists the exact flag set of
//! every subcommand, and anything else — a misspelled flag, a stray
//! positional, a repeated flag — is rejected with an error naming the
//! offender, so typos like `--wamx` fail loudly instead of silently running
//! with defaults. The solving commands (`apsp`, `diameter`/`radius`/`ecc`,
//! `serve`) share one [`Solve`] for their common flags, which also builds
//! their instance and their Las-Vegas driver. The binary in
//! `src/bin/qcc.rs` is a thin wrapper so the parsing and dispatch logic
//! stays unit-testable.

use crate::algo::{
    apsp_driver, apsp_traced, apsp_with_paths_traced, compute_pairs, distance_params, gossip_apsp,
    quantum_gamma_count, reference_find_edges, ApspAlgorithm, ApspError, DistanceParam,
    DriverConfig, EngineConfig, ExtremumBackend, ExtremumConfig, FallbackPolicy, GossipApspConfig,
    LoadPlan, PairSet, Params, QueryEngine, SearchBackend, TransportKind, MAX_GAMMA_BITS,
};
use crate::congest::{
    parse_trace, Clique, FaultPlan, NetConfig, TopologySpec, TraceSink, TraceSummary,
};
use crate::graph::generators::random_reweighted_digraph;
use crate::graph::{DiGraph, WeightMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::fmt;
use std::io::Write;

/// The flags the solving commands share: the seeded instance, the APSP
/// algorithm, and the Las-Vegas driver's fault plan, verification and
/// retry budget.
#[derive(Clone, Debug, PartialEq)]
pub struct Solve {
    /// Vertex count.
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
    /// Algorithm for the APSP run (the distance-matrix stage of
    /// `diameter`/`radius`/`ecc`, the initial load of `serve`).
    pub algorithm: ApspAlgorithm,
    /// Maximum weight magnitude.
    pub w_max: u64,
    /// NDJSON trace output file.
    pub trace: Option<String>,
    /// Seeded fault plan to inject (arms the reliable envelope).
    pub faults: Option<FaultPlan>,
    /// Verify the output with the Las-Vegas driver's certificate (and, for
    /// `diameter`/`radius`, the claimed extremum with a distributed
    /// witness check).
    pub verify: bool,
    /// Driver retry budget (extra attempts after the first).
    pub max_retries: u32,
}

/// A parsed CLI invocation.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Run APSP on a random instance and report rounds.
    Apsp {
        /// Instance, algorithm and driver settings.
        solve: Solve,
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
        /// Instance, distance-matrix algorithm and driver settings.
        solve: Solve,
        /// Arc density of the random instance (low values disconnect it).
        density: f64,
        /// Quantum Dürr–Høyer search or classical gather-and-scan.
        backend: ExtremumBackend,
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
        /// Instance, algorithm and driver settings of the initial run.
        solve: Solve,
        /// Keep at most this many per-source rows resident (LRU) instead
        /// of the full matrix.
        row_cache: Option<usize>,
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

impl Error for CliError {}

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

/// Every subcommand's value flags, then its switches: the only flags
/// `collect_flags` accepts, in the order an unknown-flag error lists them.
const FLAG_TABLE: [(&str, &str, &str); 9] = [
    (
        "apsp",
        "--n --seed --algorithm --wmax --trace --faults --max-retries --transport --topology",
        "--verify",
    ),
    ("diameter", DISTANCE_FLAGS, "--verify"),
    ("radius", DISTANCE_FLAGS, "--verify"),
    // `ecc` gathers the full vector; there is no extremum search to pick
    // a backend for.
    (
        "ecc",
        "--n --seed --algorithm --wmax --density --trace --faults --max-retries",
        "--verify",
    ),
    ("find-edges", "--n --seed --backend --trace", ""),
    ("paths", "--n --seed --trace", ""),
    ("gamma", "--n --seed --bits --trace", ""),
    (
        "serve",
        "--n --seed --algorithm --wmax --row-cache --trace --faults --max-retries",
        "--verify",
    ),
    ("trace-summary", "--expect-rounds --max-depth", ""),
];

/// The value flags of `diameter` and `radius`.
const DISTANCE_FLAGS: &str =
    "--n --seed --algorithm --wmax --density --trace --faults --max-retries --backend";

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
    allowed: &str,
    switches: &str,
) -> Result<Flags, CliError> {
    let mut flags = Flags {
        values: Vec::new(),
        switches: Vec::new(),
        positionals: Vec::new(),
    };
    let mut args = args.iter();
    while let Some(a) = args.next() {
        if !a.starts_with("--") {
            flags.positionals.push(a.clone());
            continue;
        }
        let switch = switches.split_whitespace().any(|s| s == a);
        if !switch && !allowed.split_whitespace().any(|s| s == a) {
            let all: Vec<&str> = allowed
                .split_whitespace()
                .chain(switches.split_whitespace())
                .collect();
            return Err(CliError(format!(
                "unknown flag for `{command}`: {a} (allowed: {})",
                all.join(", ")
            )));
        }
        if flags.switch(a) || flags.get(a).is_some() {
            return Err(CliError(format!("flag {a} given more than once")));
        }
        if switch {
            flags.switches.push(a.clone());
            continue;
        }
        match args.next() {
            Some(v) if !v.starts_with("--") => flags.values.push((a.clone(), v.clone())),
            _ => return Err(CliError(format!("flag {a} needs a value"))),
        }
    }
    Ok(flags)
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.opt_num(name)?.unwrap_or(default))
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

    /// `--n`, defaulting to `default`: every command needs at least one
    /// node.
    fn n(&self, default: usize) -> Result<usize, CliError> {
        match self.num("--n", default)? {
            0 => Err(CliError("--n must be at least 1".into())),
            n => Ok(n),
        }
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn trace(&self) -> Option<String> {
        self.get("--trace").map(String::from)
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

impl Solve {
    /// Reads the shared flags with `--n` defaulting to `default_n`, and the
    /// subcommand's own flags through `own`. `own` runs between the fault
    /// plan and the seed: that order decides which of two bad flags an
    /// error names.
    fn parse<T>(
        flags: &Flags,
        default_n: usize,
        own: impl FnOnce(&Flags) -> Result<T, CliError>,
    ) -> Result<(Solve, T), CliError> {
        let algorithm = parse_algorithm(flags)?;
        let n = flags.n(default_n)?;
        let faults = parse_fault_plan(flags, n)?;
        let own = own(flags)?;
        let solve = Solve {
            n,
            seed: flags.num("--seed", 7)?,
            algorithm,
            w_max: flags.num("--wmax", 8)?,
            trace: flags.trace(),
            faults,
            verify: flags.switch("--verify"),
            max_retries: flags.num("--max-retries", 3)?,
        };
        Ok((solve, own))
    }

    /// The seeded generator and the random instance drawn from it at
    /// arc density `density`.
    fn instance(&self, density: f64) -> (StdRng, DiGraph) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let g = random_reweighted_digraph(self.n, density, self.w_max, &mut rng);
        (rng, g)
    }

    /// Whether the run goes through the Las-Vegas driver: fault injection
    /// and verification only compose there.
    fn driven(&self) -> bool {
        self.faults.is_some() || self.verify
    }

    /// The network every attempt builds: faulty with `--faults`.
    fn net(&self) -> NetConfig {
        self.faults
            .clone()
            .map(NetConfig::faulty)
            .unwrap_or_default()
    }

    /// The Las-Vegas driver of this run.
    fn driver(&self) -> DriverConfig {
        DriverConfig {
            algorithm: self.algorithm,
            params: Params::paper(),
            max_retries: self.max_retries,
            verify: self.verify,
            fallback: FallbackPolicy::Semiring,
            net: self.net(),
        }
    }
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
/// use qcc::cli::{parse, Command, Solve};
/// use qcc::algo::ApspAlgorithm;
///
/// let cmd = parse(&["apsp".into(), "--n".into(), "12".into()]).unwrap();
/// assert_eq!(
///     cmd,
///     Command::Apsp {
///         solve: Solve {
///             n: 12,
///             seed: 7,
///             algorithm: ApspAlgorithm::QuantumTriangle,
///             w_max: 8,
///             trace: None,
///             faults: None,
///             verify: false,
///             max_retries: 3,
///         },
///         transport: qcc::algo::TransportKind::Clique,
///         topology: None,
///     }
/// );
/// // A misspelled flag is an error, not a silently ignored token:
/// assert!(parse(&["apsp".into(), "--wamx".into(), "99".into()]).is_err());
/// ```
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(command) = args.first().map(String::as_str) else {
        return Ok(Command::Help);
    };
    if matches!(command, "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    let Some(&(_, allowed, switches)) = FLAG_TABLE.iter().find(|(name, ..)| *name == command)
    else {
        return Err(CliError(format!(
            "unknown command: {command} (try `qcc help`)"
        )));
    };
    let flags = collect_flags(command, &args[1..], allowed, switches)?;
    // Only `trace-summary` takes a positional: its trace file.
    let file = match (command, flags.positionals.as_slice()) {
        ("trace-summary", [f]) => f.clone(),
        ("trace-summary", []) => {
            return Err(CliError("trace-summary needs a trace file argument".into()))
        }
        (_, []) => String::new(),
        ("trace-summary", [_, extra, ..]) | (_, [extra, ..]) => {
            return Err(CliError(format!(
                "unexpected argument for `{command}`: {extra}"
            )))
        }
    };
    Ok(match command {
        "apsp" => {
            let (solve, (transport, topology)) = Solve::parse(&flags, 8, |flags| {
                let transport = match flags.get("--transport") {
                    None => TransportKind::Clique,
                    Some(t) => TransportKind::parse(t).map_err(CliError)?,
                };
                let topology = flags.get("--topology").map(TopologySpec::parse);
                let topology = topology.transpose().map_err(CliError)?;
                if topology.is_some() && transport != TransportKind::Gossip {
                    return Err(CliError(
                        "--topology requires --transport gossip (the clique has no choice \
                         of topology)"
                            .into(),
                    ));
                }
                Ok((transport, topology))
            })?;
            Command::Apsp {
                solve,
                transport,
                topology,
            }
        }
        "diameter" | "radius" | "ecc" => {
            let param = match command {
                "diameter" => DistanceParam::Diameter,
                "radius" => DistanceParam::Radius,
                _ => DistanceParam::Eccentricities,
            };
            let (solve, (backend, density)) = Solve::parse(&flags, 12, |flags| {
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
                Ok((backend, density))
            })?;
            Command::Distance {
                param,
                solve,
                density,
                backend,
            }
        }
        "find-edges" => {
            let backend = match flags.get("--backend") {
                None | Some("quantum") => SearchBackend::Quantum,
                Some("classical") => SearchBackend::Classical,
                Some(other) => return Err(CliError(format!("unknown backend: {other}"))),
            };
            Command::FindEdges {
                n: flags.n(16)?,
                seed: flags.num("--seed", 7)?,
                backend,
                trace: flags.trace(),
            }
        }
        "paths" => Command::Paths {
            n: flags.n(8)?,
            seed: flags.num("--seed", 7)?,
            trace: flags.trace(),
        },
        "gamma" => Command::Gamma {
            n: flags.n(16)?,
            seed: flags.num("--seed", 7)?,
            bits: match flags.num("--bits", 9)? {
                bits @ 1..=MAX_GAMMA_BITS => bits,
                bits => {
                    return Err(CliError(format!(
                        "--bits must be in [1, {MAX_GAMMA_BITS}], got {bits}"
                    )))
                }
            },
            trace: flags.trace(),
        },
        "serve" => {
            let (solve, row_cache) = Solve::parse(&flags, 8, |flags| {
                let row_cache: Option<usize> = flags.opt_num("--row-cache")?;
                if row_cache == Some(0) {
                    return Err(CliError("--row-cache must be at least 1".into()));
                }
                Ok(row_cache)
            })?;
            Command::Serve { solve, row_cache }
        }
        // `trace-summary`, the one command left in `FLAG_TABLE`.
        _ => Command::TraceSummary {
            file,
            expect_rounds: flags.opt_num("--expect-rounds")?,
            max_depth: flags.num("--max-depth", usize::MAX)?,
        },
    })
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

fn flush_sink(sink: Option<&TraceSink>) -> Result<(), Box<dyn Error>> {
    if let Some(sink) = sink {
        sink.flush()?;
    }
    Ok(())
}

/// A clique of `n` nodes that traces to `--trace FILE`, if given, under
/// one open root span.
fn traced_clique(
    n: usize,
    trace: Option<&String>,
    root: &str,
) -> Result<(Clique, Option<TraceSink>), Box<dyn Error>> {
    let mut net = Clique::new(n)?;
    let sink = open_sink(trace)?;
    if let Some(sink) = &sink {
        net.set_trace_sink(sink.clone());
    }
    net.push_span(root);
    Ok((net, sink))
}

/// Passes a run's answer through, except that a driver which exhausted
/// its retries without a verified answer prints the exit-3 line of the run
/// named `label` (say, "serve") and yields `None`.
fn settle<T>(
    result: Result<T, ApspError>,
    label: &str,
    out: &mut dyn Write,
) -> Result<Option<T>, Box<dyn Error>> {
    match result {
        Ok(answer) => Ok(Some(answer)),
        Err(ApspError::VerificationFailed { attempts }) => {
            writeln!(
                out,
                "{label}: {attempts} attempt(s) exhausted without a verified answer"
            )?;
            Ok(None)
        }
        Err(e) => Err(Box::new(e)),
    }
}

/// Writes how many of the matrix's ordered pairs are at finite distance.
fn write_reachable(out: &mut dyn Write, distances: &WeightMatrix) -> std::io::Result<()> {
    let finite = distances
        .as_slice()
        .iter()
        .filter(|w| w.is_finite())
        .count();
    let n = distances.n();
    writeln!(out, "{finite}/{} pairs reachable", n * n)
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
pub fn run(cmd: &Command, out: &mut dyn Write) -> Result<RunStatus, Box<dyn Error>> {
    match cmd {
        Command::Help => {
            write!(out, "{USAGE}")?;
        }
        Command::Apsp {
            solve,
            transport,
            topology,
        } => {
            let Solve {
                n, seed, algorithm, ..
            } = *solve;
            let (mut rng, g) = solve.instance(0.5);
            let sink = open_sink(solve.trace.as_ref())?;
            if *transport == TransportKind::Gossip {
                let cfg = GossipApspConfig {
                    topology: topology.unwrap_or(TopologySpec::Mesh { degree: 4 }),
                    max_retries: solve.max_retries,
                    net: solve.net(),
                    seed,
                    ..GossipApspConfig::default()
                };
                let driven = gossip_apsp(&g, &cfg, sink.as_ref());
                flush_sink(sink.as_ref())?;
                let label = format!("gossip APSP on n={n} (seed {seed})");
                let Some(report) = settle(driven, &label, out)? else {
                    return Ok(RunStatus::VerificationFailed);
                };
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
                write_reachable(out, &report.distances)?;
                return Ok(RunStatus::Success);
            }
            if !solve.driven() {
                let report = apsp_traced(&g, Params::paper(), algorithm, &mut rng, sink.as_ref())?;
                flush_sink(sink.as_ref())?;
                writeln!(
                    out,
                    "{algorithm:?} APSP on n={n} (seed {seed}): {} rounds, {} products",
                    report.rounds, report.products
                )?;
                write_reachable(out, &report.distances)?;
                return Ok(RunStatus::Success);
            }
            let driven = apsp_driver(&g, &solve.driver(), &mut rng, sink.as_ref());
            flush_sink(sink.as_ref())?;
            let label = format!("{algorithm:?} APSP on n={n} (seed {seed})");
            let Some(report) = settle(driven, &label, out)? else {
                return Ok(RunStatus::VerificationFailed);
            };
            writeln!(
                out,
                "{label}: {} rounds total, {} attempt(s), verified: {}, fallback: {}",
                report.total_rounds,
                report.attempts.len(),
                report.verified,
                report.used_fallback
            )?;
            write_reachable(out, &report.report.distances)?;
            if report.used_fallback {
                return Ok(RunStatus::DegradedFallback);
            }
        }
        Command::Distance {
            param,
            solve,
            density,
            backend,
        } => {
            let Solve {
                n, seed, algorithm, ..
            } = *solve;
            let (mut rng, g) = solve.instance(*density);
            let sink = open_sink(solve.trace.as_ref())?;
            let cfg = ExtremumConfig {
                backend: *backend,
                driver: solve.driver(),
                ..ExtremumConfig::new(*param)
            };
            let result = distance_params(&g, &cfg, &mut rng, sink.as_ref());
            flush_sink(sink.as_ref())?;
            let label = format!("{} on n={n} (seed {seed})", param.label());
            let Some(report) = settle(result, &label, out)? else {
                return Ok(RunStatus::VerificationFailed);
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
        &Command::FindEdges {
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
            let (mut net, sink) = traced_clique(n, trace.as_ref(), "find-edges")?;
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
        &Command::Paths { n, seed, ref trace } => {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_reweighted_digraph(n, 0.5, 6, &mut rng);
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
        &Command::Gamma {
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
            let (mut net, sink) = traced_clique(n, trace.as_ref(), "gamma")?;
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
        Command::Serve { solve, row_cache } => {
            let (mut rng, g) = solve.instance(0.5);
            let sink = open_sink(solve.trace.as_ref())?;
            // Without faults or verification the witnessed-squaring plan
            // adds explicit route witnesses.
            let plan = match solve.algorithm {
                ApspAlgorithm::QuantumTriangle if !solve.driven() => LoadPlan::Witnessed {
                    backend: SearchBackend::Quantum,
                },
                ApspAlgorithm::ClassicalTriangle if !solve.driven() => LoadPlan::Witnessed {
                    backend: SearchBackend::Classical,
                },
                _ => LoadPlan::Driver(Box::new(solve.driver())),
            };
            let cfg = EngineConfig {
                plan,
                params: Params::paper(),
                row_cache: *row_cache,
            };
            let loaded = QueryEngine::load(g, &cfg, &mut rng, sink.as_ref());
            flush_sink(sink.as_ref())?;
            let Some(mut engine) = settle(loaded, "serve", out)? else {
                return Ok(RunStatus::VerificationFailed);
            };
            let lines = crate::serve::spawn_stdin_reader();
            crate::serve::serve(&mut engine, &lines, out)?;
            if engine.load_report().used_fallback {
                return Ok(RunStatus::DegradedFallback);
            }
        }
        Command::TraceSummary {
            file,
            expect_rounds,
            max_depth,
        } => {
            let text = std::fs::read_to_string(file)
                .map_err(|e| CliError(format!("cannot read {file}: {e}")))?;
            let events = parse_trace(&text)?;
            let summary = TraceSummary::from_events(&events)?;
            summary.verify()?;
            write!(out, "{}", summary.render(*max_depth))?;
            if let Some(expected) = *expect_rounds {
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

    /// The shared flags at their defaults, on the given instance.
    fn solve(n: usize, seed: u64, algorithm: ApspAlgorithm, w_max: u64) -> Solve {
        Solve {
            n,
            seed,
            algorithm,
            w_max,
            trace: None,
            faults: None,
            verify: false,
            max_retries: 3,
        }
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
                solve: solve(12, 3, ApspAlgorithm::SemiringSquaring, 99),
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
            Command::Apsp { solve, .. } => {
                let plan = solve.faults.expect("fault plan parsed");
                assert!((plan.drop_rate - 0.1).abs() < 1e-12);
                assert_eq!(plan.seed, 3);
                assert!(solve.verify);
                assert_eq!(solve.max_retries, 2);
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
            solve: Solve {
                faults: Some(FaultPlan::parse("drop=0.05,seed=2").unwrap()),
                ..solve(6, 1, ApspAlgorithm::NaiveBroadcast, 5)
            },
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
                solve: solve(20, 3, ApspAlgorithm::NaiveBroadcast, 9),
                density: 0.25,
                backend: ExtremumBackend::ClassicalScan,
            }
        );
        // Defaults: n 12, seed 7, quantum APSP + quantum search.
        match parse(&argv("radius")).unwrap() {
            Command::Distance {
                param,
                solve,
                backend,
                ..
            } => {
                assert_eq!(param, DistanceParam::Radius);
                assert_eq!((solve.n, solve.seed), (12, 7));
                assert_eq!(solve.algorithm, ApspAlgorithm::QuantumTriangle);
                assert_eq!(backend, ExtremumBackend::Quantum);
                assert!(!solve.verify);
            }
            other => panic!("unexpected command: {other:?}"),
        }
        match parse(&argv("ecc --verify")).unwrap() {
            Command::Distance { param, solve, .. } => {
                assert_eq!(param, DistanceParam::Eccentricities);
                assert!(solve.verify);
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
                solve: Solve {
                    verify: true,
                    ..solve(12, 3, ApspAlgorithm::QuantumTriangle, 8)
                },
                row_cache: Some(4),
            }
        );
        // Defaults mirror `apsp`.
        match parse(&argv("serve")).unwrap() {
            Command::Serve { solve, row_cache } => {
                assert_eq!(
                    (solve.n, solve.seed, row_cache, solve.verify),
                    (8, 7, None, false)
                );
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
                Command::Apsp {
                    solve: Solve { trace, .. },
                    ..
                }
                | Command::FindEdges { trace, .. }
                | Command::Paths { trace, .. }
                | Command::Gamma { trace, .. } => trace,
                other => panic!("unexpected command: {other:?}"),
            };
            assert_eq!(trace.as_deref(), Some("out.ndjson"), "{line}");
        }
    }

    #[test]
    fn gamma_rejects_registers_outside_the_range() {
        // Each bit doubles the work, and a shift past 63 bits would wrap.
        for bits in ["0", "25", "64", "65", "200"] {
            let e = parse(&argv(&format!("gamma --bits {bits}"))).unwrap_err();
            assert_eq!(e.0, format!("--bits must be in [1, 24], got {bits}"));
        }
        for bits in [1, 24] {
            match parse(&argv(&format!("gamma --bits {bits}"))).unwrap() {
                Command::Gamma { bits: parsed, .. } => assert_eq!(parsed, bits),
                other => panic!("unexpected command: {other:?}"),
            }
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
            solve: solve(6, 1, ApspAlgorithm::NaiveBroadcast, 5),
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
            solve: solve(n, seed, ApspAlgorithm::NaiveBroadcast, 5),
            density,
            backend: ExtremumBackend::Quantum,
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
        if let Command::Distance { solve, .. } = &mut cmd {
            solve.trace = Some(path.to_string_lossy().into_owned());
            solve.verify = true;
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
        if let Command::Distance { solve, .. } = &mut cmd {
            solve.faults = Some(FaultPlan::parse("drop=0.1,corrupt=0.02,seed=4").unwrap());
            solve.verify = true;
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
            solve: Solve {
                trace: Some(path.to_string_lossy().into_owned()),
                faults: Some(FaultPlan::parse("drop=0.1,corrupt=0.02,seed=4").unwrap()),
                verify: true,
                ..solve(6, 9, ApspAlgorithm::NaiveBroadcast, 5)
            },
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
            solve: Solve {
                faults: Some(FaultPlan::parse("crash=0@0").unwrap()),
                verify: true,
                max_retries: 0,
                ..solve(5, 2, ApspAlgorithm::NaiveBroadcast, 5)
            },
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
                solve: Solve {
                    trace: Some(path.to_string_lossy().into_owned()),
                    ..solve(6, 5, ApspAlgorithm::NaiveBroadcast, 5)
                },
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
