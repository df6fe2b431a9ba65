//! The four workloads: inputs made from the seed, the timed operations,
//! and the checks that every answer is exact.

use crate::clock::{costed, cpu_seconds, relaxation_s, Cost};
use crate::spans::{Reduction, StampedLines};
use crate::stats::{median, percentile, tail};
use qcc_apsp::{
    apsp_driver, apsp_traced, gossip_apsp, ApspAlgorithm, DriverConfig, EdgeChange, EngineConfig,
    FallbackPolicy, GossipApspConfig, LoadPlan, Params, QueryEngine, ServeRequest,
};
use qcc_congest::{FaultPlan, NetConfig, TraceSink};
use qcc_graph::{floyd_warshall, random_reweighted_digraph, DiGraph, WeightMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A named set of inputs and the operations the benchmark times on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Theorem-1 pipeline (`apsp`, quantum, `Params::scaled`) on a
    /// transparent network.
    QuantumE1,
    /// The same pipeline through the Las-Vegas driver on a lossy network.
    QuantumFaulty,
    /// RLNC-coded gossip APSP on a lossy mesh.
    GossipLossy,
    /// A closed-loop client reading and updating a loaded query engine.
    ServeRw,
}

/// Every workload, in the order `--workload all` runs them.
pub const ALL: [Workload; 4] = [
    Workload::QuantumE1,
    Workload::QuantumFaulty,
    Workload::GossipLossy,
    Workload::ServeRw,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::QuantumE1 => "quantum_e1",
            Workload::QuantumFaulty => "quantum_faulty",
            Workload::GossipLossy => "gossip_lossy",
            Workload::ServeRw => "serve_rw",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed used when `--seed` is not given; the charged-round pins
    /// hold for it.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::ServeRw => 0x5E,
            _ => 0xE1,
        }
    }

    /// Vertices per graph, instances per pass, and the rounds pinned for
    /// instance 0 (the serve load, for `serve_rw`) at the default seed.
    ///
    /// Rounds and host time vary by about ±7% between graphs, so a pass
    /// covers several of them to keep the spread across seeds inside the
    /// bounds. Below n = 32 the quantum pipeline takes its explicit
    /// scheduling paths, whose profile is unlike the n = 81 headline run.
    /// `gossip_lossy` and `serve_rw` stay small enough for their working
    /// sets to fit a 2 MiB L2, which halved their run-to-run spread on a
    /// shared host.
    fn size(self, smoke: bool) -> Size {
        let (n, instances, pinned_rounds) = match (self, smoke) {
            (Workload::QuantumE1, false) => (32, 12, 802_845),
            (Workload::QuantumE1, true) => (16, 1, 346_680),
            (Workload::QuantumFaulty, false) => (8, 32, 257_826),
            (Workload::QuantumFaulty, true) => (8, 1, 257_826),
            (Workload::GossipLossy, false) => (48, 8, 1_975),
            (Workload::GossipLossy, true) => (16, 1, 372),
            (Workload::ServeRw, false) => (128, 1, 128),
            (Workload::ServeRw, true) => (32, 1, 50),
        };
        Size {
            n,
            instances,
            pinned_rounds,
        }
    }
}

struct Size {
    n: usize,
    instances: usize,
    pinned_rounds: u64,
}

/// How one run is made.
pub struct Options {
    pub seed: u64,
    /// Measured seconds; a traced run spends half of them untraced.
    pub seconds: f64,
    pub traced: bool,
    /// One small instance, one operation of each kind.
    pub smoke: bool,
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Extra human-readable lines (sample counts, tails).
    pub notes: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, what: impl Display) {
        self.failed += 1;
        eprintln!("benchmark: FAILED: {what}");
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Fails unless the default seed reproduces the pinned rounds.
    fn check_pin(&mut self, w: Workload, opts: &Options, rounds: u64) {
        let pin = w.size(opts.smoke).pinned_rounds;
        if opts.seed == w.default_seed() && rounds != pin {
            self.fail(format!(
                "{}: {rounds} charged rounds at the default seed, pinned {pin}",
                w.name()
            ));
        }
    }
}

/// Runs `w` once.
pub fn run(w: Workload, opts: &Options) -> Outcome {
    let mut out = match w {
        Workload::ServeRw => run_serve(opts),
        _ => run_apsp(w, opts),
    };
    match peak_rss_mb() {
        Some(mb) => out.set("peak_rss_mb", mb),
        None => out.fail("VmHWM missing from /proc/self/status"),
    }
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Runs `f` under `catch_unwind`, so a panic in the library is counted as
/// a failed operation instead of ending the run.
fn guarded<T, E: Display>(f: impl FnOnce() -> Result<T, E>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(_) => Err("panicked".into()),
    }
}

/// Set-up repetitions priced together before each solve; `setup_s` is the
/// median of these blocks' per-repetition cost.
const SETUP_REPS_PER_SOLVE: usize = 4;

/// Records `setup_s`, the median set-up cost in reference seconds, and
/// `host.setup_cpu_s`, the median CPU time, which it returns.
fn record_setup(out: &mut Outcome, setup: &[Cost]) -> f64 {
    let reference: Vec<f64> = setup.iter().map(Cost::reference_s).collect();
    let cpu = median(&setup.iter().map(|c| c.cpu_s).collect::<Vec<_>>());
    out.set("setup_s", median(&reference));
    out.set("host.setup_cpu_s", cpu);
    cpu
}

fn scaled_params() -> Params {
    Params {
        threads: Some(1),
        ..Params::scaled()
    }
}

// ---------------------------------------------------------------------------
// APSP workloads
// ---------------------------------------------------------------------------

struct Instance {
    graph: DiGraph,
    /// Algorithm randomness, cloned per solve so every solve repeats.
    rng: StdRng,
    reference: WeightMatrix,
}

/// Instance `i` of a seed. Graph and algorithm randomness come from one
/// stream, as in `bench_e1`; instance 0 uses the seed itself.
fn instance(n: usize, seed: u64, i: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64 * 0x9E37_79B9_7F4A_7C15));
    let graph = random_reweighted_digraph(n, 0.5, 8, &mut rng);
    let reference = floyd_warshall(&graph.adjacency_matrix())
        .expect("reweighted graphs have no negative cycle");
    Instance {
        graph,
        rng,
        reference,
    }
}

struct Solved {
    distances: WeightMatrix,
    rounds: u64,
    gossip: GossipCounts,
}

/// What `gossip_apsp` reports of its accepted attempt, summed over a pass.
#[derive(Clone, Copy, Default)]
struct GossipCounts {
    waves: u64,
    packets_sent: u64,
    innovative_packets: u64,
    attempts: u64,
}

impl std::ops::AddAssign for GossipCounts {
    fn add_assign(&mut self, o: GossipCounts) {
        self.waves += o.waves;
        self.packets_sent += o.packets_sent;
        self.innovative_packets += o.innovative_packets;
        self.attempts += o.attempts;
    }
}

fn solve(w: Workload, inst: &Instance, sink: Option<&TraceSink>) -> Result<Solved, String> {
    let mut rng = inst.rng.clone();
    let g = &inst.graph;
    match w {
        Workload::QuantumE1 => guarded(|| {
            apsp_traced(
                g,
                scaled_params(),
                ApspAlgorithm::QuantumTriangle,
                &mut rng,
                sink,
            )
        })
        .map(|r| Solved {
            distances: r.distances,
            rounds: r.rounds,
            gossip: GossipCounts::default(),
        }),
        Workload::QuantumFaulty => {
            let cfg = DriverConfig {
                algorithm: ApspAlgorithm::QuantumTriangle,
                params: scaled_params(),
                max_retries: 3,
                verify: true,
                fallback: FallbackPolicy::Semiring,
                net: NetConfig::faulty(
                    FaultPlan::parse("drop=0.02,corrupt=0.01,seed=9").expect("valid fault spec"),
                ),
            };
            guarded(|| apsp_driver(g, &cfg, &mut rng, sink)).map(|r| Solved {
                distances: r.report.distances,
                rounds: r.total_rounds,
                gossip: GossipCounts::default(),
            })
        }
        Workload::GossipLossy => {
            let cfg = GossipApspConfig {
                net: NetConfig {
                    faults: Some(FaultPlan::parse("drop=0.05,seed=3").expect("valid fault spec")),
                    reliable: None,
                },
                ..GossipApspConfig::default()
            };
            guarded(|| gossip_apsp(g, &cfg, sink)).map(|r| Solved {
                gossip: GossipCounts {
                    waves: r.stats.waves,
                    packets_sent: r.stats.packets_sent,
                    innovative_packets: r.stats.innovative_packets,
                    attempts: r.attempts.len() as u64,
                },
                distances: r.distances,
                rounds: r.total_rounds,
            })
        }
        Workload::ServeRw => unreachable!("serve_rw has no APSP solve"),
    }
}

/// Checks solves against Floyd–Warshall and against the rounds the first
/// solve of the same instance charged.
struct Checker {
    w: Workload,
    rounds: Vec<Option<u64>>,
}

impl Checker {
    fn check(
        &mut self,
        out: &mut Outcome,
        i: usize,
        inst: &Instance,
        result: Result<Solved, String>,
    ) -> Option<Solved> {
        out.attempted += 1;
        let name = self.w.name();
        let solved = match result {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("{name} instance {i}: {e}"));
                return None;
            }
        };
        if solved.distances != inst.reference {
            out.fail(format!(
                "{name} instance {i}: distances differ from Floyd–Warshall"
            ));
            return None;
        }
        let first = *self.rounds[i].get_or_insert(solved.rounds);
        if first != solved.rounds {
            out.fail(format!(
                "{name} instance {i}: charged {} rounds, earlier {first}",
                solved.rounds
            ));
            return None;
        }
        Some(solved)
    }

    /// Rounds of one pass over every instance, once each has been solved.
    fn pass_rounds(&self) -> Option<u64> {
        self.rounds.iter().copied().sum()
    }
}

fn run_apsp(w: Workload, opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let size = w.size(opts.smoke);
    // A traced run spends half its budget untraced and then traces one
    // pass, over the first quarter of the instances.
    let (k, budget) = if opts.traced {
        (size.instances.div_ceil(4), opts.seconds / 2.0)
    } else {
        (size.instances, opts.seconds)
    };
    let generate = || -> Vec<Instance> { (0..k).map(|i| instance(size.n, opts.seed, i)).collect() };
    let instances = generate();
    let mut checker = Checker {
        w,
        rounds: vec![None; k],
    };

    // An untimed warm-up solve lets caches fill, the allocator settle and
    // the core reach its working clock before anything is timed. Its
    // rounds are the reference for every later solve of instance 0.
    if !opts.smoke {
        let result = solve(w, &instances[0], None);
        checker.check(&mut out, 0, &instances[0], result);
    }

    // Whole passes only, so every instance weighs the same. The set-up is
    // priced again before every solve, so its repetitions sample the host
    // over the whole run as the solves do.
    let mut setup = Vec::new();
    let mut costs: Vec<Vec<Cost>> = vec![Vec::new(); k];
    let mut wall = Vec::new();
    let start = Instant::now();
    for passes in 1.. {
        for (i, inst) in instances.iter().enumerate() {
            let ((), block) = costed(|| {
                for _ in 0..SETUP_REPS_PER_SOLVE {
                    black_box(generate());
                }
            });
            setup.push(Cost {
                cpu_s: block.cpu_s / SETUP_REPS_PER_SOLVE as f64,
                ..block
            });
            let t = Instant::now();
            let (result, cost) = costed(|| solve(w, inst, None));
            let wall_dt = t.elapsed().as_secs_f64();
            if checker.check(&mut out, i, inst, result).is_some() {
                costs[i].push(cost);
                wall.push(wall_dt);
            }
        }
        let spent = start.elapsed().as_secs_f64();
        if opts.smoke || spent + spent / f64::from(passes) > budget {
            break;
        }
    }
    let setup_cpu = record_setup(&mut out, &setup);
    let all: Vec<Cost> = costs.concat();
    let mrelax: Vec<f64> = all.iter().map(Cost::mrelax).collect();
    let cpu: Vec<f64> = all.iter().map(|c| c.cpu_s).collect();
    let relaxation: Vec<f64> = all.iter().map(|c| c.relaxation_s).collect();
    out.set("op_cost", median(&mrelax));
    out.set("host.op_cpu_s", median(&cpu));
    out.set("host.relaxation_ns", median(&relaxation) * 1e9);
    out.notes.push(format!(
        "op_cost is the median of {} solves over {k} instances of n={}; median CPU time {} s, \
         wall time {} s; set-up median CPU time {setup_cpu} s over {} blocks of {SETUP_REPS_PER_SOLVE}",
        all.len(),
        size.n,
        median(&cpu),
        median(&wall),
        setup.len()
    ));
    if let Some((p, c)) = tail(&mrelax) {
        out.notes
            .push(format!("solve p{p} {c} Mrelax over {} solves", all.len()));
    }
    if let Some(first) = checker.rounds[0] {
        out.check_pin(w, opts, first);
    }
    let Some(pass_rounds) = checker.pass_rounds() else {
        return out;
    };
    out.set("charged_rounds", pass_rounds as f64);

    if opts.traced {
        let untraced_pass: f64 = costs
            .iter()
            .map(|c| median(&c.iter().map(Cost::mrelax).collect::<Vec<_>>()))
            .sum();
        let buffer = StampedLines::default();
        let sink = buffer.sink();
        let (mut traced_s, mut traced_pass) = (0.0, 0.0);
        let mut gossip = GossipCounts::default();
        for (i, inst) in instances.iter().enumerate() {
            let t = Instant::now();
            let (result, cost) = costed(|| solve(w, inst, Some(&sink)));
            traced_s += t.elapsed().as_secs_f64();
            traced_pass += cost.mrelax();
            if let Some(s) = checker.check(&mut out, i, inst, result) {
                gossip += s.gossip;
            }
        }
        if let Err(e) = sink.flush() {
            out.fail(format!("trace sink: {e}"));
        }
        out.set("gossip.waves", gossip.waves as f64);
        out.set("gossip.packets_sent", gossip.packets_sent as f64);
        out.set(
            "gossip.innovative_ratio",
            if gossip.packets_sent == 0 {
                0.0
            } else {
                gossip.innovative_packets as f64 / gossip.packets_sent as f64
            },
        );
        out.set("gossip.attempts", gossip.attempts as f64);
        record_trace(
            &mut out,
            &buffer,
            pass_rounds,
            traced_s,
            traced_pass / untraced_pass,
        );
    }
    out
}

/// Reduces a traced pass and records the per-layer metrics, the trace's
/// coverage of the traced wall time `traced_s` and the tracing overhead
/// (traced over untraced cost).
fn record_trace(
    out: &mut Outcome,
    buffer: &StampedLines,
    charged_rounds: u64,
    traced_s: f64,
    overhead_ratio: f64,
) {
    let r = match buffer.reduce() {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("trace reduction: {e}"));
            return;
        }
    };
    if r.rounds != charged_rounds {
        out.fail(format!(
            "trace charges {} rounds, the run reported {charged_rounds}",
            r.rounds
        ));
    }
    record_layers(out, &r);
    out.set("trace.coverage", r.covered_s / traced_s);
    out.set("trace.overhead_ratio", overhead_ratio);
    let mut hottest: Vec<_> = r.labels.iter().collect();
    hottest.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    for (label, t) in hottest.into_iter().take(8) {
        out.notes.push(format!(
            "span {label} self {:.4} s inclusive {:.4} s over {} spans",
            t.self_s, t.inclusive_s, t.count
        ));
    }
}

fn record_layers(out: &mut Outcome, r: &Reduction) {
    let step3 = r.layer("step3");
    out.set("step3.self_s", step3.self_s);
    out.set("step3.rounds", step3.rounds as f64);
    out.set("step3.spans", step3.spans as f64);
    let identify = r.layer("identify_class");
    out.set("identify_class.self_s", identify.self_s);
    out.set("identify_class.rounds", identify.rounds as f64);
    let gather = r.layer("gather");
    out.set("gather.self_s", gather.self_s);
    out.set("gather.rounds", gather.rounds as f64);
    let lambda = r.layer("lambda");
    out.set("lambda.self_s", lambda.self_s);
    out.set("lambda.rounds", lambda.rounds as f64);
    out.set("find_edges.self_s", r.layer("find_edges").self_s);
    out.set("find_edges.loops", r.label("find-edges/loopN").count as f64);
    out.set("apsp.products", r.label("product-N").count as f64);
    out.set(
        "distance_product.calls",
        r.label("distance-product/callN").count as f64,
    );
    out.set("driver.attempts", r.label("attempt-N").count as f64);
    out.set("driver.fallbacks", r.label("fallback").count as f64);
    out.set("driver.verify_s", r.label("verify-N").inclusive_s);
    out.set("network.calls", r.calls as f64);
    out.set("network.messages", r.messages as f64);
    out.set("network.bits", r.bits as f64);
    out.set("fault.injected", r.faults as f64);
    let rlnc = r.layer("rlnc");
    out.set("rlnc.self_s", rlnc.self_s);
    out.set("rlnc.rounds", rlnc.rounds as f64);
}

// ---------------------------------------------------------------------------
// serve_rw
// ---------------------------------------------------------------------------

/// Every this-many-th request updates one arc (1.6%), alternately by +1
/// and −1; the rest are reads. A fixed interleaving, rather than a random
/// one, gives every `WINDOW` the same mix, so a window's cost moves with
/// the engine and not with the draw.
const UPDATE_EVERY: usize = 64;
/// Share of reads that ask for a path rather than a distance.
const PATH_SHARE: f64 = 0.1;
/// Requests of a smoke run.
const SMOKE_REQUESTS: usize = 2_048;
/// Requests are priced in windows of this many (eight increases and eight
/// decreases each), with a reference measurement at each window boundary.
const WINDOW: usize = 16 * UPDATE_EVERY;
/// The load is timed again every this-many windows (about every 0.6 s), so
/// the set-up repetitions sample the host across the run as the requests do.
const LOAD_EVERY: usize = 8 * WINDOW;
/// Salt separating the request stream from the graph stream.
const REQUEST_SALT: u64 = 0x5E_5E_5E_5E;

fn load_engine(n: usize, seed: u64, sink: Option<&TraceSink>) -> Result<QueryEngine, String> {
    let params = Params {
        threads: Some(1),
        ..Params::paper()
    };
    let cfg = EngineConfig {
        plan: LoadPlan::Driver(Box::new(DriverConfig {
            algorithm: ApspAlgorithm::SemiringSquaring,
            params,
            max_retries: 3,
            verify: false,
            fallback: FallbackPolicy::Semiring,
            net: NetConfig::default(),
        })),
        params,
        row_cache: None,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = random_reweighted_digraph(n, 0.5, 8, &mut rng);
    guarded(|| QueryEngine::load(graph, &cfg, &mut rng, sink))
}

/// Loads the engine, adds the load's cost to `loads`, and counts the load
/// as an attempted operation.
fn timed_load(
    out: &mut Outcome,
    loads: &mut Vec<Cost>,
    n: usize,
    seed: u64,
) -> Option<QueryEngine> {
    let (loaded, cost) = costed(|| load_engine(n, seed, None));
    loads.push(cost);
    out.attempted += 1;
    loaded
        .map_err(|e| out.fail(format!("serve_rw load: {e}")))
        .ok()
}

/// The closed-loop client: it draws each request from its own stream and
/// keeps its own copy of the graph, which the final check solves.
struct Client {
    rng: StdRng,
    arcs: Vec<(usize, usize)>,
    graph: DiGraph,
    sent: usize,
}

impl Client {
    fn next(&mut self, engine: &mut QueryEngine) -> ServeRequest {
        let n = self.graph.n();
        self.sent += 1;
        if self.sent.is_multiple_of(UPDATE_EVERY) {
            let increase = (self.sent / UPDATE_EVERY) % 2 == 1;
            return ServeRequest::Update {
                id: None,
                changes: vec![self.next_change(engine, increase)],
            };
        }
        let (u, v) = (self.rng.gen_range(0..n), self.rng.gen_range(0..n));
        if self.rng.gen_bool(PATH_SHARE) {
            ServeRequest::Path { id: None, u, v }
        } else {
            ServeRequest::Dist { id: None, u, v }
        }
    }

    /// A +1 increase or a −1 decrease of a random arc. A decrease is
    /// checked against the engine's current distances so that it never
    /// closes a negative cycle; random reweighted graphs have few
    /// zero-weight cycles, so another arc is found at once.
    fn next_change(&mut self, engine: &mut QueryEngine, increase: bool) -> EdgeChange {
        loop {
            let (u, v) = self.arcs[self.rng.gen_range(0..self.arcs.len())];
            let w = self
                .graph
                .weight(u, v)
                .finite()
                .expect("arcs are never removed");
            let weight = if increase { w + 1 } else { w - 1 };
            let back = engine.dist(v, u).expect("arc endpoints are vertices");
            if back.finite().is_none_or(|b| b + weight >= 0) {
                return EdgeChange {
                    u,
                    v,
                    weight: Some(weight),
                };
            }
        }
    }
}

/// Request latencies by what the engine did, in CPU seconds.
#[derive(Default)]
struct Latencies {
    reads: Vec<f64>,
    row_misses: Vec<f64>,
    updates: Vec<f64>,
    repairs: Vec<f64>,
    recomputes: Vec<f64>,
}

fn run_serve(opts: &Options) -> Outcome {
    let w = Workload::ServeRw;
    let mut out = Outcome::default();
    let n = w.size(opts.smoke).n;
    let mut loads = Vec::new();
    let Some(mut engine) = timed_load(&mut out, &mut loads, n, opts.seed) else {
        return out;
    };
    let rounds = engine.load_report().rounds;
    out.set("charged_rounds", rounds as f64);
    out.check_pin(w, opts, rounds);

    let graph = engine.graph().clone();
    let mut client = Client {
        rng: StdRng::seed_from_u64(opts.seed ^ REQUEST_SALT),
        arcs: graph.arcs().map(|(u, v, _)| (u, v)).collect(),
        graph,
        sent: 0,
    };
    let budget = if opts.traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut lat = Latencies::default();
    let mut windows = Vec::new();
    let mut window_busy = 0.0;
    let mut window_start = relaxation_s();
    let mut requests = 0usize;
    let start = Instant::now();
    while if opts.smoke {
        requests < SMOKE_REQUESTS
    } else {
        start.elapsed().as_secs_f64() < budget
    } {
        let request = client.next(&mut engine);
        let before = *engine.stats();
        let t = cpu_seconds();
        let answer = engine.answer_batch(&[Ok(request.clone())]);
        let dt = cpu_seconds() - t;
        requests += 1;
        out.attempted += 1;
        window_busy += dt;
        if requests.is_multiple_of(WINDOW) {
            windows.push(Cost {
                cpu_s: window_busy,
                relaxation_s: (window_start + relaxation_s()) / 2.0,
            });
            if requests.is_multiple_of(LOAD_EVERY) {
                let reload = timed_load(&mut out, &mut loads, n, opts.seed);
                let r = reload.map(|e| e.load_report().rounds);
                if r.is_some_and(|r| r != rounds) {
                    out.fail(format!(
                        "serve_rw: load charged {r:?} rounds, earlier {rounds}"
                    ));
                }
            }
            window_busy = 0.0;
            window_start = relaxation_s();
        }
        if !answer.responses[0].starts_with("{\"ok\":true") {
            out.fail(format!(
                "serve_rw: {:?} answered {}",
                request, answer.responses[0]
            ));
            continue;
        }
        let after = engine.stats();
        if let ServeRequest::Update { changes, .. } = &request {
            for c in changes {
                client
                    .graph
                    .add_arc(c.u, c.v, c.weight.expect("updates set weights"));
            }
            lat.updates.push(dt);
            if after.full_recomputes > before.full_recomputes {
                lat.recomputes.push(dt);
            } else if after.delta_repairs > before.delta_repairs {
                lat.repairs.push(dt);
            }
        } else {
            lat.reads.push(dt);
            if after.row_misses > before.row_misses {
                lat.row_misses.push(dt);
            }
        }
    }
    check_final_matrix(&mut out, &mut engine, &client.graph);
    let load_cpu = record_setup(&mut out, &loads);
    let load_mrelax: Vec<f64> = loads.iter().map(Cost::mrelax).collect();

    if opts.traced {
        let buffer = StampedLines::default();
        let sink = buffer.sink();
        let t = Instant::now();
        let (loaded, cost) = costed(|| load_engine(n, opts.seed, Some(&sink)));
        let traced_s = t.elapsed().as_secs_f64();
        out.attempted += 1;
        match loaded {
            Ok(_) => {
                let overhead = cost.mrelax() / median(&load_mrelax);
                record_trace(&mut out, &buffer, rounds, traced_s, overhead);
            }
            Err(e) => out.fail(format!("serve_rw traced load: {e}")),
        }
    }

    // One request's cost: a window's, shared by its requests.
    let per_request = |v: f64| v / WINDOW as f64;
    let window_mrelax: Vec<f64> = windows.iter().map(Cost::mrelax).collect();
    let window_cpu: Vec<f64> = windows.iter().map(|c| c.cpu_s).collect();
    let relaxation: Vec<f64> = windows.iter().map(|c| c.relaxation_s).collect();
    out.set("op_cost", per_request(median(&window_mrelax)));
    out.set("host.op_cpu_s", per_request(median(&window_cpu)));
    out.set("host.relaxation_ns", median(&relaxation) * 1e9);

    let stats = *engine.stats();
    out.set("serve.qps", 1.0 / per_request(median(&window_cpu)));
    out.set("serve.recompute_ms_p50", median(&lat.recomputes) * 1e3);
    out.set("serve.repair_ms_p50", median(&lat.repairs) * 1e3);
    out.set("serve.delta_repairs", stats.delta_repairs as f64);
    out.set("serve.full_recomputes", stats.full_recomputes as f64);
    out.set("serve.row_misses", stats.row_misses as f64);
    out.set("serve.row_miss_us_p50", median(&lat.row_misses) * 1e6);
    out.set("serve.update_p95_ms", percentile(&lat.updates, 95.0) * 1e3);
    out.set("serve.read_p50_us", median(&lat.reads) * 1e6);
    let read_tail = tail(&lat.reads);
    out.set(
        "serve.read_tail_us",
        read_tail.map_or(0.0, |(_, v)| v * 1e6),
    );
    out.notes.push(format!(
        "{requests} requests: {} reads ({} row misses), {} updates ({} repairs, {} recomputes)",
        lat.reads.len(),
        lat.row_misses.len(),
        lat.updates.len(),
        lat.repairs.len(),
        lat.recomputes.len()
    ));
    out.notes.push(format!(
        "op_cost is the median over {} windows of {WINDOW} requests; set-up median CPU time {load_cpu} s over {} loads",
        windows.len(),
        loads.len()
    ));
    if let Some((p, v)) = read_tail {
        out.notes.push(format!(
            "read p{p} {} us over {} reads",
            v * 1e6,
            lat.reads.len()
        ));
    }
    out
}

/// The engine's final matrix must equal Floyd–Warshall of the graph the
/// client mutated.
fn check_final_matrix(out: &mut Outcome, engine: &mut QueryEngine, graph: &DiGraph) {
    let expected = match floyd_warshall(&graph.adjacency_matrix()) {
        Ok(m) => m,
        Err(_) => {
            out.fail("serve_rw: the updated graph has a negative cycle");
            return;
        }
    };
    let n = graph.n();
    let wrong = (0..n)
        .flat_map(|u| (0..n).map(move |v| (u, v)))
        .filter(|&(u, v)| engine.dist(u, v).ok() != Some(expected[(u, v)]))
        .count();
    if wrong > 0 {
        out.fail(format!(
            "serve_rw: {wrong} final distances differ from Floyd–Warshall"
        ));
    }
}
