//! Distance parameters: eccentricities, diameter, radius.
//!
//! Le Gall–Magniez (PODC 2018) introduced the distributed quantum search
//! framework this repo's APSP pipeline builds on *for the diameter*: once
//! every node `v` knows its row of the distance matrix, its eccentricity
//! `ecc(v) = max_u d(v, u)` is local knowledge, and the diameter
//! `max_v ecc(v)` (or radius `min_v ecc(v)`) is an extremum over `n`
//! node-held values — exactly the shape Dürr–Høyer minimum finding solves
//! with `O(√n)` oracle evaluations instead of a classical `n`-value scan
//! (see also Wang–Wu–Yao, arXiv:2206.02766, which treats these distance
//! parameters as first-class quantum CONGEST problems).
//!
//! This module runs that search *through the network*: the coordinator's
//! threshold walk is simulated exactly (the amplitude math is local and
//! free, as everywhere in [`qcc_quantum`]), but every oracle evaluation it
//! would make is executed as a real query/answer exchange on the
//! [`Clique`], so rounds are charged honestly and injected faults can hit
//! the wire. A classical scan baseline ([`classical_extremum_scan`])
//! gathers all `n` values in `O(1)` rounds — fewer rounds, `n` value
//! *evaluations*; the quantum search wins on evaluations, which is what
//! `exp_distance_params` measures.
//!
//! ## Disconnected graphs
//!
//! A vertex that cannot reach some other vertex has `ecc(v) = +∞`
//! ([`ExtWeight::PosInf`]), **not** 0 — so a disconnected digraph reports
//! diameter `+∞` rather than silently underestimating. The radius can
//! still be finite on such a graph: a center vertex may reach everything
//! even when some other vertex reaches nothing.
//! [`DistanceParamReport::connected`] makes the distinction explicit.
//!
//! ## The Las-Vegas loop
//!
//! Like the APSP driver, the search stage runs in the shared attempt →
//! certify → retry → fallback loop, under the APSP driver's retry budget,
//! verification switch and fallback policy. A claimed extremum `(v, x)` is
//! checked by broadcasting it and letting every node flag a violation (its
//! own value is strictly better, or it is the claimed witness and
//! disagrees), then [`Clique::agree_any`]. Faults only ever *discard* messages (corruption
//! is detected-and-dropped), so a search can stall or lose answers but
//! never deliver a mangled value — the certificate catches exactly the
//! failures that can occur. The verifier and the classical fallback always
//! run over a hardened reliable envelope.

use crate::apsp::apsp_configured;
use crate::driver::{apsp_driver, hardened, DriverConfig};
use crate::las_vegas::{las_vegas, AttemptRecord, LasVegasReport, Try};
use crate::run::{in_span, on_clique};
use crate::ApspError;
use qcc_congest::{Clique, Envelope, NetConfig, NodeId, TraceSink};
use qcc_graph::{DiGraph, ExtWeight, WeightMatrix};
use qcc_quantum::{GroverAmplitudes, DEFAULT_STAGE_ATTEMPTS};
use rand::Rng;

/// Salt decoupling the search attempts' fault randomness from the APSP
/// stage's (which reseeds with the bare attempt index).
const SEARCH_SALT: u64 = 0xecc5_0000;
/// Salt for the extremum verifier's fault randomness.
const SEARCH_VERIFY_SALT: u64 = 0xecc5_5eed;
/// Salt for the classical-scan fallback's fault randomness.
const SEARCH_FALLBACK_SALT: u64 = 0xecc5_fa11;

/// Which distance parameter to compute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistanceParam {
    /// `max_v ecc(v)` — the largest shortest-path distance in the graph.
    Diameter,
    /// `min_v ecc(v)` — the best worst-case distance from any center.
    Radius,
    /// The full vector `ecc(0), …, ecc(n−1)`, gathered at the coordinator.
    Eccentricities,
}

impl DistanceParam {
    /// The lowercase CLI / report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DistanceParam::Diameter => "diameter",
            DistanceParam::Radius => "radius",
            DistanceParam::Eccentricities => "eccentricities",
        }
    }
}

/// How the extremum over eccentricities is found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExtremumBackend {
    /// Dürr–Høyer through the network: `O(√n)` expected oracle
    /// evaluations, each a query/answer exchange.
    #[default]
    Quantum,
    /// Gather all `n` values at the coordinator and scan locally: `O(1)`
    /// rounds, `n` evaluations.
    ClassicalScan,
}

impl ExtremumBackend {
    /// The lowercase CLI / report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ExtremumBackend::Quantum => "quantum",
            ExtremumBackend::ClassicalScan => "scan",
        }
    }
}

/// Configuration of a [`distance_params`] run.
#[derive(Clone, Debug)]
pub struct ExtremumConfig {
    /// Which parameter to compute.
    pub param: DistanceParam,
    /// How the extremum search stage runs.
    pub backend: ExtremumBackend,
    /// The distance stage's APSP driver. The search stage runs under the
    /// same retry budget (`max_retries`, counted per stage), verification
    /// switch (it certifies the claimed extremum), fallback policy
    /// ([`crate::FallbackPolicy::Semiring`] degrades it to the verified
    /// classical scan) and network.
    pub driver: DriverConfig,
}

impl ExtremumConfig {
    /// Defaults for `param`: quantum search over the default driver
    /// (quantum APSP, 3 retries, verification on, classical fallback,
    /// clean network).
    #[must_use]
    pub fn new(param: DistanceParam) -> Self {
        ExtremumConfig {
            param,
            backend: ExtremumBackend::Quantum,
            driver: DriverConfig::default(),
        }
    }
}

/// Result of a [`distance_params`] run.
#[derive(Clone, Debug)]
pub struct DistanceParamReport {
    /// The parameter computed.
    pub param: DistanceParam,
    /// Number of vertices.
    pub n: usize,
    /// Every vertex's eccentricity (`PosInf` = cannot reach some vertex).
    pub eccentricities: Vec<ExtWeight>,
    /// The parameter's value: the diameter for
    /// [`DistanceParam::Eccentricities`] too (its maximum entry).
    pub value: ExtWeight,
    /// A vertex achieving the extremum; `None` for the full-vector
    /// parameter.
    pub witness: Option<usize>,
    /// `true` iff every vertex reaches every vertex (all `ecc` finite).
    pub connected: bool,
    /// Rounds of the distance stage (APSP, its verification and retries).
    pub distance_rounds: u64,
    /// Rounds of the search stage (all attempts, verification, fallback).
    pub search_rounds: u64,
    /// `distance_rounds + search_rounds`; equals the trace's scaled total.
    pub total_rounds: u64,
    /// Oracle evaluations of the *accepted* search attempt.
    pub evaluations: u64,
    /// Every search-stage attempt in order, the accepted one last.
    pub search_attempts: Vec<AttemptRecord>,
    /// `true` iff both stages' certificates passed (always `false` when
    /// `verify` is off).
    pub verified: bool,
    /// `true` iff either stage degraded to its classical fallback.
    pub used_fallback: bool,
}

/// Per-vertex eccentricities: row maxima of the distance matrix.
///
/// The diagonal (`d(v, v) = 0`) is included, so a single isolated vertex
/// has eccentricity `Finite(0)`; a vertex that cannot reach some other
/// vertex has eccentricity [`ExtWeight::PosInf`] — never 0.
///
/// # Examples
///
/// ```
/// use qcc_apsp::eccentricities;
/// use qcc_graph::{floyd_warshall, DiGraph, ExtWeight};
///
/// let mut g = DiGraph::new(3);
/// g.add_arc(0, 1, 4);
/// g.add_arc(1, 0, 1);
/// // vertex 2 is unreachable and reaches nobody
/// let d = floyd_warshall(&g.adjacency_matrix())?;
/// let ecc = eccentricities(&d);
/// assert_eq!(ecc, vec![ExtWeight::PosInf, ExtWeight::PosInf, ExtWeight::PosInf]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn eccentricities(d: &WeightMatrix) -> Vec<ExtWeight> {
    (0..d.n())
        .map(|v| {
            d.row(v)
                .iter()
                .copied()
                .max()
                .expect("matrix rows are nonempty")
        })
        .collect()
}

/// The diameter: the maximum eccentricity ([`ExtWeight::PosInf`] when the
/// graph is not strongly connected, `None` only for an empty vector).
#[must_use]
pub fn diameter_of(ecc: &[ExtWeight]) -> Option<ExtWeight> {
    ecc.iter().copied().max()
}

/// The radius: the minimum eccentricity. Can be finite on a graph whose
/// diameter is `+∞` — a center may reach everything even when some other
/// vertex reaches nothing.
#[must_use]
pub fn radius_of(ecc: &[ExtWeight]) -> Option<ExtWeight> {
    ecc.iter().copied().min()
}

/// `ExtWeight` on the wire: `(tag, finite value)`, 128 bits.
fn encode_weight(w: ExtWeight) -> (u64, i64) {
    match w {
        ExtWeight::NegInf => (0, 0),
        ExtWeight::Finite(x) => (1, x),
        ExtWeight::PosInf => (2, 0),
    }
}

fn decode_weight(tag: u64, value: i64) -> Result<ExtWeight, ApspError> {
    match tag {
        0 => Ok(ExtWeight::NegInf),
        1 => Ok(ExtWeight::Finite(value)),
        2 => Ok(ExtWeight::PosInf),
        other => Err(ApspError::Internal {
            context: format!("bad weight tag {other} on the wire"),
        }),
    }
}

/// Outcome of one network extremum search (quantum or classical scan).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetworkExtremumOutcome {
    /// Index of the found extremum (a true extremum — both searches are
    /// Las Vegas or typed-failing, never silently wrong).
    pub index: usize,
    /// Its value.
    pub value: ExtWeight,
    /// Distributed oracle evaluations (query/answer exchanges for the
    /// quantum search; `n` for the classical scan).
    pub evaluations: u64,
    /// Grover iterations across all stages (0 for the classical scan).
    pub iterations: u64,
    /// Threshold improvements (0 for the classical scan).
    pub stages: u32,
    /// BBHT measurement attempts (0 for the classical scan).
    pub attempts: u64,
    /// Rounds this search charged on `net`.
    pub rounds: u64,
}

/// One distributed oracle evaluation: the coordinator asks the holder of
/// `idx` for its value (query exchange), the holder answers (answer
/// exchange). On the coordinator's own index both messages are local and
/// free. Lost messages (faults without an envelope) surface as a retryable
/// [`ApspError::Internal`].
fn evaluate_remote(
    values: &[ExtWeight],
    idx: usize,
    net: &mut Clique,
) -> Result<ExtWeight, ApspError> {
    let coordinator = NodeId::new(0);
    let holder = NodeId::new(idx);
    let query = net.exchange(vec![Envelope::new(coordinator, holder, idx as u64)])?;
    let holder_got = query
        .of(holder)
        .iter()
        .any(|&(src, q)| src == coordinator && q as usize == idx);
    let answers = if holder_got {
        vec![Envelope::new(
            holder,
            coordinator,
            encode_weight(values[idx]),
        )]
    } else {
        Vec::new()
    };
    let inboxes = net.exchange(answers)?;
    let answer = inboxes
        .of(coordinator)
        .iter()
        .find(|&&(src, _)| src == holder)
        .map(|&(_, (tag, value))| decode_weight(tag, value));
    match answer {
        Some(w) => w,
        None => Err(ApspError::Internal {
            context: format!("oracle evaluation of node {idx} lost on the wire"),
        }),
    }
}

/// Dürr–Høyer extremum search executed through the network.
///
/// Node `i` holds `values[i]`; the coordinator (node 0) runs the threshold
/// walk. The walk itself is the exact simulation of
/// [`qcc_quantum::quantum_minimum_bounded`] — the strict-improvement
/// census and the per-stage Grover amplitudes are computed locally and
/// free — but every oracle evaluation the quantum algorithm performs is
/// executed as a real query/answer exchange: `k` superposition-sampled
/// queries per `k`-iteration BBHT attempt plus one evaluation of the
/// measured item, and one evaluation of the initial threshold. The final
/// answer is broadcast so every node learns it.
///
/// # Errors
///
/// * [`ApspError::StageAborted`] when a stage exhausts
///   [`DEFAULT_STAGE_ATTEMPTS`] BBHT attempts (retryable; the caller
///   restarts with fresh randomness) instead of guessing.
/// * [`ApspError::Internal`] when an injected fault swallows a query or
///   answer on an envelope-less network (retryable).
/// * Network errors ([`ApspError::Congest`]) from the exchanges.
///
/// # Panics
///
/// Panics if `values` is empty or its length differs from `net.n()`.
pub fn network_extremum<R: Rng>(
    values: &[ExtWeight],
    maximize: bool,
    net: &mut Clique,
    rng: &mut R,
) -> Result<NetworkExtremumOutcome, ApspError> {
    assert!(!values.is_empty(), "empty domain");
    assert_eq!(values.len(), net.n(), "one value per node");
    let n = values.len();
    // `maximize` flips the order by comparing under the reversed key, the
    // same trick `quantum_maximum` uses (no negation, no overflow).
    let better = |a: ExtWeight, b: ExtWeight| if maximize { a > b } else { a < b };

    let mut evaluations = 0u64;
    let mut iterations = 0u64;
    let mut stages = 0u32;
    let mut attempts = 0u64;

    let mut threshold_idx = rng.gen_range(0..n);
    let mut threshold_val = evaluate_remote(values, threshold_idx, net)?;
    evaluations += 1;

    loop {
        let mut below = Vec::new();
        let mut rest = Vec::new();
        for (i, &v) in values.iter().enumerate() {
            if better(v, threshold_val) {
                below.push(i);
            } else {
                rest.push(i);
            }
        }
        if below.is_empty() {
            // Announce the extremum so every node knows it.
            net.broadcast(
                NodeId::new(0),
                (threshold_idx as u64, encode_weight(threshold_val)),
            )?;
            return Ok(NetworkExtremumOutcome {
                index: threshold_idx,
                value: threshold_val,
                evaluations,
                iterations,
                stages,
                attempts,
                rounds: net.rounds(),
            });
        }
        let amp = GroverAmplitudes::new(n, below.len());
        let k_max = GroverAmplitudes::max_useful_iterations(n);
        let probs: Vec<f64> = (0..=k_max)
            .map(|k| amp.query_solution_probability(k).clamp(0.0, 1.0))
            .collect();
        let mut stage_attempt = 0u32;
        loop {
            let k = rng.gen_range(0..=k_max);
            attempts += 1;
            iterations += k;
            stage_attempt += 1;
            // The k Grover iterations: one distributed evaluation each, on
            // a query sampled from the current superposition.
            for j in 1..=k {
                let side = if rest.is_empty() || rng.gen_bool(probs[j as usize]) {
                    &below
                } else {
                    &rest
                };
                let q = side[rng.gen_range(0..side.len())];
                let got = evaluate_remote(values, q, net)?;
                evaluations += 1;
                debug_assert_eq!(got, values[q]);
            }
            // Measure, then evaluate the measured item against the
            // threshold (one more distributed evaluation either way).
            let success =
                rest.is_empty() || rng.gen_bool(amp.success_probability(k).clamp(0.0, 1.0));
            let measured = if success {
                below[rng.gen_range(0..below.len())]
            } else {
                rest[rng.gen_range(0..rest.len())]
            };
            let measured_val = evaluate_remote(values, measured, net)?;
            evaluations += 1;
            if success {
                threshold_idx = measured;
                threshold_val = measured_val;
                stages += 1;
                break;
            }
            if stage_attempt >= DEFAULT_STAGE_ATTEMPTS {
                return Err(ApspError::StageAborted {
                    stage: "extremum-search",
                    attempts: DEFAULT_STAGE_ATTEMPTS,
                });
            }
        }
    }
}

/// The classical baseline: every node sends its value to the coordinator
/// (one exchange — links are parallel, so `O(1)` rounds), which scans the
/// `n` values locally and broadcasts the winner. Ties break toward the
/// lowest index.
///
/// # Errors
///
/// * [`ApspError::Internal`] when some value never arrives (faults without
///   an envelope; retryable).
/// * Network errors from the exchanges.
///
/// # Panics
///
/// Panics if `values` is empty or its length differs from `net.n()`.
pub fn classical_extremum_scan(
    values: &[ExtWeight],
    maximize: bool,
    net: &mut Clique,
) -> Result<NetworkExtremumOutcome, ApspError> {
    assert!(!values.is_empty(), "empty domain");
    assert_eq!(values.len(), net.n(), "one value per node");
    let gathered = gather_at_coordinator(values, net, "classical scan")?;
    let better = |a: ExtWeight, b: ExtWeight| if maximize { a > b } else { a < b };
    let mut best = 0usize;
    for (i, &v) in gathered.iter().enumerate().skip(1) {
        if better(v, gathered[best]) {
            best = i;
        }
    }
    let value = gathered[best];
    net.broadcast(NodeId::new(0), (best as u64, encode_weight(value)))?;
    Ok(NetworkExtremumOutcome {
        index: best,
        value,
        evaluations: values.len() as u64,
        iterations: 0,
        stages: 0,
        attempts: 0,
        rounds: net.rounds(),
    })
}

/// Every node but the coordinator (node 0) sends it its value in one
/// exchange; returns the `n` values the coordinator then holds. A lost
/// value (faults without an envelope) is a retryable
/// [`ApspError::Internal`] that names the gather as `what`.
fn gather_at_coordinator(
    values: &[ExtWeight],
    net: &mut Clique,
    what: &str,
) -> Result<Vec<ExtWeight>, ApspError> {
    let n = values.len();
    let coordinator = NodeId::new(0);
    let sends: Vec<Envelope<(u64, i64)>> = (1..n)
        .map(|i| Envelope::new(NodeId::new(i), coordinator, encode_weight(values[i])))
        .collect();
    let inboxes = net.exchange(sends)?;
    let mut gathered = vec![None; n];
    gathered[0] = Some(values[0]);
    for &(src, (tag, value)) in inboxes.of(coordinator) {
        gathered[src.index()] = Some(decode_weight(tag, value)?);
    }
    let missing = gathered.iter().filter(|g| g.is_none()).count();
    if missing > 0 {
        return Err(ApspError::Internal {
            context: format!("{what} lost {missing} of {n} values on the wire"),
        });
    }
    Ok(gathered.into_iter().flatten().collect())
}

/// The distributed extremum certificate: the coordinator broadcasts the
/// claim `(index, value)`; every node flags a violation if its own value
/// is strictly better than the claim, or if it *is* the claimed witness
/// and its value disagrees; [`Clique::agree_any`] combines the flags.
/// Returns `(verdict, rounds)`.
///
/// # Errors
///
/// [`ApspError::Faulted`] when the certificate's own messages die on the
/// (fault-injected) network — the attempt then proves nothing either way.
fn certify_extremum(
    values: &[ExtWeight],
    claim_idx: usize,
    claim_val: ExtWeight,
    maximize: bool,
    netcfg: &NetConfig,
    trace: Option<&TraceSink>,
    label: &str,
) -> Result<(bool, u64), ApspError> {
    let n = values.len();
    on_clique(n, netcfg, trace, Some(label), |net| {
        if claim_idx >= n {
            return Ok(false);
        }
        let coordinator = NodeId::new(0);
        let claim = (claim_idx as u64, encode_weight(claim_val));
        let inboxes = net.broadcast(coordinator, claim)?;
        let better = |a: ExtWeight, b: ExtWeight| if maximize { a > b } else { a < b };
        let mut flags = vec![false; n];
        for (i, flag) in flags.iter_mut().enumerate() {
            // The coordinator knows its own claim.
            let heard = i == 0
                || inboxes
                    .of(NodeId::new(i))
                    .iter()
                    .any(|&(src, msg)| src == coordinator && msg == claim);
            if !heard {
                // A node that never heard the claim cannot endorse it.
                return Err(ApspError::Internal {
                    context: format!("extremum claim broadcast lost before node {i}"),
                });
            }
            *flag = better(values[i], claim_val) || (i == claim_idx && values[i] != claim_val);
        }
        Ok(!net.agree_any(&flags)?)
    })
}

/// Gather of every node's eccentricity at the coordinator — the
/// full-vector parameter's "search". Charges one exchange; a lost value
/// (faults without an envelope) is a retryable [`ApspError::Internal`].
fn gather_eccentricities(
    ecc: &[ExtWeight],
    net: &mut Clique,
) -> Result<NetworkExtremumOutcome, ApspError> {
    gather_at_coordinator(ecc, net, "eccentricity gather")?;
    Ok(NetworkExtremumOutcome {
        index: 0,
        value: ecc[0],
        evaluations: ecc.len() as u64,
        iterations: 0,
        stages: 0,
        attempts: 0,
        rounds: net.rounds(),
    })
}

/// Computes a distance parameter end to end: APSP distances (through the
/// Las-Vegas APSP driver when verification or faults are in play), local
/// eccentricities, then the extremum search stage with its own Las-Vegas
/// attempt → certify → retry → fallback loop.
///
/// With a trace sink attached, the whole run lives under one
/// `distance-param` root span whose scaled round total equals
/// [`DistanceParamReport::total_rounds`] exactly (`qcc trace-summary
/// --expect-rounds` checks this).
///
/// # Errors
///
/// * Propagated APSP errors from the distance stage.
/// * [`ApspError::VerificationFailed`] when no search attempt (fallback
///   included) produced a certified extremum.
/// * The last typed error when the budget runs out under
///   [`crate::FallbackPolicy::Fail`].
///
/// # Examples
///
/// ```
/// use qcc_apsp::{distance_params, DistanceParam, ExtremumConfig};
/// use qcc_graph::{DiGraph, ExtWeight};
/// use rand::SeedableRng;
///
/// let mut g = DiGraph::new(4);
/// for v in 0..4 {
///     g.add_arc(v, (v + 1) % 4, 1);
/// }
/// let cfg = ExtremumConfig::new(DistanceParam::Diameter);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let report = distance_params(&g, &cfg, &mut rng, None)?;
/// assert_eq!(report.value, ExtWeight::from(3));
/// assert!(report.connected && report.verified);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn distance_params<R: Rng>(
    g: &DiGraph,
    cfg: &ExtremumConfig,
    rng: &mut R,
    trace: Option<&TraceSink>,
) -> Result<DistanceParamReport, ApspError> {
    in_span(trace, "distance-param", 1, || {
        run_distance_params(g, cfg, rng, trace)
    })
}

fn run_distance_params<R: Rng>(
    g: &DiGraph,
    cfg: &ExtremumConfig,
    rng: &mut R,
    trace: Option<&TraceSink>,
) -> Result<DistanceParamReport, ApspError> {
    // Stage 1: distances. The driver (with its certificate and retries)
    // engages whenever verification is requested or the network is not
    // clean; a plain run keeps the cheap single-shot path.
    let d = &cfg.driver;
    let driven = d.verify || !d.net.is_default();
    let (distances, distance_rounds, apsp_verified, apsp_fallback) = if driven {
        let out = apsp_driver(g, d, rng, trace)?;
        (
            out.report.distances,
            out.total_rounds,
            out.verified,
            out.used_fallback,
        )
    } else {
        let report = apsp_configured(g, d.params, d.algorithm, rng, trace, &d.net)?;
        (report.distances, report.rounds, false, false)
    };

    // Stage 2: eccentricities, local to each node's row — free.
    let ecc = eccentricities(&distances);
    let connected = ecc.iter().all(|e| e.is_finite());

    // Stage 3: the extremum search (or the full-vector gather).
    let maximize = match cfg.param {
        DistanceParam::Radius => false,
        DistanceParam::Diameter | DistanceParam::Eccentricities => true,
    };
    let stage = search_stage(&ecc, maximize, cfg, rng, trace)?;

    let value = match cfg.param {
        DistanceParam::Eccentricities => diameter_of(&ecc).expect("n > 0"),
        _ => stage.report.value,
    };
    Ok(DistanceParamReport {
        param: cfg.param,
        n: g.n(),
        eccentricities: ecc,
        value,
        witness: match cfg.param {
            DistanceParam::Eccentricities => None,
            _ => Some(stage.report.index),
        },
        connected,
        distance_rounds,
        search_rounds: stage.total_rounds,
        total_rounds: distance_rounds + stage.total_rounds,
        evaluations: stage.report.evaluations,
        search_attempts: stage.attempts,
        // On a clean unverified-distance path the APSP stage has no
        // certificate; `verified` then reflects the search stage only.
        verified: d.verify && (apsp_verified || !driven) && stage.verified,
        used_fallback: apsp_fallback || stage.used_fallback,
    })
}

/// The search stage in the Las-Vegas loop: the configured search (or the
/// gather) per attempt, each on a network of its own, the classical scan
/// as fallback, each search's claim certified by [`certify_extremum`].
fn search_stage<R: Rng>(
    ecc: &[ExtWeight],
    maximize: bool,
    cfg: &ExtremumConfig,
    rng: &mut R,
    trace: Option<&TraceSink>,
) -> Result<LasVegasReport<NetworkExtremumOutcome>, ApspError> {
    let d = &cfg.driver;
    let gather = cfg.param == DistanceParam::Eccentricities;
    las_vegas(
        d.max_retries,
        d.verify,
        d.fallback,
        |t| {
            let (backend, netcfg) = match t {
                Try::Attempt(i) => (cfg.backend, d.net.reseeded(SEARCH_SALT + u64::from(i))),
                Try::Fallback(_) => (
                    ExtremumBackend::ClassicalScan,
                    hardened(&d.net, SEARCH_FALLBACK_SALT),
                ),
            };
            let label = t.run_label("ext-");
            let run = on_clique(ecc.len(), &netcfg, trace, Some(&label), |net| {
                if gather {
                    gather_eccentricities(ecc, net)
                } else if backend == ExtremumBackend::Quantum {
                    network_extremum(ecc, maximize, net, rng)
                } else {
                    classical_extremum_scan(ecc, maximize, net)
                }
            })
            .map(|(out, _)| out);
            let rounds = run
                .as_ref()
                .map_or_else(ApspError::rounds_charged, |out| out.rounds);
            (run, rounds)
        },
        |t, out| {
            if gather {
                return Ok(None);
            }
            let netcfg = hardened(&d.net, SEARCH_VERIFY_SALT + u64::from(t.index()));
            let label = t.verify_label("ext-");
            certify_extremum(ecc, out.index, out.value, maximize, &netcfg, trace, &label).map(Some)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ApspAlgorithm;
    use qcc_congest::FaultPlan;
    use qcc_graph::{floyd_warshall, random_reweighted_digraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize) -> DiGraph {
        let mut g = DiGraph::new(n);
        for v in 0..n {
            g.add_arc(v, (v + 1) % n, 1);
        }
        g
    }

    fn true_ecc(g: &DiGraph) -> Vec<ExtWeight> {
        eccentricities(&floyd_warshall(&g.adjacency_matrix()).unwrap())
    }

    #[test]
    fn eccentricities_are_row_maxima_with_honest_infinities() {
        let mut g = DiGraph::new(4);
        g.add_arc(0, 1, 2);
        g.add_arc(1, 0, 3);
        // vertices 2, 3 isolated
        let ecc = true_ecc(&g);
        assert_eq!(ecc[0], ExtWeight::PosInf);
        assert_eq!(ecc[2], ExtWeight::PosInf, "an isolated vertex is not ecc 0");
        assert_eq!(diameter_of(&ecc), Some(ExtWeight::PosInf));
    }

    #[test]
    fn single_vertex_graph_has_zero_everything() {
        let g = DiGraph::new(1);
        let ecc = true_ecc(&g);
        assert_eq!(ecc, vec![ExtWeight::ZERO]);
        assert_eq!(diameter_of(&ecc), Some(ExtWeight::ZERO));
        assert_eq!(radius_of(&ecc), Some(ExtWeight::ZERO));
    }

    #[test]
    fn radius_can_be_finite_on_a_disconnected_digraph() {
        // 0 reaches everything; 2 reaches nothing.
        let mut g = DiGraph::new(3);
        g.add_arc(0, 1, 1);
        g.add_arc(0, 2, 5);
        g.add_arc(1, 2, 1);
        let ecc = true_ecc(&g);
        // ecc(0) = max(d(0,1)=1, d(0,2)=min(5, 1+1)=2) = 2
        assert_eq!(radius_of(&ecc), Some(ExtWeight::from(2)));
        assert_eq!(diameter_of(&ecc), Some(ExtWeight::PosInf));
    }

    #[test]
    fn network_extremum_finds_the_true_extremum_and_charges_rounds() {
        let mut rng = StdRng::seed_from_u64(301);
        let g = ring(16);
        let ecc = true_ecc(&g);
        for maximize in [false, true] {
            let mut net = Clique::new(16).unwrap();
            let out = network_extremum(&ecc, maximize, &mut net, &mut rng).unwrap();
            let want = if maximize {
                *ecc.iter().max().unwrap()
            } else {
                *ecc.iter().min().unwrap()
            };
            assert_eq!(out.value, want);
            assert_eq!(out.value, ecc[out.index]);
            assert!(out.rounds > 0, "evaluations must charge the network");
            assert_eq!(out.rounds, net.rounds());
            assert!(out.evaluations >= 1);
        }
    }

    #[test]
    fn classical_scan_matches_and_uses_n_evaluations() {
        let mut rng = StdRng::seed_from_u64(302);
        let g = random_reweighted_digraph(12, 0.6, 7, &mut rng);
        let ecc = true_ecc(&g);
        let mut net = Clique::new(12).unwrap();
        let out = classical_extremum_scan(&ecc, true, &mut net).unwrap();
        assert_eq!(out.value, *ecc.iter().max().unwrap());
        assert_eq!(out.evaluations, 12);
        assert!(out.rounds >= 2, "gather + winner broadcast");
    }

    #[test]
    fn certificate_accepts_truth_and_rejects_lies() {
        let mut rng = StdRng::seed_from_u64(303);
        let g = random_reweighted_digraph(9, 0.7, 5, &mut rng);
        let ecc = true_ecc(&g);
        let best = (0..9).max_by_key(|&i| ecc[i]).unwrap();
        let clean = NetConfig::default();
        let (ok, rounds) =
            certify_extremum(&ecc, best, ecc[best], true, &clean, None, "v").unwrap();
        assert!(ok);
        assert!(rounds > 0);
        // A non-extremal witness flunks.
        let worst = (0..9).min_by_key(|&i| ecc[i]).unwrap();
        if ecc[worst] != ecc[best] {
            let (ok, _) =
                certify_extremum(&ecc, worst, ecc[worst], true, &clean, None, "v").unwrap();
            assert!(!ok);
        }
        // A wrong value for the right witness flunks.
        let (ok, _) = certify_extremum(
            &ecc,
            best,
            ecc[best] + ExtWeight::from(1),
            true,
            &clean,
            None,
            "v",
        )
        .unwrap();
        assert!(!ok);
    }

    #[test]
    fn quantum_beats_classical_on_evaluations_at_moderate_n() {
        let mut rng = StdRng::seed_from_u64(304);
        let n = 64;
        let g = ring(n);
        let ecc = true_ecc(&g);
        let trials = 20;
        let mut total = 0u64;
        for _ in 0..trials {
            let mut net = Clique::new(n).unwrap();
            let out = network_extremum(&ecc, true, &mut net, &mut rng).unwrap();
            total += out.evaluations;
        }
        let mean = total as f64 / f64::from(trials);
        assert!(
            mean < n as f64,
            "quantum mean evaluations {mean} should beat the classical {n}-scan"
        );
    }

    #[test]
    fn distance_params_end_to_end_on_a_ring() {
        let mut rng = StdRng::seed_from_u64(305);
        let g = ring(8);
        for (param, want) in [
            (DistanceParam::Diameter, ExtWeight::from(7)),
            (DistanceParam::Radius, ExtWeight::from(7)),
        ] {
            let mut cfg = ExtremumConfig::new(param);
            cfg.driver.algorithm = ApspAlgorithm::NaiveBroadcast;
            let report = distance_params(&g, &cfg, &mut rng, None).unwrap();
            assert_eq!(report.value, want);
            assert!(report.connected && report.verified && !report.used_fallback);
            assert_eq!(
                report.total_rounds,
                report.distance_rounds + report.search_rounds
            );
        }
    }

    #[test]
    fn distance_params_reports_disconnection() {
        let mut g = DiGraph::new(6);
        g.add_arc(0, 1, 1);
        g.add_arc(1, 0, 1);
        // vertices 2..6 isolated
        let mut rng = StdRng::seed_from_u64(306);
        let mut cfg = ExtremumConfig::new(DistanceParam::Diameter);
        cfg.driver.algorithm = ApspAlgorithm::NaiveBroadcast;
        let report = distance_params(&g, &cfg, &mut rng, None).unwrap();
        assert!(!report.connected);
        assert_eq!(report.value, ExtWeight::PosInf);
    }

    #[test]
    fn eccentricities_param_gathers_the_full_vector() {
        let mut rng = StdRng::seed_from_u64(307);
        let g = ring(7);
        let mut cfg = ExtremumConfig::new(DistanceParam::Eccentricities);
        cfg.driver.algorithm = ApspAlgorithm::NaiveBroadcast;
        let report = distance_params(&g, &cfg, &mut rng, None).unwrap();
        assert_eq!(report.eccentricities, true_ecc(&g));
        assert!(report.witness.is_none());
        assert_eq!(report.value, ExtWeight::from(6), "value is the max entry");
        assert!(report.search_rounds > 0, "the gather must be charged");
    }

    #[test]
    fn faulty_run_survives_with_envelope_and_verifies() {
        let mut rng = StdRng::seed_from_u64(308);
        let g = ring(9);
        let mut cfg = ExtremumConfig::new(DistanceParam::Diameter);
        cfg.driver.algorithm = ApspAlgorithm::NaiveBroadcast;
        cfg.driver.net = NetConfig::faulty(FaultPlan::parse("drop=0.15,seed=5").unwrap());
        let report = distance_params(&g, &cfg, &mut rng, None).unwrap();
        assert_eq!(report.value, ExtWeight::from(8));
        assert!(report.verified);
    }

    #[test]
    fn scan_backend_works_through_the_driver() {
        let mut rng = StdRng::seed_from_u64(309);
        let g = ring(10);
        let mut cfg = ExtremumConfig::new(DistanceParam::Radius);
        cfg.driver.algorithm = ApspAlgorithm::NaiveBroadcast;
        cfg.backend = ExtremumBackend::ClassicalScan;
        let report = distance_params(&g, &cfg, &mut rng, None).unwrap();
        assert_eq!(report.value, ExtWeight::from(9));
        assert_eq!(report.evaluations, 10);
    }
}
