//! Lockstep reference model of the quantum Step 3 (the parallel Grover
//! searches).
//!
//! [`reference_step3`] is `run_step3_quantum` as it was written before its
//! draw loop ran over integer thresholds, over the public API only: each
//! search draws through a per-search `draw` on its tables, `gen_bool` on a
//! row of `f64` query-solution probabilities, every search carries its own
//! kept pair, and apexes are found by scanning `is_negative_triangle` over
//! the fine block.
//!
//! The library and the reference run on identical seeded inputs: random
//! graphs with n′ ∈ {12, 16, 27, 48, 96} under `Params::scaled()` and
//! `Params::paper()`, a small `dup_denominator` (every query list split
//! across several triple copies) and a list cap low enough that
//! evaluations are refused; on a transparent network (the charge-only
//! session) and one with the reliable envelope armed and no faults (every
//! evaluation materialized). They must agree on the `Step3Output`, the
//! rounds, the per-phase stats, the NDJSON trace and the RNG's next draw.

use qcc_apsp::eval_procedure::{
    evaluate_joint, AlphaContext, ChargeOnlyEval, EvalJointError, EvalQuery,
};
use qcc_apsp::gather::{gather_weights, GatheredWeights};
use qcc_apsp::identify_class::{identify_class_with_retry, ClassAssignment};
use qcc_apsp::lambda::build_lambda_cover_with_retry;
use qcc_apsp::step3::run_step3_quantum;
use qcc_apsp::{
    ApspError, FoundWitness, Instance, KeptPair, LambdaCover, PairSet, Params, Step3Output,
    Step3Stats,
};
use qcc_congest::trace::{TraceBuffer, TraceSink};
use qcc_congest::{Clique, ReliableConfig};
use qcc_graph::random_ugraph;
use qcc_quantum::{repetitions_for_target, GroverAmplitudes};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// One row of query-solution probabilities per `(domain, solutions)`.
struct RotationRows {
    stride: usize,
    index: Vec<u32>,
    fine: usize,
    probs: Vec<f64>,
}

impl RotationRows {
    fn new(fine: usize) -> Self {
        RotationRows {
            stride: GroverAmplitudes::max_useful_iterations(fine) as usize + 1,
            index: vec![u32::MAX; (fine + 1) * (fine + 1)],
            fine,
            probs: Vec::new(),
        }
    }

    fn row(&mut self, domain: usize, solutions: usize) -> u32 {
        let slot = &mut self.index[domain * (self.fine + 1) + solutions];
        if *slot == u32::MAX {
            *slot = (self.probs.len() / self.stride) as u32;
            let amp = GroverAmplitudes::new(domain, solutions);
            self.probs.extend(
                (0..self.stride as u64).map(|k| amp.query_solution_probability(k).clamp(0.0, 1.0)),
            );
        }
        *slot
    }

    fn probability(&self, row: u32, k: u64) -> f64 {
        self.probs[row as usize * self.stride + k as usize]
    }
}

#[derive(Clone, Copy)]
struct Census {
    /// `[non-solution blocks, solution blocks]`.
    sides: [Uniform<u32>; 2],
    pick: Pick,
}

#[derive(Clone, Copy)]
enum Pick {
    Always(bool),
    Rotation(u32),
}

#[derive(Default)]
struct SearchTables {
    blocks: Vec<u32>,
    censuses: Vec<Census>,
    labels: Vec<u32>,
    census_of: Vec<u32>,
    /// Pair of each search.
    pairs: Vec<KeptPair>,
    with_solutions: usize,
    max_domain: usize,
}

impl SearchTables {
    fn len(&self) -> usize {
        self.labels.len()
    }

    /// Search `i`'s target after `k` iterations and its answer.
    fn draw<R: Rng>(&self, rows: &RotationRows, i: usize, k: u64, rng: &mut R) -> (usize, bool) {
        let census = &self.censuses[self.census_of[i] as usize];
        let solution = match census.pick {
            Pick::Always(solution) => solution,
            Pick::Rotation(row) => rng.gen_bool(rows.probability(row, k)),
        };
        let index = census.sides[usize::from(solution)].sample(rng);
        (self.blocks[index as usize] as usize, solution)
    }
}

const UNKNOWN: u8 = 0;
const NO_APEX: u8 = 1;
const APEX: u8 = 2;
const WITNESSED: u8 = 3;

/// Whether a vertex of fine block `bw` completes a negative triangle with
/// `{u, v}`, one `is_negative_triangle` per apex.
fn scan_apex(inst: &Instance<'_>, u: usize, v: usize, bw: usize) -> bool {
    inst.parts
        .fine
        .block(bw)
        .any(|w| inst.graph.is_negative_triangle(u, v, w))
}

struct TableBuilder {
    rows: RotationRows,
    census_at: Vec<(u32, u32)>,
    stamp: u32,
    apex: Vec<u8>,
}

impl TableBuilder {
    fn new(inst: &Instance<'_>) -> Self {
        let n = inst.n();
        let fine = inst.parts.fine.num_blocks();
        TableBuilder {
            rows: RotationRows::new(fine),
            census_at: vec![(0, 0); n * n],
            stamp: 0,
            apex: vec![UNKNOWN; n * n * fine],
        }
    }

    fn tables(
        &mut self,
        inst: &Instance<'_>,
        cover: &LambdaCover,
        classes: &ClassAssignment,
        alpha: u32,
    ) -> SearchTables {
        let n = inst.n();
        let fine = inst.parts.fine.num_blocks();
        let q = inst.parts.coarse.num_blocks();
        let mut t = SearchTables::default();
        let mut non_solutions: Vec<u32> = Vec::new();
        for bu in 0..q {
            for bv in 0..q {
                let domain = classes.t_alpha(inst, bu, bv, alpha);
                if domain.is_empty() {
                    continue;
                }
                self.stamp += 1;
                let searches_before = t.len();
                for x in 0..fine {
                    let label = inst.searches.encode(bu, bv, x);
                    for pair in &cover.kept[label] {
                        let pair_cell = pair.u * n + pair.v;
                        if self.census_at[pair_cell].0 != self.stamp {
                            self.census_at[pair_cell] = (self.stamp, t.censuses.len() as u32);
                            let start = t.blocks.len() as u32;
                            non_solutions.clear();
                            for &bw in &domain {
                                let apex = &mut self.apex[pair_cell * fine + bw];
                                if *apex == UNKNOWN {
                                    *apex = if scan_apex(inst, pair.u, pair.v, bw) {
                                        APEX
                                    } else {
                                        NO_APEX
                                    };
                                }
                                if *apex != NO_APEX {
                                    t.blocks.push(bw as u32);
                                } else {
                                    non_solutions.push(bw as u32);
                                }
                            }
                            let mid = t.blocks.len() as u32;
                            t.blocks.extend_from_slice(&non_solutions);
                            let end = t.blocks.len() as u32;
                            t.censuses.push(if mid == end {
                                Census {
                                    sides: [Uniform::new(start, mid); 2],
                                    pick: Pick::Always(true),
                                }
                            } else if mid == start {
                                Census {
                                    sides: [Uniform::new(mid, end); 2],
                                    pick: Pick::Always(false),
                                }
                            } else {
                                let row = self.rows.row(domain.len(), (mid - start) as usize);
                                Census {
                                    sides: [Uniform::new(mid, end), Uniform::new(start, mid)],
                                    pick: Pick::Rotation(row),
                                }
                            });
                        }
                        let census = self.census_at[pair_cell].1;
                        if !matches!(t.censuses[census as usize].pick, Pick::Always(false)) {
                            t.with_solutions += 1;
                        }
                        t.labels.push(label as u32);
                        t.census_of.push(census);
                        t.pairs.push(*pair);
                    }
                }
                if t.len() > searches_before {
                    t.max_domain = t.max_domain.max(domain.len());
                }
            }
        }
        t
    }
}

fn accepted(
    outcome: Result<(), EvalJointError>,
    stats: &mut Step3Stats,
) -> Result<bool, ApspError> {
    match outcome {
        Ok(()) => Ok(true),
        Err(EvalJointError::Atypical(_)) => {
            stats.typicality_violations += 1;
            Ok(false)
        }
        Err(EvalJointError::Congest(e)) => Err(e.into()),
        Err(EvalJointError::Internal(context)) => Err(ApspError::Internal { context }),
    }
}

/// The quantum Step 3 with a per-search draw on `f64` probability rows.
fn reference_step3<R: Rng>(
    inst: &Instance<'_>,
    net: &mut Clique,
    cover: &LambdaCover,
    gathered: &GatheredWeights,
    classes: &ClassAssignment,
    rng: &mut R,
) -> Result<Step3Output, ApspError> {
    let n = inst.n();
    let fine = inst.parts.fine.num_blocks();
    let mut witnesses: Vec<FoundWitness> = Vec::new();
    let mut stats = Step3Stats::default();

    let mut builder = TableBuilder::new(inst);
    for alpha in 0..=classes.max_class() {
        let class_labels: Vec<usize> = (0..inst.triples.labeling().label_count())
            .filter(|&t| classes.class_of[t] == alpha)
            .collect();
        if class_labels.is_empty() {
            continue;
        }
        let actx = AlphaContext::build(inst, net, alpha, &class_labels)?;
        let tables = builder.tables(inst, cover, classes, alpha);
        if tables.len() == 0 {
            continue;
        }
        stats.searches += tables.len();

        let k_max = GroverAmplitudes::max_useful_iterations(tables.max_domain);
        let reps = inst
            .params
            .search_repetitions
            .unwrap_or_else(|| repetitions_for_target(tables.len()));

        let mut charge_sess = ChargeOnlyEval::try_new(inst, net, &actx);
        let mut queries: Vec<EvalQuery> = Vec::new();
        let mut evaluate = |k: u64,
                            measure: bool,
                            rng: &mut R,
                            positives: &mut Vec<(usize, usize)>|
         -> Result<(), EvalJointError> {
            positives.clear();
            if let Some(sess) = charge_sess.as_mut() {
                for i in 0..tables.len() {
                    let (target, answer) = tables.draw(&builder.rows, i, k, rng);
                    sess.push(tables.labels[i] as usize, target);
                    if measure && answer {
                        positives.push((i, target));
                    }
                }
                return sess.finish(net);
            }
            queries.clear();
            for i in 0..tables.len() {
                queries.push(EvalQuery {
                    search_label: tables.labels[i] as usize,
                    pair: tables.pairs[i],
                    target: tables.draw(&builder.rows, i, k, rng).0,
                });
            }
            let answers = evaluate_joint(inst, net, gathered, &actx, &queries)?;
            for (i, (q, answer)) in queries.iter().zip(answers).enumerate() {
                if measure && answer {
                    positives.push((i, q.target));
                }
            }
            Ok(())
        };

        let mut positives: Vec<(usize, usize)> = Vec::new();
        let mut confirmed = vec![false; tables.len()];
        let mut unresolved = tables.with_solutions;
        for _ in 0..reps {
            stats.repetitions += 1;
            let k = rng.gen_range(0..=k_max);
            for iter in 0..k {
                stats.eval_calls += 1;
                stats.iterations += 1;
                accepted(evaluate(iter, false, rng, &mut positives), &mut stats)?;
            }
            stats.eval_calls += 1;
            if accepted(evaluate(k, true, rng, &mut positives), &mut stats)? {
                for &(i, block) in &positives {
                    if !confirmed[i] {
                        confirmed[i] = true;
                        unresolved -= 1;
                    }
                    let pair = tables.pairs[i];
                    let apex = &mut builder.apex[(pair.u * n + pair.v) * fine + block];
                    assert!(*apex == APEX || *apex == WITNESSED);
                    if *apex == APEX {
                        *apex = WITNESSED;
                        witnesses.push(FoundWitness {
                            u: pair.u.min(pair.v),
                            v: pair.u.max(pair.v),
                            block,
                        });
                    }
                }
            }
            if unresolved == 0 {
                break;
            }
        }
    }
    witnesses.sort_unstable();
    let found = witnesses.iter().map(|w| (w.u, w.v)).collect();
    Ok(Step3Output {
        found,
        witnesses,
        stats,
    })
}

/// The network kinds both sides run on.
#[derive(Clone, Copy, Debug)]
enum NetKind {
    Transparent,
    /// The reliable envelope armed without a fault plan: every evaluation
    /// is materialized and delivered.
    Enveloped,
}

fn network(n: usize, kind: NetKind) -> (Clique, TraceBuffer) {
    let mut net = Clique::new(n).unwrap();
    if let NetKind::Enveloped = kind {
        net.set_reliable_delivery(ReliableConfig::default());
    }
    let (sink, trace) = TraceSink::in_memory();
    net.set_trace_sink(sink);
    (net, trace)
}

/// Runs Steps 1–2 and `IdentifyClass` on a seeded random graph of `n`
/// vertices, then Step 3 through the library and the reference from the
/// same RNG state on fresh networks of `net_kind`, and asserts they agree.
/// Returns the library's stats.
fn check_case(n: usize, params: Params, net_kind: NetKind, seed: u64) -> Step3Stats {
    let context = format!("n {n}, {params:?}, {net_kind:?}, seed {seed}");
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = random_ugraph(n, 0.5, 8, &mut rng);
    let s = PairSet::all_pairs(n);
    let inst = Instance::new(&graph, &s, params);
    let mut setup = Clique::new(n).unwrap();
    let gathered = gather_weights(&inst, &mut setup).unwrap();
    let cover = build_lambda_cover_with_retry(&inst, &mut setup, 30, &mut rng).unwrap();
    let classes = identify_class_with_retry(&inst, &mut setup, 30, &mut rng).unwrap();

    let (mut lib_net, lib_trace) = network(n, net_kind);
    let mut lib_rng = rng.clone();
    let lib = run_step3_quantum(
        &inst,
        &mut lib_net,
        &cover,
        &gathered,
        &classes,
        &mut lib_rng,
    )
    .unwrap();
    lib_net.close_all_spans();

    let (mut ref_net, ref_trace) = network(n, net_kind);
    let mut ref_rng = rng;
    let reference = reference_step3(
        &inst,
        &mut ref_net,
        &cover,
        &gathered,
        &classes,
        &mut ref_rng,
    )
    .unwrap();
    ref_net.close_all_spans();

    assert_eq!(lib.found, reference.found, "{context}");
    assert_eq!(lib.witnesses, reference.witnesses, "{context}");
    assert_eq!(lib.stats, reference.stats, "{context}");
    assert_eq!(lib_rng.next_u64(), ref_rng.next_u64(), "{context}");
    assert_eq!(lib_net.rounds(), ref_net.rounds(), "{context}");
    assert_eq!(
        lib_net.metrics().phases(),
        ref_net.metrics().phases(),
        "{context}"
    );
    assert_eq!(lib_trace.contents(), ref_trace.contents(), "{context}");
    lib.stats
}

#[test]
fn library_matches_the_reference_on_both_network_kinds() {
    for (i, n) in [12, 16, 27, 48].into_iter().enumerate() {
        for (j, params) in [Params::scaled(), Params::paper()].into_iter().enumerate() {
            for net_kind in [NetKind::Transparent, NetKind::Enveloped] {
                let stats = check_case(n, params, net_kind, 0x57E9 + (4 * i + j) as u64);
                assert!(stats.searches > 0, "n {n}: no searches ran");
            }
        }
    }
}

#[test]
fn library_matches_the_reference_at_n96() {
    // The virtual clique of an n = 32 APSP, the benchmark's scale.
    for params in [Params::scaled(), Params::paper()] {
        check_case(96, params, NetKind::Transparent, 0x57E96);
    }
    check_case(96, Params::scaled(), NetKind::Enveloped, 0x57E97);
}

#[test]
fn library_matches_the_reference_with_duplicated_triples() {
    // Classes 1–3 get 3, 7 and 14 copies per triple at n = 48.
    let mut params = Params::scaled();
    params.dup_denominator = 0.1;
    for n in [27, 48] {
        for net_kind in [NetKind::Transparent, NetKind::Enveloped] {
            check_case(n, params, net_kind, 0x57ED + n as u64);
        }
    }
}

#[test]
fn library_matches_the_reference_when_evaluations_are_refused() {
    let mut params = Params::scaled();
    params.list_bound = 0.2;
    let mut refused = 0;
    for n in [27, 48] {
        for net_kind in [NetKind::Transparent, NetKind::Enveloped] {
            refused += check_case(n, params, net_kind, 0x57EF + n as u64).typicality_violations;
        }
    }
    assert!(refused > 0, "the list cap refused no evaluation");
}
