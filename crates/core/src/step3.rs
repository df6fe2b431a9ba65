//! Step 3 of ComputePairs: the parallel searches (Figure 3).
//!
//! After `IdentifyClass` partitions the triples into classes `{T_α}`, each
//! search node `(u, v, x)` runs, for every kept pair `{u, v}`, one search
//! per class: "is there a fine block `w ∈ T_α[u, v]` containing an apex of
//! a negative triangle through `{u, v}`?". The quantum implementation runs
//! all these searches as lockstep Grover iterations sharing the joint
//! evaluation procedures of Figures 4–5 (`O~(n^{1/4})` rounds total); the
//! classical baseline simply scans every fine block (`O~(√n)` rounds).

use crate::eval_procedure::{
    evaluate_joint, evaluate_joint_unbounded, AlphaContext, ChargeOnlyEval, EvalJointError,
    EvalQuery,
};
use crate::gather::GatheredWeights;
use crate::identify_class::ClassAssignment;
use crate::instance::Instance;
use crate::lambda::{KeptPair, LambdaCover};
use crate::problem::PairSet;
use crate::ApspError;
use qcc_quantum::{repetitions_for_target, GroverAmplitudes};
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// Which Step-3 implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SearchBackend {
    /// Lockstep parallel Grover searches (Theorem 2, `O~(n^{1/4})` rounds).
    Quantum,
    /// Exhaustive scan over the fine blocks (`O~(√n)` rounds).
    Classical,
}

/// A confirmed pair together with the fine block whose apex witnessed it.
///
/// Witnesses come straight from the verified measurement (quantum) or the
/// confirming scan step (classical); `block` always contains at least one
/// apex completing a negative triangle with `{u, v}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct FoundWitness {
    /// Smaller endpoint of the pair.
    pub u: usize,
    /// Larger endpoint of the pair.
    pub v: usize,
    /// Index of the witnessing fine block.
    pub block: usize,
}

/// Full result of a Step-3 run.
#[derive(Clone, Debug)]
pub struct Step3Output {
    /// The pairs confirmed to sit in a negative triangle.
    pub found: PairSet,
    /// One entry per distinct confirmed `(pair, block)`, in sorted order (a
    /// pair may appear with several blocks; every listed block holds a
    /// real apex).
    pub witnesses: Vec<FoundWitness>,
    /// Run diagnostics.
    pub stats: Step3Stats,
}

/// Diagnostics of a Step-3 run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Step3Stats {
    /// Total parallel searches executed.
    pub searches: usize,
    /// Lockstep Grover iterations (0 for the classical backend).
    pub iterations: u64,
    /// Joint evaluation calls.
    pub eval_calls: u64,
    /// Queries the truncated evaluator rejected as atypical.
    pub typicality_violations: u64,
    /// Amplification repetitions (per class, summed).
    pub repetitions: u64,
}

/// One row of `gen_bool` thresholds per distinct `(domain size, solution
/// count)`, shared by every search of a Step-3 run.
///
/// A search's state after `k` Grover iterations is a rotation fixed by its
/// domain size and solution count alone, so searches with the same split
/// share their row; rows are filled on first use. Entry `k` of a row is the
/// [`gen_bool_threshold`] of the query-solution probability after `k`
/// iterations, so a draw compares the generator's next word with it instead
/// of calling `gen_bool` on a probability.
struct RotationRows {
    /// Iteration counts per row: `0 ..= max_useful_iterations(fine)`
    /// covers every `k` a domain of at most `fine` blocks draws.
    stride: usize,
    /// Row of `(domain, solutions)` at `domain * (fine + 1) + solutions`,
    /// `u32::MAX` until built.
    index: Vec<u32>,
    fine: usize,
    /// `⌈sin²((2k+1)θ)·2^53⌉`, the probability clamped to `[0, 1]`,
    /// row-major.
    thresholds: Vec<u64>,
}

impl RotationRows {
    fn new(fine: usize) -> Self {
        RotationRows {
            stride: GroverAmplitudes::max_useful_iterations(fine) as usize + 1,
            index: vec![u32::MAX; (fine + 1) * (fine + 1)],
            fine,
            thresholds: Vec::new(),
        }
    }

    /// The row of a domain of `domain` blocks with `solutions` solutions.
    fn row(&mut self, domain: usize, solutions: usize) -> u32 {
        let slot = &mut self.index[domain * (self.fine + 1) + solutions];
        if *slot == u32::MAX {
            *slot = (self.thresholds.len() / self.stride) as u32;
            let amp = GroverAmplitudes::new(domain, solutions);
            self.thresholds
                .extend((0..self.stride as u64).map(|k| {
                    gen_bool_threshold(amp.query_solution_probability(k).clamp(0.0, 1.0))
                }));
        }
        *slot
    }

    /// Entry `k` of every row, indexed by row: the thresholds of one
    /// evaluation after `k` iterations.
    fn column_into(&self, k: u64, column: &mut Vec<u64>) {
        column.clear();
        column.extend(self.thresholds.iter().skip(k as usize).step_by(self.stride));
    }
}

/// `⌈p·2^53⌉`, the integer form of `gen_bool(p)`: `gen_bool` compares the
/// top 53 bits `m` of one `next_u64()` as `m·2^-53 < p`, which (both sides
/// exact in `f64`, `m` an integer) holds iff `m < ⌈p·2^53⌉`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`, as `gen_bool` would; a NaN must not
/// become a threshold of 0 through the saturating cast.
fn gen_bool_threshold(p: f64) -> u64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "gen_bool probability out of range: {p}"
    );
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// How a search draws its query target: one census per `(pair, block
/// pair)`, shared by every label `x` of the block pair that keeps the pair.
#[derive(Clone, Copy)]
struct Census {
    /// Index draws into [`SearchTables::blocks`], indexed by the answer:
    /// `[non-solution blocks, solution blocks]`. A domain with one kind of
    /// block only holds its side in both.
    sides: [Uniform<u32>; 2],
    pick: Pick,
}

/// Which side of a [`Census`] a draw takes.
#[derive(Clone, Copy)]
enum Pick {
    /// Always this side: the domain holds one kind of block only.
    Always(bool),
    /// The solution side when the next word's top 53 bits fall below this
    /// row's threshold in [`RotationRows`] — the draw of `gen_bool`.
    Rotation(u32),
}

/// What one evaluation's draws read: the α-context's censuses and target
/// blocks, and the threshold column of the evaluation's iteration.
#[derive(Clone, Copy)]
struct Sampler<'t> {
    censuses: &'t [Census],
    blocks: &'t [u32],
    column: &'t [u64],
}

impl Sampler<'_> {
    /// Samples a target block from census `census`, together with the
    /// evaluation's (predetermined) answer: a target drawn from the
    /// solution side is exactly one with an apex in its block — the same
    /// boolean the joint evaluation ships back.
    ///
    /// The draws are those of the textbook sampler: a `gen_bool` only when
    /// both sides are non-empty, then a uniform index into the side.
    #[inline(always)]
    fn draw<R: Rng>(self, census: u32, rng: &mut R) -> (usize, bool) {
        let census = &self.censuses[census as usize];
        let solution = match census.pick {
            Pick::Always(solution) => solution,
            Pick::Rotation(row) => {
                let threshold = self.column[row as usize];
                rng.next_u64() >> 11 < threshold
            }
        };
        let index = census.sides[usize::from(solution)].sample(rng);
        (self.blocks[index as usize] as usize, solution)
    }
}

/// The searches of one α-context, as flat tables filled in one pass per
/// coarse block pair.
#[derive(Default)]
struct SearchTables {
    /// Target blocks of every census: its solution blocks, then its
    /// non-solution blocks, each in domain order.
    blocks: Vec<u32>,
    censuses: Vec<Census>,
    /// Pair of each census; read when a measurement confirms one of its
    /// searches and by materialized evaluations.
    pairs: Vec<KeptPair>,
    /// Search label of each search, in lockstep order.
    labels: Vec<u32>,
    /// Census of each search.
    census_of: Vec<u32>,
    /// Searches with at least one solution block.
    with_solutions: usize,
    /// Largest domain any search has.
    max_domain: usize,
}

impl SearchTables {
    fn len(&self) -> usize {
        self.labels.len()
    }
}

/// The Step-3 state that outlives one α-context, from which each context's
/// [`SearchTables`] are built.
struct TableBuilder {
    rows: RotationRows,
    /// Per pair `u·n + v`: `(stamp, census)`, the pair's census under the
    /// block pair that was given `stamp`; each α-context's block pairs get
    /// fresh stamps, so the table is never cleared.
    census_at: Vec<(u32, u32)>,
    stamp: u32,
    /// Apex memo per `(pair, fine block)` at `(u·n + v)·fine + block`: one
    /// of [`UNKNOWN`], [`NO_APEX`], [`APEX`], [`WITNESSED`].
    apex: Vec<u8>,
}

// States of the `TableBuilder::apex` memo.
/// Not looked up yet.
const UNKNOWN: u8 = 0;
/// The block holds no apex of the pair.
const NO_APEX: u8 = 1;
/// The block holds an apex of the pair.
const APEX: u8 = 2;
/// An apex an accepted measurement has already recorded as a witness; only
/// a block the table build found an apex in can reach this state.
const WITNESSED: u8 = 3;

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

    /// Builds the searches of class `alpha`: one per (search label, kept
    /// pair) whose block pair has class-α targets, in label order.
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
                                    *apex = if inst.has_apex_in_block(pair.u, pair.v, bw) {
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
                            t.pairs.push(*pair);
                        }
                        let census = self.census_at[pair_cell].1;
                        if !matches!(t.censuses[census as usize].pick, Pick::Always(false)) {
                            t.with_solutions += 1;
                        }
                        t.labels.push(label as u32);
                        t.census_of.push(census);
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

/// Runs the quantum Step 3 over a prepared class assignment.
///
/// Returns the found pairs and run diagnostics.
///
/// # Errors
///
/// Propagates simulator-level errors; typicality refusals are *not* errors
/// (they are counted in the stats, as Theorem 3's analysis prescribes).
pub fn run_step3_quantum<R: Rng>(
    inst: &Instance<'_>,
    net: &mut qcc_congest::Clique,
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
        let actx = AlphaContext::build(inst, net, alpha, &class_labels).map_err(ApspError::from)?;
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

        // The lockstep iterations consume only the evaluation *charges* (the
        // answers are fixed by the census side a target is drawn from, as
        // the debug_asserts below check), so on a transparent network each
        // draw is one increment on the charge-only session's grid instead
        // of a materialized query.
        let mut charge_sess = ChargeOnlyEval::try_new(inst, net, &actx);
        let (labels, census_of, pairs) =
            (&tables.labels[..], &tables.census_of[..], &tables.pairs[..]);
        let (censuses, blocks) = (&tables.censuses[..], &tables.blocks[..]);
        let rows = &builder.rows;
        let has_apex = |census: u32, target| {
            let pair = &pairs[census as usize];
            inst.has_apex_in_block(pair.u, pair.v, target)
        };
        let mut column: Vec<u64> = Vec::new();
        // One query buffer reused across every materialized evaluation.
        let mut queries: Vec<EvalQuery> = Vec::new();
        // Draws every search's target after `k` iterations and evaluates the
        // tuple jointly; a measurement also collects the searches whose
        // target holds an apex, as (search, target), into `positives`.
        let mut evaluate = |k: u64,
                            measure: bool,
                            rng: &mut R,
                            positives: &mut Vec<(usize, usize)>|
         -> Result<(), EvalJointError> {
            positives.clear();
            rows.column_into(k, &mut column);
            // A local of this call, so that the loops keep its slices in
            // registers instead of reloading them per draw.
            let sampler = Sampler {
                censuses,
                blocks,
                column: &column,
            };
            let searches = labels.iter().zip(census_of);
            if let Some(sess) = charge_sess.as_mut() {
                let (grid, fine) = sess.grid();
                if measure {
                    for (i, (&label, &census)) in searches.enumerate() {
                        let (target, answer) = sampler.draw(census, rng);
                        grid[label as usize * fine + target] += 1;
                        debug_assert!(answer == has_apex(census, target));
                        if answer {
                            positives.push((i, target));
                        }
                    }
                } else {
                    for (&label, &census) in searches {
                        let (target, answer) = sampler.draw(census, rng);
                        grid[label as usize * fine + target] += 1;
                        debug_assert!(answer == has_apex(census, target));
                    }
                }
                return sess.finish(net);
            }
            queries.clear();
            for (&label, &census) in searches {
                queries.push(EvalQuery {
                    search_label: label as usize,
                    pair: pairs[census as usize],
                    target: sampler.draw(census, rng).0,
                });
            }
            let answers = evaluate_joint(inst, net, gathered, &actx, &queries)?;
            for (i, (q, answer)) in queries.iter().zip(answers).enumerate() {
                debug_assert!(answer == inst.has_apex_in_block(q.pair.u, q.pair.v, q.target));
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
            // Measure every search and verify the measured tuple jointly; a
            // refused tuple confirms nothing.
            stats.eval_calls += 1;
            if accepted(evaluate(k, true, rng, &mut positives), &mut stats)? {
                for &(i, block) in &positives {
                    if !confirmed[i] {
                        confirmed[i] = true;
                        unresolved -= 1;
                    }
                    // Record each (pair, block) the first time it is seen.
                    let pair = pairs[census_of[i] as usize];
                    let apex = &mut builder.apex[(pair.u * n + pair.v) * fine + block];
                    debug_assert!(*apex == APEX || *apex == WITNESSED);
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

/// Whether a joint evaluation was accepted: a typicality refusal is counted
/// and is not an error (Theorem 3's analysis prescribes exactly this).
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

/// Runs the classical Step 3: every search node checks every fine block of
/// `V'` in sequence, with no class machinery and no load balancing.
///
/// # Errors
///
/// Propagates simulator-level errors.
pub fn run_step3_classical(
    inst: &Instance<'_>,
    net: &mut qcc_congest::Clique,
    cover: &LambdaCover,
    gathered: &GatheredWeights,
) -> Result<Step3Output, ApspError> {
    let mut found = PairSet::new();
    let mut witnesses: Vec<FoundWitness> = Vec::new();
    let mut stats = Step3Stats {
        searches: cover.total_kept(),
        ..Step3Stats::default()
    };

    // A trivial context: every triple keeps its own data (no duplication).
    let all_labels: Vec<usize> = (0..inst.triples.labeling().label_count()).collect();
    let actx = AlphaContext::build(inst, net, 0, &all_labels).map_err(ApspError::from)?;

    for bw in 0..inst.parts.fine.num_blocks() {
        let queries: Vec<EvalQuery> = cover
            .kept
            .iter()
            .enumerate()
            .flat_map(|(label, pairs)| {
                pairs.iter().map(move |pair| EvalQuery {
                    search_label: label,
                    pair: *pair,
                    target: bw,
                })
            })
            .collect();
        if queries.is_empty() {
            continue;
        }
        stats.eval_calls += 1;
        match evaluate_joint_unbounded(inst, net, gathered, &actx, &queries) {
            Ok(answers) => {
                for (q, &a) in queries.iter().zip(&answers) {
                    if a {
                        found.insert(q.pair.u, q.pair.v);
                        witnesses.push(FoundWitness {
                            u: q.pair.u.min(q.pair.v),
                            v: q.pair.u.max(q.pair.v),
                            block: q.target,
                        });
                    }
                }
            }
            Err(EvalJointError::Atypical(e)) => {
                return Err(ApspError::Internal {
                    context: format!("unbounded evaluator rejected its input: {e}"),
                })
            }
            Err(EvalJointError::Congest(e)) => return Err(e.into()),
            Err(EvalJointError::Internal(context)) => return Err(ApspError::Internal { context }),
        }
    }
    stats.iterations = inst.parts.fine.num_blocks() as u64;
    witnesses.sort_unstable();
    witnesses.dedup();
    Ok(Step3Output {
        found,
        witnesses,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::gather_weights;
    use crate::identify_class::identify_class_with_retry;
    use crate::lambda::build_lambda_cover_with_retry;
    use crate::params::Params;
    use crate::problem::{reference_find_edges, PairSet};
    use qcc_congest::Clique;
    use qcc_graph::{book_graph, congestion_hotspot, random_ugraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_quantum(
        g: &qcc_graph::UGraph,
        s: &PairSet,
        params: Params,
        seed: u64,
    ) -> (PairSet, Step3Stats, u64) {
        let inst = Instance::new(g, s, params);
        let mut net = Clique::new(g.n()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let gathered = gather_weights(&inst, &mut net).unwrap();
        let cover = build_lambda_cover_with_retry(&inst, &mut net, 30, &mut rng).unwrap();
        let classes = identify_class_with_retry(&inst, &mut net, 30, &mut rng).unwrap();
        let out =
            run_step3_quantum(&inst, &mut net, &cover, &gathered, &classes, &mut rng).unwrap();
        assert!(
            out.witnesses.windows(2).all(|w| w[0] < w[1]),
            "witnesses are sorted and distinct"
        );
        for w in &out.witnesses {
            assert!(
                inst.has_apex_in_block(w.u, w.v, w.block),
                "witness block {} holds no apex for ({}, {})",
                w.block,
                w.u,
                w.v
            );
        }
        (out.found, out.stats, net.rounds())
    }

    fn run_classical(
        g: &qcc_graph::UGraph,
        s: &PairSet,
        params: Params,
        seed: u64,
    ) -> (PairSet, Step3Stats, u64) {
        let inst = Instance::new(g, s, params);
        let mut net = Clique::new(g.n()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let gathered = gather_weights(&inst, &mut net).unwrap();
        let cover = build_lambda_cover_with_retry(&inst, &mut net, 30, &mut rng).unwrap();
        let out = run_step3_classical(&inst, &mut net, &cover, &gathered).unwrap();
        for w in &out.witnesses {
            assert!(inst.has_apex_in_block(w.u, w.v, w.block));
        }
        (out.found, out.stats, net.rounds())
    }

    /// Replays one scripted word per `next_u64`.
    struct Scripted(std::vec::IntoIter<u64>);

    impl rand::RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("a scripted word")
        }
    }

    #[test]
    fn draws_decide_exactly_as_gen_bool() {
        const TOP: u64 = (1 << 53) - 1;
        // One two-sided census: solution block 7, non-solution block 9.
        let blocks = [7, 9];
        for fine in [4, 10, 28] {
            let mut rows = RotationRows::new(fine);
            let mut column = Vec::new();
            for domain in 1..=fine {
                for solutions in 0..=domain {
                    let row = rows.row(domain, solutions);
                    let census = Census {
                        sides: [Uniform::new(1, 2), Uniform::new(0, 1)],
                        pick: Pick::Rotation(row),
                    };
                    let amp = GroverAmplitudes::new(domain, solutions);
                    for k in 0..rows.stride as u64 {
                        rows.column_into(k, &mut column);
                        let sampler = Sampler {
                            censuses: &[census],
                            blocks: &blocks,
                            column: &column,
                        };
                        let threshold = column[row as usize];
                        let p = amp.query_solution_probability(k).clamp(0.0, 1.0);
                        let top_bits = [0, threshold.saturating_sub(1), threshold, TOP];
                        for m in top_bits.map(|m| m.min(TOP)) {
                            // The 11 low bits `gen_bool` drops, clear and set.
                            for word in [m << 11, m << 11 | 0x7ff] {
                                let expected = Scripted(vec![word].into_iter()).gen_bool(p);
                                // The second word is the side's index draw.
                                let mut rng = Scripted(vec![word, 0].into_iter());
                                let (target, solution) = sampler.draw(0, &mut rng);
                                assert_eq!(
                                    (solution, target),
                                    (expected, if expected { 7 } else { 9 }),
                                    "fine {fine}, ({domain}, {solutions}), k {k}, p {p}, word {word:#x}"
                                );
                                assert!(rng.0.next().is_none(), "a draw takes two words");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_probabilities_panic_at_the_row_build() {
        for p in [f64::NAN, -1e-300, -0.5, 1.0 + f64::EPSILON, f64::INFINITY] {
            let outcome = std::panic::catch_unwind(|| gen_bool_threshold(p));
            assert!(outcome.is_err(), "p = {p} made a threshold");
        }
        assert_eq!(gen_bool_threshold(-0.0), 0);
        assert_eq!(gen_bool_threshold(1.0), 1 << 53);
        assert_eq!(gen_bool_threshold(0.5), 1 << 52);
        assert_eq!(gen_bool_threshold(f64::MIN_POSITIVE), 1);
    }

    #[test]
    fn quantum_step3_finds_planted_pairs_with_paper_constants() {
        let g = book_graph(16, 4);
        let s = PairSet::all_pairs(16);
        let (found, stats, rounds) = run_quantum(&g, &s, Params::paper(), 71);
        let expected = reference_find_edges(&g, &s);
        assert_eq!(found, expected);
        assert!(stats.searches > 0);
        assert!(rounds > 0);
    }

    #[test]
    fn classical_step3_is_exact() {
        let mut rng = StdRng::seed_from_u64(72);
        for _ in 0..3 {
            let g = random_ugraph(16, 0.5, 4, &mut rng);
            let s = PairSet::all_pairs(16);
            let (found, _stats, _) = run_classical(&g, &s, Params::paper(), 73);
            assert_eq!(found, reference_find_edges(&g, &s));
        }
    }

    #[test]
    fn quantum_matches_classical_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(74);
        for trial in 0..3 {
            let g = random_ugraph(16, 0.45, 4, &mut rng);
            let s = PairSet::all_pairs(16);
            let (q, _, _) = run_quantum(&g, &s, Params::paper(), 75 + trial);
            let (c, _, _) = run_classical(&g, &s, Params::paper(), 75 + trial);
            assert_eq!(q, c, "trial {trial}");
        }
    }

    #[test]
    fn restricting_s_restricts_the_output() {
        let g = book_graph(16, 4);
        let mut s = PairSet::new();
        s.insert(0, 1);
        s.insert(9, 10); // not in any triangle
        let (found, _, _) = run_quantum(&g, &s, Params::paper(), 76);
        assert!(found.contains(0, 1));
        assert!(!found.contains(9, 10));
        // pairs outside S never appear even though they are in triangles
        assert!(!found.contains(0, 2));
    }

    #[test]
    fn hotspot_instance_exercises_higher_classes() {
        let (g, base_pairs) = congestion_hotspot(16, 4, 6);
        let s = PairSet::all_pairs(16);
        let mut params = Params::paper();
        params.class_threshold = 0.25;
        let (found, stats, _) = run_quantum(&g, &s, params, 77);
        for &(u, v) in &base_pairs {
            assert!(found.contains(u, v), "base pair ({u},{v})");
        }
        assert!(stats.eval_calls > 0);
    }

    #[test]
    fn quantum_uses_fewer_sequential_probes_than_classical_scan() {
        // The classical backend scans all √n fine blocks; the quantum
        // backend's iteration count is O(√(√n)) per repetition. At n = 256
        // (fine blocks: 16) the gap shows in the per-search probe depth.
        let mut rng = StdRng::seed_from_u64(78);
        let g = random_ugraph(81, 0.3, 4, &mut rng);
        let s = PairSet::all_pairs(81);
        let mut params = Params::paper();
        params.search_repetitions = Some(12);
        let (q, qs, _) = run_quantum(&g, &s, params, 79);
        let (c, cs, _) = run_classical(&g, &s, Params::paper(), 79);
        assert_eq!(q, c);
        // classical probes every one of the 9 fine blocks
        assert_eq!(cs.iterations, 9);
        assert!(qs.iterations > 0);
    }

    #[test]
    fn empty_graph_finds_nothing() {
        let g = qcc_graph::UGraph::new(16);
        let s = PairSet::all_pairs(16);
        let (found, stats, _) = run_quantum(&g, &s, Params::paper(), 80);
        assert!(found.is_empty());
        assert_eq!(stats.searches, 0);
    }
}
