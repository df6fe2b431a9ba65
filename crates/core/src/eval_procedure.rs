//! The distributed evaluation procedures of Figures 4 and 5.
//!
//! One joint evaluation answers, for every search node `(u, v, x)` and each
//! of its queried pairs `{u, v}` with target fine block `w`, whether some
//! apex in `w` completes a negative triangle — by shipping the pair (and
//! its weight) to the node that gathered `w`'s weight tables in Step 1 and
//! shipping one bit back.
//!
//! * **Figure 4 (α = 0):** pairs go directly to the triple node
//!   `(u, v, w)`. The promise `|L^k_w| ≤ 800·√n·log n` bounds every link's
//!   load, so the exchange takes `O(log n)` rounds.
//! * **Figure 5 (α > 0):** class-`α` triples may attract `2^α` times more
//!   queries, but Lemma 4 shows there are `2^α` times *fewer* of them — so
//!   each triple's data is duplicated onto `≈ 2^α / (720 log n)` fresh
//!   nodes (Step 0, a one-time `O(n^{1/4})`-round broadcast) and every
//!   query list is split across the copies, restoring `O(log² n)`-round
//!   evaluations.
//!
//! Exceeding the list bound is precisely the "atypical input" event of
//! Section 4.2: the procedure refuses (returns
//! [`AtypicalInputError`]), as the truncated evaluator `C̃m` does.

use crate::gather::GatheredWeights;
use crate::instance::Instance;
use crate::lambda::KeptPair;
use crate::wire::{pair_bits, weight_bits, Wire};
use qcc_congest::{Clique, CongestError, Envelope, Leg, LinkTally, NodeId};
use qcc_quantum::AtypicalInputError;

/// One query of a joint evaluation: "does pair `{u, v}` form a negative
/// triangle with an apex in fine block `target`?", asked by `search_label`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvalQuery {
    /// The `(u, v, x)` search label asking the question.
    pub search_label: usize,
    /// The queried pair with its loaded weight.
    pub pair: KeptPair,
    /// The fine block `w` to probe for apexes.
    pub target: usize,
}

/// Per-α evaluation context: the duplication layout of Figure 5.
///
/// For `α = 0` (or whenever the duplication count is 1) queries go to the
/// original triple nodes and no Step-0 broadcast happens — Figure 4.
#[derive(Clone, Debug)]
pub struct AlphaContext {
    /// The class this context serves.
    pub alpha: u32,
    /// Copies per triple (`max(1, ⌊2^α/(720 log n)⌋)`).
    pub dup: usize,
    /// Host of copy `y` of triple `label`, dense at `label * dup + y`;
    /// `u32::MAX` marks triples outside this context's class. The eval
    /// hot path resolves one copy per query, so this is a flat table
    /// rather than a map.
    copy_node: Vec<u32>,
    /// Per search label: `(hosting node, coarse block u, coarse block v)`,
    /// precomputed once so the eval hot loop is pure table lookups.
    search_route: Vec<(u32, u32, u32)>,
}

impl AlphaContext {
    /// The node hosting copy `y` of triple `label`.
    ///
    /// # Panics
    ///
    /// Panics if the triple is not of this context's class or `y ≥ dup`.
    pub fn copy_node(&self, label: usize, y: usize) -> NodeId {
        self.try_copy_node(label, y)
            .unwrap_or_else(|| panic!("triple {label} copy {y} not in this α-context"))
    }

    /// Non-panicking [`AlphaContext::copy_node`]: `None` if the triple is
    /// not of this context's class or `y ≥ dup`.
    pub fn try_copy_node(&self, label: usize, y: usize) -> Option<NodeId> {
        if y >= self.dup {
            return None;
        }
        match self.copy_node.get(label * self.dup + y) {
            Some(&node) if node != u32::MAX => Some(NodeId::new(node as usize)),
            _ => None,
        }
    }

    /// Builds the context for class `alpha` and, when `dup > 1`, performs
    /// the Step-0 duplication broadcast of the gathered weight tables
    /// (charged to the network).
    ///
    /// `class_labels` lists the triple labels of class `alpha`.
    ///
    /// # Errors
    ///
    /// Returns a [`CongestError`] only on simulator-level addressing bugs.
    pub fn build(
        inst: &Instance<'_>,
        net: &mut Clique,
        alpha: u32,
        class_labels: &[usize],
    ) -> Result<Self, CongestError> {
        let n = inst.n();
        let dup = inst.params.dup_count(n, alpha);
        let label_count = inst.triples.labeling().label_count();
        let mut copy_node = vec![u32::MAX; label_count * dup];
        // Deterministic relabeling: copies are spread round-robin over all
        // nodes (the paper assigns the fresh labels (u, v, w, y) to the n
        // network nodes; Lemma 4 guarantees they fit up to constants).
        let mut next = 0usize;
        for &label in class_labels {
            for y in 0..dup {
                let node = if dup == 1 {
                    // Figure 4: queries go to the original triple node.
                    inst.triples.labeling().node_of(label)
                } else {
                    let node = next % n;
                    next += 1;
                    node
                };
                copy_node[label * dup + y] = node as u32;
            }
        }
        let mut search_route = vec![(0u32, 0u32, 0u32); inst.searches.labeling().label_count()];
        for (label, (bu, bv, _x)) in inst.searches.triples() {
            search_route[label] = (
                inst.searches.labeling().node_of(label) as u32,
                bu as u32,
                bv as u32,
            );
        }
        let ctx = AlphaContext {
            alpha,
            dup,
            copy_node,
            search_route,
        };

        if dup > 1 {
            // Step 0: broadcast each triple's gathered tables to its copies.
            net.begin_phase(&format!("step3/alpha{alpha}/duplicate"));
            let wb = weight_bits(inst.weight_magnitude());
            let mut sends: Vec<Envelope<Wire<usize>>> = Vec::new();
            for &label in class_labels {
                let src = NodeId::new(inst.triples.labeling().node_of(label));
                let (bu, bv, bw) = inst.triples.decode(label);
                let table_bits = wb
                    * ((inst.parts.coarse.block(bu).len() + inst.parts.coarse.block(bv).len())
                        * inst.parts.fine.block(bw).len()) as u64;
                for y in 0..dup {
                    let dst = ctx.copy_node(label, y);
                    if dst != src {
                        sends.push(Envelope::new(src, dst, Wire::new(label, table_bits)));
                    }
                }
            }
            net.route(sends)?;
        }
        Ok(ctx)
    }
}

/// Executes one joint evaluation (Figure 4 when `actx.dup == 1`, Figure 5
/// otherwise) for all queries of all search nodes simultaneously.
///
/// Returns per-query booleans in input order.
///
/// # Errors
///
/// Returns [`AtypicalInputError`] — the truncated evaluator's refusal — if
/// any per-(node, target) list exceeds the `800·2^α·√n·log n` bound, and
/// propagates [`CongestError`] on simulator-level addressing bugs.
pub fn evaluate_joint(
    inst: &Instance<'_>,
    net: &mut Clique,
    gathered: &GatheredWeights,
    actx: &AlphaContext,
    queries: &[EvalQuery],
) -> Result<Vec<bool>, EvalJointError> {
    let cap = inst.params.list_cap(inst.n(), actx.alpha);
    evaluate_with_cap(inst, net, gathered, actx, queries, cap)
}

/// [`evaluate_joint`] without the typicality gate: the *classical*
/// evaluator, which accepts arbitrarily concentrated query loads and simply
/// pays the congestion in rounds. Used by the classical Step-3 baseline
/// (and by the congestion ablation, experiment E12).
///
/// # Errors
///
/// Propagates [`CongestError`] on simulator-level addressing bugs.
pub fn evaluate_joint_unbounded(
    inst: &Instance<'_>,
    net: &mut Clique,
    gathered: &GatheredWeights,
    actx: &AlphaContext,
    queries: &[EvalQuery],
) -> Result<Vec<bool>, EvalJointError> {
    evaluate_with_cap(inst, net, gathered, actx, queries, f64::INFINITY)
}

fn evaluate_with_cap(
    inst: &Instance<'_>,
    net: &mut Clique,
    gathered: &GatheredWeights,
    actx: &AlphaContext,
    queries: &[EvalQuery],
    cap: f64,
) -> Result<Vec<bool>, EvalJointError> {
    let triple_of = |q: &EvalQuery| {
        let (_, bu, bv) = actx.search_route[q.search_label];
        inst.triples.encode(bu as usize, bv as usize, q.target)
    };
    if let Some(mut session) = ChargeOnlyEval::with_cap(inst, net, actx, cap) {
        // Fault-free, un-enveloped network: the session charges both legs
        // from the per-list query counts, byte-identical to the
        // materialized exchanges, and each query is answered from the
        // census of its triple's gathered tables, as its copy node would.
        for q in queries {
            session.push(q.search_label, q.target);
        }
        session.finish(net)?;
        return queries
            .iter()
            .map(|q| {
                gathered
                    .check_negative(inst, triple_of(q), q.pair.u, q.pair.v, q.pair.weight)
                    .map_err(|e| EvalJointError::Internal(e.to_string()))
            })
            .collect();
    }
    let n = inst.n();

    // Tally the lists L^k_w and enforce the promise (the Υ_β gate): a flat
    // (search node, target)-indexed counter array replaces materialized
    // per-list index vectors. The gate still fires at the *first* query
    // whose list crosses the cap, with the same incremental count.
    let fine = inst.parts.fine.num_blocks();
    let mut counts = vec![0u32; inst.searches.labeling().label_count() * fine];
    for q in queries {
        let key = q.search_label * fine + q.target;
        counts[key] += 1;
        if counts[key] as f64 > cap {
            return Err(EvalJointError::Atypical(AtypicalInputError {
                max_frequency: counts[key] as u64,
                beta: cap,
            }));
        }
    }

    let pb = pair_bits(n);
    let wb = weight_bits(inst.weight_magnitude());
    net.begin_phase(&format!("step3/alpha{}/eval-queries", actx.alpha));
    // Wire content: (query id, triple label, pair endpoints, f(u, v)).
    // The pair + weight are the `pb + wb` information bits; the ids mirror
    // addressing information already implied by the link. Sends are
    // emitted in query order — a permutation of list order, which charges
    // identical rounds (per-link loads are order-free) and resolves to the
    // same copy per query (`pos` is the query's rank within its list).
    counts.iter_mut().for_each(|c| *c = 0);
    // Per-search-label routing info (host node and block pair), precomputed
    // once per α-context.
    let route_of = &actx.search_route;
    let mut sends: Vec<Envelope<Wire<(usize, usize, usize, usize, i64)>>> =
        Vec::with_capacity(queries.len());
    for (idx, q) in queries.iter().enumerate() {
        let key = q.search_label * fine + q.target;
        let pos = counts[key] as usize;
        counts[key] += 1;
        let src = NodeId::new(route_of[q.search_label].0 as usize);
        let triple_label = triple_of(q);
        // Figure 5: split each list round-robin across the dup copies.
        let y = pos % actx.dup;
        let dst = actx.try_copy_node(triple_label, y).ok_or_else(|| {
            EvalJointError::Internal(format!(
                "triple {triple_label} copy {y} not in the α = {} context",
                actx.alpha
            ))
        })?;
        sends.push(Envelope::new(
            src,
            dst,
            Wire::new(
                (idx, triple_label, q.pair.u, q.pair.v, q.pair.weight),
                pb + wb,
            ),
        ));
    }
    let boxes = net.exchange(sends)?;

    // Copy nodes answer from their gathered tables' census.
    net.begin_phase(&format!("step3/alpha{}/eval-answers", actx.alpha));
    let mut replies: Vec<Envelope<Wire<(usize, bool)>>> = Vec::with_capacity(queries.len());
    for host in NodeId::all(n) {
        for (asker, msg) in boxes.of(host) {
            let (idx, triple_label, u, v, f_uv) = msg.value;
            let answer = gathered
                .check_negative(inst, triple_label, u, v, f_uv)
                .map_err(|e| EvalJointError::Internal(e.to_string()))?;
            replies.push(Envelope::new(
                host,
                *asker,
                Wire::new((idx, answer), pb + 1),
            ));
        }
    }
    let answer_boxes = net.exchange(replies)?;

    let mut answers = vec![false; queries.len()];
    let mut answered = vec![false; queries.len()];
    for node in NodeId::all(n) {
        for (_src, msg) in answer_boxes.of(node) {
            let (idx, ans) = msg.value;
            answers[idx] = ans;
            answered[idx] = true;
        }
    }
    // On a reliable network every query is answered; on a fault-injected
    // one without the delivery envelope, lost messages surface here.
    if let Some(idx) = answered.iter().position(|&a| !a) {
        return Err(EvalJointError::Internal(format!(
            "query {idx} of {} went unanswered — messages lost in transit",
            queries.len()
        )));
    }
    Ok(answers)
}

/// A charge-only joint-evaluation session for the lockstep Grover loop.
///
/// In the quantum Step 3 the per-iteration evaluations exist to drive the
/// simulated oracle *cost*: their boolean answers equal, by construction of
/// the searches' solution censuses, `Instance::has_apex_in_block` on the
/// sampled target (the materialized path debug-asserts exactly this), and
/// the Grover evolution between iterations consumes only the charges. This
/// session therefore skips answer materialization entirely: each query is
/// one increment on a small `(search label × fine block)` grid, and
/// [`ChargeOnlyEval::finish`] folds the grid into per-link message counts
/// and charges both exchange legs from that one fold — the reply leg is the
/// query leg transposed. Rounds, metrics, and trace events are
/// byte-identical to the materialized [`evaluate_joint`] over the same
/// query multiset:
///
/// * a `(search, target)` list of `c` queries sends its `r`-th query to
///   copy `r mod dup` of its triple (Figure 5's round-robin split), so
///   copy `y` receives `⌊c/dup⌋ + [y < c mod dup]` of them whatever the
///   order of the queries;
/// * lists grow one query at a time, so the Υ_β typicality gate of
///   [`evaluate_joint`] fires iff some list ends above the cap, and it
///   reports the first count above the cap whichever list crossed first.
///
/// [`ChargeOnlyEval::try_new`] requires a transparent network
/// ([`Clique::is_transparent`]), where analytic exchange charging is exact;
/// otherwise callers fall back to [`evaluate_joint`]. On a transparent
/// network [`evaluate_joint`] and [`evaluate_joint_unbounded`] are one such
/// session each, whose queries are then answered from the census.
pub struct ChargeOnlyEval<'a, 'd> {
    inst: &'a Instance<'d>,
    actx: &'a AlphaContext,
    fine: usize,
    /// The list cap: `list_cap` for [`evaluate_joint`], ∞ for
    /// [`evaluate_joint_unbounded`].
    cap: f64,
    query_bits: u64,
    reply_bits: u64,
    /// `dst_of[label * fine + target]` = copy-0 host of triple
    /// `(bu(label), bv(label), target)`; `u32::MAX` marks triples outside
    /// the α-context (never sampled by a well-formed search domain).
    dst_of: Vec<u32>,
    /// Host node of each search label (`search_route` without the blocks).
    src_of: Vec<u32>,
    /// Queries pushed since the last [`ChargeOnlyEval::finish`], per
    /// `(search, target)` list, indexed like `dst_of`.
    counts: Vec<u32>,
    /// Per-link fold of `counts`, charged by `finish`.
    links: LinkTally,
    phase_queries: String,
    phase_answers: String,
}

impl<'a, 'd> ChargeOnlyEval<'a, 'd> {
    /// Builds the session, or `None` off the transparent regime where the
    /// charge-only reduction is not provably identical to
    /// [`evaluate_joint`] (see the type docs).
    pub fn try_new(inst: &'a Instance<'d>, net: &Clique, actx: &'a AlphaContext) -> Option<Self> {
        let cap = inst.params.list_cap(inst.n(), actx.alpha);
        Self::with_cap(inst, net, actx, cap)
    }

    /// [`ChargeOnlyEval::try_new`] with list cap `cap` (∞ for
    /// [`evaluate_joint_unbounded`]).
    fn with_cap(
        inst: &'a Instance<'d>,
        net: &Clique,
        actx: &'a AlphaContext,
        cap: f64,
    ) -> Option<Self> {
        if !net.is_transparent() {
            return None;
        }
        let n = inst.n();
        let fine = inst.parts.fine.num_blocks();
        let labels = inst.searches.labeling().label_count();
        let mut dst_of = vec![u32::MAX; labels * fine];
        let mut src_of = vec![0u32; labels];
        for (label, &(src, bu, bv)) in actx.search_route.iter().enumerate() {
            src_of[label] = src;
            for target in 0..fine {
                let triple = inst.triples.encode(bu as usize, bv as usize, target);
                if let Some(dst) = actx.try_copy_node(triple, 0) {
                    dst_of[label * fine + target] = dst.index() as u32;
                }
            }
        }
        Some(ChargeOnlyEval {
            inst,
            actx,
            fine,
            cap,
            query_bits: pair_bits(n) + weight_bits(inst.weight_magnitude()),
            reply_bits: pair_bits(n) + 1,
            dst_of,
            src_of,
            counts: vec![0u32; labels * fine],
            links: LinkTally::new(n),
            phase_queries: format!("step3/alpha{}/eval-queries", actx.alpha),
            phase_answers: format!("step3/alpha{}/eval-answers", actx.alpha),
        })
    }

    /// Records one query of `search_label` probing fine block `target`.
    #[inline]
    pub fn push(&mut self, search_label: usize, target: usize) {
        self.counts[search_label * self.fine + target] += 1;
    }

    /// The query counts [`ChargeOnlyEval::push`] increments, at
    /// `search_label * fine + target`, with `fine`: the lockstep draw loop
    /// increments them in place.
    #[inline]
    pub(crate) fn grid(&mut self) -> (&mut [u32], usize) {
        (&mut self.counts, self.fine)
    }

    /// Charges the two exchange legs of the queries pushed since the last
    /// call, and empties the session for the next evaluation.
    ///
    /// # Errors
    ///
    /// [`EvalJointError::Atypical`] on a Υ_β list-cap violation and
    /// [`EvalJointError::Internal`] if some query addressed a triple
    /// outside the α-context — in both cases nothing is charged, matching
    /// [`evaluate_joint`]'s abort-before-exchange (and its precedence:
    /// the cap pass runs before query resolution).
    pub fn finish(&mut self, net: &mut Clique) -> Result<(), EvalJointError> {
        let folded = self.fold();
        if matches!(folded, Err(EvalJointError::Atypical(_))) {
            return folded;
        }
        net.begin_phase(&self.phase_queries);
        folded?;
        net.charge_exchange_tally(&self.links, self.query_bits, Leg::Forward);
        net.begin_phase(&self.phase_answers);
        net.charge_exchange_tally(&self.links, self.reply_bits, Leg::Reverse);
        Ok(())
    }

    /// Folds `counts` into `links`, zeroing it. Errs with the cap violation
    /// if some list ended above the cap, else with the first missing triple
    /// copy in `(search, target)` order.
    fn fold(&mut self) -> Result<(), EvalJointError> {
        let ChargeOnlyEval {
            inst,
            actx,
            fine,
            cap,
            dst_of,
            src_of,
            counts,
            links,
            ..
        } = self;
        links.clear();
        let dup = actx.dup as u32;
        let mut over_cap = false;
        let mut missing: Option<(usize, u32)> = None;
        for (label, row) in counts.chunks_exact_mut(*fine).enumerate() {
            let src = src_of[label] as usize;
            for (target, slot) in row.iter_mut().enumerate() {
                let count = std::mem::take(slot);
                if count == 0 {
                    continue;
                }
                over_cap |= f64::from(count) > *cap;
                let (per_copy, extra) = if dup == 1 {
                    (count, 0)
                } else {
                    (count / dup, count % dup)
                };
                let triple = || {
                    let (_, bu, bv) = actx.search_route[label];
                    inst.triples.encode(bu as usize, bv as usize, target)
                };
                for y in 0..dup.min(count) {
                    let dst = if y == 0 {
                        dst_of[label * *fine + target]
                    } else {
                        actx.try_copy_node(triple(), y as usize)
                            .map_or(u32::MAX, |node| node.index() as u32)
                    };
                    if dst == u32::MAX {
                        missing.get_or_insert_with(|| (triple(), y));
                    } else {
                        links.add(src, dst as usize, per_copy + u32::from(y < extra));
                    }
                }
            }
        }
        if over_cap {
            return Err(EvalJointError::Atypical(AtypicalInputError {
                // The count at which the first list crossed the cap.
                max_frequency: cap.floor() as u64 + 1,
                beta: *cap,
            }));
        }
        match missing {
            None => Ok(()),
            Some((triple, y)) => Err(EvalJointError::Internal(format!(
                "triple {triple} copy {y} not in the α = {} context",
                actx.alpha
            ))),
        }
    }
}

/// Errors of a joint evaluation.
#[derive(Clone, Debug)]
pub enum EvalJointError {
    /// The truncated evaluator refused an atypical query load.
    Atypical(AtypicalInputError),
    /// Simulator-level addressing bug.
    Congest(CongestError),
    /// Broken invariant: a foreign pair, an unknown triple copy, or an
    /// unanswered query (lost messages on an unprotected faulty network).
    Internal(String),
}

impl From<CongestError> for EvalJointError {
    fn from(e: CongestError) -> Self {
        EvalJointError::Congest(e)
    }
}

impl std::fmt::Display for EvalJointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalJointError::Atypical(e) => write!(f, "{e}"),
            EvalJointError::Congest(e) => write!(f, "{e}"),
            EvalJointError::Internal(context) => write!(f, "{context}"),
        }
    }
}

impl std::error::Error for EvalJointError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::gather_weights;
    use crate::params::Params;
    use crate::problem::PairSet;
    use qcc_graph::{book_graph, random_ugraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_class0(inst: &Instance<'_>) -> Vec<usize> {
        (0..inst.triples.labeling().label_count()).collect()
    }

    #[test]
    fn answers_match_the_census() {
        let mut rng = StdRng::seed_from_u64(61);
        let g = random_ugraph(16, 0.6, 5, &mut rng);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::paper());
        let mut net = Clique::new(16).unwrap();
        let gathered = gather_weights(&inst, &mut net).unwrap();
        let actx = AlphaContext::build(&inst, &mut net, 0, &all_class0(&inst)).unwrap();

        // one query per (edge of S, fine block)
        let mut queries = Vec::new();
        let mut expected = Vec::new();
        for (u, v, w) in g.edges() {
            let bu = inst.parts.coarse.block_of(u);
            let bv = inst.parts.coarse.block_of(v);
            for target in 0..inst.parts.fine.num_blocks() {
                // x = 0 search label of this block pair
                let search_label = inst.searches.encode(bu, bv, 0);
                queries.push(EvalQuery {
                    search_label,
                    pair: KeptPair { u, v, weight: w },
                    target,
                });
                expected.push(inst.has_apex_in_block(u, v, target));
            }
        }
        let answers = evaluate_joint(&inst, &mut net, &gathered, &actx, &queries).unwrap();
        assert_eq!(answers, expected);
    }

    #[test]
    fn list_cap_violation_is_atypical() {
        let g = book_graph(16, 3);
        let s = PairSet::all_pairs(16);
        let mut params = Params::paper();
        params.list_bound = 0.01; // cap < 1: every nonempty list is atypical
        let inst = Instance::new(&g, &s, params);
        let mut net = Clique::new(16).unwrap();
        let gathered = gather_weights(&inst, &mut net).unwrap();
        let actx = AlphaContext::build(&inst, &mut net, 0, &all_class0(&inst)).unwrap();
        let queries = vec![EvalQuery {
            search_label: 0,
            pair: KeptPair {
                u: 0,
                v: 1,
                weight: -10,
            },
            target: 0,
        }];
        let rounds_before = net.rounds();
        match evaluate_joint(&inst, &mut net, &gathered, &actx, &queries) {
            Err(EvalJointError::Atypical(_)) => {}
            other => panic!("expected atypical refusal, got {other:?}"),
        }
        // refusal happens before any communication
        assert_eq!(net.rounds(), rounds_before);
    }

    #[test]
    fn duplication_spreads_queries_across_copies() {
        let g = book_graph(16, 3);
        let s = PairSet::all_pairs(16);
        let mut params = Params::scaled();
        params.dup_denominator = 0.1; // alpha = 2 => dup = floor(4 / (0.1·4)) = 10
        let inst = Instance::new(&g, &s, params);
        let mut net = Clique::new(16).unwrap();
        let gathered = gather_weights(&inst, &mut net).unwrap();
        let labels = all_class0(&inst);
        let actx = AlphaContext::build(&inst, &mut net, 2, &labels).unwrap();
        assert!(actx.dup > 1, "dup = {}", actx.dup);
        assert!(net.metrics().rounds_with_prefix("step3/alpha2/duplicate") > 0);

        // many queries from one search node to one target: they fan out
        let mut queries = Vec::new();
        for v in 1..10 {
            let u = 0;
            if let Some(w) = g.weight(u, v).finite() {
                let bu = inst.parts.coarse.block_of(u);
                let bv = inst.parts.coarse.block_of(v);
                queries.push(EvalQuery {
                    search_label: inst.searches.encode(bu.min(bv), bu.max(bv), 0),
                    pair: KeptPair {
                        u: u.min(v),
                        v: u.max(v),
                        weight: w,
                    },
                    target: 0,
                });
            }
        }
        let answers = evaluate_joint(&inst, &mut net, &gathered, &actx, &queries).unwrap();
        for (q, a) in queries.iter().zip(&answers) {
            assert_eq!(*a, inst.has_apex_in_block(q.pair.u, q.pair.v, q.target));
        }
    }

    /// The charge-only session charges exactly what the materialized
    /// evaluation charges for the same queries — per phase, for one copy
    /// per triple and for ten — or refuses with the same error.
    #[test]
    fn session_matches_materialized_evaluation() {
        let g = book_graph(16, 3);
        let s = PairSet::all_pairs(16);
        // α = 2 at n = 16: dup = ⌊4 / (dup_denominator · 4)⌋, and the cap
        // 0.05 · 4 · 4 · 4 = 3.2 is below every 21-query list.
        for (dup_denominator, list_bound) in [(1.0, 8.0), (0.1, 8.0), (0.1, 0.05)] {
            let mut params = Params::scaled();
            params.dup_denominator = dup_denominator;
            params.list_bound = list_bound;
            let inst = Instance::new(&g, &s, params);
            let labels = all_class0(&inst);
            // Every edge asks every fine block from every x label, three times.
            let mut queries = Vec::new();
            for _ in 0..3 {
                for (u, v, weight) in g.edges() {
                    let (bu, bv) = (inst.parts.coarse.block_of(u), inst.parts.coarse.block_of(v));
                    for x in 0..inst.parts.fine.num_blocks() {
                        for target in 0..inst.parts.fine.num_blocks() {
                            queries.push(EvalQuery {
                                search_label: inst.searches.encode(bu, bv, x),
                                pair: KeptPair { u, v, weight },
                                target,
                            });
                        }
                    }
                }
            }

            // A reliable-delivery config without a fault plan delivers
            // everything but is not transparent: every envelope ships.
            let mut materialized = Clique::new(16).unwrap();
            materialized.set_reliable_delivery(qcc_congest::ReliableConfig::default());
            let gathered = gather_weights(&inst, &mut materialized).unwrap();
            let actx = AlphaContext::build(&inst, &mut materialized, 2, &labels).unwrap();
            let before = materialized.metrics().phases().len();
            let expected = evaluate_joint(&inst, &mut materialized, &gathered, &actx, &queries);

            let mut charged = Clique::new(16).unwrap();
            let actx = AlphaContext::build(&inst, &mut charged, 2, &labels).unwrap();
            assert_eq!(actx.dup, if dup_denominator == 1.0 { 1 } else { 10 });
            let mut session = ChargeOnlyEval::try_new(&inst, &charged, &actx).unwrap();
            let start = charged.metrics().phases().len();
            for q in &queries {
                session.push(q.search_label, q.target);
            }
            let got = session.finish(&mut charged);

            match (expected, got) {
                (Ok(_), Ok(())) => {}
                (Err(EvalJointError::Atypical(e)), Err(EvalJointError::Atypical(g))) => {
                    assert_eq!((e.max_frequency, e.beta), (g.max_frequency, g.beta));
                    assert_eq!(e.max_frequency, 4);
                }
                (e, g) => panic!("materialized {e:?}, session {g:?}"),
            }
            assert_eq!(
                materialized.metrics().phases()[before..],
                charged.metrics().phases()[start..]
            );
        }
    }

    #[test]
    fn empty_query_set_is_free() {
        let g = book_graph(16, 1);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        let gathered = gather_weights(&inst, &mut net).unwrap();
        let actx = AlphaContext::build(&inst, &mut net, 0, &all_class0(&inst)).unwrap();
        let before = net.rounds();
        let answers = evaluate_joint(&inst, &mut net, &gathered, &actx, &[]).unwrap();
        assert!(answers.is_empty());
        assert_eq!(net.rounds(), before);
    }
}
