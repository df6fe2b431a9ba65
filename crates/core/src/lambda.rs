//! The random covering `Λ_x(u, v)` of Section 5.1 (Step 2 of ComputePairs).
//!
//! Each search node `(u, v, x)` samples every pair of `P(u, v)` with
//! probability `≈ 10 log n / √n` into its set `Λ_x(u, v)`, aborting if any
//! set is not *well-balanced* (some vertex `u ∈ u` appears with more than
//! `≈ 100 n^{1/4} log n` partners). Lemma 2: with probability `≥ 1 − 2/n`
//! no abort happens and the sets cover all of `P(u, v)`.
//!
//! After sampling, each node loads the weight `f(u, v)` of its sampled
//! pairs from the pair owners and keeps only the pairs that are edges of
//! `G` *and* members of `S` — these become its search list for Step 3.
//!
//! The simulator holds one universe `P(u, v)` per unordered coarse block
//! pair and every set as indices into its universe. When the probability
//! clamps to 1, as it does at every size E1 runs, each `Λ_x(u, v)` is its
//! whole universe and no randomness is drawn: the labels of one universe
//! then share one set, and the balance check, the per-owner request
//! counts and the kept list are computed once for it.

use crate::instance::Instance;
use crate::sampling::sample_indices;
use crate::wire::{pair_bits, weight_bits, Wire};
use qcc_congest::{Clique, CongestError, Envelope, NodeId};
use rand::Rng;
use std::collections::HashMap;

/// A pair kept by a search node: endpoints and loaded edge weight.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeptPair {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Edge weight `f(u, v)`.
    pub weight: i64,
}

/// The constructed covering with its per-label search lists.
#[derive(Clone, Debug)]
pub struct LambdaCover {
    /// Kept pairs (edges of `G` in `S`) per search label, sorted.
    pub kept: Vec<Vec<KeptPair>>,
    /// Per search label: how many pairs it sampled (before the `S`/edge
    /// filter), for the Lemma 2 statistics.
    pub sampled: Vec<usize>,
}

impl LambdaCover {
    /// Total number of kept pairs across all labels (`Σ_k m_k`).
    pub fn total_kept(&self) -> usize {
        self.kept.iter().map(Vec::len).sum()
    }

    /// Whether every pair of `P(u, v) ∩ S ∩ E` appears in at least one
    /// label's kept list (the consequence of Lemma 2 (ii) that Step 3
    /// actually needs).
    pub fn covers_all_s_edges(&self, inst: &Instance<'_>) -> bool {
        let mut covered: HashMap<(usize, usize), bool> = HashMap::new();
        for (u, v) in inst.s.iter() {
            if inst.graph.has_edge(u, v) {
                covered.insert((u, v), false);
            }
        }
        for list in &self.kept {
            for kp in list {
                if let Some(flag) = covered.get_mut(&(kp.u, kp.v)) {
                    *flag = true;
                }
            }
        }
        covered.values().all(|&b| b)
    }
}

/// Outcome of one sampling attempt: either a cover or an abort (some set
/// was not well-balanced).
#[derive(Clone, Debug)]
pub enum LambdaAttempt {
    /// All sets were well-balanced; weights were loaded.
    Balanced(LambdaCover),
    /// Some `Λ_x(u, v)` violated the balance cap; the protocol aborted
    /// after the (charged) abort consensus, before any weight loading.
    Aborted {
        /// The first violating search label, in label order.
        label: usize,
        /// The partner count of the vertex that first exceeded the cap
        /// while the label's pairs were counted in order: the smallest
        /// count above `cap`, i.e. `⌊cap⌋ + 1` for a nonnegative cap.
        observed: usize,
        /// The cap that was exceeded.
        cap: f64,
    },
}

/// Position of the unordered coarse block pair `{a, b}` in the list of
/// [`pair_universes`].
fn universe_slot(a: usize, b: usize) -> usize {
    let (lo, hi) = (a.min(b), a.max(b));
    hi * (hi + 1) / 2 + lo
}

/// `P(a, b)` of every unordered coarse block pair, at its
/// [`universe_slot`]: `(min, max)` pairs in increasing order.
fn pair_universes(inst: &Instance<'_>) -> Vec<Vec<(usize, usize)>> {
    let q = inst.parts.coarse.num_blocks();
    (0..q)
        .flat_map(|hi| (0..=hi).map(move |lo| inst.parts.coarse.pair_set(lo, hi)))
        .collect()
}

/// The sets `Λ_x(u, v)` of one covering, each held once as indices into
/// its universe, with every search label pointing at its own.
struct Samples {
    /// Per distinct set: its universe's slot and its indices, increasing.
    sets: Vec<(usize, Vec<usize>)>,
    /// Per search label: the position of its set in `sets`.
    set_of: Vec<usize>,
}

impl Samples {
    /// Draws every label's set with probability `p`, in label order.
    ///
    /// At `p = 1`, [`sample_indices`] draws nothing and returns the whole
    /// universe, so one call per universe stands for all of its labels,
    /// which then share that set.
    fn draw<R: Rng>(
        inst: &Instance<'_>,
        universes: &[Vec<(usize, usize)>],
        p: f64,
        rng: &mut R,
    ) -> Self {
        let slots = inst
            .searches
            .triples()
            .map(|(_, (bu, bv, _x))| universe_slot(bu, bv));
        if p >= 1.0 {
            let sets = universes
                .iter()
                .enumerate()
                .map(|(k, pairs)| (k, sample_indices(pairs.len(), p, rng)))
                .collect();
            return Samples {
                sets,
                set_of: slots.collect(),
            };
        }
        Self::per_label(
            slots
                .map(|k| (k, sample_indices(universes[k].len(), p, rng)))
                .collect(),
        )
    }

    /// One set per search label, given in label order.
    fn per_label(sets: Vec<(usize, Vec<usize>)>) -> Self {
        Samples {
            set_of: (0..sets.len()).collect(),
            sets,
        }
    }

    /// `f(universe slot, indices)` of every distinct set.
    fn per_set<T>(&self, mut f: impl FnMut(usize, &[usize]) -> T) -> Vec<T> {
        self.sets.iter().map(|(k, picked)| f(*k, picked)).collect()
    }
}

/// Well-balancedness of one set: counts each vertex's partners over the
/// picked pairs in order and returns the count at which a vertex first
/// exceeds `cap`, or `None` if none does. `counts` is all zero on entry
/// and is left all zero.
fn first_crossing(
    pairs: &[(usize, usize)],
    picked: &[usize],
    cap: f64,
    counts: &mut [usize],
    touched: &mut Vec<usize>,
) -> Option<usize> {
    let mut crossing = None;
    'scan: for &i in picked {
        let (a, b) = pairs[i];
        for endpoint in [a, b] {
            let count = &mut counts[endpoint];
            if *count == 0 {
                touched.push(endpoint);
            }
            *count += 1;
            if (*count as f64) > cap {
                crossing = Some(*count);
                break 'scan;
            }
        }
    }
    for &endpoint in touched.iter() {
        counts[endpoint] = 0;
    }
    touched.clear();
    crossing
}

/// The requests one set sends to each pair owner (the smaller endpoint),
/// as `(owner, requests)` in increasing owner order: a universe is
/// sorted, so one owner's pairs are consecutive.
fn owner_requests(pairs: &[(usize, usize)], picked: &[usize]) -> Vec<(usize, u32)> {
    let mut runs: Vec<(usize, u32)> = Vec::new();
    for &i in picked {
        let owner = pairs[i].0;
        match runs.last_mut() {
            Some((o, count)) if *o == owner => *count += 1,
            _ => runs.push((owner, 1)),
        }
    }
    runs
}

/// The owner's answer to a Step-2 request for `{u, v}`: the pair's weight
/// if it is an edge of `G` in `S`, else nothing.
fn owner_answer(inst: &Instance<'_>, u: usize, v: usize) -> Option<i64> {
    if inst.in_s(u, v) {
        inst.graph.weight(u, v).finite()
    } else {
        None
    }
}

/// The kept list of one set, given its universe's owner answers: in
/// universe order, hence sorted.
fn kept_pairs(
    pairs: &[(usize, usize)],
    answers: &[Option<i64>],
    picked: &[usize],
) -> Vec<KeptPair> {
    picked
        .iter()
        .filter_map(|&i| {
            let (u, v) = pairs[i];
            answers[i].map(|weight| KeptPair { u, v, weight })
        })
        .collect()
}

/// Runs Step 2 of ComputePairs once: sample the coverings, check balance,
/// and (if balanced) load pair weights from their owners over the network.
///
/// # Errors
///
/// Returns a [`CongestError`] only on simulator-level addressing bugs.
pub fn build_lambda_cover<R: Rng>(
    inst: &Instance<'_>,
    net: &mut Clique,
    rng: &mut R,
) -> Result<LambdaAttempt, CongestError> {
    let n = inst.n();
    let p = inst.params.lambda_probability(n);
    let cap = inst.params.balance_cap(n);
    let universes = pair_universes(inst);
    let samples = Samples::draw(inst, &universes, p, rng);

    // Well-balancedness: every vertex of the coarse blocks appears with at
    // most `cap` partners inside each Λ_x(u, v). The first violating label
    // raises its node's flag.
    let mut counts = vec![0usize; n];
    let mut touched: Vec<usize> = Vec::new();
    let crossings = samples
        .per_set(|k, picked| first_crossing(&universes[k], picked, cap, &mut counts, &mut touched));
    let violation = samples
        .set_of
        .iter()
        .enumerate()
        .find_map(|(label, &set)| crossings[set].map(|observed| (label, observed)));
    let mut flags = vec![false; n];
    if let Some((label, _)) = violation {
        flags[inst.searches.labeling().node_of(label)] = true;
    }
    // Abort consensus (the paper's "the protocol is aborted" needs every
    // node to learn the flag): one gather-and-broadcast, charged.
    net.begin_phase("compute-pairs/step2-abort-consensus");
    if net.agree_any(&flags)? {
        let (label, observed) = violation.expect("flag implies a recorded violation");
        return Ok(LambdaAttempt::Aborted {
            label,
            observed,
            cap,
        });
    }
    Ok(LambdaAttempt::Balanced(load_weights(
        inst, net, &universes, &samples,
    )?))
}

/// Weight loading: each search node asks the owner (smaller endpoint) of
/// every sampled pair for the weight, edge existence, and S-membership,
/// and keeps the pairs that are edges of `G` in `S`.
fn load_weights(
    inst: &Instance<'_>,
    net: &mut Clique,
    universes: &[Vec<(usize, usize)>],
    samples: &Samples,
) -> Result<LambdaCover, CongestError> {
    let n = inst.n();
    let labels = inst.searches.labeling();
    let pb = pair_bits(n);
    let wb = weight_bits(inst.weight_magnitude());
    let sampled = samples
        .set_of
        .iter()
        .map(|&set| samples.sets[set].1.len())
        .collect();
    net.begin_phase("compute-pairs/step2-requests");

    // Transparent networks: both legs carry fixed-width wires whose
    // contents are pure functions of the instance, so the routes are
    // charged from per-link tallies and the kept lists assembled locally —
    // byte-identical rounds, metrics, and traces.
    if net.is_transparent() {
        let owners = samples.per_set(|k, picked| owner_requests(&universes[k], picked));
        let mut query_links = vec![0u32; n * n];
        for (label, &set) in samples.set_of.iter().enumerate() {
            let src = labels.node_of(label);
            for &(owner, requests) in &owners[set] {
                query_links[src * n + owner] += requests;
            }
        }
        net.charge_route_tally(&query_links, pb);
        net.begin_phase("compute-pairs/step2-responses");
        // Each reply travels the reverse link of its query.
        let mut reply_links = vec![0u32; n * n];
        for owner in 0..n {
            for asker in 0..n {
                reply_links[owner * n + asker] = query_links[asker * n + owner];
            }
        }
        net.charge_route_tally(&reply_links, pb + wb + 2);
        // Owner answers computed in place of the routed replies, once per
        // universe pair.
        let answers: Vec<Vec<Option<i64>>> = universes
            .iter()
            .map(|pairs| {
                pairs
                    .iter()
                    .map(|&(u, v)| owner_answer(inst, u, v))
                    .collect()
            })
            .collect();
        let kept_sets = samples.per_set(|k, picked| kept_pairs(&universes[k], &answers[k], picked));
        let kept = samples
            .set_of
            .iter()
            .map(|&set| kept_sets[set].clone())
            .collect();
        return Ok(LambdaCover { kept, sampled });
    }

    let mut requests: Vec<Envelope<Wire<(usize, usize, usize)>>> = Vec::new();
    for (label, &set) in samples.set_of.iter().enumerate() {
        let src = NodeId::new(labels.node_of(label));
        let (k, picked) = &samples.sets[set];
        for &i in picked {
            let (u, v) = universes[*k][i];
            requests.push(Envelope::new(
                src,
                NodeId::new(u),
                Wire::new((label, u, v), pb),
            ));
        }
    }
    let request_boxes = net.route(requests)?;

    net.begin_phase("compute-pairs/step2-responses");
    let mut responses: Vec<Envelope<Wire<(usize, usize, usize, Option<i64>)>>> = Vec::new();
    for owner in NodeId::all(n) {
        for (asker, msg) in request_boxes.of(owner) {
            let (label, u, v) = msg.value;
            debug_assert_eq!(u, owner.index(), "pair owner mismatch");
            responses.push(Envelope::new(
                owner,
                *asker,
                Wire::new((label, u, v, owner_answer(inst, u, v)), pb + wb + 2),
            ));
        }
    }
    let response_boxes = net.route(responses)?;

    let mut kept: Vec<Vec<KeptPair>> = vec![Vec::new(); labels.label_count()];
    for node in NodeId::all(n) {
        for (_owner, msg) in response_boxes.of(node) {
            let (label, u, v, answer) = msg.value;
            debug_assert_eq!(labels.node_of(label), node.index());
            if let Some(weight) = answer {
                kept[label].push(KeptPair { u, v, weight });
            }
        }
    }
    // Per-label keys are distinct, so the sorted lists are identical to
    // the transparent path's universe-ordered ones.
    for list in &mut kept {
        list.sort_by_key(|kp| (kp.u, kp.v));
    }
    Ok(LambdaCover { kept, sampled })
}

/// Builds a *deterministic* covering instead of the randomized one: each
/// `Λ_x(u, v)` is the `x`-th contiguous chunk of `P(u, v)` (an exact
/// partition, trivially balanced and complete).
///
/// This is the ablation of Section 5.1's design choice: the paper uses a
/// *random* covering precisely because a deterministic partition lets an
/// adversary align all of `Δ(u, v; w)` with a single chunk, concentrating
/// the Step-3 query load on one link (no Lemma 3 analog holds). See the
/// `deterministic_cover_concentrates_adversarial_load` test and
/// experiment E12b.
///
/// # Errors
///
/// Returns a [`CongestError`] only on simulator-level addressing bugs.
pub fn build_deterministic_cover(
    inst: &Instance<'_>,
    net: &mut Clique,
) -> Result<LambdaCover, CongestError> {
    let s = inst.parts.fine.num_blocks();
    let universes = pair_universes(inst);
    let sets: Vec<(usize, Vec<usize>)> = inst
        .searches
        .triples()
        .map(|(_, (bu, bv, x))| {
            let k = universe_slot(bu, bv);
            let len = universes[k].len();
            let chunk = len.div_ceil(s);
            let start = (x * chunk).min(len);
            let end = ((x + 1) * chunk).min(len);
            (k, (start..end).collect())
        })
        .collect();
    load_weights(inst, net, &universes, &Samples::per_label(sets))
}

/// Retries [`build_lambda_cover`] until a balanced attempt succeeds, up to
/// `max_attempts` times.
///
/// # Errors
///
/// Returns [`crate::ApspError::StageAborted`] if every attempt aborted.
///
/// # Examples
///
/// ```
/// use qcc_apsp::lambda::build_lambda_cover_with_retry;
/// use qcc_apsp::{Instance, PairSet, Params};
/// use qcc_congest::Clique;
/// use qcc_graph::book_graph;
/// use rand::SeedableRng;
///
/// let g = book_graph(16, 2);
/// let s = PairSet::all_pairs(16);
/// let inst = Instance::new(&g, &s, Params::paper());
/// let mut net = Clique::new(16)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let cover = build_lambda_cover_with_retry(&inst, &mut net, 10, &mut rng)?;
/// assert!(cover.covers_all_s_edges(&inst)); // Lemma 2 (ii)
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn build_lambda_cover_with_retry<R: Rng>(
    inst: &Instance<'_>,
    net: &mut Clique,
    max_attempts: u32,
    rng: &mut R,
) -> Result<LambdaCover, crate::ApspError> {
    for _ in 0..max_attempts {
        match build_lambda_cover(inst, net, rng)? {
            LambdaAttempt::Balanced(cover) => return Ok(cover),
            LambdaAttempt::Aborted { .. } => continue,
        }
    }
    Err(crate::ApspError::StageAborted {
        stage: "lambda-cover",
        attempts: max_attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::problem::PairSet;
    use qcc_graph::{book_graph, random_ugraph, UGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn make_net(n: usize) -> Clique {
        Clique::new(n).expect("nonzero")
    }

    #[test]
    fn cover_keeps_only_s_edges() {
        let g = book_graph(16, 3);
        let mut s = PairSet::new();
        s.insert(0, 1);
        s.insert(0, 2);
        s.insert(10, 11); // not an edge
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = make_net(16);
        let mut rng = StdRng::seed_from_u64(31);
        let cover = build_lambda_cover_with_retry(&inst, &mut net, 20, &mut rng).expect("balanced");
        for list in &cover.kept {
            for kp in list {
                assert!(s.contains(kp.u, kp.v));
                assert!(g.has_edge(kp.u, kp.v));
                assert_eq!(g.weight(kp.u, kp.v).finite(), Some(kp.weight));
            }
        }
        // the non-edge pair is never kept
        assert!(cover
            .kept
            .iter()
            .flatten()
            .all(|kp| (kp.u, kp.v) != (10, 11)));
    }

    #[test]
    fn lemma2_cover_rate_with_paper_constants() {
        // With paper constants at small n the sampling probability clamps
        // to 1, so every set contains everything: always balanced? No —
        // with p = 1 balance would be violated; paper constants also give
        // a huge cap, so no abort. Coverage must then be total.
        let mut rng = StdRng::seed_from_u64(32);
        let g = random_ugraph(16, 0.6, 5, &mut rng);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::paper());
        let mut net = make_net(16);
        let cover = build_lambda_cover_with_retry(&inst, &mut net, 5, &mut rng).expect("balanced");
        assert!(cover.covers_all_s_edges(&inst));
    }

    #[test]
    fn scaled_constants_usually_cover() {
        // Lemma 2 (ii): missing a pair entirely should be rare even with
        // the scaled constants.
        let mut rng = StdRng::seed_from_u64(33);
        let mut covered = 0;
        let trials = 10;
        for _ in 0..trials {
            let g = random_ugraph(16, 0.5, 4, &mut rng);
            let s = PairSet::all_pairs(16);
            let inst = Instance::new(&g, &s, Params::scaled());
            let mut net = make_net(16);
            if let Ok(cover) = build_lambda_cover_with_retry(&inst, &mut net, 20, &mut rng) {
                if cover.covers_all_s_edges(&inst) {
                    covered += 1;
                }
            }
        }
        assert!(covered >= trials - 2, "covered {covered}/{trials}");
    }

    #[test]
    fn tiny_balance_cap_forces_abort() {
        let g = book_graph(16, 3);
        let s = PairSet::all_pairs(16);
        let mut params = Params::paper(); // p clamps to 1: every pair sampled
        params.balance_factor = 0.01; // cap < 1: any sampled pair violates
        let inst = Instance::new(&g, &s, params);
        let mut net = make_net(16);
        let mut rng = StdRng::seed_from_u64(34);
        match build_lambda_cover(&inst, &mut net, &mut rng).unwrap() {
            LambdaAttempt::Aborted { cap, observed, .. } => {
                assert!(observed as f64 > cap);
            }
            LambdaAttempt::Balanced(_) => panic!("expected abort"),
        }
        // the abort consensus itself is charged (gather + broadcast), but
        // no weight loading happened
        assert!(net.rounds() > 0);
        assert_eq!(
            net.metrics()
                .rounds_with_prefix("compute-pairs/step2-requests"),
            0
        );
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        let g = book_graph(16, 3);
        let s = PairSet::all_pairs(16);
        let mut params = Params::paper();
        params.balance_factor = 0.01;
        let inst = Instance::new(&g, &s, params);
        let mut net = make_net(16);
        let mut rng = StdRng::seed_from_u64(35);
        let err = build_lambda_cover_with_retry(&inst, &mut net, 3, &mut rng).unwrap_err();
        assert_eq!(
            err,
            crate::ApspError::StageAborted {
                stage: "lambda-cover",
                attempts: 3
            }
        );
    }

    #[test]
    fn step2_charges_rounds() {
        let g = book_graph(16, 3);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::paper());
        let mut net = make_net(16);
        let mut rng = StdRng::seed_from_u64(36);
        let _ = build_lambda_cover_with_retry(&inst, &mut net, 5, &mut rng).unwrap();
        assert!(net.rounds() > 0, "weight loading must cost rounds");
        assert!(net.metrics().rounds_with_prefix("compute-pairs/step2") > 0);
    }

    #[test]
    fn empty_s_keeps_nothing() {
        let g = book_graph(16, 3);
        let s = PairSet::new();
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = make_net(16);
        let mut rng = StdRng::seed_from_u64(37);
        let cover = build_lambda_cover_with_retry(&inst, &mut net, 20, &mut rng).unwrap();
        assert_eq!(cover.total_kept(), 0);
    }

    #[test]
    fn kept_lists_are_sorted() {
        let mut rng = StdRng::seed_from_u64(38);
        let g = random_ugraph(16, 0.7, 3, &mut rng);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::paper());
        let mut net = make_net(16);
        let cover = build_lambda_cover_with_retry(&inst, &mut net, 5, &mut rng).unwrap();
        for list in &cover.kept {
            assert!(list
                .windows(2)
                .all(|w| (w[0].u, w[0].v) <= (w[1].u, w[1].v)));
        }
    }

    #[test]
    fn deterministic_cover_is_an_exact_partition() {
        let mut rng = StdRng::seed_from_u64(40);
        let g = random_ugraph(16, 0.6, 4, &mut rng);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = make_net(16);
        let cover = build_deterministic_cover(&inst, &mut net).unwrap();
        assert!(cover.covers_all_s_edges(&inst));
        // chunks of one ordered (u, v) label family are disjoint and cover
        // P(u, v) exactly once, so the total sampled volume equals the sum
        // of |P(u, v)| over *ordered* block pairs (cross pairs appear in
        // both orientations, same as the randomized covering's labels)
        let q = inst.parts.coarse.num_blocks();
        let total_pairs: usize = (0..q)
            .flat_map(|a| (0..q).map(move |b| (a, b)))
            .map(|(a, b)| inst.parts.coarse.pair_set(a, b).len())
            .sum();
        let sampled_total: usize = cover.sampled.iter().sum();
        assert_eq!(sampled_total, total_pairs);
    }

    #[test]
    fn deterministic_cover_concentrates_adversarial_load() {
        // Adversarial instance: all negative-triangle pairs of one block
        // pair are consecutive in P(u, v) order, so the deterministic
        // chunking puts them all in one Λ_x — the congestion the random
        // covering provably (Lemma 3) avoids.
        let n = 16;
        let mut g = qcc_graph::UGraph::new(n);
        // pairs (0,1), (0,2), (0,3) are consecutive in pair order; give
        // them all negative triangles through apex 8
        for v in 1..=3 {
            g.add_edge(0, v, -10);
            g.add_edge(v, 8, 4); // filler to vary
        }
        for v in 1..=3 {
            g.add_edge(0, 8, 4);
            g.add_edge(v, 8, 4);
        }
        let s = PairSet::all_pairs(n);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = make_net(n);
        let det = build_deterministic_cover(&inst, &mut net).unwrap();
        // count triangle pairs per label in the deterministic cover
        let delta: Vec<(usize, usize)> = vec![(0, 1), (0, 2), (0, 3)]
            .into_iter()
            .filter(|&(u, v)| g.gamma(u, v) > 0)
            .collect();
        assert!(!delta.is_empty());
        let max_det = det
            .kept
            .iter()
            .map(|list| {
                list.iter()
                    .filter(|kp| delta.contains(&(kp.u, kp.v)))
                    .count()
            })
            .max()
            .unwrap();
        // all adversarial pairs share one chunk (they are adjacent in
        // pair-set order and chunks are larger than |delta|)
        assert_eq!(
            max_det,
            delta.len(),
            "deterministic chunking concentrates the load"
        );
    }

    #[test]
    fn balanced_attempt_is_default_for_empty_graph() {
        let g = UGraph::new(16);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = make_net(16);
        let mut rng = StdRng::seed_from_u64(39);
        let cover = build_lambda_cover_with_retry(&inst, &mut net, 20, &mut rng).unwrap();
        assert_eq!(cover.total_kept(), 0);
    }
}
