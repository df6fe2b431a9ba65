//! Algorithm `IdentifyClass` (Figure 2) and the class partition `{T_α}`.
//!
//! Step 3 of ComputePairs must know, for every gathering node `(u, v, w)`,
//! roughly how many pairs of `P(u, v) ∩ S` form a negative triangle with an
//! apex in `w` — the quantity `|Δ(u, v; w)|` of Definition 3 — because
//! heavily loaded triples are the congestion hot-spots the evaluation
//! procedure must spread out (Figure 5). Computing `Δ` exactly is too
//! expensive, so `IdentifyClass` estimates it by sampling a public random
//! pair set `R ⊆ S` (each vertex `u` samples each `S`-partner with
//! probability `≈ 10 log n / n`, aborts if it drew more than `≈ 20 log n`,
//! then broadcasts its draws), counting `d_uvw = |Δ ∩ R|` locally, and
//! assigning the *class* `c_uvw` = smallest `c ≥ 0` with
//! `d_uvw < 10·2^c·log n`.
//!
//! Proposition 5: with probability `≥ 1 − 2/n` no abort happens and every
//! triple of class `α > 0` satisfies `2^{α−3}·n ≤ |Δ| ≤ 2^{α+1}·n` (class
//! 0 satisfies `|Δ| ≤ 2n`).

use crate::instance::Instance;
use crate::sampling::sample_indices;
use crate::wire::{pair_bits, weight_bits, Wire};
use qcc_congest::{Clique, CongestError, NodeId};
use rand::Rng;

/// The class partition produced by `IdentifyClass`.
#[derive(Clone, Debug)]
pub struct ClassAssignment {
    /// `c_uvw` per triple label (indexed like
    /// [`TripleLabeling`](qcc_graph::TripleLabeling)).
    pub class_of: Vec<u32>,
    /// The sampled estimator counts `d_uvw` per triple label.
    pub d: Vec<usize>,
    /// The public sampled pair set `R` (with weights), as `(u, v, f(u,v))`.
    pub r: Vec<(usize, usize, i64)>,
}

impl ClassAssignment {
    /// The largest class in use.
    pub fn max_class(&self) -> u32 {
        self.class_of.iter().copied().max().unwrap_or(0)
    }

    /// `T_α[u, v]`: the fine blocks `w` with `(u, v, w) ∈ T_α`, for the
    /// coarse block pair `(bu, bv)`.
    pub fn t_alpha(&self, inst: &Instance<'_>, bu: usize, bv: usize, alpha: u32) -> Vec<usize> {
        let s = inst.parts.fine.num_blocks();
        (0..s)
            .filter(|&bw| self.class_of[inst.triples.encode(bu, bv, bw)] == alpha)
            .collect()
    }
}

/// Outcome of one `IdentifyClass` attempt.
#[derive(Clone, Debug)]
pub enum ClassAttempt {
    /// Sampling stayed below the abort bound; classes were assigned.
    Assigned(ClassAssignment),
    /// Some vertex drew more than the abort bound and the protocol aborted.
    Aborted {
        /// The over-sampling vertex.
        vertex: usize,
        /// Its draw count.
        observed: usize,
        /// The abort bound.
        bound: f64,
    },
}

/// Runs `IdentifyClass` once (Figure 2).
///
/// # Errors
///
/// Returns a [`CongestError`] only on simulator-level addressing bugs.
pub fn identify_class<R: Rng>(
    inst: &Instance<'_>,
    net: &mut Clique,
    rng: &mut R,
) -> Result<ClassAttempt, CongestError> {
    let n = inst.n();
    let p = inst.params.identify_probability(n);
    let abort_bound = inst.params.identify_abort_bound(n);

    // Step 1: each vertex u samples its S-partners.
    let mut per_vertex: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
    let mut flags = vec![false; n];
    let mut violation: Option<(usize, usize)> = None; // (vertex, observed)
    for u in 0..n {
        let partners: Vec<usize> = (0..n)
            .filter(|&v| inst.in_s(u, v) && inst.graph.has_edge(u, v))
            .collect();
        let picked = sample_indices(partners.len(), p, rng);
        if picked.len() as f64 > abort_bound {
            flags[u] = true;
            if violation.is_none() {
                violation = Some((u, picked.len()));
            }
        }
        per_vertex[u] = picked
            .into_iter()
            .map(|i| {
                let v = partners[i];
                let w = inst
                    .graph
                    .weight(u, v)
                    .finite()
                    .expect("partners are edges");
                (v, w)
            })
            .collect();
    }
    // Abort consensus: every node must learn the flag before broadcasting.
    net.begin_phase("identify-class/abort-consensus");
    if net.agree_any(&flags)? {
        let (vertex, observed) = violation.expect("flag implies violation");
        return Ok(ClassAttempt::Aborted {
            vertex,
            observed,
            bound: abort_bound,
        });
    }

    // Broadcast every Λ(u) (with weights) to all nodes.
    net.begin_phase("identify-class/broadcast");
    let pb = pair_bits(n);
    let wb = weight_bits(inst.weight_magnitude());
    let items: Vec<Vec<Wire<(usize, i64)>>> = per_vertex
        .iter()
        .map(|list| {
            list.iter()
                .map(|&(v, w)| Wire::new((v, w), pb + wb))
                .collect()
        })
        .collect();
    let views = net.gossip(items)?;

    // Every node now holds the same R; reconstruct it once (all views agree).
    let mut r: Vec<(usize, usize, i64)> = Vec::new();
    for (origin, msg) in views.of(NodeId::new(0)) {
        let (v, w) = msg.value;
        let u = origin.index();
        r.push((u.min(v), u.max(v), w));
    }
    r.sort_unstable();
    r.dedup();

    // Step 2: local class computation at each triple node. A pair of R
    // only contributes to the two labels carrying its coarse block pair,
    // so tally R-side — one apex scan per (pair, fine block) — instead of
    // rescanning all of R at each of the q²·s triple labels.
    let label_count = inst.triples.labeling().label_count();
    let mut class_of = vec![0u32; label_count];
    let mut d = vec![0usize; label_count];
    let fine = inst.parts.fine.num_blocks();
    for &(u, v, _w) in &r {
        let (cu, cv) = (inst.parts.coarse.block_of(u), inst.parts.coarse.block_of(v));
        for bw in 0..fine {
            if inst.has_apex_in_block(u, v, bw) {
                d[inst.triples.encode(cu, cv, bw)] += 1;
                if cu != cv {
                    d[inst.triples.encode(cv, cu, bw)] += 1;
                }
            }
        }
    }
    for (label, &count) in d.iter().enumerate() {
        let mut c = 0u32;
        while count as f64 >= inst.params.class_boundary(n, c) {
            c += 1;
        }
        class_of[label] = c;
    }

    Ok(ClassAttempt::Assigned(ClassAssignment { class_of, d, r }))
}

/// Retries [`identify_class`] until an attempt assigns classes, up to
/// `max_attempts` times.
///
/// # Errors
///
/// Returns [`crate::ApspError::StageAborted`] if every attempt aborted.
///
/// # Examples
///
/// ```
/// use qcc_apsp::identify_class::identify_class_with_retry;
/// use qcc_apsp::{Instance, PairSet, Params};
/// use qcc_congest::Clique;
/// use qcc_graph::UGraph;
/// use rand::SeedableRng;
///
/// let g = UGraph::new(16); // no triangles anywhere
/// let s = PairSet::all_pairs(16);
/// let inst = Instance::new(&g, &s, Params::paper());
/// let mut net = Clique::new(16)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let classes = identify_class_with_retry(&inst, &mut net, 10, &mut rng)?;
/// assert_eq!(classes.max_class(), 0); // everything is light
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn identify_class_with_retry<R: Rng>(
    inst: &Instance<'_>,
    net: &mut Clique,
    max_attempts: u32,
    rng: &mut R,
) -> Result<ClassAssignment, crate::ApspError> {
    for _ in 0..max_attempts {
        match identify_class(inst, net, rng)? {
            ClassAttempt::Assigned(a) => return Ok(a),
            ClassAttempt::Aborted { .. } => continue,
        }
    }
    Err(crate::ApspError::StageAborted {
        stage: "identify-class",
        attempts: max_attempts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::problem::PairSet;
    use qcc_graph::{book_graph, congestion_hotspot, random_ugraph, UGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn no_triangles_means_class_zero_everywhere() {
        let g = UGraph::new(16);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::paper());
        let mut net = Clique::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let a = identify_class_with_retry(&inst, &mut net, 10, &mut rng).unwrap();
        assert!(a.class_of.iter().all(|&c| c == 0));
        assert!(a.d.iter().all(|&d| d == 0));
        assert_eq!(a.max_class(), 0);
    }

    #[test]
    fn r_is_a_subset_of_s_edges() {
        let mut rng = StdRng::seed_from_u64(42);
        let g = random_ugraph(16, 0.6, 4, &mut rng);
        let mut s = PairSet::new();
        for (u, v, _) in g.edges().take(20) {
            s.insert(u, v);
        }
        let inst = Instance::new(&g, &s, Params::paper());
        let mut net = Clique::new(16).unwrap();
        let a = identify_class_with_retry(&inst, &mut net, 10, &mut rng).unwrap();
        for &(u, v, w) in &a.r {
            assert!(s.contains(u, v));
            assert_eq!(g.weight(u, v).finite(), Some(w));
        }
    }

    #[test]
    fn d_estimates_track_delta_with_full_sampling() {
        // With p clamped to 1, R = all S-edges, so d_uvw = |Δ(u,v;w)| exactly.
        let (g, _) = congestion_hotspot(16, 3, 5);
        let s = PairSet::all_pairs(16);
        // p = 1 with an abort bound that allows everything
        let mut params = Params::paper();
        params.identify_rate = 1e9;
        params.identify_abort = 1e9;
        let inst = Instance::new(&g, &s, params);
        let mut net = Clique::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        let a = identify_class_with_retry(&inst, &mut net, 10, &mut rng).unwrap();
        for (label, (bu, bv, bw)) in inst.triples.triples() {
            let delta = inst.delta(bu, bv, bw).len();
            assert_eq!(a.d[label], delta, "triple ({bu},{bv},{bw})");
        }
    }

    #[test]
    fn classes_partition_the_fine_blocks() {
        let g = book_graph(16, 5);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::paper());
        let mut net = Clique::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(44);
        let a = identify_class_with_retry(&inst, &mut net, 10, &mut rng).unwrap();
        let q = inst.parts.coarse.num_blocks();
        let fine = inst.parts.fine.num_blocks();
        for bu in 0..q {
            for bv in 0..q {
                let mut total = 0;
                for alpha in 0..=a.max_class() {
                    total += a.t_alpha(&inst, bu, bv, alpha).len();
                }
                assert_eq!(total, fine, "block pair ({bu},{bv})");
            }
        }
    }

    #[test]
    fn abort_triggers_on_tiny_bound() {
        let g = book_graph(16, 5);
        let s = PairSet::all_pairs(16);
        let mut params = Params::paper(); // p = 1 at n = 16
        params.identify_abort = 0.0;
        let inst = Instance::new(&g, &s, params);
        let mut net = Clique::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(45);
        match identify_class(&inst, &mut net, &mut rng).unwrap() {
            ClassAttempt::Aborted {
                observed, bound, ..
            } => {
                assert!(observed as f64 > bound);
            }
            ClassAttempt::Assigned(_) => panic!("expected abort"),
        }
        assert!(net.rounds() > 0, "the abort consensus is charged");
        assert_eq!(
            net.metrics().rounds_with_prefix("identify-class/broadcast"),
            0,
            "abort happens before the R broadcast"
        );
        let err = identify_class_with_retry(&inst, &mut net, 2, &mut rng).unwrap_err();
        assert_eq!(
            err,
            crate::ApspError::StageAborted {
                stage: "identify-class",
                attempts: 2
            }
        );
    }

    #[test]
    fn broadcast_charges_rounds() {
        let g = book_graph(16, 5);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::paper());
        let mut net = Clique::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(46);
        let _ = identify_class_with_retry(&inst, &mut net, 10, &mut rng).unwrap();
        assert!(net.metrics().rounds_with_prefix("identify-class") > 0);
    }

    #[test]
    fn heavier_delta_gets_higher_class() {
        // One block pair has many triangle pairs, others none; with full
        // sampling the loaded triple's class must dominate.
        let (g, _) = congestion_hotspot(16, 4, 6);
        let s = PairSet::all_pairs(16);
        let mut params = Params::paper();
        params.identify_rate = 1e9;
        params.identify_abort = 1e9;
        params.class_threshold = 0.25; // low boundary so classes separate at n=16
        let inst = Instance::new(&g, &s, params);
        let mut net = Clique::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(47);
        let a = identify_class_with_retry(&inst, &mut net, 10, &mut rng).unwrap();
        assert!(
            a.max_class() > 0,
            "hotspot should push some triple above class 0"
        );
        // the class is monotone in d
        for (label, &d) in a.d.iter().enumerate() {
            for (label2, &d2) in a.d.iter().enumerate() {
                if d <= d2 {
                    assert!(
                        a.class_of[label] <= a.class_of[label2],
                        "labels {label},{label2}"
                    );
                }
            }
        }
    }
}
