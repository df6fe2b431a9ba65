//! Step 1 of ComputePairs: gathering edge weights at the triple nodes.
//!
//! Each node `(u, v, w) ∈ T = V × V × V'` loads the weights `f(u, w)` for
//! all `{u, w} ∈ P(u, w)` and `f(w, v)` for all `{w, v} ∈ P(w, v)`. Since
//! `|P(u, w)| = |P(w, v)| = O(n^{5/4})`, Lemma 1 routing delivers the
//! gather in `O(n^{1/4})` rounds — the dominant setup cost of the
//! algorithm, and exactly what the simulator measures.
//!
//! The gathered tables answer the Step-3 checking queries locally:
//! `min_{w ∈ w} (f(u, w) + f(w, v)) < −f(u, v)` iff some apex in `w`
//! completes a negative triangle with `{u, v}`.
//!
//! A materialized gather fills every triple's tables from its inboxes. On
//! a transparent network the rows a triple receives are by construction
//! the graph's weights, so the gather only charges the route and each
//! triple's tables are filled from the graph on their first read. The
//! charge-only quantum Step 3 reads none of them.

use crate::instance::Instance;
use crate::wire::{weight_bits, Wire};
use crate::ApspError;
use qcc_congest::{Clique, CongestError, Envelope, NodeId};
use std::cell::OnceCell;
use std::ops::Range;

/// Census sentinel: the cell has no apex edge pair.
const NO_APEX: i64 = i64::MAX - 1;

/// The blocks of one triple label `(bu, bv, bw)`: its coarse `u`- and
/// `v`-blocks and its fine apex block.
#[derive(Clone, Debug)]
struct Blocks {
    bu: usize,
    bv: usize,
    u: Range<usize>,
    v: Range<usize>,
    w: Range<usize>,
}

impl Blocks {
    fn of(inst: &Instance<'_>, label: usize) -> Self {
        let (bu, bv, bw) = inst.triples.decode(label);
        Blocks {
            bu,
            bv,
            u: inst.parts.coarse.block(bu),
            v: inst.parts.coarse.block(bv),
            w: inst.parts.fine.block(bw),
        }
    }

    /// Orients the unordered pair `{u, v}` to the triple's (u-side, v-side).
    fn orient(&self, u: usize, v: usize) -> Result<(usize, usize), ApspError> {
        if self.u.contains(&u) && self.v.contains(&v) {
            Ok((u, v))
        } else if self.u.contains(&v) && self.v.contains(&u) {
            Ok((v, u))
        } else {
            Err(ApspError::Internal {
                context: format!(
                    "pair ({u}, {v}) does not belong to block pair ({}, {})",
                    self.bu, self.bv
                ),
            })
        }
    }
}

/// The weight tables one triple `(u, v, w)` loads in Step 1.
#[derive(Clone, Debug)]
struct LabelTables {
    /// `uw[i * |w| + j] = f(u_i, w_j)` for `u_i ∈ u`, `w_j ∈ w`.
    uw: Vec<Option<i64>>,
    /// `wv[j * |v| + l] = f(w_j, v_l)` for `w_j ∈ w`, `v_l ∈ v`.
    wv: Vec<Option<i64>>,
}

impl LabelTables {
    /// All-absent tables sized for the blocks.
    fn empty(b: &Blocks) -> Self {
        LabelTables {
            uw: vec![None; b.u.len() * b.w.len()],
            wv: vec![None; b.w.len() * b.v.len()],
        }
    }

    /// The tables a transparent gather delivers: the graph's weights, row
    /// for row.
    fn from_graph(inst: &Instance<'_>, b: &Blocks) -> Self {
        let f = |x: usize, y: usize| inst.graph.weight(x, y).finite();
        let (u, v, w) = (b.u.clone(), b.v.clone(), b.w.clone());
        LabelTables {
            uw: u.flat_map(|a| w.clone().map(move |x| f(a, x))).collect(),
            wv: w
                .clone()
                .flat_map(|x| v.clone().map(move |c| f(x, c)))
                .collect(),
        }
    }

    /// `min_{w ∈ w, w ∉ {su, sv}} (f(su, w) + f(w, sv))` over existing apex
    /// edges for the oriented pair `(su, sv)`: an endpoint is not its own
    /// apex.
    fn apex_min(&self, b: &Blocks, su: usize, sv: usize) -> Option<i64> {
        let (i, l) = (su - b.u.start, sv - b.v.start);
        b.w.clone()
            .enumerate()
            .filter(|&(_, w)| w != su && w != sv)
            .filter_map(|(j, _)| Some(self.uw[i * b.w.len() + j]? + self.wv[j * b.v.len() + l]?))
            .min()
    }
}

/// The census of one triple label: the min-plus value of every oriented
/// pair of its block pair.
#[derive(Clone, Debug)]
struct Census {
    blocks: Blocks,
    /// `min[i * |v| + l]` for the pair `(u_i, v_l)`, [`NO_APEX`] when no
    /// apex pair exists.
    min: Vec<i64>,
}

/// The per-triple weight tables loaded in Step 1.
///
/// The tables never change once the gather ends, so each label's census is
/// built once, on the label's first [`GatheredWeights::check_negative`],
/// and kept.
#[derive(Clone, Debug)]
pub struct GatheredWeights {
    /// One cell per triple label. A materialized gather fills every cell
    /// from the inboxes; after a transparent gather the cells start empty
    /// and each is filled from the graph on its label's first read.
    tables: Vec<OnceCell<LabelTables>>,
    /// One census per triple label.
    census: Vec<OnceCell<Census>>,
}

impl GatheredWeights {
    fn new(tables: Vec<OnceCell<LabelTables>>) -> Self {
        let census = std::iter::repeat_with(OnceCell::new)
            .take(tables.len())
            .collect();
        GatheredWeights { tables, census }
    }

    /// The tables of `label`, filled from the graph on first read if the
    /// gather left them empty.
    fn label_tables(&self, inst: &Instance<'_>, label: usize) -> &LabelTables {
        self.tables[label].get_or_init(|| LabelTables::from_graph(inst, &Blocks::of(inst, label)))
    }

    /// How many labels' tables are filled.
    #[cfg(test)]
    fn filled_labels(&self) -> usize {
        self.tables.iter().filter(|t| t.get().is_some()).count()
    }

    /// Looks up `f(u, w)` in the tables of `label`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not in the triple's `u`-block or `w` not in its
    /// fine block.
    pub fn f_uw(&self, inst: &Instance<'_>, label: usize, u: usize, w: usize) -> Option<i64> {
        let b = Blocks::of(inst, label);
        assert!(b.u.contains(&u) && b.w.contains(&w));
        self.label_tables(inst, label).uw[(u - b.u.start) * b.w.len() + w - b.w.start]
    }

    /// Looks up `f(w, v)` in the tables of `label`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not in the triple's `v`-block or `w` not in its
    /// fine block.
    pub fn f_wv(&self, inst: &Instance<'_>, label: usize, w: usize, v: usize) -> Option<i64> {
        let b = Blocks::of(inst, label);
        assert!(b.v.contains(&v) && b.w.contains(&w));
        self.label_tables(inst, label).wv[(w - b.w.start) * b.v.len() + v - b.v.start]
    }

    /// `min_{w ∈ w} (f(u, w) + f(w, v))` over existing apex edges, using
    /// only the tables gathered at `label`: the scan the census is built
    /// from.
    ///
    /// # Errors
    ///
    /// Returns [`ApspError::Internal`] if the pair does not belong to the
    /// triple's block pair — an addressing bug, or corrupted routing state
    /// on a fault-injected network.
    pub fn min_plus(
        &self,
        inst: &Instance<'_>,
        label: usize,
        u: usize,
        v: usize,
    ) -> Result<Option<i64>, ApspError> {
        let b = Blocks::of(inst, label);
        let (su, sv) = b.orient(u, v)?;
        Ok(self.label_tables(inst, label).apex_min(&b, su, sv))
    }

    /// The Step-3 checking predicate: does some apex in the triple's fine
    /// block complete a negative triangle with the edge `{u, v}` of weight
    /// `f_uv`? Answered from the label's census, built on its first query.
    ///
    /// Note: the paper's Inequality (2) prints `min ≤ f(u, v)`, but
    /// Definition 1 requires `f(u,v) + f(u,w) + f(w,v) < 0`, i.e.
    /// `min < −f(u, v)` — we implement the definition (the inequality in
    /// the paper is a typo; the surrounding text confirms the check is
    /// "is `{u, v, w}` a negative triangle").
    ///
    /// # Errors
    ///
    /// Same as [`GatheredWeights::min_plus`].
    pub fn check_negative(
        &self,
        inst: &Instance<'_>,
        label: usize,
        u: usize,
        v: usize,
        f_uv: i64,
    ) -> Result<bool, ApspError> {
        let Census { blocks: b, min } =
            self.census[label].get_or_init(|| self.build_census(inst, label));
        let (su, sv) = b.orient(u, v)?;
        let min_sum = min[(su - b.u.start) * b.v.len() + sv - b.v.start];
        Ok(min_sum != NO_APEX && min_sum < -f_uv)
    }

    /// Computes the census of `label` — every oriented pair of its block
    /// pair — as one rectangular flat min-plus product
    /// ([`qcc_graph::min_plus_flat_into`]) over the sentinel-coded `uw` and
    /// `wv` tables, then patches the few cells whose endpoints sit inside
    /// the fine block (the kernel knows no "skip the endpoint apexes" rule)
    /// with the scalar scan. Entries outside the kernel's exact magnitude
    /// domain force a whole-table scalar scan, so the census always
    /// matches [`GatheredWeights::min_plus`] cell for cell.
    fn build_census(&self, inst: &Instance<'_>, label: usize) -> Census {
        let b = Blocks::of(inst, label);
        let t = self.label_tables(inst, label);
        let (ulen, vlen) = (b.u.len(), b.v.len());
        let scalar = |i: usize, l: usize| {
            let m = t.apex_min(&b, b.u.start + i, b.v.start + l);
            debug_assert!(
                m.unwrap_or(0) < NO_APEX,
                "min-plus value hits the census sentinel"
            );
            m.unwrap_or(NO_APEX)
        };
        let encode = |t: &[Option<i64>]| -> Option<Vec<i64>> {
            t.iter()
                .map(|w| match *w {
                    None => Some(qcc_graph::TROPICAL_NONE),
                    Some(x) if x.unsigned_abs() <= qcc_graph::TROPICAL_FINITE_MAX as u64 => Some(x),
                    Some(_) => None,
                })
                .collect()
        };
        let min = if let (Some(a), Some(c)) = (encode(&t.uw), encode(&t.wv)) {
            let mut min = vec![qcc_graph::TROPICAL_NONE; ulen * vlen];
            qcc_graph::min_plus_flat_into(&a, &c, ulen, b.w.len(), vlen, &mut min);
            for i in 0..ulen {
                for l in 0..vlen {
                    // The kernel counted every apex; a cell whose endpoint
                    // lies in the fine block must exclude it.
                    let entry = &mut min[i * vlen + l];
                    *entry = if b.w.contains(&(b.u.start + i)) || b.w.contains(&(b.v.start + l)) {
                        scalar(i, l)
                    } else {
                        qcc_graph::tropical_decode(*entry).unwrap_or(NO_APEX)
                    };
                }
            }
            min
        } else {
            (0..ulen)
                .flat_map(|i| (0..vlen).map(move |l| scalar(i, l)))
                .collect()
        };
        Census { blocks: b, min }
    }
}

/// Executes Step 1: every vertex owner streams its relevant weight rows to
/// the triple nodes via Lemma 1 routing.
///
/// # Errors
///
/// Returns a [`CongestError`] only on simulator-level addressing bugs.
///
/// # Examples
///
/// ```
/// use qcc_apsp::gather::gather_weights;
/// use qcc_apsp::{Instance, PairSet, Params};
/// use qcc_congest::Clique;
/// use qcc_graph::book_graph;
///
/// let g = book_graph(16, 2);
/// let s = PairSet::all_pairs(16);
/// let inst = Instance::new(&g, &s, Params::paper());
/// let mut net = Clique::new(16)?;
/// let gathered = gather_weights(&inst, &mut net)?;
/// // the triple holding blocks of vertices 0, 1 can answer the spine check
/// let f_uv = g.weight(0, 1).finite().unwrap();
/// let bu = inst.parts.coarse.block_of(0);
/// let bw = inst.parts.fine.block_of(2); // apex 2's block
/// let label = inst.triples.encode(bu, inst.parts.coarse.block_of(1), bw);
/// assert!(gathered.check_negative(&inst, label, 0, 1, f_uv)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn gather_weights(
    inst: &Instance<'_>,
    net: &mut Clique,
) -> Result<GatheredWeights, CongestError> {
    let n = inst.n();
    let wb = weight_bits(inst.weight_magnitude());
    net.begin_phase("compute-pairs/step1-gather");

    if net.is_transparent() {
        // Charge-only gather: the route's cost depends only on each
        // message's (src, dst, bits), so ship empty payloads in the exact
        // same order. The rows the messages would carry are the graph's
        // weights, so every triple's tables are left to fill on first read.
        let mut sends: Vec<Envelope<Wire<()>>> = Vec::new();
        for (label, (bu, bv, bw)) in inst.triples.triples() {
            let dst = NodeId::new(inst.triples.labeling().node_of(label));
            let row_bits = wb * inst.parts.fine.block(bw).len() as u64;
            for a in inst.parts.coarse.block(bu) {
                sends.push(Envelope::new(NodeId::new(a), dst, Wire::new((), row_bits)));
            }
            for b in inst.parts.coarse.block(bv) {
                sends.push(Envelope::new(NodeId::new(b), dst, Wire::new((), row_bits)));
            }
        }
        net.route(sends)?;
        let label_count = inst.triples.labeling().label_count();
        return Ok(GatheredWeights::new(
            std::iter::repeat_with(OnceCell::new)
                .take(label_count)
                .collect(),
        ));
    }

    // Owner `a` sends, for each triple whose u-side (resp. v-side) block
    // contains `a`, the weights {f(a, w) : w ∈ w} as one message.
    // Message payload: (label, side, vertex, weights row over the fine block).
    let mut sends: Vec<Envelope<Wire<(usize, u8, usize, Vec<Option<i64>>)>>> = Vec::new();
    for (label, (bu, bv, bw)) in inst.triples.triples() {
        let dst = NodeId::new(inst.triples.labeling().node_of(label));
        let wblock = inst.parts.fine.block(bw);
        let row_bits = wb * wblock.len() as u64;
        for a in inst.parts.coarse.block(bu) {
            let row: Vec<Option<i64>> = wblock
                .clone()
                .map(|w| inst.graph.weight(a, w).finite())
                .collect();
            sends.push(Envelope::new(
                NodeId::new(a),
                dst,
                Wire::new((label, 0u8, a, row), row_bits),
            ));
        }
        for b in inst.parts.coarse.block(bv) {
            let row: Vec<Option<i64>> = wblock
                .clone()
                .map(|w| inst.graph.weight(w, b).finite())
                .collect();
            sends.push(Envelope::new(
                NodeId::new(b),
                dst,
                Wire::new((label, 1u8, b, row), row_bits),
            ));
        }
    }
    let boxes = net.route(sends)?;

    let mut tables: Vec<LabelTables> = (0..inst.triples.labeling().label_count())
        .map(|label| LabelTables::empty(&Blocks::of(inst, label)))
        .collect();
    for host in NodeId::all(n) {
        for (_src, msg) in boxes.of(host) {
            let (label, side, vertex, row) = &msg.value;
            debug_assert_eq!(inst.triples.labeling().node_of(*label), host.index());
            let b = Blocks::of(inst, *label);
            let t = &mut tables[*label];
            if *side == 0 {
                let i = vertex - b.u.start;
                t.uw[i * b.w.len()..(i + 1) * b.w.len()].copy_from_slice(row);
            } else {
                let l = vertex - b.v.start;
                for (j, w) in row.iter().enumerate() {
                    t.wv[j * b.v.len() + l] = *w;
                }
            }
        }
    }

    Ok(GatheredWeights::new(
        tables.into_iter().map(OnceCell::from).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::problem::PairSet;
    use qcc_graph::{book_graph, random_ugraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (qcc_graph::UGraph, PairSet) {
        let mut rng = StdRng::seed_from_u64(seed);
        (random_ugraph(n, 0.6, 5, &mut rng), PairSet::all_pairs(n))
    }

    #[test]
    fn gathered_tables_match_the_graph() {
        let (g, s) = setup(16, 51);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        let gathered = gather_weights(&inst, &mut net).unwrap();
        for (label, (bu, bv, bw)) in inst.triples.triples() {
            for u in inst.parts.coarse.block(bu) {
                for w in inst.parts.fine.block(bw) {
                    assert_eq!(
                        gathered.f_uw(&inst, label, u, w),
                        g.weight(u, w).finite(),
                        "label {label} f({u},{w})"
                    );
                }
            }
            for w in inst.parts.fine.block(bw) {
                for v in inst.parts.coarse.block(bv) {
                    assert_eq!(gathered.f_wv(&inst, label, w, v), g.weight(w, v).finite());
                }
            }
        }
    }

    #[test]
    fn gather_costs_rounds() {
        let (g, s) = setup(16, 52);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        let _ = gather_weights(&inst, &mut net).unwrap();
        assert!(net.rounds() > 0);
        assert!(net.metrics().rounds_with_prefix("compute-pairs/step1") > 0);
    }

    #[test]
    fn check_negative_matches_census() {
        let (g, s) = setup(16, 53);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        let gathered = gather_weights(&inst, &mut net).unwrap();
        for (label, (bu, bv, bw)) in inst.triples.triples() {
            for (u, v) in inst.parts.coarse.pair_set(bu, bv) {
                if let Some(f_uv) = g.weight(u, v).finite() {
                    let expected = inst
                        .parts
                        .fine
                        .block(bw)
                        .any(|w| g.is_negative_triangle(u, v, w));
                    assert_eq!(
                        gathered.check_negative(&inst, label, u, v, f_uv).unwrap(),
                        expected,
                        "label {label} pair ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn min_plus_skips_endpoint_apexes() {
        // pair {0, 1} with 2 as apex: blocks are small at n = 16, and when
        // 0 or 1 sit inside the apex block they must not count as apexes.
        let g = book_graph(16, 3);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        let gathered = gather_weights(&inst, &mut net).unwrap();
        let bu = inst.parts.coarse.block_of(0);
        let bv = inst.parts.coarse.block_of(1);
        let bw = inst.parts.fine.block_of(0); // the block containing vertex 0 itself
        let label = inst.triples.encode(bu, bv, bw);
        // must not treat w = 0 or w = 1 as an apex for the pair {0, 1}
        let census = inst
            .parts
            .fine
            .block(bw)
            .any(|w| g.is_negative_triangle(0, 1, w));
        let f_uv = g.weight(0, 1).finite().unwrap();
        assert_eq!(
            gathered.check_negative(&inst, label, 0, 1, f_uv).unwrap(),
            census
        );
    }

    #[test]
    fn charge_only_quantum_step3_fills_no_table() {
        use crate::identify_class::identify_class_with_retry;
        use crate::lambda::build_lambda_cover_with_retry;
        use crate::step3::{run_step3_classical, run_step3_quantum};
        let (g, s) = setup(16, 55);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(56);
        let gathered = gather_weights(&inst, &mut net).unwrap();
        assert_eq!(gathered.filled_labels(), 0, "nothing is filled up front");
        let cover = build_lambda_cover_with_retry(&inst, &mut net, 30, &mut rng).unwrap();
        let classes = identify_class_with_retry(&inst, &mut net, 30, &mut rng).unwrap();
        let out =
            run_step3_quantum(&inst, &mut net, &cover, &gathered, &classes, &mut rng).unwrap();
        assert!(out.stats.searches > 0, "the searches ran");
        assert_eq!(
            gathered.filled_labels(),
            0,
            "charge-only Step 3 reads no table"
        );
        // The classical Step 3 answers from the tables, filling them as it reads.
        run_step3_classical(&inst, &mut net, &cover, &gathered).unwrap();
        assert!(gathered.filled_labels() > 0);
    }

    #[test]
    fn materialized_gather_fills_every_table() {
        let (g, s) = setup(16, 57);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        net.set_reliable_delivery(qcc_congest::ReliableConfig::default());
        let gathered = gather_weights(&inst, &mut net).unwrap();
        assert_eq!(
            gathered.filled_labels(),
            inst.triples.labeling().label_count()
        );
    }

    #[test]
    fn min_plus_rejects_foreign_pairs() {
        let (g, s) = setup(16, 54);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        let gathered = gather_weights(&inst, &mut net).unwrap();
        // triple (0, 0, 0) covers only block 0's pairs; vertex 15 is in the
        // last coarse block
        let label = inst.triples.encode(0, 0, 0);
        let err = gathered.min_plus(&inst, label, 0, 15).unwrap_err();
        assert!(matches!(err, ApspError::Internal { .. }));
        assert!(err.to_string().contains("does not belong"));
    }
}
