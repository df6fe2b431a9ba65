//! Distributed semiring (min-plus) matrix multiplication — the classical
//! `O~(n^{1/3})`-round APSP baseline (Censor-Hillel et al., "Algebraic
//! methods in the congested clique").
//!
//! The work is split over block triples: `[n]` is cut into `b = ⌈n^{1/3}⌉`
//! blocks of `≈ n^{2/3}` rows/columns, and the node labelled `(i, j, k)`
//! computes the partial products `min_{κ ∈ B_k}(A[ρ, κ] + B[κ, γ])` for
//! `ρ ∈ B_i, γ ∈ B_j`. Each node receives `O(n^{4/3})` matrix entries
//! (delivered by Lemma 1 routing in `O(n^{1/3})` rounds) and the partial
//! results are aggregated at the row owners with the same cost. Repeated
//! squaring then gives APSP in `O~(n^{1/3})` rounds — the barrier the
//! paper's quantum algorithm breaks.

use crate::apsp::{ApspAlgorithm, ApspReport};
use crate::wire::{weight_bits, Wire};
use crate::ApspError;
use qcc_congest::{Clique, CongestError, Envelope, NetConfig, NodeId, TraceSink};
use qcc_graph::{ExtWeight, Labeling, Partition, WeightMatrix};

/// One distributed min-plus product `A ⋆ B`, charged to `net`. `threads`
/// workers compute the local per-triple partial products (host wall-clock
/// only; the charged round count is identical for every worker count).
///
/// # Errors
///
/// * [`ApspError::DimensionMismatch`] if sizes disagree with the network.
/// * Propagated [`CongestError`]s on addressing bugs.
pub fn semiring_distance_product(
    a: &WeightMatrix,
    b: &WeightMatrix,
    net: &mut Clique,
    threads: usize,
) -> Result<WeightMatrix, ApspError> {
    let n = a.n();
    if b.n() != n {
        return Err(ApspError::DimensionMismatch {
            expected: n,
            actual: b.n(),
        });
    }
    if net.n() != n {
        return Err(ApspError::DimensionMismatch {
            expected: n,
            actual: net.n(),
        });
    }
    let blocks = cube_root_blocks(n);
    let part = Partition::equal(n, blocks);
    let labeling = Labeling::new(blocks * blocks * blocks, n);
    let encode = |i: usize, j: usize, k: usize| (i * blocks + j) * blocks + k;
    let wb = weight_bits(a.max_finite_magnitude_with(b));

    // Phase 1: owners stream row/column segments to the triple nodes.
    net.begin_phase("semiring/distribute");
    let mut sends: Vec<Envelope<Wire<Segment>>> = Vec::new();
    for r in 0..n {
        let bi = part.block_of(r);
        for k in 0..blocks {
            let seg_a: Vec<Option<i64>> = part.block(k).map(|c| a[(r, c)].finite()).collect();
            let bits = wb * seg_a.len() as u64;
            for j in 0..blocks {
                let dst = NodeId::new(labeling.node_of(encode(bi, j, k)));
                sends.push(Envelope::new(
                    NodeId::new(r),
                    dst,
                    Wire::new(
                        Segment {
                            matrix: MatrixSide::A,
                            index: r,
                            block: k,
                            values: seg_a.clone(),
                        },
                        bits,
                    ),
                ));
            }
        }
        // row r of B feeds triples whose k-block contains r
        let bk = part.block_of(r);
        for j in 0..blocks {
            let seg_b: Vec<Option<i64>> = part.block(j).map(|c| b[(r, c)].finite()).collect();
            let bits = wb * seg_b.len() as u64;
            for i in 0..blocks {
                let dst = NodeId::new(labeling.node_of(encode(i, j, bk)));
                sends.push(Envelope::new(
                    NodeId::new(r),
                    dst,
                    Wire::new(
                        Segment {
                            matrix: MatrixSide::B,
                            index: r,
                            block: j,
                            values: seg_b.clone(),
                        },
                        bits,
                    ),
                ));
            }
        }
    }
    let boxes = net.route(sends).map_err(congest)?;

    // Phase 2: local partial products at the triple nodes.
    // partial[(i, j, k)][(ρ offset, γ offset)] lives at node of (i, j, k).
    let partials: Vec<Vec<Option<i64>>> = {
        // Reassemble each triple's A and B tiles from its inbox.
        let mut tile_a: Vec<Vec<Option<i64>>> = vec![Vec::new(); blocks * blocks * blocks];
        let mut tile_b: Vec<Vec<Option<i64>>> = vec![Vec::new(); blocks * blocks * blocks];
        for t in 0..blocks * blocks * blocks {
            let (ti, tj, tk) = ((t / blocks) / blocks, (t / blocks) % blocks, t % blocks);
            tile_a[t] = vec![None; part.block_size(ti) * part.block_size(tk)];
            tile_b[t] = vec![None; part.block_size(tk) * part.block_size(tj)];
        }
        for host in NodeId::all(n) {
            for (_src, msg) in boxes.of(host) {
                let seg = &msg.value;
                match seg.matrix {
                    MatrixSide::A => {
                        // row seg.index of A over columns of block seg.block:
                        // belongs to every triple (block_of(r), *, seg.block)
                        // hosted here — identify by re-deriving.
                        let bi = part.block_of(seg.index);
                        for j in 0..blocks {
                            let t = encode(bi, j, seg.block);
                            if labeling.node_of(t) != host.index() {
                                continue;
                            }
                            let ro = seg.index - part.block(bi).start;
                            let klen = part.block_size(seg.block);
                            for (o, v) in seg.values.iter().enumerate() {
                                tile_a[t][ro * klen + o] = *v;
                            }
                        }
                    }
                    MatrixSide::B => {
                        let bk = part.block_of(seg.index);
                        for i in 0..blocks {
                            let t = encode(i, seg.block, bk);
                            if labeling.node_of(t) != host.index() {
                                continue;
                            }
                            let ko = seg.index - part.block(bk).start;
                            let jlen = part.block_size(seg.block);
                            for (o, v) in seg.values.iter().enumerate() {
                                tile_b[t][ko * jlen + o] = *v;
                            }
                        }
                    }
                }
            }
        }
        // Each triple's partial product is independent: fan the census out
        // over worker threads, results returned in triple order.
        qcc_perf::map_indexed(blocks * blocks * blocks, threads, |t| {
            let (ti, tj, tk) = ((t / blocks) / blocks, (t / blocks) % blocks, t % blocks);
            let (ilen, jlen, klen) = (
                part.block_size(ti),
                part.block_size(tj),
                part.block_size(tk),
            );
            let mut out = vec![None; ilen * jlen];
            for ro in 0..ilen {
                for ko in 0..klen {
                    let Some(av) = tile_a[t][ro * klen + ko] else {
                        continue;
                    };
                    for go in 0..jlen {
                        if let Some(bv) = tile_b[t][ko * jlen + go] {
                            let cand = av + bv;
                            let slot = &mut out[ro * jlen + go];
                            *slot = Some(slot.map_or(cand, |cur: i64| cur.min(cand)));
                        }
                    }
                }
            }
            out
        })
    };

    // Phase 3: aggregate the k-partials at the row owners.
    net.begin_phase("semiring/aggregate");
    let mut sends: Vec<Envelope<Wire<(usize, usize, Option<i64>)>>> = Vec::new();
    for (t, partial) in partials.iter().enumerate() {
        let (ti, tj, _tk) = ((t / blocks) / blocks, (t / blocks) % blocks, t % blocks);
        let src = NodeId::new(labeling.node_of(t));
        let jlen = part.block_size(tj);
        for (ro, r) in part.block(ti).enumerate() {
            for (go, c) in part.block(tj).enumerate() {
                let v = partial[ro * jlen + go];
                if v.is_some() {
                    sends.push(Envelope::new(src, NodeId::new(r), Wire::new((r, c, v), wb)));
                }
            }
        }
    }
    let boxes = net.route(sends).map_err(congest)?;

    let mut c = WeightMatrix::filled(n, ExtWeight::PosInf);
    for host in NodeId::all(n) {
        for (_src, msg) in boxes.of(host) {
            let (r, col, v) = msg.value;
            debug_assert_eq!(r, host.index());
            if let Some(v) = v {
                let cand = ExtWeight::from(v);
                if cand < c[(r, col)] {
                    c[(r, col)] = cand;
                }
            }
        }
    }
    Ok(c)
}

/// APSP by repeated squaring over [`semiring_distance_product`], with
/// `threads` workers for the local partial products (host wall-clock only;
/// rounds are unaffected).
///
/// The internal `Clique` attaches to `trace` — the run is wrapped in a
/// root `apsp` span with one `product-k` child per squaring, and round
/// charges are byte-identical with and without a sink — and is armed with
/// `netcfg`'s fault plan and reliable-delivery envelope before any message
/// moves.
///
/// # Errors
///
/// Returns [`ApspError::NegativeCycle`] on negative cycles and propagates
/// network errors; injected faults that break through the envelope surface
/// as [`ApspError::Faulted`], carrying the rounds the failed run already
/// charged.
///
/// # Examples
///
/// ```
/// use qcc_apsp::semiring_apsp;
/// use qcc_congest::NetConfig;
/// use qcc_graph::{DiGraph, ExtWeight};
///
/// let mut g = DiGraph::new(5);
/// g.add_arc(0, 1, 4);
/// g.add_arc(1, 4, -2);
/// let report = semiring_apsp(&g, 1, None, &NetConfig::default())?;
/// assert_eq!(report.distances[(0, 4)], ExtWeight::from(2));
/// # Ok::<(), qcc_apsp::ApspError>(())
/// ```
pub fn semiring_apsp(
    g: &qcc_graph::DiGraph,
    threads: usize,
    trace: Option<&TraceSink>,
    netcfg: &NetConfig,
) -> Result<ApspReport, ApspError> {
    let n = g.n();
    let mut net = Clique::new(n)?;
    if let Some(sink) = trace {
        net.set_trace_sink(sink.clone());
    }
    netcfg.apply(&mut net);
    net.push_span("apsp");
    let mut current = g.adjacency_matrix();
    let mut products = 0u32;
    let mut exponent: u64 = 1;
    while exponent < (n.max(2) as u64) - 1 {
        net.push_span(&format!("product-{products}"));
        current = match semiring_distance_product(&current.clone(), &current, &mut net, threads) {
            Ok(product) => product,
            Err(e) => {
                net.close_all_spans();
                return Err(ApspError::faulted(net.rounds(), e));
            }
        };
        net.pop_span();
        products += 1;
        exponent *= 2;
    }
    net.close_all_spans();
    for i in 0..n {
        if current[(i, i)] < ExtWeight::ZERO {
            return Err(ApspError::NegativeCycle);
        }
    }
    Ok(ApspReport {
        distances: current,
        rounds: net.rounds(),
        products,
        algorithm: ApspAlgorithm::SemiringSquaring,
    })
}

fn cube_root_blocks(n: usize) -> usize {
    let mut b = (n as f64).powf(1.0 / 3.0).round() as usize;
    while b.saturating_pow(3) < n {
        b += 1;
    }
    while b > 1 && (b - 1).pow(3) >= n {
        b -= 1;
    }
    b.clamp(1, n.max(1))
}

fn congest(e: CongestError) -> ApspError {
    ApspError::Congest(e)
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum MatrixSide {
    A,
    B,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Segment {
    matrix: MatrixSide,
    index: usize,
    block: usize,
    values: Vec<Option<i64>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_graph::{distance_product, floyd_warshall, random_reweighted_digraph, DiGraph};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cube_root_blocks_are_exact_on_cubes() {
        assert_eq!(cube_root_blocks(27), 3);
        assert_eq!(cube_root_blocks(28), 4);
        assert_eq!(cube_root_blocks(1), 1);
        assert_eq!(cube_root_blocks(8), 2);
    }

    #[test]
    fn product_matches_reference() {
        let mut rng = StdRng::seed_from_u64(131);
        for &n in &[5usize, 8, 13] {
            let a = WeightMatrix::from_fn(n, |_, _| {
                if rng.gen_bool(0.8) {
                    ExtWeight::from(rng.gen_range(-9..=9))
                } else {
                    ExtWeight::PosInf
                }
            });
            let b = WeightMatrix::from_fn(n, |_, _| {
                if rng.gen_bool(0.8) {
                    ExtWeight::from(rng.gen_range(-9..=9))
                } else {
                    ExtWeight::PosInf
                }
            });
            let mut net = Clique::new(n).unwrap();
            let c = semiring_distance_product(&a, &b, &mut net, 1).unwrap();
            assert_eq!(c, distance_product(&a, &b), "n = {n}");
            assert!(net.rounds() > 0);
        }
    }

    #[test]
    fn apsp_matches_floyd_warshall() {
        let mut rng = StdRng::seed_from_u64(132);
        let g = random_reweighted_digraph(13, 0.4, 7, &mut rng);
        let report = semiring_apsp(&g, 1, None, &NetConfig::default()).unwrap();
        assert_eq!(
            report.distances,
            floyd_warshall(&g.adjacency_matrix()).unwrap()
        );
        assert_eq!(report.algorithm, ApspAlgorithm::SemiringSquaring);
    }

    #[test]
    fn negative_cycle_is_detected() {
        let mut g = DiGraph::new(5);
        g.add_arc(0, 1, -3);
        g.add_arc(1, 0, 1);
        assert_eq!(
            semiring_apsp(&g, 1, None, &NetConfig::default()).unwrap_err(),
            ApspError::NegativeCycle
        );
    }

    #[test]
    fn per_product_rounds_grow_sublinearly() {
        // Shape check: one semiring product's rounds grow like n^{1/3}
        // (up to log factors), far below linear. A 4x larger instance must
        // cost well under 4x the rounds. (The naive-vs-semiring crossover
        // itself needs larger n and lives in experiment E9.)
        let mut rng = StdRng::seed_from_u64(133);
        let mut rounds_for = |n: usize| {
            let g = random_reweighted_digraph(n, 0.5, 4, &mut rng);
            let a = g.adjacency_matrix();
            let mut net = Clique::new(n).unwrap();
            semiring_distance_product(&a, &a, &mut net, 1).unwrap();
            net.rounds()
        };
        let r16 = rounds_for(16);
        let r64 = rounds_for(64);
        assert!(r64 < 4 * r16, "r16 = {r16}, r64 = {r64}");
    }
}
