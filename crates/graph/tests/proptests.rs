//! Property-based tests for the graph substrate.

use proptest::collection::vec;
use proptest::prelude::*;
use qcc_graph::{
    bellman_ford, distance_power, distance_product, distance_product_with_threads, floyd_warshall,
    johnson, DiGraph, ExtWeight, PaperPartitions, Partition, UGraph, WeightMatrix, MIN_PLUS_TILE,
};

/// Reference distance product `A ⋆ B` (Definition 2):
/// `C[i,j] = min_k (A[i,k] + B[k,j])`, the textbook `i, k, j` triple loop
/// in `O(n³)` time: small enough to audit by eye, and the ground truth the
/// tiled kernel of `distance_product` is checked against.
fn distance_product_reference(a: &WeightMatrix, b: &WeightMatrix) -> WeightMatrix {
    assert_eq!(a.n(), b.n(), "distance product requires equal dimensions");
    let n = a.n();
    let mut c = WeightMatrix::filled(n, ExtWeight::PosInf);
    for i in 0..n {
        for k in 0..n {
            let aik = a[(i, k)];
            if aik == ExtWeight::PosInf {
                continue;
            }
            for j in 0..n {
                let cand = aik + b[(k, j)];
                if cand < c[(i, j)] {
                    c[(i, j)] = cand;
                }
            }
        }
    }
    c
}

fn arb_weight() -> impl Strategy<Value = ExtWeight> {
    prop_oneof![
        4 => (-50i64..50).prop_map(ExtWeight::from),
        1 => Just(ExtWeight::PosInf),
    ]
}

/// The full extended-weight range: negative weights and both infinities.
fn arb_full_weight() -> impl Strategy<Value = ExtWeight> {
    prop_oneof![
        6 => (-50i64..50).prop_map(ExtWeight::from),
        1 => Just(ExtWeight::PosInf),
        1 => Just(ExtWeight::NegInf),
    ]
}

fn arb_matrix(n: usize) -> impl Strategy<Value = WeightMatrix> {
    vec(arb_weight(), n * n).prop_map(move |entries| {
        let mut it = entries.into_iter();
        WeightMatrix::from_fn(n, |_, _| it.next().expect("enough entries"))
    })
}

fn arb_full_matrix(n: usize) -> impl Strategy<Value = WeightMatrix> {
    vec(arb_full_weight(), n * n).prop_map(move |entries| {
        let mut it = entries.into_iter();
        WeightMatrix::from_fn(n, |_, _| it.next().expect("enough entries"))
    })
}

proptest! {
    /// min-plus addition is commutative and monotone, +inf absorbing.
    #[test]
    fn weight_algebra_laws(a in arb_weight(), b in arb_weight(), c in arb_weight()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a + ExtWeight::PosInf, ExtWeight::PosInf);
        prop_assert_eq!(a.min_with(b), b.min_with(a));
        // monotonicity of + in each argument (no -inf in arb_weight)
        if a <= b {
            prop_assert!(a + c <= b + c);
        }
    }

    /// The distance product is associative.
    #[test]
    fn distance_product_is_associative(
        a in arb_matrix(5),
        b in arb_matrix(5),
        c in arb_matrix(5),
    ) {
        let left = distance_product(&distance_product(&a, &b), &c);
        let right = distance_product(&a, &distance_product(&b, &c));
        prop_assert_eq!(left, right);
    }

    /// Repeated squaring agrees with iterated products.
    #[test]
    fn distance_power_matches_iteration(a in arb_matrix(4), p in 0u64..7) {
        let mut iter = WeightMatrix::distance_identity(4);
        for _ in 0..p {
            iter = distance_product(&iter, &a);
        }
        prop_assert_eq!(distance_power(&a, p), iter);
    }

    /// Floyd–Warshall equals Johnson equals Bellman–Ford on random
    /// negative-cycle-free digraphs.
    #[test]
    fn apsp_oracles_agree(seed in 0u64..500) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = qcc_graph::random_reweighted_digraph(8, 0.45, 12, &mut rng);
        let fw = floyd_warshall(&g.adjacency_matrix()).expect("no negative cycle");
        let jo = johnson(&g).expect("no negative cycle");
        prop_assert_eq!(&fw, &jo);
        for src in 0..8 {
            let bf = bellman_ford(&g, src).expect("no negative cycle");
            for v in 0..8 {
                prop_assert_eq!(bf[v], fw[(src, v)]);
            }
        }
    }

    /// gamma() agrees with brute-force triangle enumeration.
    #[test]
    fn gamma_matches_triangle_listing(seed in 0u64..300) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = qcc_graph::random_ugraph(9, 0.6, 4, &mut rng);
        let triangles = g.negative_triangles();
        for u in 0..9 {
            for v in (u + 1)..9 {
                let count = triangles
                    .iter()
                    .filter(|&&(a, b, c)| {
                        let set = [a, b, c];
                        set.contains(&u) && set.contains(&v)
                    })
                    .count();
                prop_assert_eq!(g.gamma(u, v), count, "pair ({}, {})", u, v);
            }
        }
    }

    /// The row-scan apex test agrees with the triangle predicate on every
    /// pair (edges, non-edges and `u = v`) and every range of apexes,
    /// empty ranges and ranges holding `u` or `v` included.
    #[test]
    fn negative_apex_row_scan_matches_the_triangle_predicate(
        graph in (1usize..10).prop_flat_map(|n| (
            Just(n),
            vec(prop_oneof![3 => (-20i64..20).prop_map(Some), 1 => Just(None)], n * n),
        ))
    ) {
        let (n, weights) = graph;
        let mut g = UGraph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if let Some(w) = weights[u * n + v] {
                    g.add_edge(u, v, w);
                }
            }
        }
        for u in 0..n {
            for v in 0..n {
                for lo in 0..=n {
                    for hi in lo..=n {
                        let expected = (lo..hi).any(|w| g.is_negative_triangle(u, v, w));
                        prop_assert_eq!(
                            g.has_negative_apex(u, v, lo..hi),
                            expected,
                            "pair ({}, {}), apexes {}..{}", u, v, lo, hi
                        );
                    }
                }
            }
        }
    }

    /// Edge sampling keeps a subset of edges with original weights.
    #[test]
    fn sampling_yields_subgraph(seed in 0u64..100, p in 0.0f64..1.0) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = qcc_graph::random_ugraph(8, 0.7, 5, &mut rng);
        let s = g.sample_edges(p, &mut rng);
        for (u, v, w) in s.edges() {
            prop_assert_eq!(g.weight(u, v), ExtWeight::from(w));
        }
        prop_assert!(s.edge_count() <= g.edge_count());
    }

    /// Partitions cover every item exactly once with near-equal sizes.
    #[test]
    fn partition_is_balanced(n in 1usize..200, blocks in 1usize..20) {
        let blocks = blocks.min(n);
        let p = Partition::equal(n, blocks);
        let mut count = 0usize;
        let mut min_size = usize::MAX;
        let mut max_size = 0usize;
        for b in 0..p.num_blocks() {
            let size = p.block_size(b);
            min_size = min_size.min(size);
            max_size = max_size.max(size);
            count += size;
        }
        prop_assert_eq!(count, n);
        prop_assert!(max_size - min_size <= 1);
    }

    /// The paper partitions always cover the vertex set.
    #[test]
    fn paper_partitions_cover(n in 1usize..700) {
        let parts = PaperPartitions::new(n);
        prop_assert_eq!(parts.coarse.n_items(), n);
        prop_assert_eq!(parts.fine.n_items(), n);
        let q = parts.coarse.num_blocks();
        let s = parts.fine.num_blocks();
        // block counts are the rounded roots
        prop_assert!(q.pow(4) >= n);
        prop_assert!(s.pow(2) >= n);
    }
}

proptest! {
    /// The tiled, band-parallel kernel is bit-identical to the naive
    /// reference for every worker count, on matrices spanning negative
    /// weights and both infinities.
    #[test]
    fn tiled_product_is_bit_identical_to_reference(
        pair in (1usize..9).prop_flat_map(|n| (arb_full_matrix(n), arb_full_matrix(n)))
    ) {
        let (a, b) = pair;
        let reference = distance_product_reference(&a, &b);
        prop_assert_eq!(&distance_product(&a, &b), &reference);
        for threads in [1usize, 2, 3, 5] {
            prop_assert_eq!(&distance_product_with_threads(&a, &b, threads), &reference);
        }
    }
}

#[test]
fn tiled_kernel_matches_reference_across_tile_boundaries() {
    // n > MIN_PLUS_TILE exercises multi-tile k/j loops and, under
    // multiple workers, multi-band rows.
    let n = MIN_PLUS_TILE + 17;
    let a = WeightMatrix::from_fn(n, |i, j| {
        if (i * 31 + j * 7) % 5 == 0 {
            ExtWeight::PosInf
        } else {
            ExtWeight::from((i as i64) - 2 * j as i64)
        }
    });
    let b = WeightMatrix::from_fn(n, |i, j| {
        if (i + 3 * j) % 7 == 0 {
            ExtWeight::PosInf
        } else {
            ExtWeight::from((3 * j) as i64 - i as i64)
        }
    });
    let expected = distance_product_reference(&a, &b);
    for threads in [1, 2, 4, 7] {
        assert_eq!(
            distance_product_with_threads(&a, &b, threads),
            expected,
            "{threads} threads"
        );
    }
}

#[test]
fn negative_triangle_pairs_on_complete_negative_graph() {
    // all edges -1: every triple is a negative triangle
    let n = 7;
    let mut g = UGraph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v, -1);
        }
    }
    let pairs = g.negative_triangle_pairs();
    assert_eq!(pairs.len(), n * (n - 1) / 2);
    assert_eq!(g.gamma(0, 1), n - 2);
}

#[test]
fn digraph_apsp_on_disconnected_graph() {
    let g = DiGraph::new(5);
    let d = floyd_warshall(&g.adjacency_matrix()).unwrap();
    for i in 0..5 {
        for j in 0..5 {
            let expected = if i == j {
                ExtWeight::ZERO
            } else {
                ExtWeight::PosInf
            };
            assert_eq!(d[(i, j)], expected);
        }
    }
}
