//! Robustness and failure-injection tests: awkward sizes, violated
//! promises, oversized payloads, and abort paths.

use qcc::algo::{
    apsp, apsp_with_paths, compute_pairs, distributed_distance_product, find_edges,
    promise_violation, reference_find_edges, ApspAlgorithm, ApspError, PairSet, Params,
    SearchBackend, MAX_PRODUCT_MAGNITUDE,
};
use qcc::congest::{Clique, CongestError, Envelope, NodeId, RawBits};
use qcc::graph::{
    book_graph, distance_product, floyd_warshall, generators, DiGraph, ExtWeight, UGraph,
    WeightMatrix,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn non_fourth_power_sizes_still_work() {
    // n = 17, 23, 50: partitions round up, labelings overload nodes
    for &n in &[17usize, 23, 50] {
        let mut rng = StdRng::seed_from_u64(401 + n as u64);
        let g = generators::random_ugraph(n, 0.3, 4, &mut rng);
        let s = PairSet::all_pairs(n);
        let mut net = Clique::new(n).unwrap();
        let report = compute_pairs(
            &g,
            &s,
            Params::paper(),
            SearchBackend::Classical,
            &mut net,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.found, reference_find_edges(&g, &s), "n = {n}");
    }
}

#[test]
fn violated_promise_degrades_gracefully() {
    // Γ(0,1) = 13 but we force the promise bound below it: the algorithm
    // must not panic, and anything it reports must be a true positive.
    let g = book_graph(16, 13);
    let s = PairSet::all_pairs(16);
    let mut params = Params::paper();
    params.promise_factor = 0.1;
    assert!(promise_violation(&g, &s, params.promise_bound(16)).is_some());
    let mut net = Clique::new(16).unwrap();
    let mut rng = StdRng::seed_from_u64(402);
    let report = compute_pairs(&g, &s, params, SearchBackend::Quantum, &mut net, &mut rng).unwrap();
    let truth = reference_find_edges(&g, &s);
    for (u, v) in report.found.iter() {
        assert!(truth.contains(u, v), "no false positives even off-promise");
    }
}

#[test]
fn find_edges_handles_dense_all_negative_graphs() {
    // every pair is in a negative triangle: the heaviest possible Γ load
    let n = 16;
    let mut g = UGraph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v, -1);
        }
    }
    let s = PairSet::all_pairs(n);
    let mut net = Clique::new(n).unwrap();
    let mut rng = StdRng::seed_from_u64(403);
    let report = find_edges(
        &g,
        &s,
        Params::paper(),
        SearchBackend::Quantum,
        &mut net,
        &mut rng,
    )
    .unwrap();
    assert_eq!(report.found.len(), n * (n - 1) / 2);
}

#[test]
fn oversized_payloads_fragment_through_routing() {
    let n = 8;
    let mut net = Clique::with_bandwidth(n, 8).unwrap();
    // each payload needs 5 fragments; loads stay under n units per node
    let sends: Vec<Envelope<RawBits>> = (1..n)
        .map(|v| Envelope::new(NodeId::new(0), NodeId::new(v), RawBits::new(v as u64, 40)))
        .collect();
    let inboxes = net.route(sends).unwrap();
    // 7 dests × 5 units = 35 units from node 0 -> 2·ceil(35/8) = 10 rounds
    assert_eq!(net.rounds(), 10);
    for v in 1..n {
        assert_eq!(inboxes.of(NodeId::new(v)).len(), 1);
    }
}

#[test]
fn stage_abort_errors_are_reported_not_panicked() {
    let g = book_graph(16, 3);
    let s = PairSet::all_pairs(16);
    let mut params = Params::paper();
    params.balance_factor = 0.0001; // every draw is unbalanced
    let mut net = Clique::new(16).unwrap();
    let mut rng = StdRng::seed_from_u64(404);
    let err =
        compute_pairs(&g, &s, params, SearchBackend::Quantum, &mut net, &mut rng).unwrap_err();
    assert!(matches!(
        err,
        ApspError::StageAborted {
            stage: "lambda-cover",
            ..
        }
    ));
}

#[test]
fn network_addressing_errors_surface() {
    let mut net = Clique::new(4).unwrap();
    let bad = vec![Envelope::new(NodeId::new(0), NodeId::new(9), 1u64)];
    assert!(matches!(
        net.route(bad),
        Err(CongestError::UnknownNode { .. })
    ));
}

#[test]
fn empty_pair_set_and_empty_graph_compose() {
    let g = UGraph::new(16);
    let s = PairSet::new();
    let mut net = Clique::new(16).unwrap();
    let mut rng = StdRng::seed_from_u64(405);
    let report = compute_pairs(
        &g,
        &s,
        Params::paper(),
        SearchBackend::Quantum,
        &mut net,
        &mut rng,
    )
    .unwrap();
    assert!(report.found.is_empty());
}

#[test]
fn weights_at_the_representational_edge() {
    // ±(2^31)-scale weights exercise the wide wire formats end to end
    let n = 12;
    let big = 1_i64 << 31;
    let mut g = UGraph::new(n);
    g.add_edge(0, 1, -big);
    g.add_edge(0, 2, big / 4);
    g.add_edge(1, 2, big / 4);
    g.add_edge(3, 4, big);
    let s = PairSet::all_pairs(n);
    let mut net = Clique::new(n).unwrap();
    let mut rng = StdRng::seed_from_u64(406);
    let report = compute_pairs(
        &g,
        &s,
        Params::paper(),
        SearchBackend::Classical,
        &mut net,
        &mut rng,
    )
    .unwrap();
    assert_eq!(report.found, reference_find_edges(&g, &s));
}

/// A 5-vertex digraph whose largest distance-matrix magnitude is `w` in
/// every squaring: the detours `0 → 1 → 2 → 3` only shrink it.
fn heavy_arc_graph(w: i64) -> DiGraph {
    let mut g = DiGraph::new(5);
    g.add_arc(0, 1, w);
    g.add_arc(1, 2, -5);
    g.add_arc(2, 3, 1);
    g
}

/// The root cause of a pipeline error, through its `Faulted` wrapper.
fn root(err: ApspError) -> ApspError {
    match err {
        ApspError::Faulted { source, .. } => *source,
        other => other,
    }
}

#[test]
fn distance_products_are_exact_up_to_their_magnitude_bound() {
    // The threshold search spans 4M + 3 values: M = 2^61 − 1 is the last
    // magnitude whose span fits an i64.
    let limit = MAX_PRODUCT_MAGNITUDE as i64;
    assert_eq!(limit, (1 << 61) - 1);
    let g = heavy_arc_graph(limit);
    let expected = floyd_warshall(&g.adjacency_matrix()).unwrap();
    for algorithm in [
        ApspAlgorithm::QuantumTriangle,
        ApspAlgorithm::ClassicalTriangle,
    ] {
        let mut rng = StdRng::seed_from_u64(407);
        let report = apsp(&g, Params::paper(), algorithm, &mut rng).unwrap();
        assert_eq!(report.distances, expected, "{algorithm:?}");
    }
    // One more is rejected before any round is charged, and retrying
    // cannot help.
    let g = heavy_arc_graph(limit + 1);
    for algorithm in [
        ApspAlgorithm::QuantumTriangle,
        ApspAlgorithm::ClassicalTriangle,
    ] {
        let mut rng = StdRng::seed_from_u64(407);
        let err = apsp(&g, Params::paper(), algorithm, &mut rng).unwrap_err();
        assert!(!err.is_retryable(), "{algorithm:?}: {err}");
        assert_eq!(err.rounds_charged(), 0);
        assert_eq!(
            root(err),
            ApspError::WeightOverflow {
                magnitude: MAX_PRODUCT_MAGNITUDE + 1
            }
        );
    }
}

#[test]
fn witnessed_products_are_exact_up_to_their_scaled_magnitude_bound() {
    // Witness scaling multiplies every weight by n + 1 = 6 before the
    // product, so the bound falls to ⌊(2^61 − 1) / 6⌋.
    let last = (MAX_PRODUCT_MAGNITUDE / 6) as i64;
    let g = heavy_arc_graph(last);
    let expected = floyd_warshall(&g.adjacency_matrix()).unwrap();
    let mut rng = StdRng::seed_from_u64(408);
    let report = apsp_with_paths(&g, Params::paper(), SearchBackend::Classical, &mut rng).unwrap();
    assert_eq!(report.oracle.distances(), &expected);
    assert_eq!(report.oracle.path(0, 3), Some(vec![0, 1, 2, 3]));
    for w in [last + 1, 1 << 61] {
        let mut rng = StdRng::seed_from_u64(408);
        let err = apsp_with_paths(
            &heavy_arc_graph(w),
            Params::paper(),
            SearchBackend::Classical,
            &mut rng,
        )
        .unwrap_err();
        assert!(!err.is_retryable(), "{err}");
        assert!(
            matches!(root(err), ApspError::WeightOverflow { magnitude } if magnitude > MAX_PRODUCT_MAGNITUDE)
        );
    }
}

#[test]
fn negative_infinite_product_entries_are_rejected() {
    // With A[0][1] = −∞ every entry of row 0 of A ⋆ B is −∞, which the
    // threshold search cannot express: it used to answer the finite
    // [-9, -9, -9] with Ok.
    let mut a = WeightMatrix::from_fn(3, |i, j| ExtWeight::from(i as i64 - j as i64));
    a[(0, 1)] = ExtWeight::NegInf;
    let b = WeightMatrix::from_fn(3, |i, j| ExtWeight::from(2 * j as i64 - i as i64));
    assert!(distance_product(&a, &b)
        .row(0)
        .iter()
        .all(|&w| w == ExtWeight::NegInf));
    for (x, y, operand) in [(&a, &b, "A"), (&b, &a, "B")] {
        let mut rng = StdRng::seed_from_u64(5);
        let err =
            distributed_distance_product(x, y, Params::paper(), SearchBackend::Classical, &mut rng)
                .unwrap_err();
        assert!(!err.is_retryable(), "{err}");
        assert_eq!(err.rounds_charged(), 0);
        assert_eq!(
            err,
            ApspError::NegInfEntry {
                operand,
                row: 0,
                col: 1
            }
        );
    }
}
