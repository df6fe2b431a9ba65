//! The flat Floyd–Warshall, the flat Bellman–Ford rows and the decrease
//! repair against the oracles they replaced.
//!
//! `reference` holds the previous implementations verbatim: Floyd–Warshall
//! over `ExtWeight`, relaxing row bands against a snapshot of each pivot
//! row; Bellman–Ford with parents over `ExtWeight`; and the one-product
//! repair candidate, which the serving engine accepted only when the
//! min-plus fixpoint certificate passed. Both sides get the same seeded
//! inputs for every n in 0..=40 and for n = 128: negative arcs, zero-weight
//! cycles, absent arcs, `+∞` and `−∞` matrix entries, magnitudes at the
//! flat kernels' guard `(n − 1)·M ≤ TROPICAL_FINITE_MAX` and one above it
//! (where Floyd–Warshall's `ExtWeight` pass and Bellman–Ford's `i128` lanes
//! take over), and negative cycles. Matrices,
//! distance rows and parent vectors must be equal, or both sides must
//! report the negative cycle. Decrease-only updates of one to three arcs
//! (a repeated arc, an insertion from `+∞` and a decrease that closes a
//! negative cycle among them) must repair to Floyd–Warshall of the mutated
//! graph, and to the old candidate wherever the certificate accepted it.

use qcc_graph::{
    bellman_ford, delta_repair, floyd_warshall, has_negative_cycle, johnson,
    min_plus_fixpoint_certificate, random_reweighted_digraph, sssp_row_with_parents, DiGraph,
    EdgeDelta, ExtWeight, NegativeCycleError, WeightMatrix, TROPICAL_FINITE_MAX,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The oracles as they were before the flat lanes, kept as the model the
/// library must match entry for entry.
mod reference {
    use qcc_graph::{
        min_plus_flat_into, tropical_decode, DiGraph, EdgeDelta, ExtWeight, NegativeCycleError,
        WeightMatrix, TROPICAL_FINITE_MAX, TROPICAL_NONE,
    };

    /// Floyd–Warshall on an adjacency matrix (`A_G[i,i] = 0`).
    pub fn floyd_warshall(adj: &WeightMatrix) -> Result<WeightMatrix, NegativeCycleError> {
        floyd_warshall_with_threads(adj, qcc_perf::resolve_threads(None))
    }

    /// Iteration `k` relaxes every row against a snapshot of pivot row `k`.
    pub fn floyd_warshall_with_threads(
        adj: &WeightMatrix,
        threads: usize,
    ) -> Result<WeightMatrix, NegativeCycleError> {
        let n = adj.n();
        let mut d = adj.clone();
        let mut pivot = vec![ExtWeight::PosInf; n];
        for k in 0..n {
            pivot.copy_from_slice(d.row(k));
            let pivot = &pivot;
            qcc_perf::for_each_row_band(d.as_mut_slice(), n, threads, |rows, d_rows| {
                for (bi, _) in rows.enumerate() {
                    let row = &mut d_rows[bi * n..(bi + 1) * n];
                    let dik = row[k];
                    if dik == ExtWeight::PosInf {
                        continue;
                    }
                    for (dij, &dkj) in row.iter_mut().zip(pivot) {
                        let cand = dik + dkj;
                        if cand < *dij {
                            *dij = cand;
                        }
                    }
                }
            });
        }
        for i in 0..n {
            if d[(i, i)] < ExtWeight::ZERO {
                return Err(NegativeCycleError);
            }
        }
        Ok(d)
    }

    /// Bellman–Ford single-source shortest paths.
    pub fn bellman_ford(g: &DiGraph, src: usize) -> Result<Vec<ExtWeight>, NegativeCycleError> {
        let n = g.n();
        assert!(src < n);
        let mut dist = vec![ExtWeight::PosInf; n];
        dist[src] = ExtWeight::ZERO;
        let arcs: Vec<_> = g.arcs().collect();
        for _ in 0..n.saturating_sub(1) {
            let mut changed = false;
            for &(u, v, w) in &arcs {
                let cand = dist[u] + ExtWeight::from(w);
                if cand < dist[v] {
                    dist[v] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for &(u, v, w) in &arcs {
            if dist[u] + ExtWeight::from(w) < dist[v] {
                return Err(NegativeCycleError);
            }
        }
        Ok(dist)
    }

    /// Bellman–Ford single-source relaxation with parent tracking.
    pub fn sssp_row_with_parents(
        g: &DiGraph,
        src: usize,
    ) -> Result<(Vec<ExtWeight>, Vec<Option<usize>>), NegativeCycleError> {
        let n = g.n();
        assert!(src < n, "source out of range");
        let mut dist = vec![ExtWeight::PosInf; n];
        let mut parent: Vec<Option<usize>> = vec![None; n];
        dist[src] = ExtWeight::ZERO;
        let arcs: Vec<(usize, usize, i64)> = g.arcs().collect();
        for _ in 0..n.saturating_sub(1) {
            let mut changed = false;
            for &(u, v, w) in &arcs {
                let cand = dist[u] + ExtWeight::from(w);
                if cand < dist[v] {
                    dist[v] = cand;
                    parent[v] = Some(u);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for &(u, v, w) in &arcs {
            if dist[u] + ExtWeight::from(w) < dist[v] {
                return Err(NegativeCycleError);
            }
        }
        Ok((dist, parent))
    }

    /// Encodes a weight matrix for the flat i64 kernels, or `None` when the
    /// matrix is outside their exact domain.
    fn tropical_encode(m: &WeightMatrix) -> Option<Vec<i64>> {
        let mut coded = Vec::with_capacity(m.n() * m.n());
        for w in m.as_slice() {
            coded.push(match *w {
                ExtWeight::PosInf => TROPICAL_NONE,
                ExtWeight::Finite(x) if x.unsigned_abs() <= TROPICAL_FINITE_MAX as u64 => x,
                _ => return None,
            });
        }
        Some(coded)
    }

    /// The repair candidate
    /// `C[i,j] = min(D[i,j], min_e (D[i,u_e] + w_e + D[v_e,j]))`, one
    /// rectangular min-plus product over the changed edges.
    pub fn delta_repair_candidate(d: &WeightMatrix, deltas: &[EdgeDelta]) -> WeightMatrix {
        let n = d.n();
        let live: Vec<&EdgeDelta> = deltas.iter().filter(|e| e.weight.is_finite()).collect();
        for e in &live {
            assert!(e.u < n && e.v < n, "delta endpoint out of range");
        }
        let k = live.len();
        if k == 0 {
            return d.clone();
        }
        if let Some(coded) = tropical_encode(d) {
            if let Some(l) = encode_left(d, &live) {
                let mut r = Vec::with_capacity(k * n);
                for e in &live {
                    r.extend_from_slice(&coded[e.v * n..(e.v + 1) * n]);
                }
                // Accumulate into a copy of D: entries only ever improve.
                let mut cand = coded;
                min_plus_flat_into(&l, &r, n, k, n, &mut cand);
                let mut out = WeightMatrix::filled(n, ExtWeight::PosInf);
                for (dst, &v) in out.as_mut_slice().iter_mut().zip(&cand) {
                    if let Some(x) = tropical_decode(v) {
                        *dst = ExtWeight::Finite(x);
                    }
                }
                return out;
            }
        }
        // ExtWeight fallback for inputs outside the flat kernel's domain.
        let mut out = d.clone();
        for e in &live {
            for i in 0..n {
                let head = d[(i, e.u)] + e.weight;
                if head == ExtWeight::PosInf {
                    continue;
                }
                let drow = d.row(e.v);
                let orow = out.row_mut(i);
                for (o, &dvj) in orow.iter_mut().zip(drow) {
                    let cand = head + dvj;
                    if cand < *o {
                        *o = cand;
                    }
                }
            }
        }
        out
    }

    /// Sentinel-codes the left factor `L[i,e] = D[i,u_e] + w_e`, or `None`
    /// when an entry leaves the flat kernel's exact domain.
    fn encode_left(d: &WeightMatrix, live: &[&EdgeDelta]) -> Option<Vec<i64>> {
        let n = d.n();
        let mut l = Vec::with_capacity(n * live.len());
        for i in 0..n {
            for e in live {
                match d[(i, e.u)] + e.weight {
                    ExtWeight::PosInf => l.push(TROPICAL_NONE),
                    ExtWeight::Finite(x) if x.unsigned_abs() <= TROPICAL_FINITE_MAX as u64 => {
                        l.push(x);
                    }
                    _ => return None,
                }
            }
        }
        Some(l)
    }
}

fn w(x: i64) -> ExtWeight {
    ExtWeight::from(x)
}

/// The largest arc magnitude the flat oracles take at `n` vertices.
fn guard(n: usize) -> i64 {
    TROPICAL_FINITE_MAX / (n.max(2) as i64 - 1)
}

/// Arcs weighing uniformly in `[-m, m]`: dense graphs close negative
/// cycles, sparse ones mostly do not.
fn signed_graph(n: usize, density: f64, m: i64, rng: &mut StdRng) -> DiGraph {
    let mut g = DiGraph::new(n);
    for u in 0..n {
        for v in 0..n {
            if u != v && rng.gen_bool(density) {
                g.add_arc(u, v, rng.gen_range(-m..=m));
            }
        }
    }
    g
}

/// The path `0 → 1 → … → n−1` of arcs weighing `−m`, back arcs
/// `i + 1 → i` weighing `m` (zero-weight 2-cycles) and forward chords in
/// `[−m, m]`: distances reach `±(n − 1)·m` and no cycle is negative. With
/// `closed`, the arc `n−1 → 0` of weight `−m` closes a negative cycle.
fn extreme_graph(n: usize, m: i64, closed: bool, rng: &mut StdRng) -> DiGraph {
    let mut g = DiGraph::new(n);
    for i in 1..n {
        g.add_arc(i - 1, i, -m);
        g.add_arc(i, i - 1, m);
    }
    for u in 0..n {
        for v in u + 2..n {
            if rng.gen_bool(0.2) {
                g.add_arc(u, v, rng.gen_range(-m..=m));
            }
        }
    }
    if closed && n > 2 {
        g.add_arc(n - 1, 0, -m);
    }
    g
}

/// A square matrix that no graph has: off the diagonal `+∞` (30%), `−∞`
/// (with `neg_inf`, 5%) or finite in `[-m, m]`; on it `+∞` (30%) or
/// finite in `[0, m]`.
fn wild_matrix(n: usize, m: i64, neg_inf: bool, rng: &mut StdRng) -> WeightMatrix {
    WeightMatrix::from_fn(n, |i, j| {
        let roll: f64 = rng.gen();
        if roll < 0.3 {
            ExtWeight::PosInf
        } else if i == j {
            w(rng.gen_range(0..=m))
        } else if neg_inf && roll < 0.35 {
            ExtWeight::NegInf
        } else {
            w(rng.gen_range(-m..=m))
        }
    })
}

/// The graphs every check runs on at `n` vertices, labelled.
fn graph_families(n: usize, rng: &mut StdRng) -> Vec<(String, DiGraph)> {
    let m = guard(n);
    vec![
        (
            "negative arcs".into(),
            random_reweighted_digraph(n, 0.4, 9, rng),
        ),
        (
            "zero cycles".into(),
            random_reweighted_digraph(n, 0.3, 1, rng),
        ),
        ("sparse".into(), random_reweighted_digraph(n, 0.05, 20, rng)),
        ("negative cycles".into(), signed_graph(n, 0.3, 9, rng)),
        ("at the guard".into(), extreme_graph(n, m, false, rng)),
        (
            "above the guard".into(),
            extreme_graph(n, m + 1, false, rng),
        ),
        ("cycle at the guard".into(), extreme_graph(n, m, true, rng)),
        ("cycle above".into(), extreme_graph(n, m + 1, true, rng)),
    ]
}

fn sizes() -> impl Iterator<Item = usize> {
    (0..=40).chain([128])
}

#[test]
fn floyd_warshall_matches_the_extweight_pass() {
    let mut rng = StdRng::seed_from_u64(0xF1);
    let (mut ok, mut cycles) = (0, 0);
    for n in sizes() {
        let mut inputs: Vec<(String, WeightMatrix)> = graph_families(n, &mut rng)
            .into_iter()
            .map(|(label, g)| (label, g.adjacency_matrix()))
            .collect();
        let m = guard(n);
        inputs.push(("wild finite".into(), wild_matrix(n, 9, false, &mut rng)));
        inputs.push(("wild -inf".into(), wild_matrix(n, 9, true, &mut rng)));
        inputs.push((
            "wild at the guard".into(),
            wild_matrix(n, m, false, &mut rng),
        ));
        for (label, adj) in &inputs {
            let got = floyd_warshall(adj);
            assert_eq!(got, reference::floyd_warshall(adj), "n = {n}, {label}");
            match got {
                Ok(_) => ok += 1,
                Err(_) => cycles += 1,
            }
        }
    }
    assert!(ok > 200 && cycles > 100, "{ok} solved, {cycles} cycles");
}

#[test]
fn bellman_ford_rows_match_the_extweight_loop() {
    let mut rng = StdRng::seed_from_u64(0xBF);
    let (mut ok, mut cycles, mut saturations) = (0, 0, 0);
    for n in sizes().filter(|&n| n > 0) {
        for (label, g) in graph_families(n, &mut rng) {
            // Every source up to n = 40; at n = 128 the first and the last
            // eight.
            let sources: Vec<usize> = (0..n).filter(|&s| n <= 40 || s < 8 || s + 8 >= n).collect();
            for src in sources {
                let at = format!("n = {n}, {label}, src {src}");
                let got = sssp_row_with_parents(&g, src);
                let old = reference::sssp_row_with_parents(&g, src);
                if got != old {
                    // The old loop saturates a negative cycle's walks to
                    // −∞ and then finds nothing left to relax; the library
                    // stops at −(n − 1)·M and reports the cycle.
                    let saturated = old
                        .as_ref()
                        .is_ok_and(|(d, _)| d.contains(&ExtWeight::NegInf));
                    assert!(saturated && got.is_err(), "{at}: {got:?} vs {old:?}");
                    saturations += 1;
                }
                assert_eq!(bellman_ford(&g, src), got.clone().map(|(d, _)| d), "{at}");
                assert_eq!(
                    reference::bellman_ford(&g, src),
                    old.map(|(d, _)| d),
                    "{at}"
                );
                match got {
                    Ok(_) => ok += 1,
                    Err(_) => cycles += 1,
                }
            }
        }
    }
    assert!(
        ok > 1000 && cycles > 100 && saturations > 0,
        "{ok} solved, {cycles} cycles, {saturations} saturated"
    );
}

#[test]
fn negative_cycles_above_the_guard_are_reported_by_every_oracle() {
    // Far above the guard a negative cycle's walks leave `i64` within a
    // pass; the old loop saturated them to −∞ and reported no cycle.
    let m = 1 << 62;
    let mut triangle = DiGraph::new(3);
    for (u, v) in [(0, 1), (1, 2), (2, 0)] {
        triangle.add_arc(u, v, -m);
    }
    let mut rng = StdRng::seed_from_u64(0xC7);
    let mut graphs = vec![("3-cycle".to_string(), triangle)];
    for n in [3, 4, 9, 40, 128] {
        let g = extreme_graph(n, m, true, &mut rng);
        graphs.push((format!("closed extreme graph, n = {n}"), g));
    }
    for (label, g) in &graphs {
        let cycle = Some(NegativeCycleError);
        assert_eq!(
            floyd_warshall(&g.adjacency_matrix()).err(),
            cycle,
            "{label}"
        );
        assert!(has_negative_cycle(g), "{label}");
        assert_eq!(johnson(g).err(), cycle, "{label}");
        // The cycle runs through every vertex, so every source reaches it.
        for src in 0..g.n() {
            assert_eq!(bellman_ford(g, src).err(), cycle, "{label}, src {src}");
            let row = sssp_row_with_parents(g, src);
            assert_eq!(row.err(), cycle, "{label}, src {src}");
        }
    }
}

#[test]
fn johnson_equals_floyd_warshall_above_the_guard() {
    // Two arcs of magnitude 2^62 into vertex 1: no path has two arcs, but
    // reweighting 2 → 1 on `i64` wraps. And a path of three −2^62 arcs,
    // whose potentials leave `i64`.
    let m = 1 << 62;
    let mut opposed = DiGraph::new(3);
    opposed.add_arc(0, 1, -m);
    opposed.add_arc(2, 1, m);
    let mut path = DiGraph::new(4);
    for u in 0..3 {
        path.add_arc(u, u + 1, -m);
    }
    for (label, g) in [("opposed arcs", opposed), ("path", path)] {
        let fw = floyd_warshall(&g.adjacency_matrix()).unwrap();
        assert_eq!(johnson(&g).unwrap(), fw, "{label}");
    }
}

/// Lowers the arc `(u, v)` of `g` to `weight` and records the delta.
fn lower(g: &mut DiGraph, deltas: &mut Vec<EdgeDelta>, u: usize, v: usize, weight: i64) {
    assert!(w(weight) <= g.weight(u, v), "updates only decrease");
    g.add_arc(u, v, weight);
    deltas.push(EdgeDelta {
        u,
        v,
        weight: w(weight),
    });
}

/// A decrease-only update of `arcs` arcs on `g`, drawn in order: mostly lowered arcs, some insertions from `+∞`, with
/// `repeat` lowering the first arc a second time and `close` ending on an
/// arc that closes a negative cycle. Returns the deltas and the mutated
/// graph.
fn draw_update(
    g: &DiGraph,
    arcs: usize,
    repeat: bool,
    close: bool,
    rng: &mut StdRng,
) -> (Vec<EdgeDelta>, DiGraph) {
    let n = g.n();
    let mut mutated = g.clone();
    let mut deltas = Vec::new();
    for _ in 0..arcs {
        let u = rng.gen_range(0..n);
        let v = (u + rng.gen_range(1..n)) % n;
        let weight = match mutated.weight(u, v) {
            ExtWeight::Finite(x) => x - rng.gen_range(1..=3),
            _ => rng.gen_range(-2..=9),
        };
        lower(&mut mutated, &mut deltas, u, v, weight);
    }
    if repeat {
        let (u, v) = (deltas[0].u, deltas[0].v);
        let weight = mutated.weight(u, v).finite().expect("lowered") - 1;
        lower(&mut mutated, &mut deltas, u, v, weight);
    }
    if close {
        // Without a negative cycle yet, an arc u → v of weight
        // −D'[v][u] − 1 closes one (D' the distances so far).
        if let Ok(dm) = reference::floyd_warshall(&mutated.adjacency_matrix()) {
            let reachable: Vec<(usize, usize)> = dm
                .entries()
                .filter(|&(i, j, &x)| i != j && x.is_finite())
                .map(|(i, j, _)| (i, j))
                .collect();
            if reachable.is_empty() {
                // An arcless graph: 0 → 1 → 0 weighs −1.
                lower(&mut mutated, &mut deltas, 0, 1, 1);
                lower(&mut mutated, &mut deltas, 1, 0, -2);
            } else {
                let (v, u) = reachable[rng.gen_range(0..reachable.len())];
                let back = dm[(v, u)].finite().expect("reachable");
                lower(&mut mutated, &mut deltas, u, v, -back - 1);
            }
        }
    }
    (deltas, mutated)
}

#[test]
fn decrease_repairs_match_recompute_and_the_certified_candidate() {
    let mut rng = StdRng::seed_from_u64(0xDE);
    let (mut certified, mut uncertified, mut rejected) = (0, 0, 0);
    for n in sizes().filter(|&n| n >= 2) {
        for (label, g) in graph_families(n, &mut rng) {
            let Ok(d) = reference::floyd_warshall(&g.adjacency_matrix()) else {
                continue;
            };
            let shapes: &[(usize, bool, bool)] = if n == 128 {
                &[(1, false, false), (3, true, false), (1, false, true)]
            } else {
                &[
                    (1, false, false),
                    (2, false, false),
                    (3, false, false),
                    (2, true, false),
                    (1, false, true),
                    (2, false, true),
                ]
            };
            for &(arcs, repeat, close) in shapes {
                let (deltas, mutated) = draw_update(&g, arcs, repeat, close, &mut rng);
                let at = format!("n = {n}, {label}, {deltas:?}");
                let adj = mutated.adjacency_matrix();
                let truth = reference::floyd_warshall(&adj);
                let got = delta_repair(&d, &deltas);
                assert_eq!(got, truth, "{at}");
                if close {
                    assert_eq!(got, Err(NegativeCycleError), "{at}");
                }
                match truth {
                    Ok(truth) => {
                        let cand = reference::delta_repair_candidate(&d, &deltas);
                        if min_plus_fixpoint_certificate(&adj, &cand) {
                            assert_eq!(cand, truth, "{at}");
                            certified += 1;
                        } else {
                            uncertified += 1;
                        }
                    }
                    Err(_) => rejected += 1,
                }
            }
        }
    }
    assert!(
        certified > 300 && uncertified > 20 && rejected > 100,
        "{certified} certified, {uncertified} recomputed, {rejected} rejected"
    );
}

#[test]
fn repairs_chain_arcs_the_old_candidate_could_not() {
    // Both arcs of the path 0 → 1 → 2 arrive in one update of the empty
    // 3-graph: the one-product candidate left 0 → 2 at +∞ and failed the
    // certificate, so the engine recomputed; the repair chains them.
    let d = floyd_warshall(&DiGraph::new(3).adjacency_matrix()).unwrap();
    let deltas = [
        EdgeDelta {
            u: 0,
            v: 1,
            weight: w(2),
        },
        EdgeDelta {
            u: 1,
            v: 2,
            weight: w(3),
        },
    ];
    let mut g = DiGraph::new(3);
    g.add_arc(0, 1, 2);
    g.add_arc(1, 2, 3);
    let adj = g.adjacency_matrix();
    let cand = reference::delta_repair_candidate(&d, &deltas);
    assert_eq!(cand[(0, 2)], ExtWeight::PosInf);
    assert!(!min_plus_fixpoint_certificate(&adj, &cand));
    let repaired = delta_repair(&d, &deltas).unwrap();
    assert_eq!(repaired[(0, 2)], w(5));
    assert_eq!(Ok(repaired), floyd_warshall(&adj));
}
