//! Query-serving throughput for the `qcc serve` engine
//! (`BENCH_query_throughput.json`).
//!
//! The serving thesis of the Kerger et al. critique ("Mind the Õ"): the
//! constants of the distributed APSP run are hidden by amortization —
//! compute once, answer point queries from cache. This bench quantifies
//! the amortization with a seeded 90/10 `dist`/`path` query mix over
//! three regimes:
//!
//! * **cold** — a `--row-cache N` engine whose cache is far smaller than
//!   the working set, so most queries pay a single-source relaxation;
//! * **warm** — the full distance matrix resident; queries are lookups;
//! * **post_delta** — the warm engine after a single-edge decrease that
//!   the engine repaired by relaxing every pair through the changed arc.
//!
//! Throughput (queries/sec) is measured over batches of 64; latency
//! percentiles (p50/p99, µs) over single-request batches. The JSON also
//! records the from-scratch baseline (sequential Floyd–Warshall, the
//! *cheapest* way to recompute — the distributed runs are orders of
//! magnitude slower) and the cost of the delta repair vs the full
//! recompute it replaces.
//!
//! Usage: `exp_query_throughput [--smoke] [--n N] [--seed S]
//! [--queries Q] [--row-cache C] [--out PATH]`
//!
//! Exit codes: 0 on success; 1 when an acceptance gate fails (full run:
//! warm per-query ≥ 100× faster than from-scratch Floyd–Warshall and
//! repair cheaper than recompute; smoke: warm faster than cold); 2 on
//! usage errors.

use qcc::cli::CliError;
use qcc_apsp::serve::{EdgeChange, QueryEngine, ServeRequest, UpdateMethod};
use qcc_graph::{floyd_warshall, random_reweighted_digraph, DiGraph, ExtWeight, PathOracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::time::Instant;

/// Per-regime measurements.
struct RegimeStats {
    name: &'static str,
    queries: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

/// A seeded 90/10 dist/path mix over random pairs.
fn query_mix(n: usize, count: usize, rng: &mut StdRng) -> Vec<Result<ServeRequest, String>> {
    (0..count)
        .map(|i| {
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            let id = Some(i as i64);
            Ok(if rng.gen_range(0..10) == 0 {
                ServeRequest::Path { id, u, v }
            } else {
                ServeRequest::Dist { id, u, v }
            })
        })
        .collect()
}

/// Replays `queries` against `engine`: throughput over 64-query batches,
/// latency percentiles over single-query batches.
fn measure(
    name: &'static str,
    engine: &mut QueryEngine,
    queries: &[Result<ServeRequest, String>],
) -> RegimeStats {
    let start = Instant::now();
    for chunk in queries.chunks(64) {
        let out = engine.answer_batch(chunk);
        assert!(
            out.responses.iter().all(|r| r.starts_with("{\"ok\":true")),
            "{name}: a query failed: {:?}",
            out.responses
                .iter()
                .find(|r| !r.starts_with("{\"ok\":true"))
        );
    }
    let elapsed = start.elapsed().as_secs_f64();
    let qps = queries.len() as f64 / elapsed.max(1e-12);

    let mut lat_us: Vec<f64> = Vec::with_capacity(queries.len());
    for q in queries {
        let t = Instant::now();
        let out = engine.answer_batch(std::slice::from_ref(q));
        let us = t.elapsed().as_secs_f64() * 1e6;
        assert!(out.responses[0].starts_with("{\"ok\":true"));
        lat_us.push(us);
    }
    lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    RegimeStats {
        name,
        queries: queries.len(),
        qps,
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
    }
}

/// Finds an arc whose one-step decrease cannot close a negative cycle:
/// `(w - 1) + dist(v, u) ≥ 0` (or `v` cannot reach `u` at all).
fn safe_decrease(g: &DiGraph, dist: &qcc_graph::WeightMatrix) -> Option<(usize, usize, i64)> {
    g.arcs().find(|&(u, v, w)| match dist[(v, u)] {
        ExtWeight::Finite(back) => (w - 1).checked_add(back).is_some_and(|c| c >= 0),
        _ => true,
    })
}

fn main() {
    let ((smoke, n, seed, queries, row_cache, out_path), _) = qcc_bench::read_flags(
        "exp_query_throughput",
        "--n --seed --queries --row-cache --out",
        "--smoke",
        |flags| {
            let smoke = flags.switch("--smoke");
            let mut n = flags.n(81)?;
            let mut queries = flags.num("--queries", 2000usize)?;
            let mut row_cache = flags.num("--row-cache", 4usize)?;
            if smoke {
                (n, queries, row_cache) = (16, 300, 2);
            }
            if row_cache == 0 {
                return Err(CliError("--row-cache must be at least 1".into()));
            }
            let out_path = flags.get("--out").unwrap_or("BENCH_query_throughput.json");
            let seed = flags.num("--seed", 7u64)?;
            Ok((smoke, n, seed, queries, row_cache, out_path.to_string()))
        },
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let g = random_reweighted_digraph(n, 0.5, 8, &mut rng);
    let adj = g.adjacency_matrix();

    // From-scratch baseline: the cheapest possible recompute-per-query.
    eprintln!("exp_query_throughput: from-scratch Floyd-Warshall at n = {n} ...");
    let mut fw_ms = f64::MAX;
    let mut fw = None;
    for _ in 0..5 {
        let t = Instant::now();
        let d = floyd_warshall(&adj).expect("no negative cycles in the workload");
        fw_ms = fw_ms.min(t.elapsed().as_secs_f64() * 1e3);
        fw = Some(d);
    }
    let fw = fw.expect("at least one rep");

    let t = Instant::now();
    let oracle = PathOracle::build(&adj);
    let oracle_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(oracle.distances(), &fw, "oracle distances disagree with FW");

    // Cold: a row cache far smaller than the working set.
    eprintln!("exp_query_throughput: cold regime (row cache {row_cache}) ...");
    let mut cold_engine = QueryEngine::from_tables(g.clone(), oracle.clone(), Some(row_cache));
    let mut mix_rng = StdRng::seed_from_u64(seed ^ 0x51EE7);
    let cold_mix = query_mix(n, queries, &mut mix_rng);
    let cold = measure("cold", &mut cold_engine, &cold_mix);

    // Warm: the full matrix resident.
    eprintln!("exp_query_throughput: warm regime (full matrix) ...");
    let mut warm_engine = QueryEngine::from_tables(g.clone(), oracle, None);
    let warm_mix = query_mix(n, queries, &mut mix_rng);
    let warm = measure("warm", &mut warm_engine, &warm_mix);

    // Post-delta: one single-edge decrease, repaired through the changed
    // arc, then the same mix again.
    let (du, dv, dw) = safe_decrease(&g, &fw).expect("workload has a safely decreasable arc");
    eprintln!(
        "exp_query_throughput: delta regime (decrease ({du}, {dv}) from {dw} to {}) ...",
        dw - 1
    );
    // Time the repair kernel (exactly what the engine's update runs) as a
    // min-of-5, same protocol as the FW baselines, then apply the update
    // through the engine once.
    let delta = [qcc_graph::EdgeDelta {
        u: du,
        v: dv,
        weight: ExtWeight::Finite(dw - 1),
    }];
    let mut mutated = g.clone();
    mutated.add_arc(du, dv, dw - 1);
    let mutated_adj = mutated.adjacency_matrix();
    let mut repair_ms = f64::MAX;
    for _ in 0..5 {
        let t = Instant::now();
        let repaired = qcc_graph::delta_repair(&fw, &delta);
        repair_ms = repair_ms.min(t.elapsed().as_secs_f64() * 1e3);
        repaired.expect("a safe decrease closes no negative cycle");
    }
    let method = warm_engine
        .update(&[EdgeChange {
            u: du,
            v: dv,
            weight: Some(dw - 1),
        }])
        .expect("safe decrease applies");
    assert_eq!(
        method,
        UpdateMethod::DeltaRepair,
        "single-edge decrease must take the repair path"
    );
    let delta_mix = query_mix(n, queries, &mut mix_rng);
    let post_delta = measure("post_delta", &mut warm_engine, &delta_mix);

    // What the repair replaced: a full recompute on the mutated graph
    // (min-of-5, same protocol).
    let mut recompute_ms = f64::MAX;
    let mut fresh = None;
    for _ in 0..5 {
        let t = Instant::now();
        let d = floyd_warshall(&mutated_adj).expect("mutated graph stays cycle-free");
        recompute_ms = recompute_ms.min(t.elapsed().as_secs_f64() * 1e3);
        fresh = Some(d);
    }
    let fresh = fresh.expect("at least one rep");
    for u in 0..n {
        for v in 0..n {
            assert_eq!(
                warm_engine.dist(u, v).expect("in range"),
                fresh[(u, v)],
                "repaired matrix diverges from fresh recompute at ({u}, {v})"
            );
        }
    }

    let warm_per_query_ms = 1e3 / warm.qps.max(1e-12);
    let warm_vs_scratch = fw_ms / warm_per_query_ms.max(1e-12);
    let regimes = [&cold, &warm, &post_delta];

    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"qcc-bench-query-throughput/v1\",");
    let _ = writeln!(
        s,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(s, "  \"n\": {n},");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"queries_per_regime\": {queries},");
    let _ = writeln!(s, "  \"row_cache\": {row_cache},");
    let _ = writeln!(s, "  \"from_scratch_apsp_ms\": {fw_ms:.3},");
    let _ = writeln!(s, "  \"oracle_build_ms\": {oracle_ms:.3},");
    let _ = writeln!(s, "  \"delta_repair_ms\": {repair_ms:.3},");
    let _ = writeln!(s, "  \"full_recompute_ms\": {recompute_ms:.3},");
    let _ = writeln!(s, "  \"warm_vs_scratch_speedup\": {warm_vs_scratch:.1},");
    s.push_str("  \"regimes\": [\n");
    for (i, r) in regimes.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"queries\": {}, \"qps\": {:.1}, \
             \"p50_us\": {:.2}, \"p99_us\": {:.2}}}{}",
            r.name,
            r.queries,
            r.qps,
            r.p50_us,
            r.p99_us,
            if i + 1 < regimes.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    std::fs::write(&out_path, &s).expect("write throughput JSON");
    println!("{s}");
    eprintln!("exp_query_throughput: wrote {out_path}");

    // Acceptance gates.
    let mut failed = false;
    if smoke {
        if warm.qps <= cold.qps {
            eprintln!(
                "exp_query_throughput: FAIL warm regime ({:.0} q/s) not faster than cold ({:.0} q/s)",
                warm.qps, cold.qps
            );
            failed = true;
        }
    } else {
        if warm_vs_scratch < 100.0 {
            eprintln!(
                "exp_query_throughput: FAIL warm per-query only {warm_vs_scratch:.1}x \
                 faster than from-scratch (need >= 100x)"
            );
            failed = true;
        }
        if repair_ms >= recompute_ms {
            eprintln!(
                "exp_query_throughput: FAIL delta repair ({repair_ms:.3} ms) not cheaper \
                 than full recompute ({recompute_ms:.3} ms)"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
