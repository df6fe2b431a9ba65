//! Experiment E2 — Theorem 2: `FindEdgesWithPromise` round scaling.
//!
//! Paper claim: the quantum `ComputePairs` solves the promise problem in
//! `O~(n^{1/4})` rounds; the classical Step-3 scan needs `O~(√n)` and the
//! Dolev–Lenzen–Peled listing `O~(n^{1/3})`.
//!
//! We plant `n/8` disjoint negative triangles (promise `Γ = 1`), set `S`
//! to all pairs, and measure total and Step-3 rounds across `n` on the
//! simulated network, reporting empirical log-log slopes.

use qcc_apsp::{compute_pairs, dolev_find_edges, PairSet, Params, SearchBackend};
use qcc_bench::{banner, loglog_slope, Table};
use qcc_congest::Clique;
use qcc_graph::planted_disjoint_triangles;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    qcc_bench::read_flags("exp_find_edges", "", "", |_| Ok(()));
    banner(
        "E2",
        "FindEdgesWithPromise: quantum O~(n^{1/4}) vs classical O~(sqrt n) vs listing O~(n^{1/3})",
    );
    let sizes = [16usize, 81, 256, 625];
    let mut table = Table::new(&[
        "n",
        "quantum rounds",
        "quantum step3",
        "classical rounds",
        "classical step3",
        "dolev rounds",
        "exact",
    ]);
    let mut q_step3 = Vec::new();
    let mut c_step3 = Vec::new();
    let mut d_total = Vec::new();
    let mut ns = Vec::new();

    for &n in &sizes {
        let mut rng = StdRng::seed_from_u64(0xE2 + n as u64);
        // constant average degree keeps the workload family comparable
        let filler_density = (8.0 / n as f64).min(0.5);
        let (g, _) = planted_disjoint_triangles(n, n / 8, filler_density, &mut rng);
        let s = PairSet::all_pairs(n);
        let expected = qcc_apsp::reference_find_edges(&g, &s);
        let mut params = Params::paper();
        params.search_repetitions = Some(16);

        let mut net_q = Clique::new(n).unwrap();
        let rq =
            compute_pairs(&g, &s, params, SearchBackend::Quantum, &mut net_q, &mut rng).unwrap();
        let q3 = net_q.metrics().rounds_with_prefix("step3/");

        let mut net_c = Clique::new(n).unwrap();
        let rc = compute_pairs(
            &g,
            &s,
            params,
            SearchBackend::Classical,
            &mut net_c,
            &mut rng,
        )
        .unwrap();
        let c3 = net_c.metrics().rounds_with_prefix("step3/");

        let rd = dolev_find_edges(&g, &s).unwrap();

        let exact = rq.found == expected && rc.found == expected && rd.found == expected;
        table.row(&[&n, &rq.rounds, &q3, &rc.rounds, &c3, &rd.rounds, &exact]);
        ns.push(n as f64);
        q_step3.push(q3.max(1) as f64);
        c_step3.push(c3.max(1) as f64);
        d_total.push(rd.rounds.max(1) as f64);
    }
    table.print();

    println!();
    if let Some(s) = loglog_slope(&ns, &q_step3) {
        println!("quantum step-3 slope:   {s:.2}  (paper: 0.25 + o(1))");
    }
    if let Some(s) = loglog_slope(&ns, &c_step3) {
        println!("classical step-3 slope: {s:.2}  (paper: 0.50 + o(1))");
    }
    if let Some(s) = loglog_slope(&ns, &d_total) {
        println!("dolev listing slope:    {s:.2}  (paper: 0.33 + o(1))");
    }
}
