//! Experiment E4 — Proposition 1: removing the promise by edge sampling.
//!
//! Paper claim: Algorithm B solves unrestricted `FindEdges` with
//! `O(log n)` calls to the promise solver, succeeding with probability
//! `1 − O((ε + 1/n³) log n)`. We build instances whose `Γ` distribution is
//! deliberately skewed (book graphs with spines up to `Γ = n − 3`), run
//! the loop across many seeds, and record invocation counts and exactness.

use qcc_apsp::{
    find_edges, find_edges_instrumented, reference_find_edges, PairSet, Params, SearchBackend,
};
use qcc_bench::{banner, Table};
use qcc_congest::Clique;
use qcc_graph::book_graph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    qcc_bench::read_flags("exp_reduction_loop", "", "", |_| Ok(()));
    banner(
        "E4",
        "Proposition 1: FindEdges via O(log n) promise-solver calls",
    );
    let trials = 10u32;
    let mut table = Table::new(&[
        "n",
        "max Gamma",
        "params",
        "invocations (mean)",
        "exact runs",
        "rounds (mean)",
    ]);

    for &(n, gamma) in &[(16usize, 13usize), (32, 29), (64, 30)] {
        let g = book_graph(n, gamma);
        let s = PairSet::all_pairs(n);
        let expected = reference_find_edges(&g, &s);
        for (name, params) in [("paper", Params::paper()), ("scaled", Params::scaled())] {
            let mut exact = 0u32;
            let mut invocations = 0u64;
            let mut rounds = 0u64;
            for t in 0..trials {
                let mut rng = StdRng::seed_from_u64(0xE4 + n as u64 * 100 + u64::from(t));
                let mut net = Clique::new(n).unwrap();
                let report =
                    find_edges(&g, &s, params, SearchBackend::Quantum, &mut net, &mut rng).unwrap();
                if report.found == expected {
                    exact += 1;
                }
                invocations += u64::from(report.invocations);
                rounds += report.rounds;
            }
            table.row(&[
                &n,
                &gamma,
                &name,
                &format!("{:.1}", invocations as f64 / f64::from(trials)),
                &format!("{exact}/{trials}"),
                &format!("{:.0}", rounds as f64 / f64::from(trials)),
            ]);
        }
    }
    table.print();
    println!(
        "\n(paper constants: the while-loop is vacuous below n ≈ 60·log n, one call\n\
         suffices; scaled constants exercise the sampled iterations and stay exact)"
    );

    banner(
        "E4b",
        "inside one Algorithm B run: the loop schedule (n = 64, Gamma = 30, scaled)",
    );
    let g = book_graph(64, 30);
    let s = PairSet::all_pairs(64);
    let mut net = Clique::new(64).unwrap();
    let mut rng = StdRng::seed_from_u64(0xE4B);
    let (report, loop_stats) = find_edges_instrumented(
        &g,
        &s,
        Params::scaled(),
        SearchBackend::Quantum,
        &mut net,
        &mut rng,
    )
    .unwrap();
    let mut table = Table::new(&[
        "iteration",
        "p (edge sampling)",
        "sampled edges",
        "max Gamma in G'",
        "caught pairs",
        "|S| before",
    ]);
    for ls in &loop_stats {
        table.row(&[
            &ls.iteration,
            &format!("{:.3}", ls.sampling_probability),
            &ls.sampled_edges,
            &ls.max_gamma_sampled,
            &ls.caught,
            &ls.remaining_before,
        ]);
    }
    table.print();
    println!(
        "\n(sampling thins Γ below the promise in the early iterations; the final\n\
         p = 1 call cleans up; total found: {} pairs, exact: {})",
        report.found.len(),
        report.found == reference_find_edges(&g, &s)
    );
}
