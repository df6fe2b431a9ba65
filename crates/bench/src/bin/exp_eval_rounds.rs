//! Experiment E8 — Figures 4–5: evaluation procedures run in polylog rounds.
//!
//! Paper claim: one joint evaluation costs `O(log n)` rounds for `α = 0`
//! (Figure 4) and `O(log² n)` rounds for `α > 0` with duplication
//! (Figure 5), because the promise bounds every link's load. We execute
//! single joint evaluations at growing `n` under promise-sized query loads
//! and record rounds and the busiest link.

use qcc_apsp::eval_procedure::{evaluate_joint, AlphaContext, EvalQuery};
use qcc_apsp::gather::gather_weights;
use qcc_apsp::lambda::KeptPair;
use qcc_apsp::{Instance, PairSet, Params};
use qcc_bench::{banner, Table};
use qcc_congest::Clique;
use qcc_graph::planted_disjoint_triangles;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    qcc_bench::read_flags("exp_eval_rounds", "", "", |_| Ok(()));
    banner(
        "E8",
        "Figures 4-5: one joint evaluation costs polylog rounds",
    );
    let mut table = Table::new(&[
        "n",
        "queries",
        "eval rounds",
        "max link bits",
        "bandwidth B",
        "rounds / log2(n)",
    ]);

    for &n in &[16usize, 81, 256, 625] {
        let mut rng = StdRng::seed_from_u64(0xE8 + n as u64);
        let (g, _) = planted_disjoint_triangles(n, n / 8, (8.0 / n as f64).min(0.5), &mut rng);
        let s = PairSet::all_pairs(n);
        let inst = Instance::new(&g, &s, Params::paper());
        let mut net = Clique::new(n).unwrap();
        let gathered = gather_weights(&inst, &mut net).unwrap();
        let labels: Vec<usize> = (0..inst.triples.labeling().label_count()).collect();
        let actx = AlphaContext::build(&inst, &mut net, 0, &labels).unwrap();

        // Promise-shaped load: every edge of S queried once, targets
        // spread uniformly (the distribution Grover queries actually have).
        let mut queries = Vec::new();
        for (u, v, w) in g.edges() {
            let bu = inst.parts.coarse.block_of(u);
            let bv = inst.parts.coarse.block_of(v);
            let x = rng.gen_range(0..inst.parts.fine.num_blocks());
            let target = rng.gen_range(0..inst.parts.fine.num_blocks());
            queries.push(EvalQuery {
                search_label: inst.searches.encode(bu.min(bv), bu.max(bv), x),
                pair: KeptPair {
                    u: u.min(v),
                    v: u.max(v),
                    weight: w,
                },
                target,
            });
        }
        net.begin_phase("e8/eval");
        let before = net.rounds();
        let answers = evaluate_joint(&inst, &mut net, &gathered, &actx, &queries).unwrap();
        let rounds = net.rounds() - before;
        assert_eq!(answers.len(), queries.len());
        let max_link = net
            .metrics()
            .phases()
            .iter()
            .filter(|p| p.label.starts_with("step3/alpha0"))
            .map(|p| p.max_link_bits)
            .max()
            .unwrap_or(0);
        table.row(&[
            &n,
            &queries.len(),
            &rounds,
            &max_link,
            &net.bandwidth_bits(),
            &format!("{:.2}", rounds as f64 / Params::log_n(n)),
        ]);
    }
    table.print();
    println!("\n(rounds/log n stays near-constant: the Figure-4 procedure is O(log n))");
}
