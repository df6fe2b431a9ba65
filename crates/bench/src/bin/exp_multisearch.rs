//! Experiment E3 — Theorem 3: multiple searches on typical inputs.
//!
//! Paper claims: (a) the truncated multi-search succeeds with probability
//! `≥ 1 − 2/m²`; (b) with `β > 8m/|X|` the sampled query tuples are
//! essentially never atypical (Lemma 5 bounds the atypical mass by
//! `|X|·exp(−2m/(9|X|))`); (c) an *undersized* β breaks the evaluator
//! visibly. We measure all three.

use qcc_bench::{banner, Table};
use qcc_quantum::{
    max_frequency, multi_grover_search, repetitions_for_target, AtypicalInputError, MultiOracle,
    TypicalityBounds,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Needles {
    domain: usize,
    needles: Vec<Option<usize>>,
    beta: f64,
    atypical_seen: u64,
}

impl MultiOracle for Needles {
    fn domain_size(&self) -> usize {
        self.domain
    }
    fn num_searches(&self) -> usize {
        self.needles.len()
    }
    fn truth(&self, search: usize, item: usize) -> bool {
        self.needles[search] == Some(item)
    }
    fn evaluate(&mut self, tuple: &[usize]) -> Result<Vec<bool>, AtypicalInputError> {
        let freq = max_frequency(tuple, self.domain);
        if freq as f64 > self.beta {
            self.atypical_seen += 1;
            return Err(AtypicalInputError {
                max_frequency: freq,
                beta: self.beta,
            });
        }
        Ok(tuple
            .iter()
            .enumerate()
            .map(|(s, &i)| self.needles[s] == Some(i))
            .collect())
    }
    fn evaluate_classical(&mut self, item: usize) -> Vec<bool> {
        self.needles.iter().map(|&t| t == Some(item)).collect()
    }
}

fn run(m: usize, domain: usize, beta: f64, trials: u32, seed: u64) -> (f64, u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut full = 0u32;
    let mut violations = 0u64;
    let mut iterations = 0u64;
    for _ in 0..trials {
        let needles: Vec<Option<usize>> = (0..m)
            .map(|_| {
                if rng.gen_bool(0.75) {
                    Some(rng.gen_range(0..domain))
                } else {
                    None
                }
            })
            .collect();
        let mut oracle = Needles {
            domain,
            needles: needles.clone(),
            beta,
            atypical_seen: 0,
        };
        let out = multi_grover_search(&mut oracle, repetitions_for_target(m), &mut rng);
        let ok = out.found.iter().zip(&needles).all(|(f, n)| match n {
            Some(t) => *f == Some(*t),
            None => f.is_none(),
        });
        if ok {
            full += 1;
        }
        violations += out.typicality_violations;
        iterations += out.iterations;
    }
    (
        f64::from(full) / f64::from(trials),
        violations,
        iterations / u64::from(trials),
    )
}

fn main() {
    qcc_bench::read_flags("exp_multisearch", "", "", |_| Ok(()));
    banner(
        "E3",
        "Theorem 3: parallel searches with a truncated (typical-input) evaluator",
    );
    let trials = 20;
    let mut table = Table::new(&[
        "m",
        "|X|",
        "beta / (m/|X|)",
        "success rate",
        "target 1-2/m^2",
        "atypical rejections",
        "iters/trial",
        "Lemma5 mass bound",
    ]);
    for &(m, domain) in &[
        (64usize, 8usize),
        (256, 8),
        (256, 16),
        (1024, 16),
        (4096, 32),
    ] {
        let beta = 9.0 * m as f64 / domain as f64;
        let bounds = TypicalityBounds::new(m, domain, beta);
        let (rate, violations, iters) = run(m, domain, beta, trials, 0xE3 + m as u64);
        table.row(&[
            &m,
            &domain,
            &"9.0",
            &format!("{rate:.3}"),
            &format!("{:.4}", bounds.success_lower_bound()),
            &violations,
            &iters,
            &format!("{:.1e}", bounds.projection_mass_bound()),
        ]);
    }
    table.print();

    banner(
        "E3b",
        "ablation: an undersized beta forces atypical rejections",
    );
    let mut table = Table::new(&["beta / (m/|X|)", "success rate", "atypical rejections"]);
    let (m, domain) = (512usize, 8usize);
    for &factor in &[9.0f64, 2.0, 1.2, 0.9] {
        let beta = factor * m as f64 / domain as f64;
        let (rate, violations, _) = run(m, domain, beta, trials, 0xE3B);
        table.row(&[&factor, &format!("{rate:.3}"), &violations]);
    }
    table.print();
    println!(
        "\n(beta at 9x the typical frequency: zero rejections; below ~1x the\n\
         evaluator rejects nearly every tuple and searches stop confirming)"
    );
}
