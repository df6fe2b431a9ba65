//! Experiment E10 — Section 4.1: the quadratic search speedup.
//!
//! Paper claim: the distributed Grover framework finds a marked element
//! with `O~(√|X|)` evaluations versus the classical `|X|`. We sweep the
//! domain size, measure evaluation calls for both, and fit the exponents.

use qcc_bench::{banner, loglog_slope, Table};
use qcc_quantum::{classical_search, grover_search_amplified, GroverAmplitudes, SearchOracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Marked {
    marked: Vec<bool>,
}

impl SearchOracle for Marked {
    fn domain_size(&self) -> usize {
        self.marked.len()
    }
    fn truth(&self, item: usize) -> bool {
        self.marked[item]
    }
    fn evaluate_distributed(&mut self, item: usize) -> bool {
        self.marked[item]
    }
}

fn main() {
    qcc_bench::read_flags("exp_grover", "", "", |_| Ok(()));
    banner(
        "E10",
        "distributed Grover search: O~(sqrt |X|) vs classical |X| evaluations",
    );
    let sizes = [64usize, 256, 1024, 4096, 16384];
    let trials = 25;
    let mut table = Table::new(&[
        "|X|",
        "grover calls (mean)",
        "classical calls (mean)",
        "speedup",
        "theory k*",
        "success",
    ]);
    let mut ns = Vec::new();
    let mut grover_means = Vec::new();

    for &x in &sizes {
        let mut rng = StdRng::seed_from_u64(0xE10 + x as u64);
        let mut g_calls = 0u64;
        let mut c_calls = 0u64;
        let mut successes = 0u32;
        for _ in 0..trials {
            let target = rng.gen_range(0..x);
            let mut marked = vec![false; x];
            marked[target] = true;
            let mut oracle = Marked {
                marked: marked.clone(),
            };
            let out = grover_search_amplified(&mut oracle, 12, &mut rng);
            if out.found == Some(target) {
                successes += 1;
            }
            g_calls += out.distributed_calls;
            let mut oracle = Marked { marked };
            c_calls += classical_search(&mut oracle).distributed_calls;
        }
        let g_mean = g_calls as f64 / f64::from(trials as u32);
        let c_mean = c_calls as f64 / f64::from(trials as u32);
        let k_star = GroverAmplitudes::new(x, 1).optimal_iterations();
        table.row(&[
            &x,
            &format!("{g_mean:.0}"),
            &format!("{c_mean:.0}"),
            &format!("{:.1}x", c_mean / g_mean),
            &k_star,
            &format!("{successes}/{trials}"),
        ]);
        ns.push(x as f64);
        grover_means.push(g_mean);
    }
    table.print();
    if let Some(s) = loglog_slope(&ns, &grover_means) {
        println!("\ngrover-call slope: {s:.2}  (paper: 0.5)");
    }
}
