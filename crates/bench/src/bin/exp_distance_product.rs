//! Experiment E11 — Propositions 2–3: distance products by binary search.
//!
//! Paper claims: the distance product reduces to `O(log M)` `FindEdges`
//! calls (Proposition 2), and APSP to `O(log n)` distance products
//! (Proposition 3). We sweep the entry magnitude `M` and verify the
//! logarithmic call count, plus the product-count schedule of the
//! squaring loop.

use qcc_apsp::{apsp, distributed_distance_product, ApspAlgorithm, Params, SearchBackend};
use qcc_bench::{banner, Table};
use qcc_graph::{
    distance_product, floyd_warshall, random_reweighted_digraph, ExtWeight, WeightMatrix,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(n: usize, mag: i64, rng: &mut StdRng) -> WeightMatrix {
    WeightMatrix::from_fn(n, |_, _| {
        if rng.gen_bool(0.85) {
            ExtWeight::from(rng.gen_range(-mag..=mag))
        } else {
            ExtWeight::PosInf
        }
    })
}

fn main() {
    qcc_bench::read_flags("exp_distance_product", "", "", |_| Ok(()));
    banner(
        "E11",
        "Proposition 2: O(log M) FindEdges calls per distance product",
    );
    let n = 5;
    let mut table = Table::new(&[
        "M",
        "FindEdges calls",
        "ceil(log2(4M+3))",
        "virtual rounds",
        "exact",
    ]);
    for &mag in &[2i64, 8, 64, 512, 4096] {
        let mut rng = StdRng::seed_from_u64(0xE11 + mag as u64);
        let a = random_matrix(n, mag, &mut rng);
        let b = random_matrix(n, mag, &mut rng);
        let report = distributed_distance_product(
            &a,
            &b,
            Params::paper(),
            SearchBackend::Classical,
            &mut rng,
        )
        .unwrap();
        let predicted = ((4 * mag + 3) as f64).log2().ceil() as u32;
        table.row(&[
            &mag,
            &report.find_edges_calls,
            &predicted,
            &report.virtual_rounds,
            &(report.product == distance_product(&a, &b)),
        ]);
    }
    table.print();

    banner("E11b", "Proposition 3: ceil(log2(n-1)) products per APSP");
    let mut table = Table::new(&["n", "products", "ceil(log2(n-1))", "exact"]);
    for &n in &[4usize, 8, 16] {
        let mut rng = StdRng::seed_from_u64(0xE11B + n as u64);
        let g = random_reweighted_digraph(n, 0.5, 6, &mut rng);
        let oracle = floyd_warshall(&g.adjacency_matrix()).unwrap();
        let report = apsp(
            &g,
            Params::paper(),
            ApspAlgorithm::ClassicalTriangle,
            &mut rng,
        )
        .unwrap();
        let predicted = ((n - 1) as f64).log2().ceil() as u32;
        table.row(&[
            &n,
            &report.products,
            &predicted,
            &(report.distances == oracle),
        ]);
    }
    table.print();
}
