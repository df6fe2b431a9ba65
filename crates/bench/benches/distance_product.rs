//! Criterion bench: distance products — VW-W binary search, semiring
//! distributed product, and the sequential reference (E11).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcc_apsp::{distributed_distance_product, semiring_distance_product, Params, SearchBackend};
use qcc_congest::Clique;
use qcc_graph::{distance_product, ExtWeight, WeightMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_matrix(n: usize, seed: u64) -> WeightMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    WeightMatrix::from_fn(n, |_, _| {
        if rng.gen_bool(0.85) {
            ExtWeight::from(rng.gen_range(-8..=8))
        } else {
            ExtWeight::PosInf
        }
    })
}

fn bench_products(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance_product");
    group.sample_size(10);
    for &n in &[4usize, 6] {
        let a = random_matrix(n, 31);
        let b = random_matrix(n, 32);
        group.bench_with_input(BenchmarkId::new("vww_classical", n), &n, |bch, _| {
            let mut rng = StdRng::seed_from_u64(33);
            bch.iter(|| {
                distributed_distance_product(
                    &a,
                    &b,
                    Params::paper(),
                    SearchBackend::Classical,
                    &mut rng,
                )
                .unwrap()
            })
        });
    }
    let threads = Params::paper().worker_threads();
    for &n in &[16usize, 64, 128] {
        let a = random_matrix(n, 34);
        let b = random_matrix(n, 35);
        group.bench_with_input(BenchmarkId::new("semiring", n), &n, |bch, &n| {
            bch.iter(|| {
                let mut net = Clique::new(n).unwrap();
                semiring_distance_product(&a, &b, &mut net, threads).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("sequential", n), &n, |bch, _| {
            bch.iter(|| distance_product(&a, &b))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_products);
criterion_main!(benches);
