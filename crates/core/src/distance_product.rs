//! Distributed distance product via negative triangles (Proposition 2).
//!
//! Vassilevska Williams & Williams: to compute `C = A ⋆ B`, binary-search
//! the threshold matrix `D` of the tripartite graph of
//! [`qcc_graph::build_tripartite`] — the pair `{i, j}` is in a negative
//! triangle iff `C[i, j] < D[i, j]`, so `O(log M)` calls to `FindEdges`
//! (each on the `3n`-vertex tripartite graph) pin down every entry of `C`
//! simultaneously.
//!
//! The tripartite graph has `3n` vertices while the physical network has
//! `n` nodes; as is standard, each physical node simulates three virtual
//! nodes, multiplying round counts by the constant
//! [`DistanceProductReport::simulation_factor`] `= ⌈3n/n⌉² = 9`. The
//! simulator executes on the virtual `Clique(3n)` and reports both counts.

use crate::find_edges::find_edges;
use crate::params::Params;
use crate::problem::PairSet;
use crate::step3::SearchBackend;
use crate::ApspError;
use qcc_congest::{Clique, NetConfig, TraceSink};
use qcc_graph::{build_tripartite, ExtWeight, SquareMatrix, WeightMatrix};
use rand::Rng;

/// The largest finite magnitude `M` a distance product accepts: its
/// binary search spans the `4M + 3` thresholds `−2M − 1 ..= 2M + 2`, and
/// that span must fit an `i64`.
pub const MAX_PRODUCT_MAGNITUDE: u64 = (i64::MAX as u64 - 3) / 4;

/// Result of a distributed distance product.
#[derive(Clone, Debug)]
pub struct DistanceProductReport {
    /// The computed product `A ⋆ B`.
    pub product: WeightMatrix,
    /// Rounds consumed on the virtual `3n`-node network.
    pub virtual_rounds: u64,
    /// Constant factor translating virtual rounds to rounds on the real
    /// `n`-node network (each node simulates 3 virtual nodes: factor 9).
    pub simulation_factor: u64,
    /// Number of `FindEdges` invocations (the `O(log M)` factor).
    pub find_edges_calls: u32,
}

impl DistanceProductReport {
    /// Rounds on the physical `n`-node network.
    pub fn physical_rounds(&self) -> u64 {
        self.virtual_rounds * self.simulation_factor
    }
}

/// Computes `A ⋆ B` with the negative-triangle binary search of
/// Proposition 2, running `FindEdges` with the chosen backend.
///
/// # Errors
///
/// * [`ApspError::DimensionMismatch`] if `A` and `B` differ in size.
/// * [`ApspError::WeightOverflow`] if an entry's magnitude exceeds
///   [`MAX_PRODUCT_MAGNITUDE`], before the search starts.
/// * [`ApspError::NegInfEntry`] if an entry of `A` or `B` is `−∞`, before
///   the search starts.
/// * Propagated errors from the `FindEdges` runs.
///
/// # Examples
///
/// ```
/// use qcc_apsp::{distributed_distance_product, Params, SearchBackend};
/// use qcc_graph::{distance_product, ExtWeight, WeightMatrix};
/// use rand::SeedableRng;
///
/// let a = WeightMatrix::from_fn(4, |i, j| ExtWeight::from((i as i64) - (j as i64)));
/// let b = WeightMatrix::from_fn(4, |i, j| ExtWeight::from((2 * j) as i64 - (i as i64)));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let report =
///     distributed_distance_product(&a, &b, Params::paper(), SearchBackend::Classical, &mut rng)?;
/// assert_eq!(report.product, distance_product(&a, &b));
/// # Ok::<(), qcc_apsp::ApspError>(())
/// ```
pub fn distributed_distance_product<R: Rng>(
    a: &WeightMatrix,
    b: &WeightMatrix,
    params: Params,
    backend: SearchBackend,
    rng: &mut R,
) -> Result<DistanceProductReport, ApspError> {
    distributed_distance_product_configured(a, b, params, backend, rng, None, &NetConfig::default())
}

/// [`distributed_distance_product`] with an optional NDJSON trace sink
/// and a network configuration.
///
/// The internal virtual `Clique(3n)` attaches to `trace`, so every
/// `FindEdges` span and communication call lands in the caller's trace
/// (nested under whatever span the caller has open); round charges are
/// byte-identical with and without a sink. It is armed with `netcfg`'s
/// fault plan and reliable-delivery envelope before any message moves.
///
/// # Errors
///
/// Same as [`distributed_distance_product`]; additionally, injected faults
/// that break through the envelope surface as [`ApspError::Faulted`]
/// wrapping the underlying [`qcc_congest::CongestError`], carrying the
/// physical rounds the failed run already charged.
#[allow(clippy::too_many_arguments)]
pub fn distributed_distance_product_configured<R: Rng>(
    a: &WeightMatrix,
    b: &WeightMatrix,
    params: Params,
    backend: SearchBackend,
    rng: &mut R,
    trace: Option<&TraceSink>,
    netcfg: &NetConfig,
) -> Result<DistanceProductReport, ApspError> {
    if a.n() != b.n() {
        return Err(ApspError::DimensionMismatch {
            expected: a.n(),
            actual: b.n(),
        });
    }
    let n = a.n();
    if n == 0 {
        return Ok(DistanceProductReport {
            product: WeightMatrix::filled(0, ExtWeight::PosInf),
            virtual_rounds: 0,
            simulation_factor: 9,
            find_edges_calls: 0,
        });
    }
    let magnitude = a.max_finite_magnitude_with(b);
    if magnitude > MAX_PRODUCT_MAGNITUDE {
        return Err(ApspError::WeightOverflow { magnitude });
    }
    for (operand, m) in [("A", a), ("B", b)] {
        if let Some((row, col, _)) = m.entries().find(|&(_, _, &w)| w == ExtWeight::NegInf) {
            return Err(ApspError::NegInfEntry { operand, row, col });
        }
    }
    let m = magnitude as i64;

    // Per-entry binary search state over candidate thresholds t:
    // invariant: C[i,j] < lo is false, C[i,j] < hi is true — where
    // hi = 2M + 2 is the untested "infinity" sentinel (finite entries are
    // ≤ 2M, so failing C < 2M + 1 certifies C = +∞).
    let mut lo = SquareMatrix::filled(n, -2 * m - 1);
    let mut hi = SquareMatrix::filled(n, 2 * m + 2);

    let mut net = Clique::new(3 * n)?;
    if let Some(sink) = trace {
        net.set_trace_sink(sink.clone());
    }
    netcfg.apply(&mut net);
    let layout = qcc_graph::TripartiteLayout::new(n);
    let mut s = PairSet::new();
    for i in 0..n {
        for j in 0..n {
            s.insert(layout.i_vertex(i), layout.j_vertex(j));
        }
    }

    let mut calls = 0;
    loop {
        let open = |lo: &SquareMatrix<i64>, hi: &SquareMatrix<i64>, i: usize, j: usize| {
            hi[(i, j)] - lo[(i, j)] > 1
        };
        if !(0..n).any(|i| (0..n).any(|j| open(&lo, &hi, i, j))) {
            break;
        }
        // Converged entries get D = lo (a certified-false threshold), so
        // they produce no triangles and stay inert.
        let d = SquareMatrix::from_fn(n, |i, j| {
            if open(&lo, &hi, i, j) {
                midpoint(lo[(i, j)], hi[(i, j)])
            } else {
                lo[(i, j)]
            }
        });
        let (graph, layout) = build_tripartite(a, b, &d);
        net.push_span(&format!("distance-product/call{calls}"));
        let report = match find_edges(&graph, &s, params, backend, &mut net, rng) {
            Ok(report) => report,
            Err(e) => {
                // Leave the trace well formed and report the physical
                // rounds this aborted product already charged.
                net.close_all_spans();
                return Err(ApspError::faulted(9 * net.rounds(), e));
            }
        };
        net.pop_span();
        calls += 1;
        for i in 0..n {
            for j in 0..n {
                if !open(&lo, &hi, i, j) {
                    continue;
                }
                let found = report
                    .found
                    .contains(layout.i_vertex(i), layout.j_vertex(j));
                if found {
                    hi[(i, j)] = d[(i, j)];
                } else {
                    lo[(i, j)] = d[(i, j)];
                }
            }
        }
    }

    let product = WeightMatrix::from_fn(n, |i, j| {
        if hi[(i, j)] == 2 * m + 2 {
            ExtWeight::PosInf
        } else {
            ExtWeight::from(hi[(i, j)] - 1)
        }
    });

    // Leave the trace well formed: this Clique is dropped on return.
    net.close_all_spans();

    Ok(DistanceProductReport {
        product,
        virtual_rounds: net.rounds(),
        simulation_factor: 9,
        find_edges_calls: calls,
    })
}

fn midpoint(lo: i64, hi: i64) -> i64 {
    lo + (hi - lo) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_graph::{distance_product, ExtWeight};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn w(x: i64) -> ExtWeight {
        ExtWeight::from(x)
    }

    fn random_matrix(n: usize, mag: i64, density: f64, rng: &mut StdRng) -> WeightMatrix {
        use rand::Rng;
        WeightMatrix::from_fn(n, |_, _| {
            if rng.gen_bool(density) {
                w(rng.gen_range(-mag..=mag))
            } else {
                ExtWeight::PosInf
            }
        })
    }

    #[test]
    fn product_matches_reference_classical() {
        let mut rng = StdRng::seed_from_u64(101);
        for trial in 0..2 {
            let a = random_matrix(5, 6, 0.8, &mut rng);
            let b = random_matrix(5, 6, 0.8, &mut rng);
            let report = distributed_distance_product(
                &a,
                &b,
                Params::paper(),
                SearchBackend::Classical,
                &mut rng,
            )
            .unwrap();
            assert_eq!(report.product, distance_product(&a, &b), "trial {trial}");
            assert!(report.virtual_rounds > 0);
            assert_eq!(report.physical_rounds(), 9 * report.virtual_rounds);
        }
    }

    #[test]
    fn product_matches_reference_quantum() {
        let mut rng = StdRng::seed_from_u64(102);
        let a = random_matrix(4, 4, 0.9, &mut rng);
        let b = random_matrix(4, 4, 0.9, &mut rng);
        let report =
            distributed_distance_product(&a, &b, Params::paper(), SearchBackend::Quantum, &mut rng)
                .unwrap();
        assert_eq!(report.product, distance_product(&a, &b));
    }

    #[test]
    fn infinite_entries_are_recovered() {
        // row 1 of A is all +inf: row 1 of the product must be +inf
        let mut rng = StdRng::seed_from_u64(103);
        let mut a = random_matrix(4, 3, 1.0, &mut rng);
        for j in 0..4 {
            a[(1, j)] = ExtWeight::PosInf;
        }
        let b = random_matrix(4, 3, 1.0, &mut rng);
        let report = distributed_distance_product(
            &a,
            &b,
            Params::paper(),
            SearchBackend::Classical,
            &mut rng,
        )
        .unwrap();
        for j in 0..4 {
            assert_eq!(report.product[(1, j)], ExtWeight::PosInf);
        }
        assert_eq!(report.product, distance_product(&a, &b));
    }

    #[test]
    fn call_count_is_logarithmic_in_magnitude() {
        let mut rng = StdRng::seed_from_u64(104);
        let a4 = random_matrix(3, 4, 1.0, &mut rng);
        let b4 = random_matrix(3, 4, 1.0, &mut rng);
        let r4 = distributed_distance_product(
            &a4,
            &b4,
            Params::paper(),
            SearchBackend::Classical,
            &mut rng,
        )
        .unwrap();
        let a64 = random_matrix(3, 64, 1.0, &mut rng);
        let b64 = random_matrix(3, 64, 1.0, &mut rng);
        let r64 = distributed_distance_product(
            &a64,
            &b64,
            Params::paper(),
            SearchBackend::Classical,
            &mut rng,
        )
        .unwrap();
        // range 4M+3: M = 4 -> 19 thresholds (5 calls), M = 64 -> 259 (9 calls)
        assert!(r4.find_edges_calls < r64.find_edges_calls);
        assert!(r64.find_edges_calls <= 10);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let a = WeightMatrix::filled(3, ExtWeight::PosInf);
        let b = WeightMatrix::filled(4, ExtWeight::PosInf);
        let mut rng = StdRng::seed_from_u64(105);
        let err = distributed_distance_product(
            &a,
            &b,
            Params::paper(),
            SearchBackend::Classical,
            &mut rng,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ApspError::DimensionMismatch {
                expected: 3,
                actual: 4
            }
        );
    }

    #[test]
    fn negative_entries_round_trip() {
        let a = WeightMatrix::from_fn(3, |i, j| w(-(3 * i as i64) - j as i64));
        let b = WeightMatrix::from_fn(3, |i, j| w(-(i as i64) - 2 * j as i64));
        let mut rng = StdRng::seed_from_u64(106);
        let report = distributed_distance_product(
            &a,
            &b,
            Params::paper(),
            SearchBackend::Classical,
            &mut rng,
        )
        .unwrap();
        assert_eq!(report.product, distance_product(&a, &b));
    }
}
