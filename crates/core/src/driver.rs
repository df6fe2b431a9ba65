//! The self-verifying Las-Vegas APSP driver.
//!
//! On a fault-injected network the pipeline can fail in two visible ways
//! (a typed error after the reliable envelope exhausts its budget) and one
//! silent way (lost messages skew the output matrix when the envelope is
//! off). The driver turns both into a Las-Vegas guarantee: run the chosen
//! algorithm, *verify* the output with a distributed certificate, and
//! retry with fresh fault randomness until a verified matrix emerges or
//! the attempt budget runs out — then optionally degrade to the classical
//! semiring baseline as a last resort. The loop itself is shared with the
//! distance-parameter search and gossip APSP; this module supplies the
//! APSP attempt, its certificate and the semiring fallback.
//!
//! ## The certificate
//!
//! A candidate matrix `D` is accepted iff
//!
//! 1. `D[i, i] = 0` for every `i` (checked locally),
//! 2. `D ≤ A₀` pointwise, where `A₀` is the adjacency matrix (locally),
//! 3. `D ⊗ D = D` under the min-plus product (one distributed
//!    [`semiring_distance_product`], charged to the network).
//!
//! Conditions 2–3 imply `D ≤ dist` by induction on path length, so the
//! certificate rejects every *overestimate*. Underestimates are outside
//! the threat model: injected faults only ever *discard* messages
//! (corruption is detected-and-dropped, never delivered mangled), and a
//! lost relaxation can only leave `D` too large — so for the failure
//! modes that can actually occur the certificate is complete.
//!
//! The verifier always runs over the reliable envelope, even when the
//! algorithm under test does not: a certificate computed on a lossy
//! channel would certify nothing.

use crate::apsp::{apsp_configured, ApspAlgorithm, ApspReport};
use crate::baselines::{semiring_apsp, semiring_distance_product};
use crate::las_vegas::{las_vegas, FallbackPolicy, LasVegasReport, Try};
use crate::params::Params;
use crate::run::{in_span, on_clique};
use crate::ApspError;
use qcc_congest::{NetConfig, ReliableConfig, TraceSink};
use qcc_graph::{DiGraph, WeightMatrix};
use rand::Rng;

/// Salt decoupling the verifier's fault randomness from the run's.
const VERIFY_SALT: u64 = 0x5eed_0000;
/// Salt for the fallback run's fault randomness.
const FALLBACK_SALT: u64 = 0xfa11_0000;

/// Configuration of the Las-Vegas driver.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// The algorithm each attempt runs.
    pub algorithm: ApspAlgorithm,
    /// Paper constants for the pipeline algorithms.
    pub params: Params,
    /// Extra attempts after the first (total attempts = `max_retries + 1`,
    /// not counting the fallback).
    pub max_retries: u32,
    /// Verify every output with the distributed certificate. When `false`
    /// the driver still retries typed errors but accepts the first matrix
    /// that arrives.
    pub verify: bool,
    /// What to do once the attempt budget is spent.
    pub fallback: FallbackPolicy,
    /// Fault plan and envelope for the networks the attempts build. Each
    /// attempt reseeds the plan so retries see fresh fault randomness.
    pub net: NetConfig,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            algorithm: ApspAlgorithm::QuantumTriangle,
            params: Params::paper(),
            max_retries: 3,
            verify: true,
            fallback: FallbackPolicy::Semiring,
            net: NetConfig::default(),
        }
    }
}

/// A verified APSP result with its full attempt history: `report` is the
/// accepted run's report (distances, rounds, algorithm).
pub type DriverReport = LasVegasReport<ApspReport>;

/// Runs the Las-Vegas loop: attempt → verify → retry → fallback.
///
/// # Errors
///
/// * Non-retryable errors ([`ApspError::NegativeCycle`], dimension and
///   addressing bugs) propagate immediately — retrying cannot help.
/// * [`ApspError::VerificationFailed`] when no attempt (fallback
///   included) produced a matrix that passes the certificate.
/// * The last typed error when the budget runs out under
///   [`FallbackPolicy::Fail`].
///
/// # Examples
///
/// ```
/// use qcc_apsp::{apsp_driver, ApspAlgorithm, DriverConfig};
/// use qcc_graph::{floyd_warshall, DiGraph};
/// use rand::SeedableRng;
///
/// let mut g = DiGraph::new(6);
/// g.add_arc(0, 1, 2);
/// g.add_arc(1, 2, -1);
/// let cfg = DriverConfig {
///     algorithm: ApspAlgorithm::NaiveBroadcast,
///     ..DriverConfig::default()
/// };
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let out = apsp_driver(&g, &cfg, &mut rng, None)?;
/// assert!(out.verified);
/// assert_eq!(out.report.distances, floyd_warshall(&g.adjacency_matrix())?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn apsp_driver<R: Rng>(
    g: &DiGraph,
    cfg: &DriverConfig,
    rng: &mut R,
    trace: Option<&TraceSink>,
) -> Result<DriverReport, ApspError> {
    in_span(trace, "driver", 1, || {
        las_vegas(
            cfg.max_retries,
            cfg.verify,
            cfg.fallback,
            |t| {
                let run = in_span(trace, &t.run_label(""), 1, || match t {
                    Try::Attempt(i) => {
                        let netcfg = cfg.net.reseeded(u64::from(i));
                        apsp_configured(g, cfg.params, cfg.algorithm, rng, trace, &netcfg)
                    }
                    // The last resort: the classical semiring baseline under a
                    // forced reliable envelope, verified like any other attempt.
                    Try::Fallback(_) => {
                        let netcfg = hardened(&cfg.net, FALLBACK_SALT);
                        semiring_apsp(g, cfg.params.worker_threads(), trace, &netcfg)
                    }
                });
                let rounds = run
                    .as_ref()
                    .map_or_else(ApspError::rounds_charged, |report| report.rounds);
                (run, rounds)
            },
            |t, report| {
                let netcfg = hardened(&cfg.net, VERIFY_SALT + u64::from(t.index()));
                certify(g, &report.distances, &netcfg, trace, &t.verify_label("")).map(Some)
            },
        )
    })
}

/// The verifier's network config: same fault plan (reseeded by `salt`),
/// reliable envelope forced on with a generous retry budget — the
/// verifier and the fallback are the last line of defense, so they never
/// run unprotected and get more retransmit waves than a regular attempt.
pub(crate) fn hardened(net: &NetConfig, salt: u64) -> NetConfig {
    let mut cfg = net.reseeded(salt);
    if cfg.faults.is_some() {
        let base = cfg.reliable.unwrap_or_default();
        cfg.reliable = Some(ReliableConfig {
            max_retries: base.max_retries.max(32),
            ..base
        });
    }
    cfg
}

/// Checks the three-part certificate. Returns `(verdict, rounds charged)`;
/// the distributed product's rounds are charged even on rejection.
///
/// # Errors
///
/// [`ApspError::Faulted`] when the verification product itself dies on the
/// (fault-injected) network.
fn certify(
    g: &DiGraph,
    d: &WeightMatrix,
    netcfg: &NetConfig,
    trace: Option<&TraceSink>,
    label: &str,
) -> Result<(bool, u64), ApspError> {
    // (1) zero diagonal + (2) D ≤ A₀ pointwise — the local conditions,
    // shared with the serve-path delta repair.
    if !qcc_graph::certificate_local_ok(&g.adjacency_matrix(), d) {
        return Ok((false, 0));
    }
    // (3) D ⊗ D = D, distributed.
    let (dd, rounds) = on_clique(g.n(), netcfg, trace, Some(label), |net| {
        semiring_distance_product(d, d, net, qcc_perf::resolve_threads(None))
    })?;
    Ok((&dd == d, rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_congest::FaultPlan;
    use qcc_graph::{floyd_warshall, random_reweighted_digraph, ExtWeight};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive_cfg(net: NetConfig) -> DriverConfig {
        DriverConfig {
            algorithm: ApspAlgorithm::NaiveBroadcast,
            net,
            ..DriverConfig::default()
        }
    }

    #[test]
    fn clean_run_verifies_in_one_attempt() {
        let mut rng = StdRng::seed_from_u64(201);
        let g = random_reweighted_digraph(10, 0.5, 6, &mut rng);
        let out = apsp_driver(&g, &naive_cfg(NetConfig::default()), &mut rng, None).unwrap();
        assert_eq!(out.attempts.len(), 1);
        assert!(out.verified && !out.used_fallback);
        assert_eq!(out.attempts[0].verified, Some(true));
        assert_eq!(
            out.report.distances,
            floyd_warshall(&g.adjacency_matrix()).unwrap()
        );
        // total = run + verification product
        assert!(out.total_rounds > out.report.rounds);
    }

    #[test]
    fn enveloped_faults_still_verify_exactly() {
        let mut rng = StdRng::seed_from_u64(202);
        let g = random_reweighted_digraph(10, 0.5, 6, &mut rng);
        let plan = FaultPlan::parse("drop=0.2,corrupt=0.05,dup=0.1,seed=11").unwrap();
        let out = apsp_driver(&g, &naive_cfg(NetConfig::faulty(plan)), &mut rng, None).unwrap();
        assert!(out.verified);
        assert_eq!(
            out.report.distances,
            floyd_warshall(&g.adjacency_matrix()).unwrap()
        );
    }

    #[test]
    fn unprotected_faults_degrade_to_the_fallback() {
        let mut rng = StdRng::seed_from_u64(203);
        let g = random_reweighted_digraph(10, 0.6, 6, &mut rng);
        // Heavy drops, no envelope: every pipeline attempt loses rows and
        // its (over-estimated) matrix flunks the certificate.
        let net = NetConfig {
            faults: Some(FaultPlan::parse("drop=0.35,seed=12").unwrap()),
            reliable: None,
        };
        let mut cfg = naive_cfg(net);
        cfg.max_retries = 1;
        let out = apsp_driver(&g, &cfg, &mut rng, None).unwrap();
        assert!(out.used_fallback && out.verified);
        assert_eq!(out.attempts.len(), 3); // 2 failed attempts + fallback
        assert!(out.attempts[..2]
            .iter()
            .all(|a| a.verified == Some(false) || a.error.is_some()));
        assert!(out.attempts[2].fallback);
        assert_eq!(out.report.algorithm, ApspAlgorithm::SemiringSquaring);
        assert_eq!(
            out.report.distances,
            floyd_warshall(&g.adjacency_matrix()).unwrap()
        );
    }

    #[test]
    fn fallback_policy_fail_surfaces_the_last_error() {
        let mut rng = StdRng::seed_from_u64(204);
        let g = random_reweighted_digraph(8, 0.6, 6, &mut rng);
        let net = NetConfig {
            faults: Some(FaultPlan::parse("drop=0.5,seed=13").unwrap()),
            reliable: None,
        };
        let mut cfg = naive_cfg(net);
        cfg.max_retries = 0;
        cfg.fallback = FallbackPolicy::Fail;
        let err = apsp_driver(&g, &cfg, &mut rng, None).unwrap_err();
        // Either a typed error from the run or verification exhaustion —
        // both are honest; what must NOT happen is a silent wrong answer.
        assert!(
            err.is_retryable() || matches!(err, ApspError::VerificationFailed { .. }),
            "unexpected terminal error: {err}"
        );
    }

    #[test]
    fn negative_cycles_are_not_retried() {
        let mut g = DiGraph::new(6);
        g.add_arc(0, 1, -4);
        g.add_arc(1, 0, 2);
        let mut rng = StdRng::seed_from_u64(205);
        let err = apsp_driver(&g, &naive_cfg(NetConfig::default()), &mut rng, None).unwrap_err();
        assert_eq!(err, ApspError::NegativeCycle);
    }

    #[test]
    fn certificate_rejects_tampered_matrices() {
        let mut rng = StdRng::seed_from_u64(206);
        let g = random_reweighted_digraph(9, 0.5, 6, &mut rng);
        let exact = floyd_warshall(&g.adjacency_matrix()).unwrap();
        let clean = NetConfig::default();
        assert!(certify(&g, &exact, &clean, None, "v").unwrap().0);

        // Overestimate one reachable off-diagonal entry: condition 2 or 3
        // must catch it.
        let mut skewed = exact.clone();
        let (mut u, mut v) = (0, 0);
        'outer: for i in 0..g.n() {
            for j in 0..g.n() {
                if i != j && skewed[(i, j)] != ExtWeight::PosInf {
                    (u, v) = (i, j);
                    break 'outer;
                }
            }
        }
        skewed[(u, v)] = skewed[(u, v)] + ExtWeight::from(1);
        assert!(!certify(&g, &skewed, &clean, None, "v").unwrap().0);

        // Nonzero diagonal: condition 1.
        let mut bad_diag = exact.clone();
        bad_diag[(0, 0)] = ExtWeight::from(1);
        let (ok, rounds) = certify(&g, &bad_diag, &clean, None, "v").unwrap();
        assert!(!ok);
        assert_eq!(rounds, 0, "local rejection must be free");
    }

    #[test]
    fn quantum_pipeline_drives_end_to_end() {
        let mut rng = StdRng::seed_from_u64(207);
        let g = random_reweighted_digraph(8, 0.5, 4, &mut rng);
        let cfg = DriverConfig {
            algorithm: ApspAlgorithm::QuantumTriangle,
            ..DriverConfig::default()
        };
        let out = apsp_driver(&g, &cfg, &mut rng, None).unwrap();
        assert!(out.verified && !out.used_fallback);
        assert_eq!(
            out.report.distances,
            floyd_warshall(&g.adjacency_matrix()).unwrap()
        );
    }
}
