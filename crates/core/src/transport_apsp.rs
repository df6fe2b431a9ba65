//! APSP over a general topology via the coded-gossip transport.
//!
//! On the clique, APSP runs the full Izumi–Le Gall pipeline. On a
//! general topology the CONGEST-CLIQUE primitives (Lenzen routing,
//! all-to-all distance products) do not exist, so the natural baseline
//! is *replication*: every node RLNC-broadcasts its adjacency row over
//! the mesh, after which each node holds the whole graph and solves APSP
//! locally with Floyd–Warshall. That is exactly what the quantum CONGEST
//! diameter/eccentricity literature (Le Gall–Magniez, Wang–Wu–Yao) takes
//! as the classical information-dissemination step, and it is the
//! workload the transport matrix uses to compare coded redundancy
//! against the clique's ack/retransmit envelope at matched fault rates.
//!
//! The run goes through the same Las-Vegas loop as [`crate::apsp_driver`],
//! without a fallback: attempts reseed the fault plan, and every surviving
//! matrix passes the same three-part certificate (zero diagonal, `D ≤ A₀`,
//! `D ⊗ D = D`) before it is accepted. The certificate is checked
//! *locally* here — after a successful gossip every node holds the entire
//! graph, so the check needs no further communication — but it still
//! rejects every overestimate, keeping "never a silently wrong matrix"
//! independent of the transport's own correctness argument.

use crate::las_vegas::{las_vegas, AttemptRecord, FallbackPolicy};
use crate::ApspError;
use qcc_congest::{GossipStats, GossipTransport, NetConfig, TopologySpec, TraceSink};
use qcc_graph::{floyd_warshall, min_plus_fixpoint_certificate, DiGraph, ExtWeight, WeightMatrix};

/// Wire sentinel for "no arc" in a serialized adjacency row.
const ABSENT: i64 = i64::MAX;

/// Which transport runs an APSP request (CLI `--transport`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// The Lenzen-routed complete graph (the paper's model).
    #[default]
    Clique,
    /// RLNC-coded gossip over a general topology.
    Gossip,
}

impl TransportKind {
    /// Parses `clique` or `gossip`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown transport.
    pub fn parse(text: &str) -> Result<TransportKind, String> {
        match text {
            "clique" => Ok(TransportKind::Clique),
            "gossip" => Ok(TransportKind::Gossip),
            other => Err(format!(
                "unknown transport {other:?} (expected clique|gossip)"
            )),
        }
    }

    /// The canonical spelling accepted back by [`TransportKind::parse`].
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            TransportKind::Clique => "clique",
            TransportKind::Gossip => "gossip",
        }
    }
}

/// Configuration for [`gossip_apsp`].
#[derive(Clone, Debug)]
pub struct GossipApspConfig {
    /// The topology to gossip over.
    pub topology: TopologySpec,
    /// Chunks per RLNC block; `0` picks the transport default, `1` is
    /// uncoded flooding.
    pub chunks: usize,
    /// Extra attempts after the first (total = `max_retries + 1`).
    pub max_retries: u32,
    /// Check the local certificate on every surviving matrix. Unlike the
    /// clique driver there is no cheaper unverified mode worth having —
    /// the check is local and free of rounds — but the switch mirrors
    /// [`crate::DriverConfig::verify`] for the benches.
    pub verify: bool,
    /// Fault plan for the attempts (reseeded per attempt). The
    /// `reliable` half is deliberately ignored: coded redundancy *is*
    /// this transport's loss-recovery mechanism, and pairing it with the
    /// ack/retransmit envelope would measure neither cleanly.
    pub net: NetConfig,
    /// Seed for topology generation and coding coefficients.
    pub seed: u64,
}

impl Default for GossipApspConfig {
    fn default() -> Self {
        GossipApspConfig {
            topology: TopologySpec::Mesh { degree: 4 },
            chunks: 0,
            max_retries: 3,
            verify: true,
            net: NetConfig::default(),
            seed: 7,
        }
    }
}

/// A verified gossip-APSP result.
#[derive(Clone, Debug)]
pub struct GossipApspReport {
    /// The exact distance matrix.
    pub distances: WeightMatrix,
    /// Rounds charged by the accepted attempt.
    pub rounds: u64,
    /// Rounds across all attempts — the honest Las-Vegas price.
    pub total_rounds: u64,
    /// Every attempt in order, the accepted one last.
    pub attempts: Vec<AttemptRecord>,
    /// Coded-gossip statistics of the accepted attempt.
    pub stats: GossipStats,
    /// `true` iff the accepted matrix passed the certificate.
    pub verified: bool,
    /// Label of the topology instance gossiped over.
    pub topology: String,
}

/// Serializes adjacency row `i` of `g`: `n` little-endian `i64`s, with
/// [`ABSENT`] for missing arcs.
fn serialize_row(g: &DiGraph, i: usize) -> Vec<u8> {
    let n = g.n();
    let mut row = Vec::with_capacity(8 * n);
    for j in 0..n {
        // Diagonal entries are 0 in the adjacency matrix (a node reaches
        // itself for free) even though the arc store holds no self-loops.
        let w = if i == j {
            0
        } else {
            g.weight(i, j).finite().unwrap_or(ABSENT)
        };
        row.extend_from_slice(&w.to_le_bytes());
    }
    row
}

/// Parses `n` serialized rows back into an adjacency matrix. `None` when
/// any row has the wrong length (a decode bug, not a fault — faults are
/// typed errors long before this point).
fn parse_rows(n: usize, rows: &[Vec<u8>]) -> Option<WeightMatrix> {
    if rows.len() != n || rows.iter().any(|r| r.len() != 8 * n) {
        return None;
    }
    Some(WeightMatrix::from_fn(n, |i, j| {
        let bytes: [u8; 8] = rows[i][8 * j..8 * (j + 1)].try_into().expect("8 bytes");
        match i64::from_le_bytes(bytes) {
            ABSENT => ExtWeight::PosInf,
            w => ExtWeight::from(w),
        }
    }))
}

/// APSP by RLNC gossip: replicate the graph over the topology, solve
/// locally, certify, retry with fresh fault randomness on typed errors.
///
/// # Errors
///
/// * [`ApspError::Congest`] with
///   [`qcc_congest::CongestError::Partitioned`] when the topology is
///   disconnected — immediately, retries cannot help.
/// * [`ApspError::NegativeCycle`] from the local solve.
/// * The last typed transport error when every attempt fails (crash
///   plans refire deterministically, so a crashed node fails every
///   attempt — honestly).
/// * [`ApspError::VerificationFailed`] when matrices emerged but none
///   passed the certificate.
///
/// # Examples
///
/// ```
/// use qcc_apsp::{gossip_apsp, GossipApspConfig};
/// use qcc_graph::{floyd_warshall, random_reweighted_digraph};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let g = random_reweighted_digraph(8, 0.5, 6, &mut rng);
/// let out = gossip_apsp(&g, &GossipApspConfig::default(), None)?;
/// assert!(out.verified);
/// assert_eq!(out.distances, floyd_warshall(&g.adjacency_matrix())?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn gossip_apsp(
    g: &DiGraph,
    cfg: &GossipApspConfig,
    trace: Option<&TraceSink>,
) -> Result<GossipApspReport, ApspError> {
    let n = g.n();
    let rows: Vec<Vec<u8>> = (0..n).map(|i| serialize_row(g, i)).collect();
    let topo = cfg.topology.build(n, cfg.seed);
    let adjacency = g.adjacency_matrix();
    let out = las_vegas(
        cfg.max_retries,
        cfg.verify,
        FallbackPolicy::Fail,
        |t| {
            let attempt = t.index();
            // The topology is the environment — stable across attempts;
            // only the fault randomness is fresh. Disconnection therefore
            // fails immediately rather than burning the retry budget.
            let mut transport =
                match GossipTransport::new(topo.clone(), cfg.seed ^ (u64::from(attempt) << 32)) {
                    Ok(transport) => transport,
                    Err(e) => return (Err(ApspError::Congest(e)), 0),
                };
            if cfg.chunks > 0 {
                transport = transport.with_chunks(cfg.chunks);
            }
            if let Some(plan) = cfg.net.reseeded(u64::from(attempt)).faults {
                transport.set_fault_plan(plan);
            }
            if let Some(sink) = trace {
                transport.set_trace_sink(sink.clone());
            }
            transport.begin_phase(&format!("gossip-apsp-{attempt}"));
            let run = transport.gossip_blocks(&rows);
            transport.close_all_spans();
            let rounds = transport.rounds();
            let solved = run.map_err(ApspError::Congest).and_then(|views| {
                // Every node decoded every block exactly; any view
                // disagreement or geometry error is an internal bug. The
                // row parse is injective, so equal bytes are equal views
                // and one parse serves them all.
                let adj = views
                    .first()
                    .filter(|first| views.iter().all(|view| view == *first))
                    .and_then(|view| parse_rows(n, view))
                    .ok_or_else(|| ApspError::Internal {
                        context: "gossip views disagree after successful decode".into(),
                    })?;
                Ok(Gossiped {
                    distances: floyd_warshall(&adj).map_err(|_| ApspError::NegativeCycle)?,
                    rounds,
                    stats: transport.gossip_stats().clone(),
                })
            });
            (solved, rounds)
        },
        |_, out| {
            let ok = min_plus_fixpoint_certificate(&adjacency, &out.distances);
            Ok(Some((ok, 0)))
        },
    )?;
    Ok(GossipApspReport {
        distances: out.report.distances,
        rounds: out.report.rounds,
        total_rounds: out.total_rounds,
        attempts: out.attempts,
        stats: out.report.stats,
        verified: out.verified,
        topology: topo.label().to_string(),
    })
}

/// One decoded and solved gossip attempt.
struct Gossiped {
    distances: WeightMatrix,
    rounds: u64,
    stats: GossipStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_congest::{CongestError, FaultPlan};
    use qcc_graph::random_reweighted_digraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph(n: usize, seed: u64) -> DiGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        random_reweighted_digraph(n, 0.5, 6, &mut rng)
    }

    #[test]
    fn transport_kind_parses_and_labels() {
        for kind in [TransportKind::Clique, TransportKind::Gossip] {
            assert_eq!(TransportKind::parse(kind.label()).unwrap(), kind);
        }
        assert!(TransportKind::parse("carrier-pigeon").is_err());
    }

    #[test]
    fn rows_round_trip_through_serialization() {
        let g = graph(7, 11);
        let rows: Vec<Vec<u8>> = (0..7).map(|i| serialize_row(&g, i)).collect();
        let adj = parse_rows(7, &rows).unwrap();
        assert_eq!(adj, g.adjacency_matrix());
        assert!(parse_rows(7, &rows[..6]).is_none(), "short view");
        let mut bad = rows;
        bad[0].pop();
        assert!(parse_rows(7, &bad).is_none(), "truncated row");
    }

    #[test]
    fn fault_free_gossip_matches_floyd_warshall() {
        let g = graph(8, 21);
        let out = gossip_apsp(&g, &GossipApspConfig::default(), None).unwrap();
        assert!(out.verified);
        assert_eq!(out.attempts.len(), 1);
        assert_eq!(
            out.distances,
            floyd_warshall(&g.adjacency_matrix()).unwrap()
        );
        assert!(out.rounds > 0);
        assert_eq!(out.total_rounds, out.rounds);
        assert_eq!(out.stats.full_nodes, 8);
        assert!(out.topology.starts_with("mesh"));
    }

    #[test]
    fn mild_drops_still_deliver_the_exact_matrix() {
        let g = graph(8, 22);
        let cfg = GossipApspConfig {
            net: NetConfig::faulty(FaultPlan::parse("drop=0.05,seed=5").unwrap()),
            ..GossipApspConfig::default()
        };
        let out = gossip_apsp(&g, &cfg, None).unwrap();
        assert_eq!(
            out.distances,
            floyd_warshall(&g.adjacency_matrix()).unwrap()
        );
        assert!(out.verified);
    }

    #[test]
    fn crashes_fail_every_attempt_with_a_typed_error() {
        let g = graph(8, 23);
        let cfg = GossipApspConfig {
            net: NetConfig::faulty(FaultPlan::parse("crash=2@0,seed=5").unwrap()),
            max_retries: 1,
            ..GossipApspConfig::default()
        };
        let err = gossip_apsp(&g, &cfg, None).unwrap_err();
        assert!(
            matches!(err, ApspError::Congest(CongestError::NodeCrashed { .. })),
            "expected NodeCrashed, got {err}"
        );
    }

    #[test]
    fn ring_and_torus_topologies_work() {
        let g = graph(9, 24);
        let exact = floyd_warshall(&g.adjacency_matrix()).unwrap();
        for spec in ["ring", "torus", "clique"] {
            let cfg = GossipApspConfig {
                topology: TopologySpec::parse(spec).unwrap(),
                ..GossipApspConfig::default()
            };
            let out = gossip_apsp(&g, &cfg, None).unwrap();
            assert_eq!(out.distances, exact, "{spec}");
        }
    }

    #[test]
    fn flood_chunks_one_is_supported() {
        let g = graph(6, 25);
        let cfg = GossipApspConfig {
            chunks: 1,
            ..GossipApspConfig::default()
        };
        let out = gossip_apsp(&g, &cfg, None).unwrap();
        assert_eq!(
            out.distances,
            floyd_warshall(&g.adjacency_matrix()).unwrap()
        );
    }
}
