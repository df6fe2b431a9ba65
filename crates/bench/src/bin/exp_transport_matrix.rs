//! Experiment E18 — the transport matrix: graceful degradation across
//! topology × transport × fault grid (`BENCH_transport_matrix.json`).
//!
//! Every cell runs APSP on the same seeded graph through one of three
//! delivery mechanisms and asserts the exact Floyd–Warshall matrix (or
//! an honest typed failure, for fail-stop cells):
//!
//! * **envelope on the clique** — the PR-5 ack/retransmit reliable
//!   envelope under the Las-Vegas driver: retransmission buys delivery.
//! * **envelope off the clique** — uncoded flooding (RLNC with one
//!   chunk): repetition buys delivery on general topologies.
//! * **gossip** — random linear network coding over GF(256):
//!   redundancy buys delivery, and the matrix measures its price as
//!   wasted (non-innovative) bandwidth and full-node progress.
//!
//! The point of the grid: none of the three mechanisms is allowed to
//! degrade into a silent wrong answer. Lossy cells must survive with
//! the exact matrix; crash cells must fail with a typed error.
//!
//! Usage: `exp_transport_matrix [--smoke] [--out PATH] [--trace FILE]`
//!
//! Exit codes: 0 on success; 1 when any surviving cell's matrix
//! disagrees with Floyd–Warshall, a non-crash cell fails outright, or a
//! crash cell produces an untyped outcome; 2 on usage errors.

use qcc_apsp::{
    apsp_driver, gossip_apsp, ApspAlgorithm, DriverConfig, GossipApspConfig, GossipApspReport,
};
use qcc_bench::{banner, Table};
use qcc_congest::{json, FaultPlan, NetConfig, NodeId, TopologySpec};
use qcc_graph::{floyd_warshall, random_reweighted_digraph, WeightMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// One grid cell's result, ready for the JSON report.
struct Cell {
    topology: &'static str,
    transport: &'static str,
    mechanism: &'static str,
    faults: String,
    success: bool,
    verified: bool,
    error: Option<String>,
    rounds: Option<u64>,
    attempts: Option<u64>,
    wasted_packets: Option<u64>,
    wasted_bits: Option<u64>,
    full_nodes: Option<u64>,
}

fn json_num_opt(v: Option<u64>) -> String {
    v.map_or("null".to_string(), |x| x.to_string())
}

fn main() {
    let ((smoke, out_path), sink) = qcc_bench::read_flags(
        "exp_transport_matrix",
        "--out --trace",
        "--smoke",
        |flags| {
            let out_path = flags.get("--out").unwrap_or("BENCH_transport_matrix.json");
            Ok((flags.switch("--smoke"), out_path.to_string()))
        },
    );
    banner(
        "E18",
        "transport matrix: topology x transport x faults, exact answers or typed failures",
    );

    let n = if smoke { 8 } else { 10 };
    let seed = 7u64;
    let topologies: &[(&'static str, TopologySpec)] = if smoke {
        &[
            ("clique", TopologySpec::Clique),
            ("mesh:4", TopologySpec::Mesh { degree: 4 }),
        ]
    } else {
        &[
            ("clique", TopologySpec::Clique),
            ("ring", TopologySpec::Ring),
            ("mesh:4", TopologySpec::Mesh { degree: 4 }),
            ("torus", TopologySpec::Torus),
        ]
    };
    let transports: &[&'static str] = &["envelope", "gossip"];
    // Fault columns: fault-free, a lossy link, and (full mode) loss plus
    // an immediate fail-stop crash that no mechanism can mask.
    let fault_cols: &[(&'static str, f64, bool)] = if smoke {
        &[("none", 0.0, false), ("drop", 0.05, false)]
    } else {
        &[
            ("none", 0.0, false),
            ("drop", 0.05, false),
            ("drop+crash", 0.05, true),
        ]
    };

    let mut rng = StdRng::seed_from_u64(0xE18);
    let g = random_reweighted_digraph(n, 0.5, 6, &mut rng);
    let oracle = floyd_warshall(&g.adjacency_matrix()).expect("no negative cycles");

    let mut table = Table::new(&[
        "topology",
        "transport",
        "mechanism",
        "faults",
        "outcome",
        "rounds",
        "attempts",
        "wasted pk",
        "full nodes",
    ]);
    let mut cells: Vec<Cell> = Vec::new();
    let mut failures = 0u32;

    for &(topo_label, topo) in topologies {
        for &transport in transports {
            for &(_fault_label, drop, crash) in fault_cols {
                let plan = FaultPlan {
                    drop_rate: drop,
                    crashes: if crash {
                        vec![(NodeId::new(1), 0)]
                    } else {
                        Vec::new()
                    },
                    seed: seed * 100 + 13,
                    ..FaultPlan::default()
                };
                let spec = plan.to_spec();
                let expect_survival = plan.crashes.is_empty();
                let net = if plan.is_empty() {
                    NetConfig::default()
                } else {
                    NetConfig::faulty(plan.clone())
                };

                // Three mechanisms share two transport names: the reliable
                // envelope only exists on the clique (it needs all-to-all
                // acks); off the clique the "envelope" column degrades to
                // uncoded flooding, which is exactly the comparison the
                // gossip column is priced against.
                let on_clique = matches!(topo, TopologySpec::Clique);
                let (mechanism, result): (&'static str, Result<CellRun, String>) =
                    if transport == "envelope" && on_clique {
                        let cfg = DriverConfig {
                            algorithm: ApspAlgorithm::NaiveBroadcast,
                            net: net.clone(),
                            ..DriverConfig::default()
                        };
                        let mut run_rng = StdRng::seed_from_u64(seed);
                        (
                            "ack-retransmit",
                            apsp_driver(&g, &cfg, &mut run_rng, sink.as_ref())
                                .map(|out| CellRun {
                                    distances: out.report.distances,
                                    verified: out.verified,
                                    rounds: out.total_rounds,
                                    attempts: out.attempts.len() as u64,
                                    gossip: None,
                                })
                                .map_err(|e| e.to_string()),
                        )
                    } else {
                        let chunks = if transport == "envelope" { 1 } else { 8 };
                        let mech = if transport == "envelope" {
                            "uncoded-flood"
                        } else {
                            "rlnc"
                        };
                        let cfg = GossipApspConfig {
                            topology: topo,
                            chunks,
                            max_retries: 3,
                            net: net.clone(),
                            seed,
                        };
                        (
                            mech,
                            gossip_apsp(&g, &cfg, sink.as_ref())
                                .map(CellRun::from_gossip)
                                .map_err(|e| e.to_string()),
                        )
                    };

                let cell = match result {
                    Ok(run) => {
                        let exact = run.verified && run.distances == oracle;
                        if !exact {
                            eprintln!(
                                "exp_transport_matrix: [{topo_label}/{transport}] [{spec}]: \
                                 matrix mismatch or unverified"
                            );
                            failures += 1;
                        }
                        let (wp, wb, fnodes) = run.gossip.unwrap_or((None, None, None));
                        Cell {
                            topology: topo_label,
                            transport,
                            mechanism,
                            faults: spec,
                            success: true,
                            verified: run.verified,
                            error: None,
                            rounds: Some(run.rounds),
                            attempts: Some(run.attempts),
                            wasted_packets: wp,
                            wasted_bits: wb,
                            full_nodes: fnodes,
                        }
                    }
                    Err(e) => {
                        if expect_survival {
                            eprintln!(
                                "exp_transport_matrix: [{topo_label}/{transport}] [{spec}]: \
                                 unexpected failure: {e}"
                            );
                            failures += 1;
                        }
                        Cell {
                            topology: topo_label,
                            transport,
                            mechanism,
                            faults: spec,
                            success: false,
                            verified: false,
                            error: Some(e),
                            rounds: None,
                            attempts: None,
                            wasted_packets: None,
                            wasted_bits: None,
                            full_nodes: None,
                        }
                    }
                };
                let outcome = if cell.success {
                    "exact"
                } else if expect_survival {
                    "FAILED"
                } else {
                    "typed-failure"
                };
                table.row(&[
                    &cell.topology,
                    &cell.transport,
                    &cell.mechanism,
                    &cell.faults,
                    &outcome,
                    &json_num_opt(cell.rounds),
                    &json_num_opt(cell.attempts),
                    &json_num_opt(cell.wasted_packets),
                    &json_num_opt(cell.full_nodes),
                ]);
                cells.push(cell);
            }
        }
    }
    table.print();
    if let Some(sink) = &sink {
        sink.flush().expect("trace flush");
    }

    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"qcc-bench-transport-matrix/v1\",");
    let _ = writeln!(s, "  \"n\": {n},");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"smoke\": {smoke},");
    let _ = writeln!(s, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"topology\": {}, \"transport\": {}, \"mechanism\": {}, \
             \"faults\": {}, \"success\": {}, \"verified\": {}, \"error\": {}, \
             \"rounds\": {}, \"attempts\": {}, \"wasted_packets\": {}, \
             \"wasted_bits\": {}, \"full_nodes\": {}}}{comma}",
            json::quote(c.topology),
            json::quote(c.transport),
            json::quote(c.mechanism),
            json::quote(&c.faults),
            c.success,
            c.verified,
            c.error.as_deref().map_or("null".to_string(), json::quote),
            json_num_opt(c.rounds),
            json_num_opt(c.attempts),
            json_num_opt(c.wasted_packets),
            json_num_opt(c.wasted_bits),
            json_num_opt(c.full_nodes),
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    std::fs::write(&out_path, &s).expect("write transport-matrix JSON");
    eprintln!("exp_transport_matrix: wrote {out_path}");

    if failures > 0 {
        eprintln!("exp_transport_matrix: {failures} cell(s) FAILED");
        std::process::exit(1);
    }
    println!(
        "\n(all surviving cells returned the exact Floyd-Warshall matrix; crash\n\
         cells failed with typed errors; gossip cells priced their redundancy\n\
         as wasted bandwidth - degradation is graceful, never silent)"
    );
}

/// The normalized outcome of one successful cell run.
struct CellRun {
    distances: WeightMatrix,
    verified: bool,
    rounds: u64,
    attempts: u64,
    gossip: Option<(Option<u64>, Option<u64>, Option<u64>)>,
}

impl CellRun {
    fn from_gossip(r: GossipApspReport) -> CellRun {
        CellRun {
            verified: r.verified,
            rounds: r.total_rounds,
            attempts: r.attempts.len() as u64,
            gossip: Some((
                Some(r.stats.wasted_packets),
                Some(r.stats.wasted_bits),
                Some(r.stats.full_nodes as u64),
            )),
            distances: r.distances,
        }
    }
}
