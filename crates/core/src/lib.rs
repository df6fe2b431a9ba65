//! # qcc-apsp — quantum distributed APSP in the CONGEST-CLIQUE model
//!
//! Reproduction of *"Quantum Distributed Algorithm for the All-Pairs
//! Shortest Path Problem in the CONGEST-CLIQUE Model"* (Izumi & Le Gall,
//! PODC 2019): the `O~(n^{1/4} log W)`-round quantum APSP algorithm, every
//! reduction it rests on, and the classical baselines it is measured
//! against — all running on the bit-accounted network simulator of
//! [`qcc_congest`] with the exact quantum-search simulation of
//! [`qcc_quantum`].
//!
//! ## The reduction chain (paper → modules)
//!
//! | Paper | Module |
//! |---|---|
//! | Theorem 1: APSP in `O~(n^{1/4} log W)` rounds | [`mod@apsp`] |
//! | Proposition 3: APSP → distance products | [`mod@apsp`] |
//! | Proposition 2: distance product → `FindEdges` | [`distance_product`] |
//! | Proposition 1: `FindEdges` → promise version | [`mod@find_edges`] |
//! | Theorem 2 / Figure 1: `ComputePairs` | [`mod@compute_pairs`] |
//! | Figure 2: `IdentifyClass` | [`identify_class`] |
//! | Figures 4–5: evaluation procedures | [`eval_procedure`] |
//! | Lemma 2: the `Λ_x` covering | [`lambda`] |
//!
//! ## Quickstart
//!
//! ```
//! use qcc_apsp::{compute_pairs, PairSet, Params, SearchBackend};
//! use qcc_congest::Clique;
//! use qcc_graph::book_graph;
//! use rand::SeedableRng;
//!
//! let g = book_graph(16, 3);
//! let s = PairSet::all_pairs(16);
//! let mut net = Clique::new(16)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let report = compute_pairs(&g, &s, Params::paper(), SearchBackend::Quantum, &mut net, &mut rng)?;
//! println!("found {} pairs in {} rounds", report.found.len(), report.rounds);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Wire payloads are self-describing tuples; naming each would add a layer
// of indirection without information.
#![allow(clippy::type_complexity)]

pub mod compute_pairs;
mod error;
pub mod eval_procedure;
pub mod find_edges;
pub mod gather;
pub mod identify_class;
mod instance;
pub mod lambda;
mod params;
mod problem;
mod sampling;
pub mod step3;
mod wire;

pub use compute_pairs::{compute_pairs, ComputePairsReport, MAX_STAGE_ATTEMPTS};
pub use error::ApspError;
pub use find_edges::{find_edges, find_edges_instrumented, FindEdgesReport, LoopIterationStats};
pub use instance::Instance;
pub use lambda::{
    build_deterministic_cover, build_lambda_cover, build_lambda_cover_with_retry, KeptPair,
    LambdaAttempt, LambdaCover,
};
pub use params::Params;
pub use problem::{promise_violation, reference_find_edges, PairSet};
pub use sampling::sample_indices;
pub use step3::{FoundWitness, SearchBackend, Step3Output, Step3Stats};
pub use wire::{pair_bits, weight_bits, Wire};

pub mod distance_product;
pub use distance_product::{
    distributed_distance_product, distributed_distance_product_configured, DistanceProductReport,
    MAX_PRODUCT_MAGNITUDE,
};

pub mod apsp;
pub mod baselines;
pub use apsp::{apsp, apsp_configured, apsp_traced, ApspAlgorithm, ApspReport};
pub use baselines::{
    dolev_find_edges, naive_broadcast_apsp, semiring_apsp, semiring_distance_product,
};

mod las_vegas;
pub use las_vegas::{AttemptRecord, FallbackPolicy, LasVegasReport};

pub mod driver;
pub use driver::{apsp_driver, DriverConfig, DriverReport};

pub mod transport_apsp;
pub use transport_apsp::{gossip_apsp, GossipApspConfig, GossipApspReport, TransportKind};

pub mod extremum;
pub use extremum::{
    classical_extremum_scan, diameter_of, distance_params, eccentricities, network_extremum,
    radius_of, DistanceParam, DistanceParamReport, ExtremumBackend, ExtremumConfig,
    NetworkExtremumOutcome,
};

pub mod apsp_paths;
pub use apsp_paths::{
    apsp_with_paths, apsp_with_paths_traced, distributed_witnessed_product, ApspPathsReport,
    WitnessedProductReport,
};

pub mod gamma_count;
pub use gamma_count::{quantum_gamma_count, GammaCountReport};

mod report;
pub mod sssp;
pub use report::{GroupStats, RoundBreakdown};
pub use sssp::{sssp, sssp_with_paths, SsspReport};

pub mod approx;
pub use approx::{
    max_additive_error, quantize_weights, quantized_apsp, quantum_for_epsilon, QuantizedApspReport,
};

pub mod serve;
pub use serve::{
    parse_request, BatchOutput, EdgeChange, EngineConfig, LoadPlan, LoadReport, QueryEngine,
    ServeRequest, ServeStats, UpdateMethod,
};
