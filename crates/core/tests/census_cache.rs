//! The gathered census: each label's table, built on its first query,
//! agrees with the scalar min-plus scan on every pair — after a transparent
//! gather (tables filled on first read, agreeing with a materialized
//! gather), on tables a lossy network left partial, and above the flat
//! kernel's exact range.

use qcc_apsp::gather::{gather_weights, GatheredWeights};
use qcc_apsp::{Instance, PairSet, Params};
use qcc_congest::{Clique, FaultPlan, ReliableConfig};
use qcc_graph::{random_ugraph, UGraph, TROPICAL_FINITE_MAX};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn lazily_filled_tables_agree_with_a_materialized_gather() {
    let mut rng = StdRng::seed_from_u64(74);
    let g = random_ugraph(27, 0.5, 6, &mut rng);
    let s = PairSet::all_pairs(27);
    let inst = Instance::new(&g, &s, Params::scaled());
    let mut net = Clique::new(27).unwrap();
    let lazy = gather_weights(&inst, &mut net).unwrap();
    let mut net = Clique::new(27).unwrap();
    net.set_reliable_delivery(ReliableConfig::default());
    let routed = gather_weights(&inst, &mut net).unwrap();

    for label in 0..inst.triples.labeling().label_count() {
        let (bu, bv, bw) = inst.triples.decode(label);
        for w in inst.parts.fine.block(bw) {
            for u in inst.parts.coarse.block(bu) {
                assert_eq!(
                    lazy.f_uw(&inst, label, u, w),
                    routed.f_uw(&inst, label, u, w),
                    "label {label} f({u}, {w})"
                );
            }
            for v in inst.parts.coarse.block(bv) {
                assert_eq!(
                    lazy.f_wv(&inst, label, w, v),
                    routed.f_wv(&inst, label, w, v),
                    "label {label} f({w}, {v})"
                );
            }
        }
    }
    // A fresh transparent gather, so that the census's first reads are the
    // ones that fill its tables.
    let mut net = Clique::new(27).unwrap();
    let lazy = gather_weights(&inst, &mut net).unwrap();
    assert_census_matches(&lazy, &routed, &inst);
    assert_census_matches(&routed, &routed, &inst);
}

#[test]
fn cached_census_matches_uncached_scan_everywhere() {
    let mut rng = StdRng::seed_from_u64(72);
    let g = random_ugraph(16, 0.5, 6, &mut rng);
    let s = PairSet::all_pairs(16);
    let inst = Instance::new(&g, &s, Params::paper());
    let mut net = Clique::new(16).unwrap();
    let gathered = gather_weights(&inst, &mut net).unwrap();
    assert_census_matches(&gathered, &gathered, &inst);
}

/// Checks the census of every `(label, pair)` against the scalar
/// [`GatheredWeights::min_plus`] of `reference`: `check_negative` is asked
/// just below and at the scalar minimum, which pins the census value
/// exactly, and with the largest weight when no apex pair exists.
fn assert_census_matches(
    gathered: &GatheredWeights,
    reference: &GatheredWeights,
    inst: &Instance<'_>,
) {
    for label in 0..inst.triples.labeling().label_count() {
        let (bu, bv, _bw) = inst.triples.decode(label);
        for u in inst.parts.coarse.block(bu) {
            for v in inst.parts.coarse.block(bv) {
                let scalar = reference.min_plus(inst, label, u, v).unwrap();
                let probes = match scalar {
                    Some(m) => [(-m - 1, true), (-m, false)],
                    None => [(-i64::MAX, false), (0, false)],
                };
                for (f_uv, expected) in probes {
                    assert_eq!(
                        gathered.check_negative(inst, label, u, v, f_uv).unwrap(),
                        expected,
                        "label {label} pair ({u}, {v}) f_uv {f_uv}: scalar {scalar:?}"
                    );
                }
                assert_eq!(gathered.min_plus(inst, label, u, v).unwrap(), scalar);
            }
        }
    }
}

#[test]
fn census_matches_scalar_on_tables_with_lost_rows() {
    let mut rng = StdRng::seed_from_u64(75);
    let g = random_ugraph(16, 0.6, 6, &mut rng);
    let s = PairSet::all_pairs(16);
    let inst = Instance::new(&g, &s, Params::scaled());
    let mut net = Clique::new(16).unwrap();
    // Drops without the envelope: the gather is materialized and the
    // rows it loses stay missing from the tables.
    net.set_fault_plan(FaultPlan::parse("drop=0.3,seed=5").unwrap());
    let gathered = gather_weights(&inst, &mut net).unwrap();
    assert!(net.fault_counts().drops > 0, "rows were lost");
    let missing = (0..inst.triples.labeling().label_count()).any(|label| {
        let (bu, _bv, bw) = inst.triples.decode(label);
        inst.parts.coarse.block(bu).any(|u| {
            inst.parts
                .fine
                .block(bw)
                .any(|w| gathered.f_uw(&inst, label, u, w) != g.weight(u, w).finite())
        })
    });
    assert!(missing, "some table misses a weight the graph has");
    assert_census_matches(&gathered, &gathered, &inst);
}

#[test]
fn census_matches_scalar_above_the_flat_kernel_range() {
    let mut rng = StdRng::seed_from_u64(76);
    let small = random_ugraph(16, 0.6, 6, &mut rng);
    // Weights of magnitude up to 6 · 2^58 > TROPICAL_FINITE_MAX = 2^59:
    // every label's census falls back to the scalar scan.
    let mut g = UGraph::new(16);
    for (u, v, w) in small.edges() {
        g.add_edge(u, v, w << 58);
    }
    assert!(g
        .edges()
        .any(|(_, _, w)| w.unsigned_abs() > TROPICAL_FINITE_MAX as u64));
    let s = PairSet::all_pairs(16);
    let inst = Instance::new(&g, &s, Params::scaled());
    let mut net = Clique::new(16).unwrap();
    let gathered = gather_weights(&inst, &mut net).unwrap();
    assert_census_matches(&gathered, &gathered, &inst);
}
