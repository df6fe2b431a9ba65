//! Oracle-census cache semantics: eager per-label builds, hit/miss
//! accounting, version-stamped invalidation when the gathered tables
//! mutate mid-search, scalar/batch agreement, and tables filled on first
//! read after a transparent gather that agree with a materialized one.

use qcc_apsp::gather::{gather_weights, GatheredWeights};
use qcc_apsp::{Instance, PairSet, Params};
use qcc_congest::{Clique, ReliableConfig};
use qcc_graph::random_ugraph;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `(label, u, v, w)` probes where the pair spans two distinct coarse
/// blocks and the apex `w` is neither endpoint, so a planted `f(u, w) +
/// f(w, v)` path is guaranteed to show up in the census.
fn probes<'a>(inst: &'a Instance<'_>) -> impl Iterator<Item = (usize, usize, usize, usize)> + 'a {
    (0..inst.triples.labeling().label_count()).filter_map(|label| {
        let (bu, bv, bw) = inst.triples.decode(label);
        if bu == bv {
            return None;
        }
        let u = inst.parts.coarse.block(bu).start;
        let v = inst.parts.coarse.block(bv).start;
        let w = inst.parts.fine.block(bw).find(|&w| w != u && w != v)?;
        Some((label, u, v, w))
    })
}

/// Plants the path `u → w → v` of weight `−19,998` in `label`'s tables
/// and checks that the census serves it.
fn plant_and_check(
    gathered: &mut GatheredWeights,
    inst: &Instance<'_>,
    probe: (usize, usize, usize, usize),
) {
    let (label, u, v, w) = probe;
    let (_, misses) = gathered.census_cache_stats();
    let version = gathered.version();
    gathered.set_uw_entry(inst, label, u, w, Some(-9_999));
    gathered.set_wv_entry(inst, label, w, v, Some(-9_999));
    assert!(gathered.version() > version, "mutations bump the version");
    let after = gathered.min_plus_cached(inst, label, u, v).unwrap();
    assert_eq!(
        gathered.census_cache_stats().1,
        misses + 1,
        "the table was (re)built"
    );
    assert_eq!(after, Some(-19_998), "planted path dominates the census");
    assert_eq!(after, gathered.min_plus(inst, label, u, v).unwrap());
}

#[test]
fn mutating_the_solution_set_recomputes_the_census() {
    let mut rng = StdRng::seed_from_u64(71);
    let g = random_ugraph(16, 0.6, 5, &mut rng);
    let s = PairSet::all_pairs(16);
    let inst = Instance::new(&g, &s, Params::paper());
    let mut net = Clique::new(16).unwrap();
    let mut gathered = gather_weights(&inst, &mut net).unwrap();
    let mut usable = probes(&inst);
    let read_first = usable.next().expect("a usable probe");
    let never_read = usable.next().expect("a second usable probe");
    let (label, u, v, _w) = read_first;

    // First query of the label builds its whole census table: one miss.
    let before = gathered.min_plus_cached(&inst, label, u, v).unwrap();
    let (hits, misses) = gathered.census_cache_stats();
    assert_eq!((hits, misses), (0, 1));
    // Repeats are cache hits and stable.
    assert_eq!(
        gathered.min_plus_cached(&inst, label, u, v).unwrap(),
        before
    );
    assert_eq!(gathered.census_cache_stats(), (1, 1));

    // Mid-search mutation of the solution set: plant a deeply negative
    // apex path through w. The version stamp must move and the next query
    // must recompute (a fresh miss), not serve the stale table.
    plant_and_check(&mut gathered, &inst, read_first);
    assert_ne!(
        gathered.min_plus_cached(&inst, label, u, v).unwrap(),
        before,
        "cache did not serve the stale answer"
    );

    // A label whose tables were never read: the first write fills them
    // from the graph before overwriting its one entry, so every other
    // cell still holds the graph's weight.
    let (label, u, v, w) = never_read;
    plant_and_check(&mut gathered, &inst, never_read);
    let (bu, bv, bw) = inst.triples.decode(label);
    for a in inst.parts.coarse.block(bu) {
        for x in inst.parts.fine.block(bw).filter(|&x| (a, x) != (u, w)) {
            assert_eq!(gathered.f_uw(&inst, label, a, x), g.weight(a, x).finite());
        }
    }
    for x in inst.parts.fine.block(bw) {
        for b in inst.parts.coarse.block(bv).filter(|&b| (x, b) != (w, v)) {
            assert_eq!(gathered.f_wv(&inst, label, x, b), g.weight(x, b).finite());
        }
    }
}

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
    // Fresh gathers for the census, so that its first reads are the ones
    // that fill the transparent side's tables.
    let mut net = Clique::new(27).unwrap();
    let lazy = gather_weights(&inst, &mut net).unwrap();
    for label in 0..inst.triples.labeling().label_count() {
        let (bu, bv, _bw) = inst.triples.decode(label);
        for u in inst.parts.coarse.block(bu) {
            for v in inst.parts.coarse.block(bv) {
                let expected = routed.min_plus(&inst, label, u, v).unwrap();
                assert_eq!(
                    lazy.min_plus_cached(&inst, label, u, v).unwrap(),
                    expected,
                    "label {label} pair ({u}, {v})"
                );
                assert_eq!(lazy.min_plus(&inst, label, u, v).unwrap(), expected);
                assert_eq!(
                    routed.min_plus_cached(&inst, label, u, v).unwrap(),
                    expected
                );
            }
        }
    }
}

#[test]
fn cached_census_matches_uncached_scan_everywhere() {
    let mut rng = StdRng::seed_from_u64(72);
    let g = random_ugraph(16, 0.5, 6, &mut rng);
    let s = PairSet::all_pairs(16);
    let inst = Instance::new(&g, &s, Params::paper());
    let mut net = Clique::new(16).unwrap();
    let gathered = gather_weights(&inst, &mut net).unwrap();

    for label in 0..inst.triples.labeling().label_count() {
        let (bu, bv, _bw) = inst.triples.decode(label);
        for u in inst.parts.coarse.block(bu) {
            for v in inst.parts.coarse.block(bv) {
                assert_eq!(
                    gathered.min_plus_cached(&inst, label, u, v).unwrap(),
                    gathered.min_plus(&inst, label, u, v).unwrap(),
                    "label {label} pair ({u}, {v})"
                );
            }
        }
    }
}

#[test]
fn batch_answers_agree_with_scalar_answers() {
    let mut rng = StdRng::seed_from_u64(73);
    let g = random_ugraph(16, 0.5, 6, &mut rng);
    let s = PairSet::all_pairs(16);
    let inst = Instance::new(&g, &s, Params::paper());
    let mut net = Clique::new(16).unwrap();
    let gathered = gather_weights(&inst, &mut net).unwrap();

    let mut items = Vec::new();
    for label in 0..inst.triples.labeling().label_count() {
        let (bu, bv, _bw) = inst.triples.decode(label);
        for u in inst.parts.coarse.block(bu) {
            for v in inst.parts.coarse.block(bv) {
                for f_uv in [-3i64, 0, 3] {
                    items.push((label, u, v, f_uv));
                }
            }
        }
    }
    let mut batch = Vec::with_capacity(items.len());
    gathered
        .check_negative_cached_batch(&inst, items.iter().copied(), &mut batch)
        .unwrap();
    assert_eq!(batch.len(), items.len());
    for (&(label, u, v, f_uv), &got) in items.iter().zip(&batch) {
        assert_eq!(
            got,
            gathered
                .check_negative_cached(&inst, label, u, v, f_uv)
                .unwrap(),
            "label {label} pair ({u}, {v}) f_uv {f_uv}"
        );
    }
}
