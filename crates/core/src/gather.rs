//! Step 1 of ComputePairs: gathering edge weights at the triple nodes.
//!
//! Each node `(u, v, w) ∈ T = V × V × V'` loads the weights `f(u, w)` for
//! all `{u, w} ∈ P(u, w)` and `f(w, v)` for all `{w, v} ∈ P(w, v)`. Since
//! `|P(u, w)| = |P(w, v)| = O(n^{5/4})`, Lemma 1 routing delivers the
//! gather in `O(n^{1/4})` rounds — the dominant setup cost of the
//! algorithm, and exactly what the simulator measures.
//!
//! The gathered tables answer the Step-3 checking queries locally:
//! `min_{w ∈ w} (f(u, w) + f(w, v)) < −f(u, v)` iff some apex in `w`
//! completes a negative triangle with `{u, v}`.
//!
//! A materialized gather fills every triple's tables from its inboxes. On
//! a transparent network the rows a triple receives are by construction
//! the graph's weights, so the gather only charges the route and each
//! triple's tables are filled from the graph on their first read. The
//! charge-only quantum Step 3 reads none of them.

use crate::instance::Instance;
use crate::wire::{weight_bits, Wire};
use crate::ApspError;
use qcc_congest::{Clique, CongestError, Envelope, NodeId};
use std::cell::{OnceCell, RefCell};

/// Sentinel: the cell was computed and no apex edge pair exists.
const NO_APEX: i64 = i64::MAX - 1;

/// Memo table for the oracle census: per triple label, the min-plus value
/// of every pair in its block pair, computed on first query and reused
/// until the gathered tables change.
///
/// Step 3 asks the same `(label, u, v)` question once per Grover iteration
/// per repetition — millions of times on the E1 workload — while the answer
/// only depends on the Step-1 tables. The cache turns the `O(|w|)` apex
/// scan into an `O(1)` lookup for every repeat, and the `version` stamp
/// invalidates it wholesale whenever a table entry is updated.
#[derive(Clone, Debug, Default)]
struct CensusCache {
    /// The [`GatheredWeights::version`] the tables were computed against.
    version: u64,
    /// `tables[label][i * |v| + l]`: min-plus of the oriented pair
    /// `(u_i, v_l)`, sentinel-coded; each label's table is built whole, by
    /// one batched flat min-plus product, on its first query.
    tables: Vec<Vec<i64>>,
    /// Per-label block-pair bounds, so the hot lookup orients a pair with
    /// four compares instead of re-deriving the blocks from the label.
    geom: Vec<LabelGeom>,
    hits: u64,
    misses: u64,
}

/// The coarse block-pair bounds of one triple label.
#[derive(Clone, Copy, Debug, Default)]
struct LabelGeom {
    u_start: u32,
    u_end: u32,
    v_start: u32,
    v_end: u32,
}

/// The weight tables one triple `(u, v, w)` loads in Step 1.
#[derive(Clone, Debug)]
struct LabelTables {
    /// `uw[i * |w| + j] = f(u_i, w_j)` for `u_i ∈ u`, `w_j ∈ w`.
    uw: Vec<Option<i64>>,
    /// `wv[j * |v| + l] = f(w_j, v_l)` for `w_j ∈ w`, `v_l ∈ v`.
    wv: Vec<Option<i64>>,
}

impl LabelTables {
    /// All-absent tables sized for `label`'s blocks.
    fn empty(inst: &Instance<'_>, label: usize) -> Self {
        let (bu, bv, bw) = inst.triples.decode(label);
        let wlen = inst.parts.fine.block(bw).len();
        LabelTables {
            uw: vec![None; inst.parts.coarse.block(bu).len() * wlen],
            wv: vec![None; wlen * inst.parts.coarse.block(bv).len()],
        }
    }

    /// The tables a transparent gather delivers to `label`: the graph's
    /// weights, row for row.
    fn from_graph(inst: &Instance<'_>, label: usize) -> Self {
        let (bu, bv, bw) = inst.triples.decode(label);
        let wblock = inst.parts.fine.block(bw);
        let mut t = Self::empty(inst, label);
        for (i, a) in inst.parts.coarse.block(bu).enumerate() {
            let row = &mut t.uw[i * wblock.len()..(i + 1) * wblock.len()];
            for (cell, w) in row.iter_mut().zip(wblock.clone()) {
                *cell = inst.graph.weight(a, w).finite();
            }
        }
        let vblock = inst.parts.coarse.block(bv);
        let vlen = vblock.len();
        for (j, w) in wblock.enumerate() {
            let row = &mut t.wv[j * vlen..(j + 1) * vlen];
            for (cell, b) in row.iter_mut().zip(vblock.clone()) {
                *cell = inst.graph.weight(w, b).finite();
            }
        }
        t
    }
}

/// The per-triple weight tables loaded in Step 1.
#[derive(Clone, Debug)]
pub struct GatheredWeights {
    /// One cell per triple label. A materialized gather fills every cell
    /// from the inboxes; after a transparent gather the cells start empty
    /// and each is filled from the graph on its label's first read.
    tables: Vec<OnceCell<LabelTables>>,
    /// Bumped on every table mutation; the census cache checks it.
    version: u64,
    /// Lazily filled oracle-census memo (interior mutability so lookups
    /// stay `&self`, like the uncached ones).
    cache: RefCell<CensusCache>,
}

impl GatheredWeights {
    /// The tables of `label`, filled from the graph on first read if the
    /// gather left them empty.
    fn label_tables(&self, inst: &Instance<'_>, label: usize) -> &LabelTables {
        self.tables[label].get_or_init(|| LabelTables::from_graph(inst, label))
    }

    /// [`GatheredWeights::label_tables`] for a mutation.
    fn label_tables_mut(&mut self, inst: &Instance<'_>, label: usize) -> &mut LabelTables {
        self.label_tables(inst, label);
        self.tables[label]
            .get_mut()
            .expect("filled by label_tables")
    }

    /// How many labels' tables are filled.
    #[cfg(test)]
    fn filled_labels(&self) -> usize {
        self.tables.iter().filter(|t| t.get().is_some()).count()
    }

    /// Looks up `f(u, w)` in the tables of `label`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is not in the triple's `u`-block or `w` not in its
    /// fine block.
    pub fn f_uw(&self, inst: &Instance<'_>, label: usize, u: usize, w: usize) -> Option<i64> {
        let (bu, _bv, bw) = inst.triples.decode(label);
        let ublock = inst.parts.coarse.block(bu);
        let wblock = inst.parts.fine.block(bw);
        assert!(ublock.contains(&u) && wblock.contains(&w));
        let i = u - ublock.start;
        let j = w - wblock.start;
        self.label_tables(inst, label).uw[i * wblock.len() + j]
    }

    /// Looks up `f(w, v)` in the tables of `label`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not in the triple's `v`-block or `w` not in its
    /// fine block.
    pub fn f_wv(&self, inst: &Instance<'_>, label: usize, w: usize, v: usize) -> Option<i64> {
        let (_bu, bv, bw) = inst.triples.decode(label);
        let vblock = inst.parts.coarse.block(bv);
        let wblock = inst.parts.fine.block(bw);
        assert!(vblock.contains(&v) && wblock.contains(&w));
        let j = w - wblock.start;
        let l = v - vblock.start;
        self.label_tables(inst, label).wv[j * vblock.len() + l]
    }

    /// `min_{w ∈ w} (f(u, w) + f(w, v))` over existing apex edges, using
    /// only the tables gathered at `label`.
    ///
    /// # Errors
    ///
    /// Returns [`ApspError::Internal`] if the pair does not belong to the
    /// triple's block pair — an addressing bug, or corrupted routing state
    /// on a fault-injected network.
    pub fn min_plus(
        &self,
        inst: &Instance<'_>,
        label: usize,
        u: usize,
        v: usize,
    ) -> Result<Option<i64>, ApspError> {
        let (bu, bv, bw) = inst.triples.decode(label);
        let ublock = inst.parts.coarse.block(bu);
        let vblock = inst.parts.coarse.block(bv);
        // Orient the unordered pair to the triple's (u-side, v-side).
        let (su, sv) = if ublock.contains(&u) && vblock.contains(&v) {
            (u, v)
        } else if ublock.contains(&v) && vblock.contains(&u) {
            (v, u)
        } else {
            return Err(ApspError::Internal {
                context: format!("pair ({u}, {v}) does not belong to block pair ({bu}, {bv})"),
            });
        };
        let wblock = inst.parts.fine.block(bw);
        let i = su - ublock.start;
        let l = sv - vblock.start;
        let wlen = wblock.len();
        let t = self.label_tables(inst, label);
        let mut best: Option<i64> = None;
        for j in 0..wlen {
            // Skip the degenerate "apexes" equal to an endpoint.
            let w = wblock.start + j;
            if w == su || w == sv {
                continue;
            }
            if let (Some(a), Some(b)) = (t.uw[i * wlen + j], t.wv[j * vblock.len() + l]) {
                let sum = a + b;
                best = Some(best.map_or(sum, |cur: i64| cur.min(sum)));
            }
        }
        Ok(best)
    }

    /// The Step-3 checking predicate: does some apex in the triple's fine
    /// block complete a negative triangle with the edge `{u, v}` of weight
    /// `f_uv`?
    ///
    /// Note: the paper's Inequality (2) prints `min ≤ f(u, v)`, but
    /// Definition 1 requires `f(u,v) + f(u,w) + f(w,v) < 0`, i.e.
    /// `min < −f(u, v)` — we implement the definition (the inequality in
    /// the paper is a typo; the surrounding text confirms the check is
    /// "is `{u, v, w}` a negative triangle").
    ///
    /// # Errors
    ///
    /// Propagates [`ApspError::Internal`] from [`GatheredWeights::min_plus`]
    /// when the pair does not belong to the triple's block pair.
    pub fn check_negative(
        &self,
        inst: &Instance<'_>,
        label: usize,
        u: usize,
        v: usize,
        f_uv: i64,
    ) -> Result<bool, ApspError> {
        Ok(match self.min_plus(inst, label, u, v)? {
            Some(min_sum) => min_sum < -f_uv,
            None => false,
        })
    }

    /// [`GatheredWeights::min_plus`] through the oracle-census cache: the
    /// first query of a pair pays the apex scan, repeats are `O(1)`.
    /// The cache self-invalidates when [`GatheredWeights::version`] moved.
    ///
    /// # Errors
    ///
    /// Same as [`GatheredWeights::min_plus`].
    pub fn min_plus_cached(
        &self,
        inst: &Instance<'_>,
        label: usize,
        u: usize,
        v: usize,
    ) -> Result<Option<i64>, ApspError> {
        let mut cache = self.cache.borrow_mut();
        self.cache_prologue(inst, &mut cache);
        let g = cache.geom[label];
        let (u32_, v32_) = (u as u32, v as u32);
        let (su, sv) =
            if (g.u_start..g.u_end).contains(&u32_) && (g.v_start..g.v_end).contains(&v32_) {
                (u32_, v32_)
            } else if (g.u_start..g.u_end).contains(&v32_) && (g.v_start..g.v_end).contains(&u32_) {
                (v32_, u32_)
            } else {
                // Foreign pair: defer to the uncached path for its error.
                drop(cache);
                return self.min_plus(inst, label, u, v);
            };
        let vlen = (g.v_end - g.v_start) as usize;
        let cell = (su - g.u_start) as usize * vlen + (sv - g.v_start) as usize;
        if cache.tables[label].is_empty() {
            // First query of this label since the last invalidation: answer
            // the whole block pair at once with the batched flat kernel.
            cache.misses += 1;
            cache.tables[label] = self.build_census_table(inst, label, g)?;
        } else {
            cache.hits += 1;
        }
        let entry = cache.tables[label][cell];
        Ok(if entry == NO_APEX { None } else { Some(entry) })
    }

    /// Brings the census cache in sync with the current table version:
    /// drops stale tables, sizes the per-label slots, and builds the label
    /// geometry index on first use.
    fn cache_prologue(&self, inst: &Instance<'_>, cache: &mut CensusCache) {
        if cache.version != self.version {
            cache.tables.clear();
            cache.version = self.version;
        }
        if cache.tables.is_empty() {
            cache.tables.resize(self.tables.len(), Vec::new());
        }
        if cache.geom.len() != self.tables.len() {
            cache.geom = (0..self.tables.len())
                .map(|l| {
                    let (bu, bv, _bw) = inst.triples.decode(l);
                    let ublock = inst.parts.coarse.block(bu);
                    let vblock = inst.parts.coarse.block(bv);
                    LabelGeom {
                        u_start: ublock.start as u32,
                        u_end: ublock.end as u32,
                        v_start: vblock.start as u32,
                        v_end: vblock.end as u32,
                    }
                })
                .collect();
        }
    }

    /// Batched [`GatheredWeights::check_negative_cached`]: answers every
    /// `(label, u, v, f_uv)` item into `out`, borrowing the census cache
    /// once for the whole batch instead of once per query. Cache hit/miss
    /// accounting is per item, identical to the scalar path.
    ///
    /// # Errors
    ///
    /// Same as [`GatheredWeights::check_negative`] — the first failing item
    /// aborts the batch.
    pub fn check_negative_cached_batch(
        &self,
        inst: &Instance<'_>,
        items: impl Iterator<Item = (usize, usize, usize, i64)>,
        out: &mut Vec<bool>,
    ) -> Result<(), ApspError> {
        let mut cache = self.cache.borrow_mut();
        self.cache_prologue(inst, &mut cache);
        // Hits are tallied locally and flushed at every exit: the common
        // path then avoids a read-modify-write per item.
        let mut pending_hits: u64 = 0;
        for (label, u, v, f_uv) in items {
            let g = cache.geom[label];
            let (u32_, v32_) = (u as u32, v as u32);
            let (su, sv) = if (g.u_start..g.u_end).contains(&u32_)
                && (g.v_start..g.v_end).contains(&v32_)
            {
                (u32_, v32_)
            } else if (g.u_start..g.u_end).contains(&v32_) && (g.v_start..g.v_end).contains(&u32_) {
                (v32_, u32_)
            } else {
                // Foreign pair: defer to the uncached path for its error,
                // releasing the cache borrow around the call.
                cache.hits += pending_hits;
                pending_hits = 0;
                drop(cache);
                out.push(self.check_negative(inst, label, u, v, f_uv)?);
                cache = self.cache.borrow_mut();
                continue;
            };
            let vlen = (g.v_end - g.v_start) as usize;
            let cell = (su - g.u_start) as usize * vlen + (sv - g.v_start) as usize;
            let cached = {
                let table = &cache.tables[label];
                if table.is_empty() {
                    None
                } else {
                    pending_hits += 1;
                    Some(table[cell])
                }
            };
            let entry = match cached {
                Some(entry) => entry,
                None => {
                    cache.misses += 1;
                    let table = match self.build_census_table(inst, label, g) {
                        Ok(table) => table,
                        Err(e) => {
                            cache.hits += pending_hits;
                            return Err(e);
                        }
                    };
                    cache.tables[label] = table;
                    cache.tables[label][cell]
                }
            };
            out.push(entry != NO_APEX && entry < -f_uv);
        }
        cache.hits += pending_hits;
        Ok(())
    }

    /// Opens an incremental census probe: the cache is borrowed and synced
    /// once, and every [`CensusProbe::check`] is then a plain table lookup.
    /// The streaming form of [`GatheredWeights::check_negative_cached_batch`]
    /// for callers that interleave lookups with other per-query work.
    pub(crate) fn census_probe<'g, 'i, 'd>(
        &'g self,
        inst: &'i Instance<'d>,
    ) -> CensusProbe<'g, 'i, 'd> {
        let mut cache = self.cache.borrow_mut();
        self.cache_prologue(inst, &mut cache);
        CensusProbe {
            owner: self,
            inst,
            cache: Some(cache),
            pending_hits: 0,
        }
    }

    /// Computes the full min-plus census table of `label` — every oriented
    /// pair of its block pair — as one rectangular flat min-plus product
    /// ([`qcc_graph::min_plus_flat_into`]) over the sentinel-coded `uw` and
    /// `wv` tables, then patches the few cells whose endpoints sit inside
    /// the fine block (the kernel knows no "skip the endpoint apexes" rule)
    /// with the scalar path. Entries outside the kernel's exact magnitude
    /// domain force a whole-table scalar fallback, so the table always
    /// matches [`GatheredWeights::min_plus`] cell for cell.
    fn build_census_table(
        &self,
        inst: &Instance<'_>,
        label: usize,
        g: LabelGeom,
    ) -> Result<Vec<i64>, ApspError> {
        let (_bu, _bv, bw) = inst.triples.decode(label);
        let wblock = inst.parts.fine.block(bw);
        let ulen = (g.u_end - g.u_start) as usize;
        let vlen = (g.v_end - g.v_start) as usize;
        let wlen = wblock.len();
        let encode = |t: &[Option<i64>]| -> Option<Vec<i64>> {
            t.iter()
                .map(|w| match *w {
                    None => Some(qcc_graph::TROPICAL_NONE),
                    Some(x) if x.unsigned_abs() <= qcc_graph::TROPICAL_FINITE_MAX as u64 => Some(x),
                    Some(_) => None,
                })
                .collect()
        };
        let scalar = |i: usize, l: usize| -> Result<i64, ApspError> {
            let su = g.u_start as usize + i;
            let sv = g.v_start as usize + l;
            Ok(match self.min_plus(inst, label, su, sv)? {
                None => NO_APEX,
                Some(x) => {
                    debug_assert!(x < NO_APEX, "min-plus value collides with a cache sentinel");
                    x
                }
            })
        };
        let t = self.label_tables(inst, label);
        let (Some(a), Some(b)) = (encode(&t.uw), encode(&t.wv)) else {
            let mut table = vec![NO_APEX; ulen * vlen];
            for i in 0..ulen {
                for l in 0..vlen {
                    table[i * vlen + l] = scalar(i, l)?;
                }
            }
            return Ok(table);
        };
        let mut coded = vec![qcc_graph::TROPICAL_NONE; ulen * vlen];
        qcc_graph::min_plus_flat_into(&a, &b, ulen, wlen, vlen, &mut coded);
        let mut table: Vec<i64> = coded
            .into_iter()
            .map(|v| match qcc_graph::tropical_decode(v) {
                None => NO_APEX,
                Some(x) => x,
            })
            .collect();
        // The kernel counted every apex; cells whose own endpoints lie in
        // the fine block must exclude them (a vertex is not its own apex).
        for i in 0..ulen {
            if wblock.contains(&(g.u_start as usize + i)) {
                for l in 0..vlen {
                    table[i * vlen + l] = scalar(i, l)?;
                }
            }
        }
        for l in 0..vlen {
            if wblock.contains(&(g.v_start as usize + l)) {
                for i in 0..ulen {
                    table[i * vlen + l] = scalar(i, l)?;
                }
            }
        }
        Ok(table)
    }

    /// [`GatheredWeights::check_negative`] through the oracle-census cache.
    ///
    /// # Errors
    ///
    /// Same as [`GatheredWeights::check_negative`].
    pub fn check_negative_cached(
        &self,
        inst: &Instance<'_>,
        label: usize,
        u: usize,
        v: usize,
        f_uv: i64,
    ) -> Result<bool, ApspError> {
        Ok(match self.min_plus_cached(inst, label, u, v)? {
            Some(min_sum) => min_sum < -f_uv,
            None => false,
        })
    }

    /// Overwrites `f(u, w)` in the tables of `label` (filling them first if
    /// they were never read), invalidating the oracle-census cache (the
    /// solution sets may have changed).
    ///
    /// # Panics
    ///
    /// Panics if `u` is not in the triple's `u`-block or `w` not in its
    /// fine block.
    pub fn set_uw_entry(
        &mut self,
        inst: &Instance<'_>,
        label: usize,
        u: usize,
        w: usize,
        weight: Option<i64>,
    ) {
        let (bu, _bv, bw) = inst.triples.decode(label);
        let ublock = inst.parts.coarse.block(bu);
        let wblock = inst.parts.fine.block(bw);
        assert!(ublock.contains(&u) && wblock.contains(&w));
        let i = u - ublock.start;
        let j = w - wblock.start;
        self.label_tables_mut(inst, label).uw[i * wblock.len() + j] = weight;
        self.version += 1;
    }

    /// Overwrites `f(w, v)` in the tables of `label` (filling them first if
    /// they were never read), invalidating the oracle-census cache.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not in the triple's `v`-block or `w` not in its
    /// fine block.
    pub fn set_wv_entry(
        &mut self,
        inst: &Instance<'_>,
        label: usize,
        w: usize,
        v: usize,
        weight: Option<i64>,
    ) {
        let (_bu, bv, bw) = inst.triples.decode(label);
        let vblock = inst.parts.coarse.block(bv);
        let wblock = inst.parts.fine.block(bw);
        assert!(vblock.contains(&v) && wblock.contains(&w));
        let j = w - wblock.start;
        let l = v - vblock.start;
        self.label_tables_mut(inst, label).wv[j * vblock.len() + l] = weight;
        self.version += 1;
    }

    /// The mutation counter the census cache is keyed on.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// `(hits, misses)` of the oracle-census cache so far.
    pub fn census_cache_stats(&self) -> (u64, u64) {
        let cache = self.cache.borrow();
        (cache.hits, cache.misses)
    }
}

/// A streaming census cursor over a borrowed, pre-synced cache — see
/// [`GatheredWeights::census_probe`]. Hit accounting is batched locally and
/// flushed on drop (and at every internal borrow release), so the hot path
/// avoids a read-modify-write per lookup.
pub(crate) struct CensusProbe<'g, 'i, 'd> {
    owner: &'g GatheredWeights,
    inst: &'i Instance<'d>,
    cache: Option<std::cell::RefMut<'g, CensusCache>>,
    pending_hits: u64,
}

impl CensusProbe<'_, '_, '_> {
    /// [`GatheredWeights::check_negative_cached`] against the held cache.
    ///
    /// # Errors
    ///
    /// Same as [`GatheredWeights::check_negative`].
    pub(crate) fn check(
        &mut self,
        label: usize,
        u: usize,
        v: usize,
        f_uv: i64,
    ) -> Result<bool, ApspError> {
        let cache = self.cache.as_mut().expect("probe cache is always held");
        let g = cache.geom[label];
        let (u32_, v32_) = (u as u32, v as u32);
        let (su, sv) =
            if (g.u_start..g.u_end).contains(&u32_) && (g.v_start..g.v_end).contains(&v32_) {
                (u32_, v32_)
            } else if (g.u_start..g.u_end).contains(&v32_) && (g.v_start..g.v_end).contains(&u32_) {
                (v32_, u32_)
            } else {
                // Foreign pair: defer to the uncached path for its error,
                // releasing the cache borrow around the call.
                cache.hits += self.pending_hits;
                self.pending_hits = 0;
                self.cache = None;
                let result = self.owner.check_negative(self.inst, label, u, v, f_uv);
                self.cache = Some(self.owner.cache.borrow_mut());
                return result;
            };
        let vlen = (g.v_end - g.v_start) as usize;
        let cell = (su - g.u_start) as usize * vlen + (sv - g.v_start) as usize;
        let cached = {
            let table = &cache.tables[label];
            if table.is_empty() {
                None
            } else {
                self.pending_hits += 1;
                Some(table[cell])
            }
        };
        let entry = match cached {
            Some(entry) => entry,
            None => {
                cache.misses += 1;
                let table = self.owner.build_census_table(self.inst, label, g)?;
                cache.tables[label] = table;
                cache.tables[label][cell]
            }
        };
        Ok(entry != NO_APEX && entry < -f_uv)
    }
}

impl Drop for CensusProbe<'_, '_, '_> {
    fn drop(&mut self) {
        if let Some(cache) = self.cache.as_mut() {
            cache.hits += self.pending_hits;
        }
    }
}

/// Executes Step 1: every vertex owner streams its relevant weight rows to
/// the triple nodes via Lemma 1 routing.
///
/// # Errors
///
/// Returns a [`CongestError`] only on simulator-level addressing bugs.
///
/// # Examples
///
/// ```
/// use qcc_apsp::gather::gather_weights;
/// use qcc_apsp::{Instance, PairSet, Params};
/// use qcc_congest::Clique;
/// use qcc_graph::book_graph;
///
/// let g = book_graph(16, 2);
/// let s = PairSet::all_pairs(16);
/// let inst = Instance::new(&g, &s, Params::paper());
/// let mut net = Clique::new(16)?;
/// let gathered = gather_weights(&inst, &mut net)?;
/// // the triple holding blocks of vertices 0, 1 can answer the spine check
/// let f_uv = g.weight(0, 1).finite().unwrap();
/// let bu = inst.parts.coarse.block_of(0);
/// let bw = inst.parts.fine.block_of(2); // apex 2's block
/// let label = inst.triples.encode(bu, inst.parts.coarse.block_of(1), bw);
/// assert!(gathered.check_negative(&inst, label, 0, 1, f_uv)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn gather_weights(
    inst: &Instance<'_>,
    net: &mut Clique,
) -> Result<GatheredWeights, CongestError> {
    let n = inst.n();
    let wb = weight_bits(inst.weight_magnitude());
    net.begin_phase("compute-pairs/step1-gather");

    if net.is_transparent() {
        // Charge-only gather: the route's cost depends only on each
        // message's (src, dst, bits), so ship empty payloads in the exact
        // same order. The rows the messages would carry are the graph's
        // weights, so every triple's tables are left to fill on first read.
        let mut sends: Vec<Envelope<Wire<()>>> = Vec::new();
        for (label, (bu, bv, bw)) in inst.triples.triples() {
            let dst = NodeId::new(inst.triples.labeling().node_of(label));
            let row_bits = wb * inst.parts.fine.block(bw).len() as u64;
            for a in inst.parts.coarse.block(bu) {
                sends.push(Envelope::new(NodeId::new(a), dst, Wire::new((), row_bits)));
            }
            for b in inst.parts.coarse.block(bv) {
                sends.push(Envelope::new(NodeId::new(b), dst, Wire::new((), row_bits)));
            }
        }
        net.route(sends)?;
        let label_count = inst.triples.labeling().label_count();
        return Ok(GatheredWeights {
            tables: std::iter::repeat_with(OnceCell::new)
                .take(label_count)
                .collect(),
            version: 0,
            cache: RefCell::new(CensusCache::default()),
        });
    }

    // Owner `a` sends, for each triple whose u-side (resp. v-side) block
    // contains `a`, the weights {f(a, w) : w ∈ w} as one message.
    // Message payload: (label, side, vertex, weights row over the fine block).
    let mut sends: Vec<Envelope<Wire<(usize, u8, usize, Vec<Option<i64>>)>>> = Vec::new();
    for (label, (bu, bv, bw)) in inst.triples.triples() {
        let dst = NodeId::new(inst.triples.labeling().node_of(label));
        let wblock = inst.parts.fine.block(bw);
        let row_bits = wb * wblock.len() as u64;
        for a in inst.parts.coarse.block(bu) {
            let row: Vec<Option<i64>> = wblock
                .clone()
                .map(|w| inst.graph.weight(a, w).finite())
                .collect();
            sends.push(Envelope::new(
                NodeId::new(a),
                dst,
                Wire::new((label, 0u8, a, row), row_bits),
            ));
        }
        for b in inst.parts.coarse.block(bv) {
            let row: Vec<Option<i64>> = wblock
                .clone()
                .map(|w| inst.graph.weight(w, b).finite())
                .collect();
            sends.push(Envelope::new(
                NodeId::new(b),
                dst,
                Wire::new((label, 1u8, b, row), row_bits),
            ));
        }
    }
    let boxes = net.route(sends)?;

    let mut tables: Vec<LabelTables> = (0..inst.triples.labeling().label_count())
        .map(|label| LabelTables::empty(inst, label))
        .collect();
    for host in NodeId::all(n) {
        for (_src, msg) in boxes.of(host) {
            let (label, side, vertex, row) = &msg.value;
            let (bu, bv, bw) = inst.triples.decode(*label);
            debug_assert_eq!(inst.triples.labeling().node_of(*label), host.index());
            let wlen = inst.parts.fine.block(bw).len();
            let t = &mut tables[*label];
            if *side == 0 {
                let i = vertex - inst.parts.coarse.block(bu).start;
                for (j, w) in row.iter().enumerate() {
                    t.uw[i * wlen + j] = *w;
                }
            } else {
                let l = vertex - inst.parts.coarse.block(bv).start;
                let vlen = inst.parts.coarse.block(bv).len();
                for (j, w) in row.iter().enumerate() {
                    t.wv[j * vlen + l] = *w;
                }
            }
        }
    }

    Ok(GatheredWeights {
        tables: tables.into_iter().map(OnceCell::from).collect(),
        version: 0,
        cache: RefCell::new(CensusCache::default()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Params;
    use crate::problem::PairSet;
    use qcc_graph::{book_graph, random_ugraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (qcc_graph::UGraph, PairSet) {
        let mut rng = StdRng::seed_from_u64(seed);
        (random_ugraph(n, 0.6, 5, &mut rng), PairSet::all_pairs(n))
    }

    #[test]
    fn gathered_tables_match_the_graph() {
        let (g, s) = setup(16, 51);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        let gathered = gather_weights(&inst, &mut net).unwrap();
        for (label, (bu, bv, bw)) in inst.triples.triples() {
            for u in inst.parts.coarse.block(bu) {
                for w in inst.parts.fine.block(bw) {
                    assert_eq!(
                        gathered.f_uw(&inst, label, u, w),
                        g.weight(u, w).finite(),
                        "label {label} f({u},{w})"
                    );
                }
            }
            for w in inst.parts.fine.block(bw) {
                for v in inst.parts.coarse.block(bv) {
                    assert_eq!(gathered.f_wv(&inst, label, w, v), g.weight(w, v).finite());
                }
            }
        }
    }

    #[test]
    fn gather_costs_rounds() {
        let (g, s) = setup(16, 52);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        let _ = gather_weights(&inst, &mut net).unwrap();
        assert!(net.rounds() > 0);
        assert!(net.metrics().rounds_with_prefix("compute-pairs/step1") > 0);
    }

    #[test]
    fn check_negative_matches_census() {
        let (g, s) = setup(16, 53);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        let gathered = gather_weights(&inst, &mut net).unwrap();
        for (label, (bu, bv, bw)) in inst.triples.triples() {
            for (u, v) in inst.parts.coarse.pair_set(bu, bv) {
                if let Some(f_uv) = g.weight(u, v).finite() {
                    let expected = inst
                        .parts
                        .fine
                        .block(bw)
                        .any(|w| g.is_negative_triangle(u, v, w));
                    assert_eq!(
                        gathered.check_negative(&inst, label, u, v, f_uv).unwrap(),
                        expected,
                        "label {label} pair ({u},{v})"
                    );
                }
            }
        }
    }

    #[test]
    fn min_plus_skips_endpoint_apexes() {
        // pair {0, 1} with 2 as apex: blocks are small at n = 16, and when
        // 0 or 1 sit inside the apex block they must not count as apexes.
        let g = book_graph(16, 3);
        let s = PairSet::all_pairs(16);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        let gathered = gather_weights(&inst, &mut net).unwrap();
        let bu = inst.parts.coarse.block_of(0);
        let bv = inst.parts.coarse.block_of(1);
        let bw = inst.parts.fine.block_of(0); // the block containing vertex 0 itself
        let label = inst.triples.encode(bu, bv, bw);
        // must not treat w = 0 or w = 1 as an apex for the pair {0, 1}
        let census = inst
            .parts
            .fine
            .block(bw)
            .any(|w| g.is_negative_triangle(0, 1, w));
        let f_uv = g.weight(0, 1).finite().unwrap();
        assert_eq!(
            gathered.check_negative(&inst, label, 0, 1, f_uv).unwrap(),
            census
        );
    }

    #[test]
    fn charge_only_quantum_step3_fills_no_table() {
        use crate::identify_class::identify_class_with_retry;
        use crate::lambda::build_lambda_cover_with_retry;
        use crate::step3::{run_step3_classical, run_step3_quantum};
        let (g, s) = setup(16, 55);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        let mut rng = StdRng::seed_from_u64(56);
        let gathered = gather_weights(&inst, &mut net).unwrap();
        assert_eq!(gathered.filled_labels(), 0, "nothing is filled up front");
        let cover = build_lambda_cover_with_retry(&inst, &mut net, 30, &mut rng).unwrap();
        let classes = identify_class_with_retry(&inst, &mut net, 30, &mut rng).unwrap();
        let out =
            run_step3_quantum(&inst, &mut net, &cover, &gathered, &classes, &mut rng).unwrap();
        assert!(out.stats.searches > 0, "the searches ran");
        assert_eq!(
            gathered.filled_labels(),
            0,
            "charge-only Step 3 reads no table"
        );
        // The classical Step 3 answers from the tables, filling them as it reads.
        run_step3_classical(&inst, &mut net, &cover, &gathered).unwrap();
        assert!(gathered.filled_labels() > 0);
    }

    #[test]
    fn materialized_gather_fills_every_table() {
        let (g, s) = setup(16, 57);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        net.set_reliable_delivery(qcc_congest::ReliableConfig::default());
        let gathered = gather_weights(&inst, &mut net).unwrap();
        assert_eq!(
            gathered.filled_labels(),
            inst.triples.labeling().label_count()
        );
    }

    #[test]
    fn min_plus_rejects_foreign_pairs() {
        let (g, s) = setup(16, 54);
        let inst = Instance::new(&g, &s, Params::scaled());
        let mut net = Clique::new(16).unwrap();
        let gathered = gather_weights(&inst, &mut net).unwrap();
        // triple (0, 0, 0) covers only block 0's pairs; vertex 15 is in the
        // last coarse block
        let label = inst.triples.encode(0, 0, 0);
        let err = gathered.min_plus(&inst, label, 0, 15).unwrap_err();
        assert!(matches!(err, ApspError::Internal { .. }));
        assert!(err.to_string().contains("does not belong"));
    }
}
