//! The APSP query engine behind `qcc serve`.
//!
//! Compute once, serve many: the engine runs one APSP (via the Las-Vegas
//! [`apsp_driver`] so `--faults`/`--verify` compose, or via witnessed
//! squaring so explicit routes come for free) and then answers `dist` /
//! `path` point queries from the cached tables. Three layers keep the hot
//! path fast without giving up exactness:
//!
//! * **Batching** — [`QueryEngine::answer_batch`] answers a drained queue
//!   of requests in one pass, stably reordering read-only runs by source
//!   vertex so each distance row is fetched once per batch.
//! * **Row cache** — with a `--row-cache N` budget the engine keeps only
//!   `N` per-source rows resident (LRU eviction) and recomputes evicted
//!   rows on demand by single-source relaxation
//!   ([`sssp_row_with_parents`]), so huge `n` never needs the `O(n²)`
//!   matrix in memory.
//! * **Delta repair** — an `update` request with decrease-only edge
//!   changes is repaired exactly in `O(k·n²)` by relaxing the matrix
//!   through each changed arc in turn ([`delta_repair`]); increases and
//!   deletions recompute. Updates that would create a negative cycle are
//!   rejected and the previous state is kept.
//!
//! The wire format is NDJSON, one request object per line (matching the
//! `TraceSink` idiom), read with the workspace's one JSON reader
//! ([`qcc_congest::json`]); see [`parse_request`] for the schema. Malformed
//! lines become `{"ok":false,...}` error responses, never panics.

use crate::apsp_paths::apsp_with_paths_traced;
use crate::driver::{apsp_driver, DriverConfig};
use crate::params::Params;
use crate::step3::SearchBackend;
use crate::ApspError;
use qcc_congest::json::{self, Value};
use qcc_congest::TraceSink;
use qcc_graph::{
    delta_repair, floyd_warshall, has_negative_cycle, parent_path, sssp_row_with_parents, DiGraph,
    EdgeDelta, ExtWeight, NegativeCycleError, PathOracle, WeightMatrix,
};
use rand::Rng;
use std::collections::HashMap;
use std::fmt::Write as _;

/// How the engine computes its initial distance tables.
#[derive(Clone, Debug)]
pub enum LoadPlan {
    /// Distributed witnessed squaring ([`crate::apsp_with_paths`]):
    /// distances plus the witness structure for explicit routes.
    Witnessed {
        /// Quantum or classical Step-3 searches.
        backend: SearchBackend,
    },
    /// The Las-Vegas driver ([`apsp_driver`]): fault injection,
    /// certificate verification and the semiring fallback all compose.
    /// Routes are served from per-source relaxations instead of witnesses.
    Driver(Box<DriverConfig>),
}

/// Configuration of a [`QueryEngine`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// How to compute the initial tables.
    pub plan: LoadPlan,
    /// Paper constants for the witnessed-squaring plan.
    pub params: Params,
    /// `Some(cap)` bounds resident memory to `cap` per-source rows (LRU);
    /// `None` keeps the full matrix.
    pub row_cache: Option<usize>,
}

/// What the initial APSP run reported, echoed in the `ready` banner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoadReport {
    /// Rounds charged on the simulated network (all attempts, for the
    /// driver plan).
    pub rounds: u64,
    /// Certificate verdict of the accepted matrix (`None` when
    /// verification was not requested).
    pub verified: Option<bool>,
    /// Whether the accepted matrix came from the semiring fallback.
    pub used_fallback: bool,
}

/// Serving counters, exposed by the `stats` request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Point queries answered (`dist` + `path`).
    pub queries: u64,
    /// `dist` queries answered.
    pub dist_queries: u64,
    /// `path` queries answered.
    pub path_queries: u64,
    /// `update` requests applied (rejected ones excluded).
    pub updates: u64,
    /// Batches processed.
    pub batches: u64,
    /// Row-cache lookups served from a resident row.
    pub row_hits: u64,
    /// Row-cache lookups that paid a single-source relaxation.
    pub row_misses: u64,
    /// Rows evicted by the LRU policy.
    pub row_evictions: u64,
    /// Updates repaired by relaxing through the changed arcs.
    pub delta_repairs: u64,
    /// Updates that fell back to a full recompute (or, in row mode,
    /// invalidated the cache).
    pub full_recomputes: u64,
}

/// One edge change inside an `update` request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeChange {
    /// Tail vertex.
    pub u: usize,
    /// Head vertex.
    pub v: usize,
    /// New weight; `None` removes the arc.
    pub weight: Option<i64>,
}

/// A parsed serve request (one NDJSON line).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeRequest {
    /// Shortest distance from `u` to `v`.
    Dist {
        /// Client-chosen id echoed in the response.
        id: Option<i64>,
        /// Source vertex.
        u: usize,
        /// Target vertex.
        v: usize,
    },
    /// Explicit shortest route from `u` to `v`.
    Path {
        /// Client-chosen id echoed in the response.
        id: Option<i64>,
        /// Source vertex.
        u: usize,
        /// Target vertex.
        v: usize,
    },
    /// Apply edge-weight changes and repair the tables.
    Update {
        /// Client-chosen id echoed in the response.
        id: Option<i64>,
        /// The changes, applied atomically.
        changes: Vec<EdgeChange>,
    },
    /// Report the serving counters.
    Stats {
        /// Client-chosen id echoed in the response.
        id: Option<i64>,
    },
    /// Stop serving after answering.
    Shutdown {
        /// Client-chosen id echoed in the response.
        id: Option<i64>,
    },
}

impl ServeRequest {
    /// Whether the request only reads the tables (batchable/reorderable).
    fn read_source(&self) -> Option<usize> {
        match *self {
            ServeRequest::Dist { u, .. } | ServeRequest::Path { u, .. } => Some(u),
            _ => None,
        }
    }
}

/// The responses of one batch, in request order.
#[derive(Clone, Debug)]
pub struct BatchOutput {
    /// One rendered NDJSON line per request.
    pub responses: Vec<String>,
    /// `true` when the batch contained a `shutdown` request.
    pub shutdown: bool,
}

/// How an update was absorbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateMethod {
    /// Relaxing through the changed arcs repaired the matrix.
    DeltaRepair,
    /// Full recompute (dense mode) or cache invalidation (row mode).
    Recompute,
    /// Every change restated the existing weight; nothing to do.
    Noop,
}

impl UpdateMethod {
    fn as_str(self) -> &'static str {
        match self {
            UpdateMethod::DeltaRepair => "delta_repair",
            UpdateMethod::Recompute => "full_recompute",
            UpdateMethod::Noop => "noop",
        }
    }
}

struct CachedRow {
    dist: Vec<ExtWeight>,
    parents: Option<Vec<Option<usize>>>,
    tick: u64,
}

/// The serving engine: one APSP run's tables plus the machinery to answer
/// point queries, absorb updates, and bound resident memory.
pub struct QueryEngine {
    graph: DiGraph,
    /// Dense mode: the full distance matrix.
    distances: Option<WeightMatrix>,
    /// Witness structure from the initial run (dense mode only; dropped
    /// on the first update).
    oracle: Option<PathOracle>,
    rows: HashMap<usize, CachedRow>,
    row_cap: usize,
    tick: u64,
    stats: ServeStats,
    load: LoadReport,
}

impl QueryEngine {
    /// Runs the configured APSP once and builds the engine.
    ///
    /// # Errors
    ///
    /// Propagates the underlying run's [`ApspError`] — notably
    /// [`ApspError::VerificationFailed`] when the driver plan exhausts its
    /// attempts without a certified matrix.
    pub fn load<R: Rng>(
        graph: DiGraph,
        cfg: &EngineConfig,
        rng: &mut R,
        trace: Option<&TraceSink>,
    ) -> Result<QueryEngine, ApspError> {
        let (distances, oracle, load) = match &cfg.plan {
            LoadPlan::Witnessed { backend } => {
                let rep = apsp_with_paths_traced(&graph, cfg.params, *backend, rng, trace)?;
                let load = LoadReport {
                    rounds: rep.rounds,
                    verified: None,
                    used_fallback: false,
                };
                (rep.oracle.distances().clone(), Some(rep.oracle), load)
            }
            LoadPlan::Driver(dc) => {
                let rep = apsp_driver(&graph, dc, rng, trace)?;
                let load = LoadReport {
                    rounds: rep.total_rounds,
                    verified: dc.verify.then_some(rep.verified),
                    used_fallback: rep.used_fallback,
                };
                (rep.report.distances, None, load)
            }
        };
        Ok(Self::assemble(
            graph,
            distances,
            oracle,
            cfg.row_cache,
            load,
        ))
    }

    /// Builds an engine directly from precomputed tables — the constructor
    /// benches and tests use to skip the simulated network run. `oracle`
    /// must have been built for `graph`'s current adjacency.
    ///
    /// # Panics
    ///
    /// Panics if the oracle's dimension differs from the graph's.
    pub fn from_tables(
        graph: DiGraph,
        oracle: PathOracle,
        row_cache: Option<usize>,
    ) -> QueryEngine {
        assert_eq!(oracle.distances().n(), graph.n(), "dimension mismatch");
        let distances = oracle.distances().clone();
        let load = LoadReport {
            rounds: 0,
            verified: None,
            used_fallback: false,
        };
        Self::assemble(graph, distances, Some(oracle), row_cache, load)
    }

    fn assemble(
        graph: DiGraph,
        distances: WeightMatrix,
        oracle: Option<PathOracle>,
        row_cache: Option<usize>,
        load: LoadReport,
    ) -> QueryEngine {
        let n = graph.n();
        let mut engine = QueryEngine {
            graph,
            distances: None,
            oracle: None,
            rows: HashMap::new(),
            row_cap: n.max(1),
            tick: 0,
            stats: ServeStats::default(),
            load,
        };
        match row_cache {
            Some(cap) => {
                // Row mode: seed the cache with the first rows of the one
                // matrix we computed, then drop it. Parents are filled
                // lazily by the first path query against each row.
                engine.row_cap = cap.max(1);
                for u in 0..n.min(engine.row_cap) {
                    engine.tick += 1;
                    engine.rows.insert(
                        u,
                        CachedRow {
                            dist: distances.row(u).to_vec(),
                            parents: None,
                            tick: engine.tick,
                        },
                    );
                }
            }
            None => {
                engine.distances = Some(distances);
                engine.oracle = oracle;
            }
        }
        engine
    }

    /// Vertex count of the served graph.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// `"full"` (dense matrix resident) or `"rows"` (bounded row cache).
    pub fn mode(&self) -> &'static str {
        if self.distances.is_some() {
            "full"
        } else {
            "rows"
        }
    }

    /// The serving counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// What the initial APSP run reported.
    pub fn load_report(&self) -> &LoadReport {
        &self.load
    }

    /// The currently served graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The `ready` banner emitted before serving starts.
    pub fn ready_line(&self) -> String {
        let mut s = format!(
            "{{\"ok\":true,\"op\":\"ready\",\"n\":{},\"mode\":\"{}\",\"rounds\":{}",
            self.n(),
            self.mode(),
            self.load.rounds
        );
        match self.load.verified {
            Some(v) => {
                let _ = write!(s, ",\"verified\":{v}");
            }
            None => s.push_str(",\"verified\":null"),
        }
        let _ = write!(s, ",\"fallback\":{}}}", self.load.used_fallback);
        s
    }

    /// Answers one drained batch. Parse failures (the `Err` entries)
    /// become in-order error responses; runs of consecutive read-only
    /// requests are answered in source-sorted order (stable) so each
    /// distance row is fetched at most once per run, with responses
    /// restored to request order.
    pub fn answer_batch(&mut self, requests: &[Result<ServeRequest, String>]) -> BatchOutput {
        self.stats.batches += 1;
        let mut responses: Vec<String> = vec![String::new(); requests.len()];
        let mut shutdown = false;
        let mut i = 0;
        while i < requests.len() {
            match &requests[i] {
                Err(msg) => {
                    responses[i] = render_error(None, msg);
                    i += 1;
                }
                Ok(ServeRequest::Dist { .. } | ServeRequest::Path { .. }) => {
                    let mut run: Vec<usize> = Vec::new();
                    while i < requests.len() {
                        match &requests[i] {
                            Ok(r) if r.read_source().is_some() => {
                                run.push(i);
                                i += 1;
                            }
                            _ => break,
                        }
                    }
                    run.sort_by_key(|&k| match &requests[k] {
                        Ok(r) => r.read_source().unwrap_or(0),
                        Err(_) => 0,
                    });
                    for k in run {
                        if let Ok(r) = &requests[k] {
                            responses[k] = self.answer_read(r);
                        }
                    }
                }
                Ok(ServeRequest::Update { id, changes }) => {
                    responses[i] = self.answer_update(*id, changes);
                    i += 1;
                }
                Ok(ServeRequest::Stats { id }) => {
                    responses[i] = self.render_stats(*id);
                    i += 1;
                }
                Ok(ServeRequest::Shutdown { id }) => {
                    shutdown = true;
                    responses[i] = render_ok_head("shutdown", *id) + "}";
                    i += 1;
                }
            }
        }
        BatchOutput {
            responses,
            shutdown,
        }
    }

    /// Shortest distance from `u` to `v` (`PosInf` when unreachable).
    ///
    /// # Errors
    ///
    /// A message when an endpoint is out of range or a row recompute
    /// fails.
    pub fn dist(&mut self, u: usize, v: usize) -> Result<ExtWeight, String> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if let Some(d) = &self.distances {
            return Ok(d[(u, v)]);
        }
        self.ensure_row(u, false)?;
        Ok(self.rows[&u].dist[v])
    }

    /// Explicit shortest route from `u` to `v` with its total weight, or
    /// `None` when `v` is unreachable.
    ///
    /// # Errors
    ///
    /// A message when an endpoint is out of range or a row recompute
    /// fails.
    pub fn path(&mut self, u: usize, v: usize) -> Result<Option<(ExtWeight, Vec<usize>)>, String> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if let Some(oracle) = &self.oracle {
            let d = oracle.distances()[(u, v)];
            return Ok(oracle.path(u, v).map(|p| (d, p)));
        }
        self.ensure_row(u, true)?;
        let row = &self.rows[&u];
        let d = row.dist[v];
        if !d.is_finite() {
            return Ok(None);
        }
        let parents = row
            .parents
            .as_ref()
            .ok_or_else(|| "internal: row missing parents".to_string())?;
        let p = parent_path(u, v, parents)
            .ok_or_else(|| "internal: parent pointers did not reach the source".to_string())?;
        Ok(Some((d, p)))
    }

    /// Applies edge changes atomically: decrease-only updates in dense
    /// mode are repaired exactly ([`delta_repair`]); everything else
    /// recomputes (dense) or invalidates the cache (row mode). An update
    /// that would create a negative cycle is rejected with the previous
    /// state fully preserved.
    ///
    /// # Errors
    ///
    /// A message naming the offending change; the graph and tables are
    /// left untouched.
    pub fn update(&mut self, changes: &[EdgeChange]) -> Result<UpdateMethod, String> {
        let n = self.n();
        for c in changes {
            if c.u >= n || c.v >= n {
                return Err(format!("edge ({}, {}) out of range for n = {n}", c.u, c.v));
            }
            if c.u == c.v {
                return Err(format!("self-loop ({}, {}) is not allowed", c.u, c.u));
            }
        }
        // Snapshot, then apply.
        let old: Vec<(usize, usize, ExtWeight)> = changes
            .iter()
            .map(|c| (c.u, c.v, self.graph.weight(c.u, c.v)))
            .collect();
        let mut decrease_only = true;
        let mut deltas: Vec<EdgeDelta> = Vec::new();
        for c in changes {
            let old_w = self.graph.weight(c.u, c.v);
            match c.weight {
                Some(w) => {
                    self.graph.add_arc(c.u, c.v, w);
                    let new_w = ExtWeight::from(w);
                    if new_w > old_w {
                        decrease_only = false;
                    } else if new_w < old_w {
                        deltas.push(EdgeDelta {
                            u: c.u,
                            v: c.v,
                            weight: new_w,
                        });
                    }
                }
                None => {
                    self.graph.remove_arc(c.u, c.v);
                    if old_w.is_finite() {
                        decrease_only = false;
                    }
                }
            }
        }
        if decrease_only && deltas.is_empty() {
            return Ok(UpdateMethod::Noop);
        }
        let method = self.absorb(decrease_only, &deltas);
        match method {
            Ok(m) => {
                self.stats.updates += 1;
                self.oracle = None;
                self.rows.clear();
                Ok(m)
            }
            Err(e) => {
                // Revert the graph; tables were not touched.
                for &(u, v, w) in &old {
                    match w {
                        ExtWeight::Finite(x) => self.graph.add_arc(u, v, x),
                        _ => self.graph.remove_arc(u, v),
                    }
                }
                Err(e)
            }
        }
    }

    /// Repair-or-recompute after the graph mutation has been applied.
    fn absorb(
        &mut self,
        decrease_only: bool,
        deltas: &[EdgeDelta],
    ) -> Result<UpdateMethod, String> {
        let rejected = |_| "update rejected: it would create a negative cycle".to_string();
        match &self.distances {
            Some(d) if decrease_only => {
                self.distances = Some(delta_repair(d, deltas).map_err(rejected)?);
                self.stats.delta_repairs += 1;
                Ok(UpdateMethod::DeltaRepair)
            }
            Some(_) => {
                let fw = floyd_warshall(&self.graph.adjacency_matrix()).map_err(rejected)?;
                self.distances = Some(fw);
                self.stats.full_recomputes += 1;
                Ok(UpdateMethod::Recompute)
            }
            None => {
                // Row mode: no matrix to repair; rows are recomputed lazily.
                if has_negative_cycle(&self.graph) {
                    return Err(rejected(NegativeCycleError));
                }
                self.stats.full_recomputes += 1;
                Ok(UpdateMethod::Recompute)
            }
        }
    }

    fn check_vertex(&self, u: usize) -> Result<(), String> {
        if u < self.n() {
            Ok(())
        } else {
            Err(format!("vertex {u} out of range for n = {}", self.n()))
        }
    }

    /// Makes row `u` resident (with parents when `need_parents`), paying a
    /// single-source relaxation on miss and evicting the least-recently
    /// used row when over budget.
    fn ensure_row(&mut self, u: usize, need_parents: bool) -> Result<(), String> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(row) = self.rows.get_mut(&u) {
            if !need_parents || row.parents.is_some() {
                row.tick = tick;
                self.stats.row_hits += 1;
                return Ok(());
            }
        }
        let resident = self.rows.contains_key(&u);
        self.stats.row_misses += 1;
        let (dist, parents) =
            sssp_row_with_parents(&self.graph, u).map_err(|e| format!("row recompute: {e}"))?;
        if !resident && self.rows.len() >= self.row_cap {
            if let Some(&evict) = self.rows.iter().min_by_key(|(_, r)| r.tick).map(|(k, _)| k) {
                self.rows.remove(&evict);
                self.stats.row_evictions += 1;
            }
        }
        self.rows.insert(
            u,
            CachedRow {
                dist,
                parents: Some(parents),
                tick,
            },
        );
        Ok(())
    }

    fn answer_read(&mut self, req: &ServeRequest) -> String {
        match *req {
            ServeRequest::Dist { id, u, v } => {
                self.stats.queries += 1;
                self.stats.dist_queries += 1;
                match self.dist(u, v) {
                    Ok(d) => {
                        let mut s = render_ok_head("dist", id);
                        let _ = write!(s, ",\"u\":{u},\"v\":{v},\"dist\":");
                        push_weight(&mut s, d);
                        s.push('}');
                        s
                    }
                    Err(e) => render_error(id, &e),
                }
            }
            ServeRequest::Path { id, u, v } => {
                self.stats.queries += 1;
                self.stats.path_queries += 1;
                match self.path(u, v) {
                    Ok(found) => {
                        let mut s = render_ok_head("path", id);
                        let _ = write!(s, ",\"u\":{u},\"v\":{v},\"dist\":");
                        match found {
                            Some((d, p)) => {
                                push_weight(&mut s, d);
                                s.push_str(",\"path\":[");
                                for (k, x) in p.iter().enumerate() {
                                    if k > 0 {
                                        s.push(',');
                                    }
                                    let _ = write!(s, "{x}");
                                }
                                s.push(']');
                            }
                            None => s.push_str("null,\"path\":null"),
                        }
                        s.push('}');
                        s
                    }
                    Err(e) => render_error(id, &e),
                }
            }
            _ => unreachable!("answer_read only receives read requests"),
        }
    }

    fn answer_update(&mut self, id: Option<i64>, changes: &[EdgeChange]) -> String {
        match self.update(changes) {
            Ok(method) => {
                let mut s = render_ok_head("update", id);
                let _ = write!(
                    s,
                    ",\"changes\":{},\"method\":\"{}\"}}",
                    changes.len(),
                    method.as_str()
                );
                s
            }
            Err(e) => render_error(id, &e),
        }
    }

    fn render_stats(&mut self, id: Option<i64>) -> String {
        let mut s = render_ok_head("stats", id);
        let st = self.stats;
        let _ = write!(
            s,
            ",\"n\":{},\"mode\":\"{}\",\"queries\":{},\"dist_queries\":{},\
             \"path_queries\":{},\"updates\":{},\"batches\":{},\"row_hits\":{},\
             \"row_misses\":{},\"row_evictions\":{},\"delta_repairs\":{},\
             \"full_recomputes\":{}}}",
            self.n(),
            self.mode(),
            st.queries,
            st.dist_queries,
            st.path_queries,
            st.updates,
            st.batches,
            st.row_hits,
            st.row_misses,
            st.row_evictions,
            st.delta_repairs,
            st.full_recomputes
        );
        s
    }
}

fn render_ok_head(op: &str, id: Option<i64>) -> String {
    let mut s = format!("{{\"ok\":true,\"op\":\"{op}\"");
    if let Some(id) = id {
        let _ = write!(s, ",\"id\":{id}");
    }
    s
}

/// Renders an error response line.
pub fn render_error(id: Option<i64>, msg: &str) -> String {
    let mut s = String::from("{\"ok\":false");
    if let Some(id) = id {
        let _ = write!(s, ",\"id\":{id}");
    }
    s.push_str(",\"error\":\"");
    json::escape_into(&mut s, msg);
    s.push_str("\"}");
    s
}

fn push_weight(s: &mut String, w: ExtWeight) {
    match w {
        ExtWeight::Finite(x) => {
            let _ = write!(s, "{x}");
        }
        // NegInf cannot occur (no negative cycles survive an update);
        // render any infinity as "unreachable".
        _ => s.push_str("null"),
    }
}

/// Rejects, in document order, the first number of a request that is not
/// an `i64` integer: ids, indices and weights are all integers.
fn check_integers(value: &Value) -> Result<(), String> {
    match value {
        Value::Number(text) if value.as_i64().is_none() => Err(if text.contains(['.', 'e', 'E']) {
            "only integers are accepted".into()
        } else {
            format!("number out of range: {text}")
        }),
        Value::Array(items) => items.iter().try_for_each(check_integers),
        Value::Object(fields) => fields.iter().try_for_each(|(_, v)| check_integers(v)),
        _ => Ok(()),
    }
}

fn as_index(object: &Value, key: &str) -> Result<usize, String> {
    match object.get(key).map(Value::as_i64) {
        Some(Some(x)) if x >= 0 => Ok(x as usize),
        Some(Some(x)) => Err(format!("\"{key}\" must be nonnegative, got {x}")),
        Some(None) => Err(format!("\"{key}\" must be an integer")),
        None => Err(format!("missing field \"{key}\"")),
    }
}

fn as_id(object: &Value) -> Result<Option<i64>, String> {
    match object.get("id") {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_i64()
            .map(Some)
            .ok_or_else(|| "\"id\" must be an integer".into()),
    }
}

fn check_keys(fields: &[(String, Value)], allowed: &[&str]) -> Result<(), String> {
    for (k, _) in fields {
        if !allowed.contains(&k.as_str()) {
            return Err(format!(
                "unknown field \"{k}\" (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

/// Parses one NDJSON request line. The schema, by `"op"`:
///
/// * `{"op":"dist","id":1,"u":0,"v":5}` — shortest distance `u → v`;
/// * `{"op":"path","id":2,"u":0,"v":5}` — explicit shortest route;
/// * `{"op":"update","id":3,"changes":[{"u":0,"v":1,"weight":7},
///   {"u":2,"v":3}]}` — set arc weights (`weight` omitted or `null`
///   deletes the arc), applied atomically;
/// * `{"op":"stats","id":4}` — serving counters;
/// * `{"op":"shutdown","id":5}` — answer, then stop serving.
///
/// `id` is optional everywhere and echoed verbatim. Unknown fields and
/// unknown ops are rejected, mirroring the strict CLI flag parser.
///
/// # Errors
///
/// A human-readable message describing the malformed line; the serve loop
/// turns it into an `{"ok":false,...}` response.
pub fn parse_request(line: &str) -> Result<ServeRequest, String> {
    let (request, rest) = json::parse(line).map_err(|e| e.message)?;
    check_integers(&request)?;
    if !rest.is_empty() {
        return Err("trailing characters after the request object".into());
    }
    let Value::Object(fields) = &request else {
        return Err("request must be a JSON object".into());
    };
    let op = match request.get("op") {
        Some(Value::String(s)) => s.as_str(),
        Some(_) => return Err("\"op\" must be a string".into()),
        None => return Err("missing field \"op\"".into()),
    };
    match op {
        "dist" | "path" => {
            check_keys(fields, &["op", "id", "u", "v"])?;
            let id = as_id(&request)?;
            let u = as_index(&request, "u")?;
            let v = as_index(&request, "v")?;
            Ok(if op == "dist" {
                ServeRequest::Dist { id, u, v }
            } else {
                ServeRequest::Path { id, u, v }
            })
        }
        "update" => {
            check_keys(fields, &["op", "id", "changes"])?;
            let id = as_id(&request)?;
            let Some(Value::Array(items)) = request.get("changes") else {
                return Err("\"changes\" must be an array of edge objects".into());
            };
            if items.is_empty() {
                return Err("\"changes\" must not be empty".into());
            }
            let mut changes = Vec::with_capacity(items.len());
            for item in items {
                let Value::Object(f) = item else {
                    return Err("each change must be an object".into());
                };
                check_keys(f, &["u", "v", "weight"])?;
                let u = as_index(item, "u")?;
                let v = as_index(item, "v")?;
                let weight = match item.get("weight") {
                    None | Some(Value::Null) => None,
                    Some(w) => Some(w.as_i64().ok_or("\"weight\" must be an integer or null")?),
                };
                changes.push(EdgeChange { u, v, weight });
            }
            Ok(ServeRequest::Update { id, changes })
        }
        "stats" => {
            check_keys(fields, &["op", "id"])?;
            Ok(ServeRequest::Stats {
                id: as_id(&request)?,
            })
        }
        "shutdown" => {
            check_keys(fields, &["op", "id"])?;
            Ok(ServeRequest::Shutdown {
                id: as_id(&request)?,
            })
        }
        other => Err(format!("unknown op: \"{other}\"")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcc_graph::{floyd_warshall, random_reweighted_digraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine(n: usize, seed: u64, row_cache: Option<usize>) -> (QueryEngine, WeightMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = random_reweighted_digraph(n, 0.5, 8, &mut rng);
        let adj = g.adjacency_matrix();
        let oracle = PathOracle::build(&adj);
        let fw = floyd_warshall(&adj).unwrap();
        (QueryEngine::from_tables(g, oracle, row_cache), fw)
    }

    #[test]
    fn parse_round_trips_every_op() {
        assert_eq!(
            parse_request("{\"op\":\"dist\",\"id\":1,\"u\":0,\"v\":5}"),
            Ok(ServeRequest::Dist {
                id: Some(1),
                u: 0,
                v: 5
            })
        );
        assert_eq!(
            parse_request("{\"op\":\"path\",\"u\":2,\"v\":3}"),
            Ok(ServeRequest::Path {
                id: None,
                u: 2,
                v: 3
            })
        );
        assert_eq!(
            parse_request(
                "{\"op\":\"update\",\"id\":-4,\"changes\":[{\"u\":0,\"v\":1,\"weight\":-2},{\"u\":1,\"v\":2}]}"
            ),
            Ok(ServeRequest::Update {
                id: Some(-4),
                changes: vec![
                    EdgeChange {
                        u: 0,
                        v: 1,
                        weight: Some(-2)
                    },
                    EdgeChange {
                        u: 1,
                        v: 2,
                        weight: None
                    }
                ]
            })
        );
        assert_eq!(
            parse_request(" {\"op\":\"stats\"} "),
            Ok(ServeRequest::Stats { id: None })
        );
        assert_eq!(
            parse_request("{\"op\":\"shutdown\",\"id\":9}"),
            Ok(ServeRequest::Shutdown { id: Some(9) })
        );
    }

    #[test]
    fn parse_rejects_malformed_lines_with_messages() {
        for (line, needle) in [
            ("", "end of line"),
            ("not json", "malformed literal"),
            ("[1,2]", "must be a JSON object"),
            ("{\"op\":\"dist\",\"u\":0}", "missing field \"v\""),
            ("{\"op\":\"dist\",\"u\":-1,\"v\":0}", "nonnegative"),
            ("{\"op\":\"teleport\"}", "unknown op"),
            ("{\"op\":\"dist\",\"u\":0,\"v\":1,\"w\":2}", "unknown field"),
            ("{\"op\":\"dist\",\"u\":0,\"v\":1} extra", "trailing"),
            ("{\"op\":\"update\",\"changes\":[]}", "must not be empty"),
            ("{\"op\":\"dist\",\"u\":1.5,\"v\":0}", "integers"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }

    #[test]
    fn deeply_nested_requests_are_rejected_not_overflowed() {
        let err = parse_request(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
    }

    #[test]
    fn dense_engine_answers_from_the_matrix() {
        let (mut eng, fw) = engine(8, 11, None);
        assert_eq!(eng.mode(), "full");
        for u in 0..8 {
            for v in 0..8 {
                assert_eq!(eng.dist(u, v).unwrap(), fw[(u, v)], "({u},{v})");
            }
        }
        assert!(eng.dist(0, 99).is_err());
        assert_eq!(eng.stats().row_misses, 0);
    }

    #[test]
    fn row_mode_recomputes_evicted_rows_exactly() {
        let (mut eng, fw) = engine(10, 12, Some(2));
        assert_eq!(eng.mode(), "rows");
        // Sweep sources far beyond the 2-row budget, twice.
        for _ in 0..2 {
            for u in 0..10 {
                for v in 0..10 {
                    assert_eq!(eng.dist(u, v).unwrap(), fw[(u, v)], "({u},{v})");
                }
            }
        }
        assert!(eng.stats().row_evictions > 0, "eviction must have happened");
        assert!(eng.stats().row_misses > 0);
        assert!(eng.stats().row_hits > 0);
    }

    #[test]
    fn paths_carry_their_advertised_weight() {
        for row_cache in [None, Some(3)] {
            let (mut eng, fw) = engine(9, 13, row_cache);
            let g = eng.graph().clone();
            for u in 0..9 {
                for v in 0..9 {
                    match eng.path(u, v).unwrap() {
                        Some((d, p)) => {
                            assert_eq!(d, fw[(u, v)]);
                            assert_eq!(p.first(), Some(&u));
                            assert_eq!(p.last(), Some(&v));
                            if u != v {
                                let w = qcc_graph::path_weight(&g, &p).expect("real hops");
                                assert_eq!(ExtWeight::from(w), d, "({u},{v})");
                            }
                        }
                        None => assert_eq!(fw[(u, v)], ExtWeight::PosInf),
                    }
                }
            }
        }
    }

    #[test]
    fn decrease_update_repairs_through_the_changed_arc() {
        let (mut eng, _) = engine(9, 14, None);
        let (u, v, w) = eng.graph().arcs().next().expect("an arc");
        // A one-step decrease on an existing arc repairs, unless it
        // creates a negative cycle — seed 14 does not.
        let method = eng
            .update(&[EdgeChange {
                u,
                v,
                weight: Some(w - 1),
            }])
            .unwrap();
        assert_eq!(method, UpdateMethod::DeltaRepair);
        assert_eq!(eng.stats().delta_repairs, 1);
        let fw = floyd_warshall(&eng.graph().adjacency_matrix()).unwrap();
        for a in 0..9 {
            for b in 0..9 {
                assert_eq!(eng.dist(a, b).unwrap(), fw[(a, b)], "({a},{b})");
            }
        }
    }

    #[test]
    fn chained_new_arcs_repair_in_one_update() {
        // Two new arcs whose shortest routes use both: the one-product
        // candidate could not chain them and the engine used to recompute.
        let mut g = DiGraph::new(4);
        g.add_arc(2, 3, 1);
        let oracle = PathOracle::build(&g.adjacency_matrix());
        let mut eng = QueryEngine::from_tables(g, oracle, None);
        let changes = [
            EdgeChange {
                u: 0,
                v: 1,
                weight: Some(2),
            },
            EdgeChange {
                u: 1,
                v: 2,
                weight: Some(-1),
            },
        ];
        assert_eq!(eng.update(&changes).unwrap(), UpdateMethod::DeltaRepair);
        assert_eq!(eng.stats().full_recomputes, 0);
        assert_eq!(eng.dist(0, 3).unwrap(), ExtWeight::from(2));
        let fw = floyd_warshall(&eng.graph().adjacency_matrix()).unwrap();
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(eng.dist(a, b).unwrap(), fw[(a, b)], "({a},{b})");
            }
        }
        assert_eq!(
            eng.path(0, 3).unwrap(),
            Some((ExtWeight::from(2), vec![0, 1, 2, 3]))
        );
    }

    #[test]
    fn increase_and_removal_take_the_recompute_path() {
        let (mut eng, _) = engine(9, 15, None);
        let (u, v, w) = eng.graph().arcs().next().expect("an arc");
        assert_eq!(
            eng.update(&[EdgeChange {
                u,
                v,
                weight: Some(w + 5)
            }])
            .unwrap(),
            UpdateMethod::Recompute
        );
        let (u2, v2, _) = eng.graph().arcs().next().expect("an arc");
        assert_eq!(
            eng.update(&[EdgeChange {
                u: u2,
                v: v2,
                weight: None
            }])
            .unwrap(),
            UpdateMethod::Recompute
        );
        assert_eq!(eng.stats().full_recomputes, 2);
        let fw = floyd_warshall(&eng.graph().adjacency_matrix()).unwrap();
        for a in 0..9 {
            for b in 0..9 {
                assert_eq!(eng.dist(a, b).unwrap(), fw[(a, b)]);
            }
        }
    }

    #[test]
    fn negative_cycle_updates_are_rejected_and_state_survives() {
        let (mut eng, fw) = engine(8, 16, None);
        // Find a reachable pair and close a violently negative cycle.
        let (u, v) = fw
            .entries()
            .find(|&(i, j, &x)| i != j && x.is_finite())
            .map(|(i, j, _)| (i, j))
            .expect("reachable pair");
        let err = eng
            .update(&[EdgeChange {
                u: v,
                v: u,
                weight: Some(-1_000_000),
            }])
            .unwrap_err();
        assert!(err.contains("negative cycle"), "{err}");
        // Graph reverted, tables intact.
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(eng.dist(a, b).unwrap(), fw[(a, b)]);
            }
        }
        assert_eq!(eng.stats().updates, 0);
    }

    #[test]
    fn noop_update_keeps_tables_and_witnesses() {
        let (mut eng, _) = engine(8, 17, None);
        let (u, v, w) = eng.graph().arcs().next().expect("an arc");
        assert_eq!(
            eng.update(&[EdgeChange {
                u,
                v,
                weight: Some(w)
            }])
            .unwrap(),
            UpdateMethod::Noop
        );
        assert!(eng.oracle.is_some(), "noop must not drop the oracle");
    }

    #[test]
    fn batch_reorders_reads_but_answers_in_request_order() {
        let (mut eng, fw) = engine(8, 18, Some(1));
        let reqs: Vec<Result<ServeRequest, String>> = vec![
            Ok(ServeRequest::Dist {
                id: Some(1),
                u: 7,
                v: 0,
            }),
            Ok(ServeRequest::Dist {
                id: Some(2),
                u: 0,
                v: 7,
            }),
            Ok(ServeRequest::Dist {
                id: Some(3),
                u: 7,
                v: 1,
            }),
            Err("bad line".into()),
            Ok(ServeRequest::Stats { id: Some(4) }),
            Ok(ServeRequest::Shutdown { id: Some(5) }),
        ];
        let out = eng.answer_batch(&reqs);
        assert!(out.shutdown);
        assert_eq!(out.responses.len(), 6);
        assert!(out.responses[0].contains("\"id\":1"));
        assert!(out.responses[1].contains("\"id\":2"));
        assert!(out.responses[3].contains("\"ok\":false"));
        assert!(out.responses[4].contains("\"op\":\"stats\""));
        assert!(out.responses[5].contains("\"op\":\"shutdown\""));
        // Coalescing: sources {7, 0, 7} answered in sorted order {0, 7, 7}.
        // Row 0 was seeded at load, row 7 is fetched once and then reused —
        // a single miss even with a 1-row budget.
        assert_eq!(eng.stats().row_misses, 1);
        assert_eq!(eng.stats().row_hits, 2);
        assert_eq!(eng.stats().row_evictions, 1);
        // Spot-check a value against the oracle matrix.
        let expect = match fw[(7, 0)] {
            ExtWeight::Finite(x) => format!("\"dist\":{x}"),
            _ => "\"dist\":null".into(),
        };
        assert!(out.responses[0].contains(&expect), "{}", out.responses[0]);
    }

    #[test]
    fn ready_line_reports_mode_and_load() {
        let (eng, _) = engine(6, 19, None);
        let line = eng.ready_line();
        assert!(line.contains("\"op\":\"ready\""), "{line}");
        assert!(line.contains("\"n\":6"), "{line}");
        assert!(line.contains("\"mode\":\"full\""), "{line}");
        assert!(line.contains("\"verified\":null"), "{line}");
        // The banner itself must parse as a JSON object.
        assert!(json::parse(&line).is_ok());
    }

    #[test]
    fn responses_escape_error_text() {
        let line = render_error(Some(3), "bad \"quote\" and \\ backslash\n");
        assert!(line.contains("\\\"quote\\\""), "{line}");
        assert!(line.contains("\\\\ backslash\\n"), "{line}");
        assert!(json::parse(&line).is_ok(), "{line}");
    }

    #[test]
    fn load_runs_the_driver_plan() {
        let mut rng = StdRng::seed_from_u64(20);
        let g = random_reweighted_digraph(8, 0.5, 6, &mut rng);
        let fw = floyd_warshall(&g.adjacency_matrix()).unwrap();
        let cfg = EngineConfig {
            plan: LoadPlan::Driver(Box::new(DriverConfig {
                algorithm: crate::apsp::ApspAlgorithm::NaiveBroadcast,
                ..DriverConfig::default()
            })),
            params: Params::paper(),
            row_cache: None,
        };
        let mut eng = QueryEngine::load(g, &cfg, &mut rng, None).unwrap();
        assert_eq!(eng.load_report().verified, Some(true));
        assert!(eng.load_report().rounds > 0);
        for u in 0..8 {
            for v in 0..8 {
                assert_eq!(eng.dist(u, v).unwrap(), fw[(u, v)]);
            }
        }
        // No witnesses from the driver: paths come from parent rows.
        let (d, p) = eng
            .path(
                fw.entries()
                    .find(|&(i, j, &x)| i != j && x.is_finite())
                    .map(|(i, _, _)| i)
                    .unwrap(),
                fw.entries()
                    .find(|&(i, j, &x)| i != j && x.is_finite())
                    .map(|(_, j, _)| j)
                    .unwrap(),
            )
            .unwrap()
            .expect("reachable");
        assert!(p.len() >= 2);
        assert!(d.is_finite());
    }

    #[test]
    fn load_runs_the_witnessed_plan() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = random_reweighted_digraph(7, 0.5, 5, &mut rng);
        let fw = floyd_warshall(&g.adjacency_matrix()).unwrap();
        let cfg = EngineConfig {
            plan: LoadPlan::Witnessed {
                backend: SearchBackend::Classical,
            },
            params: Params::paper(),
            row_cache: None,
        };
        let mut eng = QueryEngine::load(g, &cfg, &mut rng, None).unwrap();
        assert!(eng.oracle.is_some());
        for u in 0..7 {
            for v in 0..7 {
                assert_eq!(eng.dist(u, v).unwrap(), fw[(u, v)]);
            }
        }
    }
}
