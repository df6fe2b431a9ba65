//! NDJSON congestion tracing: sink, parser, and tree summary.
//!
//! The simulator's metrics answer "how many rounds did this run take";
//! traces answer "*which step* burned them and *which link* ran hot". A
//! [`TraceSink`] receives one event per span open/close and one per
//! communication call (`exchange`/`route`/`broadcast`/`gossip`), written as
//! newline-delimited JSON so external tools can stream it. The sink is a
//! cheap shared handle: an algorithm that builds several [`crate::Clique`]s
//! in sequence (e.g. one per distance product) attaches the same sink to
//! each, and driver code can open its own grouping spans around them
//! ([`TraceSink::open_span`]) so the final tree reads
//! `apsp/product-3/step3/...` end to end.
//!
//! Four event kinds appear in a trace file:
//!
//! * `{"ev":"open","id":3,"parent":1,"label":"product-0","factor":9}` —
//!   a span opened (`parent` omitted for roots, `factor` omitted when 1;
//!   a factor scales the whole subtree when rolled into parents, used for
//!   the paper's virtual-node simulation constants).
//! * `{"ev":"close","id":3,"rounds":12}` — a span closed; a span closed
//!   by [`crate::Metrics`] records the rounds charged in its subtree
//!   (factors not applied), driver spans close bare. Traces written
//!   before this format also carried `messages`, `bits`, the three maxima,
//!   `calls` and `hist` on such a close; the parser reads them and ignores
//!   them, since the span's `comm` events carry the same statistics.
//! * `{"ev":"comm","kind":"route","span":3,"rounds":2,...}` — one
//!   communication call, attributed to the innermost open span (`span`
//!   omitted if none was open). Its `max_link_bits` is the busiest
//!   `(src, dst)` link's bits for a direct call; for a `route` it is the
//!   busiest relay link of one hop, `⌈Δ/n⌉·B` for maximum per-node unit
//!   load `Δ`, so `rounds = 2·max_link_bits/B`.
//! * `{"ev":"fault","kind":"drop","span":3}` — one injected network fault
//!   (`drop`, `corrupt`, `duplicate`, or `crash`; see [`crate::FaultPlan`]),
//!   attributed like a `comm` event. Fault events carry no round charges —
//!   the wire cost of a faulted message is already in its `comm` event.
//!
//! Spans are strictly nested (the file is a preorder walk of the tree) and
//! ids are unique and increasing. [`parse_trace`] reads a file back,
//! [`TraceSummary`] rebuilds the tree (rejecting any event that breaks the
//! nesting, and any total that leaves `u64`), checks each recorded close
//! `rounds` against the span's comm events, and renders the
//! rounds/bits/max-link breakdown shown by `qcc trace-summary`.

use crate::json::{self, Value};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Totals accumulated from `comm` events attributed to one span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommTotals {
    /// Rounds charged (unscaled; ancestors' factors are applied on rollup).
    pub rounds: u64,
    /// Messages transmitted.
    pub messages: u64,
    /// Bits transmitted.
    pub bits: u64,
    /// Largest per-link bit volume of any single call.
    pub max_link_bits: u64,
    /// Largest per-node outgoing bit volume of any single call.
    pub max_node_out_bits: u64,
    /// Largest per-node incoming bit volume of any single call.
    pub max_node_in_bits: u64,
    /// Number of communication calls.
    pub calls: u64,
}

impl CommTotals {
    /// Folds one comm event into the totals; `None` when a sum leaves `u64`.
    fn absorb(&mut self, e: &CommEvent) -> Option<()> {
        self.rounds = self.rounds.checked_add(e.rounds)?;
        self.messages = self.messages.checked_add(e.messages)?;
        self.bits = self.bits.checked_add(e.bits)?;
        self.max_link_bits = self.max_link_bits.max(e.max_link_bits);
        self.max_node_out_bits = self.max_node_out_bits.max(e.max_node_out_bits);
        self.max_node_in_bits = self.max_node_in_bits.max(e.max_node_in_bits);
        self.calls = self.calls.checked_add(1)?;
        Some(())
    }
}

// ---------------------------------------------------------------------------
// Sink
// ---------------------------------------------------------------------------

struct SinkInner {
    out: Box<dyn Write + Send>,
    /// Stack of open span ids — the sink-global nesting, shared by every
    /// `Metrics` attached to this sink plus any driver-opened spans.
    stack: Vec<u64>,
    next_id: u64,
    events: u64,
    /// First write error, kept sticky so `flush` can report it.
    error: Option<String>,
}

impl SinkInner {
    fn emit(&mut self, line: &str) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            self.error = Some(e.to_string());
            return;
        }
        self.events += 1;
    }
}

/// A shared NDJSON trace writer (see the module docs for the schema).
///
/// Cloning is cheap and clones share the underlying stream and span-id
/// space. All methods take `&self`; the sink is internally synchronized.
///
/// # Examples
///
/// ```
/// use qcc_congest::{parse_trace, Clique, Envelope, NodeId, TraceSink};
///
/// let (sink, buffer) = TraceSink::in_memory();
/// let mut net = Clique::new(4)?;
/// net.set_trace_sink(sink.clone());
/// net.begin_phase("setup");
/// net.exchange(vec![Envelope::new(NodeId::new(0), NodeId::new(1), 7u64)])?;
/// net.close_all_spans();
/// let events = parse_trace(&buffer.contents()).unwrap();
/// assert_eq!(events.len(), 3); // open + comm + close
/// # Ok::<(), qcc_congest::CongestError>(())
/// ```
#[derive(Clone)]
pub struct TraceSink {
    inner: Arc<Mutex<SinkInner>>,
    /// Events dropped because the mutex was poisoned (see
    /// [`TraceSink::dropped_events`]).
    dropped: Arc<AtomicU64>,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock_read();
        f.debug_struct("TraceSink")
            .field("events", &inner.events)
            .field("open_spans", &inner.stack.len())
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

/// In-memory capture buffer returned by [`TraceSink::in_memory`].
#[derive(Clone, Debug, Default)]
pub struct TraceBuffer(Arc<Mutex<Vec<u8>>>);

impl TraceBuffer {
    /// The NDJSON text written so far.
    #[must_use]
    pub fn contents(&self) -> String {
        let bytes = self.0.lock().unwrap_or_else(|e| e.into_inner());
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

impl Write for TraceBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl TraceSink {
    /// Creates a sink writing to an arbitrary stream.
    #[must_use]
    pub fn to_writer(out: Box<dyn Write + Send>) -> Self {
        TraceSink {
            inner: Arc::new(Mutex::new(SinkInner {
                out,
                stack: Vec::new(),
                next_id: 1,
                events: 0,
                error: None,
            })),
            dropped: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Creates a sink writing NDJSON to a (buffered) file.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn to_file<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::to_writer(Box::new(BufWriter::new(file))))
    }

    /// Creates a sink capturing into memory, for tests and tooling.
    #[must_use]
    pub fn in_memory() -> (Self, TraceBuffer) {
        let buffer = TraceBuffer::default();
        (Self::to_writer(Box::new(buffer.clone())), buffer)
    }

    /// Write-path lock. A poisoned mutex (a clique thread panicked while
    /// holding the sink) degrades to dropping the event and bumping the
    /// dropped-event counter, instead of propagating the poison panic into
    /// unrelated cliques sharing the sink.
    fn lock_mut(&self) -> Option<MutexGuard<'_, SinkInner>> {
        match self.inner.lock() {
            Ok(guard) => Some(guard),
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Read-path lock: observing state left by a panicked writer is
    /// harmless (every write either completed a whole line or set the
    /// sticky error first).
    fn lock_read(&self) -> MutexGuard<'_, SinkInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span as a child of the innermost open span; returns its id.
    pub fn open_span(&self, label: &str) -> u64 {
        self.open_span_scaled(label, 1)
    }

    /// Opens a span whose subtree counts `factor`-fold toward its parent —
    /// the paper's virtual-network simulation constants (a `Clique(3n)`
    /// product run on `n` physical nodes costs 9 physical rounds per
    /// virtual round).
    pub fn open_span_scaled(&self, label: &str, factor: u64) -> u64 {
        let Some(mut inner) = self.lock_mut() else {
            return 0;
        };
        let id = inner.next_id;
        inner.next_id += 1;
        let mut line = format!("{{\"ev\":\"open\",\"id\":{id}");
        if let Some(&parent) = inner.stack.last() {
            line.push_str(&format!(",\"parent\":{parent}"));
        }
        line.push_str(",\"label\":\"");
        json::escape_into(&mut line, label);
        line.push('"');
        if factor != 1 {
            line.push_str(&format!(",\"factor\":{factor}"));
        }
        line.push('}');
        inner.emit(&line);
        inner.stack.push(id);
        id
    }

    /// Closes the innermost open span without statistics (driver spans).
    pub fn close_span(&self) {
        self.close_span_recording(None);
    }

    /// Closes the innermost open span; [`crate::Metrics`] records the
    /// rounds charged in the span's subtree.
    pub(crate) fn close_span_recording(&self, rounds: Option<u64>) {
        let Some(mut inner) = self.lock_mut() else {
            return;
        };
        if let Some(id) = inner.stack.pop() {
            let line = match rounds {
                None => format!("{{\"ev\":\"close\",\"id\":{id}}}"),
                Some(r) => format!("{{\"ev\":\"close\",\"id\":{id},\"rounds\":{r}}}"),
            };
            inner.emit(&line);
        }
    }

    /// Records one communication call against the innermost open span.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn emit_comm(
        &self,
        kind: &str,
        rounds: u64,
        messages: u64,
        bits: u64,
        max_link_bits: u64,
        max_node_out_bits: u64,
        max_node_in_bits: u64,
    ) {
        let Some(mut inner) = self.lock_mut() else {
            return;
        };
        let mut line = String::from("{\"ev\":\"comm\",\"kind\":\"");
        json::escape_into(&mut line, kind);
        line.push('"');
        if let Some(&span) = inner.stack.last() {
            line.push_str(&format!(",\"span\":{span}"));
        }
        line.push_str(&format!(
            ",\"rounds\":{rounds},\"messages\":{messages},\"bits\":{bits},\
             \"max_link_bits\":{max_link_bits},\"max_node_out_bits\":{max_node_out_bits},\
             \"max_node_in_bits\":{max_node_in_bits}}}"
        ));
        inner.emit(&line);
    }

    /// Records one injected network fault against the innermost open span.
    pub(crate) fn emit_fault(&self, kind: &str) {
        let Some(mut inner) = self.lock_mut() else {
            return;
        };
        let mut line = String::from("{\"ev\":\"fault\",\"kind\":\"");
        json::escape_into(&mut line, kind);
        line.push('"');
        if let Some(&span) = inner.stack.last() {
            line.push_str(&format!(",\"span\":{span}"));
        }
        line.push('}');
        inner.emit(&line);
    }

    /// Events silently dropped because the sink's mutex was poisoned by a
    /// panicking writer thread.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Flushes the underlying stream.
    ///
    /// # Errors
    ///
    /// Reports the first write error encountered (writes are otherwise
    /// fire-and-forget so tracing never aborts a simulation mid-run), or an
    /// error describing how many events were dropped on a poisoned sink.
    pub fn flush(&self) -> Result<(), std::io::Error> {
        let mut inner = self.lock_read();
        if let Some(e) = inner.error.take() {
            return Err(std::io::Error::other(e));
        }
        inner.out.flush()?;
        let dropped = self.dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            return Err(std::io::Error::other(format!(
                "{dropped} trace events dropped: sink mutex was poisoned by a panicking writer"
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A parsed `comm` event (one `exchange`/`route`/`broadcast`/`gossip` call).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommEvent {
    /// Which primitive ran (`"exchange"`, `"route"`, `"broadcast"`,
    /// `"gossip"`, `"charge"`).
    pub kind: String,
    /// Innermost open span when the call ran, if any.
    pub span: Option<u64>,
    /// Rounds charged by the call.
    pub rounds: u64,
    /// Messages transmitted.
    pub messages: u64,
    /// Bits transmitted.
    pub bits: u64,
    /// Busiest-link bits of the call (one hop's busiest relay link for a
    /// `route`).
    pub max_link_bits: u64,
    /// Busiest outgoing node bits of the call.
    pub max_node_out_bits: u64,
    /// Busiest incoming node bits of the call.
    pub max_node_in_bits: u64,
}

/// One parsed trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A span opened.
    Open {
        /// Unique increasing span id.
        id: u64,
        /// Enclosing span, if any.
        parent: Option<u64>,
        /// Step label (e.g. `"step3/alpha0/eval-queries"`).
        label: String,
        /// Subtree multiplier toward the parent (1 = none).
        factor: u64,
    },
    /// A span closed; `rounds` is present when the span was closed by a
    /// [`crate::Metrics`], which records its subtree's rounds.
    Close {
        /// Id of the span being closed.
        id: u64,
        /// Recorded subtree rounds, for cross-checking.
        rounds: Option<u64>,
    },
    /// One communication call.
    Comm(CommEvent),
    /// One injected network fault (carries no round charges).
    Fault {
        /// Fault kind (`"drop"`, `"corrupt"`, `"duplicate"`, `"crash"`).
        kind: String,
        /// Innermost open span when the fault was injected, if any.
        span: Option<u64>,
    },
}

/// A trace parsing or consistency error, with the 1-based line number when
/// it arose from a specific line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based NDJSON line (0 when the error is about the whole trace).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "trace error: {}", self.message)
        } else {
            write!(f, "trace error at line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for TraceError {}

fn err(line: usize, message: impl Into<String>) -> TraceError {
    TraceError {
        line,
        message: message.into(),
    }
}

/// The error for an `event` that names span `named` (`None`: no span) while
/// `innermost` is the innermost open span.
fn misnested(event: &str, named: Option<u64>, innermost: Option<u64>) -> TraceError {
    let named = named.map_or("no span".to_string(), |id| format!("span {id}"));
    let open = innermost.map_or("no span is open".to_string(), |id| {
        format!("the innermost open span is {id}")
    });
    err(0, format!("{event} names {named}, but {open}"))
}

/// Parses one NDJSON line into a [`TraceEvent`].
///
/// # Errors
///
/// Returns a [`TraceError`] describing the first malformation.
pub fn parse_trace_line(line: &str, line_no: usize) -> Result<TraceEvent, TraceError> {
    let (event, rest) = json::parse(line).map_err(|e| err(line_no, e.to_string()))?;
    if !rest.is_empty() {
        return Err(err(line_no, "trailing characters after object"));
    }
    let Value::Object(fields) = &event else {
        return Err(err(line_no, "a trace event must be a JSON object"));
    };
    // The writer emits only strings and unsigned integers; anything else
    // is a malformed trace, even in a field this reader does not use.
    if let Some((key, _)) = fields
        .iter()
        .find(|(_, v)| v.as_str().is_none() && v.as_u64().is_none())
    {
        return Err(err(
            line_no,
            format!("field {key} must be a string or an unsigned integer"),
        ));
    }
    let missing = |key: &str| err(line_no, format!("missing field {key}"));
    let opt_num = |key: &str| match event.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| err(line_no, format!("field {key} must be a number"))),
    };
    let take_num = |key: &str| opt_num(key)?.ok_or_else(|| missing(key));
    let take_str = |key: &str| match event.get(key) {
        Some(Value::String(v)) => Ok(v.clone()),
        Some(_) => Err(err(line_no, format!("field {key} must be a string"))),
        None => Err(missing(key)),
    };
    match take_str("ev")?.as_str() {
        "open" => Ok(TraceEvent::Open {
            id: take_num("id")?,
            parent: opt_num("parent")?,
            label: take_str("label")?,
            factor: opt_num("factor")?.unwrap_or(1),
        }),
        "close" => Ok(TraceEvent::Close {
            id: take_num("id")?,
            rounds: opt_num("rounds")?,
        }),
        "comm" => Ok(TraceEvent::Comm(CommEvent {
            kind: take_str("kind")?,
            span: opt_num("span")?,
            rounds: take_num("rounds")?,
            messages: take_num("messages")?,
            bits: take_num("bits")?,
            max_link_bits: take_num("max_link_bits")?,
            max_node_out_bits: take_num("max_node_out_bits")?,
            max_node_in_bits: take_num("max_node_in_bits")?,
        })),
        "fault" => Ok(TraceEvent::Fault {
            kind: take_str("kind")?,
            span: opt_num("span")?,
        }),
        other => Err(err(line_no, format!("unknown event kind: {other}"))),
    }
}

/// Parses a whole NDJSON trace, skipping blank lines.
///
/// # Errors
///
/// Returns the first [`TraceError`] with its line number.
pub fn parse_trace(text: &str) -> Result<Vec<TraceEvent>, TraceError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_trace_line(line, i + 1)?);
    }
    Ok(events)
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

/// One reconstructed span of a [`TraceSummary`].
#[derive(Clone, Debug)]
pub struct SpanSummary {
    /// Span id from the trace.
    pub id: u64,
    /// Step label.
    pub label: String,
    /// Subtree multiplier toward the parent.
    pub factor: u64,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Comm totals attributed directly to this span (children excluded).
    pub own: CommTotals,
    /// Fault events attributed directly to this span (children excluded).
    pub faults: u64,
    /// Whether a close event was seen.
    pub closed: bool,
    /// Rounds recorded by the closing `Metrics`, for cross-checking.
    pub closed_rounds: Option<u64>,
    children: Vec<usize>,
    subtree: Subtree,
}

/// Sums over one span's subtree, taken once by [`TraceSummary::from_events`].
#[derive(Clone, Copy, Debug, Default)]
struct Subtree {
    /// Own rounds plus each child's `rounds` times the child's factor.
    rounds: u64,
    /// The same sum with every factor taken as 1, as a close event records it.
    unscaled_rounds: u64,
    bits: u64,
    calls: u64,
    max_link_bits: u64,
    faults: u64,
}

impl Subtree {
    /// Folds in the subtree of a child with the given factor; `None` when a
    /// sum leaves `u64`.
    fn add_child(self, child: Subtree, factor: u64) -> Option<Subtree> {
        Some(Subtree {
            rounds: self.rounds.checked_add(factor.checked_mul(child.rounds)?)?,
            unscaled_rounds: self.unscaled_rounds.checked_add(child.unscaled_rounds)?,
            bits: self.bits.checked_add(child.bits)?,
            calls: self.calls.checked_add(child.calls)?,
            max_link_bits: self.max_link_bits.max(child.max_link_bits),
            faults: self.faults.checked_add(child.faults)?,
        })
    }
}

/// The reconstructed span tree of one trace file.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    spans: Vec<SpanSummary>,
    roots: Vec<usize>,
    total_rounds: u64,
    /// Comm events that ran with no span open.
    pub unspanned: CommTotals,
    /// Fault events injected with no span open.
    pub unspanned_faults: u64,
}

impl TraceSummary {
    /// Rebuilds the span tree from parsed events.
    ///
    /// # Errors
    ///
    /// Rejects any event the sink could not have written, which keeps one
    /// stack of open spans: an `open` whose id does not exceed the previous
    /// span's or whose parent is not the innermost open span (none at top
    /// level), a `close` of any span but the innermost open one, and a
    /// `comm` or `fault` that names any span but the innermost open one
    /// (none only when no span is open). Also rejects any sum — a span's
    /// own or subtree counters, or the scaled round total — that leaves
    /// `u64`.
    pub fn from_events(events: &[TraceEvent]) -> Result<Self, TraceError> {
        let mut summary = TraceSummary::default();
        // Indices of the open spans, innermost last, as the sink keeps them.
        let mut open: Vec<usize> = Vec::new();
        let overflow = |id: u64| err(0, format!("the totals of span {id} overflow u64"));
        for event in events {
            let innermost = open.last().map(|&idx| summary.spans[idx].id);
            match event {
                TraceEvent::Open {
                    id,
                    parent,
                    label,
                    factor,
                } => {
                    if let Some(prev) = summary.spans.last().filter(|prev| prev.id >= *id) {
                        return Err(err(
                            0,
                            format!("span id {id} is not above the previous span id {}", prev.id),
                        ));
                    }
                    if *parent != innermost {
                        return Err(misnested(&format!("open of span {id}"), *parent, innermost));
                    }
                    let idx = summary.spans.len();
                    summary.spans.push(SpanSummary {
                        id: *id,
                        label: label.clone(),
                        factor: *factor,
                        depth: open.len(),
                        own: CommTotals::default(),
                        faults: 0,
                        closed: false,
                        closed_rounds: None,
                        children: Vec::new(),
                        subtree: Subtree::default(),
                    });
                    match open.last() {
                        Some(&p) => summary.spans[p].children.push(idx),
                        None => summary.roots.push(idx),
                    }
                    open.push(idx);
                }
                TraceEvent::Close { id, rounds } => {
                    let Some(idx) = open.pop().filter(|_| innermost == Some(*id)) else {
                        return Err(misnested("close", Some(*id), innermost));
                    };
                    summary.spans[idx].closed = true;
                    summary.spans[idx].closed_rounds = *rounds;
                }
                TraceEvent::Comm(comm) => {
                    if comm.span != innermost {
                        return Err(misnested("comm event", comm.span, innermost));
                    }
                    match open.last() {
                        None => summary.unspanned.absorb(comm).ok_or_else(|| {
                            err(0, "the totals of comm events outside any span overflow u64")
                        })?,
                        Some(&idx) => {
                            let span = &mut summary.spans[idx];
                            span.own.absorb(comm).ok_or_else(|| overflow(span.id))?
                        }
                    }
                }
                TraceEvent::Fault { span, .. } => {
                    if *span != innermost {
                        return Err(misnested("fault event", *span, innermost));
                    }
                    match open.last() {
                        None => summary.unspanned_faults += 1,
                        Some(&idx) => summary.spans[idx].faults += 1,
                    }
                }
            }
        }
        // Preorder puts every child after its parent, so one backward pass
        // sums each subtree from its children's sums.
        for idx in (0..summary.spans.len()).rev() {
            let span = &summary.spans[idx];
            let own = Subtree {
                rounds: span.own.rounds,
                unscaled_rounds: span.own.rounds,
                bits: span.own.bits,
                calls: span.own.calls,
                max_link_bits: span.own.max_link_bits,
                faults: span.faults,
            };
            let subtree = span
                .children
                .iter()
                .try_fold(own, |sum, &c| {
                    sum.add_child(summary.spans[c].subtree, summary.spans[c].factor)
                })
                .ok_or_else(|| overflow(span.id))?;
            summary.spans[idx].subtree = subtree;
        }
        summary.total_rounds = summary
            .roots
            .iter()
            .try_fold(summary.unspanned.rounds, |sum, &r| {
                let span = &summary.spans[r];
                sum.checked_add(span.factor.checked_mul(span.subtree.rounds)?)
            })
            .ok_or_else(|| err(0, "the scaled round total overflows u64"))?;
        Ok(summary)
    }

    /// The spans, in open (preorder) order.
    #[must_use]
    pub fn spans(&self) -> &[SpanSummary] {
        &self.spans
    }

    /// Indices of the root spans, in open order.
    #[must_use]
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Subtree rounds of span `idx`, *unscaled* at its own level: own
    /// rounds plus each child's subtree scaled by the child's factor.
    #[must_use]
    pub fn subtree_rounds(&self, idx: usize) -> u64 {
        self.spans[idx].subtree.rounds
    }

    /// Total fault events in the subtree of span `idx`.
    #[must_use]
    pub fn subtree_faults(&self, idx: usize) -> u64 {
        self.spans[idx].subtree.faults
    }

    /// Total fault events in the whole trace.
    #[must_use]
    pub fn total_faults(&self) -> u64 {
        self.unspanned_faults
            + self
                .roots
                .iter()
                .map(|&r| self.subtree_faults(r))
                .sum::<u64>()
    }

    /// Subtree max-link high-water mark of span `idx`.
    #[must_use]
    pub fn subtree_max_link_bits(&self, idx: usize) -> u64 {
        self.spans[idx].subtree.max_link_bits
    }

    /// Total rounds of the whole trace, with every span's factor applied:
    /// for a traced APSP run this equals the *physical* round count the
    /// algorithm reports.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.total_rounds
    }

    /// Checks internal consistency: every span closed, and every span whose
    /// close event carried recorded rounds agrees with the sum of the comm
    /// events in its subtree.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] naming the first offending span.
    pub fn verify(&self) -> Result<(), TraceError> {
        for span in &self.spans {
            if !span.closed {
                return Err(err(
                    0,
                    format!("span {} (\"{}\") was never closed", span.id, span.label),
                ));
            }
            if let Some(recorded) = span.closed_rounds {
                let summed = span.subtree.unscaled_rounds;
                if summed != recorded {
                    return Err(err(
                        0,
                        format!(
                            "span {} (\"{}\"): close event records {recorded} rounds but its \
                             comm events sum to {summed}",
                            span.id, span.label
                        ),
                    ));
                }
            }
        }
        Ok(())
    }

    /// Renders the tree (rounds, calls, bits, max-link per span) down to
    /// `max_depth` levels, ending with the scaled grand total.
    #[must_use]
    pub fn render(&self, max_depth: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>12} {:>8} {:>14} {:>12}  {}\n",
            "rounds", "calls", "bits", "max-link", "span"
        ));
        for &root in &self.roots {
            self.render_span(root, max_depth, &mut out);
        }
        if self.unspanned.calls > 0 {
            out.push_str(&format!(
                "{:>12} {:>8} {:>14} {:>12}  {}\n",
                self.unspanned.rounds,
                self.unspanned.calls,
                self.unspanned.bits,
                self.unspanned.max_link_bits,
                "(no span)"
            ));
        }
        out.push_str(&format!("total rounds (scaled): {}\n", self.total_rounds()));
        out
    }

    fn render_span(&self, idx: usize, max_depth: usize, out: &mut String) {
        let span = &self.spans[idx];
        if span.depth >= max_depth {
            return;
        }
        let sub = &span.subtree;
        let rounds_cell = if span.factor == 1 {
            sub.rounds.to_string()
        } else {
            format!("{}x{}", sub.rounds, span.factor)
        };
        let fault_cell = if sub.faults == 0 {
            String::new()
        } else {
            format!(" [{} faults]", sub.faults)
        };
        out.push_str(&format!(
            "{:>12} {:>8} {:>14} {:>12}  {}{}{}\n",
            rounds_cell,
            sub.calls,
            sub.bits,
            sub.max_link_bits,
            "  ".repeat(span.depth),
            span.label,
            fault_cell
        ));
        for &child in &span.children {
            self.render_span(child, max_depth, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_the_parser() {
        let (sink, buffer) = TraceSink::in_memory();
        let outer = sink.open_span_scaled("apsp", 1);
        let inner = sink.open_span_scaled("product-0", 9);
        sink.emit_comm("route", 2, 16, 256, 32, 128, 128);
        sink.close_span();
        sink.close_span();
        let events = parse_trace(&buffer.contents()).unwrap();
        assert_eq!(
            events[0],
            TraceEvent::Open {
                id: outer,
                parent: None,
                label: "apsp".into(),
                factor: 1
            }
        );
        assert_eq!(
            events[1],
            TraceEvent::Open {
                id: inner,
                parent: Some(outer),
                label: "product-0".into(),
                factor: 9
            }
        );
        assert!(matches!(&events[2], TraceEvent::Comm(c) if c.span == Some(inner)));
        assert_eq!(
            events[3],
            TraceEvent::Close {
                id: inner,
                rounds: None
            }
        );
    }

    #[test]
    fn labels_with_quotes_and_backslashes_survive() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.open_span("a\"b\\c\nd");
        sink.close_span();
        let events = parse_trace(&buffer.contents()).unwrap();
        assert_eq!(
            events[0],
            TraceEvent::Open {
                id: 1,
                parent: None,
                label: "a\"b\\c\nd".into(),
                factor: 1
            }
        );
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        for bad in [
            "not json",
            "{\"ev\":\"open\"}",
            "{\"ev\":\"warp\",\"id\":1}",
            "{\"ev\":\"comm\",\"kind\":\"route\",\"rounds\":1}",
            "{\"ev\":\"open\",\"id\":1,\"label\":\"x\"} extra",
            "{\"ev\":\"close\",\"id\":-1}",
            "{\"ev\":\"close\",\"id\":1.5}",
            "{\"ev\":\"close\",\"id\":true}",
            "{\"ev\":\"close\",\"id\":null}",
            "{\"ev\":\"close\",\"id\":{\"a\":1}}",
            "{\"ev\":\"close\",\"id\":[1]}",
            "{\"ev\":\"open\",\"id\":1,\"label\":\"a\\qb\"}",
            "{\"ev\":\"close\",\"id\":18446744073709551616}",
        ] {
            let text = format!("{{\"ev\":\"close\",\"id\":9}}\n{bad}\n");
            let e = parse_trace(&text).unwrap_err();
            assert_eq!(e.line, 2, "case {bad:?}: {e}");
        }
    }

    #[test]
    fn comm_counters_round_trip_at_u64_max() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.emit_comm("route", u64::MAX, u64::MAX, u64::MAX, u64::MAX, 0, u64::MAX);
        let events = parse_trace(&buffer.contents()).unwrap();
        assert_eq!(
            events,
            vec![TraceEvent::Comm(CommEvent {
                kind: "route".into(),
                span: None,
                rounds: u64::MAX,
                messages: u64::MAX,
                bits: u64::MAX,
                max_link_bits: u64::MAX,
                max_node_out_bits: 0,
                max_node_in_bits: u64::MAX,
            })]
        );
    }

    #[test]
    fn summary_scales_factors_into_the_total() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.open_span("apsp");
        sink.open_span_scaled("product-0", 9);
        sink.emit_comm("route", 3, 1, 16, 16, 16, 16);
        sink.close_span();
        sink.open_span_scaled("product-1", 9);
        sink.emit_comm("route", 4, 1, 16, 16, 16, 16);
        sink.close_span();
        sink.close_span();
        let events = parse_trace(&buffer.contents()).unwrap();
        let summary = TraceSummary::from_events(&events).unwrap();
        summary.verify().unwrap();
        assert_eq!(summary.total_rounds(), 9 * 3 + 9 * 4);
        assert_eq!(summary.roots().len(), 1);
        assert_eq!(summary.subtree_rounds(0), 9 * 3 + 9 * 4);
    }

    #[test]
    fn verify_rejects_unclosed_and_inconsistent_spans() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.open_span("dangling");
        let events = parse_trace(&buffer.contents()).unwrap();
        let summary = TraceSummary::from_events(&events).unwrap();
        assert!(summary.verify().is_err());

        let text = "{\"ev\":\"open\",\"id\":1,\"label\":\"x\"}\n\
                    {\"ev\":\"comm\",\"kind\":\"route\",\"span\":1,\"rounds\":2,\"messages\":1,\
                     \"bits\":8,\"max_link_bits\":8,\"max_node_out_bits\":8,\"max_node_in_bits\":8}\n\
                    {\"ev\":\"close\",\"id\":1,\"rounds\":99}\n";
        let summary = TraceSummary::from_events(&parse_trace(text).unwrap()).unwrap();
        let e = summary.verify().unwrap_err();
        assert!(e.message.contains("99"), "{e}");
    }

    /// The trace of `qcc apsp --n 6 --seed 3 --algorithm naive` as written
    /// while a `Metrics` close also carried `messages`, `bits`, the three
    /// maxima, `calls` and `hist`.
    const OLD_FORMAT_TRACE: &str = "\
{\"ev\":\"open\",\"id\":1,\"label\":\"apsp\"}
{\"ev\":\"open\",\"id\":2,\"parent\":1,\"label\":\"naive/broadcast-rows\"}
{\"ev\":\"comm\",\"kind\":\"gossip\",\"span\":2,\"rounds\":1,\"messages\":30,\"bits\":750,\"max_link_bits\":25,\"max_node_out_bits\":125,\"max_node_in_bits\":125}
{\"ev\":\"close\",\"id\":2,\"rounds\":1,\"messages\":30,\"bits\":750,\"max_link_bits\":25,\"max_node_out_bits\":125,\"max_node_in_bits\":125,\"calls\":1,\"hist\":\"1:1\"}
{\"ev\":\"close\",\"id\":1,\"rounds\":1,\"messages\":30,\"bits\":750,\"max_link_bits\":25,\"max_node_out_bits\":125,\"max_node_in_bits\":125,\"calls\":1,\"hist\":\"1:1\"}
";

    #[test]
    fn old_format_close_lines_still_parse_and_verify() {
        let events = parse_trace(OLD_FORMAT_TRACE).unwrap();
        assert_eq!(
            events[3],
            TraceEvent::Close {
                id: 2,
                rounds: Some(1)
            }
        );
        let old = TraceSummary::from_events(&events).unwrap();
        old.verify().unwrap();
        assert_eq!(old.total_rounds(), 1);
        // The extra statistics change nothing the summary reports.
        let stripped: String = OLD_FORMAT_TRACE
            .lines()
            .map(|line| match line.find(",\"messages\"") {
                Some(cut) if line.starts_with("{\"ev\":\"close\"") => {
                    format!("{}}}\n", &line[..cut])
                }
                _ => format!("{line}\n"),
            })
            .collect();
        assert!(stripped.ends_with("{\"ev\":\"close\",\"id\":1,\"rounds\":1}\n"));
        let new = TraceSummary::from_events(&parse_trace(&stripped).unwrap()).unwrap();
        new.verify().unwrap();
        assert_eq!(new.render(usize::MAX), old.render(usize::MAX));
    }

    /// A `comm` line in span `span` charging `rounds`, every other counter 1.
    fn comm_line(span: u64, rounds: u64) -> String {
        format!(
            "{{\"ev\":\"comm\",\"kind\":\"route\",\"span\":{span},\"rounds\":{rounds},\
             \"messages\":1,\"bits\":1,\"max_link_bits\":1,\"max_node_out_bits\":1,\
             \"max_node_in_bits\":1}}\n"
        )
    }

    fn overflow_error(text: &str) -> TraceError {
        let e = TraceSummary::from_events(&parse_trace(text).unwrap()).unwrap_err();
        assert!(e.message.contains("overflow"), "{e}");
        e
    }

    #[test]
    fn sums_past_u64_are_trace_errors() {
        // Two charges of 2^63 rounds each: a wrapping sum reads 0.
        let half = comm_line(1, 1 << 63);
        let e = overflow_error(&format!(
            "{{\"ev\":\"open\",\"id\":1,\"label\":\"x\"}}\n{half}{half}{{\"ev\":\"close\",\"id\":1}}\n"
        ));
        assert_eq!(
            e.to_string(),
            "trace error: the totals of span 1 overflow u64"
        );
        // The same with no span open, and across two sibling subtrees.
        let bare = half.replace(",\"span\":1", "");
        overflow_error(&format!("{bare}{bare}"));
        overflow_error(&format!(
            "{{\"ev\":\"open\",\"id\":1,\"label\":\"x\"}}\n\
             {{\"ev\":\"open\",\"id\":2,\"parent\":1,\"label\":\"a\"}}\n{}\
             {{\"ev\":\"close\",\"id\":2}}\n\
             {{\"ev\":\"open\",\"id\":3,\"parent\":1,\"label\":\"b\"}}\n{}\
             {{\"ev\":\"close\",\"id\":3}}\n{{\"ev\":\"close\",\"id\":1}}\n",
            comm_line(2, 1 << 63),
            comm_line(3, 1 << 63),
        ));
    }

    #[test]
    fn scaled_totals_past_u64_are_trace_errors() {
        // 9 · 2^61 rounds leave u64 at a root and under a parent.
        let e = overflow_error(&format!(
            "{{\"ev\":\"open\",\"id\":1,\"label\":\"x\",\"factor\":9}}\n{}\
             {{\"ev\":\"close\",\"id\":1}}\n",
            comm_line(1, 1 << 61)
        ));
        assert_eq!(
            e.to_string(),
            "trace error: the scaled round total overflows u64"
        );
        overflow_error(&format!(
            "{{\"ev\":\"open\",\"id\":1,\"label\":\"x\"}}\n\
             {{\"ev\":\"open\",\"id\":2,\"parent\":1,\"label\":\"p\",\"factor\":9}}\n{}\
             {{\"ev\":\"close\",\"id\":2}}\n{{\"ev\":\"close\",\"id\":1}}\n",
            comm_line(2, 1 << 61)
        ));
        // Just below the edge the total is exact.
        let text = format!(
            "{{\"ev\":\"open\",\"id\":1,\"label\":\"x\",\"factor\":8}}\n{}\
             {{\"ev\":\"close\",\"id\":1}}\n",
            comm_line(1, (1 << 61) - 1)
        );
        let summary = TraceSummary::from_events(&parse_trace(&text).unwrap()).unwrap();
        assert_eq!(summary.total_rounds(), u64::MAX - 7);
    }

    /// `{"ev":"open",…}` of span `id` under `parent`, newline-terminated.
    fn open_line(id: u64, parent: Option<u64>) -> String {
        let parent = parent.map_or(String::new(), |p| format!(",\"parent\":{p}"));
        format!("{{\"ev\":\"open\",\"id\":{id}{parent},\"label\":\"s{id}\"}}\n")
    }

    fn close_line(id: u64) -> String {
        format!("{{\"ev\":\"close\",\"id\":{id}}}\n")
    }

    #[test]
    fn events_the_sink_cannot_write_are_trace_errors() {
        let (o1, o2, c1, c2) = (
            open_line(1, None),
            open_line(2, Some(1)),
            close_line(1),
            close_line(2),
        );
        let bare_comm = comm_line(1, 1).replace(",\"span\":1", "");
        let fault = |span: u64| format!("{{\"ev\":\"fault\",\"kind\":\"drop\",\"span\":{span}}}\n");
        for (text, message) in [
            // Span 1 closes while its child 2 is open, is then charged 5
            // rounds and opens a child 3.
            (
                format!(
                    "{o1}{o2}{c1}{}{}{}{c2}",
                    comm_line(1, 5),
                    open_line(3, Some(1)),
                    close_line(3)
                ),
                "close names span 1, but the innermost open span is 2",
            ),
            (
                format!("{o1}{o2}{c2}{}", open_line(3, Some(2))),
                "open of span 3 names span 2, but the innermost open span is 1",
            ),
            (
                format!("{o1}{}", open_line(2, None)),
                "open of span 2 names no span, but the innermost open span is 1",
            ),
            (
                o2.clone(),
                "open of span 2 names span 1, but no span is open",
            ),
            (
                format!("{o1}{c1}{c1}"),
                "close names span 1, but no span is open",
            ),
            (
                format!("{o1}{c1}{}", comm_line(1, 1)),
                "comm event names span 1, but no span is open",
            ),
            (
                format!("{o1}{bare_comm}"),
                "comm event names no span, but the innermost open span is 1",
            ),
            (
                format!("{o1}{o2}{}", comm_line(1, 1)),
                "comm event names span 1, but the innermost open span is 2",
            ),
            (
                format!("{o1}{}", fault(2)),
                "fault event names span 2, but the innermost open span is 1",
            ),
            (
                format!("{}{c2}{o1}", open_line(2, None)),
                "span id 1 is not above the previous span id 2",
            ),
            (
                format!("{o1}{c1}{o1}"),
                "span id 1 is not above the previous span id 1",
            ),
        ] {
            let e = TraceSummary::from_events(&parse_trace(&text).unwrap()).unwrap_err();
            assert_eq!(e.to_string(), format!("trace error: {message}"), "{text}");
        }
        // The same events nested as the sink writes them are accepted.
        let nested = format!(
            "{o1}{o2}{}{c2}{}{}{c1}",
            comm_line(2, 5),
            comm_line(1, 1),
            fault(1)
        );
        let summary = TraceSummary::from_events(&parse_trace(&nested).unwrap()).unwrap();
        summary.verify().unwrap();
        assert_eq!(summary.total_rounds(), 6);
    }

    #[test]
    fn comm_without_span_lands_in_unspanned() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.emit_comm("exchange", 5, 1, 64, 64, 64, 64);
        let events = parse_trace(&buffer.contents()).unwrap();
        let summary = TraceSummary::from_events(&events).unwrap();
        assert_eq!(summary.unspanned.rounds, 5);
        assert_eq!(summary.total_rounds(), 5);
        assert!(summary.render(4).contains("(no span)"));
    }

    #[test]
    fn fault_events_round_trip_and_attribute_to_spans() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.emit_fault("drop");
        let apsp = sink.open_span("apsp");
        sink.emit_fault("corrupt");
        sink.emit_fault("crash");
        sink.close_span();
        let events = parse_trace(&buffer.contents()).unwrap();
        assert_eq!(
            events[0],
            TraceEvent::Fault {
                kind: "drop".into(),
                span: None
            }
        );
        assert_eq!(
            events[2],
            TraceEvent::Fault {
                kind: "corrupt".into(),
                span: Some(apsp)
            }
        );
        let summary = TraceSummary::from_events(&events).unwrap();
        assert_eq!(summary.unspanned_faults, 1);
        assert_eq!(summary.spans()[0].faults, 2);
        assert_eq!(summary.total_faults(), 3);
        assert!(summary.render(4).contains("[2 faults]"));
    }

    #[test]
    fn poisoned_sink_degrades_to_dropped_events() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.open_span("before");
        sink.close_span();
        let clone = sink.clone();
        std::thread::spawn(move || {
            let _guard = clone.inner.lock().unwrap();
            panic!("poison the sink on purpose");
        })
        .join()
        .unwrap_err();
        // Writes now degrade to counted drops instead of propagating the
        // poison panic.
        assert_eq!(sink.open_span("after"), 0);
        sink.emit_comm("exchange", 1, 1, 8, 8, 8, 8);
        sink.emit_fault("drop");
        sink.close_span();
        assert!(sink.dropped_events() >= 3);
        let err = sink.flush().unwrap_err();
        assert!(err.to_string().contains("dropped"), "{err}");
        // Events written before the poison are still parseable.
        let events = parse_trace(&buffer.contents()).unwrap();
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn render_respects_max_depth() {
        let (sink, buffer) = TraceSink::in_memory();
        sink.open_span("top");
        sink.open_span("middle");
        sink.open_span("leaf");
        sink.close_span();
        sink.close_span();
        sink.close_span();
        let summary = TraceSummary::from_events(&parse_trace(&buffer.contents()).unwrap()).unwrap();
        let shallow = summary.render(2);
        assert!(shallow.contains("middle") && !shallow.contains("leaf"));
        let deep = summary.render(10);
        assert!(deep.contains("leaf"));
    }
}
