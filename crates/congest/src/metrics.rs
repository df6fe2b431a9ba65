//! Round and congestion accounting.
//!
//! The simulator records, per named phase, how many synchronous rounds were
//! consumed and how heavily the busiest link and the busiest node were
//! loaded. These metrics back the congestion experiments (E8, E12, E13 in
//! `DESIGN.md`): the paper's central technical device is *avoiding* hot
//! links, so the simulator must be able to observe them.
//!
//! The in-memory view is the **flat** per-phase list ([`Metrics::phases`])
//! driven by [`Metrics::begin_phase`]: every communication call is
//! attributed to the most recently begun phase, so summing phase rounds
//! always reproduces [`Metrics::total_rounds`].
//!
//! The **span hierarchy** is recorded in the trace alone.
//! [`Metrics::push_span`]/[`Metrics::pop_span`] open nested grouping spans
//! and each `begin_phase` opens a leaf span under the innermost group
//! (closed by the next `begin_phase`, [`Metrics::end_phase`], or an
//! enclosing pop). `Metrics` keeps only the stack of open spans and the
//! rounds charged inside each. With a [`TraceSink`] attached
//! ([`Metrics::set_trace_sink`]) every span open/close and every
//! communication call is emitted as an NDJSON event (see [`crate::trace`]),
//! and a span's close event records the rounds of its subtree, which
//! [`crate::TraceSummary::verify`] checks against the span's comm events.
//! Tracing is pure observation: charged round counts are byte-identical
//! with and without a sink.

use crate::fault::{FaultCounts, FaultKind};
use crate::trace::TraceSink;
use std::fmt;

/// Communication statistics for one named phase of an algorithm.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Label supplied by the algorithm (e.g. `"compute-pairs/step1"`).
    pub label: String,
    /// Synchronous rounds consumed by the phase.
    pub rounds: u64,
    /// Number of messages transmitted.
    pub messages: u64,
    /// Total bits transmitted.
    pub bits: u64,
    /// Largest busiest-link bit count of any call in the phase: the
    /// busiest `(src, dst)` link of a direct call, or for a `route` the
    /// busiest relay link of one hop, `⌈Δ/n⌉·B` (see
    /// [`crate::Clique::route`]).
    pub max_link_bits: u64,
    /// Maximum bits sent by a single node over the whole phase.
    pub max_node_out_bits: u64,
    /// Maximum bits received by a single node over the whole phase.
    pub max_node_in_bits: u64,
}

impl fmt::Display for PhaseStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} rounds, {} msgs, {} bits (max link {}, max out {}, max in {})",
            self.label,
            self.rounds,
            self.messages,
            self.bits,
            self.max_link_bits,
            self.max_node_out_bits,
            self.max_node_in_bits
        )
    }
}

/// One open span: a `push_span` group or a `begin_phase` leaf.
#[derive(Clone, Copy, Debug)]
struct OpenSpan {
    group: bool,
    /// Rounds charged while the span was open, its subtree included.
    rounds: u64,
}

/// Cumulative metrics for a simulation run.
///
/// # Examples
///
/// ```
/// use qcc_congest::Metrics;
///
/// let mut m = Metrics::new();
/// m.begin_phase("setup");
/// m.record_exchange(3, 10, 640, 64, 320, 128);
/// assert_eq!(m.total_rounds(), 3);
/// assert_eq!(m.phases().len(), 1);
/// ```
///
/// Nested spans group phases hierarchically in an attached trace without
/// changing the flat view:
///
/// ```
/// use qcc_congest::{parse_trace, Metrics, TraceSink, TraceSummary};
///
/// let (sink, buffer) = TraceSink::in_memory();
/// let mut m = Metrics::new();
/// m.set_trace_sink(sink);
/// m.push_span("product-0");
/// m.begin_phase("step1");
/// m.record_exchange(2, 1, 64, 64, 64, 64);
/// m.begin_phase("step2");
/// m.record_exchange(5, 1, 64, 64, 64, 64);
/// m.pop_span();
/// let summary = TraceSummary::from_events(&parse_trace(&buffer.contents()).unwrap()).unwrap();
/// summary.verify().unwrap();
/// assert_eq!(summary.spans()[0].closed_rounds, Some(7)); // the "product-0" group
/// assert_eq!(m.phases().len(), 2); // flat view unchanged
/// ```
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    phases: Vec<PhaseStats>,
    total_rounds: u64,
    total_messages: u64,
    total_bits: u64,
    /// The open spans, innermost last.
    open: Vec<OpenSpan>,
    faults: FaultCounts,
    sink: Option<TraceSink>,
}

impl Metrics {
    /// Creates empty metrics.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Attaches an NDJSON trace sink; subsequent span opens/closes and
    /// communication calls are mirrored to it.
    pub fn set_trace_sink(&mut self, sink: TraceSink) {
        self.sink = Some(sink);
    }

    /// Starts a new named phase; subsequent exchanges accumulate into it.
    ///
    /// If no phase was ever begun, exchanges accumulate into an implicit
    /// phase labelled `"(unlabelled)"`.
    ///
    /// In the span hierarchy a phase is a leaf span: beginning a phase
    /// closes the previous phase's span (phases are siblings) and opens a
    /// new one under the innermost [`Metrics::push_span`] group.
    pub fn begin_phase(&mut self, label: &str) {
        self.close_open_leaf();
        self.open_span(label, false);
        self.phases.push(PhaseStats {
            label: label.to_owned(),
            ..PhaseStats::default()
        });
    }

    /// Ends the current phase's leaf span (the flat view is unaffected; a
    /// later exchange without a new `begin_phase` still accumulates into
    /// the last flat phase, but into the enclosing group span only).
    pub fn end_phase(&mut self) {
        self.close_open_leaf();
    }

    /// Opens an explicit grouping span nested under the innermost open
    /// group. Closes the current phase's leaf span first — a group never
    /// hangs off a phase leaf.
    pub fn push_span(&mut self, label: &str) {
        self.close_open_leaf();
        self.open_span(label, true);
    }

    /// Closes the innermost explicit grouping span (and the current
    /// phase's leaf span, if one is open inside it).
    pub fn pop_span(&mut self) {
        self.close_open_leaf();
        if self.open.last().is_some_and(|span| span.group) {
            self.close_top_span();
        }
    }

    /// Closes every open span (leaves and groups). Call before dropping a
    /// traced network so the emitted NDJSON is well formed.
    pub fn close_all_spans(&mut self) {
        while !self.open.is_empty() {
            self.close_top_span();
        }
    }

    fn open_span(&mut self, label: &str, group: bool) {
        self.open.push(OpenSpan { group, rounds: 0 });
        if let Some(sink) = &self.sink {
            sink.open_span(label);
        }
    }

    /// Closes the innermost span if it is a phase leaf.
    fn close_open_leaf(&mut self) {
        if self.open.last().is_some_and(|span| !span.group) {
            self.close_top_span();
        }
    }

    fn close_top_span(&mut self) {
        if let Some(span) = self.open.pop() {
            if let Some(sink) = &self.sink {
                sink.close_span_recording(Some(span.rounds));
            }
        }
    }

    /// Records one communication step.
    pub fn record_exchange(
        &mut self,
        rounds: u64,
        messages: u64,
        bits: u64,
        max_link_bits: u64,
        max_node_out_bits: u64,
        max_node_in_bits: u64,
    ) {
        self.record_comm(
            "exchange",
            rounds,
            messages,
            bits,
            max_link_bits,
            max_node_out_bits,
            max_node_in_bits,
        );
    }

    /// Records one communication call of the given kind (`"exchange"`,
    /// `"route"`, `"broadcast"`, `"gossip"`, `"charge"`), updating the flat
    /// phase view, every open span, and the trace sink.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_comm(
        &mut self,
        kind: &str,
        rounds: u64,
        messages: u64,
        bits: u64,
        max_link_bits: u64,
        max_node_out_bits: u64,
        max_node_in_bits: u64,
    ) {
        self.total_rounds += rounds;
        self.total_messages += messages;
        self.total_bits += bits;
        if self.phases.is_empty() {
            // Preserve the legacy implicit phase: the pushed phase also
            // opens a leaf span so the call below lands in it too.
            self.begin_phase("(unlabelled)");
        }
        let phase = self.phases.last_mut().expect("phase exists");
        phase.rounds += rounds;
        phase.messages += messages;
        phase.bits += bits;
        phase.max_link_bits = phase.max_link_bits.max(max_link_bits);
        phase.max_node_out_bits = phase.max_node_out_bits.max(max_node_out_bits);
        phase.max_node_in_bits = phase.max_node_in_bits.max(max_node_in_bits);
        for span in &mut self.open {
            span.rounds += rounds;
        }
        if let Some(sink) = &self.sink {
            sink.emit_comm(
                kind,
                rounds,
                messages,
                bits,
                max_link_bits,
                max_node_out_bits,
                max_node_in_bits,
            );
        }
    }

    /// Records one injected fault against the global tally and the trace
    /// sink (as an NDJSON `fault` event in the innermost open span).
    pub(crate) fn record_fault(&mut self, kind: FaultKind) {
        self.faults.record(kind);
        if let Some(sink) = &self.sink {
            sink.emit_fault(kind.label());
        }
    }

    /// Injected-fault totals over the whole run.
    #[must_use]
    pub fn fault_counts(&self) -> &FaultCounts {
        &self.faults
    }

    /// Label of the most recently begun phase, if any.
    #[must_use]
    pub fn current_phase(&self) -> Option<&str> {
        self.phases.last().map(|p| p.label.as_str())
    }

    /// Total synchronous rounds consumed so far.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.total_rounds
    }

    /// Total messages transmitted so far.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Total bits transmitted so far.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.total_bits
    }

    /// Per-phase breakdown, in execution order.
    #[must_use]
    pub fn phases(&self) -> &[PhaseStats] {
        &self.phases
    }

    /// Largest per-link bit volume observed in any phase.
    #[must_use]
    pub fn max_link_bits(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.max_link_bits)
            .max()
            .unwrap_or(0)
    }

    /// Merges rounds from phases whose label starts with `prefix`.
    #[must_use]
    pub fn rounds_with_prefix(&self, prefix: &str) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.label.starts_with(prefix))
            .map(|p| p.rounds)
            .sum()
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total: {} rounds, {} msgs, {} bits",
            self.total_rounds, self.total_messages, self.total_bits
        )?;
        for phase in &self.phases {
            writeln!(f, "  {phase}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{parse_trace, TraceBuffer, TraceEvent, TraceSummary};

    /// Metrics with an in-memory trace attached.
    fn traced() -> (Metrics, TraceBuffer) {
        let (sink, buffer) = TraceSink::in_memory();
        let mut m = Metrics::new();
        m.set_trace_sink(sink);
        (m, buffer)
    }

    /// The trace written so far, rebuilt and verified.
    fn summary(buffer: &TraceBuffer) -> TraceSummary {
        let events = parse_trace(&buffer.contents()).unwrap();
        let summary = TraceSummary::from_events(&events).unwrap();
        summary.verify().unwrap();
        summary
    }

    /// `(label, depth, rounds recorded at close)` of every span, in
    /// preorder.
    fn spans(summary: &TraceSummary) -> Vec<(&str, usize, Option<u64>)> {
        summary
            .spans()
            .iter()
            .map(|s| (s.label.as_str(), s.depth, s.closed_rounds))
            .collect()
    }

    #[test]
    fn implicit_phase_is_created() {
        let (mut m, buffer) = traced();
        m.record_exchange(1, 1, 8, 8, 8, 8);
        m.close_all_spans();
        assert_eq!(m.phases().len(), 1);
        assert_eq!(m.phases()[0].label, "(unlabelled)");
        // And the implicit phase is a root span of the trace as well.
        assert_eq!(spans(&summary(&buffer)), [("(unlabelled)", 0, Some(1))]);
    }

    #[test]
    fn phases_accumulate_independently() {
        let mut m = Metrics::new();
        m.begin_phase("a");
        m.record_exchange(2, 5, 100, 50, 80, 60);
        m.begin_phase("b");
        m.record_exchange(3, 7, 200, 90, 150, 110);
        assert_eq!(m.total_rounds(), 5);
        assert_eq!(m.phases()[0].rounds, 2);
        assert_eq!(m.phases()[1].rounds, 3);
        assert_eq!(m.max_link_bits(), 90);
    }

    #[test]
    fn max_stats_take_componentwise_max() {
        let mut m = Metrics::new();
        m.begin_phase("a");
        m.record_exchange(1, 1, 10, 10, 5, 3);
        m.record_exchange(1, 1, 10, 4, 9, 8);
        let p = &m.phases()[0];
        assert_eq!(p.max_link_bits, 10);
        assert_eq!(p.max_node_out_bits, 9);
        assert_eq!(p.max_node_in_bits, 8);
    }

    #[test]
    fn prefix_sums_select_phases() {
        let mut m = Metrics::new();
        m.begin_phase("grover/iter0");
        m.record_exchange(2, 0, 0, 0, 0, 0);
        m.begin_phase("grover/iter1");
        m.record_exchange(2, 0, 0, 0, 0, 0);
        m.begin_phase("setup");
        m.record_exchange(7, 0, 0, 0, 0, 0);
        assert_eq!(m.rounds_with_prefix("grover/"), 4);
        assert_eq!(m.rounds_with_prefix("setup"), 7);
    }

    #[test]
    fn display_contains_totals() {
        let mut m = Metrics::new();
        m.record_exchange(1, 2, 3, 3, 3, 3);
        let s = m.to_string();
        assert!(s.contains("1 rounds"));
        assert!(s.contains("2 msgs"));
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let (mut m, buffer) = traced();
        m.push_span("outer");
        m.begin_phase("a");
        m.record_exchange(2, 1, 10, 10, 10, 10);
        m.push_span("inner");
        m.begin_phase("b");
        m.record_exchange(3, 1, 20, 20, 20, 20);
        m.pop_span();
        m.pop_span();
        // outer, a, inner, b — preorder; `a` closes before `inner` opens,
        // so both are children of `outer`.
        assert_eq!(
            spans(&summary(&buffer)),
            [
                ("outer", 0, Some(5)),
                ("a", 1, Some(2)),
                ("inner", 1, Some(3)),
                ("b", 2, Some(3)),
            ]
        );
        // Flat view is unaffected by the nesting.
        assert_eq!(m.phases().len(), 2);
        assert_eq!(m.total_rounds(), 5);
    }

    #[test]
    fn begin_phase_closes_the_previous_leaf() {
        let (mut m, buffer) = traced();
        m.begin_phase("a");
        m.record_exchange(1, 0, 0, 0, 0, 0);
        m.begin_phase("b");
        m.record_exchange(4, 0, 0, 0, 0, 0);
        // `a` is closed by the second `begin_phase`; `b` is still open.
        let events = parse_trace(&buffer.contents()).unwrap();
        assert!(matches!(
            events[2],
            TraceEvent::Close {
                id: 1,
                rounds: Some(1)
            }
        ));
        assert!(!events
            .iter()
            .any(|e| matches!(e, TraceEvent::Close { id: 2, .. })));
        m.close_all_spans();
        // Phases are siblings at the root, not nested.
        let summary = summary(&buffer);
        assert_eq!(spans(&summary), [("a", 0, Some(1)), ("b", 0, Some(4))]);
        assert_eq!(summary.roots(), [0, 1]);
    }

    #[test]
    fn end_phase_stops_leaf_attribution() {
        let (mut m, buffer) = traced();
        m.push_span("group");
        m.begin_phase("a");
        m.record_exchange(1, 0, 0, 0, 0, 0);
        m.end_phase();
        m.record_exchange(2, 0, 0, 0, 0, 0); // group only
        m.pop_span();
        let summary = summary(&buffer);
        assert_eq!(spans(&summary), [("group", 0, Some(3)), ("a", 1, Some(1))]);
        assert_eq!(summary.spans()[0].own.rounds, 2);
        // The flat view still charges the last begun phase.
        assert_eq!(m.phases()[0].rounds, 3);
    }

    #[test]
    fn child_rounds_sum_to_at_most_parent_rounds() {
        let (mut m, buffer) = traced();
        m.push_span("parent");
        m.begin_phase("c1");
        m.record_exchange(3, 0, 0, 0, 0, 0);
        m.begin_phase("c2");
        m.record_exchange(4, 0, 0, 0, 0, 0);
        m.end_phase();
        m.record_exchange(2, 0, 0, 0, 0, 0); // parent-only rounds
        m.pop_span();
        let summary = summary(&buffer);
        let spans = spans(&summary);
        assert_eq!(
            spans,
            [
                ("parent", 0, Some(9)),
                ("c1", 1, Some(3)),
                ("c2", 1, Some(4))
            ]
        );
        let child_sum: u64 = spans[1..].iter().filter_map(|s| s.2).sum();
        assert_eq!(child_sum, 7);
        assert!(Some(child_sum) <= spans[0].2);
    }

    #[test]
    fn faults_land_in_the_innermost_open_span_and_the_global_tally() {
        let (mut m, buffer) = traced();
        m.push_span("outer");
        m.begin_phase("a");
        m.record_fault(FaultKind::Drop);
        m.record_fault(FaultKind::Corrupt);
        m.end_phase();
        m.record_fault(FaultKind::Crash); // outer only
        m.pop_span();
        assert_eq!(m.fault_counts().total(), 3);
        assert_eq!(m.fault_counts().drops, 1);
        let faults: Vec<(String, Option<u64>)> = parse_trace(&buffer.contents())
            .unwrap()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Fault { kind, span } => Some((kind, span)),
                _ => None,
            })
            .collect();
        // Span 1 is `outer`, span 2 the leaf `a`.
        assert_eq!(
            faults,
            [
                ("drop".to_owned(), Some(2)),
                ("corrupt".to_owned(), Some(2)),
                ("crash".to_owned(), Some(1)),
            ]
        );
        let summary = summary(&buffer);
        assert_eq!(summary.subtree_faults(0), 3);
        assert_eq!(summary.subtree_faults(1), 2);
        assert_eq!(m.current_phase(), Some("a"));
    }

    #[test]
    fn close_all_spans_closes_groups_and_leaves() {
        let (mut m, buffer) = traced();
        m.push_span("g");
        m.begin_phase("p");
        m.close_all_spans();
        // Both closes carry rounds (zero here) and leave the trace balanced.
        assert_eq!(
            spans(&summary(&buffer)),
            [("g", 0, Some(0)), ("p", 1, Some(0))]
        );
        // Recording afterwards still feeds the flat phase, but no span.
        m.record_exchange(1, 0, 0, 0, 0, 0);
        assert_eq!(m.phases()[0].rounds, 1);
        let summary = summary(&buffer);
        assert_eq!(summary.unspanned.rounds, 1);
        assert_eq!(summary.subtree_rounds(1), 0);
    }

    #[test]
    fn every_close_records_exactly_the_rounds_of_its_subtree() {
        let (mut m, buffer) = traced();
        let mut charge = 0;
        let mut step = |m: &mut Metrics| {
            charge += 1;
            m.record_exchange(charge, 0, 0, 0, 0, 0);
        };
        step(&mut m); // implicit phase at the root
        for group in ["apsp", "product-0", "find-edges"] {
            m.push_span(group);
            step(&mut m); // the group's own rounds
            for phase in ["gather", "search"] {
                m.begin_phase(phase);
                step(&mut m);
                step(&mut m);
            }
            m.end_phase();
        }
        m.pop_span();
        m.begin_phase("late");
        step(&mut m);
        m.close_all_spans();
        let summary = summary(&buffer);
        assert_eq!(summary.spans().len(), 11);
        assert_eq!(summary.total_rounds(), m.total_rounds());
        let text = buffer.contents();
        for (idx, span) in summary.spans().iter().enumerate() {
            let rounds = summary.subtree_rounds(idx);
            assert_eq!(span.closed_rounds, Some(rounds), "{}", span.label);
            // The close line is the id and the rounds, nothing more.
            let close = format!(
                "{{\"ev\":\"close\",\"id\":{},\"rounds\":{rounds}}}",
                span.id
            );
            assert!(text.lines().any(|l| l == close), "{close}");
        }
    }
}
