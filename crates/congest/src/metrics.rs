//! Round and congestion accounting.
//!
//! The simulator records, per named phase, how many synchronous rounds were
//! consumed and how heavily the busiest link and the busiest node were
//! loaded. These metrics back the congestion experiments (E8, E12, E13 in
//! `DESIGN.md`): the paper's central technical device is *avoiding* hot
//! links, so the simulator must be able to observe them.
//!
//! Two views are maintained simultaneously:
//!
//! * the **flat** per-phase list ([`Metrics::phases`]) driven by
//!   [`Metrics::begin_phase`] — every communication call is attributed to
//!   the most recently begun phase, so summing phase rounds always
//!   reproduces [`Metrics::total_rounds`];
//! * a **hierarchical span tree** ([`Metrics::spans`]) in which
//!   [`Metrics::push_span`]/[`Metrics::pop_span`] open nested grouping
//!   spans and each `begin_phase` opens a leaf span under the innermost
//!   group (closed by the next `begin_phase`, [`Metrics::end_phase`], or an
//!   enclosing pop). Every open span accumulates the calls that run inside
//!   it, so a span's rounds are the sum over its subtree and child rounds
//!   can never exceed the parent's.
//!
//! When a [`TraceSink`] is attached ([`Metrics::set_trace_sink`]) every
//! span open/close and every communication call is additionally emitted as
//! an NDJSON event (see [`crate::trace`]). Tracing is pure observation:
//! charged round counts are byte-identical with and without a sink.

use crate::fault::{FaultCounts, FaultKind};
use crate::trace::{CommTotals, TraceSink};
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

/// Histogram of per-call round charges, bucketed by bit length.
///
/// Bucket 0 counts zero-round calls; bucket `b ≥ 1` counts calls charging
/// `2^(b-1) ..= 2^b - 1` rounds (the last bucket is open-ended). This keeps
/// the histogram tiny while still separating the free, cheap, and hot calls
/// the congestion experiments care about.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundHistogram {
    counts: [u64; Self::BUCKETS],
}

impl RoundHistogram {
    /// Number of buckets (bit lengths 0..=16, last open-ended).
    pub const BUCKETS: usize = 17;

    fn bucket_of(rounds: u64) -> usize {
        if rounds == 0 {
            0
        } else {
            ((64 - rounds.leading_zeros()) as usize).min(Self::BUCKETS - 1)
        }
    }

    /// Records one call that charged `rounds` rounds.
    pub fn record(&mut self, rounds: u64) {
        self.counts[Self::bucket_of(rounds)] += 1;
    }

    /// Per-bucket call counts.
    #[must_use]
    pub fn counts(&self) -> &[u64; Self::BUCKETS] {
        &self.counts
    }

    /// Total calls recorded.
    #[must_use]
    pub fn total_calls(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Compact `floor:count` rendering of the non-empty buckets (e.g.
    /// `"0:2 1:5 4:1"` — two free calls, five charging 1 round, one
    /// charging 4–7), as embedded in trace `close` events.
    #[must_use]
    pub fn compact(&self) -> String {
        let mut parts = Vec::new();
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                let floor = if b == 0 { 0 } else { 1u64 << (b - 1) };
                parts.push(format!("{floor}:{c}"));
            }
        }
        parts.join(" ")
    }
}

/// One node of the hierarchical span tree (see the module docs).
#[derive(Clone, Debug)]
pub struct Span {
    /// Label supplied by the algorithm.
    pub label: String,
    /// Index of the enclosing span in [`Metrics::spans`], if any.
    pub parent: Option<usize>,
    /// `true` for `push_span` groups, `false` for `begin_phase` leaves.
    pub explicit: bool,
    /// Whether the span is still open.
    pub open: bool,
    /// Totals over every communication call in this span's subtree.
    pub totals: CommTotals,
    /// Per-call round histogram over this span's subtree.
    pub histogram: RoundHistogram,
    /// Injected faults recorded while this span was open.
    pub faults: FaultCounts,
    /// Indices of child spans, in open order.
    pub children: Vec<usize>,
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
/// Nested spans group phases hierarchically without changing the flat view:
///
/// ```
/// use qcc_congest::Metrics;
///
/// let mut m = Metrics::new();
/// m.push_span("product-0");
/// m.begin_phase("step1");
/// m.record_exchange(2, 1, 64, 64, 64, 64);
/// m.begin_phase("step2");
/// m.record_exchange(5, 1, 64, 64, 64, 64);
/// m.pop_span();
/// assert_eq!(m.spans()[0].totals.rounds, 7); // the "product-0" group
/// assert_eq!(m.phases().len(), 2);           // flat view unchanged
/// ```
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    phases: Vec<PhaseStats>,
    total_rounds: u64,
    total_messages: u64,
    total_bits: u64,
    spans: Vec<Span>,
    open_stack: Vec<usize>,
    histogram: RoundHistogram,
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
    /// In the span tree a phase is a leaf span: beginning a phase closes
    /// the previous phase's span (phases are siblings) and opens a new one
    /// under the innermost [`Metrics::push_span`] group.
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
        if self
            .open_stack
            .last()
            .is_some_and(|&idx| self.spans[idx].explicit)
        {
            self.close_top_span();
        }
    }

    /// Closes every open span (leaves and groups). Call before dropping a
    /// traced network so the emitted NDJSON is well formed.
    pub fn close_all_spans(&mut self) {
        while !self.open_stack.is_empty() {
            self.close_top_span();
        }
    }

    fn open_span(&mut self, label: &str, explicit: bool) {
        let parent = self.open_stack.last().copied();
        let idx = self.spans.len();
        self.spans.push(Span {
            label: label.to_owned(),
            parent,
            explicit,
            open: true,
            totals: CommTotals::default(),
            histogram: RoundHistogram::default(),
            faults: FaultCounts::default(),
            children: Vec::new(),
        });
        if let Some(p) = parent {
            self.spans[p].children.push(idx);
        }
        self.open_stack.push(idx);
        if let Some(sink) = &self.sink {
            sink.open_span(label);
        }
    }

    /// Closes the innermost span if it is a phase leaf.
    fn close_open_leaf(&mut self) {
        if self
            .open_stack
            .last()
            .is_some_and(|&idx| !self.spans[idx].explicit)
        {
            self.close_top_span();
        }
    }

    fn close_top_span(&mut self) {
        if let Some(idx) = self.open_stack.pop() {
            self.spans[idx].open = false;
            if let Some(sink) = &self.sink {
                sink.close_span_with_stats(
                    &self.spans[idx].totals,
                    &self.spans[idx].histogram.compact(),
                );
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
    /// phase view, every open span, the histograms, and the trace sink.
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
            // opens a leaf span so the call below lands in the tree too.
            self.begin_phase("(unlabelled)");
        }
        let phase = self.phases.last_mut().expect("phase exists");
        phase.rounds += rounds;
        phase.messages += messages;
        phase.bits += bits;
        phase.max_link_bits = phase.max_link_bits.max(max_link_bits);
        phase.max_node_out_bits = phase.max_node_out_bits.max(max_node_out_bits);
        phase.max_node_in_bits = phase.max_node_in_bits.max(max_node_in_bits);
        for &idx in &self.open_stack {
            let span = &mut self.spans[idx];
            span.totals.record_call(
                rounds,
                messages,
                bits,
                max_link_bits,
                max_node_out_bits,
                max_node_in_bits,
            );
            span.histogram.record(rounds);
        }
        self.histogram.record(rounds);
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

    /// Records one injected fault against the global tally, every open
    /// span, and the trace sink (as an NDJSON `fault` event).
    pub(crate) fn record_fault(&mut self, kind: FaultKind) {
        self.faults.record(kind);
        for &idx in &self.open_stack {
            self.spans[idx].faults.record(kind);
        }
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

    /// The hierarchical span tree, in open (preorder) order. Leaf spans
    /// mirror the flat phases; explicit spans group them.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Global per-call round histogram.
    #[must_use]
    pub fn histogram(&self) -> &RoundHistogram {
        &self.histogram
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

    #[test]
    fn implicit_phase_is_created() {
        let mut m = Metrics::new();
        m.record_exchange(1, 1, 8, 8, 8, 8);
        assert_eq!(m.phases().len(), 1);
        assert_eq!(m.phases()[0].label, "(unlabelled)");
        // And the implicit phase exists in the span tree as well.
        assert_eq!(m.spans().len(), 1);
        assert_eq!(m.spans()[0].label, "(unlabelled)");
        assert_eq!(m.spans()[0].totals.rounds, 1);
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
        let mut m = Metrics::new();
        m.push_span("outer");
        m.begin_phase("a");
        m.record_exchange(2, 1, 10, 10, 10, 10);
        m.push_span("inner");
        m.begin_phase("b");
        m.record_exchange(3, 1, 20, 20, 20, 20);
        m.pop_span();
        m.pop_span();
        let spans = m.spans();
        // outer, a, inner, b — preorder.
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].label, "outer");
        assert_eq!(spans[0].totals.rounds, 5);
        assert_eq!(spans[1].label, "a");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].totals.rounds, 2);
        assert_eq!(spans[2].label, "inner");
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].totals.rounds, 3);
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| !s.open));
        // Flat view is unaffected by the nesting.
        assert_eq!(m.phases().len(), 2);
        assert_eq!(m.total_rounds(), 5);
    }

    #[test]
    fn begin_phase_closes_the_previous_leaf() {
        let mut m = Metrics::new();
        m.begin_phase("a");
        m.record_exchange(1, 0, 0, 0, 0, 0);
        m.begin_phase("b");
        m.record_exchange(4, 0, 0, 0, 0, 0);
        // Phases are siblings at the root, not nested.
        assert_eq!(m.spans()[0].parent, None);
        assert_eq!(m.spans()[1].parent, None);
        assert_eq!(m.spans()[0].totals.rounds, 1);
        assert_eq!(m.spans()[1].totals.rounds, 4);
    }

    #[test]
    fn end_phase_stops_leaf_attribution() {
        let mut m = Metrics::new();
        m.push_span("group");
        m.begin_phase("a");
        m.record_exchange(1, 0, 0, 0, 0, 0);
        m.end_phase();
        m.record_exchange(2, 0, 0, 0, 0, 0); // group only
        m.pop_span();
        assert_eq!(m.spans()[0].totals.rounds, 3);
        assert_eq!(m.spans()[1].totals.rounds, 1);
        // The flat view still charges the last begun phase.
        assert_eq!(m.phases()[0].rounds, 3);
    }

    #[test]
    fn child_rounds_sum_to_at_most_parent_rounds() {
        let mut m = Metrics::new();
        m.push_span("parent");
        m.begin_phase("c1");
        m.record_exchange(3, 0, 0, 0, 0, 0);
        m.begin_phase("c2");
        m.record_exchange(4, 0, 0, 0, 0, 0);
        m.end_phase();
        m.record_exchange(2, 0, 0, 0, 0, 0); // parent-only rounds
        m.pop_span();
        let parent = &m.spans()[0];
        let child_sum: u64 = parent
            .children
            .iter()
            .map(|&c| m.spans()[c].totals.rounds)
            .sum();
        assert_eq!(child_sum, 7);
        assert_eq!(parent.totals.rounds, 9);
        assert!(child_sum <= parent.totals.rounds);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = RoundHistogram::default();
        h.record(0);
        h.record(1);
        h.record(1);
        h.record(3);
        h.record(4);
        h.record(u64::MAX);
        assert_eq!(h.counts()[0], 1); // zero-round calls
        assert_eq!(h.counts()[1], 2); // rounds == 1
        assert_eq!(h.counts()[2], 1); // rounds in 2..=3
        assert_eq!(h.counts()[3], 1); // rounds in 4..=7
        assert_eq!(h.counts()[RoundHistogram::BUCKETS - 1], 1); // open-ended
        assert_eq!(h.total_calls(), 6);
        assert_eq!(h.compact(), "0:1 1:2 2:1 4:1 32768:1");
    }

    #[test]
    fn faults_land_in_open_spans_and_the_global_tally() {
        let mut m = Metrics::new();
        m.push_span("outer");
        m.begin_phase("a");
        m.record_fault(FaultKind::Drop);
        m.record_fault(FaultKind::Corrupt);
        m.end_phase();
        m.record_fault(FaultKind::Crash); // outer only
        m.pop_span();
        assert_eq!(m.fault_counts().total(), 3);
        assert_eq!(m.spans()[0].faults.total(), 3);
        assert_eq!(m.spans()[1].faults.drops, 1);
        assert_eq!(m.spans()[1].faults.crashes, 0);
        assert_eq!(m.current_phase(), Some("a"));
    }

    #[test]
    fn close_all_spans_closes_groups_and_leaves() {
        let mut m = Metrics::new();
        m.push_span("g");
        m.begin_phase("p");
        m.close_all_spans();
        assert!(m.spans().iter().all(|s| !s.open));
        // Recording afterwards still feeds the flat phase.
        m.record_exchange(1, 0, 0, 0, 0, 0);
        assert_eq!(m.phases()[0].rounds, 1);
        assert_eq!(m.spans()[1].totals.rounds, 0);
    }
}
