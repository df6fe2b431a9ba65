//! The stage network and trace spans every stage shares.
//!
//! Each distance product, certificate, baseline and extremum search runs
//! on a `Clique` of its own; [`on_clique`] builds it, arms it and tears it
//! down, so the trace stays well formed and a failure is billed with the
//! rounds it charged. [`in_span`] does the same for a span opened on the
//! sink alone, around stages that build their own networks.

use crate::ApspError;
use qcc_congest::{Clique, NetConfig, TraceSink};

/// Runs `body` on a fresh `n`-node `Clique` that traces to `trace` and is
/// armed with `netcfg`, inside a `label` span when one is given, and
/// closes every span it opened on every path out. Returns `body`'s value
/// with the rounds the network charged.
///
/// # Errors
///
/// * [`ApspError::Congest`] if the network cannot be built (`n == 0`).
/// * `body`'s error, as [`ApspError::Faulted`] with the rounds charged.
pub(crate) fn on_clique<T>(
    n: usize,
    netcfg: &NetConfig,
    trace: Option<&TraceSink>,
    label: Option<&str>,
    body: impl FnOnce(&mut Clique) -> Result<T, ApspError>,
) -> Result<(T, u64), ApspError> {
    let mut net = Clique::new(n)?;
    if let Some(sink) = trace {
        net.set_trace_sink(sink.clone());
    }
    netcfg.apply(&mut net);
    if let Some(label) = label {
        net.push_span(label);
    }
    let result = body(&mut net);
    net.close_all_spans();
    match result {
        Ok(value) => Ok((value, net.rounds())),
        Err(e) => Err(ApspError::faulted(net.rounds(), e)),
    }
}

/// Runs `f` inside a span `label` opened on `trace`, whose subtree counts
/// `factor`-fold toward its parent, and closes the span when `f` returns,
/// an `Err` included.
pub(crate) fn in_span<T>(
    trace: Option<&TraceSink>,
    label: &str,
    factor: u64,
    f: impl FnOnce() -> T,
) -> T {
    if let Some(sink) = trace {
        sink.open_span_scaled(label, factor);
    }
    let out = f();
    if let Some(sink) = trace {
        sink.close_span();
    }
    out
}
