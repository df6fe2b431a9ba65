//! Span timing from outside the program.
//!
//! The library's `TraceSink` writes one NDJSON event per span open/close,
//! communication call and injected fault, but carries no host time. The
//! benchmark hands it a [`StampedLines`] writer that stamps every line with
//! a monotonic [`Instant`] as it arrives and keeps the raw bytes in memory
//! until the run ends; [`reduce`] then rebuilds the span tree and charges
//! inclusive and self time per label and per layer.
//!
//! Attribution caveat: a `begin_phase` leaf span stays open until the next
//! phase begins, so local compute after a phase's last communication is
//! charged to that phase (Grover census work lands in
//! `step3/…/eval-answers`).

use qcc_congest::{parse_trace_line, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Default)]
struct Captured {
    bytes: Vec<u8>,
    /// One stamp per completed line, in order.
    stamps: Vec<Instant>,
}

/// An in-memory NDJSON writer that stamps each line on arrival.
///
/// Stamping must stay cheap: it happens inside the traced solve. The sink
/// writes a line's body and its newline in separate calls, so the only
/// per-byte work is the newline scan; the clock is read once per line.
#[derive(Clone, Default)]
pub struct StampedLines(Arc<Mutex<Captured>>);

impl StampedLines {
    /// A trace sink writing into this buffer.
    pub fn sink(&self) -> TraceSink {
        TraceSink::to_writer(Box::new(self.clone()))
    }

    /// Rebuilds the span tree of everything written so far.
    pub fn reduce(&self) -> Result<Reduction, String> {
        let captured = self.0.lock().map_err(|_| "trace buffer poisoned")?;
        let text = std::str::from_utf8(&captured.bytes).map_err(|e| e.to_string())?;
        reduce(text, &captured.stamps)
    }
}

impl Write for StampedLines {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut captured = self
            .0
            .lock()
            .map_err(|_| io::Error::other("trace buffer poisoned"))?;
        let lines = buf.iter().filter(|&&b| b == b'\n').count();
        if lines > 0 {
            let now = Instant::now();
            captured.stamps.extend(std::iter::repeat_n(now, lines));
        }
        captured.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Host time charged to one collapsed span label.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LabelTime {
    /// Spans closed under this label.
    pub count: u64,
    /// Summed open-to-close time.
    pub inclusive_s: f64,
    /// Summed time not covered by child spans.
    pub self_s: f64,
}

/// Self time and physical rounds of one layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Layer {
    /// Spans mapped to the layer.
    pub spans: u64,
    /// Summed self time of those spans.
    pub self_s: f64,
    /// Rounds of the layer's communication calls, scaled by every
    /// enclosing span's simulation factor.
    pub rounds: u64,
}

/// The reduced trace of one run.
#[derive(Clone, Debug, Default)]
pub struct Reduction {
    /// Per collapsed label.
    pub labels: BTreeMap<String, LabelTime>,
    /// Per layer (see [`layer_of`]).
    pub layers: BTreeMap<&'static str, Layer>,
    /// Scaled rounds of the whole trace: the physical rounds charged.
    pub rounds: u64,
    /// Communication calls, messages and bits, as the trace records them.
    pub calls: u64,
    /// Messages of all communication calls.
    pub messages: u64,
    /// Bits of all communication calls.
    pub bits: u64,
    /// Injected faults.
    pub faults: u64,
    /// Summed self time of every span: the host time the trace covers.
    pub covered_s: f64,
}

impl Reduction {
    /// The timing of a collapsed label (zero when it never occurred).
    pub fn label(&self, label: &str) -> LabelTime {
        self.labels.get(label).copied().unwrap_or_default()
    }

    /// The totals of a layer (zero when none of its spans occurred).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }
}

/// The layer (module) that owns a span label, if any.
pub fn layer_of(label: &str) -> Option<&'static str> {
    if label.starts_with("step3/") {
        Some("step3")
    } else if label.starts_with("identify-class/") {
        Some("identify_class")
    } else if label == "compute-pairs/step1-gather" {
        Some("gather")
    } else if label.starts_with("compute-pairs/step2-") {
        Some("lambda")
    } else if label.starts_with("find-edges/") {
        Some("find_edges")
    } else if label.starts_with("rlnc/") {
        Some("rlnc")
    } else {
        None
    }
}

/// Replaces the index of every indexed path segment (`product-3`,
/// `call12`, `loop0`, `alpha2`, `attempt-1`, `verify-1`, `src9`,
/// `gossip-apsp-0`) by `N`, so repeated spans aggregate under one label.
pub fn collapse(label: &str) -> String {
    const INDEXED: [&str; 8] = [
        "product-",
        "call",
        "loop",
        "alpha",
        "attempt-",
        "verify-",
        "src",
        "gossip-apsp-",
    ];
    let segments: Vec<String> = label
        .split('/')
        .map(|segment| {
            INDEXED
                .iter()
                .find(|prefix| {
                    segment.strip_prefix(*prefix).is_some_and(|index| {
                        !index.is_empty() && index.bytes().all(|b| b.is_ascii_digit())
                    })
                })
                .map_or_else(|| segment.to_string(), |prefix| format!("{prefix}N"))
        })
        .collect();
    segments.join("/")
}

struct Open {
    id: u64,
    label: String,
    layer: Option<&'static str>,
    /// Product of the factors of this span and its ancestors.
    scale: u64,
    start: Instant,
    children_s: f64,
}

/// Rebuilds the span tree from NDJSON `text` whose `i`-th line arrived at
/// `stamps[i]`, and charges host time and rounds to labels and layers.
pub fn reduce(text: &str, stamps: &[Instant]) -> Result<Reduction, String> {
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != stamps.len() {
        return Err(format!(
            "{} trace lines but {} stamps",
            lines.len(),
            stamps.len()
        ));
    }
    let mut out = Reduction::default();
    let mut stack: Vec<Open> = Vec::new();
    for (i, (line, &stamp)) in lines.iter().zip(stamps).enumerate() {
        match parse_trace_line(line, i + 1).map_err(|e| e.to_string())? {
            TraceEvent::Open {
                id,
                parent,
                label,
                factor,
            } => {
                if parent != stack.last().map(|s| s.id) {
                    return Err(format!("span {id} does not nest in the open span"));
                }
                stack.push(Open {
                    id,
                    layer: layer_of(&label),
                    label: collapse(&label),
                    scale: stack.last().map_or(1, |s| s.scale) * factor,
                    start: stamp,
                    children_s: 0.0,
                });
            }
            TraceEvent::Close { id, .. } => {
                let span = stack
                    .pop()
                    .filter(|s| s.id == id)
                    .ok_or_else(|| format!("span {id} closed out of order"))?;
                let inclusive_s = stamp.duration_since(span.start).as_secs_f64();
                let self_s = inclusive_s - span.children_s;
                if let Some(parent) = stack.last_mut() {
                    parent.children_s += inclusive_s;
                }
                let by_label = out.labels.entry(span.label).or_default();
                by_label.count += 1;
                by_label.inclusive_s += inclusive_s;
                by_label.self_s += self_s;
                if let Some(layer) = span.layer {
                    let by_layer = out.layers.entry(layer).or_default();
                    by_layer.spans += 1;
                    by_layer.self_s += self_s;
                }
                out.covered_s += self_s;
            }
            TraceEvent::Comm(comm) => {
                let open = stack.last();
                if comm.span != open.map(|s| s.id) {
                    return Err(format!("line {}: comm outside its span", i + 1));
                }
                let rounds = comm.rounds * open.map_or(1, |s| s.scale);
                out.rounds += rounds;
                out.calls += 1;
                out.messages += comm.messages;
                out.bits += comm.bits;
                if let Some(layer) = open.and_then(|s| s.layer) {
                    out.layers.entry(layer).or_default().rounds += rounds;
                }
            }
            TraceEvent::Fault { .. } => out.faults += 1,
        }
    }
    match stack.last() {
        Some(open) => Err(format!("span {} was never closed", open.id)),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn writer_stamps_each_line_once_however_it_is_split() {
        let buffer = StampedLines::default();
        let mut w = buffer.clone();
        w.write_all(b"{\"ev\":\"open\",\"id\":1,\"label\":\"a\"}")
            .unwrap();
        w.write_all(b"\n").unwrap();
        w.write_all(b"{\"ev\":\"open\",\"id\":2,\"parent\":1,\"label\":\"b\"}\n{\"ev\":\"close\",")
            .unwrap();
        w.write_all(b"\"id\":2}").unwrap();
        w.write_all(b"\n{\"ev\":\"close\",\"id\":1}\n").unwrap();
        let captured = buffer.0.lock().unwrap();
        assert_eq!(captured.stamps.len(), 4);
        assert!(captured.stamps.windows(2).all(|s| s[0] <= s[1]));
        assert_eq!(
            std::str::from_utf8(&captured.bytes)
                .unwrap()
                .lines()
                .count(),
            4
        );
        drop(captured);
        let r = buffer.reduce().unwrap();
        assert_eq!(r.label("a").count, 1);
        assert_eq!(r.label("b").count, 1);
    }

    #[test]
    fn sink_output_reduces() {
        let buffer = StampedLines::default();
        let sink = buffer.sink();
        sink.open_span("apsp");
        sink.open_span_scaled("product-0", 9);
        sink.close_span();
        sink.close_span();
        sink.flush().unwrap();
        let r = buffer.reduce().unwrap();
        assert_eq!(r.label("product-N").count, 1);
        assert!(r.label("apsp").inclusive_s >= r.label("product-N").inclusive_s);
    }

    /// A hand-written trace: `apsp` [0, 10] ⊃ `product-0` ×9 [1, 9] ⊃
    /// `step3/alpha0/eval-queries` [2, 5] (3 rounds) and
    /// `identify-class/broadcast` [5, 8] (2 rounds, one fault).
    #[test]
    fn self_time_is_inclusive_minus_children_and_rounds_are_scaled() {
        let text = r#"{"ev":"open","id":1,"label":"apsp"}
{"ev":"open","id":2,"parent":1,"label":"product-0","factor":9}
{"ev":"open","id":3,"parent":2,"label":"step3/alpha0/eval-queries"}
{"ev":"comm","kind":"exchange","span":3,"rounds":3,"messages":4,"bits":40,"max_link_bits":1,"max_node_out_bits":1,"max_node_in_bits":1}
{"ev":"close","id":3,"rounds":3}
{"ev":"open","id":4,"parent":2,"label":"identify-class/broadcast"}
{"ev":"fault","kind":"drop","span":4}
{"ev":"comm","kind":"gossip","span":4,"rounds":2,"messages":5,"bits":50,"max_link_bits":1,"max_node_out_bits":1,"max_node_in_bits":1}
{"ev":"close","id":4,"rounds":2}
{"ev":"close","id":2}
{"ev":"close","id":1}
"#;
        let t0 = Instant::now();
        let at = |s: u64| t0 + Duration::from_secs(s);
        let stamps = [
            at(0),
            at(1),
            at(2),
            at(3),
            at(5),
            at(5),
            at(6),
            at(7),
            at(8),
            at(9),
            at(10),
        ];
        let r = reduce(text, &stamps).unwrap();
        let step3 = r.layer("step3");
        assert_eq!((step3.spans, step3.self_s, step3.rounds), (1, 3.0, 27));
        let identify = r.layer("identify_class");
        assert_eq!((identify.self_s, identify.rounds), (3.0, 18));
        let product = r.label("product-N");
        assert_eq!((product.inclusive_s, product.self_s), (8.0, 2.0));
        let root = r.label("apsp");
        assert_eq!((root.inclusive_s, root.self_s), (10.0, 2.0));
        assert_eq!(r.label("step3/alphaN/eval-queries").count, 1);
        assert_eq!((r.rounds, r.calls, r.messages, r.bits), (45, 2, 9, 90));
        assert_eq!(r.faults, 1);
        assert_eq!(r.covered_s, 10.0);
        assert_eq!(r.layer("rlnc"), Layer::default());
    }

    #[test]
    fn malformed_nesting_is_an_error() {
        let t = Instant::now();
        let unclosed = "{\"ev\":\"open\",\"id\":1,\"label\":\"a\"}\n";
        assert!(reduce(unclosed, &[t]).is_err());
        let crossed = "{\"ev\":\"open\",\"id\":1,\"label\":\"a\"}\n\
                       {\"ev\":\"open\",\"id\":2,\"parent\":1,\"label\":\"b\"}\n\
                       {\"ev\":\"close\",\"id\":1}\n";
        assert!(reduce(crossed, &[t, t, t]).is_err());
        assert!(reduce(unclosed, &[]).is_err());
    }

    #[test]
    fn indices_collapse_only_in_indexed_segments() {
        assert_eq!(collapse("product-3"), "product-N");
        assert_eq!(
            collapse("distance-product/call12"),
            "distance-product/callN"
        );
        assert_eq!(
            collapse("step3/alpha2/eval-answers"),
            "step3/alphaN/eval-answers"
        );
        assert_eq!(
            collapse("compute-pairs/step1-gather"),
            "compute-pairs/step1-gather"
        );
        assert_eq!(collapse("find-edges/loop0"), "find-edges/loopN");
        assert_eq!(collapse("rlnc/src15"), "rlnc/srcN");
        assert_eq!(collapse("attempt-1"), "attempt-N");
        assert_eq!(collapse("callback"), "callback");
    }
}
