//! Spans recorded from the benchmark's own files, around each call
//! into a layer.
//!
//! Spans inside the crates are a later change (ROADMAP item 2); until
//! then a layer's time is taken from outside, by timing its public
//! entry point. Spans are kept in memory and written out when the run
//! ends, so recording costs one `Instant` pair and one `Vec` push.

use crate::json;
use crate::stats::median;
use std::io::Write;
use std::time::Instant;

/// A span's index in its [`Tracer`]; the `parent` link of its
/// children.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<entry point>`, e.g. `accel.filter_diff`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one, if any.
    pub parent: Option<SpanId>,
    /// Spans of one request share its id.
    pub request: u64,
}

/// An in-memory span recorder. A disabled tracer records nothing and
/// reads no clock, so the untraced run pays one branch per call.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records.
    pub fn enabled() -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, recording a span around it when enabled.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.span_id(name, parent, request, f).0
    }

    /// Like [`Tracer::span`], also returning the new span's id so
    /// children can name it (`None` when disabled).
    pub fn span_id<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Option<SpanId>) {
        self.span_when(name, parent, request, f, |_| true)
    }

    /// Like [`Tracer::span_id`], but the span is kept only when
    /// `keep` says so of the result — for a call that may find
    /// nothing to do, which is then not a sample of the layer's work.
    pub fn span_when<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
        keep: impl FnOnce(&R) -> bool,
    ) -> (R, Option<SpanId>) {
        if !self.enabled {
            return (f(), None);
        }
        let start = self.epoch.elapsed();
        let value = f();
        let end = self.epoch.elapsed();
        if !keep(&value) {
            return (value, None);
        }
        self.spans.push(Span {
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
            parent,
            request,
        });
        (value, Some(self.spans.len() - 1))
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Median duration in microseconds and sample count of the spans
    /// called `name`.
    pub fn median_us(&self, name: &str) -> (f64, usize) {
        let d = self.durations_us(name);
        (median(&d), d.len())
    }

    /// Writes the spans to `out` as one JSON document.
    ///
    /// # Errors
    ///
    /// Any I/O error of `out`, including the final flush.
    pub fn write_json(
        &self,
        mut out: impl Write,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        write!(
            out,
            "{{\"workload\":{},\"seed\":{seed},\"clock\":\"host\",\"unit\":\"ns\",\"spans\":[",
            json::quote(workload)
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"id\":{i},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                if i == 0 { "" } else { "," },
                json::quote(s.name),
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_by_parent_and_share_a_request_id() {
        let mut t = Tracer::enabled();
        let ((), outer) = t.span_id("serve.request", None, 7, || ());
        // A child recorded after its parent closed still names it:
        // layers are replayed one after another, not nested in time.
        t.span("core.contributions", outer, 7, || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert_eq!(t.median_us("core.contributions").1, 1);
        assert_eq!(t.median_us("absent"), (0.0, 0));
    }

    #[test]
    fn disabled_tracer_runs_the_closure_and_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span_id("x", None, 0, || 41 + 1), (42, None));
        assert!(t.spans().is_empty() && !t.is_enabled());
    }

    #[test]
    fn written_trace_parses_back() {
        let mut t = Tracer::enabled();
        let ((), id) = t.span_id("a.b", None, 1, || ());
        t.span("c.d", id, 1, || ());
        let mut buf = Vec::new();
        t.write_json(&mut buf, "unit \"test\"", 9).unwrap();
        let doc = json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(
            doc.get("workload").and_then(json::Value::as_str),
            Some("unit \"test\"")
        );
        let spans = doc.get("spans").and_then(json::Value::as_array).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            spans[1].get("parent").and_then(json::Value::as_f64),
            Some(0.0)
        );
        assert_eq!(spans[0].get("parent"), Some(&json::Value::Null));
    }
}
