//! In-memory spans of the traced run, written out when it ends.
//!
//! A span is `{name, start, end, parent, op_id}`: the call it brackets, its
//! bounds in nanoseconds since the log began, the span that caused it (0
//! for none) and the index of the scripted operation it served. Spans of
//! one operation share `op_id`. The log is bounded: once `cap` spans are
//! held further ones are counted in `dropped` (`trace.spans_dropped`), so
//! a rung with ten million domain calls cannot exhaust memory. Counters
//! and totals never depend on the log; it exists to be read.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u32,
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    cap: usize,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanLog {
    pub fn new(cap: usize) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            cap,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            dropped: 0,
        }
    }

    /// Records a span and returns its id (ids start at 1), or 0 if the
    /// log is full.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        op_id: u32,
    ) -> u32 {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            parent,
            op_id,
        });
        self.spans.len() as u32
    }

    /// Sets the end of span `id`, for spans pushed when they began so that
    /// the calls inside them could name them as parent.
    pub fn close(&mut self, id: u32, end: Instant) {
        if let Some(span) = self.spans.get_mut(id as usize - 1) {
            span.end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
    }
}

/// Renders the rungs' logs as one JSON document.
pub fn render(workload: &str, rungs: &[(&str, &SpanLog)]) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"rungs\": [\n");
    for (r, (rung, log)) in rungs.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"rung\": \"{rung}\", \"dropped\": {}, \"spans\": [",
            log.dropped
        );
        for (i, s) in log.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}    {{\"id\": {}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \
                 \"parent\": {}, \"op_id\": {}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.op_id
            );
        }
        out.push_str("\n  ]}");
        out.push_str(if r + 1 == rungs.len() { "\n" } else { ",\n" });
    }
    out.push_str("]}\n");
    out
}
