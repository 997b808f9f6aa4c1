//! Spans the benchmark records around its own calls into each layer, and
//! the Chrome trace file that merges them with the server's trace rings.
//!
//! A span carries its name, layer, start, end, parent span and request
//! id. Spans stay in memory until the run ends; nothing is written while
//! a pass is timed.

use m2x_telemetry::{stage, DrainedRing, Telemetry, TraceKind};
use std::fmt::Write as _;
use std::sync::Arc;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the call went into (`gateway`, `serve`, `nn`, `core`).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start on the pass clock, µs.
    pub start_us: u64,
    /// End on the pass clock, µs.
    pub end_us: u64,
    /// Unique id (recording thread in the high bits).
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Request id the call served (0 when none).
    pub req: u64,
    /// Recording thread.
    pub tid: u32,
}

/// A span that has started but not ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// The id the span will carry.
    pub id: u64,
    start_us: u64,
}

/// Per-thread span buffer. A disabled recorder reads no clock and keeps
/// nothing, so untraced passes pay one branch per call site.
#[derive(Debug)]
pub struct Recorder {
    clock: Option<Arc<Telemetry>>,
    spans: Vec<Span>,
    next: u64,
    tid: u32,
}

impl Recorder {
    /// A recorder on `clock` (the pass's telemetry clock); `None` disables
    /// recording.
    pub fn new(clock: Option<Arc<Telemetry>>, tid: u32) -> Recorder {
        Recorder {
            clock,
            spans: Vec::new(),
            next: 1,
            tid,
        }
    }

    /// Starts a span.
    pub fn open(&mut self) -> Open {
        let Some(clock) = &self.clock else {
            return Open { id: 0, start_us: 0 };
        };
        let id = (u64::from(self.tid) << 40) | self.next;
        self.next += 1;
        Open {
            id,
            start_us: clock.now_us(),
        }
    }

    /// Ends `open` now.
    pub fn close(
        &mut self,
        open: Open,
        layer: &'static str,
        name: &'static str,
        parent: u64,
        req: u64,
    ) {
        if let Some(clock) = &self.clock {
            self.spans.push(Span {
                layer,
                name,
                start_us: open.start_us,
                end_us: clock.now_us(),
                id: open.id,
                parent,
                req,
                tid: self.tid,
            });
        }
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Everything one pass leaves in the trace file.
#[derive(Debug, Default)]
pub struct PassTrace {
    /// Pass label (the Chrome trace process name).
    pub name: String,
    /// The benchmark's own spans.
    pub spans: Vec<Span>,
    /// Events drained from the server's rings during and after the pass.
    pub rings: Vec<DrainedRing>,
}

impl PassTrace {
    /// An empty trace for the pass called `name`.
    pub fn named(name: &str) -> PassTrace {
        PassTrace {
            name: name.to_string(),
            ..PassTrace::default()
        }
    }

    /// Appends a drain of `telemetry`, merging events ring by ring.
    pub fn absorb(&mut self, telemetry: &Telemetry) {
        for ring in telemetry.drain() {
            match self.rings.iter_mut().find(|r| r.tid == ring.tid) {
                Some(r) => {
                    r.events.extend(ring.events);
                    r.dropped += ring.dropped;
                }
                None => self.rings.push(ring),
            }
        }
    }
}

/// Renders the passes as one Chrome trace-event document (one process per
/// pass; the benchmark's threads and the server's rings as its threads).
pub fn chrome_trace(passes: &[PassTrace]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };
    for (pid, pass) in passes.iter().enumerate() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"args\":{{\"name\":\"{}\"}}}}",
            pass.name
        );
        for ring in &pass.rings {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"name\":\"server {} (dropped {})\"}}}}",
                ring.tid, ring.name, ring.dropped
            );
            for e in &ring.events {
                sep(&mut out);
                let name = stage::name(e.stage);
                let _ = match e.kind {
                    TraceKind::Span => write!(
                        out,
                        "{{\"name\":\"{name}\",\"cat\":\"server\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"req\":{},\"value\":{}}}}}",
                        e.ts_us, e.dur_us, ring.tid, e.req, e.value
                    ),
                    TraceKind::Instant => write!(
                        out,
                        "{{\"name\":\"{name}\",\"cat\":\"server\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"req\":{},\"value\":{}}}}}",
                        e.ts_us, ring.tid, e.req, e.value
                    ),
                };
            }
        }
        for s in &pass.spans {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}.{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                s.layer,
                s.name,
                s.layer,
                s.start_us,
                s.end_us.saturating_sub(s.start_us),
                100 + s.tid,
                s.id,
                s.parent,
                s.req
            );
        }
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render() {
        let clock = Arc::new(Telemetry::new(true));
        let mut rec = Recorder::new(Some(Arc::clone(&clock)), 3);
        let outer = rec.open();
        let inner = rec.open();
        rec.close(inner, "serve", "submit_with", outer.id, 7);
        rec.close(outer, "serve", "request", 0, 7);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(spans[0].start_us >= spans[1].start_us && spans[0].end_us <= spans[1].end_us);
        let doc = chrome_trace(&[PassTrace {
            spans,
            ..PassTrace::named("p")
        }]);
        assert!(doc.contains("\"name\":\"serve.submit_with\""));
        assert!(doc.ends_with("]}\n"));
        // A disabled recorder keeps nothing.
        let mut off = Recorder::new(None, 0);
        let o = off.open();
        off.close(o, "serve", "x", 0, 0);
        assert!(off.into_spans().is_empty());
    }
}
