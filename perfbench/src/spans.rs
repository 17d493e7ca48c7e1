//! In-memory spans for the traced run.
//!
//! The benchmark wraps its own calls into each layer in a span: name,
//! start, end, parent span and request id. Spans stay in memory and are
//! written once, when the run ends. A disabled tracer records nothing,
//! so the untraced run pays one branch per call.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::report::json_str;

/// Identifies a span so children can name their parent.
pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub req: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// for its children (0 when tracing is off).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        self.record(id, name, start_ns, parent, req);
        out
    }

    /// Starts a span whose end is recorded later with [`Tracer::end`]
    /// (for intervals that do not nest in one call, like a request in
    /// flight on a pipelined connection).
    pub fn begin(&self) -> (SpanId, u64) {
        if !self.enabled {
            return (0, 0);
        }
        (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
    }

    pub fn end(
        &self,
        (id, start_ns): (SpanId, u64),
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
    ) {
        if self.enabled {
            self.record(id, name, start_ns, parent, req);
        }
    }

    fn record(
        &self,
        id: SpanId,
        name: &'static str,
        start_ns: u64,
        parent: Option<SpanId>,
        req: u64,
    ) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking load thread")
            .push(Span {
                id,
                name,
                start_ns,
                end_ns,
                parent,
                req,
            });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking load thread")
            .clone()
    }

    /// Durations (seconds) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    /// Self time of the spans named `name` (seconds, summed): each
    /// span's duration minus the part of it its child spans cover.
    pub fn self_time(&self, name: &str) -> f64 {
        let spans = self.spans();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut kids: Vec<(u64, u64)> = spans
                    .iter()
                    .filter(|c| c.parent == Some(s.id))
                    .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                    .filter(|(a, b)| b > a)
                    .collect();
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns - covered) as f64 * 1e-9
            })
            .sum()
    }

    /// Writes every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "  {{\"id\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"req\": {}}}{}",
                s.id,
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                parent,
                s.req,
                if i + 1 < spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let t = Tracer::new(true);
        t.span("root", None, 7, |root| {
            t.span("child", Some(root), 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(10));
        });
        let total = t.durations("root")[0];
        let own = t.self_time("root");
        assert!(own < total - 0.015, "self {own} vs total {total}");
        assert!(own >= 0.009, "self {own}");
        assert!(t.spans().iter().all(|s| s.req == 7));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, |id| id), 0);
        assert!(t.spans().is_empty());
    }
}
