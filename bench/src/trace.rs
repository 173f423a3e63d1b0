//! In-memory spans around the calls into each layer.
//!
//! The crates under test carry no instrumentation; the benchmark wraps
//! their public functions instead.  A span records name, start, end, the
//! span that caused it and the request it belongs to; a layer's *self
//! time* is its span's duration minus its children's.  With the tracer
//! off, [`Tracer::span`] is a plain call — the untraced replay the
//! tracing overhead is measured against.

use std::fmt::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request_id: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    pub on: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on: true,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` (and no clock read) when tracing is off.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request_id: Option<u64>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let request_id = parent.and_then(|p| self.spans[p].request_id);
        let id = self.open(name, parent, request_id);
        let out = f();
        self.close(id);
        out
    }

    /// Every span's self time: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Share of the `root`-named spans' time that their children's self
    /// times account for — how much of the whole the stages close to.
    pub fn coverage(&self, root: &str) -> f64 {
        let own = self.self_times_ns();
        let (mut whole, mut staged) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root {
                whole += s.duration_ns();
            } else if s.parent.is_some_and(|p| self.spans[p].name == root) {
                staged += own[i];
            }
        }
        staged as f64 / whole.max(1) as f64
    }

    /// The trace file: one JSON object, spans in recording order, a
    /// span's `id` being its index.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"request_id\": {}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request_id),
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("request", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.inner", 60, 70, Some(2)),
        ];
        assert_eq!(t.self_times_ns(), vec![30, 30, 30, 10]);
        // a and b's self times (30 + 30) over the request's 100.
        assert!((t.coverage("request") - 0.6).abs() < 1e-12);
        assert_eq!(t.durations_ns("b"), vec![40.0]);
    }

    #[test]
    fn an_off_tracer_records_nothing_and_spans_nest_by_request() {
        let mut t = Tracer::new();
        let root = t.open("request", None, Some(9));
        let x = t.span("stage", root, || 42);
        t.close(root);
        assert_eq!(x, 42);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request_id, Some(9));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        t.on = false;
        let root = t.open("request", None, Some(10));
        assert_eq!(t.span("stage", root, || 7), 7);
        t.close(root);
        assert_eq!(t.spans.len(), 2);
        assert!(nsc_serve::json::parse(&t.to_json("w", 1)).is_ok());
    }
}
