//! An in-memory span recorder for the traced replay.
//!
//! Spans nest strictly (the replay is single-threaded), carry the id of
//! the request or round that caused them, and are written out as JSON lines
//! when the run ends. A span's self time is its duration minus the time
//! its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in recording order.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, covered)| span.duration_ns().saturating_sub(covered))
            .collect()
    }

    /// Self times in µs grouped by span name.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            by_name
                .entry(span.name)
                .or_default()
                .push(self_ns as f64 / 1e3);
        }
        by_name
    }

    /// Durations in µs of the root spans named `name` (one per request or
    /// round).
    pub fn root_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, (span, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"req\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                span.name, span.req, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let until = Instant::now() + std::time::Duration::from_nanos(ns);
        while Instant::now() < until {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        tracer.span("root", 7, |t| {
            spin(200_000);
            t.span("child", 7, |t| {
                spin(300_000);
                t.span("grandchild", 7, |_| spin(100_000));
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.req == 7));
        let self_ns = tracer.self_ns();
        let total: u64 = self_ns.iter().sum();
        assert_eq!(total, spans[0].duration_ns());
        assert!(self_ns[0] >= 200_000 && self_ns[1] >= 300_000 && self_ns[2] >= 100_000);
        assert_eq!(tracer.root_us("root").len(), 1);
        assert!(tracer.root_us("child").is_empty());
    }
}
