//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. They stay in memory and are written out as one JSON file
//! per workload when the run ends.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

use consensus_types::CommandId;

use crate::rig::stats::median;

/// One timed interval. `parent` indexes the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub command: Option<CommandId>,
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from this tracer's epoch to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span that groups the calls into one layer; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let now = self.now_ns();
        self.push(Span { name, start_ns: now, end_ns: now, command: None, parent: None })
    }

    pub fn close(&mut self, index: usize) {
        self.spans[index].end_ns = self.now_ns();
    }

    /// Times `f`: `spans` spans of `calls` back-to-back calls each, all
    /// children of `parent`. Returns the median over spans of the time per
    /// call, in nanoseconds. Calls that take tens of nanoseconds share a
    /// span because reading the clock costs as much as they do.
    pub fn time(
        &mut self,
        name: &'static str,
        parent: usize,
        spans: usize,
        calls: usize,
        mut f: impl FnMut(usize),
    ) -> f64 {
        let mut per_call = Vec::with_capacity(spans);
        for span in 0..spans {
            let start = Instant::now();
            for call in 0..calls {
                f(span * calls + call);
            }
            let end = Instant::now();
            per_call.push((end - start).as_nanos() as f64 / calls as f64);
            let (start_ns, end_ns) = (self.ns_at(start), self.ns_at(end));
            self.push(Span { name, start_ns, end_ns, command: None, parent: Some(parent) });
        }
        median(&per_call)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str) -> io::Result<()> {
        let mut out = String::with_capacity(96 * self.spans.len() + 64);
        let _ = write!(out, "{{\"workload\":\"{workload}\",\"spans\":[");
        for (index, span) in self.spans.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"command\":",
                span.name, span.start_ns, span.end_ns
            );
            match span.command {
                Some(id) => {
                    let _ = write!(out, "\"{id}\"");
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"parent\":");
            match span.parent {
                Some(parent) => {
                    let _ = write!(out, "{parent}");
                }
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::json;

    #[test]
    fn timed_calls_become_child_spans_and_the_file_parses() {
        let mut tracer = Tracer::new();
        let layer = tracer.open("wire");
        let mut calls = 0;
        let ns = tracer.time("wire.encode", layer, 3, 10, |_| calls += 1);
        tracer.close(layer);
        assert_eq!(calls, 30);
        assert!(ns >= 0.0);
        assert_eq!(tracer.len(), 4);

        let dir =
            std::env::temp_dir().join(format!("consensus-bench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace-test.json");
        tracer.write_json(&path, "test").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let doc = json::parse(&text).unwrap();
        let spans = doc.get("spans").and_then(json::Value::as_array).unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].get("parent").and_then(json::Value::as_f64), Some(0.0));
        assert_eq!(spans[0].get("parent"), Some(&json::Value::Null));
    }
}
