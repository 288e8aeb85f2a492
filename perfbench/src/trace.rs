//! Host-time helpers and the in-memory span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public API; nothing inside the program is instrumented.
//! They stay in memory until the run ends, then go to one JSONL file.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// The benchmark's only wall-clock read.
pub fn now() -> Instant {
    Instant::now() // lint: allow(wall-clock) — the benchmark measures host time; no simulated result depends on it
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One closed span: a named interval and the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Seconds since the tracer's epoch.
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Collects spans from any thread.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span and returns its id.
    pub fn begin(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start_s = secs_since(self.epoch);
        let mut spans = self.spans.lock().expect("span list lock");
        spans.push(Span {
            name,
            parent,
            start_s,
            end_s: f64::NAN,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn end(&self, id: usize) {
        let end_s = secs_since(self.epoch);
        self.spans.lock().expect("span list lock")[id].end_s = end_s;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

/// Runs `f` inside a span when a tracer is present.  `f` receives the id
/// of the new span, to parent its own children; untraced runs pay one
/// branch.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    f: impl FnOnce(Option<usize>) -> T,
) -> T {
    match tracer {
        None => f(None),
        Some(tracer) => {
            let id = tracer.begin(name, parent);
            let out = f(Some(id));
            tracer.end(id);
            out
        }
    }
}

/// Self seconds per span name, in first-seen order.  A span's self time is
/// its duration minus the part of its interval that its children cover
/// (children on parallel threads may overlap; the union is what counts).
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (id, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children[parent].push(id);
        }
    }
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (id, span) in spans.iter().enumerate() {
        let mut intervals: Vec<(f64, f64)> = children[id]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_s.max(span.start_s),
                    spans[c].end_s.min(span.end_s),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut open: Option<(f64, f64)> = None;
        for (a, b) in intervals {
            open = match open {
                Some((lo, hi)) if a <= hi => Some((lo, hi.max(b))),
                Some((lo, hi)) => {
                    covered += hi - lo;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        if let Some((lo, hi)) = open {
            covered += hi - lo;
        }
        let self_s = span.duration_s() - covered;
        match out.iter_mut().find(|(name, _)| *name == span.name) {
            Some(row) => row.1 += self_s,
            None => out.push((span.name, self_s)),
        }
    }
    out
}

/// Writes the spans as JSONL: `{"id", "name", "parent", "start_s", "end_s"}`.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut text = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        text.push_str(&format!(
            "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{}}}\n",
            s.name, s.start_s, s.end_s
        ));
    }
    fs::write(path, text)
}
