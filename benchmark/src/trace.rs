//! In-memory span recorder for the traced run.
//!
//! A span covers one call into a layer: its name, start, end, the span that
//! caused it, and the id of the request it belongs to. Spans stay in memory
//! until the run ends; [`Tracer::write`] then dumps them with the work
//! counts. A layer's self time is its span's duration minus the durations
//! of its direct children (children run nested and back to back).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Work counts of one request, keyed by metric name. Deterministic: the
/// same request must produce the same counts on every replay.
pub type Counts = BTreeMap<&'static str, u64>;

/// Adds `n` to the count `name`.
pub fn add(counts: &mut Counts, name: &'static str, n: u64) {
    *counts.entry(name).or_insert(0) += n;
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span and returns its duration in ms.
    pub fn end(&mut self) -> f64 {
        let now = self.now_ns();
        let idx = self.open.pop().expect("end() without a matching begin()");
        let span = &mut self.spans[idx];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 / 1e6
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Renames the most recently opened span, for a call whose kind is only
    /// known once it returns.
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(span) = self.spans.last_mut() {
            span.name = name;
        }
    }

    /// Starts a new request: spans opened from now on carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    /// Total self time per span name, in ms.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Writes every span and the summed work counts as JSON.
    pub fn write(&self, path: &Path, counts: &Counts) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("],\"counts\":{");
        let fields: Vec<String> = counts.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        out.push_str(&fields.join(","));
        out.push_str("}}\n");
        std::fs::write(path, out)
    }
}
