//! In-memory spans for the traced run.
//!
//! Each span records its name, start, end, parent and the counts taken
//! at the same boundary. Spans are kept in memory and written out once
//! the run ends. A disabled tracer runs the closures and records
//! nothing, so the untraced path pays no tracing cost.

use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The value of count `key`, 0 when absent.
    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }
}

/// Span recorder (or a no-op when disabled).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed();
        self.last_closed = Some(id);
        out
    }

    /// Attaches a count to the span that closed last.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if let Some(id) = self.last_closed {
            self.spans[id].counts.push((key, value));
        }
    }

    /// Duration in seconds of the span that closed last.
    pub fn last_seconds(&self) -> f64 {
        self.last_closed
            .map_or(0.0, |id| self.spans[id].duration().as_secs_f64())
    }

    /// Every closed span named `name`, in start order.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Total duration of the spans named `name`, in seconds.
    pub fn seconds(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.duration().as_secs_f64()).sum()
    }

    /// Sum of count `key` over the spans named `name`.
    pub fn sum(&self, name: &str, key: &str) -> u64 {
        self.named(name).map(|s| s.count(key)).sum()
    }

    /// Writes every span as one JSON object per line, tagged with `run`.
    pub fn write(&self, path: &Path, run: &str) -> Result<(), String> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"run\":\"{run}\",\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"counts\":{{{}}}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                counts.join(",")
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
    }
}
