//! In-memory span recorder for the traced run. Spans are taken by the
//! benchmark around its own calls into each layer's public functions and
//! written out once the run ends; with tracing off nothing is recorded.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one module analysis or one job share this identifier.
    pub trace: u64,
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// A span that has begun but not ended.
#[derive(Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    trace: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Collects spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Begins a span now; `None` when tracing is off.
    pub fn begin(&self, name: &'static str, trace: u64, parent: Option<u64>) -> Option<Open> {
        self.enabled
            .then(|| self.begin_at(name, trace, parent, Instant::now()))
            .flatten()
    }

    /// Begins a span at an instant taken earlier by the caller (a job's
    /// scheduled arrival); `None` when tracing is off.
    pub fn begin_at(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<u64>,
        start: Instant,
    ) -> Option<Open> {
        self.enabled.then(|| Open {
            // Relaxed: the id is a label and publishes no other data.
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            trace,
            name,
            start,
        })
    }

    /// Ends a span now.
    pub fn end(&self, open: Option<Open>) {
        let Some(open) = open else { return };
        let end = Instant::now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            trace: open.trace,
            name: open.name,
            start: open.start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        };
        self.spans
            .lock()
            .expect("no thread panics holding the span log")
            .push(span);
    }

    /// Runs `f` inside a span; with tracing off, just runs `f`.
    pub fn span<T>(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, trace, parent);
        let out = f();
        self.end(open);
        out
    }

    /// Durations, in seconds, of spans named `name`, in id order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let mut spans: Vec<Span> = self
            .spans
            .lock()
            .expect("no thread panics holding the span log")
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect();
        spans.sort_by_key(|s| s.id);
        spans.iter().map(Span::secs).collect()
    }

    /// Total seconds of spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes every span as one JSON object per line, in id order.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics holding the span log")
            .clone();
        spans.sort_by_key(|s| s.id);
        let mut out = String::new();
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_us\":{},\"end_us\":{}}}",
                s.id,
                s.trace,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", 0, None, || 3), 3);
        assert!(tracer.begin("y", 0, None).is_none());
        assert!(tracer.durations("x").is_empty());
    }

    #[test]
    fn children_name_their_parent_and_fit_inside_it() {
        let tracer = Tracer::new(true);
        let parent = tracer.begin("parent", 1, None);
        let parent_id = parent.as_ref().map(Open::id);
        tracer.span("child", 1, parent_id, || ());
        tracer.end(parent);
        let spans = tracer.spans.lock().expect("unpoisoned");
        let child = spans.iter().find(|s| s.name == "child").expect("child");
        let parent = spans.iter().find(|s| s.name == "parent").expect("parent");
        assert_eq!(child.parent, Some(parent.id));
        assert!(parent.start <= child.start && child.end <= parent.end);
    }
}
