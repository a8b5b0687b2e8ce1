//! In-memory span recorder for the traced mode. Every call the benchmark
//! makes into a layer's public functions goes through [`Tracer::span`];
//! with tracing off that is a plain call, so untraced runs pay nothing.
//! Spans carry their parent (the enclosing span on the same thread) and
//! the operation they belong to, and are written out when the run ends.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Modeled counts and per-operation values recorded beside the spans.
    values: Mutex<BTreeMap<&'static str, Vec<f64>>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            values: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, recording a span named `name` for operation `op` when
    /// tracing is on.
    pub fn span<R>(&self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        CURRENT.with(|c| c.set(parent));
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(Span {
                id,
                parent,
                op,
                name,
                start_ns: start,
                end_ns: end,
            });
        out
    }

    /// Records one value under `name` when tracing is on.
    pub fn record(&self, name: &'static str, value: f64) {
        if self.on {
            self.values
                .lock()
                .expect("value map poisoned by a panicking thread")
                .entry(name)
                .or_default()
                .push(value);
        }
    }

    /// Durations in ms of every span named `name`, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    pub fn values(&self, name: &str) -> Vec<f64> {
        self.values
            .lock()
            .expect("value map poisoned by a panicking thread")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self
            .spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .iter()
        {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let t = Tracer::new(true);
        t.span("outer", 1, || t.span("inner", 1, || ()));
        let spans = t.spans.lock().unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 3), 3);
        t.record("v", 1.0);
        assert!(t.durations_ms("x").is_empty());
        assert!(t.values("v").is_empty());
    }
}
