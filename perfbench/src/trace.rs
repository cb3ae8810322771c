//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out once the run ends.
//!
//! A span has a name (the layer), a start and end offset from the
//! tracer's creation, its parent span and the number of threads its
//! children run on. Recording is switched on and off per pass, so a
//! traced run can interleave traced and untraced passes and report the
//! difference as the tracing overhead.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open span; [`SpanId::NONE`] when recording is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The handle returned while recording is off (and the root parent).
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    threads: u32,
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer, recording from the start when `on`.
    #[must_use]
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            on: AtomicBool::new(on),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switches recording on or off for the spans opened from now on.
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking pass")
    }

    /// Opens a span named `name` under `parent`, whose children run on
    /// `threads` threads.
    pub fn begin(&self, name: &'static str, parent: SpanId, threads: u32) -> SpanId {
        if !self.on.load(Ordering::Relaxed) {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            threads: threads.max(1),
        });
        SpanId(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.now_ns();
        self.lock()[id.0].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent, 1);
        let out = f();
        self.end(id);
        out
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the share of it its children cover (children of a span whose work
    /// runs on `threads` threads cover `1/threads` of their duration).
    #[must_use]
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.lock();
        let mut covered = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                covered[p] += (s.end_ns - s.start_ns) as f64 / f64::from(spans[p].threads);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(&covered) {
            let own = ((s.end_ns - s.start_ns) as f64 - c).max(0.0) * 1e-9;
            *out.entry(s.name).or_insert(0.0) += own;
        }
        out
    }

    /// Every recorded span as one JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let spans = self.lock();
        let items: Vec<String> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"threads\":{}}}",
                    s.name, s.start_ns, s.end_ns, s.threads
                )
            })
            .collect();
        format!("{{\"spans\":[\n{}\n]}}\n", items.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        let id = t.begin("x", SpanId::NONE, 1);
        assert_eq!(id, SpanId::NONE);
        t.end(id);
        assert!(t.self_seconds().is_empty());
    }

    #[test]
    fn self_time_subtracts_children_per_thread() {
        let t = Tracer::new(true);
        t.lock().extend([
            Span {
                name: "pass",
                start_ns: 0,
                end_ns: 1_000,
                parent: None,
                threads: 2,
            },
            Span {
                name: "run",
                start_ns: 0,
                end_ns: 900,
                parent: Some(0),
                threads: 1,
            },
            Span {
                name: "run",
                start_ns: 0,
                end_ns: 900,
                parent: Some(0),
                threads: 1,
            },
        ]);
        let s = t.self_seconds();
        assert!((s["pass"] - 100e-9).abs() < 1e-15);
        assert!((s["run"] - 1_800e-9).abs() < 1e-15);
        assert!(t.to_json().contains("\"parent\":0"));
    }
}
