//! Spans recorded by the benchmark around its calls into the simulator
//! crates. Nothing inside the crates is instrumented: each span brackets
//! one public call (or a phase the benchmark sequences itself), so the
//! per-layer figures are taken from outside each layer.
//!
//! Spans are kept in memory and written out once, when the benchmark ends.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Locks a mutex, recovering the guard if a panicking thread poisoned
/// it: every value guarded here (the span log, a pass's accumulators) is
/// only changed by single complete updates, so it stays consistent.
pub fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Span identifier; [`ROOT`] is the implicit parent of top-level spans.
pub type SpanId = u64;

/// The parent of spans that have none.
pub const ROOT: SpanId = 0;

/// One recorded span: a name, its interval on the benchmark's monotone
/// clock, the span that caused it, and the run (grid cell, round or
/// iteration) it belongs to.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub run: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span recorder. Timing is always taken (callers use the returned
/// seconds); spans are only stored while recording is on.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    recording: AtomicBool,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            recording: AtomicBool::new(false),
            next: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Turns span recording on or off (the traced run alternates traced
    /// and untraced repetitions to measure the tracing overhead).
    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::Relaxed);
    }

    /// Runs `f` inside a span called `name`, handing it the new span's id
    /// (the parent for nested spans). Returns `f`'s result and the span's
    /// duration in seconds.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        run: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> (T, f64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.recording.load(Ordering::Relaxed) {
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            let span = Span {
                id,
                parent,
                run,
                name,
                start_ns: ns(start),
                end_ns: ns(end),
            };
            lock_clean(&self.spans).push(span);
        }
        (out, (end - start).as_secs_f64())
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        lock_clean(&self.spans).clone()
    }
}

/// Time of one span name, summed over its spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_s: f64,
    /// Span time minus the part of each span's interval that its child
    /// spans cover (children on parallel threads are merged, not summed).
    pub self_s: f64,
}

/// Per-name totals and self times, by name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let mut kids: Vec<(u64, u64)> = children
            .get(&s.id)
            .map(|v| {
                v.iter()
                    .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                    .filter(|(a, b)| a < b)
                    .collect()
            })
            .unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += total as f64 * 1e-9;
        t.self_s += (total - covered) as f64 * 1e-9;
    }
    out
}

/// Renders spans as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"run\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name, s.id, s.parent, s.run, s.start_ns, s.end_ns
        ));
    }
    out
}
