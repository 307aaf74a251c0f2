//! Wall-clock spans recorded around the benchmark's calls into each
//! layer, kept in memory and summarized (or written out) at the end.
//!
//! A span names the layer call it times (`synth.structure`,
//! `sim.step`, …), the span that contains it, the thread it ran on, its
//! start and its duration. A layer's *self time* is its duration minus
//! the durations of its direct children. Per-cycle calls are timed one
//! by one but recorded as one span per chunk whose duration is their
//! sum ([`Tracer::record`]), so a traced run keeps a few thousand spans,
//! not millions.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The root span of every operation; its self time is the benchmark's
/// own loop overhead, not any layer's.
pub const OP: &str = "op";

/// The main-thread span around a parallel fan-out; its self time (the
/// main thread waiting) is handed to the worker spans it waited for.
pub const PAR_RUN: &str = "par.run";

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `floorplan.anneal`.
    pub name: &'static str,
    /// Index of the containing span (same thread), if any.
    pub parent: Option<usize>,
    /// 0 for the main thread, 1 for fan-out workers.
    pub thread: usize,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in ns (a sum of timed calls for chunked spans).
    pub dur_ns: u64,
}

/// Span recorder; a disabled tracer costs one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer for the main thread.
    pub fn enabled() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::disabled()
        }
    }

    /// A tracer for a fan-out worker: same epoch and on/off state; its
    /// spans come back to the main tracer through [`Tracer::merge`].
    pub fn worker(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            epoch: self.epoch,
            thread: 1,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            thread: self.thread,
            start_ns: self.ns(start),
            dur_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].dur_ns = start.elapsed().as_nanos() as u64;
        out
    }

    /// Records a span of summed duration `total` for calls timed one by
    /// one since `start`, as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, total: Duration) {
        if self.enabled {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                thread: self.thread,
                start_ns: self.ns(start),
                dur_ns: total.as_nanos() as u64,
            });
        }
    }

    /// Appends a worker tracer's spans.
    pub fn merge(&mut self, worker: Tracer) {
        let base = self.spans.len();
        self.spans.extend(worker.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// The recorded spans, in start order per thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur_ns);
        }
    }
    out
}

/// Per-layer totals on the main thread's timeline.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Calls (recorded spans) of the layer.
    pub calls: u64,
    /// Self time in ns, attributed to the main thread's timeline.
    pub self_ns: f64,
}

/// Sums self time per layer. Worker self time is scaled so that all of
/// it together equals the main thread's [`PAR_RUN`] self time (the wall
/// time the fan-outs took): each worker layer gets the share of that
/// wall time that it had of the workers' busy time, and the layers add
/// up to the wall time of the run.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let own = self_times(spans);
    let worker_busy: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.thread != 0)
        .map(|(_, t)| t)
        .sum();
    let fan_out: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.thread == 0 && s.name == PAR_RUN)
        .map(|(_, t)| t)
        .sum();
    let scale = if worker_busy > 0 {
        fan_out as f64 / worker_busy as f64
    } else {
        1.0
    };
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&own) {
        let attributed = match (s.thread, s.name) {
            (0, PAR_RUN) if worker_busy > 0 => 0.0,
            (0, _) => t as f64,
            _ => t as f64 * scale,
        };
        let layer = out.entry(s.name).or_default();
        layer.calls += 1;
        layer.self_ns += attributed;
    }
    out
}

/// Share of `wall_ns` covered by layer spans: everything but the
/// operations' own loop overhead.
pub fn coverage(layers: &BTreeMap<&'static str, Layer>, wall_ns: f64) -> f64 {
    let covered: f64 = layers
        .iter()
        .filter(|(name, _)| **name != OP)
        .map(|(_, l)| l.self_ns)
        .sum();
    covered / wall_ns
}

/// The spans as JSON lines (one object per span, with its self time).
pub fn spans_jsonl(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    for (i, (s, t)) in spans.iter().zip(own).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"thread\":{},\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{t}}}",
            s.name, s.thread, s.start_ns, s.dur_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, thread: usize, dur_ns: u64) -> Span {
        Span {
            name,
            parent,
            thread,
            start_ns: 0,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op(100) ⊃ synth(60) ⊃ structure(25), structure(15); op ⊃ rtl(30)
        let spans = vec![
            span(OP, None, 0, 100),
            span("synth", Some(0), 0, 60),
            span("structure", Some(1), 0, 25),
            span("structure", Some(1), 0, 15),
            span("rtl", Some(0), 0, 30),
        ];
        assert_eq!(self_times(&spans), vec![10, 20, 25, 15, 30]);
        let l = layers(&spans);
        assert_eq!(l["structure"].calls, 2);
        assert_eq!(l["structure"].self_ns, 40.0);
        assert_eq!(l["synth"].self_ns, 20.0);
        // Self times add up to the root's duration.
        let total: f64 = l.values().map(|x| x.self_ns).sum();
        assert_eq!(total, 100.0);
        assert!((coverage(&l, 100.0) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn fan_out_wall_time_goes_to_worker_layers() {
        // The main thread waits 50 ns in par.run while two workers are
        // busy 30 + 45 ns in `a` and 25 ns in `b`.
        let spans = vec![
            span(OP, None, 0, 60),
            span(PAR_RUN, Some(0), 0, 50),
            span("a", None, 1, 30),
            span("a", None, 1, 45),
            span("b", None, 1, 25),
        ];
        let l = layers(&spans);
        assert_eq!(l[PAR_RUN].self_ns, 0.0);
        assert!((l["a"].self_ns - 37.5).abs() < 1e-9);
        assert!((l["b"].self_ns - 12.5).abs() < 1e-9);
        assert_eq!(l[OP].self_ns, 10.0);
        let total: f64 = l.values().map(|x| x.self_ns).sum();
        assert!((total - 60.0).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_records_and_merges() {
        let mut tr = Tracer::enabled();
        tr.span(OP, |tr| {
            tr.span("outer", |tr| {
                tr.record("chunk", Instant::now(), Duration::from_nanos(5));
            });
            let mut w = tr.worker();
            w.span("w", |_| {});
            tr.merge(w);
        });
        let s = tr.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[2].name, s[2].parent, s[2].dur_ns), ("chunk", Some(1), 5));
        assert_eq!((s[3].thread, s[3].parent), (1, None));
        assert!(spans_jsonl(s).lines().count() == 4);

        let mut off = Tracer::disabled();
        assert_eq!(off.span("x", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
