//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! Spans stay in memory and are written as one Chrome trace (loadable
//! in Perfetto) when the run ends. Nothing here instruments the program:
//! every span brackets a call the benchmark itself makes.

use omp_telemetry::SpanRecord;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Accumulated time and call count of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Total {
    pub nanos: u64,
    pub calls: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    totals: BTreeMap<String, Total>,
    parent: u64,
    track: u32,
    next_id: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            totals: BTreeMap::new(),
            parent: 0,
            track: 0,
            next_id: 1,
        }
    }

    /// Runs `f` as one op: its layer spans become children of an op span
    /// on `track`. Returns `f`'s result and the op's wall time.
    pub fn op<R>(
        &mut self,
        name: &str,
        track: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, Duration) {
        let id = self.fresh_id();
        let (saved_parent, saved_track) = (self.parent, self.track);
        self.parent = id;
        self.track = track;
        let start = Instant::now();
        let r = f(self);
        let dur = start.elapsed();
        self.parent = saved_parent;
        self.track = saved_track;
        self.push_span(id, saved_parent, name, "op", track, start, dur);
        (r, dur)
    }

    /// Times one call into `layer`.
    pub fn time<R>(&mut self, layer: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let dur = start.elapsed();
        self.add(layer, dur.as_nanos() as u64, 1);
        self.record(layer, "layer", self.track, self.parent, start, dur);
        r
    }

    /// Records a span with explicit placement; returns its id.
    pub fn record(
        &mut self,
        name: &str,
        cat: &str,
        track: u32,
        parent: u64,
        start: Instant,
        dur: Duration,
    ) -> u64 {
        let id = self.fresh_id();
        self.push_span(id, parent, name, cat, track, start, dur);
        id
    }

    /// Adds time reported by the program itself (no span of its own).
    pub fn add(&mut self, layer: &str, nanos: u64, calls: u64) {
        let t = self.totals.entry(layer.to_string()).or_default();
        t.nanos += nanos;
        t.calls += calls;
    }

    pub fn total(&self, layer: &str) -> Total {
        self.totals.get(layer).copied().unwrap_or_default()
    }

    /// Total time of every layer whose name starts with `prefix`.
    pub fn total_prefix(&self, prefix: &str) -> u64 {
        self.totals
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, t)| t.nanos)
            .sum()
    }

    /// The spans as a Chrome trace-event document.
    pub fn chrome_trace(&mut self) -> String {
        self.spans.sort_by_key(|s| (s.start_micros, s.id));
        omp_telemetry::chrome_trace(&self.spans)
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    #[allow(clippy::too_many_arguments)]
    fn push_span(
        &mut self,
        id: u64,
        parent: u64,
        name: &str,
        cat: &str,
        track: u32,
        start: Instant,
        dur: Duration,
    ) {
        self.spans.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            cat: cat.to_string(),
            start_micros: start.saturating_duration_since(self.epoch).as_micros() as u64,
            dur_micros: dur.as_micros() as u64,
            track,
        });
    }
}
