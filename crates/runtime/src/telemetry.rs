//! Deterministic, observe-only telemetry: span tracing, a metrics
//! registry, and Chrome trace-event export.
//!
//! The engine's outputs are pinned byte-for-byte by golden fixtures, so
//! instrumentation must never feed back into them. This module therefore
//! follows one hard contract, enforced by `tests/telemetry.rs`:
//!
//! * **Observe-only** — recording a span or bumping a counter changes no
//!   result, report, or fixture byte. Telemetry is carried as an
//!   `Option<Arc<Telemetry>>`; disabled overhead is a branch on that
//!   `Option`.
//! * **Two clocks, two determinism classes** — spans on the **virtual
//!   cycle clock** ([`SpanClock::Virtual`]: serving dispatches, sheds,
//!   queue-depth counters) are bit-identical across thread counts. Spans
//!   on the **wall clock** ([`SpanClock::Wall`]: pool jobs) carry real
//!   nanoseconds and worker ids; tests mask those fields, and
//!   [`Telemetry::chrome_trace_json`] sorts events by a key that excludes
//!   them, so the *set* of spans (names, categories, tags, virtual
//!   timestamps) is identical for every thread count even though the
//!   interleaving differs.
//! * **Contention-free recording** — each pool worker appends to its own
//!   buffer (plus one slot for external threads), so recording never
//!   contends on a shared lock in the hot path; the per-buffer mutex only
//!   serializes the single writer against the end-of-run export.
//!
//! The trace export is the Chrome trace-event JSON format: load the file
//! in [Perfetto](https://ui.perfetto.dev) ("Open trace file") or
//! `chrome://tracing`. Process 1 holds the wall-clock pool spans (one
//! track per worker), process 2 the virtual-clock serving spans (one
//! track per tile, timestamps in cycles).
//!
//! # Serve fault-tolerance taxonomy
//!
//! Serving runs with the fault layer active (see [`crate::faults`]) emit,
//! under the same observe-only contract:
//!
//! * **Virtual instants** — category `fault`: `inject`/`recover` on the
//!   failed tile's lane (args `tile`, `live`) when a tile-fault event
//!   fires, and `transient` on the shed lane (args `id`, `attempt`) when
//!   a dispatch draw fails. Category `degrade`: one instant named after
//!   the task on the gang's lead-tile lane (args `id`, `level`) when a
//!   request is served at a tightened-pruning level.
//! * **Virtual spans** — category `retry`: one span per deferral, named
//!   after the task, on the shed lane, from the deferral cycle for the
//!   backoff duration (args `id`, `attempt`).
//! * **Metrics** — counters `serve.faults.tile_inject`,
//!   `serve.faults.tile_recover`, `serve.faults.transient`,
//!   `serve.retries`, `serve.degraded`, and the shed-cause counters
//!   `serve.shed.transient_fault` / `serve.shed.retries_exhausted` /
//!   `serve.shed.no_live_tiles` (alongside the existing
//!   `serve.shed.predicted_slo_miss`); gauges `serve.deferred.peak`,
//!   `serve.deferred.total`, and `serve.tiles.min_live`.
//!
//! With the fault layer off none of these names appear, keeping traces
//! and metrics snapshots byte-identical to pre-fault runs.

use crate::pool::current_worker_index;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Which clock a trace event's timestamps live on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpanClock {
    /// Real time relative to the telemetry epoch. Non-deterministic; the
    /// export renders it under pid 1 and tests mask `ts`/`dur`/`tid`.
    Wall {
        /// Nanoseconds from the epoch to the span start.
        start_ns: u64,
        /// Span duration in nanoseconds.
        dur_ns: u64,
        /// Pool worker (or the external slot) that recorded the span.
        worker: usize,
    },
    /// The virtual cycle clock. Fully deterministic; rendered under pid 2.
    Virtual {
        /// Cycle the span starts at.
        start_cycle: u64,
        /// Span length in cycles (0 for instants and counters).
        dur_cycles: u64,
        /// Track within the virtual process (tile index; sheds use the
        /// lane one past the last tile).
        lane: u64,
    },
}

/// Chrome trace-event phase of one recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// A complete span (`"ph": "X"` — begin plus duration in one event).
    Complete,
    /// A zero-duration instant (`"ph": "i"`), e.g. an SLO shed decision.
    Instant,
    /// A counter sample (`"ph": "C"`), e.g. queue depth over virtual time.
    Counter,
}

impl TracePhase {
    fn label(self) -> &'static str {
        match self {
            TracePhase::Complete => "X",
            TracePhase::Instant => "i",
            TracePhase::Counter => "C",
        }
    }

    /// Sort rank within a process: spans, then instants, then counters.
    fn rank(self) -> u8 {
        match self {
            TracePhase::Complete => 0,
            TracePhase::Instant => 1,
            TracePhase::Counter => 2,
        }
    }
}

/// One recorded trace event (span, instant, or counter sample).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Category: the span taxonomy (`build`, `sim`, `aggregate`,
    /// `execute`, `dispatch`, `shed`, `serve`).
    pub cat: &'static str,
    /// Event name (typically the task name, or the counter name).
    pub name: String,
    /// Chrome trace-event phase.
    pub phase: TracePhase,
    /// Timestamps and track assignment.
    pub clock: SpanClock,
    /// Structured tags (`task`, `head`, `unit`, `tile`, `id`, ...), in a
    /// fixed per-category order.
    pub args: Vec<(&'static str, u64)>,
}

/// A fixed-bucket histogram: `counts[i]` counts observed values
/// `<= bounds[i]` (first matching bound wins), with one trailing overflow
/// bucket. [`MetricsRegistry::merge_indexed`] instead uses index-valued
/// buckets (`bounds[i] == i`), which is how the kernel's
/// bits-processed histograms merge in without per-score observe calls.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    /// Inclusive upper bound of each bucket.
    pub bounds: Vec<u64>,
    /// One count per bound plus a trailing overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub total: u64,
    /// Sum of observed values (index-weighted for merged histograms).
    pub sum: u128,
}

impl Histogram {
    fn with_bounds(bounds: &[u64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0,
        }
    }

    fn observe(&mut self, value: u64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.total += 1;
        self.sum += u128::from(value);
    }

    fn merge_indexed(&mut self, add: &[u64]) {
        if self.bounds.len() < add.len() {
            self.bounds = (0..add.len() as u64).collect();
            self.counts.resize(add.len() + 1, 0);
        }
        for (index, &count) in add.iter().enumerate() {
            self.counts[index] += count;
            self.total += count;
            self.sum += u128::from(index as u64) * u128::from(count);
        }
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }
}

/// Thread-safe counters, gauges, and fixed-bucket histograms, keyed by
/// name. Maps are `BTreeMap`s so snapshots render in a deterministic
/// order. Updates take a short global lock per call — metric updates
/// happen per *job*, not per score, so the lock is cold.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// Adds `by` to the named counter (created at zero).
    pub fn incr(&self, name: &str, by: u64) {
        let mut counters = self.counters.lock().expect("metrics lock poisoned"); // lint:allow(panic-in-library, reason = "a poisoned metrics lock means an instrumented thread panicked; observe-only telemetry must not mask that by fabricating data")
        *counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut gauges = self.gauges.lock().expect("metrics lock poisoned"); // lint:allow(panic-in-library, reason = "a poisoned metrics lock means an instrumented thread panicked; observe-only telemetry must not mask that by fabricating data")
        gauges.insert(name.to_string(), value);
    }

    /// Observes `value` in the named fixed-bucket histogram; `bounds` are
    /// the inclusive bucket upper bounds, used on first touch.
    pub fn observe(&self, name: &str, bounds: &[u64], value: u64) {
        let mut histograms = self.histograms.lock().expect("metrics lock poisoned"); // lint:allow(panic-in-library, reason = "a poisoned metrics lock means an instrumented thread panicked; observe-only telemetry must not mask that by fabricating data")
        histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .observe(value);
    }

    /// Merges an index-valued count vector (`counts[i]` observations of
    /// value `i`) into the named histogram. Do not mix with
    /// [`observe`](Self::observe) on the same name.
    pub fn merge_indexed(&self, name: &str, counts: &[u64]) {
        let mut histograms = self.histograms.lock().expect("metrics lock poisoned"); // lint:allow(panic-in-library, reason = "a poisoned metrics lock means an instrumented thread panicked; observe-only telemetry must not mask that by fabricating data")
        histograms
            .entry(name.to_string())
            .or_default()
            .merge_indexed(counts);
    }

    /// A point-in-time copy of every metric, in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("metrics lock poisoned") // lint:allow(panic-in-library, reason = "a poisoned metrics lock means an instrumented thread panicked; observe-only telemetry must not mask that by fabricating data")
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("metrics lock poisoned") // lint:allow(panic-in-library, reason = "a poisoned metrics lock means an instrumented thread panicked; observe-only telemetry must not mask that by fabricating data")
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("metrics lock poisoned") // lint:allow(panic-in-library, reason = "a poisoned metrics lock means an instrumented thread panicked; observe-only telemetry must not mask that by fabricating data")
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`], sorted by metric name.
/// Carried on `SuiteReport`/`ServingReport` for programmatic access and
/// rendered to its own JSON file by `--metrics` — never into the existing
/// report JSON/CSV, which stay byte-identical with telemetry on or off.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, in name order.
    pub gauges: Vec<(String, f64)>,
    /// `(name, histogram)` pairs, in name order.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Renders the snapshot as pretty-printed JSON (hand-rendered — the
    /// workspace serde is an offline stub). Key order is the snapshot's
    /// name order, so files diff cleanly across runs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        render_map(&mut out, &self.counters, |v| v.to_string());
        out.push_str(",\n  \"gauges\": {");
        render_map(&mut out, &self.gauges, |&v| json_f64(v));
        out.push_str(",\n  \"histograms\": {");
        render_map(&mut out, &self.histograms, |h| {
            format!(
                "{{\"bounds\": [{}], \"counts\": [{}], \"total\": {}, \"sum\": {}}}",
                join_u64(&h.bounds),
                join_u64(&h.counts),
                h.total,
                h.sum
            )
        });
        out.push_str("\n}\n");
        out
    }
}

fn render_map<V>(out: &mut String, entries: &[(String, V)], render: impl Fn(&V) -> String) {
    if entries.is_empty() {
        out.push('}');
        return;
    }
    for (i, (k, v)) in entries.iter().enumerate() {
        out.push_str(if i == 0 { "\n    \"" } else { ",\n    \"" });
        push_escaped(out, k);
        let _ = write!(out, "\": {}", render(v));
    }
    out.push_str("\n  }");
}

fn join_u64(values: &[u64]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Appends `s` to `out` as the body of a JSON string literal.
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// The telemetry layer: per-worker span buffers, a metrics registry, and
/// the wall-clock epoch every wall span is measured against.
///
/// Created by `SuiteRunner::with_telemetry` and threaded through the
/// suite and serving engines as an `Option<Arc<Telemetry>>`.
#[derive(Debug)]
pub struct Telemetry {
    epoch: Instant,
    /// One buffer per pool worker plus a trailing slot for external
    /// threads (the CLI/replay thread). A worker only ever pushes to its
    /// own slot, so recording never contends.
    buffers: Vec<Mutex<Vec<TraceEvent>>>,
    metrics: MetricsRegistry,
}

impl Telemetry {
    /// Creates a telemetry layer for a pool of `workers` threads.
    pub fn new(workers: usize) -> Self {
        Self {
            epoch: Instant::now(),
            buffers: (0..workers + 1).map(|_| Mutex::new(Vec::new())).collect(),
            metrics: MetricsRegistry::default(),
        }
    }

    /// The wall-clock epoch wall spans are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    fn push(&self, worker: usize, event: TraceEvent) {
        self.buffers[worker]
            .lock()
            .expect("telemetry buffer poisoned") // lint:allow(panic-in-library, reason = "a poisoned span buffer means an instrumented thread panicked; observe-only telemetry must not mask that by fabricating data")
            .push(event);
    }

    /// The buffer slot (and wall-span `tid`) of the calling thread: the
    /// worker index inside the pool, the external slot everywhere else.
    fn slot(&self) -> usize {
        current_worker_index().unwrap_or(self.buffers.len() - 1)
    }

    /// Records a completed wall-clock span that began at `start`.
    pub fn record_wall_span(
        &self,
        cat: &'static str,
        name: String,
        start: Instant,
        args: Vec<(&'static str, u64)>,
    ) {
        let worker = self.slot();
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.push(
            worker,
            TraceEvent {
                cat,
                name,
                phase: TracePhase::Complete,
                clock: SpanClock::Wall {
                    start_ns,
                    dur_ns,
                    worker,
                },
                args,
            },
        );
    }

    /// Records a completed virtual-clock span on `lane`.
    pub fn record_virtual_span(
        &self,
        cat: &'static str,
        name: String,
        lane: u64,
        start_cycle: u64,
        dur_cycles: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        self.push(
            self.slot(),
            TraceEvent {
                cat,
                name,
                phase: TracePhase::Complete,
                clock: SpanClock::Virtual {
                    start_cycle,
                    dur_cycles,
                    lane,
                },
                args,
            },
        );
    }

    /// Records a zero-duration virtual-clock instant on `lane`.
    pub fn record_instant(
        &self,
        cat: &'static str,
        name: String,
        lane: u64,
        cycle: u64,
        args: Vec<(&'static str, u64)>,
    ) {
        self.push(
            self.slot(),
            TraceEvent {
                cat,
                name,
                phase: TracePhase::Instant,
                clock: SpanClock::Virtual {
                    start_cycle: cycle,
                    dur_cycles: 0,
                    lane,
                },
                args,
            },
        );
    }

    /// Records a virtual-clock counter sample (rendered as a Chrome
    /// counter track named `name`).
    pub fn record_counter(&self, name: &'static str, cycle: u64, value: u64) {
        self.push(
            self.slot(),
            TraceEvent {
                cat: "serve",
                name: name.to_string(),
                phase: TracePhase::Counter,
                clock: SpanClock::Virtual {
                    start_cycle: cycle,
                    dur_cycles: 0,
                    lane: 0,
                },
                args: vec![("value", value)],
            },
        );
    }

    /// Number of events recorded so far, across all buffers.
    pub fn event_count(&self) -> usize {
        self.buffers
            .iter()
            .map(|b| b.lock().expect("telemetry buffer poisoned").len()) // lint:allow(panic-in-library, reason = "a poisoned span buffer means an instrumented thread panicked; observe-only telemetry must not mask that by fabricating data")
            .sum()
    }

    /// Renders every recorded event as Chrome trace-event JSON, one event
    /// per line, loadable in Perfetto or `chrome://tracing`.
    ///
    /// Events are sorted by a deterministic key — `(pid, phase, category,
    /// name, virtual timestamp, lane, duration, args)` — that **excludes**
    /// every wall-clock quantity, so the rendered event order is identical
    /// across thread counts; only the wall `ts`/`dur`/`tid` values differ
    /// (and tests mask exactly those). Wall spans render under pid 1 with
    /// `ts`/`dur` in microseconds; virtual spans render under pid 2 with
    /// the raw cycle count in the `ts`/`dur` fields.
    pub fn chrome_trace_json(&self) -> String {
        // Hold every buffer for the export and sort references: events are
        // rendered in place, never copied.
        let buffers: Vec<_> = self
            .buffers
            .iter()
            .map(|b| b.lock().expect("telemetry buffer poisoned")) // lint:allow(panic-in-library, reason = "a poisoned span buffer means an instrumented thread panicked; observe-only telemetry must not mask that by fabricating data")
            .collect();
        let mut events: Vec<&TraceEvent> = buffers.iter().flat_map(|b| b.iter()).collect();
        events.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));

        let mut out = String::with_capacity(256 + events.len() * TRACE_EVENT_BYTES);
        out.push_str("{\n\"traceEvents\": [\n");
        out.push_str(
            "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": {\"name\": \
             \"pool workers (wall clock)\"}},\n",
        );
        out.push_str(
            "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"args\": {\"name\": \
             \"virtual tiles (cycle clock)\"}}",
        );
        for event in events {
            out.push_str(",\n  ");
            render_event(&mut out, event);
        }
        out.push_str("\n]\n}\n");
        out
    }
}

/// Deterministic sort key: everything except wall-clock quantities.
#[allow(clippy::type_complexity)]
fn sort_key(
    e: &TraceEvent,
) -> (
    u8,
    u8,
    &'static str,
    &str,
    u64,
    u64,
    u64,
    &[(&'static str, u64)],
) {
    match &e.clock {
        SpanClock::Wall { .. } => (1, e.phase.rank(), e.cat, &e.name, 0, 0, 0, &e.args),
        SpanClock::Virtual {
            start_cycle,
            dur_cycles,
            lane,
        } => (
            2,
            e.phase.rank(),
            e.cat,
            &e.name,
            *start_cycle,
            *lane,
            *dur_cycles,
            &e.args,
        ),
    }
}

/// Bytes reserved per rendered trace event: a little above the ~125-byte
/// mean of a serving trace, so the export usually fits one reservation.
const TRACE_EVENT_BYTES: usize = 144;

fn render_event(out: &mut String, event: &TraceEvent) {
    out.push_str("{\"name\": \"");
    push_escaped(out, &event.name);
    let _ = write!(
        out,
        "\", \"cat\": \"{}\", \"ph\": \"{}\", ",
        event.cat,
        event.phase.label()
    );
    if event.phase == TracePhase::Instant {
        out.push_str("\"s\": \"t\", ");
    }
    match &event.clock {
        SpanClock::Wall {
            start_ns,
            dur_ns,
            worker,
        } => {
            let _ = write!(
                out,
                "\"pid\": 1, \"tid\": {worker}, \"ts\": {:.3}, \"dur\": {:.3}, ",
                *start_ns as f64 / 1e3,
                *dur_ns as f64 / 1e3,
            );
        }
        SpanClock::Virtual {
            start_cycle,
            dur_cycles,
            lane,
        } => {
            let _ = write!(out, "\"pid\": 2, \"tid\": {lane}, \"ts\": {start_cycle}, ");
            if event.phase == TracePhase::Complete {
                let _ = write!(out, "\"dur\": {dur_cycles}, ");
            }
        }
    }
    out.push_str("\"args\": {");
    for (i, (k, v)) in event.args.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{k}\": {v}");
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_round_trip() {
        let registry = MetricsRegistry::default();
        registry.incr("jobs", 2);
        registry.incr("jobs", 3);
        registry.set_gauge("steals", 7.0);
        registry.set_gauge("steals", 9.0);
        registry.observe("latency", &[10, 100], 5);
        registry.observe("latency", &[10, 100], 50);
        registry.observe("latency", &[10, 100], 5000);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("jobs"), Some(5));
        assert_eq!(snapshot.gauge("steals"), Some(9.0));
        let histogram = snapshot.histogram("latency").unwrap();
        assert_eq!(histogram.counts, vec![1, 1, 1]);
        assert_eq!(histogram.total, 3);
        assert_eq!(histogram.mean(), (5.0 + 50.0 + 5000.0) / 3.0);
        assert_eq!(snapshot.counter("missing"), None);
    }

    #[test]
    fn merge_indexed_accumulates_and_grows() {
        let registry = MetricsRegistry::default();
        registry.merge_indexed("bits", &[0, 2, 1]);
        registry.merge_indexed("bits", &[1, 0, 0, 4]);
        let snapshot = registry.snapshot();
        let histogram = snapshot.histogram("bits").unwrap();
        assert_eq!(&histogram.counts[..4], &[1, 2, 1, 4]);
        assert_eq!(histogram.total, 8);
        // Index-weighted sum: 2*1 + 1*2 + 4*3 = 16.
        assert_eq!(histogram.sum, 16);
    }

    #[test]
    fn snapshot_json_is_sorted_and_balanced() {
        let registry = MetricsRegistry::default();
        registry.incr("z.last", 1);
        registry.incr("a.first", 2);
        registry.set_gauge("bad", f64::NAN);
        registry.merge_indexed("h", &[1, 2]);
        let json = registry.snapshot().to_json();
        assert!(json.find("a.first").unwrap() < json.find("z.last").unwrap());
        assert!(json.contains("\"bad\": null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_snapshot_renders_valid_json() {
        let json = MetricsRegistry::default().snapshot().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn trace_export_sorts_virtual_events_deterministically() {
        let telemetry = Telemetry::new(2);
        // Recorded out of order on purpose.
        telemetry.record_virtual_span("dispatch", "b".into(), 1, 200, 10, vec![("id", 1)]);
        telemetry.record_virtual_span("dispatch", "a".into(), 0, 100, 10, vec![("id", 0)]);
        telemetry.record_instant("shed", "c".into(), 2, 150, vec![("id", 2)]);
        telemetry.record_counter("queue_depth", 120, 3);
        assert_eq!(telemetry.event_count(), 4);
        let json = telemetry.chrome_trace_json();
        // Spans sort before instants before counters; within spans, by
        // virtual timestamp.
        let a = json.find("\"name\": \"a\"").unwrap();
        let b = json.find("\"name\": \"b\"").unwrap();
        let c = json.find("\"name\": \"c\"").unwrap();
        let q = json.find("queue_depth").unwrap();
        assert!(a < b && b < c && c < q, "order drifted:\n{json}");
        assert!(json.contains("\"ph\": \"C\""));
        assert!(json.contains("\"s\": \"t\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn wall_spans_record_the_calling_slot_and_mask_targets() {
        let telemetry = Telemetry::new(3);
        let start = Instant::now();
        telemetry.record_wall_span("build", "task".into(), start, vec![("task", 7)]);
        let json = telemetry.chrome_trace_json();
        // Outside the pool the external slot (== worker count) is used.
        assert!(json.contains("\"pid\": 1, \"tid\": 3"), "{json}");
        assert!(json.contains("\"args\": {\"task\": 7}"));
    }
}
