//! Deterministic, observe-only telemetry: span tracing, the serving
//! replay's event tape, a metrics registry, and Chrome trace-event export.
//!
//! The engine's outputs are pinned byte-for-byte by golden fixtures, so
//! instrumentation must never feed back into them. This module therefore
//! follows one hard contract, enforced by `tests/telemetry.rs`:
//!
//! * **Observe-only** — recording a span or bumping a counter changes no
//!   result, report, or fixture byte. Telemetry is carried as an
//!   `Option<Arc<Telemetry>>`; disabled overhead is a branch on that
//!   `Option`.
//! * **Two clocks, two determinism classes** — the serving replay's
//!   decisions live on the **virtual cycle clock**: the replay appends one
//!   heap-free `ReplayEvent` per dispatch, shed, retry, fault and degrade,
//!   plus one counter sample per series whose value changed at a settled
//!   instant, to a tape it owns and never reads, and hands the tape over
//!   once at the end of the run (`Telemetry::record_replay`). Those
//!   events are bit-identical across thread counts, and observe-only holds
//!   by construction: no replay decision can depend on a tape entry. Spans
//!   on the **wall clock** (pool jobs) carry real nanoseconds and worker
//!   ids; tests mask those fields, and [`Telemetry::chrome_trace_json`]
//!   sorts events by a key that excludes them, so the *set* of spans
//!   (names, categories, tags, virtual timestamps) is identical for every
//!   thread count even though the interleaving differs.
//! * **Contention-free recording** — each pool worker appends wall spans to
//!   its own buffer (plus one slot for external threads), so recording
//!   never contends on a shared lock in the hot path; the per-buffer mutex
//!   only serializes the single writer against the end-of-run export.
//!
//! The trace export is the Chrome trace-event JSON format: load the file
//! in [Perfetto](https://ui.perfetto.dev) ("Open trace file") or
//! `chrome://tracing`. Process 1 holds the wall-clock pool spans (one
//! track per worker), process 2 the virtual-clock serving events (one
//! track per tile, timestamps in cycles), rendered straight from the tapes:
//! each event's sort key is a fixed-width integer tuple that is also
//! everything its line shows, and every task name is ranked once per tape.
//! The `in_flight` and `queue_depth` counters hold one sample each time
//! their own series changes, which is all a counter track needs: a viewer
//! holds each value until the next sample.
//!
//! # Serve fault-tolerance taxonomy
//!
//! Serving runs with the fault layer active (see [`crate::faults`]) put
//! these entries on the tape, rendered and counted as:
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
//! * **Metrics** — folded from the tape at hand-over, one registry update
//!   per name: counters `serve.faults.tile_inject`,
//!   `serve.faults.tile_recover`, `serve.faults.transient`,
//!   `serve.retries`, `serve.degraded`, and the shed-cause counters
//!   `serve.shed.transient_fault` / `serve.shed.retries_exhausted` /
//!   `serve.shed.no_live_tiles` (alongside
//!   `serve.shed.predicted_slo_miss`). The replay itself sets the gauges
//!   `serve.deferred.peak`, `serve.deferred.total`, and
//!   `serve.tiles.min_live`.
//!
//! With the fault layer off none of these names appear, keeping traces
//! and metrics snapshots byte-identical to pre-fault runs.

use crate::json::{escape_json, json_f64, render_string, Row};
use crate::pool::current_worker_index;
use leopard_workloads::suite::TaskDescriptor;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One recorded wall-clock span. Non-deterministic: the export renders it
/// under pid 1 and tests mask `ts`/`dur`/`tid`.
#[derive(Debug)]
struct TraceEvent {
    /// Category: the span taxonomy (`build`, `sim`, `aggregate`, `execute`).
    cat: &'static str,
    /// Event name (typically the task name).
    name: String,
    /// Nanoseconds from the epoch to the span start.
    start_ns: u64,
    /// Span duration in nanoseconds.
    dur_ns: u64,
    /// Pool worker (or the external slot) that recorded the span.
    worker: usize,
    /// Structured tags (`task`, `head`, `unit`, `tile`, ...), in a fixed
    /// per-category order.
    args: Vec<(&'static str, u64)>,
}

/// Why the serving replay shed a request; each cause has its own counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShedCause {
    /// The SLO controller predicted a miss at the first dispatch attempt.
    PredictedSloMiss,
    /// A predicted SLO miss after the request spent its retry budget.
    RetriesExhausted,
    /// A transient dispatch fault after the retry budget was spent.
    TransientFault,
    /// Every tile is down with no recovery ahead.
    NoLiveTiles,
}

/// A counter series the replay samples at settled clock instants; a tape
/// keeps one sample vector per series, at index `series as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Series {
    /// Tiles busy with a dispatched request.
    InFlight,
    /// Requests waiting in the ready queue.
    QueueDepth,
}

/// One decision of the serving replay, on the virtual cycle clock. `task`
/// fields index the suite the replay ran; the export names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplayEvent {
    /// `(id, task, lead tile, start, service, wait, predicted)`: a request
    /// started on a gang, drawn as a span on the lead tile's lane.
    Dispatch(usize, usize, usize, u64, u64, u64, u64),
    /// `(cause, id, task, cycle, predicted)`: a request dropped undispatched.
    Shed(ShedCause, usize, usize, u64, u64),
    /// `(id, task, cycle, delay, attempt)`: a request deferred for `delay`
    /// cycles before its `attempt`-th retry.
    Retry(usize, usize, u64, u64, u32),
    /// `(id, cycle, attempt)`: a dispatch attempt drew a transient fault.
    Transient(usize, u64, u32),
    /// `(id, task, lead tile, cycle, level)`: a request served at a
    /// tightened-pruning level.
    Degrade(usize, usize, usize, u64, u32),
    /// `(recovered, tile, cycle, live tiles)`: a tile failed or came back.
    Tile(bool, usize, u64, usize),
}

impl ReplayEvent {
    /// The counter this decision bumps, if any.
    fn metric(&self) -> Option<&'static str> {
        Some(match self {
            ReplayEvent::Dispatch(..) => return None,
            ReplayEvent::Shed(ShedCause::PredictedSloMiss, ..) => "serve.shed.predicted_slo_miss",
            ReplayEvent::Shed(ShedCause::RetriesExhausted, ..) => "serve.shed.retries_exhausted",
            ReplayEvent::Shed(ShedCause::TransientFault, ..) => "serve.shed.transient_fault",
            ReplayEvent::Shed(ShedCause::NoLiveTiles, ..) => "serve.shed.no_live_tiles",
            ReplayEvent::Retry(..) => "serve.retries",
            ReplayEvent::Transient(..) => "serve.faults.transient",
            ReplayEvent::Degrade(..) => "serve.degraded",
            ReplayEvent::Tile(false, ..) => "serve.faults.tile_inject",
            ReplayEvent::Tile(true, ..) => "serve.faults.tile_recover",
        })
    }
}

/// The serving replay's decisions in order. The replay only appends to it
/// and hands it to [`Telemetry::record_replay`]; with telemetry off it
/// records nothing.
#[derive(Debug)]
pub(crate) struct ReplayTape(Option<Replay>);

impl ReplayTape {
    /// A tape for a replay of `suite` on `servers` tiles, recording when
    /// `on`.
    pub(crate) fn new(on: bool, suite: &[TaskDescriptor], servers: usize) -> Self {
        Self(on.then(|| Replay {
            events: Vec::new(),
            names: suite.iter().map(|task| task.name.clone()).collect(),
            ids: suite.iter().map(|task| task.id as u64).collect(),
            shed_lane: servers as u64,
            samples: [Vec::new(), Vec::new()],
        }))
    }

    /// Samples `series` at a settled instant: appends `(cycle, value())`
    /// to the series when the value differs from its last sample on this
    /// tape (the first sample is always kept). `value` runs only on a
    /// recording tape, so an untraced replay never computes it.
    pub(crate) fn sample(&mut self, cycle: u64, series: Series, value: impl FnOnce() -> usize) {
        if let Some(replay) = &mut self.0 {
            let value = value();
            let samples = &mut replay.samples[series as usize];
            if samples.last().map(|&(_, last)| last) != Some(value) {
                samples.push((cycle, value));
            }
        }
    }

    /// Appends one decision.
    pub(crate) fn push(&mut self, event: ReplayEvent) {
        if let Some(replay) = &mut self.0 {
            replay.events.push(event);
        }
    }
}

/// A tape's events with the suite's task names and ids their `task`
/// fields index, the lane past the last tile, where sheds, retries and
/// transient faults render, and each [`Series`]' `(cycle, value)` samples
/// in cycle order.
#[derive(Debug)]
struct Replay {
    events: Vec<ReplayEvent>,
    names: Vec<String>,
    ids: Vec<u64>,
    shed_lane: u64,
    samples: [Vec<(u64, usize)>; 2],
}

/// The pid-2 tracks in export order: by Chrome phase (spans, then
/// instants), then category. Tile and transient faults share the `fault`
/// category; `inject` and `recover` sort before `transient`, so two
/// tracks keep the name order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Track {
    Dispatch,
    Retry,
    Degrade,
    TileFault,
    Transient,
    Shed,
}

impl Track {
    /// The event's text from its category to `"tid": `, and one literal
    /// per arg that carries its separator and key (the first also opens
    /// `args`). Both are fixed per track.
    fn labels(self) -> (&'static str, &'static [&'static str]) {
        match self {
            Track::Dispatch => (
                "\", \"cat\": \"dispatch\", \"ph\": \"X\", \"pid\": 2, \"tid\": ",
                &[
                    ", \"args\": {\"id\": ",
                    ", \"task\": ",
                    ", \"wait\": ",
                    ", \"predicted\": ",
                ],
            ),
            Track::Retry => (
                "\", \"cat\": \"retry\", \"ph\": \"X\", \"pid\": 2, \"tid\": ",
                &[", \"args\": {\"id\": ", ", \"attempt\": "],
            ),
            Track::Degrade => (
                "\", \"cat\": \"degrade\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 2, \"tid\": ",
                &[", \"args\": {\"id\": ", ", \"level\": "],
            ),
            Track::TileFault => (
                "\", \"cat\": \"fault\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 2, \"tid\": ",
                &[", \"args\": {\"tile\": ", ", \"live\": "],
            ),
            Track::Transient => (
                "\", \"cat\": \"fault\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 2, \"tid\": ",
                &[", \"args\": {\"id\": ", ", \"attempt\": "],
            ),
            Track::Shed => (
                "\", \"cat\": \"shed\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 2, \"tid\": ",
                &[", \"args\": {\"id\": ", ", \"predicted\": "],
            ),
        }
    }
}

/// One pid-2 span or instant as its sort key, which is also everything it
/// renders. `name` ranks the task name in the export's sorted name table
/// (tile faults: 0 = `inject`, 1 = `recover`), so integer order is name
/// order; with fixed arg keys per track, comparing arg values orders
/// events exactly as comparing `(key, value)` lists does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct VirtualLine(Track, u32, u64, u64, u64, [u64; 4]);

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
        let mut counters = lock(&self.counters);
        *counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut gauges = lock(&self.gauges);
        gauges.insert(name.to_string(), value);
    }

    /// Observes every value in the named fixed-bucket histogram under one
    /// lock; `bounds` are the inclusive bucket upper bounds, used on first
    /// touch.
    pub fn observe_all(&self, name: &str, bounds: &[u64], values: impl IntoIterator<Item = u64>) {
        let mut histograms = lock(&self.histograms);
        let histogram = histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds));
        for value in values {
            histogram.observe(value);
        }
    }

    /// Merges an index-valued count vector (`counts[i]` observations of
    /// value `i`) into the named histogram. Do not mix with
    /// [`observe_all`](Self::observe_all) on the same name.
    pub fn merge_indexed(&self, name: &str, counts: &[u64]) {
        let mut histograms = lock(&self.histograms);
        histograms
            .entry(name.to_string())
            .or_default()
            .merge_indexed(counts);
    }

    /// A point-in-time copy of every metric, in name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock(&self.counters)
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: lock(&self.gauges)
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            histograms: lock(&self.histograms)
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

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Streams the snapshot as pretty-printed JSON. Key order is the
    /// snapshot's name order, so files diff cleanly across runs.
    pub fn write_json(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(b"{\n  \"counters\": {")?;
        write_map(w, &self.counters, |v| v.to_string())?;
        w.write_all(b",\n  \"gauges\": {")?;
        write_map(w, &self.gauges, |&v| json_f64(v).to_string())?;
        w.write_all(b",\n  \"histograms\": {")?;
        write_map(w, &self.histograms, |h| {
            format!(
                "{{\"bounds\": [{}], \"counts\": [{}], \"total\": {}, \"sum\": {}}}",
                join_u64(&h.bounds),
                join_u64(&h.counts),
                h.total,
                h.sum
            )
        })?;
        w.write_all(b"\n}\n")
    }

    /// [`write_json`](Self::write_json) into a `String`.
    pub fn to_json(&self) -> String {
        render_string(4096, |w| self.write_json(w))
    }
}

fn write_map<V>(
    w: &mut impl Write,
    map: &[(String, V)],
    f: impl Fn(&V) -> String,
) -> io::Result<()> {
    if map.is_empty() {
        return w.write_all(b"}");
    }
    for (i, (k, v)) in map.iter().enumerate() {
        let sep = if i == 0 { "\n    \"" } else { ",\n    \"" };
        write!(w, "{sep}{}\": {}", escape_json(k), f(v))?;
    }
    w.write_all(b"\n  }")
}

/// Locks one of the layer's mutexes: a metrics map, a span buffer or the
/// tape list.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    #[expect(
        clippy::expect_used,
        reason = "every guarded section only pushes, inserts or reads, so a poisoned telemetry lock means an instrumented thread panicked; observe-only telemetry must not mask that by fabricating data"
    )]
    mutex.lock().expect("telemetry lock poisoned")
}

fn join_u64(values: &[u64]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// The telemetry layer: per-worker wall-span buffers, the serving replay
/// tapes, a metrics registry, and the wall-clock epoch every wall span is
/// measured against.
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
    /// One tape per finished serving replay, in hand-over order.
    replays: Mutex<Vec<Replay>>,
    metrics: MetricsRegistry,
}

impl Telemetry {
    /// Creates a telemetry layer for a pool of `workers` threads.
    pub fn new(workers: usize) -> Self {
        Self {
            #[expect(clippy::disallowed_methods, reason = "the trace's wall epoch")]
            epoch: Instant::now(),
            buffers: (0..workers + 1).map(|_| Mutex::new(Vec::new())).collect(),
            replays: Mutex::new(Vec::new()),
            metrics: MetricsRegistry::default(),
        }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Records a completed wall-clock span that began at `start`, in the
    /// calling thread's buffer: the worker index inside the pool, the
    /// external slot everywhere else.
    pub fn record_wall_span(
        &self,
        cat: &'static str,
        name: String,
        start: Instant,
        args: Vec<(&'static str, u64)>,
    ) {
        let worker = current_worker_index().unwrap_or(self.buffers.len() - 1);
        let event = TraceEvent {
            cat,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: start.elapsed().as_nanos() as u64,
            worker,
            args,
        };
        lock(&self.buffers[worker]).push(event);
    }

    /// Takes a finished serving replay's tape: folds its counters into the
    /// registry (one update per counter name) and keeps the events for the
    /// trace export.
    pub(crate) fn record_replay(&self, tape: ReplayTape) {
        let Some(replay) = tape.0 else { return };
        let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
        for name in replay.events.iter().filter_map(ReplayEvent::metric) {
            *counts.entry(name).or_default() += 1;
        }
        for (name, count) in counts {
            self.metrics.incr(name, count);
        }
        lock(&self.replays).push(replay);
    }

    /// Number of trace events recorded so far: wall spans plus replay tape
    /// entries, each of which renders as one event.
    pub fn event_count(&self) -> usize {
        let wall: usize = self.buffers.iter().map(|b| lock(b).len()).sum();
        let replays = lock(&self.replays);
        let tape = replays
            .iter()
            .map(|r| r.events.len() + r.samples.iter().map(Vec::len).sum::<usize>());
        wall + tape.sum::<usize>()
    }

    /// Streams every recorded event as Chrome trace-event JSON, one event
    /// per line, loadable in Perfetto or `chrome://tracing`.
    ///
    /// The event order is a deterministic key that **excludes** every
    /// wall-clock quantity, so it is identical across thread counts; only
    /// the wall `ts`/`dur`/`tid` values differ (and tests mask exactly
    /// those). Wall spans render first, under pid 1, sorted by `(category,
    /// name, args)` with `ts`/`dur` in microseconds. The replay tapes
    /// render under pid 2 with raw cycle counts in `ts`/`dur`: spans, then
    /// instants, each by `(category, name, ts, lane, dur, args)`, then the
    /// `in_flight` and `queue_depth` counter samples by `(ts, value)`. A
    /// counter has a sample only where its own series changed on its tape.
    pub fn write_chrome_trace(&self, w: &mut impl Write) -> io::Result<()> {
        // Hold every buffer for the export and sort references: events are
        // rendered in place, never copied.
        let buffers: Vec<_> = self.buffers.iter().map(lock).collect();
        let mut wall: Vec<&TraceEvent> = buffers.iter().flat_map(|b| b.iter()).collect();
        wall.sort_by(|a, b| (a.cat, &a.name, &a.args).cmp(&(b.cat, &b.name, &b.args)));
        let replays = lock(&self.replays);
        let (lines, heads) = virtual_lines(&replays);

        w.write_all(
            b"{\n\"traceEvents\": [\n  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
              \"args\": {\"name\": \"pool workers (wall clock)\"}},\n  {\"name\": \"process_name\", \
              \"ph\": \"M\", \"pid\": 2, \"args\": {\"name\": \"virtual tiles (cycle clock)\"}}",
        )?;
        let mut row = Row::default();
        for event in wall {
            render_wall(&mut row, event).send(w)?;
        }
        for line in &lines {
            render_virtual(&mut row, line, &heads).send(w)?;
        }
        for (series, head) in [
            (
                Series::InFlight,
                ",\n  {\"name\": \"in_flight\", \"cat\": \"serve\", \"ph\": \"C\", \"pid\": 2, \
                 \"tid\": 0, \"ts\": ",
            ),
            (
                Series::QueueDepth,
                ",\n  {\"name\": \"queue_depth\", \"cat\": \"serve\", \"ph\": \"C\", \"pid\": 2, \
                 \"tid\": 0, \"ts\": ",
            ),
        ] {
            let tapes = replays.iter().flat_map(|r| &r.samples[series as usize]);
            let mut samples: Vec<(u64, usize)> = tapes.copied().collect();
            // One tape's samples are already in cycle order, so this sort is
            // a linear scan.
            samples.sort_unstable();
            for (cycle, value) in samples {
                row.str(head).u64(cycle).str(", \"args\": {\"value\": ");
                row.u64(value as u64).str("}}").send(w)?;
            }
        }
        w.write_all(b"\n]\n}\n")
    }

    /// [`write_chrome_trace`](Self::write_chrome_trace) into a `String`.
    pub fn chrome_trace_json(&self) -> String {
        let events = self.event_count();
        render_string(256 + events * TRACE_EVENT_BYTES, |w| {
            self.write_chrome_trace(w)
        })
    }
}

/// The pid-2 spans and instants of every tape, sorted, with the table
/// their name ranks index: each escaped name joined to the text that opens
/// its event.
fn virtual_lines(replays: &[Replay]) -> (Vec<VirtualLine>, Vec<String>) {
    let mut names: Vec<&str> = replays
        .iter()
        .flat_map(|r| r.names.iter().map(String::as_str))
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut lines = Vec::with_capacity(replays.iter().map(|r| r.events.len()).sum());
    for replay in replays {
        let (ids, lane) = (&replay.ids, replay.shed_lane);
        let ranks: Vec<u32> = (replay.names.iter())
            .map(|name| names.partition_point(|&n| n < name.as_str()) as u32)
            .collect();
        lines.extend(replay.events.iter().map(|event| match *event {
            ReplayEvent::Dispatch(id, task, lead, start, service, wait, predicted) => {
                let args = [id as u64, ids[task], wait, predicted];
                VirtualLine(
                    Track::Dispatch,
                    ranks[task],
                    start,
                    lead as u64,
                    service,
                    args,
                )
            }
            ReplayEvent::Shed(_, id, task, cycle, predicted) => {
                let args = [id as u64, predicted, 0, 0];
                VirtualLine(Track::Shed, ranks[task], cycle, lane, 0, args)
            }
            ReplayEvent::Retry(id, task, cycle, delay, attempt) => {
                let args = [id as u64, attempt.into(), 0, 0];
                VirtualLine(Track::Retry, ranks[task], cycle, lane, delay, args)
            }
            ReplayEvent::Transient(id, cycle, attempt) => {
                let args = [id as u64, attempt.into(), 0, 0];
                VirtualLine(Track::Transient, 0, cycle, lane, 0, args)
            }
            ReplayEvent::Degrade(id, task, lead, cycle, level) => {
                let args = [id as u64, level.into(), 0, 0];
                VirtualLine(Track::Degrade, ranks[task], cycle, lead as u64, 0, args)
            }
            ReplayEvent::Tile(recovered, tile, cycle, live) => {
                let (tile, args) = (tile as u64, [tile as u64, live as u64, 0, 0]);
                VirtualLine(Track::TileFault, recovered.into(), cycle, tile, 0, args)
            }
        }));
    }
    lines.sort_unstable();
    let heads = (names.iter())
        .map(|name| format!(",\n  {{\"name\": \"{}", escape_json(name)))
        .collect();
    (lines, heads)
}

/// Bytes reserved per rendered trace event: a little above the ~137-byte
/// mean of a deep-queue serving trace (~179-byte dispatch spans, ~115-byte
/// counter samples), so the export usually fits one reservation.
const TRACE_EVENT_BYTES: usize = 152;

fn render_wall<'r>(row: &'r mut Row, event: &TraceEvent) -> &'r mut Row {
    row.str(",\n  {\"name\": \"").str(&escape_json(&event.name));
    row.str(&format!(
        "\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
         \"args\": {{",
        event.cat,
        event.worker,
        event.start_ns as f64 / 1e3,
        event.dur_ns as f64 / 1e3,
    ));
    for (i, &(key, value)) in event.args.iter().enumerate() {
        row.str(if i == 0 { "\"" } else { ", \"" });
        row.str(key).str("\": ").u64(value);
    }
    row.str("}}")
}

fn render_virtual<'r>(row: &'r mut Row, line: &VirtualLine, heads: &[String]) -> &'r mut Row {
    let VirtualLine(track, name, ts, lane, dur, args) = *line;
    row.str(match track {
        Track::TileFault => {
            [",\n  {\"name\": \"inject", ",\n  {\"name\": \"recover"][name as usize]
        }
        Track::Transient => ",\n  {\"name\": \"transient",
        _ => &heads[name as usize],
    });
    let (head, keys) = track.labels();
    row.str(head).u64(lane).str(", \"ts\": ").u64(ts);
    if matches!(track, Track::Dispatch | Track::Retry) {
        row.str(", \"dur\": ").u64(dur);
    }
    for (key, value) in keys.iter().zip(args) {
        row.str(key).u64(value);
    }
    row.str("}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn counters_gauges_and_histograms_round_trip() {
        let registry = MetricsRegistry::default();
        registry.incr("jobs", 2);
        registry.incr("jobs", 3);
        registry.set_gauge("steals", 7.0);
        registry.set_gauge("steals", 9.0);
        registry.observe_all("latency", &[10, 100], [5, 50]);
        registry.observe_all("latency", &[10, 100], [5000]);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("jobs"), Some(5));
        assert_eq!(snapshot.gauges, [("steals".to_string(), 9.0)]);
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

    /// A test tape: its events, its `(cycle, value)` samples per
    /// [`Series`], and its shed lane.
    type Tape = (Vec<ReplayEvent>, [Vec<(u64, usize)>; 2], u64);

    /// A telemetry layer holding the tapes, each with its name table and
    /// the task ids 7, 3, 9, 1.
    fn with_tapes(tapes: &[Tape], names: &[Vec<&str>]) -> Telemetry {
        let telemetry = Telemetry::new(1);
        for ((events, samples, shed_lane), names) in tapes.iter().zip(names) {
            telemetry.record_replay(ReplayTape(Some(Replay {
                events: events.clone(),
                names: names.iter().map(|n| n.to_string()).collect(),
                ids: vec![7, 3, 9, 1],
                shed_lane: *shed_lane,
                samples: samples.clone(),
            })));
        }
        telemetry
    }

    #[test]
    fn trace_export_sorts_virtual_events_deterministically() {
        // Recorded out of order on purpose.
        let events = vec![
            ReplayEvent::Dispatch(1, 1, 1, 200, 10, 0, 9),
            ReplayEvent::Shed(ShedCause::PredictedSloMiss, 2, 2, 150, 9),
            ReplayEvent::Dispatch(0, 0, 0, 100, 10, 0, 9),
        ];
        let tape = (events, [vec![(120, 1)], vec![(120, 3)]], 4);
        let telemetry = with_tapes(&[tape], &[vec!["a", "b", "c"]]);
        let json = telemetry.chrome_trace_json();
        // Spans sort before instants before counters; within spans, by
        // virtual timestamp.
        let order = ["\"a\"", "\"b\"", "\"c\"", "in_flight", "queue_depth"].map(|n| json.find(n));
        assert!(
            order.is_sorted() && order[0].is_some(),
            "order drifted:\n{json}"
        );
        // The shed's cause is folded into its counter at hand-over.
        let counters = telemetry.metrics().snapshot().counters;
        assert_eq!(counters, [("serve.shed.predicted_slo_miss".into(), 1)]);
    }

    #[test]
    fn a_counter_sample_renders_only_where_its_own_series_changes() {
        let mut tape = ReplayTape::new(true, &[], 4);
        // (cycle, queue depth, in-flight tiles) at five settled instants.
        for (cycle, depth, busy) in [(10, 3, 4), (20, 5, 4), (30, 5, 2), (40, 3, 2), (50, 3, 4)] {
            tape.sample(cycle, Series::InFlight, || busy);
            tape.sample(cycle, Series::QueueDepth, || depth);
        }
        let telemetry = Telemetry::new(1);
        telemetry.record_replay(tape);
        let kept = [
            ("in_flight", 10, 4),
            ("in_flight", 30, 2),
            ("in_flight", 50, 4),
            ("queue_depth", 10, 3),
            ("queue_depth", 20, 5),
            ("queue_depth", 40, 3),
        ];
        let lines: String = kept
            .iter()
            .map(|(name, ts, value)| {
                format!(
                    ",\n  {{\"name\": \"{name}\", \"cat\": \"serve\", \"ph\": \"C\", \"pid\": 2, \
                     \"tid\": 0, \"ts\": {ts}, \"args\": {{\"value\": {value}}}}}"
                )
            })
            .collect();
        let json = telemetry.chrome_trace_json();
        assert!(
            json.ends_with(&format!("(cycle clock)\"}}}}{lines}\n]\n}}\n")),
            "{json}"
        );
        assert_eq!(telemetry.event_count(), kept.len());
        // An untraced tape records nothing and never computes a value.
        let mut off = ReplayTape::new(false, &[], 4);
        off.sample(10, Series::InFlight, || {
            unreachable!("computed off the tape")
        });
        assert!(off.0.is_none());
    }

    /// The oracle for the tape export: every tape entry (each counter
    /// sample one line) expanded into the per-event form the replay
    /// recorded before the tape — `(phase rank, category, name, ts, lane,
    /// dur, args)`, whose tuple order is the string key the export sorted
    /// by — sorted stably, and rendered with `write!`. Returns the pid-2
    /// lines and their count.
    fn oracle_pid2(tapes: &[Tape], names: &[Vec<&str>]) -> (String, usize) {
        let mut events = Vec::new();
        for ((tape, samples, shed), names) in tapes.iter().zip(names) {
            let (ids, shed, name) = ([7, 3, 9, 1], *shed, |task: usize| names[task].to_string());
            for (series, samples) in ["in_flight", "queue_depth"].into_iter().zip(samples) {
                for &(cycle, value) in samples {
                    let args = vec![("value", value as u64)];
                    events.push((2, "serve", series.into(), cycle, 0, 0, args));
                }
            }
            for event in tape {
                let (id, attempt) = ("id", "attempt");
                let expanded = match *event {
                    ReplayEvent::Dispatch(i, task, lead, start, service, wait, predicted) => {
                        let args = [(id, i as u64), ("task", ids[task]), ("wait", wait)];
                        let args = [&args[..], &[("predicted", predicted)]].concat();
                        (
                            0u8,
                            "dispatch",
                            name(task),
                            start,
                            lead as u64,
                            service,
                            args,
                        )
                    }
                    ReplayEvent::Shed(_, i, task, cycle, predicted) => {
                        let args = vec![(id, i as u64), ("predicted", predicted)];
                        (1, "shed", name(task), cycle, shed, 0, args)
                    }
                    ReplayEvent::Retry(i, task, cycle, delay, n) => {
                        let args = vec![(id, i as u64), (attempt, u64::from(n))];
                        (0, "retry", name(task), cycle, shed, delay, args)
                    }
                    ReplayEvent::Transient(i, cycle, n) => {
                        let args = vec![(id, i as u64), (attempt, u64::from(n))];
                        (1, "fault", "transient".into(), cycle, shed, 0, args)
                    }
                    ReplayEvent::Degrade(i, task, lead, cycle, level) => {
                        let args = vec![(id, i as u64), ("level", u64::from(level))];
                        (1, "degrade", name(task), cycle, lead as u64, 0, args)
                    }
                    ReplayEvent::Tile(recovered, tile, cycle, live) => {
                        let name = if recovered { "recover" } else { "inject" };
                        let args = vec![("tile", tile as u64), ("live", live as u64)];
                        (1, "fault", name.into(), cycle, tile as u64, 0, args)
                    }
                };
                events.push(expanded);
            }
        }
        events.sort();
        let mut out = String::new();
        for (phase, cat, name, ts, lane, dur, args) in &events {
            out.push_str(",\n  {\"name\": \"");
            out.push_str(&escape_json(name));
            let label = ["X", "i", "C"][usize::from(*phase)];
            let _ = write!(out, "\", \"cat\": \"{cat}\", \"ph\": \"{label}\", ");
            if *phase == 1 {
                out.push_str("\"s\": \"t\", ");
            }
            let _ = write!(out, "\"pid\": 2, \"tid\": {lane}, \"ts\": {ts}, ");
            if *phase == 0 {
                let _ = write!(out, "\"dur\": {dur}, ");
            }
            out.push_str("\"args\": {");
            for (i, (k, v)) in args.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{k}\": {v}");
            }
            out.push_str("}}");
        }
        (out, events.len())
    }

    /// Appends a tape entry of kind `kind % 7` (1: a counter sample, else
    /// an event) whose fields are 2-bit slices of `bits` (so names,
    /// cycles, lanes and args tie often), with `big` standing in for one
    /// field when `bits` says so.
    fn push_entry(tape: &mut Tape, kind: u32, bits: u64, big: u64) {
        let f = |i: u32| (bits >> (2 * i)) & 3;
        let wide = if f(9) == 0 { big } else { f(8) };
        let (id, task, lane, cycle) = (f(0) as usize, f(1) as usize, f(2) as usize, f(3));
        let small = f(4) as u32;
        let event = match kind % 7 {
            0 => ReplayEvent::Dispatch(id, task, lane, cycle, f(4), f(5), wide),
            1 => return tape.1[lane & 1].push((wide, small as usize)),
            2 => ReplayEvent::Shed(ShedCause::NoLiveTiles, id, task, cycle, wide),
            3 => ReplayEvent::Retry(id, task, cycle, wide, small),
            4 => ReplayEvent::Transient(id, cycle, small),
            5 => ReplayEvent::Degrade(id, task, lane, cycle, small),
            _ => ReplayEvent::Tile(small & 1 == 1, lane, cycle, f(5) as usize),
        };
        tape.0.push(event);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Over random tapes of every entry kind, split across two replays
        /// with their own name tables and shed lanes, the tape export
        /// renders exactly the oracle's pid-2 lines, and `event_count`
        /// counts them.
        #[test]
        fn prop_tape_export_matches_the_string_key_oracle(
            entries in proptest::collection::vec((0u32..7, 0u64..1 << 20, 0u64..u64::MAX), 0..96),
            split in 0usize..96,
        ) {
            let (first, second) = entries.split_at(split.min(entries.len()));
            let mut tapes: [Tape; 2] = [(vec![], Default::default(), 4), (vec![], Default::default(), 2)];
            for (tape, entries) in tapes.iter_mut().zip([first, second]) {
                for &(kind, bits, big) in entries {
                    push_entry(tape, kind, bits, big);
                }
            }
            let names = [vec!["b", "a\"q", "b", "c\n"], vec!["c\n", "b", "zz", "a\"q"]];
            let telemetry = with_tapes(&tapes, &names);
            let (oracle, count) = oracle_pid2(&tapes, &names);
            let json = telemetry.chrome_trace_json();
            let pid2 = json.split_once("(cycle clock)\"}}").expect("pid-2 metadata line").1;
            proptest::prop_assert_eq!(pid2, oracle + "\n]\n}\n");
            proptest::prop_assert_eq!(telemetry.event_count(), count);
        }
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a wall span's start")]
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
