//! In-memory span recorder for the traced pass. Spans are taken from the
//! benchmark's side, around calls into each layer's public functions, and
//! written out once the benchmark ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
pub struct Span {
    /// Layer span name, e.g. `build.synth`.
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The traced pass the span belongs to.
    pub run: u32,
}

impl Span {
    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The recorder. Spans nest by call structure on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Tags the spans recorded from now on with pass `run`. Spans a
    /// panicked pass left open are closed off as they are.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
        self.open.clear();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested in the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Seconds of the most recent span named `name`.
    pub fn last_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, Span::seconds)
    }

    /// Self time and span count per name over pass `run`. A span's self
    /// time is its duration minus its children's: spans on one thread never
    /// overlap, so the children cover exactly the sum of their durations.
    pub fn self_times(&self, run: u32) -> BTreeMap<&'static str, (f64, u64)> {
        let mut self_s: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for span in self.spans.iter().filter(|s| s.run == run) {
            if let Some(parent) = span.parent {
                self_s[parent] -= span.seconds();
            }
        }
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_s).filter(|(s, _)| s.run == run) {
            let entry = out.entry(span.name).or_insert((0.0, 0));
            entry.0 += own;
            entry.1 += 1;
        }
        out
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"run\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
