//! Benchmark harness of the LeOPArd reproduction. `perfbench/run.py` builds
//! it and runs one mode per child process; each mode prints one JSON line.
//!
//! ```text
//! perfbench setup     --threads T
//! perfbench untraced  --workload W --seed N --threads T --budget-s S
//! perfbench telemetry --workload W --seed N --threads T --budget-s S
//! perfbench layers    --workload W --seed N --budget-s S --spans FILE
//! perfbench bless     --threads T
//! ```
//!
//! * `setup` times one process's set-up: runner and pool start-up,
//!   kernel-path detection and the `fitted_cost_model` calibration. The
//!   calibration is a process-wide `OnceLock`, so set-up is measured in
//!   fresh processes.
//! * `untraced` repeats the workload, each time on a fresh `SuiteRunner`
//!   (cold workload cache, as in each CLI invocation), until the budget is
//!   spent.
//! * `telemetry` does the same with the program's own telemetry on, and
//!   renders its Chrome trace and metrics JSON.
//! * `layers` repeats the traced pass (see `layers.rs`) on one thread and
//!   writes its spans to FILE.
//! * `bless` prints `expected.txt` for the current code.
//!
//! Every run's output is checked against `expected.txt`. A run that panics
//! or whose output does not match is counted as failed, not fatal, so the
//! result reports it.

mod check;
mod layers;
mod trace;
mod workload;

use leopard_accel::kernel_v2::KernelPath;
use leopard_runtime::SuiteRunner;
use leopard_workloads::pipeline::fitted_cost_model;
use std::hint::black_box;
use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Kind, Workload, SEED_SLOTS};

struct Args {
    mode: String,
    workload: Option<Kind>,
    seed: u64,
    threads: usize,
    budget_s: f64,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut args = Args {
        mode: argv.next().ok_or("missing mode")?,
        workload: None,
        seed: 0,
        threads: 1,
        budget_s: 1.0,
        spans: None,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Kind::parse(&value)?),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--threads" => args.threads = value.parse().map_err(|e| bad(&e))?,
            "--budget-s" => args.budget_s = value.parse().map_err(|e| bad(&e))?,
            "--spans" => args.spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.threads == 0 || !args.budget_s.is_finite() || args.budget_s <= 0.0 {
        return Err("--threads and --budget-s must be positive".into());
    }
    Ok(args)
}

/// Repeats `rep` (which returns its own duration in seconds) at least once,
/// then until another repetition would overrun `budget_s`. Returns the
/// repetitions made and how many of them panicked.
fn repeat(budget_s: f64, mut rep: impl FnMut() -> f64) -> (usize, usize) {
    let start = Instant::now();
    let (mut reps, mut panics) = (0, 0);
    loop {
        let began = Instant::now();
        let took = panic::catch_unwind(AssertUnwindSafe(&mut rep)).unwrap_or_else(|_| {
            panics += 1;
            began.elapsed().as_secs_f64()
        });
        reps += 1;
        if start.elapsed().as_secs_f64() + took > budget_s {
            return (reps, panics);
        }
    }
}

/// A JSON object written field by field.
#[derive(Default)]
struct Json(Vec<String>);

impl Json {
    fn num(mut self, key: &str, value: f64) -> Self {
        self.0.push(format!("\"{key}\": {}", finite(value)));
        self
    }

    fn nums(mut self, key: &str, values: &[f64]) -> Self {
        let items: Vec<String> = values.iter().map(|v| finite(*v)).collect();
        self.0.push(format!("\"{key}\": [{}]", items.join(", ")));
        self
    }

    fn text(mut self, key: &str, value: &str) -> Self {
        self.0
            .push(format!("\"{key}\": \"{}\"", value.replace('"', "'")));
        self
    }

    fn raw(mut self, key: &str, value: String) -> Self {
        self.0.push(format!("\"{key}\": {value}"));
        self
    }

    fn render(&self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

fn finite(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn kernel_path() -> &'static str {
    match KernelPath::detect() {
        KernelPath::Wide => "wide",
        KernelPath::Portable => "portable",
    }
}

fn setup(threads: usize) -> Json {
    let start = Instant::now();
    let runner = SuiteRunner::new(threads);
    black_box(KernelPath::detect());
    let calibrate = Instant::now();
    black_box(fitted_cost_model());
    let calibrate_s = calibrate.elapsed().as_secs_f64();
    let setup_s = start.elapsed().as_secs_f64();
    drop(runner);
    Json::default()
        .num("setup_s", setup_s)
        .num("calibrate_s", calibrate_s)
        .text("kernel_path", kernel_path())
}

/// Repeats the workload on a fresh runner each time. With `telemetry` the
/// runner records the program's telemetry, and each repetition's wall time
/// also covers rendering its Chrome trace and metrics JSON.
fn timed(w: &Workload, threads: usize, budget_s: f64, telemetry: bool) -> Json {
    // Calibration is set-up, timed by `setup`; keep it out of the first run.
    fitted_cost_model();
    let (mut run_s, mut wall_s, mut export_s, mut trace_mb) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut mismatches, mut hit_ratio, mut model_error) = (0, 0.0, None);
    let (reps, panics) = repeat(budget_s, || {
        let runner = SuiteRunner::new(threads);
        let runner = if telemetry {
            runner.with_telemetry()
        } else {
            runner
        };
        let run = w.run(&runner);
        let mut wall = run.wall_s;
        if let Some(telemetry) = runner.telemetry() {
            let export = Instant::now();
            let trace = telemetry.chrome_trace_json();
            export_s.push(export.elapsed().as_secs_f64());
            black_box(telemetry.metrics().snapshot().to_json());
            wall += export.elapsed().as_secs_f64();
            trace_mb.push(trace.len() as f64 / 1e6);
        }
        drop(runner);
        mismatches += usize::from(!check::matches(w, &run.outputs));
        hit_ratio = run.cache.hit_ratio();
        model_error = model_error.take().or_else(|| run.outputs.model_error());
        run_s.push(run.run_s);
        wall_s.push(wall);
        wall
    });
    let mut json = Json::default()
        .num("reps", reps as f64)
        .num("failed", (mismatches + panics) as f64)
        .nums("run_s", &run_s)
        .nums("wall_s", &wall_s)
        .num("sim_pairs", w.sim_pairs() as f64)
        .num("requests", w.requests() as f64)
        .num("cache_hit_ratio", hit_ratio);
    if telemetry {
        json = json.nums("export_s", &export_s).nums("trace_mb", &trace_mb);
    }
    match model_error {
        Some(e) => json.text("model_error", &e),
        None => json,
    }
}

fn layers(w: &Workload, budget_s: f64, spans: Option<&str>) -> Result<Json, String> {
    fitted_cost_model();
    let mut tracer = trace::Tracer::new();
    let mut passes: Vec<String> = Vec::new();
    let mut compute_s = Vec::new();
    let mut mismatches = 0;
    let mut run = 0;
    let (reps, panics) = repeat(budget_s, || {
        let start = Instant::now();
        run += 1;
        let pass = layers::pass(w, &mut tracer, run);
        mismatches += usize::from(!check::matches(w, &pass.outputs));
        let fields: Vec<String> = pass
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", finite(*v)))
            .collect();
        passes.push(format!("{{{}}}", fields.join(", ")));
        compute_s.push(pass.compute_s);
        start.elapsed().as_secs_f64()
    });
    if let Some(path) = spans {
        std::fs::write(path, tracer.to_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(Json::default()
        .num("reps", reps as f64)
        .num("failed", (mismatches + panics) as f64)
        .nums("compute_s", &compute_s)
        .raw("passes", format!("[{}]", passes.join(", "))))
}

/// One line per workload and seed slot for `expected.txt`.
fn bless(threads: usize) -> String {
    let mut out = String::from(
        "# Output digests pinned by `perfbench bless`: workload, seed slot, FNV-1a\n\
         # digest of the masked reports; for the suite also its four GMeans.\n",
    );
    for kind in Kind::ALL {
        let slots = if kind.is_serving() { SEED_SLOTS } else { 1 };
        for slot in 0..slots {
            let w = Workload::new(kind, slot);
            let run = w.run(&SuiteRunner::new(threads));
            out.push_str(&run.outputs.expected_lines(&w));
        }
    }
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = || {
        args.workload
            .map(|kind| Workload::new(kind, args.seed))
            .ok_or_else(|| format!("{} needs --workload", args.mode))
    };
    let result = match args.mode.as_str() {
        "setup" => Ok(setup(args.threads).render()),
        "untraced" => workload().map(|w| timed(&w, args.threads, args.budget_s, false).render()),
        "telemetry" => workload().map(|w| timed(&w, args.threads, args.budget_s, true).render()),
        "layers" => workload()
            .and_then(|w| layers(&w, args.budget_s, args.spans.as_deref()))
            .map(|j| j.render()),
        "bless" => Ok(bless(args.threads)),
        other => Err(format!("unknown mode {other:?}")),
    };
    match result {
        Ok(text) => {
            println!("{}", text.trim_end());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
