//! The `leopard` command-line interface.
//!
//! Subcommands:
//!
//! * `leopard suite` — run the 43-task suite on the parallel engine and
//!   print per-task rows, the suite summary, and execution timing.
//! * `leopard serve` — replay a deterministic synthetic request stream
//!   against the suite and print latency percentiles, throughput, and
//!   queue depth (see [`crate::serving`]).
//! * `leopard task <name>` — run one task (matched by exact name —
//!   case-insensitively if needed — or case-insensitive substring) and
//!   print its full result.
//! * `leopard sweep --param nqk=2..10` — design-space sweep over tile
//!   parameters (`nqk`, `serial-bits`, the `qk-bits` quantization-width
//!   ablation, the `tiles` multi-tile scaling ablation, or the `placement`
//!   policy ablation), reusing cached workloads across design points.
//!   Repeating `--param` crosses the axes into a full grid (duplicate
//!   parameter names are rejected). The serving axes `retry-max` and
//!   `fail-rate` replay a request stream per design point instead and
//!   cross only with each other.
//! * `leopard list` — list the suite's tasks.
//!
//! Every flag is one row of [`FLAGS`]: its value placeholder, the
//! subcommands that take it, and its `leopard help` text. A flag given
//! to a subcommand outside its row's scope is an error, never ignored.
//! The few rules that involve two flags (`--full-scale` with
//! `--max-seq-len`, the fault-plan sources, mixed sweep axes) are checked
//! after the whole argument vector is read, so argument order never
//! matters. `--trace` / `--metrics` enable the observe-only telemetry
//! layer (see [`crate::telemetry`]); the serve fault-tolerance flags
//! configure the layer in [`crate::faults`].

use crate::cache::CacheStats;
use crate::engine::{SuiteReport, SuiteRunner};
use crate::faults::FaultPlan;
use crate::pool::parallel_map;
use crate::report::{
    serving_summary, suite_table, summary_line, write_serving_report_json,
    write_serving_requests_csv, write_suite_report_json, write_task_results_csv,
};
use crate::sched::SchedulePolicy;
use crate::serving::{run_serving, ArrivalProcess, RequestMix, ServingOptions, ServingReport};
use leopard_accel::config::TileConfig;
use leopard_accel::cost::head_cost;
use leopard_accel::energy::EnergyModel;
use leopard_accel::schedule::{schedule_layer, Placement};
use leopard_accel::sim::simulate_head;
use leopard_workloads::pipeline::{PipelineOptions, SimUnitKind, MIN_SIM_SEQ_LEN};
use leopard_workloads::suite::{full_suite, quick_subset, TaskDescriptor};
use std::fmt::{Display, Write as _};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::str::FromStr;
use std::sync::Arc;

/// Options shared by every subcommand.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CommonOptions {
    /// Worker threads; 0 means one per core.
    pub threads: usize,
    /// Pipeline configuration derived from the flags.
    pub pipeline: PipelineOptions,
    /// Keep only every 4th task (`--quick`).
    pub quick: bool,
    /// Admission-ordering policy (`--schedule`).
    pub schedule: SchedulePolicy,
    /// Write a JSON report here.
    pub json_path: Option<String>,
    /// Write a CSV report here.
    pub csv_path: Option<String>,
    /// Write a Chrome trace-event JSON file here (`--trace`).
    pub trace_path: Option<String>,
    /// Write a metrics-registry snapshot as JSON here (`--metrics`).
    pub metrics_path: Option<String>,
}

impl CommonOptions {
    /// Whether any telemetry output was requested — the single switch that
    /// turns the observe-only telemetry layer on.
    pub fn wants_telemetry(&self) -> bool {
        self.trace_path.is_some() || self.metrics_path.is_some()
    }
}

/// Seed of the transient-fault stream generated by `--fail-rate` when
/// `--fault-seed` is not given. Any constant works — the stream is
/// counter-addressed, so only reproducibility matters.
pub const DEFAULT_FAULT_SEED: u64 = 0x5EED_FA17;

/// Largest `--requests` a serve run accepts. A replayed request costs
/// about 400 bytes end to end (the arrival, its record, queue sample and
/// ready-queue slot, plus its CSV/JSON rows), so the cap bounds a run near
/// 4 GB instead of letting a typo ask the allocator for terabytes.
pub const MAX_SERVE_REQUESTS: usize = 10_000_000;

/// Largest `--servers` a serve run accepts. Per-tile replay state is about
/// 40 bytes (free time, busy cycles, liveness, gang-order slot), so the cap
/// bounds it near 160 KB; the tighter limit is time, since every replay
/// step counts in-flight tiles across the whole array and the summary
/// prints one utilization cell per tile.
pub const MAX_SERVE_SERVERS: usize = 4096;

/// Largest `--heads` a run accepts: the most attention heads per layer of
/// any model in the paper's suite (ALBERT-xx-L's 64). Every head is its
/// own workload build and simulation, so the cap bounds a run at 64 times
/// its one-head cost instead of letting a typo run for days.
pub const MAX_SUITE_HEADS: usize = 64;

/// Largest `--tiles` a run accepts, and the top of `sweep --param tiles=`.
/// The layer planner and the per-tile accounting walk every tile of every
/// head, so an unbounded count hangs even a tiny run on tiles that get no
/// Q rows.
pub const MAX_TILES: usize = 64;

/// Largest `--threads` a run accepts. The worker pool spawns every thread
/// up front, so an unbounded count stalls the run before any work starts
/// (20,000 workers took over 30 s to start a quick suite); 1024 is well
/// above the core count of current servers.
pub const MAX_THREADS: usize = 1024;

/// Largest retry budget a serve run accepts (`--retry-max` and
/// `sweep --param retry-max=`). A request costs at most one dispatch per
/// attempt, so the cap bounds a fully faulted run at 33 dispatches per
/// request instead of retrying up to 2³² times.
pub const MAX_RETRY_BUDGET: u32 = 32;

/// Largest `--backoff-base-cycles` a serve run accepts: 2³⁰. Retry `n`
/// waits at most `B·2ⁿ + B` cycles, so a request's whole chain of
/// [`MAX_RETRY_BUDGET`] retries defers it by less than 2⁶² + 2³⁵ cycles, a
/// quarter of the `u64` virtual clock. Above the cap a retried request's
/// ready cycle saturates and its finish cycle (ready + service) overflows.
pub const MAX_BACKOFF_BASE_CYCLES: u64 = 1 << 30;

/// Where a serve run's fault plan comes from, before [`run`] reads or
/// generates it: a plan file, or a seeded transient-only stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSource {
    /// Fault-plan file to load (`--faults`); conflicts with `--fail-rate`
    /// and `--fault-seed`.
    pub path: Option<String>,
    /// Transient dispatch-failure probability as a fraction (`--fail-rate`
    /// takes percent on the command line).
    pub fail_rate: Option<f64>,
    /// Seed of the generated fault stream (`--fault-seed`; requires
    /// `--fail-rate`).
    pub seed: Option<u64>,
}

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run the whole suite.
    Suite(CommonOptions),
    /// Replay a serving-mode request stream. The options carry every serve
    /// flag plus `--schedule` and the pipeline flags; their `faults` stay
    /// `None` until the fault source is resolved at run time.
    Serve(Box<ServingOptions>, FaultSource, CommonOptions),
    /// Run one task by name.
    Task(String, CommonOptions),
    /// Sweep a tile parameter over the representative task set.
    Sweep(SweepSpec, CommonOptions),
    /// List the suite.
    List,
    /// Print usage.
    Help,
}

/// Which tile parameter a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepParam {
    /// Number of bit-serial QK-DPUs per tile (Figure 13).
    NQk,
    /// Bit-serial granularity `B` (Figure 14).
    SerialBits,
    /// Q/K quantization bit width (the Table 2 ablation axis). Unlike the
    /// other parameters this changes the *operands* too: each design point
    /// re-quantizes the workload at the swept width, so the workload cache
    /// keys one entry per `(task, width)`.
    QkBits,
    /// Number of tiles each head's Q rows are partitioned across (the
    /// scaling axis of the multi-tile accelerator). Reports per-design-
    /// point makespan, cycle-level speedup over one tile, and load
    /// balance; merged results are bit-identical across the sweep by the
    /// tile scheduler's conformance contract.
    Tiles,
    /// Head→tile placement policy (`lpt`, `rr`, `static`). Values index
    /// [`Placement::ALL`]; merged results are bit-identical across the
    /// axis — only the makespan (and its speedup/balance derivatives)
    /// moves.
    Placement,
    /// Per-request retry budget of the serving fault-tolerance layer
    /// (`--retry-max` equivalent). A serving axis: each design point
    /// replays the default request stream and reports shed/goodput.
    RetryMax,
    /// Transient dispatch-failure probability, in integer percent. A
    /// serving axis like [`RetryMax`](Self::RetryMax); crossing the two
    /// shows retries recovering goodput as the fault rate climbs.
    FailRate,
}

impl SweepParam {
    fn label(&self) -> &'static str {
        match self {
            SweepParam::NQk => "nqk",
            SweepParam::SerialBits => "serial-bits",
            SweepParam::QkBits => "qk-bits",
            SweepParam::Tiles => "tiles",
            SweepParam::Placement => "placement",
            SweepParam::RetryMax => "retry-max",
            SweepParam::FailRate => "fail-rate",
        }
    }

    /// Whether the axis varies the serving fault-tolerance layer rather
    /// than the tile microarchitecture. Serving axes replay a request
    /// stream per design point and cross only with each other.
    fn is_serving(&self) -> bool {
        matches!(self, SweepParam::RetryMax | SweepParam::FailRate)
    }

    /// Renders one design-point value for the sweep table (placement
    /// values are policy labels, everything else is numeric).
    fn render(&self, value: u32) -> String {
        match self {
            SweepParam::Placement => Placement::ALL[value as usize].label().to_string(),
            _ => value.to_string(),
        }
    }
}

/// A parsed sweep: one or more `--param` axes, crossed into a grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepSpec {
    /// The swept axes in flag order, each with its design-point values.
    /// Crossed into a cartesian grid; duplicates are rejected at parse.
    pub params: Vec<(SweepParam, Vec<u32>)>,
    /// Sweep all 43 tasks instead of the representative subset.
    pub all_tasks: bool,
}

impl SweepSpec {
    /// Whether any axis schedules tiled execution (and so the table
    /// reports makespan/speedup/balance instead of V-PU occupancy).
    fn is_tiled(&self) -> bool {
        self.params
            .iter()
            .any(|(p, _)| matches!(p, SweepParam::Tiles | SweepParam::Placement))
    }

    /// Whether any axis is a serving fault-tolerance axis (retry-max or
    /// fail-rate); such sweeps replay a request stream per design point.
    fn is_serving(&self) -> bool {
        self.params.iter().any(|(p, _)| p.is_serving())
    }

    /// Cartesian product of the axes, in row-major flag order.
    fn grid(&self) -> Vec<Vec<u32>> {
        let mut points: Vec<Vec<u32>> = vec![Vec::new()];
        for (_, values) in &self.params {
            let mut next = Vec::with_capacity(points.len() * values.len());
            for point in &points {
                for &value in values {
                    let mut extended = point.clone();
                    extended.push(value);
                    next.push(extended);
                }
            }
            points = next;
        }
        points
    }
}

/// One row of the flag table: everything `parse`, its scope check and
/// `leopard help` know about a flag.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--threads`.
    pub name: &'static str,
    /// Placeholder of its value in `leopard help`; `None` for switches,
    /// which take no value.
    pub metavar: Option<&'static str>,
    /// The subcommands that accept it. Anywhere else it is an error.
    pub scope: &'static [&'static str],
    /// Its `leopard help` text, one line per help line. Empty for
    /// `--param`, whose value grammar has its own PARAM SPECS section.
    pub help: &'static str,
    /// Why a nearby subcommand does not take it, appended to the
    /// out-of-scope error.
    pub hint: Option<&'static str>,
}

impl Flag {
    /// The error for this flag outside its scope: it names every
    /// subcommand that does take the flag, then the row's hint.
    fn out_of_scope(&self) -> String {
        let subs: Vec<String> = self
            .scope
            .iter()
            .map(|s| format!("`leopard {s}`"))
            .collect();
        let list = match subs.split_last() {
            Some((last, [first])) => format!("{first} and {last}"),
            Some((last, init)) if !init.is_empty() => format!("{}, and {last}", init.join(", ")),
            _ => subs.concat(),
        };
        let hint = self.hint.map_or(String::new(), |h| format!("; {h}"));
        format!("{} only applies to {list}{hint}", self.name)
    }

    /// Parses this flag's integer value `v` in `min..=max`. Every integer
    /// flag goes through here, so all of them share one set of error
    /// texts; a floor of 1 can only have rejected 0, so its message does
    /// not echo the value.
    fn int<T>(&self, v: &str, noun: &str, min: T, max: T) -> Result<T, String>
    where
        T: FromStr + PartialOrd + Display + From<u8>,
    {
        let n: T = v.parse().map_err(|_| format!("bad {noun} {v:?}"))?;
        if n < min {
            return Err(if min == T::from(1) {
                format!("{} must be at least 1", self.name)
            } else {
                format!("{} must be at least {min}, got {v}", self.name)
            });
        }
        if n > max {
            return Err(format!("{} must be at most {max}, got {v}", self.name));
        }
        Ok(n)
    }
}

/// Every subcommand that runs something.
const EVERY_RUN: &[&str] = &["suite", "serve", "task", "sweep"];
/// The subcommands that write reports and telemetry.
const REPORTING: &[&str] = &["suite", "serve", "task"];
const SERVE: &[&str] = &["serve"];
const SWEEP: &[&str] = &["sweep"];

/// The flag table, in `leopard help` order. `list` and `help` take no
/// flags.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    Flag { name: "--threads", metavar: Some("N"), scope: EVERY_RUN, hint: None,
        help: "worker threads (default 0 = one per core, at most 1024)" },
    Flag { name: "--max-seq-len", metavar: Some("L"), scope: EVERY_RUN, hint: None,
        help: "cap the simulated sequence length (default 96, at\n\
               least 8)" },
    Flag { name: "--heads", metavar: Some("H"), scope: REPORTING,
        hint: Some("`leopard sweep` simulates head 0 only"),
        help: "attention heads simulated per task (default 1, at\n\
               most 64)" },
    Flag { name: "--tiles", metavar: Some("T"), scope: REPORTING,
        hint: Some("`leopard sweep` simulates on a single tile unless `--param tiles=...` sets the \
                   tile count per design point, which a fixed --tiles conflicts with"),
        help: "partition each head's Q rows across T tiles (default\n\
               1, at most 64; suite results are bit-identical for\n\
               every T — in serve mode, service cycles become the\n\
               layer makespan)" },
    Flag { name: "--placement", metavar: Some("P"), scope: REPORTING,
        hint: Some("`leopard sweep` takes the policy per design point: use \
                   `--param placement=lpt,rr,static`"),
        help: "head→tile placement policy: lpt (greedy longest-\n\
               predicted-first, default), rr (round-robin), or\n\
               static (head index mod tile count). Moves only the\n\
               makespan — merged results are bit-identical across\n\
               policies. Suite, serve, and task; sweeps use\n\
               --param placement=... instead" },
    Flag { name: "--quick", metavar: None, scope: &["suite"],
        hint: Some("a serve stream draws from the full suite, and a sweep widens with --all-tasks \
                   instead"),
        help: "keep every 4th task only" },
    Flag { name: "--full-scale", metavar: None, scope: EVERY_RUN, hint: None,
        help: "simulate the paper's full sequence lengths (slow;\n\
               conflicts with --max-seq-len)" },
    Flag { name: "--schedule", metavar: Some("P"), scope: &["suite", "serve"], hint: None,
        help: "admission order: fifo (arrival), ljf\n\
               (longest-predicted-job-first), or sjf\n\
               (shortest-predicted-job-first); suite and serve only" },
    Flag { name: "--json", metavar: Some("PATH"), scope: REPORTING,
        hint: Some("`leopard sweep` has no structured report yet"),
        help: "write a JSON report" },
    Flag { name: "--csv", metavar: Some("PATH"), scope: REPORTING,
        hint: Some("`leopard sweep` has no structured report yet"),
        help: "write a CSV report" },
    Flag { name: "--trace", metavar: Some("PATH"), scope: REPORTING,
        hint: Some("`leopard sweep` does not record telemetry"),
        help: "record spans and write a Chrome trace-event JSON file\n\
               (open in Perfetto or chrome://tracing); suite, serve,\n\
               and task only — reports stay byte-identical" },
    Flag { name: "--metrics", metavar: Some("PATH"), scope: REPORTING,
        hint: Some("`leopard sweep` does not record telemetry"),
        help: "write a counters/gauges/histograms snapshot as JSON;\n\
               suite, serve, and task only" },
    Flag { name: "--all-tasks", metavar: None, scope: SWEEP, hint: None,
        help: "(sweep) use all 43 tasks, not the representative set" },
    Flag { name: "--param", metavar: Some("P=SPEC"), scope: SWEEP, hint: None, help: "" },
    Flag { name: "--requests", metavar: Some("N"), scope: SERVE, hint: None,
        help: "requests in the stream (default 256, at most\n\
               10000000)" },
    Flag { name: "--rate", metavar: Some("R"), scope: SERVE, hint: None,
        help: "offered load in requests per virtual second (default\n\
               100000000 — deliberately above capacity so a backlog\n\
               forms and the admission order matters)" },
    Flag { name: "--seed", metavar: Some("S"), scope: SERVE, hint: None,
        help: "arrival-process seed (default 0x5EEDCAFE)" },
    Flag { name: "--arrivals", metavar: Some("A"), scope: SERVE, hint: None,
        help: "arrival process: steady (Poisson), bursty (on/off),\n\
               or diurnal (sinusoidal rate); default steady" },
    Flag { name: "--mix", metavar: Some("M"), scope: SERVE, hint: None,
        help: "per-family request mix, e.g. memn2n=3,bert-b=1\n\
               (families: memn2n, bert-b, bert-l, albert-xx-l,\n\
               gpt-2-l, vit-b); default uniform over all tasks" },
    Flag { name: "--slo-cycles", metavar: Some("N"), scope: SERVE, hint: None,
        help: "shed requests whose predicted completion exceeds N\n\
               virtual cycles after arrival; reports shed rate and\n\
               goodput (default: admit everything)" },
    Flag { name: "--servers", metavar: Some("T"), scope: SERVE, hint: None,
        help: "virtual tiles to dispatch onto (default 32, at most\n\
               4096)" },
    Flag { name: "--slo-headroom", metavar: Some("H"), scope: SERVE, hint: None,
        help: "multiplicative headroom applied to predicted cycles\n\
               before the SLO comparison (default 1.4; must be a\n\
               positive finite number)" },
    Flag { name: "--faults", metavar: Some("PATH"), scope: SERVE, hint: None,
        help: "load a fault-injection plan (JSON with seed,\n\
               fail_rate, tile_events, slow_tiles); conflicts with\n\
               --fail-rate/--fault-seed" },
    Flag { name: "--fail-rate", metavar: Some("P"), scope: SERVE, hint: None,
        help: "transient dispatch-failure probability in percent\n\
               (0..100); generates a seeded transient-only plan" },
    Flag { name: "--fault-seed", metavar: Some("S"), scope: SERVE, hint: None,
        help: "seed of the generated fault stream (requires\n\
               --fail-rate; default 0x5EEDFA17)" },
    Flag { name: "--retry-max", metavar: Some("N"), scope: SERVE, hint: None,
        help: "retries a request may consume before it is shed\n\
               (default 0 = shed on first transient fault or\n\
               predicted SLO miss; at most 32)" },
    Flag { name: "--backoff-base-cycles", metavar: Some("B"), scope: SERVE, hint: None,
        help: "exponential-backoff base of the retry queue, in\n\
               virtual cycles (default 4096, at most 2^30; retry n\n\
               waits B*2^n plus seeded jitter)" },
    Flag { name: "--degrade", metavar: None, scope: SERVE, hint: None,
        help: "serve predicted SLO misses at a degraded (tighter-\n\
               pruning) service level instead of shedding" },
];

const SYNOPSIS: &str = "\
leopard — parallel suite-execution engine for the LeOPArd reproduction

USAGE:
    leopard suite [FLAGS]            run the 43-task suite in parallel
    leopard serve [FLAGS]            replay a synthetic request stream and
                                     report latency percentiles
    leopard task <name> [FLAGS]      run one task (exact or substring match)
    leopard sweep --param P=SPEC     sweep tile parameters (nqk, serial-bits,
                                     qk-bits, tiles, placement); repeat
                                     --param to cross axes into a grid
    leopard list                     list the suite's tasks
    leopard help                     show this message
";

const PARAM_SPECS: &str = "
PARAM SPECS:
    --param nqk=2..10            inclusive range
    --param serial-bits=1,2,4,12 explicit list
    --param qk-bits=4..12        Q/K quantization width ablation (re-quantizes
                                 the operands at each width)
    --param tiles=1..8           tile-count ablation (per-head makespan,
                                 speedup over one tile, load balance)
    --param placement=lpt,rr,static
                                 placement-policy ablation (labels only —
                                 ranges make no sense here)
    --param tiles=1..8 --param placement=lpt,rr,static
                                 crossed grid: every tile count under every
                                 policy (duplicate names are rejected)
    --param retry-max=0,1,3      retry-budget ablation: replays the default
                                 request stream per design point and reports
                                 served/shed/goodput (budgets at most 32)
    --param fail-rate=0,5,20     transient fault-rate ablation, in integer
                                 percent; serving axes (retry-max,
                                 fail-rate) cross only with each other
";

/// Renders `leopard help`: the synopsis, the FLAGS and SERVE FLAGS
/// sections from the [`FLAGS`] rows, and the `--param` grammar.
fn usage() -> String {
    let mut out = String::from(SYNOPSIS);
    for (title, serve_only) in [("FLAGS", false), ("SERVE FLAGS", true)] {
        let _ = writeln!(out, "\n{title}:");
        let rows = FLAGS.iter().filter(|f| (f.scope == SERVE) == serve_only);
        for flag in rows.filter(|f| !f.help.is_empty()) {
            let label = match flag.metavar {
                Some(metavar) => format!("{} {metavar}", flag.name),
                None => flag.name.to_string(),
            };
            // Help starts in column 22; a longer label gets its own line.
            let mut lines = flag.help.lines();
            if label.len() <= 16 {
                let _ = writeln!(out, "    {label:<18}{}", lines.next().unwrap_or_default());
            } else {
                let _ = writeln!(out, "    {label}");
            }
            for line in lines {
                let _ = writeln!(out, "{:22}{line}", "");
            }
        }
    }
    out.push_str(PARAM_SPECS);
    out
}

/// Parses `a..b` (inclusive) or `a,b,c` into a value list, passing each
/// value through `check`. Every axis accepts an interval, so a range is
/// checked at its two ends before it is materialized.
fn parse_values(spec: &str, check: impl Fn(u32) -> Result<(), String>) -> Result<Vec<u32>, String> {
    if let Some((lo, hi)) = spec.split_once("..") {
        let lo: u32 = lo
            .trim()
            .parse()
            .map_err(|_| format!("bad range start {lo:?}"))?;
        let hi: u32 = hi
            .trim()
            .parse()
            .map_err(|_| format!("bad range end {hi:?}"))?;
        if lo > hi {
            return Err(format!("empty range {lo}..{hi}"));
        }
        check(lo)?;
        check(hi)?;
        Ok((lo..=hi).collect())
    } else {
        spec.split(',')
            .map(|v| {
                let value = v
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad value {:?}", v.trim()))?;
                check(value).map(|()| value)
            })
            .collect()
    }
}

/// Parses a `--seed` value, accepting decimal (`123`) and hex (`0x5EED`)
/// forms.
fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("bad seed {v:?}"))
}

/// Parses a `--param` argument such as `nqk=2..10` or
/// `placement=lpt,rr,static`.
fn parse_param(arg: &str) -> Result<(SweepParam, Vec<u32>), String> {
    let (name, spec) = arg
        .split_once('=')
        .ok_or_else(|| format!("--param expects name=values, got {arg:?}"))?;
    let param = match name.trim() {
        "nqk" | "n_qk" => SweepParam::NQk,
        "serial-bits" | "serial_bits" | "granularity" => SweepParam::SerialBits,
        "qk-bits" | "qk_bits" => SweepParam::QkBits,
        "tiles" => SweepParam::Tiles,
        "placement" => SweepParam::Placement,
        "retry-max" | "retry_max" => SweepParam::RetryMax,
        "fail-rate" | "fail_rate" => SweepParam::FailRate,
        other => return Err(format!("unknown sweep parameter {other:?}")),
    };
    // The placement axis takes policy labels, not numbers: values are
    // indices into `Placement::ALL` so the grid machinery stays uniform.
    if param == SweepParam::Placement {
        if spec.contains("..") {
            return Err(
                "placement takes a comma list of policies (lpt,rr,static), not a range".to_string(),
            );
        }
        let values = spec
            .split(',')
            .map(|v| Placement::parse(v.trim()).map(|policy| policy.index() as u32))
            .collect::<Result<_, String>>()?;
        return Ok((param, values));
    }
    let values = parse_values(spec, |v| {
        let ok = match param {
            SweepParam::NQk => (1..=64).contains(&v),
            SweepParam::SerialBits => (1..=12).contains(&v),
            SweepParam::QkBits => (4..=16).contains(&v),
            SweepParam::Tiles => (1..=MAX_TILES as u32).contains(&v),
            SweepParam::RetryMax => v <= MAX_RETRY_BUDGET,
            SweepParam::FailRate => v <= 100,
            SweepParam::Placement => unreachable!("handled above"),
        };
        match param {
            _ if ok => Ok(()),
            SweepParam::RetryMax => Err(format!(
                "retry-max must be at most {MAX_RETRY_BUDGET}, got {v}"
            )),
            _ => Err(format!("value {v} out of range for {}", param.label())),
        }
    })?;
    Ok((param, values))
}

/// Parses a full argument vector (without the program name).
///
/// Each `--flag` is looked up in [`FLAGS`]: an unknown one is an
/// unexpected argument, one outside its row's scope is rejected naming
/// where it applies, and a value is taken only when the row has a
/// metavar.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    let sub = match sub.as_str() {
        "--help" | "-h" => "help",
        sub @ ("suite" | "serve" | "task" | "sweep" | "list" | "help") => sub,
        other => return Err(format!("unknown subcommand {other:?} (try `leopard help`)")),
    };
    let mut common = CommonOptions::default();
    let mut serve = ServingOptions::default();
    let mut faults = FaultSource::default();
    let mut sweep = SweepSpec {
        params: Vec::new(),
        all_tasks: false,
    };
    let mut task_name: Option<String> = None;
    let (mut full_scale, mut max_seq_len_set) = (false, false);

    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
            if sub == "task" && task_name.is_none() && !arg.starts_with('-') {
                task_name = Some(arg.clone());
                continue;
            }
            return Err(format!("unexpected argument {arg:?} (try `leopard help`)"));
        };
        if !flag.scope.contains(&sub) {
            return Err(flag.out_of_scope());
        }
        let v = match flag.metavar {
            Some(_) => it
                .next()
                .map(String::as_str)
                .ok_or_else(|| format!("{} expects a value", flag.name))?,
            None => "",
        };
        match flag.name {
            "--threads" => common.threads = flag.int(v, "thread count", 0, MAX_THREADS)?,
            "--max-seq-len" => {
                common.pipeline.max_sim_seq_len =
                    flag.int(v, "length", MIN_SIM_SEQ_LEN, usize::MAX)?;
                max_seq_len_set = true;
            }
            "--heads" => common.pipeline.heads = flag.int(v, "head count", 1, MAX_SUITE_HEADS)?,
            "--tiles" => common.pipeline.tiles = flag.int(v, "tile count", 1, MAX_TILES)?,
            "--placement" => common.pipeline.placement = Placement::parse(v)?,
            "--quick" => common.quick = true,
            "--full-scale" => {
                common.pipeline.max_sim_seq_len = usize::MAX;
                full_scale = true;
            }
            "--schedule" => common.schedule = SchedulePolicy::parse(v)?,
            "--json" => common.json_path = Some(v.to_string()),
            "--csv" => common.csv_path = Some(v.to_string()),
            "--trace" => common.trace_path = Some(v.to_string()),
            "--metrics" => common.metrics_path = Some(v.to_string()),
            "--all-tasks" => sweep.all_tasks = true,
            "--param" => {
                let (param, values) = parse_param(v)?;
                if sweep.params.iter().any(|(p, _)| *p == param) {
                    return Err(format!(
                        "duplicate --param {}: each parameter may be swept once (its values \
                         already cross with the other axes)",
                        param.label()
                    ));
                }
                sweep.params.push((param, values));
            }
            "--requests" => {
                serve.requests = flag.int(v, "request count", 0, MAX_SERVE_REQUESTS)?;
            }
            "--rate" => {
                serve.rate_rps = v.parse().map_err(|_| format!("bad rate {v:?}"))?;
                if !(serve.rate_rps.is_finite() && serve.rate_rps > 0.0) {
                    return Err(format!("--rate must be positive, got {v:?}"));
                }
                // A vanishing-but-positive rate would overflow the mean
                // inter-arrival gap to infinity and degenerate the stream
                // (regression: the library now also rejects it).
                if serve.rate_rps < 1e-3 {
                    return Err(format!("--rate must be at least 0.001 req/s, got {v:?}"));
                }
            }
            "--seed" => serve.seed = parse_seed(v)?,
            "--arrivals" => serve.arrivals = ArrivalProcess::parse(v)?,
            "--mix" => serve.mix = RequestMix::parse(v)?,
            "--slo-cycles" => serve.slo_cycles = Some(flag.int(v, "SLO", 1, u64::MAX)?),
            "--servers" => serve.servers = flag.int(v, "server count", 1, MAX_SERVE_SERVERS)?,
            "--slo-headroom" => {
                serve.slo_headroom = v.parse().map_err(|_| format!("bad headroom {v:?}"))?;
                if !(serve.slo_headroom.is_finite() && serve.slo_headroom > 0.0) {
                    return Err(format!(
                        "--slo-headroom must be a positive finite number, got {v:?}"
                    ));
                }
            }
            "--faults" => faults.path = Some(v.to_string()),
            "--fail-rate" => {
                let pct: f64 = v.parse().map_err(|_| format!("bad fail rate {v:?}"))?;
                if !(pct.is_finite() && (0.0..=100.0).contains(&pct)) {
                    return Err(format!("--fail-rate is a percentage in 0..=100, got {v:?}"));
                }
                faults.fail_rate = Some(pct / 100.0);
            }
            "--fault-seed" => faults.seed = Some(parse_seed(v)?),
            "--retry-max" => {
                serve.retry_max = flag.int(v, "retry budget", 0, MAX_RETRY_BUDGET)?;
            }
            "--backoff-base-cycles" => {
                serve.backoff_base_cycles =
                    flag.int(v, "backoff base", 1, MAX_BACKOFF_BASE_CYCLES)?;
            }
            "--degrade" => serve.degrade = true,
            other => unreachable!("{other} is a FLAGS row without a parse arm"),
        }
    }

    // Flag-combination checks that are independent of argument order.
    if full_scale && max_seq_len_set {
        return Err(
            "--full-scale and --max-seq-len conflict: --full-scale means \"simulate the \
             paper's full sequence lengths\"; pass one or the other"
                .to_string(),
        );
    }
    if faults.path.is_some() && (faults.fail_rate.is_some() || faults.seed.is_some()) {
        return Err(
            "--faults conflicts with --fail-rate/--fault-seed: a plan file carries its own \
             seed and rate"
                .to_string(),
        );
    }
    if faults.seed.is_some() && faults.fail_rate.is_none() {
        return Err(
            "--fault-seed seeds the stream generated by --fail-rate; pass --fail-rate too"
                .to_string(),
        );
    }
    match sub {
        "suite" => Ok(Command::Suite(common)),
        "serve" => {
            let options = ServingOptions {
                policy: common.schedule,
                pipeline: common.pipeline,
                ..serve
            };
            Ok(Command::Serve(Box::new(options), faults, common))
        }
        "task" => {
            let name = task_name.ok_or("`leopard task` expects a task name")?;
            Ok(Command::Task(name, common))
        }
        "sweep" => {
            if sweep.params.is_empty() {
                return Err("`leopard sweep` expects --param name=values".to_string());
            }
            if sweep.is_serving() && sweep.params.iter().any(|(p, _)| !p.is_serving()) {
                return Err(
                    "serving axes (retry-max, fail-rate) cross only with each other: tile \
                     axes simulate no request stream"
                        .to_string(),
                );
            }
            if sweep.is_serving() && sweep.all_tasks {
                return Err(
                    "the serving sweep draws its stream from the full suite already; \
                     --all-tasks does not apply"
                        .to_string(),
                );
            }
            Ok(Command::Sweep(sweep, common))
        }
        "list" => Ok(Command::List),
        _ => Ok(Command::Help),
    }
}

/// Builds the runner for a subcommand, enabling the telemetry layer when
/// `--trace` or `--metrics` asked for it.
fn build_runner(common: &CommonOptions) -> SuiteRunner {
    let runner = SuiteRunner::new(common.threads);
    if common.wants_telemetry() {
        runner.with_telemetry()
    } else {
        runner
    }
}

/// Streams one output file through a buffered writer and flushes it
/// explicitly (a flush left to `Drop` would drop its error), so a failed
/// create, write or flush is the one error `writing {path}: {e}`.
fn write_output(
    path: &str,
    render: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), String> {
    let written = File::create(path).and_then(|file| {
        let mut w = BufWriter::with_capacity(OUTPUT_BUFFER_BYTES, file);
        render(&mut w)?;
        w.flush()
    });
    written.map_err(|e| format!("writing {path}: {e}"))
}

/// Buffer between the renderers' row-sized writes and the output file.
const OUTPUT_BUFFER_BYTES: usize = 1 << 16;

/// Writes the `--trace` / `--metrics` outputs from the runner's telemetry
/// layer. A no-op when telemetry was never enabled.
fn write_telemetry_outputs(runner: &SuiteRunner, common: &CommonOptions) -> Result<(), String> {
    let Some(telemetry) = runner.telemetry() else {
        return Ok(());
    };
    if let Some(path) = &common.trace_path {
        write_output(path, |w| telemetry.write_chrome_trace(w))?;
        println!(
            "wrote Chrome trace ({} events) to {path} — open in Perfetto or chrome://tracing",
            telemetry.event_count()
        );
    }
    if let Some(path) = &common.metrics_path {
        write_output(path, |w| telemetry.metrics().snapshot().write_json(w))?;
        println!("wrote metrics snapshot to {path}");
    }
    Ok(())
}

fn write_structured_reports(report: &SuiteReport, common: &CommonOptions) -> Result<(), String> {
    if let Some(path) = &common.json_path {
        write_output(path, |w| write_suite_report_json(report, w))?;
        println!("wrote JSON report to {path}");
    }
    if let Some(path) = &common.csv_path {
        write_output(path, |w| write_task_results_csv(&report.results, w))?;
        println!("wrote CSV report to {path}");
    }
    Ok(())
}

/// The one end-of-run footer every subcommand prints: a command-specific
/// lead-in, the workload-cache accounting with its hit rate, and an
/// optional trailer. `suite`/`task` (via [`print_timing`]), `serve`, and
/// `sweep` all route through here so the cache line renders identically
/// everywhere.
fn print_run_footer(lead: &str, stats: CacheStats, trail: &str) {
    println!(
        "\n{lead} (workload cache: {} built, {} reused, {:.0}% hit rate){trail}",
        stats.misses,
        stats.hits,
        stats.hit_ratio() * 100.0,
    );
}

fn print_timing(report: &SuiteReport) {
    print_run_footer(
        &format!(
            "{} jobs on {} threads in {:.3}s wall (worker time: build {:.3}s, simulate {:.3}s, \
             aggregate {:.3}s)",
            report.jobs,
            report.threads,
            report.wall.as_secs_f64(),
            report.stages.build.as_secs_f64(),
            report.stages.simulate.as_secs_f64(),
            report.stages.aggregate.as_secs_f64(),
        ),
        report.cache,
        "",
    );
}

/// Renders the console body of `leopard suite` (table + summary line).
/// Split from [`run_suite_command`] so the empty-results path is testable
/// without capturing stdout.
fn suite_console_output(report: &SuiteReport) -> String {
    format!(
        "{}\n{}\n",
        suite_table(&report.results),
        summary_line(&report.results)
    )
}

fn run_suite_command(common: &CommonOptions) -> Result<(), String> {
    let tasks = if common.quick {
        quick_subset(full_suite())
    } else {
        full_suite()
    };
    let runner = build_runner(common);
    println!(
        "simulating {} tasks on {} threads, {} submission order (sequence lengths capped at {})...",
        tasks.len(),
        runner.threads(),
        common.schedule.label(),
        common.pipeline.max_sim_seq_len,
    );
    let report = runner.run_scheduled(&tasks, &common.pipeline, common.schedule);

    println!();
    print!("{}", suite_console_output(&report));
    print_timing(&report);
    write_structured_reports(&report, common)?;
    write_telemetry_outputs(&runner, common)
}

/// Resolves the `--faults` / `--fail-rate` / `--fault-seed` flags into a
/// validated fault plan (or `None` with the fault layer off). Plan files
/// are read and validated here so a bad plan is a clean CLI error, not a
/// panic inside the serving loop.
fn load_fault_plan(source: &FaultSource, servers: usize) -> Result<Option<FaultPlan>, String> {
    if let Some(path) = &source.path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let plan = FaultPlan::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
        return plan
            .validated(servers)
            .map(Some)
            .map_err(|e| format!("{path}: {e}"));
    }
    match source.fail_rate {
        Some(rate) => {
            let seed = source.seed.unwrap_or(DEFAULT_FAULT_SEED);
            FaultPlan::transient(seed, rate).map(Some)
        }
        None => Ok(None),
    }
}

fn run_serve_command(
    mut options: ServingOptions,
    faults: &FaultSource,
    common: &CommonOptions,
) -> Result<(), String> {
    let suite = full_suite();
    options.faults = load_fault_plan(faults, options.servers)?;
    let runner = build_runner(common);
    let slo = options
        .slo_cycles
        .map_or_else(|| "none".to_string(), |s| format!("{s} cycles"));
    println!(
        "serving {} requests at {:.0} req/s ({} arrivals, {} mix, {} schedule, slo {}, {} \
         servers x {} tile(s), {} placement, seed {:#x}) on {} worker threads...",
        options.requests,
        options.rate_rps,
        options.arrivals.label(),
        options.mix.label(),
        options.policy.label(),
        slo,
        options.servers,
        options.pipeline.tiles.max(1),
        options.pipeline.placement.label(),
        options.seed,
        runner.threads(),
    );
    if options.fault_tolerance_active() {
        let plan = options.faults.as_ref();
        println!(
            "fault tolerance: retry-max {}, backoff base {} cycles, degrade {}, fail rate \
             {:.2}%, {} tile event(s), {} slow tile(s)",
            options.retry_max,
            options.backoff_base_cycles,
            if options.degrade { "on" } else { "off" },
            plan.map_or(0.0, |p| p.fail_rate) * 100.0,
            plan.map_or(0, |p| p.tile_events.len()),
            plan.map_or(0, |p| p.slow_tiles.len()),
        );
    }
    let report = run_serving(&runner, &suite, &options);

    println!();
    print!("{}", serving_summary(&report));
    print_run_footer(
        &format!(
            "executed in {:.3}s wall on {} threads",
            report.wall.as_secs_f64(),
            report.threads,
        ),
        report.cache,
        " — cycle accounting is virtual and thread-count independent",
    );
    write_serving_reports(&report, common)?;
    write_telemetry_outputs(&runner, common)
}

fn write_serving_reports(report: &ServingReport, common: &CommonOptions) -> Result<(), String> {
    if let Some(path) = &common.json_path {
        write_output(path, |w| write_serving_report_json(report, w))?;
        println!("wrote JSON report to {path}");
    }
    if let Some(path) = &common.csv_path {
        write_output(path, |w| write_serving_requests_csv(report, w))?;
        println!("wrote CSV report to {path}");
    }
    Ok(())
}

/// Resolves a task-name argument against the suite: exact match first, then
/// case-insensitive exact match, then case-insensitive substring match.
/// Exact matches win before substring ambiguity is even considered, so
/// `memn2n task-1` finds "MemN2N Task-1" although it is also a substring of
/// Task-10 through Task-19.
///
/// # Errors
///
/// Returns a descriptive message when nothing matches or a substring is
/// ambiguous.
pub fn find_task<'a>(
    suite: &'a [TaskDescriptor],
    name: &str,
) -> Result<&'a TaskDescriptor, String> {
    if let Some(exact) = suite.iter().find(|t| t.name == name) {
        return Ok(exact);
    }
    let lowered = name.to_lowercase();
    if let Some(exact) = suite.iter().find(|t| t.name.to_lowercase() == lowered) {
        return Ok(exact);
    }
    let matches: Vec<&TaskDescriptor> = suite
        .iter()
        .filter(|t| t.name.to_lowercase().contains(&lowered))
        .collect();
    match matches.as_slice() {
        [] => Err(format!("no task matches {name:?} (see `leopard list`)")),
        [single] => Ok(single),
        many => {
            let names: Vec<&str> = many.iter().map(|t| t.name.as_str()).collect();
            Err(format!(
                "{name:?} is ambiguous — it matches {}; use the exact name",
                names.join(", ")
            ))
        }
    }
}

fn run_task_command(name: &str, common: &CommonOptions) -> Result<(), String> {
    let suite = full_suite();
    let task = find_task(&suite, name)?;

    let runner = build_runner(common);
    let report = runner.run(std::slice::from_ref(task), &common.pipeline);
    let r = &report.results[0];

    println!("task:                 {}", r.name);
    println!("simulated seq len:    {}", r.sim_seq_len);
    println!(
        "pruning rate:         {:.2}% measured / {:.2}% paper",
        r.measured_pruning_rate * 100.0,
        r.paper_pruning_rate * 100.0
    );
    println!(
        "mean bits processed:  {:.2} of 11 magnitude bits",
        r.mean_bits
    );
    println!(
        "speedup:              AE {:.2}x / HP {:.2}x (paper: {:.2}x / {:.2}x)",
        r.ae_speedup, r.hp_speedup, task.paper_ae_speedup, task.paper_hp_speedup
    );
    println!(
        "energy reduction:     AE {:.2}x / HP {:.2}x (paper: {:.2}x / {:.2}x)",
        r.ae_energy_reduction, r.hp_energy_reduction, task.paper_ae_energy, task.paper_hp_energy
    );
    println!("energy breakdown (baseline -> pruning-only -> LeOPArd):");
    for ((label, base), (prune, full)) in r.baseline_breakdown.components().iter().zip(
        r.pruning_only_breakdown
            .components()
            .iter()
            .map(|(_, v)| *v)
            .zip(r.leopard_breakdown.components().iter().map(|(_, v)| *v)),
    ) {
        println!("  {label:<14} {base:>12.1} {prune:>12.1} {full:>12.1}");
    }
    println!("cumulative pruning by processed bits:");
    for (bits, frac) in r.cumulative_pruning_by_bits.iter().enumerate() {
        println!("  {bits:>2} bits: {:>6.2}%", frac * 100.0);
    }

    // Per-configuration cost of head 0 (cycles / latency at the tile clock /
    // energy), priced through leopard-accel's per-head cost API. The
    // workload comes from the runner's cache, so this re-simulates three
    // units but builds nothing.
    let model = EnergyModel::calibrated();
    let workload = runner.cache().head_workload(task, &common.pipeline, 0);
    println!("per-head cost (head 0): cycles / latency / energy");
    for kind in [
        SimUnitKind::Baseline,
        SimUnitKind::AeLeopard,
        SimUnitKind::HpLeopard,
    ] {
        let config = kind.tile_config();
        let cost = head_cost(&workload, &config, &model);
        println!(
            "  {:<14} {:>10} cyc {:>10.2} us {:>12.1}",
            config.name,
            cost.cycles,
            cost.latency_us,
            cost.energy_total()
        );
    }
    print_timing(&report);
    write_structured_reports(&report, common)?;
    write_telemetry_outputs(&runner, common)
}

/// Representative tasks spanning the pruning-rate range (the Figure 13
/// set), shared with the `fig13_nqk_sweep` harness. Use
/// [`representative_tasks`] to resolve them against the suite.
pub const REPRESENTATIVE_TASK_NAMES: [&str; 9] = [
    "MemN2N Task-1",
    "MemN2N Task-5",
    "BERT-B G-QNLI",
    "BERT-B G-MRPC",
    "BERT-L G-SST",
    "BERT-L SQuAD",
    "ALBERT-XX-L SQuAD",
    "GPT-2-L WikiText-2",
    "ViT-B CIFAR-10",
];

/// Resolves [`REPRESENTATIVE_TASK_NAMES`] against the suite.
///
/// # Panics
///
/// Panics if any listed name no longer exists in the suite — a silent
/// drop would skew every mean computed over the set.
pub fn representative_tasks() -> Vec<TaskDescriptor> {
    let tasks: Vec<TaskDescriptor> = full_suite()
        .into_iter()
        .filter(|t| REPRESENTATIVE_TASK_NAMES.contains(&t.name.as_str()))
        .collect();
    assert_eq!(
        tasks.len(),
        REPRESENTATIVE_TASK_NAMES.len(),
        "a representative task name no longer matches the suite"
    );
    tasks
}

/// Requests replayed per design point of a serving sweep — enough for the
/// retry/shed accounting to move, small enough that a crossed grid stays
/// interactive.
const SWEEP_SERVE_REQUESTS: usize = 96;

/// Prints a sweep table: the banner naming the axes and `target`, one
/// leading column per axis followed by the `columns` header, one row per
/// grid point with the metric cells `row` renders for it, and the run
/// footer. Both sweep kinds print through here.
fn print_sweep_table(
    spec: &SweepSpec,
    runner: &SuiteRunner,
    target: &str,
    columns: &str,
    mut row: impl FnMut(&[u32]) -> Result<String, String>,
) -> Result<(), String> {
    let grid = spec.grid();
    let axes: Vec<String> = spec
        .params
        .iter()
        .map(|(param, values)| {
            let rendered: Vec<String> = values.iter().map(|&v| param.render(v)).collect();
            format!("{}={}", param.label(), rendered.join(","))
        })
        .collect();
    println!(
        "sweeping {} ({} design points) {target}, {} threads",
        axes.join(" x "),
        grid.len(),
        runner.threads(),
    );
    let mut header = String::new();
    for (param, _) in &spec.params {
        let _ = write!(header, "{:>12} ", param.label());
    }
    println!("\n{header}{columns}");
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-seconds footer for the sweep table; simulated results never read it"
    )]
    let start = std::time::Instant::now();
    for point in &grid {
        let mut cells = String::new();
        for ((param, _), &value) in spec.params.iter().zip(point.iter()) {
            let _ = write!(cells, "{:>12} ", param.render(value));
        }
        println!("{cells}{}", row(point)?);
    }
    print_run_footer(
        &format!(
            "swept {} design points in {:.3}s",
            grid.len(),
            start.elapsed().as_secs_f64(),
        ),
        runner.cache().stats(),
        "",
    );
    Ok(())
}

/// Runs a sweep over the serving fault-tolerance axes (retry-max,
/// fail-rate): each design point replays the default request stream with
/// the axis values overlaid and reports served/shed/retry counts and
/// goodput. Transient faults come from a plan seeded with
/// [`DEFAULT_FAULT_SEED`], so rows are reproducible and differ only in
/// the swept values.
fn run_serving_sweep(spec: &SweepSpec, common: &CommonOptions) -> Result<(), String> {
    let suite = full_suite();
    let runner = SuiteRunner::new(common.threads);
    let columns = format!(
        "{:>10} {:>10} {:>10} {:>12} {:>14}",
        "served", "shed", "retries", "faults", "goodput rps"
    );
    let target = format!("over a {SWEEP_SERVE_REQUESTS} request stream");
    print_sweep_table(spec, &runner, &target, &columns, |point| {
        let mut options = ServingOptions {
            requests: SWEEP_SERVE_REQUESTS,
            pipeline: common.pipeline,
            ..ServingOptions::default()
        };
        for ((param, _), &value) in spec.params.iter().zip(point) {
            match param {
                SweepParam::RetryMax => options.retry_max = value,
                SweepParam::FailRate => {
                    options.faults = Some(FaultPlan::transient(
                        DEFAULT_FAULT_SEED,
                        f64::from(value) / 100.0,
                    )?);
                }
                other => unreachable!("{} is not a serving axis", other.label()),
            }
        }
        let report = run_serving(&runner, &suite, &options);
        let (retries, faults) = report
            .fault_summary
            .as_ref()
            .map_or((0, 0), |f| (f.retries, f.transient_faults));
        Ok(format!(
            "{:>10} {:>10} {:>10} {:>12} {:>14.0}",
            report.records.len(),
            report.shed.len(),
            retries,
            faults,
            report.goodput_rps(),
        ))
    })
}

fn run_sweep_command(spec: &SweepSpec, common: &CommonOptions) -> Result<(), String> {
    if spec.is_serving() {
        return run_serving_sweep(spec, common);
    }
    let tasks: Vec<TaskDescriptor> = if spec.all_tasks {
        full_suite()
    } else {
        representative_tasks()
    };
    let runner = SuiteRunner::new(common.threads);
    // The metric columns depend on whether any axis schedules tiled
    // execution.
    let columns = if spec.is_tiled() {
        format!(
            "{:>14} {:>12} {:>12} {:>12}",
            "makespan cyc", "speedup", "balance", "prune rate"
        )
    } else {
        format!(
            "{:>12} {:>12} {:>12} {:>12}",
            "V-PU demand", "V-PU util", "mean cycles", "prune rate"
        )
    };
    let target = format!("on {} tasks", tasks.len());
    print_sweep_table(spec, &runner, &target, &columns, |point| {
        // Resolve this design point: overlay each axis value on the
        // AE-LeOPArd base configuration. qk-bits re-quantizes the operands
        // (one workload-cache entry per width); every other axis reuses
        // one workload per task across the whole grid.
        let mut config = TileConfig::ae_leopard();
        let mut pipeline = common.pipeline;
        let mut placement = pipeline.placement;
        for ((param, _), &value) in spec.params.iter().zip(point) {
            match param {
                SweepParam::NQk => config = config.with_n_qk(value as usize),
                SweepParam::SerialBits => config = config.with_serial_bits(value),
                SweepParam::QkBits => {
                    config = config.with_qk_bits(value);
                    pipeline.qk_bits = value;
                }
                SweepParam::Tiles => config.tiles = value as usize,
                SweepParam::Placement => placement = Placement::ALL[value as usize],
                SweepParam::RetryMax | SweepParam::FailRate => {
                    unreachable!("serving axes dispatch to run_serving_sweep")
                }
            }
        }
        let cache = Arc::clone(runner.cache());
        let mean = |rows: Vec<(f64, f64, f64, f64)>| {
            let n = rows.len() as f64;
            let sum = |f: fn(&(f64, f64, f64, f64)) -> f64| rows.iter().map(f).sum::<f64>() / n;
            (sum(|r| r.0), sum(|r| r.1), sum(|r| r.2), sum(|r| r.3))
        };
        if spec.is_tiled() {
            // Tiled ablation: schedule each task's head-0 layer across
            // `config.tiles` tiles under the point's placement policy and
            // report the makespan, the cycle-level speedup over
            // single-tile execution, and the load balance. Merged
            // accounting is bit-identical across design points by the
            // conformance contract, so pruning never moves. The lpt default
            // splits the lone head across every tile; the placement axis
            // shows up as a makespan/balance difference (static cannot
            // split a head).
            let rows = parallel_map(runner.pool(), tasks.clone(), move |_, task| {
                let workload = cache.head_workload(task, &pipeline, 0);
                let model = EnergyModel::calibrated();
                let schedule =
                    schedule_layer(std::slice::from_ref(&workload), &config, &model, placement);
                let serial = schedule.heads[0].merged.total_cycles as f64;
                let makespan = schedule.makespan_cycles.max(1) as f64;
                (
                    makespan,
                    serial / makespan,
                    schedule.balance(),
                    schedule.pruning_rate,
                )
            });
            let (makespan, speedup, balance, prune) = mean(rows);
            return Ok(format!(
                "{makespan:>14.0} {speedup:>11.2}x {:>11.1}% {:>11.1}%",
                balance * 100.0,
                prune * 100.0,
            ));
        }
        let rows = parallel_map(runner.pool(), tasks.clone(), move |_, task| {
            let workload = cache.head_workload(task, &pipeline, 0);
            let sim = simulate_head(&workload, &config);
            (
                sim.vpu_demand,
                sim.vpu_utilization,
                sim.total_cycles as f64,
                sim.pruning_rate(),
            )
        });
        let (demand, util, cycles, prune) = mean(rows);
        Ok(format!(
            "{:>11.1}% {:>11.1}% {cycles:>12.0} {:>11.1}%",
            demand * 100.0,
            util * 100.0,
            prune * 100.0,
        ))
    })
}

fn run_list_command() {
    println!(
        "{:<4} {:<24} {:<12} {:>8} {:>8}",
        "id", "task", "dataset", "seq", "prune%"
    );
    for t in full_suite() {
        let cfg = t.model_config();
        println!(
            "{:<4} {:<24} {:<12} {:>8} {:>7.1}%",
            t.id,
            t.name,
            t.dataset.label(),
            cfg.seq_len,
            t.paper_pruning_rate * 100.0
        );
    }
}

/// Parses and executes an invocation.
pub fn run(args: &[String]) -> Result<(), String> {
    match parse(args)? {
        Command::Suite(common) => run_suite_command(&common),
        Command::Serve(options, faults, common) => run_serve_command(*options, &faults, &common),
        Command::Task(name, common) => run_task_command(&name, &common),
        Command::Sweep(spec, common) => run_sweep_command(&spec, &common),
        Command::List => {
            run_list_command();
            Ok(())
        }
        Command::Help => {
            println!("{}", usage());
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_suite_flags() {
        let cmd = parse(&args(&[
            "suite",
            "--threads",
            "4",
            "--quick",
            "--max-seq-len",
            "32",
            "--json",
            "/tmp/r.json",
        ]))
        .unwrap();
        match cmd {
            Command::Suite(common) => {
                assert_eq!(common.threads, 4);
                assert!(common.quick);
                assert_eq!(common.pipeline.max_sim_seq_len, 32);
                assert_eq!(common.json_path.as_deref(), Some("/tmp/r.json"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_task_with_name() {
        let cmd = parse(&args(&["task", "BERT-B SQuAD", "--heads", "2"])).unwrap();
        match cmd {
            Command::Task(name, common) => {
                assert_eq!(name, "BERT-B SQuAD");
                assert_eq!(common.pipeline.heads, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_sweep_range_and_list() {
        assert_eq!(
            parse_param("nqk=2..10").unwrap(),
            (SweepParam::NQk, (2..=10).collect())
        );
        assert_eq!(
            parse_param("serial-bits=1,2,4,12").unwrap(),
            (SweepParam::SerialBits, vec![1, 2, 4, 12])
        );
        assert!(parse_param("nqk=10..2").is_err());
        assert!(parse_param("bogus=1").is_err());
        assert!(parse_param("nqk=0..3").is_err(), "0 DPUs is invalid");
    }

    #[test]
    fn parses_qk_bits_sweep() {
        assert_eq!(
            parse_param("qk-bits=4..12").unwrap(),
            (SweepParam::QkBits, (4..=12).collect())
        );
        assert_eq!(
            parse_param("qk_bits=9,12").unwrap(),
            (SweepParam::QkBits, vec![9, 12])
        );
        // with_qk_bits accepts 4..=16; outside that the spec is rejected.
        assert!(parse_param("qk-bits=3..6").is_err(), "3 bits is too narrow");
        assert!(parse_param("qk-bits=17").is_err(), "17 bits is too wide");
        match parse(&args(&["sweep", "--param", "qk-bits=4..12"])).unwrap() {
            Command::Sweep(spec, _) => {
                assert_eq!(spec.params.len(), 1);
                assert_eq!(spec.params[0].0, SweepParam::QkBits);
                assert_eq!(spec.params[0].1.len(), 9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn qk_bits_sweep_runs_end_to_end() {
        // A tiny end-to-end run: two quantization widths over the
        // representative tasks at a short sequence cap. Exercises the
        // re-quantization path (one cache entry per width).
        run(&args(&[
            "sweep",
            "--param",
            "qk-bits=8,12",
            "--max-seq-len",
            "16",
            "--threads",
            "1",
        ]))
        .expect("qk-bits sweep should run");
    }

    #[test]
    fn parses_tiles_flag_and_tiles_sweep() {
        match parse(&args(&["suite", "--tiles", "4"])).unwrap() {
            Command::Suite(common) => assert_eq!(common.pipeline.tiles, 4),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&args(&["serve", "--tiles", "2"])).unwrap() {
            Command::Serve(_, _, common) => assert_eq!(common.pipeline.tiles, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&args(&["suite", "--tiles", "0"])).is_err());
        assert!(parse(&args(&["suite", "--tiles", "many"])).is_err());
        // The tiles sweep parses like the other parameters...
        assert_eq!(
            parse_param("tiles=1..8").unwrap(),
            (SweepParam::Tiles, (1..=8).collect())
        );
        assert!(parse_param("tiles=0..4").is_err(), "0 tiles is invalid");
        assert!(parse_param("tiles=65").is_err());
        // ... and conflicts with a fixed --tiles, while non-tiles sweeps
        // reject --tiles instead of silently ignoring it.
        let err = parse(&args(&["sweep", "--param", "tiles=1..4", "--tiles", "2"])).unwrap_err();
        assert!(err.contains("conflicts"), "{err}");
        let err = parse(&args(&["sweep", "--param", "nqk=2..4", "--tiles", "2"])).unwrap_err();
        assert!(err.contains("--param tiles"), "{err}");
    }

    #[test]
    fn tiles_sweep_runs_end_to_end() {
        run(&args(&[
            "sweep",
            "--param",
            "tiles=1,4",
            "--max-seq-len",
            "16",
            "--threads",
            "1",
        ]))
        .expect("tiles sweep should run");
    }

    #[test]
    fn parses_placement_flag_on_suite_serve_and_task() {
        match parse(&args(&["suite", "--placement", "rr"])).unwrap() {
            Command::Suite(common) => {
                assert_eq!(common.pipeline.placement, Placement::RoundRobin)
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&args(&["serve", "--placement", "static"])).unwrap() {
            Command::Serve(_, _, common) => {
                assert_eq!(common.pipeline.placement, Placement::Static)
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&args(&["task", "x", "--placement", "greedy"])).unwrap() {
            Command::Task(_, common) => assert_eq!(common.pipeline.placement, Placement::Lpt),
            other => panic!("unexpected {other:?}"),
        }
        // The default is greedy LPT.
        match parse(&args(&["suite"])).unwrap() {
            Command::Suite(common) => assert_eq!(common.pipeline.placement, Placement::Lpt),
            other => panic!("unexpected {other:?}"),
        }
        // Bad values and a missing value are errors, not panics.
        assert!(parse(&args(&["suite", "--placement", "zebra"])).is_err());
        assert!(parse(&args(&["suite", "--placement"])).is_err());
        // Sweeps take the policy per design point instead.
        let err = parse(&args(&[
            "sweep",
            "--param",
            "tiles=1..4",
            "--placement",
            "rr",
        ]))
        .unwrap_err();
        assert!(err.contains("--param placement"), "{err}");
    }

    #[test]
    fn parses_placement_sweep_values_as_policy_labels() {
        assert_eq!(
            parse_param("placement=lpt,rr,static").unwrap(),
            (SweepParam::Placement, vec![0, 1, 2])
        );
        assert_eq!(
            parse_param("placement=static").unwrap(),
            (SweepParam::Placement, vec![2])
        );
        // Aliases resolve like the --placement flag does.
        assert_eq!(
            parse_param("placement=greedy,round-robin").unwrap(),
            (SweepParam::Placement, vec![0, 1])
        );
        let err = parse_param("placement=1..3").unwrap_err();
        assert!(err.contains("comma list"), "{err}");
        assert!(parse_param("placement=zebra").is_err());
    }

    #[test]
    fn crossed_sweep_params_parse_and_duplicates_are_rejected() {
        match parse(&args(&[
            "sweep",
            "--param",
            "tiles=1..8",
            "--param",
            "placement=lpt,rr,static",
        ]))
        .unwrap()
        {
            Command::Sweep(spec, _) => {
                assert_eq!(spec.params.len(), 2);
                assert_eq!(spec.params[0].0, SweepParam::Tiles);
                assert_eq!(spec.params[1].0, SweepParam::Placement);
                // Row-major cross: 8 tile counts x 3 policies.
                assert_eq!(spec.grid().len(), 24);
                assert_eq!(spec.grid()[0], vec![1, 0]);
                assert_eq!(spec.grid()[23], vec![8, 2]);
                assert!(spec.is_tiled());
            }
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&args(&[
            "sweep",
            "--param",
            "tiles=1..4",
            "--param",
            "tiles=2,8",
        ]))
        .unwrap_err();
        assert!(err.contains("duplicate --param tiles"), "{err}");
        // Duplicates are caught by name even with different value specs.
        let err = parse(&args(&[
            "sweep",
            "--param",
            "qk-bits=4,8",
            "--param",
            "qk_bits=12",
        ]))
        .unwrap_err();
        assert!(err.contains("duplicate --param qk-bits"), "{err}");
        // A non-tiled pair crosses too, and reports the unit table.
        match parse(&args(&[
            "sweep",
            "--param",
            "nqk=2,4",
            "--param",
            "serial-bits=1,2",
        ]))
        .unwrap()
        {
            Command::Sweep(spec, _) => {
                assert_eq!(spec.grid().len(), 4);
                assert!(!spec.is_tiled());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn crossed_tiles_placement_sweep_runs_end_to_end() {
        run(&args(&[
            "sweep",
            "--param",
            "tiles=1,4",
            "--param",
            "placement=lpt,static",
            "--max-seq-len",
            "16",
            "--threads",
            "1",
        ]))
        .expect("crossed sweep should run");
    }

    #[test]
    fn degenerate_serve_streams_are_rejected_with_clear_errors() {
        // Regression matrix for the degenerate-stream class: zero/negative
        // mix totals, a zero SLO, and vanishing offered rates must all be
        // CLI errors, not degenerate runs.
        let zero_mix = parse(&args(&["serve", "--mix", "memn2n=0,bert-b=0"])).unwrap_err();
        assert!(zero_mix.contains("positive weight"), "{zero_mix}");
        let negative = parse(&args(&["serve", "--mix", "memn2n=-2"])).unwrap_err();
        assert!(negative.contains(">= 0"), "{negative}");
        let zero_slo = parse(&args(&["serve", "--slo-cycles", "0"])).unwrap_err();
        assert!(zero_slo.contains("at least 1"), "{zero_slo}");
        let tiny_rate = parse(&args(&["serve", "--rate", "1e-300"])).unwrap_err();
        assert!(tiny_rate.contains("at least 0.001"), "{tiny_rate}");
        // Healthy variants of each flag still parse.
        assert!(parse(&args(&["serve", "--mix", "memn2n=0,bert-b=1"])).is_ok());
        assert!(parse(&args(&["serve", "--slo-cycles", "1"])).is_ok());
        assert!(parse(&args(&["serve", "--rate", "0.5"])).is_ok());
    }

    #[test]
    fn parses_telemetry_flags_on_suite_serve_and_task() {
        match parse(&args(&["suite", "--trace", "/tmp/t.json"])).unwrap() {
            Command::Suite(common) => {
                assert_eq!(common.trace_path.as_deref(), Some("/tmp/t.json"));
                assert!(common.metrics_path.is_none());
                assert!(common.wants_telemetry());
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&args(&["serve", "--metrics", "/tmp/m.json"])).unwrap() {
            Command::Serve(_, _, common) => {
                assert_eq!(common.metrics_path.as_deref(), Some("/tmp/m.json"));
                assert!(common.wants_telemetry());
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&args(&["task", "x", "--trace", "a", "--metrics", "b"])).unwrap() {
            Command::Task(_, common) => {
                assert!(common.wants_telemetry());
            }
            other => panic!("unexpected {other:?}"),
        }
        // Without either flag, telemetry stays off.
        match parse(&args(&["suite"])).unwrap() {
            Command::Suite(common) => assert!(!common.wants_telemetry()),
            other => panic!("unexpected {other:?}"),
        }
        // The sweep path never runs the suite engine, so the flags are
        // rejected instead of silently ignored.
        let err = parse(&args(&["sweep", "--param", "nqk=2..4", "--trace", "t"])).unwrap_err();
        assert!(err.contains("does not record telemetry"), "{err}");
        let err = parse(&args(&["sweep", "--param", "nqk=2..4", "--metrics", "m"])).unwrap_err();
        assert!(err.contains("does not record telemetry"), "{err}");
        // A missing value is an error, not a panic.
        assert!(parse(&args(&["suite", "--trace"])).is_err());
        assert!(parse(&args(&["suite", "--metrics"])).is_err());
    }

    #[test]
    fn rejects_unknown_arguments() {
        assert!(parse(&args(&["suite", "--bogus"])).is_err());
        assert!(parse(&args(&["frobnicate"])).is_err());
        assert!(parse(&args(&["task"])).is_err(), "task needs a name");
        assert!(parse(&args(&["sweep"])).is_err(), "sweep needs --param");
    }

    #[test]
    fn empty_args_show_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn full_scale_flag_uncaps_seq_len() {
        match parse(&args(&["suite", "--full-scale"])).unwrap() {
            Command::Suite(common) => {
                assert_eq!(common.pipeline.max_sim_seq_len, usize::MAX)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn full_scale_conflicts_with_max_seq_len_in_both_orders() {
        for order in [
            &["suite", "--full-scale", "--max-seq-len", "64"][..],
            &["suite", "--max-seq-len", "64", "--full-scale"][..],
        ] {
            let err = parse(&args(order)).unwrap_err();
            assert!(
                err.contains("--full-scale and --max-seq-len conflict"),
                "unhelpful error for {order:?}: {err}"
            );
        }
        // Each flag alone still parses.
        assert!(parse(&args(&["suite", "--max-seq-len", "64"])).is_ok());
        assert!(parse(&args(&["serve", "--full-scale"])).is_ok());
    }

    #[test]
    fn max_seq_len_below_the_simulated_minimum_is_rejected() {
        // sim_seq_len pads every task to 8 rows, so a smaller cap could
        // only be ignored.
        for bad in ["0", "1", "7"] {
            let err = parse(&args(&["suite", "--max-seq-len", bad])).unwrap_err();
            assert_eq!(err, format!("--max-seq-len must be at least 8, got {bad}"));
        }
        assert!(parse(&args(&["suite", "--max-seq-len", "8"])).is_ok());
    }

    #[test]
    fn parses_serve_flags() {
        let cmd = parse(&args(&[
            "serve",
            "--requests",
            "64",
            "--rate",
            "250000",
            "--seed",
            "0x5eed",
            "--servers",
            "4",
            "--schedule",
            "ljf",
            "--csv",
            "/tmp/serve.csv",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(options, _, common) => {
                assert_eq!(options.requests, 64);
                assert_eq!(options.rate_rps, 250_000.0);
                assert_eq!(options.seed, 0x5eed);
                assert_eq!(options.servers, 4);
                assert_eq!(common.schedule, SchedulePolicy::Ljf);
                assert_eq!(common.csv_path.as_deref(), Some("/tmp/serve.csv"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults match the library defaults.
        match parse(&args(&["serve"])).unwrap() {
            Command::Serve(options, faults, common) => {
                assert_eq!(*options, ServingOptions::default());
                assert_eq!(faults, FaultSource::default());
                assert_eq!(common.schedule, SchedulePolicy::Fifo);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serve_resource_caps_admit_their_bound_and_reject_past_it() {
        for (flag, cap) in [
            ("--requests", MAX_SERVE_REQUESTS),
            ("--servers", MAX_SERVE_SERVERS),
        ] {
            assert!(parse(&args(&["serve", flag, &cap.to_string()])).is_ok());
            let over = (cap + 1).to_string();
            let err = parse(&args(&["serve", flag, &over])).unwrap_err();
            assert_eq!(err, format!("{flag} must be at most {cap}, got {over}"));
            assert!(usage().contains(&format!("at most\n                      {cap})")));
        }
    }

    #[test]
    fn head_tile_and_retry_caps_admit_their_bound_and_reject_past_it() {
        let usage: String = usage().split_whitespace().collect::<Vec<_>>().join(" ");
        for (argv, flag, cap) in [
            (&["suite", "--threads"][..], "--threads", MAX_THREADS),
            (&["suite", "--heads"][..], "--heads", MAX_SUITE_HEADS),
            (&["serve", "--heads"][..], "--heads", MAX_SUITE_HEADS),
            (&["suite", "--tiles"][..], "--tiles", MAX_TILES),
            (&["serve", "--tiles"][..], "--tiles", MAX_TILES),
            (
                &["serve", "--retry-max"][..],
                "--retry-max",
                MAX_RETRY_BUDGET as usize,
            ),
        ] {
            let with = |v: &str| parse(&args(&[argv, &[v]].concat()));
            assert!(with(&cap.to_string()).is_ok(), "{flag} {cap}");
            let over = (cap + 1).to_string();
            assert_eq!(
                with(&over).unwrap_err(),
                format!("{flag} must be at most {cap}, got {over}")
            );
            assert!(
                usage.contains(&format!("at most {cap})")),
                "USAGE names {flag}'s cap"
            );
        }
        assert_eq!(
            parse(&args(&["suite", "--heads", "0"])).unwrap_err(),
            "--heads must be at least 1"
        );
        let cap = MAX_RETRY_BUDGET;
        assert_eq!(
            parse_param(&format!("retry-max=0,{cap}")).unwrap(),
            (SweepParam::RetryMax, vec![0, cap])
        );
        assert_eq!(
            parse_param(&format!("retry-max=0..{}", cap + 1)).unwrap_err(),
            format!("retry-max must be at most {cap}, got {}", cap + 1)
        );
    }

    #[test]
    fn serve_flags_are_validated() {
        assert!(parse(&args(&["serve", "--rate", "0"])).is_err());
        assert!(parse(&args(&["serve", "--rate", "-5"])).is_err());
        assert!(parse(&args(&["serve", "--servers", "0"])).is_err());
        assert!(parse(&args(&["serve", "--seed", "zebra"])).is_err());
        assert!(parse(&args(&["serve", "--quick"])).is_err());
        // Serve-only and schedule flags are rejected elsewhere.
        assert!(parse(&args(&["suite", "--requests", "9"])).is_err());
        assert!(parse(&args(&["task", "x", "--schedule", "ljf"])).is_err());
        assert!(parse(&args(&["suite", "--schedule", "srpt"])).is_err());
        // --schedule is fine on suite.
        match parse(&args(&["suite", "--schedule", "ljf"])).unwrap() {
            Command::Suite(common) => assert_eq!(common.schedule, SchedulePolicy::Ljf),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_scenario_flags() {
        let cmd = parse(&args(&[
            "serve",
            "--arrivals",
            "bursty",
            "--mix",
            "memn2n=3,bert-b=1",
            "--slo-cycles",
            "5000000",
            "--schedule",
            "sjf",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(options, _, common) => {
                assert_eq!(options.arrivals, ArrivalProcess::Bursty);
                assert_eq!(options.mix.label(), "memn2n=3,bert-b=1");
                assert_eq!(options.slo_cycles, Some(5_000_000));
                assert_eq!(common.schedule, SchedulePolicy::Sjf);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Scenario flags are serve-only, and their values are validated.
        assert!(parse(&args(&["suite", "--arrivals", "bursty"])).is_err());
        assert!(parse(&args(&["suite", "--mix", "memn2n=1"])).is_err());
        assert!(parse(&args(&["suite", "--slo-cycles", "5"])).is_err());
        assert!(parse(&args(&["serve", "--arrivals", "lumpy"])).is_err());
        assert!(parse(&args(&["serve", "--mix", "zebra=1"])).is_err());
        assert!(parse(&args(&["serve", "--slo-cycles", "0"])).is_err());
        assert!(parse(&args(&["serve", "--slo-cycles", "many"])).is_err());
    }

    #[test]
    fn parses_fault_tolerance_flags() {
        let cmd = parse(&args(&[
            "serve",
            "--fail-rate",
            "5",
            "--fault-seed",
            "0xfa17",
            "--retry-max",
            "3",
            "--backoff-base-cycles",
            "512",
            "--degrade",
            "--slo-headroom",
            "1.25",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(options, faults, _) => {
                assert_eq!(faults.fail_rate, Some(0.05), "percent becomes a fraction");
                assert_eq!(faults.seed, Some(0xfa17));
                assert_eq!(options.retry_max, 3);
                assert_eq!(options.backoff_base_cycles, 512);
                assert!(options.degrade);
                assert_eq!(options.slo_headroom, 1.25);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: layer off, headroom at the historical constant.
        match parse(&args(&["serve"])).unwrap() {
            Command::Serve(options, faults, _) => {
                assert!(faults.path.is_none() && faults.fail_rate.is_none());
                assert_eq!(options.retry_max, 0);
                assert_eq!(
                    options.slo_headroom,
                    crate::serving::SLO_PREDICTION_HEADROOM
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // A plan file parses, but not alongside the generator flags.
        match parse(&args(&["serve", "--faults", "/tmp/plan.json"])).unwrap() {
            Command::Serve(_, faults, _) => {
                assert_eq!(faults.path.as_deref(), Some("/tmp/plan.json"))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fault_tolerance_flags_are_validated() {
        // Value errors.
        assert!(parse(&args(&["serve", "--fail-rate", "101"])).is_err());
        assert!(parse(&args(&["serve", "--fail-rate", "-1"])).is_err());
        assert!(parse(&args(&["serve", "--fail-rate", "nan"])).is_err());
        assert!(parse(&args(&["serve", "--slo-headroom", "0"])).is_err());
        assert!(parse(&args(&["serve", "--slo-headroom", "-2"])).is_err());
        assert!(parse(&args(&["serve", "--slo-headroom", "inf"])).is_err());
        assert!(parse(&args(&["serve", "--backoff-base-cycles", "0"])).is_err());
        let cap = MAX_BACKOFF_BASE_CYCLES;
        assert!(parse(&args(&["serve", "--backoff-base-cycles", &cap.to_string()])).is_ok());
        let above = parse(&args(&[
            "serve",
            "--backoff-base-cycles",
            &(cap + 1).to_string(),
        ]));
        assert!(above.unwrap_err().contains("at most 1073741824"));
        assert!(parse(&args(&["serve", "--retry-max", "lots"])).is_err());
        // Combination errors.
        let err = parse(&args(&["serve", "--faults", "p.json", "--fail-rate", "5"])).unwrap_err();
        assert!(err.contains("--faults conflicts"), "{err}");
        let err = parse(&args(&["serve", "--faults", "p.json", "--fault-seed", "7"])).unwrap_err();
        assert!(err.contains("--faults conflicts"), "{err}");
        let err = parse(&args(&["serve", "--fault-seed", "7"])).unwrap_err();
        assert!(err.contains("--fail-rate"), "{err}");
        // Serve-only placement: every fault flag is rejected elsewhere.
        for flags in [
            &["suite", "--retry-max", "1"][..],
            &["suite", "--degrade"][..],
            &["task", "x", "--fail-rate", "5"][..],
            &["suite", "--slo-headroom", "1.5"][..],
        ] {
            let err = parse(&args(flags)).unwrap_err();
            assert!(err.contains("leopard serve"), "{flags:?}: {err}");
        }
        // Healthy variants parse.
        assert!(parse(&args(&["serve", "--fail-rate", "0"])).is_ok());
        assert!(parse(&args(&["serve", "--fail-rate", "100"])).is_ok());
        assert!(parse(&args(&["serve", "--retry-max", "0"])).is_ok());
    }

    #[test]
    fn parses_serving_sweep_axes() {
        assert_eq!(
            parse_param("retry-max=0,1,3").unwrap(),
            (SweepParam::RetryMax, vec![0, 1, 3])
        );
        assert_eq!(
            parse_param("fail_rate=0..5").unwrap(),
            (SweepParam::FailRate, (0..=5).collect())
        );
        assert!(parse_param("retry-max=33").is_err(), "budget cap is 32");
        assert!(
            parse_param("fail-rate=101").is_err(),
            "a percentage tops out at 100"
        );
        // The two serving axes cross with each other...
        match parse(&args(&[
            "sweep",
            "--param",
            "retry-max=0,3",
            "--param",
            "fail-rate=0,10",
        ]))
        .unwrap()
        {
            Command::Sweep(spec, _) => {
                assert_eq!(spec.grid().len(), 4);
                assert!(spec.is_serving());
                assert!(!spec.is_tiled());
            }
            other => panic!("unexpected {other:?}"),
        }
        // ... but not with microarchitecture axes, and not under
        // --all-tasks (the stream always draws from the full suite).
        let err = parse(&args(&[
            "sweep",
            "--param",
            "retry-max=0,3",
            "--param",
            "tiles=1..4",
        ]))
        .unwrap_err();
        assert!(err.contains("cross only with each other"), "{err}");
        let err = parse(&args(&[
            "sweep",
            "--param",
            "fail-rate=0,10",
            "--all-tasks",
        ]))
        .unwrap_err();
        assert!(err.contains("--all-tasks does not apply"), "{err}");
    }

    #[test]
    fn serving_sweep_runs_end_to_end() {
        run(&args(&[
            "sweep",
            "--param",
            "retry-max=0,2",
            "--param",
            "fail-rate=20",
            "--max-seq-len",
            "16",
            "--threads",
            "2",
        ]))
        .expect("serving sweep should run");
    }

    #[test]
    fn seed_parses_decimal_and_hex() {
        assert_eq!(parse_seed("42"), Ok(42));
        assert_eq!(parse_seed("0x2A"), Ok(42));
        assert_eq!(parse_seed("0X2a"), Ok(42));
        assert!(parse_seed("0x").is_err());
        assert!(parse_seed("").is_err());
    }

    #[test]
    fn find_task_prefers_exact_matches_over_substring_ambiguity() {
        let suite = full_suite();
        // Case-sensitive exact match: also a substring of Task-10..Task-19,
        // yet never ambiguous.
        assert_eq!(
            find_task(&suite, "MemN2N Task-1").unwrap().name,
            "MemN2N Task-1"
        );
        // Case-insensitive exact match wins before substring ambiguity.
        assert_eq!(
            find_task(&suite, "memn2n task-1").unwrap().name,
            "MemN2N Task-1"
        );
        assert_eq!(
            find_task(&suite, "BERT-B SQUAD").unwrap().name,
            "BERT-B SQuAD"
        );
        // Unique substring still resolves, case-insensitively.
        assert_eq!(
            find_task(&suite, "wikitext").unwrap().name,
            "GPT-2-L WikiText-2"
        );
        // A genuinely ambiguous substring still errors, listing candidates.
        let err = find_task(&suite, "task-1").unwrap_err();
        assert!(
            err.contains("ambiguous") && err.contains("MemN2N Task-10"),
            "{err}"
        );
        // And a miss names the remedy.
        assert!(find_task(&suite, "nonexistent")
            .unwrap_err()
            .contains("leopard list"));
    }

    #[test]
    fn empty_suite_console_output_reports_no_tasks() {
        let runner = SuiteRunner::new(1);
        let report = runner.run(&[], &PipelineOptions::default());
        let out = suite_console_output(&report);
        assert!(
            out.contains("no tasks simulated"),
            "empty-suite output was:\n{out}"
        );
    }
}
