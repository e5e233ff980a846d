//! Serving-mode engine: a continuous request stream with latency
//! percentiles, scenario-controlled arrivals, and SLO-aware admission.
//!
//! The suite engine answers "how fast does the whole 43-task batch run?";
//! this module answers the question accelerator papers are increasingly
//! judged on — *served* latency. A deterministic synthetic arrival process
//! ([`ArrivalProcess`]: steady, bursty, or diurnal — seeded, on the virtual
//! cycle clock, no wall-clock randomness) emits inference requests drawn
//! from a per-family [`RequestMix`]; a cost-model scheduler
//! ([`crate::sched`]) orders admission; an optional SLO admission
//! controller sheds requests whose predicted completion would blow a
//! deadline; and the engine reports p50/p95/p99/max latency, throughput,
//! shed rate, goodput, and queue depth over time.
//!
//! Execution happens in two phases:
//!
//! 1. **Execute** — every distinct task in the request mix is simulated on
//!    the thread pool (all heads on the serving tile configuration,
//!    workloads via the shared [`WorkloadCache`](crate::cache)). This
//!    yields each request's ground-truth *service* cycles: the **layer
//!    makespan** of the task's head→tile placement
//!    ([`plan_task_layer`] under [`PipelineOptions::placement`] across
//!    [`PipelineOptions::tiles`] tiles — heads whole while they
//!    outnumber tiles, load-predicted Q-row splits when tiles would idle).
//!    The plan executes through
//!    [`LayerPlan::execute`](leopard_accel::schedule::LayerPlan::execute):
//!    its `blocks` simulated serially and reassembled by `assemble`, the
//!    one tile decomposition the suite engine also runs. So merged
//!    per-request accounting stays bit-identical to single-tile execution
//!    for every tile count and placement policy; only the makespan — the
//!    scheduled quantity — changes. Simulation is a pure function of the
//!    task, so this phase parallelizes freely.
//! 2. **Replay** — a single-threaded discrete-event loop replays the
//!    arrival process against `servers` virtual tiles on a virtual cycle
//!    clock: requests are admitted at their arrival cycle, the policy picks
//!    the next request whenever enough tiles free up (ordering by
//!    *predicted* cycles from the fitted cost model — the scheduler never
//!    sees ground truth), the SLO controller sheds a picked request if its
//!    predicted completion misses the deadline, and each dispatch occupies
//!    a **gang** of `min(tiles, servers)` tiles for the request's layer
//!    makespan — concurrent requests share the chip's tiles instead of
//!    each request owning an opaque server. The gang is the cheapest live
//!    tiles by `(free_at, tile)`, read off an incrementally maintained
//!    index of the live set: a dispatch re-inserts only its own tiles and
//!    a fail/recover moves one tile, so no replay step sorts the tile
//!    array.
//!
//! Latency is therefore accounted in simulated cycles, not wall-clock time:
//! worker threads only change how fast phase 1 runs, never a single number
//! in the report. Same seed + any thread count ⇒ bit-identical per-request
//! accounting (enforced by `tests/serving.rs`).
//!
//! # Fault tolerance
//!
//! With a [`FaultPlan`] (and/or a retry budget) the replay becomes a
//! fault-tolerant serving loop, still fully deterministic:
//!
//! * **Tile fail/recover** events shrink and grow the live tile set on the
//!   virtual clock. A failing tile drains (its in-flight gang finishes)
//!   but takes no new dispatches; gang dispatch replans over the live set
//!   (capacity-constrained plans go through reduced-width layer plans: a
//!   plan over the live set is the plain plan of that width, so only
//!   placement labels move).
//! * **Transient dispatch failures** and predicted SLO misses are
//!   *deferred* with seeded exponential backoff
//!   ([`ServingOptions::retry_max`],
//!   [`ServingOptions::backoff_base_cycles`]) instead of shed outright;
//!   a request is shed only after exhausting its retries.
//! * **Graceful degradation** ([`ServingOptions::degrade`]): when the
//!   padded prediction misses the deadline, the controller walks a
//!   [`DEGRADE_LEVELS`]-step ladder of tightened pruning thresholds
//!   (`degraded_pruning_rate`) and serves the cheapest level that fits
//!   instead of shedding; the outcome is recorded as a `degraded` level
//!   on the request record.
//!
//! With no fault plan, `retry_max == 0`, and degradation off, every path
//! above is provably inert and the replay is byte-identical to the plain
//! engine — golden fixtures pin this. With faults on, every fault draw is
//! counter-addressed by `(seed, request, attempt)`, so reports stay
//! bit-identical across thread counts (enforced by
//! `tests/fault_tolerance.rs`).

use crate::cache::CacheStats;
use crate::cli::{MAX_BACKOFF_BASE_CYCLES, MAX_RETRY_BUDGET};
use crate::engine::{measure_layer_makespans, SuiteRunner};
use crate::faults::{FaultPlan, TileFaultEvent, TileFaultKind};
use crate::sched::{DeferralQueue, PredictedJob, ReadyQueue, SchedulePolicy};
use crate::telemetry::{MetricsSnapshot, ReplayEvent, ReplayTape, Series, ShedCause};
use leopard_accel::config::TileConfig;
use leopard_accel::cost::degraded_pruning_rate;
use leopard_accel::schedule::Placement;
use leopard_tensor::rng;
use leopard_transformer::config::ModelFamily;
use leopard_workloads::pipeline::{plan_task_layer, PipelineOptions};
use leopard_workloads::suite::TaskDescriptor;
use rand::rngs::StdRng;
use rand::Rng;
use std::time::{Duration, Instant};

/// How inter-arrival gaps are generated. Every process is seeded and lives
/// on the virtual cycle clock, and every process offers the same *long-run*
/// mean load (`rate_rps`); they differ in how that load is distributed over
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ArrivalProcess {
    /// Poisson arrivals: i.i.d. exponential gaps at the offered rate. The
    /// memoryless baseline.
    #[default]
    Steady,
    /// On/off (interrupted Poisson) arrivals: bursts of
    /// [`BURST_MEAN_LEN`]-mean geometric length arrive at
    /// [`BURST_RATE_FACTOR`]× the offered rate, separated by idle gaps
    /// sized so the long-run mean rate still equals `rate_rps`. Models
    /// flash crowds and batchy upstream clients.
    Bursty,
    /// Sinusoidally-rate-modulated Poisson arrivals via thinning: the
    /// instantaneous rate swings ±[`DIURNAL_AMPLITUDE`] around the offered
    /// rate over [`DIURNAL_PERIODS`] full periods across the stream.
    /// Models day/night load cycles, compressed onto the virtual clock.
    Diurnal,
}

/// Multiplicative headroom the SLO admission controller applies to the
/// predicted service cycles before comparing against the deadline. The
/// fitted cost model is calibrated per family but still carries residual
/// error (service cycles run up to ~1.35× the prediction across the suite
/// at serving sequence lengths); admitting only requests with this much
/// predicted slack keeps the *actual* tail of the admitted requests under
/// the deadline instead of merely the predicted one.
pub const SLO_PREDICTION_HEADROOM: f64 = 1.4;

/// Default backoff base of the retry deferral queue, in virtual cycles:
/// retry `n` of a request waits `base · 2ⁿ` cycles plus seeded jitter in
/// `[0, base)` (see `FaultPlan::backoff_cycles`). 4096 cycles is roughly
/// half a short request's service time at serving sequence lengths — long
/// enough to let a transient clear, short enough that a retried request
/// can still meet a realistic SLO.
pub const DEFAULT_BACKOFF_BASE_CYCLES: u64 = 4096;

/// Depth of the graceful-degradation ladder: the admission controller may
/// tighten a request's pruning threshold by at most this many steps of
/// `degraded_pruning_rate` before concluding degradation cannot save it.
pub const DEGRADE_LEVELS: u32 = 2;

/// Mean number of requests per burst of [`ArrivalProcess::Bursty`].
pub const BURST_MEAN_LEN: f64 = 16.0;
/// Rate multiplier inside a burst of [`ArrivalProcess::Bursty`].
pub const BURST_RATE_FACTOR: f64 = 8.0;
/// Relative amplitude of the [`ArrivalProcess::Diurnal`] rate swing.
pub const DIURNAL_AMPLITUDE: f64 = 0.75;
/// Number of full diurnal periods spanned by one request stream.
pub const DIURNAL_PERIODS: f64 = 4.0;

impl ArrivalProcess {
    /// Every arrival process, in documentation order.
    pub const ALL: [ArrivalProcess; 3] = [
        ArrivalProcess::Steady,
        ArrivalProcess::Bursty,
        ArrivalProcess::Diurnal,
    ];

    /// The CLI/report label (`"steady"`, `"bursty"`, `"diurnal"`).
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Steady => "steady",
            ArrivalProcess::Bursty => "bursty",
            ArrivalProcess::Diurnal => "diurnal",
        }
    }

    /// Parses a CLI label.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid labels.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_lowercase().as_str() {
            "steady" => Ok(ArrivalProcess::Steady),
            "bursty" => Ok(ArrivalProcess::Bursty),
            "diurnal" => Ok(ArrivalProcess::Diurnal),
            other => Err(format!(
                "unknown arrival process {other:?} (expected one of: steady, bursty, diurnal)"
            )),
        }
    }
}

/// Which tasks the request stream draws, weighted by model family.
///
/// The uniform mix draws every suite task with equal probability. A
/// weighted mix assigns each *family* a non-negative weight; a task's draw
/// probability is its family's weight divided equally among that family's
/// tasks, so `memn2n=3,bert-b=1` sends three quarters of the traffic to
/// MemN2N tasks regardless of how many tasks each family contributes.
/// Families left out of a weighted mix receive no traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestMix {
    /// `(family, weight)` pairs; empty means uniform over all tasks.
    weights: Vec<(ModelFamily, f64)>,
}

impl Default for RequestMix {
    fn default() -> Self {
        Self::uniform()
    }
}

impl RequestMix {
    /// The uniform mix: every suite task equally likely.
    pub fn uniform() -> Self {
        Self {
            weights: Vec::new(),
        }
    }

    /// Builds a weighted mix from `(family, weight)` pairs.
    ///
    /// # Errors
    ///
    /// Rejects negative or non-finite weights, duplicate families, and
    /// mixes whose weights sum to zero or overflow to infinity.
    pub fn from_weights(weights: Vec<(ModelFamily, f64)>) -> Result<Self, String> {
        let mut seen: Vec<ModelFamily> = Vec::new();
        for &(family, weight) in &weights {
            if !(weight.is_finite() && weight >= 0.0) {
                return Err(format!("weight for {family} must be finite and >= 0"));
            }
            if seen.contains(&family) {
                return Err(format!("family {family} listed twice in the mix"));
            }
            seen.push(family);
        }
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        if !total.is_finite() {
            return Err(format!(
                "request mix weights sum to {total}, not a finite total"
            ));
        }
        if !weights.is_empty() && total <= 0.0 {
            return Err("request mix needs at least one positive weight".to_string());
        }
        Ok(Self { weights })
    }

    /// Parses a CLI mix specification such as `memn2n=3,bert-b=1`. Family
    /// names match [`ModelFamily::name`] case-insensitively, with hyphens
    /// optional (`bert-b` and `bertb` both work). An empty string is the
    /// uniform mix.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending entry.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s.trim().is_empty() {
            return Ok(Self::uniform());
        }
        let mut weights = Vec::new();
        for entry in s.split(',') {
            let (name, weight) = entry
                .split_once('=')
                .ok_or_else(|| format!("mix entry {entry:?} is not family=weight"))?;
            let family = parse_family(name)?;
            let weight: f64 = weight
                .trim()
                .parse()
                .map_err(|_| format!("bad weight {:?} for {family}", weight.trim()))?;
            weights.push((family, weight));
        }
        Self::from_weights(weights)
    }

    /// Whether this is the uniform mix.
    pub fn is_uniform(&self) -> bool {
        self.weights.is_empty()
    }

    /// The CLI/report label: `"uniform"` or the `family=weight,...` form.
    pub fn label(&self) -> String {
        if self.is_uniform() {
            return "uniform".to_string();
        }
        self.weights
            .iter()
            .map(|(family, weight)| format!("{}={weight}", family.name().to_lowercase()))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Per-task draw weights against a concrete suite slice: a family's
    /// weight is split equally among its tasks (uniform mix: every task
    /// weight 1).
    ///
    /// # Panics
    ///
    /// Panics if no task in `suite` ends up with positive weight — the
    /// stream would have nothing to draw.
    pub fn task_weights(&self, suite: &[TaskDescriptor]) -> Vec<f64> {
        let weights: Vec<f64> = if self.is_uniform() {
            vec![1.0; suite.len()]
        } else {
            suite
                .iter()
                .map(|task| {
                    self.weights
                        .iter()
                        .find(|(family, _)| *family == task.family)
                        .map_or(0.0, |&(family, weight)| {
                            let family_tasks = suite.iter().filter(|t| t.family == family).count();
                            weight / family_tasks as f64
                        })
                })
                .collect()
        };
        assert!(
            weights.iter().any(|&w| w > 0.0),
            "request mix {:?} matches no task in the suite slice",
            self.label()
        );
        weights
    }
}

/// Resolves a CLI family name (case-insensitive, hyphens optional) to a
/// [`ModelFamily`].
fn parse_family(name: &str) -> Result<ModelFamily, String> {
    let normalized: String = name
        .trim()
        .to_lowercase()
        .chars()
        .filter(|c| *c != '-')
        .collect();
    ModelFamily::ALL
        .iter()
        .copied()
        .find(|family| {
            family
                .name()
                .to_lowercase()
                .chars()
                .filter(|c| *c != '-')
                .collect::<String>()
                == normalized
        })
        .ok_or_else(|| {
            let names: Vec<String> = ModelFamily::ALL
                .iter()
                .map(|f| f.name().to_lowercase())
                .collect();
            format!(
                "unknown model family {name:?} (expected one of: {})",
                names.join(", ")
            )
        })
}

/// Configuration of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingOptions {
    /// Number of requests in the stream.
    pub requests: usize,
    /// Offered load, in requests per second of virtual (tile-clock) time.
    /// Mean inter-arrival gap = clock rate / `rate_rps` cycles.
    pub rate_rps: f64,
    /// Seed of the arrival process (task draws + inter-arrival gaps).
    pub seed: u64,
    /// Shape of the arrival process (steady / bursty / diurnal).
    pub arrivals: ArrivalProcess,
    /// Per-family task mix the stream draws from.
    pub mix: RequestMix,
    /// Admission-ordering policy.
    pub policy: SchedulePolicy,
    /// SLO deadline in virtual cycles from arrival to completion. When set,
    /// the admission controller sheds any picked request whose *predicted*
    /// completion would miss the deadline, and the report carries shed rate
    /// and goodput. `None` admits everything. `Some(0)` is degenerate but
    /// well-defined **shed-all** semantics: every prediction exceeds an
    /// already-expired deadline, so the entire stream is shed and the
    /// report is headers-only (the CLI rejects `--slo-cycles 0` so users
    /// reach this corner deliberately, through the library, or not at all).
    pub slo_cycles: Option<u64>,
    /// Number of virtual tiles requests are dispatched onto.
    pub servers: usize,
    /// Workload construction knobs (sequence-length cap, heads, ...).
    pub pipeline: PipelineOptions,
    /// Tile configuration every request executes on.
    pub config: TileConfig,
    /// Multiplicative headroom the SLO admission controller applies to
    /// predicted service cycles before comparing against the deadline.
    /// Defaults to [`SLO_PREDICTION_HEADROOM`]; must be positive and
    /// finite (`--slo-headroom` on the CLI).
    pub slo_headroom: f64,
    /// Retries a request may consume before it is shed: a transient fault
    /// or predicted SLO miss defers the request (seeded exponential
    /// backoff) while attempts remain. `0` restores shed-on-first-miss.
    /// At most [`MAX_RETRY_BUDGET`].
    pub retry_max: u32,
    /// Backoff base of the deferral queue, in virtual cycles (retry `n`
    /// waits `base · 2ⁿ` plus seeded jitter in `[0, base)`). Must be in
    /// `1..=`[`MAX_BACKOFF_BASE_CYCLES`].
    pub backoff_base_cycles: u64,
    /// Graceful degradation: when the padded prediction misses the
    /// deadline, serve the request at the cheapest fitting level of the
    /// tightened-pruning ladder instead of deferring or shedding it.
    pub degrade: bool,
    /// Deterministic fault scenario to inject, if any. Validated against
    /// `servers` when the run starts.
    pub faults: Option<FaultPlan>,
}

impl Default for ServingOptions {
    /// Defaults model a saturated serving deployment: 16 accelerators of
    /// two tiles each (32 dispatch slots) hit with a steady offered load
    /// well above their capacity, so a backlog forms and the admission
    /// order matters. In this regime longest-predicted-job-first cuts the
    /// tail (p99/max) and shortest-predicted-job-first cuts the median
    /// versus arrival order; below saturation the queue stays shallow and
    /// FIFO's arrival order is already near-optimal for tail latency.
    fn default() -> Self {
        Self {
            requests: 256,
            rate_rps: 100_000_000.0,
            seed: 0x5EED_CAFE,
            arrivals: ArrivalProcess::Steady,
            mix: RequestMix::uniform(),
            policy: SchedulePolicy::Fifo,
            slo_cycles: None,
            servers: 32,
            pipeline: PipelineOptions::default(),
            config: TileConfig::ae_leopard(),
            slo_headroom: SLO_PREDICTION_HEADROOM,
            retry_max: 0,
            backoff_base_cycles: DEFAULT_BACKOFF_BASE_CYCLES,
            degrade: false,
            faults: None,
        }
    }
}

impl ServingOptions {
    /// Whether any fault-tolerance machinery is engaged: a fault plan, a
    /// retry budget, or graceful degradation. When false, the replay is
    /// the plain shed-only engine and reports carry no fault accounting.
    pub fn fault_tolerance_active(&self) -> bool {
        self.faults.is_some() || self.retry_max > 0 || self.degrade
    }
}

/// One request of the synthetic stream, before execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Request id; doubles as arrival order.
    pub id: usize,
    /// Index of the task drawn from the suite slice.
    pub task_index: usize,
    /// Arrival time on the virtual cycle clock.
    pub arrival_cycle: u64,
}

/// The replay's placeholder for a request it has not served (yet).
const BLANK_RECORD: RequestRecord = RequestRecord {
    id: 0,
    task_id: 0,
    arrival_cycle: 0,
    start_cycle: 0,
    finish_cycle: 0,
    predicted_cycles: 0,
    service_cycles: 0,
    attempts: 0,
    degraded: 0,
};

/// Full per-request accounting after the run, on the virtual cycle clock.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// Request id (arrival order).
    pub id: usize,
    /// Suite id of the task served ([`ServingReport::task_names`] names
    /// it).
    pub task_id: usize,
    /// Arrival cycle.
    pub arrival_cycle: u64,
    /// Cycle the request started executing on a tile.
    pub start_cycle: u64,
    /// Cycle the request finished.
    pub finish_cycle: u64,
    /// Cycles the cost model predicted (the scheduler's view).
    pub predicted_cycles: u64,
    /// Ground-truth service cycles from the simulator.
    pub service_cycles: u64,
    /// Retries this request consumed before it was served (0 = served on
    /// its first dispatch attempt).
    pub attempts: u32,
    /// Degradation-ladder level the request was served at (0 = full
    /// service; higher levels tightened the pruning threshold to fit the
    /// deadline).
    pub degraded: u32,
}

impl RequestRecord {
    /// End-to-end latency in cycles: queueing wait plus service.
    pub fn latency_cycles(&self) -> u64 {
        self.finish_cycle - self.arrival_cycle
    }

    /// Cycles spent waiting in the admission queue.
    pub fn wait_cycles(&self) -> u64 {
        self.start_cycle - self.arrival_cycle
    }
}

/// Queue depth observed at one dispatch instant (after the dispatched
/// request left the queue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueSample {
    /// Virtual cycle of the dispatch.
    pub cycle: u64,
    /// Requests still waiting.
    pub depth: usize,
}

/// Bucket upper bounds (inclusive, in cycles) of the telemetry latency
/// histogram `serve.latency_cycles` — fixed so histograms from different
/// runs and policies are directly comparable.
pub const LATENCY_HISTOGRAM_BOUNDS: [u64; 8] = [
    1_000, 4_000, 16_000, 64_000, 256_000, 1_048_576, 4_194_304, 16_777_216,
];

/// Latency percentiles in microseconds at the tile clock.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median latency.
    pub p50_us: f64,
    /// 95th-percentile latency.
    pub p95_us: f64,
    /// 99th-percentile latency.
    pub p99_us: f64,
    /// Worst-case latency.
    pub max_us: f64,
}

/// One request the SLO admission controller refused to dispatch: at the
/// instant the policy picked it, its predicted completion already missed
/// the deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedRecord {
    /// Request id (arrival order).
    pub id: usize,
    /// Suite id of the task the request asked for
    /// ([`ServingReport::task_names`] names it).
    pub task_id: usize,
    /// Arrival cycle.
    pub arrival_cycle: u64,
    /// Virtual cycle the shed decision was made.
    pub shed_cycle: u64,
    /// Cycles the cost model predicted the request would have needed.
    pub predicted_cycles: u64,
    /// Retries the request consumed before it was shed (0 = shed at its
    /// first dispatch attempt — the only value the shed-only engine
    /// produces).
    pub attempts: u32,
}

/// Fault-tolerance accounting of one serving run, present on the report
/// only when [`ServingOptions::fault_tolerance_active`] — fault-free runs
/// carry `None` and render byte-identically to the plain engine.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSummary {
    /// Retry budget the run allowed per request.
    pub retry_max: u32,
    /// Backoff base of the deferral queue, in cycles.
    pub backoff_base_cycles: u64,
    /// Whether graceful degradation was enabled.
    pub degrade: bool,
    /// Transient per-attempt failure probability of the fault plan.
    pub fail_rate: f64,
    /// Dispatch attempts that hit a transient fault (including the final
    /// attempt of requests that went on to be shed).
    pub transient_faults: u64,
    /// Deferrals the retry queue accepted (transient-fault and
    /// SLO-predicted deferrals combined).
    pub retries: u64,
    /// Deferrals caused by a predicted SLO miss (the remainder of
    /// [`retries`](Self::retries) were transient faults).
    pub slo_deferrals: u64,
    /// Requests served at a degraded level (ladder level ≥ 1).
    pub degraded: u64,
    /// Requests shed only after exhausting their retry budget.
    pub shed_after_retries: u64,
    /// Tile-fail events that fired within the observed span.
    pub tile_fail_events: u64,
    /// Tile-recover events that fired within the observed span.
    pub tile_recover_events: u64,
    /// Fewest tiles simultaneously live at any point of the run.
    pub min_live_tiles: usize,
    /// ∫ live-tiles d(cycles) over the observed span — the numerator of
    /// [`ServingReport::tile_availability`].
    pub live_cycle_integral: u128,
}

/// Everything a serving run produces.
///
/// # Examples
///
/// ```
/// use leopard_runtime::engine::SuiteRunner;
/// use leopard_runtime::serving::{run_serving, ServingOptions};
/// use leopard_workloads::pipeline::PipelineOptions;
/// use leopard_workloads::suite::full_suite;
///
/// let suite: Vec<_> = full_suite().into_iter().take(2).collect();
/// let runner = SuiteRunner::new(1);
/// let options = ServingOptions {
///     requests: 8,
///     pipeline: PipelineOptions { max_sim_seq_len: 16, ..Default::default() },
///     ..Default::default()
/// };
/// let report = run_serving(&runner, &suite, &options);
/// // Without an SLO nothing is shed and every offered request is served.
/// assert_eq!(report.records.len(), 8);
/// assert_eq!(report.shed_rate(), 0.0);
/// let latency = report.latency();
/// assert!(latency.p50_us > 0.0 && latency.p50_us <= latency.p99_us);
/// // Goodput equals throughput when no deadline is set.
/// assert_eq!(report.goodput_rps(), report.throughput_rps());
/// ```
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// The admission policy the run used.
    pub policy: SchedulePolicy,
    /// The arrival process that generated the stream.
    pub arrivals: ArrivalProcess,
    /// Label of the request mix the stream drew from.
    pub mix_label: String,
    /// The suite's task names, indexed by task id: records carry only the
    /// id, and the reports look each name up here.
    pub task_names: Vec<String>,
    /// SLO deadline the admission controller enforced, if any.
    pub slo_cycles: Option<u64>,
    /// Virtual tiles requests were dispatched onto.
    pub servers: usize,
    /// Worker threads the execution phase ran on (does not affect any
    /// cycle-accounted field).
    pub threads: usize,
    /// Tiles each request's heads were partitioned across (the per-request
    /// tile schedule; 1 is the single-tile legacy model).
    pub tiles: usize,
    /// Head→tile placement policy of the per-request layer schedule.
    /// Placement only moves the layer makespan (and with it start/finish
    /// cycles); per-request service accounting is policy-independent.
    pub placement: Placement,
    /// Tile clock, for converting cycles to time.
    pub frequency_mhz: u32,
    /// Per-request accounting of the *admitted* requests, in request-id
    /// (arrival) order.
    pub records: Vec<RequestRecord>,
    /// Requests the SLO controller shed, in decision order.
    pub shed: Vec<ShedRecord>,
    /// Queue depth over virtual time, one sample per dispatch.
    pub queue_samples: Vec<QueueSample>,
    /// Cycles each tile was reserved by dispatched requests, indexed by
    /// tile. A request's gang reserves `min(tiles, servers)` tiles for its
    /// whole layer makespan, so with multi-tile requests the total exceeds
    /// the summed service cycles by exactly the gang size.
    pub tile_busy_cycles: Vec<u64>,
    /// ∫ queue-depth d(cycles) over the replay — the numerator of
    /// [`time_weighted_mean_queue_depth`](Self::time_weighted_mean_queue_depth).
    pub depth_cycle_integral: u128,
    /// Virtual cycles from 0 to the last replay event (the makespan, or
    /// the final shed/admission instant when nothing was served).
    pub observed_cycles: u64,
    /// Real wall-clock time of the run (execution + replay).
    pub wall: Duration,
    /// Workload-cache counters after the run.
    pub cache: CacheStats,
    /// Metrics snapshot, present when the runner's telemetry layer is
    /// enabled. Observe-only: never rendered into the pinned JSON/CSV
    /// report output; `--metrics` writes it to its own file.
    pub metrics: Option<MetricsSnapshot>,
    /// Fault-tolerance accounting, present only when the run engaged any
    /// fault-tolerance machinery ([`ServingOptions::fault_tolerance_active`]).
    pub fault_summary: Option<FaultSummary>,
}

impl ServingReport {
    /// Nearest-rank latency percentiles over all requests. All zeros when
    /// the run served no requests.
    pub fn latency(&self) -> LatencySummary {
        if self.records.is_empty() {
            return LatencySummary::default();
        }
        let mut latencies: Vec<u64> = self.records.iter().map(|r| r.latency_cycles()).collect();
        let us = |cycles: u64| cycles as f64 / f64::from(self.frequency_mhz);
        // Selects each rank instead of sorting the whole set: the value at
        // a rank is the one a sort would put there.
        let mut rank = |p: f64| {
            let n = latencies.len();
            let idx = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
            *latencies.select_nth_unstable(idx).1
        };
        LatencySummary {
            p50_us: us(rank(50.0)),
            p95_us: us(rank(95.0)),
            p99_us: us(rank(99.0)),
            max_us: us(rank(100.0)),
        }
    }

    /// Virtual cycle at which the last request finished.
    pub fn makespan_cycles(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.finish_cycle)
            .max()
            .unwrap_or(0)
    }

    /// Served throughput in requests per second of virtual time.
    pub fn throughput_rps(&self) -> f64 {
        let makespan = self.makespan_cycles();
        if makespan == 0 {
            return 0.0;
        }
        let seconds = makespan as f64 / (f64::from(self.frequency_mhz) * 1e6);
        self.records.len() as f64 / seconds
    }

    /// Deepest the admission queue ever got (at a dispatch instant).
    pub fn max_queue_depth(&self) -> usize {
        self.queue_samples
            .iter()
            .map(|s| s.depth)
            .max()
            .unwrap_or(0)
    }

    /// Mean queue depth over dispatch instants. Weights every dispatch
    /// equally regardless of how long the queue sat at that depth — see
    /// [`time_weighted_mean_queue_depth`](Self::time_weighted_mean_queue_depth)
    /// for the duration-weighted view.
    pub fn mean_queue_depth(&self) -> f64 {
        if self.queue_samples.is_empty() {
            return 0.0;
        }
        self.queue_samples.iter().map(|s| s.depth).sum::<usize>() as f64
            / self.queue_samples.len() as f64
    }

    /// Time-weighted mean queue depth: ∫ depth d(cycles) over the observed
    /// span, divided by that span. Unlike the per-dispatch mean this
    /// weighs a deep queue that *stays* deep accordingly, so it is the
    /// number to compare against queueing-theory expectations. Zero when
    /// the replay observed no cycles.
    pub fn time_weighted_mean_queue_depth(&self) -> f64 {
        if self.observed_cycles == 0 {
            return 0.0;
        }
        self.depth_cycle_integral as f64 / self.observed_cycles as f64
    }

    /// Per-tile utilization: the fraction of the makespan each tile spent
    /// executing requests, in tile order. Empty when nothing was served.
    pub fn tile_utilization(&self) -> Vec<f64> {
        let makespan = self.makespan_cycles();
        if makespan == 0 {
            return vec![0.0; self.tile_busy_cycles.len()];
        }
        self.tile_busy_cycles
            .iter()
            .map(|&busy| busy as f64 / makespan as f64)
            .collect()
    }

    /// Mean of [`tile_utilization`](Self::tile_utilization) (0 with no
    /// tiles).
    pub fn mean_tile_utilization(&self) -> f64 {
        let utilization = self.tile_utilization();
        if utilization.is_empty() {
            return 0.0;
        }
        utilization.iter().sum::<f64>() / utilization.len() as f64
    }

    /// Load fragmentation across tiles: `1 - mean(busy) / peak(busy)`.
    /// Zero when every tile carries the same load (or nothing ran at
    /// all); approaches 1 when a single tile does all the work.
    pub fn tile_fragmentation(&self) -> f64 {
        let peak = self.tile_busy_cycles.iter().copied().max().unwrap_or(0);
        if peak == 0 {
            return 0.0;
        }
        let mean =
            self.tile_busy_cycles.iter().sum::<u64>() as f64 / self.tile_busy_cycles.len() as f64;
        1.0 - mean / peak as f64
    }

    /// Requests the stream offered: admitted plus shed.
    pub fn offered(&self) -> usize {
        self.records.len() + self.shed.len()
    }

    /// Fraction of offered requests the SLO controller shed. Zero when no
    /// SLO was set or nothing was offered.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.shed.len() as f64 / offered as f64
        }
    }

    /// Admitted requests that actually finished within the SLO deadline
    /// (all of them when no deadline was set).
    pub fn slo_met(&self) -> usize {
        match self.slo_cycles {
            None => self.records.len(),
            Some(slo) => self
                .records
                .iter()
                .filter(|r| r.latency_cycles() <= slo)
                .count(),
        }
    }

    /// Goodput in requests per second of virtual time: only requests that
    /// finished within the deadline count. Equals
    /// [`throughput_rps`](Self::throughput_rps) when no SLO is set.
    pub fn goodput_rps(&self) -> f64 {
        let makespan = self.makespan_cycles();
        if makespan == 0 {
            return 0.0;
        }
        let seconds = makespan as f64 / (f64::from(self.frequency_mhz) * 1e6);
        self.slo_met() as f64 / seconds
    }

    /// Time-weighted fraction of the tile array that was live over the
    /// observed span: ∫ live-tiles d(cycles) / (servers · observed
    /// cycles). Exactly 1.0 for a run without fault tolerance (or with no
    /// tile events), and 1.0 by convention when nothing was observed.
    pub fn tile_availability(&self) -> f64 {
        let Some(summary) = &self.fault_summary else {
            return 1.0;
        };
        if self.observed_cycles == 0 || self.servers == 0 {
            return 1.0;
        }
        let span = u128::from(self.observed_cycles) * self.servers as u128;
        summary.live_cycle_integral as f64 / span as f64
    }
}

/// Draws one exponential gap with the given mean via inverse CDF; `1 - u`
/// keeps the argument in `(0, 1]` so `ln` never sees zero.
fn exponential_gap(r: &mut StdRng, mean_cycles: f64) -> f64 {
    let u: f64 = r.gen();
    -mean_cycles * (1.0 - u).ln()
}

/// Stateful gap generator for one arrival process. All randomness comes
/// from the single seeded stream `r`, in a fixed draw order, so the
/// generated arrivals are a pure function of the serving options.
struct GapGenerator {
    arrivals: ArrivalProcess,
    /// Mean inter-arrival gap at the offered rate, in cycles.
    mean_gap: f64,
    /// Bursty: requests left in the current burst.
    burst_remaining: u64,
    /// Diurnal: one full period, in cycles.
    diurnal_period: f64,
}

impl GapGenerator {
    fn new(options: &ServingOptions, mean_gap: f64) -> Self {
        Self {
            arrivals: options.arrivals,
            mean_gap,
            burst_remaining: 0,
            // Compress DIURNAL_PERIODS "days" onto the expected stream
            // duration so every run sees full peaks and troughs.
            diurnal_period: (options.requests.max(1) as f64 * mean_gap / DIURNAL_PERIODS).max(1.0),
        }
    }

    /// The next inter-arrival gap, given the current arrival clock.
    fn next_gap(&mut self, r: &mut StdRng, now: f64) -> f64 {
        match self.arrivals {
            ArrivalProcess::Steady => exponential_gap(r, self.mean_gap),
            ArrivalProcess::Bursty => {
                if self.burst_remaining == 0 {
                    // New burst: geometric length (mean BURST_MEAN_LEN) and
                    // an idle gap sized so the long-run rate is preserved:
                    // a burst of mean length L at factor F covers L·m/F
                    // cycles, so the idle gap supplies the missing
                    // L·m·(1 - 1/F).
                    let u: f64 = r.gen();
                    let p = 1.0 / BURST_MEAN_LEN;
                    self.burst_remaining = ((1.0 - u).ln() / (1.0 - p).ln()).ceil().max(1.0) as u64;
                    let idle_mean =
                        self.mean_gap * BURST_MEAN_LEN * (1.0 - 1.0 / BURST_RATE_FACTOR);
                    self.burst_remaining -= 1;
                    exponential_gap(r, idle_mean)
                } else {
                    self.burst_remaining -= 1;
                    exponential_gap(r, self.mean_gap / BURST_RATE_FACTOR)
                }
            }
            ArrivalProcess::Diurnal => {
                // Thinning (Lewis–Shedler): candidates at the peak rate,
                // accepted with probability rate(t)/peak. Bounded work per
                // accepted arrival in expectation (1 + amplitude tries).
                let peak_gap = self.mean_gap / (1.0 + DIURNAL_AMPLITUDE);
                let mut t = now;
                loop {
                    t += exponential_gap(r, peak_gap);
                    let phase = 2.0 * std::f64::consts::PI * t / self.diurnal_period;
                    let relative_rate =
                        (1.0 + DIURNAL_AMPLITUDE * phase.sin()) / (1.0 + DIURNAL_AMPLITUDE);
                    let u: f64 = r.gen();
                    if u < relative_rate {
                        return t - now;
                    }
                }
            }
        }
    }
}

/// Generates the deterministic request stream: seeded task draws from the
/// [`RequestMix`] and seeded inter-arrival gaps from the
/// [`ArrivalProcess`], both at the offered rate on the virtual cycle
/// clock. Pure function of `(suite, options)` — the suite's family
/// composition enters through the mix weights — with no wall-clock
/// randomness.
///
/// # Panics
///
/// Panics if `suite` is empty, the rate is not positive and finite or is
/// so small that the mean inter-arrival gap overflows, or the mix matches
/// no task in `suite`.
pub fn generate_requests(suite: &[TaskDescriptor], options: &ServingOptions) -> Vec<Request> {
    assert!(!suite.is_empty(), "serving needs at least one task to draw");
    assert!(
        options.rate_rps > 0.0 && options.rate_rps.is_finite(),
        "arrival rate must be positive and finite"
    );
    let mean_gap_check = f64::from(options.config.frequency_mhz) * 1e6 / options.rate_rps;
    assert!(
        mean_gap_check.is_finite(),
        "offered rate {} req/s is too small for the {} MHz clock: the mean \
         inter-arrival gap overflows to infinity and the stream degenerates",
        options.rate_rps,
        options.config.frequency_mhz
    );
    let weights = options.mix.task_weights(suite);
    let total_weight: f64 = weights.iter().sum();
    // Float-rounding fallback: a draw that walks off the CDF must land on a
    // task with positive weight, never on a zero-weight tail entry.
    #[expect(
        clippy::expect_used,
        reason = "task_weights normalizes to a distribution with at least one positive entry by construction"
    )]
    let last_positive = weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("task_weights guarantees a positive weight");
    let mut r = rng::seeded(options.seed);
    let mean_gap_cycles = f64::from(options.config.frequency_mhz) * 1e6 / options.rate_rps;
    let mut gaps = GapGenerator::new(options, mean_gap_cycles);
    let mut arrival = 0.0f64;
    (0..options.requests)
        .map(|id| {
            // Weighted task draw: invert the CDF of the per-task weights.
            let u: f64 = r.gen();
            let mut remaining = u * total_weight;
            let mut task_index = last_positive;
            for (index, &w) in weights.iter().enumerate() {
                if remaining < w {
                    task_index = index;
                    break;
                }
                remaining -= w;
            }
            arrival += gaps.next_gap(&mut r, arrival);
            Request {
                id,
                task_index,
                arrival_cycle: arrival.round() as u64,
            }
        })
        .collect()
}

/// The tile array during the replay: when each tile next frees up, which
/// tiles are down, the live tiles in gang order, and the availability
/// integral — all advanced deterministically by dispatches and the fault
/// plan's (sorted) tile events.
///
/// Gang selection is incremental. `order` holds exactly the live tiles,
/// kept sorted by `(free_at, tile)`, so the cheapest gang of `take` tiles
/// is always its prefix `order[..take]` (ties toward the lower tile index,
/// so the replay is deterministic) and the gang is whole once its last
/// member frees up. A dispatch re-inserts the `take` gang tiles at their
/// new finish time and a fail/recover removes or inserts one tile, so no
/// step of the replay sorts the tile array. With every tile live and
/// `take == 1` the gang is exactly "the first tile to free up" of the
/// legacy one-request-per-server model; with failed tiles it is the
/// topology-aware replan — the cheapest subset of the live set — so
/// placement follows fail/recover events with no extra mechanism.
struct LiveTiles {
    /// Cycle each tile next frees up, down tiles included: a failing tile
    /// drains its in-flight gang, and the in-flight count reads this.
    free_at: Vec<u64>,
    /// Tiles currently drained out of the live set.
    down: Vec<bool>,
    /// The live tiles sorted by `(free_at, tile)`; `order.len()` is the
    /// live tile count.
    order: Vec<usize>,
    /// Fewest tiles ever simultaneously live.
    min_live: usize,
    /// ∫ live-tiles d(cycles), charged piecewise at every liveness change
    /// and settled to the observed span at the end of the run.
    integral: u128,
    /// Cycle up to which the integral is charged.
    last_cycle: u64,
    /// Fail events applied (idempotent: a fail on a down tile is a no-op).
    fail_events: u64,
    /// Recover events applied (idempotent likewise).
    recover_events: u64,
}

impl LiveTiles {
    fn new(servers: usize) -> Self {
        Self {
            free_at: vec![0; servers],
            down: vec![false; servers],
            order: (0..servers).collect(),
            min_live: servers,
            integral: 0,
            last_cycle: 0,
            fail_events: 0,
            recover_events: 0,
        }
    }

    /// Live tile count.
    fn live(&self) -> usize {
        self.order.len()
    }

    /// The cheapest gang of `take` live tiles by `(free_at, tile)` and the
    /// instant the whole gang is free (its last member's free time).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= take <= self.live()` (the replay clamps `take`
    /// to the live count and only asks while a tile is live).
    fn gang(&self, take: usize) -> (&[usize], u64) {
        let gang = &self.order[..take];
        (gang, self.free_at[gang[take - 1]])
    }

    /// Occupies the gang `order[..take]` until `finish` and moves it, as
    /// one block, to its place in the gang order: its tiles share the key's
    /// free time, so one search places them all.
    fn dispatch(&mut self, take: usize, finish: u64) {
        for &tile in &self.order[..take] {
            self.free_at[tile] = finish;
        }
        // Every tile that frees up before `finish` moves ahead of the gang.
        let ahead = self.order[take..].partition_point(|&t| self.free_at[t] < finish);
        self.order[..take + ahead].rotate_left(take);
        // The gang and the tiles that also free up at `finish` order by tile.
        let ties = self.order[take + ahead..].partition_point(|&t| self.free_at[t] == finish);
        self.order[ahead..take + ahead + ties].sort_unstable();
    }

    /// Where `tile` belongs by `(free_at, tile)` in the sorted `order`.
    fn slot(&self, tile: usize) -> usize {
        let key = (self.free_at[tile], tile);
        self.order
            .partition_point(|&other| (self.free_at[other], other) < key)
    }

    /// Fails or recovers one tile, idempotently: a fail on a down tile and
    /// a recover on a live one are no-ops. Returns whether the live set
    /// changed.
    fn apply(&mut self, event: &TileFaultEvent) -> bool {
        let (tile, fail) = (event.tile, event.kind == TileFaultKind::Fail);
        if self.down[tile] == fail {
            return false;
        }
        self.down[tile] = fail;
        let at = self.slot(tile);
        if fail {
            self.order.remove(at);
            self.fail_events += 1;
        } else {
            self.order.insert(at, tile);
            self.recover_events += 1;
        }
        true
    }

    /// Applies every event at or before `clock`, charging the availability
    /// integral piecewise at each event's own cycle. `next_event` is the
    /// caller's cursor into the sorted event list.
    fn apply_until(
        &mut self,
        clock: u64,
        events: &[TileFaultEvent],
        next_event: &mut usize,
        tape: &mut ReplayTape,
    ) {
        while let Some(event) = events.get(*next_event).filter(|e| e.cycle <= clock) {
            *next_event += 1;
            self.charge(event.cycle);
            let applied = self.apply(event);
            self.min_live = self.min_live.min(self.live());
            if applied {
                let recovered = event.kind == TileFaultKind::Recover;
                let live = self.live();
                tape.push(ReplayEvent::Tile(recovered, event.tile, event.cycle, live));
            }
        }
    }

    /// Charges the availability integral up to `cycle` at the current live
    /// count (no-op when `cycle` is not ahead of the charged point).
    fn charge(&mut self, cycle: u64) {
        if cycle > self.last_cycle {
            self.integral += u128::from(cycle - self.last_cycle) * self.live() as u128;
            self.last_cycle = cycle;
        }
    }
}

/// The suite's task names indexed by task id (`TaskDescriptor::id`, unique
/// within a suite); an id no task has maps to an empty name.
fn names_by_id(suite: &[TaskDescriptor]) -> Vec<String> {
    let len = suite.iter().map(|task| task.id.saturating_add(1)).max();
    let mut names = vec![String::new(); len.unwrap_or(0)];
    for task in suite {
        names[task.id].clone_from(&task.name);
    }
    names
}

/// What a request for one task costs on a plan of one width: the
/// simulated layer makespan (ground truth), the cost model's predicted
/// makespan (all the scheduler and the SLO controller ever see), and the
/// predicted makespan at each step of the degradation ladder (zeros
/// unless [`ServingOptions::degrade`] is on).
struct Price {
    service: u64,
    predicted: u64,
    degraded: [u64; DEGRADE_LEVELS as usize],
}

/// The replay's one writer. Each decision — dispatch, retry, shed — is one
/// method that writes the decision's report row, its counters and its
/// [`ReplayEvent`] together.
struct Ledger<'a> {
    requests: &'a [Request],
    suite: &'a [TaskDescriptor],
    plan: &'a FaultPlan,
    options: &'a ServingOptions,
    /// Retries each request has consumed so far, by request id.
    attempts: Vec<u32>,
    /// Admitted requests by id; a shed request's slot keeps a blank
    /// record, dropped at the end of the run.
    records: Vec<RequestRecord>,
    shed: Vec<ShedRecord>,
    queue_samples: Vec<QueueSample>,
    tile_busy_cycles: Vec<u64>,
    transient_faults: u64,
    slo_deferrals: u64,
    degraded: u64,
    tape: ReplayTape,
}

impl Ledger<'_> {
    /// Drops `job` undispatched at `clock`.
    fn shed(&mut self, cause: ShedCause, job: PredictedJob, clock: u64) {
        let request = self.requests[job.index];
        self.shed.push(ShedRecord {
            id: request.id,
            task_id: self.suite[request.task_index].id,
            arrival_cycle: request.arrival_cycle,
            shed_cycle: clock,
            predicted_cycles: job.predicted_cycles,
            attempts: self.attempts[job.index],
        });
        let (id, task, predicted) = (request.id, request.task_index, job.predicted_cycles);
        self.tape
            .push(ReplayEvent::Shed(cause, id, task, clock, predicted));
    }

    /// A dispatch attempt of `job` at `clock` failed: `cause` is
    /// [`ShedCause::TransientFault`] (the fault is counted and traced here)
    /// or [`ShedCause::PredictedSloMiss`]. While its retry budget lasts the
    /// job is deferred with seeded backoff; then it is shed, a predicted
    /// miss after a retry as [`ShedCause::RetriesExhausted`].
    fn retry_or_shed(
        &mut self,
        job: PredictedJob,
        clock: u64,
        cause: ShedCause,
        deferred: &mut DeferralQueue,
    ) {
        let attempt = self.attempts[job.index];
        let transient = cause == ShedCause::TransientFault;
        if transient {
            self.transient_faults += 1;
            self.tape
                .push(ReplayEvent::Transient(job.index, clock, attempt));
        }
        if attempt >= self.options.retry_max {
            let exhausted = !transient && attempt > 0;
            let cause = if exhausted {
                ShedCause::RetriesExhausted
            } else {
                cause
            };
            self.shed(cause, job, clock);
            return;
        }
        self.attempts[job.index] = attempt + 1;
        self.slo_deferrals += u64::from(!transient);
        let base = self.options.backoff_base_cycles;
        let delay = self.plan.backoff_cycles(base, job.index, attempt);
        let task = self.requests[job.index].task_index;
        let retry = ReplayEvent::Retry(job.index, task, clock, delay, attempt + 1);
        self.tape.push(retry);
        deferred.defer(job, clock.saturating_add(delay));
    }

    /// Starts `job` at `clock` on `gang` for `service` cycles at ladder
    /// `level`, leaving `depth` requests waiting.
    fn dispatch(
        &mut self,
        job: PredictedJob,
        clock: u64,
        service: u64,
        gang: &[usize],
        level: u32,
        depth: usize,
    ) {
        let request = self.requests[job.index];
        for &tile in gang {
            self.tile_busy_cycles[tile] += service;
        }
        // The trace shows the gang on its lead tile's lane (first by
        // `(free_at, index)`) — at one tile per request this is exactly
        // the dispatched tile of the legacy model.
        let (id, task, lead) = (request.id, request.task_index, gang[0]);
        let wait = clock - request.arrival_cycle;
        let predicted = job.predicted_cycles;
        self.tape.push(ReplayEvent::Dispatch(
            id, task, lead, clock, service, wait, predicted,
        ));
        if level > 0 {
            self.degraded += 1;
            self.tape
                .push(ReplayEvent::Degrade(id, task, lead, clock, level));
        }
        self.queue_samples.push(QueueSample {
            cycle: clock,
            depth,
        });
        self.records[job.index] = RequestRecord {
            id,
            task_id: self.suite[task].id,
            arrival_cycle: request.arrival_cycle,
            start_cycle: clock,
            finish_cycle: clock + service,
            predicted_cycles: predicted,
            service_cycles: service,
            attempts: self.attempts[job.index],
            degraded: level,
        };
    }
}

/// Runs a serving workload on the runner's pool and cache and returns the
/// full cycle-accounted report. See the module docs for the two-phase
/// design; the short version is that `runner.threads()` changes only
/// [`ServingReport::wall`].
///
/// # Panics
///
/// Panics if `options.servers` is zero, `options.slo_headroom` is not a
/// positive finite number, the retry budget is above [`MAX_RETRY_BUDGET`],
/// the retry backoff base is outside `1..=`[`MAX_BACKOFF_BASE_CYCLES`]
/// while retries are enabled, the fault plan fails validation against
/// `options.servers` (out-of-range tiles, sub-100% slow multipliers, a
/// fail rate outside `[0, 1]`), or [`generate_requests`] panics: `suite` is empty, the rate
/// is not positive and finite or is too small for the clock, or the mix
/// matches no task in `suite`.
pub fn run_serving(
    runner: &SuiteRunner,
    suite: &[TaskDescriptor],
    options: &ServingOptions,
) -> ServingReport {
    assert!(options.servers > 0, "serving needs at least one tile");
    assert!(
        options.slo_headroom.is_finite() && options.slo_headroom > 0.0,
        "SLO headroom must be a positive finite factor, got {}",
        options.slo_headroom
    );
    assert!(
        options.retry_max <= MAX_RETRY_BUDGET,
        "retry budget {} is above {MAX_RETRY_BUDGET}",
        options.retry_max
    );
    assert!(
        options.retry_max == 0
            || (1..=MAX_BACKOFF_BASE_CYCLES).contains(&options.backoff_base_cycles),
        "retry backoff base must be 1..={MAX_BACKOFF_BASE_CYCLES} cycles, got {}",
        options.backoff_base_cycles
    );
    let fault_plan = match &options.faults {
        #[expect(
            clippy::expect_used,
            reason = "documented panic contract: the CLI validates plans at parse time, so a library caller reaching this handed over an invalid plan"
        )]
        Some(plan) => plan
            .clone()
            .validated(options.servers)
            .expect("fault plan failed validation"),
        None => FaultPlan::default(),
    };
    let ft_active = options.fault_tolerance_active();
    #[expect(
        clippy::disallowed_methods,
        reason = "wall-seconds run footer only; the serving clock and every latency figure are virtual cycles"
    )]
    let start = Instant::now();
    let requests = generate_requests(suite, options);

    // --- Phase 1: execute. Ground-truth service cycles per *distinct*
    // (plan width, task) pair — requests repeating a task share the
    // result — in parallel on the pool (see `measure_layer_makespans`).
    // Service time is the **layer makespan** of the task's placement plan
    // at the width its gang actually spans. A fault-free run has exactly
    // one width (the configured tile count); tile fail/recover events add
    // the reduced widths the live set can shrink to while
    // capacity-constrained, pre-simulated here so the replay stays a pure
    // lookup.
    let mut drawn = vec![false; suite.len()];
    for request in &requests {
        drawn[request.task_index] = true;
    }
    let used: Vec<usize> = (0..suite.len()).filter(|&i| drawn[i]).collect();
    // Each drawn task's position in `used`, read by every price lookup.
    let mut rank = vec![0; suite.len()];
    for (pos, &task) in used.iter().enumerate() {
        rank[task] = pos;
    }
    let tiles = options.pipeline.tiles.max(1);
    let gang_size = tiles.min(options.servers);
    // Walk the event timeline once on a probe tile array to enumerate
    // every live count the run can see; widths below the gang size
    // constrain capacity and need their own ground truth.
    let mut widths: Vec<usize> = vec![tiles];
    let mut probe = LiveTiles::new(options.servers);
    for event in &fault_plan.tile_events {
        probe.apply(event);
        if (1..gang_size).contains(&probe.live()) {
            widths.push(probe.live());
        }
    }
    widths.sort_unstable();
    widths.dedup();
    let tasks: Vec<TaskDescriptor> = used.iter().map(|&i| suite[i].clone()).collect();
    let pairs = || {
        widths
            .iter()
            .flat_map(|&width| tasks.iter().map(move |task| (width, task)))
    };
    let (pipeline, config) = (&options.pipeline, &options.config);
    let jobs = pairs().map(|(width, task)| (width, task.clone())).collect();
    let service = measure_layer_makespans(runner, jobs, pipeline, config);
    // Predictions come from the same layer plan as the service cycles (its
    // predicted makespan — the quantity placement optimized), so the
    // scheduler's view shrinks with the tile count just as service does.
    // The degradation ladder is plan-only (no simulation): the predicted
    // makespan at each tightened pruning rate.
    let prices: Vec<Price> = pairs()
        .zip(service)
        .map(|((width, task), service)| {
            let predict = |rate: f64| {
                plan_task_layer(task, pipeline, config, width, rate).predicted_makespan_cycles()
            };
            let rate = task.paper_pruning_rate as f64;
            Price {
                service,
                predicted: predict(rate),
                degraded: std::array::from_fn(|step| {
                    if options.degrade {
                        predict(degraded_pruning_rate(rate, step as u32 + 1))
                    } else {
                        0
                    }
                }),
            }
        })
        .collect();
    let price = |width: usize, task_index: usize| -> &Price {
        #[expect(
            clippy::expect_used,
            reason = "`widths` enumerates every live count the event timeline can produce, so the replay cannot ask for an unmeasured width"
        )]
        let width_pos = widths
            .binary_search(&width)
            .expect("plan width was measured");
        &prices[width_pos * used.len() + rank[task_index]]
    };

    // --- Phase 2: replay the arrival process in virtual time.
    let telemetry = runner.telemetry().cloned();
    let mut ledger = Ledger {
        requests: &requests,
        suite,
        plan: &fault_plan,
        options,
        attempts: vec![0; requests.len()],
        records: vec![BLANK_RECORD; requests.len()],
        shed: Vec::new(),
        queue_samples: Vec::with_capacity(requests.len()),
        tile_busy_cycles: vec![0; options.servers],
        transient_faults: 0,
        slo_deferrals: 0,
        degraded: 0,
        tape: ReplayTape::new(telemetry.is_some(), suite, options.servers),
    };
    let mut ready = ReadyQueue::new(options.policy);
    let mut deferred = DeferralQueue::new();
    let mut live_tiles = LiveTiles::new(options.servers);
    let mut next_event = 0usize;
    let mut next_arrival = 0usize;
    // Observability state, all on the virtual clock (deterministic). The
    // depth integral advances lazily: before every queue mutation, the
    // depth that held since `depth_last_cycle` is charged for the elapsed
    // cycles.
    let mut depth_cycle_integral: u128 = 0;
    let mut depth_last_cycle = 0u64;

    // Event loop on a monotone virtual clock. At each clock value: dispatch
    // ready requests onto every free tile **gang** — a request's layer
    // schedule spans `min(tiles, servers)` tiles, so dispatch claims the
    // gang-size cheapest live tiles by `(free_at, index)` (ties toward the
    // lower tile index, so the replay is deterministic) and occupies all of
    // them for the layer makespan. The gang and its ready time are the
    // prefix of the `LiveTiles` index, read in O(1); a dispatch re-inserts
    // just the gang's tiles. At one tile per request this reduces exactly
    // to the legacy one-request-per-server model. The clock then advances
    // to the next event — the earlier of the next arrival and the next
    // gang-free instant (the same index prefix). Arrivals are always
    // admitted before a later dispatch is decided, so the policy sees
    // exactly the requests that have arrived by dispatch time, never more.
    // With an SLO set, a picked request whose *predicted* completion
    // (`clock + headroom-padded prediction`) already misses its deadline
    // (`arrival + slo`) is shed instead of dispatched — the controller sees
    // only cost-model predictions (padded by SLO_PREDICTION_HEADROOM
    // against residual model error), never ground truth. Every decision
    // is written once, by the ledger.
    let events = &fault_plan.tile_events;
    let mut clock = 0u64;
    loop {
        // Fault events and due retries settle before any dispatch at this
        // instant: liveness changes at cycle C are visible to dispatches
        // at C, and a request whose backoff expires at C re-enters the
        // policy queue at C.
        live_tiles.apply_until(clock, events, &mut next_event, &mut ledger.tape);
        while let Some(job) = deferred.pop_ready(clock) {
            ready.push(job);
        }
        while !ready.is_empty() && live_tiles.live() > 0 {
            let take = gang_size.min(live_tiles.live());
            if live_tiles.gang(take).1 > clock {
                break;
            }
            depth_cycle_integral += u128::from(clock - depth_last_cycle) * ready.len() as u128;
            depth_last_cycle = clock;
            #[expect(
                clippy::expect_used,
                reason = "the dispatch loop only reaches this pop after checking the ready queue is non-empty"
            )]
            let job = ready.pop().expect("queue checked non-empty");

            // Transient dispatch fault? Decided by the counter-addressed
            // seeded stream — a pure function of (request, attempt), so
            // retry reordering never perturbs the pattern.
            if fault_plan.transient_fails(job.index, ledger.attempts[job.index]) {
                ledger.retry_or_shed(job, clock, ShedCause::TransientFault, &mut deferred);
                continue;
            }
            // The plan width the gang spans: full-capacity plans use the
            // configured tile count; below it, the whole live set.
            let width = if live_tiles.live() >= gang_size {
                tiles
            } else {
                live_tiles.live()
            };
            let request = requests[job.index];
            let price = price(width, request.task_index);
            // SLO admission: shed-only runs keep the original semantics;
            // with fault tolerance, a predicted miss first tries the
            // degradation ladder, then a deferral, and sheds only with
            // the retry budget exhausted.
            let mut level = 0u32;
            if let Some(slo) = options.slo_cycles {
                // Both sides saturate: `--slo-cycles` reaches u64::MAX and
                // the f64→u64 cast of a huge headroom saturates too.
                let deadline = request.arrival_cycle.saturating_add(slo);
                let fits = |predicted: u64| {
                    let padded = (predicted as f64 * options.slo_headroom) as u64;
                    clock.saturating_add(padded) <= deadline
                };
                if !fits(price.predicted) {
                    let ladder: &[u64] = if options.degrade {
                        &price.degraded
                    } else {
                        &[]
                    };
                    let Some(step) = ladder.iter().position(|&cheap| fits(cheap)) else {
                        let cause = ShedCause::PredictedSloMiss;
                        ledger.retry_or_shed(job, clock, cause, &mut deferred);
                        continue;
                    };
                    level = step as u32 + 1;
                }
            }
            let mut service = match level {
                0 => price.service,
                // Degraded ground truth: the base makespan scaled by the
                // cost model's own degraded/full prediction ratio —
                // integer arithmetic, so deterministic across platforms.
                _ => {
                    let cheap = u128::from(price.degraded[level as usize - 1]);
                    let full = u128::from(price.predicted.max(1));
                    (u128::from(price.service) * cheap / full).max(1) as u64
                }
            };
            // A gang advances at its slowest member's pace: the worst slow
            // multiplier across the gang stretches the service (ceiling
            // division keeps it integer cycles).
            let gang = live_tiles.gang(take).0;
            let slow_pct = gang
                .iter()
                .map(|&tile| fault_plan.slow_pct(tile))
                .max()
                .unwrap_or(100);
            if slow_pct > 100 {
                service = (u128::from(service) * u128::from(slow_pct)).div_ceil(100) as u64;
            }
            ledger.dispatch(job, clock, service, gang, level, ready.len());
            live_tiles.dispatch(take, clock + service);
        }
        // The settled instant (each clock value settles exactly once: the
        // clock strictly advances per outer iteration). The tape keeps a
        // counter sample only where its own series changed; an untraced
        // replay never counts the busy tiles.
        let free_at = &live_tiles.free_at;
        let in_flight = || free_at.iter().filter(|&&free| free > clock).count();
        let tape = &mut ledger.tape;
        tape.sample(clock, Series::InFlight, in_flight);
        tape.sample(clock, Series::QueueDepth, || ready.len());
        // Advance to the next event: the earliest of the next arrival, the
        // next whole-gang-free instant (only meaningful with queued work
        // and live tiles), the next due retry, and the next tile fault
        // event (only while work remains to be affected by it).
        let arrival = requests.get(next_arrival).map(|r| r.arrival_cycle);
        let gang_free = (!ready.is_empty() && live_tiles.live() > 0)
            .then(|| live_tiles.gang(gang_size.min(live_tiles.live())).1);
        let work_remains = arrival.is_some() || !ready.is_empty() || !deferred.is_empty();
        let tile_event = events.get(next_event).filter(|_| work_remains);
        let tile_event = tile_event.map(|event| event.cycle);
        let next_clock = [arrival, gang_free, deferred.next_ready_cycle(), tile_event];
        let Some(target) = next_clock.into_iter().flatten().min() else {
            // Permanent outage (or the end of the run, where both queues
            // are empty): every live tile is down with no recovery ahead,
            // arrivals are exhausted, and no retry can ever dispatch. Shed
            // the stranded requests deterministically — ready queue in
            // policy order, then deferrals in (ready cycle, arrival) order.
            while let Some(job) = ready.pop() {
                ledger.shed(ShedCause::NoLiveTiles, job, clock);
            }
            while let Some(job) = deferred.pop_ready(u64::MAX) {
                ledger.shed(ShedCause::NoLiveTiles, job, clock);
            }
            break;
        };
        clock = clock.max(target);
        depth_cycle_integral += u128::from(clock - depth_last_cycle) * ready.len() as u128;
        depth_last_cycle = clock;
        // Requests are priced at arrival, at the configured width.
        while let Some(request) = requests
            .get(next_arrival)
            .filter(|r| r.arrival_cycle <= clock)
        {
            ready.push(PredictedJob {
                index: request.id,
                predicted_cycles: price(tiles, request.task_index).predicted,
            });
            next_arrival += 1;
        }
    }

    // Drop the shed requests' blank slots in place; admitted records keep
    // arrival order.
    let mut shed = vec![false; requests.len()];
    for s in &ledger.shed {
        shed[s.id] = true;
    }
    let mut records = ledger.records;
    let mut slots = shed.into_iter();
    records.retain(|_| slots.next() == Some(false));
    let observed_cycles = records
        .iter()
        .map(|r| r.finish_cycle)
        .max()
        .unwrap_or(0)
        .max(clock);
    // Settle the availability integral to the end of the observed span,
    // applying any tile events that fire while the last requests drain.
    live_tiles.apply_until(observed_cycles, events, &mut next_event, &mut ledger.tape);
    live_tiles.charge(observed_cycles);

    if let Some(t) = &telemetry {
        t.record_replay(ledger.tape);
        let metrics = t.metrics();
        metrics.incr(
            "serve.requests.offered",
            (records.len() + ledger.shed.len()) as u64,
        );
        metrics.incr("serve.requests.admitted", records.len() as u64);
        metrics.incr("serve.requests.shed", ledger.shed.len() as u64);
        metrics.set_gauge("serve.queue.peak", ready.peak_len() as f64);
        metrics.set_gauge("serve.queue.pushes", ready.pushes() as f64);
        for (tile, &busy) in ledger.tile_busy_cycles.iter().enumerate() {
            metrics.set_gauge(&format!("serve.tile{tile:02}.busy_cycles"), busy as f64);
        }
        metrics.observe_all(
            "serve.latency_cycles",
            &LATENCY_HISTOGRAM_BOUNDS,
            records.iter().map(RequestRecord::latency_cycles),
        );
        // Fault-tolerance gauges only exist when the machinery ran, so
        // fault-free metric snapshots stay byte-identical to the plain
        // engine's.
        if ft_active {
            metrics.set_gauge("serve.deferred.peak", deferred.peak_len() as f64);
            metrics.set_gauge("serve.deferred.total", deferred.deferrals() as f64);
            metrics.set_gauge("serve.tiles.min_live", live_tiles.min_live as f64);
        }
    }

    let fault_summary = ft_active.then(|| FaultSummary {
        retry_max: options.retry_max,
        backoff_base_cycles: options.backoff_base_cycles,
        degrade: options.degrade,
        fail_rate: fault_plan.fail_rate,
        transient_faults: ledger.transient_faults,
        retries: deferred.deferrals(),
        slo_deferrals: ledger.slo_deferrals,
        degraded: ledger.degraded,
        shed_after_retries: ledger.shed.iter().filter(|s| s.attempts > 0).count() as u64,
        tile_fail_events: live_tiles.fail_events,
        tile_recover_events: live_tiles.recover_events,
        min_live_tiles: live_tiles.min_live,
        live_cycle_integral: live_tiles.integral,
    });

    ServingReport {
        policy: options.policy,
        arrivals: options.arrivals,
        mix_label: options.mix.label(),
        task_names: names_by_id(suite),
        slo_cycles: options.slo_cycles,
        servers: options.servers,
        threads: runner.threads(),
        tiles,
        placement: options.pipeline.placement,
        frequency_mhz: options.config.frequency_mhz,
        records,
        shed: ledger.shed,
        queue_samples: ledger.queue_samples,
        tile_busy_cycles: ledger.tile_busy_cycles,
        depth_cycle_integral,
        observed_cycles,
        wall: start.elapsed(),
        cache: runner.cache().stats(),
        metrics: telemetry.as_ref().map(|t| t.metrics().snapshot()),
        fault_summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_workloads::suite::full_suite;
    use proptest::prelude::*;

    /// Brute-force oracle for [`LiveTiles::gang`]: sorts the live tiles by
    /// `(free_at, tile)` from scratch and takes the first `take`, with the
    /// latest free time among them as the gang's ready time.
    fn free_tile_gang(tile_free_at: &[u64], tile_down: &[bool], take: usize) -> (Vec<usize>, u64) {
        let mut order: Vec<usize> = (0..tile_free_at.len())
            .filter(|&tile| !tile_down[tile])
            .collect();
        order.sort_by_key(|&tile| (tile_free_at[tile], tile));
        let gang: Vec<usize> = order[..take].to_vec();
        let ready_at = gang
            .iter()
            .map(|&tile| tile_free_at[tile])
            .max()
            .unwrap_or(0);
        (gang, ready_at)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Through any sequence of dispatches, fails and recovers, the
        /// incremental gang order picks the same tiles in the same order,
        /// with the same ready time, as a full re-sort of the live set.
        #[test]
        fn prop_live_tile_index_matches_a_full_sort(
            servers in 1usize..65,
            steps in collection::vec((0u32..4, 0usize..64, 0u64..5_000, 0usize..64), 0..160),
        ) {
            let mut tiles = LiveTiles::new(servers);
            for &(kind, pick, service, take_pick) in &steps {
                match kind {
                    // Dispatch twice as often as fail or recover.
                    0 | 1 if tiles.live() > 0 => {
                        let take = 1 + take_pick % tiles.live();
                        let ready_at = tiles.gang(take).1;
                        tiles.dispatch(take, ready_at + service);
                    }
                    2 | 3 => {
                        let kind = if kind == 2 { TileFaultKind::Fail } else { TileFaultKind::Recover };
                        tiles.apply(&TileFaultEvent { cycle: 0, tile: pick % servers, kind });
                    }
                    _ => {}
                }
                let live = tiles.down.iter().filter(|&&down| !down).count();
                prop_assert_eq!(tiles.live(), live);
                if live == 0 {
                    continue;
                }
                // The whole order, and a gang of the step's random width.
                for take in [live, 1 + take_pick % live] {
                    let (gang, ready_at) = tiles.gang(take);
                    let expected = free_tile_gang(&tiles.free_at, &tiles.down, take);
                    prop_assert_eq!((gang.to_vec(), ready_at), expected);
                }
            }
        }
    }

    fn quick_options() -> ServingOptions {
        ServingOptions {
            requests: 40,
            pipeline: PipelineOptions {
                max_sim_seq_len: 24,
                ..PipelineOptions::default()
            },
            ..ServingOptions::default()
        }
    }

    #[test]
    fn arrivals_are_deterministic_and_monotone_for_every_process() {
        let suite = full_suite();
        for arrivals in ArrivalProcess::ALL {
            let options = ServingOptions {
                arrivals,
                ..quick_options()
            };
            let a = generate_requests(&suite, &options);
            let b = generate_requests(&suite, &options);
            assert_eq!(a, b, "{} stream must be reproducible", arrivals.label());
            for pair in a.windows(2) {
                assert!(pair[0].arrival_cycle <= pair[1].arrival_cycle);
            }
            let other_seed = generate_requests(&suite, &ServingOptions { seed: 1, ..options });
            assert_ne!(a, other_seed);
        }
    }

    #[test]
    fn bursty_gaps_are_more_variable_than_steady_at_the_same_mean_rate() {
        let suite = full_suite();
        let base = ServingOptions {
            requests: 2048,
            rate_rps: 1e6,
            ..ServingOptions::default()
        };
        let gap_stats = |arrivals: ArrivalProcess| {
            let requests = generate_requests(
                &suite,
                &ServingOptions {
                    arrivals,
                    ..base.clone()
                },
            );
            let gaps: Vec<f64> = requests
                .windows(2)
                .map(|p| (p[1].arrival_cycle - p[0].arrival_cycle) as f64)
                .collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            (mean, var.sqrt() / mean)
        };
        let (steady_mean, steady_cv) = gap_stats(ArrivalProcess::Steady);
        let (bursty_mean, bursty_cv) = gap_stats(ArrivalProcess::Bursty);
        let (diurnal_mean, _) = gap_stats(ArrivalProcess::Diurnal);
        // All three processes offer roughly the same long-run rate ...
        assert!(
            (bursty_mean / steady_mean - 1.0).abs() < 0.35,
            "bursty mean gap {bursty_mean} vs steady {steady_mean}"
        );
        assert!(
            (diurnal_mean / steady_mean - 1.0).abs() < 0.35,
            "diurnal mean gap {diurnal_mean} vs steady {steady_mean}"
        );
        // ... but bursty gaps are far more dispersed (exponential CV ≈ 1).
        assert!(
            bursty_cv > steady_cv * 1.5,
            "bursty CV {bursty_cv} vs steady CV {steady_cv}"
        );
    }

    #[test]
    fn diurnal_arrivals_alternate_dense_and_sparse_quarters() {
        let suite = full_suite();
        let options = ServingOptions {
            requests: 1024,
            rate_rps: 1e6,
            arrivals: ArrivalProcess::Diurnal,
            ..ServingOptions::default()
        };
        let requests = generate_requests(&suite, &options);
        // Count arrivals per eighth of the stream's span: the sinusoid must
        // leave some eighths far denser than others (a steady stream keeps
        // them within sampling noise of each other).
        let span = requests.last().unwrap().arrival_cycle + 1;
        let mut eighths = [0usize; 8];
        for request in &requests {
            let slot = (request.arrival_cycle * 8 / span).min(7) as usize;
            eighths[slot] += 1;
        }
        let min = *eighths.iter().min().unwrap() as f64;
        let max = *eighths.iter().max().unwrap() as f64;
        assert!(
            max > min * 2.0,
            "diurnal arrival counts too even: {eighths:?}"
        );
    }

    #[test]
    fn request_mix_parses_and_weights_families() {
        let mix = RequestMix::parse("memn2n=3,bert-b=1").unwrap();
        assert!(!mix.is_uniform());
        assert_eq!(mix.label(), "memn2n=3,bert-b=1");
        // Hyphens and case are forgiven.
        assert_eq!(RequestMix::parse("BertB=1").unwrap().label(), "bert-b=1");
        assert_eq!(RequestMix::parse("").unwrap(), RequestMix::uniform());
        assert_eq!(RequestMix::default().label(), "uniform");
        assert!(RequestMix::parse("zebra=1").is_err());
        assert!(RequestMix::parse("memn2n").is_err());
        assert!(RequestMix::parse("memn2n=-1").is_err());
        assert!(RequestMix::parse("memn2n=0").is_err(), "all-zero mix");
        assert!(RequestMix::parse("memn2n=1,memn2n=2").is_err(), "duplicate");
        let overflow = RequestMix::parse("memn2n=1e308,bert-b=1e308").unwrap_err();
        assert!(overflow.contains("not a finite total"), "{overflow}");

        // A weighted stream draws only from the weighted families, in
        // roughly the requested proportion of *family* traffic.
        let suite = full_suite();
        let options = ServingOptions {
            requests: 2000,
            mix: RequestMix::parse("memn2n=3,vit-b=1").unwrap(),
            ..ServingOptions::default()
        };
        let requests = generate_requests(&suite, &options);
        let memn2n = requests
            .iter()
            .filter(|r| suite[r.task_index].name.starts_with("MemN2N"))
            .count();
        let vit = requests
            .iter()
            .filter(|r| suite[r.task_index].name.starts_with("ViT"))
            .count();
        assert_eq!(memn2n + vit, requests.len(), "only weighted families");
        let share = memn2n as f64 / requests.len() as f64;
        assert!(
            (share - 0.75).abs() < 0.05,
            "MemN2N family share {share} should be ~0.75"
        );
    }

    #[test]
    #[should_panic(expected = "matches no task")]
    fn mix_with_no_matching_task_panics() {
        // A GPT-2-only mix against a MemN2N-only suite slice can draw
        // nothing.
        let suite: Vec<_> = full_suite().into_iter().take(3).collect();
        let options = ServingOptions {
            mix: RequestMix::parse("gpt-2-l=1").unwrap(),
            ..quick_options()
        };
        let _ = generate_requests(&suite, &options);
    }

    #[test]
    fn slo_admission_sheds_predicted_deadline_misses_only() {
        let suite = full_suite();
        let runner = SuiteRunner::new(2);
        // A deliberately tight deadline in the default backlogged regime:
        // plenty of requests will predict past it.
        let slo = 3_000;
        let options = ServingOptions {
            requests: 128,
            slo_cycles: Some(slo),
            pipeline: PipelineOptions {
                max_sim_seq_len: 48,
                ..PipelineOptions::default()
            },
            ..ServingOptions::default()
        };
        let report = run_serving(&runner, &suite, &options);
        // Conservation: every offered request is either admitted or shed.
        assert_eq!(report.offered(), 128);
        assert!(!report.shed.is_empty(), "backlog must shed something");
        assert!(!report.records.is_empty(), "not everything can miss");
        assert!(report.shed_rate() > 0.0 && report.shed_rate() < 1.0);
        let padded = |predicted: u64| (predicted as f64 * SLO_PREDICTION_HEADROOM) as u64;
        // Every shed decision was justified by its padded prediction ...
        for s in &report.shed {
            assert!(
                s.shed_cycle + padded(s.predicted_cycles) > s.arrival_cycle + slo,
                "request {} shed although predicted to meet the deadline",
                s.id
            );
        }
        // ... and no admitted request was *predicted* to miss at dispatch.
        for r in &report.records {
            assert!(r.start_cycle + padded(r.predicted_cycles) <= r.arrival_cycle + slo);
        }
        // Goodput counts only within-deadline completions.
        assert_eq!(
            report.slo_met(),
            report
                .records
                .iter()
                .filter(|r| r.latency_cycles() <= slo)
                .count()
        );
        assert!(report.goodput_rps() <= report.throughput_rps());
        // Admitted ids stay in arrival order with shed ids missing.
        let mut last = None;
        for r in &report.records {
            assert!(last.is_none_or(|l| r.id > l));
            last = Some(r.id);
        }
    }

    #[test]
    fn tile_schedules_shrink_service_cycles_and_stay_deterministic() {
        // Replaying onto a real multi-tile schedule cuts every request's
        // service cycles relative to the single-tile model (same stream,
        // same tasks), and repeated runs are reproducible.
        let suite: Vec<_> = full_suite().into_iter().take(6).collect();
        let single = run_serving(&SuiteRunner::new(2), &suite, &quick_options());
        let tiled_options = ServingOptions {
            pipeline: PipelineOptions {
                tiles: 4,
                ..quick_options().pipeline
            },
            ..quick_options()
        };
        let tiled = run_serving(&SuiteRunner::new(2), &suite, &tiled_options);
        assert_eq!(tiled.tiles, 4);
        assert_eq!(single.tiles, 1);
        assert_eq!(single.records.len(), tiled.records.len());
        for (a, b) in single.records.iter().zip(&tiled.records) {
            assert_eq!(a.task_id, b.task_id, "same arrival stream");
            assert!(
                b.service_cycles < a.service_cycles,
                "request {} did not speed up on 4 tiles ({} vs {})",
                a.id,
                b.service_cycles,
                a.service_cycles
            );
            assert!(b.predicted_cycles <= a.predicted_cycles);
        }
        let again = run_serving(&SuiteRunner::new(1), &suite, &tiled_options);
        assert_eq!(
            tiled.records, again.records,
            "tiled replay must be deterministic"
        );
    }

    #[test]
    fn requests_share_tiles_through_gang_dispatch() {
        // tiles=2 on 4 servers: every dispatch occupies a 2-tile gang, so
        // at most servers/tiles requests run concurrently and each tile of
        // a gang is charged the full layer makespan.
        let suite: Vec<_> = full_suite().into_iter().take(4).collect();
        let options = ServingOptions {
            servers: 4,
            pipeline: PipelineOptions {
                tiles: 2,
                ..quick_options().pipeline
            },
            ..quick_options()
        };
        let report = run_serving(&SuiteRunner::new(2), &suite, &options);
        let total_service: u64 = report.records.iter().map(|r| r.service_cycles).sum();
        assert_eq!(
            report.tile_busy_cycles.iter().sum::<u64>(),
            2 * total_service,
            "each of a gang's 2 tiles is busy for the whole makespan"
        );
        // Causality plus gang capacity: never more than 2 overlapping
        // requests (4 tiles / gangs of 2).
        let mut busy: Vec<(u64, u64)> = report
            .records
            .iter()
            .map(|r| (r.start_cycle, r.finish_cycle))
            .collect();
        busy.sort_unstable();
        let mut active: Vec<u64> = Vec::new();
        for (start, finish) in busy {
            active.retain(|&f| f > start);
            active.push(finish);
            assert!(active.len() <= 2, "more concurrent requests than gangs");
        }
    }

    #[test]
    fn placement_moves_only_the_makespan_of_the_serving_stream() {
        // One head on 4 tiles: lpt and rr both split the head across every
        // tile (identical service); static keeps the head whole, so its
        // layer makespan — and only that — is larger. The stream itself
        // (ids, tasks, arrivals) is placement-independent.
        let suite: Vec<_> = full_suite().into_iter().take(4).collect();
        let report_for = |placement: Placement| {
            let options = ServingOptions {
                pipeline: PipelineOptions {
                    tiles: 4,
                    placement,
                    ..quick_options().pipeline
                },
                ..quick_options()
            };
            run_serving(&SuiteRunner::new(2), &suite, &options)
        };
        let lpt = report_for(Placement::Lpt);
        let rr = report_for(Placement::RoundRobin);
        let fixed = report_for(Placement::Static);
        assert_eq!(lpt.placement, Placement::Lpt);
        assert_eq!(lpt.records, rr.records, "one split head: lpt ≡ rr");
        assert_eq!(fixed.records.len(), lpt.records.len());
        for (a, b) in fixed.records.iter().zip(&lpt.records) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.task_id, b.task_id);
            assert_eq!(a.arrival_cycle, b.arrival_cycle);
            assert!(
                a.service_cycles > b.service_cycles,
                "static (whole head on one of 4 tiles) must serve slower"
            );
        }
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn vanishing_rate_is_rejected_instead_of_degenerating() {
        // Regression: a tiny-but-positive offered rate used to overflow the
        // mean inter-arrival gap to infinity, silently producing a stream
        // of saturated arrival cycles.
        let suite = full_suite();
        let options = ServingOptions {
            rate_rps: 1e-300,
            ..quick_options()
        };
        let _ = generate_requests(&suite, &options);
    }

    #[test]
    fn slo_extremes_saturate_instead_of_wrapping() {
        // The deadline and the padded prediction saturate at u64::MAX, so
        // an unbounded SLO admits exactly what no SLO admits, and a huge
        // headroom never admits more than the default one.
        let suite: Vec<_> = full_suite().into_iter().take(4).collect();
        let runner = SuiteRunner::new(1);
        let run = |slo_cycles, slo_headroom| {
            let options = ServingOptions {
                slo_cycles,
                slo_headroom,
                ..quick_options()
            };
            run_serving(&runner, &suite, &options)
        };
        let unbounded = run(Some(u64::MAX), SLO_PREDICTION_HEADROOM);
        assert!(unbounded.shed.is_empty());
        assert_eq!(
            unbounded.records,
            run(None, SLO_PREDICTION_HEADROOM).records
        );
        let huge = run(Some(2_000), 1e300);
        let default = run(Some(2_000), SLO_PREDICTION_HEADROOM);
        assert!(
            huge.shed.len() >= default.shed.len(),
            "headroom 1e300 shed {} < default headroom's {}",
            huge.shed.len(),
            default.shed.len()
        );
    }

    #[test]
    fn zero_cycle_slo_means_documented_shed_all() {
        // ServingOptions::slo_cycles documents Some(0) as shed-all: the
        // replay completes, admits nothing, and sheds the full stream.
        let suite: Vec<_> = full_suite().into_iter().take(4).collect();
        let report = run_serving(
            &SuiteRunner::new(1),
            &suite,
            &ServingOptions {
                slo_cycles: Some(0),
                ..quick_options()
            },
        );
        assert!(report.records.is_empty());
        assert_eq!(report.shed.len(), 40);
        assert_eq!(report.shed_rate(), 1.0);
        assert_eq!(report.slo_met(), 0);
    }

    #[test]
    fn replay_conserves_every_request_and_respects_causality() {
        let suite: Vec<_> = full_suite().into_iter().take(6).collect();
        let runner = SuiteRunner::new(2);
        let report = run_serving(&runner, &suite, &quick_options());
        assert_eq!(report.records.len(), 40);
        for (id, record) in report.records.iter().enumerate() {
            assert_eq!(record.id, id);
            assert!(record.start_cycle >= record.arrival_cycle);
            assert_eq!(
                record.finish_cycle,
                record.start_cycle + record.service_cycles
            );
            assert!(record.service_cycles > 0);
            assert!(record.predicted_cycles > 0);
        }
        // No tile ever runs two requests at once.
        let mut busy: Vec<(u64, u64)> = report
            .records
            .iter()
            .map(|r| (r.start_cycle, r.finish_cycle))
            .collect();
        busy.sort_unstable();
        let mut active: Vec<u64> = Vec::new();
        for (start, finish) in busy {
            active.retain(|&f| f > start);
            active.push(finish);
            assert!(active.len() <= report.servers, "overlap beyond tile count");
        }
    }

    #[test]
    fn idle_tiles_never_start_a_request_before_it_arrives() {
        // Regression: with many tiles, a request admitted during an arrival
        // jump used to be dispatched on a tile whose free instant was still
        // in the past, i.e. before the request existed.
        let suite = full_suite();
        let runner = SuiteRunner::new(2);
        let options = ServingOptions {
            rate_rps: 2e6,
            servers: 32,
            ..ServingOptions::default()
        };
        let report = run_serving(&runner, &suite, &options);
        for record in &report.records {
            assert!(
                record.start_cycle >= record.arrival_cycle,
                "request {} started at {} before arriving at {}",
                record.id,
                record.start_cycle,
                record.arrival_cycle
            );
        }
    }

    #[test]
    fn latency_summary_is_ordered_and_throughput_positive() {
        let suite: Vec<_> = full_suite().into_iter().take(4).collect();
        let runner = SuiteRunner::new(1);
        let report = run_serving(&runner, &suite, &quick_options());
        let latency = report.latency();
        assert!(latency.p50_us > 0.0);
        assert!(latency.p50_us <= latency.p95_us);
        assert!(latency.p95_us <= latency.p99_us);
        assert!(latency.p99_us <= latency.max_us);
        assert!(report.throughput_rps() > 0.0);
        assert!(report.max_queue_depth() >= report.mean_queue_depth() as usize);
    }

    #[test]
    fn zero_requests_produce_an_empty_but_valid_report() {
        let suite: Vec<_> = full_suite().into_iter().take(2).collect();
        let runner = SuiteRunner::new(1);
        let report = run_serving(
            &runner,
            &suite,
            &ServingOptions {
                requests: 0,
                ..quick_options()
            },
        );
        assert!(report.records.is_empty());
        assert_eq!(report.latency(), LatencySummary::default());
        assert_eq!(report.throughput_rps(), 0.0);
        assert_eq!(report.max_queue_depth(), 0);
    }

    #[test]
    fn utilization_series_and_depth_integral_are_consistent() {
        let suite: Vec<_> = full_suite().into_iter().take(6).collect();
        let runner = SuiteRunner::new(2);
        let report = run_serving(&runner, &suite, &quick_options());
        // Conservation: per-tile busy cycles sum to total service cycles.
        let total_service: u64 = report.records.iter().map(|r| r.service_cycles).sum();
        assert_eq!(report.tile_busy_cycles.iter().sum::<u64>(), total_service);
        assert_eq!(report.tile_busy_cycles.len(), report.servers);
        for utilization in report.tile_utilization() {
            assert!((0.0..=1.0).contains(&utilization));
        }
        assert!((0.0..1.0).contains(&report.tile_fragmentation()));
        assert!(report.mean_tile_utilization() > 0.0);
        // The default regime is backlogged, so the queue holds real depth
        // over real time.
        assert!(report.observed_cycles >= report.makespan_cycles());
        let time_weighted = report.time_weighted_mean_queue_depth();
        assert!(time_weighted > 0.0);
        assert!(time_weighted < report.offered() as f64);
    }

    #[test]
    fn observability_fields_are_thread_count_independent() {
        let suite: Vec<_> = full_suite().into_iter().take(6).collect();
        let one = run_serving(&SuiteRunner::new(1), &suite, &quick_options());
        let four = run_serving(&SuiteRunner::new(4), &suite, &quick_options());
        assert_eq!(one.tile_busy_cycles, four.tile_busy_cycles);
        assert_eq!(one.depth_cycle_integral, four.depth_cycle_integral);
        assert_eq!(one.observed_cycles, four.observed_cycles);
    }

    #[test]
    fn serving_telemetry_is_observe_only() {
        let suite: Vec<_> = full_suite().into_iter().take(4).collect();
        let plain = run_serving(&SuiteRunner::new(2), &suite, &quick_options());
        assert!(plain.metrics.is_none());
        let runner = SuiteRunner::new(2).with_telemetry();
        let traced = run_serving(&runner, &suite, &quick_options());
        assert_eq!(plain.records, traced.records);
        assert_eq!(plain.tile_busy_cycles, traced.tile_busy_cycles);
        let metrics = traced.metrics.expect("telemetry enabled");
        assert_eq!(
            metrics.counter("serve.requests.admitted"),
            Some(traced.records.len() as u64)
        );
        assert_eq!(
            metrics.histogram("serve.latency_cycles").map(|h| h.total),
            Some(traced.records.len() as u64)
        );
    }

    #[test]
    fn scheduler_sees_predictions_not_ground_truth() {
        // Under LJF the dispatch order must follow predicted cycles even
        // where they disagree with the measured service cycles.
        let suite: Vec<_> = full_suite().into_iter().take(8).collect();
        let runner = SuiteRunner::new(2);
        let options = ServingOptions {
            policy: SchedulePolicy::Ljf,
            // A true batch: inter-arrival gaps all round to cycle zero.
            rate_rps: 1e15,
            ..quick_options()
        };
        let report = run_serving(&runner, &suite, &options);
        let mut by_start: Vec<&RequestRecord> = report.records.iter().collect();
        by_start.sort_by_key(|r| (r.start_cycle, r.id));
        // The first `servers` dispatches happen at cycle 0; after that,
        // predicted cycles must be non-increasing among same-instant picks.
        let first_wave: Vec<u64> = by_start
            .iter()
            .take(report.servers)
            .map(|r| r.predicted_cycles)
            .collect();
        let overall_max = report
            .records
            .iter()
            .map(|r| r.predicted_cycles)
            .max()
            .unwrap();
        assert!(first_wave.contains(&overall_max));
    }
}
