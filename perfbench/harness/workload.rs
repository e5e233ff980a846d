//! The benchmark's three workloads, built from `--seed`, and one untraced run
//! of each through the program's public entry points.

use crate::check::Outputs;
use leopard_accel::config::TileConfig;
use leopard_accel::sim::{simulate_head, HeadSimResult};
use leopard_runtime::pool::parallel_map;
use leopard_runtime::report::{
    serving_report_json, serving_requests_csv, suite_report_json, task_results_csv,
};
use leopard_runtime::serving::{generate_requests, Request};
use leopard_runtime::{run_serving, CacheStats, ServingOptions, SuiteRunner};
use leopard_workloads::pipeline::{sim_seq_len, PipelineOptions, SimUnitKind};
use leopard_workloads::suite::{full_suite, TaskDescriptor};
use std::fmt::Write as _;
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::Instant;

/// Seeds select one of this many pinned input sets (`seed % SEED_SLOTS`),
/// so every seed has a pinned output digest.
pub const SEED_SLOTS: u64 = 16;
/// The `n_qk` design points of `sweep-nqk` (the Figure 13 axis).
pub const NQK_POINTS: RangeInclusive<usize> = 2..=10;
/// Requests in the serve workload's stream.
const SERVE_REQUESTS: usize = 200_000;
/// Sequence-length cap of `sweep-nqk`.
const SWEEP_SEQ_CAP: usize = 512;
/// Tiles per request gang in the serve workload.
const SERVE_TILES: usize = 4;
const ARRIVAL_SEED_BASE: u64 = 0x5EED_CAFE;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The paper's 43 tasks at full sequence length on the suite engine.
    SuiteFull,
    /// `sweep --param nqk=2..10 --all-tasks --max-seq-len 512`.
    SweepNqk,
    /// A steady stream far above capacity: the replay under a deep queue.
    ServeBacklog,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::SuiteFull, Kind::SweepNqk, Kind::ServeBacklog];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SuiteFull => "suite-full",
            Kind::SweepNqk => "sweep-nqk",
            Kind::ServeBacklog => "serve-backlog",
        }
    }

    /// Resolves a workload name.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }

    /// Whether the workload replays a request stream.
    pub fn is_serving(self) -> bool {
        self == Kind::ServeBacklog
    }
}

/// A workload's inputs.
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The pinned input set the seed selects. Always 0 for the suite and
    /// the sweep, whose inputs the paper's task table fixes.
    pub slot: u64,
    /// The 43-task suite.
    pub suite: Vec<TaskDescriptor>,
    /// Workload-construction options.
    pub pipeline: PipelineOptions,
    /// The serving run, on the serve workloads.
    pub serving: Option<ServingOptions>,
}

/// One untraced run: host times and the rendered outputs.
pub struct Run {
    /// Seconds in the program's run call.
    pub run_s: f64,
    /// Seconds in the run call plus rendering its reports.
    pub wall_s: f64,
    /// The rendered reports the output check reads.
    pub outputs: Outputs,
    /// The runner's workload-cache counters after the run.
    pub cache: CacheStats,
}

impl Workload {
    /// The inputs of `kind` for `seed`.
    pub fn new(kind: Kind, seed: u64) -> Self {
        let slot = if kind.is_serving() {
            seed % SEED_SLOTS
        } else {
            0
        };
        let (pipeline, serving) = match kind {
            Kind::SuiteFull => (PipelineOptions::full_scale(), None),
            Kind::SweepNqk => {
                let pipeline = PipelineOptions {
                    max_sim_seq_len: SWEEP_SEQ_CAP,
                    ..PipelineOptions::default()
                };
                (pipeline, None)
            }
            Kind::ServeBacklog => {
                let pipeline = PipelineOptions {
                    tiles: SERVE_TILES,
                    ..PipelineOptions::default()
                };
                let serving = ServingOptions {
                    requests: SERVE_REQUESTS,
                    seed: ARRIVAL_SEED_BASE + slot,
                    pipeline,
                    ..ServingOptions::default()
                };
                (pipeline, Some(serving))
            }
        };
        Self {
            kind,
            slot,
            suite: full_suite(),
            pipeline,
            serving,
        }
    }

    /// Requests one run serves: the offered stream on the serve workload,
    /// one per (task, design point) evaluation on the suite and sweep.
    pub fn requests(&self) -> u64 {
        let tasks = self.suite.len() as u64;
        match (self.kind, &self.serving) {
            (_, Some(options)) => options.requests as u64,
            (Kind::SweepNqk, None) => tasks * NQK_POINTS.count() as u64,
            (_, None) => tasks,
        }
    }

    /// Score pairs times tile configurations one run simulates. On the
    /// serve workload that is phase 1's execution of every distinct
    /// `(plan width, task)` job.
    pub fn sim_pairs(&self) -> u64 {
        let heads = self.pipeline.heads.max(1) as u64;
        let pairs = |task: &TaskDescriptor| (sim_seq_len(task, &self.pipeline) as u64).pow(2);
        let per_suite: u64 = self.suite.iter().map(pairs).sum::<u64>() * heads;
        match (self.kind, &self.serving) {
            (_, Some(options)) => {
                let requests = generate_requests(&self.suite, options);
                phase1_jobs(&self.suite, options, &requests)
                    .iter()
                    .map(|(_, task)| pairs(task) * heads)
                    .sum()
            }
            (Kind::SweepNqk, None) => per_suite * NQK_POINTS.count() as u64,
            (_, None) => per_suite * SimUnitKind::ALL.len() as u64,
        }
    }

    /// Runs the workload once on `runner` and renders its reports. The
    /// report structs are dropped after the clock stops.
    pub fn run(&self, runner: &SuiteRunner) -> Run {
        let start = Instant::now();
        let elapsed = || start.elapsed().as_secs_f64();
        let (run_s, wall_s, outputs, cache) = match (self.kind, &self.serving) {
            (_, Some(options)) => {
                let report = run_serving(runner, &self.suite, options);
                let run_s = elapsed();
                let texts = vec![serving_requests_csv(&report), serving_report_json(&report)];
                (run_s, elapsed(), Outputs::plain(texts), report.cache)
            }
            (Kind::SweepNqk, None) => {
                let points = sweep(runner, &self.suite, self.pipeline);
                let run_s = elapsed();
                let texts = vec![sweep_rows(&self.suite, &points)];
                (
                    run_s,
                    elapsed(),
                    Outputs::plain(texts),
                    runner.cache().stats(),
                )
            }
            (_, None) => {
                let report = runner.run(&self.suite, &self.pipeline);
                let run_s = elapsed();
                let texts = vec![
                    task_results_csv(&report.results),
                    suite_report_json(&report),
                ];
                let wall_s = elapsed();
                (
                    run_s,
                    wall_s,
                    Outputs::suite(texts, &report.results),
                    report.cache,
                )
            }
        };
        Run {
            run_s,
            wall_s,
            outputs,
            cache,
        }
    }
}

/// The distinct `(plan width, task)` jobs phase 1 of `run_serving` executes
/// for `requests`: every task the stream draws, at the configured tile
/// count (the only width a run without tile faults plans for).
pub fn phase1_jobs(
    suite: &[TaskDescriptor],
    options: &ServingOptions,
    requests: &[Request],
) -> Vec<(usize, TaskDescriptor)> {
    let mut used: Vec<usize> = requests.iter().map(|r| r.task_index).collect();
    used.sort_unstable();
    used.dedup();
    let width = options.pipeline.tiles.max(1);
    used.into_iter()
        .map(|i| (width, suite[i].clone()))
        .collect()
}

/// The nqk sweep as `leopard sweep` runs it: per design point, every task's
/// head 0 from the runner's workload cache, simulated on the pool.
fn sweep(
    runner: &SuiteRunner,
    tasks: &[TaskDescriptor],
    pipeline: PipelineOptions,
) -> Vec<Vec<HeadSimResult>> {
    NQK_POINTS
        .map(|n_qk| {
            let config = TileConfig::ae_leopard().with_n_qk(n_qk);
            let cache = Arc::clone(runner.cache());
            parallel_map(runner.pool(), tasks.to_vec(), move |_, task| {
                simulate_head(&cache.head_workload(task, &pipeline, 0), &config)
            })
        })
        .collect()
}

/// Renders the sweep's per-task rows, one per (design point, task).
pub fn sweep_rows(tasks: &[TaskDescriptor], points: &[Vec<HeadSimResult>]) -> String {
    let mut out = String::from(
        "nqk,task,total_cycles,pruned_scores,surviving_scores,vpu_demand,vpu_utilization\n",
    );
    for (n_qk, results) in NQK_POINTS.zip(points) {
        for (task, r) in tasks.iter().zip(results) {
            let _ = writeln!(
                out,
                "{n_qk},\"{}\",{},{},{},{:?},{:?}",
                task.name,
                r.total_cycles,
                r.pruned_scores,
                r.surviving_scores,
                r.vpu_demand,
                r.vpu_utilization,
            );
        }
    }
    out
}
