//! The parallel, deterministic suite-execution engine.
//!
//! A suite run is three [`parallel_map`] passes over the pool, each a
//! barrier for the next:
//!
//! ```text
//! build(task, head) ──▶ sweep+fold(task, head, block) ──▶ join+merge+aggregate(task)
//! ```
//!
//! Before the passes, every task is planned in submission order. The
//! blocks are the task's **layer plan** ([`plan_task_layer`]) cut by
//! [`LayerPlan::blocks`]: the placement policy assigns every head a tile
//! split (whole heads while `heads >= tiles`, load-predicted splits when
//! tiles would idle), each tile shard is a contiguous Q-row range, and a
//! shard of more than 2^19 score pairs is cut further into row blocks so
//! that the longest full-scale head does not run alone at the end of a
//! pass.
//!
//! 1. One build job per `(task, head)` constructs (or fetches from the
//!    [`WorkloadCache`]) the quantized head workload.
//! 2. One sweep+fold job per planned row block covers a contiguous block
//!    of Q rows for **all four** simulation units ([`SimUnitKind::ALL`]):
//!    one kernel sweep per row, folded into every unit's accounting
//!    ([`simulate_units_shard`]), since the units differ only in how they
//!    read the same per-pair outcomes.
//! 3. One job per task reassembles the blocks ([`LayerPlan::assemble`]:
//!    blocks joined in row order, shards merged in shard order) and runs
//!    the aggregation.
//!
//! Aggregation consumes the units in head order and runs exactly the same
//! arithmetic as the serial
//! [`run_task`](leopard_workloads::pipeline::run_task), so results are
//! **bit-identical** for any thread count, any tile count, *and any
//! placement policy* — scheduling only changes *when* a job runs, never
//! what it computes, because every block is a pure function of `(task,
//! options, head, rows)` with a fixed per-head seed, and the join and
//! merge reconstruct the single-tile accounting exactly.
//!
//! Per-stage wall-clock totals (build / simulate / aggregate) are summed
//! over the jobs and reported alongside the results.

use crate::cache::{CacheStats, WorkloadCache};
use crate::pool::parallel_map;
use crate::pool::{default_threads, ThreadPool};
use crate::sched::{submission_order, SchedulePolicy};
use crate::telemetry::{MetricsSnapshot, Telemetry};
use leopard_accel::config::TileConfig;
use leopard_accel::schedule::{LayerPlan, PlanBlock};
use leopard_accel::sim::TileShardSim;
use leopard_workloads::pipeline::{
    aggregate_task, plan_task_layer, predict_task_cycles, sim_seq_len, simulate_units_shard,
    HeadUnitResults, PipelineOptions, SimUnitKind, TaskResult,
};
use leopard_workloads::suite::TaskDescriptor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock totals per pipeline stage, summed across workers (so with N
/// threads the totals can exceed the run's wall time by up to N times).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotals {
    /// Time spent constructing workloads (cache misses only).
    pub build: Duration,
    /// Time spent in the cycle-level simulator.
    pub simulate: Duration,
    /// Time spent aggregating unit results into task results.
    pub aggregate: Duration,
}

/// Everything a suite run produces: per-task results (in input order) plus
/// execution metadata.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// One result per input task, in input order. Bit-identical across
    /// thread counts and runs.
    pub results: Vec<TaskResult>,
    /// Worker threads the engine ran on.
    pub threads: usize,
    /// End-to-end wall-clock time of the run.
    pub wall: Duration,
    /// Per-stage totals summed over workers.
    pub stages: StageTotals,
    /// Number of jobs executed: builds + sweep+fold jobs + aggregations.
    /// Each head contributes one sweep+fold job per tile shard (more when
    /// a long shard is cut into row blocks), covering all four units.
    pub jobs: usize,
    /// Workload-cache counters for this runner (cumulative across runs).
    pub cache: CacheStats,
    /// Admission policy the run's task submission followed.
    pub schedule: SchedulePolicy,
    /// Metrics snapshot, present when the runner's telemetry layer is
    /// enabled. Observe-only: the JSON/CSV report renderers never touch
    /// it, so their output is byte-identical with telemetry on or off;
    /// `--metrics` writes it to its own file.
    pub metrics: Option<MetricsSnapshot>,
}

/// One task's planned jobs: its head→tile placement and the row blocks
/// its sweep+fold jobs cover ([`LayerPlan::blocks`]). A pure function of
/// `(task, options)`, so every thread count runs the same jobs.
struct TaskJobs {
    /// The task's position in the caller's input.
    index: usize,
    task: TaskDescriptor,
    /// Per head, the tile split (shard count) and the tiles the shards
    /// land on.
    plan: LayerPlan,
    blocks: Vec<PlanBlock>,
}

/// The suite runner: a thread pool plus a workload cache that persists
/// across runs (so parameter sweeps hit it).
///
/// # Examples
///
/// ```
/// use leopard_runtime::engine::SuiteRunner;
/// use leopard_runtime::sched::SchedulePolicy;
/// use leopard_workloads::pipeline::PipelineOptions;
/// use leopard_workloads::suite::full_suite;
///
/// let tasks: Vec<_> = full_suite().into_iter().take(2).collect();
/// let options = PipelineOptions { max_sim_seq_len: 16, ..Default::default() };
/// let runner = SuiteRunner::new(2);
/// let report = runner.run(&tasks, &options);
/// assert_eq!(report.results.len(), 2);
/// assert_eq!(report.threads, 2);
/// // Scheduling changes only when jobs start, never what they compute:
/// let ljf = runner.run_scheduled(&tasks, &options, SchedulePolicy::Ljf);
/// assert_eq!(ljf.results, report.results);
/// // The second run reused every cached workload.
/// assert_eq!(ljf.cache.misses, report.cache.misses);
/// ```
#[derive(Debug)]
pub struct SuiteRunner {
    pool: ThreadPool,
    cache: Arc<WorkloadCache>,
    telemetry: Option<Arc<Telemetry>>,
}

impl SuiteRunner {
    /// Creates a runner with `threads` workers; `0` means one worker per
    /// available core.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            default_threads()
        } else {
            threads
        };
        Self {
            pool: ThreadPool::new(threads),
            cache: Arc::new(WorkloadCache::new()),
            telemetry: None,
        }
    }

    /// Enables the observe-only telemetry layer: per-worker span buffers
    /// (plus one slot for external threads) and a metrics registry.
    /// Results and reports stay byte-identical with telemetry on or off;
    /// when disabled the per-job overhead is a branch on an `Option`.
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = Some(Arc::new(Telemetry::new(self.pool.threads())));
        self
    }

    /// The telemetry layer, when enabled via
    /// [`with_telemetry`](Self::with_telemetry).
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The runner's workload cache.
    pub fn cache(&self) -> &Arc<WorkloadCache> {
        &self.cache
    }

    /// The runner's thread pool, for custom parallel work (sweeps, figure
    /// harnesses) that wants to share workers with suite runs.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Executes the suite over `tasks` in arrival (input) order and
    /// returns results in input order, bit-identical to running
    /// [`run_task`](leopard_workloads::pipeline::run_task) serially per task.
    pub fn run(&self, tasks: &[TaskDescriptor], options: &PipelineOptions) -> SuiteReport {
        self.run_scheduled(tasks, options, SchedulePolicy::Fifo)
    }

    /// Executes the suite with task submission ordered by `policy`:
    /// longest-predicted-job-first starts the expensive tasks before the
    /// cheap ones in every pass, which keeps them off the critical path
    /// and cuts the tail of the run (the time the last task finishes).
    /// Scheduling only changes *when* jobs start — results are
    /// bit-identical across policies and thread counts, and always in
    /// input order.
    pub fn run_scheduled(
        &self,
        tasks: &[TaskDescriptor],
        options: &PipelineOptions,
        policy: SchedulePolicy,
    ) -> SuiteReport {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-seconds run footer only; simulated cycle results never read it"
        )]
        let start = Instant::now();
        let heads = options.heads.max(1);
        // The placement is planned against the serving configuration's cost
        // constants; only *relative* predicted loads matter for the shard
        // decomposition, and merged results are split-independent anyway.
        let plan_config = SimUnitKind::AeLeopard.tile_config();
        let costs: Vec<u64> = tasks
            .iter()
            .map(|task| predict_task_cycles(task, options))
            .collect();
        let planned: Vec<Arc<TaskJobs>> = submission_order(&costs, policy)
            .into_iter()
            .map(|index| {
                let task = tasks[index].clone();
                let rate = task.paper_pruning_rate as f64;
                let plan =
                    plan_task_layer(&task, options, &plan_config, options.tiles.max(1), rate);
                let blocks = plan.blocks(&vec![sim_seq_len(&task, options); heads]);
                Arc::new(TaskJobs {
                    index,
                    task,
                    plan,
                    blocks,
                })
            })
            .collect();
        let options = *options;

        // Pass 1: one build per (task, head).
        let builds: Vec<(Arc<TaskJobs>, usize)> = planned
            .iter()
            .flat_map(|jobs| (0..heads).map(move |head| (Arc::clone(jobs), head)))
            .collect();
        let build_jobs = builds.len();
        let (cache, telemetry) = (Arc::clone(&self.cache), self.telemetry.clone());
        let built = parallel_map(&self.pool, builds, move |_, (jobs, head)| {
            let task = &jobs.task;
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-seconds stage timing for the report footer and telemetry spans; simulated cycle results never read it"
            )]
            let build_start = Instant::now();
            let workload = cache.head_workload(task, &options, *head);
            let elapsed = build_start.elapsed();
            if let Some(t) = &telemetry {
                t.record_wall_span(
                    "build",
                    task.name.clone(),
                    build_start,
                    vec![("task", task.id as u64), ("head", *head as u64)],
                );
                t.metrics().incr("suite.jobs.build", 1);
            }
            assert_eq!(
                workload.seq_len(),
                sim_seq_len(task, &options),
                "the cached workload has the planned sequence length"
            );
            (workload, elapsed)
        });

        // Pass 2: one sweep+fold per planned row block, producing all four
        // unit shards of its rows.
        let mut sweeps = Vec::new();
        for (t, jobs) in planned.iter().enumerate() {
            for (block, &(head, _, _)) in jobs.blocks.iter().enumerate() {
                let workload = Arc::clone(&built[t * heads + head].0);
                sweeps.push((Arc::clone(jobs), block, workload));
            }
        }
        let telemetry = self.telemetry.clone();
        let swept = parallel_map(&self.pool, sweeps, move |_, (jobs, block, workload)| {
            let (head, shard, rows) = &jobs.blocks[*block];
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-seconds stage timing for the report footer and telemetry spans; simulated cycle results never read it"
            )]
            let sim_start = Instant::now();
            let units = simulate_units_shard(workload, rows.clone());
            let elapsed = sim_start.elapsed();
            if let Some(t) = &telemetry {
                // Tagged with the planned physical tile, not the shard
                // index: the span follows the placement.
                t.record_wall_span(
                    "sim",
                    jobs.task.name.clone(),
                    sim_start,
                    vec![
                        ("task", jobs.task.id as u64),
                        ("head", *head as u64),
                        ("tile", jobs.plan.shard_tiles[*head][*shard] as u64),
                    ],
                );
                let metrics = t.metrics();
                metrics.incr("suite.jobs.sim", 1);
                for unit in &units {
                    let mix = unit.outcome_mix();
                    metrics.incr("kernel.outcomes.early_terminated", mix.early_terminated);
                    metrics.incr(
                        "kernel.outcomes.full_precision_pruned",
                        mix.full_precision_pruned,
                    );
                    metrics.incr("kernel.outcomes.surviving", mix.surviving);
                    metrics.merge_indexed("kernel.bits_processed", &unit.bits_histogram);
                }
            }
            (units, elapsed)
        });

        // Pass 3: one join + merge + aggregate per task.
        let sweep_jobs = swept.len();
        let simulate = swept.iter().map(|(_, elapsed)| *elapsed).sum();
        let mut swept = swept.into_iter().map(|(units, _)| units);
        let merges: Vec<(Arc<TaskJobs>, Vec<Vec<TileShardSim>>)> = planned
            .iter()
            .map(|jobs| {
                let sims = swept.by_ref().take(jobs.blocks.len()).collect();
                (Arc::clone(jobs), sims)
            })
            .collect();
        let telemetry = self.telemetry.clone();
        let aggregated = parallel_map(&self.pool, merges, move |_, (jobs, sims)| {
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-seconds stage timing for the report footer and telemetry spans; simulated cycle results never read it"
            )]
            let agg_start = Instant::now();
            // One (tile cycles, heads) pair per unit, in SimUnitKind order.
            let units = jobs.plan.assemble(&jobs.blocks, sims);
            let heads: Vec<HeadUnitResults> = (0..jobs.plan.shard_tiles.len())
                .map(|head| {
                    let merged = units
                        .iter()
                        .map(|(_, heads)| Some(heads[head].merged.clone()));
                    HeadUnitResults::from_indexed(merged.collect())
                })
                .collect();
            let result = aggregate_task(&jobs.task, &options, &heads);
            let elapsed = agg_start.elapsed();
            if let Some(t) = &telemetry {
                t.record_wall_span(
                    "aggregate",
                    jobs.task.name.clone(),
                    agg_start,
                    vec![("task", jobs.task.id as u64)],
                );
                t.metrics().incr("suite.jobs.aggregate", 1);
                for (_, heads) in &units {
                    for (tiled, tiles_of) in heads.iter().zip(&jobs.plan.shard_tiles) {
                        for (&tile, &cycles) in tiles_of.iter().zip(&tiled.tile_cycles) {
                            let name = format!("suite.tile{tile:02}.busy_cycles");
                            t.metrics().incr(&name, cycles);
                        }
                    }
                }
            }
            (result, elapsed)
        });

        if let Some(t) = &self.telemetry {
            let metrics = t.metrics();
            metrics.incr("suite.runs", 1);
            let stats = self.cache.stats();
            metrics.set_gauge("cache.hits", stats.hits as f64);
            metrics.set_gauge("cache.misses", stats.misses as f64);
        }

        let stages = StageTotals {
            build: built.iter().map(|(_, elapsed)| *elapsed).sum(),
            simulate,
            aggregate: aggregated.iter().map(|(_, elapsed)| *elapsed).sum(),
        };
        let mut results: Vec<(usize, TaskResult)> = planned
            .iter()
            .zip(aggregated)
            .map(|(jobs, (result, _))| (jobs.index, result))
            .collect();
        results.sort_unstable_by_key(|&(index, _)| index);
        SuiteReport {
            results: results.into_iter().map(|(_, result)| result).collect(),
            threads: self.threads(),
            wall: start.elapsed(),
            stages,
            jobs: build_jobs + sweep_jobs + planned.len(),
            cache: self.cache.stats(),
            schedule: policy,
            metrics: self.telemetry.as_ref().map(|t| t.metrics().snapshot()),
        }
    }
}

/// Ground-truth layer makespans for a batch of `(plan_width, task)` jobs,
/// executed in parallel on the runner's pool and workload cache.
///
/// Each job plans the task's attention layer across `plan_width` tiles
/// ([`plan_task_layer`] at the task's paper pruning rate — the same
/// decomposition the suite engine runs), executes the plan
/// ([`LayerPlan::execute`]: every head's shards simulated and charged to
/// the planned tiles), and returns the busiest tile's total — the layer
/// makespan, the quantity the serving replay books as a request's service
/// time. Results come back in job order.
///
/// The serving engine is the caller: a fault-free run needs one plan width
/// (the configured tile count), while a run with tile fail/recover events
/// also needs the makespan at every reduced live-set width its gang
/// dispatch can encounter (a plan over a live subset of tiles is the
/// plain plan of that width with only the tile labels moved, so width is
/// the only thing that matters here).
/// Every job is a pure function of `(task, pipeline, config, width)` —
/// thread count never changes a returned cycle count.
pub fn measure_layer_makespans(
    runner: &SuiteRunner,
    jobs: Vec<(usize, TaskDescriptor)>,
    pipeline: &PipelineOptions,
    config: &TileConfig,
) -> Vec<u64> {
    let cache = Arc::clone(runner.cache());
    let pipeline = *pipeline;
    let config = *config;
    let telemetry = runner.telemetry().cloned();
    parallel_map(runner.pool(), jobs, move |_, (width, task)| {
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-seconds telemetry span around ground-truth execution; virtual-time replay never reads it"
        )]
        let execute_start = Instant::now();
        let width = (*width).max(1);
        let rate = task.paper_pruning_rate as f64;
        let plan = plan_task_layer(task, &pipeline, &config, width, rate);
        let workloads: Vec<_> = (0..pipeline.heads.max(1))
            .map(|head| cache.head_workload(task, &pipeline, head))
            .collect();
        let (tile_busy, _) = plan
            .execute(&workloads, std::slice::from_ref(&config))
            .swap_remove(0);
        let cycles = tile_busy.iter().copied().max().unwrap_or(0).max(1);
        if let Some(t) = &telemetry {
            t.record_wall_span(
                "execute",
                task.name.clone(),
                execute_start,
                vec![("task", task.id as u64)],
            );
            t.metrics().incr("serve.tasks.executed", 1);
        }
        cycles
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_workloads::pipeline::run_task;
    use leopard_workloads::suite::full_suite;

    fn quick() -> PipelineOptions {
        PipelineOptions {
            max_sim_seq_len: 24,
            ..PipelineOptions::default()
        }
    }

    #[test]
    fn parallel_equals_serial_on_a_small_slice() {
        let tasks: Vec<_> = full_suite().into_iter().take(4).collect();
        let options = quick();
        let serial: Vec<TaskResult> = tasks.iter().map(|t| run_task(t, &options)).collect();
        let report = SuiteRunner::new(4).run(&tasks, &options);
        assert_eq!(report.results, serial);
        assert_eq!(report.threads, 4);
        // 4 tasks x (1 build + 1 fused sweep+fold + 1 aggregate).
        assert_eq!(report.jobs, 4 * 3);
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let runner = SuiteRunner::new(0);
        assert!(runner.threads() >= 1);
    }

    #[test]
    fn multi_head_tasks_aggregate_in_head_order() {
        let tasks: Vec<_> = full_suite().into_iter().take(2).collect();
        let options = PipelineOptions {
            heads: 3,
            ..quick()
        };
        let serial: Vec<TaskResult> = tasks.iter().map(|t| run_task(t, &options)).collect();
        let report = SuiteRunner::new(3).run(&tasks, &options);
        assert_eq!(report.results, serial);
    }

    #[test]
    fn rerun_on_same_runner_hits_the_cache() {
        let tasks: Vec<_> = full_suite().into_iter().take(3).collect();
        let options = quick();
        let runner = SuiteRunner::new(2);
        let first = runner.run(&tasks, &options);
        assert_eq!(first.cache.misses, 3);
        let second = runner.run(&tasks, &options);
        assert_eq!(second.cache.misses, 3, "second run rebuilds nothing");
        assert_eq!(second.cache.hits, 3);
        assert_eq!(first.results, second.results);
    }

    #[test]
    fn empty_suite_is_fine() {
        let report = SuiteRunner::new(2).run(&[], &quick());
        assert!(report.results.is_empty());
        assert_eq!(report.jobs, 0);
        assert_eq!(report.schedule, SchedulePolicy::Fifo);
    }

    #[test]
    fn ljf_schedule_changes_nothing_but_the_label() {
        let tasks: Vec<_> = full_suite().into_iter().take(6).collect();
        let options = quick();
        let runner = SuiteRunner::new(3);
        let fifo = runner.run_scheduled(&tasks, &options, SchedulePolicy::Fifo);
        let ljf = runner.run_scheduled(&tasks, &options, SchedulePolicy::Ljf);
        assert_eq!(
            fifo.results, ljf.results,
            "scheduling must not change results"
        );
        assert_eq!(ljf.schedule, SchedulePolicy::Ljf);
        assert_eq!(fifo.jobs, ljf.jobs);
    }

    #[test]
    fn tile_partitioned_execution_is_bit_identical_to_serial() {
        // The tile scheduler's engine-level contract: any tile count — and
        // any thread count executing its shards — reproduces the serial
        // pipeline exactly, while the job count reflects the shard fan-out.
        let tasks: Vec<_> = full_suite().into_iter().take(3).collect();
        let serial: Vec<TaskResult> = tasks.iter().map(|t| run_task(t, &quick())).collect();
        for tiles in [2usize, 3, 8] {
            let options = PipelineOptions { tiles, ..quick() };
            for threads in [1usize, 4] {
                let report = SuiteRunner::new(threads).run(&tasks, &options);
                assert_eq!(
                    report.results, serial,
                    "tiles={tiles}, threads={threads} diverged from serial"
                );
                // 3 tasks x (1 build + 1 sweep+fold job per tile shard +
                // 1 aggregate).
                assert_eq!(report.jobs, 3 * (1 + tiles + 1));
            }
        }
    }

    #[test]
    fn placement_policies_change_job_decomposition_but_not_results() {
        // The layer scheduler's engine-level contract: the placement policy
        // reshapes the shard jobs (static keeps heads whole; lpt/rr
        // split an under-subscribed layer across the idle tiles) but every
        // policy reproduces the serial pipeline bit-identically.
        use leopard_accel::schedule::Placement;
        let tasks: Vec<_> = full_suite().into_iter().take(2).collect();
        let serial: Vec<TaskResult> = tasks.iter().map(|t| run_task(t, &quick())).collect();
        for placement in Placement::ALL {
            let options = PipelineOptions {
                tiles: 4,
                placement,
                ..quick()
            };
            let report = SuiteRunner::new(4).run(&tasks, &options);
            assert_eq!(report.results, serial, "{placement:?} diverged from serial");
            let split = if placement == Placement::Static { 1 } else { 4 };
            // 2 tasks x (1 build + split sweep+fold jobs + 1 aggregate).
            assert_eq!(report.jobs, 2 * (1 + split + 1), "{placement:?}");
        }
    }

    #[test]
    fn tile_shards_share_one_workload_build() {
        // The shard fan-out must not multiply workload construction: all
        // tile shards of a head consume the same cached build.
        let tasks: Vec<_> = full_suite().into_iter().take(2).collect();
        let options = PipelineOptions {
            tiles: 4,
            ..quick()
        };
        let runner = SuiteRunner::new(4);
        let report = runner.run(&tasks, &options);
        assert_eq!(report.cache.misses, 2, "one build per head");
        assert_eq!(report.cache.hits, 0);
    }

    #[test]
    fn telemetry_is_observe_only_and_counts_jobs() {
        let tasks: Vec<_> = full_suite().into_iter().take(3).collect();
        let options = PipelineOptions {
            tiles: 2,
            ..quick()
        };
        let plain = SuiteRunner::new(2).run(&tasks, &options);
        assert!(plain.metrics.is_none());
        let runner = SuiteRunner::new(2).with_telemetry();
        let traced = runner.run(&tasks, &options);
        assert_eq!(plain.results, traced.results, "telemetry must observe only");
        assert_eq!(plain.jobs, traced.jobs);
        let metrics = traced.metrics.expect("telemetry enabled");
        assert_eq!(metrics.counter("suite.jobs.build"), Some(3));
        // One sweep+fold job per (task, tile shard), all four units in it.
        assert_eq!(metrics.counter("suite.jobs.sim"), Some(3 * 2));
        assert_eq!(metrics.counter("suite.jobs.aggregate"), Some(3));
        let outcomes = metrics.counter("kernel.outcomes.early_terminated").unwrap()
            + metrics
                .counter("kernel.outcomes.full_precision_pruned")
                .unwrap()
            + metrics.counter("kernel.outcomes.surviving").unwrap();
        assert!(outcomes > 0, "outcome mix populated");
        // One wall span per job.
        let telemetry = runner.telemetry().expect("enabled");
        assert_eq!(telemetry.event_count(), traced.jobs);
    }

    #[test]
    fn tile_busy_metrics_equal_the_serial_plan_executor() {
        // The engine and `LayerPlan::execute` share one decomposition: the
        // busy cycles a traced run charges each tile are the serial
        // executor's tile cycles on the same plan, summed over the four
        // units and the tasks.
        let tasks: Vec<_> = full_suite().into_iter().take(2).collect();
        let options = PipelineOptions {
            tiles: 3,
            heads: 2,
            ..quick()
        };
        let runner = SuiteRunner::new(2).with_telemetry();
        let metrics = runner.run(&tasks, &options).metrics.expect("traced");
        let configs = SimUnitKind::ALL.map(|kind| kind.tile_config());
        let mut expected = [0u64; 3];
        for task in &tasks {
            let rate = task.paper_pruning_rate as f64;
            let plan_config = SimUnitKind::AeLeopard.tile_config();
            let plan = plan_task_layer(task, &options, &plan_config, 3, rate);
            let workloads: Vec<_> = (0..2)
                .map(|head| runner.cache().head_workload(task, &options, head))
                .collect();
            for (tile_cycles, _) in plan.execute(&workloads, &configs) {
                for (sum, cycles) in expected.iter_mut().zip(tile_cycles) {
                    *sum += cycles;
                }
            }
        }
        for (tile, &cycles) in expected.iter().enumerate() {
            let name = format!("suite.tile{tile:02}.busy_cycles");
            assert_eq!(metrics.counter(&name), Some(cycles), "{name}");
        }
    }

    #[test]
    fn row_blocked_heads_are_bit_identical_to_serial() {
        // GPT-2 capped at 760 rows has 577,600 pairs per head: its one
        // tile shard runs as two row-block jobs, joined before the merge.
        let gpt2: Vec<_> = full_suite()
            .into_iter()
            .filter(|t| t.name.starts_with("GPT-2"))
            .collect();
        let options = PipelineOptions {
            max_sim_seq_len: 760,
            ..PipelineOptions::default()
        };
        let serial: Vec<TaskResult> = gpt2.iter().map(|t| run_task(t, &options)).collect();
        let report = SuiteRunner::new(2).run(&gpt2, &options);
        assert_eq!(report.results, serial);
        // 1 build + 2 row blocks + 1 aggregate.
        assert_eq!(report.jobs, 4);
    }

    #[test]
    fn stage_totals_are_populated() {
        let tasks: Vec<_> = full_suite().into_iter().take(2).collect();
        let report = SuiteRunner::new(2).run(&tasks, &quick());
        assert!(report.stages.simulate > Duration::ZERO);
        assert!(report.stages.build > Duration::ZERO);
        assert!(report.wall > Duration::ZERO);
    }
}
