//! The traced pass: one workload run serially on one thread, with a span
//! around every call into a layer's public functions, so the layers' self
//! times add up to the pass's wall time.

use crate::check::Outputs;
use crate::trace::Tracer;
use crate::workload::{phase1_jobs, sweep_rows, Kind, Workload, NQK_POINTS};
use leopard_accel::config::TileConfig;
use leopard_accel::sim::{simulate_head, HeadWorkload};
use leopard_runtime::cache::{WorkloadCache, WorkloadKey};
use leopard_runtime::engine::{measure_layer_makespans, StageTotals};
use leopard_runtime::report::{
    serving_report_json, serving_requests_csv, suite_report_json, task_results_csv,
};
use leopard_runtime::serving::generate_requests;
use leopard_runtime::{run_serving, SchedulePolicy, SuiteReport, SuiteRunner};
use leopard_workloads::pipeline::{
    aggregate_task, head_seed, sim_seq_len, simulate_unit, synthesize_qk, threshold_for_rate,
    HeadUnitResults, PipelineOptions, SimUnitKind,
};
use leopard_workloads::suite::TaskDescriptor;
use std::collections::BTreeMap;
use std::time::Duration;

/// Span name per simulation unit, indexed by [`SimUnitKind::index`].
const SIM_SPANS: [&str; 4] = ["sim.baseline", "sim.ae", "sim.hp", "sim.pruning_only"];

/// Per-layer figures of one traced pass.
pub struct Pass {
    /// Per-layer metric name to value (seconds, counts, shares).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Self time of every compute layer (everything but rendering and the
    /// pass's own loop), for the engine's parallel efficiency.
    pub compute_s: f64,
    /// The pass's reports, for the output check.
    pub outputs: Outputs,
}

/// Runs one traced pass of `w`, tagging its spans with `run`.
pub fn pass(w: &Workload, tracer: &mut Tracer, run: u32) -> Pass {
    tracer.set_run(run);
    let outputs = match w.kind {
        Kind::SuiteFull => tracer.span("pass", |t| suite_pass(w, t)),
        Kind::SweepNqk => tracer.span("pass", |t| sweep_pass(w, t)),
        Kind::ServeBacklog => serve_pass(w, tracer),
    };
    let times = tracer.self_times(run);
    let self_s = |name: &str| times.get(name).map_or(0.0, |v| v.0);
    let count = |name: &str| times.get(name).map_or(0, |v| v.1);
    let wall = tracer.last_seconds("pass");
    let sim_s: f64 = SIM_SPANS.iter().map(|n| self_s(n)).sum();
    let sim_pairs = if w.kind.is_serving() {
        0
    } else {
        w.sim_pairs()
    };
    // The generate and execute probes run outside the pass (see
    // `serve_pass`); the replay is what `run_serving` spends beyond them.
    let generate_s = self_s("serve.generate");
    let execute_s = self_s("serve.execute");
    let replay_s = self_s("serve.run") - generate_s - execute_s;
    let served = if w.kind.is_serving() { w.requests() } else { 0 };
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total * 1e9 / n as f64 };

    let mut metrics = BTreeMap::new();
    metrics.insert("build.synth_s", self_s("build.synth"));
    metrics.insert("build.threshold_s", self_s("build.threshold"));
    metrics.insert("build.quantize_s", self_s("build.quantize"));
    metrics.insert("build.pack_s", self_s("build.pack"));
    metrics.insert("build.count", count("build") as f64);
    metrics.insert("sim.baseline_s", self_s("sim.baseline"));
    metrics.insert("sim.ae_s", self_s("sim.ae"));
    metrics.insert("sim.hp_s", self_s("sim.hp"));
    metrics.insert("sim.pruning_only_s", self_s("sim.pruning_only"));
    metrics.insert("sim.pairs", sim_pairs as f64);
    metrics.insert("sim.ns_per_pair", per(sim_s, sim_pairs));
    metrics.insert("aggregate_s", self_s("aggregate"));
    metrics.insert("serve.generate_s", generate_s);
    metrics.insert("serve.execute_s", execute_s);
    metrics.insert("serve.replay_s", replay_s);
    metrics.insert("serve.replay_ns_per_request", per(replay_s, served));
    metrics.insert("report.csv_s", self_s("report.csv"));
    metrics.insert("report.json_s", self_s("report.json"));
    metrics.insert("unattributed_share", self_s("pass") / wall);
    let compute_s = wall - self_s("pass") - self_s("report.csv") - self_s("report.json");
    Pass {
        metrics,
        compute_s,
        outputs,
    }
}

/// `build_head_workload`, one span per step, plus the first
/// `packed_keys_at` call of every bit-serial plan the run simulates.
fn build(
    t: &mut Tracer,
    task: &TaskDescriptor,
    options: &PipelineOptions,
    head: usize,
    configs: &[TileConfig],
) -> HeadWorkload {
    t.span("build", |t| {
        let s = sim_seq_len(task, options);
        let seed = head_seed(task, head);
        let head_dim = task.model_config().head_dim;
        let (q, k) = t.span("build.synth", |_| {
            synthesize_qk(s, head_dim, options.qk_correlation, seed)
        });
        let threshold = t.span("build.threshold", |_| {
            threshold_for_rate(&q, &k, task.paper_pruning_rate)
        });
        let workload = t.span("build.quantize", |_| {
            HeadWorkload::from_float(&q, &k, threshold, options.qk_bits)
        });
        let mut plans: Vec<_> = configs
            .iter()
            .map(|c| {
                let plan = c.bit_serial_plan();
                (plan.magnitude_bits, plan.bits_per_cycle, plan)
            })
            .collect();
        plans.sort_by_key(|p| (p.0, p.1));
        plans.dedup_by_key(|p| (p.0, p.1));
        for (_, _, plan) in plans {
            t.span("build.pack", |_| workload.packed_keys_at(plan));
        }
        workload
    })
}

/// The suite DAG in serial order: build each head, simulate the four units,
/// aggregate the task, then render the reports.
fn suite_pass(w: &Workload, t: &mut Tracer) -> Outputs {
    let configs: Vec<TileConfig> = SimUnitKind::ALL.iter().map(|k| k.tile_config()).collect();
    let cache = WorkloadCache::new();
    let mut results = Vec::with_capacity(w.suite.len());
    for task in &w.suite {
        let mut heads = Vec::new();
        for head in 0..w.pipeline.heads.max(1) {
            let key = WorkloadKey::new(task, &w.pipeline, head);
            let workload = cache.get_or_build(key, || build(t, task, &w.pipeline, head, &configs));
            let units = SimUnitKind::ALL
                .iter()
                .map(|&kind| {
                    Some(t.span(SIM_SPANS[kind.index()], |_| simulate_unit(&workload, kind)))
                })
                .collect();
            heads.push(HeadUnitResults::from_indexed(units));
        }
        results.push(t.span("aggregate", |_| aggregate_task(task, &w.pipeline, &heads)));
    }
    let report = SuiteReport {
        results,
        threads: 1,
        wall: Duration::ZERO,
        stages: StageTotals::default(),
        jobs: 0,
        cache: cache.stats(),
        schedule: SchedulePolicy::Fifo,
        metrics: None,
    };
    let csv = t.span("report.csv", |_| task_results_csv(&report.results));
    let json = t.span("report.json", |_| suite_report_json(&report));
    Outputs::suite(vec![csv, json], &report.results)
}

/// The nqk sweep in serial order: per design point, every task's head 0
/// from the workload cache, simulated on the point's configuration.
fn sweep_pass(w: &Workload, t: &mut Tracer) -> Outputs {
    let configs = [TileConfig::ae_leopard()];
    let cache = WorkloadCache::new();
    let mut points = Vec::new();
    for n_qk in NQK_POINTS {
        let config = TileConfig::ae_leopard().with_n_qk(n_qk);
        let mut row = Vec::with_capacity(w.suite.len());
        for task in &w.suite {
            let key = WorkloadKey::new(task, &w.pipeline, 0);
            let workload = cache.get_or_build(key, || build(t, task, &w.pipeline, 0, &configs));
            row.push(t.span("sim.ae", |_| simulate_head(&workload, &config)));
        }
        points.push(row);
    }
    Outputs::plain(vec![sweep_rows(&w.suite, &points)])
}

/// The serving run on a one-thread runner. Inside the pass: build every
/// head phase 1 needs into the runner's cache, call `run_serving`, render
/// the reports. Outside it, on the same warm runner, time the two layers
/// `run_serving` calls before its replay (`generate_requests` and
/// `measure_layer_makespans`), so the replay is `run_serving` minus those.
fn serve_pass(w: &Workload, t: &mut Tracer) -> Outputs {
    let options = w
        .serving
        .as_ref()
        .expect("the serve workload carries serving options");
    let runner = SuiteRunner::new(1);
    let requests = t.span("serve.generate", |_| generate_requests(&w.suite, options));
    let jobs = phase1_jobs(&w.suite, options, &requests);
    let configs = [options.config];
    let outputs = t.span("pass", |t| {
        // A task listed at several plan widths is built once; the repeats
        // are cache hits.
        for (_, task) in &jobs {
            for head in 0..options.pipeline.heads.max(1) {
                let key = WorkloadKey::new(task, &options.pipeline, head);
                runner
                    .cache()
                    .get_or_build(key, || build(t, task, &options.pipeline, head, &configs));
            }
        }
        let report = t.span("serve.run", |_| run_serving(&runner, &w.suite, options));
        let csv = t.span("report.csv", |_| serving_requests_csv(&report));
        let json = t.span("report.json", |_| serving_report_json(&report));
        Outputs::plain(vec![csv, json])
    });
    t.span("serve.execute", |_| {
        measure_layer_makespans(&runner, jobs, &options.pipeline, &options.config)
    });
    outputs
}
