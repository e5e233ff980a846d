//! Integration tests for the parallel suite-execution engine's headline
//! guarantee: results are bit-identical to the serial pipeline, for every
//! thread count, across repeated runs.

use leopard_runtime::engine::SuiteRunner;
use leopard_runtime::report::{suite_report_json, task_results_csv};
use leopard_workloads::pipeline::{run_task, PipelineOptions, TaskResult};
use leopard_workloads::suite::{full_suite, TaskDescriptor};

/// A reduced but representative suite: every 6th task, which covers MemN2N,
/// both BERT sizes, GLUE and SQuAD sequence lengths, and keeps the test
/// fast.
fn reduced_suite() -> Vec<TaskDescriptor> {
    full_suite()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 6 == 0)
        .map(|(_, t)| t)
        .collect()
}

fn reduced_options() -> PipelineOptions {
    PipelineOptions {
        max_sim_seq_len: 32,
        heads: 2,
        ..PipelineOptions::default()
    }
}

#[test]
fn parallel_results_equal_serial_pipeline() {
    let tasks = reduced_suite();
    let options = reduced_options();
    let serial: Vec<TaskResult> = tasks.iter().map(|t| run_task(t, &options)).collect();

    for threads in [1usize, 2, 4, 8] {
        let report = SuiteRunner::new(threads).run(&tasks, &options);
        assert_eq!(
            report.results, serial,
            "{threads}-thread engine results diverged from the serial pipeline"
        );
    }
}

#[test]
fn tile_partitioned_results_equal_serial_for_every_thread_count() {
    // The tile scheduler's engine-level conformance contract on the
    // integration axis: tiles x threads never changes a result, and the
    // rendered CSV (what the CI smoke compares) is byte-identical to the
    // single-tile single-thread run.
    let tasks = reduced_suite();
    let options = reduced_options();
    let reference = SuiteRunner::new(1).run(&tasks, &options);
    let reference_csv = task_results_csv(&reference.results);
    for tiles in [2usize, 3, 4] {
        let tiled_options = PipelineOptions { tiles, ..options };
        for threads in [1usize, 4] {
            let report = SuiteRunner::new(threads).run(&tasks, &tiled_options);
            assert_eq!(
                task_results_csv(&report.results),
                reference_csv,
                "tiles={tiles}, threads={threads} CSV diverged"
            );
        }
    }
}

#[test]
fn repeated_parallel_runs_are_deterministic() {
    let tasks = reduced_suite();
    let options = reduced_options();
    let first = SuiteRunner::new(4).run(&tasks, &options);
    let second = SuiteRunner::new(4).run(&tasks, &options);
    assert_eq!(first.results, second.results);

    // The rendered reports are byte-identical too, except for timing — CSV
    // carries no timing, so compare it wholesale.
    assert_eq!(
        task_results_csv(&first.results),
        task_results_csv(&second.results)
    );
}

#[test]
fn results_arrive_in_suite_order_regardless_of_completion_order() {
    // Tasks late in the suite (BERT/GPT-2, seq 512+) take far longer than
    // the bAbI tasks, so completion order differs from submission order;
    // the report must still be in input order.
    let tasks = reduced_suite();
    let report = SuiteRunner::new(4).run(&tasks, &reduced_options());
    let names: Vec<&str> = report.results.iter().map(|r| r.name.as_str()).collect();
    let expected: Vec<&str> = tasks.iter().map(|t| t.name.as_str()).collect();
    assert_eq!(names, expected);
}

#[test]
fn engine_accounts_for_every_job() {
    let tasks = reduced_suite();
    let options = reduced_options();
    let report = SuiteRunner::new(4).run(&tasks, &options);
    // Per task: heads builds + one fused sweep+fold job per head (all four
    // units) + 1 aggregate.
    let heads = options.heads;
    let expected = tasks.len() * (heads + heads + 1);
    assert_eq!(report.jobs, expected);
    assert_eq!(report.cache.misses as usize, tasks.len() * heads);
}

#[test]
fn json_report_is_stable_modulo_timing() {
    let tasks: Vec<TaskDescriptor> = reduced_suite().into_iter().take(3).collect();
    let options = reduced_options();
    let a = suite_report_json(&SuiteRunner::new(2).run(&tasks, &options));
    let b = suite_report_json(&SuiteRunner::new(2).run(&tasks, &options));
    let strip = |s: &str| -> Vec<String> {
        s.lines()
            .filter(|l| !l.contains("seconds"))
            .map(|l| l.to_string())
            .collect()
    };
    assert_eq!(strip(&a), strip(&b));
}

#[test]
fn shared_runner_cache_does_not_change_results() {
    // Reusing a warm cache (second run hits every workload) must not change
    // anything about the results.
    let tasks = reduced_suite();
    let options = reduced_options();
    let runner = SuiteRunner::new(2);
    let cold = runner.run(&tasks, &options);
    let warm = runner.run(&tasks, &options);
    assert_eq!(cold.results, warm.results);
    assert!(warm.cache.hits >= tasks.len() as u64 * 2);
}

#[test]
fn placement_by_tiles_by_threads_suite_csv_is_byte_identical() {
    // The layer scheduler's engine-level conformance contract: the
    // placement policy chooses *where* shards run and nothing else, so the
    // rendered suite CSV is byte-identical across every placement x tiles
    // x threads combination, including the single-tile single-thread
    // reference.
    use leopard_accel::schedule::Placement;
    let tasks = reduced_suite();
    let options = reduced_options();
    let reference_csv = task_results_csv(&SuiteRunner::new(1).run(&tasks, &options).results);
    for placement in Placement::ALL {
        for tiles in [1usize, 4] {
            let combo = PipelineOptions {
                tiles,
                placement,
                ..options
            };
            for threads in [1usize, 4] {
                let report = SuiteRunner::new(threads).run(&tasks, &combo);
                assert_eq!(
                    task_results_csv(&report.results),
                    reference_csv,
                    "placement={}, tiles={tiles}, threads={threads} CSV diverged",
                    placement.label()
                );
            }
        }
    }
}

#[test]
fn serve_request_csv_is_thread_count_independent_for_every_placement() {
    // Serving replays on a virtual clock: the worker thread count changes
    // wall time only, so the rendered request CSV (arrivals, waits,
    // service, completion — all virtual) is byte-identical between 1 and 4
    // threads for each placement policy at tiles=4.
    use leopard_accel::schedule::Placement;
    use leopard_runtime::report::serving_requests_csv;
    use leopard_runtime::serving::{run_serving, ServingOptions};
    let suite = full_suite();
    for placement in Placement::ALL {
        let options = ServingOptions {
            requests: 24,
            pipeline: PipelineOptions {
                max_sim_seq_len: 24,
                tiles: 4,
                placement,
                ..PipelineOptions::default()
            },
            ..ServingOptions::default()
        };
        let csv_1 = serving_requests_csv(&run_serving(&SuiteRunner::new(1), &suite, &options));
        let csv_4 = serving_requests_csv(&run_serving(&SuiteRunner::new(4), &suite, &options));
        assert_eq!(
            csv_1,
            csv_4,
            "placement={} serve CSV moved with the thread count",
            placement.label()
        );
    }
}
