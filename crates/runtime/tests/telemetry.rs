//! Trace-export and observe-only contract tests for the telemetry layer.
//!
//! Four properties are pinned here:
//!
//! 1. **Observe-only** — enabling telemetry changes no report bytes: the
//!    CSV and (timing-masked) JSON renderings of a suite and a serve run
//!    are byte-identical with telemetry on or off.
//! 2. **Golden trace** — the Chrome trace of one pinned serve run at
//!    `threads = 1` is snapshotted in `tests/fixtures/trace_serve.json`
//!    with the wall-clock quantities (`tid`/`ts`/`dur` of pid-1 span
//!    lines) masked, so every virtual-clock field — dispatch cycles,
//!    service durations, queue-depth counters, shed instants — is part of
//!    the fixture.
//! 3. **Thread-count independence** — the masked trace of a serve run and
//!    of a suite run is *byte-identical* between 1 and 4 worker threads
//!    (strictly stronger than the set of spans being equal): the export
//!    sorts on a key that excludes every wall-clock quantity, so
//!    interleaving differences cannot leak into the file.
//! 4. **Time-series** — the `in_flight` and `queue_depth` counters hold
//!    one sample per settled instant where their own series changed: each
//!    advances strictly in virtual time, no sample repeats its series'
//!    previous value, and `in_flight` never counts more busy tiles than
//!    there are.
//!
//! Regenerate the fixture after an intentional format change:
//!
//! ```text
//! LEOPARD_BLESS=1 cargo test -p leopard-runtime --test telemetry
//! ```
#![allow(clippy::expect_used, reason = "test code may panic")]

use leopard_runtime::engine::{SuiteReport, SuiteRunner};
use leopard_runtime::report::{
    serving_report_json, serving_requests_csv, suite_report_json, task_results_csv,
};
use leopard_runtime::serving::{run_serving, ServingOptions, ServingReport};
use leopard_workloads::pipeline::PipelineOptions;
use leopard_workloads::suite::{full_suite, TaskDescriptor};

mod common;
use common::{
    assert_golden, mask_timing, pinned_pipeline, pinned_tasks, traced_pinned_suite, traced_serve,
};

fn pinned_serve_options() -> ServingOptions {
    ServingOptions {
        requests: 16,
        servers: 4,
        pipeline: pinned_pipeline(),
        ..ServingOptions::default()
    }
}

/// Runs the pinned serve scenario at `threads` threads with telemetry on
/// and returns the report plus the wall-masked Chrome trace.
fn traced_pinned_serve(threads: usize) -> (ServingReport, String) {
    let suite: Vec<TaskDescriptor> = full_suite().into_iter().take(8).collect();
    let (report, trace, _) = traced_serve(threads, &suite, &pinned_serve_options());
    (report, trace)
}

#[test]
fn suite_reports_are_byte_identical_with_telemetry_enabled() {
    let tasks = pinned_tasks();
    let plain = SuiteRunner::new(2).run(&tasks, &pinned_pipeline());
    let traced = SuiteRunner::new(2)
        .with_telemetry()
        .run(&tasks, &pinned_pipeline());
    assert_eq!(
        task_results_csv(&plain.results),
        task_results_csv(&traced.results),
        "suite CSV must not change when telemetry is on"
    );
    assert_eq!(
        mask_timing(&suite_report_json(&plain)),
        mask_timing(&suite_report_json(&traced)),
        "suite JSON must not change when telemetry is on"
    );
}

#[test]
fn serve_reports_are_byte_identical_with_telemetry_enabled() {
    let suite: Vec<TaskDescriptor> = full_suite().into_iter().take(8).collect();
    let plain_runner = SuiteRunner::new(2);
    let plain = run_serving(&plain_runner, &suite, &pinned_serve_options());
    let (traced, _) = traced_pinned_serve(2);
    assert_eq!(
        serving_requests_csv(&plain),
        serving_requests_csv(&traced),
        "serve CSV must not change when telemetry is on"
    );
    assert_eq!(
        mask_timing(&serving_report_json(&plain)),
        mask_timing(&serving_report_json(&traced)),
        "serve JSON must not change when telemetry is on"
    );
}

#[test]
fn serve_trace_matches_golden_fixture_with_wall_clock_masked() {
    let (report, trace) = traced_pinned_serve(1);
    assert!(
        !report.records.is_empty(),
        "pinned scenario admits requests"
    );
    // Structural sanity before snapshotting: one event per line inside a
    // balanced traceEvents array.
    assert!(trace.starts_with("{\n\"traceEvents\": [\n"));
    assert_eq!(trace.matches('{').count(), trace.matches('}').count());
    assert_eq!(trace.matches('[').count(), trace.matches(']').count());
    assert_golden("trace_serve.json", &trace);
}

#[test]
fn masked_trace_is_byte_identical_across_thread_counts() {
    let (report_1, masked_1) = traced_pinned_serve(1);
    let (report_4, masked_4) = traced_pinned_serve(4);
    assert_eq!(report_1.records, report_4.records);
    // The set of spans (names, tags, virtual-clock fields) is identical...
    let mut lines_1: Vec<&str> = masked_1.lines().collect();
    let mut lines_4: Vec<&str> = masked_4.lines().collect();
    lines_1.sort_unstable();
    lines_4.sort_unstable();
    assert_eq!(lines_1, lines_4, "span sets differ across thread counts");
    // ... and the deterministic export order makes the whole file equal.
    assert_eq!(masked_1, masked_4, "masked traces differ byte-wise");
}

#[test]
fn suite_trace_and_metrics_are_identical_across_thread_counts() {
    let (report_1, masked_1) = traced_pinned_suite(1);
    let (report_4, masked_4) = traced_pinned_suite(4);
    assert_eq!(report_1.results, report_4.results);
    assert_eq!(masked_1, masked_4, "masked suite traces differ byte-wise");
    // No metric depends on scheduling, so the whole file is equal.
    let metrics = |report: SuiteReport| report.metrics.expect("metrics snapshot").to_json();
    assert_eq!(metrics(report_1), metrics(report_4));
}

#[test]
fn serve_metrics_snapshot_is_consistent_with_the_report() {
    let (report, _) = traced_pinned_serve(2);
    let metrics = report.metrics.as_ref().expect("metrics snapshot");
    assert_eq!(
        metrics.counter("serve.requests.admitted"),
        Some(report.records.len() as u64)
    );
    assert_eq!(metrics.counter("serve.requests.offered"), Some(16));
    let histogram = metrics
        .histogram("serve.latency_cycles")
        .expect("latency histogram");
    assert_eq!(histogram.total, report.records.len() as u64);
    // The snapshot renders as structurally valid JSON.
    let json = metrics.to_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains("\"serve.latency_cycles\""));
}

/// The `(ts, value)` pairs of the trace counter `name`, in file order.
fn counter_samples(trace: &str, name: &str) -> Vec<(u64, u64)> {
    let name = format!("\"name\": \"{name}\"");
    let number = |line: &str, key: &str| -> u64 {
        let start = line.find(key).expect("counter line has the key") + key.len();
        let digits = line[start..].split(|c: char| !c.is_ascii_digit()).next();
        digits.and_then(|d| d.parse().ok()).expect("a number")
    };
    trace
        .lines()
        .filter(|line| line.contains(&name))
        .map(|line| (number(line, "\"ts\": "), number(line, "\"value\": ")))
        .collect()
}

#[test]
fn in_flight_counter_advances_in_virtual_time_within_the_tile_count() {
    // Single-tile requests on 32 servers, and gangs of 2 on 4 servers,
    // where every busy gang holds both of its tiles.
    for (tasks, servers, tiles) in [(6, 32, 1), (4, 4, 2)] {
        let suite: Vec<TaskDescriptor> = full_suite().into_iter().take(tasks).collect();
        let options = ServingOptions {
            requests: 40,
            servers,
            pipeline: PipelineOptions {
                tiles,
                ..pinned_pipeline()
            },
            ..ServingOptions::default()
        };
        let (_, trace, _) = traced_serve(2, &suite, &options);
        for counter in ["in_flight", "queue_depth"] {
            let samples = counter_samples(&trace, counter);
            assert!(!samples.is_empty(), "a serve settles at least once");
            for pair in samples.windows(2) {
                assert!(pair[0].0 < pair[1].0, "{counter} instants repeat: {pair:?}");
                assert_ne!(pair[0].1, pair[1].1, "{counter} repeats a value: {pair:?}");
            }
        }
        for &(cycle, busy) in &counter_samples(&trace, "in_flight") {
            assert!(busy <= servers as u64, "{busy} busy tiles at {cycle}");
            assert_eq!(busy % tiles as u64, 0, "a gang split at {cycle}");
        }
    }
}
