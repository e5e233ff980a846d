//! Every report and telemetry export streams into an `io::Write` with
//! exactly the bytes of its `String` wrapper. The sink here accepts at
//! most seven bytes per `write` call, so every row the renderers hand over
//! is split across calls, as a short write to a file or pipe would split
//! it.
#![allow(clippy::expect_used, reason = "test code may panic")]

use leopard_runtime::engine::SuiteRunner;
use leopard_runtime::faults::{FaultPlan, SlowTile, TileFaultEvent, TileFaultKind};
use leopard_runtime::report::{
    serving_report_json, serving_requests_csv, suite_report_json, task_results_csv,
    write_serving_report_json, write_serving_requests_csv, write_suite_report_json,
    write_task_results_csv,
};
use leopard_runtime::serving::{run_serving, ServingOptions};
use leopard_runtime::Telemetry;
use leopard_workloads::pipeline::PipelineOptions;
use leopard_workloads::suite::{full_suite, TaskDescriptor};
use std::io::{self, Write};

/// Sequences capped at 24, as in the golden snapshots.
fn pinned_pipeline() -> PipelineOptions {
    PipelineOptions {
        max_sim_seq_len: 24,
        ..PipelineOptions::default()
    }
}

/// A sink that takes at most seven bytes per call.
struct Trickle(Vec<u8>);

impl Write for Trickle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = buf.len().min(7);
        self.0.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What `render` streams into a [`Trickle`].
fn streamed(render: impl FnOnce(&mut Trickle) -> io::Result<()>) -> String {
    let mut sink = Trickle(Vec::new());
    render(&mut sink).expect("the sink accepts every byte");
    String::from_utf8(sink.0).expect("renderers write UTF-8")
}

/// The trace and the metrics snapshot stream their wrappers' bytes.
fn assert_exports_stream(telemetry: &Telemetry) {
    let trace = telemetry.chrome_trace_json();
    assert!(trace.contains("\"pid\": 1,"), "the run recorded wall spans");
    assert_eq!(streamed(|w| telemetry.write_chrome_trace(w)), trace);
    let metrics = telemetry.metrics().snapshot();
    assert!(!metrics.counters.is_empty(), "the run counted something");
    assert_eq!(streamed(|w| metrics.write_json(w)), metrics.to_json());
}

#[test]
fn suite_reports_and_exports_stream_their_wrapper_bytes() {
    let tasks: Vec<TaskDescriptor> = full_suite().into_iter().take(3).collect();
    let runner = SuiteRunner::new(2).with_telemetry();
    let report = runner.run(&tasks, &pinned_pipeline());
    assert_eq!(
        streamed(|w| write_suite_report_json(&report, w)),
        suite_report_json(&report)
    );
    assert_eq!(
        streamed(|w| write_task_results_csv(&report.results, w)),
        task_results_csv(&report.results)
    );
    assert_exports_stream(runner.telemetry().expect("telemetry on"));
}

#[test]
fn serve_reports_and_exports_stream_their_wrapper_bytes_with_faults_off_and_on() {
    let suite: Vec<TaskDescriptor> = full_suite().into_iter().take(8).collect();
    let off = ServingOptions {
        requests: 48,
        servers: 4,
        slo_cycles: Some(1_200),
        pipeline: pinned_pipeline(),
        ..ServingOptions::default()
    };
    let on = ServingOptions {
        retry_max: 2,
        backoff_base_cycles: 64,
        degrade: true,
        faults: Some(FaultPlan {
            seed: 7,
            fail_rate: 0.25,
            tile_events: vec![
                TileFaultEvent {
                    cycle: 300,
                    tile: 1,
                    kind: TileFaultKind::Fail,
                },
                TileFaultEvent {
                    cycle: 900,
                    tile: 1,
                    kind: TileFaultKind::Recover,
                },
            ],
            slow_tiles: vec![SlowTile {
                tile: 3,
                multiplier_pct: 150,
            }],
        }),
        ..off.clone()
    };
    for options in [off, on] {
        let runner = SuiteRunner::new(2).with_telemetry();
        let report = run_serving(&runner, &suite, &options);
        assert!(!report.records.is_empty() && !report.shed.is_empty());
        assert_eq!(
            report.fault_summary.is_some(),
            options.fault_tolerance_active()
        );
        assert_eq!(
            streamed(|w| write_serving_report_json(&report, w)),
            serving_report_json(&report)
        );
        assert_eq!(
            streamed(|w| write_serving_requests_csv(&report, w)),
            serving_requests_csv(&report)
        );
        assert_exports_stream(runner.telemetry().expect("telemetry on"));
    }
}
