//! Snapshot helpers shared by the golden-output test targets.
#![allow(clippy::expect_used, clippy::panic, reason = "test code may panic")]

use leopard_runtime::engine::{SuiteReport, SuiteRunner};
use leopard_runtime::serving::{run_serving, ServingOptions, ServingReport};
use leopard_workloads::pipeline::PipelineOptions;
use leopard_workloads::suite::{full_suite, TaskDescriptor};
use std::path::PathBuf;

/// Compares `actual` against the committed fixture in `tests/fixtures/`,
/// or rewrites the fixture when `LEOPARD_BLESS` is set. On mismatch the
/// first differing line is reported, which localizes format drift
/// immediately.
pub fn assert_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    if std::env::var_os("LEOPARD_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let bless = format!(
        "regenerate with LEOPARD_BLESS=1 cargo test -p leopard-runtime --test {}",
        env!("CARGO_CRATE_NAME")
    );
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); {bless}", path.display()));
    if expected != actual {
        for (line, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
            assert_eq!(want, got, "{name} drifted at line {} ({bless})", line + 1);
        }
        panic!(
            "{name} drifted in length: fixture {} lines, actual {} lines",
            expected.lines().count(),
            actual.lines().count()
        );
    }
}

/// Masks the wall-clock-dependent JSON report lines (`wall_seconds`,
/// `stage_seconds`), keeping everything else.
pub fn mask_timing(json: &str) -> String {
    json.lines()
        .map(|line| {
            if line.trim_start().starts_with("\"wall_seconds\"")
                || line.trim_start().starts_with("\"stage_seconds\"")
            {
                let key_end = line.find(':').expect("masked line has a key");
                format!("{}: \"<timing>\",", &line[..key_end])
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

/// Masks the wall-clock quantities of a Chrome trace: the `tid`, `ts` and
/// `dur` values of every pid-1 (pool worker) span line. Virtual-clock
/// (pid-2) lines and the process-name metadata pass through untouched.
pub fn mask_wall_clock(trace: &str) -> String {
    trace
        .lines()
        .map(|line| {
            let mut line = line.to_string();
            if line.contains("\"pid\": 1,") && !line.contains("\"ph\": \"M\"") {
                for key in ["tid", "ts", "dur"] {
                    let needle = format!("\"{key}\": ");
                    let start = line.find(&needle).expect("wall span has the key") + needle.len();
                    let end = start + line[start..].find(',').expect("key is not last");
                    line.replace_range(start..end, &format!("<{key}>"));
                }
            }
            line + "\n"
        })
        .collect()
}

/// The pipeline the snapshots run: sequences capped at 24.
pub fn pinned_pipeline() -> PipelineOptions {
    PipelineOptions {
        max_sim_seq_len: 24,
        ..PipelineOptions::default()
    }
}

/// A deterministic four-task slice spanning the suite's families.
pub fn pinned_tasks() -> Vec<TaskDescriptor> {
    full_suite().into_iter().step_by(11).collect()
}

/// Runs the pinned slice as a suite at `threads` threads with telemetry on,
/// two heads on two tiles, and returns the report and the wall-masked
/// Chrome trace.
pub fn traced_pinned_suite(threads: usize) -> (SuiteReport, String) {
    let options = PipelineOptions {
        tiles: 2,
        heads: 2,
        ..pinned_pipeline()
    };
    let runner = SuiteRunner::new(threads).with_telemetry();
    let report = runner.run(&pinned_tasks(), &options);
    let telemetry = runner.telemetry().expect("telemetry enabled");
    (report, mask_wall_clock(&telemetry.chrome_trace_json()))
}

/// Runs `options` on `suite` at `threads` threads with telemetry on and
/// returns the report, the wall-masked Chrome trace and the metrics JSON.
pub fn traced_serve(
    threads: usize,
    suite: &[TaskDescriptor],
    options: &ServingOptions,
) -> (ServingReport, String, String) {
    let runner = SuiteRunner::new(threads).with_telemetry();
    let report = run_serving(&runner, suite, options);
    let telemetry = runner.telemetry().expect("telemetry enabled");
    let trace = mask_wall_clock(&telemetry.chrome_trace_json());
    (report, trace, telemetry.metrics().snapshot().to_json())
}
