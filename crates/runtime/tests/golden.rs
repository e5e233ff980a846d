//! Golden-file snapshot tests for the CLI's structured report output.
//!
//! The existing determinism tests compare a run against *itself* at other
//! thread counts — they cannot see accidental report-format drift (a
//! renamed CSV column, a reordered JSON key, a precision change) because
//! both sides drift together. These tests pin the rendered bytes of one
//! `suite` run and one `serve` run at a fixed seed against fixtures
//! committed in `tests/fixtures/`, so any change to report content or
//! format shows up as a reviewable fixture diff.
//!
//! CSV fixtures are compared byte-for-byte. JSON fixtures are compared
//! after masking the wall-clock lines (`*_seconds`), which are the only
//! non-deterministic fields; everything else — cache counters, job counts,
//! cycle numbers, float formatting — is part of the snapshot. Outputs too
//! large to commit (a deep-queue replay, traced runs' Chrome traces with
//! the pid-1 wall-clock fields masked, their metrics JSON) are pinned by
//! length and FNV-1a-64 digest constants in this file instead.
//!
//! To regenerate after an intentional format change:
//!
//! ```text
//! LEOPARD_BLESS=1 cargo test -p leopard-runtime --test golden
//! ```

use leopard_runtime::engine::SuiteRunner;
use leopard_runtime::report::{
    serving_report_json, serving_requests_csv, suite_report_json, task_results_csv,
};
use leopard_runtime::serving::{run_serving, ServingOptions};
use leopard_workloads::pipeline::PipelineOptions;
use leopard_workloads::suite::{full_suite, TaskDescriptor};

mod common;
use common::{
    assert_golden, mask_timing, pinned_pipeline, pinned_tasks, traced_pinned_suite, traced_serve,
};

#[test]
fn suite_reports_match_golden_fixtures() {
    let tasks = pinned_tasks();
    assert_eq!(tasks.len(), 4, "pinned slice changed size");
    let runner = SuiteRunner::new(2);
    let report = runner.run(&tasks, &pinned_pipeline());
    assert_golden("suite.csv", &task_results_csv(&report.results));
    assert_golden("suite.json", &mask_timing(&suite_report_json(&report)));
}

#[test]
fn serve_reports_match_golden_fixtures() {
    let suite: Vec<TaskDescriptor> = full_suite().into_iter().take(8).collect();
    let runner = SuiteRunner::new(2);
    let options = ServingOptions {
        requests: 16,
        servers: 4,
        pipeline: pinned_pipeline(),
        ..ServingOptions::default()
    };
    let report = run_serving(&runner, &suite, &options);
    assert_golden("serve.csv", &serving_requests_csv(&report));
    assert_golden("serve.json", &mask_timing(&serving_report_json(&report)));
}

#[test]
fn faulted_serve_reports_match_golden_fixtures() {
    // Pins the fault-tolerance layer end to end: a transient-fault stream,
    // a mid-run two-event tile outage, a slow tile, retries with backoff,
    // and SLO degradation. A change to the fault PRF, the backoff rule,
    // the degradation ladder, the topology-aware replan, or the report's
    // fault_tolerance block moves these bytes.
    use leopard_runtime::faults::{FaultPlan, SlowTile, TileFaultEvent, TileFaultKind};
    let suite: Vec<TaskDescriptor> = full_suite().into_iter().take(8).collect();
    let runner = SuiteRunner::new(2);
    let options = ServingOptions {
        requests: 16,
        servers: 4,
        slo_cycles: Some(1_200),
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
        pipeline: pinned_pipeline(),
        ..ServingOptions::default()
    };
    let report = run_serving(&runner, &suite, &options);
    let summary = report.fault_summary.as_ref().expect("fault layer active");
    // The fixture must actually exercise the machinery it pins.
    assert!(summary.transient_faults > 0, "no transient faults drawn");
    assert!(summary.retries > 0, "no retries happened");
    assert_eq!(summary.tile_fail_events, 1);
    assert_eq!(summary.tile_recover_events, 1);
    assert_eq!(summary.min_live_tiles, 3);
    assert_golden("serve_faulted.csv", &serving_requests_csv(&report));
    assert_golden(
        "serve_faulted.json",
        &mask_timing(&serving_report_json(&report)),
    );
}

#[test]
fn tiled_serve_report_matches_golden_fixture() {
    // Pins the 2-tile schedule's service-cycle accounting: a change to the
    // tile partition, the shard merge, or the makespan rule moves these
    // bytes.
    let suite: Vec<TaskDescriptor> = full_suite().into_iter().take(8).collect();
    let runner = SuiteRunner::new(2);
    let options = ServingOptions {
        requests: 16,
        servers: 4,
        pipeline: PipelineOptions {
            tiles: 2,
            ..pinned_pipeline()
        },
        ..ServingOptions::default()
    };
    let report = run_serving(&runner, &suite, &options);
    assert_eq!(report.tiles, 2);
    assert_golden("serve_tiles2.csv", &serving_requests_csv(&report));
}

#[test]
fn placement_serve_reports_match_golden_fixtures() {
    // Pins the policy-dependent service cycles: two heads over four tiles
    // is where the policies genuinely diverge — round-robin (like lpt)
    // splits each head across two spare tiles, while static keeps every
    // head whole, so its service cycles are the full head makespan. A
    // change to the layer planner, the canonical head order, the split-
    // widening rule, or the gang dispatch rule moves these bytes.
    use leopard_accel::schedule::Placement;
    let suite: Vec<TaskDescriptor> = full_suite().into_iter().take(8).collect();
    let mut snapshots = Vec::new();
    for (placement, fixture) in [
        (Placement::RoundRobin, "serve_tiles4_rr.csv"),
        (Placement::Static, "serve_tiles4_static.csv"),
    ] {
        let runner = SuiteRunner::new(2);
        let options = ServingOptions {
            requests: 16,
            servers: 4,
            pipeline: PipelineOptions {
                tiles: 4,
                heads: 2,
                placement,
                ..pinned_pipeline()
            },
            ..ServingOptions::default()
        };
        let report = run_serving(&runner, &suite, &options);
        assert_eq!(report.placement, placement);
        let csv = serving_requests_csv(&report);
        assert_golden(fixture, &csv);
        snapshots.push(csv);
    }
    // The two policies must actually disagree here, or the pair of
    // fixtures pins nothing placement-specific.
    assert_ne!(
        snapshots[0], snapshots[1],
        "rr and static snapshots coincide — the fixture config no longer discriminates"
    );
}

/// FNV-1a, 64-bit: a dependency-free digest for pinning outputs too large
/// to commit as fixtures.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The deep-queue scenario: 2×10⁴ requests far above capacity on 8 tiles
/// in gangs of 3, through a tile outage that shrinks the live set below
/// the gang size (reduced-width plans) and a recovery, a slow tile,
/// transient faults with retries, and SLO deferral.
fn deep_queue_faulted_options() -> ServingOptions {
    use leopard_runtime::faults::{FaultPlan, SlowTile, TileFaultEvent, TileFaultKind};
    let event = |cycle, tile, kind| TileFaultEvent { cycle, tile, kind };
    let mut tile_events = vec![event(300_000, 1, TileFaultKind::Fail)];
    for tile in [2, 4, 5, 6, 7] {
        tile_events.push(event(500_000, tile, TileFaultKind::Fail));
    }
    for tile in [1, 2, 4, 5, 6, 7] {
        tile_events.push(event(650_000, tile, TileFaultKind::Recover));
    }
    ServingOptions {
        requests: 20_000,
        servers: 8,
        slo_cycles: Some(600_000),
        retry_max: 2,
        faults: Some(FaultPlan {
            seed: 11,
            fail_rate: 0.05,
            tile_events,
            slow_tiles: vec![SlowTile {
                tile: 3,
                multiplier_pct: 140,
            }],
        }),
        pipeline: PipelineOptions {
            tiles: 3,
            ..pinned_pipeline()
        },
        ..ServingOptions::default()
    }
}

#[test]
fn deep_queue_faulted_serve_matches_pinned_digest() {
    // The other serve goldens replay 16 requests and never build a deep
    // queue. This one's CSV and masked JSON are pinned by length and
    // FNV-1a-64 digest rather than as multi-megabyte fixtures.
    let runner = SuiteRunner::new(2);
    let report = run_serving(&runner, &full_suite(), &deep_queue_faulted_options());
    let summary = report.fault_summary.as_ref().expect("fault layer active");
    // The run must actually build the deep queue and drive the live set
    // below the gang size and back.
    assert!(report.max_queue_depth() > 10_000, "queue never got deep");
    assert_eq!(summary.min_live_tiles, 2);
    assert_eq!(summary.tile_fail_events, 6);
    assert_eq!(summary.tile_recover_events, 6);
    assert!(summary.transient_faults > 0 && summary.slo_deferrals > 0);
    assert!(!report.shed.is_empty(), "nothing exhausted its retries");
    let csv = serving_requests_csv(&report);
    assert_eq!(
        (csv.len(), fnv1a64(csv.as_bytes())),
        (557_407, 0x73c0_0b6e_b51e_e0e0),
        "deep-queue serve CSV drifted"
    );
    let json = mask_timing(&serving_report_json(&report));
    assert_eq!(
        (json.len(), fnv1a64(json.as_bytes())),
        (3_609_016, 0xd07c_4b4f_012e_6769),
        "deep-queue serve JSON drifted"
    );
}

/// `(length, FNV-1a-64)` of a rendered output.
fn digest(text: &str) -> (usize, u64) {
    (text.len(), fnv1a64(text.as_bytes()))
}

#[test]
fn deep_queue_faulted_serve_trace_and_metrics_match_pinned_digests() {
    // Every fault-path trace event on a deep queue: transient-fault
    // instants, retry spans (transient and SLO deferrals), retries-
    // exhausted sheds, tile inject/recover instants and slow-tile
    // dispatch spans, plus the queue-depth and in-flight counters.
    let (report, trace, metrics) = traced_serve(2, &full_suite(), &deep_queue_faulted_options());
    let summary = report.fault_summary.as_ref().expect("fault layer active");
    assert!(summary.shed_after_retries > 0, "no retries-exhausted sheds");
    assert!(metrics.contains("serve.shed.retries_exhausted"));
    assert_eq!(
        digest(&trace),
        (10_467_453, 0x33d3_6515_f8e7_c333),
        "deep-queue trace drifted"
    );
    assert_eq!(
        digest(&metrics),
        (1_092, 0xaedc_18d5_0976_b6e2),
        "deep-queue metrics drifted"
    );
}

#[test]
fn suite_trace_matches_pinned_digest() {
    // Every suite span (build, sweep+fold, aggregate) with its task, head
    // and tile tags: a change to the engine's job decomposition moves
    // these bytes.
    let (report, trace) = traced_pinned_suite(2);
    assert_eq!(report.results.len(), 4, "pinned slice changed size");
    assert_eq!(
        digest(&trace),
        (3_030, 0x6765_c37c_4f5b_2b06),
        "suite trace drifted"
    );
}

#[test]
fn degraded_outage_serve_trace_and_metrics_match_pinned_digests() {
    // Graceful degradation under an SLO, then a permanent outage of every
    // tile: `degrade` instants while tiles are live, and the stranded
    // requests shed as `serve.shed.no_live_tiles` once none are.
    use leopard_runtime::faults::{FaultPlan, TileFaultEvent, TileFaultKind};
    let fail = |tile| TileFaultEvent {
        cycle: 2_500,
        tile,
        kind: TileFaultKind::Fail,
    };
    let options = ServingOptions {
        requests: 64,
        servers: 4,
        slo_cycles: Some(2_000),
        retry_max: 1,
        degrade: true,
        faults: Some(FaultPlan {
            seed: 5,
            fail_rate: 0.1,
            tile_events: (0..4).map(fail).collect(),
            slow_tiles: Vec::new(),
        }),
        pipeline: pinned_pipeline(),
        ..ServingOptions::default()
    };
    let (report, trace, metrics) = traced_serve(2, &full_suite(), &options);
    let summary = report.fault_summary.as_ref().expect("fault layer active");
    assert!(summary.degraded > 0, "nothing served degraded");
    assert_eq!(summary.min_live_tiles, 0);
    assert!(trace.contains("\"cat\": \"degrade\""));
    assert!(metrics.contains("serve.shed.no_live_tiles"));
    assert_eq!(
        digest(&trace),
        (34_664, 0x90ae_471d_5f80_6ccd),
        "degraded-outage trace drifted"
    );
    assert_eq!(
        digest(&metrics),
        (824, 0x7a40_1988_140c_e927),
        "degraded-outage metrics drifted"
    );
}
