//! The three virtual-cycle ablations, pinned exactly, and the kernel's
//! wall-clock speedup over the scalar reference on both dispatch paths.
//!
//! Tile scaling, layer placement and fault recovery run on the virtual
//! tile clock with seeded inputs, so every number they produce is the same
//! on any machine at any thread count: each one is pinned to the cycle or
//! to the bit. The kernel timing is the only wall-clock check; it is
//! `#[ignore]`d because it only means something in a release build:
//!
//! ```text
//! cargo test --release --test ablations -- --ignored
//! ```
#![allow(clippy::expect_used, reason = "test code may panic")]

use leopard::accel::config::TileConfig;
use leopard::accel::energy::EnergyModel;
use leopard::accel::kernel_v2::KernelPath;
use leopard::accel::schedule::{schedule_layer, Placement};
use leopard::accel::sim::{
    merge_shards, simulate_head, simulate_head_reference, simulate_rows, CacheCensus,
    HeadSimResult, HeadWorkload,
};
use leopard::runtime::faults::FaultPlan;
use leopard::runtime::serving::{run_serving, ServingOptions, ServingReport};
use leopard::runtime::SuiteRunner;
use leopard::workloads::pipeline::{synthesize_qk, threshold_for_rate, PipelineOptions};
use leopard::workloads::suite::full_suite;
use std::time::Instant;

/// One synthetic head at d = 64, 12-bit codes and 70% target pruning.
fn head(s: usize, seed: u64) -> HeadWorkload {
    let (q, k) = synthesize_qk(s, 64, 0.35, seed);
    let threshold = threshold_for_rate(&q, &k, 0.7);
    HeadWorkload::from_float(&q, &k, threshold, 12)
}

#[test]
fn tile_scaling_makespans_are_pinned() {
    let config = TileConfig::ae_leopard();
    let workload = head(256, 42);
    let reference = simulate_head_reference(&workload, &config);
    assert_eq!(reference.total_cycles, 43_248);
    // One head split across `tiles` tiles: the one-head layer plan.
    let makespans: Vec<u64> = (1..=8)
        .map(|tiles| {
            let config = TileConfig { tiles, ..config };
            let heads = std::slice::from_ref(&workload);
            let layer = schedule_layer(heads, &config, &EnergyModel::calibrated(), Placement::Lpt);
            assert_eq!(layer.heads[0].merged, reference, "{tiles} tiles diverged");
            layer.makespan_cycles
        })
        .collect();
    assert_eq!(
        makespans,
        [43_248, 21_674, 14_507, 10_909, 8_793, 7_450, 6_381, 5_547]
    );
}

#[test]
fn layer_placement_makespans_are_pinned() {
    const HEAD_LENS: [usize; 12] = [192, 168, 144, 120, 104, 88, 72, 56, 48, 32, 24, 16];
    let mut config = TileConfig::ae_leopard();
    config.tiles = 4;
    let model = EnergyModel::calibrated();
    let workloads: Vec<HeadWorkload> = (0..)
        .zip(HEAD_LENS)
        .map(|(h, s)| head(s, 0x1A7E5 + h))
        .collect();
    let schedules: Vec<_> = Placement::ALL
        .iter()
        .map(|&placement| schedule_layer(&workloads, &config, &model, placement))
        .collect();
    let lpt = &schedules[0];
    for schedule in &schedules {
        for (h, workload) in workloads.iter().enumerate() {
            assert_eq!(
                schedule.heads[h].merged,
                simulate_head(workload, &config),
                "{}: head {h} diverged from single-tile execution",
                schedule.placement.label()
            );
        }
        assert_eq!(
            schedule.energy.total().to_bits(),
            lpt.energy.total().to_bits()
        );
        assert_eq!(schedule.pruning_rate.to_bits(), lpt.pruning_rate.to_bits());
    }
    let measured: Vec<u64> = schedules.iter().map(|s| s.makespan_cycles).collect();
    let predicted: Vec<u64> = schedules
        .iter()
        .map(|s| s.predicted_makespan_cycles)
        .collect();
    // In `Placement::ALL` order: LPT, round-robin, static.
    assert_eq!(measured, [24_435, 33_555, 33_555]);
    assert_eq!(predicted, [37_056, 50_744, 50_744]);
}

/// `(served, shed, retries, degraded, slo_met, goodput_rps bits)`.
fn fault_row(report: &ServingReport) -> (usize, usize, u64, u64, usize, u64) {
    let summary = report.fault_summary.as_ref().expect("fault layer active");
    (
        report.records.len(),
        report.shed.len(),
        summary.retries,
        summary.degraded,
        report.slo_met(),
        report.goodput_rps().to_bits(),
    )
}

#[test]
fn fault_recovery_policies_are_pinned() {
    const SERVERS: usize = 4;
    let plan = FaultPlan::from_json(include_str!("../examples/fault_plan.json"))
        .and_then(|plan| plan.validated(SERVERS).map_err(|e| e.to_string()))
        .expect("examples/fault_plan.json is valid");
    // The first eight suite tasks at s <= 24, the slice the golden serve
    // fixtures pin.
    let suite: Vec<_> = full_suite().into_iter().take(8).collect();
    let runner = SuiteRunner::new(2);
    let run = |retry_max, degrade| {
        let options = ServingOptions {
            requests: 240,
            rate_rps: 5.0e6,
            servers: SERVERS,
            slo_cycles: Some(800),
            retry_max,
            backoff_base_cycles: 48,
            degrade,
            faults: Some(plan.clone()),
            pipeline: PipelineOptions {
                max_sim_seq_len: 24,
                ..PipelineOptions::default()
            },
            ..ServingOptions::default()
        };
        run_serving(&runner, &suite, &options)
    };
    let shed_only = run(0, false);
    let resilient = run(5, true);
    for report in [&shed_only, &resilient] {
        assert_eq!(report.offered(), 240);
        assert_eq!(report.offered(), report.records.len() + report.shed.len());
    }
    assert_eq!(resilient.fault_summary.as_ref().unwrap().min_live_tiles, 2);
    // Goodput 1,741,299.6 and 3,811,097.9 SLO-met requests per second.
    assert_eq!(
        fault_row(&shed_only),
        (89, 151, 0, 0, 89, 4_700_229_636_623_458_724)
    );
    assert_eq!(
        fault_row(&resilient),
        (201, 39, 371, 3, 196, 4_705_438_681_721_644_084)
    );
}

/// Median wall-clock ratio of the scalar reference to a cold `kernel` sweep
/// on `workload`, over nine alternating (reference, kernel) pairs, with the
/// nine ratios in ascending order. Each kernel call starts with warm packed
/// keys and no recorded outcomes, so it times a cold sweep, never a replay
/// of recorded outcomes.
#[expect(clippy::disallowed_methods, reason = "times host wall clock")]
fn median_speedup(
    workload: &HeadWorkload,
    config: &TileConfig,
    kernel: impl Fn() -> HeadSimResult,
) -> (f64, Vec<f64>) {
    let mut ratios: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(simulate_head_reference(workload, config));
            let reference = start.elapsed();
            workload.forget_outcomes();
            // Held so the timed call cannot release the cache's copy.
            let _pack = workload.packed_keys_at(config.bit_serial_plan());
            let cold = CacheCensus {
                packs: 1,
                tables: 0,
                full_tables: 0,
            };
            assert_eq!(workload.cache_census(), cold);
            let start = Instant::now();
            std::hint::black_box(kernel());
            let sweep = start.elapsed();
            reference.as_secs_f64() / sweep.as_secs_f64().max(1e-9)
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    (ratios[ratios.len() / 2], ratios)
}

/// Wall-clock speedup of the kernel sweep over the scalar reference on the
/// s = 256 head, on the detected (wide) path and on the forced portable
/// path: each the median of nine alternating pairs (see
/// [`median_speedup`]).
#[test]
#[ignore = "wall-clock; run in a release build"]
fn kernel_sweep_outpaces_the_reference() {
    // 85% of 15.127x, the single-sample kernel speedup the repository
    // recorded as its wall-clock baseline; that floor carries over, now
    // held by a median. A 2-vCPU x86-64 VM measures medians of 27-29x.
    const FLOOR: f64 = 0.85 * 15.127;
    // 85% of 5.76x, the median of five portable-path medians (5.58-6.69x)
    // on a 2-vCPU x86-64 Xeon VM before this test held it.
    const PORTABLE_FLOOR: f64 = 0.85 * 5.76;
    let config = TileConfig::ae_leopard();
    let workload = head(256, 42);
    let reference = simulate_head_reference(&workload, &config);
    let portable = || {
        let rows = 0..workload.seq_len();
        merge_shards(&simulate_rows(
            &workload,
            &[config],
            rows,
            KernelPath::Portable,
        ))
    };
    assert_eq!(simulate_head(&workload, &config), reference);
    assert_eq!(portable(), reference);
    let (wide, wide_ratios) =
        median_speedup(&workload, &config, || simulate_head(&workload, &config));
    let (portable, portable_ratios) = median_speedup(&workload, &config, portable);
    assert!(
        wide >= FLOOR && portable >= PORTABLE_FLOOR,
        "median kernel speedups: wide {wide:.2}x (floor {FLOOR:.2}x, {wide_ratios:.2?}), \
         portable {portable:.2}x (floor {PORTABLE_FLOOR:.2}x, {portable_ratios:.2?})"
    );
}
