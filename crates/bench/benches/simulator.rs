//! Benchmarks of the cycle-level tile simulator across configurations and
//! pruning rates (the engine behind Figures 9-11, 13, and 14), plus the
//! head-level kernel-vs-reference comparison at the acceptance point
//! (s = 256, d = 64, AE-LeOPArd).
//!
//! A workload records the outcomes of its first kernel sweep and later
//! simulations replay them, so every timed `simulate_head` call starts from
//! [`cold_sweep`]: no recorded outcomes, packed operands warm.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use leopard_accel::config::TileConfig;
use leopard_accel::kernel_v2::PackedKeys;
use leopard_accel::sim::{simulate_head, simulate_head_reference, HeadWorkload};
use leopard_workloads::pipeline::{synthesize_qk, threshold_for_rate};
use std::sync::Arc;

/// Forgets `w`'s recorded outcomes and warms the pack `config` sweeps
/// with. The returned handle keeps the pack alive through the timed call,
/// which releases the cache's copy once it has recorded every row.
fn cold_sweep(w: &HeadWorkload, config: &TileConfig) -> Arc<PackedKeys> {
    w.forget_outcomes();
    w.packed_keys_at(config.bit_serial_plan())
}

fn simulator(c: &mut Criterion) {
    let (q, k) = synthesize_qk(64, 64, 0.35, 17);

    let mut group = c.benchmark_group("tile_simulation_64x64");
    for rate in [0.6f32, 0.9] {
        let threshold = threshold_for_rate(&q, &k, rate);
        let workload = HeadWorkload::from_float(&q, &k, threshold, 12);
        for config in [
            TileConfig::baseline(),
            TileConfig::ae_leopard(),
            TileConfig::hp_leopard(),
        ] {
            group.bench_with_input(
                BenchmarkId::new(config.name, format!("prune{:.0}%", rate * 100.0)),
                &workload,
                |b, w| {
                    b.iter_batched(
                        || cold_sweep(w, &config),
                        |pack| (simulate_head(w, &config), pack),
                        BatchSize::PerIteration,
                    )
                },
            );
        }
    }
    group.finish();
}

fn kernel_vs_reference(c: &mut Criterion) {
    // One 256-token, 64-dim head on the AE-LeOPArd tile: the head whose
    // kernel speedup `tests/ablations.rs` holds above its floor.
    let (q, k) = synthesize_qk(256, 64, 0.35, 42);
    let threshold = threshold_for_rate(&q, &k, 0.7);
    let workload = HeadWorkload::from_float(&q, &k, threshold, 12);
    let config = TileConfig::ae_leopard();

    let mut group = c.benchmark_group("simulate_head_256x64_ae");
    group.bench_with_input(BenchmarkId::new("kernel", "prune70%"), &workload, |b, w| {
        b.iter_batched(
            || cold_sweep(w, &config),
            |pack| (simulate_head(w, &config), pack),
            BatchSize::PerIteration,
        )
    });
    group.bench_with_input(
        BenchmarkId::new("reference", "prune70%"),
        &workload,
        |b, w| b.iter(|| simulate_head_reference(w, &config)),
    );
    group.finish();
}

criterion_group!(benches, simulator, kernel_vs_reference);
criterion_main!(benches);
