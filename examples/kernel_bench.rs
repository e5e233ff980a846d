//! Perf trajectory harness for the QK kernel.
//!
//! Times `simulate_head` (the batched bit-parallel kernel) against
//! `simulate_head_reference` (the scalar DPU path) on the acceptance
//! workload — s = 256, d = 64, `TileConfig::ae_leopard()` — verifies both
//! produce bit-identical results **before** timing, and writes
//! `BENCH_qk_kernel.json` so later runs can track the speedup over time
//! (`tools/perf_guard.sh` checks it against the committed value).
//!
//! A workload records the per-pair outcomes of its first kernel sweep and
//! later simulations replay them, so each timed kernel call starts with no
//! recorded outcomes and warm packed operands (asserted before every
//! call): the number is a cold kernel sweep, never a table replay.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example kernel_bench
//! ```

use leopard::accel::config::TileConfig;
use leopard::accel::sim::{simulate_head, simulate_head_reference, CacheCensus, HeadWorkload};
use leopard::workloads::pipeline::{synthesize_qk, threshold_for_rate};
use std::time::{Duration, Instant};

const S: usize = 256;
const D: usize = 64;
const QK_BITS: u32 = 12;
const PRUNING_TARGET: f32 = 0.7;
const SEED: u64 = 42;

/// Times `f` over enough iterations to fill ~1s of wall clock (minimum 3),
/// after one warm-up call, and returns mean nanoseconds per iteration.
/// `reset` runs before every call, outside the clock.
fn time_ns<T>(mut reset: impl FnMut(), mut f: impl FnMut() -> T) -> u64 {
    let mut timed = || {
        reset();
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let elapsed = start.elapsed();
        drop(out);
        elapsed
    };
    let per_iter = timed();
    let iters = (1.0 / per_iter.as_secs_f64().max(1e-9)).ceil().min(1e4) as u64;
    let iters = iters.max(3);
    let total: Duration = (0..iters).map(|_| timed()).sum();
    (total.as_nanos() as u64) / iters
}

fn main() {
    let config = TileConfig::ae_leopard();
    let (q, k) = synthesize_qk(S, D, 0.35, SEED);
    let threshold = threshold_for_rate(&q, &k, PRUNING_TARGET);
    let workload = HeadWorkload::from_float(&q, &k, threshold, QK_BITS);

    // Bit-identity is asserted before any timing — a fast wrong kernel
    // must never post a number.
    let kernel_result = simulate_head(&workload, &config);
    let reference_result = simulate_head_reference(&workload, &config);
    assert_eq!(
        kernel_result, reference_result,
        "kernel and reference paths must be bit-identical"
    );

    println!(
        "workload: s={S}, d={D}, tile {}, pruning rate {:.1}%, {} total cycles",
        config.name,
        kernel_result.pruning_rate() * 100.0,
        kernel_result.total_cycles
    );

    let wall_ns_reference = time_ns(|| {}, || simulate_head_reference(&workload, &config));
    // The held pack keeps the timed call from freeing the cache's copy,
    // which the call releases once it has recorded every row.
    let mut pack = None;
    let cold_sweep = || {
        workload.forget_outcomes();
        pack = Some(workload.packed_keys_at(config.bit_serial_plan()));
        assert_eq!(
            workload.cache_census(),
            CacheCensus {
                packs: 1,
                tables: 0,
                full_tables: 0
            },
            "each timed kernel call must start with warm packs and no recorded outcomes"
        );
    };
    let wall_ns_kernel = time_ns(cold_sweep, || simulate_head(&workload, &config));
    let speedup = wall_ns_reference as f64 / wall_ns_kernel.max(1) as f64;

    println!("reference path:  {:>12} ns / head", wall_ns_reference);
    println!("kernel path:     {:>12} ns / head", wall_ns_kernel);
    println!("vs reference:    {:>12.2}x", speedup);

    // "speedup" (kernel over the scalar reference) stays the LAST speedup key:
    // tools/perf_guard.sh reads the last "speedup" entry as the guarded
    // trajectory value.
    let json = format!(
        "{{\n  \"config\": {{\n    \"seq_len\": {S},\n    \"head_dim\": {D},\n    \"tile\": \"{}\",\n    \"qk_bits\": {QK_BITS},\n    \"serial_bits\": {},\n    \"pruning_target\": {PRUNING_TARGET},\n    \"seed\": {SEED}\n  }},\n  \"wall_ns_reference\": {wall_ns_reference},\n  \"wall_ns_kernel\": {wall_ns_kernel},\n  \"speedup\": {speedup:.3}\n}}\n",
        config.name, config.serial_bits
    );
    std::fs::write("BENCH_qk_kernel.json", &json).expect("write BENCH_qk_kernel.json");
    println!("wrote BENCH_qk_kernel.json");
}
