//! Micro-benchmarks of the hot kernels: dense vs bit-serial dot products,
//! the early-termination path at different pruning thresholds, and the
//! row-batched bit-parallel kernel on both dispatch paths against the
//! scalar reference DPU, one row and a whole head's rows at a time. The
//! kernel calls never touch a workload's recorded outcome tables, so
//! every iteration is a cold sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use leopard_accel::config::TileConfig;
use leopard_accel::dpu::QkDpu;
use leopard_accel::kernel_v2::{KernelPath, PackedKeys, QkKernelV2, RowScratchV2};
use leopard_accel::sim::HeadWorkload;
use leopard_quant::bitserial::BitSerialVector;
use leopard_quant::fixed::QuantParams;
use leopard_tensor::rng;
use leopard_workloads::pipeline::{synthesize_qk, threshold_for_rate};

fn dot_product_kernels(c: &mut Criterion) {
    let d = 64usize;
    let mut r = rng::seeded(1);
    let q = rng::normal_matrix(&mut r, 1, d, 0.0, 1.0);
    let k = rng::normal_matrix(&mut r, 1, d, 0.0, 1.0);
    let qp = QuantParams::calibrate(12, &q);
    let kp = QuantParams::calibrate(12, &k);
    let qq = qp.quantize_matrix(&q);
    let kq = kp.quantize_matrix(&k);

    let mut group = c.benchmark_group("dot_product");
    group.bench_function("float_f32_64", |b| {
        b.iter(|| {
            q.row(0)
                .iter()
                .zip(k.row(0).iter())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        })
    });
    group.bench_function("integer_codes_64", |b| b.iter(|| qq.dot_rows(0, &kq, 0)));

    let ae = TileConfig::ae_leopard();
    let dpu = QkDpu::new(ae);
    let plan = ae.bit_serial_plan();
    let kvec = BitSerialVector::new(kq.row(0), plan);
    // Threshold far below: never terminates (worst case).
    group.bench_function("bit_serial_no_termination", |b| {
        b.iter(|| dpu.compute(qq.row(0), &kvec, i64::MIN / 4))
    });
    // Threshold far above: terminates almost immediately (best case).
    group.bench_function("bit_serial_immediate_termination", |b| {
        b.iter(|| dpu.compute(qq.row(0), &kvec, i64::MAX / 4))
    });
    group.finish();
}

fn row_batched_kernel(c: &mut Criterion) {
    // One full-precision Q row against 256 K columns (one simulator row at
    // s = 256, d = 64): the reference DPU loop versus the row-batched
    // kernel, with and without early termination pressure.
    let d = 64usize;
    let s = 256usize;
    let mut r = rng::seeded(7);
    let q = rng::normal_matrix(&mut r, 1, d, 0.0, 1.0);
    let k = rng::normal_matrix(&mut r, s, d, 0.0, 1.0);
    let qp = QuantParams::calibrate(12, &q);
    let kp = QuantParams::calibrate(12, &k);
    let qq = qp.quantize_matrix(&q);
    let kq = kp.quantize_matrix(&k);

    let ae = TileConfig::ae_leopard();
    let dpu = QkDpu::new(ae);
    let plan = ae.bit_serial_plan();
    let k_vecs: Vec<BitSerialVector> = (0..s)
        .map(|j| BitSerialVector::new(kq.row(j), plan))
        .collect();
    let k_columns: Vec<Vec<i32>> = (0..s).map(|j| kq.row(j).to_vec()).collect();
    let packed = PackedKeys::pack(&k_columns, plan);

    let mut group = c.benchmark_group("qk_row_256_cols");
    for (label, threshold) in [("no_pruning", i64::MIN / 4), ("median_threshold", 0i64)] {
        group.bench_function(&format!("reference_dpu/{label}"), |b| {
            b.iter(|| {
                k_vecs
                    .iter()
                    .map(|kv| dpu.compute(qq.row(0), kv, threshold).cycles as u64)
                    .sum::<u64>()
            })
        });
        for (path_label, path) in [
            ("wide", KernelPath::Wide),
            ("portable", KernelPath::Portable),
        ] {
            group.bench_function(&format!("block_kernel_v2_{path_label}/{label}"), |b| {
                let v2 = QkKernelV2::with_path(ae, path);
                let mut scratch = RowScratchV2::new();
                let mut out = Vec::new();
                b.iter(|| {
                    v2.compute_row_into(qq.row(0), &packed, threshold, &mut scratch, &mut out);
                    out.iter().map(|o| o.cycles as u64).sum::<u64>()
                })
            });
        }
    }
    group.finish();
}

fn head_sweep(c: &mut Criterion) {
    // Every Q row of one 256-token, 64-dim head against its packed K
    // columns at the 70% pruning threshold: the kernel's share of
    // `simulate_head`, without the outcome tables and the fold.
    let (q, k) = synthesize_qk(256, 64, 0.35, 42);
    let threshold = threshold_for_rate(&q, &k, 0.7);
    let workload = HeadWorkload::from_float(&q, &k, threshold, 12);
    let ae = TileConfig::ae_leopard();
    let packed = PackedKeys::pack(&workload.k_codes, ae.bit_serial_plan());

    let mut group = c.benchmark_group("qk_head_256x64_sweep");
    for (path_label, path) in [
        ("wide", KernelPath::Wide),
        ("portable", KernelPath::Portable),
    ] {
        group.bench_function(path_label, |b| {
            let v2 = QkKernelV2::with_path(ae, path);
            let mut scratch = RowScratchV2::new();
            let mut out = Vec::new();
            b.iter(|| {
                let mut cycles = 0u64;
                for q_row in &workload.q_codes {
                    v2.compute_row_into(
                        q_row,
                        &packed,
                        workload.threshold_int,
                        &mut scratch,
                        &mut out,
                    );
                    cycles += out.iter().map(|o| u64::from(o.cycles)).sum::<u64>();
                }
                cycles
            })
        });
    }
    group.finish();
}

criterion_group!(benches, dot_product_kernels, row_batched_kernel, head_sweep);
criterion_main!(benches);
