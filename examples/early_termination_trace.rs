//! Trace the bit-serial early-termination mechanism on a real quantized
//! attention head: per dot product, the cycles spent, the K bits processed,
//! the final partial sum and the termination decision. The paper's worked
//! example (Figure 3) is printed by the `fig03_early_termination_example`
//! binary.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example early_termination_trace
//! ```

use leopard::accel::config::TileConfig;
use leopard::accel::dpu::QkDpu;
use leopard::quant::bitserial::BitSerialVector;
use leopard::quant::fixed::QuantParams;
use leopard::tensor::rng;

fn main() {
    let config = TileConfig::ae_leopard();
    let dpu = QkDpu::new(config);
    let plan = config.bit_serial_plan();
    let d = 64;
    let mut r = rng::seeded(41);
    let q = rng::normal_matrix(&mut r, 8, d, 0.0, 1.0);
    let k = rng::normal_matrix(&mut r, 8, d, 0.0, 1.0);
    let qp = QuantParams::calibrate(config.q_bits, &q);
    let kp = QuantParams::calibrate(config.k_bits, &k);
    let qq = qp.quantize_matrix(&q);
    let kq = kp.quantize_matrix(&k);
    // Threshold of 0.5 in the scaled score domain.
    let score_scale = qq.product_scale(&kq) / (d as f32).sqrt();
    let threshold_int = (0.5 / score_scale).round() as i64;

    println!("== Quantized 64-element dot products (threshold 0.5) ==");
    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>8}",
        "pair", "cycles", "bits", "partial sum", "pruned?"
    );
    for i in 0..8 {
        let kvec = BitSerialVector::new(kq.row(i), plan);
        let outcome = dpu.compute(qq.row(i), &kvec, threshold_int);
        println!(
            "q{0} x k{0}   {1:>8} {2:>8} {3:>12} {4:>8}",
            i,
            outcome.cycles,
            outcome.bits_processed,
            outcome.partial_sum,
            if outcome.pruned { "yes" } else { "no" }
        );
    }
    println!(
        "\n(full-precision dot products take {} cycles; early-terminated ones fewer)",
        config.full_dot_cycles()
    );
}
