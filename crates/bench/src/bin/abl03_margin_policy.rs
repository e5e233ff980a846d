//! Ablation: compare the conservative-margin early termination against a
//! naive margin-free early exit (terminate as soon as the *partial sum*
//! alone falls below the threshold). The naive policy terminates earlier but
//! wrongly prunes scores that would have survived — exactly the
//! approximation error the paper's margin is designed to rule out.

use leopard_accel::config::TileConfig;
use leopard_bench::header;
use leopard_bench::percent;
use leopard_quant::bitserial::BitSerialVector;
use leopard_quant::fixed::QuantParams;
use leopard_tensor::rng;
use leopard_workloads::pipeline::{synthesize_qk, threshold_for_rate};

fn main() {
    leopard_bench::accept_flags(&[]);
    header("Ablation 3 — conservative margin vs naive (margin-free) early exit");
    let cfg = TileConfig::ae_leopard();
    let plan = cfg.bit_serial_plan();
    let dpu = leopard_accel::dpu::QkDpu::new(cfg);

    let (q, k) = synthesize_qk(96, 64, 0.35, 77);
    let threshold = threshold_for_rate(&q, &k, 0.75);
    let qp = QuantParams::calibrate(cfg.q_bits, &q);
    let kp = QuantParams::calibrate(cfg.k_bits, &k);
    let qq = qp.quantize_matrix(&q);
    let kq = kp.quantize_matrix(&k);
    let scale = qq.product_scale(&kq) / (64f32).sqrt();
    let threshold_int = (threshold / scale).round() as i64;

    let mut conservative_cycles = 0u64;
    let mut naive_cycles = 0u64;
    let mut conservative_false_prunes = 0u64;
    let mut naive_false_prunes = 0u64;
    let mut total = 0u64;
    let mut r = rng::seeded(1);
    let _ = &mut r;

    for i in 0..qq.rows() {
        for j in 0..kq.rows() {
            total += 1;
            let kvec = BitSerialVector::new(kq.row(j), plan);
            let exact = kvec.full_dot(qq.row(i));
            let survives = exact >= threshold_int;

            // Conservative margin (the paper's mechanism).
            let outcome = dpu.compute(qq.row(i), &kvec, threshold_int);
            conservative_cycles += u64::from(outcome.cycles);
            if outcome.pruned && survives {
                conservative_false_prunes += 1;
            }

            // Naive early exit: stop as soon as the partial sum dips below Th.
            let mut cycles = 0u32;
            let mut pruned = false;
            for cycle in 1..=plan.total_cycles() {
                cycles = cycle;
                if kvec.partial_dot(qq.row(i), cycle) < threshold_int {
                    pruned = true;
                    break;
                }
            }
            naive_cycles += u64::from(cycles);
            if pruned && survives {
                naive_false_prunes += 1;
            }
        }
    }

    println!(
        "{:<28} {:>16} {:>20}",
        "policy", "front-end cycles", "wrongly pruned scores"
    );
    println!(
        "{:<28} {:>16} {:>20}",
        "conservative margin (paper)", conservative_cycles, conservative_false_prunes
    );
    println!(
        "{:<28} {:>16} {:>20}",
        "naive partial-sum exit", naive_cycles, naive_false_prunes
    );
    println!(
        "\nnaive policy saves {} of the cycles but mis-prunes {} of surviving scores; the conservative margin\nmis-prunes none (exactness guarantee of Section 3.2) at a modest cycle cost.",
        percent(1.0 - naive_cycles as f64 / conservative_cycles as f64),
        percent(naive_false_prunes as f64 / (total - conservative_false_prunes).max(1) as f64),
    );
}
