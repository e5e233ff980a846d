//! Figure 8: cumulative pruning rate versus the number of K magnitude bits
//! processed by the bit-serial front-end, averaged per model family.

use leopard_bench::{harness_options, header, run_suite};
use leopard_transformer::config::ModelFamily;
use leopard_workloads::suite::PAPER_MEAN_BITS;

fn main() {
    leopard_bench::accept_flags(&[]);
    header("Figure 8 — cumulative pruning rate vs processed bits");
    let results = run_suite(&harness_options());
    println!(
        "{:<14} {}",
        "family",
        (1..=11).map(|b| format!("{b:>6}")).collect::<String>()
    );
    for family in ModelFamily::ALL {
        let tasks: Vec<_> = results.iter().filter(|(t, _)| t.family == family).collect();
        if tasks.is_empty() {
            continue; // --quick leaves some families out
        }
        let mut curve = vec![0.0f64; 12];
        let mut mean_bits = 0.0;
        for (_, result) in &tasks {
            for (b, v) in result.cumulative_pruning_by_bits.iter().enumerate() {
                curve[b] += v;
            }
            mean_bits += result.mean_bits;
        }
        for v in &mut curve {
            *v /= tasks.len() as f64;
        }
        mean_bits /= tasks.len() as f64;
        let row: String = (1..=11)
            .map(|b| format!("{:>6.2}", curve[b.min(curve.len() - 1)]))
            .collect();
        println!("{:<14} {row}   (mean bits {:.1})", family.name(), mean_bits);
    }
    println!("\npaper reference mean bits per pruned score:");
    for (label, bits) in PAPER_MEAN_BITS {
        print!("  {label}: {bits}");
    }
    println!();
}
