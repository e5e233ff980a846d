//! Figure 7: runtime pruning rate per task under the learned thresholds.

use leopard_bench::{harness_options, header, percent, run_suite};

fn main() {
    leopard_bench::accept_flags(&[]);
    header("Figure 7 — runtime pruning rate per task");
    let rows = run_suite(&harness_options());
    println!(
        "{:<24} {:>12} {:>12} {:>10}",
        "task", "measured", "paper", "|delta|"
    );
    let mut total_measured = 0.0;
    for (task, result) in &rows {
        let delta = (result.measured_pruning_rate - task.paper_pruning_rate as f64).abs();
        total_measured += result.measured_pruning_rate;
        println!(
            "{:<24} {:>12} {:>12} {:>10.3}",
            task.name,
            percent(result.measured_pruning_rate),
            percent(task.paper_pruning_rate as f64),
            delta
        );
    }
    println!(
        "\nmean measured pruning rate: {} over {} tasks (paper family means: MemN2N 91.7%, BERT-B 78.6%, BERT-L 75.5%,\nALBERT 72.6%, GPT-2 73.9%, ViT 60.3%)",
        percent(total_measured / rows.len() as f64),
        rows.len()
    );
}
