//! Ablation: sweep the surrogate-L0 balancing factor λ and report how
//! sparsity, learned thresholds, and accuracy respond. This is the
//! accuracy-vs-pruning trade-off knob the paper's formulation exposes
//! (Equation 7a); the paper fixes one λ per task, we show the surrounding
//! landscape.

use leopard_bench::header;
use leopard_workloads::suite::full_suite;
use leopard_workloads::training::{train_task, TrainingOptions};

fn main() {
    leopard_bench::accept_flags(&[]);
    header("Ablation 1 — surrogate-L0 balancing factor λ");
    let suite = full_suite();
    #[expect(
        clippy::expect_used,
        reason = "the fixed 43-task suite always contains BERT-B G-QNLI; this harness takes no user input"
    )]
    let task = suite
        .iter()
        .find(|t| t.name == "BERT-B G-QNLI")
        .expect("task exists");
    println!(
        "{:<10} {:>12} {:>16} {:>14} {:>14}",
        "lambda", "sparsity", "mean threshold", "dense acc", "pruned acc"
    );
    for lambda in [0.0f32, 0.05, 0.15, 0.4, 1.0] {
        let options = TrainingOptions {
            train_samples: 24,
            eval_samples: 32,
            epochs: 3,
            lambda,
            ..TrainingOptions::default()
        };
        let outcome = train_task(task, &options);
        #[expect(
            clippy::expect_used,
            reason = "the sweep trains with epochs = 3, so the report always has entries"
        )]
        let last = outcome.report.epochs.last().expect("at least one epoch");
        println!(
            "{:<10.2} {:>11.1}% {:>16.4} {:>13.1}% {:>13.1}%",
            lambda,
            last.sparsity * 100.0,
            last.mean_threshold,
            outcome.report.baseline_accuracy * 100.0,
            outcome.report.pruned_accuracy * 100.0
        );
    }
    println!(
        "\nexpected shape: sparsity and thresholds grow with λ; accuracy holds for moderate λ and\ndegrades once the sparsity pressure overwhelms the task loss."
    );
}
