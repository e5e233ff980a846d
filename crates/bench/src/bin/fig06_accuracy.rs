//! Figure 6: task metric before and after pruning-aware fine-tuning.
//!
//! The synthetic tasks cannot reproduce GLUE/SQuAD absolute accuracies, so
//! this harness reports, per representative task of each family, the dense
//! baseline accuracy and the accuracy with learned runtime pruning of the
//! reduced-scale model, next to the paper's reported pair for that task.
//! Pass `--all` to fine-tune every one of the 43 tasks (slow).

use leopard_bench::header;
use leopard_workloads::suite::full_suite;
use leopard_workloads::training::{train_task, TrainingOptions};

fn main() {
    leopard_bench::accept_flags(&["--all"]);
    let all = std::env::args().any(|a| a == "--all");
    let suite = full_suite();
    let selected: Vec<_> = if all {
        suite.iter().collect()
    } else {
        // One representative per family plus the QNLI task of Figure 2.
        let picks = [
            "MemN2N Task-1",
            "MemN2N Task-16",
            "BERT-B G-QNLI",
            "BERT-B SQuAD",
            "BERT-L G-SST",
            "ALBERT-XX-L SQuAD",
            "GPT-2-L WikiText-2",
            "ViT-B CIFAR-10",
        ];
        suite
            .iter()
            .filter(|t| picks.contains(&t.name.as_str()))
            .collect()
    };

    let options = TrainingOptions {
        train_samples: 32,
        eval_samples: 48,
        epochs: 3,
        ..TrainingOptions::default()
    };

    header("Figure 6 — accuracy before/after pruning-aware fine-tuning");
    println!(
        "{:<22} {:>14} {:>14} {:>10} | {:>14} {:>14}",
        "task", "dense acc", "pruned acc", "Δ (pp)", "paper base", "paper pruned"
    );
    let mut degradations = Vec::new();
    for task in selected {
        let outcome = train_task(task, &options);
        let degradation = outcome.report.accuracy_degradation();
        degradations.push(degradation);
        println!(
            "{:<22} {:>13.1}% {:>13.1}% {:>10.2} | {:>14.2} {:>14.2}",
            task.name,
            outcome.report.baseline_accuracy * 100.0,
            outcome.report.pruned_accuracy * 100.0,
            degradation,
            task.paper_baseline_metric,
            task.paper_pruned_metric,
        );
    }
    let mean = degradations.iter().sum::<f32>() / degradations.len() as f32;
    println!(
        "\nmean accuracy change with pruning: {mean:.2} pp (paper: ≤0.2 pp average degradation across the suite;\nnote our 'dense' point is the untuned synthetic model, so negative values — improvements — are expected)."
    );
}
