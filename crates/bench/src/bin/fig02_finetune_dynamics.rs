//! Figure 2: attention-layer sparsity, pruning-threshold value, and
//! normalized training loss as fine-tuning epochs progress (BERT-Base-like
//! model on the QNLI-like synthetic task).

use leopard_bench::header;
use leopard_workloads::suite::full_suite;
use leopard_workloads::training::{train_task, TrainingOptions};

fn main() {
    leopard_bench::accept_flags(&[]);
    let suite = full_suite();
    #[expect(
        clippy::expect_used,
        reason = "the fixed 43-task suite always contains BERT-B G-QNLI; this harness takes no user input"
    )]
    let task = suite
        .iter()
        .find(|t| t.name == "BERT-B G-QNLI")
        .expect("QNLI task exists");
    let options = TrainingOptions {
        train_samples: 48,
        eval_samples: 48,
        epochs: 5,
        ..TrainingOptions::default()
    };
    header("Figure 2 — fine-tuning dynamics (BERT-B-like, QNLI-like task)");
    let outcome = train_task(task, &options);
    println!(
        "{:<7} {:>10} {:>16} {:>10} {:>16}",
        "epoch", "sparsity", "mean threshold", "loss", "normalized loss"
    );
    for e in &outcome.report.epochs {
        println!(
            "{:<7} {:>9.1}% {:>16.4} {:>10.4} {:>16.3}",
            e.epoch,
            e.sparsity * 100.0,
            e.mean_threshold,
            e.train_loss,
            e.normalized_loss
        );
    }
    println!(
        "\npaper reference: sparsity rises from ~0.55 to ~0.78 and the threshold from 0 to ~0.55 over 5 epochs,\nwhile the normalized loss falls from 1.0 to ~0.87 (Figure 2a/2b)."
    );
}
