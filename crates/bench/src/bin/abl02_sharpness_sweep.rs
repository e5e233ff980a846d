//! Ablation: sweep the soft-threshold sharpness `s` (paper default 10) and
//! the clip constant `c` (paper default 1000) and report the resulting
//! sparsity/threshold dynamics, showing why the paper's constants sit on a
//! stable plateau.

use leopard_bench::header;
use leopard_core::finetune::{FinetuneConfig, Finetuner};
use leopard_core::regularizer::L0Config;
use leopard_core::soft_threshold::SoftThresholdConfig;
use leopard_transformer::config::{ModelConfig, ModelFamily};
use leopard_transformer::data::{TaskGenerator, TaskSpec};
use leopard_transformer::TransformerClassifier;

fn run(sharpness: f32, clip: f32) -> (f32, f32, f32) {
    let config = ModelConfig::train_scale(ModelFamily::BertBase);
    let spec = TaskSpec {
        classes: 3,
        signal_tokens: 3,
        noise_std: 0.6,
        signal_strength: 2.5,
        seed: 1234,
    };
    let generator = TaskGenerator::new(config, spec);
    let train = generator.generate(24, 1);
    let eval = generator.generate(32, 2);
    let mut model = TransformerClassifier::new(config, spec.classes, 5);
    let soft = SoftThresholdConfig::new(sharpness, clip);
    let report = Finetuner::new(FinetuneConfig {
        epochs: 3,
        soft_threshold: soft,
        l0: L0Config::for_soft_threshold(soft, 0.15),
        ..FinetuneConfig::default()
    })
    .run(&mut model, &train, &eval);
    #[expect(
        clippy::expect_used,
        reason = "the sweep trains with a fixed positive epoch count, so the report always has entries"
    )]
    let last = report.epochs.last().expect("at least one epoch");
    (last.sparsity, last.mean_threshold, report.pruned_accuracy)
}

fn main() {
    leopard_bench::accept_flags(&[]);
    header("Ablation 2 — soft-threshold sharpness s and clip c");
    println!(
        "{:<8} {:<8} {:>12} {:>16} {:>12}",
        "s", "c", "sparsity", "mean threshold", "pruned acc"
    );
    for (s, c) in [
        (1.0f32, 1000.0f32),
        (4.0, 1000.0),
        (10.0, 1000.0),
        (25.0, 1000.0),
        (10.0, 100.0),
        (10.0, 10_000.0),
    ] {
        let (sparsity, threshold, acc) = run(s, c);
        println!(
            "{:<8.1} {:<8.0} {:>11.1}% {:>16.4} {:>11.1}%",
            s,
            c,
            sparsity * 100.0,
            threshold,
            acc * 100.0
        );
    }
    println!(
        "\nexpected shape: very small s blunts the gradient near the threshold (thresholds barely move);\nthe paper's s = 10, c = 1000 sits on the stable plateau where sparsity grows without hurting accuracy."
    );
}
