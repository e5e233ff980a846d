//! Pins the learned-threshold path end to end: the soft threshold and the
//! surrogate L0 term, back-propagated through the transformer and stepped
//! by Adam, produce these exact fine-tuning reports. Each digest is an
//! FNV-1a-64 over the `f32::to_bits` of every `FinetuneReport` field, so a
//! change that reorders one float operation anywhere on the tape, in the
//! optimizer or in the evaluation shows up here. Debug builds give the same
//! bits as release builds.
#![allow(clippy::panic, reason = "test code may panic")]

use leopard::pruning::finetune::{FinetuneConfig, FinetuneReport, Finetuner};
use leopard::pruning::regularizer::L0Config;
use leopard::pruning::soft_threshold::SoftThresholdConfig;
use leopard::transformer::config::{ModelConfig, ModelFamily};
use leopard::transformer::data::{TaskGenerator, TaskSpec};
use leopard::transformer::TransformerClassifier;
use leopard::workloads::suite::full_suite;
use leopard::workloads::training::{train_task, TrainingOptions};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of every field of `report`: both accuracies, the thresholds, the
/// pruning counts (overall and per layer) and every epoch record.
fn report_digest(report: &FinetuneReport) -> u64 {
    let mut bytes = Vec::new();
    let mut word = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    word(report.baseline_accuracy.to_bits().into());
    word(report.pruned_accuracy.to_bits().into());
    for &t in report.thresholds.as_slice() {
        word(t.to_bits().into());
    }
    let stats = &report.pruning_stats;
    word(stats.total_scores());
    word(stats.pruning_rate().to_bits().into());
    for layer in stats.layers() {
        word(layer as u64);
        let rate = stats.layer_pruning_rate(layer).unwrap_or(f32::NAN);
        word(rate.to_bits().into());
    }
    for e in &report.epochs {
        word(e.epoch as u64);
        for v in [
            e.train_loss,
            e.normalized_loss,
            e.sparsity,
            e.mean_threshold,
            e.eval_accuracy,
        ] {
            word(v.to_bits().into());
        }
    }
    fnv1a64(&bytes)
}

fn trained(task_name: &str, lambda: f32) -> FinetuneReport {
    let suite = full_suite();
    let task = suite
        .iter()
        .find(|t| t.name == task_name)
        .unwrap_or_else(|| panic!("{task_name} is in the suite"));
    let options = TrainingOptions {
        train_samples: 12,
        eval_samples: 12,
        epochs: 2,
        lambda,
        ..TrainingOptions::default()
    };
    train_task(task, &options).report
}

fn assert_pinned(label: &str, report: &FinetuneReport, expected: u64) {
    let digest = report_digest(report);
    assert_eq!(
        digest, expected,
        "{label}: report digest {digest:#018x} differs from the pin:\n{report:?}"
    );
}

#[test]
fn qnli_reports_are_pinned_across_lambda() {
    for (lambda, expected) in [
        (0.0, 0x5962_83d3_30b3_fd80),
        (0.15, 0xe6c9_6462_9e1f_e8f1),
        (1.0, 0x103e_42ff_ea46_3f44),
    ] {
        let report = trained("BERT-B G-QNLI", lambda);
        assert_pinned(&format!("BERT-B G-QNLI at λ = {lambda}"), &report, expected);
    }
}

#[test]
fn memn2n_report_is_pinned() {
    let report = trained("MemN2N Task-1", 0.15);
    assert_pinned("MemN2N Task-1", &report, 0x0e85_77f3_bd78_ecee);
}

#[test]
fn vit_report_is_pinned() {
    let report = trained("ViT-B CIFAR-10", 0.15);
    assert_pinned("ViT-B CIFAR-10", &report, 0x4b50_2f21_5187_7926);
}

/// The sharpness ablation's setting with the bluntest tanh, s = 1 and
/// c = 1000, run straight through `Finetuner`.
#[test]
fn blunt_sharpness_report_is_pinned() {
    let config = ModelConfig::train_scale(ModelFamily::BertBase);
    let spec = TaskSpec {
        classes: 3,
        signal_tokens: 3,
        noise_std: 0.6,
        signal_strength: 2.5,
        seed: 1234,
    };
    let generator = TaskGenerator::new(config, spec);
    let train = generator.generate(12, 1);
    let eval = generator.generate(12, 2);
    let mut model = TransformerClassifier::new(config, spec.classes, 5);
    let soft = SoftThresholdConfig::new(1.0, 1000.0);
    let report = Finetuner::new(FinetuneConfig {
        epochs: 2,
        soft_threshold: soft,
        l0: L0Config::for_soft_threshold(soft, 0.15),
        ..FinetuneConfig::default()
    })
    .run(&mut model, &train, &eval);
    assert_pinned("s = 1, c = 1000", &report, 0x9b2f_c229_aa81_193a);
}
