//! Reduced-scale training path for the accuracy experiments.
//!
//! Figures 2 and 6 of the paper are about *learning*: how the threshold and
//! sparsity evolve over fine-tuning epochs and what happens to task accuracy
//! once the learned thresholds prune at runtime. Those experiments need an
//! actual model trained with the soft threshold and surrogate L0 regularizer,
//! so this module wires a task descriptor to a reduced-scale
//! [`TransformerClassifier`] (same number of layers and therefore thresholds,
//! smaller widths) and runs the `leopard-core` fine-tuner on a synthetic
//! dataset derived from the task's seed.

use crate::suite::TaskDescriptor;
use leopard_core::finetune::{FinetuneConfig, FinetuneReport, Finetuner};
use leopard_core::regularizer::L0Config;
use leopard_transformer::config::ModelConfig;
use leopard_transformer::data::{TaskGenerator, TaskSpec};
use leopard_transformer::TransformerClassifier;

/// Options for the reduced-scale training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingOptions {
    /// Training samples per task.
    pub train_samples: usize,
    /// Evaluation samples per task.
    pub eval_samples: usize,
    /// Fine-tuning epochs (the paper uses one to five).
    pub epochs: usize,
    /// Number of output classes of the synthetic classification task.
    pub classes: usize,
    /// Balancing factor λ of the surrogate L0 regularizer.
    pub lambda: f32,
}

impl Default for TrainingOptions {
    fn default() -> Self {
        Self {
            train_samples: 32,
            eval_samples: 32,
            epochs: 5,
            classes: 3,
            lambda: 0.15,
        }
    }
}

/// Outcome of the reduced-scale training of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingOutcome {
    /// Task name.
    pub name: String,
    /// The reduced-scale configuration that was trained.
    pub model_config: ModelConfig,
    /// Full fine-tuning report (epoch dynamics, thresholds, accuracies).
    pub report: FinetuneReport,
}

/// Builds the reduced-scale model and datasets for a task and runs
/// pruning-aware fine-tuning.
pub fn train_task(task: &TaskDescriptor, options: &TrainingOptions) -> TrainingOutcome {
    let config = ModelConfig::train_scale(task.family);
    let spec = TaskSpec {
        classes: options.classes,
        signal_tokens: (config.seq_len / 6).max(2),
        noise_std: 0.6,
        signal_strength: 2.5,
        seed: task.seed(),
    };
    let generator = TaskGenerator::new(config, spec);
    let train = generator.generate(options.train_samples, 1);
    let eval = generator.generate(options.eval_samples, 2);
    let mut model = TransformerClassifier::new(config, options.classes, task.seed() ^ 0xABCD);

    let finetune_config = FinetuneConfig {
        epochs: options.epochs,
        l0: L0Config {
            lambda: options.lambda,
            ..L0Config::default()
        },
        ..FinetuneConfig::default()
    };
    let report = Finetuner::new(finetune_config).run(&mut model, &train, &eval);
    TrainingOutcome {
        name: task.name.clone(),
        model_config: config,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::full_suite;

    fn quick_options() -> TrainingOptions {
        TrainingOptions {
            train_samples: 12,
            eval_samples: 12,
            epochs: 2,
            ..TrainingOptions::default()
        }
    }

    #[test]
    fn training_a_memn2n_task_produces_thresholds_and_sparsity() {
        let suite = full_suite();
        let outcome = train_task(&suite[0], &quick_options());
        assert_eq!(outcome.report.epochs.len(), 2);
        assert_eq!(
            outcome.report.thresholds.layers(),
            outcome.model_config.layers
        );
        assert!(outcome.report.pruning_stats.total_scores() > 0);
        assert!(outcome.report.pruning_rate() > 0.0);
    }

    #[test]
    fn training_is_deterministic_for_a_given_task() {
        let suite = full_suite();
        let a = train_task(&suite[3], &quick_options());
        let b = train_task(&suite[3], &quick_options());
        assert_eq!(a.report.thresholds, b.report.thresholds);
        assert_eq!(a.report.pruned_accuracy, b.report.pruned_accuracy);
    }

    #[test]
    fn different_tasks_learn_different_thresholds() {
        let suite = full_suite();
        let a = train_task(&suite[0], &quick_options());
        let b = train_task(&suite[25], &quick_options());
        assert_ne!(a.report.thresholds, b.report.thresholds);
    }
}
