//! The 43-task benchmark suite descriptors.
//!
//! Each descriptor carries the model family, the dataset the paper evaluated
//! it on, the sequence length and head dimension, and the quantities the
//! paper reports for that task and which the synthetic pipeline either
//! reproduces (pruning rate, via threshold placement) or compares against
//! (speedup, energy reduction, accuracy deltas), as recorded in Figures 6, 7,
//! 9, and 10 of the paper.

use leopard_transformer::config::{ModelConfig, ModelFamily};

/// Which dataset family a task belongs to (used for grouping rows the way
/// the paper's figures do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Facebook bAbI (20 tasks, MemN2N).
    Babi,
    /// GLUE benchmark (9 tasks per BERT model).
    Glue,
    /// SQuAD question answering.
    Squad,
    /// WikiText-2 language modelling (perplexity metric).
    WikiText2,
    /// CIFAR-10 image classification.
    Cifar10,
}

impl DatasetKind {
    /// Short label used in harness output.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetKind::Babi => "bAbI",
            DatasetKind::Glue => "GLUE",
            DatasetKind::Squad => "SQuAD",
            DatasetKind::WikiText2 => "WikiText-2",
            DatasetKind::Cifar10 => "CIFAR-10",
        }
    }
}

/// One of the 43 evaluation tasks.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDescriptor {
    /// Stable task index (0..43) in the order the paper's figures list them.
    pub id: usize,
    /// Human-readable name, e.g. `"BERT-B G-QNLI"`.
    pub name: String,
    /// Model family the task runs on.
    pub family: ModelFamily,
    /// Dataset family.
    pub dataset: DatasetKind,
    /// Pruning rate the paper reports for this task (Figure 7), in `[0, 1]`.
    pub paper_pruning_rate: f32,
    /// Baseline metric the paper reports (accuracy in percent for most
    /// tasks, perplexity for GPT-2) before pruning-aware fine-tuning.
    pub paper_baseline_metric: f32,
    /// The same metric after LeOPArd runtime pruning (Figure 6).
    pub paper_pruned_metric: f32,
    /// AE-LeOPArd speedup over the baseline reported in Figure 9.
    pub paper_ae_speedup: f32,
    /// HP-LeOPArd speedup over the baseline reported in Figure 9.
    pub paper_hp_speedup: f32,
    /// AE-LeOPArd energy reduction reported in Figure 10.
    pub paper_ae_energy: f32,
    /// HP-LeOPArd energy reduction reported in Figure 10.
    pub paper_hp_energy: f32,
}

impl TaskDescriptor {
    /// Full-scale model configuration for this task (paper dimensions, with
    /// the SQuAD sequence-length adjustment where applicable).
    pub fn model_config(&self) -> ModelConfig {
        let cfg = ModelConfig::paper_scale(self.family);
        if self.dataset == DatasetKind::Squad {
            cfg.with_squad_seq_len()
        } else {
            cfg
        }
    }

    /// Deterministic per-task seed for synthetic data generation.
    pub fn seed(&self) -> u64 {
        0x5EED_0000 + self.id as u64
    }

    /// Whether the paper metric for this task is perplexity (lower is
    /// better) rather than accuracy.
    pub fn metric_is_perplexity(&self) -> bool {
        self.dataset == DatasetKind::WikiText2
    }
}

/// Builds the full 43-task suite in the paper's ordering: the 20 MemN2N/bAbI
/// tasks, BERT-Base on the nine GLUE tasks then SQuAD, BERT-Large likewise,
/// ALBERT-XX-Large on SQuAD, GPT-2-Large on WikiText-2, and ViT-Base on
/// CIFAR-10.
pub fn full_suite() -> Vec<TaskDescriptor> {
    let mut tasks = Vec::with_capacity(43);
    let mut id = 0usize;
    let mut push = |tasks: &mut Vec<TaskDescriptor>,
                    name: String,
                    family: ModelFamily,
                    dataset: DatasetKind,
                    prune: f32,
                    base_metric: f32,
                    pruned_metric: f32,
                    ae: f32,
                    hp: f32,
                    ae_e: f32,
                    hp_e: f32| {
        tasks.push(TaskDescriptor {
            id,
            name,
            family,
            dataset,
            paper_pruning_rate: prune / 100.0,
            paper_baseline_metric: base_metric,
            paper_pruned_metric: pruned_metric,
            paper_ae_speedup: ae,
            paper_hp_speedup: hp,
            paper_ae_energy: ae_e,
            paper_hp_energy: hp_e,
        });
        id += 1;
    };

    // --- MemN2N on the 20 bAbI tasks (Figures 6a, 7a, 9, 10). Columns:
    // pruning rate %, baseline accuracy %, pruned accuracy %, AE/HP speedup,
    // AE/HP energy reduction.
    let memn2n: [(f32, f32, f32, f32, f32, f32, f32); 20] = [
        (97.41, 99.9, 100.0, 3.84, 5.13, 9.2, 9.6),
        (91.66, 84.8, 83.2, 2.67, 3.56, 5.7, 5.8),
        (86.16, 25.7, 26.8, 2.14, 2.86, 4.2, 4.4),
        (95.65, 99.1, 99.1, 2.78, 3.71, 6.5, 6.8),
        (82.27, 85.5, 86.3, 2.00, 2.50, 3.7, 3.8),
        (84.29, 89.6, 90.9, 2.10, 2.80, 4.0, 4.1),
        (93.80, 80.2, 79.5, 2.94, 3.93, 6.5, 6.7),
        (95.78, 87.4, 85.4, 3.45, 4.61, 7.9, 8.2),
        (88.53, 91.5, 92.2, 2.26, 3.02, 4.6, 4.8),
        (91.66, 85.4, 82.8, 2.42, 3.23, 5.2, 5.4),
        (96.26, 95.3, 94.3, 2.89, 3.86, 6.9, 7.1),
        (96.38, 100.0, 99.5, 3.39, 4.52, 7.9, 8.2),
        (94.66, 91.8, 92.2, 2.75, 3.66, 6.3, 6.5),
        (95.74, 91.1, 92.0, 2.80, 3.73, 6.6, 6.8),
        (95.11, 100.0, 100.0, 3.23, 4.31, 7.3, 7.6),
        (92.06, 42.7, 44.7, 2.82, 3.76, 6.0, 6.2),
        (86.31, 54.8, 55.2, 2.07, 2.76, 4.1, 4.3),
        (83.89, 91.5, 90.9, 2.04, 2.72, 3.9, 4.0),
        (89.86, 17.1, 17.0, 2.45, 3.26, 5.1, 5.2),
        (96.86, 99.7, 99.8, 3.66, 4.88, 8.6, 9.0),
    ];
    for (i, row) in memn2n.iter().enumerate() {
        push(
            &mut tasks,
            format!("MemN2N Task-{}", i + 1),
            ModelFamily::MemN2N,
            DatasetKind::Babi,
            row.0,
            row.1,
            row.2,
            row.3,
            row.4,
            row.5,
            row.6,
        );
    }

    // --- BERT-Base: nine GLUE tasks then SQuAD (Figures 6c, 7c, 9, 10).
    let glue_names = [
        "G-COLA", "G-MRPC", "G-RTE", "G-SST", "G-QNLI", "G-QQP", "G-WNLI", "G-MNLI", "G-STS",
    ];
    #[expect(clippy::approx_constant, reason = "3.14 is the paper's energy value")]
    let bert_b: [(f32, f32, f32, f32, f32, f32, f32); 9] = [
        (82.95, 83.80, 83.68, 1.59, 2.12, 3.17, 3.28),
        (69.88, 84.60, 85.00, 1.37, 1.37, 2.40, 2.31),
        (64.75, 67.90, 66.00, 1.16, 1.16, 2.14, 2.06),
        (74.22, 93.58, 93.23, 1.64, 2.19, 2.85, 3.21),
        (82.88, 90.80, 90.70, 1.57, 2.10, 3.14, 3.25),
        (86.43, 90.97, 90.60, 1.58, 2.11, 3.34, 3.46),
        (93.16, 56.34, 56.34, 1.82, 2.40, 4.23, 4.40),
        (80.68, 83.60, 83.50, 1.39, 1.85, 2.76, 2.85),
        (72.30, 86.00, 85.74, 1.25, 1.48, 2.29, 2.30),
    ];
    for (name, row) in glue_names.iter().zip(bert_b.iter()) {
        push(
            &mut tasks,
            format!("BERT-B {name}"),
            ModelFamily::BertBase,
            DatasetKind::Glue,
            row.0,
            row.1,
            row.2,
            row.3,
            row.4,
            row.5,
            row.6,
        );
    }
    push(
        &mut tasks,
        "BERT-B SQuAD".to_string(),
        ModelFamily::BertBase,
        DatasetKind::Squad,
        73.90,
        80.20,
        79.94,
        1.62,
        1.62,
        2.80,
        2.70,
    );

    // --- BERT-Large: nine GLUE tasks then SQuAD (Figures 6d, 7d, 9, 10).
    let bert_l: [(f32, f32, f32, f32, f32, f32, f32); 9] = [
        (78.10, 84.74, 83.40, 1.41, 1.89, 2.70, 2.79),
        (76.48, 84.30, 86.50, 1.39, 1.79, 2.62, 2.68),
        (66.78, 74.72, 75.45, 1.22, 1.22, 2.16, 2.09),
        (85.79, 93.69, 93.00, 2.08, 2.78, 4.10, 4.23),
        (65.21, 91.63, 90.26, 1.16, 1.16, 2.11, 2.04),
        (73.02, 91.20, 90.22, 1.36, 1.54, 2.45, 2.44),
        (93.04, 56.34, 56.34, 1.78, 2.37, 4.14, 4.30),
        (71.60, 85.94, 85.05, 1.35, 1.45, 2.40, 2.36),
        (69.65, 86.68, 86.02, 1.35, 1.35, 2.33, 2.26),
    ];
    for (name, row) in glue_names.iter().zip(bert_l.iter()) {
        push(
            &mut tasks,
            format!("BERT-L {name}"),
            ModelFamily::BertLarge,
            DatasetKind::Glue,
            row.0,
            row.1,
            row.2,
            row.3,
            row.4,
            row.5,
            row.6,
        );
    }
    push(
        &mut tasks,
        "BERT-L SQuAD".to_string(),
        ModelFamily::BertLarge,
        DatasetKind::Squad,
        74.14,
        83.51,
        83.30,
        1.62,
        1.62,
        2.72,
        2.50,
    );

    // --- ALBERT-XX-Large on SQuAD.
    push(
        &mut tasks,
        "ALBERT-XX-L SQuAD".to_string(),
        ModelFamily::AlbertXxLarge,
        DatasetKind::Squad,
        72.58,
        87.35,
        87.28,
        1.54,
        1.54,
        2.70,
        2.60,
    );

    // --- GPT-2-Large on WikiText-2 (perplexity: lower is better).
    push(
        &mut tasks,
        "GPT-2-L WikiText-2".to_string(),
        ModelFamily::Gpt2Large,
        DatasetKind::WikiText2,
        73.91,
        17.55,
        17.48,
        1.63,
        1.63,
        2.85,
        2.75,
    );

    // --- ViT-Base on CIFAR-10.
    push(
        &mut tasks,
        "ViT-B CIFAR-10".to_string(),
        ModelFamily::VitBase,
        DatasetKind::Cifar10,
        60.31,
        98.73,
        97.97,
        1.05,
        1.05,
        2.08,
        2.00,
    );

    tasks
}

/// The stratified "quick" subset used by `--quick` flags across the CLI and
/// harness binaries: every 4th task, which keeps at least one task per model
/// family.
pub fn quick_subset(tasks: Vec<TaskDescriptor>) -> Vec<TaskDescriptor> {
    tasks
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 4 == 0)
        .map(|(_, t)| t)
        .collect()
}

/// Geometric-mean reference points the paper reports for the whole suite:
/// `(AE speedup, HP speedup, AE energy, HP energy)` = (1.9, 2.4, 3.9, 4.0).
pub const PAPER_GMEANS: (f32, f32, f32, f32) = (1.9, 2.4, 3.9, 4.0);

/// Mean bits processed per model family reported in Section 5.2 (used as the
/// reference for the Figure 8 reproduction): `(family label, bits)`.
pub const PAPER_MEAN_BITS: [(&str, f32); 8] = [
    ("MemN2N", 4.5),
    ("BERT-B-GLUE", 8.3),
    ("BERT-L-GLUE", 8.0),
    ("BERT-B-SQUAD", 7.6),
    ("BERT-L-SQUAD", 9.0),
    ("ALBERT-XX-L", 8.0),
    ("GPT-2-L", 7.6),
    ("ViT-B", 8.5),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_exactly_43_tasks_with_unique_ids_and_names() {
        let tasks = full_suite();
        assert_eq!(tasks.len(), 43);
        let mut ids: Vec<usize> = tasks.iter().map(|t| t.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 43);
        let mut names: Vec<&str> = tasks.iter().map(|t| t.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 43, "task names must be unique");
    }

    #[test]
    fn family_counts_match_the_paper() {
        let tasks = full_suite();
        let count = |f: ModelFamily| tasks.iter().filter(|t| t.family == f).count();
        assert_eq!(count(ModelFamily::MemN2N), 20);
        assert_eq!(count(ModelFamily::BertBase), 10);
        assert_eq!(count(ModelFamily::BertLarge), 10);
        assert_eq!(count(ModelFamily::AlbertXxLarge), 1);
        assert_eq!(count(ModelFamily::Gpt2Large), 1);
        assert_eq!(count(ModelFamily::VitBase), 1);
    }

    #[test]
    fn pruning_rates_are_fractions_and_follow_family_trends() {
        let tasks = full_suite();
        for t in &tasks {
            assert!(
                t.paper_pruning_rate > 0.0 && t.paper_pruning_rate < 1.0,
                "{} rate {}",
                t.name,
                t.paper_pruning_rate
            );
        }
        // MemN2N prunes most, ViT least (Section 5.2).
        let mean = |f: ModelFamily| {
            let v: Vec<f32> = tasks
                .iter()
                .filter(|t| t.family == f)
                .map(|t| t.paper_pruning_rate)
                .collect();
            v.iter().sum::<f32>() / v.len() as f32
        };
        assert!(mean(ModelFamily::MemN2N) > 0.9);
        assert!(mean(ModelFamily::VitBase) < 0.65);
        assert!(mean(ModelFamily::MemN2N) > mean(ModelFamily::BertBase));
    }

    #[test]
    fn average_accuracy_degradation_is_small() {
        // The paper's headline: accuracy degradation averages below ~0.4
        // percentage points per family (and <0.2% overall excluding ViT).
        let tasks = full_suite();
        let diffs: Vec<f32> = tasks
            .iter()
            .filter(|t| !t.metric_is_perplexity())
            .map(|t| t.paper_baseline_metric - t.paper_pruned_metric)
            .collect();
        let mean = diffs.iter().sum::<f32>() / diffs.len() as f32;
        assert!(mean.abs() < 0.5, "mean degradation {mean} too large");
    }

    #[test]
    fn squad_tasks_use_384_sequence_length() {
        let tasks = full_suite();
        let squad = tasks
            .iter()
            .find(|t| t.name == "BERT-B SQuAD")
            .expect("task exists");
        assert_eq!(squad.model_config().seq_len, 384);
        let glue = tasks
            .iter()
            .find(|t| t.name == "BERT-B G-QNLI")
            .expect("task exists");
        assert_eq!(glue.model_config().seq_len, 512);
    }

    #[test]
    fn speedups_and_energies_are_consistent_with_gmeans() {
        use leopard_tensor::stats::geometric_mean;
        let tasks = full_suite();
        let ae: Vec<f64> = tasks.iter().map(|t| t.paper_ae_speedup.into()).collect();
        let hp: Vec<f64> = tasks.iter().map(|t| t.paper_hp_speedup.into()).collect();
        let gm_ae = geometric_mean(&ae);
        let gm_hp = geometric_mean(&hp);
        assert!(
            (gm_ae - f64::from(PAPER_GMEANS.0)).abs() < 0.15,
            "AE gmean {gm_ae}"
        );
        assert!(
            (gm_hp - f64::from(PAPER_GMEANS.1)).abs() < 0.25,
            "HP gmean {gm_hp}"
        );
    }

    #[test]
    fn seeds_are_unique_and_deterministic() {
        let tasks = full_suite();
        let seeds: std::collections::BTreeSet<u64> = tasks.iter().map(|t| t.seed()).collect();
        assert_eq!(seeds.len(), 43);
        assert_eq!(full_suite()[7].seed(), tasks[7].seed());
    }

    #[test]
    fn quick_subset_is_stratified_across_families() {
        let quick = quick_subset(full_suite());
        assert_eq!(quick.len(), 11);
        assert_eq!(quick[0].id, 0);
        // Every family with >= 4 tasks stays represented.
        assert!(quick.iter().any(|t| t.family == ModelFamily::MemN2N));
        assert!(quick.iter().any(|t| t.family == ModelFamily::BertBase));
        assert!(quick.iter().any(|t| t.family == ModelFamily::BertLarge));
    }

    #[test]
    fn gpt2_uses_perplexity() {
        let tasks = full_suite();
        let gpt = tasks
            .iter()
            .find(|t| t.family == ModelFamily::Gpt2Large)
            .unwrap();
        assert!(gpt.metric_is_perplexity());
        assert!(!tasks[0].metric_is_perplexity());
    }

    #[test]
    fn dataset_labels_are_human_readable() {
        assert_eq!(DatasetKind::Babi.label(), "bAbI");
        assert_eq!(DatasetKind::WikiText2.label(), "WikiText-2");
    }
}
