//! Synthetic sequence-classification tasks.
//!
//! The paper fine-tunes on GLUE, SQuAD, bAbI, WikiText-2, and CIFAR-10. Those
//! datasets (and the pre-trained checkpoints) are not available offline, so
//! the reproduction trains on synthetic tasks that are designed to have the
//! same property that makes runtime pruning work: **only a few tokens carry
//! the information that determines the label**, so a trained model's attention
//! concentrates on a small subset of positions and most scores sit well below
//! any useful threshold.
//!
//! Each sample is an `s x model_dim` embedding matrix (we work directly in
//! embedding space; a token-id lookup table would add nothing to the code
//! paths under study). A sample is built from:
//!
//! * `signal_tokens` positions carrying a class-specific direction vector,
//! * every other position carrying isotropic Gaussian noise,
//!
//! and the label is the class whose direction was planted. Difficulty is
//! controlled by the noise level and the number of signal positions.

use crate::config::ModelConfig;
use leopard_tensor::{rng, Matrix};
use rand::rngs::StdRng;
use rand::Rng;

/// Parameters of a synthetic classification task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Number of classes.
    pub classes: usize,
    /// How many positions carry the class signal.
    pub signal_tokens: usize,
    /// Standard deviation of the background noise.
    pub noise_std: f32,
    /// Scale of the class-direction vectors relative to the noise.
    pub signal_strength: f32,
    /// Seed from which the class directions and every sample are derived.
    pub seed: u64,
}

impl Default for TaskSpec {
    fn default() -> Self {
        Self {
            classes: 4,
            signal_tokens: 3,
            noise_std: 0.8,
            signal_strength: 2.0,
            seed: 0xC0FFEE,
        }
    }
}

/// A single labelled sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The `s x model_dim` embedding matrix.
    pub input: Matrix,
    /// The class label in `0..classes`.
    pub label: usize,
}

/// A generated dataset split.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// The samples of this split.
    pub samples: Vec<Sample>,
    /// The task the samples were drawn from.
    pub spec: TaskSpec,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the split is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over `(input, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Matrix, usize)> {
        self.samples.iter().map(|s| (&s.input, s.label))
    }
}

/// Generator for a synthetic task tied to a specific model configuration.
#[derive(Debug, Clone)]
pub struct TaskGenerator {
    config: ModelConfig,
    spec: TaskSpec,
    /// One unit direction per class, `classes x model_dim`.
    class_directions: Matrix,
}

impl TaskGenerator {
    /// Creates a generator; the class directions are sampled once from the
    /// task seed so train and evaluation splits share them.
    ///
    /// # Panics
    ///
    /// Panics if the spec requests more signal tokens than the sequence holds
    /// or zero classes.
    pub fn new(config: ModelConfig, spec: TaskSpec) -> Self {
        assert!(spec.classes > 0, "need at least one class");
        assert!(
            spec.signal_tokens <= config.seq_len,
            "signal tokens exceed sequence length"
        );
        let mut r = rng::seeded(spec.seed);
        let mut dirs = rng::normal_matrix(&mut r, spec.classes, config.model_dim, 0.0, 1.0);
        // Normalize each class direction to unit length so signal strength is
        // controlled purely by `signal_strength`.
        for c in 0..spec.classes {
            let norm: f32 = dirs.row(c).iter().map(|v| v * v).sum::<f32>().sqrt();
            if norm > 0.0 {
                for x in dirs.row_mut(c) {
                    *x /= norm;
                }
            }
        }
        Self {
            config,
            spec,
            class_directions: dirs,
        }
    }

    /// The model configuration the samples are shaped for.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Generates a dataset split of `n` samples. `split_seed` distinguishes
    /// train / eval splits while sharing class directions.
    pub fn generate(&self, n: usize, split_seed: u64) -> Dataset {
        let mut r = rng::seeded(self.spec.seed ^ split_seed.rotate_left(17));
        let samples = (0..n).map(|_| self.generate_sample(&mut r)).collect();
        Dataset {
            samples,
            spec: self.spec,
        }
    }

    fn generate_sample(&self, r: &mut StdRng) -> Sample {
        let s = self.config.seq_len;
        let d = self.config.model_dim;
        let label = r.gen_range(0..self.spec.classes);
        let mut input = rng::normal_matrix(r, s, d, 0.0, self.spec.noise_std);
        // Choose the signal positions without replacement.
        let positions = rng::permutation(r, s);
        for &pos in positions.iter().take(self.spec.signal_tokens) {
            for c in 0..d {
                input[(pos, c)] += self.spec.signal_strength * self.class_directions[(label, c)];
            }
        }
        Sample { input, label }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, ModelFamily};

    fn tiny_config() -> ModelConfig {
        ModelConfig {
            family: ModelFamily::MemN2N,
            layers: 2,
            heads: 1,
            head_dim: 16,
            model_dim: 16,
            ffn_dim: 32,
            seq_len: 10,
        }
    }

    #[test]
    fn generator_produces_requested_count_and_shapes() {
        let gen = TaskGenerator::new(tiny_config(), TaskSpec::default());
        let data = gen.generate(7, 1);
        assert_eq!(data.len(), 7);
        assert!(!data.is_empty());
        for (x, label) in data.iter() {
            assert_eq!(x.shape(), (10, 16));
            assert!(label < 4);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen = TaskGenerator::new(tiny_config(), TaskSpec::default());
        let a = gen.generate(3, 42);
        let b = gen.generate(3, 42);
        assert_eq!(a.samples, b.samples);
        let c = gen.generate(3, 43);
        assert_ne!(a.samples, c.samples);
    }

    #[test]
    fn different_splits_share_class_structure() {
        // A nearest-class-direction classifier trained on nothing should do
        // better than chance on both splits, showing the signal is real and
        // consistent across splits.
        let spec = TaskSpec {
            noise_std: 0.3,
            signal_strength: 3.0,
            ..TaskSpec::default()
        };
        let gen = TaskGenerator::new(tiny_config(), spec);
        let eval = gen.generate(64, 7);
        let mut correct = 0;
        for (x, label) in eval.iter() {
            // Mean-pool and pick the class with highest dot product.
            let mut pooled = [0.0f32; 16];
            for r in 0..x.rows() {
                for c in 0..x.cols() {
                    pooled[c] += x[(r, c)] / x.rows() as f32;
                }
            }
            let mut best = 0;
            let mut best_dot = f32::NEG_INFINITY;
            for cls in 0..spec.classes {
                let dot: f32 = (0..16)
                    .map(|c| pooled[c] * gen.class_directions[(cls, c)])
                    .sum();
                if dot > best_dot {
                    best_dot = dot;
                    best = cls;
                }
            }
            if best == label {
                correct += 1;
            }
        }
        let acc = correct as f32 / eval.len() as f32;
        assert!(acc > 0.5, "nearest-direction accuracy too low: {acc}");
    }

    #[test]
    #[should_panic(expected = "signal tokens exceed sequence length")]
    fn too_many_signal_tokens_panics() {
        let spec = TaskSpec {
            signal_tokens: 100,
            ..TaskSpec::default()
        };
        let _ = TaskGenerator::new(tiny_config(), spec);
    }
}
