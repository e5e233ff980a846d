//! The differentiable surrogate L0 regularizer (Equation 8).
//!
//! A plain L0 penalty would count the scores that survive pruning, but the
//! indicator function has no useful gradient. The paper replaces the
//! indicator with a sharp sigmoid: a score that was soft-thresholded sits
//! near `-c` when pruned and near its original (much larger) value when kept,
//! so `sigmoid(k (score + c - alpha))` is ~0 for pruned scores and ~1 for
//! surviving ones. Summing that quantity approximates the number of
//! survivors, and its gradient pushes borderline scores toward the pruned
//! region — the sparsity pressure that counteracts the task loss.
//!
//! The paper's constants are `k = 100` and `alpha = 1`.

use crate::soft_threshold::SoftThresholdConfig;
use leopard_autodiff::{Tape, Var};
use leopard_tensor::{ops, Matrix};

/// Hyper-parameters of the surrogate L0 regularizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L0Config {
    /// Sigmoid sharpness `k` (paper: 100).
    pub sharpness: f32,
    /// Offset `alpha` (paper: 1).
    pub alpha: f32,
    /// Clip magnitude `c` shared with the soft threshold (paper: 1000).
    pub clip: f32,
    /// Balancing factor `lambda` multiplying the regularizer in the loss.
    pub lambda: f32,
    /// When true the count is divided by the number of scores, making
    /// `lambda` independent of sequence length. The paper's Equation 7 uses
    /// the raw count; normalization is this reproduction's default because it
    /// keeps one `lambda` usable across the 43 tasks' very different
    /// sequence lengths.
    pub normalize: bool,
}

impl Default for L0Config {
    fn default() -> Self {
        Self {
            sharpness: 100.0,
            alpha: 1.0,
            clip: 1000.0,
            lambda: 0.05,
            normalize: true,
        }
    }
}

impl L0Config {
    /// Creates a configuration consistent with a soft-threshold configuration
    /// (shares its clip constant).
    pub fn for_soft_threshold(soft: SoftThresholdConfig, lambda: f32) -> Self {
        Self {
            clip: soft.clip,
            lambda,
            ..Self::default()
        }
    }

    /// Surrogate indicator for a single soft-thresholded score.
    pub fn indicator(&self, soft_score: f32) -> f32 {
        ops::sigmoid(self.sharpness * (soft_score + self.clip - self.alpha))
    }

    /// Derivative of the surrogate indicator with respect to the score.
    pub fn indicator_derivative(&self, soft_score: f32) -> f32 {
        let y = self.indicator(soft_score);
        self.sharpness * y * (1.0 - y)
    }

    /// Approximate count of surviving scores in a soft-thresholded matrix
    /// (optionally normalized to a fraction).
    pub fn surrogate_count(&self, soft_scores: &Matrix) -> f32 {
        let raw: f32 = soft_scores.iter().map(|&v| self.indicator(v)).sum();
        if self.normalize && !soft_scores.is_empty() {
            raw / soft_scores.len() as f32
        } else {
            raw
        }
    }

    /// Exact count of surviving scores (those strictly above `-c`), i.e. the
    /// quantity Equation 8a defines and the surrogate approximates.
    pub fn exact_count(&self, soft_scores: &Matrix) -> f32 {
        let raw = soft_scores
            .iter()
            .filter(|&&v| v > -self.clip + self.alpha)
            .count() as f32;
        if self.normalize && !soft_scores.is_empty() {
            raw / soft_scores.len() as f32
        } else {
            raw
        }
    }
}

/// Records the surrogate L0 term on the tape: the (optionally normalized)
/// approximate survivor count of `soft_scores`, **already multiplied by
/// `lambda`**, as a `1 x 1` node ready to be added to the task loss. The
/// per-score [`L0Config::indicator_derivative`] and the scale `lambda`
/// (over the score count when normalized) are recorded with
/// [`Tape::reduce`].
pub fn l0_regularizer_op(tape: &Tape, soft_scores: Var, config: L0Config) -> Var {
    let values = tape.value(soft_scores);
    let count = config.surrogate_count(&values);
    let n = values.len() as f32;
    let scale = if config.normalize && n > 0.0 {
        config.lambda / n
    } else {
        config.lambda
    };
    let derivative = values.map(|v| config.indicator_derivative(v));
    tape.reduce(soft_scores, config.lambda * count, derivative, scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soft_threshold::soft_threshold_op;
    use leopard_autodiff::gradcheck::check_unary;
    use leopard_tensor::rng;

    #[test]
    fn defaults_match_paper_constants() {
        let cfg = L0Config::default();
        assert_eq!(cfg.sharpness, 100.0);
        assert_eq!(cfg.alpha, 1.0);
        assert_eq!(cfg.clip, 1000.0);
    }

    #[test]
    fn indicator_separates_pruned_from_kept() {
        let cfg = L0Config::default();
        // A pruned score sits at -clip.
        assert!(cfg.indicator(-cfg.clip) < 1e-3);
        // A kept score is near its original value (order 1).
        assert!(cfg.indicator(0.5) > 0.999);
        assert!(cfg.indicator(5.0) > 0.999);
    }

    #[test]
    fn surrogate_count_tracks_exact_count() {
        let cfg = L0Config {
            normalize: false,
            ..L0Config::default()
        };
        // Construct a matrix of clearly pruned (-1000) and clearly kept values.
        let soft = Matrix::from_rows(&[
            vec![-1000.0, 0.4, 2.0, -1000.0],
            vec![1.5, -1000.0, -1000.0, 0.9],
        ]);
        let approx = cfg.surrogate_count(&soft);
        let exact = cfg.exact_count(&soft);
        assert!((approx - exact).abs() < 0.05, "{approx} vs {exact}");
        assert_eq!(exact, 4.0);
    }

    #[test]
    fn normalization_divides_by_element_count() {
        let cfg = L0Config::default();
        let soft = Matrix::from_rows(&[vec![-1000.0, 1.0]]);
        let frac = cfg.surrogate_count(&soft);
        assert!((frac - 0.5).abs() < 0.05);
    }

    #[test]
    fn regularizer_gradient_matches_finite_difference() {
        // Use gentler sharpness so the sigmoid is not numerically saturated
        // at the probe points.
        let cfg = L0Config {
            sharpness: 3.0,
            alpha: 0.0,
            clip: 1.0,
            lambda: 1.0,
            normalize: true,
        };
        let scores = rng::uniform_matrix(&mut rng::seeded(5), 3, 3, -1.0, 1.0);
        let err = check_unary(&scores, 1e-3, move |tape, s| {
            l0_regularizer_op(tape, s, cfg)
        });
        assert!(err < 1e-2, "regularizer gradient error {err}");
    }

    #[test]
    fn lambda_scales_the_term() {
        let tape = Tape::new();
        let s = tape.leaf(Matrix::from_rows(&[vec![0.5, -1000.0]]));
        let small = l0_regularizer_op(
            &tape,
            s,
            L0Config {
                lambda: 0.1,
                ..L0Config::default()
            },
        );
        let large = l0_regularizer_op(
            &tape,
            s,
            L0Config {
                lambda: 1.0,
                ..L0Config::default()
            },
        );
        let ratio = tape.value(large)[(0, 0)] / tape.value(small)[(0, 0)];
        assert!((ratio - 10.0).abs() < 1e-3);
    }

    #[test]
    fn combined_with_soft_threshold_pushes_threshold_up() {
        // The full pipeline the fine-tuner uses: raw scores -> soft threshold
        // -> L0 term. The gradient of the L0 term with respect to the
        // threshold must be negative (raising Th lowers the survivor count),
        // so gradient descent on the regularized loss raises the threshold.
        let soft_cfg = SoftThresholdConfig::new(10.0, 1000.0);
        let l0_cfg = L0Config::for_soft_threshold(soft_cfg, 1.0);
        let tape = Tape::new();
        let scores = tape.constant(rng::uniform_matrix(&mut rng::seeded(23), 6, 6, -1.0, 1.0));
        let th = tape.leaf(Matrix::filled(1, 1, 0.0));
        let soft = soft_threshold_op(&tape, scores, th, soft_cfg);
        let reg = l0_regularizer_op(&tape, soft, l0_cfg);
        tape.backward(reg);
        let grad_th = tape.grad(th)[(0, 0)];
        assert!(
            grad_th < 0.0,
            "dL0/dTh should be negative so SGD raises Th, got {grad_th}"
        );
    }
}
