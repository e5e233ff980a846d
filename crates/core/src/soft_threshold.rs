//! The differentiable soft-threshold pruning operation (Equation 6).
//!
//! The ideal pruning operation keeps a score unchanged when it is at or above
//! the threshold `Th` and replaces it with a large negative constant when it
//! is below, so that the following softmax drives its probability to zero.
//! That step function is not differentiable at `x = Th`, so the paper blends
//! both branches with a `tanh` whose sharpness `s` controls how closely the
//! approximation tracks the ideal operation:
//!
//! * for `x >= Th` the output is `x * tanh(s (x - Th))`, which approaches `x`
//!   away from the threshold;
//! * for `x < Th` the output is `c * tanh(s (x - Th))`, which approaches `-c`
//!   away from the threshold (the paper uses `c = 1000`).
//!
//! Because both branches share the `tanh(s (x - Th))` factor, gradients flow
//! through the threshold as well as through the scores, which is exactly what
//! lets back-propagation *move* scores across the threshold and *move* the
//! threshold itself.

use leopard_autodiff::{Tape, Var};
use leopard_tensor::Matrix;

/// Hyper-parameters of the soft threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftThresholdConfig {
    /// Sharpness `s` of the `tanh` blend. The paper uses 10.
    pub sharpness: f32,
    /// Clip magnitude `c`: pruned scores asymptotically approach `-c`.
    /// The paper uses 1000.
    pub clip: f32,
}

impl Default for SoftThresholdConfig {
    fn default() -> Self {
        Self {
            sharpness: 10.0,
            clip: 1000.0,
        }
    }
}

impl SoftThresholdConfig {
    /// Creates a configuration, validating the parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sharpness` or `clip` is not strictly positive.
    pub fn new(sharpness: f32, clip: f32) -> Self {
        assert!(sharpness > 0.0, "sharpness must be positive");
        assert!(clip > 0.0, "clip must be positive");
        Self { sharpness, clip }
    }

    /// Forward value of the soft threshold for a single score.
    pub fn apply(&self, x: f32, threshold: f32) -> f32 {
        let t = (self.sharpness * (x - threshold)).tanh();
        if x >= threshold {
            x * t
        } else {
            self.clip * t
        }
    }

    /// Partial derivative of the output with respect to the score `x`.
    pub fn d_dx(&self, x: f32, threshold: f32) -> f32 {
        let u = self.sharpness * (x - threshold);
        let t = u.tanh();
        let sech2 = 1.0 - t * t;
        if x >= threshold {
            t + x * self.sharpness * sech2
        } else {
            self.clip * self.sharpness * sech2
        }
    }

    /// Partial derivative of the output with respect to the threshold `Th`.
    pub fn d_dth(&self, x: f32, threshold: f32) -> f32 {
        let u = self.sharpness * (x - threshold);
        let t = u.tanh();
        let sech2 = 1.0 - t * t;
        if x >= threshold {
            -x * self.sharpness * sech2
        } else {
            -self.clip * self.sharpness * sech2
        }
    }

    /// Applies the soft threshold element-wise to a matrix (forward only).
    pub fn apply_matrix(&self, scores: &Matrix, threshold: f32) -> Matrix {
        scores.map(|x| self.apply(x, threshold))
    }
}

/// Records the soft-threshold operation on a tape.
///
/// `scores` is an `s x s` node, `threshold` is a `1 x 1` node (the per-layer
/// learnable threshold). Returns the soft-thresholded score node. The exact
/// partial derivatives of Equation 6, [`SoftThresholdConfig::d_dx`] and
/// [`SoftThresholdConfig::d_dth`], are evaluated per score here and recorded
/// with [`Tape::pointwise`] (the threshold as its broadcast operand), so a
/// single `Tape::backward` call co-optimizes weights and thresholds, which
/// is the heart of the paper's method.
///
/// # Panics
///
/// Panics if `threshold` is not a `1 x 1` node.
pub fn soft_threshold_op(
    tape: &Tape,
    scores: Var,
    threshold: Var,
    config: SoftThresholdConfig,
) -> Var {
    assert_eq!(
        tape.shape(threshold),
        (1, 1),
        "threshold must be a 1x1 scalar node"
    );
    let score_values = tape.value(scores);
    let th = tape.value(threshold)[(0, 0)];
    let output = config.apply_matrix(&score_values, th);
    let d_dx = score_values.map(|x| config.d_dx(x, th));
    let d_dth = score_values.map(|x| config.d_dth(x, th));
    tape.pointwise(scores, output, d_dx, Some((threshold, d_dth)))
}

/// The ideal (non-differentiable) pruning operation the soft threshold
/// approximates: scores below `threshold` become `-clip`, the rest pass
/// through unchanged. Used at inference time and by tests that check the
/// approximation quality.
pub fn hard_threshold(scores: &Matrix, threshold: f32, clip: f32) -> Matrix {
    scores.map(|x| if x >= threshold { x } else { -clip })
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_autodiff::gradcheck::check_unary;
    use leopard_tensor::rng;

    #[test]
    fn default_matches_paper_constants() {
        let cfg = SoftThresholdConfig::default();
        assert_eq!(cfg.sharpness, 10.0);
        assert_eq!(cfg.clip, 1000.0);
    }

    #[test]
    #[should_panic(expected = "sharpness must be positive")]
    fn rejects_nonpositive_sharpness() {
        let _ = SoftThresholdConfig::new(0.0, 1000.0);
    }

    #[test]
    fn far_above_threshold_passes_through() {
        let cfg = SoftThresholdConfig::default();
        let y = cfg.apply(2.0, 0.5);
        assert!((y - 2.0).abs() < 1e-3, "expected ~2.0, got {y}");
    }

    #[test]
    fn far_below_threshold_clips_to_minus_c() {
        let cfg = SoftThresholdConfig::default();
        let y = cfg.apply(-1.5, 0.5);
        assert!((y + cfg.clip).abs() < 1.0, "expected ~-1000, got {y}");
    }

    #[test]
    fn near_threshold_is_smooth_and_small() {
        let cfg = SoftThresholdConfig::default();
        // Exactly at the threshold the tanh factor is zero.
        assert_eq!(cfg.apply(0.5, 0.5), 0.0);
        // Slightly above/below remain finite and continuous-ish in value
        // (the branches agree at the threshold because both are ~0 there).
        let above = cfg.apply(0.5 + 1e-4, 0.5);
        let below = cfg.apply(0.5 - 1e-4, 0.5);
        assert!(above.abs() < 0.1);
        assert!(below.abs() < 2.0);
    }

    #[test]
    fn derivatives_match_finite_differences_away_from_branch_point() {
        let cfg = SoftThresholdConfig::new(10.0, 100.0);
        let th = 0.3;
        for &x in &[-0.6f32, -0.1, 0.25, 0.42, 0.9, 1.7] {
            let eps = 1e-3;
            // Skip points whose ±eps window straddles the branch boundary.
            if (x - th).abs() < 2.0 * eps {
                continue;
            }
            let numeric_dx = (cfg.apply(x + eps, th) - cfg.apply(x - eps, th)) / (2.0 * eps);
            let numeric_dth = (cfg.apply(x, th + eps) - cfg.apply(x, th - eps)) / (2.0 * eps);
            let tol = 0.05 * numeric_dx.abs().max(1.0);
            assert!(
                (numeric_dx - cfg.d_dx(x, th)).abs() < tol,
                "d_dx mismatch at x={x}: {numeric_dx} vs {}",
                cfg.d_dx(x, th)
            );
            let tol = 0.05 * numeric_dth.abs().max(1.0);
            assert!(
                (numeric_dth - cfg.d_dth(x, th)).abs() < tol,
                "d_dth mismatch at x={x}: {numeric_dth} vs {}",
                cfg.d_dth(x, th)
            );
        }
    }

    #[test]
    fn tape_op_gradients_match_finite_differences_for_scores() {
        // Use a gentle configuration so finite differences are well behaved.
        let cfg = SoftThresholdConfig::new(4.0, 10.0);
        let scores = rng::uniform_matrix(&mut rng::seeded(11), 3, 4, -1.0, 1.0);
        let err = check_unary(&scores, 5e-3, move |tape, s| {
            let th = tape.constant(Matrix::filled(1, 1, 0.2));
            let pruned = soft_threshold_op(tape, s, th, cfg);
            tape.sum(pruned)
        });
        assert!(err < 0.3, "score gradient error {err}");
    }

    #[test]
    fn tape_op_gradients_match_finite_differences_for_threshold() {
        let cfg = SoftThresholdConfig::new(4.0, 10.0);
        // Keep scores away from the threshold: the derivative has a branch
        // discontinuity at x == Th, where finite differences are invalid
        // (same guard as derivatives_match_finite_differences_away_from_
        // branch_point).
        let scores = rng::uniform_matrix(&mut rng::seeded(13), 4, 4, -1.0, 1.0).map(|x| {
            if (x - 0.15).abs() < 0.05 {
                x + 0.1
            } else {
                x
            }
        });
        let th0 = Matrix::filled(1, 1, 0.15);
        let s_fixed = scores;
        let err = check_unary(&th0, 5e-3, move |tape, th| {
            let s = tape.constant(s_fixed.clone());
            let pruned = soft_threshold_op(tape, s, th, cfg);
            tape.sum(pruned)
        });
        assert!(err < 0.5, "threshold gradient error {err}");
    }

    #[test]
    fn soft_threshold_approximates_hard_threshold_away_from_boundary() {
        let cfg = SoftThresholdConfig::default();
        let scores = rng::uniform_matrix(&mut rng::seeded(17), 8, 8, -2.0, 2.0);
        let th = 0.1;
        let soft = cfg.apply_matrix(&scores, th);
        let hard = hard_threshold(&scores, th, cfg.clip);
        let mut checked = 0;
        for (s, (&soft_v, &hard_v)) in scores.iter().zip(soft.iter().zip(hard.iter())) {
            if (s - th).abs() > 0.25 {
                checked += 1;
                assert!(
                    (soft_v - hard_v).abs() < 0.05 * hard_v.abs().max(1.0),
                    "mismatch at score {s}: soft {soft_v} vs hard {hard_v}"
                );
            }
        }
        assert!(checked > 10, "test should exercise many elements");
    }

    #[test]
    fn raising_threshold_lowers_output_sum() {
        // Monotonicity property the optimizer relies on: a higher threshold
        // prunes more, so the summed soft-threshold output decreases.
        let cfg = SoftThresholdConfig::default();
        let scores = rng::uniform_matrix(&mut rng::seeded(19), 10, 10, -1.0, 1.0);
        let low = cfg.apply_matrix(&scores, -0.5).sum();
        let high = cfg.apply_matrix(&scores, 0.5).sum();
        assert!(high < low);
    }

    #[test]
    #[should_panic(expected = "1x1 scalar")]
    fn non_scalar_threshold_panics() {
        let tape = Tape::new();
        let s = tape.leaf(Matrix::zeros(2, 2));
        let th = tape.leaf(Matrix::zeros(1, 2));
        let _ = soft_threshold_op(&tape, s, th, SoftThresholdConfig::default());
    }
}
