//! Scaled dot-product attention (Equations 1–4 of the paper).
//!
//! Two forward paths are provided:
//!
//! * [`attention_train`] — a differentiable forward over a
//!   [`leopard_autodiff::Tape`], used during pruning-aware fine-tuning. The
//!   [`TrainScoreHook`] lets `leopard-core` splice in its soft threshold.
//! * [`attention_inference`] — a plain `Matrix` forward that records the raw
//!   and post-hook score matrices plus per-row pruning statistics. The
//!   accelerator simulator replays these matrices to obtain cycle counts.

use crate::hooks::{InferenceScoreHook, TrainScoreHook};
use leopard_autodiff::{Tape, Var};
use leopard_tensor::{ops, Matrix};

/// Value to which pruned scores are clipped during inference. Large enough
/// that `exp(score - max)` underflows to zero in the softmax, matching the
/// paper's "replaced by −∞" description while staying finite.
pub const PRUNED_SCORE: f32 = -1.0e4;

/// Result of an inference-mode attention evaluation.
#[derive(Debug, Clone)]
pub struct AttentionOutput {
    /// Attention output `P * V`, shaped `s x d`.
    pub output: Matrix,
    /// Raw scaled scores `Q * K^T / sqrt(d)` before the hook ran.
    pub raw_scores: Matrix,
    /// Scores after the hook (pruned entries clipped to [`PRUNED_SCORE`]).
    pub hooked_scores: Matrix,
    /// Softmax probabilities computed from the hooked scores.
    pub probabilities: Matrix,
    /// Number of score entries the hook pruned (clipped at or below
    /// [`PRUNED_SCORE`]).
    pub pruned_count: usize,
}

/// Differentiable single-head attention.
///
/// `q`, `k`, and `v` are tape nodes shaped `s x d`; the returned node is the
/// `s x d` attention output. `layer` and `head` are forwarded to the hook so
/// per-layer thresholds can be applied.
pub fn attention_train(
    tape: &Tape,
    q: Var,
    k: Var,
    v: Var,
    hook: &impl TrainScoreHook,
    layer: usize,
    head: usize,
) -> Var {
    let (_, d) = tape.shape(q);
    let k_t = tape.transpose(k);
    let scores = tape.matmul(q, k_t);
    let scaled = tape.scale(scores, 1.0 / (d as f32).sqrt());
    let hooked = hook.on_scores(tape, scaled, layer, head);
    let probs = tape.softmax_rows(hooked);
    tape.matmul(probs, v)
}

/// Inference-mode single-head attention with score statistics.
///
/// # Panics
///
/// Panics if `q`, `k`, and `v` do not share the same shape `s x d`.
pub fn attention_inference(
    q: &Matrix,
    k: &Matrix,
    v: &Matrix,
    hook: &impl InferenceScoreHook,
    layer: usize,
    head: usize,
) -> AttentionOutput {
    assert_eq!(q.shape(), k.shape(), "q and k must share shape");
    assert_eq!(q.shape(), v.shape(), "q and v must share shape");
    let d = q.cols();
    let raw_scores = q.matmul(&k.transpose()).scale(1.0 / (d as f32).sqrt());
    let mut hooked_scores = raw_scores.clone();
    hook.on_scores(&mut hooked_scores, layer, head);
    let pruned_count = hooked_scores.iter().filter(|&&s| s <= PRUNED_SCORE).count();
    let probabilities = ops::softmax_rows(&hooked_scores);
    let output = probabilities.matmul(v);
    AttentionOutput {
        output,
        raw_scores,
        hooked_scores,
        probabilities,
        pruned_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::IdentityHook;
    use leopard_tensor::rng;

    struct ClipHook {
        threshold: f32,
    }

    impl InferenceScoreHook for ClipHook {
        fn on_scores(&self, scores: &mut Matrix, _layer: usize, _head: usize) {
            scores.map_inplace(|s| if s < self.threshold { PRUNED_SCORE } else { s });
        }
    }

    fn random_qkv(s: usize, d: usize, seed: u64) -> (Matrix, Matrix, Matrix) {
        let mut r = rng::seeded(seed);
        (
            rng::normal_matrix(&mut r, s, d, 0.0, 1.0),
            rng::normal_matrix(&mut r, s, d, 0.0, 1.0),
            rng::normal_matrix(&mut r, s, d, 0.0, 1.0),
        )
    }

    #[test]
    fn inference_rows_are_convex_combinations_of_values() {
        let (q, k, v) = random_qkv(6, 8, 1);
        let out = attention_inference(&q, &k, &v, &IdentityHook, 0, 0);
        assert_eq!(out.output.shape(), (6, 8));
        // Probabilities sum to one per row.
        for r in 0..6 {
            let sum: f32 = out.probabilities.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Output stays within the convex hull of V column-wise (per column min/max).
        for c in 0..8 {
            let col = v.col(c);
            let (lo, hi) = col
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(l, h), &x| {
                    (l.min(x), h.max(x))
                });
            for r in 0..6 {
                assert!(out.output[(r, c)] >= lo - 1e-4 && out.output[(r, c)] <= hi + 1e-4);
            }
        }
        assert_eq!(out.pruned_count, 0);
    }

    #[test]
    fn pruning_hook_reduces_contributions() {
        let (q, k, v) = random_qkv(8, 8, 2);
        let hook = ClipHook { threshold: 0.3 };
        let out = attention_inference(&q, &k, &v, &hook, 0, 0);
        assert!(out.pruned_count > 0, "expected some pruning with th=0.3");
        // Pruned entries have ~zero probability — in rows that kept at least
        // one survivor (a fully pruned row softmaxes to uniform, and the
        // back-end never sees it).
        for r in 0..8 {
            let survivors = (0..8)
                .filter(|&c| out.hooked_scores[(r, c)] > PRUNED_SCORE)
                .count();
            if survivors == 0 {
                continue;
            }
            for c in 0..8 {
                if out.hooked_scores[(r, c)] <= PRUNED_SCORE {
                    assert!(out.probabilities[(r, c)] < 1e-6);
                }
            }
        }
    }

    #[test]
    fn train_and_inference_forward_agree_without_pruning() {
        let (q, k, v) = random_qkv(5, 4, 4);
        let tape = Tape::new();
        let qv = tape.constant(q.clone());
        let kv = tape.constant(k.clone());
        let vv = tape.constant(v.clone());
        let out = attention_train(&tape, qv, kv, vv, &IdentityHook, 0, 0);
        let reference = attention_inference(&q, &k, &v, &IdentityHook, 0, 0);
        assert!(tape.value(out).approx_eq(&reference.output, 1e-5));
    }

    #[test]
    fn attention_gradients_flow_to_queries() {
        let (q, k, v) = random_qkv(4, 4, 5);
        let tape = Tape::new();
        let qv = tape.leaf(q);
        let kv = tape.constant(k);
        let vv = tape.constant(v);
        let out = attention_train(&tape, qv, kv, vv, &IdentityHook, 0, 0);
        let loss = tape.sum(out);
        tape.backward(loss);
        let grad = tape.grad(qv);
        assert_eq!(grad.shape(), (4, 4));
        assert!(
            grad.iter().any(|&g| g.abs() > 1e-8),
            "gradient must be non-zero"
        );
    }

    #[test]
    #[should_panic(expected = "share shape")]
    fn mismatched_shapes_panic() {
        let q = Matrix::zeros(4, 8);
        let k = Matrix::zeros(5, 8);
        let v = Matrix::zeros(4, 8);
        let _ = attention_inference(&q, &k, &v, &IdentityHook, 0, 0);
    }
}
