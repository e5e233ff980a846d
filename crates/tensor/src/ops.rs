//! Numerically stable free functions used throughout the reproduction.
//!
//! The attention pipeline (Section 2.1 of the paper) needs a stable softmax,
//! log-sum-exp, and cross-entropy; the learned-pruning algorithm (Section 3)
//! additionally needs a `sigmoid` helper for the paper's sharp L0
//! surrogate. Everything here operates on [`Matrix`] and plain slices so both
//! the float reference path and the fixed-point simulator can share code.

use crate::Matrix;

/// Numerically stable softmax over a slice, returning a freshly allocated
/// vector that sums to 1 (unless the input is empty).
///
/// # Example
///
/// ```
/// let p = leopard_tensor::ops::softmax(&[1.0, 2.0, 3.0]);
/// assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
/// assert!(p[2] > p[1] && p[1] > p[0]);
/// ```
pub fn softmax(values: &[f32]) -> Vec<f32> {
    if values.is_empty() {
        return Vec::new();
    }
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    // If every score was pruned to -inf the max is -inf; define the output as
    // uniform so downstream weighted sums stay finite.
    if !max.is_finite() {
        return vec![1.0 / values.len() as f32; values.len()];
    }
    let exps: Vec<f32> = values.iter().map(|&v| (v - max).exp()).collect();
    let denom: f32 = exps.iter().sum();
    exps.iter().map(|&e| e / denom).collect()
}

/// Row-wise softmax of a matrix (softmax applied independently to each row),
/// matching Equation 3 of the paper where each row of the score matrix is
/// normalized.
pub fn softmax_rows(scores: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(scores.rows(), scores.cols());
    for r in 0..scores.rows() {
        let p = softmax(scores.row(r));
        out.row_mut(r).copy_from_slice(&p);
    }
    out
}

/// Numerically stable log-sum-exp of a slice.
///
/// Returns `f32::NEG_INFINITY` for an empty slice.
pub fn log_sum_exp(values: &[f32]) -> f32 {
    if values.is_empty() {
        return f32::NEG_INFINITY;
    }
    let max = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !max.is_finite() {
        return max;
    }
    let sum: f32 = values.iter().map(|&v| (v - max).exp()).sum();
    max + sum.ln()
}

/// Row-wise log-softmax.
pub fn log_softmax_rows(scores: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(scores.rows(), scores.cols());
    for r in 0..scores.rows() {
        let lse = log_sum_exp(scores.row(r));
        for (o, &v) in out.row_mut(r).iter_mut().zip(scores.row(r).iter()) {
            *o = v - lse;
        }
    }
    out
}

/// Mean cross-entropy between row-wise logits and integer class labels.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub fn cross_entropy(logits: &Matrix, labels: &[usize]) -> f32 {
    assert_eq!(labels.len(), logits.rows(), "one label per row required");
    let log_probs = log_softmax_rows(logits);
    let mut total = 0.0;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < logits.cols(), "label {label} out of range");
        total -= log_probs[(r, label)];
    }
    total / labels.len() as f32
}

/// Fraction of rows whose arg-max logit equals the label.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()`.
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f32 {
    assert_eq!(labels.len(), logits.rows(), "one label per row required");
    if labels.is_empty() {
        return 0.0;
    }
    let correct = labels
        .iter()
        .enumerate()
        .filter(|(r, &label)| argmax(logits.row(*r)) == label)
        .count();
    correct as f32 / labels.len() as f32
}

/// Index of the maximum element (first occurrence wins). Returns 0 for an
/// empty slice.
pub fn argmax(values: &[f32]) -> usize {
    let mut best = 0;
    let mut best_val = f32::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_val {
            best_val = v;
            best = i;
        }
    }
    best
}

/// Logistic sigmoid `1 / (1 + exp(-x))`.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// GELU activation (tanh approximation), used by the transformer FFN blocks.
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + ((2.0 / std::f32::consts::PI).sqrt() * (x + 0.044_715 * x * x * x)).tanh())
}

/// Layer normalization applied independently to each row:
/// `(x - mean) / sqrt(var + eps) * gamma + beta`.
///
/// # Panics
///
/// Panics if `gamma` or `beta` is not `1 x cols`.
pub fn layer_norm_rows(x: &Matrix, gamma: &Matrix, beta: &Matrix, eps: f32) -> Matrix {
    assert_eq!(gamma.shape(), (1, x.cols()), "gamma must be 1 x cols");
    assert_eq!(beta.shape(), (1, x.cols()), "beta must be 1 x cols");
    let mut out = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        let row = x.row(r);
        let mean = row.iter().sum::<f32>() / row.len() as f32;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / row.len() as f32;
        let inv_std = 1.0 / (var + eps).sqrt();
        for c in 0..x.cols() {
            out[(r, c)] = (row[c] - mean) * inv_std * gamma[(0, c)] + beta[(0, c)];
        }
    }
    out
}

/// Mean-squared error between two equally shaped matrices.
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn mse(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.shape(), b.shape(), "mse shape mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        / a.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let p = softmax(&[0.5, 1.5, -2.0]);
        assert!(close(p.iter().sum::<f32>(), 1.0));
        assert!(p[1] > p[0] && p[0] > p[2]);
    }

    #[test]
    fn softmax_handles_extremes() {
        let p = softmax(&[1000.0, 1000.0]);
        assert!(close(p[0], 0.5) && close(p[1], 0.5));
        let p = softmax(&[-1000.0, 0.0]);
        assert!(p[0] < 1e-6 && close(p[1], 1.0));
    }

    #[test]
    fn softmax_all_pruned_returns_uniform() {
        let p = softmax(&[f32::NEG_INFINITY, f32::NEG_INFINITY]);
        assert!(close(p[0], 0.5) && close(p[1], 0.5));
    }

    #[test]
    fn softmax_empty_is_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_rows_normalizes_each_row() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-1.0, 0.0, 1.0]]);
        let p = softmax_rows(&m);
        for r in 0..2 {
            assert!(close(p.row(r).iter().sum::<f32>(), 1.0));
        }
    }

    #[test]
    fn log_sum_exp_matches_naive_for_small_values() {
        let vals = [0.1f32, 0.2, 0.3];
        let naive = vals.iter().map(|v| v.exp()).sum::<f32>().ln();
        assert!(close(log_sum_exp(&vals), naive));
        assert_eq!(log_sum_exp(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn log_softmax_rows_is_log_of_softmax() {
        let m = Matrix::from_rows(&[vec![0.5, -0.5, 2.0]]);
        let ls = log_softmax_rows(&m);
        let s = softmax_rows(&m);
        for c in 0..3 {
            assert!(close(ls[(0, c)], s[(0, c)].ln()));
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_small() {
        let logits = Matrix::from_rows(&[vec![10.0, -10.0], vec![-10.0, 10.0]]);
        let loss = cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-3);
    }

    #[test]
    fn cross_entropy_uniform_is_log_classes() {
        let logits = Matrix::zeros(4, 3);
        let loss = cross_entropy(&logits, &[0, 1, 2, 0]);
        assert!(close(loss, (3.0f32).ln()));
    }

    #[test]
    fn accuracy_counts_correct_rows() {
        let logits = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!(close(accuracy(&logits, &[0, 1, 1]), 2.0 / 3.0));
    }

    #[test]
    fn argmax_first_max_wins() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[]), 0);
    }

    #[test]
    fn sigmoid_properties() {
        assert!(close(sigmoid(0.0), 0.5));
        assert!(sigmoid(10.0) > 0.9999);
        assert!(sigmoid(-10.0) < 0.0001);
        // symmetric: sigmoid(-x) = 1 - sigmoid(x)
        assert!(close(sigmoid(-1.3), 1.0 - sigmoid(1.3)));
    }

    #[test]
    fn gelu_basic_shape() {
        assert!(close(gelu(0.0), 0.0));
        assert!(gelu(3.0) > 2.9);
        assert!(gelu(-3.0).abs() < 0.02);
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]);
        let gamma = Matrix::ones(1, 4);
        let beta = Matrix::zeros(1, 4);
        let y = layer_norm_rows(&x, &gamma, &beta, 1e-5);
        let mean = y.row(0).iter().sum::<f32>() / 4.0;
        let var = y
            .row(0)
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn mse_known_result() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![1.0, 4.0]]);
        assert!(close(mse(&a, &b), 2.0));
    }
}
