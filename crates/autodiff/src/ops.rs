//! Differentiable operations on [`Tape`].
//!
//! Each method performs the forward computation eagerly and records one
//! [`Op`] naming the nodes it read plus whatever its gradient needs beyond
//! their values; [`Tape::backward`] turns that record into gradients. The
//! set of operations is exactly what the transformer substrate and the
//! learned-pruning fine-tuning loop need. Element-wise maps and scalar
//! reductions defined elsewhere record themselves through
//! [`Tape::pointwise`] and [`Tape::reduce`].

use crate::tape::{Op, Tape, Var};
use leopard_tensor::{ops, Matrix};

impl Tape {
    /// Element-wise addition. Shapes must match.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let value = self.with_value(a, |av| self.with_value(b, |bv| av + bv));
        self.push(value, Op::Add(a.id, b.id))
    }

    /// Element-wise subtraction `a - b`. Shapes must match.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let value = self.with_value(a, |av| self.with_value(b, |bv| av - bv));
        self.push(value, Op::Sub(a.id, b.id))
    }

    /// Element-wise (Hadamard) product. Shapes must match.
    pub fn hadamard(&self, a: Var, b: Var) -> Var {
        let value = self.with_value(a, |av| self.with_value(b, |bv| av.hadamard(bv)));
        self.push(value, Op::Hadamard(a.id, b.id))
    }

    /// Multiplies every element by the constant `factor`.
    pub fn scale(&self, a: Var, factor: f32) -> Var {
        let value = self.with_value(a, |av| av.scale(factor));
        self.push(value, Op::Scale(a.id, factor))
    }

    /// Matrix product `a * b`.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let value = self.with_value(a, |av| self.with_value(b, |bv| av.matmul(bv)));
        self.push(value, Op::MatMul(a.id, b.id))
    }

    /// Transpose.
    pub fn transpose(&self, a: Var) -> Var {
        let value = self.with_value(a, |av| av.transpose());
        self.push(value, Op::Transpose(a.id))
    }

    /// Broadcast-adds a `1 x cols` bias row vector to every row of `a`.
    pub fn add_row_broadcast(&self, a: Var, bias: Var) -> Var {
        let value = self.with_value(a, |av| self.with_value(bias, |bv| av.add_row_broadcast(bv)));
        self.push(value, Op::AddRowBroadcast(a.id, bias.id))
    }

    /// Element-wise `tanh`.
    pub fn tanh(&self, a: Var) -> Var {
        let value = self.with_value(a, |av| av.map(f32::tanh));
        let dx = value.map(|y| 1.0 - y * y);
        self.pointwise(a, value, dx, None)
    }

    /// Element-wise GELU (tanh approximation). The gradient uses the exact
    /// derivative of the approximation.
    pub fn gelu(&self, a: Var) -> Var {
        let (value, dx) = self.with_value(a, |av| (av.map(ops::gelu), av.map(gelu_derivative)));
        self.pointwise(a, value, dx, None)
    }

    /// Row-wise softmax (Equation 3 of the paper).
    pub fn softmax_rows(&self, a: Var) -> Var {
        let value = self.with_value(a, ops::softmax_rows);
        self.push(value, Op::SoftmaxRows(a.id))
    }

    /// Row-wise layer normalization with learnable `gamma` and `beta`
    /// (each `1 x cols`).
    pub fn layer_norm(&self, a: Var, gamma: Var, beta: Var, eps: f32) -> Var {
        let x = self.value(a);
        let value = self.with_value(gamma, |g| {
            self.with_value(beta, |b| ops::layer_norm_rows(&x, g, b, eps))
        });
        // Per-row normalization terms the gradient reuses.
        let (rows, cols) = x.shape();
        let mut x_hat = Matrix::zeros(rows, cols);
        let mut inv_std = vec![0.0f32; rows];
        for r in 0..rows {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            inv_std[r] = 1.0 / (var + eps).sqrt();
            for c in 0..cols {
                x_hat[(r, c)] = (row[c] - mean) * inv_std[r];
            }
        }
        let (x, gamma, beta) = (a.id, gamma.id, beta.id);
        self.push(
            value,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                x_hat,
                inv_std,
            },
        )
    }

    /// Sum of all elements, producing a `1 x 1` scalar.
    pub fn sum(&self, a: Var) -> Var {
        let value = Matrix::filled(1, 1, self.with_value(a, |av| av.sum()));
        self.push(value, Op::Sum(a.id))
    }

    /// Mean squared deviation from zero (`mean(a^2)`), producing a scalar.
    /// Handy for weight decay terms and the doc-test in the crate root.
    pub fn mse_to_zero(&self, a: Var) -> Var {
        let a_val = self.value(a);
        let n = a_val.len() as f32;
        let value = a_val.iter().map(|v| v * v).sum::<f32>() / n;
        self.reduce(a, value, a_val, 2.0 / n)
    }

    /// Mean cross-entropy between row-wise logits and integer labels,
    /// producing a `1 x 1` scalar loss.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the number of logit rows.
    pub fn cross_entropy(&self, logits: Var, labels: &[usize]) -> Var {
        let (value, mut dx) = self.with_value(logits, |lv| {
            assert_eq!(labels.len(), lv.rows(), "one label per logit row required");
            (ops::cross_entropy(lv, labels), ops::softmax_rows(lv))
        });
        for (r, &label) in labels.iter().enumerate() {
            dx[(r, label)] -= 1.0;
        }
        let batch = labels.len() as f32;
        let op = Op::CrossEntropy {
            logits: logits.id,
            dx,
            batch,
        };
        self.push(Matrix::filled(1, 1, value), op)
    }

    /// Mean squared error between `a` and a constant `target` of the same
    /// shape, producing a scalar.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mse_loss(&self, a: Var, target: &Matrix) -> Var {
        let (value, diff) = self.with_value(a, |av| {
            assert_eq!(av.shape(), target.shape(), "mse_loss shape mismatch");
            (ops::mse(av, target), av - target)
        });
        let n = diff.len() as f32;
        self.reduce(a, value, diff, 2.0 / n)
    }

    /// Horizontally concatenates nodes (all must have the same row count).
    /// Used to merge per-head attention outputs (Equation 5).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn hstack(&self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "hstack requires at least one part");
        let values: Vec<Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let refs: Vec<&Matrix> = values.iter().collect();
        let value = Matrix::hstack(&refs);
        self.push(value, Op::HStack(parts.iter().map(|p| p.id).collect()))
    }
}

/// Derivative of the tanh-approximated GELU.
fn gelu_derivative(x: f32) -> f32 {
    let k = (2.0 / std::f32::consts::PI).sqrt();
    let inner = k * (x + 0.044_715 * x * x * x);
    let t = inner.tanh();
    let d_inner = k * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_unary;
    use leopard_tensor::rng;

    fn sample(rows: usize, cols: usize, seed: u64) -> Matrix {
        rng::uniform_matrix(&mut rng::seeded(seed), rows, cols, -1.5, 1.5)
    }

    #[test]
    fn add_sub_values_and_grads() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_rows(&[vec![1.0, 2.0]]));
        let b = tape.leaf(Matrix::from_rows(&[vec![3.0, 5.0]]));
        let sum = tape.add(a, b);
        let diff = tape.sub(sum, a);
        let loss = tape.sum(diff);
        assert_eq!(tape.value(sum), Matrix::from_rows(&[vec![4.0, 7.0]]));
        assert_eq!(tape.value(diff), tape.value(b));
        tape.backward(loss);
        // d(sum(a + b - a))/da = 0, /db = 1
        assert_eq!(tape.grad(a), Matrix::zeros(1, 2));
        assert_eq!(tape.grad(b), Matrix::ones(1, 2));
    }

    #[test]
    fn matmul_gradients_match_finite_difference() {
        let a0 = sample(3, 4, 1);
        let b0 = sample(4, 2, 2);
        // Check dL/dA where L = sum(A*B)
        let b_fixed = b0.clone();
        let max_err = check_unary(&a0, 1e-2, move |tape, a| {
            let b = tape.constant(b_fixed.clone());
            let prod = tape.matmul(a, b);
            tape.sum(prod)
        });
        assert!(max_err < 1e-2, "matmul grad error {max_err}");

        // Check dL/dB
        let a_fixed = a0;
        let max_err = check_unary(&b0, 1e-2, move |tape, b| {
            let a = tape.constant(a_fixed.clone());
            let prod = tape.matmul(a, b);
            tape.sum(prod)
        });
        assert!(max_err < 1e-2, "matmul grad error {max_err}");
    }

    #[test]
    fn activations_match_finite_difference() {
        let x = sample(2, 5, 3);
        for (name, f) in [("tanh", 0usize), ("gelu", 1)] {
            let err = check_unary(&x, 1e-2, move |tape, v| {
                let y = match f {
                    0 => tape.tanh(v),
                    _ => tape.gelu(v),
                };
                tape.sum(y)
            });
            assert!(err < 2e-2, "{name} grad error {err}");
        }
    }

    #[test]
    fn softmax_rows_gradient_matches_finite_difference() {
        let x = sample(3, 6, 4);
        // Use a weighted sum so the gradient is not trivially zero.
        let weights = sample(3, 6, 5);
        let w = weights.clone();
        let err = check_unary(&x, 1e-2, move |tape, v| {
            let p = tape.softmax_rows(v);
            let wc = tape.constant(w.clone());
            let weighted = tape.hadamard(p, wc);
            tape.sum(weighted)
        });
        assert!(err < 1e-2, "softmax grad error {err}");
    }

    #[test]
    fn layer_norm_gradient_matches_finite_difference() {
        let x = sample(2, 8, 6);
        let gamma = Matrix::ones(1, 8);
        let beta = Matrix::zeros(1, 8);
        let w = sample(2, 8, 7);
        let (g, b, wc) = (gamma, beta, w);
        let err = check_unary(&x, 1e-2, move |tape, v| {
            let gv = tape.constant(g.clone());
            let bv = tape.constant(b.clone());
            let y = tape.layer_norm(v, gv, bv, 1e-5);
            let weighted = tape.hadamard(y, tape.constant(wc.clone()));
            tape.sum(weighted)
        });
        assert!(err < 2e-2, "layer_norm grad error {err}");
    }

    #[test]
    fn layer_norm_gamma_beta_gradients() {
        let x = sample(3, 4, 8);
        let gamma0 = Matrix::filled(1, 4, 0.7);
        let beta0 = Matrix::filled(1, 4, -0.2);

        let xc = x.clone();
        let b0 = beta0.clone();
        let err = check_unary(&gamma0, 1e-2, move |tape, g| {
            let xv = tape.constant(xc.clone());
            let bv = tape.constant(b0.clone());
            let y = tape.layer_norm(xv, g, bv, 1e-5);
            tape.sum(y)
        });
        assert!(err < 2e-2, "gamma grad error {err}");

        let xc = x;
        let g0 = gamma0;
        let err = check_unary(&beta0, 1e-2, move |tape, b| {
            let xv = tape.constant(xc.clone());
            let gv = tape.constant(g0.clone());
            let y = tape.layer_norm(xv, gv, b, 1e-5);
            tape.sum(y)
        });
        assert!(err < 2e-2, "beta grad error {err}");
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_difference() {
        let logits = sample(4, 3, 9);
        let labels = vec![0usize, 2, 1, 1];
        let l = labels.clone();
        let err = check_unary(&logits, 1e-2, move |tape, v| tape.cross_entropy(v, &l));
        assert!(err < 1e-2, "cross entropy grad error {err}");
    }

    #[test]
    fn mse_loss_gradient_matches_finite_difference() {
        let pred = sample(3, 3, 10);
        let target = sample(3, 3, 11);
        let t = target;
        let err = check_unary(&pred, 1e-2, move |tape, v| tape.mse_loss(v, &t));
        assert!(err < 1e-2, "mse grad error {err}");
    }

    #[test]
    fn broadcast_bias_gradient_sums_over_rows() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]));
        let bias = tape.leaf(Matrix::row_vector(&[10.0, 20.0]));
        let y = tape.add_row_broadcast(x, bias);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert_eq!(tape.grad(bias), Matrix::row_vector(&[2.0, 2.0]));
        assert_eq!(tape.grad(x), Matrix::ones(2, 2));
    }

    #[test]
    fn hstack_splits_gradients() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::from_rows(&[vec![1.0], vec![2.0]]));
        let b = tape.leaf(Matrix::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]));
        let joined = tape.hstack(&[a, b]);
        assert_eq!(tape.shape(joined), (2, 3));
        // Weight only the column that came from `a`.
        let mask = tape.constant(Matrix::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0],
        ]));
        let masked = tape.hadamard(joined, mask);
        let loss = tape.sum(masked);
        tape.backward(loss);
        assert_eq!(tape.grad(a), Matrix::ones(2, 1));
        assert_eq!(tape.grad(b), Matrix::zeros(2, 2));
    }

    #[test]
    fn scale_sum_compose() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::filled(2, 2, 3.0));
        let s = tape.sum(tape.scale(x, 2.0));
        assert_eq!(tape.value(s)[(0, 0)], 24.0);
        tape.backward(s);
        assert_eq!(tape.grad(x), Matrix::filled(2, 2, 2.0));
    }

    #[test]
    fn transpose_gradient() {
        let x0 = sample(3, 2, 12);
        let w = sample(2, 3, 13);
        let wc = w;
        let err = check_unary(&x0, 1e-2, move |tape, v| {
            let t = tape.transpose(v);
            let weighted = tape.hadamard(t, tape.constant(wc.clone()));
            tape.sum(weighted)
        });
        assert!(err < 1e-2, "transpose grad error {err}");
    }
}
