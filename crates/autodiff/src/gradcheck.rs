//! Finite-difference gradient checking.
//!
//! Every differentiable building block in the workspace — including the soft
//! threshold and surrogate L0 regularizer defined in `leopard-core` — is
//! validated against central finite differences. The helpers here build a
//! fresh [`Tape`] per perturbation so they are deliberately simple rather than
//! fast; they are meant for tests, not training.

use crate::{Tape, Var};
use leopard_tensor::Matrix;

/// Compares the analytic gradient of a scalar loss with a central
/// finite-difference estimate and returns the maximum absolute error.
///
/// `build_loss` is called many times with perturbed copies of `input`, so it
/// must be deterministic.
///
/// # Example
///
/// ```
/// use leopard_autodiff::gradcheck::check_unary;
/// use leopard_tensor::Matrix;
///
/// let x = Matrix::from_rows(&[vec![0.3, -0.7]]);
/// let err = check_unary(&x, 1e-2, |tape, v| {
///     let y = tape.tanh(v);
///     tape.sum(y)
/// });
/// assert!(err < 1e-2);
/// ```
pub fn check_unary(input: &Matrix, epsilon: f32, build_loss: impl Fn(&Tape, Var) -> Var) -> f32 {
    // Analytic gradient.
    let tape = Tape::new();
    let leaf = tape.leaf(input.clone());
    let loss = build_loss(&tape, leaf);
    tape.backward(loss);
    let analytic = tape.grad(leaf);

    // Finite differences, one element at a time.
    let mut max_err = 0.0f32;
    for r in 0..input.rows() {
        for c in 0..input.cols() {
            let numeric = finite_difference(input, (r, c), epsilon, &build_loss);
            let err = (numeric - analytic[(r, c)]).abs();
            max_err = max_err.max(err);
        }
    }
    max_err
}

/// Central finite-difference estimate of `d loss / d input[(r, c)]`.
pub fn finite_difference(
    input: &Matrix,
    index: (usize, usize),
    epsilon: f32,
    build_loss: &impl Fn(&Tape, Var) -> Var,
) -> f32 {
    let eval = |value: f32| {
        let mut perturbed = input.clone();
        perturbed[index] = value;
        let tape = Tape::new();
        let leaf = tape.leaf(perturbed);
        let loss = build_loss(&tape, leaf);
        tape.value(loss)[(0, 0)]
    };
    let base = input[index];
    (eval(base + epsilon) - eval(base - epsilon)) / (2.0 * epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_unary_accepts_correct_gradient() {
        let x = Matrix::from_rows(&[vec![0.5, -1.0, 2.0]]);
        let err = check_unary(&x, 1e-2, |tape, v| {
            let y = tape.hadamard(v, v); // y = x^2, dy/dx = 2x
            tape.sum(y)
        });
        assert!(err < 1e-2, "error {err}");
    }

    #[test]
    fn finite_difference_of_square_is_2x() {
        let x = Matrix::from_rows(&[vec![1.5]]);
        let d = finite_difference(&x, (0, 0), 1e-3, &|tape: &Tape, v: Var| {
            let y = tape.hadamard(v, v);
            tape.sum(y)
        });
        assert!((d - 3.0).abs() < 1e-2);
    }
}
