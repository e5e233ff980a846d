//! Reverse-mode automatic differentiation for the LeOPArd reproduction.
//!
//! The central algorithmic idea of the paper is that the attention-score
//! pruning threshold of each layer is a *trainable parameter*: a soft
//! (tanh-based) threshold makes the pruning operation differentiable, and a
//! surrogate L0 regularizer (a sharp sigmoid) pressures the optimizer towards
//! sparsity. Both require ordinary back-propagation through the transformer,
//! so this crate provides a small but complete reverse-mode autodiff engine
//! over [`leopard_tensor::Matrix`]:
//!
//! * [`Tape`] / [`Var`] — a dynamically built computation graph. Each node
//!   records a closed `Op` (the ids of the nodes it read plus what its
//!   gradient needs), and [`Tape::backward`] is one `match` over it. The
//!   soft threshold and the L0 term defined in `leopard-core` record their
//!   derivatives through the two generic ops, [`Tape::pointwise`] and
//!   [`Tape::reduce`], so this crate holds no formula from the paper.
//! * [`optim`] — the Adam optimizer the paper uses for fine-tuning.
//! * [`gradcheck`] — finite-difference gradient checking used extensively by
//!   the test suites of the crates above this one.
//!
//! # Example: learn a scalar by gradient descent
//!
//! ```
//! use leopard_autodiff::{Tape, optim::Adam};
//! use leopard_tensor::Matrix;
//!
//! // Minimize (w - 3)^2 with Adam.
//! let mut w = Matrix::filled(1, 1, 0.0);
//! let mut adam = Adam::new(0.1);
//! for _ in 0..300 {
//!     let tape = Tape::new();
//!     let wv = tape.leaf(w.clone());
//!     let target = tape.constant(Matrix::filled(1, 1, 3.0));
//!     let diff = tape.sub(wv, target);
//!     let loss = tape.mse_to_zero(diff);
//!     tape.backward(loss);
//!     adam.step_single(&mut w, &tape.grad(wv));
//! }
//! assert!((w[(0, 0)] - 3.0).abs() < 1e-2);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gradcheck;
mod ops;
pub mod optim;
mod tape;

pub use tape::{Tape, Var};
