//! The computation tape: a dynamically built reverse-mode autodiff graph.

use leopard_tensor::Matrix;
use std::cell::RefCell;

/// Handle to a node on a [`Tape`].
///
/// `Var` is a cheap copyable index; it is only meaningful for the tape that
/// created it. Using a `Var` with a different tape is a logic error and will
/// either panic (out-of-range index) or silently address the wrong node, so
/// keep tapes short-lived: build one per forward/backward pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var {
    pub(crate) id: usize,
}

/// How a node was computed: the ids of the nodes it read, plus whatever its
/// gradient needs beyond their values. [`Tape::backward`] is one `match`
/// over this; each arm turns the upstream gradient `up` into one
/// contribution per operand, in operand order.
pub(crate) enum Op {
    /// A trainable leaf: nothing to propagate into.
    Leaf,
    /// A constant: nothing to propagate into, and its gradient is dropped.
    Constant,
    Add(usize, usize),
    Sub(usize, usize),
    Hadamard(usize, usize),
    Scale(usize, f32),
    MatMul(usize, usize),
    Transpose(usize),
    AddRowBroadcast(usize, usize),
    /// Row-wise softmax; its gradient reads the node's own output.
    SoftmaxRows(usize),
    LayerNorm {
        x: usize,
        gamma: usize,
        beta: usize,
        x_hat: Matrix,
        inv_std: Vec<f32>,
    },
    Sum(usize),
    /// Mean cross-entropy; `dx` is softmax minus one-hot, divided by the
    /// batch size in the gradient `dx · (up / batch)`.
    CrossEntropy {
        logits: usize,
        dx: Matrix,
        batch: f32,
    },
    HStack(Vec<usize>),
    /// An element-wise map `y = f(x, t)` of `x` and an optional broadcast
    /// `1 x 1` operand `t`: the gradient is `up ⊙ dx` for `x` and
    /// `Σ up ⊙ dt` for `t`.
    Pointwise {
        x: usize,
        dx: Matrix,
        t: Option<(usize, Matrix)>,
    },
    /// A `1 x 1` reduction of `x`: the gradient is `dx · (up · k)`.
    Reduce {
        x: usize,
        dx: Matrix,
        k: f32,
    },
}

struct Node {
    value: Matrix,
    op: Op,
}

/// A reverse-mode automatic differentiation tape.
///
/// The tape owns every intermediate value of a forward pass. Operations are
/// methods that append nodes and return [`Var`] handles; [`Tape::backward`]
/// then walks the nodes in reverse creation order (which is already a valid
/// topological order for a dynamically built graph) accumulating gradients.
///
/// Interior mutability (`RefCell`) keeps the op methods ergonomic (`&self`),
/// matching how the transformer layers thread a shared tape reference through
/// their forward passes.
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    grads: RefCell<Vec<Option<Matrix>>>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self {
            nodes: RefCell::new(Vec::new()),
            grads: RefCell::new(Vec::new()),
        }
    }

    /// Registers a trainable leaf (a parameter). Gradients will be available
    /// via [`Tape::grad`] after [`Tape::backward`].
    pub fn leaf(&self, value: Matrix) -> Var {
        self.push(value, Op::Leaf)
    }

    /// Registers a constant (an input or label). No gradient is accumulated.
    pub fn constant(&self, value: Matrix) -> Var {
        self.push(value, Op::Constant)
    }

    /// Returns a clone of the value stored at `var`.
    pub fn value(&self, var: Var) -> Matrix {
        self.nodes.borrow()[var.id].value.clone()
    }

    /// Shape of the value stored at `var` without cloning it.
    pub fn shape(&self, var: Var) -> (usize, usize) {
        self.nodes.borrow()[var.id].value.shape()
    }

    /// Returns the gradient accumulated at `var`.
    ///
    /// # Panics
    ///
    /// Panics if [`Tape::backward`] has not been called, or if `var` is a
    /// constant/unreachable node that received no gradient (its gradient is
    /// defined as all-zeros and is still returned, so the only panic source
    /// is calling this before `backward`).
    pub fn grad(&self, var: Var) -> Matrix {
        let grads = self.grads.borrow();
        assert!(!grads.is_empty(), "Tape::grad called before Tape::backward");
        match &grads[var.id] {
            Some(g) => g.clone(),
            None => {
                let shape = self.shape(var);
                Matrix::zeros(shape.0, shape.1)
            }
        }
    }

    /// Records an element-wise operation whose output `value` is already
    /// computed: `dx` holds `∂y/∂x` per element, and `t` optionally names a
    /// `1 x 1` operand broadcast over `x` with `∂y/∂t` per element. This is
    /// how `leopard-core` records the soft threshold.
    ///
    /// # Panics
    ///
    /// Panics if `dx` or `dt` is not shaped like `x`, or if `t` is not
    /// `1 x 1`.
    pub fn pointwise(&self, x: Var, value: Matrix, dx: Matrix, t: Option<(Var, Matrix)>) -> Var {
        assert_eq!(
            dx.shape(),
            self.shape(x),
            "pointwise dx must be shaped like x"
        );
        let t = t.map(|(t, dt)| {
            assert!(
                self.shape(t) == (1, 1) && dt.shape() == dx.shape(),
                "pointwise t must be 1x1 with dt shaped like x"
            );
            (t.id, dt)
        });
        self.push(value, Op::Pointwise { x: x.id, dx, t })
    }

    /// Records a reduction of `x` to the `1 x 1` scalar `value` whose
    /// gradient is `dx · (up · k)`: the upstream gradient times the scalar
    /// factor `k`, times the per-element derivative `dx`. This is how
    /// `leopard-core` records the surrogate L0 term.
    ///
    /// # Panics
    ///
    /// Panics if `dx` is not shaped like `x`.
    pub fn reduce(&self, x: Var, value: f32, dx: Matrix, k: f32) -> Var {
        assert_eq!(dx.shape(), self.shape(x), "reduce dx must be shaped like x");
        self.push(Matrix::filled(1, 1, value), Op::Reduce { x: x.id, dx, k })
    }

    /// Runs reverse-mode accumulation from `output`, which must be a `1 x 1`
    /// scalar (a loss).
    ///
    /// # Panics
    ///
    /// Panics if `output` is not `1 x 1`.
    pub fn backward(&self, output: Var) {
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[output.id].value.shape(),
            (1, 1),
            "backward must start from a scalar loss"
        );
        let mut grads: Vec<Option<Matrix>> = vec![None; nodes.len()];
        grads[output.id] = Some(Matrix::ones(1, 1));
        let value = |id: usize| &nodes[id].value;

        for id in (0..=output.id).rev() {
            // Every operand was recorded before the node that read it.
            let (below, rest) = grads.split_at_mut(id);
            let Some(up) = &rest[0] else {
                continue;
            };
            let mut acc = |parent: usize, contribution: Matrix| match &mut below[parent] {
                Some(existing) => *existing += &contribution,
                slot @ None => *slot = Some(contribution),
            };
            match &nodes[id].op {
                Op::Leaf | Op::Constant => {}
                Op::Add(a, b) => {
                    acc(*a, up.clone());
                    acc(*b, up.clone());
                }
                Op::Sub(a, b) => {
                    acc(*a, up.clone());
                    acc(*b, -up);
                }
                Op::Hadamard(a, b) => {
                    acc(*a, up.hadamard(value(*b)));
                    acc(*b, up.hadamard(value(*a)));
                }
                Op::Scale(a, factor) => acc(*a, up.scale(*factor)),
                Op::MatMul(a, b) => {
                    acc(*a, up.matmul(&value(*b).transpose()));
                    acc(*b, value(*a).transpose().matmul(up));
                }
                Op::Transpose(a) => acc(*a, up.transpose()),
                Op::AddRowBroadcast(a, bias) => {
                    acc(*a, up.clone());
                    acc(*bias, up.sum_cols());
                }
                Op::SoftmaxRows(a) => {
                    // For each row, grad = p ⊙ (up - (up·p)).
                    let probs = value(id);
                    let mut grad = Matrix::zeros(probs.rows(), probs.cols());
                    for r in 0..probs.rows() {
                        let p = probs.row(r);
                        let u = up.row(r);
                        let dot: f32 = p.iter().zip(u.iter()).map(|(x, y)| x * y).sum();
                        for c in 0..probs.cols() {
                            grad[(r, c)] = p[c] * (u[c] - dot);
                        }
                    }
                    acc(*a, grad);
                }
                Op::LayerNorm {
                    x,
                    gamma,
                    beta,
                    x_hat,
                    inv_std,
                } => {
                    // Standard layer-norm backward over each row.
                    let g = value(*gamma);
                    let (rows, cols) = x_hat.shape();
                    let n = cols as f32;
                    let mut grad = Matrix::zeros(rows, cols);
                    for r in 0..rows {
                        let mut sum_dy = 0.0;
                        let mut sum_dy_xhat = 0.0;
                        for c in 0..cols {
                            let dy = up[(r, c)] * g[(0, c)];
                            sum_dy += dy;
                            sum_dy_xhat += dy * x_hat[(r, c)];
                        }
                        for c in 0..cols {
                            let dy = up[(r, c)] * g[(0, c)];
                            grad[(r, c)] =
                                inv_std[r] * (dy - sum_dy / n - x_hat[(r, c)] * sum_dy_xhat / n);
                        }
                    }
                    acc(*x, grad);
                    acc(*gamma, up.hadamard(x_hat).sum_cols());
                    acc(*beta, up.sum_cols());
                }
                Op::Sum(a) => {
                    let (rows, cols) = value(*a).shape();
                    acc(*a, Matrix::filled(rows, cols, up[(0, 0)]));
                }
                Op::CrossEntropy { logits, dx, batch } => {
                    acc(*logits, dx.scale(up[(0, 0)] / batch))
                }
                Op::HStack(parts) => {
                    let rows = up.rows();
                    let mut offset = 0usize;
                    for &part in parts {
                        let cols = value(part).cols();
                        let mut grad = Matrix::zeros(rows, cols);
                        for r in 0..rows {
                            grad.row_mut(r)
                                .copy_from_slice(&up.row(r)[offset..offset + cols]);
                        }
                        acc(part, grad);
                        offset += cols;
                    }
                }
                Op::Pointwise { x, dx, t } => {
                    acc(*x, up.hadamard(dx));
                    if let Some((t, dt)) = t {
                        let total: f32 = up.iter().zip(dt.iter()).map(|(&u, &d)| u * d).sum();
                        acc(*t, Matrix::filled(1, 1, total));
                    }
                }
                Op::Reduce { x, dx, k } => acc(*x, dx.scale(up[(0, 0)] * k)),
            }
        }

        // Drop gradients of constants to keep memory proportional to the
        // number of parameters rather than the number of activations.
        for (id, node) in nodes.iter().enumerate() {
            if matches!(node.op, Op::Constant) {
                grads[id] = None;
            }
        }
        *self.grads.borrow_mut() = grads;
    }

    pub(crate) fn push(&self, value: Matrix, op: Op) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op });
        Var {
            id: nodes.len() - 1,
        }
    }

    pub(crate) fn with_value<R>(&self, var: Var, f: impl FnOnce(&Matrix) -> R) -> R {
        f(&self.nodes.borrow()[var.id].value)
    }
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tape")
            .field("nodes", &self.nodes.borrow().len())
            .field("backward_ran", &!self.grads.borrow().is_empty())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_constant_round_trip_values() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::filled(2, 2, 3.0));
        let b = tape.constant(Matrix::identity(2));
        assert_eq!(tape.value(a), Matrix::filled(2, 2, 3.0));
        assert_eq!(tape.value(b), Matrix::identity(2));
        assert!(format!("{tape:?}").contains("nodes: 2"));
        assert_eq!(tape.shape(a), (2, 2));
    }

    #[test]
    fn backward_on_simple_chain() {
        // loss = sum(2 * a) => dloss/da = 2 everywhere
        let tape = Tape::new();
        let a = tape.leaf(Matrix::filled(2, 3, 1.5));
        let doubled = tape.scale(a, 2.0);
        let loss = tape.sum(doubled);
        tape.backward(loss);
        assert_eq!(tape.grad(a), Matrix::filled(2, 3, 2.0));
    }

    #[test]
    fn gradients_accumulate_across_fanout() {
        // loss = sum(a) + sum(a) => dloss/da = 2
        let tape = Tape::new();
        let a = tape.leaf(Matrix::filled(1, 4, 1.0));
        let s1 = tape.sum(a);
        let s2 = tape.sum(a);
        let loss = tape.add(s1, s2);
        tape.backward(loss);
        assert_eq!(tape.grad(a), Matrix::filled(1, 4, 2.0));
    }

    #[test]
    fn constants_do_not_block_gradient_flow() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::filled(1, 2, 2.0));
        let c = tape.constant(Matrix::filled(1, 2, 5.0));
        let prod = tape.hadamard(a, c);
        let loss = tape.sum(prod);
        tape.backward(loss);
        assert_eq!(tape.grad(a), Matrix::filled(1, 2, 5.0));
        // Constant gradient is defined as zeros.
        assert_eq!(tape.grad(c), Matrix::zeros(1, 2));
    }

    #[test]
    fn scaled_cross_entropy_and_reduce_gradients_are_pinned_to_the_bit() {
        // Both arms see an upstream other than 1 (each loss is multiplied by
        // a 1 x 1 constant) and cross-entropy averages over a batch of 3, so
        // the association of `dx · (up / batch)` and `dx · (up · k)` shows in
        // the last bit of the gradients.
        let tape = Tape::new();
        let logits = tape.leaf(Matrix::from_rows(&[
            vec![0.3, -1.2, 0.7, 2.1],
            vec![-0.4, 0.9, 1.3, -2.2],
            vec![0.05, 0.6, -0.8, 1.7],
        ]));
        let ce = tape.cross_entropy(logits, &[0, 2, 3]);
        let x = tape.leaf(Matrix::zeros(2, 3));
        let dx = Matrix::from_rows(&[vec![0.11, -0.53, 0.97], vec![1.9, -0.27, 0.61]]);
        let reduced = tape.reduce(x, 0.0, dx, 0.3);
        let ce = tape.hadamard(ce, tape.constant(Matrix::filled(1, 1, 0.37)));
        let reduced = tape.hadamard(reduced, tape.constant(Matrix::filled(1, 1, 0.71)));
        tape.backward(tape.add(ce, reduced));
        let bits = |var| -> Vec<u32> { tape.grad(var).iter().map(|g| g.to_bits()).collect() };
        assert_eq!(
            bits(logits),
            [
                3185558665, 994952615, 1017903273, 1034836017, 1011090801, 1026805925, 3178032060,
                989961151, 1014070562, 1020348374, 1003384462, 3175010565,
            ]
        );
        assert_eq!(
            bits(x),
            [1019211845, 3186045662, 1045664147, 1053766870, 3177942940, 1040518239]
        );
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::filled(2, 2, 1.0));
        tape.backward(a);
    }

    #[test]
    #[should_panic(expected = "before Tape::backward")]
    fn grad_before_backward_panics() {
        let tape = Tape::new();
        let a = tape.leaf(Matrix::filled(1, 1, 1.0));
        let _ = tape.grad(a);
    }

    #[test]
    fn pointwise_op_backpropagates() {
        // y = x^3, dy/dx = 3x^2
        let tape = Tape::new();
        let x = tape.leaf(Matrix::filled(1, 1, 2.0));
        let x_val = tape.value(x);
        let y = tape.pointwise(
            x,
            x_val.map(|v| v * v * v),
            x_val.map(|v| 3.0 * v * v),
            None,
        );
        tape.backward(y);
        assert!((tape.grad(x)[(0, 0)] - 12.0).abs() < 1e-5);
    }

    #[test]
    fn debug_format_mentions_node_count() {
        let tape = Tape::new();
        tape.leaf(Matrix::zeros(1, 1));
        assert!(format!("{tape:?}").contains("nodes"));
    }
}
