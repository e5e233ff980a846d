//! The Adam optimizer.
//!
//! The paper fine-tunes pre-trained transformers with Adam, using a larger
//! learning rate for the threshold parameters (1e-2) than for the model
//! weights (5e-6) because "training for the Th is generally slower" (Section
//! 5.1). The optimizer here operates on externally owned parameter matrices,
//! matching the workspace's pattern of building a fresh [`crate::Tape`] per
//! step and reading gradients out of it.

use leopard_tensor::Matrix;

/// The Adam optimizer (Kingma & Ba, 2014) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    learning_rate: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    step_count: u64,
    first_moment: Vec<Matrix>,
    second_moment: Vec<Matrix>,
}

impl Adam {
    /// Creates an Adam optimizer with the canonical defaults
    /// (`beta1 = 0.9`, `beta2 = 0.999`, `eps = 1e-8`).
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate <= 0`.
    pub fn new(learning_rate: f32) -> Self {
        Self::with_betas(learning_rate, 0.9, 0.999, 1e-8)
    }

    /// Creates an Adam optimizer with explicit hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate <= 0` or the betas are outside `[0, 1)`.
    pub fn with_betas(learning_rate: f32, beta1: f32, beta2: f32, epsilon: f32) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1), "beta1 must be in [0, 1)");
        assert!((0.0..1.0).contains(&beta2), "beta2 must be in [0, 1)");
        Self {
            learning_rate,
            beta1,
            beta2,
            epsilon,
            step_count: 0,
            first_moment: Vec::new(),
            second_moment: Vec::new(),
        }
    }

    /// Learning rate currently in use.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Number of optimization steps taken so far.
    pub fn step_count(&self) -> u64 {
        self.step_count
    }

    /// Updates a single parameter in place given its gradient.
    pub fn step_single(&mut self, param: &mut Matrix, grad: &Matrix) {
        self.step(&mut [param], &[grad]);
    }

    /// Applies one Adam update to every parameter given matching gradients.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` have different lengths, a shape differs
    /// between a parameter and its gradient, or the parameter count changes
    /// between calls.
    pub fn step(&mut self, params: &mut [&mut Matrix], grads: &[&Matrix]) {
        assert_eq!(params.len(), grads.len(), "one gradient per parameter");
        if self.first_moment.is_empty() {
            self.first_moment = params
                .iter()
                .map(|p| Matrix::zeros(p.rows(), p.cols()))
                .collect();
            self.second_moment = self.first_moment.clone();
        }
        assert_eq!(
            self.first_moment.len(),
            params.len(),
            "parameter count changed between optimizer steps"
        );
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);

        for (i, (param, grad)) in params.iter_mut().zip(grads).enumerate() {
            assert_eq!(param.shape(), grad.shape(), "gradient shape mismatch");
            let m = &mut self.first_moment[i];
            let v = &mut self.second_moment[i];
            *m = &m.scale(self.beta1) + &grad.scale(1.0 - self.beta1);
            *v = &v.scale(self.beta2) + &grad.hadamard(grad).scale(1.0 - self.beta2);
            let m_hat = m.scale(1.0 / bias1);
            let v_hat = v.scale(1.0 / bias2);
            #[expect(
                clippy::expect_used,
                reason = "m_hat and v_hat are built from the same parameter shape two lines up"
            )]
            let update = Matrix::from_vec(
                param.rows(),
                param.cols(),
                m_hat
                    .iter()
                    .zip(v_hat.iter())
                    .map(|(mh, vh)| self.learning_rate * mh / (vh.sqrt() + self.epsilon))
                    .collect(),
            )
            .expect("shapes agree by construction");
            **param = &**param - &update;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tape;

    /// Minimize f(w) = mean((w - target)^2) and return the final parameters.
    fn optimize(mut step: impl FnMut(&mut Matrix, &Matrix), iters: usize) -> Matrix {
        let target = Matrix::from_rows(&[vec![1.0, -2.0, 0.5]]);
        let mut w = Matrix::zeros(1, 3);
        for _ in 0..iters {
            let tape = Tape::new();
            let wv = tape.leaf(w.clone());
            let loss = tape.mse_loss(wv, &target);
            tape.backward(loss);
            let grad = tape.grad(wv);
            step(&mut w, &grad);
        }
        w
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.1);
        let w = optimize(|p, g| adam.step_single(p, g), 300);
        assert!(w.approx_eq(&Matrix::from_rows(&[vec![1.0, -2.0, 0.5]]), 1e-2));
        assert_eq!(adam.step_count(), 300);
    }

    #[test]
    fn adam_handles_sparse_gradients_gracefully() {
        // One coordinate gets gradient updates only rarely; Adam should still
        // move it (this is the scenario thresholds are in during fine-tuning).
        let mut adam = Adam::new(0.05);
        let mut w = Matrix::zeros(1, 2);
        for step in 0..200 {
            let mut grad = Matrix::zeros(1, 2);
            grad[(0, 0)] = 2.0 * (w[(0, 0)] - 1.0);
            if step % 10 == 0 {
                grad[(0, 1)] = 2.0 * (w[(0, 1)] - 1.0);
            }
            adam.step_single(&mut w, &grad);
        }
        assert!((w[(0, 0)] - 1.0).abs() < 0.05);
        assert!(
            w[(0, 1)] > 0.3,
            "rarely-updated coordinate should still move"
        );
    }

    #[test]
    #[should_panic(expected = "one gradient per parameter")]
    fn adam_rejects_mismatched_lengths() {
        let mut adam = Adam::new(0.1);
        let mut p = Matrix::zeros(1, 1);
        adam.step(&mut [&mut p], &[]);
    }

    #[test]
    fn learning_rate_accessors() {
        assert_eq!(Adam::new(0.01).learning_rate(), 0.01);
    }
}
