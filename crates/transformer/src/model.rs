//! Multi-head attention, encoder layers, and a small classification model.
//!
//! The model mirrors the structure the paper targets (Equations 1–5): each
//! layer projects the token embeddings into per-head Q/K/V, computes
//! attention per head, concatenates the heads, applies the output projection,
//! and runs a position-wise feed-forward block, with residual connections and
//! layer normalization around both sub-blocks. A mean-pooled linear
//! classifier head turns the final hidden states into task logits.
//!
//! The model owns its parameters as plain matrices; every training step
//! builds a fresh [`Tape`], registers the parameters as leaves, runs the
//! forward pass, and reads gradients back out. The score hooks let
//! `leopard-core` attach one learnable threshold per layer without this crate
//! knowing anything about pruning.

use crate::attention::{attention_inference, attention_train, AttentionOutput};
use crate::config::ModelConfig;
use crate::hooks::{InferenceScoreHook, TrainScoreHook};
use leopard_autodiff::{Tape, Var};
use leopard_tensor::{ops, rng, Matrix};
use rand::rngs::StdRng;

/// A dense layer `y = x W + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Linear {
    /// Weight matrix, `in_dim x out_dim`.
    pub weight: Matrix,
    /// Bias row vector, `1 x out_dim`.
    pub bias: Matrix,
}

impl Linear {
    /// Creates a Xavier-initialized linear layer.
    pub fn new(rng: &mut StdRng, in_dim: usize, out_dim: usize) -> Self {
        Self {
            weight: rng::xavier_uniform(rng, in_dim, out_dim),
            bias: Matrix::zeros(1, out_dim),
        }
    }

    /// Differentiable forward pass that also returns the parameter nodes so
    /// the caller can read their gradients.
    pub fn forward_tracked(&self, tape: &Tape, x: Var) -> (Var, Var, Var) {
        let w = tape.leaf(self.weight.clone());
        let b = tape.leaf(self.bias.clone());
        let prod = tape.matmul(x, w);
        (tape.add_row_broadcast(prod, b), w, b)
    }

    /// Inference forward pass.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        x.matmul(&self.weight).add_row_broadcast(&self.bias)
    }
}

/// Per-head projection parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadParams {
    /// Query projection, `model_dim x head_dim`.
    pub wq: Matrix,
    /// Key projection, `model_dim x head_dim`.
    pub wk: Matrix,
    /// Value projection, `model_dim x head_dim`.
    pub wv: Matrix,
}

impl HeadParams {
    fn new(rng: &mut StdRng, model_dim: usize, head_dim: usize) -> Self {
        Self {
            wq: rng::xavier_uniform(rng, model_dim, head_dim),
            wk: rng::xavier_uniform(rng, model_dim, head_dim),
            wv: rng::xavier_uniform(rng, model_dim, head_dim),
        }
    }
}

/// Multi-head self-attention block (Equation 5).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHeadAttention {
    /// Per-head projection matrices.
    pub heads: Vec<HeadParams>,
    /// Output projection, `(heads * head_dim) x model_dim`.
    pub wo: Matrix,
    head_dim: usize,
}

impl MultiHeadAttention {
    /// Creates a randomly initialized multi-head attention block.
    pub fn new(rng: &mut StdRng, model_dim: usize, heads: usize, head_dim: usize) -> Self {
        Self {
            heads: (0..heads)
                .map(|_| HeadParams::new(rng, model_dim, head_dim))
                .collect(),
            wo: rng::xavier_uniform(rng, heads * head_dim, model_dim),
            head_dim,
        }
    }

    /// Differentiable forward pass. Returns the block output and the list of
    /// parameter nodes (paired with mutable-parameter accessors at the model
    /// level).
    pub fn forward(
        &self,
        tape: &Tape,
        x: Var,
        hook: &impl TrainScoreHook,
        layer: usize,
        params_out: &mut Vec<Var>,
    ) -> Var {
        let mut head_outputs = Vec::with_capacity(self.heads.len());
        for (h, head) in self.heads.iter().enumerate() {
            let wq = tape.leaf(head.wq.clone());
            let wk = tape.leaf(head.wk.clone());
            let wv = tape.leaf(head.wv.clone());
            params_out.extend([wq, wk, wv]);
            let q = tape.matmul(x, wq);
            let k = tape.matmul(x, wk);
            let v = tape.matmul(x, wv);
            head_outputs.push(attention_train(tape, q, k, v, hook, layer, h));
        }
        let concat = if head_outputs.len() == 1 {
            head_outputs[0]
        } else {
            tape.hstack(&head_outputs)
        };
        let wo = tape.leaf(self.wo.clone());
        params_out.push(wo);
        tape.matmul(concat, wo)
    }

    /// Inference forward pass returning the block output and the per-head
    /// attention traces (scores, probabilities, pruning counts).
    pub fn forward_inference(
        &self,
        x: &Matrix,
        hook: &impl InferenceScoreHook,
        layer: usize,
    ) -> (Matrix, Vec<AttentionOutput>) {
        let mut traces = Vec::with_capacity(self.heads.len());
        let mut head_outputs = Vec::with_capacity(self.heads.len());
        for (h, head) in self.heads.iter().enumerate() {
            let q = x.matmul(&head.wq);
            let k = x.matmul(&head.wk);
            let v = x.matmul(&head.wv);
            let out = attention_inference(&q, &k, &v, hook, layer, h);
            head_outputs.push(out.output.clone());
            traces.push(out);
        }
        let refs: Vec<&Matrix> = head_outputs.iter().collect();
        let concat = Matrix::hstack(&refs);
        (concat.matmul(&self.wo), traces)
    }

    /// Mutable references to every parameter matrix, in the same order the
    /// tape nodes are produced by [`MultiHeadAttention::forward`].
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out = Vec::new();
        for head in &mut self.heads {
            out.push(&mut head.wq);
            out.push(&mut head.wk);
            out.push(&mut head.wv);
        }
        out.push(&mut self.wo);
        out
    }
}

/// One transformer encoder layer: multi-head attention and a feed-forward
/// block, each wrapped with a residual connection and layer normalization.
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderLayer {
    /// The self-attention block.
    pub attention: MultiHeadAttention,
    /// First feed-forward projection (`model_dim x ffn_dim`).
    pub ffn1: Linear,
    /// Second feed-forward projection (`ffn_dim x model_dim`).
    pub ffn2: Linear,
    /// Layer-norm scale after attention.
    pub ln1_gamma: Matrix,
    /// Layer-norm shift after attention.
    pub ln1_beta: Matrix,
    /// Layer-norm scale after the feed-forward block.
    pub ln2_gamma: Matrix,
    /// Layer-norm shift after the feed-forward block.
    pub ln2_beta: Matrix,
}

impl EncoderLayer {
    /// Creates a randomly initialized encoder layer for `config`.
    pub fn new(rng: &mut StdRng, config: &ModelConfig) -> Self {
        Self {
            attention: MultiHeadAttention::new(
                rng,
                config.model_dim,
                config.heads,
                config.head_dim,
            ),
            ffn1: Linear::new(rng, config.model_dim, config.ffn_dim),
            ffn2: Linear::new(rng, config.ffn_dim, config.model_dim),
            ln1_gamma: Matrix::ones(1, config.model_dim),
            ln1_beta: Matrix::zeros(1, config.model_dim),
            ln2_gamma: Matrix::ones(1, config.model_dim),
            ln2_beta: Matrix::zeros(1, config.model_dim),
        }
    }

    /// Differentiable forward pass; appends this layer's parameter nodes to
    /// `params_out` in the same order as [`EncoderLayer::params_mut`].
    pub fn forward(
        &self,
        tape: &Tape,
        x: Var,
        hook: &impl TrainScoreHook,
        layer: usize,
        params_out: &mut Vec<Var>,
    ) -> Var {
        // Self-attention sub-block.
        let attn = self.attention.forward(tape, x, hook, layer, params_out);
        let residual1 = tape.add(x, attn);
        let g1 = tape.leaf(self.ln1_gamma.clone());
        let b1 = tape.leaf(self.ln1_beta.clone());
        params_out.extend([g1, b1]);
        let normed1 = tape.layer_norm(residual1, g1, b1, 1e-5);

        // Feed-forward sub-block.
        let (h1, w1, bias1) = self.ffn1.forward_tracked(tape, normed1);
        params_out.extend([w1, bias1]);
        let activated = tape.gelu(h1);
        let (h2, w2, bias2) = self.ffn2.forward_tracked(tape, activated);
        params_out.extend([w2, bias2]);
        let residual2 = tape.add(normed1, h2);
        let g2 = tape.leaf(self.ln2_gamma.clone());
        let b2 = tape.leaf(self.ln2_beta.clone());
        params_out.extend([g2, b2]);
        tape.layer_norm(residual2, g2, b2, 1e-5)
    }

    /// Inference forward pass returning the layer output and attention traces.
    pub fn forward_inference(
        &self,
        x: &Matrix,
        hook: &impl InferenceScoreHook,
        layer: usize,
    ) -> (Matrix, Vec<AttentionOutput>) {
        let (attn, traces) = self.attention.forward_inference(x, hook, layer);
        let normed1 = ops::layer_norm_rows(&(x + &attn), &self.ln1_gamma, &self.ln1_beta, 1e-5);
        let h1 = self.ffn1.forward_inference(&normed1).map(ops::gelu);
        let h2 = self.ffn2.forward_inference(&h1);
        let out = ops::layer_norm_rows(&(&normed1 + &h2), &self.ln2_gamma, &self.ln2_beta, 1e-5);
        (out, traces)
    }

    /// Mutable references to every parameter matrix, in forward-pass order.
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out = self.attention.params_mut();
        out.push(&mut self.ln1_gamma);
        out.push(&mut self.ln1_beta);
        out.push(&mut self.ffn1.weight);
        out.push(&mut self.ffn1.bias);
        out.push(&mut self.ffn2.weight);
        out.push(&mut self.ffn2.bias);
        out.push(&mut self.ln2_gamma);
        out.push(&mut self.ln2_beta);
        out
    }
}

/// A transformer encoder stack with a mean-pooling classification head.
///
/// This is the synthetic stand-in for the paper's fine-tuned task models. The
/// number of layers (and therefore learned thresholds), heads, head dimension,
/// and sequence length come from a [`ModelConfig`]; the classifier width comes
/// from the task.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerClassifier {
    config: ModelConfig,
    /// Encoder layers, index 0 closest to the input.
    pub layers: Vec<EncoderLayer>,
    /// Final linear classifier applied to the mean-pooled hidden state.
    pub classifier: Linear,
    classes: usize,
}

impl TransformerClassifier {
    /// Creates a randomly initialized classifier for `config` with `classes`
    /// output classes.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ModelConfig::validate`] or `classes == 0`.
    pub fn new(config: ModelConfig, classes: usize, seed: u64) -> Self {
        #[expect(
            clippy::panic,
            reason = "constructor contract documented under # Panics; configs are validated by builders and invalid ones here are programmer errors"
        )]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid model config: {e}"));
        assert!(classes > 0, "need at least one output class");
        let mut r = rng::seeded(seed);
        let layers = (0..config.layers)
            .map(|_| EncoderLayer::new(&mut r, &config))
            .collect();
        let classifier = Linear::new(&mut r, config.model_dim, classes);
        Self {
            config,
            layers,
            classifier,
            classes,
        }
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Differentiable forward pass for a single sample (an `s x model_dim`
    /// embedding matrix). Returns the `1 x classes` logits node and the
    /// parameter nodes in the same order as
    /// [`TransformerClassifier::params_mut`].
    pub fn forward_train(
        &self,
        tape: &Tape,
        x: &Matrix,
        hook: &impl TrainScoreHook,
    ) -> (Var, Vec<Var>) {
        assert_eq!(
            x.shape(),
            (self.config.seq_len, self.config.model_dim),
            "input must be seq_len x model_dim"
        );
        let mut params = Vec::new();
        let mut hidden = tape.constant(x.clone());
        for (l, layer) in self.layers.iter().enumerate() {
            hidden = layer.forward(tape, hidden, hook, l, &mut params);
        }
        // Mean pooling over the sequence dimension via a constant 1 x s
        // averaging matrix.
        let pool = tape.constant(Matrix::filled(
            1,
            self.config.seq_len,
            1.0 / self.config.seq_len as f32,
        ));
        let pooled = tape.matmul(pool, hidden);
        let (logits, w, b) = self.classifier.forward_tracked(tape, pooled);
        params.extend([w, b]);
        (logits, params)
    }

    /// Inference forward pass for a single sample. Returns the logits and the
    /// attention traces of every layer (outer index = layer, inner = head).
    pub fn forward_inference(
        &self,
        x: &Matrix,
        hook: &impl InferenceScoreHook,
    ) -> (Matrix, Vec<Vec<AttentionOutput>>) {
        assert_eq!(
            x.shape(),
            (self.config.seq_len, self.config.model_dim),
            "input must be seq_len x model_dim"
        );
        let mut hidden = x.clone();
        let mut all_traces = Vec::with_capacity(self.layers.len());
        for (l, layer) in self.layers.iter().enumerate() {
            let (out, traces) = layer.forward_inference(&hidden, hook, l);
            hidden = out;
            all_traces.push(traces);
        }
        // Mean over rows.
        let mut mean = Matrix::zeros(1, self.config.model_dim);
        for r in 0..hidden.rows() {
            for c in 0..hidden.cols() {
                mean[(0, c)] += hidden[(r, c)] / hidden.rows() as f32;
            }
        }
        let logits = self.classifier.forward_inference(&mean);
        (logits, all_traces)
    }

    /// Mutable references to every parameter matrix, in the same order the
    /// tape nodes are produced by [`TransformerClassifier::forward_train`].
    pub fn params_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out = Vec::new();
        for layer in &mut self.layers {
            out.extend(layer.params_mut());
        }
        out.push(&mut self.classifier.weight);
        out.push(&mut self.classifier.bias);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelFamily;
    use crate::hooks::IdentityHook;

    fn tiny_config() -> ModelConfig {
        ModelConfig {
            family: ModelFamily::BertBase,
            layers: 2,
            heads: 2,
            head_dim: 8,
            model_dim: 16,
            ffn_dim: 32,
            seq_len: 6,
        }
    }

    fn random_input(cfg: &ModelConfig, seed: u64) -> Matrix {
        rng::normal_matrix(&mut rng::seeded(seed), cfg.seq_len, cfg.model_dim, 0.0, 1.0)
    }

    #[test]
    fn linear_forward_matches_inference() {
        let mut r = rng::seeded(1);
        let lin = Linear::new(&mut r, 4, 3);
        let x = rng::normal_matrix(&mut r, 2, 4, 0.0, 1.0);
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let (y, _, _) = lin.forward_tracked(&tape, xv);
        assert!(tape.value(y).approx_eq(&lin.forward_inference(&x), 1e-5));
    }

    #[test]
    fn multihead_output_shape_and_trace_count() {
        let cfg = tiny_config();
        let mut r = rng::seeded(2);
        let mha = MultiHeadAttention::new(&mut r, cfg.model_dim, cfg.heads, cfg.head_dim);
        let x = random_input(&cfg, 3);
        let (out, traces) = mha.forward_inference(&x, &IdentityHook, 0);
        assert_eq!(out.shape(), (cfg.seq_len, cfg.model_dim));
        assert_eq!(traces.len(), cfg.heads);
        assert_eq!(traces[0].raw_scores.shape(), (cfg.seq_len, cfg.seq_len));
    }

    #[test]
    fn train_and_inference_forward_agree() {
        let cfg = tiny_config();
        let model = TransformerClassifier::new(cfg, 3, 11);
        let x = random_input(&cfg, 4);
        let tape = Tape::new();
        let (logits_node, _) = model.forward_train(&tape, &x, &IdentityHook);
        let (logits_inf, traces) = model.forward_inference(&x, &IdentityHook);
        assert!(tape.value(logits_node).approx_eq(&logits_inf, 1e-4));
        assert_eq!(traces.len(), cfg.layers);
        assert_eq!(traces[0].len(), cfg.heads);
    }

    #[test]
    fn params_mut_order_matches_forward_order() {
        let cfg = tiny_config();
        let mut model = TransformerClassifier::new(cfg, 2, 5);
        let x = random_input(&cfg, 6);
        let tape = Tape::new();
        let (_, param_nodes) = model.forward_train(&tape, &x, &IdentityHook);
        let params = model.params_mut();
        assert_eq!(param_nodes.len(), params.len());
        for (node, param) in param_nodes.iter().zip(params.iter()) {
            assert_eq!(tape.shape(*node), param.shape(), "parameter order mismatch");
        }
    }

    #[test]
    fn gradient_step_reduces_loss_on_fixed_batch() {
        use leopard_autodiff::optim::Adam;

        let cfg = tiny_config();
        let mut model = TransformerClassifier::new(cfg, 2, 7);
        let mut r = rng::seeded(8);
        let samples: Vec<(Matrix, usize)> = (0..4)
            .map(|i| {
                (
                    rng::normal_matrix(&mut r, cfg.seq_len, cfg.model_dim, 0.0, 1.0),
                    i % 2,
                )
            })
            .collect();

        let batch_loss = |model: &TransformerClassifier| -> f32 {
            samples
                .iter()
                .map(|(x, label)| {
                    let tape = Tape::new();
                    let (logits, _) = model.forward_train(&tape, x, &IdentityHook);
                    let loss = tape.cross_entropy(logits, &[*label]);
                    tape.value(loss)[(0, 0)]
                })
                .sum::<f32>()
                / samples.len() as f32
        };

        let initial = batch_loss(&model);
        let mut adam = Adam::new(5e-3);
        for _ in 0..12 {
            // Accumulate gradients over the batch.
            let mut grads: Option<Vec<Matrix>> = None;
            for (x, label) in &samples {
                let tape = Tape::new();
                let (logits, param_nodes) = model.forward_train(&tape, x, &IdentityHook);
                let loss = tape.cross_entropy(logits, &[*label]);
                tape.backward(loss);
                let sample_grads: Vec<Matrix> = param_nodes.iter().map(|&p| tape.grad(p)).collect();
                grads = Some(match grads {
                    None => sample_grads,
                    Some(mut acc) => {
                        for (a, g) in acc.iter_mut().zip(sample_grads.iter()) {
                            *a += g;
                        }
                        acc
                    }
                });
            }
            let grads = grads.unwrap();
            let mut params = model.params_mut();
            let grad_refs: Vec<&Matrix> = grads.iter().collect();
            adam.step(&mut params, &grad_refs);
        }
        let trained = batch_loss(&model);
        assert!(
            trained < initial,
            "loss should decrease: {initial} -> {trained}"
        );
    }

    #[test]
    fn params_mut_covers_layers_and_classifier() {
        let cfg = tiny_config();
        let mut model = TransformerClassifier::new(cfg, 3, 9);
        let total: usize = model.params_mut().iter().map(|p| p.len()).sum();
        assert_eq!(
            total,
            model
                .layers
                .iter_mut()
                .map(|l| l.params_mut().iter().map(|p| p.len()).sum::<usize>())
                .sum::<usize>()
                + model.classifier.weight.len()
                + model.classifier.bias.len()
        );
    }

    #[test]
    #[should_panic(expected = "seq_len x model_dim")]
    fn wrong_input_shape_panics() {
        let cfg = tiny_config();
        let model = TransformerClassifier::new(cfg, 2, 1);
        let bad = Matrix::zeros(3, 3);
        let _ = model.forward_inference(&bad, &IdentityHook);
    }
}
