//! Score hooks implementing the learned pruning.
//!
//! Two hooks correspond to the two phases of the paper's pipeline:
//!
//! * [`SoftThresholdHook`] implements the transformer crate's
//!   [`TrainScoreHook`]: during pruning-aware fine-tuning every attention
//!   layer's scaled scores pass through the differentiable soft threshold and
//!   accumulate a surrogate L0 term. The hook also owns the per-layer
//!   threshold tape leaves for the current forward pass so the fine-tuner can
//!   read their gradients.
//! * [`HardThresholdHook`] implements [`InferenceScoreHook`]: at inference
//!   (and when driving the accelerator simulator) scores strictly below the
//!   learned threshold are clipped to a large negative value so the softmax
//!   assigns them ~zero probability — the "replace by −∞" of the paper with a
//!   finite stand-in.

use crate::regularizer::{l0_regularizer_op, L0Config};
use crate::soft_threshold::{soft_threshold_op, SoftThresholdConfig};
use crate::stats::PruningStats;
use crate::thresholds::LayerThresholds;
use leopard_autodiff::{Tape, Var};
use leopard_tensor::Matrix;
use leopard_transformer::attention::PRUNED_SCORE;
use leopard_transformer::hooks::{InferenceScoreHook, TrainScoreHook};
use std::cell::RefCell;

/// Differentiable soft-threshold hook used while fine-tuning.
///
/// The hook is created once per forward pass (one tape). It lazily registers
/// one `1 x 1` threshold leaf per layer the first time that layer's scores
/// arrive and reuses the leaf for the layer's remaining heads, so gradients
/// from every head accumulate into the same per-layer threshold — exactly the
/// paper's "per-layer" granularity.
pub struct SoftThresholdHook<'a> {
    thresholds: &'a LayerThresholds,
    soft_config: SoftThresholdConfig,
    l0_config: L0Config,
    state: RefCell<HookState>,
}

#[derive(Default)]
struct HookState {
    /// Threshold leaf per layer, registered on first use within this pass.
    threshold_vars: Vec<Option<Var>>,
    /// Accumulated λ-scaled L0 terms (one per attention head processed).
    regularizer_terms: Vec<Var>,
    /// Sparsity bookkeeping from the soft-threshold outputs.
    stats: PruningStats,
}

impl<'a> SoftThresholdHook<'a> {
    /// Creates a hook for one forward/backward pass.
    pub fn new(
        thresholds: &'a LayerThresholds,
        soft_config: SoftThresholdConfig,
        l0_config: L0Config,
    ) -> Self {
        Self {
            thresholds,
            soft_config,
            l0_config,
            state: RefCell::new(HookState {
                threshold_vars: vec![None; thresholds.layers()],
                ..HookState::default()
            }),
        }
    }

    /// The per-layer threshold leaves registered during the forward pass.
    /// Layers whose scores never reached the hook have no entry.
    pub fn threshold_vars(&self) -> Vec<(usize, Var)> {
        self.state
            .borrow()
            .threshold_vars
            .iter()
            .enumerate()
            .filter_map(|(layer, var)| var.map(|v| (layer, v)))
            .collect()
    }

    /// Sum of all accumulated λ-scaled surrogate L0 terms as a single scalar
    /// node, or `None` if no scores passed through the hook.
    pub fn regularizer_total(&self, tape: &Tape) -> Option<Var> {
        let state = self.state.borrow();
        let mut iter = state.regularizer_terms.iter().copied();
        let first = iter.next()?;
        Some(iter.fold(first, |acc, term| tape.add(acc, term)))
    }

    /// Pruning statistics accumulated from the soft-threshold outputs during
    /// this pass (a score counts as pruned when its soft output is below
    /// `-clip + alpha`, mirroring Equation 8a).
    pub fn stats(&self) -> PruningStats {
        self.state.borrow().stats.clone()
    }
}

impl TrainScoreHook for SoftThresholdHook<'_> {
    fn on_scores(&self, tape: &Tape, scores: Var, layer: usize, _head: usize) -> Var {
        assert!(
            layer < self.thresholds.layers(),
            "layer {layer} has no learned threshold (model deeper than LayerThresholds)"
        );
        // Register (or reuse) the layer's threshold leaf.
        let th_var = {
            let mut state = self.state.borrow_mut();
            match state.threshold_vars[layer] {
                Some(v) => v,
                None => {
                    let v = tape.leaf(self.thresholds.as_matrix(layer));
                    state.threshold_vars[layer] = Some(v);
                    v
                }
            }
        };

        let soft = soft_threshold_op(tape, scores, th_var, self.soft_config);
        let reg = l0_regularizer_op(tape, soft, self.l0_config);

        // Bookkeeping: how many scores ended up in the pruned region.
        let soft_values = tape.value(soft);
        let kept_boundary = -self.l0_config.clip + self.l0_config.alpha;
        let pruned = soft_values.iter().filter(|&&v| v <= kept_boundary).count();
        {
            let mut state = self.state.borrow_mut();
            state.regularizer_terms.push(reg);
            state.stats.record_layer(layer, soft_values.len(), pruned);
        }
        soft
    }
}

/// Hard-threshold hook used at inference and simulation time.
///
/// Scores strictly below the layer's learned threshold are replaced by
/// [`PRUNED_SCORE`]; the rest are untouched. The hook also accumulates
/// pruning statistics so a single evaluation pass yields the data for
/// Figure 7.
#[derive(Debug, Clone)]
pub struct HardThresholdHook {
    thresholds: LayerThresholds,
    stats: RefCell<PruningStats>,
}

impl HardThresholdHook {
    /// Creates a hook from learned thresholds.
    pub fn new(thresholds: LayerThresholds) -> Self {
        Self {
            thresholds,
            stats: RefCell::new(PruningStats::new()),
        }
    }

    /// The thresholds driving this hook.
    pub fn thresholds(&self) -> &LayerThresholds {
        &self.thresholds
    }

    /// Pruning statistics accumulated so far.
    pub fn stats(&self) -> PruningStats {
        self.stats.borrow().clone()
    }
}

impl InferenceScoreHook for HardThresholdHook {
    fn on_scores(&self, scores: &mut Matrix, layer: usize, _head: usize) {
        assert!(
            layer < self.thresholds.layers(),
            "layer {layer} has no learned threshold (model deeper than LayerThresholds)"
        );
        let th = self.thresholds.get(layer);
        let mut pruned = 0usize;
        for v in scores.iter_mut() {
            if *v < th {
                *v = PRUNED_SCORE;
                pruned += 1;
            }
        }
        self.stats
            .borrow_mut()
            .record_layer(layer, scores.len(), pruned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_tensor::rng;
    use leopard_transformer::attention::attention_inference;
    use leopard_transformer::hooks::IdentityHook;

    #[test]
    fn soft_hook_registers_one_threshold_per_layer() {
        let thresholds = LayerThresholds::zeros(3);
        let hook = SoftThresholdHook::new(
            &thresholds,
            SoftThresholdConfig::default(),
            L0Config::default(),
        );
        let tape = Tape::new();
        let scores0 = tape.constant(Matrix::filled(4, 4, 0.5));
        let scores1 = tape.constant(Matrix::filled(4, 4, 0.5));
        // Two heads of layer 0 and one head of layer 2.
        let _ = hook.on_scores(&tape, scores0, 0, 0);
        let _ = hook.on_scores(&tape, scores0, 0, 1);
        let _ = hook.on_scores(&tape, scores1, 2, 0);
        let vars = hook.threshold_vars();
        assert_eq!(vars.len(), 2, "layers 0 and 2 registered");
        assert_eq!(vars[0].0, 0);
        assert_eq!(vars[1].0, 2);
    }

    #[test]
    fn soft_hook_threshold_gradient_includes_all_heads() {
        let thresholds = LayerThresholds::zeros(1);
        let soft_cfg = SoftThresholdConfig::new(4.0, 10.0);
        let l0_cfg = L0Config {
            sharpness: 3.0,
            alpha: 0.0,
            clip: 10.0,
            lambda: 1.0,
            normalize: true,
        };
        let run = |heads: usize| -> f32 {
            let hook = SoftThresholdHook::new(&thresholds, soft_cfg, l0_cfg);
            let tape = Tape::new();
            let mut r = rng::seeded(3);
            let mut loss_terms = Vec::new();
            for h in 0..heads {
                let scores = tape.constant(rng::uniform_matrix(&mut r, 4, 4, -1.0, 1.0));
                let soft = hook.on_scores(&tape, scores, 0, h);
                loss_terms.push(tape.sum(soft));
            }
            let mut loss = loss_terms[0];
            for &t in &loss_terms[1..] {
                loss = tape.add(loss, t);
            }
            if let Some(reg) = hook.regularizer_total(&tape) {
                loss = tape.add(loss, reg);
            }
            tape.backward(loss);
            let (_, th_var) = hook.threshold_vars()[0];
            tape.grad(th_var)[(0, 0)]
        };
        let one_head = run(1).abs();
        let two_heads = run(2).abs();
        assert!(
            two_heads > one_head * 1.2,
            "more heads should contribute more threshold gradient: {one_head} vs {two_heads}"
        );
    }

    #[test]
    fn soft_hook_accumulates_regularizer_and_stats() {
        let thresholds = LayerThresholds::from_values(vec![0.3]);
        let hook = SoftThresholdHook::new(
            &thresholds,
            SoftThresholdConfig::default(),
            L0Config::default(),
        );
        let tape = Tape::new();
        // Half the scores are clearly below the threshold.
        let scores = tape.constant(Matrix::from_rows(&[vec![1.0, -1.0], vec![0.9, -2.0]]));
        let _ = hook.on_scores(&tape, scores, 0, 0);
        let reg = hook.regularizer_total(&tape).expect("one term accumulated");
        // Normalized survivor fraction ~0.5 scaled by default lambda.
        let value = tape.value(reg)[(0, 0)];
        assert!((value - 0.5 * L0Config::default().lambda).abs() < 0.05);
        let stats = hook.stats();
        assert_eq!(stats.total_scores(), 4);
        assert_eq!(stats.pruning_rate(), 2.0 / 4.0);
    }

    #[test]
    fn hard_hook_prunes_below_threshold_only() {
        let hook = HardThresholdHook::new(LayerThresholds::from_values(vec![0.0, 0.5]));
        let mut layer0 = Matrix::from_rows(&[vec![0.2, -0.3, 0.0]]);
        hook.on_scores(&mut layer0, 0, 0);
        assert_eq!(layer0[(0, 0)], 0.2);
        assert_eq!(layer0[(0, 1)], PRUNED_SCORE);
        assert_eq!(layer0[(0, 2)], 0.0, "scores equal to Th survive");

        let mut layer1 = Matrix::from_rows(&[vec![0.2, 0.6]]);
        hook.on_scores(&mut layer1, 1, 0);
        assert_eq!(layer1[(0, 0)], PRUNED_SCORE);
        assert_eq!(layer1[(0, 1)], 0.6);

        let stats = hook.stats();
        assert_eq!(stats.total_scores(), 5);
        assert_eq!(stats.pruning_rate(), 2.0 / 5.0);
        assert_eq!(stats.layer_pruning_rate(0), Some(1.0 / 3.0));
    }

    #[test]
    fn hard_hook_with_zero_threshold_prunes_negative_scores_in_attention() {
        let hook = HardThresholdHook::new(LayerThresholds::zeros(1));
        let mut r = rng::seeded(9);
        let q = rng::normal_matrix(&mut r, 8, 16, 0.0, 1.0);
        let k = rng::normal_matrix(&mut r, 8, 16, 0.0, 1.0);
        let v = rng::normal_matrix(&mut r, 8, 16, 0.0, 1.0);
        let pruned = attention_inference(&q, &k, &v, &hook, 0, 0);
        let dense = attention_inference(&q, &k, &v, &IdentityHook, 0, 0);
        assert!(pruned.pruned_count > 0);
        // With a threshold at zero roughly half of random scores get pruned,
        // yet the output should stay correlated with the dense one because
        // high-probability entries survive.
        let diff = (&pruned.output - &dense.output).frobenius_norm();
        let scale = dense.output.frobenius_norm();
        assert!(
            diff / scale < 0.8,
            "pruned output unexpectedly far from dense"
        );
    }

    #[test]
    #[should_panic(expected = "no learned threshold")]
    fn out_of_range_layer_panics() {
        let hook = HardThresholdHook::new(LayerThresholds::zeros(1));
        let mut scores = Matrix::zeros(2, 2);
        hook.on_scores(&mut scores, 5, 0);
    }
}
