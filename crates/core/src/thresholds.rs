//! Per-layer learned threshold container.
//!
//! The paper learns one pruning threshold per attention layer (Section 3.1):
//! "such a threshold needs to be defined on a per-layer basis to maintain
//! model accuracy". This module holds those values, initialised to zero as in
//! the paper, and moves them between the training hook (where they are tape
//! leaves with gradients) and the inference hook / accelerator (where they
//! are plain numbers).

use leopard_tensor::Matrix;

/// The learned per-layer pruning thresholds of a model.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerThresholds {
    values: Vec<f32>,
}

impl LayerThresholds {
    /// Creates thresholds for `layers` attention layers, all initialised to
    /// zero (the paper's initialisation).
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`.
    pub fn zeros(layers: usize) -> Self {
        assert!(layers > 0, "a model has at least one attention layer");
        Self {
            values: vec![0.0; layers],
        }
    }

    /// Creates thresholds from explicit per-layer values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_values(values: Vec<f32>) -> Self {
        assert!(
            !values.is_empty(),
            "a model has at least one attention layer"
        );
        Self { values }
    }

    /// Number of layers.
    pub fn layers(&self) -> usize {
        self.values.len()
    }

    /// Threshold of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn get(&self, layer: usize) -> f32 {
        self.values[layer]
    }

    /// Sets the threshold of `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn set(&mut self, layer: usize, value: f32) {
        self.values[layer] = value;
    }

    /// All thresholds as a slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.values
    }

    /// Mean threshold across layers (the scalar Figure 2 plots).
    pub fn mean(&self) -> f32 {
        self.values.iter().sum::<f32>() / self.values.len() as f32
    }

    /// The threshold of `layer` as a `1 x 1` matrix, ready to become a tape
    /// leaf.
    pub fn as_matrix(&self, layer: usize) -> Matrix {
        Matrix::filled(1, 1, self.get(layer))
    }

    /// Iterates over `(layer, threshold)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.values.iter().copied().enumerate()
    }
}

impl From<Vec<f32>> for LayerThresholds {
    fn from(values: Vec<f32>) -> Self {
        Self::from_values(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_initialisation_matches_paper() {
        let th = LayerThresholds::zeros(24);
        assert_eq!(th.layers(), 24);
        assert!(th.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(th.mean(), 0.0);
    }

    #[test]
    fn set_get_and_mean() {
        let mut th = LayerThresholds::zeros(4);
        th.set(1, 0.4);
        th.set(3, 0.8);
        assert_eq!(th.get(1), 0.4);
        assert_eq!(th.get(0), 0.0);
        assert!((th.mean() - 0.3).abs() < 1e-6);
    }

    #[test]
    fn as_matrix_holds_the_layer_threshold() {
        let th = LayerThresholds::from_values(vec![0.1, 0.2]);
        let m = th.as_matrix(1);
        assert_eq!(m.shape(), (1, 1));
        assert_eq!(m[(0, 0)], 0.2);
    }

    #[test]
    fn iter_pairs() {
        let th = LayerThresholds::from_values(vec![0.1, 0.2, 0.3]);
        let pairs: Vec<(usize, f32)> = th.iter().collect();
        assert_eq!(pairs, vec![(0, 0.1), (1, 0.2), (2, 0.3)]);
    }

    #[test]
    #[should_panic(expected = "at least one attention layer")]
    fn zero_layers_panics() {
        let _ = LayerThresholds::zeros(0);
    }

    #[test]
    fn from_vec_conversion() {
        let th: LayerThresholds = vec![0.5, 0.6].into();
        assert_eq!(th.layers(), 2);
    }
}
