//! Pruning-rate accounting.
//!
//! Figure 7 of the paper reports, per task, the percentage of `Q·Kᵀ` scores
//! pruned away by the learned thresholds; Figure 8 additionally tracks how
//! the pruning decisions accumulate as more bits of the bit-serial
//! computation are processed. [`PruningStats`] is the shared counter both the
//! software evaluation and the accelerator simulator update.

use std::collections::BTreeMap;

/// Counters of total and pruned scores, overall and per attention layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruningStats {
    total: u64,
    pruned: u64,
    per_layer: BTreeMap<usize, (u64, u64)>,
}

impl PruningStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the outcome for one score matrix of `layer`: `total` scores of
    /// which `pruned` were pruned.
    ///
    /// # Panics
    ///
    /// Panics if `pruned > total`.
    pub fn record_layer(&mut self, layer: usize, total: usize, pruned: usize) {
        assert!(pruned <= total, "cannot prune more scores than exist");
        self.total += total as u64;
        self.pruned += pruned as u64;
        let entry = self.per_layer.entry(layer).or_insert((0, 0));
        entry.0 += total as u64;
        entry.1 += pruned as u64;
    }

    /// Total number of scores observed.
    pub fn total_scores(&self) -> u64 {
        self.total
    }

    /// Overall pruning rate in `[0, 1]` (0 when nothing was observed).
    pub fn pruning_rate(&self) -> f32 {
        if self.total == 0 {
            0.0
        } else {
            self.pruned as f32 / self.total as f32
        }
    }

    /// Pruning rate of a specific layer, if that layer was observed.
    pub fn layer_pruning_rate(&self, layer: usize) -> Option<f32> {
        self.per_layer.get(&layer).map(|&(total, pruned)| {
            if total == 0 {
                0.0
            } else {
                pruned as f32 / total as f32
            }
        })
    }

    /// Layers observed so far, in ascending order.
    pub fn layers(&self) -> Vec<usize> {
        self.per_layer.keys().copied().collect()
    }

    /// Merges another set of statistics into this one.
    pub fn merge(&mut self, other: &PruningStats) {
        self.total += other.total;
        self.pruned += other.pruned;
        for (&layer, &(total, pruned)) in &other.per_layer {
            let entry = self.per_layer.entry(layer).or_insert((0, 0));
            entry.0 += total;
            entry.1 += pruned;
        }
    }
}

impl std::fmt::Display for PruningStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pruned {}/{} scores ({:.1}%)",
            self.pruned,
            self.total,
            self.pruning_rate() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_report_zero() {
        let s = PruningStats::new();
        assert_eq!(s.total_scores(), 0);
        assert_eq!(s.pruning_rate(), 0.0);
        assert!(s.layers().is_empty());
        assert_eq!(s.layer_pruning_rate(0), None);
    }

    #[test]
    fn record_and_rates() {
        let mut s = PruningStats::new();
        s.record_layer(0, 100, 80);
        s.record_layer(1, 100, 60);
        assert_eq!(s.total_scores(), 200);
        assert!((s.pruning_rate() - 0.7).abs() < 1e-6);
        assert_eq!(s.layer_pruning_rate(0), Some(0.8));
        assert_eq!(s.layer_pruning_rate(1), Some(0.6));
        assert_eq!(s.layers(), vec![0, 1]);
    }

    #[test]
    fn merge_accumulates_per_layer() {
        let mut a = PruningStats::new();
        a.record_layer(0, 10, 5);
        let mut b = PruningStats::new();
        b.record_layer(0, 10, 10);
        b.record_layer(2, 4, 1);
        a.merge(&b);
        assert_eq!(a.total_scores(), 24);
        assert_eq!(a.layer_pruning_rate(0), Some(0.75));
        assert_eq!(a.layers(), vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot prune more")]
    fn overcounting_panics() {
        let mut s = PruningStats::new();
        s.record_layer(0, 5, 6);
    }

    #[test]
    fn display_is_informative() {
        let mut s = PruningStats::new();
        s.record_layer(0, 4, 3);
        let text = s.to_string();
        assert!(text.contains("3/4"));
        assert!(text.contains("75.0%"));
    }
}
