//! Baseline comparison helpers (Figures 9 and 10).
//!
//! The paper reports speedup and energy reduction of AE-/HP-LeOPArd relative
//! to an unpruned baseline with the same frequency, bit widths, and buffer
//! capacities. This module packages that comparison: run the same quantized
//! head workload through the baseline configuration and a LeOPArd
//! configuration, then report the cycle and energy ratios.

use crate::config::TileConfig;
use crate::energy::{energy_from_events, EnergyBreakdown, EnergyModel};
use crate::sim::{simulate_head, HeadSimResult, HeadWorkload};

/// Outcome of comparing one configuration against the baseline on the same
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineComparison {
    /// Name of the evaluated (non-baseline) configuration.
    pub config_name: &'static str,
    /// Cycles the baseline needed.
    pub baseline_cycles: u64,
    /// Cycles the evaluated configuration needed.
    pub config_cycles: u64,
    /// Baseline energy breakdown.
    pub baseline_energy: EnergyBreakdown,
    /// Evaluated configuration's energy breakdown.
    pub config_energy: EnergyBreakdown,
    /// Pruning rate observed under the evaluated configuration.
    pub pruning_rate: f64,
    /// Mean K magnitude bits processed per score under the evaluated
    /// configuration.
    pub mean_bits: f64,
}

impl BaselineComparison {
    /// Speedup of the evaluated configuration over the baseline.
    pub fn speedup(&self) -> f64 {
        self.baseline_cycles as f64 / self.config_cycles.max(1) as f64
    }

    /// Energy reduction factor (baseline energy / configuration energy).
    pub fn energy_reduction(&self) -> f64 {
        let config = self.config_energy.total();
        if config <= 0.0 {
            return 1.0;
        }
        self.baseline_energy.total() / config
    }
}

/// Runs `workload` through the baseline and through `config`, returning the
/// comparison. The same energy model prices both runs.
pub fn compare_to_baseline(
    workload: &HeadWorkload,
    config: &TileConfig,
    model: &EnergyModel,
) -> BaselineComparison {
    let baseline_cfg = TileConfig::baseline();
    let baseline = simulate_head(workload, &baseline_cfg);
    let evaluated = simulate_head(workload, config);
    BaselineComparison::from_results(&baseline_cfg, &baseline, config, &evaluated, model)
}

impl BaselineComparison {
    /// Builds the comparison from simulation results computed elsewhere.
    ///
    /// The parallel suite engine simulates each configuration exactly once
    /// per head and shares the results between comparisons; this constructor
    /// prices those shared results identically to [`compare_to_baseline`]
    /// (which remains the convenient single-call path).
    pub fn from_results(
        baseline_cfg: &TileConfig,
        baseline: &HeadSimResult,
        config: &TileConfig,
        evaluated: &HeadSimResult,
        model: &EnergyModel,
    ) -> Self {
        Self {
            config_name: config.name,
            baseline_cycles: baseline.total_cycles,
            config_cycles: evaluated.total_cycles,
            baseline_energy: energy_from_events(&baseline.events, baseline_cfg, model),
            config_energy: energy_from_events(&evaluated.events, config, model),
            pruning_rate: evaluated.pruning_rate(),
            mean_bits: evaluated.mean_bits_processed(),
        }
    }
}

/// Simulates a workload under every `N_QK` value in `sweep`, returning
/// `(n_qk, vpu_demand, vpu_utilization)` tuples — the Figure 13 series.
pub fn nqk_sweep(workload: &HeadWorkload, sweep: &[usize]) -> Vec<(usize, f64, f64)> {
    sweep
        .iter()
        .map(|&n| {
            let cfg = TileConfig::ae_leopard().with_n_qk(n);
            let result: HeadSimResult = simulate_head(workload, &cfg);
            (n, result.vpu_demand, result.vpu_utilization)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_tensor::rng;

    fn workload(threshold: f32, seed: u64) -> HeadWorkload {
        let mut r = rng::seeded(seed);
        let q = rng::normal_matrix(&mut r, 32, 64, 0.0, 1.0);
        let k = rng::normal_matrix(&mut r, 32, 64, 0.0, 1.0);
        HeadWorkload::from_float(&q, &k, threshold, 12)
    }

    #[test]
    fn leopard_beats_baseline_on_pruned_workloads() {
        let w = workload(0.4, 1);
        let model = EnergyModel::calibrated();
        let ae = compare_to_baseline(&w, &TileConfig::ae_leopard(), &model);
        assert!(ae.speedup() > 1.0, "speedup {}", ae.speedup());
        assert!(
            ae.energy_reduction() > 1.5,
            "energy {}",
            ae.energy_reduction()
        );
        assert!(ae.pruning_rate > 0.5);

        let hp = compare_to_baseline(&w, &TileConfig::hp_leopard(), &model);
        assert!(hp.speedup() >= ae.speedup());
    }

    #[test]
    fn no_pruning_threshold_keeps_speedup_near_parity() {
        // With an impossible threshold nothing is pruned; the bit-serial
        // front-end with 6 DPUs should still be roughly cycle-comparable to
        // the single full-precision DPU (6 DPUs x 6 cycles == 1 DPU x 1 cycle
        // per dot product in steady state).
        let mut w = workload(0.0, 2);
        w.threshold_int = i64::MIN / 4;
        let model = EnergyModel::calibrated();
        let ae = compare_to_baseline(&w, &TileConfig::ae_leopard(), &model);
        assert_eq!(ae.pruning_rate, 0.0);
        assert!(
            (0.7..=1.3).contains(&ae.speedup()),
            "unpruned speedup {} should be near 1.0",
            ae.speedup()
        );
    }

    #[test]
    fn from_results_matches_compare_to_baseline() {
        let w = workload(0.3, 7);
        let model = EnergyModel::calibrated();
        let cfg = TileConfig::ae_leopard();
        let direct = compare_to_baseline(&w, &cfg, &model);
        let baseline_cfg = TileConfig::baseline();
        let baseline = simulate_head(&w, &baseline_cfg);
        let evaluated = simulate_head(&w, &cfg);
        let shared =
            BaselineComparison::from_results(&baseline_cfg, &baseline, &cfg, &evaluated, &model);
        assert_eq!(direct, shared);
    }

    #[test]
    fn nqk_sweep_demand_increases_with_parallelism() {
        let w = workload(0.2, 4);
        let rows = nqk_sweep(&w, &[3, 6, 12]);
        assert_eq!(rows.len(), 3);
        assert!(rows[2].1 > rows[0].1, "demand should grow with N_QK");
        for (_, _, util) in rows {
            assert!(util <= 1.0);
        }
    }
}
