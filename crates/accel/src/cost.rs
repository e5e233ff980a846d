//! Per-head cost accounting: one simulation priced in cycles, wall-clock
//! time at the tile's clock, and energy.
//!
//! The suite-execution engine (`leopard-runtime`) schedules thousands of
//! per-head simulation jobs and aggregates their costs; this module gives it
//! a single value type that carries everything a scheduler or report needs,
//! computed from a [`HeadSimResult`] without re-running the simulator.
//!
//! Before anything runs, [`CostModel::predict_head_cycles`] is the one
//! cycle predictor: one head of a task family, at an expected pruning rate,
//! split across some number of tiles. The layer planner, the suite's
//! submission order and the serving prices all call it.
//!
//! The module also pins down the thread-safety contract the engine relies
//! on: workload and result types must be `Send + Sync` so workloads can be
//! shared read-only across worker threads and results can be collected from
//! them. The assertions below make that a compile-time guarantee instead of
//! an accident of field types.

use crate::config::TileConfig;
use crate::energy::{energy_from_events, EnergyBreakdown, EnergyModel};
use crate::sim::{simulate_head, HeadSimResult, HeadWorkload};

/// Compile-time guarantee that the simulator's workload/result types can
/// cross thread boundaries (shared read-only or moved out of workers).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HeadWorkload>();
    assert_send_sync::<HeadSimResult>();
    assert_send_sync::<TileConfig>();
    assert_send_sync::<EnergyModel>();
    assert_send_sync::<EnergyBreakdown>();
    assert_send_sync::<HeadCost>();
};

/// The full cost of simulating one attention head on one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadCost {
    /// Total tile cycles to drain the head.
    pub cycles: u64,
    /// Wall-clock latency implied by the cycle count at the tile's clock,
    /// in microseconds.
    pub latency_us: f64,
    /// Energy breakdown priced by the event-based model.
    pub energy: EnergyBreakdown,
    /// Fraction of scores pruned.
    pub pruning_rate: f64,
    /// Mean K magnitude bits processed per score.
    pub mean_bits: f64,
}

impl HeadCost {
    /// Prices an already-computed simulation result.
    pub fn from_result(result: &HeadSimResult, config: &TileConfig, model: &EnergyModel) -> Self {
        let latency_us = result.total_cycles as f64 / config.frequency_mhz as f64;
        Self {
            cycles: result.total_cycles,
            latency_us,
            energy: energy_from_events(&result.events, config, model),
            pruning_rate: result.pruning_rate(),
            mean_bits: result.mean_bits_processed(),
        }
    }

    /// Total energy across all components (same units as the model).
    pub fn energy_total(&self) -> f64 {
        self.energy.total()
    }
}

/// Simulates a head and prices it in one call.
///
/// # Panics
///
/// Panics if the configuration is invalid or the workload is degenerate
/// (zero-length sequence) — the same conditions as [`simulate_head`].
pub fn head_cost(workload: &HeadWorkload, config: &TileConfig, model: &EnergyModel) -> HeadCost {
    let result = simulate_head(workload, config);
    HeadCost::from_result(&result, config, model)
}

/// Fraction of a pruned dot product's serial steps the early-termination
/// logic is assumed to save, on average, when nothing has been measured
/// yet. The exact saving depends on the score distribution; roughly half
/// the magnitude bits matches the Figure 8 bit profiles across the suite.
/// Fitted per-family constants ([`CostModel::fit_from_results`]) replace
/// this default wherever a measured bit profile exists.
const DEFAULT_EARLY_TERMINATION_SAVING: f64 = 0.45;

/// One calibration observation for [`CostModel::fit_from_results`]: a
/// measured simulation result plus the workload context it was measured
/// under (the simulator result alone does not record its configuration or
/// sequence length).
#[derive(Debug, Clone, Copy)]
pub struct FitObservation<'a> {
    /// Task-family label the observation belongs to.
    pub family: &'a str,
    /// The measured simulation result (bit profile + total cycles).
    pub result: &'a HeadSimResult,
    /// Tile configuration the result was measured on.
    pub config: &'a TileConfig,
    /// Sequence length of the measured workload.
    pub seq_len: usize,
}

/// Per-family constants of the fitted cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FamilyFit {
    /// Early-termination saving read off the pruned bit profile.
    saving: f64,
    /// Multiplicative calibration: measured cycles over the analytical
    /// prediction at the calibration point.
    scale: f64,
}

/// Analytical cycle predictor with per-task-family constants fitted from
/// measured bit profiles.
///
/// The predictor itself is pure arithmetic over the tile parameters (see
/// [`CostModel::predict_head_cycles`]); the empirical quantities it needs
/// are per task family, fitted by [`CostModel::fit_from_results`]:
///
/// * the **early-termination saving** — how much of a pruned dot product's
///   serial steps stopping early saves. It varies by family (MemN2N scores
///   collapse within a couple of magnitude bits while ViT scores need most
///   of them) and is read directly off the measured pruned-bit profile;
/// * a **calibration scale** — the ratio of measured to analytically
///   predicted cycles at the calibration point, absorbing the pipeline
///   second-order effects (row drains, FIFO stalls) the closed-form model
///   leaves out.
///
/// Families that were never fitted fall back to a flat default saving and
/// unit scale — the pre-fit analytical model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// `(family label, fitted constants)` pairs, one per fitted family.
    fits: Vec<(String, FamilyFit)>,
}

impl Default for CostModel {
    fn default() -> Self {
        Self::analytical()
    }
}

impl CostModel {
    /// The unfitted model: every family uses the flat analytical default
    /// (~45% of a pruned dot's serial steps saved, unit scale).
    pub fn analytical() -> Self {
        Self { fits: Vec::new() }
    }

    /// Fits the per-family constants from measured simulation results.
    ///
    /// For every observation the saving is read off the pruned bit
    /// profile: a dot pruned after `b` of the `W` magnitude bits saved
    /// `1 - b/W` of its serial steps, so the family's saving is the
    /// histogram-weighted mean of that quantity. The calibration scale is
    /// the mean ratio of measured cycles to the analytical prediction
    /// (under the fitted saving, at the observation's measured pruning
    /// rate). Multiple observations under the same label are pooled.
    /// Observations whose profile recorded no pruned dot contribute only
    /// to the scale; a family with no observation keeps the analytical
    /// default.
    pub fn fit_from_results<'a, I>(observations: I) -> Self
    where
        I: IntoIterator<Item = FitObservation<'a>>,
    {
        // Pool per label, preserving first-seen label order so the fit is
        // deterministic for any input order of equal content.
        struct Pool<'a> {
            label: String,
            histogram: Vec<u64>,
            observations: Vec<FitObservation<'a>>,
        }
        let mut pools: Vec<Pool<'a>> = Vec::new();
        for observation in observations {
            let pool = match pools.iter_mut().find(|p| p.label == observation.family) {
                Some(pool) => pool,
                None => {
                    pools.push(Pool {
                        label: observation.family.to_string(),
                        histogram: Vec::new(),
                        observations: Vec::new(),
                    });
                    #[expect(
                        clippy::expect_used,
                        reason = "the entry was pushed on the line above; last_mut cannot be None"
                    )]
                    pools.last_mut().expect("just pushed")
                }
            };
            let profile = &observation.result.pruned_bits_histogram;
            if pool.histogram.len() < profile.len() {
                pool.histogram.resize(profile.len(), 0);
            }
            for (slot, &count) in pool.histogram.iter_mut().zip(profile) {
                *slot += count;
            }
            pool.observations.push(observation);
        }
        let fits = pools
            .into_iter()
            .map(|pool| {
                let saving = saving_from_pruned_bits(&pool.histogram)
                    .unwrap_or(DEFAULT_EARLY_TERMINATION_SAVING);
                // Scale: mean measured/analytical ratio over observations,
                // clamped against degenerate calibration workloads.
                let ratios: Vec<f64> = pool
                    .observations
                    .iter()
                    .map(|o| {
                        let analytical = predict_head_cycles_with(
                            o.config,
                            o.seq_len,
                            o.result.pruning_rate(),
                            saving,
                            1.0,
                            1,
                        );
                        o.result.total_cycles as f64 / analytical as f64
                    })
                    .collect();
                let scale = (ratios.iter().sum::<f64>() / ratios.len() as f64).clamp(0.25, 4.0);
                (pool.label, FamilyFit { saving, scale })
            })
            .collect();
        Self { fits }
    }

    fn fit(&self, family: &str) -> FamilyFit {
        self.fits.iter().find(|(label, _)| label == family).map_or(
            FamilyFit {
                saving: DEFAULT_EARLY_TERMINATION_SAVING,
                scale: 1.0,
            },
            |(_, fit)| *fit,
        )
    }

    /// The early-termination saving used for `family`: the fitted constant
    /// if one exists, the analytical default otherwise.
    pub fn saving(&self, family: &str) -> f64 {
        self.fit(family).saving
    }

    /// The calibration scale used for `family` (`1.0` when unfitted).
    pub fn scale(&self, family: &str) -> f64 {
        self.fit(family).scale
    }

    /// Number of families with a fitted (non-default) entry.
    pub fn fitted_families(&self) -> usize {
        self.fits.len()
    }

    /// Predicts the cycles one attention head of sequence length `seq_len`
    /// of a `family` task needs on `config` with its Q rows partitioned
    /// across `tiles` tiles (the busiest tile's makespan), **without
    /// running the simulator** — pure arithmetic over the tile parameters,
    /// an expected pruning rate, and the family's fitted constants; cheap
    /// enough to call per request on a serving admission path, and the
    /// objective the layer planner ([`crate::schedule::plan_layer`])
    /// places heads by.
    ///
    /// The model mirrors the simulator's timing structure: per Q row the
    /// front-end distributes `seq_len` dot products over the `N_QK` DPUs (a
    /// full dot costs [`TileConfig::full_dot_cycles`]; with early
    /// termination a pruned dot stops after the family's fitted fraction of
    /// its serial steps), the back-end consumes one surviving score per
    /// cycle, and rows pipeline so each costs the maximum of the two
    /// stages; the family's calibration scale then absorbs what the closed
    /// form leaves out. The busiest tile processes `ceil(seq_len / tiles)`
    /// rows, while the pipeline fill/drain term (`min(front-end,
    /// back-end)` row cost) is the **merge overhead**: every tile pays it
    /// once, so it does not divide.
    ///
    /// `pruning_rate` is the expected fraction of scores below the
    /// threshold (clamped to `[0, 1]`); it is ignored by configurations
    /// that do not prune. Predictions are monotonically non-increasing in
    /// `tiles` (the tile count is clamped to the row count, so over-tiling
    /// plateaus instead of paying for idle tiles).
    pub fn predict_head_cycles(
        &self,
        family: &str,
        config: &TileConfig,
        seq_len: usize,
        pruning_rate: f64,
        tiles: usize,
    ) -> u64 {
        let fit = self.fit(family);
        predict_head_cycles_with(config, seq_len, pruning_rate, fit.saving, fit.scale, tiles)
    }
}

/// Fraction of the *remaining* (unpruned) back-end work that each step of
/// the graceful-degradation ladder removes: level `k` keeps
/// `(1 - DEGRADATION_STEP)^k` of the surviving rows. See
/// [`degraded_pruning_rate`].
pub const DEGRADATION_STEP: f64 = 0.5;

/// The effective pruning rate after tightening the early-termination
/// threshold by `level` steps of the graceful-degradation ladder.
///
/// Level 0 is full service (`rate` unchanged). Each further level prunes
/// half ([`DEGRADATION_STEP`]) of the rows that still survived:
/// `1 - (1 - rate) * (1 - DEGRADATION_STEP)^level`. The result is
/// monotone in `level`, approaches (but never reaches) 1, and feeds the
/// same [`CostModel`] prediction paths as the nominal rate — degraded
/// service is *cheaper by the cost model's own arithmetic*, which is what
/// lets the serving replay trade accuracy headroom for predicted cycles
/// deterministically.
pub fn degraded_pruning_rate(rate: f64, level: u32) -> f64 {
    let survival = (1.0 - rate.clamp(0.0, 1.0)) * (1.0 - DEGRADATION_STEP).powi(level as i32);
    (1.0 - survival).clamp(0.0, 1.0)
}

/// Mean fraction of serial steps saved over the pruned dots of a bit
/// profile: a dot that stopped after `b` of `W` magnitude bits saved
/// `1 - b/W`. Returns `None` when the histogram recorded no pruned dot
/// (nothing to fit from).
fn saving_from_pruned_bits(histogram: &[u64]) -> Option<f64> {
    let total: u64 = histogram.iter().sum();
    if total == 0 || histogram.len() < 2 {
        return None;
    }
    let width = (histogram.len() - 1) as f64;
    let weighted: u64 = histogram
        .iter()
        .enumerate()
        .map(|(bits, &count)| bits as u64 * count)
        .sum();
    let mean_bits = weighted as f64 / total as f64;
    Some((1.0 - mean_bits / width).clamp(0.0, 1.0))
}

/// [`CostModel::predict_head_cycles`] with explicit constants — the
/// arithmetic core the predictor and the calibration fit share.
fn predict_head_cycles_with(
    config: &TileConfig,
    seq_len: usize,
    pruning_rate: f64,
    saving: f64,
    scale: f64,
    tiles: usize,
) -> u64 {
    let s = seq_len.max(1) as f64;
    let rate = if config.pruning_enabled {
        pruning_rate.clamp(0.0, 1.0)
    } else {
        0.0
    };
    let full_dot = f64::from(config.full_dot_cycles());
    let dot_cycles = if config.early_termination {
        full_dot * (1.0 - rate * saving.clamp(0.0, 1.0))
    } else {
        full_dot
    };
    let dots_per_dpu = (s / config.n_qk_dpu as f64).ceil();
    let frontend_row = dots_per_dpu * dot_cycles;
    let backend_row = s * (1.0 - rate);
    // Rows divide across tiles (the busiest tile gets the ceiling); rows
    // pipeline within a tile: steady state advances at the slower stage's
    // pace, plus one drain of the faster stage — the drain is the merge
    // overhead, paid per tile rather than divided. Clamping the tile count
    // to the row count keeps the prediction monotone under over-tiling.
    let tile_rows = (s / tiles.max(1).min(seq_len.max(1)) as f64).ceil();
    let cycles = tile_rows * frontend_row.max(backend_row) + frontend_row.min(backend_row);
    ((cycles * scale).round() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_tensor::rng;

    /// The unfitted single-tile prediction.
    fn predict_head_cycles(config: &TileConfig, seq_len: usize, pruning_rate: f64) -> u64 {
        CostModel::analytical().predict_head_cycles("", config, seq_len, pruning_rate, 1)
    }

    fn workload(seed: u64) -> HeadWorkload {
        let mut r = rng::seeded(seed);
        let q = rng::normal_matrix(&mut r, 24, 32, 0.0, 1.0);
        let k = rng::normal_matrix(&mut r, 24, 32, 0.0, 1.0);
        HeadWorkload::from_float(&q, &k, 0.2, 12)
    }

    #[test]
    fn cost_matches_underlying_simulation() {
        let w = workload(1);
        let cfg = TileConfig::ae_leopard();
        let model = EnergyModel::calibrated();
        let sim = simulate_head(&w, &cfg);
        let cost = head_cost(&w, &cfg, &model);
        assert_eq!(cost.cycles, sim.total_cycles);
        assert_eq!(cost.energy, energy_from_events(&sim.events, &cfg, &model));
        assert!((cost.pruning_rate - sim.pruning_rate()).abs() < 1e-12);
    }

    #[test]
    fn latency_follows_clock_frequency() {
        let w = workload(2);
        let model = EnergyModel::calibrated();
        let cfg = TileConfig::ae_leopard();
        let cost = head_cost(&w, &cfg, &model);
        let expected = cost.cycles as f64 / cfg.frequency_mhz as f64;
        assert!((cost.latency_us - expected).abs() < 1e-12);
        assert!(cost.latency_us > 0.0);
    }

    #[test]
    fn prediction_tracks_sequence_length_superlinearly() {
        let cfg = TileConfig::ae_leopard();
        let short = predict_head_cycles(&cfg, 24, 0.5);
        let long = predict_head_cycles(&cfg, 96, 0.5);
        // Cycles scale with s^2; quadrupling s must far more than quadruple.
        assert!(long > short * 8, "short {short}, long {long}");
    }

    #[test]
    fn prediction_decreases_with_pruning_on_leopard_but_not_baseline() {
        let ae = TileConfig::ae_leopard();
        assert!(predict_head_cycles(&ae, 64, 0.9) < predict_head_cycles(&ae, 64, 0.1));
        let base = TileConfig::baseline();
        assert_eq!(
            predict_head_cycles(&base, 64, 0.9),
            predict_head_cycles(&base, 64, 0.1),
            "the unpruned baseline ignores the expected pruning rate"
        );
    }

    #[test]
    fn prediction_orders_workloads_like_the_simulator() {
        let cfg = TileConfig::ae_leopard();
        let model = EnergyModel::calibrated();
        let sized = |s: usize| {
            let mut r = rng::seeded(11);
            let q = rng::normal_matrix(&mut r, s, 32, 0.0, 1.0);
            let k = rng::normal_matrix(&mut r, s, 32, 0.0, 1.0);
            let w = HeadWorkload::from_float(&q, &k, 0.1, 12);
            head_cost(&w, &cfg, &model).cycles
        };
        let (small, big) = (sized(16), sized(64));
        let (p_small, p_big) = (
            predict_head_cycles(&cfg, 16, 0.5),
            predict_head_cycles(&cfg, 64, 0.5),
        );
        assert!(small < big);
        assert!(p_small < p_big, "prediction must preserve the ordering");
        // The prediction is a model, not the simulator — but it should land
        // within a small constant factor of the measured cycles.
        for (predicted, actual) in [(p_small, small), (p_big, big)] {
            let ratio = predicted as f64 / actual as f64;
            assert!(
                (0.3..=3.0).contains(&ratio),
                "predicted {predicted} vs actual {actual}"
            );
        }
    }

    #[test]
    fn degenerate_prediction_inputs_clamp_instead_of_panicking() {
        let cfg = TileConfig::hp_leopard();
        let model = CostModel::analytical();
        assert!(predict_head_cycles(&cfg, 0, 2.0) >= 1);
        // Zero tiles reads as one; tiles past the row count plateau.
        let one = model.predict_head_cycles("", &cfg, 48, 0.6, 1);
        assert_eq!(model.predict_head_cycles("", &cfg, 48, 0.6, 0), one);
        assert_eq!(
            model.predict_head_cycles("", &cfg, 48, 0.6, 64),
            model.predict_head_cycles("", &cfg, 48, 0.6, 48)
        );
    }

    fn observe<'a>(
        family: &'a str,
        result: &'a HeadSimResult,
        config: &'a TileConfig,
    ) -> FitObservation<'a> {
        FitObservation {
            family,
            result,
            config,
            seq_len: 24,
        }
    }

    #[test]
    fn fitted_model_reads_savings_off_the_bit_profile() {
        let cfg = TileConfig::ae_leopard();
        let heavy = simulate_head(&workload(4), &cfg);
        assert!(
            heavy.pruned_scores > 0,
            "fixture must prune something to fit from"
        );
        let model = CostModel::fit_from_results([observe("MemN2N", &heavy, &cfg)]);
        assert_eq!(model.fitted_families(), 1);
        // The fitted saving equals 1 - mean pruned bits / magnitude width.
        let total: u64 = heavy.pruned_bits_histogram.iter().sum();
        let weighted: u64 = heavy
            .pruned_bits_histogram
            .iter()
            .enumerate()
            .map(|(bits, &count)| bits as u64 * count)
            .sum();
        let width = (heavy.pruned_bits_histogram.len() - 1) as f64;
        let expected = 1.0 - (weighted as f64 / total as f64) / width;
        assert!((model.saving("MemN2N") - expected).abs() < 1e-12);
        // The calibration scale centers the prediction on the measured
        // cycles at the calibration point.
        let predicted = model.predict_head_cycles("MemN2N", &cfg, 24, heavy.pruning_rate(), 1);
        let ratio = predicted as f64 / heavy.total_cycles as f64;
        assert!(
            (0.99..=1.01).contains(&ratio),
            "calibrated prediction {predicted} vs measured {}",
            heavy.total_cycles
        );
        // Unfitted families fall back to the analytical default.
        assert_eq!(
            model.saving("ViT-B"),
            DEFAULT_EARLY_TERMINATION_SAVING,
            "unknown family must use the default saving"
        );
        assert_eq!(model.scale("ViT-B"), 1.0);
        assert_eq!(CostModel::analytical().fitted_families(), 0);
    }

    #[test]
    fn pooled_fits_average_multiple_results_per_family() {
        let cfg = TileConfig::ae_leopard();
        let a = simulate_head(&workload(5), &cfg);
        let b = simulate_head(&workload(6), &cfg);
        let pooled =
            CostModel::fit_from_results([observe("BERT-B", &a, &cfg), observe("BERT-B", &b, &cfg)]);
        assert_eq!(pooled.fitted_families(), 1);
        let only_a = CostModel::fit_from_results([observe("BERT-B", &a, &cfg)]);
        let only_b = CostModel::fit_from_results([observe("BERT-B", &b, &cfg)]);
        let (lo, hi) = if only_a.saving("BERT-B") <= only_b.saving("BERT-B") {
            (only_a.saving("BERT-B"), only_b.saving("BERT-B"))
        } else {
            (only_b.saving("BERT-B"), only_a.saving("BERT-B"))
        };
        let s = pooled.saving("BERT-B");
        assert!(
            (lo..=hi).contains(&s),
            "pooled saving {s} outside [{lo}, {hi}]"
        );
    }

    #[test]
    fn higher_saving_predicts_fewer_cycles_on_pruning_tiles_only() {
        let cfg = TileConfig::ae_leopard();
        let result = HeadSimResult {
            // All pruned dots stopped after 1 of 11 magnitude bits.
            pruned_bits_histogram: {
                let mut h = vec![0u64; 12];
                h[1] = 100;
                h
            },
            ..simulate_head(&workload(7), &cfg)
        };
        let quick = CostModel::fit_from_results([observe("fast", &result, &cfg)]);
        assert!(quick.saving("fast") > 0.9);
        // Compare at unit scale so only the saving differs.
        let saving_only = CostModel {
            fits: vec![(
                "fast".to_string(),
                FamilyFit {
                    saving: quick.saving("fast"),
                    scale: 1.0,
                },
            )],
        };
        let ae = TileConfig::ae_leopard();
        assert!(
            saving_only.predict_head_cycles("fast", &ae, 64, 0.8, 1)
                < CostModel::analytical().predict_head_cycles("fast", &ae, 64, 0.8, 1)
        );
        // The unpruned baseline ignores the saving entirely.
        let base = TileConfig::baseline();
        assert_eq!(
            saving_only.predict_head_cycles("fast", &base, 64, 0.8, 1),
            CostModel::analytical().predict_head_cycles("fast", &base, 64, 0.8, 1)
        );
    }

    #[test]
    fn empty_bit_profiles_fall_back_to_the_default_saving() {
        let cfg = TileConfig::ae_leopard();
        let mut result = simulate_head(&workload(8), &cfg);
        result.pruned_bits_histogram = vec![0; 12];
        let model = CostModel::fit_from_results([observe("GPT-2-L", &result, &cfg)]);
        // The family is still calibrated (scale) but keeps the default
        // saving — there was no pruned dot to read a saving from.
        assert_eq!(model.fitted_families(), 1);
        assert_eq!(model.saving("GPT-2-L"), DEFAULT_EARLY_TERMINATION_SAVING);
        assert!(model.scale("GPT-2-L") > 0.0);
    }

    #[test]
    fn pruned_workload_costs_less_than_baseline() {
        let w = workload(3);
        let model = EnergyModel::calibrated();
        let base = head_cost(&w, &TileConfig::baseline(), &model);
        let ae = head_cost(&w, &TileConfig::ae_leopard(), &model);
        assert!(ae.cycles < base.cycles);
        assert!(ae.energy_total() < base.energy_total());
    }

    #[test]
    fn degradation_ladder_is_monotone_and_cheapens_predictions() {
        // Level 0 is identity; each level halves the surviving rows.
        assert_eq!(degraded_pruning_rate(0.4, 0), 0.4);
        assert!((degraded_pruning_rate(0.4, 1) - 0.7).abs() < 1e-12);
        assert!((degraded_pruning_rate(0.4, 2) - 0.85).abs() < 1e-12);
        assert_eq!(degraded_pruning_rate(1.0, 3), 1.0);
        let mut previous = degraded_pruning_rate(0.2, 0);
        for level in 1..8 {
            let rate = degraded_pruning_rate(0.2, level);
            assert!(rate > previous && rate < 1.0, "monotone, never saturating");
            previous = rate;
        }
        // The tightened rate flows through the cost model as fewer cycles.
        let cfg = TileConfig::ae_leopard();
        let model = CostModel::analytical();
        let full = model.predict_head_cycles("x", &cfg, 96, 0.4, 1);
        let degraded = model.predict_head_cycles("x", &cfg, 96, degraded_pruning_rate(0.4, 1), 1);
        assert!(
            degraded < full,
            "degraded prediction {degraded} must undercut full-service {full}"
        );
    }
}
