//! Property tests for the fitted cost model (`leopard_accel::cost`):
//! fitting is deterministic, the calibration scale always lands in its
//! documented clamp, and tile-aware predictions are monotonically
//! non-increasing in the tile count.

use leopard_accel::config::TileConfig;
use leopard_accel::cost::{CostModel, FitObservation};
use leopard_accel::sim::{simulate_head, HeadSimResult, HeadWorkload};
use leopard_tensor::rng;
use proptest::prelude::*;

mod common;
use common::presets;

/// A small pool of measured results to draw observations from, built once
/// per process (the properties only permute and rescale them, so sharing
/// is safe and keeps the `PROPTEST_CASES`-bumped CI job fast).
fn measured_pool() -> &'static Vec<(HeadSimResult, TileConfig, usize)> {
    static POOL: std::sync::OnceLock<Vec<(HeadSimResult, TileConfig, usize)>> =
        std::sync::OnceLock::new();
    POOL.get_or_init(|| {
        let mut pool = Vec::new();
        for (seed, s, threshold) in [(1u64, 24usize, 0.3f32), (2, 16, 0.0), (3, 32, 0.6)] {
            let mut r = rng::seeded(seed);
            let q = rng::normal_matrix(&mut r, s, 32, 0.0, 1.0);
            let k = rng::normal_matrix(&mut r, s, 32, 0.0, 1.0);
            let w = HeadWorkload::from_float(&q, &k, threshold, 12);
            let cfg = TileConfig::ae_leopard();
            pool.push((simulate_head(&w, &cfg), cfg, s));
        }
        pool
    })
}

const FAMILIES: [&str; 3] = ["MemN2N", "BERT-B", "ViT-B"];

proptest! {
    /// Fitting the same observations (any content, any assignment of
    /// results to families) twice yields identical models, and permuting
    /// the observation order never changes any family's fitted constants.
    #[test]
    fn prop_fit_is_deterministic_and_order_insensitive(
        assignment in proptest::collection::vec((0usize..3, 0usize..3), 1..8),
        rotation in 0usize..8,
    ) {
        let pool = measured_pool();
        let observations: Vec<FitObservation<'_>> = assignment
            .iter()
            .map(|&(family, result)| FitObservation {
                family: FAMILIES[family],
                result: &pool[result].0,
                config: &pool[result].1,
                seq_len: pool[result].2,
            })
            .collect();
        let fitted = CostModel::fit_from_results(observations.iter().copied());
        let again = CostModel::fit_from_results(observations.iter().copied());
        prop_assert_eq!(&fitted, &again, "same observations, same model");

        // A rotated observation order changes pooling order only, never
        // the per-family constants (pooling is content-based).
        let k = rotation % observations.len();
        let rotated: Vec<_> = observations[k..]
            .iter()
            .chain(&observations[..k])
            .copied()
            .collect();
        let refit = CostModel::fit_from_results(rotated);
        for family in FAMILIES {
            prop_assert!(
                (fitted.saving(family) - refit.saving(family)).abs() < 1e-15,
                "saving for {} moved under permutation", family
            );
            prop_assert!(
                (fitted.scale(family) - refit.scale(family)).abs() < 1e-15,
                "scale for {} moved under permutation", family
            );
        }
    }

    /// The calibration scale always lands in its documented 0.25..4 clamp,
    /// even for degenerate calibration workloads whose measured cycles are
    /// scaled far away from the analytical prediction.
    #[test]
    fn prop_calibration_scale_respects_its_clamp(
        cycle_scale in 0.0001f64..10_000.0,
        result_index in 0usize..3,
    ) {
        let pool = measured_pool();
        let (base, cfg, seq_len) = &pool[result_index];
        let distorted = HeadSimResult {
            total_cycles: ((base.total_cycles as f64 * cycle_scale) as u64).max(1),
            ..base.clone()
        };
        let model = CostModel::fit_from_results([FitObservation {
            family: "GPT-2-L",
            result: &distorted,
            config: cfg,
            seq_len: *seq_len,
        }]);
        let scale = model.scale("GPT-2-L");
        prop_assert!(
            (0.25..=4.0).contains(&scale),
            "scale {} escaped the documented clamp", scale
        );
    }

    /// Predictions are monotonically non-increasing in the tile count, for
    /// every preset, fitted or not.
    #[test]
    fn prop_tiled_predictions_never_increase_with_tiles(
        seq_len in 1usize..300,
        pruning_rate in 0.0f64..1.0,
        preset in 0u32..4,
        fit_family in 0usize..3,
    ) {
        let pool = measured_pool();
        let fitted = CostModel::fit_from_results([FitObservation {
            family: FAMILIES[fit_family],
            result: &pool[0].0,
            config: &pool[0].1,
            seq_len: pool[0].2,
        }]);
        let analytical = CostModel::analytical();
        let config = presets()[preset as usize];
        for (model, family) in [(&fitted, "MemN2N"), (&fitted, "unfitted"), (&analytical, "")] {
            let mut previous = u64::MAX;
            for tiles in 1usize..=9 {
                let predicted =
                    model.predict_head_cycles(family, &config, seq_len, pruning_rate, tiles);
                prop_assert!(
                    predicted <= previous,
                    "prediction rose from {} to {} at tiles={} ({}, s={})",
                    previous, predicted, tiles, config.name, seq_len
                );
                prop_assert!(predicted >= 1);
                previous = predicted;
            }
        }
    }
}

/// Deterministic Fisher–Yates driven by a splitmix-style LCG, so shuffle
/// invariance is testable from one proptest-supplied seed.
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (seed >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// A shared pool of distinct small head workloads for the placement
/// properties (built once; the properties only subset and permute it).
fn head_pool() -> &'static Vec<leopard_accel::sim::HeadWorkload> {
    static POOL: std::sync::OnceLock<Vec<leopard_accel::sim::HeadWorkload>> =
        std::sync::OnceLock::new();
    POOL.get_or_init(|| {
        (0..8usize)
            .map(|h| {
                let s = 6 + h * 5; // ragged lengths: 6, 11, ..., 41
                let mut r = rng::seeded(0xBEEF + h as u64);
                let q = rng::normal_matrix(&mut r, s, 16, 0.0, 1.0);
                let k = rng::normal_matrix(&mut r, s, 16, 0.0, 1.0);
                leopard_accel::sim::HeadWorkload::from_float(&q, &k, 0.25, 12)
            })
            .collect()
    })
}

/// A synthetic per-shard cost: quadratic work split across tiles plus a
/// per-shard overhead. Any positive predictor exercises the plan-level
/// guarantees; the overhead keeps over-splitting from being free.
fn synthetic_predict(overhead: u64) -> impl Fn(usize, usize) -> u64 {
    move |seq_len, split| {
        let work = (seq_len * seq_len * 24) as u64;
        work.div_ceil(split as u64) + overhead
    }
}

proptest! {
    /// `plan_layer` is deterministic, and greedy LPT never *predicts* a
    /// longer makespan than round-robin on any instance — the portfolio
    /// fallback makes this a construction guarantee, not a heuristic.
    #[test]
    fn prop_lpt_never_predicts_worse_than_round_robin(
        lens in proptest::collection::vec(1usize..300, 1..17),
        tiles in 1usize..=8,
        overhead in 0u64..5_000,
    ) {
        use leopard_accel::schedule::{plan_layer, Placement, PlannedHead};
        let heads: Vec<PlannedHead> = lens
            .iter()
            .enumerate()
            .map(|(h, &s)| PlannedHead { seq_len: s, tie_break: h as u64 })
            .collect();
        let predict = synthetic_predict(overhead);
        let lpt = plan_layer(&heads, tiles, Placement::Lpt, &predict);
        let rr = plan_layer(&heads, tiles, Placement::RoundRobin, &predict);
        prop_assert!(
            lpt.predicted_makespan_cycles() <= rr.predicted_makespan_cycles(),
            "LPT predicted {} > RR predicted {} (lens={:?}, tiles={})",
            lpt.predicted_makespan_cycles(), rr.predicted_makespan_cycles(), lens, tiles
        );
        // Determinism: planning the same instance twice is bit-identical.
        for placement in Placement::ALL {
            let once = plan_layer(&heads, tiles, placement, &predict);
            let again = plan_layer(&heads, tiles, placement, &predict);
            prop_assert_eq!(once, again);
        }
    }

    /// `schedule_layer` placement is invariant to head enumeration order:
    /// shuffling the input heads permutes per-head results but leaves the
    /// per-tile busy vector, makespan, energy, and pruning rate
    /// bit-identical (the plan sorts heads into a canonical content order
    /// before placing anything).
    #[test]
    fn prop_schedule_layer_is_invariant_to_head_enumeration_order(
        count in 2usize..=8,
        shuffle_seed in 0u64..1_000_000_000,
        placement_index in 0usize..3,
        tiles in 1usize..=8,
    ) {
        use leopard_accel::schedule::{schedule_layer, Placement};
        use leopard_accel::energy::EnergyModel;
        let placement = Placement::ALL[placement_index];
        let pool = head_pool();
        let heads: Vec<_> = pool[..count].to_vec();
        let order = permutation(count, shuffle_seed);
        let shuffled: Vec<_> = order.iter().map(|&i| heads[i].clone()).collect();

        let mut config = TileConfig::ae_leopard();
        config.tiles = tiles;
        let model = EnergyModel::calibrated();
        let base = schedule_layer(&heads, &config, &model, placement);
        let perm = schedule_layer(&shuffled, &config, &model, placement);

        // The executed layout is identical tile for tile...
        prop_assert_eq!(&base.tile_cycles, &perm.tile_cycles);
        prop_assert_eq!(base.makespan_cycles, perm.makespan_cycles);
        prop_assert_eq!(
            base.predicted_makespan_cycles,
            perm.predicted_makespan_cycles
        );
        // ...aggregates are bit-identical (canonical fold order)...
        prop_assert_eq!(base.energy.total().to_bits(), perm.energy.total().to_bits());
        prop_assert_eq!(base.pruning_rate.to_bits(), perm.pruning_rate.to_bits());
        // ...and per-head results follow the heads, wherever they moved.
        for (position, &source) in order.iter().enumerate() {
            prop_assert_eq!(&perm.heads[position].merged, &base.heads[source].merged);
            prop_assert_eq!(perm.splits[position], base.splits[source]);
        }
    }
}
