//! Fused-sweep spine: differential tests pinning the fused multi-config
//! shard simulation to the scalar per-config reference.
//!
//! The contract under test (see `leopard_accel::sim::simulate_rows`):
//! for any set of tile configurations and any contiguous row range, the
//! shard the fused pass folds for each configuration is **bit-identical**
//! to `simulate_head_shard_reference` on that configuration alone — every
//! counter, histogram and pipeline boundary term. The sets mix
//! early-terminating configurations (which share one sweep per bit-serial
//! plan) with ones that run every dot product to completion (which borrow
//! a sweep's pruning decision) and the unpruned baseline (which reads no
//! sweep), across `N_QK`, reveal granularities and operand widths.
//!
//! The property tests use `ProptestConfig::default()`, so CI's
//! `PROPTEST_CASES`-bumped job widens their coverage without code changes.

use leopard_accel::config::TileConfig;
use leopard_accel::kernel_v2::KernelPath;
use leopard_accel::sim::{
    merge_shards, simulate_head_reference, simulate_head_shard_reference, simulate_rows,
    HeadWorkload, TileShardSim,
};
use proptest::prelude::*;

/// The configuration pool a set is drawn from, for a workload quantized to
/// `qk_bits`: the four presets, `with_n_qk(1..=12)`, `with_serial_bits(1..=12)`
/// with and without early termination, and `with_qk_bits` from the
/// workload's width up to 16.
fn pool(qk_bits: u32) -> Vec<TileConfig> {
    let mut configs = vec![
        TileConfig::baseline(),
        TileConfig::ae_leopard(),
        TileConfig::hp_leopard(),
        TileConfig::pruning_only(),
    ];
    configs.extend((1..=12).map(|n| TileConfig::ae_leopard().with_n_qk(n)));
    for bits in 1..=12 {
        configs.push(TileConfig::ae_leopard().with_serial_bits(bits));
        configs.push(TileConfig::pruning_only().with_serial_bits(bits));
    }
    for bits in qk_bits.max(4)..=16 {
        configs.push(TileConfig::baseline().with_qk_bits(bits));
        configs.push(TileConfig::ae_leopard().with_qk_bits(bits));
        configs.push(TileConfig::pruning_only().with_qk_bits(bits));
        configs.push(
            TileConfig::hp_leopard()
                .with_qk_bits(bits)
                .with_serial_bits(1),
        );
    }
    configs
}

/// A deterministic `s x d` workload whose codes fit `qk_bits`, with the
/// threshold at `threshold_permille` of the largest possible |score| / 4.
fn workload(s: usize, d: usize, qk_bits: u32, threshold_permille: i64, seed: i32) -> HeadWorkload {
    let max_code = (1i32 << (qk_bits - 1)) - 1;
    let code = |r: usize, c: usize, salt: i32| -> i32 {
        (r as i32 * 131 + c as i32 * 37 + salt)
            .wrapping_mul(2_654_435_761u32 as i32)
            .wrapping_add(seed)
            % (max_code + 1)
    };
    let q_codes: Vec<Vec<i32>> = (0..s)
        .map(|r| (0..d).map(|c| code(r, c, 17)).collect())
        .collect();
    let k_codes: Vec<Vec<i32>> = (0..s)
        .map(|r| (0..d).map(|c| code(r, c, 29)).collect())
        .collect();
    let max_score = d as i64 * i64::from(max_code) * i64::from(max_code);
    let threshold = threshold_permille * max_score / 4_000;
    HeadWorkload::from_codes(q_codes, k_codes, threshold, d, qk_bits)
}

/// Contiguous row ranges covering `0..s`, cut at the given per-mille points.
fn row_splits(s: usize, cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c * s / 1_000).collect();
    bounds.push(0);
    bounds.push(s);
    bounds.sort_unstable();
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

proptest! {
    /// The headline fused property: for random configuration sets and
    /// random contiguous row splits, every per-config shard of the fused
    /// pass equals the scalar reference shard for that configuration, on
    /// both dispatch paths, and the shards join back into the whole head.
    #[test]
    fn prop_fused_shards_equal_per_config_reference_shards(
        s in 1usize..48,
        d in 1usize..20,
        qk_bits in 4u32..=12,
        threshold_permille in -1_000i64..1_000,
        picks in collection::vec(0usize..1_000, 1..7),
        cuts in collection::vec(0usize..=1_000, 0..4),
        wide in 0u32..2,
        seed in 0i32..1_000,
    ) {
        let w = workload(s, d, qk_bits, threshold_permille, seed);
        let pool = pool(qk_bits);
        let configs: Vec<TileConfig> = picks.iter().map(|&i| pool[i % pool.len()]).collect();
        let path = if wide == 1 { KernelPath::Wide } else { KernelPath::Portable };
        let mut joined: Vec<Option<TileShardSim>> = vec![None; configs.len()];
        for rows in row_splits(s, &cuts) {
            let fused = simulate_rows(&w, &configs, rows.clone(), path);
            prop_assert_eq!(fused.len(), configs.len());
            for ((config, shard), whole) in configs.iter().zip(&fused).zip(&mut joined) {
                prop_assert_eq!(
                    shard,
                    &simulate_head_shard_reference(&w, config, rows.clone()),
                    "{} (n_qk {}, B {}, qk {}) diverged on rows {:?}",
                    config.name, config.n_qk_dpu, config.serial_bits, config.k_bits, rows
                );
                *whole = Some(match whole.take() {
                    Some(head) => head.join(shard),
                    None => shard.clone(),
                });
            }
        }
        // Joining the split's shards in row order gives the whole-head shard.
        for (config, whole) in configs.iter().zip(joined) {
            prop_assert_eq!(whole, Some(simulate_head_shard_reference(&w, config, 0..s)));
        }
    }
}

#[test]
fn fused_presets_match_the_reference_and_join_across_splits() {
    // The suite's four units on a float workload: fused shards joined
    // across an uneven split merge back to the reference results.
    let mut r = leopard_tensor::rng::seeded(0xF05E);
    let q = leopard_tensor::rng::normal_matrix(&mut r, 37, 64, 0.0, 1.0);
    let k = leopard_tensor::rng::normal_matrix(&mut r, 37, 64, 0.0, 1.0);
    let w = HeadWorkload::from_float(&q, &k, 0.3, 12);
    let presets = [
        TileConfig::baseline(),
        TileConfig::ae_leopard(),
        TileConfig::hp_leopard(),
        TileConfig::pruning_only(),
    ];
    let low = simulate_rows(&w, &presets, 0..13, KernelPath::detect());
    let high = simulate_rows(&w, &presets, 13..37, KernelPath::detect());
    for (i, config) in presets.iter().enumerate() {
        let reference = simulate_head_reference(&w, config);
        assert_eq!(
            merge_shards(&[low[i].join(&high[i])]),
            reference,
            "{}",
            config.name
        );
        assert_eq!(merge_shards(&[low[i].clone(), high[i].clone()]), reference);
    }
}
