//! Tile-conformance spine: differential tests pinning the tile-partitioned
//! execution path to the single-tile reference simulator.
//!
//! The contract under test (see `leopard_accel::schedule`):
//!
//! * **Bit-identity** — a one-head `LayerPlan` split across `tiles` tiles
//!   reassembles (`LayerPlan::execute`) to a merged result that equals
//!   `simulate_head_reference(w, cfg)` exactly (every field: cycles,
//!   stalls, utilization, histograms, events) for *any* tile count,
//!   including tile counts that do not divide the sequence length and tile
//!   counts exceeding it.
//! * **Merge semantics** — per-tile cycles merge as `max` (the makespan),
//!   counters and histograms as sums; empty shards are identities.
//!
//! The property tests use `ProptestConfig::default()`, so CI's
//! `PROPTEST_CASES`-bumped job widens their coverage without code changes.
#![allow(clippy::expect_used, reason = "test code may panic")]

use leopard_accel::config::TileConfig;
use leopard_accel::energy::EnergyModel;
use leopard_accel::kernel_v2::KernelPath;
use leopard_accel::schedule::{schedule_layer, Placement, TilePartition, TiledHeadSim};
use leopard_accel::sim::{
    simulate_head, simulate_head_reference, simulate_head_shard_reference, simulate_rows,
    HeadWorkload, TileShardSim,
};
use proptest::prelude::*;

mod common;
use common::{presets, workload_from_pairs};

/// One configuration's kernel shard over `rows`.
fn kernel_shard(
    w: &HeadWorkload,
    config: &TileConfig,
    rows: std::ops::Range<usize>,
) -> TileShardSim {
    simulate_rows(w, &[*config], rows, KernelPath::detect()).swap_remove(0)
}

/// One head split across `tiles` tiles in tile order: the one-head layer
/// plan, executed by `LayerPlan::execute`.
fn tiled(w: &HeadWorkload, config: &TileConfig, tiles: usize) -> TiledHeadSim {
    let config = TileConfig { tiles, ..*config };
    let heads = std::slice::from_ref(w);
    let schedule = schedule_layer(heads, &config, &EnergyModel::calibrated(), Placement::Lpt);
    schedule.heads.into_iter().next().expect("one head")
}

proptest! {
    /// The headline differential property: tile-partitioned execution is
    /// bit-identical to the single-tile reference for every preset, every
    /// bit-serial granularity 1..=4, and tile counts 1..=8 — including
    /// sequence lengths not divisible by the tile count.
    #[test]
    fn prop_tiled_simulation_is_bit_identical_to_reference(
        pairs in proptest::collection::vec((-2046i32..=2046, -2046i32..=2046), 1..40),
        threshold in -200_000i64..200_000,
        bits_per_cycle in 1u32..=4,
        preset in 0u32..4,
        tiles in 1usize..=8,
    ) {
        let workload = workload_from_pairs(&pairs, threshold, 8);
        let base = presets()[preset as usize];
        for config in [base, base.with_serial_bits(bits_per_cycle)] {
            let reference = simulate_head_reference(&workload, &config);
            let tiled = tiled(&workload, &config, tiles);
            prop_assert_eq!(
                &tiled.merged, &reference,
                "tiles={} diverged on {} (s={})", tiles, config.name, pairs.len()
            );
            // The kernel whole-head path agrees as well (kernel contract).
            prop_assert_eq!(&simulate_head(&workload, &config), &reference);
            // Makespan semantics: the max over per-tile cycles, never more
            // than the single-tile total nor less than its per-tile share.
            let max_tile = tiled.tile_cycles.iter().copied().max().unwrap_or(0).max(1);
            prop_assert_eq!(tiled.makespan_cycles(), max_tile);
            prop_assert!(tiled.makespan_cycles() <= reference.total_cycles);
            prop_assert!(tiled.makespan_cycles() >= reference.total_cycles / tiles as u64);
        }
    }

    /// Shard-granular differential property: the kernel shard path equals
    /// the reference shard path on arbitrary sub-ranges, so the engine's
    /// shard jobs are interchangeable between inner loops.
    #[test]
    fn prop_kernel_shards_equal_reference_shards(
        pairs in proptest::collection::vec((-2046i32..=2046, -2046i32..=2046), 2..32),
        threshold in -100_000i64..100_000,
        preset in 0u32..4,
        cut in 0u64..=1_000,
    ) {
        let workload = workload_from_pairs(&pairs, threshold, 6);
        let s = workload.seq_len();
        let split = (cut as usize * s) / 1_001; // any boundary in 0..s
        let config = presets()[preset as usize];
        for rows in [0..split, split..s, 0..s] {
            prop_assert_eq!(
                kernel_shard(&workload, &config, rows.clone()),
                simulate_head_shard_reference(&workload, &config, rows)
            );
        }
    }
}

/// The explicit matrix the issue pins down: all 4 presets × tiles ∈
/// {1, 2, 3, 4, 8} × bits_per_cycle 1..=4, on a sequence length (23) that
/// none of the non-trivial tile counts divide.
#[test]
fn preset_by_tiles_by_granularity_matrix_is_bit_identical() {
    let mut r = leopard_tensor::rng::seeded(0x711E5);
    let q = leopard_tensor::rng::normal_matrix(&mut r, 23, 64, 0.0, 1.0);
    let k = leopard_tensor::rng::normal_matrix(&mut r, 23, 64, 0.0, 1.0);
    let workload = HeadWorkload::from_float(&q, &k, 0.25, 12);
    for base in presets() {
        for bits_per_cycle in 1..=4u32 {
            let config = base.with_serial_bits(bits_per_cycle);
            let reference = simulate_head_reference(&workload, &config);
            for tiles in [1usize, 2, 3, 4, 8] {
                assert_eq!(
                    tiled(&workload, &config, tiles).merged,
                    reference,
                    "{} / B={bits_per_cycle} / tiles={tiles}",
                    config.name
                );
            }
        }
    }
}

/// Merge-semantics unit matrix: cycles = max over tiles, counters = sum.
#[test]
fn merge_matrix_max_cycles_and_summed_counters() {
    let mut r = leopard_tensor::rng::seeded(0x711E6);
    let q = leopard_tensor::rng::normal_matrix(&mut r, 21, 32, 0.0, 1.0);
    let k = leopard_tensor::rng::normal_matrix(&mut r, 21, 32, 0.0, 1.0);
    let workload = HeadWorkload::from_float(&q, &k, 0.2, 12);
    let config = TileConfig::ae_leopard();
    for tiles in [1usize, 2, 3, 4, 8] {
        let partition = TilePartition::new(workload.seq_len(), tiles);
        let shards: Vec<_> = partition
            .ranges()
            .into_iter()
            .map(|rows| kernel_shard(&workload, &config, rows))
            .collect();
        let tiled = tiled(&workload, &config, tiles);

        // cycles = max over the per-tile standalone cycles.
        assert_eq!(
            tiled.makespan_cycles(),
            shards
                .iter()
                .map(|s| s.standalone_cycles())
                .max()
                .unwrap()
                .max(1)
        );
        // counters = sum over tiles.
        assert_eq!(
            tiled.merged.pruned_scores,
            shards.iter().map(|s| s.pruned_scores).sum::<u64>()
        );
        assert_eq!(
            tiled.merged.surviving_scores,
            shards.iter().map(|s| s.surviving_scores).sum::<u64>()
        );
        assert_eq!(
            tiled.merged.events.qk_dpu_cycles,
            shards.iter().map(|s| s.events.qk_dpu_cycles).sum::<u64>()
        );
        assert_eq!(
            tiled.merged.events.softmax_ops,
            shards.iter().map(|s| s.events.softmax_ops).sum::<u64>()
        );
        for bit in 0..tiled.merged.bits_histogram.len() {
            assert_eq!(
                tiled.merged.bits_histogram[bit],
                shards.iter().map(|s| s.bits_histogram[bit]).sum::<u64>()
            );
        }
        // Busy totals are sums too (they are per-row quantities).
        assert_eq!(
            tiled.merged.frontend_busy_cycles,
            shards.iter().map(|s| s.frontend_busy_cycles).sum::<u64>()
        );
        assert_eq!(
            tiled.merged.backend_busy_cycles,
            shards.iter().map(|s| s.backend_busy_cycles).sum::<u64>()
        );
    }
}

/// Empty-shard edge: more tiles than rows leaves trailing tiles empty with
/// zero cycles, and the merge is still bit-identical to the reference.
#[test]
fn merge_matrix_empty_shard_edge() {
    let mut r = leopard_tensor::rng::seeded(0x711E7);
    let q = leopard_tensor::rng::normal_matrix(&mut r, 3, 16, 0.0, 1.0);
    let k = leopard_tensor::rng::normal_matrix(&mut r, 3, 16, 0.0, 1.0);
    let workload = HeadWorkload::from_float(&q, &k, 0.1, 12);
    let config = TileConfig {
        tiles: 8,
        ..TileConfig::ae_leopard()
    };
    let tiled = tiled(&workload, &config, 8);
    assert_eq!(tiled.tile_cycles.len(), 8);
    assert_eq!(
        tiled.tile_cycles.iter().filter(|&&c| c == 0).count(),
        5,
        "five of eight tiles have no rows"
    );
    assert_eq!(tiled.merged, simulate_head_reference(&workload, &config));
    // The balance the tiled sweep prints counts the idle tiles too.
    let model = EnergyModel::calibrated();
    let schedule = schedule_layer(&[workload], &config, &model, Placement::Lpt);
    assert_eq!(schedule.tile_cycles, tiled.tile_cycles);
    assert!(
        schedule.balance() < 0.5,
        "over-tiling must read as imbalance"
    );
}
