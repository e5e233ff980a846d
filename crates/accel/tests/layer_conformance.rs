//! Layer-conformance spine: differential tests pinning layer-scheduled
//! execution to the per-head merged baseline, for **every** placement
//! policy, tile count, and head mix.
//!
//! The contract under test (see `leopard_accel::schedule`):
//!
//! * **Bit-identity** — `schedule_layer(heads, cfg, model, policy)`
//!   reassembles every head through `merge_shards`, so
//!   `schedule.heads[h].merged` equals single-tile execution of head `h`
//!   exactly (every field), for any policy × tiles 1..=8 × heads 1..=16 ×
//!   random sequence lengths — including degenerate single-head layers and
//!   over-tiled layers (more tiles than heads).
//! * **Policy independence** — energy and pruning fold in a canonical
//!   content order shared by every policy, so they are *bit*-identical
//!   across placements. Only the makespan (and the per-tile busy vector
//!   and shard layout behind it) may differ between policies.
//! * **Accounting** — per-tile busy cycles conserve shard cycles exactly:
//!   the tile vector sums to the sum of every head's shard cycles, and
//!   the makespan is its maximum.
//! * **One decomposition** — `LayerPlan::blocks` covers every head's rows
//!   exactly once, shard by shard in ascending row order, in blocks of at
//!   most `BLOCK_PAIRS + seq_len` score pairs, and a multi-configuration
//!   `LayerPlan::execute` reassembles each head to single-tile execution
//!   under every configuration — for tiles 1..=64 and every placement.
//!
//! The property tests use `ProptestConfig::default()`, so CI's
//! `PROPTEST_CASES`-bumped job widens their coverage without code changes.

use leopard_accel::config::TileConfig;
use leopard_accel::energy::{EnergyBreakdown, EnergyModel};
use leopard_accel::schedule::{
    plan_layer, schedule_layer, LayerPlan, LayerSchedule, Placement, PlannedHead, TilePartition,
    BLOCK_PAIRS,
};
use leopard_accel::sim::{simulate_head, HeadWorkload};
use proptest::prelude::*;

mod common;
use common::{presets, workload_from_pairs};

/// Ragged layer: one workload per head, each with its own sequence length,
/// derived from a cheap deterministic generator so proptest shrinking
/// stays meaningful on the `(lens, seed)` inputs.
fn layer_from_lens(lens: &[usize], threshold: i64, seed: i32) -> Vec<HeadWorkload> {
    lens.iter()
        .enumerate()
        .map(|(h, &s)| {
            let pairs: Vec<(i32, i32)> = (0..s)
                .map(|row| {
                    let x = seed
                        .wrapping_mul(31)
                        .wrapping_add(h as i32 * 131)
                        .wrapping_add(row as i32 * 17);
                    ((x * 7) % 2046, (x * 13 + 5) % 2046)
                })
                .collect();
            workload_from_pairs(&pairs, threshold, 8)
        })
        .collect()
}

/// The exact bit pattern of an energy breakdown — policy independence is a
/// *bit*-identity claim, so comparisons go through `to_bits`, not an
/// epsilon.
fn energy_bits(e: &EnergyBreakdown) -> [u64; 5] {
    [
        e.qk_compute.to_bits(),
        e.key_memory.to_bits(),
        e.softmax.to_bits(),
        e.v_compute.to_bits(),
        e.value_memory.to_bits(),
    ]
}

/// Asserts the whole conformance contract for one layer at one tile count,
/// returning the per-policy schedules for cross-policy checks.
fn check_layer(workloads: &[HeadWorkload], tiles: usize) -> Vec<LayerSchedule> {
    let model = EnergyModel::calibrated();
    let mut config = TileConfig::ae_leopard();
    config.tiles = tiles;

    let schedules: Vec<LayerSchedule> = Placement::ALL
        .iter()
        .map(|&placement| schedule_layer(workloads, &config, &model, placement))
        .collect();

    for (schedule, &placement) in schedules.iter().zip(Placement::ALL.iter()) {
        assert_eq!(schedule.placement, placement);
        assert_eq!(schedule.tiles, tiles);
        assert_eq!(schedule.tile_cycles.len(), tiles);
        assert_eq!(schedule.splits.len(), workloads.len());
        assert_eq!(schedule.heads.len(), workloads.len());

        let mut shard_sum = 0u64;
        for (h, workload) in workloads.iter().enumerate() {
            // Bit-identity: the reassembled head equals single-tile
            // execution of the same head, field for field.
            let baseline = simulate_head(workload, &config);
            assert_eq!(
                schedule.heads[h].merged,
                baseline,
                "{} tiles={tiles} head={h} merged result diverged from baseline",
                placement.label()
            );
            // Splits are bounded by the tile count and never zero.
            let split = schedule.splits[h];
            assert!(
                (1..=tiles).contains(&split),
                "{} tiles={tiles} head={h} split={split} out of range",
                placement.label()
            );
            assert_eq!(schedule.heads[h].tile_cycles.len(), split);
            shard_sum += schedule.heads[h].tile_cycles.iter().sum::<u64>();
        }

        // Accounting: shard cycles are conserved onto tiles, and the
        // makespan is the busiest tile.
        assert_eq!(
            schedule.tile_cycles.iter().sum::<u64>(),
            shard_sum,
            "{} tiles={tiles} lost or invented shard cycles",
            placement.label()
        );
        assert_eq!(
            schedule.makespan_cycles,
            schedule.tile_cycles.iter().copied().max().unwrap_or(0),
            "{} tiles={tiles} makespan is not the busiest tile",
            placement.label()
        );
    }

    // Cross-policy: merged results, energy, and pruning are bit-identical;
    // only the makespan side may move. LPT never *predicts* worse than
    // round-robin (the portfolio guarantee).
    let lpt = &schedules[Placement::Lpt.index()];
    let rr = &schedules[Placement::RoundRobin.index()];
    assert!(
        lpt.predicted_makespan_cycles <= rr.predicted_makespan_cycles,
        "LPT predicted {} > RR predicted {} at tiles={tiles}",
        lpt.predicted_makespan_cycles,
        rr.predicted_makespan_cycles
    );
    for other in &schedules[1..] {
        for h in 0..workloads.len() {
            assert_eq!(
                lpt.heads[h].merged,
                other.heads[h].merged,
                "policy {} changed head {h}'s merged accounting",
                other.placement.label()
            );
        }
        assert_eq!(
            energy_bits(&lpt.energy),
            energy_bits(&other.energy),
            "policy {} moved the layer energy",
            other.placement.label()
        );
        assert_eq!(
            lpt.pruning_rate.to_bits(),
            other.pruning_rate.to_bits(),
            "policy {} moved the layer pruning rate",
            other.placement.label()
        );
    }
    schedules
}

proptest! {
    /// The headline differential property: any policy × tiles 1..=8 ×
    /// heads 1..=16 × random per-head sequence lengths. Covers degenerate
    /// single-head and over-tiled layers whenever the generators produce
    /// `lens.len() < tiles`.
    #[test]
    fn prop_layer_schedule_is_bit_identical_to_per_head_baseline(
        lens in proptest::collection::vec(1usize..24, 1..17),
        threshold in -200_000i64..200_000,
        seed in -1_000_000i32..1_000_000,
        tiles in 1usize..=8,
    ) {
        let workloads = layer_from_lens(&lens, threshold, seed);
        check_layer(&workloads, tiles);
    }

    /// Degenerate layers stressed on their own so shrinking cannot walk
    /// away from them: a single head under every tile count (over-tiling
    /// a lone head), where static cannot split but lpt/rr shard across
    /// every tile.
    #[test]
    fn prop_single_head_layer_conforms_at_every_tile_count(
        len in 1usize..40,
        threshold in -200_000i64..200_000,
        seed in -1_000_000i32..1_000_000,
    ) {
        let workloads = layer_from_lens(&[len], threshold, seed);
        for tiles in 1..=8 {
            let schedules = check_layer(&workloads, tiles);
            let lpt = &schedules[Placement::Lpt.index()];
            let stat = &schedules[Placement::Static.index()];
            // Static keeps the lone head whole on one tile; the growing
            // policies split it across every tile.
            prop_assert_eq!(stat.splits[0], 1);
            prop_assert_eq!(lpt.splits[0], tiles);
            // So static's makespan is the full single-tile total.
            prop_assert_eq!(stat.makespan_cycles, stat.heads[0].merged.total_cycles);
            prop_assert!(lpt.makespan_cycles <= stat.makespan_cycles);
        }
    }

    /// `blocks` is the plan's tile decomposition: each head's blocks are
    /// contiguous in the job list, walk its shards in order, cover each
    /// shard's `TilePartition` range exactly once in ascending rows, and
    /// stay within `BLOCK_PAIRS + seq_len` score pairs. Lengths reach past
    /// 724 rows so that single-shard heads are cut into row blocks.
    #[test]
    fn prop_blocks_cover_each_head_once_in_row_order(
        lens in proptest::collection::vec(1usize..2_000, 1..9),
        tiles in 1usize..=64,
        placement in 0usize..3,
    ) {
        let plan = plan_of(&lens, tiles, Placement::ALL[placement]);
        let blocks = plan.blocks(&lens);
        // Head by head, shard by shard, and no shard beyond the split.
        prop_assert!(blocks.windows(2).all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)));
        prop_assert!(blocks.iter().all(|(head, shard, _)| *shard < plan.split(*head)));
        for (h, &seq_len) in lens.iter().enumerate() {
            let ranges = TilePartition::new(seq_len, plan.split(h)).ranges();
            for (shard, range) in ranges.into_iter().enumerate() {
                let rows: Vec<_> = blocks
                    .iter()
                    .filter(|b| (b.0, b.1) == (h, shard))
                    .map(|b| b.2.clone())
                    .collect();
                // The shard's blocks tile its partition range exactly, in
                // ascending rows.
                prop_assert_eq!(rows.first().map(|r| r.start), Some(range.start));
                prop_assert_eq!(rows.last().map(|r| r.end), Some(range.end));
                prop_assert!(rows.windows(2).all(|pair| pair[0].end == pair[1].start));
                prop_assert!(rows.iter().all(|r| r.len() * seq_len <= BLOCK_PAIRS + seq_len));
            }
        }
    }

    /// A multi-configuration `execute` reassembles every head to
    /// single-tile execution under each of the four presets, and charges
    /// every configuration's shard cycles to the planned tiles.
    #[test]
    fn prop_multi_config_execute_is_simulate_head_per_config(
        lens in proptest::collection::vec(1usize..24, 1..6),
        threshold in -200_000i64..200_000,
        seed in -1_000_000i32..1_000_000,
        tiles in 1usize..=64,
        placement in 0usize..3,
    ) {
        let workloads = layer_from_lens(&lens, threshold, seed);
        let plan = plan_of(&lens, tiles, Placement::ALL[placement]);
        let configs = presets();
        let runs = plan.execute(&workloads, &configs);
        prop_assert_eq!(runs.len(), configs.len());
        for ((tile_cycles, heads), config) in runs.iter().zip(&configs) {
            prop_assert_eq!(tile_cycles.len(), tiles);
            let mut charged = vec![0u64; tiles];
            for (h, workload) in workloads.iter().enumerate() {
                prop_assert_eq!(&heads[h].merged, &simulate_head(workload, config));
                prop_assert_eq!(heads[h].tile_cycles.len(), plan.split(h));
                for (&tile, &cycles) in plan.shard_tiles[h].iter().zip(&heads[h].tile_cycles) {
                    charged[tile] += cycles;
                }
            }
            prop_assert_eq!(tile_cycles, &charged);
        }
    }
}

/// Plans a layer of heads of `lens` rows, predicting per-tile cycles as
/// rows per tile.
fn plan_of(lens: &[usize], tiles: usize, placement: Placement) -> LayerPlan {
    let heads: Vec<PlannedHead> = (0..)
        .zip(lens)
        .map(|(tie_break, &seq_len)| PlannedHead { seq_len, tie_break })
        .collect();
    plan_layer(&heads, tiles, placement, |s, split| {
        s.div_ceil(split) as u64
    })
}

/// The explicit degenerate matrix the issue pins down, outside proptest so
/// it always runs exactly: over-tiled layers (2 heads × 8 tiles), a wide
/// layer (16 heads × 3 tiles), and a single head on 1..=8 tiles, with
/// ragged sequence lengths no tile count divides.
#[test]
fn degenerate_layer_matrix_conforms() {
    let wide: Vec<usize> = (0..16).map(|h| 5 + (h * 7) % 23).collect();
    for (lens, tiles) in [
        (vec![17], 1),
        (vec![17], 8),
        (vec![19, 7], 8),
        (vec![23, 23], 8),
        (wide.clone(), 3),
        (wide, 8),
    ] {
        let workloads = layer_from_lens(&lens, 40_000, 0x5EED);
        check_layer(&workloads, tiles);
    }
}

/// A heterogeneous fixed-seed layer where greedy LPT beats round-robin on
/// *measured* makespan, not just predicted: ragged head lengths make the
/// round-robin cursor stack long shards onto the same tile.
#[test]
fn lpt_beats_round_robin_makespan_on_a_ragged_layer() {
    let lens = [37, 31, 29, 23, 19, 17, 13, 11, 7, 5, 3, 2];
    let workloads = layer_from_lens(&lens, 40_000, 0xACE5);
    let model = EnergyModel::calibrated();
    let mut config = TileConfig::ae_leopard();
    config.tiles = 4;
    let lpt = schedule_layer(&workloads, &config, &model, Placement::Lpt);
    let rr = schedule_layer(&workloads, &config, &model, Placement::RoundRobin);
    assert!(
        lpt.makespan_cycles < rr.makespan_cycles,
        "LPT {} should beat RR {} on this ragged layer",
        lpt.makespan_cycles,
        rr.makespan_cycles
    );
    // And the balance metric agrees with the ordering.
    assert!(lpt.balance() > rr.balance());
}
