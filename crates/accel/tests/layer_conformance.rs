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
//! * **One head is the tiled head** — a single-head layer under LPT
//!   charges tile `t` exactly what `simulate_head_tiled` gives shard `t`,
//!   at every tile count up to 64.
//!
//! The property tests use `ProptestConfig::default()`, so CI's
//! `PROPTEST_CASES`-bumped job widens their coverage without code changes.

use leopard_accel::config::TileConfig;
use leopard_accel::energy::{EnergyBreakdown, EnergyModel};
use leopard_accel::schedule::{schedule_layer, simulate_head_tiled, LayerSchedule, Placement};
use leopard_accel::sim::{simulate_head, HeadWorkload};
use proptest::prelude::*;

/// Builds one head's workload from raw 12-bit code pairs (one `(q, k)`
/// element pair per row position, replicated across a small head
/// dimension), the same construction the tile-conformance spine uses.
fn workload_from_pairs(pairs: &[(i32, i32)], threshold: i64, head_dim: usize) -> HeadWorkload {
    let q_codes: Vec<Vec<i32>> = pairs
        .iter()
        .map(|&(q, _)| {
            (0..head_dim)
                .map(|c| q.wrapping_add(c as i32 * 7) % 2047)
                .collect()
        })
        .collect();
    let k_codes: Vec<Vec<i32>> = pairs
        .iter()
        .map(|&(_, k)| {
            (0..head_dim)
                .map(|c| k.wrapping_sub(c as i32 * 5) % 2047)
                .collect()
        })
        .collect();
    HeadWorkload::from_codes(q_codes, k_codes, threshold, head_dim, 12)
}

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

    /// A lone head under LPT is split across every tile, in tile order, so
    /// the layer scheduler computes exactly what the head-level tiled
    /// simulation does — at every tile count up to 64, including more
    /// tiles than rows.
    #[test]
    fn prop_lpt_single_head_schedule_is_the_tiled_head_simulation(
        len in 1usize..40,
        threshold in -200_000i64..200_000,
        seed in -1_000_000i32..1_000_000,
        tiles in 1usize..=64,
    ) {
        let workloads = layer_from_lens(&[len], threshold, seed);
        let mut config = TileConfig::ae_leopard();
        config.tiles = tiles;
        let schedule =
            schedule_layer(&workloads, &config, &EnergyModel::calibrated(), Placement::Lpt);
        let tiled = simulate_head_tiled(&workloads[0], &config, tiles);
        prop_assert_eq!(&schedule.tile_cycles, &tiled.tile_cycles);
        prop_assert_eq!(&schedule.heads[0].merged, &tiled.merged);
    }
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
