//! Recorded outcome tables are invisible: a workload that replays its
//! recorded per-pair outcomes gives exactly the results of a cold workload
//! that sweeps afresh, and of the scalar reference.
//!
//! The contract under test (see `leopard_accel::sim`'s module docs): every
//! v2 sweep records one byte per score pair in the workload's cache, keyed
//! by the bit-serial plan, the pruning and early-termination flags, the
//! threshold and the kernel path; a later simulation with the same key
//! folds the recorded bytes instead of sweeping. These tests pin the key
//! (a configuration never reads a table recorded under other flags, another
//! threshold or another granularity), the concurrency of per-row filling,
//! and the cache's memory rule: a full table releases its plan's packed
//! operands, and a later key packs them again.

use leopard_accel::config::TileConfig;
use leopard_accel::kernel_v2::KernelPath;
use leopard_accel::sim::{
    merge_shards, simulate_head_reference, simulate_rows, CacheCensus, HeadSimResult, HeadWorkload,
    TileShardSim,
};
use std::ops::Range;

mod common;
use common::{presets, workload};

/// One configuration over every row of `w` on the kernel `path`.
fn simulate_head_on(w: &HeadWorkload, config: &TileConfig, path: KernelPath) -> HeadSimResult {
    merge_shards(&simulate_rows(w, &[*config], 0..w.seq_len(), path))
}

fn census(w: &HeadWorkload) -> (usize, usize, usize) {
    let CacheCensus {
        packs,
        tables,
        full_tables,
    } = w.cache_census();
    (packs, tables, full_tables)
}

#[test]
fn warm_workload_matches_cold_workload_and_reference() {
    // s = 23 is a single partial column word, 64 exactly one, 65 one plus
    // a one-bit tail. Every n_qk point after the first replays the table
    // the first recorded; the cold side sweeps afresh every time.
    for s in [23, 64, 65] {
        let warm = workload(s, 33, 30_000, s as i32);
        for path in [KernelPath::Wide, KernelPath::Portable] {
            for n_qk in 2..=10 {
                for preset in presets() {
                    let config = preset.with_n_qk(n_qk);
                    let cold = warm.clone();
                    assert_eq!(census(&cold).1, 0, "a clone carries no outcome tables");
                    let replayed = simulate_head_on(&warm, &config, path);
                    assert_eq!(
                        replayed,
                        simulate_head_on(&cold, &config, path),
                        "{} n_qk {n_qk} on {path:?} at s={s}: warm diverged from cold",
                        config.name
                    );
                    assert_eq!(
                        replayed,
                        simulate_head_reference(&warm, &config),
                        "{} n_qk {n_qk} on {path:?} at s={s}: warm diverged from reference",
                        config.name
                    );
                }
            }
        }
        // One table per (flags, path) key the presets sweep: the shared AE/HP
        // early-terminating sweep and pruning-only's own full-width sweep,
        // each on the wide and the portable path — unless this machine
        // resolves the wide path to the portable one.
        let paths = if KernelPath::Wide.resolve() == KernelPath::Portable {
            1
        } else {
            2
        };
        assert_eq!(census(&warm), (0, 2 * paths, 2 * paths), "s={s}");
    }
}

#[test]
fn pruning_only_alone_after_ae_does_not_read_the_early_terminating_table() {
    // Both sweep the (11, 2) plan; only the early-termination flag tells
    // their outcomes apart, so the flag is part of the key.
    let w = workload(40, 24, 30_000, 3);
    let ae = TileConfig::ae_leopard();
    let po = TileConfig::pruning_only();
    let path = KernelPath::detect();
    assert_eq!(
        simulate_head_on(&w, &ae, path),
        simulate_head_reference(&w, &ae)
    );
    assert_eq!(census(&w), (0, 1, 1));
    let alone = simulate_head_on(&w, &po, path);
    assert_eq!(alone, simulate_head_reference(&w, &po));
    assert_eq!(census(&w), (0, 2, 2));
    // Every pruned score pays the full width: nothing terminated early.
    assert_eq!(alone.pruned_bits_histogram[..11].iter().sum::<u64>(), 0);
}

#[test]
fn changing_the_threshold_after_a_simulation_sweeps_again() {
    let mut w = workload(33, 20, 30_000, 5);
    let config = TileConfig::ae_leopard();
    let before = simulate_head_on(&w, &config, KernelPath::detect());
    w.threshold_int += 2_000_000;
    let after = simulate_head_on(&w, &config, KernelPath::detect());
    assert_eq!(after, simulate_head_reference(&w, &config));
    assert!(after.pruned_scores > before.pruned_scores);
    assert_eq!(census(&w).1, 2, "one table per threshold");
}

#[test]
fn a_second_serial_granularity_records_its_own_table() {
    let w = workload(30, 16, 30_000, 9);
    let two = TileConfig::ae_leopard();
    let one = TileConfig::ae_leopard().with_serial_bits(1);
    for config in [two, one, two, one] {
        assert_eq!(
            simulate_head_on(&w, &config, KernelPath::detect()),
            simulate_head_reference(&w, &config),
            "B = {}",
            config.serial_bits
        );
    }
    assert_eq!(census(&w), (0, 2, 2));
}

/// Joins per-config shards of consecutive row blocks into whole-head
/// results.
fn join_blocks(blocks: &[Vec<TileShardSim>]) -> Vec<TileShardSim> {
    (0..blocks[0].len())
        .map(|i| {
            blocks[1..]
                .iter()
                .fold(blocks[0][i].clone(), |acc, block| acc.join(&block[i]))
        })
        .collect()
}

#[test]
fn row_blocks_filled_from_two_threads_in_reverse_order_match_serial() {
    let s = 65;
    let configs = presets();
    let blocks: Vec<Range<usize>> = vec![0..9, 9..30, 30..31, 31..50, 50..65];
    let serial = simulate_rows(
        &workload(s, 33, 30_000, 11),
        &configs,
        0..s,
        KernelPath::detect(),
    );

    let w = workload(s, 33, 30_000, 11);
    let (low, high) = blocks.split_at(2);
    let mut results: Vec<Option<Vec<TileShardSim>>> = vec![None; blocks.len()];
    let (low_results, high_results) = results.split_at_mut(2);
    std::thread::scope(|scope| {
        for (ranges, out) in [(low, low_results), (high, high_results)] {
            let w = &w;
            let configs = &configs;
            scope.spawn(move || {
                for (rows, slot) in ranges.iter().zip(out.iter_mut()).rev() {
                    *slot = Some(simulate_rows(
                        w,
                        configs,
                        rows.clone(),
                        KernelPath::detect(),
                    ));
                }
            });
        }
    });
    let results: Vec<Vec<TileShardSim>> = results.into_iter().map(Option::unwrap).collect();
    assert_eq!(join_blocks(&results), serial);
    assert_eq!(census(&w), (0, 1, 1), "the threads filled one table");
    // The whole head replayed from the table agrees too.
    for (config, shard) in configs.iter().zip(&serial) {
        assert_eq!(
            merge_shards(&simulate_rows(&w, &[*config], 0..s, KernelPath::detect())),
            merge_shards(std::slice::from_ref(shard)),
            "{}",
            config.name
        );
    }
}

#[test]
fn a_full_table_releases_the_pack_and_a_new_key_rebuilds_it() {
    let s = 30;
    let w = workload(s, 16, 30_000, 13);
    let path = KernelPath::detect();
    let ae = [TileConfig::ae_leopard()];
    let po = [TileConfig::pruning_only()];

    let _ = simulate_rows(&w, &ae, 0..10, path);
    assert_eq!(census(&w), (1, 1, 0), "a partial table keeps the pack");
    let _ = simulate_rows(&w, &ae, 10..s, path);
    assert_eq!(census(&w), (0, 1, 1), "the last row releases the pack");
    let _ = simulate_rows(&w, &ae, 0..s, path);
    assert_eq!(census(&w), (0, 1, 1), "a replay never packs");

    // Pruning-only alone sweeps the same plan under another key.
    let _ = simulate_rows(&w, &po, 0..10, path);
    assert_eq!(census(&w), (1, 2, 1), "a new key packs the plan again");
    let _ = simulate_rows(&w, &po, 10..s, path);
    assert_eq!(census(&w), (0, 2, 2));

    // Forgetting the tables makes the next simulation sweep afresh.
    w.forget_outcomes();
    assert_eq!(census(&w), (0, 0, 0));
    let again = simulate_rows(&w, &ae, 0..10, path);
    assert_eq!(census(&w), (1, 1, 0));
    assert_eq!(
        merge_shards(&again),
        merge_shards(&[leopard_accel::sim::simulate_head_shard_reference(
            &w,
            &ae[0],
            0..10
        )])
    );
}
