//! Dispatch-layer spine: differential tests pinning the runtime-dispatched
//! kernel-v2 paths to each other and to the scalar reference.
//!
//! The contract under test (see `leopard_accel::kernel_v2`):
//!
//! * **Path identity** — forcing [`KernelPath::Portable`] (the scalar-word
//!   fallback) produces a `HeadSimResult` byte-identical to the requested
//!   [`KernelPath::Wide`] path on the same inputs, for every preset and
//!   every `bits_per_cycle` granularity 1..=4. On machines without the
//!   wide feature set the wide request resolves to portable, so the
//!   property degenerates to reflexivity rather than failing.
//! * **Oracle identity** — both paths equal the scalar per-element DPU
//!   reference (`simulate_head_reference`) exactly: cycles, stalls,
//!   utilization, histograms, events.
//! * **Integer widths at their extremes** — 16-bit codes (15 magnitude
//!   bits) at ±32767 over the largest suite head dimension, with all-zero
//!   columns, and Q rows outside the `i16` operand range, which take the
//!   scalar-DPU fallback.
//! * **Block tails and padding** — the sweep takes K columns four at a
//!   time and pads each column to a multiple of 16 elements, so sequence
//!   lengths `s = 1..=5` (every partial last block) and `23`, `63`, `64`,
//!   `65`, and head dimensions straddling the padding (`16`, `17`, `20`,
//!   `33`), are pinned explicitly.
//!
//! * **Reveal-cycle settle** — the sweep saves each block's `q·sign k`
//!   and `|k|` once and settles its four lanes in vector registers, so the
//!   margin test's `<` is pinned with thresholds exactly on a lane's
//!   `partial + margin` value at a reveal cycle, 16-bit codes are swept
//!   one bit per cycle (15 reveal cycles), one caller-owned scratch is
//!   reused across head dimensions that shrink and grow, and a wide-path
//!   head dimension drives the concordant sum past `u32::MAX`, so the
//!   margin's 64-bit product needs both 32-bit halves of it.
//!
//! The property tests use `ProptestConfig::default()`, so CI's
//! `PROPTEST_CASES`-bumped differential job widens their coverage without
//! code changes.

use leopard_accel::config::TileConfig;
use leopard_accel::kernel_v2::{KernelPath, PackedKeys, QkKernelV2, RowScratchV2};
use leopard_accel::sim::{merge_shards, simulate_head_reference, simulate_rows, HeadWorkload};
use leopard_quant::bitserial::BitSerialVector;
use proptest::prelude::*;

mod common;
use common::{presets, workload};

/// Asserts the full dispatch contract on one workload/config pair: wide,
/// portable and the scalar reference all produce byte-identical
/// `HeadSimResult`s.
fn assert_paths_agree(w: &HeadWorkload, config: &TileConfig) {
    let reference = simulate_head_reference(w, config);
    let on = |path| merge_shards(&simulate_rows(w, &[*config], 0..w.seq_len(), path));
    let wide = on(KernelPath::Wide);
    let portable = on(KernelPath::Portable);
    assert_eq!(wide, portable, "wide and portable paths diverged");
    assert_eq!(
        portable, reference,
        "portable path diverged from DPU reference"
    );
}

/// The largest head dimension of the paper's suite.
const SUITE_MAX_HEAD_DIM: usize = 64;

/// `s` rows of ±32767 codes (the 16-bit operand's extremes) in a
/// pseudo-random sign pattern; every row `r` with `r % zero_every ==
/// zero_every - 1` is all zeros.
fn extreme_codes(s: usize, salt: u32, zero_every: usize) -> Vec<Vec<i32>> {
    (0..s)
        .map(|r| {
            if r % zero_every == zero_every - 1 {
                return vec![0; SUITE_MAX_HEAD_DIM];
            }
            (0..SUITE_MAX_HEAD_DIM)
                .map(|c| {
                    let h = (r as u32 * 131 + c as u32 * 37 + salt).wrapping_mul(2_654_435_761);
                    if h >> 31 == 0 {
                        32_767
                    } else {
                        -32_767
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn sixteen_bit_extremes_agree_across_paths() {
    // 15 magnitude bits at full scale: every i16 operand is ±32767, so the
    // chunked i32 accumulation runs at its smallest chunk (two products)
    // and a full dot product reaches 64 · 32767² ≈ 6.9e10.
    for s in [1usize, 63, 64, 65] {
        let q = extreme_codes(s, 17, usize::MAX);
        let k = extreme_codes(s, 29, 4);
        for threshold in [i64::MIN / 4, -(1 << 34), 0, 1 << 34, i64::MAX / 4] {
            let w =
                HeadWorkload::from_codes(q.clone(), k.clone(), threshold, SUITE_MAX_HEAD_DIM, 16);
            for preset in presets() {
                assert_paths_agree(&w, &preset.with_qk_bits(16));
            }
        }
    }
}

#[test]
fn out_of_i16_q_rows_take_the_scalar_dpu_fallback() {
    let config = TileConfig::ae_leopard().with_qk_bits(16);
    let mut q = extreme_codes(65, 5, usize::MAX);
    q[7][3] = -32_768;
    q[40][0] = 1 << 24;
    let w = HeadWorkload::from_codes(q, extreme_codes(65, 11, 4), 0, SUITE_MAX_HEAD_DIM, 16);
    // Held across the runs: the cache releases its copy once a run has
    // recorded every row.
    let pack = w.packed_keys_at(config.bit_serial_plan());
    assert!(!pack.has_reference_columns());
    assert_paths_agree(&w, &config);
    assert!(
        pack.has_reference_columns(),
        "an out-of-range Q row must run on the reference DPU's vectors"
    );
}

#[test]
fn boundary_column_counts_agree_across_paths() {
    // s = 1..=5 ends on every partial block of four columns and the first
    // full one; 23, 63, 64, 65 end on each remainder at larger sizes. d
    // straddles the 16-element padding (16, 17, 20 — the MemN2N head
    // dimension — and 33). Every preset runs at every shape.
    for s in [1, 2, 3, 4, 5, 23, 63, 64, 65] {
        for d in [16, 17, 20, 33] {
            let w = workload(s, d, 40_000, s as i32);
            for config in presets() {
                assert_paths_agree(&w, &config);
            }
        }
    }
}

#[test]
fn granularity_sweep_agrees_across_paths() {
    // bits_per_cycle 1..=4 over a mid-threshold workload: every reveal
    // granularity must schedule identical outcomes on both paths.
    let w = workload(50, 16, 30_000, 7);
    for bits in 1..=4 {
        let config = TileConfig::ae_leopard().with_serial_bits(bits);
        assert_paths_agree(&w, &config);
    }
}

/// A pseudo-random code in `-max..=max` for element `i` of vector `j`.
fn hashed_code(i: usize, j: usize, salt: u32, max: i32) -> i32 {
    let h = (i as u32)
        .wrapping_mul(2_654_435_761)
        .wrapping_add((j as u32 ^ salt).wrapping_mul(40_503))
        .rotate_left(13)
        .wrapping_mul(2_246_822_519);
    (h % (2 * max as u32 + 1)) as i32 - max
}

/// `s` vectors of `d` hashed codes in `-max..=max`.
fn hashed_codes(s: usize, d: usize, salt: u32, max: i32) -> Vec<Vec<i32>> {
    (0..s)
        .map(|j| (0..d).map(|i| hashed_code(i, j, salt, max)).collect())
        .collect()
}

/// The margin test's left side for Q row `q` against column `k` after
/// reveal cycle `cycle`, from the scalar reference: `partial + margin`.
/// A pair still open at `cycle` is pruned there iff this is below the
/// threshold.
fn margin_test_value(config: &TileConfig, q: &[i32], k: &[i32], cycle: u32) -> i64 {
    let k = BitSerialVector::new(k, config.bit_serial_plan());
    k.partial_dot(q, cycle) + k.margin(q, cycle)
}

#[test]
fn thresholds_on_a_lanes_margin_test_value_agree_across_paths() {
    // A threshold exactly on a lane's `partial + margin` at a reveal cycle
    // leaves it open there (`<` is strict), one above prunes it there, and
    // one below leaves it open. Lanes 0..=3 of the first block and the one
    // lane of the last partial block, at every reveal cycle; the two
    // thresholds' reference outcomes must differ, or the lane was not open
    // at that cycle.
    let (s, d) = (5, 20);
    let q = hashed_codes(s, d, 3, 2047);
    let k = hashed_codes(s, d, 11, 2047);
    let config = TileConfig::ae_leopard();
    let plan = config.bit_serial_plan();
    let mut pinned = 0;
    for column in 0..s {
        for cycle in 1..plan.total_cycles() {
            let row = &q[column % s];
            let value = margin_test_value(&config, row, &k[column], cycle);
            let previous = margin_test_value(&config, row, &k[column], cycle - 1);
            let full = BitSerialVector::new(&k[column], plan).full_dot(row);
            if !(full < value && value < previous) {
                continue;
            }
            let on = |threshold| HeadWorkload::from_codes(q.clone(), k.clone(), threshold, d, 12);
            assert_ne!(
                simulate_head_reference(&on(value), &config),
                simulate_head_reference(&on(value + 1), &config),
                "column {column} at cycle {cycle} is not on its margin-test boundary"
            );
            for threshold in [value - 1, value, value + 1] {
                for config in [config, TileConfig::hp_leopard()] {
                    assert_paths_agree(&on(threshold), &config);
                }
            }
            pinned += 1;
        }
    }
    assert!(pinned >= 5, "only {pinned} boundaries pinned");
}

#[test]
fn sixteen_bit_codes_one_bit_per_cycle_agree_across_paths() {
    // 15 magnitude bits revealed one per cycle: 15 reveal cycles. Q codes
    // within ±4096 keep the wide path's i32 runs at 16 products or more,
    // so it sweeps; at ±32767 the row takes the portable primitives.
    let config = TileConfig::ae_leopard()
        .with_qk_bits(16)
        .with_serial_bits(1);
    assert_eq!(config.bit_serial_plan().total_cycles(), 15);
    let (s, d) = (9, SUITE_MAX_HEAD_DIM);
    let k = hashed_codes(s, d, 5, 32_767);
    for q_max in [4096, 32_767] {
        let q = hashed_codes(s, d, 7, q_max);
        let mut fulls: Vec<i64> = q
            .iter()
            .flat_map(|row| {
                k.iter()
                    .map(|col| BitSerialVector::new(col, config.bit_serial_plan()).full_dot(row))
            })
            .collect();
        fulls.sort_unstable();
        for quantile in [1, 4, 7] {
            let threshold = fulls[fulls.len() * quantile / 8];
            let w = HeadWorkload::from_codes(q.clone(), k.clone(), threshold, d, 16);
            assert_paths_agree(&w, &config);
        }
    }
}

#[test]
fn one_scratch_serves_head_dimensions_that_shrink_and_grow() {
    // A row's scratch is sized by the row: reusing one across packs of
    // every dimension around the 16-element register width (and larger
    // ones after smaller) gives what a fresh scratch gives.
    let config = TileConfig::ae_leopard();
    let mut scratch = RowScratchV2::new();
    for d in [64, 17, 1, 130, 15, 16, 129, 31, 32, 33, 48, 65, 2] {
        let q = hashed_codes(1, d, 13, 2047).remove(0);
        let k = hashed_codes(7, d, 17, 2047);
        let packed = PackedKeys::pack(&k, config.bit_serial_plan());
        let threshold = BitSerialVector::new(&k[3], config.bit_serial_plan()).full_dot(&q) + 1;
        for path in [KernelPath::Wide, KernelPath::Portable] {
            let kernel = QkKernelV2::with_path(config, path);
            let mut reused = Vec::new();
            kernel.compute_row_into(&q, &packed, threshold, &mut scratch, &mut reused);
            assert_eq!(
                reused,
                kernel.compute_row_outcomes(&q, &packed, threshold),
                "d = {d} on {path:?}"
            );
        }
    }
}

#[test]
fn concordant_sums_past_u32_max_agree_across_paths() {
    // 12-bit K codes (±2047) against Q codes of ±32767 keep the wide path
    // (32 products per i32 run); 150,000 elements, about 97% of them
    // concordant, push each column's concordant sum past u32::MAX, so the
    // margin `mrm·conc` needs the high half of `conc`. Thresholds sit on
    // margin-test values at cycles 1 and 3, so lanes settle mid-sweep.
    let (s, d) = (4, 150_000);
    let sign = |i: usize, j: usize| {
        if hashed_code(i, j, 23, 15) == 0 {
            -1
        } else {
            1
        }
    };
    let q: Vec<Vec<i32>> = (0..s)
        .map(|j| (0..d).map(|i| 32_767 * sign(i, j + 10)).collect())
        .collect();
    let k: Vec<Vec<i32>> = (0..s)
        .map(|j| (0..d).map(|i| 2047 * sign(i, j)).collect())
        .collect();
    let conc: i64 = q[0]
        .iter()
        .zip(&k[0])
        .map(|(&a, &b)| i64::from(a * b.signum()).max(0))
        .sum();
    assert!(conc > i64::from(u32::MAX), "concordant sum {conc}");
    let config = TileConfig::ae_leopard();
    for cycle in [1, 3] {
        let threshold = margin_test_value(&config, &q[0], &k[1], cycle);
        let w = HeadWorkload::from_codes(q.clone(), k.clone(), threshold, d, 12);
        assert_paths_agree(&w, &config);
    }
}

proptest! {
    /// The headline dispatch property: for arbitrary workloads, thresholds,
    /// and reveal granularities, the forced-portable fallback is
    /// byte-identical to the wide path — and both match the scalar DPU
    /// reference.
    #[test]
    fn prop_portable_and_wide_paths_are_byte_identical(
        s in 1usize..70,
        d in 1usize..20,
        threshold in -200_000i64..200_000,
        bits in 1u32..=4,
        seed in 0i32..1000,
    ) {
        let w = workload(s, d, threshold, seed);
        for preset in presets() {
            assert_paths_agree(&w, &preset.with_serial_bits(bits));
        }
    }
}
