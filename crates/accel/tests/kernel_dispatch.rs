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
//! The property tests use `ProptestConfig::default()`, so CI's
//! `PROPTEST_CASES`-bumped differential job widens their coverage without
//! code changes.

use leopard_accel::config::TileConfig;
use leopard_accel::kernel_v2::KernelPath;
use leopard_accel::sim::{merge_shards, simulate_head_reference, simulate_rows, HeadWorkload};
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
