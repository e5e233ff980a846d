//! Fixtures shared by the accel integration-test targets. Not every target
//! uses every fixture.
#![allow(dead_code, reason = "not every target uses every fixture")]

use leopard_accel::config::TileConfig;
use leopard_accel::sim::HeadWorkload;

/// The four studied tile configurations, in `SimUnitKind` order.
pub fn presets() -> [TileConfig; 4] {
    [
        TileConfig::baseline(),
        TileConfig::ae_leopard(),
        TileConfig::hp_leopard(),
        TileConfig::pruning_only(),
    ]
}

/// Builds a deterministic workload of `s` K-columns × `d` dimensions from
/// a seed, covering the full signed 12-bit code range including zeros.
pub fn workload(s: usize, d: usize, threshold: i64, seed: i32) -> HeadWorkload {
    let code = |r: usize, c: usize, salt: i32| -> i32 {
        (r as i32 * 131 + c as i32 * 37 + salt)
            .wrapping_mul(2_654_435_761u32 as i32)
            .wrapping_add(seed)
            % 2047
    };
    let q_codes: Vec<Vec<i32>> = (0..s)
        .map(|r| (0..d).map(|c| code(r, c, 17)).collect())
        .collect();
    let k_codes: Vec<Vec<i32>> = (0..s)
        .map(|r| (0..d).map(|c| code(r, c, 29)).collect())
        .collect();
    HeadWorkload::from_codes(q_codes, k_codes, threshold, d, 12)
}

/// Builds a workload from raw 12-bit code pairs (one `(q, k)` element pair
/// per row position, replicated across a small head dimension so every
/// sequence length exercises row partitioning).
pub fn workload_from_pairs(pairs: &[(i32, i32)], threshold: i64, head_dim: usize) -> HeadWorkload {
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
