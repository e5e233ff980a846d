//! Summary statistics used for workload calibration and result reporting.
//!
//! The benchmark harness compares measured pruning rates, bit counts, and
//! speedups against the paper's reported numbers; geometric means and
//! percentiles are the aggregations the paper itself uses (e.g. GMean rows in
//! Figures 9 and 10).

/// Arithmetic mean of a slice. Returns 0.0 for an empty slice.
pub fn mean(values: &[f32]) -> f32 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f32>() / values.len() as f32
    }
}

/// Geometric mean of a slice, the aggregation the paper uses for its
/// speedup and energy GMean rows. Each value is floored at 1e-9 before the
/// logarithm, so a zero ratio pulls the mean down instead of making it
/// NaN. Returns 0.0 for an empty slice.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-9).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Linear-interpolated percentile (`p` in `[0, 100]`) of a slice, in the
/// IEEE 754 total order ([`f32::total_cmp`]): NaNs sort past the
/// infinities instead of panicking, and `-0.0` sorts before `+0.0`.
/// Returns 0.0 for an empty slice.
///
/// Runs in linear time: one selection finds the lower rank, and the upper
/// rank is the minimum of the partition above it.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile(values: &[f32], p: f32) -> f32 {
    percentile_mapped_in_place(&mut values.to_vec(), p, |v| v)
}

/// [`percentile`] of `values` mapped through `map`, without the copy:
/// selects on `values` in place (reordering it) and maps only the two order
/// statistics it picked before interpolating.
///
/// `map` must be non-decreasing in the total order (for example
/// multiplication by a positive constant). Order statistics commute with
/// such a map, so the result is bit for bit
/// `percentile(&mapped, p)` with `mapped[i] = map(values[i])`.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 100]`.
pub fn percentile_mapped_in_place(values: &mut [f32], p: f32, map: impl Fn(f32) -> f32) -> f32 {
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    if values.is_empty() {
        return 0.0;
    }
    let rank = p / 100.0 * (values.len() - 1) as f32;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let (_, &mut lo_value, upper) = values.select_nth_unstable_by(lo, f32::total_cmp);
    let lo_value = map(lo_value);
    if lo == hi {
        return lo_value;
    }
    // hi == lo + 1, so the upper rank is the smallest value above lo.
    let hi_value = upper
        .iter()
        .copied()
        .min_by(f32::total_cmp)
        .map_or(lo_value, map);
    let w = rank - lo as f32;
    lo_value * (1.0 - w) + hi_value * w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_known_results() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn geometric_mean_matches_hand_computation() {
        let g = geometric_mean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
        // Non-positive values are floored at 1e-9 instead of panicking.
        assert!((geometric_mean(&[1e-9, 0.0]) - 1e-9).abs() < 1e-21);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert!((percentile(&v, 50.0) - 2.5).abs() < 1e-6);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    /// The sort-based definition the selection must reproduce bit for bit.
    fn sorted_percentile(values: &[f32], p: f32) -> f32 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f32::total_cmp);
        let rank = p / 100.0 * (sorted.len() - 1) as f32;
        let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
        let w = rank - lo as f32;
        if lo == hi {
            sorted[lo]
        } else {
            sorted[lo] * (1.0 - w) + sorted[hi] * w
        }
    }

    #[test]
    fn percentile_matches_a_sorted_reference_bit_for_bit() {
        use rand::Rng;
        let mut r = crate::rng::seeded(17);
        for len in [1usize, 2, 3, 7, 64, 1001] {
            // Few distinct values (heavy duplicates, both zero signs) and
            // continuous values.
            let coarse: Vec<f32> = (0..len)
                .map(|_| [-1.5f32, -0.0, 0.0, 0.25, 2.0][r.gen_range(0..5usize)])
                .collect();
            let fine: Vec<f32> = (0..len).map(|_| r.gen_range(-3.0f32..3.0)).collect();
            for values in [&coarse, &fine] {
                for p in [0.0f32, 0.1, 12.5, 33.3, 50.0, 77.7, 90.0, 99.9, 100.0] {
                    assert_eq!(
                        percentile(values, p).to_bits(),
                        sorted_percentile(values, p).to_bits(),
                        "len {len}, p {p}"
                    );
                }
            }
        }
        // The zero signs order -0.0 before +0.0.
        assert_eq!(percentile(&[0.0, -0.0], 0.0).to_bits(), (-0.0f32).to_bits());
        assert_eq!(percentile(&[0.0, -0.0], 100.0).to_bits(), 0.0f32.to_bits());
    }

    #[test]
    fn percentile_of_nan_input_does_not_panic() {
        let values = [f32::NAN, 1.0, -f32::NAN, 3.0, f32::NAN, 2.0];
        // Total order: [-NaN, 1, 2, 3, NaN, NaN] (a NaN sorts past the
        // infinity of its sign), so the middle ranks stay finite.
        assert_eq!(percentile(&values, 50.0), 2.5);
        assert!(percentile(&values, 0.0).is_nan());
        assert!(percentile(&values, 100.0).is_nan());
        assert!(percentile(&[f32::NAN; 4], 37.0).is_nan());
    }
}
