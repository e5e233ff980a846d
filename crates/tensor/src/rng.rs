//! Deterministic random initialization helpers.
//!
//! Every experiment in the reproduction is seeded so that figures and tables
//! can be regenerated bit-for-bit. The helpers here wrap `rand`'s `StdRng`
//! (seeded from a `u64`) and provide the common neural-network initializers.

use crate::Matrix;
use rand::distributions::{Distribution, Uniform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a seeded RNG. All randomness in the workspace flows from calls to
/// this function so results are reproducible.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples a matrix with i.i.d. `Uniform(lo, hi)` entries.
///
/// # Panics
///
/// Panics if `lo > hi`.
pub fn uniform_matrix(rng: &mut StdRng, rows: usize, cols: usize, lo: f32, hi: f32) -> Matrix {
    assert!(lo <= hi, "uniform bounds must satisfy lo <= hi");
    let dist = Uniform::new_inclusive(lo, hi);
    let data = (0..rows * cols).map(|_| dist.sample(rng)).collect();
    #[expect(
        clippy::expect_used,
        reason = "the data vector is built with exactly rows * cols elements on the previous line"
    )]
    Matrix::from_vec(rows, cols, data).expect("shape is consistent by construction")
}

/// Samples a matrix with i.i.d. `Normal(mean, std)` entries using the
/// Box–Muller transform (avoids a dependency on `rand_distr`).
pub fn normal_matrix(rng: &mut StdRng, rows: usize, cols: usize, mean: f32, std: f32) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| mean + std * standard_normal(rng))
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "the data vector is built with exactly rows * cols elements on the previous line"
    )]
    Matrix::from_vec(rows, cols, data).expect("shape is consistent by construction")
}

/// Samples a single standard-normal value via Box–Muller.
pub fn standard_normal(rng: &mut StdRng) -> f32 {
    // Draw u1 in (0, 1] to avoid ln(0).
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Xavier/Glorot uniform initialization for a `fan_in x fan_out` weight
/// matrix: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rng: &mut StdRng, fan_in: usize, fan_out: usize) -> Matrix {
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform_matrix(rng, fan_in, fan_out, -a, a)
}

/// Shuffles indices `0..n` into a random permutation (Fisher–Yates).
pub fn permutation(rng: &mut StdRng, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = uniform_matrix(&mut seeded(42), 3, 3, -1.0, 1.0);
        let b = uniform_matrix(&mut seeded(42), 3, 3, -1.0, 1.0);
        assert_eq!(a, b);
        let c = uniform_matrix(&mut seeded(43), 3, 3, -1.0, 1.0);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_respects_bounds() {
        let m = uniform_matrix(&mut seeded(1), 10, 10, -0.5, 0.5);
        assert!(m.iter().all(|&v| (-0.5..=0.5).contains(&v)));
    }

    #[test]
    fn normal_statistics_are_plausible() {
        let m = normal_matrix(&mut seeded(7), 100, 100, 2.0, 0.5);
        let mean = m.mean();
        let var = m.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / m.len() as f32;
        assert!((mean - 2.0).abs() < 0.05, "mean was {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.05, "std was {}", var.sqrt());
    }

    #[test]
    fn xavier_bound_shrinks_with_fan() {
        let small = xavier_uniform(&mut seeded(3), 4, 4);
        let large = xavier_uniform(&mut seeded(3), 1024, 1024);
        assert!(
            small.iter().map(|v| v.abs()).fold(0.0, f32::max)
                > large.iter().map(|v| v.abs()).fold(0.0, f32::max)
        );
    }

    #[test]
    fn permutation_is_bijection() {
        let p = permutation(&mut seeded(9), 50);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
