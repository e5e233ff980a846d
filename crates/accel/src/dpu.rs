//! The bit-serial QK dot-product unit with conservative-margin early
//! termination (Sections 3.2 and 4.2, Figures 3 and 5).
//!
//! Each QK-DPU multiplies a full-precision Q vector against one K vector
//! whose magnitudes arrive `B` bits per cycle, MSB first. After every cycle
//! the unit updates a conservative margin — the largest amount the remaining
//! unseen K bits could still add to the dot product, counting only the
//! element pairs whose signs agree — and compares `partial_sum + margin`
//! against the learned threshold. If the bound falls below the threshold the
//! score provably cannot survive pruning, so the remaining cycles (and the
//! corresponding key-buffer reads) are skipped. The mechanism is exact: a
//! score that would have survived is never terminated.

use crate::config::TileConfig;
use leopard_quant::bitserial::BitSerialVector;

/// Outcome of one dot-product computation in a QK-DPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DotProductOutcome {
    /// Cycles the DPU spent on this dot product (including the cycle on which
    /// termination was detected).
    pub cycles: u32,
    /// K magnitude bits actually processed.
    pub bits_processed: u32,
    /// Whether the computation terminated before all bits were processed.
    pub terminated_early: bool,
    /// Whether the score was pruned (below threshold). Early termination
    /// implies pruning; a fully computed score can also end up pruned.
    pub pruned: bool,
    /// The integer partial sum at the point the DPU stopped. For unpruned
    /// scores this is the exact integer dot product.
    pub partial_sum: i64,
}

/// A software model of one bit-serial QK dot-product unit.
#[derive(Debug, Clone)]
pub struct QkDpu {
    config: TileConfig,
}

impl QkDpu {
    /// Creates a DPU model for a tile configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: TileConfig) -> Self {
        #[expect(
            clippy::panic,
            reason = "constructor contract documented under # Panics; configs are validated at parse time and invalid ones here are programmer errors"
        )]
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid tile config: {e}"));
        Self { config }
    }

    /// The tile configuration this DPU follows.
    pub fn config(&self) -> &TileConfig {
        &self.config
    }

    /// Computes one dot product between a full-precision Q row and a
    /// bit-serial K column, terminating early when the margin proves the
    /// score cannot reach `threshold` (in the integer product domain).
    ///
    /// When the configuration disables early termination the full dot product
    /// is always computed; when it disables pruning entirely the threshold is
    /// ignored and the score is never marked pruned.
    ///
    /// # Panics
    ///
    /// Panics if `q_codes.len()` differs from the K vector length.
    pub fn compute(
        &self,
        q_codes: &[i32],
        k: &BitSerialVector,
        threshold: i64,
    ) -> DotProductOutcome {
        assert_eq!(q_codes.len(), k.len(), "Q and K dimension mismatch");
        let plan = k.plan();
        let total_cycles = if self.config.serial_bits >= self.config.k_bits {
            1
        } else {
            plan.total_cycles()
        };

        // Fully parallel (baseline) mode: one cycle, exact result.
        if self.config.serial_bits >= self.config.k_bits {
            let exact = k.full_dot(q_codes);
            let pruned = self.config.pruning_enabled && exact < threshold;
            return DotProductOutcome {
                cycles: 1,
                bits_processed: plan.magnitude_bits,
                terminated_early: false,
                pruned,
                partial_sum: exact,
            };
        }

        let early_termination = self.config.pruning_enabled && self.config.early_termination;
        for cycle in 1..=total_cycles {
            let partial = k.partial_dot(q_codes, cycle);
            if early_termination {
                let margin = k.margin(q_codes, cycle);
                if partial + margin < threshold {
                    return DotProductOutcome {
                        cycles: cycle,
                        bits_processed: plan.bits_after(cycle),
                        terminated_early: cycle < total_cycles,
                        pruned: true,
                        partial_sum: partial,
                    };
                }
            }
            if cycle == total_cycles {
                let pruned = self.config.pruning_enabled && partial < threshold;
                return DotProductOutcome {
                    cycles: total_cycles,
                    bits_processed: plan.magnitude_bits,
                    terminated_early: false,
                    pruned,
                    partial_sum: partial,
                };
            }
        }
        unreachable!("loop always returns on the last cycle")
    }
}

/// Reproduces the worked example of Figure 3: a four-element dot product with
/// `Q = [9, -5, 7, -2]`, `K = [+1/8, -7/8, -4/8, +2/8]` (three magnitude bits
/// per element), a threshold of 5, and one magnitude bit per cycle. Returns
/// the paper's per-cycle table as `(partial_sum, margin, terminate)` rows:
/// the first row is the sign-processing / margin-initialisation cycle
/// (`P = 0`, `M = 12.25`), the remaining rows follow each magnitude bit.
pub fn figure3_walkthrough() -> Vec<(f32, f32, bool)> {
    use leopard_quant::bitserial::BitSerialPlan;
    let q = [9i32, -5, 7, -2];
    // K values in eighths: +1, -7, -4, +2.
    let k_codes = [1i32, -7, -4, 2];
    let plan = BitSerialPlan::new(3, 1);
    let k = BitSerialVector::new(&k_codes, plan);
    let threshold = 5.0f32;
    let mut rows = Vec::new();
    // Cycle 1 of the paper: only the sign bits have been seen, so the partial
    // sum is zero and the margin covers every remaining magnitude bit.
    let init_margin = k.margin(&q, 0) as f32 / 8.0;
    rows.push((0.0, init_margin, init_margin < threshold));
    for cycle in 1..=plan.total_cycles() {
        let p = k.partial_dot(&q, cycle) as f32 / 8.0;
        let m = k.margin(&q, cycle) as f32 / 8.0;
        rows.push((p, m, p + m < threshold));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_quant::fixed::QuantParams;
    use leopard_tensor::rng;
    use proptest::prelude::*;

    fn make_dpu(config: TileConfig) -> QkDpu {
        QkDpu::new(config)
    }

    fn random_codes(n: usize, seed: u64, max: i32) -> Vec<i32> {
        use rand::Rng;
        let mut r = rng::seeded(seed);
        (0..n).map(|_| r.gen_range(-max..=max)).collect()
    }

    #[test]
    fn exactness_invariant_no_false_pruning() {
        // Core correctness claim of the paper: early termination never prunes
        // a score that would have survived.
        let dpu = make_dpu(TileConfig::ae_leopard());
        let plan = TileConfig::ae_leopard().bit_serial_plan();
        for seed in 0..50u64 {
            let q = random_codes(64, seed, 2047);
            let k_codes = random_codes(64, seed + 1000, 2047);
            let k = BitSerialVector::new(&k_codes, plan);
            let exact = k.full_dot(&q);
            let threshold = exact - 1; // the true score is above the threshold
            let outcome = dpu.compute(&q, &k, threshold);
            assert!(
                !outcome.pruned,
                "seed {seed}: pruned a surviving score (exact {exact}, th {threshold})"
            );
            assert_eq!(outcome.partial_sum, exact);
        }
    }

    #[test]
    fn clearly_below_threshold_scores_terminate_early() {
        let dpu = make_dpu(TileConfig::ae_leopard());
        let plan = TileConfig::ae_leopard().bit_serial_plan();
        // Q and K anti-correlated: dot product strongly negative.
        let q: Vec<i32> = (0..64)
            .map(|i| if i % 2 == 0 { 1500 } else { -1500 })
            .collect();
        let k_codes: Vec<i32> = (0..64)
            .map(|i| if i % 2 == 0 { -1200 } else { 1200 })
            .collect();
        let k = BitSerialVector::new(&k_codes, plan);
        let outcome = dpu.compute(&q, &k, 0);
        assert!(outcome.pruned);
        assert!(outcome.terminated_early);
        assert!(outcome.cycles < TileConfig::ae_leopard().full_dot_cycles());
        assert!(outcome.bits_processed < 11);
    }

    #[test]
    fn unpruned_scores_use_all_cycles_and_match_exact_dot() {
        let dpu = make_dpu(TileConfig::ae_leopard());
        let plan = TileConfig::ae_leopard().bit_serial_plan();
        let q = random_codes(64, 7, 2047);
        let k_codes = random_codes(64, 8, 2047);
        let k = BitSerialVector::new(&k_codes, plan);
        let outcome = dpu.compute(&q, &k, i64::MIN / 4);
        assert!(!outcome.pruned);
        assert!(!outcome.terminated_early);
        assert_eq!(outcome.cycles, 6);
        assert_eq!(outcome.partial_sum, k.full_dot(&q));
    }

    #[test]
    fn baseline_mode_is_single_cycle_and_never_prunes() {
        let dpu = make_dpu(TileConfig::baseline());
        let plan = TileConfig::baseline().bit_serial_plan();
        let q = random_codes(64, 9, 2047);
        let k_codes = random_codes(64, 10, 2047);
        let k = BitSerialVector::new(&k_codes, plan);
        let outcome = dpu.compute(&q, &k, i64::MAX / 4);
        assert_eq!(outcome.cycles, 1);
        assert!(!outcome.pruned, "baseline has no pruning");
        assert_eq!(outcome.partial_sum, k.full_dot(&q));
    }

    #[test]
    fn pruning_only_mode_prunes_but_never_terminates_early() {
        let dpu = make_dpu(TileConfig::pruning_only());
        let plan = TileConfig::pruning_only().bit_serial_plan();
        let q: Vec<i32> = vec![1000; 64];
        let k_codes: Vec<i32> = vec![-1000; 64];
        let k = BitSerialVector::new(&k_codes, plan);
        let outcome = dpu.compute(&q, &k, 0);
        assert!(outcome.pruned);
        assert!(!outcome.terminated_early);
        assert_eq!(outcome.cycles, TileConfig::pruning_only().full_dot_cycles());
    }

    #[test]
    fn higher_threshold_terminates_no_later() {
        let plan = TileConfig::ae_leopard().bit_serial_plan();
        let dpu = make_dpu(TileConfig::ae_leopard());
        let q = random_codes(64, 21, 2047);
        let k_codes = random_codes(64, 22, 2047);
        let k = BitSerialVector::new(&k_codes, plan);
        let low = dpu.compute(&q, &k, -100_000);
        let high = dpu.compute(&q, &k, 100_000);
        assert!(
            high.cycles <= low.cycles,
            "a stricter threshold cannot need more cycles"
        );
    }

    #[test]
    fn figure3_example_matches_papers_table() {
        let rows = figure3_walkthrough();
        assert_eq!(rows.len(), 4);
        // Cycle 1: P1 = 0, M1 = (9 + 5)(2^-1 + 2^-2 + 2^-3) = 12.25, continue.
        assert!((rows[0].0 - 0.0).abs() < 1e-6);
        assert!((rows[0].1 - 12.25).abs() < 1e-4);
        assert!(!rows[0].2, "cycle 1 must not terminate");
        // Cycle 2: P2 = -1, M2 = 5.25, P2 + M2 = 4.25 < 5 → terminate.
        let (p2, m2, stop2) = rows[1];
        assert!((p2 - (-1.0)).abs() < 1e-4, "P2 was {p2}");
        assert!((m2 - 5.25).abs() < 1e-4, "M2 was {m2}");
        assert!(stop2, "cycle 2 must terminate");
        // Cycles 3 and 4 of the paper (computed here for completeness):
        // P3 = -0.25, M3 = 1.75; P4 = 1.5, M4 = 0.
        assert!((rows[2].0 - (-0.25)).abs() < 1e-4);
        assert!((rows[2].1 - 1.75).abs() < 1e-4);
        assert!((rows[3].0 - 1.5).abs() < 1e-4);
        assert!((rows[3].1 - 0.0).abs() < 1e-6);
    }

    #[test]
    fn quantized_float_pipeline_prunes_consistently_with_float_comparison() {
        // Quantize float Q/K, pick a float threshold, and check the DPU's
        // pruning decision matches the float-domain comparison for scores
        // away from the threshold (within quantization error it may differ).
        let cfg = TileConfig::ae_leopard();
        let dpu = make_dpu(cfg);
        let plan = cfg.bit_serial_plan();
        let mut r = rng::seeded(33);
        let d = 64usize;
        let qf = rng::normal_matrix(&mut r, 32, d, 0.0, 1.0);
        let kf = rng::normal_matrix(&mut r, 32, d, 0.0, 1.0);
        let qp = QuantParams::calibrate(cfg.q_bits, &qf);
        let kp = QuantParams::calibrate(cfg.k_bits, &kf);
        let qq = qp.quantize_matrix(&qf);
        let kq = kp.quantize_matrix(&kf);
        let scale = qq.product_scale(&kq) / (d as f32).sqrt();
        let threshold_real = 0.25f32;
        let threshold_int = (threshold_real / scale).round() as i64;

        let mut checked = 0;
        for i in 0..32 {
            let kvec = BitSerialVector::new(kq.row(i), plan);
            let outcome = dpu.compute(qq.row(i), &kvec, threshold_int);
            let float_score: f32 = qf
                .row(i)
                .iter()
                .zip(kf.row(i).iter())
                .map(|(a, b)| a * b)
                .sum::<f32>()
                / (d as f32).sqrt();
            if (float_score - threshold_real).abs() > 0.05 {
                checked += 1;
                assert_eq!(
                    outcome.pruned,
                    float_score < threshold_real,
                    "row {i}: float score {float_score} vs threshold {threshold_real}"
                );
            }
        }
        assert!(checked > 20, "most rows should be away from the threshold");
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_lengths_panic() {
        let dpu = make_dpu(TileConfig::ae_leopard());
        let plan = TileConfig::ae_leopard().bit_serial_plan();
        let k = BitSerialVector::new(&[1, 2, 3], plan);
        let _ = dpu.compute(&[1, 2], &k, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Property: the early-termination decision is *exact* — whenever the
        /// DPU prunes, the true dot product really is below the threshold.
        #[test]
        fn prop_pruning_is_never_wrong(
            pairs in proptest::collection::vec((-2047i32..=2047, -2047i32..=2047), 8..64),
            threshold in -200_000i64..200_000,
            serial_bits in 1u32..=4,
        ) {
            let cfg = TileConfig::ae_leopard().with_serial_bits(serial_bits);
            let dpu = QkDpu::new(cfg);
            let plan = cfg.bit_serial_plan();
            let q: Vec<i32> = pairs.iter().map(|p| p.0).collect();
            let k_codes: Vec<i32> = pairs.iter().map(|p| p.1).collect();
            let k = BitSerialVector::new(&k_codes, plan);
            let exact = k.full_dot(&q);
            let outcome = dpu.compute(&q, &k, threshold);
            if outcome.pruned {
                prop_assert!(exact < threshold, "pruned but exact {exact} >= threshold {threshold}");
            } else {
                prop_assert!(exact >= threshold);
                prop_assert_eq!(outcome.partial_sum, exact);
            }
        }

        /// Property: cycle count is within the configured bound.
        #[test]
        fn prop_cycles_bounded(
            pairs in proptest::collection::vec((-2047i32..=2047, -2047i32..=2047), 8..64),
            threshold in -200_000i64..200_000,
        ) {
            let cfg = TileConfig::ae_leopard();
            let dpu = QkDpu::new(cfg);
            let q: Vec<i32> = pairs.iter().map(|p| p.0).collect();
            let k_codes: Vec<i32> = pairs.iter().map(|p| p.1).collect();
            let k = BitSerialVector::new(&k_codes, cfg.bit_serial_plan());
            let outcome = dpu.compute(&q, &k, threshold);
            prop_assert!(outcome.cycles >= 1);
            prop_assert!(outcome.cycles <= cfg.full_dot_cycles());
        }
    }
}
