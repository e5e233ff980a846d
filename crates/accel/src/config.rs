//! Tile microarchitecture configuration (Table 1 of the paper).
//!
//! A LeOPArd tile couples a front-end of `N_QK` bit-serial dot-product units
//! (each 64 taps wide, consuming 12-bit Q against 2 bits of K per cycle) with
//! a single back-end V-PU (a 64-way 16x16-bit MAC array fed by a LUT-based
//! softmax). Two studied configurations differ only in `N_QK`: six DPUs match
//! the baseline's chip area (AE-LeOPArd) and eight DPUs trade 15% more area
//! for better back-end utilization (HP-LeOPArd).

use leopard_quant::bitserial::BitSerialPlan;

/// Microarchitectural parameters of one LeOPArd tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileConfig {
    /// Human-readable configuration name.
    pub name: &'static str,
    /// Number of bit-serial QK dot-product units (`N_QK`).
    pub n_qk_dpu: usize,
    /// Vector width of each DPU (the head dimension `d`, 64 in Table 1).
    pub dpu_taps: usize,
    /// Bit width of the Q operands (full precision, 12 in the paper).
    pub q_bits: u32,
    /// Bit width of the K operands (12 in the paper).
    pub k_bits: u32,
    /// Bits of K processed per cycle (`B`, 2 in the paper; 12 means fully
    /// parallel, i.e. no bit-serial execution).
    pub serial_bits: u32,
    /// Bit width of the back-end V operands (16 in the paper).
    pub v_bits: u32,
    /// Whether runtime pruning against the learned threshold is enabled.
    pub pruning_enabled: bool,
    /// Whether bit-level early termination is enabled (requires pruning).
    pub early_termination: bool,
    /// Key buffer capacity in KiB (48 in Table 1).
    pub key_buffer_kb: usize,
    /// Value buffer capacity in KiB (64 in Table 1).
    pub value_buffer_kb: usize,
    /// Score FIFO depth (512 entries in Table 1).
    pub score_fifo_depth: usize,
    /// Clock frequency in MHz (800 in the paper).
    pub frequency_mhz: u32,
    /// Number of tiles in the accelerator (the prototype lays out two).
    pub tiles: usize,
}

impl TileConfig {
    /// Area-Efficient LeOPArd: six bit-serial DPUs, matching the baseline's
    /// area to within 0.2%.
    pub fn ae_leopard() -> Self {
        Self {
            name: "AE-LeOPArd",
            n_qk_dpu: 6,
            dpu_taps: 64,
            q_bits: 12,
            k_bits: 12,
            serial_bits: 2,
            v_bits: 16,
            pruning_enabled: true,
            early_termination: true,
            key_buffer_kb: 48,
            value_buffer_kb: 64,
            score_fifo_depth: 512,
            frequency_mhz: 800,
            tiles: 2,
        }
    }

    /// Highly-Parallel LeOPArd: eight bit-serial DPUs, 15% more area than the
    /// baseline but better front/back-end balance.
    pub fn hp_leopard() -> Self {
        Self {
            name: "HP-LeOPArd",
            n_qk_dpu: 8,
            ..Self::ae_leopard()
        }
    }

    /// The unpruned baseline: a single full-precision 12x12-bit DPU (one dot
    /// product per cycle), no pruning, no early termination, same back-end
    /// and buffer capacities.
    pub fn baseline() -> Self {
        Self {
            name: "Baseline",
            n_qk_dpu: 1,
            serial_bits: 12,
            pruning_enabled: false,
            early_termination: false,
            ..Self::ae_leopard()
        }
    }

    /// A pruning-only ablation: full-precision dot products (no bit-serial
    /// early termination) but back-end work skipped for pruned scores.
    /// This is the "LeOPArd-P" configuration of Figure 11.
    pub fn pruning_only() -> Self {
        Self {
            name: "LeOPArd-P",
            early_termination: false,
            ..Self::ae_leopard()
        }
    }

    /// Returns a copy with a different number of QK-DPUs (used by the
    /// Figure 13 design-space sweep).
    pub fn with_n_qk(mut self, n_qk: usize) -> Self {
        assert!(n_qk > 0, "need at least one QK-DPU");
        self.n_qk_dpu = n_qk;
        self
    }

    /// Returns a copy with a different bit-serial granularity `B` (used by
    /// the Figure 14 sweep). `B` must divide into the K width sensibly.
    pub fn with_serial_bits(mut self, serial_bits: u32) -> Self {
        assert!(
            serial_bits >= 1 && serial_bits <= self.k_bits,
            "serial bits must be in 1..=k_bits"
        );
        self.serial_bits = serial_bits;
        self
    }

    /// Returns a copy with reduced Q/K precision (the 9-bit variant used for
    /// the head-to-head comparison with A³ in Table 2).
    pub fn with_qk_bits(mut self, bits: u32) -> Self {
        assert!((4..=16).contains(&bits), "qk bits must be in 4..=16");
        self.q_bits = bits;
        self.k_bits = bits;
        self.serial_bits = self.serial_bits.min(bits);
        self
    }

    /// The bit-serial schedule K magnitudes follow under this configuration
    /// (one sign bit, the rest magnitude).
    pub fn bit_serial_plan(&self) -> BitSerialPlan {
        BitSerialPlan::new(self.k_bits - 1, self.serial_bits.min(self.k_bits - 1))
    }

    /// Cycles one DPU needs for a full-precision (never terminated) dot
    /// product.
    pub fn full_dot_cycles(&self) -> u32 {
        if self.serial_bits >= self.k_bits {
            1
        } else {
            self.bit_serial_plan().total_cycles()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_qk_dpu == 0 {
            return Err("n_qk_dpu must be positive".into());
        }
        if self.dpu_taps == 0 {
            return Err("dpu_taps must be positive".into());
        }
        if self.q_bits < 2 || self.k_bits < 2 || self.v_bits < 2 {
            return Err("operand widths must be at least 2 bits".into());
        }
        if self.serial_bits == 0 || self.serial_bits > self.k_bits {
            return Err("serial_bits must be in 1..=k_bits".into());
        }
        if self.early_termination && !self.pruning_enabled {
            return Err("early termination requires pruning".into());
        }
        Ok(())
    }
}

impl Default for TileConfig {
    fn default() -> Self {
        Self::ae_leopard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_presets_match_paper() {
        let ae = TileConfig::ae_leopard();
        assert_eq!(ae.n_qk_dpu, 6);
        assert_eq!(ae.dpu_taps, 64);
        assert_eq!(ae.q_bits, 12);
        assert_eq!(ae.serial_bits, 2);
        assert_eq!(ae.v_bits, 16);
        assert_eq!(ae.key_buffer_kb, 48);
        assert_eq!(ae.value_buffer_kb, 64);
        assert_eq!(ae.frequency_mhz, 800);

        let hp = TileConfig::hp_leopard();
        assert_eq!(hp.n_qk_dpu, 8);
        assert_eq!(hp.q_bits, 12);

        let base = TileConfig::baseline();
        assert_eq!(base.n_qk_dpu, 1);
        assert!(!base.pruning_enabled);
        assert!(!base.early_termination);
        assert_eq!(base.full_dot_cycles(), 1);
    }

    #[test]
    fn bit_serial_plan_has_six_cycles_at_2bit() {
        let ae = TileConfig::ae_leopard();
        assert_eq!(ae.full_dot_cycles(), 6);
        assert_eq!(ae.bit_serial_plan().magnitude_bits, 11);
    }

    #[test]
    fn sweeps_produce_valid_configs() {
        for n in [3, 4, 5, 6, 8, 12] {
            assert_eq!(TileConfig::ae_leopard().with_n_qk(n).validate(), Ok(()));
        }
        for b in [1, 2, 4, 12] {
            let cfg = TileConfig::ae_leopard().with_serial_bits(b);
            assert_eq!(cfg.validate(), Ok(()));
            if b == 12 {
                assert_eq!(cfg.full_dot_cycles(), 1);
            }
        }
        let nine_bit = TileConfig::hp_leopard().with_qk_bits(9);
        assert_eq!(nine_bit.q_bits, 9);
        assert_eq!(nine_bit.validate(), Ok(()));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = TileConfig::ae_leopard();
        cfg.pruning_enabled = false;
        assert!(cfg.validate().is_err(), "early termination without pruning");
        let mut cfg = TileConfig::baseline();
        cfg.serial_bits = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn pruning_only_preset_disables_early_termination_only() {
        let p = TileConfig::pruning_only();
        assert!(p.pruning_enabled);
        assert!(!p.early_termination);
        assert_eq!(p.n_qk_dpu, 6);
    }

    #[test]
    #[should_panic(expected = "at least one QK-DPU")]
    fn zero_dpus_panics() {
        let _ = TileConfig::ae_leopard().with_n_qk(0);
    }
}
