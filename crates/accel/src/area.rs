//! Area model (Figure 12 and the iso-area comparison argument).
//!
//! The prototype layout of AE-LeOPArd occupies 2.3 x 2.8 mm² in a 65 nm
//! process, split across QK logic (38%), softmax (13%), the value buffer
//! (18%), the key buffer (16%), and the `·V` logic (15%). The model here
//! treats the QK-logic area as proportional to the number of bit-serial DPUs
//! (six of them together matching one full-precision baseline DPU) and the
//! SRAM areas as proportional to their capacities, which is what the paper's
//! iso-area argument relies on: AE-LeOPArd (6 DPUs) matches the baseline to
//! within 0.2%, HP-LeOPArd (8 DPUs) costs ~15% more.

use crate::config::TileConfig;

/// Total layout area of the AE-LeOPArd prototype in mm² (2.3 x 2.8, 65 nm).
pub const AE_LAYOUT_AREA_MM2: f64 = 2.3 * 2.8;

/// Area shares of the AE-LeOPArd layout (Figure 12b).
pub const AE_AREA_SHARES: [(&str, f64); 5] = [
    ("QxK logic", 0.38),
    ("Softmax", 0.13),
    ("Value buffer (64KB)", 0.18),
    ("Key buffer (48KB)", 0.16),
    ("xV logic", 0.15),
];

/// Per-component area estimate of one configuration, in mm² (65 nm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBreakdown {
    /// Front-end QK dot-product logic.
    pub qk_logic: f64,
    /// Softmax unit.
    pub softmax: f64,
    /// Value buffer SRAM.
    pub value_buffer: f64,
    /// Key buffer SRAM.
    pub key_buffer: f64,
    /// Back-end `·V` MAC array.
    pub v_logic: f64,
}

impl AreaBreakdown {
    /// Total area in mm².
    pub fn total(&self) -> f64 {
        self.qk_logic + self.softmax + self.value_buffer + self.key_buffer + self.v_logic
    }

    /// Components as `(label, mm²)` pairs in Figure 12 order.
    pub fn components(&self) -> [(&'static str, f64); 5] {
        [
            ("QxK logic", self.qk_logic),
            ("Softmax", self.softmax),
            ("Value buffer (64KB)", self.value_buffer),
            ("Key buffer (48KB)", self.key_buffer),
            ("xV logic", self.v_logic),
        ]
    }

    /// Shares of each component relative to the total.
    pub fn shares(&self) -> [f64; 5] {
        let t = self.total();
        if t <= 0.0 {
            return [0.0; 5];
        }
        [
            self.qk_logic / t,
            self.softmax / t,
            self.value_buffer / t,
            self.key_buffer / t,
            self.v_logic / t,
        ]
    }
}

/// Area model anchored to the AE-LeOPArd layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Area of one bit-serial (12x2) QK-DPU including its share of control.
    pub serial_dpu_mm2: f64,
    /// Area of one full-precision (12x12) baseline DPU.
    pub full_dpu_mm2: f64,
    /// Softmax unit area.
    pub softmax_mm2: f64,
    /// Value-buffer area per KiB.
    pub value_buffer_mm2_per_kb: f64,
    /// Key-buffer area per KiB.
    pub key_buffer_mm2_per_kb: f64,
    /// `·V` MAC array area.
    pub v_logic_mm2: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

impl AreaModel {
    /// Model calibrated so AE-LeOPArd reproduces the Figure 12 breakdown and
    /// the 2.3 x 2.8 mm² total.
    pub fn calibrated() -> Self {
        let total = AE_LAYOUT_AREA_MM2;
        let qk_logic = 0.38 * total; // six bit-serial DPUs
        Self {
            serial_dpu_mm2: qk_logic / 6.0,
            // The iso-area argument: one 12x12 DPU ≈ six 12x2 DPUs.
            full_dpu_mm2: qk_logic,
            softmax_mm2: 0.13 * total,
            value_buffer_mm2_per_kb: 0.18 * total / 64.0,
            key_buffer_mm2_per_kb: 0.16 * total / 48.0,
            v_logic_mm2: 0.15 * total,
        }
    }

    /// Area estimate of a tile configuration.
    pub fn breakdown(&self, config: &TileConfig) -> AreaBreakdown {
        let qk_logic = if config.serial_bits >= config.k_bits {
            // Fully parallel DPUs (the baseline uses one of them).
            self.full_dpu_mm2 * config.n_qk_dpu as f64
        } else {
            self.serial_dpu_mm2 * config.n_qk_dpu as f64
        };
        AreaBreakdown {
            qk_logic,
            softmax: self.softmax_mm2,
            value_buffer: self.value_buffer_mm2_per_kb * config.value_buffer_kb as f64,
            key_buffer: self.key_buffer_mm2_per_kb * config.key_buffer_kb as f64,
            v_logic: self.v_logic_mm2,
        }
    }

    /// Total area of a configuration in mm².
    pub fn total(&self, config: &TileConfig) -> f64 {
        self.breakdown(config).total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ae_breakdown_matches_figure12() {
        let model = AreaModel::calibrated();
        let ae = model.breakdown(&TileConfig::ae_leopard());
        assert!((ae.total() - AE_LAYOUT_AREA_MM2).abs() < 0.01);
        let shares = ae.shares();
        let expected = [0.38, 0.13, 0.18, 0.16, 0.15];
        for (i, (&s, &e)) in shares.iter().zip(expected.iter()).enumerate() {
            assert!((s - e).abs() < 0.01, "component {i}: {s} vs {e}");
        }
    }

    #[test]
    fn iso_area_argument_holds() {
        let model = AreaModel::calibrated();
        let ae = model.total(&TileConfig::ae_leopard());
        let base = model.total(&TileConfig::baseline());
        let diff = (ae - base).abs() / base;
        assert!(
            diff < 0.005,
            "AE vs baseline area difference {diff} too large"
        );
    }

    #[test]
    fn hp_costs_roughly_fifteen_percent_more() {
        let model = AreaModel::calibrated();
        let ae = model.total(&TileConfig::ae_leopard());
        let hp = model.total(&TileConfig::hp_leopard());
        let overhead = hp / ae - 1.0;
        assert!(
            (0.08..0.20).contains(&overhead),
            "HP overhead {overhead} outside the ~15% band"
        );
    }

    #[test]
    fn component_labels_are_stable() {
        let model = AreaModel::calibrated();
        let labels: Vec<&str> = model
            .breakdown(&TileConfig::ae_leopard())
            .components()
            .iter()
            .map(|(l, _)| *l)
            .collect();
        let expected: Vec<&str> = AE_AREA_SHARES.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, expected);
    }

    #[test]
    fn empty_breakdown_shares_are_zero() {
        let b = AreaBreakdown {
            qk_logic: 0.0,
            softmax: 0.0,
            value_buffer: 0.0,
            key_buffer: 0.0,
            v_logic: 0.0,
        };
        assert_eq!(b.shares(), [0.0; 5]);
    }
}
