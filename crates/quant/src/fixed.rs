//! Symmetric fixed-point quantization.
//!
//! Post-training quantization in the paper uses 12 bits for the Q/K operands
//! of the front-end and 16 bits for the back-end (`·V`) operands. The scheme
//! here is plain symmetric linear quantization: a real value `x` maps to
//! `round(x / scale)` clamped into the signed `n`-bit range. Scores produced
//! by a quantized dot product live in the *product* domain (`scale_q *
//! scale_k`), and the learned threshold must be mapped into that same domain
//! before the accelerator can compare against partial sums — helpers for both
//! directions are provided.

use leopard_tensor::Matrix;

/// Parameters of a symmetric linear quantizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantParams {
    /// Total bit width including the sign bit.
    pub bits: u32,
    /// Real value represented by one integer step.
    pub scale: f32,
}

impl QuantParams {
    /// Creates quantization parameters for a given bit width such that
    /// `max_abs` maps to the largest representable magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `2..=31` or `max_abs` is not positive and
    /// finite.
    pub fn from_max_abs(bits: u32, max_abs: f32) -> Self {
        assert!((2..=31).contains(&bits), "bits must be in 2..=31");
        assert!(
            max_abs.is_finite() && max_abs > 0.0,
            "max_abs must be positive and finite"
        );
        let max_code = ((1i64 << (bits - 1)) - 1) as f32;
        Self {
            bits,
            scale: max_abs / max_code,
        }
    }

    /// Creates quantization parameters calibrated to the maximum absolute
    /// value of `m` (falling back to 1.0 for an all-zero matrix).
    pub fn calibrate(bits: u32, m: &Matrix) -> Self {
        let max_abs = m.iter().fold(0.0f32, |acc, &v| acc.max(v.abs()));
        Self::from_max_abs(bits, if max_abs > 0.0 { max_abs } else { 1.0 })
    }

    /// Largest representable positive code (`2^(bits-1) - 1`).
    pub fn max_code(&self) -> i32 {
        ((1i64 << (self.bits - 1)) - 1) as i32
    }

    /// Quantizes a single value (round-to-nearest, clamped).
    pub fn quantize(&self, x: f32) -> i32 {
        let code = (x / self.scale).round();
        code.clamp(-(self.max_code() as f32), self.max_code() as f32) as i32
    }

    /// Dequantizes a single code.
    pub fn dequantize(&self, code: i32) -> f32 {
        code as f32 * self.scale
    }

    /// Quantizes a whole matrix.
    pub fn quantize_matrix(&self, m: &Matrix) -> QuantizedMatrix {
        QuantizedMatrix {
            rows: m.rows(),
            cols: m.cols(),
            codes: m.iter().map(|&v| self.quantize(v)).collect(),
            params: *self,
        }
    }

    /// Worst-case absolute quantization error (half a step).
    pub fn max_error(&self) -> f32 {
        self.scale * 0.5
    }
}

/// A quantized matrix: integer codes plus the quantizer that produced them.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    codes: Vec<i32>,
    params: QuantParams,
}

impl QuantizedMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row `r` as a slice of codes.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[i32] {
        assert!(r < self.rows, "row out of bounds");
        &self.codes[r * self.cols..(r + 1) * self.cols]
    }

    /// Scale of the product domain when multiplying codes from `self` with
    /// codes from `other` (e.g. a `Q·Kᵀ` score).
    pub fn product_scale(&self, other: &QuantizedMatrix) -> f32 {
        self.params.scale * other.params.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leopard_tensor::rng;
    use proptest::prelude::*;

    #[test]
    fn round_trip_error_is_bounded() {
        let params = QuantParams::from_max_abs(12, 2.0);
        for &x in &[0.0f32, 0.5, -1.7, 1.999, -2.0] {
            let err = (params.dequantize(params.quantize(x)) - x).abs();
            assert!(
                err <= params.max_error() + 1e-6,
                "error {err} too large for {x}"
            );
        }
    }

    #[test]
    fn clamping_at_extremes() {
        let params = QuantParams::from_max_abs(8, 1.0);
        assert_eq!(params.quantize(10.0), params.max_code());
        assert_eq!(params.quantize(-10.0), -params.max_code());
        assert_eq!(params.max_code(), 127);
    }

    #[test]
    fn calibrate_uses_max_abs() {
        let m = Matrix::from_rows(&[vec![0.1, -3.0, 2.0]]);
        let params = QuantParams::calibrate(12, &m);
        assert_eq!(params.quantize(-3.0), -params.max_code());
        let zero = QuantParams::calibrate(12, &Matrix::zeros(2, 2));
        assert!(zero.scale > 0.0);
    }

    #[test]
    fn quantized_matrix_access_and_dequantize() {
        let m = Matrix::from_rows(&[vec![0.5, -0.25], vec![1.0, 0.0]]);
        let params = QuantParams::from_max_abs(12, 1.0);
        let q = params.quantize_matrix(&m);
        assert_eq!(q.rows(), 2);
        assert_eq!(q.row(1)[0], params.max_code());
        for r in 0..2 {
            assert_eq!(q.row(r).len(), 2);
            for (&code, &x) in q.row(r).iter().zip(m.row(r)) {
                assert!((params.dequantize(code) - x).abs() <= params.max_error() + 1e-6);
            }
        }
    }

    #[test]
    fn integer_dot_product_matches_float_within_quantization_error() {
        let mut r = rng::seeded(3);
        let a = rng::normal_matrix(&mut r, 4, 64, 0.0, 1.0);
        let b = rng::normal_matrix(&mut r, 4, 64, 0.0, 1.0);
        let pa = QuantParams::calibrate(12, &a);
        let pb = QuantParams::calibrate(12, &b);
        let qa = pa.quantize_matrix(&a);
        let qb = pb.quantize_matrix(&b);
        for i in 0..4 {
            let float_dot: f32 = a.row(i).iter().zip(b.row(i)).map(|(x, y)| x * y).sum();
            let int_dot: i64 = qa
                .row(i)
                .iter()
                .zip(qb.row(i))
                .map(|(&x, &y)| i64::from(x) * i64::from(y))
                .sum();
            let reconstructed = int_dot as f32 * qa.product_scale(&qb);
            assert!(
                (float_dot - reconstructed).abs() < 0.05 * float_dot.abs().max(1.0),
                "row {i}: {float_dot} vs {reconstructed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bits must be in 2..=31")]
    fn silly_bit_width_panics() {
        let _ = QuantParams::from_max_abs(1, 1.0);
    }

    proptest! {
        #[test]
        fn prop_quantize_dequantize_error_bounded(x in -10.0f32..10.0) {
            let params = QuantParams::from_max_abs(12, 10.0);
            let err = (params.dequantize(params.quantize(x)) - x).abs();
            prop_assert!(err <= params.max_error() + 1e-5);
        }

        #[test]
        fn prop_quantize_is_monotonic(a in -5.0f32..5.0, b in -5.0f32..5.0) {
            let params = QuantParams::from_max_abs(12, 5.0);
            if a <= b {
                prop_assert!(params.quantize(a) <= params.quantize(b));
            } else {
                prop_assert!(params.quantize(a) >= params.quantize(b));
            }
        }

        #[test]
        fn prop_codes_stay_in_range(x in -100.0f32..100.0, bits in 4u32..16) {
            let params = QuantParams::from_max_abs(bits, 1.5);
            let code = params.quantize(x);
            prop_assert!(code.abs() <= params.max_code());
        }
    }
}
