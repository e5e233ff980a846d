//! Sign-magnitude representation of quantized values.
//!
//! The margin calculation of the early-termination mechanism (Section 3.2 and
//! Figure 5b of the paper) operates on signs and magnitudes: products of
//! operands with concordant signs can only *raise* the final dot product, so
//! the conservative margin sums the magnitudes of the Q elements whose sign
//! agrees with the corresponding K element's sign. Representing K in
//! sign-magnitude form also makes the MSB-first bit-serial decomposition
//! straightforward, because the magnitude bits can be streamed independently
//! of the sign.

/// A signed integer split into an explicit sign and magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignMagnitude {
    /// `true` when the value is negative. Zero is represented as positive.
    pub negative: bool,
    /// Absolute value.
    pub magnitude: u32,
}

impl SignMagnitude {
    /// Splits a two's-complement integer into sign and magnitude.
    pub fn from_code(code: i32) -> Self {
        Self {
            negative: code < 0,
            magnitude: code.unsigned_abs(),
        }
    }

    /// Reassembles the signed integer.
    pub fn to_code(self) -> i32 {
        if self.negative {
            -(self.magnitude as i32)
        } else {
            self.magnitude as i32
        }
    }
}

impl From<i32> for SignMagnitude {
    fn from(code: i32) -> Self {
        Self::from_code(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn split_and_reassemble() {
        for &code in &[0i32, 1, -1, 127, -128, 2047, -2047] {
            let sm = SignMagnitude::from_code(code);
            assert_eq!(sm.to_code(), code);
        }
    }

    #[test]
    fn zero_is_positive() {
        let sm = SignMagnitude::from_code(0);
        assert!(!sm.negative);
        assert_eq!(sm.magnitude, 0);
    }

    proptest! {
        #[test]
        fn prop_round_trip(code in -100_000i32..100_000) {
            prop_assert_eq!(SignMagnitude::from_code(code).to_code(), code);
        }
    }
}
