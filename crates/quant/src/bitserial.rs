//! MSB-first bit-serial decomposition of key vectors.
//!
//! The LeOPArd front-end streams K magnitudes `B` bits per cycle, most
//! significant bits first, while Q stays at full precision. After a group of
//! bits has been processed, the partial dot product only accounts for the bits
//! seen so far; the *maximum* value the remaining (unseen) bits could add to a
//! single element's magnitude is `2^(remaining_bits) - 1`. That quantity feeds
//! the conservative margin: elements whose Q and K signs agree could still
//! raise the dot product by at most `|q| * (2^remaining - 1)`.

use crate::signmag::SignMagnitude;

/// Static description of a bit-serial schedule: how many magnitude bits a key
/// element has and how many are consumed per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitSerialPlan {
    /// Total number of magnitude bits (excluding the sign bit).
    pub magnitude_bits: u32,
    /// Bits consumed per cycle (`B`; the paper settles on 2).
    pub bits_per_cycle: u32,
}

impl BitSerialPlan {
    /// Creates a plan.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_cycle` is zero or exceeds `magnitude_bits`, or if
    /// `magnitude_bits` exceeds 31.
    pub fn new(magnitude_bits: u32, bits_per_cycle: u32) -> Self {
        assert!(
            magnitude_bits > 0 && magnitude_bits <= 31,
            "magnitude bits in 1..=31"
        );
        assert!(
            bits_per_cycle > 0 && bits_per_cycle <= magnitude_bits,
            "bits per cycle must be in 1..=magnitude_bits"
        );
        Self {
            magnitude_bits,
            bits_per_cycle,
        }
    }

    /// The plan the paper's configuration uses for K: 12-bit operands → 11
    /// magnitude bits, processed 2 bits per cycle.
    pub fn paper_default() -> Self {
        Self::new(11, 2)
    }

    /// Number of cycles needed to stream every magnitude bit.
    #[inline]
    pub fn total_cycles(&self) -> u32 {
        self.magnitude_bits.div_ceil(self.bits_per_cycle)
    }

    /// Number of magnitude bits already consumed after `cycles` cycles.
    #[inline]
    pub fn bits_after(&self, cycles: u32) -> u32 {
        (cycles * self.bits_per_cycle).min(self.magnitude_bits)
    }

    /// Number of magnitude bits still unseen after `cycles` cycles.
    #[inline]
    pub fn remaining_bits(&self, cycles: u32) -> u32 {
        self.magnitude_bits - self.bits_after(cycles)
    }

    /// Maximum value the unseen bits of a single element can still add to its
    /// magnitude after `cycles` cycles: `2^remaining - 1`.
    #[inline]
    pub fn max_remaining_magnitude(&self, cycles: u32) -> u32 {
        let remaining = self.remaining_bits(cycles);
        if remaining == 0 {
            0
        } else {
            (1u32 << remaining) - 1
        }
    }
}

/// A key vector decomposed for bit-serial processing: per-element signs plus
/// magnitudes that can be replayed a few MSBs at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSerialVector {
    plan: BitSerialPlan,
    elements: Vec<SignMagnitude>,
}

impl BitSerialVector {
    /// Decomposes a slice of quantized codes.
    ///
    /// # Panics
    ///
    /// Panics if any magnitude does not fit in the plan's magnitude bits.
    pub fn new(codes: &[i32], plan: BitSerialPlan) -> Self {
        let max_mag = if plan.magnitude_bits >= 31 {
            u32::MAX
        } else {
            (1u32 << plan.magnitude_bits) - 1
        };
        let elements = codes
            .iter()
            .map(|&c| {
                let sm = SignMagnitude::from_code(c);
                assert!(
                    sm.magnitude <= max_mag,
                    "magnitude {} does not fit in {} bits",
                    sm.magnitude,
                    plan.magnitude_bits
                );
                sm
            })
            .collect();
        Self { plan, elements }
    }

    /// The schedule this vector was decomposed with.
    pub fn plan(&self) -> BitSerialPlan {
        self.plan
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the vector has no elements.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The portion of element `i`'s magnitude visible after `cycles` cycles:
    /// its top `bits_after(cycles)` bits, shifted back into place (the low
    /// unseen bits read as zero).
    pub fn partial_magnitude(&self, i: usize, cycles: u32) -> u32 {
        let seen = self.plan.bits_after(cycles);
        if seen == 0 {
            return 0;
        }
        let unseen = self.plan.magnitude_bits - seen;
        (self.elements[i].magnitude >> unseen) << unseen
    }

    /// The signed partial value of element `i` after `cycles` cycles.
    pub fn partial_code(&self, i: usize, cycles: u32) -> i64 {
        let mag = self.partial_magnitude(i, cycles) as i64;
        if self.elements[i].negative {
            -mag
        } else {
            mag
        }
    }

    /// Exact partial dot product with a full-precision Q vector after
    /// `cycles` cycles of K bits have been processed.
    ///
    /// # Panics
    ///
    /// Panics if `q_codes.len()` differs from the vector length.
    pub fn partial_dot(&self, q_codes: &[i32], cycles: u32) -> i64 {
        assert_eq!(q_codes.len(), self.len(), "dimension mismatch");
        q_codes
            .iter()
            .enumerate()
            .map(|(i, &q)| q as i64 * self.partial_code(i, cycles))
            .sum()
    }

    /// The full-precision dot product (all bits processed).
    pub fn full_dot(&self, q_codes: &[i32]) -> i64 {
        self.partial_dot(q_codes, self.plan.total_cycles())
    }

    /// Conservative margin after `cycles` cycles for a given Q vector: the
    /// maximum amount the dot product could still increase, i.e. the sum over
    /// *concordant-sign* pairs of `|q| * max_remaining_magnitude`. Discordant
    /// pairs are ignored because they can only lower the result (Figure 3).
    ///
    /// # Panics
    ///
    /// Panics if `q_codes.len()` differs from the vector length.
    pub fn margin(&self, q_codes: &[i32], cycles: u32) -> i64 {
        assert_eq!(q_codes.len(), self.len(), "dimension mismatch");
        let per_element = self.plan.max_remaining_magnitude(cycles) as i64;
        if per_element == 0 {
            return 0;
        }
        q_codes
            .iter()
            .enumerate()
            .filter(|(i, &q)| {
                let k = self.elements[*i];
                q != 0 && k.magnitude != 0 && (q < 0) == k.negative
            })
            .map(|(_, &q)| (q.unsigned_abs() as i64) * per_element)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn plan_cycle_arithmetic() {
        let plan = BitSerialPlan::new(11, 2);
        assert_eq!(plan.total_cycles(), 6);
        assert_eq!(plan.bits_after(0), 0);
        assert_eq!(plan.bits_after(1), 2);
        assert_eq!(plan.bits_after(6), 11);
        assert_eq!(plan.remaining_bits(5), 1);
        assert_eq!(plan.max_remaining_magnitude(0), (1 << 11) - 1);
        assert_eq!(plan.max_remaining_magnitude(6), 0);
        assert_eq!(BitSerialPlan::paper_default(), plan);
    }

    #[test]
    #[should_panic(expected = "bits per cycle")]
    fn invalid_plan_panics() {
        let _ = BitSerialPlan::new(4, 0);
    }

    #[test]
    fn partial_magnitude_reveals_msbs_first() {
        let plan = BitSerialPlan::new(8, 2);
        // magnitude 0b1011_0110 = 182
        let v = BitSerialVector::new(&[182], plan);
        assert_eq!(v.partial_magnitude(0, 0), 0);
        assert_eq!(v.partial_magnitude(0, 1), 0b1000_0000);
        assert_eq!(v.partial_magnitude(0, 2), 0b1011_0000);
        assert_eq!(v.partial_magnitude(0, 3), 0b1011_0100);
        assert_eq!(v.partial_magnitude(0, 4), 182);
    }

    #[test]
    fn partial_dot_converges_to_exact_dot() {
        let plan = BitSerialPlan::new(11, 2);
        let k_codes = vec![1000, -731, 512, -3];
        let q_codes = vec![9, -5, 7, -2];
        let v = BitSerialVector::new(&k_codes, plan);
        let exact: i64 = k_codes
            .iter()
            .zip(q_codes.iter())
            .map(|(&k, &q)| k as i64 * q as i64)
            .sum();
        assert_eq!(v.full_dot(&q_codes), exact);
        // Monotone refinement: each cycle adds information.
        let mut prev_err = i64::MAX;
        for cyc in 0..=plan.total_cycles() {
            let err = (v.partial_dot(&q_codes, cyc) - exact).abs();
            assert!(err <= prev_err.max(0) || cyc == 0, "error should not grow");
            prev_err = err;
        }
    }

    #[test]
    fn margin_is_conservative_upper_bound() {
        // The defining invariant: partial + margin >= final, at every cycle.
        let plan = BitSerialPlan::new(11, 2);
        let k_codes = vec![901, -2047, 13, 768, -55, 0, 1200, -640];
        let q_codes = vec![-2047, 1024, 555, -77, 2000, 1, -900, 333];
        let v = BitSerialVector::new(&k_codes, plan);
        let exact = v.full_dot(&q_codes);
        for cyc in 0..=plan.total_cycles() {
            let bound = v.partial_dot(&q_codes, cyc) + v.margin(&q_codes, cyc);
            assert!(
                bound >= exact,
                "cycle {cyc}: bound {bound} below exact {exact}"
            );
        }
        // And at the last cycle the bound is tight.
        assert_eq!(
            v.partial_dot(&q_codes, plan.total_cycles()) + v.margin(&q_codes, plan.total_cycles()),
            exact
        );
    }

    #[test]
    fn margin_shrinks_as_bits_are_processed() {
        let plan = BitSerialPlan::new(11, 1);
        let k_codes = vec![1024, -1024, 512, 256];
        let q_codes = vec![100, 100, -100, 50];
        let v = BitSerialVector::new(&k_codes, plan);
        let mut prev = i64::MAX;
        for cyc in 0..=plan.total_cycles() {
            let m = v.margin(&q_codes, cyc);
            assert!(m <= prev, "margin must be non-increasing");
            prev = m;
        }
        assert_eq!(prev, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_magnitude_panics() {
        let plan = BitSerialPlan::new(4, 2);
        let _ = BitSerialVector::new(&[100], plan);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The conservative-margin invariant on random vectors: the partial
        /// sum plus margin never under-estimates the final dot product, for
        /// every bit-serial granularity the design space explores.
        #[test]
        fn prop_margin_never_underestimates(
            pairs in proptest::collection::vec((-2047i32..=2047, -2047i32..=2047), 1..32),
            bits_per_cycle in 1u32..=4,
        ) {
            let k: Vec<i32> = pairs.iter().map(|p| p.0).collect();
            let q: Vec<i32> = pairs.iter().map(|p| p.1).collect();
            let plan = BitSerialPlan::new(11, bits_per_cycle);
            let v = BitSerialVector::new(&k, plan);
            let exact = v.full_dot(&q);
            for cyc in 0..=plan.total_cycles() {
                prop_assert!(v.partial_dot(&q, cyc) + v.margin(&q, cyc) >= exact);
            }
        }

        /// Partial dot products always converge exactly.
        #[test]
        fn prop_full_dot_is_exact(
            pairs in proptest::collection::vec((-2047i32..=2047, -2047i32..=2047), 1..64),
        ) {
            let k: Vec<i32> = pairs.iter().map(|p| p.0).collect();
            let q: Vec<i32> = pairs.iter().map(|p| p.1).collect();
            let plan = BitSerialPlan::paper_default();
            let v = BitSerialVector::new(&k, plan);
            let exact: i64 = k.iter().zip(q.iter()).map(|(&a, &b)| a as i64 * b as i64).sum();
            prop_assert_eq!(v.full_dot(&q), exact);
        }
    }
}
