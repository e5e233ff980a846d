//! Fixed-point quantization and bit-serial decomposition for LeOPArd.
//!
//! The paper's accelerator works on quantized operands: 12-bit Q and K for the
//! `Q·Kᵀ` front-end and 16-bit values for the `·V` back-end (Section 5.1),
//! with K processed *bit-serially*, 2 bits per cycle from MSB to LSB
//! (Section 4.2). Three modules provide that machinery:
//!
//! * [`fixed`] — symmetric linear quantization of `f32` matrices into `n`-bit
//!   signed integers plus the scale needed to map scores (and the learned
//!   thresholds) into the quantized domain.
//! * [`signmag`] — sign-magnitude views of quantized values; the hardware
//!   computes margins from signs and magnitudes, not two's complement.
//! * [`bitserial`] — decomposition of K magnitudes into MSB-first bit planes
//!   of configurable width `B` (the paper uses `B = 2`), together with the
//!   "maximum possible remaining contribution" helper the conservative margin
//!   calculation relies on.
//!
//! # Example
//!
//! ```
//! use leopard_quant::fixed::QuantParams;
//!
//! let params = QuantParams::from_max_abs(12, 1.0);
//! let q = params.quantize(0.5);
//! assert!((params.dequantize(q) - 0.5).abs() < 1e-3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitserial;
pub mod fixed;
pub mod signmag;

pub use bitserial::{BitSerialPlan, BitSerialVector};
pub use fixed::{QuantParams, QuantizedMatrix};
pub use signmag::SignMagnitude;
