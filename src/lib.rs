//! # LeOPArd — learned runtime pruning for attention, reproduced in Rust
//!
//! This crate is the facade of a workspace that reproduces the ISCA 2022
//! paper *"Accelerating Attention through Gradient-Based Learned Runtime
//! Pruning"*: learning per-layer attention-score pruning thresholds by
//! back-propagation (via a differentiable soft threshold and a surrogate L0
//! regularizer) and exploiting them in a bit-serial accelerator that
//! terminates dot products early under a conservative, exact margin.
//!
//! The implementation is split into focused crates, re-exported here:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`tensor`] | `leopard-tensor` | dense matrices, stable softmax, RNG, statistics |
//! | [`autodiff`] | `leopard-autodiff` | reverse-mode autodiff tape, Adam/SGD |
//! | [`transformer`] | `leopard-transformer` | attention, encoder layers, synthetic tasks |
//! | [`pruning`] | `leopard-core` | soft threshold, surrogate L0, pruning-aware fine-tuning |
//! | [`quant`] | `leopard-quant` | fixed-point quantization, sign-magnitude, bit-serial decomposition |
//! | [`accel`] | `leopard-accel` | cycle-level tile simulator, energy/area models, Table 2 |
//! | [`workloads`] | `leopard-workloads` | the 43-task suite and end-to-end pipeline |
//! | [`runtime`] | `leopard-runtime` | parallel suite-execution engine, serving-mode engine, cost-model scheduler, `leopard` CLI |
//! | [`lint`] | `leopard-lint` | static checker for the contracts clippy cannot express: float accumulation order, relaxed loads, observe-only telemetry |
//!
//! # Quickstart
//!
//! ```
//! use leopard::workloads::{run_task, full_suite, PipelineOptions};
//!
//! // Simulate the first bAbI task on the AE- and HP-LeOPArd configurations.
//! let suite = full_suite();
//! let result = run_task(&suite[0], &PipelineOptions { max_sim_seq_len: 32, ..Default::default() });
//! assert!(result.ae_speedup > 1.0);
//! ```
//!
//! The runnable examples in `examples/`, the `leopard` CLI and the
//! per-figure harness binaries in `crates/bench/` show the full pipeline:
//! fine-tune thresholds, quantize, simulate, and regenerate every table and
//! figure of the paper.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use leopard_accel as accel;
pub use leopard_autodiff as autodiff;
pub use leopard_core as pruning;
pub use leopard_lint as lint;
pub use leopard_quant as quant;
pub use leopard_runtime as runtime;
pub use leopard_tensor as tensor;
pub use leopard_transformer as transformer;
pub use leopard_workloads as workloads;
