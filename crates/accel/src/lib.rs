//! Cycle-level simulator and analytical models of the LeOPArd accelerator.
//!
//! The hardware side of the paper is a tile-based accelerator whose front-end
//! (QK-PU) computes attention scores bit-serially and terminates each dot
//! product as soon as a conservative margin proves the score cannot reach the
//! learned threshold, and whose back-end (V-PU) runs softmax and the `·V`
//! weighted sum only for surviving scores. This crate models that design:
//!
//! * [`config`] — the tile microarchitecture of Table 1 (number of bit-serial
//!   QK-DPUs, operand widths, buffer sizes, clock frequency) with the AE
//!   (6 DPUs, iso-area) and HP (8 DPUs, +15% area) presets and the unpruned
//!   baseline.
//! * [`dpu`] — the bit-serial dot-product unit with dynamic margin
//!   calculation and exact early termination (Figure 3 / Figure 5). This is
//!   the scalar *reference* implementation.
//! * [`kernel_v2`] — the batched bit-parallel QK kernel (the simulator's
//!   hot path): four K columns at a time from one `i16` code matrix
//!   ([`PackedKeys`]), each block run through its reveal cycles on partials
//!   truncated in registers, runtime-dispatched between a wide
//!   (`std::arch`-detected) path and a portable scalar fallback, both
//!   bit-identical to the reference DPU.
//! * [`sim`] — the tile simulator: Q rows stream through `N_QK` DPUs, pruned
//!   scores never reach the back-end, surviving scores queue through the
//!   Score/IDX FIFOs to the V-PU; the simulator reports cycle counts, event
//!   counts, V-PU utilization, and bit-profile statistics. Runs on the
//!   batched kernel through one entry point, `sim::simulate_rows`;
//!   `sim::simulate_head_reference` retains the DPU path for differential
//!   tests and the release kernel-timing test.
//! * [`baseline`] — the same tile without pruning or bit-serial early
//!   termination (one full-precision dot product per cycle), the comparison
//!   point for Figures 9–11.
//! * [`energy`] — the event-based energy model with per-component energies
//!   calibrated to the paper's baseline breakdown (Figure 11), plus the
//!   pruning-only ablation.
//! * [`area`] — the area model behind Figure 12 and the iso-area argument.
//! * [`compare`] — throughput / energy-efficiency / area-efficiency
//!   comparison against A³ and SpAtten with technology and bit-width scaling
//!   (Table 2).
//! * [`cost`] — per-head cost accounting (cycles, latency, energy) for the
//!   suite-execution engine, plus the compile-time `Send + Sync` guarantees
//!   parallel execution relies on.
//!
//! # Example
//!
//! ```
//! use leopard_accel::config::TileConfig;
//! use leopard_accel::sim::{simulate_head, HeadWorkload};
//! use leopard_tensor::rng;
//!
//! let mut r = rng::seeded(1);
//! let q = rng::normal_matrix(&mut r, 16, 16, 0.0, 1.0);
//! let k = rng::normal_matrix(&mut r, 16, 16, 0.0, 1.0);
//! let workload = HeadWorkload::from_float(&q, &k, 0.0, 12);
//! let result = simulate_head(&workload, &TileConfig::ae_leopard());
//! assert!(result.total_cycles > 0);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod area;
pub mod baseline;
pub mod compare;
pub mod config;
pub mod cost;
pub mod dpu;
pub mod energy;
pub mod kernel_v2;
pub mod schedule;
pub mod sim;

pub use config::TileConfig;
pub use cost::{head_cost, HeadCost};
pub use dpu::{DotProductOutcome, QkDpu};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use kernel_v2::{KernelPath, PackedKeys, QkKernelV2, RowScratchV2};
pub use schedule::{schedule_layer, LayerSchedule, Placement};
pub use sim::{simulate_head, simulate_head_reference, HeadSimResult, HeadWorkload};
