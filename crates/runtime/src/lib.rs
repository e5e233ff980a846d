//! Parallel, deterministic suite-execution engine for the LeOPArd
//! reproduction.
//!
//! The 43-task evaluation suite decomposes naturally into independent
//! simulation jobs — one per `(task, head, row block)`, each producing all
//! four tile configurations from one kernel sweep — and this crate
//! executes them on a thread pool built from std threads, a mutex and a
//! condvar:
//!
//! * [`pool`] — the [`ThreadPool`]: one FIFO job queue that workers drain
//!   in submission order, fed only by the order-preserving
//!   [`parallel_map`], which the suite engine, serving, sweeps and the
//!   figure harnesses all use.
//! * [`cache`] — the concurrent [`WorkloadCache`]
//!   memoizing workload construction (Q/K synthesis, threshold placement,
//!   quantization) on `(task, seed, seq_len)` plus the quantization knobs,
//!   so per-head construction happens once per run and parameter sweeps
//!   reuse it across design points.
//! * [`engine`] — the [`SuiteRunner`]: runs the suite as three
//!   [`parallel_map`] passes (build per head → fused sweep+fold per row
//!   block → join, merge and aggregate per task), tracks
//!   per-stage wall-clock totals, and returns results that are
//!   **bit-identical** to the serial pipeline for any thread count (every
//!   job is a pure function of its fixed per-head seed, and aggregation
//!   consumes unit results in head order).
//! * [`sched`] — cost-model admission scheduling: FIFO,
//!   longest-predicted-job-first, and shortest-predicted-job-first
//!   ([`SchedulePolicy`] plus the deterministic
//!   [`ReadyQueue`](sched::ReadyQueue)), shared by the suite and serving
//!   engines.
//! * [`serving`] — the serving-mode engine: a seeded synthetic request
//!   stream (steady, bursty, or diurnal arrivals; per-family request mix)
//!   replayed on a virtual cycle clock, with optional SLO-aware admission
//!   shedding and p50/p95/p99/max latency, throughput, shed-rate,
//!   goodput, and queue-depth reporting. Per-request accounting is
//!   bit-identical for any thread count.
//! * [`faults`] — deterministic fault injection for serving: a seeded,
//!   virtual-clock [`FaultPlan`] of tile fail/recover events, slow-tile
//!   cycle multipliers, and transient dispatch failures, paired with
//!   retry/backoff deferral and graceful degradation in the replay. The
//!   same plan and seed reproduce a failure scenario bit-for-bit at any
//!   thread count.
//! * [`telemetry`] — the observe-only instrumentation layer: span tracing
//!   into per-worker buffers exported as Chrome trace-event JSON
//!   (Perfetto/`chrome://tracing`), plus a [`MetricsRegistry`] of
//!   counters, gauges, and fixed-bucket histograms. Enabled per run via
//!   `SuiteRunner::with_telemetry` (`--trace`/`--metrics` on the CLI);
//!   results and reports are byte-identical with it on or off.
//! * [`report`] — structured JSON/CSV rendering of suite and serving
//!   reports with timing and cache statistics, streamed row by row into
//!   any `io::Write` through the crate's one JSON module.
//! * [`cli`] — the `leopard` binary: `leopard suite`, `leopard task
//!   <name>`, `leopard sweep --param nqk=2..10`, `leopard serve --requests
//!   N --rate R --arrivals bursty --mix memn2n=3,bert-b=1 --schedule sjf
//!   --slo-cycles N`, `leopard list`.
//!
//! See `ARCHITECTURE.md` at the repository root for the crate map, the
//! two-phase serving replay, and the determinism contract.
//!
//! # Example
//!
//! ```
//! use leopard_runtime::engine::SuiteRunner;
//! use leopard_workloads::pipeline::{run_task, PipelineOptions};
//! use leopard_workloads::suite::full_suite;
//!
//! let tasks: Vec<_> = full_suite().into_iter().take(2).collect();
//! let options = PipelineOptions { max_sim_seq_len: 24, ..Default::default() };
//! let report = SuiteRunner::new(4).run(&tasks, &options);
//! // Parallel execution is bit-identical to the serial pipeline.
//! assert_eq!(report.results[0], run_task(&tasks[0], &options));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod cli;
pub mod engine;
pub mod faults;
mod json;
pub mod pool;
pub mod report;
pub mod sched;
pub mod serving;
pub mod telemetry;

pub use cache::{CacheStats, WorkloadCache};
pub use engine::{SuiteReport, SuiteRunner};
pub use faults::FaultPlan;
pub use pool::{parallel_map, ThreadPool};
pub use sched::SchedulePolicy;
pub use serving::{run_serving, ArrivalProcess, RequestMix, ServingOptions, ServingReport};
pub use telemetry::{MetricsRegistry, MetricsSnapshot, Telemetry};
