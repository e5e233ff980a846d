//! The 43-task benchmark suite and end-to-end workload pipeline.
//!
//! The paper evaluates LeOPArd on 43 tasks drawn from six model families:
//! the 20 bAbI tasks for MemN2N, the nine GLUE tasks plus SQuAD for both
//! BERT-Base and BERT-Large, SQuAD for ALBERT-XX-Large, WikiText-2 for
//! GPT-2-Large, and CIFAR-10 for ViT-Base. Those datasets and checkpoints are
//! not available offline, so this crate defines a synthetic counterpart for
//! every task that preserves what the hardware evaluation actually depends
//! on: the sequence length, the head dimension, and the *pruning rate* the
//! learned thresholds achieve on that task (taken from the paper's Figure 7
//! and used to place the threshold at the matching quantile of the synthetic
//! score distribution).
//!
//! * [`suite`] — the 43 task descriptors with the paper-reported pruning
//!   rates, baseline accuracies, and speedup/energy reference points.
//! * [`pipeline`] — turns a descriptor into simulator workloads, runs the
//!   baseline / AE / HP configurations, and aggregates results.
//! * [`training`] — the reduced-scale fine-tuning path used for the accuracy
//!   and learning-dynamics experiments (Figures 2 and 6).
//!
//! # Example
//!
//! ```
//! use leopard_workloads::suite;
//!
//! let tasks = suite::full_suite();
//! assert_eq!(tasks.len(), 43);
//! assert!(tasks.iter().any(|t| t.name.contains("MemN2N")));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod pipeline;
pub mod suite;
pub mod training;

pub use pipeline::{run_task, PipelineOptions, TaskResult};
pub use suite::{full_suite, DatasetKind, TaskDescriptor};
