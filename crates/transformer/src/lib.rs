//! Transformer and self-attention substrate for the LeOPArd reproduction.
//!
//! The paper evaluates its learned runtime pruning on transformer language and
//! vision models (MemN2N, BERT-Base/Large, ALBERT-XX-Large, GPT-2-Large,
//! ViT-Base). This crate provides the attention machinery those models share:
//!
//! * [`config`] — model-family configurations with the paper's dimensions
//!   (head dimension 64 everywhere except MemN2N's 20, sequence lengths of 50
//!   / 512 / 384 / 1280, layer and head counts).
//! * [`attention`] — single-head scaled dot-product attention (Equations 1–4)
//!   in two flavours: a tape-based differentiable forward used during
//!   pruning-aware fine-tuning, and a plain-`Matrix` inference forward that
//!   records the score statistics the accelerator simulator consumes.
//! * [`hooks`] — the score-transformation hooks through which the
//!   `leopard-core` crate injects its soft-threshold (training) and hard
//!   threshold (inference) pruning without this crate knowing about it.
//! * [`model`] — multi-head attention, encoder layers, and a small
//!   classification model (encoder stack + mean pooling + linear head) that
//!   the synthetic workloads fine-tune.
//! * [`data`] — synthetic sequence-classification task generators whose
//!   attention patterns are sparse in the same way the paper's NLP workloads
//!   are: only a few "signal" tokens matter for the label.
//!
//! # Example
//!
//! ```
//! use leopard_transformer::{attention, hooks::IdentityHook};
//! use leopard_tensor::{rng, Matrix};
//!
//! let mut r = rng::seeded(7);
//! let q = rng::normal_matrix(&mut r, 8, 16, 0.0, 1.0);
//! let k = rng::normal_matrix(&mut r, 8, 16, 0.0, 1.0);
//! let v = rng::normal_matrix(&mut r, 8, 16, 0.0, 1.0);
//! let out = attention::attention_inference(&q, &k, &v, &IdentityHook, 0, 0);
//! assert_eq!(out.output.shape(), (8, 16));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod attention;
pub mod config;
pub mod data;
pub mod hooks;
pub mod model;

pub use attention::{attention_inference, AttentionOutput};
pub use config::{ModelConfig, ModelFamily};
pub use hooks::{IdentityHook, InferenceScoreHook, TrainScoreHook};
pub use model::{EncoderLayer, MultiHeadAttention, TransformerClassifier};
