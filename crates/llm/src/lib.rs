//! # llm
//!
//! The on-device inference framework (the reproduction's stand-in for
//! llama.cpp):
//!
//! * [`tensor`] — dense tensors and Q8_0 block quantisation.
//! * [`model`] — transformer shapes and the catalogue of the paper's four
//!   evaluated models (plus a tiny functional `nano` model).
//! * [`graph`] — the deterministic computation graph (operators, device
//!   placement, per-operator parameter slices) that pipelined restoration
//!   keys on.
//! * [`format`](mod@format) — the packed, encrypted, checksummed model file format.
//! * [`tokenizer`] — a byte-level tokenizer (part of the framework checkpoint).
//! * [`kv_cache`] — KV-cache accounting and storage.
//! * [`cost`] — the calibrated operator cost model (CPU vs NPU, prefill vs
//!   memory-bound decode).
//! * [`executor`] — a real forward pass for small models (Q8 matmuls, GQA
//!   attention, SiLU FFN, greedy sampling).

pub mod content;
pub mod cost;
pub mod executor;
pub mod format;
pub mod graph;
pub mod kv_cache;
pub mod model;
pub mod tensor;
pub mod tokenizer;

pub use content::{derive_seed, PromptContent, Segment};
pub use cost::{BatchedStepCosts, CostModel, CostParams};
pub use executor::FunctionalModel;
pub use format::{FormatError, ModelHeader, PackedModel, TensorEntry};
pub use graph::{ComputationGraph, ComputeOp, Device, OpKind, ParamSlice};
pub use kv_cache::KvCache;
pub use model::ModelSpec;
pub use tensor::{q8_bytes_for, QTensor, Tensor, Q8_BLOCK};
pub use tokenizer::{TokenId, Tokenizer};
