//! # tz-quant
//!
//! Block quantization for sealed KV-cache spill: the layer between the KV
//! managers and the sealing primitive that decides *how many bytes cross the
//! world boundary*.
//!
//! TZ-LLM's secure memory is the scarcest resource on device, and sealed KV
//! pages used to ship their f16 K/V verbatim — so a fixed normal-world CMA
//! spill budget bought half the tokens it could.  This crate quantizes pages
//! to INT8 or INT4 (per-block f16 scales, [`BLOCK_ELEMS`] elements per
//! block) on the way out and dequantizes them on the way back in:
//!
//! * [`f16`](mod@f16) — a software IEEE binary16 codec (the offline build has no
//!   `half` crate);
//! * [`quant`] — [`SpillFormat`] (F16 / Int8 / Int4), the packed layout,
//!   [`quantize`] / [`dequantize`], exact [`SpillFormat::sealed_len`]
//!   arithmetic shared by the byte-exact and accounting halves of the KV
//!   manager, and each format's modelled quantization noise
//!   ([`SpillFormat::modelled_rms_noise`]).
//!
//! The crate is deliberately dependency-free and deterministic: the
//! byte-exact sealing path (`tee-kernel`) and the serving-layer accounting
//! (`tzllm`) both call the same functions, so simulated spill budgets match
//! the bytes a compromised REE would actually observe.

pub mod f16;
pub mod quant;

pub use f16::{f16_to_f32, f32_to_f16, read_f16, write_f16};
pub use quant::{dequantize, quantize, QuantError, SpillFormat, BLOCK_ELEMS};
