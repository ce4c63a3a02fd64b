//! # tz-crypto
//!
//! Cryptographic primitives for the TZ-LLM reproduction, implemented from
//! scratch (no external crypto crates are available in the offline build
//! environment):
//!
//! * [`aes`] — AES-128/256 block cipher (FIPS-197) with test vectors.
//! * [`ctr`] — AES-CTR streaming mode with random-access decryption, used for
//!   the encrypted parameter blob so individual tensors can be decrypted
//!   during pipelined restoration.
//! * [`sha256`] — SHA-256 and constant-time comparison, used for the
//!   chunk checksums that defend model loading against Iago attacks.
//! * [`hmac`] — HMAC-SHA256 and HKDF-style key derivation.
//! * [`keys`] — the model-key hierarchy (hardware unique key → key-wrapping
//!   key → per-model key) described in §6 of the paper.
//! * [`seal`](mod@seal) — authenticated sealing (AES-CTR + HMAC,
//!   encrypt-then-MAC) and its byte layout, the one primitive for secure
//!   state the normal world holds: sealed KV pages, the framework
//!   checkpoint, and wrapped model keys.  (The packed model format keeps its
//!   own per-tensor CTR so tensors decrypt independently during pipelined
//!   restoration.)

pub mod aes;
pub mod ctr;
pub mod hmac;
pub mod keys;
pub mod seal;
pub mod sha256;

pub use aes::{Aes, AesError};
pub use ctr::AesCtr;
pub use hmac::derive_key;
pub use keys::{
    HardwareUniqueKey, KeyError, ModelKey, SecretBytes, WrappedModelKey, KEY_LEN, NONCE_LEN,
};
pub use seal::{open, seal, SealAad, SealError, SealKey, SealedBlob, SEAL_NONCE_LEN, SEAL_TAG_LEN};
pub use sha256::{constant_time_eq, Sha256, DIGEST_SIZE};
