//! Model-key hierarchy.
//!
//! §6 of the paper: "the model key in flash is encrypted with a
//! hardware-protected TEE key.  It can only be decrypted by the TEE OS.  The
//! TEE OS only allows the LLM TA to access the model key."
//!
//! This module implements that hierarchy:
//!
//! * [`HardwareUniqueKey`] — the device-unique root key, modelled as fused at
//!   secure boot and never leaving the TEE.
//! * [`ModelKey`] — a per-model AES-256 key used to encrypt the parameter blob
//!   (CTR mode) and authenticate it (HMAC).
//! * [`WrappedModelKey`] — the sealed form of a model key that may safely
//!   live in the REE file system.

use crate::ctr::AesCtr;
use crate::hmac::{derive_key, hmac_sha256, hmac_verify};
use crate::seal::{open, seal, SealKey, SealedBlob};
use crate::sha256::DIGEST_SIZE;

/// Length of all symmetric keys in the hierarchy (AES-256 / HMAC-SHA256).
pub const KEY_LEN: usize = 32;
/// Length of the CTR nonce stored alongside wrapped keys and blobs.
pub const NONCE_LEN: usize = 16;

/// Errors from key wrapping / unwrapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyError {
    /// The HMAC over a wrapped key did not verify — the blob was corrupted or
    /// forged by the REE.
    IntegrityFailure,
    /// A caller outside the TEE attempted to unwrap a key.
    NotAuthorised,
    /// Malformed wrapped-key blob.
    Malformed,
}

impl std::fmt::Display for KeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyError::IntegrityFailure => write!(f, "wrapped key failed integrity verification"),
            KeyError::NotAuthorised => {
                write!(f, "caller is not authorised to unwrap the model key")
            }
            KeyError::Malformed => write!(f, "malformed wrapped key blob"),
        }
    }
}

impl std::error::Error for KeyError {}

/// Secret bytes that are zeroed on drop and never printed by `Debug`.
#[derive(Clone, PartialEq, Eq)]
pub struct SecretBytes(Vec<u8>);

impl SecretBytes {
    /// Wraps raw secret bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        SecretBytes(bytes)
    }

    /// Read access to the secret material.
    pub fn expose(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the secret is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Drop for SecretBytes {
    fn drop(&mut self) {
        // Best-effort scrubbing; mirrors the TEE OS clearing sensitive data
        // before releasing secure memory (§4.2).
        for b in &mut self.0 {
            // volatile-ish write; the optimiser keeping it is acceptable for
            // the simulation, the intent is documented behaviour.
            unsafe { std::ptr::write_volatile(b, 0) };
        }
    }
}

impl std::fmt::Debug for SecretBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretBytes({} bytes, redacted)", self.0.len())
    }
}

/// The device-unique hardware key, provisioned at manufacturing time and only
/// readable from the secure world.
#[derive(Debug, Clone)]
pub struct HardwareUniqueKey {
    root: SecretBytes,
}

impl HardwareUniqueKey {
    /// Derives the hardware-unique key of a simulated device from its serial
    /// number.  Real hardware fuses this; the simulation derives it so tests
    /// are reproducible.
    pub fn provision(device_serial: &str) -> Self {
        HardwareUniqueKey {
            root: SecretBytes::new(derive_key(device_serial.as_bytes(), "tz-llm-huk", KEY_LEN)),
        }
    }

    /// Derives the key-wrapping key used to protect model keys.
    pub fn key_wrapping_key(&self) -> SecretBytes {
        SecretBytes::new(derive_key(self.root.expose(), "model-key-wrap", KEY_LEN))
    }

    /// Derives the key protecting the framework-state checkpoint (§3.2,
    /// "Other techniques for efficient inference").
    pub fn checkpoint_key(&self) -> SecretBytes {
        SecretBytes::new(derive_key(
            self.root.expose(),
            "framework-checkpoint",
            KEY_LEN,
        ))
    }
}

/// A per-model AES-256 key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelKey {
    key: SecretBytes,
}

impl ModelKey {
    /// Creates a model key from explicit bytes (used by the model packer and
    /// by tests).
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        ModelKey {
            key: SecretBytes::new(bytes.to_vec()),
        }
    }

    /// Deterministically derives a model key from a provider secret and the
    /// model name — stands in for the provider generating a random key.
    pub fn derive(provider_secret: &[u8], model_name: &str) -> Self {
        ModelKey {
            key: SecretBytes::new(derive_key(
                provider_secret,
                &format!("model:{model_name}"),
                KEY_LEN,
            )),
        }
    }

    /// Raw key bytes (TEE-internal use only).
    pub fn expose(&self) -> &[u8] {
        self.key.expose()
    }

    /// Builds the CTR cipher for the parameter blob of this model.
    pub fn blob_cipher(&self, nonce: &[u8; NONCE_LEN]) -> AesCtr {
        AesCtr::new(self.key.expose(), nonce).expect("model key has a valid AES length")
    }

    /// Computes the HMAC tag over arbitrary model metadata.
    pub fn authenticate(&self, data: &[u8]) -> [u8; DIGEST_SIZE] {
        hmac_sha256(self.key.expose(), data)
    }

    /// Verifies an HMAC tag produced by [`ModelKey::authenticate`].
    pub fn verify(&self, data: &[u8], tag: &[u8]) -> bool {
        hmac_verify(self.key.expose(), data, tag)
    }
}

/// The wrapped form of a [`ModelKey`], safe to store in the untrusted REE
/// file system next to the model file: the key bytes [sealed](crate::seal())
/// under independent encryption and MAC sub-keys derived from the device's
/// key-wrapping key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrappedModelKey {
    /// The sealed key bytes.
    pub blob: SealedBlob,
}

impl WrappedModelKey {
    fn seal_key(huk: &HardwareUniqueKey) -> SealKey {
        SealKey::derive(huk.key_wrapping_key().expose(), "model-key-wrap")
    }

    /// Wraps `model_key` under the device's hardware-derived wrapping key.
    pub fn wrap(huk: &HardwareUniqueKey, model_key: &ModelKey, nonce: [u8; NONCE_LEN]) -> Self {
        WrappedModelKey {
            blob: seal(&Self::seal_key(huk), &nonce, &[], model_key.expose()),
        }
    }

    /// Unwraps the model key.  `caller_is_llm_ta` models the TEE OS policy
    /// that only the LLM TA may obtain the model key.
    pub fn unwrap(
        &self,
        huk: &HardwareUniqueKey,
        caller_is_llm_ta: bool,
    ) -> Result<ModelKey, KeyError> {
        if !caller_is_llm_ta {
            return Err(KeyError::NotAuthorised);
        }
        if self.blob.ciphertext.len() != KEY_LEN {
            return Err(KeyError::Malformed);
        }
        let plaintext =
            open(&Self::seal_key(huk), &[], &self.blob).map_err(|_| KeyError::IntegrityFailure)?;
        let key: [u8; KEY_LEN] = plaintext.as_slice().try_into().expect("length checked");
        Ok(ModelKey::from_bytes(key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn huk() -> HardwareUniqueKey {
        HardwareUniqueKey::provision("orangepi-5-plus-0001")
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        let mk = ModelKey::derive(b"provider-secret", "llama-3-8b");
        let wrapped = WrappedModelKey::wrap(&huk(), &mk, [7u8; NONCE_LEN]);
        let unwrapped = wrapped.unwrap(&huk(), true).unwrap();
        assert_eq!(unwrapped.expose(), mk.expose());
    }

    #[test]
    fn unwrap_requires_llm_ta() {
        let mk = ModelKey::derive(b"provider-secret", "qwen2.5-3b");
        let wrapped = WrappedModelKey::wrap(&huk(), &mk, [1u8; NONCE_LEN]);
        assert_eq!(
            wrapped.unwrap(&huk(), false).unwrap_err(),
            KeyError::NotAuthorised
        );
    }

    #[test]
    fn tampered_wrap_is_rejected() {
        let mk = ModelKey::derive(b"provider-secret", "phi-3-3.8b");
        let mut wrapped = WrappedModelKey::wrap(&huk(), &mk, [2u8; NONCE_LEN]);
        wrapped.blob.ciphertext[0] ^= 0xff;
        assert_eq!(
            wrapped.unwrap(&huk(), true).unwrap_err(),
            KeyError::IntegrityFailure
        );
    }

    #[test]
    fn wrong_device_cannot_unwrap() {
        let mk = ModelKey::derive(b"provider-secret", "tinyllama-1.1b");
        let wrapped = WrappedModelKey::wrap(&huk(), &mk, [3u8; NONCE_LEN]);
        let other = HardwareUniqueKey::provision("some-other-device");
        assert_eq!(
            wrapped.unwrap(&other, true).unwrap_err(),
            KeyError::IntegrityFailure
        );
    }

    #[test]
    fn malformed_length_rejected() {
        let mk = ModelKey::derive(b"s", "m");
        let mut wrapped = WrappedModelKey::wrap(&huk(), &mk, [4u8; NONCE_LEN]);
        wrapped.blob.ciphertext.pop();
        assert_eq!(
            wrapped.unwrap(&huk(), true).unwrap_err(),
            KeyError::Malformed
        );
    }

    #[test]
    fn different_models_get_different_keys() {
        let a = ModelKey::derive(b"provider", "model-a");
        let b = ModelKey::derive(b"provider", "model-b");
        assert_ne!(a.expose(), b.expose());
    }

    #[test]
    fn model_key_authenticates_metadata() {
        let mk = ModelKey::derive(b"provider", "model-a");
        let tag = mk.authenticate(b"metadata");
        assert!(mk.verify(b"metadata", &tag));
        assert!(!mk.verify(b"metadata2", &tag));
    }

    #[test]
    fn secret_bytes_debug_is_redacted() {
        let s = SecretBytes::new(vec![1, 2, 3]);
        assert_eq!(format!("{s:?}"), "SecretBytes(3 bytes, redacted)");
    }
}
