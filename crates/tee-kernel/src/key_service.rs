//! The TEE OS model-key service.
//!
//! Model files in the REE file system are encrypted with a per-model key; the
//! key itself is stored wrapped by a hardware-protected TEE key (§6).  The
//! key service is the only component that can unwrap model keys, and it only
//! does so for the LLM TA.

use std::collections::BTreeMap;

use tz_crypto::{HardwareUniqueKey, KeyError, ModelKey, WrappedModelKey};

use crate::ta::{TaId, TaRegistry};

/// Errors from the key service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyServiceError {
    /// No wrapped key registered under this model name.
    UnknownModel(String),
    /// The requesting TA is not the LLM TA.
    NotAuthorised(TaId),
    /// Unwrapping failed (forged or corrupted wrapped key).
    Unwrap(KeyError),
}

impl std::fmt::Display for KeyServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyServiceError::UnknownModel(m) => write!(f, "no key registered for model {m}"),
            KeyServiceError::NotAuthorised(ta) => {
                write!(f, "TA {} may not access model keys", ta.0)
            }
            KeyServiceError::Unwrap(e) => write!(f, "unwrap failed: {e}"),
        }
    }
}

impl std::error::Error for KeyServiceError {}

/// The key service: hardware root key plus the registry of wrapped model keys.
#[derive(Debug)]
pub struct KeyService {
    huk: HardwareUniqueKey,
    wrapped: BTreeMap<String, WrappedModelKey>,
    unwrap_count: u64,
}

impl KeyService {
    /// Creates a key service bound to this device's hardware-unique key.
    pub fn new(huk: HardwareUniqueKey) -> Self {
        KeyService {
            huk,
            wrapped: BTreeMap::new(),
            unwrap_count: 0,
        }
    }

    /// The device's hardware-unique key (for checkpoint encryption).
    pub fn huk(&self) -> &HardwareUniqueKey {
        &self.huk
    }

    /// Registers (or replaces) the wrapped key for `model_name` — this is the
    /// provisioning step a model provider's installer performs.
    pub fn register_model_key(&mut self, model_name: impl Into<String>, wrapped: WrappedModelKey) {
        self.wrapped.insert(model_name.into(), wrapped);
    }

    /// Whether a key is registered for `model_name`.
    pub fn has_model(&self, model_name: &str) -> bool {
        self.wrapped.contains_key(model_name)
    }

    /// Number of successful unwraps (audit counter).
    pub fn unwrap_count(&self) -> u64 {
        self.unwrap_count
    }

    /// Unwraps the model key for `model_name` on behalf of `requester`.
    ///
    /// Policy: only a TA registered with `is_llm_ta == true` may obtain model
    /// keys.
    pub fn unwrap_for(
        &mut self,
        tas: &TaRegistry,
        requester: TaId,
        model_name: &str,
    ) -> Result<ModelKey, KeyServiceError> {
        let ta = tas
            .get(requester)
            .map_err(|_| KeyServiceError::NotAuthorised(requester))?;
        if !ta.is_llm_ta {
            return Err(KeyServiceError::NotAuthorised(requester));
        }
        let wrapped = self
            .wrapped
            .get(model_name)
            .ok_or_else(|| KeyServiceError::UnknownModel(model_name.to_string()))?;
        let key = wrapped
            .unwrap(&self.huk, true)
            .map_err(KeyServiceError::Unwrap)?;
        self.unwrap_count += 1;
        Ok(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tz_crypto::NONCE_LEN;

    fn service_with_key() -> (KeyService, TaRegistry, TaId, TaId, ModelKey) {
        let huk = HardwareUniqueKey::provision("test-device");
        let model_key = ModelKey::derive(b"provider", "qwen2.5-3b");
        let wrapped = WrappedModelKey::wrap(&huk, &model_key, [5u8; NONCE_LEN]);
        let mut svc = KeyService::new(huk);
        svc.register_model_key("qwen2.5-3b", wrapped);
        let mut tas = TaRegistry::new();
        let llm = tas.register("llm-ta", true);
        let other = tas.register("fingerprint-ta", false);
        (svc, tas, llm, other, model_key)
    }

    #[test]
    fn llm_ta_gets_the_key() {
        let (mut svc, tas, llm, _other, model_key) = service_with_key();
        let key = svc.unwrap_for(&tas, llm, "qwen2.5-3b").unwrap();
        assert_eq!(key.expose(), model_key.expose());
        assert_eq!(svc.unwrap_count(), 1);
    }

    #[test]
    fn other_tas_are_denied() {
        let (mut svc, tas, _llm, other, _mk) = service_with_key();
        assert_eq!(
            svc.unwrap_for(&tas, other, "qwen2.5-3b").unwrap_err(),
            KeyServiceError::NotAuthorised(other)
        );
        assert_eq!(svc.unwrap_count(), 0);
    }

    #[test]
    fn unknown_model_is_an_error() {
        let (mut svc, tas, llm, _other, _mk) = service_with_key();
        assert!(matches!(
            svc.unwrap_for(&tas, llm, "not-a-model"),
            Err(KeyServiceError::UnknownModel(_))
        ));
    }

    #[test]
    fn tampered_wrapped_key_is_rejected() {
        let (mut svc, tas, llm, _other, _mk) = service_with_key();
        let huk = HardwareUniqueKey::provision("test-device");
        let mk = ModelKey::derive(b"provider", "phi-3");
        let mut wrapped = WrappedModelKey::wrap(&huk, &mk, [1u8; NONCE_LEN]);
        wrapped.blob.tag[0] ^= 1;
        svc.register_model_key("phi-3", wrapped);
        assert!(matches!(
            svc.unwrap_for(&tas, llm, "phi-3"),
            Err(KeyServiceError::Unwrap(_))
        ));
    }
}
