//! Authenticated sealing of secure data handed to the normal world.
//!
//! When the TEE puts state in REE-visible memory or storage,
//! confidentiality and integrity must survive a fully compromised normal
//! world.  This module is the one encrypt-then-MAC construction the TEE
//! uses for that — sealed KV pages, the framework checkpoint and wrapped
//! model keys alike: AES-256-CTR under a derived encryption key, then
//! HMAC-SHA256 over the nonce, the caller's associated data (the sealed
//! object's identity) and the ciphertext under an *independent* derived MAC
//! key.  Opening verifies the tag in constant time before any decryption.

use crate::ctr::AesCtr;
use crate::hmac::{derive_key, hmac_sha256};
use crate::sha256::constant_time_eq;

/// Length of the authentication tag (HMAC-SHA256).
pub const SEAL_TAG_LEN: usize = 32;

/// Length of the CTR nonce.
pub const SEAL_NONCE_LEN: usize = 16;

/// Errors from [`open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// The tag did not verify: the blob, its nonce or its associated data
    /// were tampered with (or the wrong key was used).
    IntegrityFailure,
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::IntegrityFailure => write!(f, "sealed blob failed integrity verification"),
        }
    }
}

impl std::error::Error for SealError {}

/// A sealed blob as it sits in normal-world memory: everything here is
/// observable by (and writable from) a compromised REE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    /// CTR nonce (unique per seal under one key).
    pub nonce: [u8; SEAL_NONCE_LEN],
    /// The encrypted payload.
    pub ciphertext: Vec<u8>,
    /// HMAC-SHA256 over nonce ‖ aad-length ‖ aad ‖ ciphertext.
    pub tag: [u8; SEAL_TAG_LEN],
}

impl SealedBlob {
    /// The blob exactly as the normal world stores it (nonce ‖ ciphertext ‖
    /// tag): the on-flash layout of a sealed file, and what an attacker
    /// scanning CMA memory observes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SEAL_NONCE_LEN + self.ciphertext.len() + SEAL_TAG_LEN);
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.ciphertext);
        out.extend_from_slice(&self.tag);
        out
    }

    /// Parses the [`SealedBlob::to_bytes`] layout; `None` when `bytes` is too
    /// short to hold a nonce and a tag.  Parsing authenticates nothing —
    /// [`open`] does.
    pub fn from_bytes(bytes: &[u8]) -> Option<SealedBlob> {
        let ciphertext_len = bytes.len().checked_sub(SEAL_NONCE_LEN + SEAL_TAG_LEN)?;
        let (nonce, rest) = bytes.split_at(SEAL_NONCE_LEN);
        let (ciphertext, tag) = rest.split_at(ciphertext_len);
        Some(SealedBlob {
            nonce: nonce.try_into().expect("split at the nonce length"),
            ciphertext: ciphertext.to_vec(),
            tag: tag.try_into().expect("the rest is the tag"),
        })
    }
}

/// Builder for structured associated data: a domain label plus tagged,
/// length-prefixed fields.
///
/// Sealing callers used to concatenate identity fields by hand, which is
/// fine while every field is fixed-width — but the quantized KV spill format
/// authenticates a *variable* set of facts (model, chain hash, quant format,
/// plaintext and sealed lengths), and raw concatenation of variable-length
/// fields is ambiguous (`"ab" ‖ "c"` = `"a" ‖ "bc"`).  Every field here is
/// encoded as `tag-len ‖ tag ‖ value-len ‖ value`, so two distinct field
/// sequences can never serialise to the same AAD bytes.
#[derive(Debug, Clone, Default)]
pub struct SealAad {
    bytes: Vec<u8>,
}

impl SealAad {
    /// Starts an AAD in the given domain (e.g. `"kv-page"`); blobs sealed
    /// under different domains never verify against each other even with
    /// identical fields.
    pub fn new(domain: &str) -> SealAad {
        let mut aad = SealAad { bytes: Vec::new() };
        aad.push_chunk(domain.as_bytes());
        aad
    }

    fn push_chunk(&mut self, chunk: &[u8]) {
        self.bytes
            .extend_from_slice(&(chunk.len() as u64).to_le_bytes());
        self.bytes.extend_from_slice(chunk);
    }

    /// Appends a tagged byte-string field.
    #[must_use]
    pub fn field(mut self, tag: &str, value: &[u8]) -> SealAad {
        self.push_chunk(tag.as_bytes());
        self.push_chunk(value);
        self
    }

    /// Appends a tagged `u64` field (little-endian).
    #[must_use]
    pub fn u64(self, tag: &str, value: u64) -> SealAad {
        self.field(tag, &value.to_le_bytes())
    }

    /// Appends a tagged `u32` field (little-endian).
    #[must_use]
    pub fn u32(self, tag: &str, value: u32) -> SealAad {
        self.field(tag, &value.to_le_bytes())
    }

    /// Appends a tagged single-byte field.
    #[must_use]
    pub fn u8(self, tag: &str, value: u8) -> SealAad {
        self.field(tag, &[value])
    }

    /// The serialised AAD, ready for [`seal`] / [`open`].
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// The pair of independent sub-keys one sealing domain uses.
#[derive(Clone)]
pub struct SealKey {
    enc: Vec<u8>,
    mac: Vec<u8>,
}

impl std::fmt::Debug for SealKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SealKey {{ .. }}")
    }
}

impl SealKey {
    /// Derives the encryption and MAC sub-keys from a root key, bound to a
    /// textual purpose label (different purposes never share key material).
    pub fn derive(root: &[u8], purpose: &str) -> SealKey {
        SealKey {
            enc: derive_key(root, &format!("{purpose}/enc"), 32),
            mac: derive_key(root, &format!("{purpose}/mac"), 32),
        }
    }
}

fn tag_for(
    key: &SealKey,
    nonce: &[u8; SEAL_NONCE_LEN],
    aad: &[u8],
    ciphertext: &[u8],
) -> [u8; SEAL_TAG_LEN] {
    let mut msg = Vec::with_capacity(SEAL_NONCE_LEN + 8 + aad.len() + ciphertext.len());
    msg.extend_from_slice(nonce);
    msg.extend_from_slice(&(aad.len() as u64).to_le_bytes());
    msg.extend_from_slice(aad);
    msg.extend_from_slice(ciphertext);
    hmac_sha256(&key.mac, &msg)
}

/// Seals `plaintext` with associated data `aad` under `key` and `nonce`.
///
/// The nonce must be unique per seal under one key (the KV store and the
/// checkpoint both use a monotonic counter); `aad` is authenticated but not
/// encrypted — the sealed object's identity lives there so a swapped blob
/// fails verification.
pub fn seal(
    key: &SealKey,
    nonce: &[u8; SEAL_NONCE_LEN],
    aad: &[u8],
    plaintext: &[u8],
) -> SealedBlob {
    let ctr = AesCtr::new(&key.enc, nonce).expect("derived key has a valid AES length");
    let mut ciphertext = plaintext.to_vec();
    ctr.apply(&mut ciphertext);
    let tag = tag_for(key, nonce, aad, &ciphertext);
    SealedBlob {
        nonce: *nonce,
        ciphertext,
        tag,
    }
}

/// Verifies and opens a sealed blob, returning the plaintext.
///
/// The tag is checked (in constant time) over the nonce, `aad` and the
/// ciphertext *before* decryption; any bit flipped anywhere is rejected.
pub fn open(key: &SealKey, aad: &[u8], blob: &SealedBlob) -> Result<Vec<u8>, SealError> {
    let expected = tag_for(key, &blob.nonce, aad, &blob.ciphertext);
    if !constant_time_eq(&expected, &blob.tag) {
        return Err(SealError::IntegrityFailure);
    }
    let ctr = AesCtr::new(&key.enc, &blob.nonce).expect("derived key has a valid AES length");
    let mut plaintext = blob.ciphertext.clone();
    ctr.apply(&mut plaintext);
    Ok(plaintext)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> SealKey {
        SealKey::derive(&[0x42u8; 32], "test-seal")
    }

    #[test]
    fn roundtrip_restores_plaintext() {
        let k = key();
        let aad = b"session=7 seq=3";
        let blob = seal(&k, &[1u8; 16], aad, b"attention keys and values");
        assert_eq!(open(&k, aad, &blob).unwrap(), b"attention keys and values");
    }

    #[test]
    fn ciphertext_never_equals_plaintext_blocks() {
        let k = key();
        let plaintext: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let blob = seal(&k, &[9u8; 16], b"", &plaintext);
        assert_eq!(blob.ciphertext.len(), plaintext.len());
        for (c, p) in blob.ciphertext.chunks(16).zip(plaintext.chunks(16)) {
            assert_ne!(c, p, "a keystream block left plaintext exposed");
        }
    }

    #[test]
    fn any_tampering_is_rejected() {
        let k = key();
        let aad = b"page-header";
        let blob = seal(&k, &[5u8; 16], aad, b"secret kv bytes");

        let mut bad = blob.clone();
        bad.ciphertext[0] ^= 1;
        assert_eq!(open(&k, aad, &bad), Err(SealError::IntegrityFailure));

        let mut bad = blob.clone();
        bad.tag[31] ^= 1;
        assert_eq!(open(&k, aad, &bad), Err(SealError::IntegrityFailure));

        let mut bad = blob.clone();
        bad.nonce[3] ^= 1;
        assert_eq!(open(&k, aad, &bad), Err(SealError::IntegrityFailure));

        // Same blob under different associated data (a swapped page id).
        assert_eq!(
            open(&k, b"other-header", &blob),
            Err(SealError::IntegrityFailure)
        );

        // And the original still opens.
        assert!(open(&k, aad, &blob).is_ok());
    }

    #[test]
    fn tagged_aads_are_unambiguous() {
        // Raw concatenation would make these two collide ("ab"‖"c" vs
        // "a"‖"bc"); the tagged encoding must not.
        let a = SealAad::new("d").field("x", b"ab").field("y", b"c");
        let b = SealAad::new("d").field("x", b"a").field("y", b"bc");
        assert_ne!(a.into_bytes(), b.into_bytes());
        // Domains separate identical field sets.
        let c = SealAad::new("d1").u64("len", 7);
        let d = SealAad::new("d2").u64("len", 7);
        assert_ne!(c.into_bytes(), d.into_bytes());
        // A sealed blob only opens under the exact AAD it was sealed with.
        let k = key();
        let aad = SealAad::new("kv")
            .u32("model", 3)
            .u8("format", 1)
            .into_bytes();
        let blob = seal(&k, &[2u8; 16], &aad, b"payload");
        assert!(open(&k, &aad, &blob).is_ok());
        let other = SealAad::new("kv")
            .u32("model", 3)
            .u8("format", 2)
            .into_bytes();
        assert_eq!(open(&k, &other, &blob), Err(SealError::IntegrityFailure));
    }

    #[test]
    fn byte_layout_roundtrips_and_rejects_short_inputs() {
        let k = key();
        for len in [0usize, 1, 33] {
            let blob = seal(&k, &[len as u8; 16], b"", &vec![0xa5; len]);
            let bytes = blob.to_bytes();
            assert_eq!(bytes.len(), SEAL_NONCE_LEN + len + SEAL_TAG_LEN);
            assert_eq!(SealedBlob::from_bytes(&bytes), Some(blob));
        }
        let bytes = [0u8; SEAL_NONCE_LEN + SEAL_TAG_LEN];
        for short in 0..bytes.len() {
            assert_eq!(
                SealedBlob::from_bytes(&bytes[..short]),
                None,
                "{short} bytes"
            );
        }
    }

    #[test]
    fn distinct_purposes_use_distinct_keys() {
        let a = SealKey::derive(&[7u8; 32], "kv-pages");
        let b = SealKey::derive(&[7u8; 32], "checkpoints");
        let blob = seal(&a, &[0u8; 16], b"", b"payload");
        assert_eq!(open(&b, b"", &blob), Err(SealError::IntegrityFailure));
    }
}
