//! Framework-state checkpoint/restore.
//!
//! Figure 1 shows that llama.cpp spends ≈2.3 s on metadata parsing, framework
//! boot and tokenizer construction before it can do any work.  TZ-LLM removes
//! that from the cold-start path by checkpointing the initialised framework
//! state to flash once, encrypted under a key derived from the hardware
//! unique key, and restoring it on every subsequent inference request (§3.2).
//!
//! The checkpoint blob is stored in the untrusted REE file system, so it is
//! [sealed](tz_crypto::seal()) under a per-path key, bound to its path and
//! to a save generation the store keeps in trusted storage.  A forged,
//! corrupted, superseded or relocated checkpoint is rejected and the TA
//! falls back to a full cold initialisation.

use sim_core::SimDuration;
use tz_crypto::seal::{open, seal, SealAad, SealKey, SealedBlob, SEAL_NONCE_LEN};
use tz_crypto::HardwareUniqueKey;

use ree_kernel::{FileContent, FileSystem, FsError};

/// Errors from checkpoint save/restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// No checkpoint file exists yet.
    Missing,
    /// The checkpoint failed authentication (forged or corrupted).
    IntegrityFailure,
    /// The checkpoint file is malformed.
    Malformed,
    /// File-system error.
    Fs(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Missing => write!(f, "no framework checkpoint present"),
            CheckpointError::IntegrityFailure => {
                write!(f, "framework checkpoint failed verification")
            }
            CheckpointError::Malformed => write!(f, "framework checkpoint is malformed"),
            CheckpointError::Fs(e) => write!(f, "file system error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<FsError> for CheckpointError {
    fn from(e: FsError) -> Self {
        match e {
            FsError::NotFound(_) => CheckpointError::Missing,
            other => CheckpointError::Fs(other.to_string()),
        }
    }
}

/// Result of a successful restore.
#[derive(Debug, Clone)]
pub struct RestoredCheckpoint {
    /// The decrypted framework state.
    pub state: Vec<u8>,
    /// Total time spent (flash read + decrypt + deserialisation).
    pub duration: SimDuration,
}

/// Save / restore of the initialised framework state.
#[derive(Debug)]
pub struct CheckpointStore {
    path: String,
    deserialise_cost: SimDuration,
    decrypt_bytes_per_sec: f64,
    /// Saves so far: a trusted monotonic counter.  The latest save is sealed
    /// under this generation (its nonce and its AAD), so it is the only
    /// checkpoint a restore accepts.
    generation: u64,
}

impl CheckpointStore {
    /// Creates a store writing to `path` in the REE file system.
    /// `deserialise_cost` is the fixed cost of rebuilding in-memory structures
    /// after decryption (the `checkpoint_restore` profile entry);
    /// `decrypt_bytes_per_sec` the TEE decryption throughput.
    pub fn new(
        path: impl Into<String>,
        deserialise_cost: SimDuration,
        decrypt_bytes_per_sec: f64,
    ) -> Self {
        CheckpointStore {
            path: path.into(),
            deserialise_cost,
            decrypt_bytes_per_sec,
            generation: 0,
        }
    }

    fn key(&self, huk: &HardwareUniqueKey) -> SealKey {
        SealKey::derive(huk.checkpoint_key().expose(), &self.path)
    }

    fn aad(&self) -> Vec<u8> {
        SealAad::new("framework-checkpoint")
            .field("path", self.path.as_bytes())
            .u64("generation", self.generation)
            .into_bytes()
    }

    /// Saves `state` sealed under the next generation, superseding every
    /// earlier save; returns the write latency.
    pub fn save(
        &mut self,
        huk: &HardwareUniqueKey,
        fs: &mut FileSystem,
        state: &[u8],
    ) -> SimDuration {
        self.generation += 1;
        let mut nonce = [0u8; SEAL_NONCE_LEN];
        nonce[..8].copy_from_slice(&self.generation.to_le_bytes());
        let blob = seal(&self.key(huk), &nonce, &self.aad(), state).to_bytes();
        let write_time = fs.device().read_time(blob.len() as u64); // symmetric write model
        fs.write_file(self.path.clone(), FileContent::Bytes(blob));
        write_time
    }

    /// Restores the framework state of the latest save, verifying integrity.
    pub fn restore(
        &self,
        huk: &HardwareUniqueKey,
        fs: &mut FileSystem,
    ) -> Result<RestoredCheckpoint, CheckpointError> {
        let read = fs.read_all(&self.path)?;
        let bytes = read.data.ok_or(CheckpointError::Malformed)?;
        let blob = SealedBlob::from_bytes(&bytes).ok_or(CheckpointError::Malformed)?;
        let state = open(&self.key(huk), &self.aad(), &blob)
            .map_err(|_| CheckpointError::IntegrityFailure)?;
        let decrypt = SimDuration::from_secs_f64(state.len() as f64 / self.decrypt_bytes_per_sec);
        Ok(RestoredCheckpoint {
            state,
            duration: read.duration + decrypt + self.deserialise_cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ree_kernel::FlashDevice;
    use sim_core::Bandwidth;

    fn fs() -> FileSystem {
        FileSystem::new(FlashDevice::new(Bandwidth::from_bytes_per_sec(2.0e9), 2.5))
    }

    fn store() -> CheckpointStore {
        CheckpointStore::new("llm.ckpt", SimDuration::from_millis(140), 9.2e9)
    }

    #[test]
    fn save_restore_roundtrip() {
        let huk = HardwareUniqueKey::provision("dev");
        let mut fs = fs();
        let mut store = store();
        let state = b"tokenizer tables + metadata + graph layout".to_vec();
        store.save(&huk, &mut fs, &state);
        let restored = store.restore(&huk, &mut fs).unwrap();
        assert_eq!(restored.state, state);
        // Restore must be far cheaper than the 2.3 s cold init it replaces.
        assert!(restored.duration.as_secs_f64() < 0.5);
    }

    #[test]
    fn checkpoint_is_encrypted_at_rest() {
        let huk = HardwareUniqueKey::provision("dev");
        let mut fs = fs();
        let state = b"secret tokenizer merges".to_vec();
        store().save(&huk, &mut fs, &state);
        let raw = fs.raw_bytes("llm.ckpt").unwrap();
        // Plaintext must not appear in the on-flash blob.
        assert!(!raw.windows(state.len()).any(|w| w == &state[..]));
    }

    #[test]
    fn tampering_is_detected() {
        let huk = HardwareUniqueKey::provision("dev");
        let mut fs = fs();
        let mut store = store();
        store.save(&huk, &mut fs, b"state");
        let mut blob = fs.raw_bytes("llm.ckpt").unwrap().to_vec();
        let last = blob.len() - 1;
        blob[last] ^= 0x80;
        fs.write_file("llm.ckpt", FileContent::Bytes(blob));
        assert_eq!(
            store.restore(&huk, &mut fs).unwrap_err(),
            CheckpointError::IntegrityFailure
        );
    }

    #[test]
    fn missing_or_malformed_checkpoints_are_reported() {
        let huk = HardwareUniqueKey::provision("dev");
        let mut fs = fs();
        assert_eq!(
            store().restore(&huk, &mut fs).unwrap_err(),
            CheckpointError::Missing
        );
        fs.write_file("llm.ckpt", FileContent::Bytes(b"garbage".to_vec()));
        assert_eq!(
            store().restore(&huk, &mut fs).unwrap_err(),
            CheckpointError::Malformed
        );
    }

    #[test]
    fn wrong_device_cannot_restore() {
        let huk = HardwareUniqueKey::provision("dev");
        let other = HardwareUniqueKey::provision("other-dev");
        let mut fs = fs();
        let mut store = store();
        store.save(&huk, &mut fs, b"state");
        assert_eq!(
            store.restore(&other, &mut fs).unwrap_err(),
            CheckpointError::IntegrityFailure
        );
    }
}
