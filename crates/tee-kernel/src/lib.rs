//! # tee-kernel
//!
//! Model of the TEE OS (OpenHarmony's trusted OS in the paper) plus the TEE
//! side of TZ-LLM's additions:
//!
//! * [`ta`] — trusted applications and address-space isolation.
//! * [`secure_memory`] — the "extend and shrink" secure-memory scaling
//!   interface (§4.2), with Iago-attack validation of CMA replies.
//! * [`key_service`] — the model-key service (hardware-wrapped keys, §6).
//! * [`npu_data_plane`] — the user-mode TEE NPU data-plane driver and the
//!   world-switch protocol (§4.3).
//! * [`checkpoint`] — sealed framework-state checkpoint/restore (§3.2).
//! * [`kv_pool`] — the secure KV page store: content-addressed, refcounted
//!   pages with sealed spill to normal-world memory (the functional half of
//!   the KV-cache manager).
//! * [`thread`] — shadow-thread scheduling with TEE-managed synchronisation.
//!
//! Everything in this crate is inside the TCB, and the paper's goal of
//! keeping TEE OS modifications tiny is mirrored here: the policy lives in
//! small, self-contained modules, and all state handed to the normal world
//! (KV pages, checkpoints, wrapped model keys) is sealed by the one
//! primitive, [`tz_crypto::seal()`].

pub mod checkpoint;
pub mod key_service;
pub mod kv_pool;
pub mod npu_data_plane;
pub mod secure_memory;
pub mod ta;
pub mod thread;

pub use checkpoint::{CheckpointError, CheckpointStore, RestoredCheckpoint};
pub use key_service::{KeyService, KeyServiceError};
pub use kv_pool::{KvPoolError, PageHash, SealedSharedPage, SharedKvStore, SharedSpill};
pub use npu_data_plane::{HandoffResult, SecurityViolation, SwitchCost, TeeNpuDriver};
pub use secure_memory::{ScalableRegion, ScalingCost, ScalingError, SecureMemoryManager};
pub use ta::{TaError, TaId, TaRegistry, TrustedApp};
pub use thread::{
    ResumeOutcome, ShadowThreadManager, TaThreadId, TeeMutexId, ThreadError, ThreadState,
};
pub use tz_quant::SpillFormat;
