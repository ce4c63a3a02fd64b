//! # tzllm
//!
//! The paper's core contribution: protecting on-device LLM inference with Arm
//! TrustZone while keeping it fast and memory-efficient.
//!
//! * [`restore`] — restoration operators and the extended computation graph
//!   (allocation / loading / decryption inserted before each prefill
//!   operator), plus the critical-path analysis.
//! * [`pipeline`] — the pipeline scheduler: sequential, priority-based and
//!   priority+preemptive policies over {CPU cores, NPU, I/O engine}.
//! * [`cache`] — partial parameter caching (reverse-topological lazy release).
//! * [`kv`] — the secure paged KV-cache manager: per-session prefix
//!   retention, sealed spill under memory pressure, multi-turn reuse.
//! * [`codriver`] — TEE-REE NPU time-sharing built on the co-driver split,
//!   driving the real REE control-plane and TEE data-plane drivers.
//! * [`system`] — the one pricing function for the four evaluated systems
//!   (TTFT with its breakdown, decode speed) and the serving plan cache.
//! * [`serving`] — the multi-session serving layer: request queueing,
//!   admission, live cache-driven dispatch, fleet statistics.
//! * [`telemetry`] — TTFT waterfalls and fleet-wide critical-path
//!   attribution over a finished serving report.
//! * [`fleet`] — the sharded parallel fleet runner: one independent serving
//!   simulation per device shard on scoped threads, splittable seeds,
//!   deterministic associative stats merging.
//! * [`slo`] — SLO attainment / error-budget burn-rate monitoring over the
//!   windowed metrics, with OpenMetrics + CSV export and overload-episode
//!   detection.
//! * [`baseline`] — the REE-LLM-Memory, REE-LLM-Flash and Strawman baselines
//!   as rows of that pricing function.
//! * [`related`] — the qualitative comparison of Table 1.

pub mod baseline;
pub mod cache;
pub mod codriver;
pub mod fleet;
pub mod kv;
pub mod pipeline;
pub mod related;
pub mod restore;
pub mod serving;
pub mod slo;
mod step;
pub mod system;
pub mod telemetry;

pub use baseline::{evaluate, strawman_breakdown, SystemKind};
pub use cache::{CacheController, CachePolicy};
pub use codriver::{LlmPhase, LlmPlacement, NpuSharingSim, SharingConfig, SharingResult};
pub use kv::{ChainStoreStats, KvBalance, KvConfig, KvPool, KvQuery, KvReuse, KvStats};
pub use pipeline::{simulate, PipelineConfig, PipelineResult, Policy};
pub use restore::{CriticalPaths, OpLabel, PipeOp, PipeOpKind, RestorePlan, RestoreRates};
pub use serving::{
    ConfigError, ModelId, Request, RequestRecord, RetentionPolicy, Server, ServingConfig,
    ServingReport, ServingStats,
};
pub use slo::{
    csv_timeseries, openmetrics, validate_openmetrics, OverloadEpisode, SloConfig, SloReport,
    SloTarget, TargetReport, WindowAttainment,
};
pub use system::{
    cma_occupancy, evaluate_tzllm, InferenceConfig, InferenceReport, PlanCache, TtftBreakdown,
};
pub use telemetry::{critical_path_report, ttft_waterfall, CriticalPathReport, LaneAttribution};
pub use tz_quant::SpillFormat;
