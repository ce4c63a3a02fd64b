//! Multi-session serving on one TZ-LLM device.
//!
//! The paper evaluates one inference at a time; this module turns the same
//! calibrated machinery into a *serving system*: a [`Server`] owns a
//! catalogue of models, one shared [`CacheController`] per model, and the
//! device's CPU/NPU/flash resources, and is driven by [`sim_core::Engine`]
//! events.  Requests arrive from workload-generated arrival processes
//! ([`workloads::traffic`]), wait in an admission-bounded FIFO queue, and
//! execute through exactly the paper's request path — [`RestorePlan`] +
//! [`crate::pipeline::simulate`] — with the cached fraction of the
//! parameters read from the **live cache controller at dispatch time**, so
//! inter-request cache warm-up and eviction under REE memory pressure shape
//! each request's TTFT.
//!
//! [`RestorePlan`]: crate::restore::RestorePlan
//!
//! ## Device model: the batched step loop
//!
//! The paper's core insight — restoration overlaps computation *within* one
//! request (§4.1) — is lifted here to the inter-request level.  The device's
//! three resource lanes (CPU cores, the NPU, the flash channel) are tracked
//! in a shared [`sim_core::CapacityLedger`] instead of an all-or-nothing
//! busy flag, and three activities share them:
//!
//! * **Service** (the pre-NPU part of a dispatch: pipelined restoration and
//!   KV unseal): at most one request at a time is in its service phase.  A
//!   cold service occupies the flash channel and all big cores for its
//!   pipelined restoration; a fully cached one needs one core.
//! * **The step loop**: the NPU runs one *step* at a time, and each step is
//!   one batched decode pass over every active sequence plus at most one
//!   *chunk* of one prefill.  A step costs the weight read and the operator
//!   launches once per distinct model — amortised across the whole
//!   batch — plus every sequence's per-token KV/compute cost, priced by the
//!   crate's one step pricer (`StepBatch::choose` in `step.rs`).  Decode on
//!   this hardware is memory-bound, so a small prefill chunk rides in the
//!   weight-read slack nearly for free, and a long prefill interleaves
//!   between decode steps instead of pausing them.  The chunk is
//!   [`ServingConfig::prefill_chunk_tokens`] long, except when every
//!   in-flight slot is taken, a request waits and the step has decodes:
//!   then no new prefill can start before a decode finishes, and the chunk
//!   is sized to the step's weight-read slack, so it costs the decodes
//!   nothing (stall-free batching, as in Sarathi-Serve); a compute-bound
//!   pass has no slack and carries one prompt token's share, so the prefill
//!   still advances.  A slot a finishing decode frees is refilled before
//!   the next step is priced.  A service hands its prefill to the loop when
//!   its pre-NPU phase ends, and at every step boundary the chunk slot goes
//!   to the prefill with the least NPU work left (the earliest on a tie, and
//!   the holder yields only to strictly less), so a short turn's first
//!   token does not wait out a long prefill that took the slot first — the
//!   §4.1 scheduler's preemptible micro-operators, lifted to prefills.  No
//!   prefill takes the slot ahead of an earlier prefill of its model that
//!   restored parameters.
//! * **Restore-ahead**: whenever the flash/decrypt/alloc lanes are idle
//!   (typically while the only active requests decode), the dispatcher peeks
//!   the queue and starts restoring the next request's missing parameters
//!   into its model's cache.  The credited bytes are a prefix of the blob —
//!   exactly the shape partial parameter caching needs — so a cold queued
//!   request is partially (often fully) warm by the time it dispatches, and
//!   cold-start cost largely vanishes under sustained load.
//!
//! With `max_inflight = 1` and restore-ahead off the loop degenerates to the
//! strict serial device of the paper's prototype: one request owns the
//! device from dispatch to its last token, and every step decodes that one
//! sequence.  [`ServingConfig::serial`] builds that baseline.
//!
//! ## Retention between requests
//!
//! Between requests the retention policy decides how many parameter bytes
//! stay resident in secure memory — the serving-layer realisation of §4.1's
//! partial parameter caching:
//!
//! * the first request for a model always cold-starts;
//! * when a model's last in-flight request completes, the controller
//!   retains a prefix of the blob bounded by the policy and by the REE's
//!   memory headroom (while requests are in flight the whole blob stays
//!   pinned, see below);
//! * with [`RetentionPolicy::Adaptive`], the retained prefix *grows* with
//!   every completed request, so consecutive warm requests get strictly
//!   faster until the cache saturates.
//!
//! ## Idle and live TA contexts
//!
//! A dispatch is priced by the state of its model's TA context:
//!
//! * **Idle** (no request of the model in flight): the TA is suspended, and
//!   every idle dispatch restores the framework-state checkpoint, maps a
//!   fresh KV cache plus activation arena, and restores whatever parameter
//!   bytes retention did not keep.
//! * **Live** (requests of the model in flight): the request *joins* the
//!   running context.  The first dispatch of a context pins the whole blob
//!   resident, and retention applies only when the context's last in-flight
//!   request completes — so a joiner reads a fully cached blob, restores
//!   nothing, holds no flash lane, pays no framework init, and allocates
//!   only its own KV cache.  Its NPU work never races the restore it relies
//!   on: the service phase is exclusive, and no prefill takes the chunk slot
//!   ahead of an earlier prefill of its model that restored parameters.  The
//!   serial device (`max_inflight = 1`) never joins.
//!
//! The batched step loop already charges one weight pass per distinct
//! model; pinning makes dispatch agree that each model has one copy.
//!
//! ## KV retention between turns
//!
//! With [`crate::kv::KvConfig::enabled`], per-session KV prefixes survive
//! request completion in a paged [`crate::kv::KvPool`]: a follow-up turn
//! whose prompt extends the session's previous context prefills only the
//! new tokens, sealed (spilled) pages pay unseal time on the decrypt lane,
//! and restore-ahead unseals, on idle lanes alongside parameter restore,
//! exactly the sealed state the queued request's dispatch will claim (each
//! request carries one [`crate::kv::KvQuery`] for both).  With
//! [`crate::kv::KvConfig::shared`] the pool is additionally
//! *content-addressed* across sessions: whole KV pages are keyed by a hash
//! chain over their token contents ([`llm::PromptContent`]), so every
//! session of a model whose prompt opens with the same head (a
//! product-wide system prompt) references one secure copy — a **cold first
//! turn** of a brand-new session hits KV state other sessions produced, and
//! [`ServingStats`] reports the shared-hit rate and the deduped bytes.
//! With a quantized [`crate::kv::KvConfig::spill_format`]
//! sealed pages cross the world boundary as INT8/INT4 blocks — the spill
//! budget holds 2–4× the pages — and restores pay a dequant pass charged to
//! the same decrypt lane, where it hides behind the prefill's NPU window
//! like the unseal itself.  Parameters are senior in the memory budget; see
//! the [`crate::kv`] module docs for the spill/retention rules.
//!
//! ## Example
//!
//! ```
//! use tz_hal::PlatformProfile;
//! use workloads::{ArrivalProcess, WorkloadSpec};
//! use tzllm::serving::{Server, ServingConfig};
//!
//! let config = ServingConfig::paper_default(PlatformProfile::rk3588());
//! let workload = WorkloadSpec::standard(
//!     ArrivalProcess::Poisson { rate_per_sec: 0.05 },
//!     10,
//!     "qwen2.5-3b",
//! );
//! let report = Server::run_workload(config, llm::ModelSpec::catalogue(), &workload, 42);
//! assert_eq!(report.records.len(), 10);
//! let fleet = &report.fleet;
//! assert!(fleet.ttft_ms.unwrap().p99 >= fleet.ttft_ms.unwrap().p50);
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use llm::{derive_seed, ModelSpec, PromptContent};
use sim_core::telemetry::{LabelId, Phase, Telemetry, Track};
use sim_core::{
    CapacityLedger, DetRng, Engine, EventScheduler, LaneId, LaneUsage, PercentileSummary,
    SimDuration, SimTime, WindowedMetrics,
};
use tz_hal::PlatformProfile;
use workloads::{Benchmark, ScriptedRequest, SessionScript, SessionStyle, WorkloadSpec};

use crate::cache::{CacheController, CachePolicy};
use crate::kv::{ChainStoreStats, KvConfig, KvPool, KvQuery};
use crate::pipeline::Policy;
use crate::restore::RestoreRates;
use crate::step::{self, Chunk, ChunkMode, StepBatch, StepMember, StepModel};
use crate::system::{self, InferenceReport, PlanCache, PlanRequest, ServiceParams};

/// Restore-ahead progress is credited to the cache in whole multiples of
/// this quantum, which keeps the plan cache's `cached_bytes` key space small
/// without noticeably under-crediting (1 MiB restores in well under a
/// millisecond on the calibrated lanes).
const RESTORE_AHEAD_QUANTUM: u64 = sim_core::MIB;

/// How many parameter bytes stay resident in secure memory between requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetentionPolicy {
    /// Release everything after each request (every request cold-starts).
    ReleaseAll,
    /// Keep everything resident (no REE memory pressure).
    KeepAll,
    /// Start at zero and grow the retained prefix by `step_fraction` of the
    /// blob with each completed request, up to the REE memory headroom:
    /// retention is *earned* by demonstrated reuse, so a request sequence
    /// warms up gradually instead of pinning a whole model after one hit.
    Adaptive {
        /// Fraction of the blob added to the retention target per completion.
        step_fraction: f64,
    },
}

/// Speculative decoding on the batched step loop: a small draft model
/// proposes up to `k` tokens per active decode each step, and the batched
/// target pass verifies all proposals in one NPU sweep, emitting the
/// accepted prefix plus the bonus token the verify pass scores anyway.
/// Decode on this hardware is weight-read-bound, so at low batch occupancy
/// the extra verified positions ride in bandwidth the step already pays
/// for; at high occupancy the step is compute-bound and each drafted
/// position costs real NPU time.  So every step that may speculate (no
/// prefill chunk in it) picks its own draft depth between 0 and `k`: the
/// one with the most expected emitted tokens per second of step time, at
/// the acceptance rate the server has observed so far.
///
/// The draft is derived, not configured: [`Server::new`] wires the
/// [`llm::ModelSpec::drafts`] entry whose tokenizer (`vocab`) a catalogue
/// model shares, and the draft proposes only for those models; the others
/// decode plainly.  When no catalogue model shares a draft's tokenizer, no
/// draft entry is wired and the run is bit for bit the run with
/// speculation off.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculationConfig {
    /// Maximum draft depth: the most tokens the draft proposes per sequence
    /// per step.  Each step chooses its depth in `0..=k`.  `0` is
    /// speculation off, the escape hatch: the step loop prices and advances
    /// exactly like the plain batched dispatcher, bit for bit — the
    /// acceptance RNG is never drawn and no draft entry is wired.
    pub k: usize,
}

impl SpeculationConfig {
    /// Speculation off — the default everywhere.
    pub fn off() -> Self {
        SpeculationConfig { k: 0 }
    }

    /// The paper-testbed speculation setup: up to four draft tokens per
    /// sequence per step (the Qwen2.5-0.5B draft, for the Qwen2.5-3B
    /// target).
    pub fn paper_default() -> Self {
        SpeculationConfig { k: 4 }
    }
}

/// A numeric model identity: the index of the model in the server's
/// catalogue.  The dispatch hot path uses this everywhere instead of cloning
/// `String` names and walking a `BTreeMap` per request; names only appear at
/// the submit boundary (interning) and in the per-request records
/// (materialised once per completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelId(pub u32);

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Platform calibration.
    pub profile: PlatformProfile,
    /// Pipeline scheduling policy used for every dispatched request.
    pub policy: Policy,
    /// REE memory pressure in bytes (drives CMA migration cost and bounds
    /// adaptive retention).
    pub memory_pressure: u64,
    /// Admission policy: arrivals beyond this many waiting requests are
    /// rejected.
    pub max_queue_depth: usize,
    /// Inter-request cache retention policy.
    pub retention: RetentionPolicy,
    /// Maximum requests simultaneously in flight (in service, prefilling or
    /// decoding).  `1` reproduces the strict serial device of the paper's
    /// prototype.
    pub max_inflight: usize,
    /// Whether to restore queued requests' parameters ahead of dispatch on
    /// idle flash/decrypt/alloc lanes.
    pub restore_ahead: bool,
    /// Prefill chunk size in prompt tokens: at most one chunk of the active
    /// prefill joins each NPU step, and it is this long below the in-flight
    /// cap or with nothing queued.  At the cap with a request waiting, a
    /// step with decodes sizes its chunk to its weight-read slack instead.
    pub prefill_chunk_tokens: usize,
    /// Capacity of the restoration-plan cache (entries); `0` disables it and
    /// every dispatch rebuilds and resimulates its plan.
    pub plan_cache_capacity: usize,
    /// The secure KV-cache manager's knobs (retention, spill, budgets).
    /// Disabled by default — [`ServingConfig::chat_default`] turns it on.
    pub kv: KvConfig,
    /// Speculative draft-model decoding on the batched step loop.  Off by
    /// default; when off, batched runs reproduce the plain step loop bit
    /// for bit.
    pub speculation: SpeculationConfig,
    /// Step-level telemetry: per-request lifecycle spans and per-lane
    /// step, restore-ahead, seal and occupancy spans, exported on
    /// [`ServingReport::telemetry`].  Spans only: counters, gauges and
    /// latency distributions are recorded once, by
    /// [`ServingConfig::metrics`].  Off by default; telemetry is
    /// observe-only — enabling it changes no event time, RNG draw, or stat
    /// (the serial-reproduction suite proves this bit for bit).
    pub telemetry: bool,
    /// Windowed metrics: `Some(window)` records per-window counters,
    /// gauges and ≤1%-error latency sketches per request class
    /// (`SessionStyle` label) at that window width, exported on
    /// [`ServingReport::metrics`] — the fleet-mergeable low-cardinality
    /// companion to the raw [`ServingConfig::telemetry`] traces.  `None`
    /// (the default) is off; like telemetry, metrics are observe-only —
    /// enabling them changes no event time, RNG draw, or stat (the
    /// serial-reproduction suite proves this bit for bit).
    pub metrics: Option<SimDuration>,
}

impl ServingConfig {
    /// The default serving setup on the paper's testbed: preemptive
    /// pipelining, 8 GiB of REE pressure, a 64-deep queue, adaptive
    /// retention in 25 % steps, the batched step loop over up to twelve
    /// in-flight requests with 128-token prefill chunks and restore-ahead,
    /// and a 4096-entry plan cache.
    pub fn paper_default(profile: PlatformProfile) -> Self {
        ServingConfig {
            profile,
            policy: Policy::PriorityPreemptive,
            memory_pressure: 8 * sim_core::GIB,
            max_queue_depth: 64,
            retention: RetentionPolicy::Adaptive {
                step_fraction: 0.25,
            },
            max_inflight: 12,
            restore_ahead: true,
            prefill_chunk_tokens: 128,
            plan_cache_capacity: 4096,
            kv: KvConfig::disabled(),
            speculation: SpeculationConfig::off(),
            telemetry: false,
            metrics: None,
        }
    }

    /// The chat-serving setup: the paper default plus the secure KV-cache
    /// manager, so multi-turn sessions reuse their conversation prefix
    /// instead of re-prefilling it (sealed spill under memory pressure).
    pub fn chat_default(profile: PlatformProfile) -> Self {
        ServingConfig {
            kv: KvConfig::chat_default(),
            ..Self::paper_default(profile)
        }
    }

    /// The serial device of the paper's prototype: the step loop with one
    /// request in flight and nothing restored ahead of dispatch, so one
    /// request owns the whole device from dispatch to its last token — the
    /// comparison point for the batched dispatcher's benchmarks and tests.
    pub fn serial(profile: PlatformProfile) -> Self {
        ServingConfig {
            max_inflight: 1,
            restore_ahead: false,
            ..Self::paper_default(profile)
        }
    }

    /// Checks every field the server cannot run outside its range:
    /// `max_inflight` and `prefill_chunk_tokens` at least 1, and the
    /// adaptive retention step and the KV budget fraction in `[0, 1]`.
    /// [`Server::new`] calls this before it schedules anything.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let fraction = |f: f64| (0.0..=1.0).contains(&f);
        if self.max_inflight == 0 {
            return Err(ConfigError::ZeroMaxInflight);
        }
        if self.prefill_chunk_tokens == 0 {
            return Err(ConfigError::ZeroPrefillChunkTokens);
        }
        if let RetentionPolicy::Adaptive { step_fraction } = self.retention {
            if !fraction(step_fraction) {
                return Err(ConfigError::StepFraction(step_fraction));
            }
        }
        if !fraction(self.kv.budget_fraction) {
            return Err(ConfigError::KvBudgetFraction(self.kv.budget_fraction));
        }
        Ok(())
    }
}

/// A [`ServingConfig`] field outside the range the server can run; the
/// `Display` form names the field and its value.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `max_inflight` is 0: no admitted request could ever dispatch.
    ZeroMaxInflight,
    /// `prefill_chunk_tokens` is 0: no prefill could make progress.
    ZeroPrefillChunkTokens,
    /// `RetentionPolicy::Adaptive { step_fraction }` is outside `[0, 1]` or
    /// NaN.
    StepFraction(f64),
    /// `kv.budget_fraction` is outside `[0, 1]` or NaN.
    KvBudgetFraction(f64),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroMaxInflight => write!(f, "max_inflight = 0, must be at least 1"),
            ConfigError::ZeroPrefillChunkTokens => {
                write!(f, "prefill_chunk_tokens = 0, must be at least 1")
            }
            ConfigError::StepFraction(v) => write!(
                f,
                "retention Adaptive {{ step_fraction }} = {v}, must be in [0, 1]"
            ),
            ConfigError::KvBudgetFraction(v) => {
                write!(f, "kv.budget_fraction = {v}, must be in [0, 1]")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// One serving request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Dense id in submission order.
    pub id: u64,
    /// Session the request belongs to.
    pub session: u64,
    /// Catalogue model name.
    pub model: String,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Leading prompt tokens identical to the session's previous context
    /// (conversation history): the KV manager can serve them from retained
    /// state.  Zero for independent requests.
    pub shared_prefix_len: usize,
    /// Leading prompt tokens drawn from a workload-wide shared stream (a
    /// system prompt other sessions also open with); the content-addressed
    /// KV pool can serve them from pages *other* sessions produced.
    pub system_prefix_len: usize,
    /// Tokens to generate.
    pub output_len: usize,
}

/// The queued form of a request: everything the dispatcher needs, with the
/// model interned to a [`ModelId`] (no `String` in the hot path).
#[derive(Debug, Clone)]
struct QueuedRequest {
    id: u64,
    session: u64,
    model: ModelId,
    prompt_len: usize,
    shared_prefix_len: usize,
    system_prefix_len: usize,
    output_len: usize,
    /// Content identity of the prompt's token stream — what the
    /// content-addressed KV pool hashes into page keys.
    content: PromptContent,
    /// Content seed of the response this request will generate.
    output_seed: u64,
    /// The request's question to the KV pool — the prompt's page-hash
    /// chain at this model's page geometry (empty when the KV manager is
    /// off), its declared overlap and its reuse cap — built once at
    /// submission: the restore-ahead scan walks the queue on every
    /// dispatcher event and must not re-hash every queued prompt each time.
    kv: KvQuery,
    /// Per-mille draft-acceptance rate of this request's response text
    /// (workload-keyed; see `ScriptedRequest::accept_permille`).
    accept_permille: u16,
    /// Seed of the request's private acceptance stream.
    accept_seed: u64,
    /// Session-style tag for telemetry span labels (`"independent"`,
    /// `"conversation"`, `"assistant"`); carried, never branched on.
    style_label: &'static str,
}

/// The full latency record of one completed request.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// The request.
    pub request: Request,
    /// When it arrived.
    pub arrival: SimTime,
    /// When the device started serving it.
    pub dispatched: SimTime,
    /// When its first token was produced (end-to-end TTFT = this − arrival).
    pub first_token: SimTime,
    /// When its last token was produced.
    pub completed: SimTime,
    /// Fraction of the parameters that were resident when it was dispatched.
    pub cached_fraction: f64,
    /// Prompt tokens served from the session's retained KV prefix (skipped
    /// by the prefill).
    pub kv_reused_tokens: usize,
    /// Of the reused tokens, how many came from shared pages this session
    /// did not itself retain (cross-session prefix hits).
    pub kv_shared_tokens: usize,
    /// Sealed (compressed) KV bytes unsealed at dispatch for this request.
    pub kv_unsealed_bytes: u64,
    /// f16 KV bytes dequantized at dispatch for this request (zero unless
    /// the spill format is quantized).
    pub kv_dequant_bytes: u64,
    /// Decode time lost to sharing the NPU with the rest of the batch: the
    /// step time beyond the sequence's solo time for the tokens it emitted,
    /// summed over every step it was a member of.
    pub stall_sharing: SimDuration,
    /// Prefill time beyond the ideal service TTFT: how long the chunked
    /// prefill waited on the decode steps it interleaved with, including
    /// the time it spent spread thin over slack-sized chunks at the
    /// in-flight cap and the steps it waited for the chunk slot while
    /// other prefills held it — earlier ones, or later ones with less work
    /// left (zero, up to step-time rounding, when nothing shared its steps).
    pub prefill_stall: SimDuration,
    /// The per-request evaluation (service-time TTFT, decode speed, breakdown).
    pub report: InferenceReport,
}

impl RequestRecord {
    /// Time spent waiting in the queue.
    pub fn queue_wait(&self) -> SimDuration {
        self.dispatched.saturating_since(self.arrival)
    }

    /// End-to-end TTFT as the user sees it (queueing included).
    pub fn ttft_e2e(&self) -> SimDuration {
        self.first_token.saturating_since(self.arrival)
    }

    /// The ideal decode duration at the request's intrinsic token rate; the
    /// realised `completed - first_token` exceeds this by the time lost to
    /// sharing the NPU with the batch.
    pub fn ideal_decode(&self) -> SimDuration {
        let tokens = self.request.output_len.saturating_sub(1);
        SimDuration::from_secs_f64(tokens as f64 / self.report.decode_tokens_per_sec)
    }

    /// Decode time beyond [`RequestRecord::ideal_decode`], derived from the
    /// timestamps; [`RequestRecord::stall_sharing`] is the step loop's own
    /// attribution of it to sharing the NPU with the batch.
    pub fn decode_stall(&self) -> SimDuration {
        self.completed
            .saturating_since(self.first_token)
            .saturating_sub(self.ideal_decode())
    }

    /// Service TTFT as realised on the device (dispatch → first token):
    /// `report.ttft` plus [`RequestRecord::prefill_stall`], the time the
    /// chunked prefill waited on the decode steps it interleaved with.
    pub fn service_ttft(&self) -> SimDuration {
        self.first_token.saturating_since(self.dispatched)
    }
}

/// Aggregate statistics over one serving run (one device); the sharded
/// fleet's merge of many runs is [`crate::fleet::FleetStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServingStats {
    /// Completed requests.
    pub completed: usize,
    /// Requests rejected by admission control.
    pub rejected: usize,
    /// Completion time of the last request.
    pub horizon: SimTime,
    /// Completed requests per second of simulated time.
    pub throughput_rps: f64,
    /// End-to-end TTFT (arrival → first token), milliseconds.
    pub ttft_ms: Option<PercentileSummary>,
    /// Service TTFT (dispatch → first token), milliseconds.
    pub service_ttft_ms: Option<PercentileSummary>,
    /// Time-weighted mean number of waiting requests.
    pub mean_queue_depth: f64,
    /// Maximum number of waiting requests.
    pub max_queue_depth: usize,
    /// Mean cached fraction observed at dispatch (the cache hit-fraction).
    pub mean_cached_fraction: f64,
    /// Dispatches that found a completely cold cache.
    pub cold_starts: usize,
    /// Parameter bytes restored ahead of dispatch on otherwise idle lanes.
    pub restore_ahead_bytes: u64,
    /// Dispatches whose restoration plan came from the plan cache.
    pub plan_cache_hits: u64,
    /// Dispatches that built and simulated a fresh restoration plan.
    pub plan_cache_misses: u64,
    /// NPU busy fraction over the run.
    pub npu_utilisation: f64,
    /// Mean per-request [`RequestRecord::decode_stall`]: decode time beyond
    /// the intrinsic token rate, milliseconds.
    pub mean_decode_stall_ms: f64,
    /// Mean per-request [`RequestRecord::stall_sharing`]: decode time lost
    /// to sharing the NPU with the rest of the batch, milliseconds.
    pub mean_stall_sharing_ms: f64,
    /// NPU steps the step loop executed over the run.
    pub batch_steps: u64,
    /// Busy-time-weighted mean number of sequences per batched step.
    pub mean_batch_occupancy: f64,
    /// Batch-occupancy histogram: `(sequences in the step, busy seconds at
    /// that occupancy)` pairs, ascending.
    pub batch_occupancy: Vec<(u32, f64)>,
    /// Decode tokens generated per busy second of the batched step loop —
    /// the throughput the weight-read amortisation buys.  Counts *emitted*
    /// tokens, so under speculation this is the effective tokens/s
    /// (accepted prefixes included, rejected proposals excluded).
    pub batched_decode_tps: f64,
    /// Longest single batched step, milliseconds — bounds how long any
    /// decode token can be delayed by the step it shares.
    pub max_batch_step_ms: f64,
    /// Starvation guard: the maximum number of steps any decode sat in the
    /// batch without producing a token (structurally 0 — every member of
    /// every step advances by at least one token).
    pub batch_max_steps_behind: u64,
    /// Batched steps in which at least one sequence ran a speculative
    /// draft + verify pass — the steps whose chosen draft depth is at least
    /// 1 (0 when speculation is off).
    pub spec_steps: u64,
    /// The draft depths the step loop chose: `(depth, steps)` pairs,
    /// ascending, over every step that decided one (speculation on and no
    /// prefill chunk in the step).  Empty when speculation is off.
    pub spec_depth_per_step: Vec<(u32, u64)>,
    /// Draft tokens proposed across the run.
    pub spec_proposed_tokens: u64,
    /// Proposed tokens the verify pass accepted.
    pub spec_accepted_tokens: u64,
    /// Proposed tokens rejected and rewound off the paged KV tail.
    pub spec_rejected_tokens: u64,
    /// Acceptance rate over all proposals (0 when none were made).
    pub spec_accept_rate: f64,
    /// Share of batched busy time spent in draft passes and the one-time
    /// draft weight restore — the overhead the accepted tokens must win
    /// back before speculation nets out positive.
    pub spec_draft_overhead: f64,
    /// Histogram of tokens emitted per decode sequence per batched step
    /// while speculation is on (accepted prefix + bonus token; 1 for a
    /// sequence that drafted nothing): `(emitted, sequence-steps)` pairs,
    /// ascending.  Counts every decode sequence-step of a speculating
    /// server, including steps that carried a prefill chunk or chose depth
    /// 0.  Empty when speculation is off.
    pub spec_emitted_per_step: Vec<(u32, u64)>,
    /// Mean of [`ServingStats::spec_emitted_per_step`]: tokens emitted per
    /// decode sequence-step while speculation is on — the *effective*
    /// tokens/step that service-demand estimates (e.g. for SLO-aware
    /// admission) must use instead of 1.
    pub spec_mean_emitted_per_step: f64,
    /// KV hit rate: reused prefix tokens over the shared-prefix tokens the
    /// workload declared reusable (0 when no request had a shared prefix).
    pub kv_hit_rate: f64,
    /// Total prompt tokens served from retained KV state.
    pub kv_reused_tokens: u64,
    /// Plain (f16) KV bytes sealed and spilled to normal-world memory.
    pub kv_spilled_bytes: u64,
    /// Compressed bytes those seals actually wrote to normal-world memory —
    /// equal to `kv_spilled_bytes` at `SpillFormat::F16`, ~0.52× at INT8,
    /// ~0.27× at INT4.
    pub kv_spilled_compressed_bytes: u64,
    /// Sealed (compressed) KV bytes unsealed at dispatch time.
    pub kv_unsealed_bytes: u64,
    /// Sealed (compressed) KV bytes unsealed ahead of dispatch on idle lanes.
    pub kv_restore_ahead_bytes: u64,
    /// f16 bytes reconstructed by dequantization across unseals and
    /// prewarms (zero unless the spill format is quantized).
    pub kv_dequant_bytes: u64,
    /// Peak whole KV pages simultaneously sealed in the spill region (sealed
    /// partial tails are not counted) — at equal spill budget a quantized
    /// format holds 2–4× more.
    pub kv_peak_sealed_pages: u64,
    /// Peak compressed bytes simultaneously held in the spill region.
    pub kv_peak_sealed_bytes: u64,
    /// Retained KV bytes dropped (budget pressure, divergence, eviction).
    pub kv_dropped_bytes: u64,
    /// Prompt tokens served from shared pages the session did not itself
    /// retain (cross-session prefix hits).
    pub kv_shared_tokens: u64,
    /// Shared-hit rate on cold first turns: tokens served from other
    /// sessions' pages over the system-prefix tokens cold turns declared
    /// shareable (0 when no cold turn declared one).
    pub kv_shared_hit_rate: f64,
    /// Peak secure bytes the content-addressed store saved versus
    /// per-session copies: `Σ (refs − 1) × page bytes` at its maximum.
    pub kv_deduped_bytes: u64,
    /// End-to-end TTFT of follow-up turns (requests with a shared prefix),
    /// milliseconds — the KV manager's headline metric.
    pub followup_ttft_ms: Option<PercentileSummary>,
    /// Per-model chain-store snapshot at the end of the run (page counts,
    /// refs histogram, residency split) — where the sharing wins come from.
    pub kv_chain: Vec<ChainStoreStats>,
    /// Dispatch hit-depth distribution: `(whole pages matched, dispatches)`
    /// pairs, ascending (depth 0 = full miss).
    pub kv_hit_depth: Vec<(u32, u64)>,
}

/// Everything a serving run produced.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Per-request records in completion order.
    pub records: Vec<RequestRecord>,
    /// Requests rejected by admission control, in arrival order.
    pub rejected: Vec<Request>,
    /// Run-level statistics.
    pub fleet: ServingStats,
    /// Final accounting of the device lanes (capacity, peak concurrent use,
    /// busy time) — the overlap property tests assert peaks never exceed
    /// capacity.
    pub resources: Vec<LaneUsage>,
    /// The telemetry span store (`Some` iff [`ServingConfig::telemetry`]):
    /// request-lifecycle and lane spans — export with
    /// [`Telemetry::chrome_trace_json`] or the report helpers in
    /// [`crate::telemetry`].
    pub telemetry: Option<Telemetry>,
    /// The windowed metrics registry (`Some` iff [`ServingConfig::metrics`]):
    /// per-class TTFT/TBT latency sketches, queue-depth and batch-occupancy
    /// gauges, per-lane busy-time counters and sealed KV bytes, all in
    /// fixed-width time windows — what the fleet merge aggregates and the
    /// SLO monitor ([`crate::slo`]) evaluates.
    pub metrics: Option<WindowedMetrics>,
}

struct ModelEntry {
    spec: ModelSpec,
    cache: CacheController,
    /// Current adaptive retention target in bytes.
    retained_target: u64,
    /// Requests of this model currently in flight (service or decode).
    /// Non-zero means the TA context is live and the whole blob is pinned.
    active: usize,
    /// Steady-state restore-ahead bandwidth in bytes/s: the reciprocal of
    /// the slower of the flash lane and the (big_cores − 1)-thread
    /// alloc+decrypt lane, from the same calibrated [`RestoreRates`] the
    /// dispatch path uses.
    restore_rate: f64,
    /// `system::param_bytes` of this model, precomputed once for the
    /// dispatch hot path.
    graph_param_bytes: u64,
    /// KV bytes per token of this model (for the KV pool's accounting).
    kv_bytes_per_token: u64,
}

/// The request currently in its service (restore + prefill) phase.
struct ActiveService {
    record: RequestRecord,
    model: ModelId,
    /// Whether this service restores bytes (and therefore occupies the flash
    /// channel for the pipeline window).
    restoring: bool,
    /// CPU cores held for the service window (all big cores when restoring
    /// or unsealing KV pages — the decrypt threads are really busy — else
    /// one core for the CPU-resident operators).
    cores_held: u64,
    /// Page-hash chain of the request's *full* context (prompt + response),
    /// precomputed for the KV pool's completion-time retention.
    kv_full_hashes: Vec<u64>,
    /// Tokens of that full context.
    kv_total_tokens: usize,
    /// Acceptance model of the response (carried through to the decode).
    accept_permille: u16,
    accept_seed: u64,
}

/// A prefill whose pre-NPU phase (pipelined restoration, KV unseal) is done:
/// its NPU-side work now executes as chunk-sized slices interleaved into the
/// batched step loop, at most one chunk per step.
struct BatchedPrefill {
    record: RequestRecord,
    model: ModelId,
    /// Whether its dispatch restored parameters (`report.restored_bytes >
    /// 0`): later prefills of its model read that restore, so none of them
    /// takes the chunk slot before this one finishes.
    restoring: bool,
    /// NPU seconds of prefill work left — the plan's exclusive NPU window,
    /// consumed chunk by chunk.
    npu_secs_left: f64,
    /// NPU seconds one full chunk costs (the window split proportionally
    /// over the prompt's new tokens).
    chunk_secs: f64,
    /// NPU seconds one new prompt token costs: the least a slack-sized
    /// chunk consumes.
    token_secs: f64,
    /// Chunks already consumed, for telemetry span labels (`"chunk 3"`);
    /// pure bookkeeping, never priced.
    chunks_done: u32,
    kv_full_hashes: Vec<u64>,
    kv_total_tokens: usize,
    /// Acceptance model of the response (carried through to the decode).
    accept_permille: u16,
    accept_seed: u64,
}

impl BatchedPrefill {
    /// What the chunk-slot rule reads of this prefill.
    fn claim(&self) -> SlotClaim {
        SlotClaim {
            work_left: self.npu_secs_left,
            model: self.model,
            restoring: self.restoring,
        }
    }
}

/// A prefill as the chunk-slot rule reads it.
#[derive(Debug, Clone, Copy)]
struct SlotClaim {
    /// NPU seconds of prefill work left.
    work_left: f64,
    model: ModelId,
    /// Whether its dispatch restored parameters.
    restoring: bool,
}

/// The prefill that takes the next step's chunk slot, as an index into
/// `claims` — every unfinished prefill, in dispatch order — given `active`,
/// the index of the one that carried the last chunk (`None` when it
/// finished).
///
/// Least remaining work first: the slot goes to the eligible prefill with
/// the least work left, the earliest on a tie, and `active` keeps it unless
/// another has strictly less, so equal work keeps FIFO order and the slot
/// never moves back and forth.  A prefill is not eligible while an earlier
/// prefill of its model is restoring: its NPU work reads that restore.
fn chunk_slot<I>(claims: I, active: Option<usize>) -> Option<usize>
where
    I: Iterator<Item = SlotClaim> + Clone,
{
    let mut best: Option<(usize, f64)> = None;
    let mut active_work = None;
    for (i, c) in claims.clone().enumerate() {
        if Some(i) == active {
            active_work = Some(c.work_left);
        }
        let blocked = claims
            .clone()
            .take(i)
            .any(|e| e.restoring && e.model == c.model);
        if !blocked && best.is_none_or(|(_, work)| c.work_left < work) {
            best = Some((i, c.work_left));
        }
    }
    match (active.zip(active_work), best) {
        (Some((a, held)), Some((_, work))) if work >= held => Some(a),
        (_, best) => best.map(|(b, _)| b),
    }
}

/// A sequence decoding inside the batched step loop: every step it is a
/// member of produces exactly one of its tokens.
struct BatchedDecode {
    record: RequestRecord,
    /// What the step pricer reads: model, KV length, tokens left, and the
    /// per-step compute at the sequence's final KV length (decode compute is
    /// affine in the KV length; pricing every step at the final length
    /// keeps the step loop O(batch) and errs conservatively).
    member: StepMember,
    /// Steps this sequence has been a member of (tracked independently of
    /// `tokens_left` so the starvation guard measures, not assumes).
    steps_seen: u64,
    /// The solo token time — the plain step of this sequence alone — that
    /// sharing-stall accounting compares each step against.
    intrinsic_secs: f64,
    stall_sharing_ns: f64,
    kv_full_hashes: Vec<u64>,
    kv_total_tokens: usize,
    /// Per-mille probability that the target accepts one draft proposal of
    /// this response, and the request's private acceptance stream — the
    /// simulator's ground truth: it decides each verify's outcome, and the
    /// depth chooser never reads it.
    accept_permille: u16,
    accept_rng: DetRng,
    /// Tokens the draft proposed for this sequence in the in-flight step
    /// (0 when it runs a plain step, or when speculation is off).
    step_proposed: u64,
}

/// The sealed KV state a background restore is unsealing for one queued
/// request: the pool is addressed by content, so the request's own KV query
/// (not just the session id) names what to prewarm — including shared head
/// pages a brand-new session never retained itself — and it prewarms
/// exactly what the dispatch will claim.
struct RestoreKv {
    query: KvQuery,
    bytes: u64,
}

/// An in-progress background restoration of a queued request's missing
/// parameters and its sealed KV prefix — the parameters stream first, then
/// the KV pages unseal on the same lanes.
struct ActiveRestore {
    model: ModelId,
    started: SimTime,
    rate: f64,
    param_bytes: u64,
    kv: Option<RestoreKv>,
    kv_rate: f64,
    /// Whether the flash lane is held: parameters stream from flash, but a
    /// KV-only restore unseals DRAM-resident pages (decrypt threads only).
    holds_flash: bool,
}

struct ServerState {
    config: ServingConfig,
    models: Vec<ModelEntry>,
    /// Step-pricing coefficients, indexed like `models` (draft included).
    step_models: Vec<StepModel>,
    model_ids: BTreeMap<String, ModelId>,
    queue: VecDeque<(QueuedRequest, SimTime)>,
    /// Requests in flight (in service or decoding).
    inflight: usize,
    service: Option<ActiveService>,
    /// Sequences decoding in the batched step loop.
    batch_decodes: Vec<BatchedDecode>,
    /// Prefills past their pre-NPU phase, in dispatch order; each step's
    /// chunk slot goes to one of them ([`chunk_slot`]).
    batch_prefills: Vec<BatchedPrefill>,
    /// Index into `batch_prefills` of the prefill holding the chunk slot
    /// (the one the last step chunked, while it is unfinished).
    batch_slot: Option<usize>,
    /// Whether a step-end event is in flight (the loop is stepping).
    batch_running: bool,
    /// Duration of the in-flight step, seconds.
    batch_step_secs: f64,
    /// Chunk seconds the in-flight step consumes from the prefill holding
    /// the chunk slot.
    batch_step_chunk_secs: f64,
    /// Sub-nanosecond residue of step-duration rounding, carried into the
    /// next step so a long run of steps accumulates no drift.
    batch_carry_ns: f64,
    /// Whether the step loop currently holds the NPU lane.
    batch_npu_held: bool,
    batch_steps: u64,
    batch_busy_ns: u64,
    batch_decode_tokens: u64,
    /// Busy nanoseconds spent at each batch occupancy (sequences per step).
    batch_occupancy_ns: BTreeMap<u32, u64>,
    batch_max_step_ns: u64,
    batch_max_steps_behind: u64,
    /// Entry index of the speculation draft model, appended after the
    /// catalogue (`None` when speculation is off).
    draft: Option<ModelId>,
    /// Steps in which at least one sequence ran a draft + verify pass.
    spec_steps: u64,
    /// Steps per chosen draft depth, indexed by depth (`k + 1` entries when
    /// speculation is on, else empty).
    spec_depth_steps: Vec<u64>,
    /// Draft tokens proposed across all sequences and steps.
    spec_proposed_tokens: u64,
    /// Proposed tokens the verify pass accepted.
    spec_accepted_tokens: u64,
    /// Draft positions the verify pass examined: every accepted proposal
    /// plus the rejection each stopped verify ended at — the denominator of
    /// the server's acceptance estimate.
    spec_examined_tokens: u64,
    /// Proposed tokens rejected — their paged-KV tail entries are rewound
    /// before the next step is priced.
    spec_rejected_tokens: u64,
    /// Nanoseconds of step time spent in draft passes (and the one-time
    /// draft weight restore) — the overhead accepted tokens must win back.
    spec_draft_ns: u64,
    /// Histogram of tokens emitted per decode sequence per step while
    /// speculation is on (accepted prefix + bonus token):
    /// `emitted → sequence-steps`.
    spec_emitted_hist: BTreeMap<u32, u64>,
    restore: Option<ActiveRestore>,
    restore_epoch: u64,
    restore_ahead_bytes: u64,
    /// The secure KV-cache manager (per-session retained prefixes).
    kv: KvPool,
    /// Steady-state unseal bandwidth for sealed KV pages in *compressed*
    /// bytes/s (decrypt threads; the pages live in DRAM, so no flash read is
    /// involved).
    kv_unseal_rate: f64,
    /// Dequantization bandwidth in output (f16) bytes/s on the same decrypt
    /// threads — the lane cost of expanding a quantized page on restore.
    kv_dequant_rate: f64,
    /// Effective restore-ahead crediting rate over compressed bytes: each
    /// compressed byte pays its decrypt *and* its share of the dequant pass
    /// (`1 / (1/decrypt + expansion/dequant)`); equals `kv_unseal_rate`
    /// exactly when the spill format is f16.
    kv_prewarm_rate: f64,
    kv_requested_tokens: u64,
    kv_reused_tokens: u64,
    kv_restore_ahead_bytes: u64,
    /// System-prefix tokens that cold first turns (sessions with no retained
    /// state yet) declared shareable — the shared-hit-rate denominator.
    kv_shared_candidate_tokens: u64,
    /// Tokens those cold turns actually served from other sessions' pages.
    kv_shared_hit_tokens: u64,
    ledger: CapacityLedger,
    lane_npu: LaneId,
    lane_flash: LaneId,
    lane_cpu: LaneId,
    /// The telemetry side buffer (disabled instance when the config knob is
    /// off — every record call is then a single branch).
    telemetry: Telemetry,
    /// Interned lane-track labels for the telemetry exporter.
    tl_npu: LabelId,
    tl_flash: LabelId,
    tl_cpu: LabelId,
    /// Style tag per in-flight request id, for completion-time span labels
    /// and per-class metric series.  Only populated while telemetry or
    /// metrics are enabled.
    styles: BTreeMap<u64, &'static str>,
    /// The windowed metrics registry (disabled instance when the config
    /// knob is off — every record call is then a single branch).
    metrics: WindowedMetrics,
    plan_cache: PlanCache,
    records: Vec<RequestRecord>,
    rejected: Vec<Request>,
    /// Session scripts with per-session cursors (closed-loop continuations),
    /// indexed by the session→script map below.
    scripts: Vec<SessionScript>,
    cursors: Vec<usize>,
    session_index: BTreeMap<u64, usize>,
    next_id: u64,
    // Time-weighted queue-depth accounting.
    depth_integral: f64,
    depth_last_change: SimTime,
    max_depth: usize,
}

impl ServerState {
    fn note_depth(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.depth_last_change).as_secs_f64();
        self.depth_integral += self.queue.len() as f64 * dt;
        self.depth_last_change = now;
        self.max_depth = self.max_depth.max(self.queue.len());
    }

    fn materialize(&self, q: &QueuedRequest) -> Request {
        Request {
            id: q.id,
            session: q.session,
            model: self.models[q.model.0 as usize].spec.name.clone(),
            prompt_len: q.prompt_len,
            shared_prefix_len: q.shared_prefix_len,
            system_prefix_len: q.system_prefix_len,
            output_len: q.output_len,
        }
    }

    /// Sessions whose retained KV is pinned (never a spill/drop victim):
    /// requests currently in flight, plus the session whose sealed pages a
    /// restore-ahead is unsealing right now.
    fn active_sessions(&self) -> BTreeSet<u64> {
        let mut active = BTreeSet::new();
        if let Some(svc) = &self.service {
            active.insert(svc.record.request.session);
        }
        for d in &self.batch_decodes {
            active.insert(d.record.request.session);
        }
        for p in &self.batch_prefills {
            active.insert(p.record.request.session);
        }
        if let Some(r) = &self.restore {
            if let Some(rkv) = &r.kv {
                active.insert(rkv.query.session);
            }
        }
        active
    }

    fn restore_cores(&self) -> u64 {
        (self.config.profile.big_cores as u64)
            .saturating_sub(1)
            .max(1)
    }

    /// The queued form of `session`'s scripted request `r`, under the next
    /// request id — the one place a request's fields are copied in.  The KV
    /// query hashes the prompt's pages once and caps reuse so at least one
    /// prompt token always prefills.
    ///
    /// # Panics
    /// Panics if `r` names a model outside the catalogue.
    fn queue_request(&mut self, session: u64, r: &ScriptedRequest) -> QueuedRequest {
        let model = *self
            .model_ids
            .get(&r.model)
            .unwrap_or_else(|| panic!("unknown model {:?}", r.model));
        let bytes_per_token = self.models[model.0 as usize].kv_bytes_per_token;
        let page_hashes = if self.config.kv.enabled {
            r.content.page_keys(self.kv.page_tokens(bytes_per_token))
        } else {
            Vec::new()
        };
        let max_reuse = r.prompt_len.saturating_sub(1);
        let id = self.next_id;
        self.next_id += 1;
        QueuedRequest {
            id,
            session,
            model,
            prompt_len: r.prompt_len,
            shared_prefix_len: r.shared_prefix_len,
            system_prefix_len: r.system_prefix_len,
            output_len: r.output_len,
            content: r.content.clone(),
            output_seed: r.output_seed,
            kv: KvQuery {
                session,
                model: model.0,
                page_hashes,
                bytes_per_token,
                shared_prefix: r.shared_prefix_len.min(max_reuse),
                max_reuse,
            },
            accept_permille: r.accept_permille,
            accept_seed: r.accept_seed,
            style_label: r.style_label,
        }
    }
}

fn on_arrival(
    state: &mut ServerState,
    sched: &mut EventScheduler<ServerState>,
    request: QueuedRequest,
) {
    state.note_depth(sched.now());
    if state.queue.len() >= state.config.max_queue_depth {
        // The session lives on even though this request was turned away: a
        // closed-loop user sees the rejection immediately, thinks, and sends
        // their next request.
        let session = request.session;
        let rejected = state.materialize(&request);
        state
            .metrics
            .add("requests_rejected", request.style_label, sched.now(), 1);
        state.rejected.push(rejected);
        schedule_session_continuation(state, sched, session);
    } else {
        let style = request.style_label;
        state.queue.push_back((request, sched.now()));
        state.note_depth(sched.now());
        state
            .metrics
            .add("requests_admitted", style, sched.now(), 1);
        state
            .metrics
            .gauge("queue_depth", "all", sched.now(), state.queue.len() as f64);
    }
    try_progress(state, sched);
}

/// Schedules the next scripted request of `session`, if any remains — one
/// think-time after the point the session observed its previous outcome
/// (response completion or admission rejection).
fn schedule_session_continuation(
    state: &mut ServerState,
    sched: &mut EventScheduler<ServerState>,
    session: u64,
) {
    let Some(&script_idx) = state.session_index.get(&session) else {
        return;
    };
    let cursor = state.cursors[script_idx];
    if let Some(next) = state.scripts[script_idx].requests.get(cursor).cloned() {
        state.cursors[script_idx] += 1;
        let request = state.queue_request(session, &next);
        let at = sched.now() + next.delay;
        sched.schedule_at(at, move |state, sched| on_arrival(state, sched, request));
    }
}

/// The dispatcher: starts the next service phase if `max_inflight` and the
/// service lanes allow it, then puts any remaining lane idleness to work
/// restoring the queue head's parameters ahead of dispatch.
fn try_progress(state: &mut ServerState, sched: &mut EventScheduler<ServerState>) {
    if state.service.is_none()
        && state.inflight < state.config.max_inflight
        && !state.queue.is_empty()
    {
        dispatch_next(state, sched);
    }
    maybe_start_restore_ahead(state, sched);
}

fn dispatch_next(state: &mut ServerState, sched: &mut EventScheduler<ServerState>) {
    let now = sched.now();
    state.note_depth(now);
    let Some((qreq, arrival)) = state.queue.pop_front() else {
        return;
    };
    state.note_depth(now);
    if state.telemetry.is_enabled() || state.metrics.is_enabled() {
        state.styles.insert(qreq.id, qreq.style_label);
    }
    state
        .metrics
        .gauge("queue_depth", "all", now, state.queue.len() as f64);
    state.metrics.observe(
        "queue_wait",
        qreq.style_label,
        now,
        now.saturating_since(arrival),
    );

    // If the dispatched model (or this request's session KV) is being
    // restored ahead, bank the progress *before* reading the cache state.
    if state.restore.as_ref().is_some_and(|r| {
        r.model == qreq.model
            || r.kv
                .as_ref()
                .is_some_and(|k| k.query.session == qreq.session)
    }) {
        interrupt_restore_ahead(state, now);
    }

    let midx = qreq.model.0 as usize;
    // A model with requests in flight has a live TA context whose blob is
    // pinned resident (see the pin below): the request joins it.
    let live_context = state.models[midx].active > 0;
    let cached_fraction = state.models[midx].cache.cached_fraction();
    debug_assert!(!live_context || cached_fraction == 1.0);

    // KV prefix reuse: the prompt's content chain is walked through the
    // content-addressed pool — a follow-up turn serves its own conversation
    // prefix, and (with sharing on) a cold first turn serves the head other
    // sessions of the model already produced.  Resident tokens are free;
    // sealed tokens pay the unseal (decrypt) time.
    let mut kv_full_hashes = Vec::new();
    let mut kv_total_tokens = 0usize;
    let kv_reuse = if state.config.kv.enabled {
        let pt = state.kv.page_tokens(qreq.kv.bytes_per_token);
        let max_reuse = qreq.kv.max_reuse;
        // The hit-rate denominator: tokens the workload declared reusable,
        // from the session's own context or (on any turn) the shared head.
        let requested = qreq
            .shared_prefix_len
            .max(qreq.system_prefix_len)
            .min(max_reuse);
        state.kv_requested_tokens += requested as u64;
        let had_state = state.kv.has_session(qreq.session);
        if !had_state {
            state.kv_shared_candidate_tokens += qreq.system_prefix_len.min(max_reuse) as u64;
        }
        let reuse = state.kv.reuse_plan(&qreq.kv, now);
        if !had_state {
            state.kv_shared_hit_tokens += reuse.shared_tokens as u64;
        }
        // The full-context identity (prompt + the response this request will
        // generate) for completion-time retention.
        kv_total_tokens = qreq.prompt_len + qreq.output_len;
        kv_full_hashes = qreq
            .content
            .extended(qreq.output_seed, qreq.output_len)
            .page_keys(pt);
        reuse
    } else {
        crate::kv::KvReuse::default()
    };
    state.kv_reused_tokens += kv_reuse.reused_tokens as u64;
    // Sealed pages pay MAC + decrypt over their compressed bytes, then (for
    // a quantized spill format) a dequant pass over the reconstructed f16
    // bytes — both on the CPU decrypt threads, so both hide behind the
    // prefill's NPU window and only the excess surfaces in TTFT.
    let kv_unseal = SimDuration::from_secs_f64(
        kv_reuse.unseal_bytes as f64 / state.kv_unseal_rate
            + kv_reuse.dequant_bytes as f64 / state.kv_dequant_rate,
    );
    // A running TA needs no framework state and already has its activation
    // arena, so a joiner allocates only its own KV cache.  An idle TA
    // restores its framework state from the checkpoint.
    let profile = &state.config.profile;
    let (framework_init, working_alloc) = if live_context {
        (SimDuration::ZERO, profile.kv_cache_alloc)
    } else {
        (
            profile.checkpoint_restore,
            profile.kv_cache_alloc + profile.activation_alloc,
        )
    };
    let report = {
        let params = ServiceParams {
            request: PlanRequest {
                model: &state.models[midx].spec,
                prompt_len: qreq.prompt_len,
                reused_prefix: kv_reuse.reused_tokens,
                output_len: qreq.output_len,
            },
            model_key: qreq.model.0,
            total_param_bytes: state.models[midx].graph_param_bytes,
            memory_pressure: state.config.memory_pressure,
            cached_fraction,
            policy: state.config.policy,
        };
        system::evaluate_service(
            &state.config.profile,
            &params,
            framework_init,
            working_alloc,
            kv_unseal,
            Some(&mut state.plan_cache),
        )
    };
    // Pin: this request's pipeline makes the whole blob resident, and it
    // stays resident until the model's last in-flight request completes
    // (`complete_request` applies retention only then).  Requests that
    // dispatch meanwhile start their NPU work after this restore finishes —
    // the service phase is exclusive, and while this prefill restores no
    // later prefill of its model takes the chunk slot (`chunk_slot`) — so
    // they may read the blob as fully cached.
    let entry = &mut state.models[midx];
    entry.cache.seed(entry.cache.total_bytes());
    entry.active += 1;

    let restoring = report.restored_bytes > 0;
    let (lane_flash, lane_cpu) = (state.lane_flash, state.lane_cpu);
    // A cold service owns the restoration lanes for its pipeline, and a
    // service that unseals sealed KV pages owns the decrypt threads for its
    // window; only a fully-cached, fully-resident prefill needs just one
    // core for the CPU-resident operators.  Either way, if a background
    // restore-ahead holds cores the service needs, it yields first (its
    // progress is banked) — a restoring service always conflicts, and on a
    // 1-big-core profile even the warm path does.
    let cores_needed = if restoring || kv_reuse.unseal_bytes > 0 {
        state.config.profile.big_cores as u64
    } else {
        1
    };
    if restoring || state.ledger.available(lane_cpu) < cores_needed {
        interrupt_restore_ahead(state, now);
    }
    if restoring {
        state.ledger.acquire(lane_flash, 1, now);
    }
    state.ledger.acquire(lane_cpu, cores_needed, now);

    let ttft = report.ttft;
    let npu_hold = (report.npu_busy + report.breakdown.npu_overhead).min(ttft);
    let first_token = now + ttft; // placeholder until the prefill finishes
    let record = RequestRecord {
        request: state.materialize(&qreq),
        arrival,
        dispatched: now,
        first_token,
        completed: first_token, // placeholder until decoding finishes
        cached_fraction,
        kv_reused_tokens: kv_reuse.reused_tokens,
        kv_shared_tokens: kv_reuse.shared_tokens,
        kv_unsealed_bytes: kv_reuse.unseal_bytes,
        kv_dequant_bytes: kv_reuse.dequant_bytes,
        stall_sharing: SimDuration::ZERO,
        prefill_stall: SimDuration::ZERO,
        report,
    };
    state.service = Some(ActiveService {
        record,
        model: qreq.model,
        restoring,
        cores_held: cores_needed,
        kv_full_hashes,
        kv_total_tokens,
        accept_permille: qreq.accept_permille,
        accept_seed: qreq.accept_seed,
    });
    state.inflight += 1;
    // The pre-NPU phase (pipelined restoration + KV unseal beyond the NPU
    // window) runs exactly as planned on the flash/CPU lanes; the NPU-side
    // prefill work then joins the step loop as chunks.
    let pre_npu = ttft.saturating_sub(npu_hold);
    sched.schedule_at(now + pre_npu, on_service_ready_for_batch);
}

/// Books one finished request — retention policy, KV retention + budget
/// enforcement, record keeping, closed-loop continuation — when its last
/// token leaves the step loop (or its prefill, for a one-token response).
fn complete_request(
    state: &mut ServerState,
    sched: &mut EventScheduler<ServerState>,
    model: ModelId,
    mut record: RequestRecord,
    kv_full_hashes: Vec<u64>,
    kv_total_tokens: usize,
    now: SimTime,
) {
    record.completed = now;
    let session = record.request.session;
    // Snapshot the cumulative spill counter so the sealing this completion
    // triggers (retention + budget enforcement below) can be observed.
    // Read-only; taken only while telemetry or metrics is on.
    let observed = state.telemetry.is_enabled() || state.metrics.is_enabled();
    let sealed_before = if observed && state.config.kv.enabled {
        Some(state.kv.stats().spilled_bytes)
    } else {
        None
    };
    {
        let config = &state.config;
        let entry = &mut state.models[model.0 as usize];
        entry.active -= 1;
        // Every completion earns its retention target, but the blob stays
        // pinned (all resident since dispatch) while other requests of the
        // model are in flight; the retention policy decides what survives
        // only once the model's last in-flight request completes.
        let total = entry.cache.total_bytes();
        let headroom = config
            .profile
            .dram_bytes
            .saturating_sub(config.memory_pressure);
        let target = match config.retention {
            RetentionPolicy::ReleaseAll => 0,
            RetentionPolicy::KeepAll => total,
            RetentionPolicy::Adaptive { step_fraction } => {
                let step = (total as f64 * step_fraction) as u64;
                entry
                    .retained_target
                    .saturating_add(step)
                    .min(total)
                    .min(headroom)
            }
        };
        entry.retained_target = target;
        if entry.active == 0 {
            entry
                .cache
                .apply_policy(CachePolicy::MemoryHeadroom(target));
        }
    }
    if state.config.kv.enabled {
        // Retain the session's full KV (prompt + generated tokens) under its
        // content identity — whole pages land in the content-addressed store
        // where later sessions with the same head can reference them — then
        // enforce the budgets.  Parameters are senior: the KV pool only gets
        // the headroom the retention policy's targets left unclaimed, so KV
        // reuse never shrinks the parameter cache.
        let entry = &state.models[model.0 as usize];
        state.kv.on_complete(
            session,
            model.0,
            &kv_full_hashes,
            kv_total_tokens,
            entry.kv_bytes_per_token,
            now,
        );
        let headroom = state
            .config
            .profile
            .dram_bytes
            .saturating_sub(state.config.memory_pressure);
        let params_retained: u64 = state.models.iter().map(|m| m.retained_target).sum();
        let secure_budget = (headroom.saturating_sub(params_retained) as f64
            * state.config.kv.budget_fraction) as u64;
        let active = state.active_sessions();
        state.kv.enforce(secure_budget, &active);
    }
    let style = state
        .styles
        .remove(&record.request.id)
        .unwrap_or("independent");
    let sealed = sealed_before.map_or(0, |before| state.kv.stats().spilled_bytes - before);
    if state.metrics.is_enabled() {
        // Per-class windowed series.  Latencies are attributed to the
        // window in which they became known (TTFT at the first token, TBT
        // at completion), so a spike shows up in the windows it happened
        // in, not smeared to the end of the run.
        let ttft = record.ttft_e2e();
        if record.request.shared_prefix_len == 0 {
            state
                .metrics
                .observe("ttft_cold", style, record.first_token, ttft);
        } else {
            state
                .metrics
                .observe("ttft_followup", style, record.first_token, ttft);
        }
        if record.request.output_len > 1 {
            let decode_ns = now.saturating_since(record.first_token).as_nanos();
            let tbt_ns = decode_ns / (record.request.output_len as u64 - 1);
            state
                .metrics
                .observe("tbt", style, now, SimDuration::from_nanos(tbt_ns));
        }
        state.metrics.add("requests_completed", style, now, 1);
        state.metrics.add(
            "tokens_emitted",
            style,
            now,
            record.request.output_len as u64,
        );
        if sealed > 0 {
            state.metrics.add("kv_sealed_bytes", "all", now, sealed);
        }
    }
    if state.telemetry.is_enabled() {
        record_lifecycle_spans(state, &record, style, sealed, now);
    }
    state.records.push(record);
    state.inflight -= 1;

    // Closed-loop continuation: the session thinks, then sends its next
    // request.
    schedule_session_continuation(state, sched, session);
}

/// Records a completed request's lifecycle spans onto its telemetry track:
/// the [`crate::telemetry::lifecycle_segments`] tiling of
/// `[arrival, first_token]` laid end to end, then `Decode`, which stays out
/// of the TTFT sum.  A completion that sealed `sealed` KV bytes also marks
/// a `Seal` event on the CPU lane.  Only called while telemetry is enabled;
/// purely observational.
fn record_lifecycle_spans(
    state: &mut ServerState,
    record: &RequestRecord,
    style: &str,
    sealed: u64,
    now: SimTime,
) {
    let id = record.request.id;
    let track = Track::Request(id);
    state.telemetry.name_track(
        track,
        &format!("req {id} {} ({style})", record.request.model),
    );
    let mut cursor = record.arrival;
    for (phase, d) in crate::telemetry::lifecycle_segments(record) {
        state
            .telemetry
            .span(track, phase, phase.label(), cursor, cursor + d);
        cursor += d;
    }
    if now > record.first_token {
        state
            .telemetry
            .span(track, Phase::Decode, "decode", record.first_token, now);
    }
    if sealed > 0 {
        let lane = state.tl_cpu;
        state.telemetry.span(
            Track::Lane(lane),
            Phase::Seal,
            &format!("seal req {id} ({sealed} B)"),
            now,
            now,
        );
    }
}

/// The service's pre-NPU phase (pipelined restoration, KV unseal beyond the
/// NPU window) is done: release the service lanes and hand the NPU-side
/// prefill work to the step loop as chunks.
fn on_service_ready_for_batch(state: &mut ServerState, sched: &mut EventScheduler<ServerState>) {
    let now = sched.now();
    let svc = state.service.take().expect("a service phase is active");
    let (lane_flash, lane_cpu) = (state.lane_flash, state.lane_cpu);
    if svc.restoring {
        state.ledger.release(lane_flash, 1, now);
    }
    state.ledger.release(lane_cpu, svc.cores_held, now);

    let report = &svc.record.report;
    let npu_hold = (report.npu_busy + report.breakdown.npu_overhead).min(report.ttft);
    let npu_secs = npu_hold.as_secs_f64();
    // The plan's exclusive NPU window, split proportionally over the
    // prompt's new (not KV-reused) tokens: one chunk's worth of tokens costs
    // one chunk's share of the window.
    let new_tokens = svc
        .record
        .request
        .prompt_len
        .saturating_sub(svc.record.kv_reused_tokens)
        .max(1);
    let chunk_tokens = state.config.prefill_chunk_tokens.min(new_tokens);
    state.batch_prefills.push(BatchedPrefill {
        record: svc.record,
        model: svc.model,
        restoring: svc.restoring,
        npu_secs_left: npu_secs,
        chunk_secs: npu_secs * chunk_tokens as f64 / new_tokens as f64,
        token_secs: npu_secs / new_tokens as f64,
        chunks_done: 0,
        kv_full_hashes: svc.kv_full_hashes,
        kv_total_tokens: svc.kv_total_tokens,
        accept_permille: svc.accept_permille,
        accept_seed: svc.accept_seed,
    });
    maybe_start_batch_step(state, sched);
    try_progress(state, sched);
}

/// Prices and schedules the next batched NPU step, if the batch has work and
/// no step is already in flight.  One step = one decode token for every
/// member sequence (more under speculation) plus at most one chunk of the
/// prefill [`chunk_slot`] gives the slot to, the chunk being a slice of the
/// prefill plan's NPU window; [`StepBatch::choose`] prices it (the weight
/// read, the operator launches and the world-switch handoffs once per
/// distinct model plus every sequence's per-token MACs), sizes a slack
/// chunk and picks its draft depth.
///
/// The chunk is `prefill_chunk_tokens` long unless every in-flight slot is
/// taken, a request waits in the queue and the step has decodes: then no
/// new prefill can start before a decode finishes, so a full chunk would
/// only end this prefill sooner and leave the decode-only steps after it
/// with idle NPU time under their weight reads.  In that state the chunk
/// fills the step's weight-read slack instead ([`step::Chunk::Slack`]) and
/// costs the decodes nothing, or carries one prompt token's share of the
/// window when a compute-bound pass leaves less.  In any other state a
/// slack chunk would only delay a first token.
fn maybe_start_batch_step(state: &mut ServerState, sched: &mut EventScheduler<ServerState>) {
    if state.batch_running {
        return;
    }
    let now = sched.now();
    let slot = chunk_slot(
        state.batch_prefills.iter().map(BatchedPrefill::claim),
        state.batch_slot,
    );
    if state.batch_slot.is_some() && slot != state.batch_slot {
        // A prefill with less work left took the slot from an unfinished one.
        state.metrics.add("prefill_preemptions", "all", now, 1);
    }
    state.batch_slot = slot;
    let prefill = slot.map(|i| &state.batch_prefills[i]);
    if state.batch_decodes.is_empty() && prefill.is_none() {
        if state.batch_npu_held {
            let lane = state.lane_npu;
            state.ledger.release(lane, 1, now);
            state.batch_npu_held = false;
        }
        return;
    }
    if !state.batch_npu_held {
        let lane = state.lane_npu;
        state.ledger.acquire(lane, 1, now);
        state.batch_npu_held = true;
    }
    // Speculation: a step without a prefill chunk picks the draft depth
    // (0..=k) that maximises expected emitted tokens per second of step
    // time, pricing every candidate with the function that prices the step
    // itself, at the server's own acceptance estimate.  Steps that carry a
    // prefill chunk are exempt: drafting stretches the step, and a stretched
    // step delays the interleaved chunk — skipping those steps keeps the
    // chunk cadence (and so cold-heavy TTFT) at the plain batched loop's.
    // With speculation off only depth 0 is priced, which is bit-for-bit the
    // plain batched step.
    // Every slot taken and a request waiting: no new prefill can start
    // before a decode finishes, so the chunk fills the decodes' slack.
    let slack = state.inflight == state.config.max_inflight
        && !state.queue.is_empty()
        && !state.batch_decodes.is_empty();
    let chunk = match prefill {
        None => Chunk::Fixed(0.0),
        Some(p) if slack => Chunk::Slack {
            floor_secs: p.token_secs,
            left_secs: p.npu_secs_left,
        },
        Some(p) => Chunk::Fixed(p.chunk_secs.min(p.npu_secs_left)),
    };
    let deciding = state.draft.is_some() && prefill.is_none();
    let max_depth = if deciding {
        state.config.speculation.k as u64
    } else {
        0
    };
    let price = StepBatch {
        members: state.batch_decodes.iter().map(|d| &d.member),
        models: &state.step_models,
        draft: state.draft.map(|id| &state.step_models[id.0 as usize]),
        chunk,
    }
    .choose(
        max_depth,
        step::acceptance_estimate(state.spec_accepted_tokens, state.spec_examined_tokens),
    );
    let (depth, chunk_secs) = (price.depth, price.chunk_secs);
    let (mut draft_secs, mut step_secs) = (price.draft_secs, price.step_secs);
    if deciding {
        state.spec_depth_steps[depth as usize] += 1;
    }
    if depth > 0 {
        for d in &mut state.batch_decodes {
            d.step_proposed = d.member.proposals(depth);
        }
        // The draft's weights stream through the same restore path as a
        // served model's; the first speculative step pays for whatever is
        // missing (outside the depth comparison — it is paid once whatever
        // the depth), and the retention pass keeps them pinned thereafter.
        let draft_id = state
            .draft
            .expect("speculation enabled but no draft model wired");
        let entry = &mut state.models[draft_id.0 as usize];
        let missing = entry.cache.total_bytes() - entry.cache.cached_bytes();
        if missing > 0 {
            let restore_secs = missing as f64 / entry.restore_rate;
            draft_secs += restore_secs;
            step_secs += restore_secs;
            let total = entry.cache.total_bytes();
            entry.cache.seed(total);
            entry.retained_target = total;
        }
    }
    // Whole-nanosecond event times with a carried fractional residue, so a
    // thousand-step decode accumulates no rounding drift.
    let ns_f = step_secs * 1e9 + state.batch_carry_ns;
    let ns = ns_f.round().max(0.0);
    state.batch_carry_ns = ns_f - ns;
    let ns = ns as u64;
    state.batch_step_secs = step_secs;
    state.batch_step_chunk_secs = chunk_secs;
    state.batch_running = true;
    let occupancy = state.batch_decodes.len() as u32 + u32::from(prefill.is_some());
    *state.batch_occupancy_ns.entry(occupancy).or_insert(0) += ns;
    state.batch_steps += 1;
    state.batch_busy_ns += ns;
    state.batch_max_step_ns = state.batch_max_step_ns.max(ns);
    if depth > 0 {
        state.spec_steps += 1;
        state.spec_draft_ns += (draft_secs * 1e9).round() as u64;
    }
    if state.telemetry.is_enabled() {
        let end = now + SimDuration::from_nanos(ns);
        let npu = Track::Lane(state.tl_npu);
        let step_label = format!("step occ={occupancy}");
        state
            .telemetry
            .span(npu, Phase::BatchStep, &step_label, now, end);
        if depth > 0 && draft_secs > 0.0 {
            // Nest the serial draft rounds and the fused verify sweep
            // inside the step so Perfetto shows the split; the label names
            // the depth the step chose.
            let draft_end = (now + SimDuration::from_secs_f64(draft_secs)).min(end);
            let draft_label = format!("draft k={depth}");
            state
                .telemetry
                .span(npu, Phase::SpecDraft, &draft_label, now, draft_end);
            state
                .telemetry
                .span(npu, Phase::SpecVerify, "verify", draft_end, end);
        }
        if chunk_secs > 0.0 {
            if let Some(p) = prefill {
                let mut chunk_label =
                    format!("req {} chunk {}", p.record.request.id, p.chunks_done + 1);
                if price.chunk_mode != ChunkMode::Fixed {
                    chunk_label.push(' ');
                    chunk_label.push_str(price.chunk_mode.label());
                }
                let chunk_end = (now + SimDuration::from_secs_f64(chunk_secs)).min(end);
                state
                    .telemetry
                    .span(npu, Phase::PrefillChunk, &chunk_label, now, chunk_end);
            }
        }
    }
    state
        .metrics
        .gauge("batch_occupancy", "all", now, occupancy as f64);
    state
        .metrics
        .observe("batch_step", "all", now, SimDuration::from_nanos(ns));
    if prefill.is_some() {
        // Steps and chunk nanoseconds per chunk mode: how often the cap
        // with a backlog sizes the chunk to the slack, and how often a
        // compute-bound pass leaves it only the one-token floor.
        let mode = price.chunk_mode.label();
        state.metrics.add("prefill_chunk_steps", mode, now, 1);
        let chunk_ns = (chunk_secs * 1e9).round() as u64;
        state.metrics.add("prefill_chunk_ns", mode, now, chunk_ns);
    }
    sched.schedule_at(now + SimDuration::from_nanos(ns), on_batch_step_end);
}

/// One batched step finished: every member decode produced one token, the
/// chunk slot's prefill consumed one chunk, and anything that finished
/// leaves the batch.  A slot a completion freed is refilled before the next
/// step is priced, so that step sees the in-flight count the queue leaves it
/// with: at the cap with a backlog, its chunk fills the pass's slack.
fn on_batch_step_end(state: &mut ServerState, sched: &mut EventScheduler<ServerState>) {
    let now = sched.now();
    state.batch_running = false;
    let step_secs = state.batch_step_secs;
    let chunk_secs = state.batch_step_chunk_secs;
    let speculating = state.draft.is_some();
    let mut tokens_this_step = 0u64;
    for d in &mut state.batch_decodes {
        d.steps_seen += 1;
        let emitted = if d.step_proposed == 0 {
            1
        } else {
            // The target accepts the leading run of draft proposals that
            // match what it would have sampled itself, then emits one bonus
            // token of its own past the accepted prefix; the KV tail written
            // for rejected positions is rewound (paged KV makes that a
            // page-tail truncation, already accounted in kv_total_tokens
            // which tracks the *final* sequence length).
            let rate = d.accept_permille as f64 / 1000.0;
            let mut accepted = 0u64;
            while accepted < d.step_proposed && d.accept_rng.gen_bool(rate) {
                accepted += 1;
            }
            state.spec_proposed_tokens += d.step_proposed;
            state.spec_accepted_tokens += accepted;
            state.spec_rejected_tokens += d.step_proposed - accepted;
            state.spec_examined_tokens += accepted + u64::from(accepted < d.step_proposed);
            accepted + 1
        };
        if speculating {
            *state.spec_emitted_hist.entry(emitted as u32).or_insert(0) += 1;
        }
        d.step_proposed = 0;
        // `emitted <= tokens_left` always: proposals are capped at
        // `tokens_left - 1`, so even a full accept plus the bonus token
        // cannot overshoot the scripted output length.
        d.member.tokens_left -= emitted;
        tokens_this_step += emitted;
        // Any step time beyond the sequence's solo time for the tokens it
        // actually emitted is what sharing the NPU (and drafting) cost it.
        d.stall_sharing_ns += (step_secs - emitted as f64 * d.intrinsic_secs).max(0.0) * 1e9;
    }
    state.batch_decode_tokens += tokens_this_step;
    let mut finished = Vec::new();
    let mut i = 0;
    while i < state.batch_decodes.len() {
        if state.batch_decodes[i].member.tokens_left == 0 {
            finished.push(state.batch_decodes.remove(i));
        } else {
            i += 1;
        }
    }
    let mut prefill_done = None;
    if let Some(i) = state.batch_slot {
        let p = &mut state.batch_prefills[i];
        p.npu_secs_left -= chunk_secs;
        if chunk_secs > 0.0 {
            p.chunks_done += 1;
        }
        // Exact-zero in the common case (the last chunk is `min(chunk,
        // left)`); the epsilon only absorbs float residue.
        if p.npu_secs_left <= 1e-9 {
            prefill_done = Some(state.batch_prefills.remove(i));
            state.batch_slot = None;
        }
    }
    for d in finished {
        let behind = d
            .steps_seen
            .saturating_sub(d.record.request.output_len.saturating_sub(1) as u64);
        state.batch_max_steps_behind = state.batch_max_steps_behind.max(behind);
        let mut record = d.record;
        record.stall_sharing = SimDuration::from_nanos(d.stall_sharing_ns.round() as u64);
        complete_request(
            state,
            sched,
            d.member.model,
            record,
            d.kv_full_hashes,
            d.kv_total_tokens,
            now,
        );
    }
    if let Some(p) = prefill_done {
        on_batched_first_token(state, sched, p, now);
    }
    try_progress(state, sched);
    maybe_start_batch_step(state, sched);
}

/// A chunked prefill consumed its whole NPU window: its first token is out.
/// A single-token request completes on the spot; otherwise the sequence
/// joins the decode batch from the next step boundary.
fn on_batched_first_token(
    state: &mut ServerState,
    sched: &mut EventScheduler<ServerState>,
    prefill: BatchedPrefill,
    now: SimTime,
) {
    let mut record = prefill.record;
    record.first_token = now;
    record.prefill_stall = record
        .first_token
        .saturating_since(record.dispatched)
        .saturating_sub(record.report.ttft);
    let tokens = record.request.output_len.saturating_sub(1) as u64;
    if tokens == 0 {
        complete_request(
            state,
            sched,
            prefill.model,
            record,
            prefill.kv_full_hashes,
            prefill.kv_total_tokens,
            now,
        );
        return;
    }
    let coeffs = &state.step_models[prefill.model.0 as usize];
    // Price every step at the sequence's final KV length (decode compute is
    // affine in the KV length, and the spread over one response is small).
    let kv_len = record.request.prompt_len + record.request.output_len;
    let member = StepMember {
        model: prefill.model,
        kv_len,
        tokens_left: tokens,
        compute_secs: coeffs.step.decode_compute_secs(kv_len),
        drafts: coeffs.drafts,
    };
    let intrinsic_secs = StepBatch {
        members: std::iter::once(&member),
        models: &state.step_models,
        draft: None,
        chunk: Chunk::Fixed(0.0),
    }
    .choose(0, 0.0)
    .step_secs;
    state.batch_decodes.push(BatchedDecode {
        record,
        member,
        steps_seen: 0,
        intrinsic_secs,
        stall_sharing_ns: 0.0,
        kv_full_hashes: prefill.kv_full_hashes,
        kv_total_tokens: prefill.kv_total_tokens,
        accept_permille: prefill.accept_permille,
        accept_rng: DetRng::new(prefill.accept_seed),
        step_proposed: 0,
    });
}

/// Starts restoring the first eligible queued request's missing parameters —
/// and, for a follow-up turn, its session's sealed KV prefix — on the idle
/// flash/decrypt/alloc lanes.  Parameter eligibility means some of the
/// model's parameters are missing; a model with requests in flight never
/// qualifies, because its live context pins the whole blob resident.  KV
/// eligibility is independent: any queued follow-up whose session holds
/// sealed pages can have them unsealed ahead of dispatch, streaming after
/// the parameters on the same lanes.
fn maybe_start_restore_ahead(state: &mut ServerState, sched: &mut EventScheduler<ServerState>) {
    if !state.config.restore_ahead || state.restore.is_some() {
        return;
    }
    let cores = state.restore_cores();
    if state.ledger.available(state.lane_cpu) < cores {
        return;
    }
    let flash_free = state.ledger.available(state.lane_flash) > 0;
    let mut pick: Option<(ModelId, u64, Option<RestoreKv>)> = None;
    for (q, _) in &state.queue {
        let entry = &state.models[q.model.0 as usize];
        // Parameter restore needs the flash channel; a KV-only restore
        // (decrypt threads over DRAM-resident sealed pages) does not, so it
        // can proceed while a service's restoration owns the flash lane.
        let param_bytes = if flash_free {
            entry.cache.total_bytes() - entry.cache.cached_bytes()
        } else {
            0
        };
        let kv = if state.config.kv.enabled {
            // Address the sealed state by the request's KV query (built at
            // submission — this scan runs on every dispatcher event): it
            // covers the session's own sealed pages *and* a sealed shared
            // head a brand-new session never retained itself.
            let bytes = state.kv.sealed_bytes_for(&q.kv);
            (bytes > 0).then(|| RestoreKv {
                query: q.kv.clone(),
                bytes,
            })
        } else {
            None
        };
        if param_bytes > 0 || kv.is_some() {
            pick = Some((q.model, param_bytes, kv));
            break;
        }
    }
    let Some((model, param_bytes, kv)) = pick else {
        return;
    };
    let now = sched.now();
    let rate = state.models[model.0 as usize].restore_rate;
    let kv_rate = state.kv_prewarm_rate;
    let kv_bytes = kv.as_ref().map_or(0, |k| k.bytes);
    let holds_flash = param_bytes > 0;
    let (lane_flash, lane_cpu) = (state.lane_flash, state.lane_cpu);
    if holds_flash {
        state.ledger.acquire(lane_flash, 1, now);
    }
    state.ledger.acquire(lane_cpu, cores, now);
    state.restore_epoch += 1;
    let epoch = state.restore_epoch;
    state.restore = Some(ActiveRestore {
        model,
        started: now,
        rate,
        param_bytes,
        kv,
        kv_rate,
        holds_flash,
    });
    let eta =
        now + SimDuration::from_secs_f64(param_bytes as f64 / rate + kv_bytes as f64 / kv_rate);
    sched.schedule_at(eta, move |state, sched| {
        on_restore_ahead_done(state, sched, epoch)
    });
}

/// Credits a (possibly partial) restore-ahead: parameter bytes stream first,
/// then sealed KV pages unseal on the freed decrypt threads; both credits
/// are floored to the crediting quantum.
fn credit_restore_progress(
    state: &mut ServerState,
    r: &ActiveRestore,
    elapsed_secs: f64,
    now: SimTime,
) {
    let mut param_credit = ((elapsed_secs * r.rate) as u64).min(r.param_bytes);
    param_credit -= param_credit % RESTORE_AHEAD_QUANTUM;
    credit_restore(state, r.model, param_credit);
    if let Some(rkv) = &r.kv {
        let param_secs = r.param_bytes as f64 / r.rate;
        let kv_elapsed = (elapsed_secs - param_secs).max(0.0);
        let mut kv_credit = ((kv_elapsed * r.kv_rate) as u64).min(rkv.bytes);
        kv_credit -= kv_credit % RESTORE_AHEAD_QUANTUM;
        state.kv_restore_ahead_bytes += state.kv.prewarm(&rkv.query, kv_credit, now);
    }
}

/// Stops an in-progress restore-ahead, crediting the bytes restored so far
/// to the model's cached prefix and the session's resident KV.
fn interrupt_restore_ahead(state: &mut ServerState, now: SimTime) {
    let Some(r) = state.restore.take() else {
        return;
    };
    state.restore_epoch += 1; // invalidate the scheduled completion
    let elapsed = now.saturating_since(r.started).as_secs_f64();
    credit_restore_progress(state, &r, elapsed, now);
    record_restore_ahead_span(state, &r, now, true);
    let (lane_flash, lane_cpu) = (state.lane_flash, state.lane_cpu);
    let cores = state.restore_cores();
    if r.holds_flash {
        state.ledger.release(lane_flash, 1, now);
    }
    state.ledger.release(lane_cpu, cores, now);
}

/// Records a restore-ahead interval on its lane track: the flash lane when
/// parameters streamed from flash, the CPU (decrypt) lane for a KV-only
/// unseal.  The span ends at `now` — for an interrupted restore that is the
/// truncated, not the reserved, interval, matching the ledger's busy-time
/// accounting.  Observe-only.
fn record_restore_ahead_span(
    state: &mut ServerState,
    r: &ActiveRestore,
    now: SimTime,
    interrupted: bool,
) {
    if !state.telemetry.is_enabled() {
        return;
    }
    let lane = if r.holds_flash {
        state.tl_flash
    } else {
        state.tl_cpu
    };
    let model = state.models[r.model.0 as usize].spec.name.clone();
    let label = if interrupted {
        format!("restore-ahead {model} (interrupted)")
    } else {
        format!("restore-ahead {model}")
    };
    state.telemetry.span(
        Track::Lane(lane),
        Phase::RestoreAhead,
        &label,
        r.started,
        now,
    );
}

fn on_restore_ahead_done(
    state: &mut ServerState,
    sched: &mut EventScheduler<ServerState>,
    epoch: u64,
) {
    if epoch != state.restore_epoch {
        return; // superseded by an interrupt
    }
    let now = sched.now();
    let r = state.restore.take().expect("restore-ahead is active");
    credit_restore(state, r.model, r.param_bytes);
    if let Some(rkv) = &r.kv {
        state.kv_restore_ahead_bytes += state.kv.prewarm(&rkv.query, rkv.bytes, now);
    }
    record_restore_ahead_span(state, &r, now, false);
    let (lane_flash, lane_cpu) = (state.lane_flash, state.lane_cpu);
    let cores = state.restore_cores();
    if r.holds_flash {
        state.ledger.release(lane_flash, 1, now);
    }
    state.ledger.release(lane_cpu, cores, now);
    try_progress(state, sched);
}

fn credit_restore(state: &mut ServerState, model: ModelId, bytes: u64) {
    if bytes == 0 {
        return;
    }
    let entry = &mut state.models[model.0 as usize];
    entry.cache.seed(entry.cache.cached_bytes() + bytes);
    state.restore_ahead_bytes += bytes;
}

/// A multi-session TZ-LLM serving instance.
pub struct Server {
    engine: Engine<ServerState>,
}

/// Builds the per-model runtime entry (restore rates, cache) and its
/// step-pricing coefficients, shared by catalogue models and the
/// speculation draft; `drafts` says whether the draft proposes for the
/// model's sequences.
fn model_entry(
    config: &ServingConfig,
    cost: &llm::CostModel,
    spec: ModelSpec,
    drafts: bool,
) -> (ModelEntry, StepModel) {
    let restore_threads = config.profile.big_cores.saturating_sub(1).max(1);
    let occupancy = system::cma_occupancy(&spec, config.memory_pressure);
    let rates = RestoreRates::from_profile(&config.profile, occupancy, restore_threads);
    let flash_per_byte = 1.0 / rates.flash.bytes_per_sec();
    let cpu_per_byte = rates.alloc_secs_per_byte + 1.0 / rates.decrypt.bytes_per_sec();
    let restore_rate = 1.0 / flash_per_byte.max(cpu_per_byte);
    let total = spec.total_q8_bytes();
    let graph_param_bytes = system::param_bytes(&spec);
    let kv_bytes_per_token = spec.kv_bytes_per_token();
    let coeffs = StepModel::new(cost, &config.profile, &spec, drafts);
    let entry = ModelEntry {
        spec,
        cache: CacheController::new(total),
        retained_target: 0,
        active: 0,
        restore_rate,
        graph_param_bytes,
        kv_bytes_per_token,
    };
    (entry, coeffs)
}

impl Server {
    /// Creates a server over a model catalogue. Each model gets its own cold
    /// [`CacheController`].
    ///
    /// # Panics
    /// Panics with the [`ConfigError`] if `config` fails
    /// [`ServingConfig::validate`].
    pub fn new(config: ServingConfig, catalogue: Vec<ModelSpec>) -> Server {
        if let Err(e) = config.validate() {
            panic!("invalid serving config: {e}");
        }
        let mut ledger = CapacityLedger::new();
        let lane_npu = ledger.add_lane("npu", 1);
        let lane_flash = ledger.add_lane("flash", 1);
        let lane_cpu = ledger.add_lane("cpu", config.profile.big_cores as u64);
        let mut telemetry = Telemetry::new(config.telemetry);
        let metrics = match config.metrics {
            Some(window) => WindowedMetrics::new(window),
            None => WindowedMetrics::off(),
        };
        if config.telemetry || config.metrics.is_some() {
            // The reservation journal feeds the per-lane occupancy spans
            // (telemetry) and the per-window lane busy-time counters
            // (metrics); it is purely observational, so the capacity checks
            // and busy integrals are identical with it on or off.
            ledger.enable_journal();
        }
        let tl_npu = telemetry.intern("npu");
        let tl_flash = telemetry.intern("flash");
        let tl_cpu = telemetry.intern("cpu");
        telemetry.name_track(Track::Lane(tl_npu), "npu");
        telemetry.name_track(Track::Lane(tl_flash), "flash");
        telemetry.name_track(Track::Lane(tl_cpu), "cpu");
        let cost = llm::CostModel::rk3588();
        // A target can only verify proposals its own tokenizer reads, so the
        // draft is the draft-catalogue entry whose vocabulary a catalogue
        // model shares; when none does, no draft is wired and the server
        // runs as with speculation off.
        let draft_spec = ModelSpec::drafts()
            .into_iter()
            .find(|d| catalogue.iter().any(|spec| spec.vocab == d.vocab))
            .filter(|_| config.speculation.k > 0);
        let mut models = Vec::with_capacity(catalogue.len());
        let mut step_models = Vec::with_capacity(catalogue.len());
        let mut model_ids = BTreeMap::new();
        for spec in catalogue {
            model_ids.insert(spec.name.clone(), ModelId(models.len() as u32));
            let drafts = draft_spec.as_ref().is_some_and(|d| d.vocab == spec.vocab);
            let (entry, coeffs) = model_entry(&config, &cost, spec, drafts);
            models.push(entry);
            step_models.push(coeffs);
        }
        // The draft rides along as an extra model entry so its weights share
        // the restore/retention machinery, but it is *not* interned in
        // `model_ids`: requests can never target it directly.
        let draft = draft_spec.map(|dspec| {
            let id = ModelId(models.len() as u32);
            let (entry, coeffs) = model_entry(&config, &cost, dspec, false);
            models.push(entry);
            step_models.push(coeffs);
            id
        });
        let spec_depths = if draft.is_some() {
            config.speculation.k + 1
        } else {
            0
        };
        let plan_cache = PlanCache::new(config.plan_cache_capacity);
        let kv = KvPool::new(&config.kv);
        // Sealed KV pages sit in DRAM, so unsealing is decrypt-bound on the
        // restore threads (no flash read).
        let kv_unseal_rate = config.profile.decrypt_bytes_per_sec;
        let kv_dequant_rate = config.profile.dequant_bytes_per_sec;
        // Restore-ahead credits compressed bytes; a quantized format derates
        // the crediting rate by the f16 expansion each compressed byte must
        // also pay for on the same threads.  F16 expands nothing, so the
        // rate degenerates to the plain decrypt rate and the PR-4 numbers
        // reproduce bit-for-bit.
        let expansion = if config.kv.spill_format.is_quantized() {
            config
                .kv
                .spill_format
                .expansion(config.kv.page_bytes.max(1) as usize)
        } else {
            0.0
        };
        let kv_prewarm_rate = 1.0 / (1.0 / kv_unseal_rate + expansion / kv_dequant_rate);
        Server {
            engine: Engine::new(ServerState {
                config,
                models,
                step_models,
                model_ids,
                queue: VecDeque::new(),
                inflight: 0,
                service: None,
                batch_decodes: Vec::new(),
                batch_prefills: Vec::new(),
                batch_slot: None,
                batch_running: false,
                batch_step_secs: 0.0,
                batch_step_chunk_secs: 0.0,
                batch_carry_ns: 0.0,
                batch_npu_held: false,
                batch_steps: 0,
                batch_busy_ns: 0,
                batch_decode_tokens: 0,
                batch_occupancy_ns: BTreeMap::new(),
                batch_max_step_ns: 0,
                batch_max_steps_behind: 0,
                draft,
                spec_steps: 0,
                spec_depth_steps: vec![0; spec_depths],
                spec_proposed_tokens: 0,
                spec_accepted_tokens: 0,
                spec_examined_tokens: 0,
                spec_rejected_tokens: 0,
                spec_draft_ns: 0,
                spec_emitted_hist: BTreeMap::new(),
                restore: None,
                restore_epoch: 0,
                restore_ahead_bytes: 0,
                kv,
                kv_unseal_rate,
                kv_dequant_rate,
                kv_prewarm_rate,
                kv_requested_tokens: 0,
                kv_reused_tokens: 0,
                kv_restore_ahead_bytes: 0,
                kv_shared_candidate_tokens: 0,
                kv_shared_hit_tokens: 0,
                ledger,
                lane_npu,
                lane_flash,
                lane_cpu,
                telemetry,
                tl_npu,
                tl_flash,
                tl_cpu,
                styles: BTreeMap::new(),
                metrics,
                plan_cache,
                records: Vec::new(),
                rejected: Vec::new(),
                scripts: Vec::new(),
                cursors: Vec::new(),
                session_index: BTreeMap::new(),
                next_id: 0,
                depth_integral: 0.0,
                depth_last_change: SimTime::ZERO,
                max_depth: 0,
            }),
        }
    }

    fn model_id(&self, model: &str) -> ModelId {
        *self
            .engine
            .state()
            .model_ids
            .get(model)
            .unwrap_or_else(|| panic!("unknown model {model:?}"))
    }

    /// Seeds the cache of `model` with `cached_bytes` resident parameter
    /// bytes (clamped to the model size).
    ///
    /// # Panics
    /// Panics if `model` is not in the catalogue.
    pub fn seed_cache(&mut self, model: &str, cached_bytes: u64) {
        let id = self.model_id(model);
        let entry = &mut self.engine.state_mut().models[id.0 as usize];
        entry.cache.seed(cached_bytes);
        entry.retained_target = entry.cache.cached_bytes();
    }

    /// Submits one request arriving at absolute time `at`.
    ///
    /// # Panics
    /// Panics if the model is not in the catalogue.
    pub fn submit_at(
        &mut self,
        at: SimTime,
        session: u64,
        model: &str,
        prompt_len: usize,
        output_len: usize,
    ) {
        let state = self.engine.state_mut();
        // Mint a unique content identity per direct submission: no two
        // `submit_at` prompts ever share KV content.
        let id = state.next_id;
        let style = SessionStyle::Independent;
        let request = state.queue_request(
            session,
            &ScriptedRequest {
                delay: SimDuration::ZERO,
                model: model.to_string(),
                benchmark: Benchmark::UltraChat, // never read by the server
                prompt_len,
                shared_prefix_len: 0,
                system_prefix_len: 0,
                output_len,
                content: PromptContent::from_seed(derive_seed(id, 0x5eed), prompt_len),
                output_seed: derive_seed(id, 0x07),
                accept_permille: style.accept_base_permille(),
                accept_seed: derive_seed(id, 0xACC),
                style_label: style.label(),
            },
        );
        self.engine
            .schedule_at(at, move |state, sched| on_arrival(state, sched, request));
    }

    /// Submits a session script: the first request is scheduled at its
    /// `delay` from time zero, each later request one think-time after the
    /// session's previous response completes.
    ///
    /// # Panics
    /// Panics if any scripted request names a model outside the catalogue, or
    /// if a script with the same session id was already submitted (session
    /// continuations are resolved by id, so ids must be unique — renumber
    /// when merging several workloads onto one server).
    pub fn submit_script(&mut self, script: SessionScript) {
        let state = self.engine.state_mut();
        assert!(
            !state.session_index.contains_key(&script.session),
            "duplicate session id {}: renumber scripts when merging workloads",
            script.session
        );
        for r in &script.requests {
            assert!(
                state.model_ids.contains_key(&r.model),
                "unknown model {:?} in session {}",
                r.model,
                script.session
            );
        }
        let Some(first) = script.requests.first().cloned() else {
            return;
        };
        let session = script.session;
        let request = state.queue_request(session, &first);
        state.session_index.insert(session, state.scripts.len());
        state.scripts.push(SessionScript {
            session,
            requests: script.requests,
        });
        state.cursors.push(1); // the first request is scheduled below
        self.engine
            .schedule_at(SimTime::ZERO + first.delay, move |state, sched| {
                on_arrival(state, sched, request)
            });
    }

    /// Runs the simulation to completion and summarises the fleet.
    pub fn run(mut self) -> ServingReport {
        self.engine.run_to_completion();
        let mut state = self.engine.into_state();
        let fleet = fleet_stats(&state);
        let resources = state.ledger.usage(fleet.horizon);
        if state.telemetry.is_enabled() || state.metrics.is_enabled() {
            observe_lane_occupancy(&mut state);
        }
        let telemetry = state
            .telemetry
            .is_enabled()
            .then(|| std::mem::take(&mut state.telemetry));
        let metrics = state
            .metrics
            .is_enabled()
            .then(|| std::mem::take(&mut state.metrics));
        ServingReport {
            records: state.records,
            rejected: state.rejected,
            fleet,
            resources,
            telemetry,
            metrics,
        }
    }

    /// Convenience: generate `workload` with `seed`, submit every session and
    /// run to completion.
    pub fn run_workload(
        config: ServingConfig,
        catalogue: Vec<ModelSpec>,
        workload: &WorkloadSpec,
        seed: u64,
    ) -> ServingReport {
        let mut server = Server::new(config, catalogue);
        for script in workload.generate(seed) {
            server.submit_script(script);
        }
        server.run()
    }
}

/// Walks the capacity-ledger journal once, as constant-level segments per
/// lane, and hands every busy segment to both observers: an occupancy span
/// `name=level` on the lane's telemetry track, and `level × length` on the
/// lane's `lane_inuse_ns` metrics counter, split at window boundaries so
/// each window's integral is exact (per-window utilisation =
/// `inuse_ns / (capacity × window width)`, with the capacity on the
/// `lane_capacity` gauge).  Runs once after the simulation completes; the
/// journal is recorded only while an observer is on, so this is purely
/// observational.
fn observe_lane_occupancy(state: &mut ServerState) {
    let lanes = [
        (state.lane_npu, "npu", state.tl_npu),
        (state.lane_flash, "flash", state.tl_flash),
        (state.lane_cpu, "cpu", state.tl_cpu),
    ];
    let ServerState {
        ledger,
        telemetry,
        metrics,
        ..
    } = state;
    for &(lane, class, _) in &lanes {
        let capacity = ledger.lane_capacity(lane) as f64;
        metrics.gauge("lane_capacity", class, SimTime::ZERO, capacity);
    }
    let window_ns = metrics.window().as_nanos();
    // (segment start, level) per lane; level-0 segments are idle.
    let mut seg: Vec<(SimTime, u64)> = vec![(SimTime::ZERO, 0); ledger.lane_count()];
    for e in ledger.journal() {
        let (start, level) = seg[e.lane.index()];
        if level == e.in_use {
            continue;
        }
        seg[e.lane.index()] = (e.at, e.in_use);
        if level == 0 || e.at <= start {
            continue;
        }
        let Some(&(_, class, track)) = lanes.iter().find(|(id, _, _)| *id == e.lane) else {
            continue;
        };
        if telemetry.is_enabled() {
            let label = format!("{class}={level}");
            telemetry.span(Track::Lane(track), Phase::Occupancy, &label, start, e.at);
        }
        if metrics.is_enabled() {
            let mut t = start.as_nanos();
            let end_ns = e.at.as_nanos();
            while t < end_ns {
                let piece_end = ((t / window_ns + 1) * window_ns).min(end_ns);
                metrics.add(
                    "lane_inuse_ns",
                    class,
                    SimTime::from_nanos(t),
                    (piece_end - t) * level,
                );
                t = piece_end;
            }
        }
    }
}

fn fleet_stats(state: &ServerState) -> ServingStats {
    let records = &state.records;
    let horizon = records
        .iter()
        .map(|r| r.completed)
        .max()
        .unwrap_or(SimTime::ZERO);
    let ms = |v: Vec<f64>| PercentileSummary::from_values(&v);
    let ttft: Vec<f64> = records
        .iter()
        .map(|r| r.ttft_e2e().as_millis_f64())
        .collect();
    // Realised service TTFT (dispatch → first token): `report.ttft` plus
    // the chunked prefill's interleaving stall.
    let service: Vec<f64> = records
        .iter()
        .map(|r| r.service_ttft().as_millis_f64())
        .collect();
    let followup: Vec<f64> = records
        .iter()
        .filter(|r| r.request.shared_prefix_len > 0)
        .map(|r| r.ttft_e2e().as_millis_f64())
        .collect();
    let mean_ms = |f: &dyn Fn(&RequestRecord) -> SimDuration| {
        if records.is_empty() {
            0.0
        } else {
            records.iter().map(|r| f(r).as_millis_f64()).sum::<f64>() / records.len() as f64
        }
    };
    let batch_busy_secs = state.batch_busy_ns as f64 / 1e9;
    let occupancy_weighted: f64 = state
        .batch_occupancy_ns
        .iter()
        .map(|(&occ, &ns)| occ as f64 * ns as f64 / 1e9)
        .sum();
    let kv_stats = state.kv.stats();
    let horizon_secs = horizon.as_secs_f64();
    let npu_usage = &state.ledger.usage(horizon)[state.lane_npu.index()];
    ServingStats {
        completed: records.len(),
        rejected: state.rejected.len(),
        horizon,
        throughput_rps: if horizon_secs > 0.0 {
            records.len() as f64 / horizon_secs
        } else {
            0.0
        },
        ttft_ms: ms(ttft),
        service_ttft_ms: ms(service),
        mean_queue_depth: if horizon_secs > 0.0 {
            state.depth_integral / horizon_secs
        } else {
            0.0
        },
        max_queue_depth: state.max_depth,
        mean_cached_fraction: if records.is_empty() {
            0.0
        } else {
            records.iter().map(|r| r.cached_fraction).sum::<f64>() / records.len() as f64
        },
        cold_starts: records.iter().filter(|r| r.cached_fraction == 0.0).count(),
        restore_ahead_bytes: state.restore_ahead_bytes,
        plan_cache_hits: state.plan_cache.hits(),
        plan_cache_misses: state.plan_cache.misses(),
        npu_utilisation: npu_usage.utilisation(horizon),
        mean_decode_stall_ms: mean_ms(&|r| r.decode_stall()),
        mean_stall_sharing_ms: mean_ms(&|r| r.stall_sharing),
        batch_steps: state.batch_steps,
        mean_batch_occupancy: if batch_busy_secs > 0.0 {
            occupancy_weighted / batch_busy_secs
        } else {
            0.0
        },
        batch_occupancy: state
            .batch_occupancy_ns
            .iter()
            .map(|(&occ, &ns)| (occ, ns as f64 / 1e9))
            .collect(),
        batched_decode_tps: if batch_busy_secs > 0.0 {
            state.batch_decode_tokens as f64 / batch_busy_secs
        } else {
            0.0
        },
        max_batch_step_ms: state.batch_max_step_ns as f64 / 1e6,
        batch_max_steps_behind: state.batch_max_steps_behind,
        spec_steps: state.spec_steps,
        spec_depth_per_step: state
            .spec_depth_steps
            .iter()
            .enumerate()
            .filter(|&(_, &steps)| steps > 0)
            .map(|(depth, &steps)| (depth as u32, steps))
            .collect(),
        spec_proposed_tokens: state.spec_proposed_tokens,
        spec_accepted_tokens: state.spec_accepted_tokens,
        spec_rejected_tokens: state.spec_rejected_tokens,
        spec_accept_rate: if state.spec_proposed_tokens > 0 {
            state.spec_accepted_tokens as f64 / state.spec_proposed_tokens as f64
        } else {
            0.0
        },
        spec_draft_overhead: if state.batch_busy_ns > 0 {
            state.spec_draft_ns as f64 / state.batch_busy_ns as f64
        } else {
            0.0
        },
        spec_emitted_per_step: state
            .spec_emitted_hist
            .iter()
            .map(|(&emitted, &steps)| (emitted, steps))
            .collect(),
        spec_mean_emitted_per_step: {
            let steps: u64 = state.spec_emitted_hist.values().sum();
            if steps > 0 {
                state
                    .spec_emitted_hist
                    .iter()
                    .map(|(&e, &n)| e as u64 * n)
                    .sum::<u64>() as f64
                    / steps as f64
            } else {
                0.0
            }
        },
        kv_hit_rate: if state.kv_requested_tokens > 0 {
            state.kv_reused_tokens as f64 / state.kv_requested_tokens as f64
        } else {
            0.0
        },
        kv_reused_tokens: state.kv_reused_tokens,
        kv_spilled_bytes: kv_stats.spilled_bytes,
        kv_spilled_compressed_bytes: kv_stats.spilled_compressed_bytes,
        kv_unsealed_bytes: kv_stats.unsealed_bytes,
        kv_restore_ahead_bytes: state.kv_restore_ahead_bytes,
        kv_dequant_bytes: kv_stats.dequant_bytes,
        kv_peak_sealed_pages: kv_stats.peak_sealed_pages,
        kv_peak_sealed_bytes: kv_stats.peak_sealed_bytes,
        kv_dropped_bytes: kv_stats.dropped_bytes,
        kv_shared_tokens: kv_stats.shared_tokens,
        kv_shared_hit_rate: if state.kv_shared_candidate_tokens > 0 {
            (state.kv_shared_hit_tokens as f64 / state.kv_shared_candidate_tokens as f64).min(1.0)
        } else {
            0.0
        },
        kv_deduped_bytes: kv_stats.peak_deduped_bytes,
        followup_ttft_ms: ms(followup),
        kv_chain: state.kv.chain_stats(),
        kv_hit_depth: state.kv.hit_depth_histogram(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::ArrivalProcess;

    fn catalogue() -> Vec<ModelSpec> {
        vec![ModelSpec::qwen2_5_3b()]
    }

    fn quiet_poisson(requests: usize) -> WorkloadSpec {
        WorkloadSpec::standard(
            ArrivalProcess::Poisson { rate_per_sec: 0.02 },
            requests,
            "qwen2.5-3b",
        )
    }

    #[test]
    fn all_requests_complete_under_light_load() {
        let report = Server::run_workload(
            ServingConfig::paper_default(PlatformProfile::rk3588()),
            catalogue(),
            &quiet_poisson(12),
            1,
        );
        assert_eq!(report.fleet.completed, 12);
        assert_eq!(report.fleet.rejected, 0);
        // Light load: hardly any queueing, so e2e TTFT ~= service TTFT.
        let e2e = report.fleet.ttft_ms.unwrap();
        let service = report.fleet.service_ttft_ms.unwrap();
        assert!(e2e.p50 >= service.p50);
    }

    #[test]
    fn adaptive_retention_warms_the_cache() {
        let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
        config.retention = RetentionPolicy::Adaptive {
            step_fraction: 0.25,
        };
        // One request in flight: this test is about retention across
        // *completions*; with more in flight a closely-spaced pair may
        // overlap, and the second dispatch would join the first's live
        // context (whole blob pinned) instead of reading what retention left
        // behind.
        config.max_inflight = 1;
        let report = Server::run_workload(config, catalogue(), &quiet_poisson(8), 3);
        let fractions: Vec<f64> = report.records.iter().map(|r| r.cached_fraction).collect();
        assert_eq!(fractions[0], 0.0, "first request must be cold");
        // Warm-up: strictly increasing until saturation.
        assert!(fractions[1] > 0.0);
        assert!(report.fleet.mean_cached_fraction > 0.3);
        assert_eq!(report.fleet.cold_starts, 1);
        // Warm requests are faster than the cold one.
        let cold = report.records[0].report.ttft;
        let last = report.records.last().unwrap().report.ttft;
        assert!(last < cold, "warm {last} vs cold {cold}");
    }

    /// The requests of `r`'s model that were in flight when `r` dispatched:
    /// the live context `r` joined, if any.
    fn live_peers<'a>(
        records: &'a [RequestRecord],
        r: &'a RequestRecord,
    ) -> impl Iterator<Item = &'a RequestRecord> {
        records.iter().filter(move |o| {
            o.request.model == r.request.model
                && o.dispatched < r.dispatched
                && r.dispatched < o.completed
        })
    }

    #[test]
    fn release_all_means_every_request_cold_starts() {
        let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
        config.retention = RetentionPolicy::ReleaseAll;
        let report = Server::run_workload(config, catalogue(), &quiet_poisson(5), 3);
        // Nothing survives a context's last completion, so a dispatch is cold
        // exactly when no request of its model is in flight; one that
        // overlaps a running request joins its pinned blob instead.
        let idle_dispatches = report
            .records
            .iter()
            .filter(|r| live_peers(&report.records, r).next().is_none())
            .count();
        assert_eq!(report.fleet.cold_starts, idle_dispatches);
    }

    #[test]
    fn dispatch_into_a_live_context_restores_and_initialises_nothing() {
        let config = ServingConfig::paper_default(PlatformProfile::rk3588());
        let profile = config.profile.clone();
        let mut server = Server::new(config, catalogue());
        // Request 0 is still decoding 512 tokens when request 1 arrives.
        server.submit_at(SimTime::ZERO, 0, "qwen2.5-3b", 128, 512);
        server.submit_at(SimTime::from_secs(30), 1, "qwen2.5-3b", 128, 8);
        let report = server.run();
        let by_id = |id: u64| report.records.iter().find(|r| r.request.id == id).unwrap();
        let (r0, r1) = (by_id(0), by_id(1));
        assert!(r0.first_token < r1.dispatched && r1.dispatched < r0.completed);
        // The first request paid for an idle context.
        assert_eq!(r0.cached_fraction, 0.0);
        assert!(r0.report.restored_bytes > 0);
        assert_eq!(
            r0.report.breakdown.framework_init,
            profile.checkpoint_restore
        );
        assert_eq!(
            r0.report.breakdown.working_alloc,
            profile.kv_cache_alloc + profile.activation_alloc
        );
        // The joiner reads the pinned blob and only allocates its KV.
        assert_eq!(r1.cached_fraction, 1.0);
        assert_eq!(r1.report.restored_bytes, 0);
        assert_eq!(r1.report.breakdown.framework_init, SimDuration::ZERO);
        assert_eq!(r1.report.breakdown.working_alloc, profile.kv_cache_alloc);
        assert_eq!(report.fleet.cold_starts, 1);
    }

    #[test]
    fn joined_requests_follow_a_live_request_of_their_model() {
        let config = ServingConfig::paper_default(PlatformProfile::rk3566());
        let models = ["tinyllama-1.1b", "qwen2.5-3b", "phi-3-3.8b"];
        let workload = WorkloadSpec::standard_multi(
            ArrivalProcess::Poisson { rate_per_sec: 0.1 },
            120,
            &models,
        );
        let catalogue = models
            .iter()
            .map(|m| ModelSpec::by_name(m).expect("catalogue model"))
            .collect();
        let report = Server::run_workload(config, catalogue, &workload, 0x10E);
        let joined: Vec<&RequestRecord> = report
            .records
            .iter()
            .filter(|r| r.report.breakdown.framework_init == SimDuration::ZERO)
            .collect();
        assert!(
            !joined.is_empty(),
            "a loaded device must join live contexts"
        );
        for r in joined {
            assert_eq!(r.cached_fraction, 1.0);
            assert_eq!(r.report.restored_bytes, 0);
            // Its context was running: an earlier request of the same model
            // was in flight at dispatch, and produced its first token first —
            // the joiner's NPU work never races the restore it relies on.
            assert!(
                live_peers(&report.records, r).any(|o| o.first_token < r.first_token),
                "request {} joined no live context",
                r.request.id
            );
        }
    }

    /// The chunk-slot rule over 500 random histories of prefills arriving,
    /// taking chunks and finishing.  At every step boundary the slot goes to
    /// the least work left among eligible prefills, the earliest on a tie;
    /// its holder is displaced only by strictly less work; and no prefill
    /// overtakes an earlier restoring prefill of its model.
    #[test]
    fn the_chunk_slot_serves_the_least_work_left_first() {
        const SEED: u64 = 0x5107;
        let mut rng = DetRng::new(SEED);
        let (mut preempted, mut guarded) = (0, 0);
        for case in 0..500 {
            let mut claims: Vec<SlotClaim> = Vec::new();
            let mut active = None;
            for step in 0..24 {
                // Whole units of work, so ties are common.
                for _ in 0..rng.gen_range(0, 3) {
                    claims.push(SlotClaim {
                        work_left: rng.gen_range(1, 8) as f64,
                        model: ModelId(rng.gen_range(0, 3) as u32),
                        restoring: rng.gen_bool(0.3),
                    });
                }
                let slot = chunk_slot(claims.iter().copied(), active);
                let repro = format!(
                    "repro: seed {SEED:#x} case {case} step {step}: \
                     {claims:?} active {active:?} -> {slot:?}"
                );
                let Some(s) = slot else {
                    assert!(claims.is_empty(), "{repro}");
                    continue;
                };
                let eligible = |i: usize| {
                    !claims[..i]
                        .iter()
                        .any(|e| e.restoring && e.model == claims[i].model)
                };
                assert!(eligible(s), "{repro}");
                let least = (0..claims.len())
                    .filter(|&i| eligible(i))
                    .map(|i| claims[i].work_left)
                    .fold(f64::INFINITY, f64::min);
                assert_eq!(claims[s].work_left, least, "{repro}");
                if active != Some(s) {
                    let first =
                        (0..claims.len()).find(|&i| eligible(i) && claims[i].work_left == least);
                    assert_eq!(first, Some(s), "{repro}");
                }
                if let Some(a) = active.filter(|&a| a != s) {
                    assert!(claims[s].work_left < claims[a].work_left, "{repro}");
                    preempted += 1;
                }
                if (0..claims.len()).any(|i| !eligible(i) && claims[i].work_left < least) {
                    guarded += 1;
                }
                // The holder takes a chunk of one or two units.
                claims[s].work_left -= rng.gen_range(1, 3) as f64;
                active = Some(s);
                if claims[s].work_left <= 0.0 {
                    claims.remove(s);
                    active = None;
                }
            }
        }
        assert!(
            preempted >= 250 && guarded >= 1000,
            "{preempted} preemptions, {guarded} guarded choices"
        );
    }

    #[test]
    fn overload_rejects_beyond_queue_depth() {
        let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
        config.max_queue_depth = 2;
        let mut server = Server::new(config, catalogue());
        // A stampede of simultaneous arrivals: one dispatches, two queue, the
        // rest are rejected (the service phase is exclusive, so only one
        // request leaves the queue at time zero even with two slots).
        for i in 0..8 {
            server.submit_at(SimTime::ZERO, i, "qwen2.5-3b", 128, 16);
        }
        let report = server.run();
        assert_eq!(report.fleet.completed, 3);
        assert_eq!(report.fleet.rejected, 5);
        assert_eq!(report.fleet.max_queue_depth, 2);
    }

    #[test]
    fn queueing_inflates_e2e_ttft_not_service_ttft() {
        let config = ServingConfig::paper_default(PlatformProfile::rk3588());
        let mut server = Server::new(config, catalogue());
        for i in 0..4 {
            server.submit_at(SimTime::ZERO, i, "qwen2.5-3b", 128, 8);
        }
        let report = server.run();
        // Completion order follows FIFO dispatch order.
        let waits: Vec<SimDuration> = report.records.iter().map(|r| r.queue_wait()).collect();
        assert_eq!(waits[0], SimDuration::ZERO);
        for w in waits.windows(2) {
            assert!(w[1] > w[0], "{:?}", waits);
        }
        let e2e = report.fleet.ttft_ms.unwrap();
        let service = report.fleet.service_ttft_ms.unwrap();
        assert!(e2e.max > service.max);
    }

    #[test]
    fn closed_loop_sessions_interleave_on_one_device() {
        let config = ServingConfig::paper_default(PlatformProfile::rk3588());
        let workload = WorkloadSpec::standard(
            ArrivalProcess::ClosedLoop {
                sessions: 3,
                mean_think: SimDuration::from_secs(5),
            },
            9,
            "qwen2.5-3b",
        );
        let report = Server::run_workload(config, catalogue(), &workload, 17);
        assert_eq!(report.fleet.completed, 9);
        // All three sessions made progress.
        for s in 0..3u64 {
            assert_eq!(
                report
                    .records
                    .iter()
                    .filter(|r| r.request.session == s)
                    .count(),
                3
            );
        }
        // Requests of one session never overlap: its n-th request arrives
        // after its (n-1)-th completed.
        for s in 0..3u64 {
            let mut last_completed = SimTime::ZERO;
            for r in report.records.iter().filter(|r| r.request.session == s) {
                assert!(r.arrival >= last_completed);
                last_completed = r.completed;
            }
        }
    }

    #[test]
    fn rejected_closed_loop_requests_do_not_kill_their_session() {
        let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
        config.max_queue_depth = 1;
        // 6 sessions stampede a queue of depth 1: early first-requests are
        // rejected, but every session must still play out its full script.
        let workload = WorkloadSpec::standard(
            ArrivalProcess::ClosedLoop {
                sessions: 6,
                mean_think: SimDuration::from_millis(10),
            },
            18,
            "qwen2.5-3b",
        );
        let report = Server::run_workload(config, catalogue(), &workload, 9);
        assert!(
            report.fleet.rejected > 0,
            "the stampede must overflow the queue"
        );
        assert_eq!(
            report.fleet.completed + report.fleet.rejected,
            18,
            "every scripted request is either served or rejected — none vanish"
        );
    }

    #[test]
    fn completion_frees_the_device_after_the_last_token_only() {
        let config = ServingConfig::paper_default(PlatformProfile::rk3588());
        // output_len = 1: the single output token is the prefill's first
        // token, so the device is free again exactly at first_token.
        let mut server = Server::new(config.clone(), catalogue());
        server.submit_at(SimTime::ZERO, 0, "qwen2.5-3b", 128, 1);
        let report = server.run();
        let r = &report.records[0];
        assert_eq!(r.completed, r.first_token);

        // output_len = 9: eight more tokens decode after the first.  The
        // step loop prices steps from the affine cost coefficients, which
        // agree with the report's graph-summed decode rate to within
        // per-operator rounding (well under a microsecond over 8 tokens).
        let mut server = Server::new(config, catalogue());
        server.submit_at(SimTime::ZERO, 0, "qwen2.5-3b", 128, 9);
        let report = server.run();
        let r = &report.records[0];
        let decode = r.completed.saturating_since(r.first_token);
        let expected = SimDuration::from_secs_f64(8.0 / r.report.decode_tokens_per_sec);
        let diff = (decode.as_secs_f64() - expected.as_secs_f64()).abs();
        assert!(diff < 2e-6, "decode {decode} vs expected {expected}");
    }

    #[test]
    fn multi_model_catalogue_keeps_separate_caches() {
        let config = ServingConfig::paper_default(PlatformProfile::rk3588());
        let mut server = Server::new(
            config,
            vec![ModelSpec::tinyllama_1_1b(), ModelSpec::qwen2_5_3b()],
        );
        // Alternate between the two models; each model's *own* second request
        // should be warm.
        let t = |s| SimTime::from_secs(s);
        server.submit_at(t(0), 0, "tinyllama-1.1b", 64, 8);
        server.submit_at(t(200), 1, "qwen2.5-3b", 64, 8);
        server.submit_at(t(400), 2, "tinyllama-1.1b", 64, 8);
        server.submit_at(t(600), 3, "qwen2.5-3b", 64, 8);
        let report = server.run();
        assert_eq!(report.fleet.completed, 4);
        assert_eq!(report.fleet.cold_starts, 2, "one cold start per model");
        assert!(report.records[2].cached_fraction > 0.0);
        assert!(report.records[3].cached_fraction > 0.0);
    }

    #[test]
    fn chunked_prefill_interleaves_instead_of_preempting() {
        // Request 0 decodes for a long time while request 1's long prefill
        // lands: the prefill joins the step loop as chunks, so the running
        // decode is never paused — it shares each chunk-carrying step, and
        // the time it lost shows up as sharing stall.
        let config = ServingConfig::paper_default(PlatformProfile::rk3588());
        let mut server = Server::new(config, catalogue());
        server.submit_at(SimTime::ZERO, 0, "qwen2.5-3b", 128, 512);
        server.submit_at(SimTime::ZERO, 1, "qwen2.5-3b", 384, 1);
        let report = server.run();
        let r0 = report.records.iter().find(|r| r.request.id == 0).unwrap();
        let r1 = report.records.iter().find(|r| r.request.id == 1).unwrap();
        assert!(r0.stall_sharing > SimDuration::ZERO);
        // The prefill really interleaved mid-decode rather than waiting out
        // the decode, and it paid for the interleaving.
        assert!(r1.first_token < r0.completed);
        assert!(r1.prefill_stall > SimDuration::ZERO);
        assert!(report.fleet.batch_steps > 0);
        assert_eq!(report.fleet.batch_max_steps_behind, 0);
    }

    #[test]
    fn batched_dispatch_starts_before_the_first_token() {
        let run = |config: ServingConfig| {
            let mut server = Server::new(config, catalogue());
            server.submit_at(SimTime::ZERO, 0, "qwen2.5-3b", 128, 256);
            server.submit_at(SimTime::ZERO, 1, "qwen2.5-3b", 128, 8);
            server.run()
        };
        fn by_id(report: &ServingReport, id: u64) -> &RequestRecord {
            report.records.iter().find(|r| r.request.id == id).unwrap()
        }
        // The serial device waits out the first request's whole decode.
        let serial = run(ServingConfig::serial(PlatformProfile::rk3588()));
        assert_eq!(by_id(&serial, 1).dispatched, by_id(&serial, 0).completed);

        // The batched loop starts the second request's service phase as
        // soon as the first's pre-NPU phase ends, before its first token.
        let report = run(ServingConfig::paper_default(PlatformProfile::rk3588()));
        let (r0, r1) = (by_id(&report, 0), by_id(&report, 1));
        assert!(
            r1.dispatched <= r0.first_token,
            "second service must not wait for the first token: {} vs {}",
            r1.dispatched,
            r0.first_token
        );
        assert!(r1.dispatched < r0.completed);
        // Both sequences decoded together at some point: some step held two.
        assert!(report
            .fleet
            .batch_occupancy
            .iter()
            .any(|&(occ, secs)| occ >= 2 && secs > 0.0));
    }

    #[test]
    fn restore_ahead_warms_the_next_request() {
        // Two different models back to back, one request in flight (so the
        // second request waits out the first's decode) with restore-ahead
        // on: the second model's parameters stream in during the first's
        // decode and its dispatch finds a warm cache.
        let mut config = ServingConfig::serial(PlatformProfile::rk3588());
        config.restore_ahead = true;
        let mut server = Server::new(
            config,
            vec![ModelSpec::tinyllama_1_1b(), ModelSpec::qwen2_5_3b()],
        );
        server.submit_at(SimTime::ZERO, 0, "qwen2.5-3b", 128, 512);
        server.submit_at(SimTime::ZERO, 1, "tinyllama-1.1b", 128, 8);
        let report = server.run();
        let r1 = report.records.iter().find(|r| r.request.id == 1).unwrap();
        assert!(
            r1.cached_fraction > 0.0,
            "restore-ahead must have credited bytes: {}",
            r1.cached_fraction
        );
        assert!(report.fleet.restore_ahead_bytes > 0);

        // Without restore-ahead the same dispatch is stone cold.
        let serial = ServingConfig::serial(PlatformProfile::rk3588());
        let mut server = Server::new(
            serial,
            vec![ModelSpec::tinyllama_1_1b(), ModelSpec::qwen2_5_3b()],
        );
        server.submit_at(SimTime::ZERO, 0, "qwen2.5-3b", 128, 512);
        server.submit_at(SimTime::ZERO, 1, "tinyllama-1.1b", 128, 8);
        let cold = server.run();
        let c1 = cold.records.iter().find(|r| r.request.id == 1).unwrap();
        assert_eq!(c1.cached_fraction, 0.0);
        assert_eq!(cold.fleet.restore_ahead_bytes, 0);
        assert!(r1.report.ttft < c1.report.ttft);
    }

    #[test]
    fn restore_ahead_skips_models_with_inflight_requests() {
        // Same model back to back: the in-flight request pins the whole blob
        // resident, so restore-ahead finds nothing to restore.
        let mut config = ServingConfig::serial(PlatformProfile::rk3588());
        config.restore_ahead = true;
        let mut server = Server::new(config, catalogue());
        server.submit_at(SimTime::ZERO, 0, "qwen2.5-3b", 128, 512);
        server.submit_at(SimTime::ZERO, 1, "qwen2.5-3b", 128, 8);
        let report = server.run();
        assert_eq!(report.fleet.restore_ahead_bytes, 0);
    }

    #[test]
    fn single_big_core_profile_serves_without_lane_conflicts() {
        // On a 1-big-core profile, restore-ahead and a warm dispatch both
        // want the only core: the dispatch must interrupt the restore-ahead
        // instead of double-booking the CPU lane.
        let mut profile = PlatformProfile::rk3588();
        profile.big_cores = 1;
        let mut config = ServingConfig::paper_default(profile);
        config.retention = RetentionPolicy::KeepAll;
        let mut server = Server::new(
            config,
            vec![ModelSpec::tinyllama_1_1b(), ModelSpec::qwen2_5_3b()],
        );
        // Warm up qwen, then force a warm qwen dispatch while tinyllama is
        // queued cold (restore-ahead grabs the core during decode).
        server.submit_at(SimTime::ZERO, 0, "qwen2.5-3b", 64, 256);
        server.submit_at(SimTime::ZERO, 1, "qwen2.5-3b", 64, 256);
        server.submit_at(SimTime::ZERO, 2, "tinyllama-1.1b", 64, 8);
        server.submit_at(SimTime::ZERO, 3, "qwen2.5-3b", 64, 8);
        let report = server.run();
        assert_eq!(report.fleet.completed, 4);
        for lane in &report.resources {
            assert!(lane.peak_in_use <= lane.capacity, "{}", lane.name);
        }
    }

    #[test]
    fn lanes_never_exceed_capacity() {
        let config = ServingConfig::paper_default(PlatformProfile::rk3588());
        let workload = WorkloadSpec::standard(
            ArrivalProcess::Poisson { rate_per_sec: 0.2 },
            30,
            "qwen2.5-3b",
        );
        let report = Server::run_workload(config, catalogue(), &workload, 5);
        for lane in &report.resources {
            assert!(
                lane.peak_in_use <= lane.capacity,
                "{}: peak {} > capacity {}",
                lane.name,
                lane.peak_in_use,
                lane.capacity
            );
            assert_eq!(lane.in_use, 0, "{}: still held at shutdown", lane.name);
        }
    }
}
