//! End-to-end inference evaluation: one pricing function for the four
//! evaluated systems, and the plan cache a serving dispatch consults first.
//!
//! TZ-LLM and the three baselines of §7 differ only in their inputs: which
//! device runs each operator, the restore rates, the parameter bytes already
//! cached, the pipeline policy, the co-driver handoff per layer and the
//! framework initialisation.  All but the last form one crate-internal
//! `SystemRow`, and `price` turns a row and a request into the pipeline and
//! decode numbers of a report.  The caller adds the framework
//! initialisation and working allocation it pays, which gives the TTFT with
//! a breakdown of where the time went, and the decoding speed.  A serving
//! dispatch prices the TZ-LLM row through [`PlanCache`].

use std::collections::HashMap;

use sim_core::SimDuration;
use tz_hal::PlatformProfile;

use llm::{ComputationGraph, CostModel, Device, ModelSpec};

use crate::cache::CacheController;
use crate::pipeline::{simulate, PipelineConfig, Policy};
use crate::restore::{CriticalPaths, RestorePlan, RestoreRates};

/// Configuration of one evaluated inference request.
#[derive(Debug, Clone)]
pub struct InferenceConfig {
    /// The model.
    pub model: ModelSpec,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Number of tokens to generate (for decode-speed reporting).
    pub output_len: usize,
    /// REE memory pressure in bytes (drives CMA migration cost).
    pub memory_pressure: u64,
    /// Fraction of the parameters already cached in secure memory (§7.2.3).
    pub cached_fraction: f64,
    /// Pipeline scheduling policy (for the Figure 13 ablations).
    pub policy: Policy,
}

impl InferenceConfig {
    /// A default configuration matching the paper's worst-case setup for the
    /// given model: cold cache, per-model memory pressure (13/11/10/6 GB for
    /// the four catalogue models), preemptive scheduling.
    pub fn paper_default(model: ModelSpec, prompt_len: usize) -> Self {
        let pressure_gib: u64 = match model.name.as_str() {
            "tinyllama-1.1b" => 13,
            "qwen2.5-3b" => 11,
            "phi-3-3.8b" => 10,
            "llama-3-8b" => 6,
            _ => 8,
        };
        InferenceConfig {
            model,
            prompt_len,
            output_len: 64,
            memory_pressure: pressure_gib * sim_core::GIB,
            cached_fraction: 0.0,
            policy: Policy::PriorityPreemptive,
        }
    }

    /// The request this configuration prices, with no reused KV prefix.
    pub(crate) fn request(&self) -> PlanRequest<'_> {
        PlanRequest {
            model: &self.model,
            prompt_len: self.prompt_len,
            reused_prefix: 0,
            output_len: self.output_len,
        }
    }
}

/// Where the TTFT of one request went.
#[derive(Debug, Clone, Copy, Default)]
pub struct TtftBreakdown {
    /// Framework initialisation: a cold init or a checkpoint restore when the
    /// model's TA context is idle, zero when the request joins a context
    /// that is already running (the serving layer's live-context dispatch).
    pub framework_init: SimDuration,
    /// Working-region allocation: the KV cache plus the activation arena
    /// for an idle context; only the per-sequence KV cache when the request
    /// joins a running context, whose activation arena is already mapped.
    pub working_alloc: SimDuration,
    /// The restoration + prefill pipeline makespan.
    pub pipeline: SimDuration,
    /// NPU world-switch overhead attributable to the prefill.
    pub npu_overhead: SimDuration,
    /// KV-prefix unsealing time *not* hidden behind the pipeline: sealed KV
    /// pages decrypt on the CPU while the (shorter) prefill computes on the
    /// NPU, so only the excess beyond the NPU-busy window surfaces in TTFT.
    pub kv_restore: SimDuration,
}

impl TtftBreakdown {
    /// The total TTFT.
    pub fn total(&self) -> SimDuration {
        self.framework_init
            + self.working_alloc
            + self.pipeline
            + self.npu_overhead
            + self.kv_restore
    }
}

/// The outcome of evaluating one inference request on one system.
#[derive(Debug, Clone)]
pub struct InferenceReport {
    /// Time to first token.
    pub ttft: SimDuration,
    /// Decoding speed in tokens per second.
    pub decode_tokens_per_sec: f64,
    /// TTFT breakdown.
    pub breakdown: TtftBreakdown,
    /// CPU time spent on restoration (allocation migration + decryption),
    /// which is what interferes with concurrent REE applications (Figure 16).
    pub restoration_cpu: SimDuration,
    /// The three candidate critical paths of the pipeline (Figure 12).
    pub critical_paths: CriticalPaths,
    /// NPU busy time inside the prefill pipeline — the slice of the TTFT
    /// during which the NPU is genuinely occupied (the serving dispatcher
    /// runs this window plus the world-switch overhead as prefill chunks in
    /// its step loop).
    pub npu_busy: SimDuration,
    /// Parameter bytes this request had to restore from flash (zero for a
    /// fully cached dispatch); the serving dispatcher uses this to decide
    /// whether the request occupies the flash/decrypt lanes.
    pub restored_bytes: u64,
}

/// One evaluated system's inputs to `price`.
#[derive(Debug)]
pub(crate) struct SystemRow {
    /// Whether the system computes on the NPU.  Without it every operator,
    /// in prefill and in decode, runs on the CPU.
    pub use_npu: bool,
    /// Allocation, loading and decryption rates of the parameter restore.
    pub rates: RestoreRates,
    /// Parameter bytes already resident, as a prefix in blob order.
    pub cached_bytes: u64,
    /// Pipeline scheduling policy.
    pub policy: Policy,
    /// Co-driver world switches of one layer's NPU job: paid once per layer
    /// in the prefill and once per layer per decoded token.
    pub handoff: SimDuration,
}

/// One request as `price` sees it.
#[derive(Debug)]
pub(crate) struct PlanRequest<'a> {
    pub model: &'a ModelSpec,
    pub prompt_len: usize,
    /// Leading prompt tokens whose KV state is reused from the secure KV
    /// pool (multi-turn prefix reuse): the prefill graph only processes the
    /// remaining suffix, while decoding still attends over the full context.
    /// Always `< prompt_len` — at least one token is prefilled.
    pub reused_prefix: usize,
    pub output_len: usize,
}

/// Memoises `price` for the TZ-LLM row at dispatch time: building the
/// prefill graph, extending it into a [`RestorePlan`] (hundreds of
/// operators) and simulating the pipeline schedule.
///
/// The result is fully determined by `(model, prompt_len, reused_prefix,
/// cached_bytes, output_len, memory pressure, policy)`, all of which recur
/// heavily in serving sweeps — prompt lengths are drawn from a few hundred
/// distinct benchmark values and cache states cluster on the retention
/// policy's targets — so a dispatch is usually a lookup instead of a fresh
/// simulation.  Eviction is wholesale (`clear` on overflow) to stay
/// deterministic: no iteration-order-dependent victim selection.
#[derive(Debug, Default)]
pub struct PlanCache {
    capacity: usize,
    map: HashMap<PlanKey, PlanEntry>,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    /// Interned model identity (the serving layer's `ModelId`).
    model: u32,
    prompt_len: u32,
    reused_prefix: u32,
    output_len: u32,
    cached_bytes: u64,
    memory_pressure: u64,
    policy: Policy,
}

/// What `price` derives from a row and a request: everything in a report
/// but the dispatch-time costs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanEntry {
    pipeline: SimDuration,
    npu_busy: SimDuration,
    npu_overhead: SimDuration,
    restoration_cpu: SimDuration,
    critical_paths: CriticalPaths,
    restored_bytes: u64,
    decode_tokens_per_sec: f64,
}

impl PlanEntry {
    /// The report of a request that pays `framework_init` and
    /// `working_alloc` before its pipeline and unseals reused KV pages for
    /// `kv_unseal` beside it.
    pub(crate) fn report(
        &self,
        framework_init: SimDuration,
        working_alloc: SimDuration,
        kv_unseal: SimDuration,
    ) -> InferenceReport {
        let breakdown = TtftBreakdown {
            framework_init,
            working_alloc,
            pipeline: self.pipeline,
            npu_overhead: self.npu_overhead,
            // Unsealing streams on the CPU decrypt threads while the prefill
            // computes on the NPU; only the part the NPU window cannot hide
            // is serial TTFT.
            kv_restore: kv_unseal.saturating_sub(self.npu_busy),
        };
        InferenceReport {
            ttft: breakdown.total(),
            decode_tokens_per_sec: self.decode_tokens_per_sec,
            breakdown,
            restoration_cpu: self.restoration_cpu,
            critical_paths: self.critical_paths,
            npu_busy: self.npu_busy,
            restored_bytes: self.restored_bytes,
        }
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            ..Default::default()
        }
    }

    /// Lookups that were answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to build and simulate a fresh plan.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The entry under `key`, from `price` on a miss.
    fn get_or_price(&mut self, key: PlanKey, price: impl FnOnce() -> PlanEntry) -> PlanEntry {
        if let Some(entry) = self.map.get(&key) {
            self.hits += 1;
            return *entry;
        }
        self.misses += 1;
        let entry = price();
        if self.capacity > 0 {
            if self.map.len() >= self.capacity {
                self.map.clear();
            }
            self.map.insert(key, entry);
        }
        entry
    }
}

/// Dispatch-time inputs of one service evaluation, borrowed from the serving
/// layer's interned model table (no per-dispatch `ModelSpec` clone).
pub(crate) struct ServiceParams<'a> {
    pub request: PlanRequest<'a>,
    /// Interned model identity for plan-cache keying.
    pub model_key: u32,
    /// [`param_bytes`] of the model, precomputed once per model so cache
    /// hits never build a graph just to turn the cached fraction into a
    /// byte count.
    pub total_param_bytes: u64,
    pub memory_pressure: u64,
    pub cached_fraction: f64,
    pub policy: Policy,
}

/// The CMA occupancy implied by a given memory pressure: the fraction of the
/// to-be-allocated parameter region that must be migrated.
pub fn cma_occupancy(model: &ModelSpec, memory_pressure: u64) -> f64 {
    if model.total_q8_bytes() == 0 {
        return 0.0;
    }
    (memory_pressure as f64 / model.total_q8_bytes() as f64).clamp(0.0, 1.0)
}

/// The parameter bytes a model's prefill restores when nothing is cached
/// (the same at every prompt length).
pub(crate) fn param_bytes(model: &ModelSpec) -> u64 {
    ComputationGraph::prefill(model, 1).total_param_bytes()
}

/// Builds the row's restore plan for the request: the prefill graph of the
/// tokens it does not reuse, every operator on the CPU when the row has no
/// NPU, and restoration operators for each parameter byte not yet cached.
pub(crate) fn plan(row: &SystemRow, request: &PlanRequest<'_>) -> RestorePlan {
    debug_assert!(request.reused_prefix < request.prompt_len.max(1));
    let new_tokens = request
        .prompt_len
        .saturating_sub(request.reused_prefix)
        .max(1);
    // Only the suffix's tokens are processed, but their attention still
    // spans the reused context — the suffix prefill is not priced as if the
    // retained prefix were free compute.
    let mut graph = ComputationGraph::prefill_suffix(request.model, new_tokens, request.prompt_len);
    if !row.use_npu {
        for op in &mut graph.ops {
            op.device = Device::Cpu;
        }
    }
    let cost = CostModel::rk3588();
    let times: Vec<SimDuration> = graph.ops.iter().map(|o| cost.op_time(o)).collect();
    RestorePlan::build(&graph, |i| times[i], &row.rates, row.cached_bytes)
}

/// Prices one request on one system: simulates the row's plan under the
/// row's policy, and prices each decoded token with one handoff per layer.
pub(crate) fn price(
    profile: &PlatformProfile,
    row: &SystemRow,
    request: &PlanRequest<'_>,
) -> PlanEntry {
    let plan = plan(row, request);
    let result = simulate(
        &plan,
        &PipelineConfig {
            cpu_cores: profile.big_cores,
            preempt_quantum: SimDuration::from_millis(2),
            policy: row.policy,
            record_trace: false,
        },
    );
    let model = request.model;
    let handoffs = row.handoff * model.layers as u64;
    let kv_len = request.prompt_len + request.output_len;
    let decode_token = CostModel::rk3588().decode_token_time(model, kv_len, row.use_npu) + handoffs;
    PlanEntry {
        pipeline: result.makespan,
        npu_busy: result.busy_npu_compute,
        npu_overhead: handoffs,
        restoration_cpu: result.restoration_cpu_time(),
        critical_paths: plan.critical_paths(),
        restored_bytes: plan.restored_bytes,
        decode_tokens_per_sec: 1.0 / decode_token.as_secs_f64(),
    }
}

/// Evaluates the service time of one TZ-LLM request at dispatch time.
///
/// This is the evaluation shared by [`evaluate_tzllm`] and the serving
/// layer ([`crate::serving`]).  `params.cached_fraction` is the one source
/// of truth for the cache state — the serving layer sets it from the live
/// [`CacheController`] at dispatch time.  A `plan_cache` miss prices the
/// TZ-LLM row; the entry is deterministic in the remaining inputs, so the
/// three dispatch-time costs are added on top of it and idle-context and
/// live-context dispatches share entries.  `framework_init` and
/// `working_alloc` are that dispatch-time state (a suspended TA restores
/// its checkpoint and maps a fresh activation arena; a running one pays
/// neither, only the new sequence's KV cache), and so is `kv_unseal`, the
/// time to verify and decrypt the sealed part of a reused KV prefix, which
/// overlaps the prefill's NPU window so that only its excess surfaces in
/// the TTFT.
pub(crate) fn evaluate_service(
    profile: &PlatformProfile,
    params: &ServiceParams<'_>,
    framework_init: SimDuration,
    working_alloc: SimDuration,
    kv_unseal: SimDuration,
    plan_cache: Option<&mut PlanCache>,
) -> InferenceReport {
    let request = &params.request;
    let cached_bytes =
        (params.total_param_bytes as f64 * params.cached_fraction.clamp(0.0, 1.0)) as u64;
    let price_tzllm = || {
        let occupancy = cma_occupancy(request.model, params.memory_pressure);
        let row = SystemRow {
            use_npu: true,
            rates: RestoreRates::from_profile(profile, occupancy, profile.cma_migration_threads),
            cached_bytes,
            policy: params.policy,
            // The co-driver's secure NPU job switches worlds both ways.
            handoff: profile.codriver_switch_cost() * 2,
        };
        price(profile, &row, request)
    };
    let entry = match plan_cache {
        Some(cache) => cache.get_or_price(
            PlanKey {
                model: params.model_key,
                prompt_len: request.prompt_len as u32,
                reused_prefix: request.reused_prefix as u32,
                output_len: request.output_len as u32,
                cached_bytes,
                memory_pressure: params.memory_pressure,
                policy: params.policy,
            },
            price_tzllm,
        ),
        None => price_tzllm(),
    };
    entry.report(framework_init, working_alloc, kv_unseal)
}

/// Evaluates TZ-LLM on one inference request.
///
/// This is the evaluation the serving layer runs at every dispatch, priced
/// for an idle TA context: the checkpoint restore, a fresh KV cache plus
/// activation arena, and no sealed KV to unseal.  The cached fraction is
/// read back through a [`CacheController`] seeded in its own unit (the
/// model's Q8 blob size), exactly as a dispatch reads the live controller,
/// so the plan is built over the same cached bytes.
pub fn evaluate_tzllm(profile: &PlatformProfile, config: &InferenceConfig) -> InferenceReport {
    let model = &config.model;
    let mut cache = CacheController::new(model.total_q8_bytes());
    cache.seed((model.total_q8_bytes() as f64 * config.cached_fraction.clamp(0.0, 1.0)) as u64);
    let params = ServiceParams {
        request: config.request(),
        model_key: 0, // keys the plan cache, which a lone evaluation skips
        total_param_bytes: param_bytes(model),
        memory_pressure: config.memory_pressure,
        cached_fraction: cache.cached_fraction(),
        policy: config.policy,
    };
    evaluate_service(
        profile,
        &params,
        profile.checkpoint_restore,
        profile.kv_cache_alloc + profile.activation_alloc,
        SimDuration::ZERO,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> PlatformProfile {
        PlatformProfile::rk3588()
    }

    #[test]
    fn ttft_decreases_with_caching() {
        let mut cfg = InferenceConfig::paper_default(ModelSpec::qwen2_5_3b(), 128);
        let cold = evaluate_tzllm(&profile(), &cfg);
        cfg.cached_fraction = 1.0;
        let warm = evaluate_tzllm(&profile(), &cfg);
        assert!(warm.ttft < cold.ttft);
        assert_eq!(warm.restoration_cpu, SimDuration::ZERO);
    }

    /// The request-sequence extension of `ttft_decreases_with_caching`: under
    /// adaptive retention, consecutive warm requests strictly improve TTFT
    /// until the cache saturates, then TTFT stays flat.
    #[test]
    fn ttft_improves_across_warm_request_sequence_until_saturation() {
        use crate::serving::{RetentionPolicy, Server, ServingConfig};

        let mut config = ServingConfig::paper_default(profile());
        config.retention = RetentionPolicy::Adaptive {
            step_fraction: 0.25,
        };
        // No REE pressure headroom cap: the cache can grow to the whole model.
        config.memory_pressure = 8 * sim_core::GIB;
        let mut server = Server::new(config, vec![ModelSpec::qwen2_5_3b()]);
        // Identical requests, spaced far enough apart that nothing queues.
        for i in 0..8u64 {
            server.submit_at(
                sim_core::SimTime::from_secs(i * 300),
                i,
                "qwen2.5-3b",
                128,
                8,
            );
        }
        let report = server.run();
        assert_eq!(report.records.len(), 8);

        let fractions: Vec<f64> = report.records.iter().map(|r| r.cached_fraction).collect();
        let ttfts: Vec<SimDuration> = report.records.iter().map(|r| r.report.ttft).collect();
        // The cache warms in 25 % steps: 0, 0.25, 0.5, 0.75, 1.0, 1.0, ...
        assert_eq!(fractions[0], 0.0);
        for w in fractions.windows(2) {
            assert!(w[1] >= w[0], "cache must warm monotonically: {fractions:?}");
        }
        assert!(
            fractions[4] >= 1.0 - 1e-9,
            "cache fully warm by request 4: {fractions:?}"
        );

        // TTFT saturates when the remaining restoration hides entirely behind
        // computation (§7.2.3) — possibly *before* the whole blob is cached.
        // Until that plateau every warm request is strictly faster; after it,
        // TTFT stays exactly flat.
        let plateau = (1..ttfts.len())
            .find(|&i| ttfts[i] >= ttfts[i - 1])
            .expect("TTFT saturates within the sequence")
            - 1;
        assert!(
            plateau >= 2,
            "expected several strictly-improving warm requests: {ttfts:?}"
        );
        for i in 1..=plateau {
            assert!(
                ttfts[i] < ttfts[i - 1],
                "warm request {i} must strictly improve TTFT: {ttfts:?}"
            );
        }
        for i in (plateau + 1)..ttfts.len() {
            assert_eq!(
                ttfts[i], ttfts[plateau],
                "past saturation TTFT is flat: {ttfts:?}"
            );
        }
        // The plateau TTFT matches the hand-set fully-cached knob: caching
        // beyond the saturation proportion buys nothing more.
        let mut knob = InferenceConfig::paper_default(ModelSpec::qwen2_5_3b(), 128);
        knob.output_len = 8;
        knob.cached_fraction = 1.0;
        let warm = evaluate_tzllm(&profile(), &knob);
        assert_eq!(ttfts[plateau], warm.ttft);
    }

    /// `evaluate_tzllm` prices exactly what a lone request's dispatch on an
    /// idle serial device reports, at any cached fraction.
    #[test]
    fn single_evaluation_matches_a_lone_serial_dispatch() {
        use crate::serving::{Server, ServingConfig};

        for fraction in [0.0, 0.37, 1.0] {
            let mut cfg = InferenceConfig::paper_default(ModelSpec::qwen2_5_3b(), 128);
            cfg.cached_fraction = fraction;
            let mut serving = ServingConfig::serial(profile());
            serving.memory_pressure = cfg.memory_pressure;
            let mut server = Server::new(serving, vec![cfg.model.clone()]);
            let seed_bytes = (cfg.model.total_q8_bytes() as f64 * fraction) as u64;
            server.seed_cache("qwen2.5-3b", seed_bytes);
            server.submit_at(
                sim_core::SimTime::ZERO,
                0,
                "qwen2.5-3b",
                cfg.prompt_len,
                cfg.output_len,
            );
            let served = server.run().records.remove(0).report;
            let direct = evaluate_tzllm(&profile(), &cfg);
            assert_eq!(format!("{served:?}"), format!("{direct:?}"), "{fraction}");
        }
    }

    #[test]
    fn checkpoint_restore_saves_seconds() {
        let p = profile();
        let report = evaluate_tzllm(
            &p,
            &InferenceConfig::paper_default(ModelSpec::llama3_8b(), 128),
        );
        assert_eq!(report.breakdown.framework_init, p.checkpoint_restore);
        let saved = (p.framework_init_total() - p.checkpoint_restore).as_secs_f64();
        assert!(saved > 1.5 && saved < 3.0, "saved = {saved}");
    }

    #[test]
    fn preemptive_policy_is_at_least_as_good() {
        let mut cfg = InferenceConfig::paper_default(ModelSpec::llama3_8b(), 128);
        cfg.policy = Policy::Sequential;
        let seq = evaluate_tzllm(&profile(), &cfg);
        cfg.policy = Policy::Priority;
        let pri = evaluate_tzllm(&profile(), &cfg);
        cfg.policy = Policy::PriorityPreemptive;
        let pre = evaluate_tzllm(&profile(), &cfg);
        assert!(pri.ttft < seq.ttft);
        assert!(pre.ttft <= pri.ttft);
    }

    #[test]
    fn decode_speed_increases_for_smaller_models() {
        let tiny = evaluate_tzllm(
            &profile(),
            &InferenceConfig::paper_default(ModelSpec::tinyllama_1_1b(), 128),
        );
        let llama = evaluate_tzllm(
            &profile(),
            &InferenceConfig::paper_default(ModelSpec::llama3_8b(), 128),
        );
        assert!(tiny.decode_tokens_per_sec > llama.decode_tokens_per_sec * 4.0);
    }

    #[test]
    fn npu_overhead_is_a_tiny_fraction_of_ttft() {
        let report = evaluate_tzllm(
            &profile(),
            &InferenceConfig::paper_default(ModelSpec::llama3_8b(), 512),
        );
        let frac = report.breakdown.npu_overhead.as_secs_f64() / report.ttft.as_secs_f64();
        assert!(frac < 0.01, "frac = {frac}");
    }
}
