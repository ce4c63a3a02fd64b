//! End-to-end TZ-LLM inference evaluation.
//!
//! Assembles the pieces — checkpoint restore, secure-memory scaling costs,
//! pipelined restoration, NPU co-driver overhead, decoding — into the
//! per-request metrics the paper reports: time-to-first-token (TTFT) and
//! decoding speed, with a breakdown of where the time went.

use std::collections::HashMap;

use sim_core::SimDuration;
use tz_hal::PlatformProfile;

use llm::{ComputationGraph, CostModel, ModelSpec};

use crate::cache::CacheController;
use crate::pipeline::{simulate, PipelineConfig, PipelineResult, Policy};
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

/// Memoises the expensive middle of the crate-internal `evaluate_service`
/// step: building the
/// prefill graph, extending it into a [`RestorePlan`] (hundreds of
/// operators) and simulating the pipeline schedule.
///
/// The result is fully determined by `(model, prompt_len, cached_bytes,
/// output_len, memory pressure, policy)`, all of which recur heavily in
/// serving sweeps — prompt lengths are drawn from a few hundred distinct
/// benchmark values and cache states cluster on the retention policy's
/// targets — so a dispatch is usually a lookup instead of a fresh
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
    /// Prompt tokens served from a reused KV prefix (the prefill graph only
    /// covers the remaining `prompt_len - reused_prefix` tokens).
    reused_prefix: u32,
    output_len: u32,
    cached_bytes: u64,
    memory_pressure: u64,
    policy: Policy,
}

/// The memoised products of one graph-build + plan-build + pipeline run.
#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    pipeline: SimDuration,
    npu_busy: SimDuration,
    restoration_cpu: SimDuration,
    critical_paths: CriticalPaths,
    restored_bytes: u64,
    decode_tokens_per_sec: f64,
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

    fn get(&mut self, key: &PlanKey) -> Option<PlanEntry> {
        if self.capacity == 0 {
            self.misses += 1;
            return None;
        }
        match self.map.get(key) {
            Some(entry) => {
                self.hits += 1;
                Some(*entry)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: PlanKey, entry: PlanEntry) {
        if self.capacity == 0 {
            return;
        }
        if self.map.len() >= self.capacity {
            self.map.clear();
        }
        self.map.insert(key, entry);
    }
}

/// Dispatch-time inputs of one service evaluation, borrowed from the serving
/// layer's interned model table (no per-dispatch `ModelSpec` clone).
pub(crate) struct ServiceParams<'a> {
    pub model: &'a ModelSpec,
    /// Interned model identity for plan-cache keying.
    pub model_key: u32,
    /// `ComputationGraph::total_param_bytes()` for this model, precomputed
    /// once per model (prompt-length independent) so cache hits never build
    /// a graph just to turn the cached fraction into a byte count.
    pub total_param_bytes: u64,
    pub prompt_len: usize,
    /// Leading prompt tokens whose KV state is reused from the secure KV
    /// pool (multi-turn prefix reuse): the prefill graph only processes the
    /// remaining suffix, while decoding still attends over the full context.
    /// Always `< prompt_len` — at least one token is prefilled.
    pub reused_prefix: usize,
    pub output_len: usize,
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

/// Evaluates the service time of one request with explicit framework
/// initialisation and working-allocation costs.
///
/// This is the single evaluation core shared by [`evaluate_tzllm`] and the
/// serving layer ([`crate::serving`]).  `params.cached_fraction` is the one
/// source of truth for the cache state — the serving layer sets it from the
/// live [`CacheController`] at dispatch time.  `framework_init` and
/// `working_alloc` are dispatch-time state (a suspended TA restores its
/// checkpoint and maps a fresh activation arena; a running one pays
/// neither, only the new sequence's KV cache), so the caller decides them,
/// as it does `kv_unseal` (the time to verify + decrypt the sealed part of a
/// reused KV prefix; it overlaps the prefill's NPU window and only its
/// excess surfaces in the TTFT).  `plan_cache` (if any) memoises the
/// graph/plan/pipeline work, which is deterministic in the remaining inputs;
/// the three dispatch-time costs are added on top of the cached pipeline
/// numbers so idle-context and live-context dispatches share entries.
pub(crate) fn evaluate_service(
    profile: &PlatformProfile,
    params: &ServiceParams<'_>,
    framework_init: SimDuration,
    working_alloc: SimDuration,
    kv_unseal: SimDuration,
    plan_cache: Option<&mut PlanCache>,
) -> InferenceReport {
    let model = params.model;
    debug_assert!(params.reused_prefix < params.prompt_len.max(1));
    let new_tokens = params
        .prompt_len
        .saturating_sub(params.reused_prefix)
        .max(1);
    let cached = (params.total_param_bytes as f64 * params.cached_fraction.clamp(0.0, 1.0)) as u64;
    let key = PlanKey {
        model: params.model_key,
        prompt_len: params.prompt_len as u32,
        reused_prefix: params.reused_prefix as u32,
        output_len: params.output_len as u32,
        cached_bytes: cached,
        memory_pressure: params.memory_pressure,
        policy: params.policy,
    };

    let mut plan_cache = plan_cache;
    let entry = match plan_cache.as_mut().and_then(|c| c.get(&key)) {
        Some(entry) => entry,
        None => {
            let cost = CostModel::rk3588();
            // Only the suffix's tokens are processed, but their attention
            // still spans the reused context — the suffix prefill is not
            // priced as if the retained prefix were free compute.
            let graph = ComputationGraph::prefill_suffix(model, new_tokens, params.prompt_len);
            let occupancy = cma_occupancy(model, params.memory_pressure);
            let rates =
                RestoreRates::from_profile(profile, occupancy, profile.cma_migration_threads);
            let times: Vec<SimDuration> = graph.ops.iter().map(|o| cost.op_time(o)).collect();
            let plan = RestorePlan::build(&graph, |i| times[i], &rates, cached);
            let critical_paths = plan.critical_paths();

            let pipe_cfg = PipelineConfig {
                cpu_cores: profile.big_cores,
                preempt_quantum: SimDuration::from_millis(2),
                policy: params.policy,
                record_trace: false,
            };
            let result: PipelineResult = simulate(&plan, &pipe_cfg);

            // Decoding: NPU-accelerated, paying one handoff per layer per
            // token.
            let per_handoff = profile.codriver_switch_cost() * 2;
            let decode_base =
                cost.decode_token_time(model, params.prompt_len + params.output_len, true);
            let decode_token = decode_base + per_handoff * model.layers as u64;
            let entry = PlanEntry {
                pipeline: result.makespan,
                npu_busy: result.busy_npu_compute,
                restoration_cpu: result.restoration_cpu_time(),
                critical_paths,
                restored_bytes: plan.restored_bytes,
                decode_tokens_per_sec: 1.0 / decode_token.as_secs_f64(),
            };
            if let Some(c) = plan_cache.as_mut() {
                c.insert(key, entry);
            }
            entry
        }
    };

    // One fused secure NPU job per layer during prefill: each pays the
    // co-driver switch in both directions plus the completion SMC.
    let per_handoff = profile.codriver_switch_cost() * 2;
    let npu_overhead = per_handoff * model.layers as u64;

    let breakdown = TtftBreakdown {
        framework_init,
        working_alloc,
        pipeline: entry.pipeline,
        npu_overhead,
        // Unsealing streams on the CPU decrypt threads while the prefill
        // computes on the NPU; only the part the NPU window cannot hide is
        // serial TTFT.
        kv_restore: kv_unseal.saturating_sub(entry.npu_busy),
    };

    InferenceReport {
        ttft: breakdown.total(),
        decode_tokens_per_sec: entry.decode_tokens_per_sec,
        breakdown,
        restoration_cpu: entry.restoration_cpu,
        critical_paths: entry.critical_paths,
        npu_busy: entry.npu_busy,
        restored_bytes: entry.restored_bytes,
    }
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
        model,
        model_key: 0, // keys the plan cache, which a lone evaluation skips
        total_param_bytes: ComputationGraph::prefill(model, 1).total_param_bytes(),
        prompt_len: config.prompt_len,
        reused_prefix: 0,
        output_len: config.output_len,
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
