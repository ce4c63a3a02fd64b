//! Property-based tests over the core data structures and invariants: the
//! pipeline scheduler, CTR random-access decryption, the TZASC contiguity
//! rules, the cache controller, the KV pool's claim rule and byte ledger,
//! and the single-request evaluator's laws across the four systems.
//!
//! The properties are exercised over many randomly drawn cases, but the
//! randomness comes from [`sim_core::DetRng`] with fixed seeds, so every run
//! checks exactly the same cases (no external proptest dependency, no
//! shrinking — a failing case prints its inputs instead).

use std::collections::BTreeSet;

use llm::{ComputationGraph, CostModel, ModelSpec, PromptContent};
use sim_core::{shard_seed, DetRng, Phase, SimDuration, SimTime, TelemetrySpan, Track, GIB};
use tz_crypto::AesCtr;
use tz_hal::{PhysAddr, PhysRange, PlatformProfile, Tzasc, World, PAGE_SIZE};
use tzllm::{
    evaluate, simulate, CacheController, CachePolicy, InferenceConfig, KvConfig, KvPool, KvQuery,
    PipelineConfig, Policy, RestorePlan, RestoreRates, SpillFormat, SystemKind,
};

const CASES: usize = 48;

fn small_model(layers: usize, hidden: usize) -> ModelSpec {
    ModelSpec {
        name: format!("prop-{layers}-{hidden}"),
        layers,
        hidden,
        heads: 4,
        kv_heads: 2,
        ffn: hidden * 2,
        vocab: 512,
        context: 1024,
    }
}

/// For any model shape, prompt length, cache fraction, occupancy and policy:
/// the simulated makespan is bounded below by the critical-path lower bound
/// and above by the sum of all operator durations, and the recorded
/// schedule never runs two operators at once on the single-server `io` and
/// `npu` lanes and accounts for every phase's busy time exactly.
#[test]
fn pipeline_makespan_is_bounded() {
    let mut rng = DetRng::new(0x70726f70); // "prop"
    for case in 0..CASES {
        let layers = rng.gen_range(2, 10) as usize;
        let hidden = ((rng.gen_range(32, 160) as usize) / 16) * 16;
        let prompt = rng.gen_range(1, 256) as usize;
        let cached_frac = rng.next_f64();
        let occupancy = rng.next_f64();
        let policy = *rng.choose(&[
            Policy::Sequential,
            Policy::Priority,
            Policy::PriorityPreemptive,
        ]);

        let model = small_model(layers, hidden);
        let graph = ComputationGraph::prefill(&model, prompt);
        let cost = CostModel::rk3588();
        let profile = PlatformProfile::rk3588();
        let rates = RestoreRates::from_profile(&profile, occupancy, 4);
        let times: Vec<SimDuration> = graph.ops.iter().map(|o| cost.op_time(o)).collect();
        let cached = (graph.total_param_bytes() as f64 * cached_frac) as u64;
        let plan = RestorePlan::build(&graph, |i| times[i], &rates, cached);
        plan.validate().unwrap();

        let result = simulate(
            &plan,
            &PipelineConfig {
                cpu_cores: 4,
                preempt_quantum: SimDuration::from_millis(2),
                policy,
                record_trace: true,
            },
        );

        let repro = format!(
            "case {case} ({layers}l/{hidden}h/{prompt}p/{cached_frac:.3}c/{occupancy:.3}o/{policy:?})"
        );

        // With four CPU cores the CPU-path total is not by itself a lower
        // bound (allocation, decryption and CPU compute can overlap on
        // different cores), so bound by the I/O path, the computation path and
        // the per-core CPU share.
        let paths = plan.critical_paths();
        let lower = paths.io.max(paths.compute).max(paths.cpu / 4);
        let upper: SimDuration = plan.ops.iter().map(|o| o.duration).sum();
        assert!(
            result.makespan >= lower,
            "{repro}: makespan {} < lower bound {}",
            result.makespan,
            lower
        );
        assert!(
            result.makespan <= upper + SimDuration::from_micros(1),
            "{repro}: makespan {} > serial upper bound {}",
            result.makespan,
            upper
        );

        let trace = &result.trace;
        for lane in ["io", "npu"] {
            let mut spans: Vec<&TelemetrySpan> = trace
                .spans()
                .iter()
                .filter(|s| matches!(s.track, Track::Lane(l) if trace.resolve(l) == lane))
                .collect();
            spans.sort_by_key(|s| (s.start, s.end));
            for w in spans.windows(2) {
                assert!(
                    w[0].end <= w[1].start,
                    "{repro}: {lane} spans [{}, {}) and [{}, {}) overlap",
                    w[0].start,
                    w[0].end,
                    w[1].start,
                    w[1].end
                );
            }
        }
        for (phase, busy) in [
            (Phase::Allocation, result.busy_alloc),
            (Phase::Loading, result.busy_load),
            (Phase::Decryption, result.busy_decrypt),
            (Phase::CpuCompute, result.busy_cpu_compute),
            (Phase::NpuCompute, result.busy_npu_compute),
        ] {
            let spanned: SimDuration = trace
                .spans()
                .iter()
                .filter(|s| s.phase == phase)
                .map(TelemetrySpan::duration)
                .sum();
            assert_eq!(spanned, busy, "{repro}: {phase:?} spans vs busy time");
        }
    }
}

/// Restoration accounting: cached + restored always equals the model size,
/// regardless of where the cache boundary falls.
#[test]
fn restore_plan_conserves_bytes() {
    let mut rng = DetRng::new(0x62797465); // "byte"
    for case in 0..CASES {
        let layers = rng.gen_range(2, 8) as usize;
        let hidden = ((rng.gen_range(32, 128) as usize) / 16) * 16;
        let cached_frac = rng.next_f64();

        let model = small_model(layers, hidden);
        let graph = ComputationGraph::prefill(&model, 16);
        let profile = PlatformProfile::rk3588();
        let rates = RestoreRates::from_profile(&profile, 0.5, 4);
        let total = graph.total_param_bytes();
        let cached = (total as f64 * cached_frac) as u64;
        let plan = RestorePlan::build(&graph, |_| SimDuration::from_micros(10), &rates, cached);
        assert_eq!(
            plan.cached_bytes + plan.restored_bytes,
            total,
            "case {case}"
        );
        assert!(plan.cached_bytes <= cached + 1, "case {case}");
    }
}

/// AES-CTR random-access decryption of any sub-range matches decrypting the
/// whole stream.
#[test]
fn ctr_random_access_matches_full_stream() {
    let mut rng = DetRng::new(0x637472); // "ctr"
    for case in 0..CASES {
        let key_seed = rng.gen_range(0, 256) as u8;
        let len = rng.gen_range(1, 2048) as usize;
        let a = (rng.gen_range(0, u16::MAX as u64 + 1) as usize) % len;
        let b = (rng.gen_range(0, u16::MAX as u64 + 1) as usize) % len;

        let key = [key_seed; 32];
        let nonce = [0x11u8; 16];
        let ctr = AesCtr::new(&key, &nonce).unwrap();
        let plain: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let mut full = plain.clone();
        ctr.apply(&mut full);

        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut slice = full[lo..hi].to_vec();
        ctr.apply_at(lo as u64, &mut slice);
        assert_eq!(
            &slice[..],
            &plain[lo..hi],
            "case {case}: range {lo}..{hi} of {len}"
        );
    }
}

/// However the TZASC region is grown and shrunk page-by-page, non-secure CPU
/// access to the protected prefix is always denied and access beyond it is
/// always allowed.
#[test]
fn tzasc_extend_shrink_protects_exactly_the_prefix() {
    let mut rng = DetRng::new(0x747a6173); // "tzas"
    for case in 0..CASES {
        let step_count = rng.gen_range(1, 20) as usize;
        let steps: Vec<u64> = (0..step_count).map(|_| rng.gen_range(1, 16)).collect();
        let shrink_every = rng.gen_range(2, 5) as usize;

        let mut tzasc = Tzasc::new();
        let base = PhysAddr::new(0x1_0000_0000);
        let id = tzasc
            .configure_region(World::Secure, PhysRange::new(base, PAGE_SIZE), [])
            .unwrap();
        let mut size = PAGE_SIZE;
        for (i, pages) in steps.iter().enumerate() {
            if i % shrink_every == 0 && size > PAGE_SIZE {
                tzasc.shrink_region(World::Secure, id, PAGE_SIZE).unwrap();
                size -= PAGE_SIZE;
            } else {
                tzasc
                    .extend_region(World::Secure, id, pages * PAGE_SIZE)
                    .unwrap();
                size += pages * PAGE_SIZE;
            }
            // Inside the prefix: denied.  Just past the end: allowed.
            let inside = PhysRange::new(PhysAddr::new(base.as_u64() + size - PAGE_SIZE), PAGE_SIZE);
            let outside = PhysRange::new(PhysAddr::new(base.as_u64() + size), PAGE_SIZE);
            assert!(
                tzasc.check_cpu_access(World::NonSecure, inside).is_err(),
                "case {case} step {i}"
            );
            assert!(
                tzasc.check_cpu_access(World::NonSecure, outside).is_ok(),
                "case {case} step {i}"
            );
            assert_eq!(tzasc.protected_bytes(), size, "case {case} step {i}");
        }
    }
}

/// The cache controller never caches more than the model and never releases
/// more than it holds.
#[test]
fn cache_controller_accounting() {
    let mut rng = DetRng::new(0x6361636865); // "cache"
    for case in 0..CASES {
        let total = rng.gen_range(1, 64 * 1024 * 1024);
        let fraction_count = rng.gen_range(1, 10) as usize;
        let revoke_count = rng.gen_range(0, 5) as usize;

        let mut cache = CacheController::new(total);
        for _ in 0..fraction_count {
            let f = rng.next_f64();
            cache.on_inference_complete();
            let released = cache.apply_policy(CachePolicy::Proportion(f));
            assert!(cache.cached_bytes() <= total, "case {case}");
            assert!(released <= total, "case {case}");
        }
        for _ in 0..revoke_count {
            let r = rng.gen_range(0, 16 * 1024 * 1024);
            let before = cache.cached_bytes();
            let released = cache.revoke(r);
            assert!(released <= before, "case {case}");
            assert_eq!(cache.cached_bytes(), before - released, "case {case}");
        }
    }
}

/// Tokens per KV page and KV bytes per token of the random KV histories.
const KV_PT: usize = 16;
const KV_BPT: u64 = 1024;

/// A random next prompt of `session`: its retained context continued (a
/// follow-up turn), a new conversation on the shared `head`, or unrelated
/// content — with the overlap declared honestly or at random, and now and
/// then on another model.
fn next_kv_query(
    rng: &mut DetRng,
    session: u64,
    context: &PromptContent,
    head: &PromptContent,
) -> (KvQuery, PromptContent) {
    let base = match rng.gen_range(0, 4) {
        0 => head.clone(),
        1 => PromptContent::empty(),
        _ => context.clone(),
    };
    let prompt = base.extended(rng.next_u64(), rng.gen_range(1, 40) as usize);
    let max_reuse = prompt.len() - 1;
    let declared = if rng.gen_bool(0.7) {
        base.len()
    } else {
        rng.gen_range(0, prompt.len() as u64 + 1) as usize
    };
    let query = KvQuery {
        session,
        model: u32::from(rng.gen_bool(0.1)),
        page_hashes: prompt.page_keys(KV_PT),
        bytes_per_token: KV_BPT,
        shared_prefix: declared.min(max_reuse),
        max_reuse,
    };
    (query, prompt)
}

/// Random KV histories over a few sessions that open with a shared head:
/// completions, budget enforcement, dispatch claims and restore-ahead
/// prewarms, with shared and salted page keys, F16 and INT8 spill.  After
/// every step, for a random next prompt, restore-ahead sizes exactly what
/// the dispatch would unseal, an unlimited prewarm unseals exactly that, and
/// the pool's residency counters, page references and deduped bytes equal
/// their recount from its pages, tails and the sessions' page chains.  Case
/// `c` draws only from `DetRng::new(shard_seed(SEED, c))`, so a failure's
/// one-line repro (seed, case, step) replays on its own.
#[test]
fn kv_claims_and_byte_ledger_hold_on_random_histories() {
    const SEED: u64 = 0x6b765f6c6564; // "kv_led"
    const SESSIONS: u64 = 4;
    let page = KV_PT as u64 * KV_BPT;
    for case in 0..CASES as u64 {
        let mut rng = DetRng::new(shard_seed(SEED, case));
        let mut pool = KvPool::new(&KvConfig {
            shared: rng.gen_bool(0.5),
            page_bytes: page,
            spill_budget: rng.gen_range(0, 24) * page,
            max_sessions: rng.gen_range(1, SESSIONS + 1) as usize,
            spill_format: if rng.gen_bool(0.5) {
                SpillFormat::F16
            } else {
                SpillFormat::Int8
            },
            popularity_retention: rng.gen_bool(0.5),
            ..KvConfig::chat_default()
        });
        let head = PromptContent::from_seed(rng.next_u64(), rng.gen_range(0, 48) as usize);
        // Each session's retained context, and its dispatched prompt.
        let mut contexts = vec![head.clone(); SESSIONS as usize];
        let mut in_flight: Vec<Option<PromptContent>> = vec![None; SESSIONS as usize];
        for step in 0..40 {
            let repro = format!("repro: seed {SEED:#x} case {case} step {step}");
            let now = SimTime::from_secs(step);
            let s = rng.gen_range(0, SESSIONS);
            let i = s as usize;
            match rng.gen_range(0, 4) {
                0 => {
                    let (query, prompt) = next_kv_query(&mut rng, s, &contexts[i], &head);
                    pool.reuse_plan(&query, now);
                    in_flight[i] = Some(prompt);
                }
                1 => {
                    // With no dispatch in flight, a request the session never
                    // claimed for completes (two requests of one session may
                    // overlap): its context may diverge from the retained one.
                    let prompt = in_flight[i]
                        .take()
                        .unwrap_or_else(|| next_kv_query(&mut rng, s, &contexts[i], &head).1);
                    let context = prompt.extended(rng.next_u64(), rng.gen_range(1, 32) as usize);
                    let hashes = context.page_keys(KV_PT);
                    pool.on_complete(s, 0, &hashes, context.len(), KV_BPT, now);
                    contexts[i] = context;
                }
                2 => {
                    let active: BTreeSet<u64> = (0..SESSIONS)
                        .filter(|&s| in_flight[s as usize].is_some())
                        .collect();
                    pool.enforce(rng.gen_range(0, 8 * page), &active);
                }
                _ => {
                    let (query, _) = next_kv_query(&mut rng, s, &contexts[i], &head);
                    pool.prewarm(&query, rng.gen_range(0, 4 * page), now);
                }
            }
            let s = rng.gen_range(0, SESSIONS);
            let (query, _) = next_kv_query(&mut rng, s, &contexts[s as usize], &head);
            let sealed = pool.sealed_bytes_for(&query);
            assert_eq!(
                pool.clone().reuse_plan(&query, now).unseal_bytes,
                sealed,
                "{repro}: the dispatch unseals what sealed_bytes_for sized"
            );
            assert_eq!(
                pool.clone().prewarm(&query, u64::MAX, now),
                sealed,
                "{repro}: an unlimited prewarm unseals what sealed_bytes_for sized"
            );
            assert_eq!(
                pool.balance(),
                pool.recount(),
                "{repro}: residency and reference counters against their recount"
            );
        }
    }
}

/// The single-request evaluator's metamorphic laws over random requests: a
/// SoC, a catalogue model, a prompt length, a cached fraction, a memory
/// pressure, a policy and a big-core count (more cores never raise TTFT).
/// The first cases are the paper's defaults (each catalogue model at a
/// 128-token prompt on the RK3588).  Case `c` draws only from
/// `DetRng::new(shard_seed(SEED, c))`, so a failure's one-line repro
/// replays on its own.
#[test]
fn single_request_evaluator_laws_hold() {
    const SEED: u64 = 0x6576616c; // "eval"
    const POLICIES: [Policy; 3] = [
        Policy::PriorityPreemptive,
        Policy::Priority,
        Policy::Sequential,
    ];
    let socs = [
        ("rk3588", PlatformProfile::rk3588()),
        ("rk3576", PlatformProfile::rk3576()),
        ("rk3566", PlatformProfile::rk3566()),
    ];
    let models = ModelSpec::catalogue();
    for case in 0..CASES {
        let mut rng = DetRng::new(shard_seed(SEED, case as u64));
        let (soc, cfg) = match models.get(case) {
            Some(model) => (0, InferenceConfig::paper_default(model.clone(), 128)),
            None => {
                let model = rng.choose(&models).clone();
                let mut cfg =
                    InferenceConfig::paper_default(model, rng.gen_range(1, 1025) as usize);
                cfg.cached_fraction = match rng.gen_range(0, 4) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.next_f64(),
                };
                cfg.memory_pressure = rng.gen_range(0, 16 * GIB);
                cfg.policy = *rng.choose(&POLICIES);
                (rng.gen_range(0, 3) as usize, cfg)
            }
        };
        let (soc, profile) = &socs[soc];
        let repro = format!(
            "repro: seed {SEED:#x} case {case} ({soc} {} prompt {} cached {} pressure {} {:?})",
            cfg.model.name, cfg.prompt_len, cfg.cached_fraction, cfg.memory_pressure, cfg.policy
        );
        let eval = |system, cfg: &InferenceConfig| evaluate(system, profile, cfg);
        let [memory, flash, tz, straw] = [
            SystemKind::ReeLlmMemory,
            SystemKind::ReeLlmFlash,
            SystemKind::TzLlm,
            SystemKind::Strawman,
        ]
        .map(|system| eval(system, &cfg));

        assert!(
            memory.ttft <= flash.ttft && flash.ttft <= tz.ttft && tz.ttft < straw.ttft,
            "{repro}: TTFT Memory {} <= Flash {} <= TZ-LLM {} < Strawman {}",
            memory.ttft,
            flash.ttft,
            tz.ttft,
            straw.ttft
        );
        assert_eq!(
            (memory.restored_bytes, memory.restoration_cpu),
            (0, SimDuration::ZERO),
            "{repro}: REE-LLM-Memory restores nothing"
        );
        let mut full = cfg.clone();
        full.cached_fraction = 1.0;
        assert_eq!(
            format!("{:?}", eval(SystemKind::ReeLlmFlash, &full)),
            format!("{memory:?}"),
            "{repro}: a fully cached REE-LLM-Flash is REE-LLM-Memory"
        );
        assert_eq!(
            straw.npu_busy,
            SimDuration::ZERO,
            "{repro}: the strawman uses no NPU"
        );
        assert!(
            straw.decode_tokens_per_sec < tz.decode_tokens_per_sec
                && tz.decode_tokens_per_sec < memory.decode_tokens_per_sec,
            "{repro}: decode tokens/s Strawman {} < TZ-LLM {} < Memory {}",
            straw.decode_tokens_per_sec,
            tz.decode_tokens_per_sec,
            memory.decode_tokens_per_sec
        );

        let mut warmer = cfg.clone();
        warmer.cached_fraction += (1.0 - cfg.cached_fraction) * rng.next_f64();
        for (system, before) in [(SystemKind::TzLlm, &tz), (SystemKind::ReeLlmFlash, &flash)] {
            let after = eval(system, &warmer).ttft;
            assert!(
                after <= before.ttft,
                "{repro}: {} TTFT rose from {} to {after} at cached fraction {}",
                system.label(),
                before.ttft,
                warmer.cached_fraction
            );
        }

        // Non-strict: without restoration to overlap, priority scheduling
        // has nothing to gain over the sequential policy.
        let [preemptive, priority, sequential] = POLICIES.map(|policy| {
            let mut cfg = cfg.clone();
            cfg.policy = policy;
            eval(SystemKind::TzLlm, &cfg).ttft
        });
        assert!(
            preemptive <= priority && priority <= sequential,
            "{repro}: TZ-LLM TTFT preemptive {preemptive} <= priority {priority} <= sequential {sequential}"
        );

        let mut pressed = cfg.clone();
        pressed.memory_pressure += rng.gen_range(0, 8 * GIB);
        for (system, before) in [(SystemKind::TzLlm, &tz), (SystemKind::Strawman, &straw)] {
            let after = eval(system, &pressed).ttft;
            assert!(
                after >= before.ttft,
                "{repro}: {} TTFT fell from {} to {after} at memory pressure {}",
                system.label(),
                before.ttft,
                pressed.memory_pressure
            );
        }

        let cores = rng.gen_range(1, 8) as usize;
        let ttft_at = |system, big_cores| {
            let profile = PlatformProfile {
                big_cores,
                ..profile.clone()
            };
            evaluate(system, &profile, &cfg).ttft
        };
        for system in [SystemKind::TzLlm, SystemKind::Strawman] {
            let (fewer, more) = (ttft_at(system, cores), ttft_at(system, cores + 1));
            assert!(
                more <= fewer,
                "{repro}: {} TTFT rose from {fewer} at {cores} big cores to {more} at {}",
                system.label(),
                cores + 1
            );
        }
    }
}
