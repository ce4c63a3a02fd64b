//! Property-based tests over the core data structures and invariants: the
//! pipeline scheduler, CTR random-access decryption, the TZASC contiguity
//! rules, the cache controller, and the KV pool's claim rule and byte
//! ledger.
//!
//! The properties are exercised over many randomly drawn cases, but the
//! randomness comes from [`sim_core::DetRng`] with fixed seeds, so every run
//! checks exactly the same cases (no external proptest dependency, no
//! shrinking — a failing case prints its inputs instead).

use std::collections::BTreeSet;

use llm::{ComputationGraph, CostModel, ModelSpec, PromptContent};
use sim_core::{shard_seed, DetRng, SimDuration, SimTime};
use tz_crypto::AesCtr;
use tz_hal::{PhysAddr, PhysRange, PlatformProfile, Tzasc, World, PAGE_SIZE};
use tzllm::{
    simulate, CacheController, CachePolicy, KvConfig, KvPool, KvQuery, PipelineConfig, Policy,
    RestorePlan, RestoreRates, SpillFormat,
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
/// and above by the sum of all operator durations.
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

        // With four CPU cores the CPU-path total is not by itself a lower
        // bound (allocation, decryption and CPU compute can overlap on
        // different cores), so bound by the I/O path, the computation path and
        // the per-core CPU share.
        let paths = plan.critical_paths();
        let lower = paths.io.max(paths.compute).max(paths.cpu / 4);
        let upper: SimDuration = plan.ops.iter().map(|o| o.duration).sum();
        assert!(
            result.makespan >= lower,
            "case {case} ({layers}l/{hidden}h/{prompt}p/{cached_frac:.3}c/{occupancy:.3}o/{policy:?}): \
             makespan {} < lower bound {}",
            result.makespan,
            lower
        );
        assert!(
            result.makespan <= upper + SimDuration::from_micros(1),
            "case {case} ({layers}l/{hidden}h/{prompt}p/{cached_frac:.3}c/{occupancy:.3}o/{policy:?}): \
             makespan {} > serial upper bound {}",
            result.makespan,
            upper
        );
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

/// The batched step price is a well-behaved function of the batch: it is
/// monotone in every sequence's KV length (more context can only add
/// attention work) and invariant under permutations of the batch (a step
/// prices a *set* of sequences — the summation order is not observable).
#[test]
fn batched_step_time_is_monotone_and_permutation_invariant() {
    let cost = CostModel::rk3588();
    let mut rng = DetRng::new(0x73746570); // "step"
    for case in 0..CASES {
        let model = small_model(
            rng.gen_range(2, 8) as usize,
            ((rng.gen_range(32, 128) as usize) / 16) * 16,
        );
        let use_npu = rng.gen_bool(0.5);
        let n = rng.gen_range(1, 9) as usize;
        let mut kv_lens: Vec<usize> = (0..n).map(|_| rng.gen_range(1, 4096) as usize).collect();
        let base = cost.batched_step_time(&model, &kv_lens, None, use_npu);

        // Permutation invariance: shuffling the batch never changes the price.
        let mut shuffled = kv_lens.clone();
        rng.shuffle(&mut shuffled);
        assert_eq!(
            base,
            cost.batched_step_time(&model, &shuffled, None, use_npu),
            "case {case}: {kv_lens:?} vs {shuffled:?}"
        );

        // Monotonicity: growing any single sequence's KV length never makes
        // the step cheaper.
        let victim = rng.gen_range(0, n as u64) as usize;
        let grown_kv = kv_lens[victim] + rng.gen_range(1, 512) as usize;
        kv_lens[victim] = grown_kv;
        let grown = cost.batched_step_time(&model, &kv_lens, None, use_npu);
        assert!(
            grown >= base,
            "case {case}: growing sequence {victim} to kv {grown_kv} made the \
             step cheaper: {grown} < {base}"
        );
    }
}

/// The speculative passes price sets of sequences the same way: the verify
/// sweep is monotone in every sequence's KV length and scored positions, the
/// draft pass in every sequence's KV length, and neither depends on the
/// order of the batch (up to float summation order).
#[test]
fn verify_and_draft_passes_are_monotone_and_permutation_invariant() {
    let cost = CostModel::rk3588();
    let mut rng = DetRng::new(0x76657269); // "veri"
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.max(b);
    for case in 0..CASES {
        let draft = small_model(
            rng.gen_range(2, 4) as usize,
            ((rng.gen_range(32, 64) as usize) / 16) * 16,
        );
        let target = small_model(
            rng.gen_range(4, 8) as usize,
            ((rng.gen_range(64, 128) as usize) / 16) * 16,
        );
        let spec = cost.speculative_step_costs(&draft, &target, rng.gen_bool(0.5));
        let n = rng.gen_range(1, 9) as usize;
        let mut seqs: Vec<(usize, usize)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(1, 4096) as usize,
                    rng.gen_range(1, 6) as usize,
                )
            })
            .collect();
        let mut kv_lens: Vec<usize> = seqs.iter().map(|&(kv, _)| kv).collect();
        let verify = spec.verify_pass_secs(&seqs);
        let draft_pass = spec.draft_pass_secs(&kv_lens);

        let mut shuffled = seqs.clone();
        rng.shuffle(&mut shuffled);
        assert!(
            close(verify, spec.verify_pass_secs(&shuffled)),
            "case {case}: verify {seqs:?} vs {shuffled:?}"
        );
        let mut shuffled = kv_lens.clone();
        rng.shuffle(&mut shuffled);
        assert!(
            close(draft_pass, spec.draft_pass_secs(&shuffled)),
            "case {case}: draft {kv_lens:?} vs {shuffled:?}"
        );

        // Growing one sequence's KV length, or its scored positions, never
        // makes a pass cheaper.
        let victim = rng.gen_range(0, n as u64) as usize;
        seqs[victim].0 += rng.gen_range(1, 512) as usize;
        kv_lens[victim] = seqs[victim].0;
        let grown_kv = spec.verify_pass_secs(&seqs);
        assert!(
            grown_kv >= verify,
            "case {case}: growing sequence {victim}'s KV made the verify cheaper"
        );
        assert!(
            spec.draft_pass_secs(&kv_lens) >= draft_pass,
            "case {case}: growing sequence {victim}'s KV made the draft pass cheaper"
        );
        seqs[victim].1 += 1;
        assert!(
            spec.verify_pass_secs(&seqs) >= grown_kv,
            "case {case}: scoring one more position made the verify cheaper"
        );
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
/// the pool's residency counters equal their recount from its pages and
/// tails.  Case `c` draws only from `DetRng::new(shard_seed(SEED, c))`, so
/// a failure's one-line repro (seed, case, step) replays on its own.
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
                    let prompt = in_flight[i].take().unwrap_or_else(|| contexts[i].clone());
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
                "{repro}: residency counters against their recount"
            );
        }
    }
}
