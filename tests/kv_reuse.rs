//! Correctness and acceptance properties of the secure KV-cache manager:
//! enabling KV reuse never worsens any single request's service TTFT versus
//! the paper's release-everything baseline on the same conversation scripts,
//! follow-up turns improve by the acceptance factor, spilled state still
//! reuses (via unseal), restore-ahead streams sealed KV on idle lanes and
//! unseals exactly what the dispatch then claims, and the whole thing is
//! deterministic and invisible when disabled.

use std::collections::BTreeSet;

use llm::PromptContent;
use sim_core::{SimDuration, SimTime};
use tz_hal::PlatformProfile;
use tzllm::kv::{KvConfig, KvPool, KvQuery};
use tzllm::serving::{RetentionPolicy, Server, ServingConfig, ServingReport};
use workloads::WorkloadSpec;

const MODEL: &str = "qwen2.5-3b";

fn catalogue() -> Vec<llm::ModelSpec> {
    vec![llm::ModelSpec::by_name(MODEL).expect("catalogue model")]
}

fn chat(sessions: usize, requests: usize, think_secs: u64) -> WorkloadSpec {
    WorkloadSpec::chat(
        sessions,
        requests,
        SimDuration::from_secs(think_secs),
        MODEL,
    )
}

/// Per-session request sequences, in dispatch order.  Requests are matched
/// across runs by (session, position) because closed-loop arrival *times*
/// legitimately shift when responses get faster.
fn by_session_turn(report: &ServingReport) -> Vec<((u64, usize), &tzllm::RequestRecord)> {
    let mut out = Vec::new();
    let mut sessions: Vec<u64> = report.records.iter().map(|r| r.request.session).collect();
    sessions.sort_unstable();
    sessions.dedup();
    for s in sessions {
        let mut recs: Vec<&tzllm::RequestRecord> = report
            .records
            .iter()
            .filter(|r| r.request.session == s)
            .collect();
        recs.sort_by_key(|r| r.arrival);
        for (i, r) in recs.into_iter().enumerate() {
            out.push(((s, i), r));
        }
    }
    out
}

/// The pointwise regression (mirrors the restore-ahead test in
/// `tests/overlap.rs`): on the same deterministic conversation scripts, with
/// parameters pinned warm (so the only difference is KV handling), enabling
/// KV reuse never makes any single request's service TTFT worse.  Tolerance:
/// the pipeline scheduler's known ±5 ms priority anomaly when a plan's
/// shape changes.
#[test]
fn kv_reuse_never_worsens_any_ttft_on_the_same_trace() {
    let workload = chat(4, 40, 30);
    let mut base_cfg = ServingConfig::serial(PlatformProfile::rk3588());
    base_cfg.retention = RetentionPolicy::KeepAll;
    let base = Server::run_workload(base_cfg.clone(), catalogue(), &workload, 11);

    let mut kv_cfg = base_cfg;
    kv_cfg.kv = KvConfig::chat_default();
    let kv = Server::run_workload(kv_cfg, catalogue(), &workload, 11);

    assert_eq!(base.records.len(), kv.records.len());
    assert!(
        kv.fleet.kv_reused_tokens > 0,
        "the trace must actually exercise KV reuse"
    );
    let base_by_turn = by_session_turn(&base);
    let kv_by_turn = by_session_turn(&kv);
    let tolerance = SimDuration::from_millis(5);
    let mut improved = 0usize;
    let mut followups = 0usize;
    for ((bk, b), (kk, k)) in base_by_turn.iter().zip(&kv_by_turn) {
        assert_eq!(bk, kk, "same scripts, same per-session turns");
        assert_eq!(b.request.prompt_len, k.request.prompt_len);
        assert!(
            k.report.ttft <= b.report.ttft + tolerance,
            "session {} turn {} got slower with KV reuse: {} vs {}",
            bk.0,
            bk.1,
            k.report.ttft,
            b.report.ttft
        );
        if k.request.shared_prefix_len > 0 {
            followups += 1;
            if k.report.ttft < b.report.ttft {
                improved += 1;
            }
        }
    }
    assert!(followups > 20, "most turns are follow-ups: {followups}");
    assert!(
        improved * 10 >= followups * 9,
        "nearly every follow-up should improve ({improved}/{followups})"
    );
}

/// The acceptance criterion: on the chat-heavy workload at equal memory
/// pressure, follow-up-turn p95 TTFT improves at least 2x over the
/// release-everything baseline, with a high KV hit rate.
#[test]
fn followup_p95_ttft_improves_2x_on_chat_workload() {
    let workload = chat(6, 60, 30);
    let base = Server::run_workload(
        ServingConfig::paper_default(PlatformProfile::rk3588()),
        catalogue(),
        &workload,
        7,
    );
    let kv = Server::run_workload(
        ServingConfig::chat_default(PlatformProfile::rk3588()),
        catalogue(),
        &workload,
        7,
    );
    let base_p95 = base.fleet.followup_ttft_ms.expect("follow-ups ran").p95;
    let kv_p95 = kv.fleet.followup_ttft_ms.expect("follow-ups ran").p95;
    assert!(
        kv_p95 * 2.0 <= base_p95,
        "follow-up p95 TTFT must improve >= 2x: {kv_p95:.0} ms vs {base_p95:.0} ms"
    );
    assert!(
        kv.fleet.kv_hit_rate > 0.8,
        "hit rate {}",
        kv.fleet.kv_hit_rate
    );
    assert_eq!(base.fleet.kv_reused_tokens, 0, "baseline reuses nothing");
}

/// Under a squeezed secure budget every retained page spills; follow-ups
/// still reuse the whole prefix by unsealing it, and reuse still wins.
#[test]
fn spilled_prefixes_still_reuse_via_unseal() {
    let workload = chat(4, 40, 30);
    let base = Server::run_workload(
        ServingConfig::paper_default(PlatformProfile::rk3588()),
        catalogue(),
        &workload,
        3,
    );
    let mut cfg = ServingConfig::chat_default(PlatformProfile::rk3588());
    cfg.kv.budget_fraction = 0.0; // no secure residency between requests
    let kv = Server::run_workload(cfg, catalogue(), &workload, 3);

    assert!(kv.fleet.kv_spilled_bytes > 0, "pages must spill");
    assert!(
        kv.fleet.kv_unsealed_bytes + kv.fleet.kv_restore_ahead_bytes > 0,
        "spilled pages must come back via unseal"
    );
    assert!(
        kv.fleet.kv_hit_rate > 0.8,
        "sealed state still serves the prefix: {}",
        kv.fleet.kv_hit_rate
    );
    let base_p95 = base.fleet.followup_ttft_ms.unwrap().p95;
    let kv_p95 = kv.fleet.followup_ttft_ms.unwrap().p95;
    assert!(
        kv_p95 < base_p95,
        "even fully spilled reuse beats re-prefilling: {kv_p95:.0} vs {base_p95:.0} ms"
    );
}

/// Restore-ahead streams sealed KV pages on idle lanes while the device
/// decodes, so a queued follow-up dispatches with its prefix already
/// unsealed.
#[test]
fn restore_ahead_prewarms_sealed_kv() {
    let workload = chat(4, 32, 1); // tiny think time: the queue stays busy
    let mut cfg = ServingConfig::serial(PlatformProfile::rk3588());
    cfg.restore_ahead = true;
    cfg.kv = KvConfig::chat_default();
    cfg.kv.budget_fraction = 0.0; // everything spills, so prewarm has work
    let report = Server::run_workload(cfg, catalogue(), &workload, 19);
    assert!(
        report.fleet.kv_restore_ahead_bytes > 0,
        "idle lanes must unseal queued sessions' KV ahead of dispatch"
    );
    for lane in &report.resources {
        assert!(lane.peak_in_use <= lane.capacity, "{}", lane.name);
        assert_eq!(lane.in_use, 0, "{}: still held at shutdown", lane.name);
    }
}

/// A pool of 16-token pages at 1 KiB per token, with room for everything
/// in the spill region.
fn small_pool() -> KvPool {
    KvPool::new(&KvConfig {
        page_bytes: 16 * 1024,
        spill_budget: u64::MAX,
        ..KvConfig::chat_default()
    })
}

/// `session`'s dispatch of `prompt`, declaring `overlap` tokens of its own
/// previous context, capped so one prompt token always prefills.
fn query(session: u64, prompt: &PromptContent, overlap: usize) -> KvQuery {
    let max_reuse = prompt.len() - 1;
    KvQuery {
        session,
        model: 0,
        page_hashes: prompt.page_keys(16),
        bytes_per_token: 1024,
        shared_prefix: overlap.min(max_reuse),
        max_reuse,
    }
}

/// A session whose whole retained context is a sealed sub-page tail: the
/// follow-up's dispatch unseals the tail, so restore-ahead sizes it and an
/// unlimited prewarm unseals all of it ahead of dispatch.
#[test]
fn prewarm_unseals_a_sealed_sub_page_tail() {
    let mut pool = small_pool();
    let turn = PromptContent::from_seed(1, 10);
    pool.on_complete(1, 0, &turn.page_keys(16), 10, 1024, SimTime::ZERO);
    pool.enforce(0, &BTreeSet::new());
    // The follow-up's first whole page is not in the store: only the tail
    // is claimed.
    let q = query(1, &turn.extended(2, 16), 10);
    let sealed = pool.sealed_bytes_for(&q);
    assert_eq!(sealed, 10 * 1024, "the sealed 10-token tail");
    let t1 = SimTime::from_secs(1);
    assert_eq!(pool.clone().reuse_plan(&q, t1).unseal_bytes, sealed);
    assert_eq!(pool.prewarm(&q, u64::MAX, t1), sealed);
    assert_eq!(pool.sealed_bytes_for(&q), 0, "nothing sealed remains");
    let reuse = pool.reuse_plan(&q, SimTime::from_secs(2));
    assert_eq!((reuse.reused_tokens, reuse.unseal_bytes), (10, 0));
}

/// A sealed tail that another session's deeper pages subsume: the dispatch
/// claims those pages and drops the tail unread, so restore-ahead must
/// neither size nor unseal it.
#[test]
fn a_subsumed_sealed_tail_is_neither_sized_nor_prewarmed() {
    let mut pool = small_pool();
    let stream = |tokens| PromptContent::from_seed(3, tokens);
    // Session 1 retains one page and an 8-token tail; the tail seals.
    pool.on_complete(1, 0, &stream(24).page_keys(16), 24, 1024, SimTime::ZERO);
    pool.enforce(16 * 1024, &BTreeSet::new());
    assert_eq!(pool.sealed_bytes(), 8 * 1024);
    // Session 2 retains the same stream two whole pages deep.
    let t1 = SimTime::from_secs(1);
    pool.on_complete(2, 0, &stream(40).page_keys(16), 40, 1024, t1);
    let q = query(1, &stream(48), 24);
    let reuse = pool.clone().reuse_plan(&q, t1);
    assert_eq!((reuse.reused_tokens, reuse.unseal_bytes), (32, 0));
    assert_eq!(pool.sealed_bytes_for(&q), reuse.unseal_bytes);
    assert_eq!(pool.prewarm(&q, u64::MAX, t1), 0);
    assert_eq!(pool.sealed_bytes(), 8 * 1024, "the tail stays sealed");
}

/// KV serving is deterministic: same seed, same records, byte for byte.
#[test]
fn kv_serving_is_deterministic() {
    let workload = chat(3, 24, 10);
    let run = |seed| {
        Server::run_workload(
            ServingConfig::chat_default(PlatformProfile::rk3588()),
            catalogue(),
            &workload,
            seed,
        )
    };
    let a = run(5);
    let b = run(5);
    assert_eq!(format!("{:?}", a.records), format!("{:?}", b.records));
    let c = run(6);
    assert_ne!(format!("{:?}", a.records), format!("{:?}", c.records));
}

/// With the KV manager disabled, conversation workloads serve exactly like
/// before: shared prefixes are ignored and every KV counter stays zero.
#[test]
fn disabled_kv_manager_is_invisible() {
    let workload = chat(3, 18, 10);
    let report = Server::run_workload(
        ServingConfig::paper_default(PlatformProfile::rk3588()),
        catalogue(),
        &workload,
        9,
    );
    assert_eq!(report.fleet.kv_reused_tokens, 0);
    assert_eq!(report.fleet.kv_spilled_bytes, 0);
    assert_eq!(report.fleet.kv_unsealed_bytes, 0);
    assert_eq!(report.fleet.kv_restore_ahead_bytes, 0);
    assert_eq!(report.fleet.kv_hit_rate, 0.0);
    for r in &report.records {
        assert_eq!(r.kv_reused_tokens, 0);
    }
}
