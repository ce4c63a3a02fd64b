//! Acceptance properties of the quantized sealed-spill subsystem: at an
//! equal normal-world CMA spill budget, INT8 sealing holds ≥ 1.9× the f16
//! page count (INT4 ≥ 3.7×), follow-up latency does not regress even though
//! restores now pay a dequant pass, the dequant cost is really charged (and
//! really hidden behind the NPU window), the F16 default is bit-for-bit the
//! unquantized behaviour, and the new introspection (chain-store stats,
//! hit-depth distribution) surfaces through `ServingStats`.

use sim_core::SimDuration;
use tz_hal::PlatformProfile;
use tzllm::serving::{Server, ServingConfig, ServingReport};
use tzllm::{KvConfig, SpillFormat};
use workloads::WorkloadSpec;

const MODEL: &str = "qwen2.5-3b";
// Small enough that the squeezed chat fleet saturates it under every format
// (peak sealed demand is ~146 MiB plain, ~39 MiB at INT4), so the capacity
// comparison measures the budget, not the workload.
const SPILL_BUDGET: u64 = 32 * sim_core::MIB;

fn catalogue() -> Vec<llm::ModelSpec> {
    vec![llm::ModelSpec::by_name(MODEL).expect("catalogue model")]
}

/// The squeezed-chat-budget config: retained KV far exceeds the secure
/// allowance, so pages continuously seal out to a spill region small enough
/// that the spill budget binds too — the regime where the spill format
/// decides how many tokens survive.
fn squeezed(format: SpillFormat) -> ServingConfig {
    let mut config = ServingConfig::chat_default(PlatformProfile::rk3588());
    // These properties are about the spill format, not the scheduler: two
    // requests in flight keep turns queued, so restore-ahead has a queued
    // session to prewarm.  KV coverage at the default twelve in flight
    // lives in tests/kv_reuse.rs.
    config.max_inflight = 2;
    config.kv.budget_fraction = 0.02;
    config.kv.spill_budget = SPILL_BUDGET;
    config.kv.spill_format = format;
    config
}

fn chat_run(config: ServingConfig) -> ServingReport {
    let workload = WorkloadSpec::chat_with_context(4, 40, SimDuration::from_secs(30), MODEL, 4096);
    Server::run_workload(config, catalogue(), &workload, 0xCAA7)
}

fn followup_p95(report: &ServingReport) -> f64 {
    report
        .fleet
        .followup_ttft_ms
        .expect("chat runs follow-ups")
        .p95
}

#[test]
fn equal_spill_budget_holds_2x_pages_at_int8_and_4x_at_int4() {
    let f16 = chat_run(squeezed(SpillFormat::F16));
    let int8 = chat_run(squeezed(SpillFormat::Int8));
    let int4 = chat_run(squeezed(SpillFormat::Int4));

    // The budget must actually bind, or the capacity claim is vacuous.
    assert!(
        f16.fleet.kv_peak_sealed_bytes > SPILL_BUDGET * 8 / 10,
        "spill budget not saturated under f16: {} of {SPILL_BUDGET}",
        f16.fleet.kv_peak_sealed_bytes
    );
    for report in [&f16, &int8, &int4] {
        assert!(
            report.fleet.kv_peak_sealed_bytes <= SPILL_BUDGET,
            "spill budget overrun"
        );
    }

    // Headline: the same CMA bytes hold 1.9x / 3.7x the sealed pages.
    let (p_f16, p_int8, p_int4) = (
        f16.fleet.kv_peak_sealed_pages as f64,
        int8.fleet.kv_peak_sealed_pages as f64,
        int4.fleet.kv_peak_sealed_pages as f64,
    );
    assert!(
        p_int8 >= 1.9 * p_f16,
        "INT8 must hold >= 1.9x the f16 page count ({p_int8} vs {p_f16})"
    );
    assert!(
        p_int4 >= 3.7 * p_f16,
        "INT4 must hold >= 3.7x the f16 page count ({p_int4} vs {p_f16})"
    );

    // Compression is visible in the byte accounting: compressed writes are
    // about half (INT8) the plain bytes sealed.
    let ratio = int8.fleet.kv_spilled_bytes as f64 / int8.fleet.kv_spilled_compressed_bytes as f64;
    assert!(
        (1.9..2.0).contains(&ratio),
        "INT8 compressed spill ratio out of range: {ratio}"
    );
    assert_eq!(
        f16.fleet.kv_spilled_bytes, f16.fleet.kv_spilled_compressed_bytes,
        "f16 writes plain bytes"
    );

    // The dequant pass is really charged under a quantized format and never
    // under f16.
    assert!(int8.fleet.kv_dequant_bytes > 0);
    assert!(int4.fleet.kv_dequant_bytes > 0);
    assert_eq!(f16.fleet.kv_dequant_bytes, 0);
}

#[test]
fn int8_followup_p95_does_not_regress_versus_f16() {
    // Same scripts, same budgets; INT8 keeps ~2x the spilled tokens alive
    // (fewer re-prefills) while each restore adds a dequant pass that the
    // NPU window mostly hides — so follow-up p95 must be no worse, and the
    // retained-token win usually makes it strictly better.
    let f16 = chat_run(squeezed(SpillFormat::F16));
    let int8 = chat_run(squeezed(SpillFormat::Int8));
    let (p95_f16, p95_int8) = (followup_p95(&f16), followup_p95(&int8));
    assert!(
        p95_int8 <= p95_f16 * 1.01,
        "INT8 follow-up p95 regressed: {p95_int8:.1} ms vs f16 {p95_f16:.1} ms"
    );
    // More of the reusable prefix survives the squeezed budgets under INT8.
    assert!(
        int8.fleet.kv_dropped_bytes < f16.fleet.kv_dropped_bytes,
        "INT8 must drop fewer retained bytes ({} vs {})",
        int8.fleet.kv_dropped_bytes,
        f16.fleet.kv_dropped_bytes
    );
}

#[test]
fn quantized_restore_ahead_still_streams_on_idle_lanes() {
    let int8 = chat_run(squeezed(SpillFormat::Int8));
    assert!(
        int8.fleet.kv_restore_ahead_bytes > 0,
        "restore-ahead must prewarm sealed quantized pages"
    );
    assert!(int8.fleet.kv_hit_rate > 0.8, "reuse must stay effective");
}

#[test]
fn f16_default_is_bit_for_bit_the_unquantized_config() {
    // `chat_default` and an explicit F16 config must be indistinguishable —
    // every counter, every percentile.
    let default = chat_run({
        let mut c = ServingConfig::chat_default(PlatformProfile::rk3588());
        c.max_inflight = 2;
        c.kv.budget_fraction = 0.02;
        c.kv.spill_budget = SPILL_BUDGET;
        c
    });
    let explicit = chat_run(squeezed(SpillFormat::F16));
    assert_eq!(
        format!("{:?}", default.fleet),
        format!("{:?}", explicit.fleet)
    );
}

#[test]
fn dequant_calibrations_agree_across_profile_and_cost_model() {
    // The serving layer charges dequant at the platform profile's rate; the
    // cost model carries the same calibration for analysis/reporting.  They
    // must not drift apart.
    assert_eq!(
        llm::CostModel::rk3588().params().dequant_bytes_per_sec,
        PlatformProfile::rk3588().dequant_bytes_per_sec
    );
}

#[test]
fn quantized_runs_are_deterministic() {
    let a = chat_run(squeezed(SpillFormat::Int4));
    let b = chat_run(squeezed(SpillFormat::Int4));
    assert_eq!(format!("{:?}", a.fleet), format!("{:?}", b.fleet));
}

#[test]
fn chain_stats_and_hit_depth_surface_through_fleet_stats() {
    // An assistant fleet sharing one system prompt, with the quantized chat
    // config (popularity retention on): the chain store must report a page
    // with refs >= 2 (the shared head), the hit-depth distribution must be
    // populated, and sharing must actually win.
    let mut config = ServingConfig::chat_default(PlatformProfile::rk3588());
    config.kv = KvConfig::chat_quantized(SpillFormat::Int8);
    let workload = WorkloadSpec::assistant(6, 12, SimDuration::from_secs(600), 512, MODEL);
    let report = Server::run_workload(config, catalogue(), &workload, 0x5A5A);

    assert!(
        !report.fleet.kv_chain.is_empty(),
        "chain stats must surface"
    );
    let chain = &report.fleet.kv_chain[0];
    assert!(chain.pages > 0);
    assert_eq!(
        chain.pages,
        chain.resident_pages + chain.sealed_pages,
        "residency split must partition the store"
    );
    assert!(
        chain
            .refs_histogram
            .iter()
            .any(|&(refs, n)| refs >= 2 && n > 0),
        "the shared system prompt must show up as refs >= 2: {:?}",
        chain.refs_histogram
    );
    assert!(chain.max_depth > 0);

    let depths = &report.fleet.kv_hit_depth;
    assert!(!depths.is_empty(), "hit-depth distribution must surface");
    assert!(
        depths.iter().any(|&(depth, n)| depth > 0 && n > 0),
        "some dispatch must have hit a non-trivial chain depth: {depths:?}"
    );
    assert!(report.fleet.kv_shared_hit_rate > 0.5);
}

#[test]
fn popularity_retention_protects_the_shared_head_under_pressure() {
    // Same assistant fleet under a squeezed secure budget, popularity on vs
    // off; with popularity retention the refs-N system-prompt pages stay
    // resident, so cold turns unseal less.
    let run = |popularity: bool| {
        let mut config = ServingConfig::chat_default(PlatformProfile::rk3588());
        config.kv.spill_format = SpillFormat::Int8;
        config.kv.popularity_retention = popularity;
        config.kv.budget_fraction = 0.01;
        let workload = WorkloadSpec::assistant(8, 24, SimDuration::from_secs(120), 512, MODEL);
        Server::run_workload(config, catalogue(), &workload, 0x9A9A)
    };
    let lru = run(false);
    let pop = run(true);
    // Both runs share and spill; the popularity run serves at least as many
    // shared tokens and never a worse shared-hit rate.
    assert!(lru.fleet.kv_spilled_bytes > 0 && pop.fleet.kv_spilled_bytes > 0);
    assert!(
        pop.fleet.kv_shared_hit_rate >= lru.fleet.kv_shared_hit_rate,
        "popularity retention must not lose shared hits ({} vs {})",
        pop.fleet.kv_shared_hit_rate,
        lru.fleet.kv_shared_hit_rate
    );
}
