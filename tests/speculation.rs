//! Acceptance properties of speculative draft-model decoding on the batched
//! step loop: the escape hatch — and a draft no catalogue model shares a
//! tokenizer with — reproduces the plain batched dispatcher bit for bit,
//! accepted-token traces are deterministic per seed, the token
//! accounting conserves, sequences never overrun their scripted output, the
//! decode-heavy fleet hits the paper-style ≥1.5× speedup at unchanged
//! cold-heavy p95 TTFT, the per-step draft depth drafts deep for a lone
//! session and shallow for a full batch, and the step loop's sharing-stall
//! attribution never charges a decode more than the step time it did not
//! spend producing tokens.

use sim_core::{SimDuration, SimTime};
use tz_hal::PlatformProfile;
use tzllm::serving::{Server, ServingConfig, ServingReport, SpeculationConfig};
use workloads::{ArrivalProcess, WorkloadSpec};

const MODEL: &str = "qwen2.5-3b";
const MODELS: [&str; 3] = ["tinyllama-1.1b", "qwen2.5-3b", "phi-3-3.8b"];

fn one_model() -> Vec<llm::ModelSpec> {
    vec![llm::ModelSpec::qwen2_5_3b()]
}

fn catalogue() -> Vec<llm::ModelSpec> {
    MODELS
        .iter()
        .map(|m| llm::ModelSpec::by_name(m).expect("catalogue model"))
        .collect()
}

fn spec_on(mut config: ServingConfig) -> ServingConfig {
    config.speculation = SpeculationConfig::paper_default();
    config
}

/// The decode-heavy fleet the speculation benchmarks sweep: few enough
/// concurrent sessions that decode stays weight-read-bound (the regime where
/// extra verified tokens per sweep are nearly free).
fn decode_heavy_fleet() -> WorkloadSpec {
    WorkloadSpec::agent_burst(3, 60, SimDuration::from_millis(250), MODEL)
}

fn fleet_run(config: ServingConfig, seed: u64) -> ServingReport {
    Server::run_workload(config, one_model(), &decode_heavy_fleet(), seed)
}

/// The escape hatch: the paper's speculation setup with its depth cap `k`
/// at zero is bit-for-bit the plain batched step loop — the acceptance RNG
/// is never drawn, no draft entry is wired (although the qwen2.5-0.5b draft
/// pairs with the target), and every record and counter is identical.
#[test]
fn speculation_off_is_bit_for_bit_the_batched_step_loop() {
    let baseline = fleet_run(
        ServingConfig::paper_default(PlatformProfile::rk3588()),
        0xA6E7,
    );
    let mut disabled_cfg = ServingConfig::paper_default(PlatformProfile::rk3588());
    disabled_cfg.speculation = SpeculationConfig::paper_default();
    disabled_cfg.speculation.k = 0;
    let disabled = fleet_run(disabled_cfg, 0xA6E7);
    assert_eq!(
        format!("{:?}", baseline.fleet),
        format!("{:?}", disabled.fleet)
    );
    assert_eq!(
        format!("{:?}", baseline.records),
        format!("{:?}", disabled.records)
    );
    assert_eq!(baseline.fleet.spec_steps, 0);
    assert_eq!(baseline.fleet.spec_proposed_tokens, 0);
    assert!(baseline.fleet.spec_emitted_per_step.is_empty());
}

/// A target can verify only proposals its own tokenizer reads, and the
/// server wires the draft-catalogue entry whose tokenizer a served model
/// shares.  Neither tinyllama-1.1b (32,000-token vocabulary) nor phi-3-3.8b
/// (32,064) shares any draft's — the qwen2.5-0.5b draft reads 151,936 — so
/// over that catalogue speculation on wires no draft entry and is
/// bit-for-bit speculation off: every record, counter and lane integral is
/// identical, and no step decides a depth.
#[test]
fn speculation_without_a_same_tokenizer_target_is_speculation_off() {
    let models = ["tinyllama-1.1b", "phi-3-3.8b"];
    let catalogue = || -> Vec<llm::ModelSpec> {
        models
            .iter()
            .map(|m| llm::ModelSpec::by_name(m).expect("catalogue model"))
            .collect()
    };
    assert!(llm::ModelSpec::drafts()
        .iter()
        .all(|draft| catalogue().iter().all(|m| m.vocab != draft.vocab)));
    let workload =
        WorkloadSpec::standard_multi(ArrivalProcess::Poisson { rate_per_sec: 0.25 }, 80, &models);
    let run = |config| Server::run_workload(config, catalogue(), &workload, 0xC01D);
    let off = run(ServingConfig::paper_default(PlatformProfile::rk3588()));
    let on = run(spec_on(ServingConfig::paper_default(
        PlatformProfile::rk3588(),
    )));
    assert!(
        off.fleet.mean_batch_occupancy > 1.5,
        "the trace must batch several decodes per step"
    );
    assert_eq!(format!("{:?}", off.fleet), format!("{:?}", on.fleet));
    assert_eq!(format!("{:?}", off.records), format!("{:?}", on.records));
    assert_eq!(
        format!("{:?}", off.resources),
        format!("{:?}", on.resources)
    );
    assert_eq!(on.fleet.spec_steps, 0);
    assert!(on.fleet.spec_depth_per_step.is_empty());
}

/// Identical seeds produce identical accepted-token traces — speculation is
/// a deterministic discrete-event computation, with the acceptance draws on
/// their own per-request `DetRng` streams.
#[test]
fn identical_seeds_produce_identical_accepted_token_traces() {
    let config = spec_on(ServingConfig::paper_default(PlatformProfile::rk3588()));
    let a = fleet_run(config.clone(), 0xA6E7);
    let b = fleet_run(config.clone(), 0xA6E7);
    assert_eq!(format!("{:?}", a.fleet), format!("{:?}", b.fleet));
    assert_eq!(format!("{:?}", a.records), format!("{:?}", b.records));
    assert_eq!(a.fleet.spec_accepted_tokens, b.fleet.spec_accepted_tokens);
    assert_eq!(a.fleet.spec_emitted_per_step, b.fleet.spec_emitted_per_step);
    assert!(a.fleet.spec_accepted_tokens > 0, "the run must speculate");
    // A different seed produces a genuinely different accepted-token trace.
    let c = fleet_run(config, 0xA6E8);
    assert_ne!(format!("{:?}", a.records), format!("{:?}", c.records));
}

/// Token accounting conserves: every proposed token is either accepted or
/// rejected, per-step emissions stay within `1..=k+1`, every chosen draft
/// depth stays within `0..=k` and the steps that drafted are exactly the
/// steps that chose a depth of at least 1, and the overhead and acceptance
/// telemetry lands in sane ranges.
#[test]
fn speculation_accounting_conserves() {
    let k = SpeculationConfig::paper_default().k as u32;
    let report = fleet_run(
        spec_on(ServingConfig::paper_default(PlatformProfile::rk3588())),
        0xA6E7,
    );
    let fleet = &report.fleet;
    assert!(fleet.spec_steps > 0);
    assert_eq!(
        fleet.spec_proposed_tokens,
        fleet.spec_accepted_tokens + fleet.spec_rejected_tokens,
        "every proposed token is accepted or rejected"
    );
    for &(emitted, steps) in &fleet.spec_emitted_per_step {
        assert!(steps > 0);
        assert!(
            (1..=k + 1).contains(&emitted),
            "a sequence emits between 1 and k+1 tokens per step, got {emitted}"
        );
    }
    let mut drafted_steps = 0;
    for &(depth, steps) in &fleet.spec_depth_per_step {
        assert!(steps > 0);
        assert!(depth <= k, "chosen depth {depth} exceeds k = {k}");
        if depth >= 1 {
            drafted_steps += steps;
        }
    }
    assert_eq!(
        fleet.spec_steps, drafted_steps,
        "the speculative steps are exactly the steps that chose depth >= 1"
    );
    assert!(fleet.spec_mean_emitted_per_step > 1.0);
    assert!(fleet.spec_mean_emitted_per_step <= (k + 1) as f64);
    assert!(fleet.spec_accept_rate > 0.0 && fleet.spec_accept_rate < 1.0);
    assert!(fleet.spec_draft_overhead > 0.0 && fleet.spec_draft_overhead < 1.0);
    // Emitted tokens = accepted + one target token per speculative draw, so
    // the histogram mass strictly exceeds the accepted-token count.
    let hist_tokens: u64 = fleet
        .spec_emitted_per_step
        .iter()
        .map(|&(e, n)| e as u64 * n)
        .sum();
    assert!(hist_tokens > fleet.spec_accepted_tokens);
}

/// Proposals are capped at `tokens_left - 1` (the final token always comes
/// from the target), so even a lucky full-accept streak cannot overrun a
/// scripted output — including outputs shorter than `k`.
#[test]
fn short_outputs_never_overrun_under_speculation() {
    let config = spec_on(ServingConfig::paper_default(PlatformProfile::rk3588()));
    let mut server = Server::new(config, one_model());
    for i in 0..12u64 {
        // Output lengths 1..=4 straddle every `min(k, left-1)` edge.
        let output_len = 1 + (i as usize % 4);
        server.submit_at(SimTime::from_millis(i * 40), i, MODEL, 64, output_len);
    }
    let report = server.run();
    assert_eq!(report.fleet.completed, 12);
    assert_eq!(
        report.fleet.batch_max_steps_behind, 0,
        "no sequence may fall behind its scripted token budget"
    );
}

/// The headline acceptance comparison (gated in CI from the perf-smoke
/// numbers; this is the fast in-tree version): speculation buys at least
/// 1.5× throughput on the decode-heavy agent fleet, and leaves cold-heavy
/// p95 TTFT within 1.05× of the plain batched dispatcher.
#[test]
fn speculation_speeds_up_decode_heavy_fleets_at_unchanged_cold_p95() {
    let off = fleet_run(
        ServingConfig::paper_default(PlatformProfile::rk3588()),
        0xA6E7,
    );
    let on = fleet_run(
        spec_on(ServingConfig::paper_default(PlatformProfile::rk3588())),
        0xA6E7,
    );
    assert!(
        on.fleet.throughput_rps >= 1.5 * off.fleet.throughput_rps,
        "speculation must buy >=1.5x on the decode-heavy fleet: {} vs {}",
        on.fleet.throughput_rps,
        off.fleet.throughput_rps
    );
    assert!(
        on.fleet.batched_decode_tps >= 1.5 * off.fleet.batched_decode_tps,
        "effective tokens/s must scale with the accepted prefixes: {} vs {}",
        on.fleet.batched_decode_tps,
        off.fleet.batched_decode_tps
    );

    let quiet =
        WorkloadSpec::standard_multi(ArrivalProcess::Poisson { rate_per_sec: 0.06 }, 120, &MODELS);
    let off = Server::run_workload(
        ServingConfig::paper_default(PlatformProfile::rk3588()),
        catalogue(),
        &quiet,
        7,
    );
    let on = Server::run_workload(
        spec_on(ServingConfig::paper_default(PlatformProfile::rk3588())),
        catalogue(),
        &quiet,
        7,
    );
    let (p95_off, p95_on) = (
        off.fleet.ttft_ms.unwrap().p95,
        on.fleet.ttft_ms.unwrap().p95,
    );
    assert!(
        p95_on <= p95_off * 1.05,
        "cold-heavy p95 TTFT must stay within 1.05x: {p95_on} vs {p95_off}"
    );
}

/// Throughput of `agent_burst` (1 s think, 1,500 requests, seed 7) on one
/// RK3588 with speculation on at maximum draft depth `k`.
fn agent_burst_run(sessions: usize, k: usize) -> ServingReport {
    let workload = WorkloadSpec::agent_burst(sessions, 1_500, SimDuration::from_secs(1), MODEL);
    let mut config = spec_on(ServingConfig::paper_default(PlatformProfile::rk3588()));
    config.speculation.k = k;
    Server::run_workload(config, one_model(), &workload, 7)
}

/// Once the batch fills, the step is compute-bound and a fixed deep draft
/// costs more NPU time than its accepted tokens return.  Choosing the depth
/// per step must then beat (6 sessions) or match (12 sessions) capping the
/// depth at 1.  Drafting four tokens on every step serves 1.7% and 10.2%
/// less than a fixed depth of 1 on these runs, so both floors need the
/// choice.
#[test]
fn chosen_depth_keeps_up_with_a_shallow_cap_once_the_batch_fills() {
    for (sessions, floor) in [(6, 1.02), (12, 0.99)] {
        let deep = agent_burst_run(sessions, 4).fleet.throughput_rps;
        let shallow = agent_burst_run(sessions, 1).fleet.throughput_rps;
        assert!(
            deep >= floor * shallow,
            "{sessions} sessions: k = 4 serves {deep:.4} rps, k = 1 {shallow:.4} rps; \
             want at least {floor}x"
        );
    }
}

/// A lone session keeps decode weight-read-bound, where extra verified
/// positions ride in bandwidth the step already pays for: the chooser drafts
/// at the full depth on at least 90% of the steps it decides.
#[test]
fn a_lone_session_drafts_at_full_depth() {
    let k = SpeculationConfig::paper_default().k as u32;
    let fleet = agent_burst_run(1, k as usize).fleet;
    let decided: u64 = fleet.spec_depth_per_step.iter().map(|&(_, n)| n).sum();
    let full: u64 = fleet
        .spec_depth_per_step
        .iter()
        .filter(|&&(depth, _)| depth == k)
        .map(|&(_, n)| n)
        .sum();
    assert!(decided > 0, "the run must decide draft depths");
    assert!(
        full as f64 >= 0.9 * decided as f64,
        "depth {k} on {full} of {decided} decided steps: {:?}",
        fleet.spec_depth_per_step
    );
}

/// Regression guard for the step loop's sharing-stall attribution: each
/// step charges a sequence only the step time beyond its solo time for the
/// tokens it emitted, so the stall never double-counts time the sequence
/// spent producing tokens, and for every request
/// `intrinsic decode + sharing stall <= decode wall time` (up to
/// sub-microsecond rounding between the step coefficients and the
/// graph-summed token time).  An attribution that charged a sequence its
/// whole step time as stall would break this bound on every request.
#[test]
fn sharing_stall_is_clipped_to_the_share_a_finishing_decode_used() {
    let workload =
        WorkloadSpec::standard_multi(ArrivalProcess::Poisson { rate_per_sec: 0.12 }, 80, &MODELS);
    let report = Server::run_workload(
        ServingConfig::paper_default(PlatformProfile::rk3588()),
        catalogue(),
        &workload,
        0xC01D,
    );
    let mut sharing_seen = false;
    for r in &report.records {
        let tokens = r.request.output_len.saturating_sub(1);
        if tokens == 0 {
            continue;
        }
        let wall = r.completed.saturating_since(r.first_token).as_secs_f64();
        let intrinsic = tokens as f64 / r.report.decode_tokens_per_sec;
        let stall = r.stall_sharing.as_secs_f64();
        assert!(
            intrinsic + stall <= wall + 10e-6,
            "request {}: intrinsic {intrinsic}s + sharing stall {stall}s must fit \
             in its decode wall time {wall}s",
            r.request.id
        );
        sharing_seen |= r.stall_sharing > SimDuration::ZERO;
    }
    assert!(
        sharing_seen,
        "the trace must actually exercise decode sharing"
    );
}
