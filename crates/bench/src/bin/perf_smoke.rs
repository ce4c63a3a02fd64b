//! Wall-clock perf smoke: tracks the serving layer's simulation performance
//! and the batched dispatcher's latency wins from PR to PR.
//!
//! The measurements are organised as named *scenarios*, each printing its
//! headline numbers, enforcing its semantic asserts, and contributing a
//! section to `BENCH_serving.json` (current directory):
//!
//! * **`sweep`** — `pipeline::simulate` micro-latency plus the 10k-request
//!   serving sweep wall-clock, plan cache off vs on.
//! * **`dispatch`** — the cold-heavy latency/throughput comparison (the
//!   serial device vs the batched step loop) and the agent-burst fleet
//!   whose step counters prove chunked prefill never starves a decode.
//! * **`chat`** — follow-up-turn p95 TTFT and KV hit rate on growing
//!   multi-turn conversations, secure KV-cache manager on vs the paper's
//!   release-everything baseline, under a deliberately tight KV budget.
//! * **`shared_prefix`** — an assistant fleet whose sessions all open with
//!   one 512-token system prompt: cold first-turn p95 TTFT with and without
//!   content-addressed cross-session sharing.
//! * **`spill_quant`** — the squeezed chat fleet against a small
//!   normal-world spill budget, f16 vs INT8 sealing.
//! * **`speculation`** — speculative draft-model decoding on the batched
//!   step loop: throughput on a decode-heavy agent fleet with the
//!   Qwen2.5-0.5B draft on vs off, acceptance/overhead telemetry, and the
//!   cold-heavy p95 TTFT guard.
//! * **`figures`** — the fig09 (TZ-LLM vs strawman TTFT), fig11 (TZ-LLM
//!   decode speed) and fig14 (fully-cached normalised TTFT) headline
//!   points, recomputed so the CI gate catches calibration regressions in
//!   the figure binaries.
//! * **`trace`** — a telemetry-enabled cold-heavy fleet: reconciles every
//!   request's lifecycle-span sum against its recorded TTFT, checks the
//!   critical-path attribution covers >=90% of cold TTFT, and writes the
//!   Chrome trace-event JSON (load it in Perfetto) to `--trace-out <path>`
//!   or `target/experiments/serving_trace.json`.
//! * **`fleet_scale`** — the sharded parallel fleet runner on a
//!   heterogeneous device mix: sweeps `--threads 1/2/8` over the same
//!   seeded workload, asserts the merged stats are byte-identical across
//!   thread counts (digest-diffed again by CI's determinism matrix via
//!   `--threads <n> --digest-out <path>`), and records the wall-clock
//!   scaling floors (>=1M simulated requests/minute and >=4x speedup on 8
//!   threads, asserted on full runs when the host has >=8 cores).  Runs
//!   with windowed metrics on, so the digest also covers the fleet-merged
//!   metric series, and asserts the merged latency sketch's percentiles
//!   land within 1% of the exact sample-union percentiles.
//! * **`slo_monitor`** — a four-shard fleet under a Poisson traffic spike,
//!   windowed metrics on: evaluates the per-class SLO targets, asserts the
//!   burn-rate monitor localises the overload episode to the spike windows
//!   and names a bounding lane, validates the OpenMetrics exposition with
//!   the strict in-repo parser, and writes the exposition + CSV
//!   time-series to `--metrics-out <path>` (default
//!   `target/experiments/slo_metrics.om.txt` / `.csv`).
//!
//! Run with: `cargo run --release -p bench --bin perf_smoke` (`--quick`
//! shrinks the sweep for CI, `--scenario <name>` runs one scenario,
//! `--list` shows the registry).  The JSON artifact is only written on a
//! full run — a single scenario has nothing to say about the others'
//! sections, and a partial artifact would trip the perf gate's missing-key
//! checks.

use std::fmt::Write as _;
use std::time::Instant;

use bench::HarnessOptions;
use llm::{ComputationGraph, CostModel, ModelSpec};
use sim_core::{LogHistogram, SimDuration, WindowedMetrics};
use tz_hal::PlatformProfile;
use tzllm::fleet::{run_fleet, FleetConfig, FleetStats};
use tzllm::serving::{Server, ServingConfig, ServingReport, SpeculationConfig};
use tzllm::slo::{self, SloConfig, SloTarget, TargetReport};
use tzllm::{
    evaluate, simulate, InferenceConfig, PipelineConfig, Policy, RestorePlan, RestoreRates,
    SpillFormat, SystemKind,
};
use workloads::{ArrivalProcess, DeviceMix, WorkloadSpec};

const MODELS: [&str; 3] = ["tinyllama-1.1b", "qwen2.5-3b", "phi-3-3.8b"];

fn catalogue() -> Vec<ModelSpec> {
    MODELS
        .iter()
        .map(|m| ModelSpec::by_name(m).expect("catalogue model"))
        .collect()
}

fn pipeline_simulate_us(iters: u32) -> f64 {
    let model = ModelSpec::qwen2_5_3b();
    let graph = ComputationGraph::prefill(&model, 128);
    let cost = CostModel::rk3588();
    let profile = PlatformProfile::rk3588();
    let rates = RestoreRates::from_profile(&profile, 0.8, 4);
    let times: Vec<SimDuration> = graph.ops.iter().map(|o| cost.op_time(o)).collect();
    let plan = RestorePlan::build(&graph, |i| times[i], &rates, 0);
    let config = PipelineConfig {
        cpu_cores: 4,
        preempt_quantum: SimDuration::from_millis(2),
        policy: Policy::PriorityPreemptive,
        record_trace: false,
    };
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(simulate(std::hint::black_box(&plan), &config));
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

fn sweep(requests: usize, plan_cache_capacity: usize) -> (f64, ServingReport) {
    let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
    config.plan_cache_capacity = plan_cache_capacity;
    let workload = WorkloadSpec::standard_multi(
        ArrivalProcess::Poisson { rate_per_sec: 0.1 },
        requests,
        &MODELS,
    );
    let start = Instant::now();
    let report = Server::run_workload(config, catalogue(), &workload, 0xBEEF);
    (start.elapsed().as_secs_f64() * 1e3, report)
}

fn cold_heavy(config: ServingConfig, rate: f64, requests: usize) -> ServingReport {
    let workload = WorkloadSpec::standard_multi(
        ArrivalProcess::Poisson { rate_per_sec: rate },
        requests,
        &MODELS,
    );
    Server::run_workload(config, catalogue(), &workload, 0xC01D)
}

/// p99 of the per-request mean token gap, milliseconds: each completed
/// request's decode time over its token gaps in whole nanoseconds (the
/// serving `tbt` series' sample), at the nearest-rank rule the sketch
/// quantiles use (`rank = ceil(q·(n−1))`).
fn tbt_p99_ms(report: &ServingReport) -> f64 {
    let mut gaps_ms: Vec<f64> = report
        .records
        .iter()
        .filter(|r| r.request.output_len > 1)
        .map(|r| {
            let decode_ns = r.completed.saturating_since(r.first_token).as_nanos();
            (decode_ns / (r.request.output_len as u64 - 1)) as f64 / 1e6
        })
        .collect();
    gaps_ms.sort_by(|a, b| a.partial_cmp(b).expect("gaps are never NaN"));
    gaps_ms[(0.99 * (gaps_ms.len() - 1) as f64).ceil() as usize]
}

/// Runs a config with two requests in flight.  The KV scenarios below use
/// it so that turns still queue: restore-ahead needs a queued session to
/// prewarm, and their job is to watch the KV manager, not the scheduler.
/// KV coverage at the default twelve in flight lives in
/// `tests/kv_reuse.rs`, and the batching numbers in `dispatch`.
fn two_in_flight(mut config: ServingConfig) -> ServingConfig {
    config.max_inflight = 2;
    config
}

fn chat_heavy(config: ServingConfig, sessions: usize, requests: usize) -> ServingReport {
    let workload = WorkloadSpec::chat(sessions, requests, SimDuration::from_secs(30), "qwen2.5-3b");
    let models = vec![ModelSpec::qwen2_5_3b()];
    Server::run_workload(two_in_flight(config), models, &workload, 0xCAA7)
}

/// The chat-serving config under a deliberately tight KV budget: retained
/// KV overflows the secure allowance, so cold pages seal out to normal-world
/// memory and come back via dispatch-time unseal and restore-ahead — the
/// counters CI's perf gate watches.
fn chat_squeezed(profile: PlatformProfile) -> ServingConfig {
    let mut config = ServingConfig::chat_default(profile);
    config.kv.budget_fraction = 0.02;
    config
}

/// The spill-quantization scenario: the squeezed chat fleet against a spill
/// budget small enough that every format saturates it, so the comparison
/// measures how far each format stretches the same CMA bytes.
fn spill_quant(format: SpillFormat, sessions: usize, requests: usize) -> ServingReport {
    let mut config = chat_squeezed(PlatformProfile::rk3588());
    config.kv.spill_budget = 32 * sim_core::MIB;
    config.kv.spill_format = format;
    let workload = WorkloadSpec::chat_with_context(
        sessions,
        requests,
        SimDuration::from_secs(30),
        "qwen2.5-3b",
        4096,
    );
    let models = vec![ModelSpec::qwen2_5_3b()];
    Server::run_workload(two_in_flight(config), models, &workload, 0x0AA7)
}

/// The batching scenario's agent fleet: many concurrent short decodes with
/// an occasional long prefill landing on top of them — the traffic shape
/// chunked prefill exists for.
fn agent_fleet(sessions: usize, requests: usize) -> ServingReport {
    let config = ServingConfig::paper_default(PlatformProfile::rk3588());
    let workload =
        WorkloadSpec::agent_burst(sessions, requests, SimDuration::from_secs(2), "qwen2.5-3b");
    let models = vec![ModelSpec::qwen2_5_3b()];
    Server::run_workload(config, models, &workload, 0xA6E7)
}

/// The speculation scenario's agent fleets.  Three sessions at 250 ms think
/// time are few enough that decode stays weight-read-bound — the regime
/// where the target's verify sweep scores extra positions nearly for free.
/// Six sessions at 1 s think time keep about five decodes in every step and
/// the NPU busy — the regime where the sweep is compute-bound and deep
/// drafts cost more NPU time than their accepted tokens return.
fn spec_agent_fleet(
    config: ServingConfig,
    sessions: usize,
    mean_think: SimDuration,
    requests: usize,
) -> ServingReport {
    let workload = WorkloadSpec::agent_burst(sessions, requests, mean_think, "qwen2.5-3b");
    let models = vec![ModelSpec::qwen2_5_3b()];
    Server::run_workload(config, models, &workload, 0xA6E7)
}

fn shared_fleet(config: ServingConfig, sessions: usize, requests: usize) -> ServingReport {
    let workload = WorkloadSpec::assistant(
        sessions,
        requests,
        SimDuration::from_secs(600),
        512,
        "qwen2.5-3b",
    );
    let models = vec![ModelSpec::qwen2_5_3b()];
    Server::run_workload(two_in_flight(config), models, &workload, 0x5A5A)
}

/// p95 end-to-end TTFT of cold first turns (requests with no own-context
/// overlap), in seconds.  The fleet's *earliest-dispatched* cold turn is
/// excluded: that session definitionally has nobody to share with, so
/// keeping it would let one unavoidable miss mask the whole fleet's win at
/// small N.
fn first_turn_p95_s(report: &ServingReport) -> f64 {
    let mut cold: Vec<&tzllm::RequestRecord> = report
        .records
        .iter()
        .filter(|r| r.request.shared_prefix_len == 0)
        .collect();
    cold.sort_by_key(|r| r.dispatched);
    let values: Vec<f64> = cold
        .iter()
        .skip(1)
        .map(|r| r.ttft_e2e().as_millis_f64())
        .collect();
    sim_core::PercentileSummary::from_values(&values)
        .expect("cold turns ran")
        .p95
        / 1e3
}

/// One named measurement: prints its headline numbers, enforces its
/// semantic asserts (CI fails on a *semantic* regression — wall-clock
/// absolutes are recorded, not asserted), and returns its top-level JSON
/// lines (no surrounding braces, no trailing comma or newline).
struct Scenario {
    name: &'static str,
    about: &'static str,
    run: fn(&HarnessOptions) -> String,
}

const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "sweep",
        about: "pipeline::simulate micro-latency + 10k-request sweep, plan cache off vs on",
        run: scenario_sweep,
    },
    Scenario {
        name: "dispatch",
        about: "cold-heavy p95/saturation: serial vs batched, + agent-burst fleet",
        run: scenario_dispatch,
    },
    Scenario {
        name: "chat",
        about: "multi-turn KV reuse vs release-everything under a tight secure budget",
        run: scenario_chat,
    },
    Scenario {
        name: "shared_prefix",
        about: "cross-session shared system prompt: cold first-turn p95 with/without dedup",
        run: scenario_shared_prefix,
    },
    Scenario {
        name: "spill_quant",
        about: "sealed KV spill f16 vs INT8 against a fixed normal-world budget",
        run: scenario_spill_quant,
    },
    Scenario {
        name: "speculation",
        about: "draft-model speculative decoding on the batched step loop, on vs off",
        run: scenario_speculation,
    },
    Scenario {
        name: "figures",
        about: "fig09/fig14 headline points recomputed against the figure binaries",
        run: scenario_figures,
    },
    Scenario {
        name: "trace",
        about: "telemetry-on cold-heavy fleet: span/TTFT reconciliation + Perfetto export",
        run: scenario_trace,
    },
    Scenario {
        name: "fleet_scale",
        about: "sharded parallel fleet: threads 1/2/8 sweep, digest-identical merged stats",
        run: scenario_fleet_scale,
    },
    Scenario {
        name: "slo_monitor",
        about: "windowed metrics + SLO burn-rate monitor on a traffic spike, OpenMetrics/CSV out",
        run: scenario_slo_monitor,
    },
];

/// Window width every metrics-enabled scenario records at: one minute, wide
/// enough that a window holds a statistically meaningful request count,
/// narrow enough to localise a ten-minute overload.
const METRICS_WINDOW: SimDuration = SimDuration::from_secs(60);

/// The merged whole-run end-to-end TTFT sketch: cold + follow-up histograms
/// over every request class.  Its support is exactly the completed-request
/// set, so its count must equal the fleet's `completed()`.
fn merged_ttft_sketch(merged: &WindowedMetrics) -> LogHistogram {
    let mut sketch = LogHistogram::new();
    for name in ["ttft_cold", "ttft_followup"] {
        for class in merged.histogram_classes(name) {
            if let Some(h) = merged.merged_histogram(name, class) {
                sketch.merge_from(&h);
            }
        }
    }
    sketch
}

/// Relative error (percent) of the sketch's quantile against the exact
/// sample-union percentile at the same nearest-rank rule the sketch's own
/// quantile walk uses (`rank = ceil(q·(n−1))`).
fn sketch_rel_err_pct(sketch: &LogHistogram, exact_sorted_ms: &[f64], q: f64) -> f64 {
    let rank = (q * (exact_sorted_ms.len() - 1) as f64).ceil() as usize;
    let exact = exact_sorted_ms[rank];
    let approx = sketch.quantile_ms(q).expect("sketch is non-empty");
    ((approx - exact) / exact).abs() * 100.0
}

/// The exact fleet-wide TTFT sample union, sorted ascending — the oracle
/// the sketch is judged against.
fn exact_ttft_union_ms(stats: &FleetStats) -> Vec<f64> {
    let mut exact: Vec<f64> = stats
        .shards()
        .flat_map(|s| s.ttft_ms.iter().copied())
        .collect();
    exact.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    exact
}

fn scenario_sweep(opts: &HarnessOptions) -> String {
    let sweep_requests = if opts.quick { 2_000 } else { 10_000 };
    let sim_us = pipeline_simulate_us(if opts.quick { 50 } else { 200 });
    println!("pipeline::simulate (qwen2.5-3b @128, cold): {sim_us:.1} us/iter");

    let (off_ms, off_report) = sweep(sweep_requests, 0);
    let (on_ms, on_report) = sweep(sweep_requests, 4096);
    assert_eq!(
        format!("{:?}", off_report.fleet.ttft_ms),
        format!("{:?}", on_report.fleet.ttft_ms),
        "the plan cache must be semantically transparent"
    );
    let speedup = off_ms / on_ms;
    let hits = on_report.fleet.plan_cache_hits;
    let misses = on_report.fleet.plan_cache_misses;
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "{sweep_requests}-request sweep: plan cache off {off_ms:.0} ms, on {on_ms:.0} ms \
         ({speedup:.1}x, hit rate {hit_rate:.3})"
    );

    let mut json = String::new();
    let _ = writeln!(json, "  \"pipeline_simulate_us\": {sim_us:.1},");
    let _ = writeln!(json, "  \"sweep_requests\": {sweep_requests},");
    let _ = writeln!(
        json,
        "  \"sweep_wallclock_ms_plan_cache_off\": {off_ms:.0},"
    );
    let _ = writeln!(json, "  \"sweep_wallclock_ms_plan_cache_on\": {on_ms:.0},");
    let _ = writeln!(json, "  \"plan_cache_speedup\": {speedup:.2},");
    let _ = write!(json, "  \"plan_cache_hit_rate\": {hit_rate:.4}");
    json
}

fn scenario_dispatch(opts: &HarnessOptions) -> String {
    let profile = PlatformProfile::rk3588();
    let latency_requests = if opts.quick { 150 } else { 400 };

    // Cold-heavy comparison at a fixed sub-saturation rate, and saturation
    // throughput at an overload rate.
    let fixed_rate = 0.06;
    let serial = cold_heavy(
        ServingConfig::serial(profile.clone()),
        fixed_rate,
        latency_requests,
    );
    let batched = cold_heavy(
        ServingConfig::paper_default(profile.clone()),
        fixed_rate,
        latency_requests,
    );
    let p95_serial = serial.fleet.ttft_ms.expect("records").p95 / 1e3;
    let p95_batched = batched.fleet.ttft_ms.expect("records").p95 / 1e3;
    let sat_rate = 0.5;
    let sat_serial = cold_heavy(
        ServingConfig::serial(profile.clone()),
        sat_rate,
        latency_requests,
    );
    let sat_batched = cold_heavy(
        ServingConfig::paper_default(profile.clone()),
        sat_rate,
        latency_requests,
    );
    let throughput_x = sat_batched.fleet.throughput_rps / sat_serial.fleet.throughput_rps;
    let sat_tbt_p99_ms = tbt_p99_ms(&sat_batched);
    println!(
        "cold-heavy @{fixed_rate} rps: p95 TTFT serial {p95_serial:.2} s, \
         batched {p95_batched:.2} s"
    );
    println!(
        "saturation @{sat_rate} rps: throughput serial {:.4} rps, batched {:.4} rps \
         ({throughput_x:.2}x vs serial, occupancy {:.2}, p99 TBT {sat_tbt_p99_ms:.1} ms)",
        sat_serial.fleet.throughput_rps,
        sat_batched.fleet.throughput_rps,
        sat_batched.fleet.mean_batch_occupancy
    );

    // Agent-burst fleet: many short decodes with long prefills landing on
    // top of them, the traffic shape chunked prefill exists for.
    let (agent_sessions, agent_requests) = if opts.quick { (8, 100) } else { (12, 240) };
    let agent = agent_fleet(agent_sessions, agent_requests);
    let agent_ttft = agent.fleet.ttft_ms.expect("records");
    let (agent_p50_s, agent_p95_s) = (agent_ttft.p50 / 1e3, agent_ttft.p95 / 1e3);
    println!(
        "agent-burst ({agent_sessions} sessions): p50 TTFT {agent_p50_s:.2} s, \
         p95 TTFT {agent_p95_s:.2} s, occupancy {:.2}, decode {:.0} tok/s, \
         stall sharing {:.1} ms",
        agent.fleet.mean_batch_occupancy,
        agent.fleet.batched_decode_tps,
        agent.fleet.mean_stall_sharing_ms
    );

    assert!(
        p95_batched < p95_serial,
        "the batched dispatcher must improve cold-heavy p95 TTFT over the serial \
         device ({p95_batched:.2} s vs {p95_serial:.2} s)"
    );
    assert!(
        throughput_x >= 2.0,
        "continuous batching must at least double the serial device's \
         saturation throughput ({throughput_x:.2}x)"
    );
    assert!(
        sat_batched.fleet.mean_batch_occupancy > 1.5,
        "the overload must really fill the batch ({:.2})",
        sat_batched.fleet.mean_batch_occupancy
    );
    assert!(
        agent.fleet.batch_steps > 0 && agent.fleet.batch_max_steps_behind == 0,
        "every step must advance each of its decodes ({} steps, {} steps behind)",
        agent.fleet.batch_steps,
        agent.fleet.batch_max_steps_behind
    );

    let mut json = String::new();
    let _ = writeln!(json, "  \"cold_heavy\": {{");
    let _ = writeln!(json, "    \"rate_rps\": {fixed_rate},");
    let _ = writeln!(json, "    \"requests\": {latency_requests},");
    let _ = writeln!(json, "    \"p95_ttft_s_serial\": {p95_serial:.3},");
    let _ = writeln!(json, "    \"p95_ttft_s_batched\": {p95_batched:.3}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"saturation\": {{");
    let _ = writeln!(json, "    \"rate_rps\": {sat_rate},");
    let _ = writeln!(
        json,
        "    \"throughput_rps_serial\": {:.4},",
        sat_serial.fleet.throughput_rps
    );
    let _ = writeln!(
        json,
        "    \"throughput_rps_batched\": {:.4},",
        sat_batched.fleet.throughput_rps
    );
    let _ = writeln!(json, "    \"tbt_p99_ms_batched\": {sat_tbt_p99_ms:.1}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"batching\": {{");
    let _ = writeln!(
        json,
        "    \"chunk_tokens\": {},",
        ServingConfig::paper_default(profile.clone()).prefill_chunk_tokens
    );
    let _ = writeln!(
        json,
        "    \"mean_batch_occupancy\": {:.3},",
        sat_batched.fleet.mean_batch_occupancy
    );
    let _ = writeln!(
        json,
        "    \"batched_decode_tps\": {:.2},",
        sat_batched.fleet.batched_decode_tps
    );
    let _ = writeln!(json, "    \"agent_sessions\": {agent_sessions},");
    let _ = writeln!(json, "    \"agent_burst_p50_ttft_s\": {agent_p50_s:.3},");
    let _ = writeln!(json, "    \"agent_burst_p95_ttft_s\": {agent_p95_s:.3},");
    let _ = writeln!(
        json,
        "    \"agent_burst_mean_occupancy\": {:.3},",
        agent.fleet.mean_batch_occupancy
    );
    let _ = writeln!(
        json,
        "    \"mean_decode_stall_ms\": {:.3}",
        agent.fleet.mean_decode_stall_ms
    );
    let _ = write!(json, "  }}");
    json
}

fn scenario_chat(opts: &HarnessOptions) -> String {
    let profile = PlatformProfile::rk3588();
    // Quick mode keeps the request budget small but the conversations deep
    // (fewer sessions, same turns per session) — reuse wins grow with depth.
    let chat_sessions = if opts.quick { 4 } else { 6 };
    let chat_requests = if opts.quick { 80 } else { 120 };
    let chat_base = chat_heavy(
        ServingConfig::paper_default(profile.clone()),
        chat_sessions,
        chat_requests,
    );
    let chat_kv = chat_heavy(chat_squeezed(profile), chat_sessions, chat_requests);
    let followup_p95_base = chat_base
        .fleet
        .followup_ttft_ms
        .expect("chat runs follow-ups")
        .p95
        / 1e3;
    let followup_p95_kv = chat_kv
        .fleet
        .followup_ttft_ms
        .expect("chat runs follow-ups")
        .p95
        / 1e3;
    let followup_improvement = followup_p95_base / followup_p95_kv;
    let kv_hit_rate = chat_kv.fleet.kv_hit_rate;
    println!(
        "chat-heavy ({chat_sessions} sessions): follow-up p95 TTFT baseline \
         {followup_p95_base:.2} s, KV reuse {followup_p95_kv:.2} s \
         ({followup_improvement:.1}x, hit rate {kv_hit_rate:.3})"
    );
    println!(
        "  KV bytes: spilled {:.1} MiB, unsealed {:.1} MiB, restore-ahead {:.1} MiB",
        chat_kv.fleet.kv_spilled_bytes as f64 / sim_core::MIB as f64,
        chat_kv.fleet.kv_unsealed_bytes as f64 / sim_core::MIB as f64,
        chat_kv.fleet.kv_restore_ahead_bytes as f64 / sim_core::MIB as f64,
    );

    assert!(
        followup_improvement >= 2.0,
        "KV reuse must improve follow-up p95 TTFT >= 2x \
         ({followup_p95_kv:.2} s vs {followup_p95_base:.2} s)"
    );
    assert!(
        kv_hit_rate > 0.8,
        "chat-heavy KV hit rate must stay high ({kv_hit_rate:.3})"
    );
    assert!(
        chat_kv.fleet.kv_spilled_bytes > 0 && chat_kv.fleet.kv_restore_ahead_bytes > 0,
        "the squeezed chat budget must exercise the spill and restore-ahead paths"
    );

    let mut json = String::new();
    let _ = writeln!(json, "  \"chat\": {{");
    let _ = writeln!(json, "    \"sessions\": {chat_sessions},");
    let _ = writeln!(json, "    \"requests\": {chat_requests},");
    let _ = writeln!(json, "    \"kv_hit_rate\": {kv_hit_rate:.4},");
    let _ = writeln!(
        json,
        "    \"followup_p95_ttft_s_baseline\": {followup_p95_base:.3},"
    );
    let _ = writeln!(
        json,
        "    \"followup_p95_ttft_s_kv\": {followup_p95_kv:.3},"
    );
    let _ = writeln!(
        json,
        "    \"followup_improvement_x\": {followup_improvement:.2},"
    );
    let _ = writeln!(
        json,
        "    \"kv_spilled_mib\": {:.1},",
        chat_kv.fleet.kv_spilled_bytes as f64 / sim_core::MIB as f64
    );
    let _ = writeln!(
        json,
        "    \"kv_restore_ahead_mib\": {:.1}",
        chat_kv.fleet.kv_restore_ahead_bytes as f64 / sim_core::MIB as f64
    );
    let _ = write!(json, "  }}");
    json
}

fn scenario_shared_prefix(opts: &HarnessOptions) -> String {
    let profile = PlatformProfile::rk3588();
    let fleet_sessions = if opts.quick { 6 } else { 8 };
    let fleet_requests = fleet_sessions * 2;
    let mut unshared_cfg = ServingConfig::chat_default(profile.clone());
    unshared_cfg.kv.shared = false;
    let fleet_unshared = shared_fleet(unshared_cfg, fleet_sessions, fleet_requests);
    let fleet_shared = shared_fleet(
        ServingConfig::chat_default(profile),
        fleet_sessions,
        fleet_requests,
    );
    let first_turn_unshared = first_turn_p95_s(&fleet_unshared);
    let first_turn_shared = first_turn_p95_s(&fleet_shared);
    let shared_hit_rate = fleet_shared.fleet.kv_shared_hit_rate;
    let deduped_mib = fleet_shared.fleet.kv_deduped_bytes as f64 / sim_core::MIB as f64;
    println!(
        "shared-prefix fleet ({fleet_sessions} sessions, 512-token system prompt): \
         cold first-turn p95 TTFT unshared {first_turn_unshared:.2} s, shared \
         {first_turn_shared:.2} s (hit rate {shared_hit_rate:.3}, deduped {deduped_mib:.1} MiB)"
    );

    assert!(
        first_turn_shared < first_turn_unshared,
        "cross-session sharing must improve cold first-turn p95 TTFT \
         ({first_turn_shared:.2} s vs {first_turn_unshared:.2} s)"
    );
    assert!(
        shared_hit_rate > 0.5,
        "most cold turns must hit the shared head ({shared_hit_rate:.3})"
    );
    assert!(
        deduped_mib > 0.0,
        "the fleet's common head must actually dedup"
    );

    let mut json = String::new();
    let _ = writeln!(json, "  \"shared_prefix\": {{");
    let _ = writeln!(json, "    \"sessions\": {fleet_sessions},");
    let _ = writeln!(json, "    \"system_prompt_tokens\": 512,");
    let _ = writeln!(
        json,
        "    \"first_turn_p95_s_unshared\": {first_turn_unshared:.3},"
    );
    let _ = writeln!(
        json,
        "    \"first_turn_p95_s_shared\": {first_turn_shared:.3},"
    );
    let _ = writeln!(
        json,
        "    \"first_turn_improvement_pct\": {:.1},",
        100.0 * (1.0 - first_turn_shared / first_turn_unshared)
    );
    let _ = writeln!(json, "    \"shared_hit_rate\": {shared_hit_rate:.4},");
    let _ = write!(json, "    \"deduped_mib\": {deduped_mib:.1}\n  }}");
    json
}

fn scenario_spill_quant(opts: &HarnessOptions) -> String {
    // Quick mode keeps the full session count and enough turns that sealed
    // demand saturates the budget under *both* formats — an unsaturated
    // budget would make the capacity comparison measure the workload, not
    // the format.
    let (sq_sessions, sq_requests) = if opts.quick { (4, 40) } else { (4, 80) };
    let sq_f16 = spill_quant(SpillFormat::F16, sq_sessions, sq_requests);
    let sq_int8 = spill_quant(SpillFormat::Int8, sq_sessions, sq_requests);
    let sq_p95_f16 = sq_f16.fleet.followup_ttft_ms.expect("follow-ups ran").p95 / 1e3;
    let sq_p95_int8 = sq_int8.fleet.followup_ttft_ms.expect("follow-ups ran").p95 / 1e3;
    let capacity_x =
        sq_int8.fleet.kv_peak_sealed_pages as f64 / sq_f16.fleet.kv_peak_sealed_pages.max(1) as f64;
    let sq_compressed_mib = sq_int8.fleet.kv_spilled_compressed_bytes as f64 / sim_core::MIB as f64;
    let sq_dequant_mib = sq_int8.fleet.kv_dequant_bytes as f64 / sim_core::MIB as f64;
    let sq_dequant_secs =
        sq_int8.fleet.kv_dequant_bytes as f64 / PlatformProfile::rk3588().dequant_bytes_per_sec;
    println!(
        "spill-quant ({sq_sessions} sessions, 32 MiB spill budget): follow-up p95 TTFT \
         f16 {sq_p95_f16:.2} s, int8 {sq_p95_int8:.2} s; sealed pages {} -> {} \
         ({capacity_x:.2}x at equal CMA bytes), compressed spill {sq_compressed_mib:.1} MiB, \
         dequant {sq_dequant_mib:.1} MiB ({sq_dequant_secs:.2} s of decrypt-lane time over the run)",
        sq_f16.fleet.kv_peak_sealed_pages,
        sq_int8.fleet.kv_peak_sealed_pages,
    );

    assert!(
        capacity_x >= 1.9,
        "INT8 sealing must hold >= 1.9x the f16 page count at equal CMA bytes ({capacity_x:.2})"
    );
    assert!(
        sq_p95_int8 <= sq_p95_f16 * 1.01,
        "INT8 spill must not regress follow-up p95 ({sq_p95_int8:.2} s vs {sq_p95_f16:.2} s)"
    );
    assert!(
        sq_compressed_mib > 0.0 && sq_dequant_mib > 0.0,
        "the quantized spill and dequant paths must be exercised"
    );

    let mut json = String::new();
    let _ = writeln!(json, "  \"spill_quant\": {{");
    let _ = writeln!(json, "    \"sessions\": {sq_sessions},");
    let _ = writeln!(json, "    \"spill_budget_mib\": 32,");
    let _ = writeln!(json, "    \"followup_p95_ttft_s_f16\": {sq_p95_f16:.3},");
    let _ = writeln!(json, "    \"followup_p95_ttft_s_int8\": {sq_p95_int8:.3},");
    let _ = writeln!(json, "    \"int8_page_capacity_x\": {capacity_x:.3},");
    let _ = writeln!(
        json,
        "    \"spilled_compressed_mib\": {sq_compressed_mib:.1},"
    );
    let _ = write!(json, "    \"dequant_mib\": {sq_dequant_mib:.1}\n  }}");
    json
}

fn scenario_speculation(opts: &HarnessOptions) -> String {
    let profile = PlatformProfile::rk3588();
    let spec = SpeculationConfig::paper_default();
    // The draft the server wires for these qwen2.5-3b fleets: the
    // draft-catalogue entry that shares the target's tokenizer.
    let target_vocab = ModelSpec::qwen2_5_3b().vocab;
    let draft = ModelSpec::drafts()
        .into_iter()
        .find(|d| d.vocab == target_vocab)
        .expect("a draft shares qwen2.5-3b's tokenizer");
    let fleet_requests = if opts.quick { 40 } else { 60 };
    let latency_requests = if opts.quick { 150 } else { 400 };
    let saturated_requests = if opts.quick { 600 } else { 3_000 };

    // Decode-heavy agent fleet, draft off vs on: the headline throughput
    // multiple extra verified tokens per NPU sweep buy in the
    // weight-read-bound regime.
    let decode_heavy =
        |config| spec_agent_fleet(config, 3, SimDuration::from_millis(250), fleet_requests);
    let fleet_off = decode_heavy(ServingConfig::paper_default(profile.clone()));
    let mut spec_cfg = ServingConfig::paper_default(profile.clone());
    spec_cfg.speculation = spec.clone();
    let fleet_spec = decode_heavy(spec_cfg.clone());
    let throughput_off = fleet_off.fleet.throughput_rps;
    let throughput_spec = fleet_spec.fleet.throughput_rps;
    let throughput_x = throughput_spec / throughput_off;
    let accept_rate = fleet_spec.fleet.spec_accept_rate;
    let draft_overhead = fleet_spec.fleet.spec_draft_overhead;
    let emitted_per_step = fleet_spec.fleet.spec_mean_emitted_per_step;
    println!(
        "speculation ({} draft, k≤{}): decode-heavy fleet {throughput_off:.4} -> \
         {throughput_spec:.4} rps ({throughput_x:.2}x), accept rate {accept_rate:.3}, \
         draft overhead {draft_overhead:.3}, effective {emitted_per_step:.2} tok/step",
        draft.name, spec.k
    );

    // Saturated agent fleet: the per-step depth chooser must draft shallower
    // than `k` once the batch is full and the sweep compute-bound.
    let saturated = spec_agent_fleet(spec_cfg, 6, SimDuration::from_secs(1), saturated_requests);
    let saturated_throughput = saturated.fleet.throughput_rps;
    let (depth_sum, decided) = saturated
        .fleet
        .spec_depth_per_step
        .iter()
        .fold((0u64, 0u64), |(sum, n), &(depth, steps)| {
            (sum + depth as u64 * steps, n + steps)
        });
    let saturated_mean_depth = depth_sum as f64 / decided.max(1) as f64;
    println!(
        "  saturated fleet (6 sessions, 1 s think): {saturated_throughput:.4} rps, \
         mean draft depth {saturated_mean_depth:.2} over {decided} decided steps"
    );

    // Cold-heavy guard: the same sub-saturation multi-model run the
    // `dispatch` scenario prices, with speculation on — the draft must not
    // move first-token latency (speculative steps exempt prefill-carrying
    // steps precisely for this).
    let cold_batched = cold_heavy(
        ServingConfig::paper_default(profile.clone()),
        0.06,
        latency_requests,
    );
    let mut cold_spec_cfg = ServingConfig::paper_default(profile);
    cold_spec_cfg.speculation = spec.clone();
    let cold_spec = cold_heavy(cold_spec_cfg, 0.06, latency_requests);
    let cold_p95_batched = cold_batched.fleet.ttft_ms.expect("records").p95 / 1e3;
    let cold_p95_spec = cold_spec.fleet.ttft_ms.expect("records").p95 / 1e3;
    println!(
        "  cold-heavy guard: p95 TTFT batched {cold_p95_batched:.2} s, \
         speculation {cold_p95_spec:.2} s"
    );

    assert!(
        throughput_x >= 1.5,
        "speculation must buy >= 1.5x on the decode-heavy fleet ({throughput_x:.2}x)"
    );
    assert!(
        cold_p95_spec <= cold_p95_batched * 1.05,
        "speculation must leave cold-heavy p95 TTFT within 1.05x \
         ({cold_p95_spec:.2} s vs {cold_p95_batched:.2} s)"
    );
    assert!(
        accept_rate > 0.5 && accept_rate < 1.0,
        "the acceptance model must land in the workload-keyed band ({accept_rate:.3})"
    );
    assert!(
        draft_overhead > 0.0 && draft_overhead < 0.5,
        "draft passes must cost something but stay a minority share ({draft_overhead:.3})"
    );
    assert!(
        emitted_per_step > 2.0,
        "the accepted prefixes must actually multiply tokens per sweep ({emitted_per_step:.2})"
    );
    assert!(
        decided > 0 && saturated_mean_depth < spec.k as f64,
        "the saturated fleet must draft shallower than k = {} ({saturated_mean_depth:.2})",
        spec.k
    );

    let mut json = String::new();
    let _ = writeln!(json, "  \"speculation\": {{");
    let _ = writeln!(json, "    \"draft_model\": \"{}\",", draft.name);
    let _ = writeln!(json, "    \"k\": {},", spec.k);
    let _ = writeln!(json, "    \"agent_sessions\": 3,");
    let _ = writeln!(
        json,
        "    \"agent_throughput_rps_off\": {throughput_off:.4},"
    );
    let _ = writeln!(
        json,
        "    \"agent_throughput_rps_spec\": {throughput_spec:.4},"
    );
    let _ = writeln!(json, "    \"agent_throughput_x\": {throughput_x:.3},");
    let _ = writeln!(json, "    \"accepted_token_rate\": {accept_rate:.4},");
    let _ = writeln!(json, "    \"draft_overhead_share\": {draft_overhead:.4},");
    let _ = writeln!(
        json,
        "    \"effective_tokens_per_step\": {emitted_per_step:.3},"
    );
    let _ = writeln!(json, "    \"saturated_sessions\": 6,");
    let _ = writeln!(
        json,
        "    \"saturated_throughput_rps\": {saturated_throughput:.4},"
    );
    let _ = writeln!(
        json,
        "    \"saturated_mean_depth\": {saturated_mean_depth:.3},"
    );
    let _ = writeln!(
        json,
        "    \"cold_p95_ttft_s_batched_ref\": {cold_p95_batched:.3},"
    );
    let _ = write!(
        json,
        "    \"cold_p95_ttft_s_spec\": {cold_p95_spec:.3}\n  }}"
    );
    json
}

fn scenario_figures(_opts: &HarnessOptions) -> String {
    let profile = PlatformProfile::rk3588();
    // Deterministic single-request evaluations: regenerating these here lets
    // the perf gate catch calibration drift in the figure binaries' CSVs.
    let fig_cfg = InferenceConfig::paper_default(ModelSpec::qwen2_5_3b(), 128);
    let fig_tz = evaluate(SystemKind::TzLlm, &profile, &fig_cfg);
    let fig_straw = evaluate(SystemKind::Strawman, &profile, &fig_cfg);
    let fig09_tzllm_s = fig_tz.ttft.as_secs_f64();
    let fig09_reduction_pct =
        (1.0 - fig_tz.ttft.as_secs_f64() / fig_straw.ttft.as_secs_f64()) * 100.0;
    // The same report's decode speed is fig11's TZ-LLM point: the decode
    // weight stream plus the per-token co-driver handoffs.
    let fig11_tzllm_tps = fig_tz.decode_tokens_per_sec;
    let mut warm_cfg = fig_cfg.clone();
    warm_cfg.cached_fraction = 1.0;
    let fig14_warm_norm = evaluate(SystemKind::TzLlm, &profile, &warm_cfg)
        .ttft
        .as_secs_f64()
        / fig09_tzllm_s;
    println!(
        "figure headlines: fig09 qwen@128 TZ-LLM {fig09_tzllm_s:.3} s \
         ({fig09_reduction_pct:.1}% vs strawman), fig11 qwen@128 TZ-LLM \
         {fig11_tzllm_tps:.2} tok/s, fig14 warm-normalised {fig14_warm_norm:.3}"
    );

    let mut json = String::new();
    let _ = writeln!(json, "  \"figures\": {{");
    let _ = writeln!(json, "    \"fig09_qwen128_tzllm_s\": {fig09_tzllm_s:.3},");
    let _ = writeln!(
        json,
        "    \"fig09_qwen128_reduction_pct\": {fig09_reduction_pct:.1},"
    );
    let _ = writeln!(
        json,
        "    \"fig11_qwen128_tzllm_tps\": {fig11_tzllm_tps:.2},"
    );
    let _ = write!(
        json,
        "    \"fig14_qwen128_warm_norm\": {fig14_warm_norm:.3}\n  }}"
    );
    json
}

fn scenario_trace(opts: &HarnessOptions) -> String {
    let requests = if opts.quick { 40 } else { 80 };
    let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
    config.telemetry = true;
    let report = cold_heavy(config, 0.25, requests);
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");

    // Reconciliation: each request's TTFT-phase spans tile
    // [arrival, first_token], so their sum must equal the recorded
    // end-to-end TTFT exactly (nanosecond integers — no rounding slack).
    for r in &report.records {
        let sum = telemetry.request_ttft_span_sum(r.request.id);
        assert_eq!(
            sum,
            r.ttft_e2e(),
            "request {} lifecycle spans must reconcile with its TTFT",
            r.request.id
        );
    }

    let cp = tzllm::critical_path_report(&report);
    let attributed_pct = cp.attributed_fraction() * 100.0;
    assert!(
        attributed_pct >= 90.0,
        "critical-path attribution must cover >=90% of cold TTFT ({attributed_pct:.1}%)"
    );
    print!("{}", cp.render_text());
    println!("TTFT waterfall (first 10 requests):");
    for line in tzllm::ttft_waterfall(&report).lines().take(11) {
        println!("{line}");
    }

    let trace_json = telemetry.chrome_trace_json();
    let path = opts
        .trace_out
        .clone()
        .unwrap_or_else(|| bench::output_dir().join("serving_trace.json"));
    std::fs::write(&path, &trace_json).expect("write trace JSON");
    println!(
        "wrote {} ({} spans, {} bytes; open in Perfetto / chrome://tracing)",
        path.display(),
        telemetry.spans().len(),
        trace_json.len()
    );

    let mut json = String::new();
    let _ = writeln!(json, "  \"trace\": {{");
    let _ = writeln!(json, "    \"requests\": {},", report.records.len());
    let _ = writeln!(json, "    \"spans\": {},", telemetry.spans().len());
    let _ = writeln!(json, "    \"cold_requests\": {},", cp.per_request.len());
    let _ = write!(json, "    \"attributed_pct\": {attributed_pct:.1}\n  }}");
    json
}

fn scenario_fleet_scale(opts: &HarnessOptions) -> String {
    let shards = if opts.quick { 16 } else { 64 };
    let requests = if opts.quick { 48_000 } else { 1_000_000 };
    // Fleet-wide arrival rate scaled so each device shard sees the sweep
    // scenario's calibrated 0.1 rps after partitioning.
    let per_device_rate = 0.1;
    let workload = WorkloadSpec::standard_multi(
        ArrivalProcess::Poisson {
            rate_per_sec: per_device_rate * shards as f64,
        },
        requests,
        &MODELS,
    );
    let models = catalogue();
    let seed = 0xF1EE;
    let run = |threads: usize| {
        let config = FleetConfig {
            shards,
            threads,
            mix: DeviceMix::heterogeneous_default(),
        };
        let start = Instant::now();
        // Windowed metrics on: the per-shard series land in the digest, so
        // the determinism matrix also proves the windowed quantiles are
        // thread-count-invariant.
        let stats = run_fleet(&workload, &models, seed, &config, |p| {
            let mut c = ServingConfig::paper_default(p.clone());
            c.metrics = Some(METRICS_WINDOW);
            c
        });
        (start.elapsed().as_secs_f64(), stats)
    };

    if let Some(threads) = opts.threads {
        // CI's determinism matrix: one thread count, digest to stdout and
        // (with --digest-out) to a file the workflow diffs across runs.
        assert_eq!(
            opts.scenario.as_deref(),
            Some("fleet_scale"),
            "--threads is only meaningful with --scenario fleet_scale"
        );
        let (wall_s, stats) = run(threads);
        let digest = stats.digest();
        println!(
            "fleet_scale ({shards} shards, {requests} requests, {threads} threads): \
             {wall_s:.2} s wall, {} completed",
            stats.completed()
        );
        println!("{digest}");
        if let Some(path) = &opts.digest_out {
            std::fs::write(path, format!("{digest}\n")).expect("write digest file");
            println!("wrote {}", path.display());
        }
        return String::from("  \"fleet_scale\": {}");
    }

    let (wall_1, stats_1) = run(1);
    let (wall_2, stats_2) = run(2);
    let (wall_8, stats_8) = run(8);
    let digest = stats_1.digest();
    let speedup_8 = wall_1 / wall_8;
    let sim_per_min_8 = requests as f64 * 60.0 / wall_8;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "fleet_scale ({shards} shards x {} devices/socs, {requests} requests): \
         wall 1t {wall_1:.2} s, 2t {wall_2:.2} s, 8t {wall_8:.2} s \
         ({speedup_8:.2}x, {:.2}M sim req/min on 8 threads, {cores} host cores)",
        DeviceMix::heterogeneous_default().slot_count(),
        sim_per_min_8 / 1e6
    );
    println!("  digest {digest}");

    // Thread-count independence is machine-independent: assert it always,
    // on the full merged value, not merely the digest.
    assert_eq!(
        digest,
        stats_2.digest(),
        "merged stats must not depend on the thread count (1 vs 2)"
    );
    assert_eq!(
        digest,
        stats_8.digest(),
        "merged stats must not depend on the thread count (1 vs 8)"
    );
    assert!(
        stats_1 == stats_8,
        "digest-equal fleets must also compare equal field-for-field"
    );
    assert_eq!(stats_1.shard_count(), shards, "every shard must report");
    assert_eq!(
        stats_1.completed() + stats_1.rejected(),
        requests as u64,
        "the partition must conserve the fleet's request budget"
    );

    // The windowed latency sketch against its exact oracle: the fleet-merged
    // cold+follow-up TTFT histogram must cover every completed request and
    // land its percentiles within the DDSketch bound (1% relative error,
    // plus a hair of floating-point slack) of the exact sample-union
    // percentiles the shards still carry.
    let merged_metrics = stats_1.merged_metrics();
    assert!(
        merged_metrics.is_enabled() && merged_metrics.series_count() > 0,
        "the fleet must have recorded windowed metrics"
    );
    assert_eq!(
        merged_metrics,
        stats_8.merged_metrics(),
        "fleet-merged windowed series must not depend on the thread count"
    );
    let sketch = merged_ttft_sketch(&merged_metrics);
    assert_eq!(
        sketch.count(),
        stats_1.completed(),
        "the TTFT sketch must cover every completed request"
    );
    let exact = exact_ttft_union_ms(&stats_1);
    let sketch_err_p50 = sketch_rel_err_pct(&sketch, &exact, 0.50);
    let sketch_err_p95 = sketch_rel_err_pct(&sketch, &exact, 0.95);
    let sketch_err_p99 = sketch_rel_err_pct(&sketch, &exact, 0.99);
    println!(
        "  windowed sketch vs exact union: p50 {sketch_err_p50:.3}%, \
         p95 {sketch_err_p95:.3}%, p99 {sketch_err_p99:.3}% relative error \
         ({} histogram buckets for {} samples)",
        sketch.bucket_count(),
        exact.len()
    );
    for (q, err) in [
        ("p50", sketch_err_p50),
        ("p95", sketch_err_p95),
        ("p99", sketch_err_p99),
    ] {
        assert!(
            err <= 1.01,
            "sketch {q} must stay within 1% of the exact sample union ({err:.3}%)"
        );
    }

    // The heterogeneous mix must actually shape the fleet distribution:
    // all three calibrations serve traffic, and the entry SoC is slower.
    let by_soc = stats_1.ttft_ms_by_soc();
    assert_eq!(by_soc.len(), 3, "all three SoC calibrations must serve");
    let entry_vs_flagship = by_soc["rk3566"].p50 / by_soc["rk3588"].p50;
    assert!(
        entry_vs_flagship > 1.0,
        "the entry-level calibration must be visibly slower ({entry_vs_flagship:.2}x)"
    );

    // Wall-clock scaling floors are machine-dependent: asserted only on
    // full runs with enough host cores to make 8 workers real, recorded
    // (and perf-gated as Present) otherwise.
    if !opts.quick && cores >= 8 {
        assert!(
            speedup_8 >= 4.0,
            "8 worker threads must buy >= 4x over serial ({speedup_8:.2}x)"
        );
        assert!(
            sim_per_min_8 >= 1e6,
            "the fleet must sustain >= 1M simulated requests/minute on 8 \
             threads ({sim_per_min_8:.0}/min)"
        );
    } else {
        println!(
            "  (scaling floors recorded, not asserted: quick={}, {cores} cores)",
            opts.quick
        );
    }

    let agg = stats_1.ttft_ms().expect("the fleet served requests");
    let mut json = String::new();
    let _ = writeln!(json, "  \"fleet_scale\": {{");
    let _ = writeln!(json, "    \"shards\": {shards},");
    let _ = writeln!(json, "    \"requests\": {requests},");
    let _ = writeln!(json, "    \"wallclock_s_threads1\": {wall_1:.3},");
    let _ = writeln!(json, "    \"wallclock_s_threads2\": {wall_2:.3},");
    let _ = writeln!(json, "    \"wallclock_s_threads8\": {wall_8:.3},");
    let _ = writeln!(json, "    \"speedup_8t\": {speedup_8:.3},");
    let _ = writeln!(json, "    \"sim_req_per_min_8t\": {sim_per_min_8:.0},");
    let _ = writeln!(json, "    \"completed\": {},", stats_1.completed());
    let _ = writeln!(json, "    \"rejected\": {},", stats_1.rejected());
    let _ = writeln!(json, "    \"digest_matches_across_threads\": 1,");
    let _ = writeln!(json, "    \"agg_p50_ttft_ms\": {:.3},", agg.p50);
    let _ = writeln!(json, "    \"agg_p95_ttft_ms\": {:.3},", agg.p95);
    let _ = writeln!(json, "    \"agg_p99_ttft_ms\": {:.3},", agg.p99);
    let _ = writeln!(
        json,
        "    \"entry_vs_flagship_p50_x\": {entry_vs_flagship:.3},"
    );
    let _ = writeln!(
        json,
        "    \"metrics_series\": {},",
        merged_metrics.series_count()
    );
    let _ = writeln!(json, "    \"sketch_p50_rel_err_pct\": {sketch_err_p50:.4},");
    let _ = writeln!(json, "    \"sketch_p95_rel_err_pct\": {sketch_err_p95:.4},");
    let _ = write!(
        json,
        "    \"sketch_p99_rel_err_pct\": {sketch_err_p99:.4}\n  }}"
    );
    json
}

fn scenario_slo_monitor(opts: &HarnessOptions) -> String {
    let shards = 4;
    let requests = if opts.quick { 700 } else { 2_400 };
    // Steady per-device background traffic with an 8x notification storm
    // from t=20min to t=30min: the monitor must light up exactly there.
    let per_device_rate = 0.05;
    let spike_start = SimDuration::from_secs(1_200);
    let spike_len = SimDuration::from_secs(600);
    let workload = WorkloadSpec::standard_multi(
        ArrivalProcess::PoissonSpike {
            rate_per_sec: per_device_rate * shards as f64,
            surge_x: 8.0,
            spike_start,
            spike_len,
        },
        requests,
        &MODELS,
    );
    let config = FleetConfig {
        shards,
        threads: 2,
        mix: DeviceMix::heterogeneous_default(),
    };
    let stats = run_fleet(&workload, &catalogue(), 0x510, &config, |p| {
        let mut c = ServingConfig::paper_default(p.clone());
        c.metrics = Some(METRICS_WINDOW);
        c
    });

    let merged = stats.merged_metrics();
    assert!(
        merged.is_enabled() && merged.series_count() > 0,
        "the fleet must have recorded windowed metrics"
    );
    let targets = SloTarget::defaults_for(&merged);
    let report = slo::evaluate(&merged, &targets, &SloConfig::default());
    print!("{}", report.summary());

    let cold = report
        .target("ttft_cold", "independent")
        .expect("the spike fleet serves independent cold traffic");
    assert_eq!(
        cold.total,
        stats.completed(),
        "every completed request of this open-loop fleet is a cold turn"
    );
    let spike_window = spike_start.as_nanos() / METRICS_WINDOW.as_nanos();
    let pre_spike: Vec<_> = cold
        .windows
        .iter()
        .filter(|w| w.window < spike_window)
        .collect();
    assert!(
        !pre_spike.is_empty()
            && pre_spike
                .iter()
                .all(|w| w.burn_rate(cold.target.objective) < 2.0),
        "background traffic must not burn budget before the spike"
    );
    assert!(
        !report.episodes.is_empty(),
        "the 8x surge must register as at least one overload episode"
    );
    let episode = &report.episodes[0];
    assert!(
        episode.first_window >= spike_window,
        "the episode must start in the spike ({} vs window {spike_window})",
        episode.first_window
    );
    assert!(
        episode.bounding_lane.is_some(),
        "the episode must name its bounding lane"
    );
    let burn_peak = report.peak_burn_rate();

    // The sketch stays honest against the exact union on this fleet too.
    let sketch = merged_ttft_sketch(&merged);
    assert_eq!(sketch.count(), stats.completed());
    let exact = exact_ttft_union_ms(&stats);
    let sketch_err_p95 = sketch_rel_err_pct(&sketch, &exact, 0.95);
    assert!(
        sketch_err_p95 <= 1.01,
        "sketch p95 must stay within 1% of the exact union ({sketch_err_p95:.3}%)"
    );

    // Export: OpenMetrics text exposition + CSV time-series, validated with
    // the strict in-repo parser before anything is written.
    let exposition = slo::openmetrics(&merged, &report);
    let om_samples = slo::validate_openmetrics(&exposition)
        .expect("the exposition must parse under the strict validator");
    let csv = slo::csv_timeseries(&merged, &report);
    let csv_rows = csv.lines().count() - 1;
    let om_path = opts
        .metrics_out
        .clone()
        .unwrap_or_else(|| bench::output_dir().join("slo_metrics.om.txt"));
    let csv_path = om_path.with_extension("csv");
    std::fs::write(&om_path, &exposition).expect("write OpenMetrics exposition");
    std::fs::write(&csv_path, &csv).expect("write metrics CSV");
    println!("slo_monitor exposition valid: {om_samples} OpenMetrics samples, {csv_rows} CSV rows");
    println!("wrote {} and {}", om_path.display(), csv_path.display());

    let episodes = report.episodes.len();
    let windows = cold.windows.len();
    let cold_attainment = cold.attainment();
    let tbt_attainment = report
        .target("tbt", "independent")
        .map_or(1.0, TargetReport::attainment);
    let mut json = String::new();
    let _ = writeln!(json, "  \"slo_monitor\": {{");
    let _ = writeln!(json, "    \"requests\": {requests},");
    let _ = writeln!(json, "    \"windows\": {windows},");
    let _ = writeln!(json, "    \"cold_attainment\": {cold_attainment:.4},");
    let _ = writeln!(json, "    \"tbt_attainment\": {tbt_attainment:.4},");
    let _ = writeln!(json, "    \"burn_rate_peak\": {burn_peak:.3},");
    let _ = writeln!(json, "    \"overload_episodes\": {episodes},");
    let _ = writeln!(
        json,
        "    \"episode_first_window\": {},",
        episode.first_window
    );
    let _ = writeln!(json, "    \"om_samples\": {om_samples},");
    let _ = write!(
        json,
        "    \"sketch_p95_rel_err_pct\": {sketch_err_p95:.4}\n  }}"
    );
    json
}

fn main() {
    let opts = HarnessOptions::from_args();
    if opts.list {
        for s in SCENARIOS {
            println!("{:14} {}", s.name, s.about);
        }
        return;
    }
    if let Some(name) = &opts.scenario {
        let scenario = SCENARIOS
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| {
                eprintln!(
                    "unknown scenario {name:?}; available: {}",
                    SCENARIOS
                        .iter()
                        .map(|s| s.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                std::process::exit(1);
            });
        (scenario.run)(&opts);
        println!("scenario {name} passed (single-scenario run: BENCH_serving.json not written)");
        return;
    }

    let fragments: Vec<String> = SCENARIOS.iter().map(|s| (s.run)(&opts)).collect();
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"quick\": {},", opts.quick);
    let _ = writeln!(json, "{}", fragments.join(",\n"));
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("wrote BENCH_serving.json");
}
