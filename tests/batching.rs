//! Acceptance properties of token-level continuous batching with chunked
//! prefill: the step loop is deterministic, smaller prefill chunks never
//! worsen decode sharing stall, no decode is ever starved behind
//! back-to-back prefills, a chunk at the in-flight cap with a backlog fills
//! the decode pass's weight-read slack (and still advances a compute-bound
//! batch's prefill), a slot a completion frees is refilled before the next
//! chunk is sized, the windowed metrics count every chunk under the mode
//! that sized it and its span label names that mode, the chunk slot serves
//! the least remaining prefill work first but never ahead of a restore of
//! the prefill's model, and the batched dispatcher wins the
//! saturation-throughput comparison against the serial device at no worse
//! cold-heavy p95 TTFT.

use std::collections::{BTreeMap, BTreeSet};

use sim_core::{Phase, SimDuration, SimTime, Track, WindowedMetrics};
use tz_hal::PlatformProfile;
use tzllm::serving::{RequestRecord, Server, ServingConfig, ServingReport};
use workloads::{ArrivalProcess, WorkloadSpec};

const MODELS: [&str; 3] = ["tinyllama-1.1b", "qwen2.5-3b", "phi-3-3.8b"];

fn catalogue() -> Vec<llm::ModelSpec> {
    MODELS
        .iter()
        .map(|m| llm::ModelSpec::by_name(m).expect("catalogue model"))
        .collect()
}

fn one_model() -> Vec<llm::ModelSpec> {
    vec![llm::ModelSpec::by_name("qwen2.5-3b").expect("catalogue model")]
}

fn agent_burst_run(config: ServingConfig, seed: u64) -> ServingReport {
    let workload = WorkloadSpec::agent_burst(10, 120, SimDuration::from_secs(2), "qwen2.5-3b");
    Server::run_workload(config, one_model(), &workload, seed)
}

/// The step loop is a deterministic discrete-event computation: same seed,
/// same trace — every record and every counter.
#[test]
fn the_step_loop_is_deterministic() {
    let config = ServingConfig::paper_default(PlatformProfile::rk3588());
    let a = agent_burst_run(config.clone(), 0xA6E7);
    let b = agent_burst_run(config.clone(), 0xA6E7);
    assert_eq!(format!("{:?}", a.fleet), format!("{:?}", b.fleet));
    assert_eq!(format!("{:?}", a.records), format!("{:?}", b.records));
    assert!(a.fleet.batch_steps > 0, "the run must actually batch");
    // A different seed produces a genuinely different trace.
    let c = agent_burst_run(config, 0xA6E8);
    assert_ne!(format!("{:?}", a.records), format!("{:?}", c.records));
}

/// Chunk-size sweep property on a fixed trace: a long decode is running
/// when a long prefill lands; every step that carries a chunk stalls the
/// decode by at most the chunk seconds beyond the weight-read slack, so a
/// smaller chunk absorbs more of its window in slack and the decode's
/// sharing stall never gets worse as chunks shrink.  (Closed-loop workloads
/// don't have this monotonicity — completion times feed back into arrival
/// times, so the whole trace diverges; the property is about the step loop,
/// not the feedback loop.)
#[test]
fn smaller_chunks_never_worsen_decode_sharing_stall() {
    let run = |chunk_tokens: usize| {
        let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
        config.prefill_chunk_tokens = chunk_tokens;
        let mut server = Server::new(config, one_model());
        server.submit_at(SimTime::ZERO, 0, "qwen2.5-3b", 64, 400);
        // Lands mid-decode; output 1, so it never joins the decode batch and
        // the only interaction is its chunks interleaving with the decode.
        server.submit_at(SimTime::from_secs(8), 1, "qwen2.5-3b", 420, 1);
        let report = server.run();
        let r0 = report.records.iter().find(|r| r.request.id == 0).unwrap();
        r0.stall_sharing.as_millis_f64()
    };
    let stalls: Vec<(usize, f64)> = [4096usize, 512, 128, 32]
        .into_iter()
        .map(|c| (c, run(c)))
        .collect();
    for pair in stalls.windows(2) {
        let ((big, stall_big), (small, stall_small)) = (pair[0], pair[1]);
        assert!(
            stall_small <= stall_big + 1e-6,
            "chunk {small} must not stall the decode more than chunk {big}: \
             {stall_small} vs {stall_big}"
        );
    }
    assert!(
        stalls.last().unwrap().1 < stalls[0].1,
        "the sweep must show a real win: {stalls:?}"
    );
}

/// Starvation guard: a long decode with back-to-back long prefills landing
/// on top of it is never paused — every step it is a member of yields a
/// token, and its total decode time stays bounded by its token count times
/// the longest step.
#[test]
fn no_decode_starves_behind_back_to_back_prefills() {
    let config = ServingConfig::paper_default(PlatformProfile::rk3588());
    let mut server = Server::new(config, one_model());
    // One long decode...
    server.submit_at(SimTime::ZERO, 0, "qwen2.5-3b", 64, 400);
    // ...then a stampede of long prefills with single-token outputs.
    for i in 1..6 {
        server.submit_at(SimTime::ZERO, i, "qwen2.5-3b", 420, 1);
    }
    let report = server.run();
    assert_eq!(report.fleet.completed, 6);
    let r0 = report
        .records
        .iter()
        .find(|r| r.request.id == 0)
        .expect("the long decode completes");
    assert_eq!(
        report.fleet.batch_max_steps_behind, 0,
        "every step a decode is a member of must yield exactly one token"
    );
    let decode_secs = r0.completed.saturating_since(r0.first_token).as_secs_f64();
    let tokens = (r0.request.output_len - 1) as f64;
    let max_step_secs = report.fleet.max_batch_step_ms / 1e3;
    assert!(
        decode_secs <= tokens * max_step_secs + 1e-9,
        "decode {decode_secs}s must be bounded by {tokens} steps of at most \
         {max_step_secs}s"
    );
}

/// One slack- or floor-sized prefill chunk as the NPU track shows it.
struct SizedChunk {
    request: u64,
    chunk_ns: u64,
    step_ns: u64,
}

/// Every prefill chunk of a traced run whose span label ends in ` {mode}`
/// (`slack` or `floor`), with the length of the step that carried it.
fn sized_chunks(report: &ServingReport, mode: &str) -> Vec<SizedChunk> {
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    let npu = |track: &Track| matches!(track, Track::Lane(_));
    let steps: BTreeMap<SimTime, SimDuration> = telemetry
        .spans()
        .iter()
        .filter(|s| s.phase == Phase::BatchStep && npu(&s.track))
        .map(|s| (s.start, s.duration()))
        .collect();
    telemetry
        .spans()
        .iter()
        .filter(|s| s.phase == Phase::PrefillChunk)
        .filter_map(|s| {
            let label = telemetry.resolve(s.label);
            let request = label.strip_suffix(mode)?.strip_suffix(' ')?;
            let request = request.split(' ').nth(1)?;
            Some(SizedChunk {
                request: request.parse().expect("the label names the request"),
                chunk_ns: s.duration().as_nanos(),
                step_ns: steps[&s.start].as_nanos(),
            })
        })
        .collect()
}

/// Nanoseconds of one weight pass plus the handoffs of a one-model step.
fn weight_pass_and_handoffs_ns(spec: &llm::ModelSpec) -> f64 {
    let profile = PlatformProfile::rk3588();
    let weight = llm::CostModel::rk3588()
        .batched_step_costs(spec)
        .weight_pass_secs;
    let handoffs = (profile.codriver_switch_cost() * 2 * spec.layers as u64).as_secs_f64();
    (weight + handoffs) * 1e9
}

/// An open-loop overload on one model that holds every slot with requests
/// waiting (qwen2.5-3b, Poisson at 1 rps, 60 requests), telemetry on.
fn traced_overload() -> ServingReport {
    let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
    config.telemetry = true;
    let overload = WorkloadSpec::standard(
        ArrivalProcess::Poisson { rate_per_sec: 1.0 },
        60,
        "qwen2.5-3b",
    );
    Server::run_workload(config, one_model(), &overload, 7)
}

/// Stall-free prefill under backlog: an open-loop overload on one model
/// holds every slot with requests waiting, so each prefill chunk is sized
/// to the step's weight-read slack, and every step carrying such a chunk
/// lasts exactly the weight pass plus handoffs the decodes alone would
/// have paid, to the nanosecond rounding the loop carries.
#[test]
fn a_slack_chunk_at_the_cap_costs_the_decodes_nothing() {
    let report = traced_overload();
    assert_eq!(report.fleet.completed + report.fleet.rejected, 60);
    let expected_ns = weight_pass_and_handoffs_ns(&one_model()[0]);
    let chunks = sized_chunks(&report, "slack");
    assert!(
        chunks.len() >= 100,
        "the overload must hold the cap with a queue: {} slack chunks",
        chunks.len()
    );
    for c in &chunks {
        assert!(
            (c.step_ns as f64 - expected_ns).abs() <= 1.0,
            "req {}: a step carrying a {} ns slack chunk lasted {} ns, not {expected_ns} ns",
            c.request,
            c.chunk_ns,
            c.step_ns
        );
    }
}

/// A completion at the cap refills its slot before the next step is
/// priced: whenever a step starts at a completion with every slot taken
/// again (a waiting request was dispatched into the freed slot, no other
/// service phase blocking it), a request still queued and decodes in the
/// step, the prefill chunk it carries is slack-sized, not the fixed chunk
/// of a device below its cap.
#[test]
fn a_refilled_slot_sizes_the_next_chunk_to_the_slack() {
    let report = traced_overload();
    let cap = ServingConfig::paper_default(PlatformProfile::rk3588()).max_inflight;
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    let labels = |phase: Phase| -> BTreeMap<SimTime, &str> {
        telemetry
            .spans()
            .iter()
            .filter(|s| s.phase == phase && matches!(s.track, Track::Lane(_)))
            .map(|s| (s.start, telemetry.resolve(s.label)))
            .collect()
    };
    let (steps, chunks) = (labels(Phase::BatchStep), labels(Phase::PrefillChunk));
    let records = &report.records;
    let completions: BTreeSet<SimTime> = records.iter().map(|r| r.completed).collect();
    let mut refilled = 0;
    for t in completions {
        let Some(chunk) = chunks.get(&t) else {
            continue;
        };
        let occupancy: usize = steps[&t]
            .strip_prefix("step occ=")
            .and_then(|n| n.parse().ok())
            .expect("a step label names its occupancy");
        let inflight = records
            .iter()
            .filter(|r| r.dispatched <= t && r.completed > t)
            .count();
        let waiting = records.iter().any(|r| r.arrival <= t && r.dispatched > t);
        if inflight == cap && waiting && occupancy > 1 {
            refilled += 1;
            assert!(
                chunk.ends_with(" slack"),
                "the step after the completion at {t:?} refilled the cap but carried `{chunk}`"
            );
        }
    }
    assert!(refilled >= 20, "{refilled} refilled completions");
}

/// The record of request `id`.
fn by_id(report: &ServingReport, id: u64) -> &RequestRecord {
    report
        .records
        .iter()
        .find(|r| r.request.id == id)
        .expect("every request completes")
}

/// A record's prefill NPU window, which the step loop slices into chunks.
fn npu_window(r: &RequestRecord) -> SimDuration {
    (r.report.npu_busy + r.report.breakdown.npu_overhead).min(r.report.ttft)
}

/// Sixteen tinyllama-1.1b requests for twelve slots, all at t = 0, each
/// decoding a 1,456-token context: the full batch is compute-bound.
fn compute_bound_at_the_cap(config: ServingConfig) -> ServingReport {
    let mut server = Server::new(config, vec![llm::ModelSpec::tinyllama_1_1b()]);
    for id in 0..16 {
        server.submit_at(SimTime::ZERO, id, "tinyllama-1.1b", 256, 1200);
    }
    server.run()
}

/// The chunk floor: at the cap with a backlog, a batch of long-context
/// tinyllama-1.1b decodes is compute-bound and leaves no slack, so each
/// such chunk is one prompt token's share of its prefill's NPU window and
/// its span says ` floor`.  Every prefill still advances every step, every
/// request completes, and requests are conserved.
#[test]
fn a_compute_bound_batch_at_the_cap_still_completes_every_prefill() {
    let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
    config.telemetry = true;
    let report = compute_bound_at_the_cap(config);
    assert_eq!((report.fleet.completed, report.fleet.rejected), (16, 0));
    for r in &report.records {
        assert!(r.dispatched <= r.first_token && r.first_token < r.completed);
    }
    // One prompt token's share of a record's prefill window, as the step
    // loop slices it.
    let token_share_ns = |r: &RequestRecord| {
        let new_tokens = r.request.prompt_len - r.kv_reused_tokens;
        npu_window(r).as_secs_f64() / new_tokens as f64 * 1e9
    };
    let expected_ns = weight_pass_and_handoffs_ns(&llm::ModelSpec::tinyllama_1_1b());
    let floored = sized_chunks(&report, "floor");
    for c in &floored {
        let record = by_id(&report, c.request);
        assert!(
            c.step_ns as f64 > expected_ns + 1.0,
            "req {}: a floor chunk rode a {} ns step, no longer than the weight pass",
            c.request,
            c.step_ns
        );
        assert!(
            (c.chunk_ns as f64 - token_share_ns(record)).abs() <= 1.0,
            "req {}: a compute-bound step carried a {} ns chunk, not one token's {} ns",
            c.request,
            c.chunk_ns,
            token_share_ns(record)
        );
    }
    assert!(floored.len() >= 100, "{} floor-sized chunks", floored.len());
}

/// A counter's total over every window.
fn counted(metrics: &WindowedMetrics, name: &'static str, class: &'static str) -> u64 {
    metrics
        .counter_series(name, class)
        .map_or(0, |series| series.values().sum())
}

/// A chunk's span label names the mode the windowed metrics count it
/// under: with telemetry and metrics both on, the compute-bound probe's
/// spans ending ` slack` and ` floor` are exactly its `prefill_chunk_steps`
/// of those classes, and the rest are its fixed chunks.
#[test]
fn chunk_span_labels_name_the_counted_mode() {
    let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
    config.telemetry = true;
    config.metrics = Some(SimDuration::from_secs(60));
    let report = compute_bound_at_the_cap(config);
    let metrics = report.metrics.as_ref().expect("metrics were enabled");
    let mut sized = 0;
    for mode in ["slack", "floor"] {
        let spans = sized_chunks(&report, mode).len() as u64;
        assert!(spans > 0, "no {mode} chunk");
        assert_eq!(
            spans,
            counted(metrics, "prefill_chunk_steps", mode),
            "{mode}"
        );
        sized += spans;
    }
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    let spans = telemetry
        .spans()
        .iter()
        .filter(|s| s.phase == Phase::PrefillChunk)
        .count() as u64;
    assert_eq!(
        spans - sized,
        counted(metrics, "prefill_chunk_steps", "fixed")
    );
}

/// The windowed metrics count every step that carries a prefill chunk, and
/// its chunk nanoseconds, under the mode that sized the chunk: `fixed`
/// below the cap, `slack` at the cap with a backlog, `floor` where a
/// compute-bound pass left less slack than one prompt token's share.  The
/// chunks of each mode together cover every prefill's NPU window, and the
/// counting is observe-only.
#[test]
fn chunk_modes_are_counted_and_cover_every_prefill_window() {
    let run = |metrics: Option<SimDuration>| {
        let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
        config.metrics = metrics;
        compute_bound_at_the_cap(config)
    };
    let off = run(None);
    let on = run(Some(SimDuration::from_secs(60)));
    assert_eq!(format!("{:?}", on.fleet), format!("{:?}", off.fleet));
    assert_eq!(format!("{:?}", on.records), format!("{:?}", off.records));

    let metrics = on.metrics.as_ref().expect("metrics were enabled");
    let total = |name, mode| counted(metrics, name, mode);
    let modes = ["fixed", "floor", "slack"];
    assert_eq!(metrics.counter_classes("prefill_chunk_steps"), modes);
    assert_eq!(metrics.counter_classes("prefill_chunk_ns"), modes);
    for mode in modes {
        assert!(total("prefill_chunk_steps", mode) > 0, "no {mode} chunk");
    }
    let steps: u64 = modes.map(|m| total("prefill_chunk_steps", m)).iter().sum();
    let chunk_ns: u64 = modes.map(|m| total("prefill_chunk_ns", m)).iter().sum();
    let windows_ns: f64 = on
        .records
        .iter()
        .map(|r| npu_window(r).as_secs_f64() * 1e9)
        .sum();
    // Each chunk's nanoseconds are rounded once, and a prefill may leave up
    // to a nanosecond of its window unconsumed.
    let slop = steps as f64 * 0.5 + on.records.len() as f64;
    assert!(
        (chunk_ns as f64 - windows_ns).abs() <= slop,
        "{chunk_ns} chunk ns over {steps} steps vs {windows_ns} window ns"
    );
}

/// Least remaining prefill work first: with a qwen2.5-3b context live and
/// decoding, a 420-token joiner starts chunking, then a 72-token joiner
/// becomes ready; the short prefill takes the chunk slot from the long one,
/// so its first token comes first.
#[test]
fn a_short_prefill_takes_the_chunk_slot_from_a_long_one() {
    let config = ServingConfig::paper_default(PlatformProfile::rk3588());
    let mut server = Server::new(config, one_model());
    server.submit_at(SimTime::ZERO, 0, "qwen2.5-3b", 128, 512);
    server.submit_at(SimTime::from_secs(20), 1, "qwen2.5-3b", 420, 8);
    server.submit_at(SimTime::from_secs(21), 2, "qwen2.5-3b", 72, 8);
    let report = server.run();
    let (live, long, short) = (by_id(&report, 0), by_id(&report, 1), by_id(&report, 2));
    // Both join the live context, and the short one dispatches while the
    // long one is still prefilling.
    assert!(live.first_token < long.dispatched && long.completed < live.completed);
    assert_eq!(
        (long.report.restored_bytes, short.report.restored_bytes),
        (0, 0)
    );
    assert!(short.dispatched < long.first_token);
    assert!(
        short.first_token < long.first_token,
        "the 72-token prefill's first token {} must come before the 420-token one's {}",
        short.first_token,
        long.first_token
    );
}

/// The same-model guard: a joiner's NPU work reads the parameters an
/// earlier prefill of its model restored, so a short joiner never takes
/// the chunk slot from a cold opener; a short request on another model
/// does.
#[test]
fn a_short_prefill_never_overtakes_a_restore_of_its_model() {
    let run = |short_model: &str| {
        let config = ServingConfig::paper_default(PlatformProfile::rk3588());
        let mut server = Server::new(config, catalogue());
        server.submit_at(SimTime::ZERO, 0, "qwen2.5-3b", 420, 8);
        server.submit_at(SimTime::ZERO, 1, short_model, 72, 8);
        server.run()
    };
    let same = run("qwen2.5-3b");
    let (opener, joiner) = (by_id(&same, 0), by_id(&same, 1));
    assert!(opener.report.restored_bytes > 0);
    assert_eq!(
        (joiner.cached_fraction, joiner.report.restored_bytes),
        (1.0, 0)
    );
    // The joiner dispatches while the opener is still prefilling, and waits.
    assert!(joiner.dispatched < opener.first_token);
    assert!(
        opener.first_token < joiner.first_token,
        "the joiner's first token {} overtook the opener's {}",
        joiner.first_token,
        opener.first_token
    );

    let other = run("tinyllama-1.1b");
    let (opener, short) = (by_id(&other, 0), by_id(&other, 1));
    assert!(
        short.first_token < opener.first_token,
        "the other model's first token {} must overtake the opener's {}",
        short.first_token,
        opener.first_token
    );
}

/// The headline acceptance comparison: at an overload arrival rate on
/// cold-heavy multi-model traffic, continuous batching at least doubles the
/// serial device's saturation throughput; at a sub-saturation rate its
/// cold-heavy p95 TTFT is no more than 5 % above the serial device's.
#[test]
fn batching_doubles_saturation_throughput_at_equal_cold_heavy_p95() {
    let overload =
        WorkloadSpec::standard_multi(ArrivalProcess::Poisson { rate_per_sec: 0.5 }, 120, &MODELS);
    let serial = Server::run_workload(
        ServingConfig::serial(PlatformProfile::rk3588()),
        catalogue(),
        &overload,
        7,
    );
    let batched = Server::run_workload(
        ServingConfig::paper_default(PlatformProfile::rk3588()),
        catalogue(),
        &overload,
        7,
    );
    assert!(
        batched.fleet.throughput_rps >= 2.0 * serial.fleet.throughput_rps,
        "batched saturation throughput {} must be at least twice the serial device's {}",
        batched.fleet.throughput_rps,
        serial.fleet.throughput_rps
    );
    assert!(
        batched.fleet.mean_batch_occupancy > 1.5,
        "the overload must really fill the batch: {}",
        batched.fleet.mean_batch_occupancy
    );

    let quiet =
        WorkloadSpec::standard_multi(ArrivalProcess::Poisson { rate_per_sec: 0.06 }, 120, &MODELS);
    let serial = Server::run_workload(
        ServingConfig::serial(PlatformProfile::rk3588()),
        catalogue(),
        &quiet,
        7,
    );
    let batched = Server::run_workload(
        ServingConfig::paper_default(PlatformProfile::rk3588()),
        catalogue(),
        &quiet,
        7,
    );
    let (p95_serial, p95_batched) = (
        serial.fleet.ttft_ms.unwrap().p95,
        batched.fleet.ttft_ms.unwrap().p95,
    );
    assert!(
        p95_batched <= p95_serial * 1.05,
        "cold-heavy p95 TTFT must stay within 5%: batched {p95_batched} vs \
         serial {p95_serial}"
    );
}

/// Lane discipline under batching: the step loop's NPU hold, streaming
/// restores and chunked prefills never oversubscribe a lane, and everything
/// is released when the run drains.
#[test]
fn batched_lanes_never_exceed_capacity() {
    let workload = WorkloadSpec::agent_burst(16, 150, SimDuration::from_millis(500), "qwen2.5-3b");
    let report = Server::run_workload(
        ServingConfig::paper_default(PlatformProfile::rk3588()),
        one_model(),
        &workload,
        0x1A7E,
    );
    assert_eq!(report.fleet.completed + report.fleet.rejected, 150);
    for lane in &report.resources {
        assert!(
            lane.peak_in_use <= lane.capacity,
            "lane {} peaked at {} over capacity {}",
            lane.name,
            lane.peak_in_use,
            lane.capacity
        );
        assert_eq!(lane.in_use, 0, "lane {} still held after drain", lane.name);
    }
}
