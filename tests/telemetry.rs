//! End-to-end properties of the serving telemetry subsystem: lifecycle
//! spans reconcile exactly with recorded TTFTs, lane occupancy never
//! exceeds capacity, the step loop's batch/spec/chunk spans show up when
//! the corresponding features run, and the Chrome trace-event export is
//! structurally sound.  The observe-only proof (telemetry on == telemetry
//! off, bit for bit, against the committed baseline) lives in
//! `crates/bench/tests/serial_reproduction.rs`.

use sim_core::{Phase, SimDuration, Track};
use tz_hal::PlatformProfile;
use tzllm::serving::{Server, ServingConfig, ServingReport, SpeculationConfig};
use workloads::{ArrivalProcess, WorkloadSpec};

const MODELS: [&str; 3] = ["tinyllama-1.1b", "qwen2.5-3b", "phi-3-3.8b"];

fn catalogue() -> Vec<llm::ModelSpec> {
    MODELS
        .iter()
        .map(|m| llm::ModelSpec::by_name(m).expect("catalogue model"))
        .collect()
}

fn cold_heavy_traced(requests: usize) -> ServingReport {
    let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
    config.telemetry = true;
    let workload = WorkloadSpec::standard_multi(
        ArrivalProcess::Poisson { rate_per_sec: 0.1 },
        requests,
        &MODELS,
    );
    Server::run_workload(config, catalogue(), &workload, 0x7E1E)
}

#[test]
fn telemetry_is_off_by_default_and_exports_nothing() {
    let config = ServingConfig::paper_default(PlatformProfile::rk3588());
    assert!(!config.telemetry);
    let workload =
        WorkloadSpec::standard_multi(ArrivalProcess::Poisson { rate_per_sec: 0.2 }, 10, &MODELS);
    let report = Server::run_workload(config, catalogue(), &workload, 1);
    assert!(report.telemetry.is_none());
}

#[test]
fn lifecycle_spans_tile_each_requests_ttft_exactly() {
    let report = cold_heavy_traced(60);
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    assert_eq!(report.records.len(), 60);
    for r in &report.records {
        // The TTFT phases tile [arrival, first_token] without gap or
        // overlap: exact nanosecond equality, no rounding slack.
        assert_eq!(
            telemetry.request_ttft_span_sum(r.request.id),
            r.ttft_e2e(),
            "request {} span sum != recorded TTFT",
            r.request.id
        );
        // And they really tile: sorted by start, consecutive spans abut.
        let mut spans: Vec<_> = telemetry
            .request_spans(r.request.id)
            .filter(|s| s.phase.counts_toward_ttft())
            .collect();
        spans.sort_by_key(|s| s.start);
        assert_eq!(spans.first().expect("spans exist").start, r.arrival);
        for w in spans.windows(2) {
            assert_eq!(
                w[0].end, w[1].start,
                "request {} lifecycle spans must abut",
                r.request.id
            );
        }
        assert_eq!(spans.last().expect("spans exist").end, r.first_token);
        // Decode follows the first token and stays out of the TTFT sum.
        let decode: Vec<_> = telemetry
            .request_spans(r.request.id)
            .filter(|s| s.phase == Phase::Decode)
            .collect();
        for d in decode {
            assert_eq!(d.start, r.first_token);
            assert_eq!(d.end, r.completed);
        }
    }
}

#[test]
fn joined_requests_tile_their_ttft_without_a_framework_init_span() {
    let report = cold_heavy_traced(60);
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    let profile = PlatformProfile::rk3588();
    // A request that dispatched into its model's live context pays no
    // framework init and allocates only its KV cache.
    let (joined, idle): (Vec<_>, Vec<_>) = report
        .records
        .iter()
        .partition(|r| r.report.breakdown.framework_init == SimDuration::ZERO);
    assert!(
        !joined.is_empty(),
        "the cold-heavy trace must join live contexts"
    );
    assert!(!idle.is_empty(), "and dispatch into idle ones");
    for r in joined {
        assert_eq!(r.report.breakdown.working_alloc, profile.kv_cache_alloc);
        // The zero-length init phase is skipped, and the remaining phases
        // still sum to the TTFT to the nanosecond (that they abut is checked
        // for every request above).
        assert_eq!(
            telemetry.request_ttft_span_sum(r.request.id),
            r.ttft_e2e(),
            "joined request {} span sum != recorded TTFT",
            r.request.id
        );
        assert!(
            telemetry
                .request_spans(r.request.id)
                .all(|s| s.phase != Phase::FrameworkInit),
            "joined request {} recorded a framework-init span",
            r.request.id
        );
    }
    // Idle dispatches still show their checkpoint restore.
    for r in idle {
        assert!(telemetry
            .request_spans(r.request.id)
            .any(|s| s.phase == Phase::FrameworkInit));
    }
}

#[test]
fn step_loop_spans_cover_batching_and_chunked_prefills() {
    let report = cold_heavy_traced(60);
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    let count = |phase: Phase| {
        telemetry
            .spans()
            .iter()
            .filter(|s| s.phase == phase)
            .count()
    };
    assert_eq!(
        count(Phase::BatchStep) as u64,
        report.fleet.batch_steps,
        "one BatchStep span per batched step"
    );
    assert!(
        count(Phase::PrefillChunk) > 0,
        "chunked prefills must appear on the NPU track"
    );
    // Chunk spans nest inside their step: every PrefillChunk lies within
    // some BatchStep interval on the same lane track.
    let steps: Vec<_> = telemetry
        .spans()
        .iter()
        .filter(|s| s.phase == Phase::BatchStep)
        .collect();
    for chunk in telemetry
        .spans()
        .iter()
        .filter(|s| s.phase == Phase::PrefillChunk)
    {
        assert!(
            steps.iter().any(|st| st.track == chunk.track
                && st.start <= chunk.start
                && chunk.end <= st.end),
            "prefill chunk must nest inside a batched step"
        );
    }
    assert!(
        report.fleet.mean_batch_occupancy >= 1.0,
        "steps always carry at least one sequence"
    );
}

#[test]
fn speculative_steps_record_draft_and_verify_spans() {
    let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
    config.telemetry = true;
    config.speculation = SpeculationConfig::paper_default();
    let workload =
        WorkloadSpec::standard_multi(ArrivalProcess::Poisson { rate_per_sec: 0.1 }, 40, &MODELS);
    let report = Server::run_workload(config, catalogue(), &workload, 0x5bec);
    assert!(report.fleet.spec_steps > 0, "speculation must engage");
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    let spans = |phase: Phase| {
        telemetry
            .spans()
            .iter()
            .filter(move |s| s.phase == phase)
            .count()
    };
    assert!(spans(Phase::SpecDraft) > 0, "draft rounds must be visible");
    assert_eq!(
        spans(Phase::SpecDraft),
        spans(Phase::SpecVerify),
        "every draft pass pairs with a verify sweep"
    );
}

#[test]
fn occupancy_spans_respect_lane_capacities() {
    let report = cold_heavy_traced(60);
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    let mut occupancy_spans = 0usize;
    for s in telemetry.spans() {
        if s.phase != Phase::Occupancy {
            continue;
        }
        occupancy_spans += 1;
        assert!(matches!(s.track, Track::Lane(_)));
        let label = telemetry.resolve(s.label);
        let (name, level) = label
            .split_once('=')
            .expect("occupancy label is name=level");
        let level: u64 = level.parse().expect("numeric level");
        let lane = report
            .resources
            .iter()
            .find(|l| l.name == name)
            .expect("occupancy span names a registered lane");
        assert!(
            level >= 1 && level <= lane.capacity,
            "lane {name} occupancy {level} outside [1, {}]",
            lane.capacity
        );
        assert!(s.end > s.start, "occupancy segments have extent");
    }
    assert!(
        occupancy_spans > 0,
        "the ledger journal must yield segments"
    );
}

#[test]
fn chrome_trace_export_is_structurally_sound() {
    let report = cold_heavy_traced(30);
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    let json = telemetry.chrome_trace_json();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.trim_end().ends_with("]}"));
    // One complete event per span and metadata for both track processes.
    assert_eq!(
        json.matches("\"ph\":\"X\"").count(),
        telemetry.spans().len()
    );
    assert!(json.contains("\"name\":\"requests\""));
    assert!(json.contains("\"name\":\"lanes\""));
    // Every request track is named with its model and session style.
    assert!(json.matches("\"ph\":\"M\"").count() >= report.records.len());
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "braces and brackets balance");

    // The textual reports ride on the same data.
    let waterfall = tzllm::ttft_waterfall(&report);
    assert_eq!(waterfall.lines().count(), report.records.len() + 1);
    let cp = tzllm::critical_path_report(&report);
    assert!(
        cp.attributed_fraction() >= 0.90,
        "cold TTFT attribution fell to {:.1}%",
        cp.attributed_fraction() * 100.0
    );
}

#[test]
fn sealing_shows_up_on_the_cpu_lane_under_kv_pressure() {
    let mut config = ServingConfig::chat_default(PlatformProfile::rk3588());
    config.kv.budget_fraction = 0.02;
    config.telemetry = true;
    config.metrics = Some(SimDuration::from_secs(60));
    let workload = WorkloadSpec::chat(6, 48, SimDuration::from_secs(30), "qwen2.5-3b");
    let report = Server::run_workload(
        config,
        vec![llm::ModelSpec::qwen2_5_3b()],
        &workload,
        0xCAA7,
    );
    assert!(
        report.fleet.kv_spilled_bytes > 0,
        "the squeezed budget must force sealing"
    );
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    assert!(
        telemetry.spans().iter().any(|s| s.phase == Phase::Seal),
        "seal events must be visible on the lane tracks"
    );
    let metrics = report.metrics.as_ref().expect("metrics were enabled");
    let sealed: u64 = metrics
        .counter_classes("kv_sealed_bytes")
        .into_iter()
        .flat_map(|class| metrics.counter_series("kv_sealed_bytes", class))
        .flat_map(|series| series.values())
        .sum();
    assert_eq!(
        sealed, report.fleet.kv_spilled_bytes,
        "the sealed-bytes counter must account every spilled byte"
    );
}
