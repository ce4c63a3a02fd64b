//! The escape-hatch equivalence tests: each optimisation layer, switched
//! off, must reproduce the committed benchmark artifact of the layer below
//! it — not just match itself in-process, but land on the *exact* numbers
//! in `BENCH_baseline.json` at the precision the file records.
//!
//! The three proofs:
//!
//! * With `speculation` disabled (the default), the step loop is the PR-6
//!   batched dispatcher: no draft entry is wired, no acceptance RNG is
//!   drawn, and the committed batched numbers reproduce digit-for-digit.
//! * With `telemetry: true`, every event time, RNG draw and statistic is
//!   unchanged — the span store is observe-only, so the telemetry-on run
//!   is bit-for-bit the telemetry-off run (which itself reproduces the
//!   committed baseline above).
//! * With `metrics: Some(window)`, the windowed metrics registry records
//!   per-class counters, gauges and log-bucketed histograms without
//!   drawing randomness or scheduling an event — the metrics-on run is
//!   bit-for-bit the metrics-off run, which in turn is the baseline run.
//!
//! CI runs these tests in their own step and greps the harness summary for
//! `3 passed`, so a rename, an `#[ignore]`, or a filter that silently skips
//! one fails the bench job: an escape hatch is only trustworthy while its
//! proof actually executes.

use std::collections::BTreeSet;

use bench::json::{parse_flat, JsonValue};
use sim_core::{SimDuration, Track};
use tz_hal::PlatformProfile;
use tzllm::serving::{Server, ServingConfig, ServingReport, SpeculationConfig};
use workloads::{ArrivalProcess, WorkloadSpec};

const MODELS: [&str; 3] = ["tinyllama-1.1b", "qwen2.5-3b", "phi-3-3.8b"];

/// Replicates `perf_smoke`'s cold-heavy run (full mode: 400 requests,
/// seed 0xC01D) — the workload the committed baseline's dispatch numbers
/// were measured on.
fn cold_heavy(config: ServingConfig, rate: f64) -> ServingReport {
    let workload =
        WorkloadSpec::standard_multi(ArrivalProcess::Poisson { rate_per_sec: rate }, 400, &MODELS);
    let catalogue = MODELS
        .iter()
        .map(|m| llm::ModelSpec::by_name(m).expect("catalogue model"))
        .collect();
    Server::run_workload(config, catalogue, &workload, 0xC01D)
}

#[test]
fn speculation_off_reproduces_the_committed_batched_baseline() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_baseline.json"
    ))
    .expect("committed baseline exists");
    let baseline = parse_flat(&text).expect("committed baseline parses");
    assert_eq!(
        baseline["quick"],
        JsonValue::Bool(false),
        "the committed baseline must be a full-mode run"
    );
    let expect = |key: &str| {
        baseline[key]
            .as_number()
            .unwrap_or_else(|| panic!("{key} is a number in the committed baseline"))
    };

    let profile = PlatformProfile::rk3588();

    // `paper_default` ships with speculation off: the batched step loop must
    // land on the committed PR-6 batched numbers digit-for-digit, with the
    // speculation telemetry stone dead.
    let batched = cold_heavy(ServingConfig::paper_default(profile.clone()), 0.06);
    let p95_s = batched.fleet.ttft_ms.expect("records").p95 / 1e3;
    assert_eq!(
        format!("{p95_s:.3}"),
        format!("{:.3}", expect("cold_heavy.p95_ttft_s_batched")),
        "batched cold-heavy p95 TTFT drifted from the committed baseline"
    );
    let sat = cold_heavy(ServingConfig::paper_default(profile.clone()), 0.5);
    assert_eq!(
        format!("{:.4}", sat.fleet.throughput_rps),
        format!("{:.4}", expect("saturation.throughput_rps_batched")),
        "batched saturation throughput drifted from the committed baseline"
    );
    assert_eq!(batched.fleet.spec_steps, 0);
    assert_eq!(batched.fleet.spec_proposed_tokens, 0);

    // And the escape hatch really is that step loop: the paper's
    // speculation setup with its depth cap at zero wires no draft and is
    // bit-for-bit the same run.
    let mut off = ServingConfig::paper_default(profile);
    off.speculation = SpeculationConfig::paper_default();
    off.speculation.k = 0;
    let off_run = cold_heavy(off, 0.06);
    assert_eq!(
        format!("{:?}", off_run.fleet),
        format!("{:?}", batched.fleet)
    );
    assert_eq!(
        format!("{:?}", off_run.records),
        format!("{:?}", batched.records)
    );
}

#[test]
fn telemetry_is_observe_only() {
    let profile = PlatformProfile::rk3588();

    // The default run: telemetry off, the configuration whose numbers the
    // committed baseline records (and which the test above pins to it).
    let off = cold_heavy(ServingConfig::paper_default(profile.clone()), 0.06);
    assert!(
        off.telemetry.is_none(),
        "telemetry is off by default and must export nothing"
    );

    // The same run with the span store live: every record, every fleet
    // statistic and every resource integral must be bit-for-bit identical —
    // recording spans draws no randomness and schedules no event.
    let mut config = ServingConfig::paper_default(profile);
    config.telemetry = true;
    let on = cold_heavy(config, 0.06);
    assert_eq!(format!("{:?}", on.fleet), format!("{:?}", off.fleet));
    assert_eq!(format!("{:?}", on.records), format!("{:?}", off.records));
    assert_eq!(
        format!("{:?}", on.resources),
        format!("{:?}", off.resources)
    );

    // And the observer really observed: spans for every request, a
    // non-trivial export, and the lifecycle tiling reconciling with each
    // recorded TTFT exactly.
    let telemetry = on.telemetry.as_ref().expect("telemetry was enabled");
    assert!(!telemetry.spans().is_empty());
    let request_tracks: BTreeSet<Track> = telemetry
        .spans()
        .iter()
        .map(|s| s.track)
        .filter(|t| matches!(t, Track::Request(_)))
        .collect();
    assert_eq!(request_tracks.len(), on.records.len());
    for r in &on.records {
        assert_eq!(
            telemetry.request_ttft_span_sum(r.request.id),
            r.ttft_e2e(),
            "request {} span sum must equal its recorded TTFT",
            r.request.id
        );
    }
}

#[test]
fn metrics_are_observe_only() {
    let profile = PlatformProfile::rk3588();

    // The default run: windowed metrics off, the configuration whose
    // numbers the committed baseline records.
    let off = cold_heavy(ServingConfig::paper_default(profile.clone()), 0.06);
    assert!(
        off.metrics.is_none(),
        "metrics are off by default and must export nothing"
    );

    // The same run with the metrics registry live: every record, every
    // fleet statistic and every resource integral must be bit-for-bit
    // identical — bumping integer counters and log-histogram buckets draws
    // no randomness and schedules no event.
    let mut config = ServingConfig::paper_default(profile);
    config.metrics = Some(SimDuration::from_secs(60));
    let on = cold_heavy(config, 0.06);
    assert_eq!(format!("{:?}", on.fleet), format!("{:?}", off.fleet));
    assert_eq!(format!("{:?}", on.records), format!("{:?}", off.records));
    assert_eq!(
        format!("{:?}", on.resources),
        format!("{:?}", off.resources)
    );

    // And the registry really recorded: a completion counter reconciling
    // with the record list exactly, and a TTFT observation (cold or
    // follow-up) for every completed request.
    let metrics = on.metrics.as_ref().expect("metrics were enabled");
    assert!(metrics.is_enabled());
    assert!(metrics.series_count() > 0);
    let completed: u64 = metrics
        .counter_classes("requests_completed")
        .into_iter()
        .flat_map(|class| metrics.counter_series("requests_completed", class))
        .flat_map(|series| series.values())
        .sum();
    assert_eq!(completed, on.records.len() as u64);
    let ttft_observed: u64 = ["ttft_cold", "ttft_followup"]
        .into_iter()
        .flat_map(|name| {
            metrics
                .histogram_classes(name)
                .into_iter()
                .filter_map(move |class| metrics.merged_histogram(name, class))
        })
        .map(|h| h.count())
        .sum();
    assert_eq!(ttft_observed, on.records.len() as u64);
}
