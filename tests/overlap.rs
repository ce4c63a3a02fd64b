//! Correctness properties of the serving dispatcher's inter-request
//! overlap: resource capacity is never exceeded, restore-ahead never hurts
//! any individual request, the default dispatcher wins the acceptance
//! comparison against the serial device, and the plan cache is semantically
//! invisible.

use sim_core::{DetRng, Phase, SimDuration};
use tz_hal::PlatformProfile;
use tzllm::serving::{RetentionPolicy, Server, ServingConfig};
use workloads::{ArrivalProcess, WorkloadSpec};

const MODELS: [&str; 3] = ["tinyllama-1.1b", "qwen2.5-3b", "phi-3-3.8b"];

fn catalogue() -> Vec<llm::ModelSpec> {
    MODELS
        .iter()
        .map(|m| llm::ModelSpec::by_name(m).expect("catalogue model"))
        .collect()
}

fn cold_heavy(rate: f64, requests: usize) -> WorkloadSpec {
    WorkloadSpec::standard_multi(
        ArrivalProcess::Poisson { rate_per_sec: rate },
        requests,
        &MODELS,
    )
}

/// For any workload shape, arrival rate, slot count and retention policy:
/// no device lane (CPU cores, NPU, flash channel) is ever oversubscribed.
/// The ledger additionally panics inside the run on any transient
/// oversubscription, so this property is checked at every event, not just at
/// the end.
#[test]
fn no_lane_ever_exceeds_capacity() {
    let mut rng = DetRng::new(0x6f766572); // "over"
    for case in 0..24 {
        let rate = 0.02 + rng.next_f64() * 0.5;
        let requests = 10 + (rng.gen_range(0, 30) as usize);
        let max_inflight = 1 + (rng.gen_range(0, 4) as usize);
        let retention = *rng.choose(&[
            RetentionPolicy::ReleaseAll,
            RetentionPolicy::Adaptive {
                step_fraction: 0.25,
            },
            RetentionPolicy::KeepAll,
        ]);
        let process = *rng.choose(&[
            ArrivalProcess::Poisson { rate_per_sec: rate },
            ArrivalProcess::Bursty {
                bursts_per_sec: rate / 4.0,
                burst_size: 4,
                intra_gap: SimDuration::from_millis(50),
            },
            ArrivalProcess::ClosedLoop {
                sessions: 4,
                mean_think: SimDuration::from_secs(2),
            },
        ]);
        let seed = rng.gen_range(0, 1 << 20);

        let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
        config.max_inflight = max_inflight;
        config.retention = retention;
        let workload = WorkloadSpec::standard_multi(process, requests, &MODELS);
        let report = Server::run_workload(config, catalogue(), &workload, seed);
        assert_eq!(
            report.fleet.completed + report.fleet.rejected,
            requests,
            "case {case}: no request may vanish"
        );
        for lane in &report.resources {
            assert!(
                lane.peak_in_use <= lane.capacity,
                "case {case} ({max_inflight} slots, {retention:?}): lane {} peaked at {} \
                 over capacity {}",
                lane.name,
                lane.peak_in_use,
                lane.capacity
            );
            assert_eq!(
                lane.in_use, 0,
                "case {case}: lane {} still held after the run drained",
                lane.name
            );
        }
    }
}

/// Restore-ahead on the serial slot is a pure win: with dispatch order and
/// decode pacing identical to the serial dispatcher, pre-warming the next
/// request's cache can only move its (and every later request's) first token
/// earlier.  Tolerance: the pipeline scheduler's known ±5 ms priority
/// anomaly when a plan's cached prefix changes.
#[test]
fn restore_ahead_never_worsens_any_ttft_on_the_same_trace() {
    let workload = cold_heavy(0.08, 60);
    let mut cold_cfg = ServingConfig::serial(PlatformProfile::rk3588());
    cold_cfg.retention = RetentionPolicy::ReleaseAll;
    let serial = Server::run_workload(cold_cfg.clone(), catalogue(), &workload, 11);

    let mut ahead_cfg = cold_cfg;
    ahead_cfg.restore_ahead = true;
    let ahead = Server::run_workload(ahead_cfg, catalogue(), &workload, 11);

    assert_eq!(serial.records.len(), ahead.records.len());
    assert!(
        ahead.fleet.restore_ahead_bytes > 0,
        "the trace must actually exercise restore-ahead"
    );
    let tolerance = SimDuration::from_millis(5);
    let mut improved = 0usize;
    for (s, a) in serial.records.iter().zip(&ahead.records) {
        assert_eq!(s.request, a.request, "same trace, same dispatch order");
        assert!(
            a.ttft_e2e() <= s.ttft_e2e() + tolerance,
            "request {} got slower with restore-ahead: {} vs {}",
            a.request.id,
            a.ttft_e2e(),
            s.ttft_e2e()
        );
        if a.ttft_e2e() < s.ttft_e2e() {
            improved += 1;
        }
    }
    assert!(
        improved > serial.records.len() / 4,
        "restore-ahead should improve a sizeable share of requests ({improved})"
    );
}

/// When a dispatch needs the lanes a background restore-ahead holds, the
/// restore is cancelled mid-flight — and the ledger must account the
/// *truncated* interval, not the reserved one.  The proof is exact: each
/// lane's busy integral (`in_use × dt`), accumulated incrementally at
/// every acquire/release, must equal the integral recomputed from the
/// telemetry occupancy spans, which derive from the reservation journal's
/// actual release instants.  A restore credited to its reserved end would
/// leave the two disagreeing by the cancelled tail.
#[test]
fn interrupted_restore_ahead_truncates_ledger_busy_time() {
    let workload = cold_heavy(0.08, 60);
    let mut config = ServingConfig::serial(PlatformProfile::rk3588());
    config.retention = RetentionPolicy::ReleaseAll;
    config.restore_ahead = true;
    config.telemetry = true;
    let report = Server::run_workload(config, catalogue(), &workload, 11);
    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    assert!(
        telemetry.counter("restore_ahead.interrupted") > 0,
        "the trace must cancel at least one in-flight restore"
    );
    assert!(
        telemetry.counter("restore_ahead.completed") > 0,
        "and still let some restores run to completion"
    );

    for lane in &report.resources {
        let mut from_spans: u128 = 0; // nanoseconds × units
        for s in telemetry.spans() {
            if s.phase != Phase::Occupancy {
                continue;
            }
            let label = telemetry.resolve(s.label);
            let Some((name, level)) = label.split_once('=') else {
                continue;
            };
            if name != lane.name {
                continue;
            }
            let level: u128 = level.parse().expect("occupancy level");
            from_spans += level * s.duration().as_nanos() as u128;
        }
        assert_eq!(
            from_spans,
            lane.busy_unit_time.as_nanos() as u128,
            "lane {}: the busy integral must match the journal-derived \
             occupancy spans exactly — a cancelled restore contributes its \
             truncated interval, not the reserved one",
            lane.name
        );
    }

    // The cancelled restores are visible as such on the lane tracks, each
    // closed at its interruption instant (end == the moment the lanes were
    // handed to the dispatch, which the occupancy cross-check above pins).
    let interrupted = telemetry
        .spans()
        .iter()
        .filter(|s| {
            s.phase == Phase::RestoreAhead && telemetry.resolve(s.label).contains("(interrupted)")
        })
        .count();
    assert_eq!(
        interrupted as u64,
        telemetry.counter("restore_ahead.interrupted")
    );
}

/// The acceptance comparison: at a fixed sub-saturation arrival rate on
/// cold-heavy traffic, the default dispatcher strictly improves p95
/// end-to-end TTFT; at an overload rate, saturation throughput does not
/// regress.
#[test]
fn overlap_beats_serial_on_cold_heavy_traffic() {
    let workload = cold_heavy(0.06, 80);
    let serial = Server::run_workload(
        ServingConfig::serial(PlatformProfile::rk3588()),
        catalogue(),
        &workload,
        7,
    );
    let overlap = Server::run_workload(
        ServingConfig::paper_default(PlatformProfile::rk3588()),
        catalogue(),
        &workload,
        7,
    );
    let p95_serial = serial.fleet.ttft_ms.unwrap().p95;
    let p95_overlap = overlap.fleet.ttft_ms.unwrap().p95;
    assert!(
        p95_overlap < p95_serial,
        "overlap p95 {p95_overlap} must beat serial p95 {p95_serial}"
    );

    let overload = cold_heavy(0.5, 80);
    let serial = Server::run_workload(
        ServingConfig::serial(PlatformProfile::rk3588()),
        catalogue(),
        &overload,
        7,
    );
    let overlap = Server::run_workload(
        ServingConfig::paper_default(PlatformProfile::rk3588()),
        catalogue(),
        &overload,
        7,
    );
    assert!(
        overlap.fleet.throughput_rps >= serial.fleet.throughput_rps * 0.95,
        "saturation throughput must not regress: {} vs {}",
        overlap.fleet.throughput_rps,
        serial.fleet.throughput_rps
    );
}

/// The plan cache memoises deterministic computation, so enabling it must
/// not change a single bit of the serving outcome.
#[test]
fn plan_cache_is_semantically_transparent() {
    let workload = cold_heavy(0.1, 200);
    let mut no_cache = ServingConfig::paper_default(PlatformProfile::rk3588());
    no_cache.plan_cache_capacity = 0;
    let baseline = Server::run_workload(no_cache, catalogue(), &workload, 23);

    let mut tiny_cache = ServingConfig::paper_default(PlatformProfile::rk3588());
    tiny_cache.plan_cache_capacity = 16; // force wholesale evictions too
    let evicting = Server::run_workload(tiny_cache, catalogue(), &workload, 23);

    let big_cache = ServingConfig::paper_default(PlatformProfile::rk3588());
    let cached = Server::run_workload(big_cache, catalogue(), &workload, 23);

    for (label, run) in [("evicting", &evicting), ("default", &cached)] {
        assert_eq!(
            format!("{:?}", baseline.records),
            format!("{:?}", run.records),
            "{label}: records must be byte-identical with and without the plan cache"
        );
    }
    assert!(
        cached.fleet.plan_cache_hits > 0,
        "the default-capacity run must actually hit"
    );
}
