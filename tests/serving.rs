//! Cross-crate serving-layer tests: deterministic replay of whole fleets and
//! end-to-end latency/throughput behaviour under rising load.

use sim_core::SimDuration;
use tz_hal::PlatformProfile;
use tzllm::serving::{ConfigError, RetentionPolicy, Server, ServingConfig};
use workloads::{ArrivalProcess, WorkloadSpec};

fn config() -> ServingConfig {
    ServingConfig::paper_default(PlatformProfile::rk3588())
}

fn catalogue() -> Vec<llm::ModelSpec> {
    llm::ModelSpec::catalogue()
}

/// The same traffic seed through the serving layer yields *byte-identical*
/// fleet stats across two runs — on both the serial device and the batched
/// dispatcher (twelve in flight + restore-ahead + plan cache): the
/// `sim_core::rng` streams and the engine's insertion-order tie-breaking are
/// a determinism contract this test guards.
#[test]
fn deterministic_replay_yields_byte_identical_fleet_stats() {
    let workloads = [
        WorkloadSpec::standard(
            ArrivalProcess::Poisson { rate_per_sec: 0.05 },
            30,
            "qwen2.5-3b",
        ),
        WorkloadSpec::standard(
            ArrivalProcess::Bursty {
                bursts_per_sec: 0.01,
                burst_size: 4,
                intra_gap: SimDuration::from_millis(100),
            },
            24,
            "phi-3-3.8b",
        ),
        WorkloadSpec::standard(
            ArrivalProcess::ClosedLoop {
                sessions: 5,
                mean_think: SimDuration::from_secs(30),
            },
            25,
            "tinyllama-1.1b",
        ),
    ];
    let dispatchers = [
        ("batched", config()),
        ("serial", ServingConfig::serial(PlatformProfile::rk3588())),
    ];
    for (i, workload) in workloads.iter().enumerate() {
        for (name, cfg) in &dispatchers {
            let seed = 1000 + i as u64;
            let a = Server::run_workload(cfg.clone(), catalogue(), workload, seed);
            let b = Server::run_workload(cfg.clone(), catalogue(), workload, seed);
            assert_eq!(
                format!("{:?}", a.fleet),
                format!("{:?}", b.fleet),
                "workload {i} ({name}): fleet stats must replay byte-identically"
            );
            // The per-request records replay too (order, timing, cache state).
            assert_eq!(
                format!("{:?}", a.records),
                format!("{:?}", b.records),
                "workload {i} ({name}): records must replay byte-identically"
            );
            // A different seed actually changes the run (not vacuous).
            let c = Server::run_workload(cfg.clone(), catalogue(), workload, seed + 1);
            assert_ne!(format!("{:?}", a.fleet), format!("{:?}", c.fleet));
        }
    }
}

/// Raising the arrival rate must not lower throughput, and must not improve
/// tail TTFT: the latency-throughput trade-off the serving benchmark sweeps.
#[test]
fn higher_arrival_rate_degrades_tail_latency_gracefully() {
    let mut p99s = Vec::new();
    let mut throughputs = Vec::new();
    for rate in [0.02, 0.05, 0.2] {
        let workload = WorkloadSpec::standard(
            ArrivalProcess::Poisson { rate_per_sec: rate },
            40,
            "qwen2.5-3b",
        );
        let report = Server::run_workload(config(), catalogue(), &workload, 7);
        assert_eq!(report.fleet.completed + report.fleet.rejected, 40);
        p99s.push(report.fleet.ttft_ms.unwrap().p99);
        throughputs.push(report.fleet.throughput_rps);
    }
    assert!(
        p99s.windows(2).all(|w| w[1] >= w[0]),
        "p99 TTFT must not improve with load: {p99s:?}"
    );
    assert!(
        throughputs.windows(2).all(|w| w[1] >= w[0] * 0.95),
        "throughput must not collapse: {throughputs:?}"
    );
}

/// With adaptive retention the fleet's p50 service TTFT is strictly below
/// the all-cold baseline — compared request-for-request on the *same* traffic
/// (same seed, so identical prompts), since prompt length varies per request.
#[test]
fn warm_p50_beats_cold_start() {
    let workload = WorkloadSpec::standard(
        ArrivalProcess::Poisson { rate_per_sec: 0.02 },
        20,
        "qwen2.5-3b",
    );

    let mut cold_cfg = config();
    cold_cfg.retention = RetentionPolicy::ReleaseAll;
    let cold = Server::run_workload(cold_cfg, catalogue(), &workload, 3);

    let mut warm_cfg = config();
    warm_cfg.retention = RetentionPolicy::Adaptive { step_fraction: 0.5 };
    let warm = Server::run_workload(warm_cfg, catalogue(), &workload, 3);

    let cold_p50 = cold.fleet.service_ttft_ms.unwrap().p50;
    let warm_p50 = warm.fleet.service_ttft_ms.unwrap().p50;
    assert!(
        warm_p50 < cold_p50,
        "warm p50 {warm_p50} must beat cold p50 {cold_p50}"
    );
    // Request-for-request, a warm cache never hurts — and helps once warm.
    for (c, w) in cold.records.iter().zip(&warm.records) {
        assert_eq!(c.request, w.request);
        assert!(w.report.ttft <= c.report.ttft);
    }
    assert!(warm.records[2].report.ttft < cold.records[2].report.ttft);
}

/// `ServingConfig::validate` rejects each field the server cannot run
/// outside its range with a typed error that names the field and value,
/// and accepts the shipped configurations and the edges of every range.
#[test]
fn validate_rejects_each_out_of_range_field() {
    type Edit = fn(&mut ServingConfig);
    let cases: [(Edit, Option<ConfigError>); 10] = [
        (|c| c.max_inflight = 1, None),
        (|c| c.prefill_chunk_tokens = 1, None),
        (|c| c.kv.budget_fraction = 0.0, None),
        (
            |c| c.retention = RetentionPolicy::Adaptive { step_fraction: 1.0 },
            None,
        ),
        (|c| c.max_inflight = 0, Some(ConfigError::ZeroMaxInflight)),
        (
            |c| c.prefill_chunk_tokens = 0,
            Some(ConfigError::ZeroPrefillChunkTokens),
        ),
        (
            |c| c.retention = RetentionPolicy::Adaptive { step_fraction: 1.5 },
            Some(ConfigError::StepFraction(1.5)),
        ),
        (
            |c| {
                c.retention = RetentionPolicy::Adaptive {
                    step_fraction: -0.25,
                }
            },
            Some(ConfigError::StepFraction(-0.25)),
        ),
        (
            |c| c.kv.budget_fraction = 1.01,
            Some(ConfigError::KvBudgetFraction(1.01)),
        ),
        (
            |c| c.kv.budget_fraction = -0.5,
            Some(ConfigError::KvBudgetFraction(-0.5)),
        ),
    ];
    for (i, (edit, expected)) in cases.into_iter().enumerate() {
        let mut c = config();
        edit(&mut c);
        assert_eq!(c.validate().err(), expected, "case {i}");
    }
    for shipped in [
        config(),
        ServingConfig::serial(PlatformProfile::rk3588()),
        ServingConfig::chat_default(PlatformProfile::rk3588()),
    ] {
        assert_eq!(shipped.validate(), Ok(()));
    }
    // NaN is outside every range (and never equal to itself, so match it).
    let mut c = config();
    c.retention = RetentionPolicy::Adaptive {
        step_fraction: f64::NAN,
    };
    assert!(matches!(c.validate(), Err(ConfigError::StepFraction(v)) if v.is_nan()));
    c = config();
    c.kv.budget_fraction = f64::NAN;
    let err = c.validate().expect_err("NaN is rejected");
    assert!(matches!(err, ConfigError::KvBudgetFraction(v) if v.is_nan()));
    assert_eq!(
        err.to_string(),
        "kv.budget_fraction = NaN, must be in [0, 1]"
    );
    assert_eq!(
        ConfigError::ZeroMaxInflight.to_string(),
        "max_inflight = 0, must be at least 1"
    );
}

/// A server with no in-flight slot would silently lose every admitted
/// request; it is refused when it is built, with the field named.
#[test]
#[should_panic(expected = "invalid serving config: max_inflight = 0")]
fn a_server_without_an_inflight_slot_is_refused_when_built() {
    let mut c = config();
    c.max_inflight = 0;
    let _ = Server::new(c, catalogue());
}
