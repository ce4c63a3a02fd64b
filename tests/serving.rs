//! Cross-crate serving-layer tests: deterministic replay of whole fleets and
//! end-to-end latency/throughput behaviour under rising load.

use sim_core::SimDuration;
use tz_hal::PlatformProfile;
use tzllm::serving::{RetentionPolicy, Server, ServingConfig};
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
