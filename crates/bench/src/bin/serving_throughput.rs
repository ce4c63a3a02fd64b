//! Serving benchmark: the latency-throughput curve of one TZ-LLM device.
//!
//! Sweeps Poisson arrival rate × model × dispatcher × retention over the
//! standard benchmark mix and reports fleet throughput, TTFT percentiles
//! (end-to-end, queueing included), queue depth, cache hit-fraction, decode
//! stall and NPU utilisation.  Two dispatchers are compared at every point:
//!
//! * `serial` — the strict one-request-at-a-time device of the paper's
//!   prototype: the step loop with one request in flight and no
//!   restore-ahead;
//! * `batched` — the default dispatcher: the batched step loop over up to
//!   twelve requests in flight, with restore-ahead and the plan cache, so
//!   decode of one request overlaps restore+prefill of the next.
//!
//! And two retention policies: all-cold (`ReleaseAll`, every request
//! restores from flash) and the adaptive partial-parameter cache.  The
//! `mixed-3` row drives three models round-robin — the cold-heavy shape
//! where restore-ahead pays off most.
//!
//! Run with: `cargo run --release -p bench --bin serving_throughput`
//! (`--quick` for a reduced sweep).

use bench::{fmt, HarnessOptions, ResultTable};
use llm::ModelSpec;
use tz_hal::PlatformProfile;
use tzllm::serving::{RetentionPolicy, Server, ServingConfig};
use workloads::{ArrivalProcess, WorkloadSpec};

struct Scenario {
    label: &'static str,
    models: Vec<ModelSpec>,
}

fn main() {
    let opts = HarnessOptions::from_args();
    let requests = if opts.quick { 30 } else { 120 };
    let scenarios: Vec<Scenario> = if opts.quick {
        vec![Scenario {
            label: "qwen2.5-3b",
            models: vec![ModelSpec::qwen2_5_3b()],
        }]
    } else {
        vec![
            Scenario {
                label: "tinyllama-1.1b",
                models: vec![ModelSpec::tinyllama_1_1b()],
            },
            Scenario {
                label: "qwen2.5-3b",
                models: vec![ModelSpec::qwen2_5_3b()],
            },
            Scenario {
                label: "llama-3-8b",
                models: vec![ModelSpec::llama3_8b()],
            },
            Scenario {
                label: "mixed-3",
                models: vec![
                    ModelSpec::tinyllama_1_1b(),
                    ModelSpec::qwen2_5_3b(),
                    ModelSpec::phi3_3_8b(),
                ],
            },
        ]
    };
    // Arrival rates around each model's service capacity: the interesting part
    // of the curve is where utilisation approaches one.
    let rates: Vec<f64> = if opts.quick {
        vec![0.02, 0.1, 0.4]
    } else {
        vec![0.01, 0.02, 0.05, 0.1, 0.2, 0.4]
    };

    let mut table = ResultTable::new(
        "serving_throughput",
        &[
            "scenario",
            "dispatch",
            "policy",
            "rate_rps",
            "tput_rps",
            "p50_ttft_s",
            "p95_ttft_s",
            "p99_ttft_s",
            "mean_qdepth",
            "hit_frac",
            "stall_ms",
            "npu_util",
            "rejected",
        ],
    );

    for scenario in &scenarios {
        let model_names: Vec<&str> = scenario.models.iter().map(|m| m.name.as_str()).collect();
        for &(dispatch, serial) in &[("serial", true), ("batched", false)] {
            for &(label, retention) in &[
                ("cold", RetentionPolicy::ReleaseAll),
                (
                    "adaptive",
                    RetentionPolicy::Adaptive {
                        step_fraction: 0.25,
                    },
                ),
            ] {
                for &rate in &rates {
                    let mut config = if serial {
                        ServingConfig::serial(PlatformProfile::rk3588())
                    } else {
                        ServingConfig::paper_default(PlatformProfile::rk3588())
                    };
                    config.retention = retention;
                    let workload = WorkloadSpec::standard_multi(
                        ArrivalProcess::Poisson { rate_per_sec: rate },
                        requests,
                        &model_names,
                    );
                    let report =
                        Server::run_workload(config, scenario.models.clone(), &workload, 0xBEEF);
                    let fleet = &report.fleet;
                    let ttft = fleet.ttft_ms.expect("non-empty run");
                    table.push_row(vec![
                        scenario.label.to_string(),
                        dispatch.to_string(),
                        label.to_string(),
                        fmt(rate, 2),
                        fmt(fleet.throughput_rps, 3),
                        fmt(ttft.p50 / 1e3, 3),
                        fmt(ttft.p95 / 1e3, 3),
                        fmt(ttft.p99 / 1e3, 3),
                        fmt(fleet.mean_queue_depth, 2),
                        fmt(fleet.mean_cached_fraction, 2),
                        fmt(fleet.mean_decode_stall_ms, 1),
                        fmt(fleet.npu_utilisation, 3),
                        fleet.rejected.to_string(),
                    ]);
                }
            }
        }
    }
    table.finish();
    println!(
        "Reading the curve: p95/p99 TTFT rises with the arrival rate (queueing) while throughput \
         tracks the offered load until the device saturates.  At every loaded point the batched \
         dispatcher's tail TTFT sits below the serial device's — restore-ahead hides cold \
         restores behind decode and the step loop shares the NPU, at the price of a decode \
         stall.  On the serial device the adaptive cache keeps warm p50 TTFT below the all-cold \
         p50 row-for-row; batched, the two converge (queueing shifts dominate the remaining \
         restore cost)."
    );
}
