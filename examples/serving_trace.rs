//! Serving telemetry end to end: run a small cold-heavy fleet with the
//! span store live, print the TTFT waterfall and the critical-path
//! attribution report, and export a Chrome trace-event file.
//!
//! The trace opens directly in Perfetto (https://ui.perfetto.dev) or
//! `chrome://tracing`: one track per request showing the lifecycle tiling
//! (queued → framework-init → working-alloc → kv-unseal →
//! restore-pipeline → prefill → decode), and one track per device lane
//! (npu, flash, cpu) showing batched steps, restore-aheads and occupancy
//! levels.  The numbers (queue depth, step times, lane busy time) live in
//! the report's stats and in `ServingConfig::metrics`, not in the trace.
//!
//! Run with: `cargo run --release --example serving_trace [-- <out.json>]`

use tz_hal::PlatformProfile;
use tzllm::serving::{Server, ServingConfig};
use workloads::{ArrivalProcess, WorkloadSpec};

const MODELS: [&str; 3] = ["tinyllama-1.1b", "qwen2.5-3b", "phi-3-3.8b"];

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "serving_trace.json".into());

    // The paper-default batched dispatcher with the observer switched on.
    // Telemetry is observe-only: this run is bit-for-bit the run you get
    // with the flag off (proven in crates/bench/tests/serial_reproduction).
    let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
    config.telemetry = true;

    // Cold-heavy traffic — every model eviction forces the full restoration
    // pipeline, which is where the trace is interesting.
    let workload =
        WorkloadSpec::standard_multi(ArrivalProcess::Poisson { rate_per_sec: 0.06 }, 40, &MODELS);
    let catalogue = MODELS
        .iter()
        .map(|m| llm::ModelSpec::by_name(m).expect("catalogue model"))
        .collect();
    let report = Server::run_workload(config, catalogue, &workload, 0xC01D);

    println!("{}", tzllm::ttft_waterfall(&report));

    let cp = tzllm::critical_path_report(&report);
    println!("{}", cp.render_text());

    let telemetry = report.telemetry.as_ref().expect("telemetry was enabled");
    println!(
        "recorded {} spans across {} requests; {} batched steps, longest {:.2} ms",
        telemetry.spans().len(),
        report.records.len(),
        report.fleet.batch_steps,
        report.fleet.max_batch_step_ms,
    );

    let json = telemetry.chrome_trace_json();
    std::fs::write(&out, &json).expect("write trace file");
    println!(
        "\nwrote {} ({} KiB) — open it at https://ui.perfetto.dev",
        out,
        json.len() / 1024
    );
}
