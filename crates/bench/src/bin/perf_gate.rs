//! The CI perf-regression gate: diffs the fresh `BENCH_serving.json`
//! against the committed `BENCH_baseline.json` with per-metric tolerances
//! and fails (exit 1) with a readable table when a metric regresses.
//!
//! Wall-clock *absolutes* are machine-dependent and only checked for
//! presence; everything gated is either a simulated quantity (deterministic
//! given the code) or a same-machine ratio, so the tolerances can be tight
//! without flaking across CI runners:
//!
//! * ratios / improvements (plan-cache speedup, TTFT improvements, hit
//!   rates) must stay within a factor of their baseline;
//! * simulated p95 TTFTs must not grow past `1.15x` baseline;
//! * sketch quantile errors must stay within the sketch's own relative-error
//!   guarantee (an absolute bound, not a ratio of the last run);
//! * the spill, restore-ahead and dedup counters must stay alive — a
//!   refactor that silently stops exercising those paths fails the gate
//!   (this replaces the old `grep`-for-field CI step).
//!
//! Usage:
//! `cargo run --release -p bench --bin perf_gate -- \
//!    [--current BENCH_serving.json] [--baseline BENCH_baseline.json] \
//!    [--write-baseline] [--json <path>]`
//!
//! `--json <path>` additionally writes the diff as machine-readable JSON
//! (one object per gated metric plus an overall verdict) for CI
//! annotations and build artifacts.

use std::collections::BTreeMap;
use std::process::ExitCode;

use bench::json::{parse_flat, JsonValue};

/// How one metric is judged against the baseline.
#[derive(Debug, Clone, Copy)]
enum Check {
    /// Recorded only: the field must exist in the current run.
    Present,
    /// Bigger is better: `current >= baseline * factor`.
    MinRatio(f64),
    /// Smaller is better: `current <= baseline * factor`.
    MaxRatio(f64),
    /// An absolute guarantee, independent of the baseline: `current <= bound`.
    AtMost(f64),
    /// The counter must be strictly positive (the code path is alive).
    Positive,
}

struct Gate {
    key: &'static str,
    check: Check,
}

const GATES: &[Gate] = &[
    // Recorded, machine-dependent absolutes.
    Gate {
        key: "pipeline_simulate_us",
        check: Check::Present,
    },
    Gate {
        key: "sweep_wallclock_ms_plan_cache_off",
        check: Check::Present,
    },
    Gate {
        key: "sweep_wallclock_ms_plan_cache_on",
        check: Check::Present,
    },
    Gate {
        key: "chat.followup_p95_ttft_s_baseline",
        check: Check::Present,
    },
    Gate {
        key: "shared_prefix.first_turn_p95_s_unshared",
        check: Check::Present,
    },
    // Same-machine ratios and simulated quantities: gated.
    Gate {
        key: "plan_cache_speedup",
        check: Check::MinRatio(0.8),
    },
    Gate {
        key: "plan_cache_hit_rate",
        check: Check::MinRatio(0.95),
    },
    // The serial device (the step loop at one request in flight) and the
    // batched dispatcher on the same cold-heavy traffic, plus the step
    // loop's health counters.  perf_smoke itself asserts the batched p95
    // stays below the serial one and the throughput multiple stays >= 2x.
    Gate {
        key: "cold_heavy.p95_ttft_s_serial",
        check: Check::MaxRatio(1.15),
    },
    Gate {
        key: "saturation.throughput_rps_serial",
        check: Check::MinRatio(0.9),
    },
    Gate {
        key: "cold_heavy.p95_ttft_s_batched",
        check: Check::MaxRatio(1.05),
    },
    Gate {
        key: "saturation.throughput_rps_batched",
        check: Check::MinRatio(0.9),
    },
    // The saturation run's decode tail: a change that stretches decode
    // steps under overload again (a prefill chunk the pass was not already
    // paying for) shows up here first.
    Gate {
        key: "saturation.tbt_p99_ms_batched",
        check: Check::MaxRatio(1.05),
    },
    Gate {
        key: "batching.mean_batch_occupancy",
        check: Check::MinRatio(0.85),
    },
    Gate {
        key: "batching.batched_decode_tps",
        check: Check::MinRatio(0.9),
    },
    Gate {
        key: "batching.agent_burst_p95_ttft_s",
        check: Check::MaxRatio(1.15),
    },
    // The agent fleet's typical first token: short turns whose prefills
    // would otherwise wait out a long one for the chunk slot.
    Gate {
        key: "batching.agent_burst_p50_ttft_s",
        check: Check::MaxRatio(1.05),
    },
    Gate {
        key: "batching.mean_decode_stall_ms",
        check: Check::MaxRatio(1.15),
    },
    Gate {
        key: "chat.kv_hit_rate",
        check: Check::MinRatio(0.95),
    },
    Gate {
        key: "chat.followup_p95_ttft_s_kv",
        check: Check::MaxRatio(1.15),
    },
    Gate {
        key: "chat.followup_improvement_x",
        check: Check::MinRatio(0.8),
    },
    // Liveness of the spill / restore-ahead / sharing paths.
    Gate {
        key: "chat.kv_spilled_mib",
        check: Check::Positive,
    },
    Gate {
        key: "chat.kv_restore_ahead_mib",
        check: Check::Positive,
    },
    Gate {
        key: "shared_prefix.first_turn_p95_s_shared",
        check: Check::MaxRatio(1.15),
    },
    Gate {
        key: "shared_prefix.first_turn_improvement_pct",
        check: Check::MinRatio(0.8),
    },
    Gate {
        key: "shared_prefix.shared_hit_rate",
        check: Check::MinRatio(0.9),
    },
    Gate {
        key: "shared_prefix.deduped_mib",
        check: Check::MinRatio(0.8),
    },
    // Quantized sealed spill: the capacity multiplier is layout arithmetic
    // (deterministic), the p95s are simulated, and the compressed/dequant
    // counters prove the quantized paths stayed live.
    Gate {
        key: "spill_quant.followup_p95_ttft_s_f16",
        check: Check::Present,
    },
    Gate {
        key: "spill_quant.followup_p95_ttft_s_int8",
        check: Check::MaxRatio(1.15),
    },
    Gate {
        key: "spill_quant.int8_page_capacity_x",
        check: Check::MinRatio(0.95),
    },
    Gate {
        key: "spill_quant.spilled_compressed_mib",
        check: Check::Positive,
    },
    Gate {
        key: "spill_quant.dequant_mib",
        check: Check::Positive,
    },
    // Speculative decoding: the decode-heavy throughput multiple is the
    // headline (the ISSUE's >=1.5x target is asserted absolutely inside
    // perf_smoke; the gate watches for drift against the baseline), the
    // acceptance/overhead telemetry pins the workload-keyed model, and the
    // cold-heavy guard keeps the draft from moving first-token latency.
    Gate {
        key: "speculation.agent_throughput_x",
        check: Check::MinRatio(0.95),
    },
    Gate {
        key: "speculation.agent_throughput_rps_spec",
        check: Check::MinRatio(0.9),
    },
    Gate {
        key: "speculation.accepted_token_rate",
        check: Check::MinRatio(0.9),
    },
    Gate {
        key: "speculation.draft_overhead_share",
        check: Check::MaxRatio(1.15),
    },
    Gate {
        key: "speculation.effective_tokens_per_step",
        check: Check::MinRatio(0.9),
    },
    // The saturated fleet is where the per-step depth chooser earns its
    // keep: a regression to drafting deep on full batches shows up here.
    Gate {
        key: "speculation.saturated_throughput_rps",
        check: Check::MinRatio(0.95),
    },
    Gate {
        key: "speculation.cold_p95_ttft_s_spec",
        check: Check::MaxRatio(1.05),
    },
    Gate {
        key: "speculation.cold_p95_ttft_s_batched_ref",
        check: Check::Present,
    },
    // Figure-binary headline numbers: fully deterministic single-request
    // evaluations, so the tolerances can be tight — a calibration regression
    // in the figure CSVs trips these even if serving metrics survive.
    Gate {
        key: "figures.fig09_qwen128_tzllm_s",
        check: Check::MaxRatio(1.05),
    },
    Gate {
        key: "figures.fig09_qwen128_reduction_pct",
        check: Check::MinRatio(0.95),
    },
    // fig11's TZ-LLM decode speed: a change to the decode weight stream or
    // the per-token handoff price moves a gated number, not only a CSV.
    Gate {
        key: "figures.fig11_qwen128_tzllm_tps",
        check: Check::MinRatio(0.95),
    },
    Gate {
        key: "figures.fig14_qwen128_warm_norm",
        check: Check::MaxRatio(1.05),
    },
    // Sharded parallel fleet: the experiment shape (shards, requests) must
    // not silently shrink, the merged totals and aggregate percentiles are
    // deterministic simulated quantities, the determinism flag proves the
    // threads-1/2/8 sweep compared byte-identical, and the heterogeneity
    // ratio keeps the device mix alive.  Wall-clock scaling is recorded
    // only (runner-dependent); its floors are asserted inside perf_smoke
    // on capable hosts.
    Gate {
        key: "fleet_scale.shards",
        check: Check::MinRatio(1.0),
    },
    Gate {
        key: "fleet_scale.requests",
        check: Check::MinRatio(1.0),
    },
    Gate {
        key: "fleet_scale.wallclock_s_threads1",
        check: Check::Present,
    },
    Gate {
        key: "fleet_scale.wallclock_s_threads8",
        check: Check::Present,
    },
    Gate {
        key: "fleet_scale.speedup_8t",
        check: Check::Present,
    },
    Gate {
        key: "fleet_scale.sim_req_per_min_8t",
        check: Check::Present,
    },
    Gate {
        key: "fleet_scale.completed",
        check: Check::MinRatio(1.0),
    },
    Gate {
        key: "fleet_scale.digest_matches_across_threads",
        check: Check::Positive,
    },
    Gate {
        key: "fleet_scale.agg_p50_ttft_ms",
        check: Check::MaxRatio(1.05),
    },
    Gate {
        key: "fleet_scale.agg_p95_ttft_ms",
        check: Check::MaxRatio(1.05),
    },
    Gate {
        key: "fleet_scale.entry_vs_flagship_p50_x",
        check: Check::MinRatio(0.9),
    },
    // Windowed metrics over the fleet: the merged registry must keep its
    // series populated, and the log-bucketed sketch's quantile error against
    // the exact sample-union percentiles must stay within the sketch's
    // relative-error guarantee.  The error itself is not gated against the
    // last run: where the exact p95 falls inside its bucket moves with any
    // TTFT shift, so the error wanders inside the bound with the sketch code
    // unchanged.
    Gate {
        key: "fleet_scale.metrics_series",
        check: Check::Positive,
    },
    Gate {
        key: "fleet_scale.sketch_p95_rel_err_pct",
        check: Check::AtMost(SKETCH_ERR_BOUND_PCT),
    },
    // SLO burn-rate monitor: the experiment shape must not shrink, the
    // per-class attainments and the burn-rate peak are deterministic
    // simulated quantities, the episode counter proves the overload
    // detector stayed live, and the exposition sample count proves the
    // OpenMetrics export (and its strict validation) actually ran.
    Gate {
        key: "slo_monitor.requests",
        check: Check::MinRatio(1.0),
    },
    Gate {
        key: "slo_monitor.windows",
        check: Check::Positive,
    },
    Gate {
        key: "slo_monitor.cold_attainment",
        check: Check::MinRatio(0.95),
    },
    Gate {
        key: "slo_monitor.tbt_attainment",
        check: Check::MinRatio(0.95),
    },
    Gate {
        key: "slo_monitor.burn_rate_peak",
        check: Check::MaxRatio(1.05),
    },
    Gate {
        key: "slo_monitor.overload_episodes",
        check: Check::Positive,
    },
    Gate {
        key: "slo_monitor.episode_first_window",
        check: Check::Present,
    },
    Gate {
        key: "slo_monitor.om_samples",
        check: Check::Positive,
    },
    Gate {
        key: "slo_monitor.sketch_p95_rel_err_pct",
        check: Check::AtMost(SKETCH_ERR_BOUND_PCT),
    },
];

/// The log-bucketed sketch's quantile guarantee, in percent: every quantile
/// read is within `ALPHA` relative error of the exact sample.
const SKETCH_ERR_BOUND_PCT: f64 = 100.0 * sim_core::metrics::ALPHA;

struct Row {
    key: &'static str,
    baseline: String,
    current: String,
    constraint: String,
    pass: bool,
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "missing".into(), |v| format!("{v:.3}"))
}

fn number(map: &BTreeMap<String, JsonValue>, key: &str) -> Option<f64> {
    map.get(key).and_then(JsonValue::as_number)
}

/// Judges every gate, returning one table row per metric.
fn evaluate(
    baseline: &BTreeMap<String, JsonValue>,
    current: &BTreeMap<String, JsonValue>,
) -> Vec<Row> {
    GATES
        .iter()
        .map(|gate| {
            let b = number(baseline, gate.key);
            let c = number(current, gate.key);
            let (constraint, pass) = match gate.check {
                Check::Present => ("recorded".to_string(), current.contains_key(gate.key)),
                Check::Positive => ("> 0".to_string(), c.is_some_and(|c| c > 0.0)),
                Check::MinRatio(factor) => {
                    let limit = b.map(|b| b * factor);
                    (
                        format!(">= {}", fmt_opt(limit)),
                        matches!((c, limit), (Some(c), Some(l)) if c >= l),
                    )
                }
                Check::MaxRatio(factor) => {
                    let limit = b.map(|b| b * factor);
                    (
                        format!("<= {}", fmt_opt(limit)),
                        matches!((c, limit), (Some(c), Some(l)) if c <= l),
                    )
                }
                Check::AtMost(bound) => (
                    format!("<= {}", fmt_opt(Some(bound))),
                    c.is_some_and(|c| c <= bound),
                ),
            };
            Row {
                key: gate.key,
                baseline: fmt_opt(b),
                current: fmt_opt(c),
                constraint,
                pass,
            }
        })
        .collect()
}

/// Renders the diff as machine-readable JSON: one object per gated metric
/// (`baseline`/`current` are numbers or `null` for missing/non-numeric
/// values) plus the overall verdict.
fn render_json(rows: &[Row]) -> String {
    let num = |s: &str| {
        s.parse::<f64>()
            .map_or_else(|_| "null".to_string(), |v| format!("{v}"))
    };
    let mut out = String::from("{\n  \"metrics\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"key\": \"{}\", \"baseline\": {}, \"current\": {}, \
             \"constraint\": \"{}\", \"pass\": {}}}{}\n",
            r.key,
            num(&r.baseline),
            num(&r.current),
            r.constraint,
            r.pass,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    let failures = rows.iter().filter(|r| !r.pass).count();
    out.push_str(&format!(
        "  ],\n  \"gates\": {},\n  \"failures\": {},\n  \"pass\": {}\n}}\n",
        rows.len(),
        failures,
        failures == 0
    ));
    out
}

fn print_table(rows: &[Row]) {
    let headers = ["metric", "baseline", "current", "constraint", "status"];
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        widths[0] = widths[0].max(r.key.len());
        widths[1] = widths[1].max(r.baseline.len());
        widths[2] = widths[2].max(r.current.len());
        widths[3] = widths[3].max(r.constraint.len());
    }
    let line = |cells: [&str; 5]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(6)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", line(headers));
    for r in rows {
        println!(
            "{}",
            line([
                r.key,
                &r.baseline,
                &r.current,
                &r.constraint,
                if r.pass { "ok" } else { "FAIL" },
            ])
        );
    }
}

fn main() -> ExitCode {
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut current_path = "BENCH_serving.json".to_string();
    let mut write_baseline = false;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = args.next().expect("--baseline takes a path"),
            "--current" => current_path = args.next().expect("--current takes a path"),
            "--write-baseline" => write_baseline = true,
            "--json" => json_path = Some(args.next().expect("--json takes a path")),
            other => {
                eprintln!("unknown argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }

    let current_text = match std::fs::read_to_string(&current_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {current_path}: {e} (run perf_smoke first)");
            return ExitCode::FAILURE;
        }
    };
    if write_baseline {
        std::fs::write(&baseline_path, &current_text).expect("write baseline");
        println!("wrote {baseline_path} from {current_path}");
        return ExitCode::SUCCESS;
    }
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {baseline_path}: {e} (commit a baseline with --write-baseline)");
            return ExitCode::FAILURE;
        }
    };
    let baseline = parse_flat(&baseline_text).expect("baseline parses");
    let current = match parse_flat(&current_text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{current_path} does not parse: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Quick runs shrink every scenario; comparing one against a full-size
    // baseline would gate apples against oranges.
    if baseline.get("quick") != current.get("quick") {
        eprintln!(
            "baseline and current disagree on --quick ({:?} vs {:?}); \
             regenerate with matching modes",
            baseline.get("quick"),
            current.get("quick")
        );
        return ExitCode::FAILURE;
    }

    let rows = evaluate(&baseline, &current);
    print_table(&rows);
    if let Some(path) = &json_path {
        std::fs::write(path, render_json(&rows)).expect("write JSON diff");
        println!("wrote {path}");
    }
    let failures: Vec<&Row> = rows.iter().filter(|r| !r.pass).collect();
    if failures.is_empty() {
        println!("\nperf gate: all {} metrics within tolerance", rows.len());
        ExitCode::SUCCESS
    } else {
        println!(
            "\nperf gate: {} of {} metrics regressed:",
            failures.len(),
            rows.len()
        );
        for r in &failures {
            println!(
                "  {}: current {} violates {}",
                r.key, r.current, r.constraint
            );
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(baseline: &str, current: &str) -> Vec<Row> {
        evaluate(
            &parse_flat(baseline).unwrap(),
            &parse_flat(current).unwrap(),
        )
    }

    #[test]
    fn identical_runs_pass_every_gate() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_baseline.json"
        ))
        .expect("committed baseline exists");
        let rows = run(&text, &text);
        assert_eq!(rows.len(), GATES.len());
        for r in &rows {
            assert!(r.pass, "{} fails against itself", r.key);
        }
    }

    #[test]
    fn a_deliberate_regression_fails_with_the_right_metric() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_baseline.json"
        ))
        .expect("committed baseline exists");
        // Slow the batched dispatcher's cold-heavy p95 by 2x and kill the
        // spill counter: both must be flagged, nothing else.
        let broken = {
            let map = parse_flat(&text).unwrap();
            let p95 = map["cold_heavy.p95_ttft_s_batched"].as_number().unwrap();
            text.replace(
                &format!("\"p95_ttft_s_batched\": {p95:.3}"),
                &format!("\"p95_ttft_s_batched\": {:.3}", p95 * 2.0),
            )
            .replace(
                "\"kv_spilled_mib\": ",
                "\"kv_spilled_mib\": 0.0, \"kv_spilled_mib_was\": ",
            )
        };
        let rows = run(&text, &broken);
        let failed: Vec<&str> = rows.iter().filter(|r| !r.pass).map(|r| r.key).collect();
        assert!(
            failed.contains(&"cold_heavy.p95_ttft_s_batched"),
            "{failed:?}"
        );
        assert!(failed.contains(&"chat.kv_spilled_mib"), "{failed:?}");
        assert_eq!(failed.len(), 2, "{failed:?}");
    }

    #[test]
    fn json_diff_covers_every_gate_and_balances() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_baseline.json"
        ))
        .expect("committed baseline exists");
        let json = render_json(&run(&text, &text));
        assert_eq!(json.matches("\"key\":").count(), GATES.len());
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains(&format!("\"gates\": {}", GATES.len())));
        // Balanced braces/brackets — keys and constraints contain no
        // string-context braces; CI additionally runs the file through a
        // real JSON parser.
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn sketch_error_is_judged_against_its_guarantee_not_the_last_run() {
        let baseline = r#"{"fleet_scale": {"sketch_p95_rel_err_pct": 0.265}}"#;
        let judge = |err: f64| {
            let current = format!(r#"{{"fleet_scale": {{"sketch_p95_rel_err_pct": {err}}}}}"#);
            run(baseline, &current)
                .into_iter()
                .find(|r| r.key == "fleet_scale.sketch_p95_rel_err_pct")
                .expect("the gate exists")
                .pass
        };
        // Nearly 3x the last run, still inside the 1% guarantee: passes.
        assert!(judge(0.720));
        assert!(judge(100.0 * sim_core::metrics::ALPHA));
        // Past the guarantee: fails, whatever the baseline said.
        assert!(!judge(1.01));
    }

    #[test]
    fn missing_metrics_fail_their_gates() {
        let baseline = r#"{"plan_cache_speedup": 4.0}"#;
        let current = r#"{"unrelated": 1.0}"#;
        let rows = run(baseline, current);
        for r in rows {
            assert!(!r.pass, "{} passed without data", r.key);
        }
    }
}
