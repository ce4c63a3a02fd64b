//! The repository benchmark: runs one named workload through the public API
//! of the TZ-LLM reproduction, checks its outputs, and prints every metric by
//! name and unit, ending with one JSON line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_storm --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates an
//! untraced and a traced run of the same seed and reports the per-layer
//! metrics.  See `perfbench/README.md` for what each metric means.

mod extract;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use workload::{Workload, FLEET_SHARDS};

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// The seed held out for claims: never used while tuning a change.
const HELD_OUT_SEED: u64 = 101;
/// Fewest timed repetitions of a workload in one run, whatever `--seconds`
/// says, so the wall-clock metrics always have several samples.
const MIN_REPS: usize = 3;
/// Set-ups timed in one run for the `setup_s` median.  Set-up is cheap next
/// to the timed call.
const MIN_SETUPS: usize = 11;

/// End-to-end metrics (`--trace 0`): name and unit.
pub const TOP_METRICS: &[(&str, &str)] = &[
    ("ttft_p50_s", "s"),
    ("ttft_p99_s", "s"),
    ("tbt_p50_ms", "ms"),
    ("tbt_p99_ms", "ms"),
    ("slo_attainment", "ratio"),
    ("throughput_rps", "1/s"),
    ("completed_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("workloads.requests", "count"),
    ("serving.setup_s", "s"),
    ("serving.run_s", "s"),
    ("serving.self_s", "s"),
    ("serving.us_per_step", "us"),
    ("serving.batch_steps", "count"),
    ("serving.queue_wait_s_mean", "s"),
    ("serving.queue_wait_p99_s", "s"),
    ("serving.rejected", "count"),
    ("serving.cold_starts", "count"),
    ("serving.prefill_stall_s_mean", "s"),
    ("serving.stall_sharing_ms_mean", "ms"),
    ("serving.batch_occupancy_mean", "count"),
    ("serving.restore_ahead_mib", "MiB"),
    ("serving.lane_util.npu", "ratio"),
    ("serving.lane_util.flash", "ratio"),
    ("serving.lane_util.cpu", "ratio"),
    ("serving.spec_accept_rate", "ratio"),
    ("serving.spec_tokens_per_step", "count"),
    ("serving.spec_draft_overhead", "ratio"),
    ("system.plan_lookups", "count"),
    ("system.plan_misses", "count"),
    ("system.plan_hit_rate", "ratio"),
    ("system.framework_init_s_mean", "s"),
    ("system.working_alloc_s_mean", "s"),
    ("system.npu_overhead_s_mean", "s"),
    ("llm.graph_s", "s"),
    ("restore.plan_build_s", "s"),
    ("restore.ops_built", "count"),
    ("pipeline.simulate_s", "s"),
    ("pipeline.simulate_calls", "count"),
    ("pipeline.us_per_call", "us"),
    ("pipeline.makespan_s_mean", "s"),
    ("restore.path_io_s_mean", "s"),
    ("restore.path_cpu_s_mean", "s"),
    ("restore.path_compute_s_mean", "s"),
    ("kv.hit_rate", "ratio"),
    ("kv.shared_hit_rate", "ratio"),
    ("kv.reused_tokens", "count"),
    ("kv.spilled_mib", "MiB"),
    ("kv.unsealed_mib", "MiB"),
    ("kv.restore_ahead_mib", "MiB"),
    ("kv.dequant_mib", "MiB"),
    ("kv.dropped_mib", "MiB"),
    ("kv.deduped_mib", "MiB"),
    ("kv.unseal_excess_s_mean", "s"),
    ("fleet.run_s", "s"),
    ("fleet.reduce_s", "s"),
    ("fleet.merge_s", "s"),
    ("fleet.digest_s", "s"),
    ("fleet.shard_run_s.rk3588", "s"),
    ("fleet.shard_run_s.rk3576", "s"),
    ("fleet.shard_run_s.rk3566", "s"),
    ("fleet.straggler_ratio", "ratio"),
    ("metrics.series", "count"),
    ("metrics.bytes", "bytes"),
    ("slo.evaluate_s", "s"),
    ("slo.episodes", "count"),
    ("slo.burn_rate_peak", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("sim_req_per_s", "1/s"),
];

const USAGE: &str = "usage: perfbench --workload <fleet_storm|assistant_kv|agent_spec> \
[--seed <n>] [--seconds <s>] [--trace <0|1>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
        while let Some(flag) = args.next() {
            if flag == "--help" || flag == "-h" {
                return Err(format!(
                    "default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}"
                ));
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
                }
                "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| bad("a duration in seconds"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The outcome of a whole run: metrics by name, request counts, and the
/// failed output checks.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }

    /// Checks that must hold on every simulated result: request
    /// conservation and enough samples beyond each reported percentile.
    fn check_sim(&mut self, sim: &workload::SimE2e) {
        self.check(sim.completed + sim.rejected == sim.submitted, || {
            format!(
                "completed {} + rejected {} != submitted {}",
                sim.completed, sim.rejected, sim.submitted
            )
        });
        for (name, value) in [
            ("ttft_p50_s", sim.ttft_p50_s),
            ("ttft_p99_s", sim.ttft_p99_s),
            ("tbt_p50_ms", sim.tbt_p50_ms),
            ("tbt_p99_ms", sim.tbt_p99_ms),
            ("slo_attainment", sim.slo_attainment),
        ] {
            self.check(value.is_some(), || {
                format!(
                    "{name}: too few samples (ttft n={}, tbt n={}; need {} beyond p99)",
                    sim.ttft_n,
                    sim.tbt_n,
                    extract::MIN_TAIL_SAMPLES
                )
            });
        }
    }
}

/// The commit the checkout was taken from, read from `.git` when present.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident memory of this process, from `VmHWM`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// `--trace 0`: repeats setup + the timed call until `--seconds` have
/// passed (at least [`MIN_REPS`] times) and reports the end-to-end metrics:
/// the simulated ones from the first repetition (every repetition must match
/// it bit for bit), `setup_s` as the median set-up time.
fn untraced(args: &Args, threads: usize, report: &mut Report) {
    let start = Instant::now();
    // Set-ups are timed back to back before any simulation runs: a set-up
    // timed right after a simulation pays for the heap that run left
    // behind, which made the median jump by half between runs.
    let setup_s: Vec<f64> = (0..MIN_SETUPS)
        .map(|_| {
            let t = Instant::now();
            let prepared = workload::setup(args.workload, args.seed);
            let elapsed = t.elapsed().as_secs_f64();
            drop(prepared);
            elapsed
        })
        .collect();
    let mut rates = Vec::new();
    let mut first: Option<workload::Outcome> = None;
    while rates.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let prepared = workload::setup(args.workload, args.seed);
        let out = workload::run(args.workload, prepared, args.seed, threads);
        rates.push(out.sim.submitted as f64 / out.wall.as_secs_f64());
        report.attempted += out.sim.submitted;
        report.failed += out.sim.lost();
        match &first {
            None => {
                report.check_sim(&out.sim);
                first = Some(out);
            }
            Some(f) => report.check(
                f.sim.fingerprint() == out.sim.fingerprint() && f.digest == out.digest,
                || format!("repetition {} differs from the first", rates.len()),
            ),
        }
    }
    let sim = first.expect("at least one repetition").sim;
    report.notes.push(format!(
        "repetitions {}, ttft samples {}, tbt samples {}, submitted {}, rejected {}",
        rates.len(),
        sim.ttft_n,
        sim.tbt_n,
        sim.submitted,
        sim.rejected
    ));
    let spread = |v: &[f64]| {
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        format!(
            "min {lo:.6} median {:.6} max {hi:.6} over {}",
            extract::median(v),
            v.len()
        )
    };
    report
        .notes
        .push(format!("sim_req_per_s {}", spread(&rates)));
    report.notes.push(format!("setup_s {}", spread(&setup_s)));
    let m = &mut report.metrics;
    for (name, value) in [
        ("ttft_p50_s", sim.ttft_p50_s),
        ("ttft_p99_s", sim.ttft_p99_s),
        ("tbt_p50_ms", sim.tbt_p50_ms),
        ("tbt_p99_ms", sim.tbt_p99_ms),
        ("slo_attainment", sim.slo_attainment),
    ] {
        if let Some(v) = value {
            m.insert(name, v);
        }
    }
    m.insert("throughput_rps", sim.throughput_rps);
    m.insert(
        "completed_frac",
        extract::completed_frac(sim.completed, sim.submitted),
    );
    m.insert("setup_s", extract::median(&setup_s));
    if let Some(rss) = peak_rss_mib() {
        m.insert("peak_rss_mib", rss);
    }
}

/// `--trace 1`: alternates an untraced repetition and a traced one of the
/// same seed until `--seconds` have passed, checks that both give the same
/// simulated results, and reports the per-layer metrics (wall-clock ones as
/// medians over the repetitions).  `sim_req_per_s` comes from the untraced
/// repetitions: it is a wall-clock rate that moved by up to 2× with co-tenant
/// load on a shared host, too far for an end-to-end bound.
fn traced(args: &Args, threads: usize, report: &mut Report) {
    let start = Instant::now();
    let (mut untraced_wall, mut traced_wall) = (Vec::new(), Vec::new());
    let mut submitted = 0;
    let mut layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    while traced_wall.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let prepared = workload::setup(args.workload, args.seed);
        let out = workload::run(args.workload, prepared, args.seed, threads);
        let tr = trace::run(args.workload, args.seed, threads);
        report.attempted += out.sim.submitted + tr.sim.submitted;
        report.failed += out.sim.lost() + tr.sim.lost();
        if traced_wall.is_empty() {
            report.check_sim(&out.sim);
        }
        report.check(tr.sim.fingerprint() == out.sim.fingerprint(), || {
            "traced and untraced simulated metrics differ".into()
        });
        report.check(tr.digest == out.digest, || {
            format!(
                "fleet digest differs: traced {:?}, untraced {:?}",
                tr.digest, out.digest
            )
        });
        report.failures.extend(tr.failures);
        submitted = out.sim.submitted;
        untraced_wall.push(out.wall.as_secs_f64());
        traced_wall.push(tr.wall.as_secs_f64());
        for (name, value) in tr.layers {
            layers.entry(name).or_default().push(value);
        }
    }
    report
        .notes
        .push(format!("traced pairs {}", traced_wall.len()));
    for (name, values) in layers {
        report.metrics.insert(name, extract::median(&values));
    }
    report.metrics.insert(
        "bench.trace_overhead_frac",
        extract::median(&traced_wall) / extract::median(&untraced_wall) - 1.0,
    );
    report.metrics.insert(
        "sim_req_per_s",
        submitted as f64 / extract::median(&untraced_wall),
    );
    // Layers that do not run in this workload report zero.
    for (name, _) in LAYER_METRICS {
        report.metrics.entry(name).or_insert(0.0);
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = nproc.min(FLEET_SHARDS);
    println!(
        "provenance {{\"nproc\": {nproc}, \"rustc\": {:?}, \"git_rev\": {:?}, \"threads\": {threads}, \
         \"seed\": {}, \"workload\": {:?}, \"trace\": {}}}",
        env!("PERFBENCH_RUSTC_VERSION"),
        git_rev(),
        args.seed,
        args.workload.name(),
        u8::from(args.trace)
    );

    let mut report = Report::default();
    let expected = if args.trace {
        traced(&args, threads, &mut report);
        LAYER_METRICS
    } else {
        untraced(&args, threads, &mut report);
        TOP_METRICS
    };

    let mut json = String::new();
    for (i, (name, unit)) in expected.iter().enumerate() {
        let value = report.metrics.get(name).copied();
        report.check(
            extract::valid_name(name) && value.is_some_and(f64::is_finite),
            || format!("metric {name} misnamed, missing or not finite"),
        );
        let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        println!("{name:32} {value:>20} {unit}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    for failure in &report.failures {
        println!("check failed: {failure}");
    }
    let correct = report.failures.is_empty() && report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        report.attempted, report.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the workloads and metrics this harness
    /// prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in TOP_METRICS.iter().chain(LAYER_METRICS) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in Workload::ALL {
            let entry = format!("{{\"name\": \"{}\", \"why\"", w.name());
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            TOP_METRICS.len() + LAYER_METRICS.len() + Workload::ALL.len(),
            "BENCHMARK.json names something the harness does not print"
        );
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let args = parse("--workload agent_spec --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(args.workload, Workload::AgentSpec);
        assert_eq!((args.seed, args.seconds, args.trace), (9, 2.5, true));
        let args = parse("--workload fleet_storm").unwrap();
        assert_eq!((args.seed, args.trace), (DEFAULT_SEED, false));
        for bad in [
            "",
            "--workload nope",
            "--workload agent_spec --trace 2",
            "--workload agent_spec --seed -1",
            "--workload agent_spec --seconds nan",
            "--workload agent_spec --verbose 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be refused");
        }
    }
}
