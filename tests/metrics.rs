//! Cross-crate windowed-metrics tests: the per-shard metric series recorded
//! by live serving runs must merge in the fleet exactly like every other
//! shard statistic — associatively and permutation-invariantly, bucket by
//! bucket — and the log-bucketed histogram sketch must track the exact
//! sample percentiles within its advertised 1% relative-error bound.

use sim_core::{LogHistogram, SimDuration, WindowedMetrics};
use tz_hal::PlatformProfile;
use tzllm::fleet::{FleetStats, ShardStats};
use tzllm::serving::{Server, ServingConfig, ServingReport, SpeculationConfig};
use workloads::{ArrivalProcess, WorkloadSpec};

const METRICS_WINDOW: SimDuration = SimDuration::from_secs(60);

fn catalogue() -> Vec<llm::ModelSpec> {
    llm::ModelSpec::catalogue()
}

/// Three metrics-on serving runs from three *different* regimes (mirroring
/// `tests/fleet.rs`), so the series merge is exercised with live TTFT/TBT
/// histograms, queue gauges and lane integrals — not just empty registries.
fn heterogeneous_metric_shards() -> (ShardStats, ShardStats, ShardStats) {
    let profile = PlatformProfile::rk3588();
    let models = vec![llm::ModelSpec::qwen2_5_3b()];

    let mut batched_cfg = ServingConfig::paper_default(profile.clone());
    batched_cfg.metrics = Some(METRICS_WINDOW);
    let batched = Server::run_workload(
        batched_cfg,
        catalogue(),
        &WorkloadSpec::standard_multi(
            ArrivalProcess::Poisson { rate_per_sec: 0.2 },
            30,
            &["tinyllama-1.1b", "qwen2.5-3b"],
        ),
        0xA,
    );

    let mut chat_cfg = ServingConfig::chat_default(profile.clone());
    chat_cfg.kv.budget_fraction = 0.02;
    // Two requests in flight keep turns queued for restore-ahead to prewarm.
    chat_cfg.max_inflight = 2;
    chat_cfg.metrics = Some(METRICS_WINDOW);
    let chat = Server::run_workload(
        chat_cfg,
        models.clone(),
        &WorkloadSpec::chat(3, 24, SimDuration::from_secs(30), "qwen2.5-3b"),
        0xB,
    );

    let mut spec_cfg = ServingConfig::paper_default(profile);
    spec_cfg.speculation = SpeculationConfig::paper_default();
    spec_cfg.metrics = Some(METRICS_WINDOW);
    let spec = Server::run_workload(
        spec_cfg,
        models,
        &WorkloadSpec::agent_burst(3, 20, SimDuration::from_millis(250), "qwen2.5-3b"),
        0xC,
    );

    let a = ShardStats::from_report(0, "rk3588", &batched);
    let b = ShardStats::from_report(1, "rk3588", &chat);
    let c = ShardStats::from_report(2, "rk3588", &spec);
    for (label, shard) in [("A", &a), ("B", &b), ("C", &c)] {
        assert!(
            shard.metrics.is_enabled() && shard.metrics.series_count() > 0,
            "regime {label} must carry a live metric registry"
        );
    }
    (a, b, c)
}

#[test]
fn live_shard_series_merge_associatively_and_permutation_invariantly() {
    let (a, b, c) = heterogeneous_metric_shards();
    let singleton = |s: &ShardStats| FleetStats::from_shards([s.clone()]);

    let left = singleton(&a).merge(singleton(&b)).merge(singleton(&c));
    let right = singleton(&a).merge(singleton(&b).merge(singleton(&c)));
    assert_eq!(left, right, "the series merge must be associative");
    assert_eq!(left.digest(), right.digest());
    assert_eq!(left.merged_metrics(), right.merged_metrics());

    let permutations = [
        [&a, &b, &c],
        [&a, &c, &b],
        [&b, &a, &c],
        [&b, &c, &a],
        [&c, &a, &b],
        [&c, &b, &a],
    ];
    for perm in permutations {
        let merged = perm
            .iter()
            .fold(FleetStats::new(), |acc, s| acc.merge(singleton(s)));
        assert_eq!(
            merged, left,
            "the series merge must be permutation-invariant"
        );
        assert_eq!(merged.digest(), left.digest());
        assert_eq!(merged.merged_metrics(), left.merged_metrics());
    }

    // The merged registry really covers all three shards: completion
    // counters reconcile exactly, and the bucket-wise histogram merge
    // preserves every observation and its total mass.
    let merged = left.merged_metrics();
    let completed: u64 = merged
        .counter_classes("requests_completed")
        .into_iter()
        .flat_map(|class| merged.counter_series("requests_completed", class))
        .flat_map(|series| series.values())
        .sum();
    assert_eq!(completed, a.completed + b.completed + c.completed);
    for name in ["ttft_cold", "ttft_followup", "tbt"] {
        let merged_count: u64 = merged
            .histogram_classes(name)
            .into_iter()
            .filter_map(|class| merged.merged_histogram(name, class))
            .map(|h| h.count())
            .sum();
        let shard_count: u64 = [&a, &b, &c]
            .into_iter()
            .flat_map(|s| {
                s.metrics
                    .histogram_classes(name)
                    .into_iter()
                    .filter_map(|class| s.metrics.merged_histogram(name, class))
            })
            .map(|h| h.count())
            .sum();
        assert_eq!(
            merged_count, shard_count,
            "{name} observations lost in merge"
        );
    }
}

#[test]
fn disabled_registries_merge_as_identities() {
    let (a, _, _) = heterogeneous_metric_shards();
    let mut merged = WindowedMetrics::off();
    merged.merge_from(&WindowedMetrics::off());
    assert!(!merged.is_enabled(), "off ∪ off must stay off");
    merged.merge_from(&a.metrics);
    assert_eq!(merged, a.metrics, "off is a left identity of the merge");
    let mut right = a.metrics.clone();
    right.merge_from(&WindowedMetrics::off());
    assert_eq!(right, a.metrics, "off is a right identity of the merge");
}

/// The exact-oracle rank rule the sketch's error bound is stated against:
/// the sample at rank `ceil(q · (n − 1))` of the sorted observations.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = (q * (sorted.len() - 1) as f64).ceil() as usize;
    sorted[rank]
}

/// A deterministic xorshift generator, so the property sweep needs no RNG
/// dependency and reproduces bit-for-bit.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[test]
fn sketch_quantiles_stay_within_one_percent_of_exact_across_distributions() {
    // Uniform, heavy-tailed (cubed uniform), and bimodal latency shapes, a
    // few sizes each: the 1% bound must hold for every (distribution, n, q).
    let mut seed = 0x5EED_CAFE_u64;
    for shape in 0..3 {
        for &n in &[100usize, 1_000, 10_000] {
            let mut sketch = LogHistogram::new();
            let mut samples = Vec::with_capacity(n);
            for _ in 0..n {
                let r = xorshift(&mut seed) % 1_000_000;
                let ns = match shape {
                    // 1 µs .. 1 s uniform.
                    0 => 1_000 + r * 1_000,
                    // Heavy tail: cube of a uniform draw.
                    1 => 1_000 + (r / 1_000).pow(3),
                    // Bimodal: fast cache hits vs slow cold restores.
                    _ => {
                        if r % 10 < 7 {
                            1_000_000 + r
                        } else {
                            500_000_000 + r * 100
                        }
                    }
                };
                sketch.observe_ns(ns);
                samples.push(ns);
            }
            samples.sort_unstable();
            for &q in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999] {
                let exact = exact_quantile(&samples, q) as f64;
                let est = sketch.quantile_ns(q).expect("non-empty sketch");
                let rel = (est - exact).abs() / exact;
                assert!(
                    rel <= 0.0101,
                    "shape {shape}, n {n}, q {q}: sketch {est} vs exact {exact} \
                     ({:.3}% relative error)",
                    rel * 100.0
                );
            }
        }
    }
}

#[test]
fn sketch_merge_equals_observing_the_union() {
    // Merging per-shard sketches must give the same buckets as one sketch
    // fed the concatenated stream — the property the fleet quantiles rely on.
    let mut seed = 0xD1D5_u64;
    let mut union = LogHistogram::new();
    let mut merged = LogHistogram::new();
    for _ in 0..4 {
        let mut shard = LogHistogram::new();
        for _ in 0..2_500 {
            let ns = 1_000 + xorshift(&mut seed) % 2_000_000_000;
            shard.observe_ns(ns);
            union.observe_ns(ns);
        }
        merged.merge_from(&shard);
    }
    assert_eq!(merged, union);
}

/// A metrics-on run must leave every serving outcome untouched — the
/// integration-level restatement of the `serial_reproduction` proof, here
/// across the three heterogeneous regimes rather than the baseline workload.
#[test]
fn metric_recording_never_changes_a_serving_outcome() {
    fn strip(report: &ServingReport) -> (String, String) {
        (
            format!("{:?}", report.fleet),
            format!("{:?}", report.records),
        )
    }
    let profile = PlatformProfile::rk3588();
    let workload = WorkloadSpec::standard_multi(
        ArrivalProcess::Poisson { rate_per_sec: 0.3 },
        40,
        &["tinyllama-1.1b", "qwen2.5-3b"],
    );
    let off = Server::run_workload(
        ServingConfig::paper_default(profile.clone()),
        catalogue(),
        &workload,
        0x0FF,
    );
    let mut on_cfg = ServingConfig::paper_default(profile);
    on_cfg.metrics = Some(METRICS_WINDOW);
    let on = Server::run_workload(on_cfg, catalogue(), &workload, 0x0FF);
    assert_eq!(strip(&off), strip(&on));
    assert!(on.metrics.is_some() && off.metrics.is_none());
}
