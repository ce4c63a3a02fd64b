//! Cross-crate fleet-runner tests: the sharded parallel runner must be a
//! pure refactoring of the serial serving layer — shard 0 of a 1-shard
//! fleet replays `Server::run_workload` exactly, the worker-thread count
//! never changes the merged stats, and the stats merge is associative and
//! permutation-invariant even when the shards come from live KV, batching
//! and speculation regimes.

use sim_core::SimDuration;
use tz_hal::PlatformProfile;
use tzllm::fleet::{run_fleet, FleetConfig, FleetStats, ShardStats};
use tzllm::serving::{Server, ServingConfig, SpeculationConfig};
use workloads::{ArrivalProcess, WorkloadSpec};

fn catalogue() -> Vec<llm::ModelSpec> {
    llm::ModelSpec::catalogue()
}

fn paper_config(profile: &PlatformProfile) -> ServingConfig {
    ServingConfig::paper_default(profile.clone())
}

#[test]
fn one_shard_fleet_reproduces_the_serial_server_run() {
    let workload = WorkloadSpec::standard_multi(
        ArrivalProcess::Poisson { rate_per_sec: 0.1 },
        60,
        &["tinyllama-1.1b", "qwen2.5-3b"],
    );
    let seed = 0x5EED;
    let direct = Server::run_workload(
        ServingConfig::paper_default(PlatformProfile::rk3588()),
        catalogue(),
        &workload,
        seed,
    );
    let fleet = run_fleet(
        &workload,
        &catalogue(),
        seed,
        &FleetConfig::homogeneous(1, 1),
        paper_config,
    );
    // shard_seed(seed, 0) == seed, so the one-shard fleet is the serial run.
    let expected = ShardStats::from_report(0, "rk3588", &direct);
    assert_eq!(fleet.shard_count(), 1);
    assert_eq!(fleet.shards().next().unwrap(), &expected);
    assert_eq!(fleet.completed(), direct.records.len() as u64);
    assert_eq!(fleet.digest(), FleetStats::from_shards([expected]).digest());
}

#[test]
fn thread_count_never_changes_the_merged_stats() {
    let workload = WorkloadSpec::standard_multi(
        ArrivalProcess::Poisson { rate_per_sec: 0.6 },
        90,
        &["tinyllama-1.1b", "qwen2.5-3b"],
    );
    let run = |threads: usize| {
        run_fleet(
            &workload,
            &catalogue(),
            0xF1EE7,
            &FleetConfig::heterogeneous(6, threads),
            paper_config,
        )
    };
    let serial = run(1);
    let two = run(2);
    let wide = run(6);
    assert_eq!(serial, two, "threads 1 vs 2 must merge identically");
    assert_eq!(serial, wide, "threads 1 vs 6 must merge identically");
    assert_eq!(serial.digest(), wide.digest());
    assert_eq!(serial.shard_count(), 6);
    // The heterogeneous mix really ran: the merged fleet spans all three
    // SoC calibrations.
    assert_eq!(serial.ttft_ms_by_soc().len(), 3);
}

/// Three shards from three *different* serving regimes — batching, KV
/// spill and speculation, each asserted live on its report before the
/// reduction — so the merge is exercised with three distinct shapes of
/// samples and metric series, not just zeros.
fn heterogeneous_shard_stats() -> (ShardStats, ShardStats, ShardStats) {
    let profile = PlatformProfile::rk3588();
    let models = vec![llm::ModelSpec::qwen2_5_3b()];

    // Batching-heavy: the continuous-batching step loop drives batch_steps.
    let batched = Server::run_workload(
        ServingConfig::paper_default(profile.clone()),
        catalogue(),
        &WorkloadSpec::standard_multi(
            ArrivalProcess::Poisson { rate_per_sec: 0.2 },
            30,
            &["tinyllama-1.1b", "qwen2.5-3b"],
        ),
        0xA,
    );

    // KV-squeezed chat: a tight secure budget forces sealed spill, and two
    // requests in flight keep turns queued for restore-ahead to prewarm.
    let mut kv_cfg = ServingConfig::chat_default(profile.clone());
    kv_cfg.kv.budget_fraction = 0.02;
    kv_cfg.max_inflight = 2;
    let chat = Server::run_workload(
        kv_cfg,
        models.clone(),
        &WorkloadSpec::chat(3, 24, SimDuration::from_secs(30), "qwen2.5-3b"),
        0xB,
    );

    // Speculative decode-heavy agent fleet: draft/verify counters.
    let mut spec_cfg = ServingConfig::paper_default(profile);
    spec_cfg.speculation = SpeculationConfig::paper_default();
    let spec = Server::run_workload(
        spec_cfg,
        models,
        &WorkloadSpec::agent_burst(3, 20, SimDuration::from_millis(250), "qwen2.5-3b"),
        0xC,
    );

    assert!(
        batched.fleet.batch_steps > 0,
        "regime A must exercise batching"
    );
    assert!(
        chat.fleet.kv_spilled_bytes > 0 && chat.fleet.kv_reused_tokens > 0,
        "regime B must exercise KV retention and sealed spill"
    );
    assert!(
        spec.fleet.spec_steps > 0 && spec.fleet.spec_accepted_tokens > 0,
        "regime C must exercise speculation"
    );
    (
        ShardStats::from_report(0, "rk3588", &batched),
        ShardStats::from_report(1, "rk3588", &chat),
        ShardStats::from_report(2, "rk3588", &spec),
    )
}

#[test]
fn merge_is_associative_and_permutation_invariant() {
    let (a, b, c) = heterogeneous_shard_stats();
    let singleton = |s: &ShardStats| FleetStats::from_shards([s.clone()]);

    let left = singleton(&a).merge(singleton(&b)).merge(singleton(&c));
    let right = singleton(&a).merge(singleton(&b).merge(singleton(&c)));
    assert_eq!(left, right, "merge must be associative");
    assert_eq!(left.digest(), right.digest());

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
        assert_eq!(merged, left, "merge must be permutation-invariant");
        assert_eq!(merged.digest(), left.digest());
    }

    // The merged aggregates really cover all three regimes.
    assert_eq!(left.completed(), a.completed + b.completed + c.completed);
    let agg = left.ttft_ms().expect("samples merged");
    assert_eq!(
        agg.count,
        (a.completed + b.completed + c.completed) as usize
    );
}

#[test]
#[should_panic(expected = "merged twice")]
fn duplicate_shard_indices_refuse_to_merge() {
    let (a, _, _) = heterogeneous_shard_stats();
    let _ = FleetStats::from_shards([a.clone()]).merge(FleetStats::from_shards([a]));
}

#[test]
fn metrics_on_fleet_is_thread_invariant_and_digest_covered() {
    let workload = WorkloadSpec::standard_multi(
        ArrivalProcess::Poisson { rate_per_sec: 0.4 },
        60,
        &["tinyllama-1.1b", "qwen2.5-3b"],
    );
    let with_metrics = |profile: &PlatformProfile| {
        let mut c = ServingConfig::paper_default(profile.clone());
        c.metrics = Some(SimDuration::from_secs(60));
        c
    };
    let run = |threads: usize| {
        run_fleet(
            &workload,
            &catalogue(),
            0xD16E57,
            &FleetConfig::heterogeneous(4, threads),
            with_metrics,
        )
    };
    let serial = run(1);
    let wide = run(4);
    // The windowed series are part of the merged stats and the canonical
    // digest, so thread-count invariance now covers them too.
    assert_eq!(serial, wide, "metric series must merge thread-invariantly");
    assert_eq!(serial.digest(), wide.digest());
    let merged = serial.merged_metrics();
    assert!(merged.is_enabled() && merged.series_count() > 0);

    // Metrics are observe-only (same completions, same aggregate TTFT), but
    // the digest must *cover* the series: a metrics-off fleet of the same
    // workload hashes differently.
    let off = run_fleet(
        &workload,
        &catalogue(),
        0xD16E57,
        &FleetConfig::heterogeneous(4, 1),
        paper_config,
    );
    assert_eq!(serial.completed(), off.completed());
    assert_eq!(serial.ttft_ms(), off.ttft_ms());
    assert_ne!(
        serial.digest(),
        off.digest(),
        "the canonical digest must cover the windowed metric series"
    );
}

/// A shard that panics names itself on the caller's thread: its index,
/// SoC, `shard_seed` and the original message.  Shards 1 and 2 of the
/// default mix are rk3576 and both fail; whichever worker meets its
/// failure first, the lowest failing shard is the one reported.
#[test]
#[should_panic(expected = "fleet shard 1 (soc rk3576, shard_seed")]
fn a_failing_shard_names_its_index_soc_and_seed() {
    let workload = WorkloadSpec::standard_multi(
        ArrivalProcess::Poisson { rate_per_sec: 0.2 },
        12,
        &["tinyllama-1.1b"],
    );
    let _ = run_fleet(
        &workload,
        &catalogue(),
        7,
        &FleetConfig::heterogeneous(3, 2),
        |profile| {
            assert_ne!(profile.soc, "rk3576", "no rk3576 config in this test");
            paper_config(profile)
        },
    );
}
