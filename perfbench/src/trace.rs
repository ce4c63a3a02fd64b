//! The traced run: the workload replayed through each layer's public calls,
//! every call timed from the harness, followed by a replay of every
//! plan-cache miss through the graph → restore-plan → pipeline stages.
//!
//! Nothing here reaches inside a layer.  A layer's wall time is the time
//! spent in its public calls; `serving.self_s` is `Server::run` minus the
//! replayed plan work, which is how plan simulation inside the event loop is
//! told apart from the loop itself.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use llm::{ComputationGraph, CostModel, ModelSpec};
use sim_core::{shard_seed, SimDuration, MIB};
use tz_hal::PlatformProfile;
use tzllm::fleet::{FleetStats, ShardStats};
use tzllm::serving::{RequestRecord, Server, ServingConfig, ServingReport};
use tzllm::slo::{self, SloConfig, SloTarget};
use tzllm::{
    cma_occupancy, simulate, CriticalPaths, PipelineConfig, Policy, RestorePlan, RestoreRates,
};
use workloads::WorkloadSpec;

use crate::extract;
use crate::workload::{self, Inputs, SimE2e, Submitted, Workload, FLEET_SHARDS};

/// The SoC calibrations of `DeviceMix::heterogeneous_default`, for the
/// per-SoC shard metrics.
const SOCS: [&str; 3] = ["rk3588", "rk3576", "rk3566"];

/// The result of one traced run.
pub struct Traced {
    /// End-to-end simulated metrics (must equal the untraced run's).
    pub sim: SimE2e,
    /// `FleetStats::digest` (fleet workloads only).
    pub digest: Option<String>,
    /// Wall time of the calls that make up the untraced timed call.
    pub wall: Duration,
    /// Per-layer metrics by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let value = f();
    *acc += start.elapsed();
    value
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Wall time in the public calls of one or more devices.
#[derive(Debug, Clone, Copy, Default)]
struct CallTimes {
    /// `partition`, `profile_for_shard`, `shard_seed` and `generate`.
    generate: Duration,
    /// `Server::new` and `submit_script`.
    setup: Duration,
    /// `Server::run`.
    run: Duration,
    /// `ShardStats::from_report`.
    reduce: Duration,
}

impl CallTimes {
    fn add(&mut self, other: &CallTimes) {
        self.generate += other.generate;
        self.setup += other.setup;
        self.run += other.run;
        self.reduce += other.reduce;
    }

    fn total(&self) -> Duration {
        self.generate + self.setup + self.run + self.reduce
    }
}

/// Generates, sets up and runs one device through its public calls.
fn device_pass(
    workload: Workload,
    profile: &PlatformProfile,
    catalogue: &[ModelSpec],
    spec: &WorkloadSpec,
    seed: u64,
    times: &mut CallTimes,
) -> (ServingReport, Submitted) {
    let scripts = timed(&mut times.generate, || spec.generate(seed));
    let mut submitted = Submitted::default();
    submitted.add(&scripts);
    let config = workload.serving_config(profile);
    let server = timed(&mut times.setup, || {
        let mut server = Server::new(config, catalogue.to_vec());
        for script in scripts {
            server.submit_script(script);
        }
        server
    });
    let report = timed(&mut times.run, || server.run());
    (report, submitted)
}

/// One plan-cache miss rebuilt from its request record.
struct Miss {
    model: usize,
    prompt_len: usize,
    new_tokens: usize,
    cached_bytes: u64,
    /// What the miss produced inside the server, for the replay to match.
    makespan: SimDuration,
    paths: CriticalPaths,
}

/// The plan-cache misses of one device, in dispatch order.
struct DeviceMisses {
    profile: PlatformProfile,
    memory_pressure: u64,
    policy: Policy,
    misses: Vec<Miss>,
}

/// Replays one device's plan cache from its records: the key
/// `system::evaluate_service` memoises on is rebuilt from each record
/// (model, `prompt_len`, `kv_reused_tokens`, `output_len`, and
/// `cached_fraction` × total parameter bytes; pressure and policy are fixed
/// per server), looked up in dispatch order, and cleared wholesale when the
/// configured capacity fills, as `PlanCache` does.  Returns the misses and
/// the replayed `(hits, misses)`.
fn plan_misses(
    report: &ServingReport,
    catalogue: &[ModelSpec],
    config: &ServingConfig,
) -> (DeviceMisses, u64, u64) {
    let param_bytes: Vec<u64> = catalogue
        .iter()
        .map(|m| ComputationGraph::prefill(m, 1).total_param_bytes())
        .collect();
    let mut order: Vec<&RequestRecord> = report.records.iter().collect();
    order.sort_by_key(|r| (r.dispatched, r.request.id));
    let mut cache = HashSet::new();
    let (mut hits, mut misses) = (0u64, Vec::new());
    for r in order {
        let model = catalogue
            .iter()
            .position(|m| m.name == r.request.model)
            .expect("records name catalogue models");
        let cached_bytes = (param_bytes[model] as f64 * r.cached_fraction.clamp(0.0, 1.0)) as u64;
        let prompt_len = r.request.prompt_len;
        let key = (
            model,
            prompt_len,
            r.kv_reused_tokens,
            r.request.output_len,
            cached_bytes,
        );
        if cache.contains(&key) {
            hits += 1;
            continue;
        }
        if cache.len() >= config.plan_cache_capacity {
            cache.clear();
        }
        cache.insert(key);
        misses.push(Miss {
            model,
            prompt_len,
            new_tokens: prompt_len.saturating_sub(r.kv_reused_tokens).max(1),
            cached_bytes,
            makespan: r.report.breakdown.pipeline,
            paths: r.report.critical_paths,
        });
    }
    let count = misses.len() as u64;
    let device = DeviceMisses {
        profile: config.profile.clone(),
        memory_pressure: config.memory_pressure,
        policy: config.policy,
        misses,
    };
    (device, hits, count)
}

/// Wall time and work of the plan-miss replay.
#[derive(Debug, Default)]
struct Replay {
    /// `ComputationGraph::prefill_suffix` + `CostModel::op_time`.
    graph: Duration,
    /// `RestoreRates::from_profile` + `RestorePlan::build` + critical paths.
    plan: Duration,
    /// `pipeline::simulate`.
    simulate: Duration,
    calls: u64,
    ops_built: u64,
    /// Misses whose replayed makespan or critical paths differ from the
    /// record's.
    mismatches: u64,
}

impl Replay {
    fn work(&self) -> Duration {
        self.graph + self.plan + self.simulate
    }

    /// Replays every miss of one device with the same inputs
    /// `system::evaluate_service` uses.
    fn run(&mut self, device: &DeviceMisses, catalogue: &[ModelSpec]) {
        let cost = CostModel::rk3588();
        let pipe = PipelineConfig {
            cpu_cores: device.profile.big_cores,
            preempt_quantum: SimDuration::from_millis(2),
            policy: device.policy,
            record_trace: false,
        };
        for m in &device.misses {
            let model = &catalogue[m.model];
            let (graph, times) = timed(&mut self.graph, || {
                let graph = ComputationGraph::prefill_suffix(model, m.new_tokens, m.prompt_len);
                let times: Vec<SimDuration> = graph.ops.iter().map(|o| cost.op_time(o)).collect();
                (graph, times)
            });
            let (plan, paths) = timed(&mut self.plan, || {
                let rates = RestoreRates::from_profile(
                    &device.profile,
                    cma_occupancy(model, device.memory_pressure),
                    device.profile.cma_migration_threads,
                );
                let plan = RestorePlan::build(&graph, |i| times[i], &rates, m.cached_bytes);
                let paths = plan.critical_paths();
                (plan, paths)
            });
            let result = timed(&mut self.simulate, || simulate(&plan, &pipe));
            self.calls += 1;
            self.ops_built += plan.ops.len() as u64;
            self.mismatches += u64::from(result.makespan != m.makespan || paths != m.paths);
        }
    }
}

/// Simulated per-layer quantities summed over one or more devices.
#[derive(Debug, Default)]
struct Sim {
    completed: u64,
    rejected: u64,
    cold_starts: u64,
    queue_wait_s: Vec<f64>,
    framework_init_s: f64,
    working_alloc_s: f64,
    npu_overhead_s: f64,
    makespan_s: f64,
    kv_unseal_excess_s: f64,
    prefill_stall_s: f64,
    stall_sharing_ms: f64,
    path_io_s: f64,
    path_cpu_s: f64,
    path_compute_s: f64,
    /// Records whose seven TTFT components do not sum to `ttft_e2e()`.
    ttft_mismatches: u64,
    batch_steps: u64,
    occupancy_busy_s: f64,
    batch_busy_s: f64,
    restore_ahead_bytes: u64,
    /// Lane name → (busy unit-seconds, capacity × horizon seconds).
    lanes: BTreeMap<String, (f64, f64)>,
    spec_proposed: u64,
    spec_accepted: u64,
    spec_emitted: u64,
    spec_sequence_steps: u64,
    spec_draft_busy_s: f64,
    plan_hits: u64,
    plan_misses: u64,
    /// KV ratios weighted by completed requests (exact for one device).
    kv_hit_rate_w: f64,
    kv_shared_hit_rate_w: f64,
    kv_reused_tokens: u64,
    kv_spilled_bytes: u64,
    kv_unsealed_bytes: u64,
    kv_restore_ahead_bytes: u64,
    kv_dequant_bytes: u64,
    kv_dropped_bytes: u64,
    kv_deduped_bytes: u64,
}

impl Sim {
    fn add(&mut self, report: &ServingReport) {
        let f = &report.fleet;
        self.completed += f.completed as u64;
        self.rejected += f.rejected as u64;
        self.cold_starts += f.cold_starts as u64;
        for r in &report.records {
            let b = &r.report.breakdown;
            let queue_wait = r.queue_wait();
            self.queue_wait_s.push(queue_wait.as_secs_f64());
            self.framework_init_s += b.framework_init.as_secs_f64();
            self.working_alloc_s += b.working_alloc.as_secs_f64();
            self.npu_overhead_s += b.npu_overhead.as_secs_f64();
            self.makespan_s += b.pipeline.as_secs_f64();
            self.kv_unseal_excess_s += b.kv_restore.as_secs_f64();
            self.prefill_stall_s += r.prefill_stall.as_secs_f64();
            self.stall_sharing_ms += r.stall_sharing.as_millis_f64();
            let p = &r.report.critical_paths;
            self.path_io_s += p.io.as_secs_f64();
            self.path_cpu_s += p.cpu.as_secs_f64();
            self.path_compute_s += p.compute.as_secs_f64();
            let components = queue_wait
                + b.framework_init
                + b.working_alloc
                + b.pipeline
                + b.npu_overhead
                + b.kv_restore
                + r.prefill_stall;
            self.ttft_mismatches += u64::from(components != r.ttft_e2e());
        }
        self.batch_steps += f.batch_steps;
        let mut busy = 0.0;
        for &(occupancy, busy_s) in &f.batch_occupancy {
            self.occupancy_busy_s += f64::from(occupancy) * busy_s;
            busy += busy_s;
        }
        self.batch_busy_s += busy;
        self.spec_draft_busy_s += f.spec_draft_overhead * busy;
        self.restore_ahead_bytes += f.restore_ahead_bytes;
        let horizon_s = f.horizon.as_secs_f64();
        for lane in &report.resources {
            let entry = self.lanes.entry(lane.name.clone()).or_default();
            entry.0 += lane.busy_unit_time.as_secs_f64();
            entry.1 += lane.capacity as f64 * horizon_s;
        }
        self.spec_proposed += f.spec_proposed_tokens;
        self.spec_accepted += f.spec_accepted_tokens;
        for &(emitted, steps) in &f.spec_emitted_per_step {
            self.spec_emitted += u64::from(emitted) * steps;
            self.spec_sequence_steps += steps;
        }
        self.plan_hits += f.plan_cache_hits;
        self.plan_misses += f.plan_cache_misses;
        self.kv_hit_rate_w += f.kv_hit_rate * f.completed as f64;
        self.kv_shared_hit_rate_w += f.kv_shared_hit_rate * f.completed as f64;
        self.kv_reused_tokens += f.kv_reused_tokens;
        self.kv_spilled_bytes += f.kv_spilled_bytes;
        self.kv_unsealed_bytes += f.kv_unsealed_bytes;
        self.kv_restore_ahead_bytes += f.kv_restore_ahead_bytes;
        self.kv_dequant_bytes += f.kv_dequant_bytes;
        self.kv_dropped_bytes += f.kv_dropped_bytes;
        self.kv_deduped_bytes += f.kv_deduped_bytes;
    }
}

/// One device's traced pass.
struct DevicePass {
    shard: usize,
    profile: PlatformProfile,
    times: CallTimes,
    report: ServingReport,
    submitted: Submitted,
}

/// Runs the traced pass of `workload` with `seed`.
pub fn run(workload: Workload, seed: u64, threads: usize) -> Traced {
    let inputs = Inputs::new(workload);
    let mut failures = Vec::new();
    let mut layers = BTreeMap::new();
    let (sim_e2e, digest, wall, passes) = if workload == Workload::FleetStorm {
        fleet(workload, &inputs, seed, threads, &mut layers)
    } else {
        let mut times = CallTimes::default();
        let profile = inputs.mix.profile_for_shard(0).clone();
        let (report, submitted) = device_pass(
            workload,
            &profile,
            &inputs.catalogue,
            &inputs.spec,
            seed,
            &mut times,
        );
        let sim = workload::device_e2e(&report, submitted);
        let pass = DevicePass {
            shard: 0,
            profile,
            times,
            report,
            submitted,
        };
        (sim, None, times.run, vec![pass])
    };

    // Harness-side work from here on: nothing below is in `wall`.
    let mut times = CallTimes::default();
    let mut sim = Sim::default();
    let mut replay = Replay::default();
    let mut requests = 0;
    for p in &passes {
        times.add(&p.times);
        requests += p.submitted.total;
        sim.add(&p.report);
        let config = workload.serving_config(&p.profile);
        let (misses, hits, count) = plan_misses(&p.report, &inputs.catalogue, &config);
        let f = &p.report.fleet;
        if (hits, count) != (f.plan_cache_hits, f.plan_cache_misses) {
            failures.push(format!(
                "device {}: replayed plan cache {hits}/{count} hits/misses, server counted {}/{}",
                p.shard, f.plan_cache_hits, f.plan_cache_misses
            ));
        }
        replay.run(&misses, &inputs.catalogue);
    }
    drop(passes);
    if replay.mismatches > 0 {
        failures.push(format!(
            "{} replayed plan misses differ from the record's makespan or critical paths",
            replay.mismatches
        ));
    }
    if sim.ttft_mismatches > 0 {
        failures.push(format!(
            "{} records whose TTFT components do not sum to ttft_e2e",
            sim.ttft_mismatches
        ));
    }

    let per_record = |sum: f64| ratio(sum, sim.completed as f64);
    let mib = |bytes: u64| bytes as f64 / MIB as f64;
    let self_s = (secs(times.run) - secs(replay.work())).max(0.0);
    let mut queue_wait = std::mem::take(&mut sim.queue_wait_s);
    queue_wait.sort_by(f64::total_cmp);
    let queue_wait_p99 = extract::percentile(&queue_wait, 0.99).unwrap_or_else(|| {
        failures.push(format!(
            "{} queue-wait samples leave fewer than {} beyond p99",
            queue_wait.len(),
            extract::MIN_TAIL_SAMPLES
        ));
        0.0
    });
    let lane = |name: &str| {
        sim.lanes
            .get(name)
            .map_or(0.0, |&(busy, capacity)| ratio(busy, capacity))
    };
    let lookups = sim.plan_hits + sim.plan_misses;
    for (name, value) in [
        ("workloads.generate_s", secs(times.generate)),
        ("workloads.requests", requests as f64),
        ("serving.setup_s", secs(times.setup)),
        ("serving.run_s", secs(times.run)),
        ("serving.self_s", self_s),
        (
            "serving.us_per_step",
            ratio(self_s * 1e6, sim.batch_steps as f64),
        ),
        ("serving.batch_steps", sim.batch_steps as f64),
        (
            "serving.queue_wait_s_mean",
            per_record(queue_wait.iter().sum()),
        ),
        ("serving.queue_wait_p99_s", queue_wait_p99),
        ("serving.rejected", sim.rejected as f64),
        ("serving.cold_starts", sim.cold_starts as f64),
        (
            "serving.prefill_stall_s_mean",
            per_record(sim.prefill_stall_s),
        ),
        (
            "serving.stall_sharing_ms_mean",
            per_record(sim.stall_sharing_ms),
        ),
        (
            "serving.batch_occupancy_mean",
            ratio(sim.occupancy_busy_s, sim.batch_busy_s),
        ),
        ("serving.restore_ahead_mib", mib(sim.restore_ahead_bytes)),
        ("serving.lane_util.npu", lane("npu")),
        ("serving.lane_util.flash", lane("flash")),
        ("serving.lane_util.cpu", lane("cpu")),
        (
            "serving.spec_accept_rate",
            ratio(sim.spec_accepted as f64, sim.spec_proposed as f64),
        ),
        (
            "serving.spec_tokens_per_step",
            ratio(sim.spec_emitted as f64, sim.spec_sequence_steps as f64),
        ),
        (
            "serving.spec_draft_overhead",
            ratio(sim.spec_draft_busy_s, sim.batch_busy_s),
        ),
        ("system.plan_lookups", lookups as f64),
        ("system.plan_misses", sim.plan_misses as f64),
        (
            "system.plan_hit_rate",
            ratio(sim.plan_hits as f64, lookups as f64),
        ),
        (
            "system.framework_init_s_mean",
            per_record(sim.framework_init_s),
        ),
        (
            "system.working_alloc_s_mean",
            per_record(sim.working_alloc_s),
        ),
        ("system.npu_overhead_s_mean", per_record(sim.npu_overhead_s)),
        ("llm.graph_s", secs(replay.graph)),
        ("restore.plan_build_s", secs(replay.plan)),
        ("restore.ops_built", replay.ops_built as f64),
        ("pipeline.simulate_s", secs(replay.simulate)),
        ("pipeline.simulate_calls", replay.calls as f64),
        (
            "pipeline.us_per_call",
            ratio(secs(replay.simulate) * 1e6, replay.calls as f64),
        ),
        ("pipeline.makespan_s_mean", per_record(sim.makespan_s)),
        ("restore.path_io_s_mean", per_record(sim.path_io_s)),
        ("restore.path_cpu_s_mean", per_record(sim.path_cpu_s)),
        (
            "restore.path_compute_s_mean",
            per_record(sim.path_compute_s),
        ),
        ("kv.hit_rate", per_record(sim.kv_hit_rate_w)),
        ("kv.shared_hit_rate", per_record(sim.kv_shared_hit_rate_w)),
        ("kv.reused_tokens", sim.kv_reused_tokens as f64),
        ("kv.spilled_mib", mib(sim.kv_spilled_bytes)),
        ("kv.unsealed_mib", mib(sim.kv_unsealed_bytes)),
        ("kv.restore_ahead_mib", mib(sim.kv_restore_ahead_bytes)),
        ("kv.dequant_mib", mib(sim.kv_dequant_bytes)),
        ("kv.dropped_mib", mib(sim.kv_dropped_bytes)),
        ("kv.deduped_mib", mib(sim.kv_deduped_bytes)),
        (
            "kv.unseal_excess_s_mean",
            per_record(sim.kv_unseal_excess_s),
        ),
    ] {
        layers.insert(name, value);
    }
    Traced {
        sim: sim_e2e,
        digest,
        wall,
        layers,
        failures,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The fleet's traced pass: `run_fleet`'s shard loop replayed call by call
/// on the same number of worker threads, then the fleet-level calls.
/// Records the fleet, metrics and SLO layer metrics into `layers`.
fn fleet(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    threads: usize,
    layers: &mut BTreeMap<&'static str, f64>,
) -> (SimE2e, Option<String>, Duration, Vec<DevicePass>) {
    let start = Instant::now();
    let mut partition = Duration::ZERO;
    let parts = timed(&mut partition, || inputs.spec.partition(FLEET_SHARDS));
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(FLEET_SHARDS));
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, FLEET_SHARDS) {
            scope.spawn(|| loop {
                let shard = next.fetch_add(1, Ordering::Relaxed);
                if shard >= FLEET_SHARDS {
                    break;
                }
                let mut times = CallTimes::default();
                let profile = timed(&mut times.generate, || {
                    inputs.mix.profile_for_shard(shard as u64).clone()
                });
                let seed = timed(&mut times.generate, || shard_seed(seed, shard as u64));
                let (report, submitted) = device_pass(
                    workload,
                    &profile,
                    &inputs.catalogue,
                    &parts[shard],
                    seed,
                    &mut times,
                );
                let stats = timed(&mut times.reduce, || {
                    ShardStats::from_report(shard as u32, profile.soc, &report)
                });
                let pass = DevicePass {
                    shard,
                    profile,
                    times,
                    report,
                    submitted,
                };
                done.lock()
                    .expect("a sibling worker panicked")
                    .push((pass, stats));
            });
        }
    });
    let run_s = start.elapsed();
    let (mut passes, shard_stats): (Vec<DevicePass>, Vec<ShardStats>) = done
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .unzip();
    passes.sort_by_key(|p| p.shard);
    passes[0].times.generate += partition;

    let (mut merge, mut evaluate, mut digest_s) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let stats = timed(&mut merge, || FleetStats::from_shards(shard_stats));
    let merged = timed(&mut merge, || stats.merged_metrics());
    let slo = timed(&mut evaluate, || {
        let targets = SloTarget::defaults_for(&merged);
        slo::evaluate(&merged, &targets, &SloConfig::default())
    });
    let digest = timed(&mut digest_s, || stats.digest());
    let wall = start.elapsed();

    let mut submitted = Submitted::default();
    for p in &passes {
        submitted.total += p.submitted.total;
        submitted.followup += p.submitted.followup;
    }
    let sim = workload::fleet_e2e(&stats, &merged, submitted);

    let shard_walls: Vec<(&str, f64)> = passes
        .iter()
        .map(|p| (p.profile.soc, secs(p.times.total())))
        .collect();
    let mean = |walls: &[f64]| ratio(walls.iter().sum(), walls.len() as f64);
    let all: Vec<f64> = shard_walls.iter().map(|&(_, w)| w).collect();
    layers.insert("fleet.run_s", secs(run_s));
    layers.insert(
        "fleet.reduce_s",
        passes.iter().map(|p| secs(p.times.reduce)).sum(),
    );
    layers.insert("fleet.merge_s", secs(merge));
    layers.insert("fleet.digest_s", secs(digest_s));
    for (soc, name) in SOCS.iter().zip([
        "fleet.shard_run_s.rk3588",
        "fleet.shard_run_s.rk3576",
        "fleet.shard_run_s.rk3566",
    ]) {
        let walls: Vec<f64> = shard_walls
            .iter()
            .filter(|(s, _)| s == soc)
            .map(|&(_, w)| w)
            .collect();
        layers.insert(name, mean(&walls));
    }
    layers.insert(
        "fleet.straggler_ratio",
        ratio(all.iter().copied().fold(0.0, f64::max), mean(&all)),
    );
    layers.insert("metrics.series", merged.series_count() as f64);
    layers.insert("metrics.bytes", merged.canonical_bytes().len() as f64);
    layers.insert("slo.evaluate_s", secs(evaluate));
    layers.insert("slo.episodes", slo.episodes.len() as f64);
    layers.insert("slo.burn_rate_peak", slo.peak_burn_rate());
    (sim, Some(digest), wall, passes)
}
