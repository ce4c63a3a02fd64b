//! The three benchmark workloads: their shapes, how each is generated from a
//! seed and set up, the timed simulation call, and how the end-to-end
//! simulated metrics are read from its result.

use std::hint::black_box;
use std::time::{Duration, Instant};

use llm::ModelSpec;
use sim_core::{shard_seed, LogHistogram, SimDuration, WindowedMetrics};
use tz_hal::PlatformProfile;
use tzllm::fleet::{run_fleet, FleetConfig, FleetStats};
use tzllm::serving::{RequestRecord, Server, ServingConfig, ServingReport, SpeculationConfig};
use tzllm::slo::{self, SloConfig, SloTarget, DEFAULT_OBJECTIVES};
use tzllm::{KvConfig, SpillFormat};
use workloads::{ArrivalProcess, DeviceMix, SessionScript, WorkloadSpec};

use crate::extract::{self, Tally};

/// Device shards of `fleet_storm`.
pub const FLEET_SHARDS: usize = 8;
/// Requests per run of each workload: enough that p99 has well over ten
/// samples beyond it and that seed-to-seed spread stays small, few enough
/// that a run repeats the simulation several times.
const FLEET_REQUESTS: usize = 16_000;
const ASSISTANT_REQUESTS: usize = 12_000;
const AGENT_REQUESTS: usize = 300_000;
/// The catalogue `fleet_storm` draws from uniformly.
const FLEET_MODELS: [&str; 3] = ["tinyllama-1.1b", "qwen2.5-3b", "phi-3-3.8b"];
/// The model the single-device workloads serve.
const DEVICE_MODEL: &str = "qwen2.5-3b";

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop spike over a sharded heterogeneous fleet: plan work, fleet
    /// merge and SLO evaluation dominate.
    FleetStorm,
    /// Closed-loop assistant sessions on one RK3588 with the secure KV
    /// manager under a tight budget: the only workload where `kv` works.
    AssistantKv,
    /// Closed-loop agent bursts on one RK3588 with speculative decoding:
    /// the batched step loop dominates.
    AgentSpec,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetStorm,
        Workload::AssistantKv,
        Workload::AgentSpec,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetStorm => "fleet_storm",
            Workload::AssistantKv => "assistant_kv",
            Workload::AgentSpec => "agent_spec",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn spec(self) -> WorkloadSpec {
        match self {
            // 0.1 rps per device, with one 8x surge of 15 min at t = 1 h.
            Workload::FleetStorm => WorkloadSpec::standard_multi(
                ArrivalProcess::PoissonSpike {
                    rate_per_sec: 0.1 * FLEET_SHARDS as f64,
                    surge_x: 8.0,
                    spike_start: SimDuration::from_secs(3_600),
                    spike_len: SimDuration::from_secs(900),
                },
                FLEET_REQUESTS,
                &FLEET_MODELS,
            ),
            Workload::AssistantKv => WorkloadSpec::assistant(
                12,
                ASSISTANT_REQUESTS,
                SimDuration::from_secs(60),
                512,
                DEVICE_MODEL,
            ),
            Workload::AgentSpec => WorkloadSpec::agent_burst(
                6,
                AGENT_REQUESTS,
                SimDuration::from_secs(1),
                DEVICE_MODEL,
            ),
        }
    }

    fn catalogue(self) -> Vec<ModelSpec> {
        let names: &[&str] = match self {
            Workload::FleetStorm => &FLEET_MODELS,
            Workload::AssistantKv | Workload::AgentSpec => &[DEVICE_MODEL],
        };
        names
            .iter()
            .map(|m| ModelSpec::by_name(m).expect("catalogue model"))
            .collect()
    }

    /// The serving configuration of one device running this workload.
    pub fn serving_config(self, profile: &PlatformProfile) -> ServingConfig {
        let profile = profile.clone();
        match self {
            Workload::FleetStorm => ServingConfig {
                metrics: Some(WindowedMetrics::DEFAULT_WINDOW),
                ..ServingConfig::paper_default(profile)
            },
            Workload::AssistantKv => {
                let mut config = ServingConfig::chat_default(profile);
                config.kv = KvConfig::chat_quantized(SpillFormat::Int8);
                config.kv.budget_fraction = 0.05;
                config
            }
            Workload::AgentSpec => ServingConfig {
                speculation: SpeculationConfig::paper_default(),
                ..ServingConfig::paper_default(profile)
            },
        }
    }
}

/// The public inputs of one workload run, shared by the untraced and the
/// traced paths.
pub struct Inputs {
    pub spec: WorkloadSpec,
    pub catalogue: Vec<ModelSpec>,
    pub mix: DeviceMix,
}

impl Inputs {
    /// Builds the workload description and its model catalogue.
    pub fn new(workload: Workload) -> Inputs {
        Inputs {
            spec: workload.spec(),
            catalogue: workload.catalogue(),
            mix: match workload {
                Workload::FleetStorm => DeviceMix::heterogeneous_default(),
                Workload::AssistantKv | Workload::AgentSpec => {
                    DeviceMix::homogeneous(PlatformProfile::rk3588())
                }
            },
        }
    }
}

/// Requests submitted to the devices, by SLO class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Submitted {
    /// Every submitted request.
    pub total: u64,
    /// Follow-up turns (requests that extend a session's previous context).
    pub followup: u64,
}

impl Submitted {
    /// Counts the requests of generated session scripts.
    pub fn add(&mut self, scripts: &[SessionScript]) {
        for r in scripts.iter().flat_map(|s| &s.requests) {
            self.total += 1;
            self.followup += u64::from(r.shared_prefix_len > 0);
        }
    }

    fn cold(&self) -> u64 {
        self.total - self.followup
    }
}

/// A workload set up and ready for its timed simulation call.
pub enum Prepared {
    /// `fleet_storm`: `run_fleet` generates each shard's traffic itself, so
    /// set-up derives the same shard inputs only to count what is submitted.
    Fleet {
        inputs: Inputs,
        submitted: Submitted,
    },
    /// A single device with every session submitted.
    Device {
        server: Box<Server>,
        submitted: Submitted,
    },
}

/// Everything before the timed call: catalogue, `WorkloadSpec::generate`,
/// and for one device `Server::new` plus `submit_script`.
pub fn setup(workload: Workload, seed: u64) -> Prepared {
    let inputs = Inputs::new(workload);
    let mut submitted = Submitted::default();
    if workload == Workload::FleetStorm {
        for (shard, part) in inputs.spec.partition(FLEET_SHARDS).iter().enumerate() {
            submitted.add(&part.generate(shard_seed(seed, shard as u64)));
        }
        return Prepared::Fleet { inputs, submitted };
    }
    let scripts = inputs.spec.generate(seed);
    submitted.add(&scripts);
    let profile = inputs.mix.profile_for_shard(0).clone();
    let mut server = Server::new(workload.serving_config(&profile), inputs.catalogue);
    for script in scripts {
        server.submit_script(script);
    }
    Prepared::Device {
        server: Box::new(server),
        submitted,
    }
}

/// The result of one untraced simulation call.
pub struct Outcome {
    /// End-to-end simulated metrics.
    pub sim: SimE2e,
    /// `FleetStats::digest` (fleet workloads only).
    pub digest: Option<String>,
    /// Wall time of the timed call.
    pub wall: Duration,
}

/// The timed simulation call: `run_fleet` through `merged_metrics`,
/// `slo::evaluate` and `digest` for the fleet, `Server::run` for one device.
pub fn run(workload: Workload, prepared: Prepared, seed: u64, threads: usize) -> Outcome {
    match prepared {
        Prepared::Fleet { inputs, submitted } => {
            let config = FleetConfig {
                shards: FLEET_SHARDS,
                threads,
                mix: inputs.mix.clone(),
            };
            let start = Instant::now();
            let stats = run_fleet(&inputs.spec, &inputs.catalogue, seed, &config, |p| {
                workload.serving_config(p)
            });
            let merged = stats.merged_metrics();
            let targets = SloTarget::defaults_for(&merged);
            black_box(slo::evaluate(&merged, &targets, &SloConfig::default()));
            let digest = stats.digest();
            let wall = start.elapsed();
            Outcome {
                sim: fleet_e2e(&stats, &merged, submitted),
                digest: Some(digest),
                wall,
            }
        }
        Prepared::Device { server, submitted } => {
            let start = Instant::now();
            let report = (*server).run();
            let wall = start.elapsed();
            Outcome {
                sim: device_e2e(&report, submitted),
                digest: None,
                wall,
            }
        }
    }
}

/// The end-to-end simulated metrics of one run.  They depend only on the
/// workload and the seed, never on the host.
#[derive(Debug, Clone)]
pub struct SimE2e {
    pub submitted: u64,
    pub completed: u64,
    pub rejected: u64,
    /// TTFT samples (completed requests).
    pub ttft_n: u64,
    pub ttft_p50_s: Option<f64>,
    pub ttft_p99_s: Option<f64>,
    /// TBT samples (completed requests with more than one output token).
    pub tbt_n: u64,
    pub tbt_p50_ms: Option<f64>,
    pub tbt_p99_ms: Option<f64>,
    pub slo_attainment: Option<f64>,
    pub throughput_rps: f64,
}

impl SimE2e {
    /// Submitted requests neither completed nor rejected.
    pub fn lost(&self) -> u64 {
        self.submitted
            .saturating_sub(self.completed + self.rejected)
    }

    /// Every field as raw bits, for bit-for-bit comparison between runs.
    pub fn fingerprint(&self) -> Vec<u64> {
        let opt = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
        vec![
            self.submitted,
            self.completed,
            self.rejected,
            self.ttft_n,
            opt(self.ttft_p50_s),
            opt(self.ttft_p99_s),
            self.tbt_n,
            opt(self.tbt_p50_ms),
            opt(self.tbt_p99_ms),
            opt(self.slo_attainment),
            self.throughput_rps.to_bits(),
        ]
    }
}

/// The `tzllm::slo` default limit of one target series.
fn limit(metric: &str) -> SimDuration {
    DEFAULT_OBJECTIVES
        .iter()
        .find(|o| o.0 == metric)
        .map(|o| o.1)
        .unwrap_or_else(|| panic!("tzllm::slo has no default target {metric:?}"))
}

/// Per-request mean inter-token gap, as serving's `tbt` series computes it.
fn tbt_ns(r: &RequestRecord) -> Option<u64> {
    let gaps = r.request.output_len.checked_sub(1).filter(|&g| g > 0)? as u64;
    Some(r.completed.saturating_since(r.first_token).as_nanos() / gaps)
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// End-to-end metrics of one device from its full per-request records.
pub fn device_e2e(report: &ServingReport, submitted: Submitted) -> SimE2e {
    let records = &report.records;
    let ttft = sorted(records.iter().map(|r| r.ttft_e2e().as_secs_f64()).collect());
    let tbt = sorted(
        records
            .iter()
            .filter_map(tbt_ns)
            .map(|ns| ns as f64 / 1e6)
            .collect(),
    );
    let (cold_limit, followup_limit) = (limit("ttft_cold"), limit("ttft_followup"));
    let tbt_limit = limit("tbt").as_nanos();
    let mut cold = Tally {
        submitted: submitted.cold(),
        good: 0,
    };
    let mut followup = Tally {
        submitted: submitted.followup,
        good: 0,
    };
    let mut gaps = Tally {
        submitted: submitted.total,
        good: 0,
    };
    for r in records {
        let ttft = r.ttft_e2e();
        if r.request.shared_prefix_len == 0 {
            cold.good += u64::from(ttft <= cold_limit);
        } else {
            followup.good += u64::from(ttft <= followup_limit);
        }
        // A single-token response has no gap, so it cannot miss the limit.
        gaps.good += u64::from(tbt_ns(r).is_none_or(|g| g <= tbt_limit));
    }
    SimE2e {
        submitted: submitted.total,
        completed: records.len() as u64,
        rejected: report.rejected.len() as u64,
        ttft_n: ttft.len() as u64,
        ttft_p50_s: extract::percentile(&ttft, 0.5),
        ttft_p99_s: extract::percentile(&ttft, 0.99),
        tbt_n: tbt.len() as u64,
        tbt_p50_ms: extract::percentile(&tbt, 0.5),
        tbt_p99_ms: extract::percentile(&tbt, 0.99),
        slo_attainment: extract::slo_attainment(&[cold, followup, gaps]),
        throughput_rps: report.fleet.throughput_rps,
    }
}

/// End-to-end metrics of a fleet.  `run_fleet` drops the per-request
/// records, so TTFT comes from the shards' exact samples and TBT from the
/// fleet-merged `tbt` sketch (≤1% quantile error).
pub fn fleet_e2e(stats: &FleetStats, merged: &WindowedMetrics, submitted: Submitted) -> SimE2e {
    let all_ms = || stats.shards().flat_map(|s| s.ttft_ms.iter().copied());
    let followup_ms = || {
        stats
            .shards()
            .flat_map(|s| s.followup_ttft_ms.iter().copied())
    };
    let ttft = sorted(all_ms().map(|ms| ms / 1e3).collect());
    let within = |it: &mut dyn Iterator<Item = f64>, limit: SimDuration| {
        it.filter(|&ms| ms <= limit.as_millis_f64()).count() as u64
    };
    let (cold_limit, followup_limit) = (limit("ttft_cold"), limit("ttft_followup"));
    let cold = Tally {
        submitted: submitted.cold(),
        good: within(&mut all_ms(), cold_limit) - within(&mut followup_ms(), cold_limit),
    };
    let followup = Tally {
        submitted: submitted.followup,
        good: within(&mut followup_ms(), followup_limit),
    };
    let mut tbt = LogHistogram::new();
    for class in merged.histogram_classes("tbt") {
        if let Some(h) = merged.merged_histogram("tbt", class) {
            tbt.merge_from(&h);
        }
    }
    let completed = stats.completed();
    // Completed requests missing from the sketch had a single output token.
    let gaps = Tally {
        submitted: submitted.total,
        good: tbt.count_le_ns(limit("tbt").as_nanos()) + (completed - tbt.count()),
    };
    let tbt_quantile = |q: f64| {
        extract::tail_supported(q, tbt.count() as usize)
            .then(|| tbt.quantile_ms(q))
            .flatten()
    };
    SimE2e {
        submitted: submitted.total,
        completed,
        rejected: stats.rejected(),
        ttft_n: ttft.len() as u64,
        ttft_p50_s: extract::percentile(&ttft, 0.5),
        ttft_p99_s: extract::percentile(&ttft, 0.99),
        tbt_n: tbt.count(),
        tbt_p50_ms: tbt_quantile(0.5),
        tbt_p99_ms: tbt_quantile(0.99),
        slo_attainment: extract::slo_attainment(&[cold, followup, gaps]),
        throughput_rps: stats.throughput_rps(),
    }
}
