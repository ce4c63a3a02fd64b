//! Sharded parallel fleet simulation.
//!
//! The serving layer simulates *one* device; the ROADMAP's fleet-scale
//! experiments need millions of requests across millions of devices.
//! Devices share no state — each phone is its own TrustZone — so the fleet
//! is embarrassingly shardable: [`run_fleet`] partitions a fleet-wide
//! [`WorkloadSpec`] into per-device-shard sub-workloads
//! ([`WorkloadSpec::partition`]), runs one independent
//! [`Server`] + `sim_core` engine per shard on
//! [`std::thread::scope`] workers, and merges the per-shard results into one
//! [`FleetStats`].
//!
//! Three properties make the parallel run trustworthy:
//!
//! * **Splittable seeds** — shard `i` draws every stream from
//!   [`sim_core::shard_seed`]`(seed, i)`; shard 0 is the identity, so a
//!   1-shard fleet replays the unsharded serial trace bit-for-bit.
//! * **Thread-count independence** — worker threads claim shard indices
//!   from an atomic counter, but nothing a shard computes depends on which
//!   thread ran it or when; `--threads 1` and `--threads N` produce
//!   byte-identical merged stats (CI's determinism matrix gate diffs the
//!   [`FleetStats::digest`] of both on every PR).
//! * **Associative merging** — [`FleetStats`] is a map keyed by shard index
//!   (disjoint-key union is associative and permutation-invariant by
//!   construction); order-sensitive floating-point aggregates are *derived*
//!   from the map in shard-index order at read time, never accumulated in
//!   completion order.  Percentiles merge exactly: each shard keeps its raw
//!   sorted sample vectors and the fleet summary is computed over their
//!   multiset union.
//!
//! Device heterogeneity comes from [`DeviceMix`]: each shard's
//! [`PlatformProfile`] is a pure function of its index, so a fleet can span
//! flagship/midrange/entry SoC calibrations without threatening determinism.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use llm::ModelSpec;
use sim_core::{shard_seed, LogHistogram, PercentileSummary, WindowedMetrics};
use tz_crypto::Sha256;
use tz_hal::PlatformProfile;
use workloads::{DeviceMix, WorkloadSpec};

use crate::serving::{Server, ServingConfig, ServingReport};

/// How a fleet run is sharded and parallelised.
///
/// `shards` is part of the experiment definition: it fixes the workload
/// partition and the per-shard seed streams, so changing it changes the
/// simulated fleet.  `threads` is pure execution: any thread count yields
/// byte-identical merged stats for the same `(workload, seed, shards, mix)`.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of device shards the workload is partitioned into.
    pub shards: usize,
    /// Worker threads executing the shards (clamped to `1..=shards`).
    pub threads: usize,
    /// Which SoC calibration each shard runs.
    pub mix: DeviceMix,
}

impl FleetConfig {
    /// A homogeneous RK3588 fleet.
    pub fn homogeneous(shards: usize, threads: usize) -> Self {
        FleetConfig {
            shards,
            threads,
            mix: DeviceMix::homogeneous(PlatformProfile::rk3588()),
        }
    }

    /// The default heterogeneous fleet
    /// ([`DeviceMix::heterogeneous_default`]).
    pub fn heterogeneous(shards: usize, threads: usize) -> Self {
        FleetConfig {
            shards,
            threads,
            mix: DeviceMix::heterogeneous_default(),
        }
    }
}

/// The mergeable statistics of one device shard: every deterministic counter
/// the serving layer's [`FleetStats`](crate::serving::FleetStats) carries
/// (KV, batching, speculation — PRs 3–7), plus the raw sorted latency
/// samples exact percentile merging needs.  Derived ratios and means are
/// deliberately absent: they are recomputed from these exact quantities at
/// fleet level, because merged ratios of ratios are neither associative nor
/// meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index within the fleet.
    pub shard: u32,
    /// SoC name of the shard's [`PlatformProfile`] calibration.
    pub soc: String,
    /// Completed requests.
    pub completed: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Completion time of the shard's last request, nanoseconds.
    pub horizon_ns: u64,
    /// Dispatches that found a completely cold cache.
    pub cold_starts: u64,
    /// Parameter bytes restored ahead of dispatch.
    pub restore_ahead_bytes: u64,
    /// Restoration-plan cache hits.
    pub plan_cache_hits: u64,
    /// Restoration-plan cache misses.
    pub plan_cache_misses: u64,
    /// NPU steps the shard's step loop executed.
    pub batch_steps: u64,
    /// Starvation guard maximum across the shard's steps.
    pub batch_max_steps_behind: u64,
    /// Batched steps that ran a speculative draft + verify pass.
    pub spec_steps: u64,
    /// Draft tokens proposed.
    pub spec_proposed_tokens: u64,
    /// Draft tokens accepted by the verify pass.
    pub spec_accepted_tokens: u64,
    /// Draft tokens rejected and rewound.
    pub spec_rejected_tokens: u64,
    /// Prompt tokens served from retained KV state.
    pub kv_reused_tokens: u64,
    /// Plain (f16) KV bytes sealed and spilled.
    pub kv_spilled_bytes: u64,
    /// Compressed bytes those seals actually wrote.
    pub kv_spilled_compressed_bytes: u64,
    /// Sealed bytes unsealed at dispatch time.
    pub kv_unsealed_bytes: u64,
    /// Sealed bytes unsealed ahead of dispatch.
    pub kv_restore_ahead_bytes: u64,
    /// f16 bytes reconstructed by dequantization.
    pub kv_dequant_bytes: u64,
    /// Retained KV bytes dropped.
    pub kv_dropped_bytes: u64,
    /// Prompt tokens served from other sessions' shared pages.
    pub kv_shared_tokens: u64,
    /// Peak secure bytes saved by content-addressed dedup.
    pub kv_deduped_bytes: u64,
    /// End-to-end TTFT samples, milliseconds, sorted ascending.
    pub ttft_ms: Vec<f64>,
    /// Service TTFT samples (dispatch → first token), ms, sorted ascending.
    pub service_ttft_ms: Vec<f64>,
    /// Queue-wait samples, milliseconds, sorted ascending.
    pub queue_wait_ms: Vec<f64>,
    /// Follow-up-turn TTFT samples (requests with a shared prefix), ms,
    /// sorted ascending.
    pub followup_ttft_ms: Vec<f64>,
    /// The shard's windowed metric series (disabled/empty unless the shard's
    /// [`ServingConfig`] enabled metrics).  Counters, gauges and log-bucketed
    /// histograms all merge bucket-wise with pure integer arithmetic, so the
    /// fleet-level fold is exactly associative and permutation-invariant —
    /// this is what lets `fleet_scale` report time-resolved percentiles
    /// without shipping raw samples.
    pub metrics: WindowedMetrics,
}

impl ShardStats {
    /// Reduces one shard's [`ServingReport`] to its mergeable statistics.
    /// The records themselves are dropped by the caller right after, which
    /// is what keeps a million-request fleet's memory bounded.
    pub fn from_report(shard: u32, soc: &str, report: &ServingReport) -> Self {
        let sorted = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
            v
        };
        let fleet = &report.fleet;
        ShardStats {
            shard,
            soc: soc.to_string(),
            completed: report.records.len() as u64,
            rejected: report.rejected.len() as u64,
            horizon_ns: fleet.horizon.as_nanos(),
            cold_starts: fleet.cold_starts as u64,
            restore_ahead_bytes: fleet.restore_ahead_bytes,
            plan_cache_hits: fleet.plan_cache_hits,
            plan_cache_misses: fleet.plan_cache_misses,
            batch_steps: fleet.batch_steps,
            batch_max_steps_behind: fleet.batch_max_steps_behind,
            spec_steps: fleet.spec_steps,
            spec_proposed_tokens: fleet.spec_proposed_tokens,
            spec_accepted_tokens: fleet.spec_accepted_tokens,
            spec_rejected_tokens: fleet.spec_rejected_tokens,
            kv_reused_tokens: fleet.kv_reused_tokens,
            kv_spilled_bytes: fleet.kv_spilled_bytes,
            kv_spilled_compressed_bytes: fleet.kv_spilled_compressed_bytes,
            kv_unsealed_bytes: fleet.kv_unsealed_bytes,
            kv_restore_ahead_bytes: fleet.kv_restore_ahead_bytes,
            kv_dequant_bytes: fleet.kv_dequant_bytes,
            kv_dropped_bytes: fleet.kv_dropped_bytes,
            kv_shared_tokens: fleet.kv_shared_tokens,
            kv_deduped_bytes: fleet.kv_deduped_bytes,
            ttft_ms: sorted(
                report
                    .records
                    .iter()
                    .map(|r| r.ttft_e2e().as_millis_f64())
                    .collect(),
            ),
            service_ttft_ms: sorted(
                report
                    .records
                    .iter()
                    .map(|r| r.service_ttft().as_millis_f64())
                    .collect(),
            ),
            queue_wait_ms: sorted(
                report
                    .records
                    .iter()
                    .map(|r| r.queue_wait().as_millis_f64())
                    .collect(),
            ),
            followup_ttft_ms: sorted(
                report
                    .records
                    .iter()
                    .filter(|r| r.request.shared_prefix_len > 0)
                    .map(|r| r.ttft_e2e().as_millis_f64())
                    .collect(),
            ),
            metrics: report.metrics.clone().unwrap_or_else(WindowedMetrics::off),
        }
    }

    /// Feeds this shard's canonical byte serialization into `hasher`:
    /// integers little-endian, floats as IEEE-754 bit patterns — no
    /// formatting, no locale, no platform dependence.
    fn hash_into(&self, hasher: &mut Sha256) {
        hasher.update(&self.shard.to_le_bytes());
        hasher.update(&(self.soc.len() as u64).to_le_bytes());
        hasher.update(self.soc.as_bytes());
        for counter in [
            self.completed,
            self.rejected,
            self.horizon_ns,
            self.cold_starts,
            self.restore_ahead_bytes,
            self.plan_cache_hits,
            self.plan_cache_misses,
            self.batch_steps,
            self.batch_max_steps_behind,
            self.spec_steps,
            self.spec_proposed_tokens,
            self.spec_accepted_tokens,
            self.spec_rejected_tokens,
            self.kv_reused_tokens,
            self.kv_spilled_bytes,
            self.kv_spilled_compressed_bytes,
            self.kv_unsealed_bytes,
            self.kv_restore_ahead_bytes,
            self.kv_dequant_bytes,
            self.kv_dropped_bytes,
            self.kv_shared_tokens,
            self.kv_deduped_bytes,
        ] {
            hasher.update(&counter.to_le_bytes());
        }
        for samples in [
            &self.ttft_ms,
            &self.service_ttft_ms,
            &self.queue_wait_ms,
            &self.followup_ttft_ms,
        ] {
            hasher.update(&(samples.len() as u64).to_le_bytes());
            for v in samples.iter() {
                hasher.update(&v.to_bits().to_le_bytes());
            }
        }
        let metric_bytes = self.metrics.canonical_bytes();
        hasher.update(&(metric_bytes.len() as u64).to_le_bytes());
        hasher.update(&metric_bytes);
    }
}

/// Deterministically merged fleet statistics: a map from shard index to
/// [`ShardStats`].  The map *is* the mergeable structure — union of
/// disjoint-key maps is associative and commutative, so any merge tree over
/// any shard arrival order yields the same value (the property tests in
/// `tests/fleet.rs` exercise exactly this).  Fleet-level aggregates are
/// accessor methods that fold the map in shard-index order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetStats {
    shards: BTreeMap<u32, ShardStats>,
}

impl FleetStats {
    /// An empty fleet (the merge identity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one shard's stats.
    ///
    /// # Panics
    /// Panics if the shard index is already present — a duplicate means two
    /// workers ran the same shard, which would double-count silently.
    pub fn insert(&mut self, stats: ShardStats) {
        let shard = stats.shard;
        assert!(
            self.shards.insert(shard, stats).is_none(),
            "shard {shard} merged twice"
        );
    }

    /// Merges two disjoint fleets.  Associative and permutation-invariant:
    /// `a.merge(b.merge(c)) == a.merge(b).merge(c)` and any argument order
    /// yields the same map.
    ///
    /// # Panics
    /// Panics if the fleets share a shard index.
    #[must_use]
    pub fn merge(mut self, other: FleetStats) -> FleetStats {
        for (_, stats) in other.shards {
            self.insert(stats);
        }
        self
    }

    /// Builds a fleet from shard stats in any order.
    pub fn from_shards(shards: impl IntoIterator<Item = ShardStats>) -> Self {
        let mut fleet = Self::new();
        for s in shards {
            fleet.insert(s);
        }
        fleet
    }

    /// The merged shards in shard-index order.
    pub fn shards(&self) -> impl Iterator<Item = &ShardStats> {
        self.shards.values()
    }

    /// Number of merged shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Completed requests across the fleet.
    pub fn completed(&self) -> u64 {
        self.shards.values().map(|s| s.completed).sum()
    }

    /// Rejected requests across the fleet.
    pub fn rejected(&self) -> u64 {
        self.shards.values().map(|s| s.rejected).sum()
    }

    /// The latest shard horizon, nanoseconds — the fleet experiment's
    /// simulated makespan (devices run in parallel in the real world).
    pub fn horizon_ns(&self) -> u64 {
        self.shards
            .values()
            .map(|s| s.horizon_ns)
            .max()
            .unwrap_or(0)
    }

    /// Simulated fleet throughput in requests/second: the sum of each
    /// device shard's own completion rate (devices serve independently and
    /// concurrently).  Folded in shard-index order, so the floating-point
    /// sum is reproducible.
    pub fn throughput_rps(&self) -> f64 {
        self.shards
            .values()
            .map(|s| {
                let secs = s.horizon_ns as f64 / 1e9;
                if secs > 0.0 {
                    s.completed as f64 / secs
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Sums one counter across shards in shard-index order.
    pub fn counter(&self, f: impl Fn(&ShardStats) -> u64) -> u64 {
        self.shards.values().map(f).sum()
    }

    /// Exact fleet-wide end-to-end TTFT percentiles (multiset union of the
    /// shards' samples).
    pub fn ttft_ms(&self) -> Option<PercentileSummary> {
        self.merged_summary(|s| &s.ttft_ms)
    }

    /// Exact fleet-wide service-TTFT percentiles.
    pub fn service_ttft_ms(&self) -> Option<PercentileSummary> {
        self.merged_summary(|s| &s.service_ttft_ms)
    }

    /// Exact fleet-wide queue-wait percentiles.
    pub fn queue_wait_ms(&self) -> Option<PercentileSummary> {
        self.merged_summary(|s| &s.queue_wait_ms)
    }

    /// Exact fleet-wide follow-up-turn TTFT percentiles.
    pub fn followup_ttft_ms(&self) -> Option<PercentileSummary> {
        self.merged_summary(|s| &s.followup_ttft_ms)
    }

    /// Exact per-SoC end-to-end TTFT percentiles, keyed by calibration name
    /// — how the heterogeneous mix splits the fleet distribution.
    pub fn ttft_ms_by_soc(&self) -> BTreeMap<String, PercentileSummary> {
        let mut by_soc: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in self.shards.values() {
            by_soc
                .entry(s.soc.clone())
                .or_default()
                .extend_from_slice(&s.ttft_ms);
        }
        by_soc
            .into_iter()
            .filter_map(|(soc, v)| PercentileSummary::from_values(&v).map(|p| (soc, p)))
            .collect()
    }

    /// The fleet's windowed metric series: every shard's [`WindowedMetrics`]
    /// folded bucket-wise in shard-index order.  The fold is pure integer
    /// arithmetic, so any fold order would produce the same value — index
    /// order is used for definiteness, not correctness.  Disabled (and
    /// therefore empty) shard registries merge as identities, so a fleet
    /// with metrics off returns a disabled registry.
    pub fn merged_metrics(&self) -> WindowedMetrics {
        let mut merged = WindowedMetrics::off();
        for s in self.shards.values() {
            merged.merge_from(&s.metrics);
        }
        merged
    }

    /// The fleet-wide run-total histogram for one `(metric, class)` series:
    /// all shards' per-window histograms merged into one.  `None` when no
    /// shard recorded the series.
    pub fn merged_histogram(
        &self,
        name: &'static str,
        class: &'static str,
    ) -> Option<LogHistogram> {
        let mut merged: Option<LogHistogram> = None;
        for s in self.shards.values() {
            if let Some(h) = s.metrics.merged_histogram(name, class) {
                merged.get_or_insert_with(LogHistogram::new).merge_from(&h);
            }
        }
        merged
    }

    fn merged_summary(&self, f: impl Fn(&ShardStats) -> &Vec<f64>) -> Option<PercentileSummary> {
        let merged: Vec<f64> = self
            .shards
            .values()
            .flat_map(|s| f(s).iter().copied())
            .collect();
        PercentileSummary::from_values(&merged)
    }

    /// The canonical stats digest: hex SHA-256 over every shard's exact
    /// byte serialization in shard-index order.  Byte-stable across
    /// machines, thread counts and merge orders — CI's determinism matrix
    /// gate `diff`s this string across `--threads 1/2/8` runs.
    pub fn digest(&self) -> String {
        let mut hasher = Sha256::new();
        hasher.update(&(self.shards.len() as u64).to_le_bytes());
        for stats in self.shards.values() {
            stats.hash_into(&mut hasher);
        }
        let digest = hasher.finalize();
        let mut hex = String::with_capacity(digest.len() * 2);
        for byte in digest {
            use std::fmt::Write as _;
            let _ = write!(hex, "{byte:02x}");
        }
        hex
    }
}

/// Runs the fleet: partitions `workload` into `config.shards` sub-workloads,
/// executes one independent serving simulation per shard on up to
/// `config.threads` scoped worker threads, and merges the results.
///
/// `make_config` builds each shard's [`ServingConfig`] from the shard's
/// [`DeviceMix`]-assigned profile; it must be a pure function of the profile
/// (and must install that profile), or determinism across thread counts is
/// forfeit.  Shard `i` runs with seed [`shard_seed`]`(seed, i)`, so a
/// 1-shard fleet reproduces `Server::run_workload(config, catalogue,
/// workload, seed)` exactly.
pub fn run_fleet<F>(
    workload: &WorkloadSpec,
    catalogue: &[ModelSpec],
    seed: u64,
    config: &FleetConfig,
    make_config: F,
) -> FleetStats
where
    F: Fn(&PlatformProfile) -> ServingConfig + Sync,
{
    let sub_workloads = workload.partition(config.shards);
    let next_shard = AtomicUsize::new(0);
    let results: Mutex<Vec<ShardStats>> = Mutex::new(Vec::with_capacity(config.shards));
    let workers = config.threads.clamp(1, config.shards);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let shard = next_shard.fetch_add(1, Ordering::Relaxed);
                if shard >= config.shards {
                    break;
                }
                let profile = config.mix.profile_for_shard(shard as u64);
                let serving = make_config(profile);
                let report = Server::run_workload(
                    serving,
                    catalogue.to_vec(),
                    &sub_workloads[shard],
                    shard_seed(seed, shard as u64),
                );
                // Reduce to mergeable stats immediately: the per-request
                // records die here, keeping fleet memory O(samples), not
                // O(requests × record).
                let stats = ShardStats::from_report(shard as u32, profile.soc, &report);
                results
                    .lock()
                    .expect("a sibling worker panicked")
                    .push(stats);
            });
        }
    });
    FleetStats::from_shards(results.into_inner().expect("workers joined"))
}
