//! The evaluated systems of §7 as rows of one pricing function.
//!
//! * **REE-LLM-Memory** — unmodified llama.cpp in the REE with all parameters
//!   preloaded (theoretical best; no protection, memory-inefficient).
//! * **REE-LLM-Flash** — unmodified llama.cpp in the REE, loading parameters
//!   with pipelined restoration at inference start (buddy allocation, no
//!   decryption; practical but unprotected).
//! * **Strawman** — LLM inference in the TEE without TZ-LLM's optimisations:
//!   full cold start (framework init, sequential CMA allocation, load,
//!   decryption) and CPU-only computation.
//! * **TZ-LLM** — this paper's system (see [`crate::system`]).
//!
//! Each baseline is a row of inputs — operator device, restore rates,
//! cached bytes, policy and co-driver handoff — that [`evaluate`] prices
//! with the code a serving dispatch runs on a plan-cache miss, and reports
//! with the code a dispatch reports with.

use sim_core::SimDuration;
use tz_hal::PlatformProfile;

#[cfg(test)]
use llm::ModelSpec;

use crate::pipeline::Policy;
use crate::restore::{PipeOpKind, RestoreRates};
use crate::system::{
    self, cma_occupancy, evaluate_tzllm, InferenceConfig, InferenceReport, SystemRow,
};

/// The systems compared in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemKind {
    /// Parameters preloaded in REE memory.
    ReeLlmMemory,
    /// Parameters restored from flash in the REE (buddy allocation, no
    /// decryption).
    ReeLlmFlash,
    /// TEE inference without pipelining or NPU support.
    Strawman,
    /// The full TZ-LLM system.
    TzLlm,
}

impl SystemKind {
    /// All systems in the order the figures plot them.
    pub fn all() -> [SystemKind; 4] {
        [
            SystemKind::ReeLlmMemory,
            SystemKind::ReeLlmFlash,
            SystemKind::TzLlm,
            SystemKind::Strawman,
        ]
    }

    /// The label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::ReeLlmMemory => "REE-LLM-Memory",
            SystemKind::ReeLlmFlash => "REE-LLM-Flash",
            SystemKind::Strawman => "Strawman",
            SystemKind::TzLlm => "TZ-LLM",
        }
    }
}

/// REE-LLM with `cached_fraction` of the parameters preloaded: the NPU with
/// no world switches, buddy-system allocation (no migration) and no
/// decryption.
fn ree_row(profile: &PlatformProfile, config: &InferenceConfig, cached_fraction: f64) -> SystemRow {
    let total = system::param_bytes(&config.model);
    SystemRow {
        use_npu: true,
        rates: RestoreRates {
            flash: profile.flash_bandwidth(),
            alloc_secs_per_byte: profile.page_alloc_ns as f64 * 1e-9 / tz_hal::PAGE_SIZE as f64,
            alloc_fixed: SimDuration::ZERO,
            // No decryption: model the step as effectively free.
            decrypt: sim_core::Bandwidth::from_bytes_per_sec(1e18),
        },
        cached_bytes: (total as f64 * cached_fraction.clamp(0.0, 1.0)) as u64,
        policy: Policy::PriorityPreemptive,
        handoff: SimDuration::ZERO,
    }
}

/// The strawman: a cold TEE with no NPU, CMA allocation on a single
/// migration thread, nothing cached, and no pipelining.
fn strawman_row(profile: &PlatformProfile, config: &InferenceConfig) -> SystemRow {
    let occupancy = cma_occupancy(&config.model, config.memory_pressure);
    SystemRow {
        use_npu: false,
        rates: RestoreRates::from_profile(profile, occupancy, 1),
        cached_bytes: 0,
        policy: Policy::Sequential,
        handoff: SimDuration::ZERO,
    }
}

/// Evaluates any of the four systems on one request.
pub fn evaluate(
    system: SystemKind,
    profile: &PlatformProfile,
    config: &InferenceConfig,
) -> InferenceReport {
    let (row, framework_init) = match system {
        SystemKind::TzLlm => return evaluate_tzllm(profile, config),
        // A warm framework with every parameter resident.
        SystemKind::ReeLlmMemory => (ree_row(profile, config, 1.0), SimDuration::ZERO),
        SystemKind::ReeLlmFlash => (
            ree_row(profile, config, config.cached_fraction),
            SimDuration::ZERO,
        ),
        SystemKind::Strawman => (
            strawman_row(profile, config),
            profile.framework_init_total(),
        ),
    };
    system::price(profile, &row, &config.request()).report(
        framework_init,
        profile.kv_cache_alloc + profile.activation_alloc,
        SimDuration::ZERO,
    )
}

/// The Figure-1 style cold-start breakdown of the strawman workflow.
///
/// The strawman's sequential pipeline runs one operator at a time, so its
/// makespan is its plan's summed operator durations, and the steps sum
/// exactly to `evaluate(SystemKind::Strawman, ..).ttft`.
pub fn strawman_breakdown(
    profile: &PlatformProfile,
    config: &InferenceConfig,
) -> Vec<(String, SimDuration)> {
    let plan = system::plan(&strawman_row(profile, config), &config.request());
    [
        ("llama.cpp meta init", profile.framework_meta_init),
        ("tokenizer init", profile.tokenizer_init),
        ("kv cache allocation (CMA)", profile.kv_cache_alloc),
        ("activation allocation (CMA)", profile.activation_alloc),
        ("param allocation (CMA)", plan.total_of(PipeOpKind::Alloc)),
        ("param load", plan.total_of(PipeOpKind::Load)),
        ("param decryption", plan.total_of(PipeOpKind::Decrypt)),
        ("CPU prefill", plan.total_of(PipeOpKind::CpuCompute)),
    ]
    .into_iter()
    .map(|(step, time)| (step.to_string(), time))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::stats::reduction;

    fn profile() -> PlatformProfile {
        PlatformProfile::rk3588()
    }

    #[test]
    fn tzllm_reduces_ttft_by_at_least_three_quarters_vs_strawman() {
        // Paper: 76.1% - 90.9% across models and benchmarks.
        for model in ModelSpec::catalogue() {
            for prompt in [32usize, 128, 512] {
                let cfg = InferenceConfig::paper_default(model.clone(), prompt);
                let tz = evaluate(SystemKind::TzLlm, &profile(), &cfg);
                let straw = evaluate(SystemKind::Strawman, &profile(), &cfg);
                let red = reduction(straw.ttft.as_secs_f64(), tz.ttft.as_secs_f64());
                assert!(
                    red > 0.70 && red < 0.97,
                    "{} @{prompt}: reduction {red:.3} (tz {}, straw {})",
                    model.name,
                    tz.ttft,
                    straw.ttft
                );
            }
        }
    }

    #[test]
    fn tzllm_overhead_vs_ree_flash_is_moderate() {
        // Paper: 5.2% - 28.3% average overhead vs REE-LLM-Flash.
        for model in ModelSpec::catalogue() {
            let cfg = InferenceConfig::paper_default(model.clone(), 128);
            let tz = evaluate(SystemKind::TzLlm, &profile(), &cfg);
            let flash = evaluate(SystemKind::ReeLlmFlash, &profile(), &cfg);
            let overhead = tz.ttft.as_secs_f64() / flash.ttft.as_secs_f64() - 1.0;
            assert!(
                overhead > 0.0 && overhead < 0.7,
                "{}: overhead {overhead:.3}",
                model.name
            );
        }
    }

    #[test]
    fn decoding_speed_relations_match_figure_11() {
        for model in ModelSpec::catalogue() {
            let cfg = InferenceConfig::paper_default(model.clone(), 128);
            let ree = evaluate(SystemKind::ReeLlmMemory, &profile(), &cfg);
            let tz = evaluate(SystemKind::TzLlm, &profile(), &cfg);
            let straw = evaluate(SystemKind::Strawman, &profile(), &cfg);
            // TZ-LLM is slightly slower than the REE baseline...
            let slowdown = 1.0 - tz.decode_tokens_per_sec / ree.decode_tokens_per_sec;
            assert!(
                slowdown > 0.0 && slowdown < 0.08,
                "{}: slowdown {slowdown:.3}",
                model.name
            );
            // ...and faster than the CPU-only strawman.
            let gain = tz.decode_tokens_per_sec / straw.decode_tokens_per_sec - 1.0;
            assert!(gain > 0.0 && gain < 0.45, "{}: gain {gain:.3}", model.name);
        }
    }

    #[test]
    fn strawman_breakdown_matches_figure_1_shape() {
        let cfg = InferenceConfig::paper_default(ModelSpec::llama3_8b(), 512);
        let breakdown = strawman_breakdown(&profile(), &cfg);
        let get = |name: &str| {
            breakdown
                .iter()
                .find(|(n, _)| n.contains(name))
                .map(|(_, d)| d.as_secs_f64())
                .unwrap()
        };
        // Figure 1 anchors (8-bit Llama-3-8B, 512-token prompt).
        assert!(
            (get("param load") - 4.05).abs() < 0.6,
            "{}",
            get("param load")
        );
        assert!(
            (get("decryption") - 0.89).abs() < 0.3,
            "{}",
            get("decryption")
        );
        assert!(get("param allocation") > 2.0 && get("param allocation") < 6.0);
        assert!(get("CPU prefill") > 130.0 && get("CPU prefill") < 210.0);
        assert!((get("tokenizer") - 1.8).abs() < 0.1);
        // The full strawman TTFT is dominated by the CPU prefill.
        let total: f64 = breakdown.iter().map(|(_, d)| d.as_secs_f64()).sum();
        assert!(total > 140.0 && total < 230.0, "total = {total}");
    }

    #[test]
    fn strawman_breakdown_sums_to_the_strawman_ttft() {
        for model in ModelSpec::catalogue() {
            for prompt in [32usize, 128, 512] {
                let cfg = InferenceConfig::paper_default(model.clone(), prompt);
                let steps: SimDuration = strawman_breakdown(&profile(), &cfg)
                    .into_iter()
                    .map(|(_, time)| time)
                    .sum();
                let ttft = evaluate(SystemKind::Strawman, &profile(), &cfg).ttft;
                assert_eq!(steps, ttft, "{} @{prompt}", model.name);
            }
        }
    }
}
