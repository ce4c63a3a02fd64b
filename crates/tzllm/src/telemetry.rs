//! Serving-telemetry reports: TTFT waterfalls and critical-path
//! attribution.
//!
//! `sim_core::telemetry` owns the raw span store and the Perfetto export;
//! this module turns a finished [`ServingReport`] into the two textual
//! analyses the serving benchmarks print:
//!
//! * [`ttft_waterfall`] — one line per request tiling its end-to-end TTFT
//!   into queue / init / alloc / kv-unseal / pipeline / prefill segments
//!   (the same tiling the request's telemetry track records, so the
//!   segment sum reconciles with the recorded TTFT exactly);
//! * [`critical_path_report`] — for every *cold* request (one that
//!   restored parameters from flash), names the device lane that bounded
//!   its TTFT and attributes each breakdown component to a lane, so a
//!   fleet trace answers "what do we buy by making flash/decrypt/alloc/NPU
//!   faster?" (the paper's Figure 12 question, asked fleet-wide).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sim_core::SimDuration;

use crate::serving::{RequestRecord, ServingReport};

/// One request's TTFT tiled into named segments.
///
/// The segments are exactly the request-track telemetry phases: laid end
/// to end they cover `[arrival, first_token]` without gap or overlap, so
/// their sum equals [`RequestRecord::ttft_e2e`] by construction.
pub fn lifecycle_segments(record: &RequestRecord) -> Vec<(&'static str, SimDuration)> {
    let report = &record.report;
    let b = &report.breakdown;
    let mut out = Vec::with_capacity(6);
    out.push(("queued", record.queue_wait()));
    // The prefill's NPU window sits at the tail of the service TTFT; the
    // breakdown components fill the pre-NPU window and are clipped to it,
    // with the pipelined-restoration residue absorbing what remains.
    let npu_hold = (report.npu_busy + b.npu_overhead).min(report.ttft);
    let service = record.service_ttft();
    let pre_npu = report.ttft.saturating_sub(npu_hold).min(service);
    let mut used = SimDuration::ZERO;
    for (name, d) in [
        ("framework-init", b.framework_init),
        ("working-alloc", b.working_alloc),
        ("kv-unseal", b.kv_restore),
    ] {
        let take = d.min(pre_npu.saturating_sub(used));
        if take > SimDuration::ZERO {
            out.push((name, take));
            used += take;
        }
    }
    let residue = pre_npu.saturating_sub(used);
    if residue > SimDuration::ZERO {
        out.push(("restore-pipeline", residue));
    }
    let prefill = service.saturating_sub(pre_npu);
    if prefill > SimDuration::ZERO {
        out.push(("prefill", prefill));
    }
    out
}

/// Renders one line per request tiling its end-to-end TTFT into the
/// lifecycle segments, in arrival order.  Each line ends with the segment
/// sum and the recorded TTFT — always equal, which the telemetry tests
/// assert — so the waterfall doubles as a visual reconciliation check.
pub fn ttft_waterfall(report: &ServingReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:<14} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10} {:>10}",
        "req",
        "model",
        "queue",
        "init",
        "alloc",
        "unseal",
        "pipeline",
        "prefill",
        "sum_ms",
        "ttft_ms"
    );
    let mut records: Vec<&RequestRecord> = report.records.iter().collect();
    records.sort_by_key(|r| (r.arrival, r.request.id));
    for r in records {
        let segs = lifecycle_segments(r);
        let get = |name: &str| {
            segs.iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, d)| d.as_millis_f64())
                .unwrap_or(0.0)
        };
        let sum: f64 = segs.iter().map(|&(_, d)| d.as_millis_f64()).sum();
        let _ = writeln!(
            out,
            "{:>6} {:<14} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>10.3} {:>10.3}",
            r.request.id,
            r.request.model,
            get("queued"),
            get("framework-init"),
            get("working-alloc"),
            get("kv-unseal"),
            get("restore-pipeline"),
            get("prefill"),
            sum,
            r.ttft_e2e().as_millis_f64(),
        );
    }
    out
}

/// The lane attribution of one cold request's device-side TTFT.
#[derive(Debug, Clone)]
pub struct LaneAttribution {
    /// The request.
    pub request_id: u64,
    /// Its device-side (dispatch → first token) TTFT.
    pub ttft: SimDuration,
    /// The lane whose critical path bounded the restoration pipeline:
    /// `"flash"` (I/O path), `"decrypt"` (CPU path) or `"npu"` (compute
    /// path).
    pub bounding_lane: &'static str,
    /// TTFT attributed to named lanes (everything except pipeline slack).
    pub attributed: SimDuration,
    /// Pipeline makespan beyond the bounding path's length — scheduling
    /// slack no single lane explains.
    pub slack: SimDuration,
}

/// Fleet-wide critical-path attribution over the cold requests.
#[derive(Debug, Clone, Default)]
pub struct CriticalPathReport {
    /// Per-request attributions, in request-id order.
    pub per_request: Vec<LaneAttribution>,
    /// Total TTFT attributed to each lane across the cold fleet.
    pub lane_totals: BTreeMap<&'static str, SimDuration>,
    /// Sum of cold device-side TTFTs.
    pub total_ttft: SimDuration,
    /// Of which attributed to a named lane.
    pub total_attributed: SimDuration,
}

impl CriticalPathReport {
    /// Fraction of cold TTFT attributed to named lanes (1.0 when there
    /// were no cold requests).
    pub fn attributed_fraction(&self) -> f64 {
        if self.total_ttft == SimDuration::ZERO {
            return 1.0;
        }
        self.total_attributed.as_secs_f64() / self.total_ttft.as_secs_f64()
    }

    /// A compact textual summary: lane totals, the attribution fraction,
    /// and the dominant lane.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical-path attribution over {} cold requests ({:.3} s cold TTFT):",
            self.per_request.len(),
            self.total_ttft.as_secs_f64()
        );
        for (lane, total) in &self.lane_totals {
            let share = if self.total_ttft > SimDuration::ZERO {
                total.as_secs_f64() / self.total_ttft.as_secs_f64() * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {lane:<8} {:>10.3} s  {share:>5.1}%",
                total.as_secs_f64()
            );
        }
        let _ = writeln!(
            out,
            "  attributed {:.1}% of cold TTFT to named lanes",
            self.attributed_fraction() * 100.0
        );
        out
    }
}

/// Attributes every cold request's device-side TTFT to named lanes.
///
/// The breakdown components map directly — `framework_init` → `init`,
/// `working_alloc` → `alloc`, `kv_restore` → `decrypt`, `npu_overhead` →
/// `npu` — and the pipeline makespan goes to the lane whose critical path
/// bounded it ([`crate::restore::CriticalPaths::lower_bound`]): the I/O
/// path is the flash lane, the CPU path the decrypt threads, the compute
/// path the NPU.  Only the makespan's slack beyond the bounding path
/// stays unattributed, so the attributed fraction is a direct measure of
/// how completely the three-path model explains cold latency.
pub fn critical_path_report(report: &ServingReport) -> CriticalPathReport {
    let mut out = CriticalPathReport::default();
    for r in &report.records {
        if r.report.restored_bytes == 0 {
            continue; // warm dispatch: nothing restored, no cold path
        }
        let b = &r.report.breakdown;
        let paths = &r.report.critical_paths;
        let bound = paths.lower_bound();
        let bounding_lane = if bound == paths.io {
            "flash"
        } else if bound == paths.cpu {
            "decrypt"
        } else {
            "npu"
        };
        let pipeline_attr = b.pipeline.min(bound);
        let slack = b.pipeline.saturating_sub(bound);
        let ttft = r.service_ttft();
        let mut add = |lane: &'static str, d: SimDuration| {
            if d > SimDuration::ZERO {
                *out.lane_totals.entry(lane).or_insert(SimDuration::ZERO) += d;
                out.total_attributed += d;
            }
        };
        add("init", b.framework_init);
        add("alloc", b.working_alloc);
        add("decrypt", b.kv_restore);
        add("npu", b.npu_overhead);
        add(bounding_lane, pipeline_attr);
        // Under continuous batching the chunked prefill interleaves with
        // decode steps, so the realised dispatch→first-token window
        // exceeds the plan's TTFT by the interleave wait — NPU sharing by
        // construction.
        add("npu", r.prefill_stall);
        out.total_ttft += ttft;
        out.per_request.push(LaneAttribution {
            request_id: r.request.id,
            ttft,
            bounding_lane,
            attributed: ttft.saturating_sub(slack),
            slack,
        });
    }
    out.per_request.sort_by_key(|a| a.request_id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{Server, ServingConfig};
    use llm::ModelSpec;
    use tz_hal::PlatformProfile;

    fn report() -> ServingReport {
        let mut config = ServingConfig::paper_default(PlatformProfile::rk3588());
        config.telemetry = true;
        let mut server = Server::new(config, vec![ModelSpec::qwen2_5_3b()]);
        for i in 0..4 {
            server.submit_at(
                sim_core::SimTime::from_millis(i * 400),
                i,
                "qwen2.5-3b",
                128,
                16,
            );
        }
        server.run()
    }

    #[test]
    fn waterfall_segments_reconcile_with_ttft() {
        let report = report();
        for r in &report.records {
            let sum: SimDuration = lifecycle_segments(r).iter().map(|&(_, d)| d).sum();
            assert_eq!(
                sum,
                r.ttft_e2e(),
                "request {} segments must tile its TTFT",
                r.request.id
            );
        }
        let text = ttft_waterfall(&report);
        assert!(text.contains("qwen2.5-3b"));
        assert_eq!(text.lines().count(), report.records.len() + 1);
    }

    #[test]
    fn cold_ttft_attributes_to_named_lanes() {
        let report = report();
        let cp = critical_path_report(&report);
        assert!(
            !cp.per_request.is_empty(),
            "a cold fleet must have cold requests"
        );
        assert!(
            cp.attributed_fraction() >= 0.90,
            "only {:.1}% of cold TTFT attributed",
            cp.attributed_fraction() * 100.0
        );
        let text = cp.render_text();
        assert!(text.contains("attributed"));
    }
}
