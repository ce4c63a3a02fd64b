//! Operator cost model.
//!
//! Converts the arithmetic counts of the computation graph into simulated
//! execution times, calibrated against the paper's measurements:
//!
//! * CPU-only prefill of Llama-3-8B at 512 tokens takes ≈164.5 s (Figure 1);
//! * the Rockchip NPU speeds prefill up by ≈12.5× and decoding by ≈1.3×
//!   (§2.3);
//! * decoding is memory-bandwidth bound (one pass over all parameters per
//!   token).

use serde::{Deserialize, Serialize};
use sim_core::SimDuration;

use crate::graph::{ComputationGraph, ComputeOp, Device};
use crate::model::ModelSpec;

/// Calibration parameters of the cost model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostParams {
    /// Effective CPU int8 multiply-accumulate rate (all big cores together).
    pub cpu_macs_per_sec: f64,
    /// Effective NPU int8 multiply-accumulate rate (all NPU cores together).
    pub npu_macs_per_sec: f64,
    /// DRAM bandwidth available to the inference context (decoding bound).
    pub dram_bytes_per_sec: f64,
    /// Relative DMA efficiency of the NPU during decoding (the paper measures
    /// a 1.3x decode speed-up from the NPU).
    pub npu_decode_gain: f64,
    /// Fixed launch overhead per CPU operator.
    pub cpu_op_overhead: SimDuration,
    /// Fixed launch overhead per NPU job (command submission).
    pub npu_op_overhead: SimDuration,
}

impl CostParams {
    /// Calibration for the RK3588 testbed.
    pub fn rk3588() -> Self {
        CostParams {
            cpu_macs_per_sec: 2.5e10,
            npu_macs_per_sec: 4.0e11,
            dram_bytes_per_sec: 22.0e9,
            npu_decode_gain: 1.3,
            cpu_op_overhead: SimDuration::from_micros(6),
            npu_op_overhead: SimDuration::from_micros(25),
        }
    }
}

/// The cost model.
#[derive(Debug, Clone)]
pub struct CostModel {
    params: CostParams,
}

impl CostModel {
    /// Creates a cost model.
    pub fn new(params: CostParams) -> Self {
        CostModel { params }
    }

    /// The RK3588-calibrated cost model.
    pub fn rk3588() -> Self {
        Self::new(CostParams::rk3588())
    }

    /// The calibration parameters.
    pub fn params(&self) -> &CostParams {
        &self.params
    }

    /// Execution time of one operator on its assigned device during prefill.
    pub fn op_time(&self, op: &ComputeOp) -> SimDuration {
        self.op_time_on(op, true)
    }

    /// Execution time of one operator on its assigned device when `use_npu`,
    /// and on the CPU otherwise (a system with no NPU access, such as the
    /// strawman TEE, runs every operator there).
    fn op_time_on(&self, op: &ComputeOp, use_npu: bool) -> SimDuration {
        let (launch, macs_per_sec) = self.device_rates(op, use_npu);
        launch + SimDuration::from_secs_f64(op.macs as f64 / macs_per_sec)
    }

    /// The launch overhead and MAC rate of the device `op` runs on.
    fn device_rates(&self, op: &ComputeOp, use_npu: bool) -> (SimDuration, f64) {
        if use_npu && op.device == Device::Npu {
            (self.params.npu_op_overhead, self.params.npu_macs_per_sec)
        } else {
            (self.params.cpu_op_overhead, self.params.cpu_macs_per_sec)
        }
    }

    /// Pure computation time of a whole graph (no restoration, no resource
    /// contention — a lower bound used by the critical-path analysis).
    pub fn prefill_compute_time(&self, graph: &ComputationGraph, use_npu: bool) -> SimDuration {
        graph
            .ops
            .iter()
            .map(|op| self.op_time_on(op, use_npu))
            .sum()
    }

    /// One pass over the model's quantized weights through DRAM, with the
    /// NPU's decode-side DMA gain applied when `use_npu`.
    fn weight_pass_secs(&self, model: &ModelSpec, use_npu: bool) -> f64 {
        let memory_secs = model.total_q8_bytes() as f64 / self.params.dram_bytes_per_sec;
        if use_npu {
            memory_secs / self.params.npu_decode_gain
        } else {
            memory_secs
        }
    }

    /// Time to generate one token during decoding.
    ///
    /// Decoding is dominated by streaming all parameters once per token, so
    /// the time is the maximum of the compute time and the memory time.
    pub fn decode_token_time(
        &self,
        model: &ModelSpec,
        kv_len: usize,
        use_npu: bool,
    ) -> SimDuration {
        let compute = self.prefill_compute_time(&ComputationGraph::decode(model, kv_len), use_npu);
        compute.max(SimDuration::from_secs_f64(
            self.weight_pass_secs(model, use_npu),
        ))
    }

    /// Derives the per-model coefficients of the batched step-cost model.
    ///
    /// One iteration-level NPU step advances every batched decode sequence by
    /// one token (and may run one prefill chunk alongside).  Its cost splits
    /// into a side paid **once per model per step** and a side paid **per
    /// sequence**.  Once per model: streaming the quantized weights through
    /// DRAM, which a solo decode is bound by, and launching every operator —
    /// the co-driver submits each layer segment as one fused NPU job for all
    /// of the model's sequences.  Per sequence: the MACs, affine in the
    /// sequence's KV length (only the CPU attention operator scales with it,
    /// linearly; every other operator is constant at one token), so two
    /// decode-graph evaluations far apart in `kv_len` recover the
    /// coefficients exactly and the serving step loop never rebuilds graphs.
    /// The step loop (`tzllm::step`) is the one place that combines them
    /// into the price of a pass.
    pub fn batched_step_costs(&self, model: &ModelSpec) -> BatchedStepCosts {
        let compute =
            |graph: &ComputationGraph| self.prefill_compute_time(graph, true).as_secs_f64();
        let (kv_lo, kv_hi) = (1usize, 4097usize);
        let lo = ComputationGraph::decode(model, kv_lo);
        let (c_lo, c_hi) = (
            compute(&lo),
            compute(&ComputationGraph::decode(model, kv_hi)),
        );
        let per_kv = (c_hi - c_lo) / (kv_hi - kv_lo) as f64;
        let launch_secs = lo
            .ops
            .iter()
            .map(|op| self.device_rates(op, true).0)
            .sum::<SimDuration>()
            .as_secs_f64();
        BatchedStepCosts {
            weight_pass_secs: self.weight_pass_secs(model, true),
            launch_secs,
            decode_compute_base_secs: c_lo - per_kv,
            decode_compute_per_kv_secs: per_kv,
        }
    }
}

/// Per-model coefficients of the batched step-cost model, recovered once by
/// [`CostModel::batched_step_costs`] so a serving step loop prices every
/// iteration with a few multiplications instead of a graph build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchedStepCosts {
    /// One pass over the quantized weights through DRAM (with the NPU's
    /// decode-side DMA gain applied) — paid once per step per model present
    /// in the batch, no matter how many of its sequences advance.
    pub weight_pass_secs: f64,
    /// Launch overhead of one decode pass: one NPU job submission per NPU
    /// operator and one launch per CPU operator.  A batched step fuses a
    /// model's sequences into one job per operator, so it pays this once per
    /// model per step (see [`BatchedStepCosts::fused_launch_saving_secs`]).
    pub launch_secs: f64,
    /// KV-length-independent compute of one solo decode token: the launch
    /// overhead plus the matmul and norm MACs.
    pub decode_compute_base_secs: f64,
    /// Additional compute per token of KV context (the CPU attention
    /// operator's scores + weighted sum).
    pub decode_compute_per_kv_secs: f64,
}

impl BatchedStepCosts {
    /// Compute seconds for one solo decode token of a sequence with
    /// `kv_len` tokens of context, its own operator launches included.
    pub fn decode_compute_secs(&self, kv_len: usize) -> f64 {
        self.decode_compute_base_secs + self.decode_compute_per_kv_secs * kv_len.max(1) as f64
    }

    /// Compute seconds of one sequence's verify sweep scoring `positions`
    /// tokens (the draft's proposals plus the bonus token) at `kv_len` of
    /// context, on its own: the model's launch set plus one decode token's
    /// MACs per scored position.  At `positions == 1` this equals
    /// [`BatchedStepCosts::decode_compute_secs`] — a non-speculating
    /// sequence's share of the step is unchanged.
    pub fn verify_compute_secs(&self, positions: usize, kv_len: usize) -> f64 {
        self.launch_secs
            + positions.max(1) as f64 * (self.decode_compute_secs(kv_len) - self.launch_secs)
    }

    /// The launch overhead one fused pass over `sequences` of this model's
    /// sequences saves against the sum of their solo compute: the pass
    /// launches every operator once, not once per sequence.  Every batched
    /// price is that sum minus this saving, so each sequence keeps its MACs
    /// and KV-dependent attention while the model pays one launch set, and a
    /// one-sequence pass (saving exactly 0) is the solo price.
    pub fn fused_launch_saving_secs(&self, sequences: usize) -> f64 {
        sequences.saturating_sub(1) as f64 * self.launch_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_prefill_of_llama3_matches_figure_1() {
        let model = ModelSpec::llama3_8b();
        let graph = ComputationGraph::prefill(&model, 512);
        let cost = CostModel::rk3588();
        let t = cost.prefill_compute_time(&graph, false).as_secs_f64();
        // Paper: 164.5 s.  Accept the right ballpark.
        assert!(t > 130.0 && t < 210.0, "cpu prefill = {t}");
    }

    #[test]
    fn npu_prefill_speedup_is_about_12x() {
        let model = ModelSpec::llama3_8b();
        let graph = ComputationGraph::prefill(&model, 512);
        let cost = CostModel::rk3588();
        let cpu = cost.prefill_compute_time(&graph, false).as_secs_f64();
        let npu = cost.prefill_compute_time(&graph, true).as_secs_f64();
        let speedup = cpu / npu;
        assert!(speedup > 9.0 && speedup < 16.0, "speedup = {speedup}");
    }

    #[test]
    fn decode_is_memory_bound_and_npu_gains_are_modest() {
        let cost = CostModel::rk3588();
        let model = ModelSpec::llama3_8b();
        let tps = |use_npu| 1.0 / cost.decode_token_time(&model, 128, use_npu).as_secs_f64();
        let (cpu_tps, npu_tps) = (tps(false), tps(true));
        // A ~8.5 GB model over ~22 GB/s is ~2.5 tokens/s on the CPU.
        assert!(cpu_tps > 1.5 && cpu_tps < 4.5, "cpu_tps = {cpu_tps}");
        let gain = npu_tps / cpu_tps;
        assert!(gain > 1.1 && gain < 1.5, "gain = {gain}");
    }

    #[test]
    fn smaller_models_decode_faster() {
        let cost = CostModel::rk3588();
        let token = |model: &ModelSpec| cost.decode_token_time(model, 128, true);
        let tiny = token(&ModelSpec::tinyllama_1_1b());
        let llama = token(&ModelSpec::llama3_8b());
        assert!(tiny * 4 < llama, "tiny = {tiny}, llama = {llama}");
    }

    #[test]
    fn affine_decode_compute_matches_the_graph() {
        let cost = CostModel::rk3588();
        let model = ModelSpec::qwen2_5_3b();
        let costs = cost.batched_step_costs(&model);
        for kv in [1usize, 64, 777, 3000] {
            let graph_secs: SimDuration = ComputationGraph::decode(&model, kv)
                .ops
                .iter()
                .map(|op| cost.op_time(op))
                .sum();
            let diff = (costs.decode_compute_secs(kv) - graph_secs.as_secs_f64()).abs();
            assert!(diff < 1e-6, "kv {kv}: {diff}");
        }
    }

    #[test]
    fn a_fused_pass_launches_each_operator_once() {
        // qwen2.5-3b's decode graph launches 145 NPU jobs at 25 µs and 110
        // CPU operators at 6 µs: 4.285 ms per pass, whatever the batch.
        let cost = CostModel::rk3588();
        let model = ModelSpec::qwen2_5_3b();
        let costs = cost.batched_step_costs(&model);
        let graph = ComputationGraph::decode(&model, 1);
        let npu_ops = graph
            .ops
            .iter()
            .filter(|op| op.device == Device::Npu)
            .count();
        let cpu_ops = graph.ops.len() - npu_ops;
        assert_eq!((npu_ops, cpu_ops), (145, 110));
        assert!((costs.launch_secs - 4.285e-3).abs() < 1e-12);
        assert_eq!(costs.fused_launch_saving_secs(1), 0.0);
        assert_eq!(costs.fused_launch_saving_secs(3), 2.0 * costs.launch_secs);
    }

    #[test]
    fn single_position_verify_matches_the_plain_batched_step_compute() {
        let costs = CostModel::rk3588().batched_step_costs(&ModelSpec::qwen2_5_3b());
        for kv in [1usize, 64, 777, 3000] {
            let diff = (costs.verify_compute_secs(1, kv) - costs.decode_compute_secs(kv)).abs();
            assert!(diff < 1e-12, "kv {kv}: {diff}");
        }
    }

    #[test]
    fn verify_cost_grows_with_positions_and_kv() {
        let costs = CostModel::rk3588().batched_step_costs(&ModelSpec::qwen2_5_3b());
        assert!(costs.verify_compute_secs(2, 512) > costs.verify_compute_secs(1, 512));
        assert!(costs.verify_compute_secs(3, 2048) > costs.verify_compute_secs(3, 64));
        assert!(costs.launch_secs > 0.0);
    }

    #[test]
    fn op_overheads_dominate_tiny_ops() {
        let cost = CostModel::rk3588();
        let graph = ComputationGraph::prefill(&ModelSpec::nano(), 1);
        let norm = graph
            .ops
            .iter()
            .find(|o| matches!(o.kind, crate::graph::OpKind::RmsNorm))
            .unwrap();
        let t = cost.op_time(norm);
        assert!(t >= cost.params().cpu_op_overhead);
        assert!(t < SimDuration::from_micros(20));
    }
}
