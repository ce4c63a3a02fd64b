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
    /// CPU dequantization throughput in *output* (f16) bytes per second:
    /// expanding INT8/INT4 block codes back to f16 when a quantized sealed
    /// KV page is restored.  A multiply and a pack per element on the big
    /// cores — cheaper than AES but not free, and it shares the decrypt
    /// threads, so the serving layer charges it to the same lane.
    pub dequant_bytes_per_sec: f64,
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
            dequant_bytes_per_sec: 8.0e9,
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
        match op.device {
            Device::Cpu => {
                self.params.cpu_op_overhead
                    + SimDuration::from_secs_f64(op.macs as f64 / self.params.cpu_macs_per_sec)
            }
            Device::Npu => {
                self.params.npu_op_overhead
                    + SimDuration::from_secs_f64(op.macs as f64 / self.params.npu_macs_per_sec)
            }
        }
    }

    /// Execution time of one operator when forced onto the CPU (the strawman
    /// baseline has no NPU in the TEE).
    pub fn op_time_cpu_only(&self, op: &ComputeOp) -> SimDuration {
        self.params.cpu_op_overhead
            + SimDuration::from_secs_f64(op.macs as f64 / self.params.cpu_macs_per_sec)
    }

    /// Pure computation time of a whole prefill graph (no restoration, no
    /// resource contention — a lower bound used by the critical-path analysis).
    pub fn prefill_compute_time(&self, graph: &ComputationGraph, use_npu: bool) -> SimDuration {
        graph
            .ops
            .iter()
            .map(|op| {
                if use_npu {
                    self.op_time(op)
                } else {
                    self.op_time_cpu_only(op)
                }
            })
            .sum()
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
        let graph = ComputationGraph::decode(model, kv_len);
        let compute: SimDuration = graph
            .ops
            .iter()
            .map(|op| {
                if use_npu {
                    self.op_time(op)
                } else {
                    self.op_time_cpu_only(op)
                }
            })
            .sum();
        let memory_secs = model.total_q8_bytes() as f64 / self.params.dram_bytes_per_sec;
        let memory_secs = if use_npu {
            memory_secs / self.params.npu_decode_gain
        } else {
            memory_secs
        };
        compute.max(SimDuration::from_secs_f64(memory_secs))
    }

    /// Decoding speed in tokens per second.
    pub fn decode_tokens_per_sec(&self, model: &ModelSpec, kv_len: usize, use_npu: bool) -> f64 {
        1.0 / self.decode_token_time(model, kv_len, use_npu).as_secs_f64()
    }

    /// Time to dequantize `f16_bytes` of restored KV state back to f16 on
    /// the CPU decrypt threads.
    pub fn dequant_time(&self, f16_bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(f16_bytes as f64 / self.params.dequant_bytes_per_sec)
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
    pub fn batched_step_costs(&self, model: &ModelSpec, use_npu: bool) -> BatchedStepCosts {
        let compute = |graph: &ComputationGraph| -> f64 {
            graph
                .ops
                .iter()
                .map(|op| {
                    if use_npu {
                        self.op_time(op)
                    } else {
                        self.op_time_cpu_only(op)
                    }
                })
                .sum::<SimDuration>()
                .as_secs_f64()
        };
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
            .map(|op| match (use_npu, op.device) {
                (true, Device::Npu) => self.params.npu_op_overhead,
                _ => self.params.cpu_op_overhead,
            })
            .sum::<SimDuration>()
            .as_secs_f64();
        let memory_secs = model.total_q8_bytes() as f64 / self.params.dram_bytes_per_sec;
        let weight_pass_secs = if use_npu {
            memory_secs / self.params.npu_decode_gain
        } else {
            memory_secs
        };
        BatchedStepCosts {
            weight_pass_secs,
            launch_secs,
            decode_compute_base_secs: c_lo - per_kv,
            decode_compute_per_kv_secs: per_kv,
        }
    }

    /// Duration of one batched NPU step: every sequence in `decode_kv_lens`
    /// advances one token, and `prefill_chunk` (if any) executes its chunk
    /// graph in the same pass.  The weight read and the operator launches
    /// are paid once and amortized across the whole batch; per-sequence
    /// KV-dependent compute is summed.  A one-sequence step is the solo
    /// decode token.  A chunk-only step (no decodes) is compute-bound — the
    /// chunk's weights are already streaming for its own matmuls — and a
    /// small chunk beside a memory-bound decode batch rides in the
    /// weight-read slack for free.
    pub fn batched_step_time(
        &self,
        model: &ModelSpec,
        decode_kv_lens: &[usize],
        prefill_chunk: Option<&ComputationGraph>,
        use_npu: bool,
    ) -> SimDuration {
        let costs = self.batched_step_costs(model, use_npu);
        let chunk_secs =
            prefill_chunk.map_or(0.0, |g| self.prefill_compute_time(g, use_npu).as_secs_f64());
        if decode_kv_lens.is_empty() {
            return SimDuration::from_secs_f64(chunk_secs);
        }
        let solo: f64 = decode_kv_lens
            .iter()
            .map(|&kv| costs.decode_compute_secs(kv))
            .sum();
        let compute = solo - costs.fused_launch_saving_secs(decode_kv_lens.len()) + chunk_secs;
        SimDuration::from_secs_f64(compute.max(costs.weight_pass_secs))
    }

    /// Derives the coefficients of a speculative decoding step for a
    /// draft/target model pair.
    ///
    /// A speculative step runs up to `k` batched *draft* passes (each priced
    /// like a small batched decode step on the draft's coefficients) and one
    /// *verify* pass in which the target scores each sequence's proposals
    /// plus one bonus token in a single sweep.  The verify pass launches
    /// each operator once per model no matter how many sequences and
    /// positions it scores, so a sequence's share of it is its decode MACs
    /// once per scored position.
    pub fn speculative_step_costs(
        &self,
        draft: &ModelSpec,
        target: &ModelSpec,
        use_npu: bool,
    ) -> SpeculativeStepCosts {
        SpeculativeStepCosts {
            draft: self.batched_step_costs(draft, use_npu),
            target: self.batched_step_costs(target, use_npu),
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

/// Coefficients of a speculative (draft + verify) decoding step for one
/// draft/target model pair, recovered once by
/// [`CostModel::speculative_step_costs`] so the serving step loop prices
/// draft rounds and variable-position verify sweeps without graph builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeculativeStepCosts {
    /// The draft model's own batched step coefficients: one draft pass per
    /// proposed position, its weight read and operator launches amortized
    /// across the batch like any batched decode step.
    pub draft: BatchedStepCosts,
    /// The target model's batched step coefficients — the verify pass pays
    /// the target's weight read and launch set once, exactly like a plain
    /// step.
    pub target: BatchedStepCosts,
}

impl SpeculativeStepCosts {
    /// Compute seconds of one sequence's verify sweep scoring `positions`
    /// tokens (the draft's proposals plus the bonus token) at `kv_len` of
    /// context, on its own: the target's launch set plus one decode token's
    /// MACs per scored position.  At `positions == 1` this equals
    /// [`BatchedStepCosts::decode_compute_secs`] — a non-speculating
    /// sequence's share of the step is unchanged.
    pub fn verify_compute_secs(&self, positions: usize, kv_len: usize) -> f64 {
        let target = &self.target;
        target.launch_secs
            + positions.max(1) as f64 * (target.decode_compute_secs(kv_len) - target.launch_secs)
    }

    /// Duration of one draft pass proposing one token for every sequence in
    /// `draft_kv_lens`: per-sequence draft compute, with the draft's
    /// operators launched once for the pass, against the draft's weight
    /// read, whichever binds.
    pub fn draft_pass_secs(&self, draft_kv_lens: &[usize]) -> f64 {
        if draft_kv_lens.is_empty() {
            return 0.0;
        }
        let solo: f64 = draft_kv_lens
            .iter()
            .map(|&kv| self.draft.decode_compute_secs(kv))
            .sum();
        (solo - self.draft.fused_launch_saving_secs(draft_kv_lens.len()))
            .max(self.draft.weight_pass_secs)
    }

    /// Duration of one verify pass over `(kv_len, positions)` pairs: the
    /// target's weight read and launch set are paid once for the whole
    /// sweep.
    pub fn verify_pass_secs(&self, seqs: &[(usize, usize)]) -> f64 {
        if seqs.is_empty() {
            return 0.0;
        }
        let solo: f64 = seqs
            .iter()
            .map(|&(kv, positions)| self.verify_compute_secs(positions, kv))
            .sum();
        (solo - self.target.fused_launch_saving_secs(seqs.len())).max(self.target.weight_pass_secs)
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
        let cpu_tps = cost.decode_tokens_per_sec(&model, 128, false);
        let npu_tps = cost.decode_tokens_per_sec(&model, 128, true);
        // A ~8.5 GB model over ~22 GB/s is ~2.5 tokens/s on the CPU.
        assert!(cpu_tps > 1.5 && cpu_tps < 4.5, "cpu_tps = {cpu_tps}");
        let gain = npu_tps / cpu_tps;
        assert!(gain > 1.1 && gain < 1.5, "gain = {gain}");
    }

    #[test]
    fn smaller_models_decode_faster() {
        let cost = CostModel::rk3588();
        let tiny = cost.decode_tokens_per_sec(&ModelSpec::tinyllama_1_1b(), 128, true);
        let llama = cost.decode_tokens_per_sec(&ModelSpec::llama3_8b(), 128, true);
        assert!(tiny > 4.0 * llama, "tiny = {tiny}, llama = {llama}");
    }

    #[test]
    fn batched_step_of_one_equals_the_solo_decode_token_time() {
        let cost = CostModel::rk3588();
        for model in [ModelSpec::tinyllama_1_1b(), ModelSpec::qwen2_5_3b()] {
            for kv in [64usize, 512, 2048] {
                let solo = cost.batched_step_time(&model, &[kv], None, true);
                let reference = cost.decode_token_time(&model, kv, true);
                let diff = (solo.as_secs_f64() - reference.as_secs_f64()).abs();
                assert!(
                    diff < 1e-6,
                    "{} @ kv {kv}: {solo} vs {reference}",
                    model.name
                );
            }
        }
    }

    #[test]
    fn affine_decode_compute_matches_the_graph() {
        let cost = CostModel::rk3588();
        let model = ModelSpec::qwen2_5_3b();
        let costs = cost.batched_step_costs(&model, true);
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
    fn batching_amortizes_the_weight_read() {
        // Decode is memory-bound: one weight pass serves the whole batch, so
        // per-sequence step time shrinks until compute catches up.
        let cost = CostModel::rk3588();
        let model = ModelSpec::qwen2_5_3b();
        let solo = cost
            .batched_step_time(&model, &[256], None, true)
            .as_secs_f64();
        let batch8 = cost
            .batched_step_time(&model, &[256; 8], None, true)
            .as_secs_f64();
        assert!(
            batch8 < 8.0 * solo * 0.5,
            "batch8 {batch8} vs 8x solo {solo}"
        );
        assert!(batch8 >= solo, "a bigger batch never makes a step shorter");
    }

    #[test]
    fn a_fused_pass_launches_each_operator_once() {
        // qwen2.5-3b's decode graph launches 145 NPU jobs at 25 µs and 110
        // CPU operators at 6 µs: 4.285 ms per pass, whatever the batch.
        let cost = CostModel::rk3588();
        let model = ModelSpec::qwen2_5_3b();
        let costs = cost.batched_step_costs(&model, true);
        let graph = ComputationGraph::decode(&model, 1);
        let npu_ops = graph
            .ops
            .iter()
            .filter(|op| op.device == Device::Npu)
            .count();
        let cpu_ops = graph.ops.len() - npu_ops;
        assert_eq!((npu_ops, cpu_ops), (145, 110));
        assert!((costs.launch_secs - 4.285e-3).abs() < 1e-12);
        // Past the weight-bound knee, one more sequence adds exactly its
        // solo compute less one launch set: its MACs and attention.
        let batch = [3000usize; 12];
        let step = |n: usize| {
            cost.batched_step_time(&model, &batch[..n], None, true)
                .as_secs_f64()
        };
        assert!(step(11) > costs.weight_pass_secs);
        let added = step(12) - step(11);
        let macs = costs.decode_compute_secs(3000) - costs.launch_secs;
        assert!((added - macs).abs() < 2e-9, "{added} vs {macs}");
        // The verify and draft passes follow the same rule, and a
        // one-sequence pass is the solo price.
        let spec = cost.speculative_step_costs(&ModelSpec::qwen2_5_0_5b(), &model, true);
        assert_eq!(
            spec.verify_pass_secs(&[(3000, 3)]),
            spec.verify_compute_secs(3, 3000)
                .max(costs.weight_pass_secs)
        );
        let verify = |seqs: &[(usize, usize)]| spec.verify_pass_secs(seqs);
        let added = verify(&[(3000, 3); 12]) - verify(&[(3000, 3); 11]);
        let macs = spec.verify_compute_secs(3, 3000) - costs.launch_secs;
        assert!((added - macs).abs() < 1e-12, "{added} vs {macs}");
        let draft = |kvs: &[usize]| spec.draft_pass_secs(kvs);
        assert_eq!(
            draft(&[3000]),
            spec.draft
                .decode_compute_secs(3000)
                .max(spec.draft.weight_pass_secs)
        );
        let added = draft(&[3000; 12]) - draft(&[3000; 11]);
        let macs = spec.draft.decode_compute_secs(3000) - spec.draft.launch_secs;
        assert!(draft(&[3000; 11]) > spec.draft.weight_pass_secs);
        assert!((added - macs).abs() < 1e-12, "{added} vs {macs}");
    }

    #[test]
    fn a_small_chunk_rides_the_weight_read_slack() {
        // A short prefill chunk beside a memory-bound decode batch fits in
        // the weight pass the decodes already pay for.
        let cost = CostModel::rk3588();
        let model = ModelSpec::qwen2_5_3b();
        let chunk = ComputationGraph::prefill_chunk(&model, 4, 0, 128);
        let without = cost.batched_step_time(&model, &[128; 2], None, true);
        let with = cost.batched_step_time(&model, &[128; 2], Some(&chunk), true);
        assert_eq!(with, without, "a 4-token chunk must hide in the slack");
        // A chunk-only step is priced at exactly its own compute.
        let alone = cost.batched_step_time(&model, &[], Some(&chunk), true);
        assert_eq!(alone, cost.prefill_compute_time(&chunk, true));
    }

    #[test]
    fn single_position_verify_matches_the_plain_batched_step_compute() {
        let cost = CostModel::rk3588();
        let spec =
            cost.speculative_step_costs(&ModelSpec::qwen2_5_0_5b(), &ModelSpec::qwen2_5_3b(), true);
        for kv in [1usize, 64, 777, 3000] {
            let diff =
                (spec.verify_compute_secs(1, kv) - spec.target.decode_compute_secs(kv)).abs();
            assert!(diff < 1e-12, "kv {kv}: {diff}");
        }
    }

    #[test]
    fn verifying_extra_positions_beats_extra_steps() {
        // The point of speculation: at low occupancy, k+1 positions in one
        // sweep cost far less than k+1 weight-bound steps.
        let cost = CostModel::rk3588();
        let spec =
            cost.speculative_step_costs(&ModelSpec::qwen2_5_0_5b(), &ModelSpec::qwen2_5_3b(), true);
        let one_sweep = spec.verify_pass_secs(&[(512, 5)]);
        let five_steps = 5.0 * spec.verify_pass_secs(&[(512, 1)]);
        assert!(one_sweep < 0.5 * five_steps, "{one_sweep} vs {five_steps}");
        // And the draft's weight pass is several times shorter than the
        // target's — the overhead a draft round adds is a fraction of the
        // step it can save.
        assert!(spec.draft.weight_pass_secs * 3.0 < spec.target.weight_pass_secs);
    }

    #[test]
    fn verify_cost_grows_with_positions_and_kv() {
        let cost = CostModel::rk3588();
        let spec =
            cost.speculative_step_costs(&ModelSpec::qwen2_5_0_5b(), &ModelSpec::qwen2_5_3b(), true);
        assert!(spec.verify_compute_secs(2, 512) > spec.verify_compute_secs(1, 512));
        assert!(spec.verify_compute_secs(3, 2048) > spec.verify_compute_secs(3, 64));
        assert!(spec.target.launch_secs > 0.0);
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
