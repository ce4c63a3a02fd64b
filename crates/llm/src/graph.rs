//! The LLM computation graph.
//!
//! llama.cpp schedules inference as a DAG of operators in topological order;
//! TZ-LLM extracts that graph through internal interfaces (§5) and keys its
//! whole pipelined-restoration design on two properties (§3.2):
//!
//! 1. the operator order is deterministic, and
//! 2. each operator touches a known subset of the parameters (its layer's
//!    weights), laid out contiguously in the model file in topological order.
//!
//! [`ComputationGraph`] captures exactly that: a list of operators, each with
//! its device placement (CPU or NPU), parameter slices (name/offset/bytes into
//! the parameter blob) and arithmetic cost, plus dependency edges.

use serde::{Deserialize, Serialize};

use crate::model::ModelSpec;
use crate::tensor::q8_bytes_for;

/// Which execution engine an operator runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Device {
    /// Big-core CPU pool (layer norm, attention softmax, KV update, sampling).
    Cpu,
    /// The NPU (all large matrix multiplications).
    Npu,
}

/// The kind of a computation operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Token-embedding lookup.
    Embed,
    /// RMS normalisation.
    RmsNorm,
    /// Q/K/V projection matmul.
    QkvProj,
    /// Attention score/softmax/weighted-sum (runs on CPU in llama.cpp's
    /// Rockchip backend).
    Attention,
    /// Output projection matmul.
    OutProj,
    /// Gated FFN up+gate matmul.
    FfnUpGate,
    /// FFN down matmul.
    FfnDown,
    /// Final RMS norm.
    FinalNorm,
    /// LM-head projection producing logits.
    LmHead,
}

/// A slice of the parameter blob used by one operator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamSlice {
    /// Tensor name, e.g. `"layer.12.ffn_down"`.
    pub name: String,
    /// Byte offset inside the (plaintext) parameter blob.
    pub offset: u64,
    /// Size in bytes (Q8_0).
    pub bytes: u64,
}

impl ParamSlice {
    /// One past the last byte of the slice.
    pub fn end(&self) -> u64 {
        self.offset + self.bytes
    }
}

/// One computation operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeOp {
    /// Topological index of the operator.
    pub id: usize,
    /// The transformer layer this operator belongs to (`None` for
    /// embedding/head operators).
    pub layer: Option<usize>,
    /// Operator kind.
    pub kind: OpKind,
    /// Where it executes.
    pub device: Device,
    /// Parameter slices the operator reads.
    pub params: Vec<ParamSlice>,
    /// Multiply-accumulate count for the configured prompt length.
    pub macs: u64,
    /// Operators that must complete first (within the computation graph).
    pub deps: Vec<usize>,
}

impl ComputeOp {
    /// Total parameter bytes this operator needs restored before it can run.
    pub fn param_bytes(&self) -> u64 {
        self.params.iter().map(|p| p.bytes).sum()
    }
}

/// A complete inference graph for one prefill or one decode step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComputationGraph {
    /// The model this graph was built for.
    pub model: ModelSpec,
    /// Number of prompt tokens (prefill) or 1 (decode step).
    pub tokens: usize,
    /// Operators in topological order.
    pub ops: Vec<ComputeOp>,
}

impl ComputationGraph {
    /// Builds the prefill graph for `prompt_len` tokens.
    pub fn prefill(model: &ModelSpec, prompt_len: usize) -> Self {
        Self::build(model, prompt_len, prompt_len)
    }

    /// Builds the prefill graph for the last `new_tokens` of a
    /// `context_len`-token prompt whose leading tokens' KV state is already
    /// cached (multi-turn prefix reuse): every operator processes only the
    /// new tokens, but attention still spans the full context.
    pub fn prefill_suffix(model: &ModelSpec, new_tokens: usize, context_len: usize) -> Self {
        Self::build(model, new_tokens, context_len.max(new_tokens))
    }

    /// Builds a single-token decode graph with `kv_len` tokens already in the
    /// KV cache (affects only the attention cost).
    pub fn decode(model: &ModelSpec, kv_len: usize) -> Self {
        Self::build(model, 1, kv_len.max(1))
    }

    fn build(model: &ModelSpec, n: usize, kv_len: usize) -> Self {
        let h = model.hidden as u64;
        let kv_dim = (model.kv_heads * model.head_dim()) as u64;
        let ffn = model.ffn as u64;
        let vocab = model.vocab as u64;
        let n64 = n as u64;

        let mut ops: Vec<ComputeOp> = Vec::new();
        let mut offset = 0u64;
        let mut push = |ops: &mut Vec<ComputeOp>,
                        layer: Option<usize>,
                        kind: OpKind,
                        device: Device,
                        params: Vec<(String, u64)>,
                        macs: u64| {
            let id = ops.len();
            let deps = if id == 0 { vec![] } else { vec![id - 1] };
            let slices = params
                .into_iter()
                .map(|(name, bytes)| {
                    let s = ParamSlice {
                        name,
                        offset,
                        bytes,
                    };
                    offset += bytes;
                    s
                })
                .collect();
            ops.push(ComputeOp {
                id,
                layer,
                kind,
                device,
                params: slices,
                macs,
                deps,
            });
        };

        // Embedding lookup: its slice is the whole table, because the table
        // must be resident before any token can be looked up, but the lookup
        // itself gathers only its tokens' rows (see `streamed_param_bytes`).
        push(
            &mut ops,
            None,
            OpKind::Embed,
            Device::Cpu,
            vec![("tok_embeddings".into(), q8_bytes_for(vocab * h))],
            n64 * h,
        );

        for layer in 0..model.layers {
            let l = |t: &str| format!("layer.{layer}.{t}");
            push(
                &mut ops,
                Some(layer),
                OpKind::RmsNorm,
                Device::Cpu,
                vec![(l("attn_norm"), q8_bytes_for(h))],
                n64 * h,
            );
            push(
                &mut ops,
                Some(layer),
                OpKind::QkvProj,
                Device::Npu,
                vec![
                    (l("wq"), q8_bytes_for(h * h)),
                    (l("wk"), q8_bytes_for(h * kv_dim)),
                    (l("wv"), q8_bytes_for(h * kv_dim)),
                ],
                n64 * (h * h + 2 * h * kv_dim),
            );
            push(
                &mut ops,
                Some(layer),
                OpKind::Attention,
                Device::Cpu,
                vec![],
                // scores + weighted sum over the KV length.
                2 * n64 * kv_len as u64 * h,
            );
            push(
                &mut ops,
                Some(layer),
                OpKind::OutProj,
                Device::Npu,
                vec![(l("wo"), q8_bytes_for(h * h))],
                n64 * h * h,
            );
            push(
                &mut ops,
                Some(layer),
                OpKind::RmsNorm,
                Device::Cpu,
                vec![(l("ffn_norm"), q8_bytes_for(h))],
                n64 * h,
            );
            push(
                &mut ops,
                Some(layer),
                OpKind::FfnUpGate,
                Device::Npu,
                vec![
                    (l("ffn_gate"), q8_bytes_for(h * ffn)),
                    (l("ffn_up"), q8_bytes_for(h * ffn)),
                ],
                2 * n64 * h * ffn,
            );
            push(
                &mut ops,
                Some(layer),
                OpKind::FfnDown,
                Device::Npu,
                vec![(l("ffn_down"), q8_bytes_for(h * ffn))],
                n64 * h * ffn,
            );
        }

        push(
            &mut ops,
            None,
            OpKind::FinalNorm,
            Device::Cpu,
            vec![("final_norm".into(), q8_bytes_for(h))],
            h,
        );
        // Only the last position needs logits during prefill.
        push(
            &mut ops,
            None,
            OpKind::LmHead,
            Device::Npu,
            vec![("lm_head".into(), q8_bytes_for(vocab * h))],
            h * vocab,
        );

        ComputationGraph {
            model: model.clone(),
            tokens: n,
            ops,
        }
    }

    /// Total parameter bytes across all operators.  Prompt-length
    /// independent: every graph built for the same model reports the same
    /// total (the serving layer computes it once per model from a
    /// minimal-prompt graph).
    pub fn total_param_bytes(&self) -> u64 {
        self.ops.iter().map(ComputeOp::param_bytes).sum()
    }

    /// Parameter bytes one execution of the graph streams from memory: every
    /// slice its operators read, except that the embedding lookup gathers
    /// one Q8_0 row of the table per token instead of the table.  Restoring
    /// a blob still needs every slice resident
    /// ([`ComputationGraph::total_param_bytes`]); this is what a decode
    /// token reads once the blob is there.
    pub fn streamed_param_bytes(&self) -> u64 {
        let rows = q8_bytes_for(self.tokens as u64 * self.model.hidden as u64);
        self.ops
            .iter()
            .map(|op| match op.kind {
                OpKind::Embed => op.param_bytes().min(rows),
                _ => op.param_bytes(),
            })
            .sum()
    }

    /// Total multiply-accumulates on a given device.
    pub fn total_macs_on(&self, device: Device) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.device == device)
            .map(|o| o.macs)
            .sum()
    }

    /// All parameter slices in topological (= blob) order.
    pub fn param_layout(&self) -> Vec<ParamSlice> {
        self.ops
            .iter()
            .flat_map(|o| o.params.iter().cloned())
            .collect()
    }

    /// Verifies the graph's structural invariants: ids are topological,
    /// dependencies point backwards, and parameter offsets are contiguous and
    /// ascending.  Returns an error description on violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut expected_offset = 0u64;
        for (i, op) in self.ops.iter().enumerate() {
            if op.id != i {
                return Err(format!("op {i} has id {}", op.id));
            }
            if op.deps.iter().any(|&d| d >= i) {
                return Err(format!("op {i} depends on a later op"));
            }
            for p in &op.params {
                if p.offset != expected_offset {
                    return Err(format!(
                        "param {} at offset {} but expected {expected_offset}",
                        p.name, p.offset
                    ));
                }
                expected_offset += p.bytes;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefill_graph_is_valid_and_sized_like_the_model() {
        for model in ModelSpec::catalogue() {
            let graph = ComputationGraph::prefill(&model, 128);
            graph.validate().unwrap();
            let graph_bytes = graph.total_param_bytes();
            let model_bytes = model.total_q8_bytes();
            let ratio = graph_bytes as f64 / model_bytes as f64;
            assert!((ratio - 1.0).abs() < 0.02, "{}: ratio {ratio}", model.name);
        }
    }

    #[test]
    fn param_bytes_are_prompt_length_independent() {
        for model in ModelSpec::catalogue() {
            let reference = ComputationGraph::prefill(&model, 1).total_param_bytes();
            for prompt in [64, 512] {
                let graph = ComputationGraph::prefill(&model, prompt);
                assert_eq!(
                    graph.total_param_bytes(),
                    reference,
                    "{} @ {prompt}",
                    model.name
                );
            }
        }
    }

    #[test]
    fn op_count_scales_with_layers() {
        let model = ModelSpec::nano();
        let graph = ComputationGraph::prefill(&model, 8);
        // 1 embed + 7 per layer + 2 tail.
        assert_eq!(graph.ops.len(), 1 + 7 * model.layers + 2);
    }

    #[test]
    fn matmuls_run_on_npu_and_attention_on_cpu() {
        let graph = ComputationGraph::prefill(&ModelSpec::llama3_8b(), 512);
        for op in &graph.ops {
            match op.kind {
                OpKind::QkvProj
                | OpKind::OutProj
                | OpKind::FfnUpGate
                | OpKind::FfnDown
                | OpKind::LmHead => {
                    assert_eq!(op.device, Device::Npu)
                }
                OpKind::Attention | OpKind::RmsNorm | OpKind::Embed | OpKind::FinalNorm => {
                    assert_eq!(op.device, Device::Cpu)
                }
            }
        }
        // The overwhelming majority of MACs are NPU-side.
        let npu = graph.total_macs_on(Device::Npu) as f64;
        let cpu = graph.total_macs_on(Device::Cpu) as f64;
        assert!(npu / (npu + cpu) > 0.95);
    }

    #[test]
    fn prefill_macs_scale_with_prompt_length() {
        let model = ModelSpec::qwen2_5_3b();
        let short = ComputationGraph::prefill(&model, 32);
        let long = ComputationGraph::prefill(&model, 512);
        let ratio =
            long.total_macs_on(Device::Npu) as f64 / short.total_macs_on(Device::Npu) as f64;
        assert!((ratio - 16.0).abs() < 0.5, "ratio = {ratio}");
    }

    #[test]
    fn decode_graph_uses_single_token() {
        let model = ModelSpec::llama3_8b();
        let decode = ComputationGraph::decode(&model, 128);
        assert_eq!(decode.tokens, 1);
        decode.validate().unwrap();
        // Same resident parameters as prefill: the whole blob.
        assert_eq!(
            decode.total_param_bytes(),
            ComputationGraph::prefill(&model, 4).total_param_bytes()
        );
    }

    #[test]
    fn the_lookup_streams_only_its_tokens_rows_of_the_table() {
        for model in ModelSpec::catalogue() {
            let (vocab, hidden) = (model.vocab as u64, model.hidden as u64);
            let table = q8_bytes_for(vocab * hidden);
            for tokens in [1usize, 7, 512] {
                let graph = ComputationGraph::prefill(&model, tokens);
                let rows = q8_bytes_for(tokens as u64 * hidden);
                assert_eq!(
                    graph.streamed_param_bytes(),
                    graph.total_param_bytes() - table + rows,
                    "{} @ {tokens}",
                    model.name
                );
            }
        }
        // A lookup that names more rows than the table has reads the table
        // once.
        let nano = ComputationGraph::prefill(&ModelSpec::nano(), 1000);
        assert_eq!(nano.streamed_param_bytes(), nano.total_param_bytes());
    }

    #[test]
    fn param_layout_is_contiguous_and_ordered() {
        let graph = ComputationGraph::prefill(&ModelSpec::nano(), 16);
        let layout = graph.param_layout();
        let mut offset = 0;
        for p in &layout {
            assert_eq!(p.offset, offset);
            offset += p.bytes;
        }
        assert_eq!(offset, graph.total_param_bytes());
    }

    #[test]
    fn layer_params_are_grouped_by_layer() {
        let graph = ComputationGraph::prefill(&ModelSpec::nano(), 16);
        // Every parameter of layer 1 comes after every parameter of layer 0.
        let max_l0 = graph
            .ops
            .iter()
            .filter(|o| o.layer == Some(0))
            .flat_map(|o| o.params.iter())
            .map(ParamSlice::end)
            .max()
            .unwrap();
        let min_l1 = graph
            .ops
            .iter()
            .filter(|o| o.layer == Some(1))
            .flat_map(|o| o.params.iter())
            .map(|p| p.offset)
            .min()
            .unwrap();
        assert!(max_l0 <= min_l1);
    }
}
