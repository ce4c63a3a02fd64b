//! Pricing one batched step of the serving step loop, and choosing how many
//! tokens its decodes draft when speculative decoding is on.
//! [`StepBatch::choose`] is the only code that prices a pass over several
//! sequences; `llm` supplies only the per-model coefficients
//! ([`llm::BatchedStepCosts`]).
//!
//! A step advances every member decode by at least one token and may run one
//! prefill chunk alongside.  The chunk is either a fixed slice of its
//! prefill's NPU window or, under [`Chunk::Slack`], sized by
//! [`StepBatch::choose`] to the plain pass's weight-read slack: the distinct
//! models' weight passes less the members' fused decode compute, so the
//! chunk costs no NPU time the pass does not already pay.  At draft depth
//! `k` each member proposes `k_i = min(k, tokens_left − 1)` tokens, and the
//! step costs:
//!
//! * `max(k_i)` serial draft rounds — round `r` batches every member with
//!   `k_i > r` and costs `max(draft launches + Σ draft MACs, draft weight
//!   pass)` plus the draft's handoffs;
//! * the target's fused sweep — each member scores `k_i + 1` positions (its
//!   plain decode MACs at `k_i = 0`), each distinct model launches its
//!   operators once, the chunk rides along, and the whole sweep is bounded
//!   below by one weight pass per distinct model;
//! * one world-switch handoff per distinct model.
//!
//! Every pass is one fused NPU job per layer segment, so its operator
//! launches are paid once per model (once per round for the draft), not once
//! per sequence: each price is the members' summed solo compute less
//! [`llm::BatchedStepCosts::fused_launch_saving_secs`].  A one-member step
//! saves nothing, so it is priced exactly as the solo decode.
//!
//! With per-position acceptance `p`, member `i` is expected to emit
//! `Σ_{j=0..k_i} p^j` tokens (the accepted prefix plus the target's bonus
//! token).  [`StepBatch::choose`] prices every depth from 0 to the configured
//! maximum with the same function that prices the step it starts, and keeps
//! the one with the most expected tokens per second of step time.  Decode is
//! weight-read-bound at low occupancy, so extra verified positions are nearly
//! free there and the deepest draft wins; at high occupancy the sweep is
//! compute-bound, every drafted position costs real NPU time, and shallower
//! drafts (or none) emit more per second.

use tz_hal::PlatformProfile;

use crate::serving::ModelId;

/// The per-model coefficients a batched step is priced with, derived once
/// per model when the server is built.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepModel {
    /// Batched step-cost coefficients (weight-pass seconds, affine decode
    /// compute in the KV length).
    pub step: llm::BatchedStepCosts,
    /// Per-token world-switch cost of a decode step of this model (two
    /// co-driver handoffs per layer), seconds.
    pub handoff_secs: f64,
    /// Whether the configured draft proposes tokens for this model's
    /// sequences (`false` when speculation is off, on the draft's own entry,
    /// and for a model whose tokenizer the draft does not share).
    pub drafts: bool,
}

impl StepModel {
    /// Derives `model`'s coefficients on `profile`; `drafts` says whether
    /// the draft proposes for its sequences.
    pub fn new(
        cost: &llm::CostModel,
        profile: &PlatformProfile,
        model: &llm::ModelSpec,
        drafts: bool,
    ) -> StepModel {
        StepModel {
            step: cost.batched_step_costs(model),
            // The same per-token switch cost `system::price` folds into
            // the TZ-LLM row's `decode_tokens_per_sec`.
            handoff_secs: (profile.codriver_switch_cost() * 2 * model.layers as u64).as_secs_f64(),
            drafts,
        }
    }
}

/// One decode sequence of a batched step, as the pricer sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepMember {
    /// The model the sequence decodes.
    pub model: ModelId,
    /// The KV length every step of the sequence is priced at (prompt +
    /// response; decode compute is affine in it).
    pub kv_len: usize,
    /// Tokens the sequence still has to emit.
    pub tokens_left: u64,
    /// Solo decode compute of one token at `kv_len`, seconds: the model's
    /// operator launches plus the sequence's MACs.  A step with several
    /// members of the model charges the launches once.
    pub compute_secs: f64,
    /// Whether the draft can propose tokens for this sequence: its model
    /// shares the draft's tokenizer.
    pub drafts: bool,
}

impl StepMember {
    /// Tokens the member drafts at `depth`: never its final token, which
    /// always comes from the target so the sequence cannot overshoot its
    /// scripted length, and none when the draft cannot propose for it.
    pub fn proposals(&self, depth: u64) -> u64 {
        if self.drafts {
            depth.min(self.tokens_left.saturating_sub(1))
        } else {
            0
        }
    }
}

/// The prefill chunk riding a step, in seconds of its prefill plan's NPU
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Chunk {
    /// A chunk of fixed length (0 when no prefill rides along).
    Fixed(f64),
    /// A chunk as long as the plain pass's weight-read slack, but at least
    /// `floor_secs` (one prompt token's share of the window) and at most
    /// `left_secs` (what the prefill has left).
    Slack { floor_secs: f64, left_secs: f64 },
}

impl Chunk {
    /// The chunk's length in a pass with `slack_secs` of weight-read slack,
    /// and how that length was chosen.
    fn size(self, slack_secs: f64) -> (f64, ChunkMode) {
        match self {
            Chunk::Fixed(secs) => (secs, ChunkMode::Fixed),
            Chunk::Slack {
                floor_secs,
                left_secs,
            } => {
                let mode = if slack_secs < floor_secs {
                    ChunkMode::Floor
                } else {
                    ChunkMode::Slack
                };
                (slack_secs.max(floor_secs).min(left_secs), mode)
            }
        }
    }
}

/// How a step's prefill chunk was sized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkMode {
    /// A [`Chunk::Fixed`] chunk.
    Fixed,
    /// A [`Chunk::Slack`] chunk as long as the pass's weight-read slack (or
    /// what its prefill had left).
    Slack,
    /// A [`Chunk::Slack`] chunk that fell back to its floor, one prompt
    /// token's share, because the pass had less slack than that.
    Floor,
}

impl ChunkMode {
    /// The mode's name, as the windowed metrics class it is counted under.
    pub fn label(self) -> &'static str {
        match self {
            ChunkMode::Fixed => "fixed",
            ChunkMode::Slack => "slack",
            ChunkMode::Floor => "floor",
        }
    }
}

/// What a batched step costs at one draft depth, and what it is expected to
/// emit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StepPrice {
    /// The depth priced: member `i` drafts `min(depth, tokens_left − 1)`.
    pub depth: u64,
    /// Seconds of serial draft rounds at the head of the step.
    pub draft_secs: f64,
    /// Seconds of the whole step.
    pub step_secs: f64,
    /// Seconds of the prefill chunk riding the step (0 when none does).
    pub chunk_secs: f64,
    /// How the chunk was sized.
    pub chunk_mode: ChunkMode,
    /// Expected tokens the members emit.
    pub tokens: f64,
}

impl StepPrice {
    /// Expected emitted tokens per second of step time.
    pub fn rate(&self) -> f64 {
        self.tokens / self.step_secs
    }
}

/// A batched step to price: its decode members, the chunk riding along, and
/// the coefficients of every model they may name.
pub(crate) struct StepBatch<'a, M> {
    /// The decode members, in batch order (summation order is part of the
    /// price, so the step loop stays bit-for-bit reproducible).
    pub members: M,
    /// Coefficients indexed by [`ModelId`].
    pub models: &'a [StepModel],
    /// The draft model's coefficients (`None` when speculation is off).
    pub draft: Option<&'a StepModel>,
    /// The prefill chunk riding along.
    pub chunk: Chunk,
}

impl<'a, M> StepBatch<'a, M>
where
    M: Iterator<Item = &'a StepMember> + Clone,
{
    /// Prices the step at depth 0, 1, … up to `max_depth` at per-position
    /// acceptance `accept`, and returns the price with the most expected
    /// tokens per second of step time; ties go to the shallower depth.  The
    /// walk stops at the first depth no member can draft to, since every
    /// deeper price would repeat the last one.  Each depth adds one draft
    /// round and re-sums the verify sweep, so the walk is O(members ×
    /// (max_depth + 1)) and allocates nothing.  At `max_depth == 0` this is
    /// the plain batched step.  A [`Chunk::Slack`] chunk is sized once, at
    /// depth 0, against the plain pass's slack, and rides every depth at
    /// that length.
    pub fn choose(&self, max_depth: u64, accept: f64) -> StepPrice {
        let members = || self.members.clone();
        if members().next().is_none() {
            // Chunk-only step: the prefill's own plan already prices its
            // weight reads and overheads inside the NPU window being sliced,
            // and no pass leaves slack to fill.
            let (chunk_secs, chunk_mode) = self.chunk.size(0.0);
            return StepPrice {
                depth: 0,
                draft_secs: 0.0,
                step_secs: chunk_secs,
                chunk_secs,
                chunk_mode,
                tokens: 0.0,
            };
        }
        // One weight pass, one handoff and one launch set per distinct
        // model, whatever the depth: the weight read and the fused jobs are
        // amortised across the batch.
        let mut weight_secs = 0.0f64;
        let mut handoff_secs = 0.0f64;
        let mut launch_saving_secs = 0.0f64;
        for (i, m) in members().enumerate() {
            if !members().take(i).any(|e| e.model == m.model) {
                let model = &self.models[m.model.0 as usize];
                let sequences = members().filter(|e| e.model == m.model).count();
                weight_secs += model.step.weight_pass_secs;
                handoff_secs += model.handoff_secs;
                launch_saving_secs += model.step.fused_launch_saving_secs(sequences);
            }
        }
        let mut best: Option<StepPrice> = None;
        let (mut chunk_secs, mut chunk_mode) = (0.0f64, ChunkMode::Fixed);
        let mut draft_secs = 0.0f64;
        let mut tokens = members().count() as f64;
        let mut accept_pow = 1.0f64;
        for depth in 0..=max_depth {
            if depth > 0 {
                // Round `depth − 1` batches every member that still drafts at
                // this depth; rounds are serial because token r+1 depends on
                // token r.
                let draft = self.draft.expect("speculating without a draft model");
                let mut round_compute = 0.0f64;
                let mut drafting = 0usize;
                for m in members().filter(|m| m.proposals(depth) == depth) {
                    round_compute += draft.step.decode_compute_secs(m.kv_len);
                    drafting += 1;
                }
                if drafting == 0 {
                    break;
                }
                draft_secs += (round_compute - draft.step.fused_launch_saving_secs(drafting))
                    .max(draft.step.weight_pass_secs)
                    + draft.handoff_secs;
                accept_pow *= accept;
                tokens += accept_pow * drafting as f64;
            }
            let solo_secs: f64 = members()
                .map(|m| match m.proposals(depth) {
                    0 => m.compute_secs,
                    // The verify sweep scores the proposals plus the bonus
                    // token the target emits past the accepted prefix.
                    k => self.models[m.model.0 as usize]
                        .step
                        .verify_compute_secs(k as usize + 1, m.kv_len),
                })
                .sum();
            let compute_secs = solo_secs - launch_saving_secs;
            if depth == 0 {
                // The plain pass's slack: the weight reads its fused decode
                // compute leaves the NPU idle under.
                (chunk_secs, chunk_mode) = self.chunk.size(weight_secs - compute_secs);
            }
            let price = StepPrice {
                depth,
                draft_secs,
                step_secs: draft_secs + (compute_secs + chunk_secs).max(weight_secs) + handoff_secs,
                chunk_secs,
                chunk_mode,
                tokens,
            };
            if best.is_none_or(|b| price.rate() > b.rate()) {
                best = Some(price);
            }
        }
        best.expect("depth 0 is always priced")
    }
}

/// The server's estimate of per-position draft acceptance: accepted
/// proposals over examined positions, with a uniform prior —
/// `(accepted + 1) / (examined + 2)`.  A verify examines every accepted
/// proposal plus the one it stopped at, if it stopped at a rejection.  The
/// prior starts the estimate at 1/2, so one early rejection cannot switch
/// speculation off.
pub(crate) fn acceptance_estimate(accepted: u64, examined: u64) -> f64 {
    (accepted + 1) as f64 / (examined + 2) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm::{BatchedStepCosts, CostModel, ModelSpec};
    use sim_core::DetRng;

    /// The RK3588 catalogue the tests price — qwen2.5-3b (id 0), which
    /// verifies the qwen2.5-0.5b draft, and tinyllama-1.1b (id 1), whose
    /// tokenizer the draft does not share — and the draft itself.
    fn rk3588_models() -> ([StepModel; 2], StepModel) {
        let cost = CostModel::rk3588();
        let profile = PlatformProfile::rk3588();
        let draft = ModelSpec::qwen2_5_0_5b();
        let qwen = StepModel::new(&cost, &profile, &ModelSpec::qwen2_5_3b(), true);
        let tiny = StepModel::new(&cost, &profile, &ModelSpec::tinyllama_1_1b(), false);
        ([qwen, tiny], StepModel::new(&cost, &profile, &draft, false))
    }

    fn member_of(models: &[StepModel], model: u32, kv_len: usize, tokens_left: u64) -> StepMember {
        let coeffs = &models[model as usize];
        StepMember {
            model: ModelId(model),
            kv_len,
            tokens_left,
            compute_secs: coeffs.step.decode_compute_secs(kv_len),
            drafts: coeffs.drafts,
        }
    }

    /// A qwen2.5-3b member.
    fn member(models: &[StepModel], kv_len: usize, tokens_left: u64) -> StepMember {
        member_of(models, 0, kv_len, tokens_left)
    }

    fn batch<'a>(
        models: &'a [StepModel],
        draft: &'a StepModel,
        members: &'a [StepMember],
    ) -> StepBatch<'a, std::slice::Iter<'a, StepMember>> {
        StepBatch {
            members: members.iter(),
            models,
            draft: Some(draft),
            chunk: Chunk::Fixed(0.0),
        }
    }

    fn chosen_depth(members: &[StepMember], accept: f64) -> u64 {
        let (models, draft) = rk3588_models();
        batch(&models, &draft, members).choose(4, accept).depth
    }

    #[test]
    fn depth_falls_as_the_batch_fills() {
        let (models, _) = rk3588_models();
        let batch = |n: usize, kv: usize| vec![member(&models, kv, 1_000); n];
        assert_eq!(chosen_depth(&batch(1, 200), 0.87), 4);
        assert_eq!(chosen_depth(&batch(5, 200), 0.87), 2);
        assert_eq!(chosen_depth(&batch(6, 600), 0.87), 1);
        assert_eq!(chosen_depth(&batch(10, 200), 0.87), 1);
        assert_eq!(chosen_depth(&batch(12, 200), 0.87), 0);
        assert_eq!(chosen_depth(&batch(16, 200), 0.87), 0);
    }

    #[test]
    fn one_early_rejection_does_not_switch_speculation_off() {
        let (models, _) = rk3588_models();
        // One examined position, rejected: the prior puts p̂ at 1/3.
        let accept = acceptance_estimate(0, 1);
        assert_eq!(accept, 1.0 / 3.0);
        assert_eq!(chosen_depth(&[member(&models, 200, 1_000)], accept), 1);
    }

    #[test]
    fn depth_zero_is_the_plain_batched_step() {
        let (models, draft) = rk3588_models();
        let members = [member(&models, 300, 50), member(&models, 900, 2)];
        let plain = StepBatch {
            chunk: Chunk::Fixed(0.004),
            ..batch(&models, &draft, &members)
        }
        .choose(0, 0.9);
        let qwen = &models[0].step;
        let compute = members[0].compute_secs + members[1].compute_secs - qwen.launch_secs;
        let expected = (compute + 0.004).max(qwen.weight_pass_secs) + models[0].handoff_secs;
        assert_eq!(plain.depth, 0);
        assert_eq!(plain.draft_secs, 0.0);
        assert_eq!(plain.step_secs, expected);
        assert_eq!(plain.tokens, 2.0);
        // The 4 ms chunk hides in the weight-read slack the decodes already
        // pay for, and a chunk-only step costs exactly its chunk.
        let without = batch(&models, &draft, &members).choose(0, 0.9);
        assert_eq!(plain.step_secs, without.step_secs);
        let alone = StepBatch {
            chunk: Chunk::Fixed(0.004),
            ..batch(&models, &draft, &[])
        }
        .choose(4, 0.9);
        assert_eq!(
            (alone.depth, alone.step_secs, alone.tokens),
            (0, 0.004, 0.0)
        );
        // A lone member is priced exactly as its solo decode token.
        let solo = batch(&models, &draft, &members[..1]).choose(0, 0.9);
        assert_eq!(
            solo.step_secs,
            members[0].compute_secs.max(qwen.weight_pass_secs) + models[0].handoff_secs
        );
    }

    #[test]
    fn a_lone_member_is_the_evaluators_decode_token_plus_handoffs() {
        let (models, draft) = rk3588_models();
        let cost = CostModel::rk3588();
        for (id, spec) in [
            (0, ModelSpec::qwen2_5_3b()),
            (1, ModelSpec::tinyllama_1_1b()),
        ] {
            for kv in [64usize, 512, 2048] {
                let lone = [member_of(&models, id, kv, 50)];
                let step = batch(&models, &draft, &lone).choose(0, 0.9).step_secs;
                let reference = cost.decode_token_time(&spec, kv, true).as_secs_f64()
                    + models[id as usize].handoff_secs;
                assert!(
                    (step - reference).abs() < 1e-6,
                    "{} @ kv {kv}: {step} vs {reference}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn a_batch_amortises_the_weight_read() {
        // Decode is memory-bound: one weight pass serves the whole batch, so
        // per-sequence step time shrinks until compute catches up.
        let (models, draft) = rk3588_models();
        let price = |n: usize| {
            let members = vec![member(&models, 256, 100); n];
            batch(&models, &draft, &members).choose(0, 0.9).step_secs
        };
        let (solo, batch8) = (price(1), price(8));
        assert!(
            batch8 < 8.0 * solo * 0.5,
            "batch8 {batch8} vs 8x solo {solo}"
        );
        assert!(batch8 >= solo, "a bigger batch never makes a step shorter");
    }

    #[test]
    fn a_step_launches_each_model_once() {
        let (models, draft) = rk3588_models();
        let price = |members: &[StepMember]| batch(&models, &draft, members).choose(0, 0.9);
        let (qwen, tiny) = (&models[0], &models[1]);
        // Eleven qwen2.5-3b members at KV 3000 make a compute-bound step.
        let mut members = vec![member(&models, 3000, 100); 11];
        let before = price(&members).step_secs;
        assert!(before > qwen.step.weight_pass_secs + qwen.handoff_secs + 0.1);
        // One more qwen member adds exactly its MACs and attention.
        members.push(member(&models, 2000, 100));
        let after = price(&members).step_secs;
        let macs = qwen.step.decode_compute_secs(2000) - qwen.step.launch_secs;
        assert!(
            (after - before - macs).abs() < 1e-12,
            "{} vs {macs}",
            after - before
        );
        // A tinyllama member brings its model's launch set, once, and its
        // model's handoffs; the step stays compute-bound, so its weight pass
        // hides under the compute.
        members.push(member_of(&models, 1, 500, 100));
        let with_tiny = price(&members).step_secs;
        let added = with_tiny - after;
        let expected = tiny.step.decode_compute_secs(500) + tiny.handoff_secs;
        assert!((added - expected).abs() < 1e-12, "{added} vs {expected}");
        // A second tinyllama member pays no second launch set.
        members.push(member_of(&models, 1, 700, 100));
        let added = price(&members).step_secs - with_tiny;
        let macs = tiny.step.decode_compute_secs(700) - tiny.step.launch_secs;
        assert!((added - macs).abs() < 1e-12, "{added} vs {macs}");

        // The draft rounds and the verify sweep follow the same rule.  Four
        // qwen2.5-3b members at KV 2000 beside one tinyllama-1.1b member
        // (whose weight pass widens the slack a draft round needs to pay)
        // draft one token each, and both passes are compute-bound; a fifth
        // qwen member adds exactly its draft MACs to the round and its two
        // scored positions' MACs to the sweep.
        let speculating = |n: usize| {
            let mut members = vec![member(&models, 2000, 100); n];
            members.push(member_of(&models, 1, 500, 100));
            batch(&models, &draft, &members).choose(1, 0.95)
        };
        let (four, five) = (speculating(4), speculating(5));
        assert_eq!((four.depth, five.depth), (1, 1));
        assert!(four.draft_secs > draft.step.weight_pass_secs + draft.handoff_secs);
        let added = five.draft_secs - four.draft_secs;
        let macs = draft.step.decode_compute_secs(2000) - draft.step.launch_secs;
        assert!((added - macs).abs() < 1e-12, "draft: {added} vs {macs}");
        let sweep =
            |p: StepPrice| p.step_secs - p.draft_secs - qwen.handoff_secs - tiny.handoff_secs;
        assert!(sweep(four) > qwen.step.weight_pass_secs + tiny.step.weight_pass_secs);
        let added = sweep(five) - sweep(four);
        let macs = qwen.step.verify_compute_secs(2, 2000) - qwen.step.launch_secs;
        assert!((added - macs).abs() < 1e-12, "verify: {added} vs {macs}");
    }

    #[test]
    fn verifying_extra_positions_beats_extra_steps() {
        // The point of speculation: at low occupancy, four drafted tokens
        // and five positions in one sweep cost far less than five
        // weight-bound steps, because the draft's weight pass is several
        // times shorter than the target's.
        let (models, draft) = rk3588_models();
        assert!(draft.step.weight_pass_secs * 3.0 < models[0].step.weight_pass_secs);
        let lone = [member(&models, 512, 100)];
        let deep = batch(&models, &draft, &lone).choose(4, 0.99);
        let plain = batch(&models, &draft, &lone).choose(0, 0.99);
        assert_eq!(deep.depth, 4);
        assert!(
            deep.step_secs < 0.5 * 5.0 * plain.step_secs,
            "{} vs {}",
            deep.step_secs,
            plain.step_secs
        );
    }

    #[test]
    fn a_model_without_the_drafts_tokenizer_never_drafts() {
        let (models, draft) = rk3588_models();
        let tiny = member_of(&models, 1, 300, 1_000);
        assert_eq!(tiny.proposals(4), 0);
        // Alone, it cannot speculate at any depth.
        let price = batch(&models, &draft, std::slice::from_ref(&tiny)).choose(4, 0.99);
        assert_eq!((price.depth, price.draft_secs), (0, 0.0));
        // Beside a qwen member that drafts, it keeps its plain compute.
        let members = [member(&models, 300, 1_000), tiny];
        let price = batch(&models, &draft, &members).choose(4, 0.99);
        assert_eq!(price.depth, 4);
        assert_eq!(
            price.tokens,
            1.0 + (0..=4).map(|j| 0.99f64.powi(j)).sum::<f64>()
        );
    }

    /// One of the random batches the property tests price: 1–16 members,
    /// mostly qwen2.5-3b and some tinyllama-1.1b, at KV 1–4096 with 1–8
    /// tokens left, plus an acceptance rate and a depth cap.  Every draw
    /// comes from `rng`, so a seed names the same 500 batches in each test.
    fn random_batch(models: &[StepModel], rng: &mut DetRng) -> (Vec<StepMember>, f64, u64) {
        let n = rng.gen_range(1, 17) as usize;
        let members = (0..n)
            .map(|_| {
                let model = u32::from(rng.gen_bool(0.25));
                member_of(
                    models,
                    model,
                    rng.gen_range(1, 4097) as usize,
                    rng.gen_range(1, 9),
                )
            })
            .collect();
        let accept = rng.gen_range_f64(0.05, 0.99);
        (members, accept, rng.gen_range(0, 7))
    }

    /// The plain pass's weight reads and fused decode compute, summed
    /// directly: one weight pass and one launch set per distinct model,
    /// and every member's MACs.
    fn plain_pass(models: &[StepModel], members: &[StepMember]) -> (f64, f64) {
        let mut present: Vec<ModelId> = members.iter().map(|m| m.model).collect();
        present.sort();
        present.dedup();
        let per_model = |f: fn(&StepModel) -> f64| -> f64 {
            present.iter().map(|id| f(&models[id.0 as usize])).sum()
        };
        let macs: f64 = members
            .iter()
            .map(|m| {
                let step = &models[m.model.0 as usize].step;
                step.decode_compute_secs(m.kv_len) - step.launch_secs
            })
            .sum();
        (
            per_model(|p| p.step.weight_pass_secs),
            per_model(|p| p.step.launch_secs) + macs,
        )
    }

    /// A slack chunk fills the plain pass's weight-read slack: where the
    /// slack exceeds the one-token floor, the step carrying it costs the
    /// chunk-free step; where the prefill has less left, the chunk is the
    /// rest and still free; a compute-bound pass gets exactly the floor;
    /// and the slack does not depend on the members' order.
    #[test]
    fn a_slack_chunk_costs_the_plain_pass_nothing_above_its_floor() {
        let (models, draft) = rk3588_models();
        let mut rng = DetRng::new(0x5DEC);
        let mut perturb = DetRng::new(0x51AC);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.max(b);
        // One prompt token's share of a qwen2.5-3b prefill window is a few
        // milliseconds.
        let floor_secs = 0.003;
        let (mut filled, mut floored) = (0, 0);
        for case in 0..500 {
            let (members, accept, _) = random_batch(&models, &mut rng);
            let with_chunk = |members: &[StepMember], left_secs: f64| {
                StepBatch {
                    chunk: Chunk::Slack {
                        floor_secs,
                        left_secs,
                    },
                    ..batch(&models, &draft, members)
                }
                .choose(0, accept)
            };
            let plain = batch(&models, &draft, &members).choose(0, accept);
            let slack = with_chunk(&members, 10.0);
            let (weights, compute) = plain_pass(&models, &members);
            if weights - compute > floor_secs * (1.0 + 1e-9) {
                filled += 1;
                assert!(
                    close(slack.step_secs, plain.step_secs),
                    "case {case}: {slack:?} vs the chunk-free {plain:?}"
                );
                assert!(
                    (slack.chunk_secs - (weights - compute)).abs() <= 1e-12 * weights,
                    "case {case}: chunk {} vs slack {}",
                    slack.chunk_secs,
                    weights - compute
                );
                let rest = with_chunk(&members, slack.chunk_secs / 2.0);
                assert_eq!(rest.chunk_secs, slack.chunk_secs / 2.0, "case {case}");
                assert_eq!(rest.step_secs, plain.step_secs, "case {case}");
            }
            if compute > weights * (1.0 + 1e-9) {
                floored += 1;
                assert_eq!(slack.chunk_secs, floor_secs, "case {case}");
            }
            let mut shuffled = members.clone();
            perturb.shuffle(&mut shuffled);
            let permuted = with_chunk(&shuffled, 10.0);
            assert!(
                (permuted.chunk_secs - slack.chunk_secs).abs() <= 1e-12 * slack.step_secs,
                "case {case}: permuted chunk {} vs {}",
                permuted.chunk_secs,
                slack.chunk_secs
            );
        }
        assert!(
            filled >= 100 && floored >= 100,
            "{filled} filled, {floored} floored"
        );
    }

    /// A direct evaluation of the step price at one depth under the fused
    /// rule, written independently of the incremental walk: every distinct
    /// model launches its operators once (the draft once per round), and
    /// every member adds one decode token's MACs per position it scores.
    fn direct_price(
        models: &[StepModel],
        draft: &StepModel,
        members: &[StepMember],
        depth: u64,
        accept: f64,
    ) -> StepPrice {
        let macs = |c: &BatchedStepCosts, kv: usize| c.decode_compute_secs(kv) - c.launch_secs;
        let rounds = members
            .iter()
            .map(|m| m.proposals(depth))
            .max()
            .unwrap_or(0);
        let mut draft_secs = 0.0;
        for r in 0..rounds {
            let compute: f64 = draft.step.launch_secs
                + members
                    .iter()
                    .filter(|m| m.proposals(depth) > r)
                    .map(|m| macs(&draft.step, m.kv_len))
                    .sum::<f64>();
            draft_secs += compute.max(draft.step.weight_pass_secs) + draft.handoff_secs;
        }
        let mut present: Vec<ModelId> = members.iter().map(|m| m.model).collect();
        present.sort();
        present.dedup();
        let per_model = |f: fn(&StepModel) -> f64| -> f64 {
            present.iter().map(|id| f(&models[id.0 as usize])).sum()
        };
        let launches = per_model(|p| p.step.launch_secs);
        let weights = per_model(|p| p.step.weight_pass_secs);
        let handoffs = per_model(|p| p.handoff_secs);
        let compute: f64 = launches
            + members
                .iter()
                .map(|m| {
                    let positions = m.proposals(depth) + 1;
                    positions as f64 * macs(&models[m.model.0 as usize].step, m.kv_len)
                })
                .sum::<f64>();
        let tokens: f64 = members
            .iter()
            .map(|m| {
                (0..=m.proposals(depth))
                    .map(|j| accept.powi(j as i32))
                    .sum::<f64>()
            })
            .sum();
        StepPrice {
            depth,
            draft_secs,
            step_secs: draft_secs + compute.max(weights) + handoffs,
            chunk_secs: 0.0,
            chunk_mode: ChunkMode::Fixed,
            tokens,
        }
    }

    /// Besides the walk's optimality, each case checks that the price is a
    /// function of the set of members (permuting them moves neither the
    /// choice nor the price) and never falls when a member's KV length or
    /// scored positions grow.
    #[test]
    fn the_chosen_depth_beats_every_other_candidate() {
        let (models, draft) = rk3588_models();
        let mut rng = DetRng::new(0x5DEC);
        // The perturbations draw from their own stream, so the batches are
        // the same with or without them.
        let mut perturb = DetRng::new(0x9E7B);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.max(b);
        let mut same_depth_growths = 0;
        for case in 0..500 {
            let (members, accept, max_depth) = random_batch(&models, &mut rng);
            let n = members.len();
            let chosen = batch(&models, &draft, &members).choose(max_depth, accept);
            assert!(chosen.depth <= max_depth, "case {case}");
            let at_chosen = direct_price(&models, &draft, &members, chosen.depth, accept);
            assert!(
                (at_chosen.step_secs - chosen.step_secs).abs() <= 1e-12 * chosen.step_secs
                    && (at_chosen.tokens - chosen.tokens).abs() <= 1e-9,
                "case {case}: the walk prices depth {} as {chosen:?}, directly {at_chosen:?}",
                chosen.depth
            );
            for depth in 0..=max_depth {
                let other = direct_price(&models, &draft, &members, depth, accept);
                assert!(
                    chosen.rate() >= other.rate() * (1.0 - 1e-12),
                    "case {case}: depth {} ({} tok/s) loses to depth {depth} ({} tok/s)",
                    chosen.depth,
                    chosen.rate(),
                    other.rate()
                );
            }

            let choose = |members: &[StepMember], max_depth| {
                batch(&models, &draft, members).choose(max_depth, accept)
            };
            let mut shuffled = members.clone();
            perturb.shuffle(&mut shuffled);
            let permuted = choose(&shuffled, max_depth);
            assert!(
                permuted.depth == chosen.depth
                    && close(permuted.step_secs, chosen.step_secs)
                    && close(permuted.tokens, chosen.tokens),
                "case {case}: permuted {permuted:?} vs {chosen:?}"
            );

            // A longer context costs every depth at least as much and emits
            // no more, so the plain step costs no less and the chosen rate
            // does not rise.
            let victim = perturb.gen_range(0, n as u64) as usize;
            let v = members[victim];
            let mut longer = members.clone();
            longer[victim] = member_of(
                &models,
                v.model.0,
                v.kv_len + perturb.gen_range(1, 512) as usize,
                v.tokens_left,
            );
            assert!(
                choose(&longer, 0).step_secs >= choose(&members, 0).step_secs,
                "case {case}: a longer context made the plain step cheaper"
            );
            assert!(
                choose(&longer, max_depth).rate() <= chosen.rate(),
                "case {case}: a longer context raised the chosen rate"
            );
            // More tokens left let the member draft, and so score, at least
            // as many positions at every depth: at the same depth the step
            // costs no less.
            let mut more = members.clone();
            more[victim].tokens_left += perturb.gen_range(1, 4);
            let grown = choose(&more, max_depth);
            if grown.depth == chosen.depth {
                same_depth_growths += 1;
                assert!(
                    grown.step_secs >= chosen.step_secs,
                    "case {case}: more scored positions made depth {} cheaper",
                    chosen.depth
                );
            }
        }
        assert!(same_depth_growths >= 250, "{same_depth_growths} of 500");
    }
}
