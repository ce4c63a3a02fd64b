//! Pricing one batched step of the serving step loop, and choosing how many
//! tokens its decodes draft when speculative decoding is on.
//!
//! A step advances every member decode by at least one token and may run one
//! prefill chunk alongside.  At draft depth `k` each member proposes
//! `k_i = min(k, tokens_left − 1)` tokens, and the step costs:
//!
//! * `max(k_i)` serial draft rounds — round `r` batches every member with
//!   `k_i > r` and costs `max(Σ draft compute, draft weight pass)` plus the
//!   draft's handoffs;
//! * the target's fused sweep — each member scores `k_i + 1` positions (its
//!   plain decode compute at `k_i = 0`), the chunk rides along, and the
//!   whole sweep is bounded below by one weight pass per distinct model;
//! * one world-switch handoff per distinct model.
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
    /// Speculative step-cost coefficients against the configured draft
    /// (`None` when speculation is off, and on the draft's own entry).
    pub spec: Option<llm::SpeculativeStepCosts>,
}

impl StepModel {
    /// Derives `model`'s coefficients on `profile`, with verify-sweep
    /// coefficients against `draft` when one is configured.
    pub fn new(
        cost: &llm::CostModel,
        profile: &PlatformProfile,
        model: &llm::ModelSpec,
        draft: Option<&llm::ModelSpec>,
    ) -> StepModel {
        StepModel {
            step: cost.batched_step_costs(model, true),
            // The same per-token switch cost `system::evaluate_service`
            // folds into `decode_tokens_per_sec`.
            handoff_secs: (profile.codriver_switch_cost() * 2 * model.layers as u64).as_secs_f64(),
            spec: draft.map(|d| cost.speculative_step_costs(d, model, true)),
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
    /// Plain decode compute of one token at `kv_len`, seconds.
    pub compute_secs: f64,
}

impl StepMember {
    /// Tokens the member drafts at `depth`: never its final token, which
    /// always comes from the target so the sequence cannot overshoot its
    /// scripted length.
    pub fn proposals(&self, depth: u64) -> u64 {
        depth.min(self.tokens_left.saturating_sub(1))
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
    /// Prefill-chunk seconds in the step (0 when none rides along).
    pub chunk_secs: f64,
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
    /// the plain batched step.
    pub fn choose(&self, max_depth: u64, accept: f64) -> StepPrice {
        let members = || self.members.clone();
        if members().next().is_none() {
            // Chunk-only step: the prefill's own plan already prices its
            // weight reads and overheads inside the NPU window being sliced.
            return StepPrice {
                depth: 0,
                draft_secs: 0.0,
                step_secs: self.chunk_secs,
                tokens: 0.0,
            };
        }
        // One weight pass and one handoff per distinct model, whatever the
        // depth: the weight read is amortised across the batch.
        let mut weight_secs = 0.0f64;
        let mut handoff_secs = 0.0f64;
        for (i, m) in members().enumerate() {
            if !members().take(i).any(|e| e.model == m.model) {
                let model = &self.models[m.model.0 as usize];
                weight_secs += model.step.weight_pass_secs;
                handoff_secs += model.handoff_secs;
            }
        }
        let mut best: Option<StepPrice> = None;
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
                let mut drafting = 0u32;
                for m in members().filter(|m| m.proposals(depth) == depth) {
                    round_compute += draft.step.decode_compute_secs(m.kv_len);
                    drafting += 1;
                }
                if drafting == 0 {
                    break;
                }
                draft_secs += round_compute.max(draft.step.weight_pass_secs) + draft.handoff_secs;
                accept_pow *= accept;
                tokens += accept_pow * drafting as f64;
            }
            let compute_secs: f64 = members()
                .map(|m| match m.proposals(depth) {
                    0 => m.compute_secs,
                    // The verify sweep scores the proposals plus the bonus
                    // token the target emits past the accepted prefix.
                    k => self.models[m.model.0 as usize]
                        .spec
                        .as_ref()
                        .expect("speculating sequence on a model without spec costs")
                        .verify_compute_secs(k as usize + 1, m.kv_len),
                })
                .sum();
            let price = StepPrice {
                depth,
                draft_secs,
                step_secs: draft_secs
                    + (compute_secs + self.chunk_secs).max(weight_secs)
                    + handoff_secs,
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
    use llm::{CostModel, ModelSpec};
    use sim_core::DetRng;

    /// The RK3588 qwen2.5-3b target (id 0) and its qwen2.5-0.5b draft.
    fn rk3588_pair() -> ([StepModel; 1], StepModel) {
        let cost = CostModel::rk3588();
        let profile = PlatformProfile::rk3588();
        let draft = ModelSpec::qwen2_5_0_5b();
        let target = StepModel::new(&cost, &profile, &ModelSpec::qwen2_5_3b(), Some(&draft));
        ([target], StepModel::new(&cost, &profile, &draft, None))
    }

    fn member(models: &[StepModel], kv_len: usize, tokens_left: u64) -> StepMember {
        StepMember {
            model: ModelId(0),
            kv_len,
            tokens_left,
            compute_secs: models[0].step.decode_compute_secs(kv_len),
        }
    }

    fn chosen_depth(members: &[StepMember], accept: f64) -> u64 {
        let (models, draft) = rk3588_pair();
        StepBatch {
            members: members.iter(),
            models: &models,
            draft: Some(&draft),
            chunk_secs: 0.0,
        }
        .choose(4, accept)
        .depth
    }

    #[test]
    fn depth_falls_as_the_batch_fills() {
        let (models, _) = rk3588_pair();
        let batch = |n: usize, kv: usize| vec![member(&models, kv, 1_000); n];
        assert_eq!(chosen_depth(&batch(1, 200), 0.87), 4);
        assert_eq!(chosen_depth(&batch(5, 200), 0.87), 2);
        assert_eq!(chosen_depth(&batch(6, 600), 0.87), 1);
        assert_eq!(chosen_depth(&batch(12, 200), 0.87), 0);
    }

    #[test]
    fn one_early_rejection_does_not_switch_speculation_off() {
        let (models, _) = rk3588_pair();
        // One examined position, rejected: the prior puts p̂ at 1/3.
        let accept = acceptance_estimate(0, 1);
        assert_eq!(accept, 1.0 / 3.0);
        assert_eq!(chosen_depth(&[member(&models, 200, 1_000)], accept), 1);
    }

    #[test]
    fn depth_zero_is_the_plain_batched_step() {
        let (models, draft) = rk3588_pair();
        let members = [member(&models, 300, 50), member(&models, 900, 2)];
        let batch = StepBatch {
            members: members.iter(),
            models: &models,
            draft: Some(&draft),
            chunk_secs: 0.004,
        };
        let plain = batch.choose(0, 0.9);
        let compute = members[0].compute_secs + members[1].compute_secs;
        let expected =
            (compute + 0.004).max(models[0].step.weight_pass_secs) + models[0].handoff_secs;
        assert_eq!(plain.depth, 0);
        assert_eq!(plain.draft_secs, 0.0);
        assert_eq!(plain.step_secs, expected);
        assert_eq!(plain.tokens, 2.0);
    }

    /// A direct evaluation of the step price at one depth, written
    /// independently of the incremental walk.
    fn direct_price(
        models: &[StepModel],
        draft: &StepModel,
        members: &[StepMember],
        depth: u64,
        accept: f64,
    ) -> StepPrice {
        let rounds = members
            .iter()
            .map(|m| m.proposals(depth))
            .max()
            .unwrap_or(0);
        let mut draft_secs = 0.0;
        for r in 0..rounds {
            let compute: f64 = members
                .iter()
                .filter(|m| m.proposals(depth) > r)
                .map(|m| draft.step.decode_compute_secs(m.kv_len))
                .sum();
            draft_secs += compute.max(draft.step.weight_pass_secs) + draft.handoff_secs;
        }
        let compute: f64 = members
            .iter()
            .map(|m| match m.proposals(depth) {
                0 => m.compute_secs,
                k => models[0]
                    .spec
                    .unwrap()
                    .verify_compute_secs(k as usize + 1, m.kv_len),
            })
            .sum();
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
            step_secs: draft_secs
                + compute.max(models[0].step.weight_pass_secs)
                + models[0].handoff_secs,
            tokens,
        }
    }

    #[test]
    fn the_chosen_depth_beats_every_other_candidate() {
        let (models, draft) = rk3588_pair();
        let mut rng = DetRng::new(0x5DEC);
        for case in 0..500 {
            let n = rng.gen_range(1, 17) as usize;
            let members: Vec<StepMember> = (0..n)
                .map(|_| {
                    member(
                        &models,
                        rng.gen_range(1, 4097) as usize,
                        rng.gen_range(1, 9),
                    )
                })
                .collect();
            let accept = rng.gen_range_f64(0.05, 0.99);
            let max_depth = rng.gen_range(0, 7);
            let chosen = StepBatch {
                members: members.iter(),
                models: &models,
                draft: Some(&draft),
                chunk_secs: 0.0,
            }
            .choose(max_depth, accept);
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
        }
    }
}
