//! The serving step loop: its state, its decisions and its one pricer.
//!
//! [`StepLoop`] owns every decision between two steps: which prefill holds
//! the chunk slot, how long its chunk is, how deep the decodes draft, the
//! acceptance draws, and the token, chunk and sharing-stall accounting.  It
//! reads nothing of the server but whether the server is at its in-flight
//! cap with a request queued, so a test can drive it without a `Server`.
//! `serving.rs` keeps the events, the NPU lane, the KV pool, telemetry and
//! metrics, and the request records.  [`StepBatch::choose`] is the only code
//! that prices a pass over several sequences, and only [`StepLoop`] calls it;
//! `llm` supplies only the per-model coefficients
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

use std::collections::BTreeMap;

use sim_core::{DetRng, SimDuration};
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

/// A request's NPU-side work as the step loop receives it, once the pre-NPU
/// phase of its dispatch (pipelined restoration, KV unseal) is done.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sequence {
    /// The request id the loop names the sequence by.
    pub id: u64,
    pub model: ModelId,
    /// Whether its dispatch restored parameters: later prefills of its model
    /// read that restore, so none of them takes the chunk slot before this
    /// one finishes.
    pub restoring: bool,
    /// The prefill plan's exclusive NPU window, seconds, consumed chunk by
    /// chunk.
    pub npu_secs: f64,
    /// Prompt tokens the window prefills (those the KV pool did not serve);
    /// one chunk's worth of them costs one chunk's share of the window.
    pub new_tokens: usize,
    /// The KV length every decode step is priced at: prompt + response
    /// (decode compute is affine in it; pricing every step at the final
    /// length keeps the loop O(batch) and errs conservatively).
    pub kv_len: usize,
    /// Tokens of the response: the prefill emits the first, decode steps
    /// the rest.
    pub output_len: usize,
    /// Per-mille probability that the target accepts one draft proposal of
    /// the response, and the seed of its private acceptance stream — the
    /// simulator's ground truth: it decides each verify's outcome, and the
    /// depth chooser never reads it.
    pub accept_permille: u16,
    pub accept_seed: u64,
}

/// A prefill in the loop, consuming its NPU window at most one chunk a step.
struct Prefill {
    seq: Sequence,
    /// NPU seconds of the window left.
    left_secs: f64,
    /// Chunks consumed so far, for span labels; never priced.
    chunks_done: u32,
}

/// A sequence decoding in the loop: every step it is a member of emits at
/// least one of its tokens.
struct Decode {
    id: u64,
    member: StepMember,
    /// Tokens its decode phase emits in all (`output_len − 1`).
    tokens: u64,
    /// Steps it has been a member of, counted apart from `tokens_left` so
    /// the starvation guard measures rather than assumes.
    steps_seen: u64,
    /// The plain step of this sequence alone: the solo token time its
    /// sharing stall is measured against.
    solo_secs: f64,
    stall_ns: f64,
    accept_permille: u16,
    accept_rng: DetRng,
    /// Tokens the draft proposes for it in the in-flight step.
    proposed: u64,
}

/// The loop's counters over a run.
#[derive(Debug, Default)]
pub(crate) struct StepStats {
    pub steps: u64,
    /// Whole nanoseconds of step time.
    pub busy_ns: u64,
    /// Tokens the decodes emitted (prefills' first tokens excluded).
    pub decode_tokens: u64,
    /// Busy nanoseconds at each occupancy (sequences per step).
    pub occupancy_ns: BTreeMap<u32, u64>,
    pub max_step_ns: u64,
    /// The most steps any decode was a member of beyond its token count
    /// (structurally 0: every member of every step emits a token).
    pub max_steps_behind: u64,
    /// Steps whose chosen depth is at least 1.
    pub spec_steps: u64,
    /// Steps per chosen depth over the steps that chose one (`k + 1`
    /// entries with a draft wired, else none).
    pub depth_steps: Vec<u64>,
    pub proposed: u64,
    pub accepted: u64,
    pub rejected: u64,
    /// Draft positions the verifies examined: every accepted proposal plus
    /// the rejection each stopped verify ended at — the denominator of the
    /// acceptance estimate.
    pub examined: u64,
    /// Nanoseconds of draft rounds, the draft's one-time weight restore
    /// included.
    pub draft_ns: u64,
    /// Tokens emitted per decode sequence-step while a draft is wired
    /// (accepted prefix + bonus token): `emitted → sequence-steps`.
    pub emitted: BTreeMap<u32, u64>,
}

/// A step the loop picked and priced, for the server to schedule, label and
/// count.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    /// The price at the chosen depth.
    pub price: StepPrice,
    /// The step's whole-nanosecond duration: `step_secs` plus the rounding
    /// residue carried from earlier steps.
    pub ns: u64,
    /// Decodes in the step, plus one for the prefill holding the chunk slot.
    pub occupancy: u32,
    /// The prefill holding the chunk slot, and its chunk's number (from 1).
    pub chunk: Option<(u64, u32)>,
    /// Whether the slot left an unfinished prefill for this one.
    pub preempted: bool,
    /// Whether the step pays the draft's one-time weight restore (the first
    /// speculative step does), inside `draft_secs` and `step_secs`.
    pub restores_draft: bool,
}

/// What a finished step produced, in the order the server books it.
pub(crate) struct StepEnd {
    /// Decodes that emitted their last token, in join order, with their
    /// sharing stall.
    pub completed: Vec<(u64, SimDuration)>,
    /// The prefill whose window the step used up: its first token is out.
    /// The flag says whether that token was the response's last.
    pub first_token: Option<(u64, bool)>,
}

/// The serving step loop as a state machine over its sequences.  The server
/// admits a prefill when its pre-NPU phase ends, asks [`StepLoop::next`] for
/// a step whenever none is in flight, and calls [`StepLoop::finish`] when
/// the step's time has passed.
pub(crate) struct StepLoop {
    /// Coefficients indexed by [`ModelId`], the draft's included.
    models: Vec<StepModel>,
    draft: Option<ModelId>,
    /// The deepest draft a step may choose.
    k: u64,
    /// Seconds the draft's weights take to restore, until the first
    /// speculative step pays them.
    draft_restore_secs: Option<f64>,
    /// Prompt tokens of a fixed chunk.
    chunk_tokens: usize,
    /// Decoding sequences, in join order.
    decodes: Vec<Decode>,
    /// The sequence whose first token the last step produced: it joins
    /// `decodes` when the next step is picked, so the completions booked at
    /// that step's end do not count it as running.
    joining: Option<Decode>,
    /// Unfinished prefills, in admission order.
    prefills: Vec<Prefill>,
    /// Index into `prefills` of the chunk-slot holder: the prefill the last
    /// step chunked, while it is unfinished.
    slot: Option<usize>,
    /// The in-flight step's seconds and chunk seconds.
    running: Option<(f64, f64)>,
    /// Sub-nanosecond residue of step rounding, carried into the next step
    /// so a long run of steps accumulates no drift.
    carry_ns: f64,
    pub stats: StepStats,
}

impl StepLoop {
    /// An empty loop over `models`; `draft` names the draft entry and the
    /// seconds its weights take to restore, a step drafts at most `k`
    /// tokens per sequence, and a fixed chunk is `chunk_tokens` long.
    pub fn new(
        models: Vec<StepModel>,
        draft: Option<(ModelId, f64)>,
        k: u64,
        chunk_tokens: usize,
    ) -> StepLoop {
        StepLoop {
            models,
            draft: draft.map(|(id, _)| id),
            k,
            draft_restore_secs: draft.map(|(_, secs)| secs),
            chunk_tokens,
            decodes: Vec::new(),
            joining: None,
            prefills: Vec::new(),
            slot: None,
            running: None,
            carry_ns: 0.0,
            stats: StepStats {
                depth_steps: vec![0; if draft.is_some() { k as usize + 1 } else { 0 }],
                ..StepStats::default()
            },
        }
    }

    /// Admits a prefill whose pre-NPU phase is done.
    pub fn admit(&mut self, seq: Sequence) {
        self.prefills.push(Prefill {
            left_secs: seq.npu_secs,
            chunks_done: 0,
            seq,
        });
    }

    /// Whether a step is in flight.
    pub fn running(&self) -> bool {
        self.running.is_some()
    }

    /// The ids of the sequences in the loop: decodes, then prefills.
    pub fn members(&self) -> impl Iterator<Item = u64> + '_ {
        let decodes = self.decodes.iter().map(|d| d.id);
        decodes.chain(self.prefills.iter().map(|p| p.seq.id))
    }

    /// The prefill that takes the next step's chunk slot, as an index into
    /// `prefills`.
    ///
    /// Least remaining work first: the slot goes to the eligible prefill with
    /// the least work left, the earliest on a tie.  A prefill is not eligible
    /// while an earlier prefill of its model restores: its NPU work reads that
    /// restore.  No eligible prefill ahead of the holder can tie it (only the
    /// holder's work falls, arrivals queue behind it, and a restore finishes
    /// only by taking the slot), so it keeps the slot until strictly less.
    fn chunk_slot(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in self.prefills.iter().enumerate() {
            let blocked = self.prefills[..i]
                .iter()
                .any(|e| e.seq.restoring && e.seq.model == p.seq.model);
            if !blocked && best.is_none_or(|(_, work)| p.left_secs < work) {
                best = Some((i, p.left_secs));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Picks and prices the next step, or `None` when the loop has no work.
    /// The step decodes one token (more under speculation) of every decode
    /// and runs at most one chunk of the prefill [`StepLoop::chunk_slot`]
    /// picks; [`StepBatch::choose`] prices it, sizes a slack chunk and picks
    /// the draft depth.
    ///
    /// The chunk is a fixed one unless `backlog` (every in-flight slot
    /// taken, a request queued) and the step has decodes: then no new
    /// prefill can start before a decode finishes, so a full chunk would
    /// only end this prefill sooner and leave the decode-only steps after it
    /// with idle NPU time under their weight reads.  The chunk fills the
    /// step's weight-read slack instead ([`Chunk::Slack`]) and costs the
    /// decodes nothing, or carries one prompt token's share when a
    /// compute-bound pass leaves less.  In any other state a slack chunk
    /// would only delay a first token.
    pub fn next(&mut self, backlog: bool) -> Option<Step> {
        debug_assert!(self.running.is_none(), "one step at a time");
        self.decodes.extend(self.joining.take());
        let slot = self.chunk_slot();
        let preempted = self.slot.is_some() && slot != self.slot;
        self.slot = slot;
        let prefill = slot.map(|i| &self.prefills[i]);
        if self.decodes.is_empty() && prefill.is_none() {
            return None;
        }
        // A fixed chunk's worth of the new prompt tokens costs its share of
        // the window; the floor is one token's share.
        let chunk = match prefill.map(|p| (p, p.seq.npu_secs, p.seq.new_tokens.max(1))) {
            None => Chunk::Fixed(0.0),
            Some((p, window, new)) if backlog && !self.decodes.is_empty() => Chunk::Slack {
                floor_secs: window / new as f64,
                left_secs: p.left_secs,
            },
            Some((p, window, new)) => {
                let fixed = window * self.chunk_tokens.min(new) as f64 / new as f64;
                Chunk::Fixed(fixed.min(p.left_secs))
            }
        };
        // A step without a chunk picks the depth (0..=k) that maximises
        // expected emitted tokens per second of step time, at the loop's own
        // acceptance estimate.  Steps carrying a chunk do not draft: drafting
        // stretches the step, and a stretched step delays the chunk — so the
        // chunk cadence (and cold-heavy TTFT) stays the plain loop's.
        let deciding = self.draft.is_some() && prefill.is_none();
        let mut price = StepBatch {
            members: self.decodes.iter().map(|d| &d.member),
            models: &self.models,
            draft: self.draft.map(|id| &self.models[id.0 as usize]),
            chunk,
        }
        .choose(
            if deciding { self.k } else { 0 },
            acceptance_estimate(self.stats.accepted, self.stats.examined),
        );
        let stats = &mut self.stats;
        if deciding {
            stats.depth_steps[price.depth as usize] += 1;
        }
        let restores_draft = price.depth > 0 && self.draft_restore_secs.is_some();
        if price.depth > 0 {
            for d in &mut self.decodes {
                d.proposed = d.member.proposals(price.depth);
            }
            // The draft's weights stream through the restore path once; the
            // first speculative step pays for them outside the depth
            // comparison, since every depth would pay the same.
            let restore_secs = self.draft_restore_secs.take().unwrap_or(0.0);
            price.draft_secs += restore_secs;
            price.step_secs += restore_secs;
            stats.spec_steps += 1;
            stats.draft_ns += (price.draft_secs * 1e9).round() as u64;
        }
        let ns_f = price.step_secs * 1e9 + self.carry_ns;
        let ns = ns_f.round().max(0.0);
        self.carry_ns = ns_f - ns;
        let ns = ns as u64;
        let occupancy = self.decodes.len() as u32 + u32::from(prefill.is_some());
        *stats.occupancy_ns.entry(occupancy).or_insert(0) += ns;
        stats.steps += 1;
        stats.busy_ns += ns;
        stats.max_step_ns = stats.max_step_ns.max(ns);
        self.running = Some((price.step_secs, price.chunk_secs));
        Some(Step {
            price,
            ns,
            occupancy,
            chunk: prefill.map(|p| (p.seq.id, p.chunks_done + 1)),
            preempted,
            restores_draft,
        })
    }

    /// Finishes the in-flight step: each decode draws its verify's outcome
    /// and emits its accepted prefix plus one token, the slot holder
    /// consumes its chunk, and what finished leaves the loop.
    pub fn finish(&mut self) -> StepEnd {
        let (step_secs, chunk_secs) = self.running.take().expect("a step is in flight");
        let speculating = self.draft.is_some();
        let stats = &mut self.stats;
        for d in &mut self.decodes {
            d.steps_seen += 1;
            let emitted = if d.proposed == 0 {
                1
            } else {
                // The target accepts the leading run of proposals that match
                // what it would have sampled itself, then emits one bonus
                // token past it; the KV tail written for rejected positions
                // is rewound (a page-tail truncation: the KV length priced
                // is the final one).
                let rate = d.accept_permille as f64 / 1000.0;
                let mut accepted = 0u64;
                while accepted < d.proposed && d.accept_rng.gen_bool(rate) {
                    accepted += 1;
                }
                stats.proposed += d.proposed;
                stats.accepted += accepted;
                stats.rejected += d.proposed - accepted;
                stats.examined += accepted + u64::from(accepted < d.proposed);
                accepted + 1
            };
            if speculating {
                *stats.emitted.entry(emitted as u32).or_insert(0) += 1;
            }
            d.proposed = 0;
            // Proposals are capped at `tokens_left − 1`, so even a full
            // accept plus the bonus token cannot overshoot.
            d.member.tokens_left -= emitted;
            stats.decode_tokens += emitted;
            // Step time beyond the sequence's solo time for the tokens it
            // emitted is what sharing the NPU (and drafting) cost it.
            d.stall_ns += (step_secs - emitted as f64 * d.solo_secs).max(0.0) * 1e9;
        }
        let mut completed = Vec::new();
        self.decodes.retain(|d| {
            if d.member.tokens_left > 0 {
                return true;
            }
            let behind = d.steps_seen.saturating_sub(d.tokens);
            stats.max_steps_behind = stats.max_steps_behind.max(behind);
            completed.push((d.id, SimDuration::from_nanos(d.stall_ns.round() as u64)));
            false
        });
        let mut first_token = None;
        if let Some(i) = self.slot {
            let p = &mut self.prefills[i];
            p.left_secs -= chunk_secs;
            if chunk_secs > 0.0 {
                p.chunks_done += 1;
            }
            // Exact zero in the common case (the last chunk is `min(chunk,
            // left)`); the epsilon only absorbs float residue.
            if p.left_secs <= 1e-9 {
                let seq = self.prefills.remove(i).seq;
                self.slot = None;
                let tokens = seq.output_len.saturating_sub(1) as u64;
                first_token = Some((seq.id, tokens == 0));
                if tokens > 0 {
                    self.joining = Some(self.decode(seq, tokens));
                }
            }
        }
        StepEnd {
            completed,
            first_token,
        }
    }

    /// The decode `seq` becomes once its prefill is done, with `tokens` left
    /// to emit.
    fn decode(&self, seq: Sequence, tokens: u64) -> Decode {
        let coeffs = &self.models[seq.model.0 as usize];
        let member = StepMember {
            model: seq.model,
            kv_len: seq.kv_len,
            tokens_left: tokens,
            compute_secs: coeffs.step.decode_compute_secs(seq.kv_len),
            drafts: coeffs.drafts,
        };
        let solo_secs = StepBatch {
            members: std::iter::once(&member),
            models: &self.models,
            draft: None,
            chunk: Chunk::Fixed(0.0),
        }
        .choose(0, 0.0)
        .step_secs;
        Decode {
            id: seq.id,
            member,
            tokens,
            steps_seen: 0,
            solo_secs,
            stall_ns: 0.0,
            accept_permille: seq.accept_permille,
            accept_rng: DetRng::new(seq.accept_seed),
            proposed: 0,
        }
    }
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

    /// What the explorer tracks of one request across its history.
    #[derive(Default)]
    struct Life {
        window: f64,
        output_len: usize,
        /// NPU seconds of the chunks it ran.
        chunked: f64,
        /// Whether its first token is out and it still decodes.
        decoding: bool,
        emitted: u64,
        /// Seconds of the steps it decoded in.
        decode_secs: f64,
    }

    /// Drives [`StepLoop`] without a server through 10,000 random histories:
    /// 1–16 sequences of both models arriving over time, restoring or not,
    /// with responses of 1–6 tokens, a draft depth cap `k` in 0..=4, and the
    /// cap-with-backlog flag drawn per step.  After every step it checks:
    ///
    /// * (a) every decode emits exactly `output_len − 1` tokens, at least one
    ///   in every step from the step after its first token until it
    ///   finishes;
    /// * (b) each prefill's chunks sum to its NPU window, no chunk is longer
    ///   than what was left, and the first token comes at the end of the
    ///   step that consumes the rest;
    /// * (c) the chunk slot goes to the least work left among eligible
    ///   prefills, the earliest on a tie, the holder included; its holder is
    ///   displaced only by strictly less work; no prefill overtakes an
    ///   earlier restoring prefill of its model; and a preemption is reported
    ///   exactly when the slot leaves an unfinished prefill;
    /// * (d) the depth is at most `k`, 0 on every step carrying a chunk, and
    ///   nothing is proposed at `k = 0`;
    /// * (e) the whole-nanosecond step times sum to within 1 ns of the step
    ///   seconds;
    /// * (f) each decode's sharing stall is at most its steps' summed time.
    ///
    /// Case `c` draws only from `DetRng::new(shard_seed(SEED, c))`, so a
    /// failure's one-line repro (seed, case, step) replays on its own.
    #[test]
    fn step_loop_histories_keep_the_loop_laws() {
        const SEED: u64 = 0x57E9_100B;
        let (models, draft) = rk3588_models();
        let catalogue = vec![models[0], models[1], draft];
        // Fixed chunks, slack chunks, floor chunks, preemptions, guarded
        // choices, speculative steps, and holders kept against a later
        // prefill with equal work seen.
        let mut seen = [0u32; 7];
        for case in 0..10_000u64 {
            let mut rng = DetRng::new(sim_core::shard_seed(SEED, case));
            let k = rng.gen_range(0, 5);
            let draft = (k > 0).then_some((ModelId(2), 0.4));
            let mut lp = StepLoop::new(catalogue.clone(), draft, k, 16);
            let mut at = 0;
            let mut arrivals: Vec<(u64, Sequence)> = (0..rng.gen_range(1, 17))
                .map(|id| {
                    at += rng.gen_range(0, 4);
                    let seq = Sequence {
                        id,
                        model: ModelId(u32::from(rng.gen_bool(0.3))),
                        restoring: rng.gen_bool(0.3),
                        // Windows on a binary grid, and fixed chunks that
                        // split them exactly (all but 40 tokens), so equal
                        // work left is common: between fresh prefills, and
                        // between a chunked holder and a later arrival.
                        npu_secs: rng.gen_range(1, 5) as f64 / 16.0,
                        new_tokens: [1, 16, 32, 40, 64][rng.gen_range(0, 5) as usize],
                        kv_len: rng.gen_range(64, 2049) as usize,
                        output_len: rng.gen_range(1, 7) as usize,
                        accept_permille: rng.gen_range(300, 1000) as u16,
                        accept_seed: rng.next_u64(),
                    };
                    (at, seq)
                })
                .collect();
            arrivals.reverse();
            let mut lives: BTreeMap<u64, Life> = BTreeMap::new();
            let admit = |lp: &mut StepLoop, lives: &mut BTreeMap<u64, Life>, seq: Sequence| {
                let life = Life {
                    window: seq.npu_secs,
                    output_len: seq.output_len,
                    ..Life::default()
                };
                lives.insert(seq.id, life);
                lp.admit(seq);
            };
            let (mut sum_ns, mut sum_secs) = (0u64, 0.0f64);
            let mut holder: Option<u64> = None;
            for step in 0.. {
                let repro = || format!("repro: seed {SEED:#x} case {case} step {step}");
                while arrivals.last().is_some_and(|&(at, _)| at <= step) {
                    let (_, seq) = arrivals.pop().expect("an arrival is due");
                    admit(&mut lp, &mut lives, seq);
                }
                let prefills: Vec<(u64, f64, ModelId, bool)> = lp
                    .prefills
                    .iter()
                    .map(|p| (p.seq.id, p.left_secs, p.seq.model, p.seq.restoring))
                    .collect();
                let Some(st) = lp.next(rng.gen_bool(0.5)) else {
                    assert!(prefills.is_empty() && lp.decodes.is_empty(), "{}", repro());
                    match arrivals.pop() {
                        Some((_, seq)) => admit(&mut lp, &mut lives, seq),
                        None => break,
                    }
                    continue;
                };
                let price = st.price;
                // (a): the members are exactly the sequences decoding.
                let members: Vec<u64> = lp.decodes.iter().map(|d| d.id).collect();
                let decoding: Vec<u64> = lives
                    .iter()
                    .filter(|(_, l)| l.decoding)
                    .map(|(&id, _)| id)
                    .collect();
                let mut sorted = members.clone();
                sorted.sort();
                assert_eq!(sorted, decoding, "{}: members", repro());
                // (c): the chunk slot.
                let chosen = st.chunk.map(|(id, _)| id);
                assert_eq!(chosen.is_some(), !prefills.is_empty(), "{}", repro());
                if let Some(chosen) = chosen {
                    let eligible = |i: usize| {
                        let (_, _, model, _) = prefills[i];
                        !prefills[..i].iter().any(|e| e.3 && e.2 == model)
                    };
                    let s = prefills.iter().position(|p| p.0 == chosen);
                    let s = s.unwrap_or_else(|| panic!("{}: slot to a stranger", repro()));
                    assert!(eligible(s), "{}: slot to a blocked prefill", repro());
                    let least = (0..prefills.len())
                        .filter(|&i| eligible(i))
                        .map(|i| prefills[i].1)
                        .fold(f64::INFINITY, f64::min);
                    let tied = |i: usize| eligible(i) && prefills[i].1 == least;
                    let first = (0..prefills.len()).find(|&i| tied(i));
                    assert_eq!(first, Some(s), "{}: not the earliest least work", repro());
                    let displaced = holder.filter(|&h| h != chosen);
                    if let Some(h) = displaced {
                        let held = prefills.iter().find(|p| p.0 == h).expect("holder").1;
                        assert!(prefills[s].1 < held, "{}: equal work preempted", repro());
                        seen[3] += 1;
                    }
                    assert_eq!(st.preempted, displaced.is_some(), "{}", repro());
                    if (0..prefills.len()).any(|i| !eligible(i) && prefills[i].1 < least) {
                        seen[4] += 1;
                    }
                    if holder == Some(chosen) && (s + 1..prefills.len()).any(tied) {
                        seen[6] += 1;
                    }
                    seen[price.chunk_mode as usize] += 1;
                }
                // (d): the depth.
                assert!(price.depth <= k, "{}: depth {}", repro(), price.depth);
                assert!(chosen.is_none() || price.depth == 0, "{}", repro());
                if k == 0 {
                    assert!(lp.decodes.iter().all(|d| d.proposed == 0), "{}", repro());
                }
                seen[5] += u32::from(price.depth > 0);
                // (e): whole nanoseconds against seconds.
                sum_ns += st.ns;
                sum_secs += price.step_secs;
                let drift = sum_ns as f64 - sum_secs * 1e9;
                assert!(drift.abs() <= 1.0, "{}: drift {drift} ns", repro());
                let before: Vec<(u64, u64)> = lp
                    .decodes
                    .iter()
                    .map(|d| (d.id, d.member.tokens_left))
                    .collect();
                if rng.gen_bool(0.2) {
                    // Prefills also arrive while a step runs.
                    if let Some((_, seq)) = arrivals.pop() {
                        admit(&mut lp, &mut lives, seq);
                    }
                }
                let end = lp.finish();
                // (a): every member emits, and a finished one emitted all.
                for (id, left) in before {
                    let after = lp.decodes.iter().find(|d| d.id == id);
                    let after = after.map_or(0, |d| d.member.tokens_left);
                    assert!(after < left, "{}: request {id} emitted nothing", repro());
                    let life = lives.get_mut(&id).expect("a decode has a life");
                    life.emitted += left - after;
                    life.decode_secs += price.step_secs;
                    let done = end.completed.iter().find(|c| c.0 == id);
                    assert_eq!(done.is_some(), after == 0, "{}", repro());
                    if let Some(&(_, stall)) = done {
                        life.decoding = false;
                        let total = life.output_len as u64 - 1;
                        assert_eq!(life.emitted, total, "{}: request {id}", repro());
                        // (f): the stall is part of the steps' time.
                        let bound = (life.decode_secs * 1e9).round() + 1.0;
                        assert!(stall.as_nanos() as f64 <= bound, "{}: stall", repro());
                    }
                }
                // (b): the chunk, and the first token.
                let finished = st.chunk.and_then(|(id, _)| {
                    let left = prefills.iter().find(|p| p.0 == id).expect("holder").1;
                    assert!(price.chunk_secs <= left, "{}: chunk past the rest", repro());
                    let life = lives.get_mut(&id).expect("a prefill has a life");
                    life.chunked += price.chunk_secs;
                    (left - price.chunk_secs <= 1e-9).then_some(id)
                });
                assert_eq!(finished, end.first_token.map(|f| f.0), "{}", repro());
                holder = chosen.filter(|_| finished.is_none());
                if let Some((id, last)) = end.first_token {
                    let life = lives.get_mut(&id).expect("a prefill has a life");
                    let gap = (life.chunked - life.window).abs();
                    assert!(gap <= 1e-9, "{}: chunks tile the window by {gap}", repro());
                    assert_eq!(last, life.output_len == 1, "{}", repro());
                    life.decoding = !last;
                }
            }
            assert!(
                lives.values().all(|l| !l.decoding),
                "case {case}: a decode starved"
            );
        }
        let [fixed, slack, floor, preempted, guarded, speculative, tie_kept] = seen;
        assert!(
            fixed >= 10_000
                && slack >= 10_000
                && floor >= 1000
                && preempted >= 500
                && guarded >= 1000
                && speculative >= 5000
                && tie_kept >= 500,
            "{seen:?}: fixed, slack, floor, preempted, guarded, speculative, tie kept"
        );
    }
}
