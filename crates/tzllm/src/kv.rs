//! Secure paged KV-cache retention across requests and *sessions* (the
//! accounting half of the KV-cache manager).
//!
//! The paper releases the whole KV cache after every inference (§4.2), so a
//! multi-turn conversation re-prefills its entire history on every turn.
//! [`KvPool`] instead retains KV state between requests at page granularity,
//! under an explicit secure-memory budget — and, since the shared-prefix
//! refactor, it retains pages **content-addressed**: every whole page is
//! keyed by a hash chain over its token contents ([`llm::PromptContent`]),
//! so any number of sessions whose prompts open with the same tokens (a
//! product-wide system prompt, a prompt template) reference *one* secure
//! copy of the common head instead of storing and prefilling it once each.
//!
//! * A session's retained state is `[shared pages][private tail]`: whole
//!   pages live in the per-model content-addressed store with a reference
//!   count, the trailing partial page is private to the session.
//! * **One claim rule** decides what a prompt ([`KvQuery`]) gets: the
//!   leading run of its page-hash chain present in the store — whoever put
//!   it there, so a **cold first turn** hits pages other sessions produced
//!   — up to the reuse cap, plus the session's own private tail when that
//!   run ends exactly at the session's own pages, within the declared
//!   overlap.  [`KvPool::reuse_plan`] takes the claim,
//!   [`KvPool::sealed_bytes_for`] sizes its sealed parts and
//!   [`KvPool::prewarm`] unseals them ahead of dispatch, all from the same
//!   read-only walk, so restore-ahead prefetches exactly what the dispatch
//!   then reads.
//! * Copy-on-divergence is structural: the chain key of page `p` commits to
//!   all tokens of pages `0..=p`, so the first diverging token changes every
//!   subsequent key and the diverging session simply references new private
//!   pages.  One session can never observe another's private suffix — a
//!   suffix page is only reachable through a chain that reproduces its exact
//!   content.
//! * Under secure-memory pressure cold pages are always *spilled*:
//!   optionally block-quantized to INT8/INT4 ([`KvConfig::spill_format`]),
//!   then sealed (see [`tee_kernel::SharedKvStore`] for the byte-exact
//!   path over [`tz_crypto::seal()`]) and moved to normal-world CMA memory.
//!   The pool accounts **resident f16 bytes** and **spilled compressed
//!   bytes** separately: a fixed [`KvConfig::spill_budget`] holds ~1.94× the
//!   pages at INT8 and ~3.77× at INT4, and restoring a quantized page pays a
//!   dequantization pass ([`KvReuse::dequant_bytes`]) on top of the MAC +
//!   decrypt — the serving layer charges both to the decrypt lane, where
//!   they hide behind the prefill's NPU window.  Sealing a shared page seals
//!   **one copy**, not one per referencing session, and unsealing it once
//!   serves them all.
//! * A page is dropped outright only when nothing references it (the last
//!   referencing session released it, or the spill budget forces a
//!   truncation, which releases the references first).
//! * With [`KvConfig::popularity_retention`] on, spill/eviction victims are
//!   weighted by reference count before recency: a system-prompt page twenty
//!   sessions reference outlives a refs-1 private suffix under pressure,
//!   because it is worth twenty sessions' prefill per secure byte.
//! * **One byte ledger.** Pages and private tails are both *parts*, held
//!   resident or sealed, and the pool's residency counters ([`KvBalance`])
//!   change only when a part is admitted, sealed, unsealed or released.
//!   [`KvPool::recount`] recomputes them from the parts themselves, and the
//!   page references and deduped bytes from the sessions' page chains, so
//!   the byte balance and the reference counts are checked rather than
//!   assumed.
//!
//! With [`KvConfig::shared`] off, page keys are salted per session and the
//! pool degenerates to the previous per-session retention semantics.  With
//! [`KvConfig::spill_format`] at its [`SpillFormat::F16`] default every
//! compressed count equals its plain count and no dequant is ever charged —
//! quantization off is invisible.

use std::collections::{BTreeMap, BTreeSet};

use sim_core::SimTime;
use tz_quant::SpillFormat;

/// Serving-layer configuration of the KV-cache manager.
#[derive(Debug, Clone, PartialEq)]
pub struct KvConfig {
    /// Master switch: `false` reproduces the paper's release-everything
    /// behaviour (no KV state survives a request).
    pub enabled: bool,
    /// Cross-session content-addressed prefix sharing.  `false` salts every
    /// page key with its session id, which reproduces the earlier
    /// per-session retention exactly (nothing is ever deduped).
    pub shared: bool,
    /// Spill/retention page size in bytes.
    pub page_bytes: u64,
    /// Fraction of the secure-memory headroom *left over by parameter
    /// retention* that KV pages may occupy.  Parameters are senior: the KV
    /// budget only ever uses memory the parameter policy did not claim, so
    /// enabling KV reuse never shrinks the parameter cache.
    pub budget_fraction: f64,
    /// Maximum sealed bytes resident in normal-world CMA memory, counted in
    /// *compressed* (post-quantization) bytes — what the CMA actually holds.
    pub spill_budget: u64,
    /// Maximum sessions with retained KV state; the coldest beyond this are
    /// dropped entirely.
    pub max_sessions: usize,
    /// How sealed pages are encoded in spill memory.  [`SpillFormat::F16`]
    /// reproduces the unquantized behaviour exactly; INT8/INT4 stretch the
    /// spill budget 2–4× at the cost of the format's modelled quantization
    /// noise and a dequant pass on restore.
    pub spill_format: SpillFormat,
    /// Weight spill/eviction victim selection by reference count before
    /// recency, so highly shared pages (a fleet-wide system prompt) outlive
    /// single-session state under pressure.  Off reproduces pure
    /// LRU/deepest-first victim order.
    pub popularity_retention: bool,
}

impl KvConfig {
    /// KV retention off: the paper's behaviour, and the baseline the chat
    /// benchmarks compare against.
    pub fn disabled() -> Self {
        KvConfig {
            enabled: false,
            shared: true,
            page_bytes: 2 * sim_core::MIB,
            budget_fraction: 0.5,
            spill_budget: sim_core::GIB,
            max_sessions: 64,
            spill_format: SpillFormat::F16,
            popularity_retention: false,
        }
    }

    /// KV retention on with the default knobs — the chat-serving setup,
    /// cross-session prefix sharing included.
    pub fn chat_default() -> Self {
        KvConfig {
            enabled: true,
            ..Self::disabled()
        }
    }

    /// The chat setup with quantized sealed spill and popularity-weighted
    /// retention: the same secure budget, but the normal-world spill region
    /// holds `format.expansion()`× the pages and highly shared pages are the
    /// last to go.
    pub fn chat_quantized(format: SpillFormat) -> Self {
        KvConfig {
            spill_format: format,
            popularity_retention: true,
            ..Self::chat_default()
        }
    }
}

/// One prompt's question to the pool — which retained state would its
/// dispatch claim?  The same query drives [`KvPool::reuse_plan`],
/// [`KvPool::sealed_bytes_for`] and [`KvPool::prewarm`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvQuery {
    /// The requesting session.
    pub session: u64,
    /// Interned model identity.
    pub model: u32,
    /// The chain over the prompt's whole pages
    /// ([`llm::PromptContent::page_keys`] at this pool's page size for the
    /// model).
    pub page_hashes: Vec<u64>,
    /// KV bytes per token of the model.
    pub bytes_per_token: u64,
    /// Declared overlap with the session's *own* previous context: the
    /// private tail carries no verifying hash, so it is reused only up to
    /// here.
    pub shared_prefix: usize,
    /// Reuse cap, so at least one prompt token is always prefilled.
    pub max_reuse: usize,
}

/// What a dispatch gets out of the pool for one request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvReuse {
    /// Prefix tokens served from retained KV state (no prefill needed).
    pub reused_tokens: usize,
    /// *Compressed* bytes of that prefix that were sealed and must be
    /// unsealed (verified + decrypted) on the CPU decrypt lane before use.
    pub unseal_bytes: u64,
    /// f16 bytes reconstructed by dequantization after the decrypt (zero
    /// under [`SpillFormat::F16`]); charged to the same decrypt lane.
    pub dequant_bytes: u64,
    /// Of the reused tokens, how many came from shared pages this session
    /// did not itself retain — cross-session hits.
    pub shared_tokens: usize,
}

/// Cumulative byte counters of the pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvStats {
    /// Plain (f16) bytes sealed and spilled to normal-world memory (one copy
    /// per shared page, however many sessions reference it).
    pub spilled_bytes: u64,
    /// Compressed bytes those seals actually wrote to normal-world memory
    /// (equals `spilled_bytes` under [`SpillFormat::F16`]).
    pub spilled_compressed_bytes: u64,
    /// Sealed (compressed) bytes unsealed at dispatch time (on the service's
    /// CPU lane).
    pub unsealed_bytes: u64,
    /// Sealed (compressed) bytes unsealed ahead of dispatch on idle lanes.
    pub prewarmed_bytes: u64,
    /// f16 bytes reconstructed by dequantization across dispatch-time
    /// unseals and prewarms (zero under [`SpillFormat::F16`]).
    pub dequant_bytes: u64,
    /// Retained (plain) bytes dropped (budget pressure, divergence,
    /// eviction) — the tokens they held re-prefill on their next use.
    pub dropped_bytes: u64,
    /// Prefix tokens served from pages the session did not itself retain.
    pub shared_tokens: u64,
    /// Peak of `Σ (refs − 1) × page bytes` over the run: secure bytes the
    /// content-addressed store saved versus per-session copies.
    pub peak_deduped_bytes: u64,
    /// Peak number of whole pages simultaneously sealed in the spill region
    /// (sealed partial tails are not counted) — at equal `spill_budget`, a
    /// quantized format holds `expansion()`× more of these.
    pub peak_sealed_pages: u64,
    /// Peak compressed bytes simultaneously held in the spill region.
    pub peak_sealed_bytes: u64,
}

/// The pool's residency counters: what the secure region and the spill
/// region hold right now.  A *part* is one store page or one session's
/// private tail; the counters change only when a part is admitted, sealed,
/// unsealed or released.  Beside them, the store's page references and the
/// bytes their sharing saves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvBalance {
    /// Plain bytes resident in the secure region (shared pages once).
    pub resident_bytes: u64,
    /// Compressed bytes in the spill region — the CMA footprint the spill
    /// budget bounds.
    pub sealed_bytes: u64,
    /// Parts (pages and tails) in the spill region.
    pub sealed_pages: u64,
    /// References the store's pages hold: one per whole page of every
    /// session's retained chain.
    pub page_refs: u64,
    /// `Σ (refs − 1) × page bytes` over the referenced pages.
    pub deduped_bytes: u64,
}

impl KvBalance {
    /// Books a part of `plain` bytes: resident, or sealed at `format`'s
    /// compressed size.
    fn admit(&mut self, format: SpillFormat, plain: u64, sealed: bool) {
        if sealed {
            self.sealed_bytes += comp_len(format, plain);
            self.sealed_pages += 1;
        } else {
            self.resident_bytes += plain;
        }
    }

    /// Un-books a part booked by [`KvBalance::admit`].
    fn release(&mut self, format: SpillFormat, plain: u64, sealed: bool) {
        if sealed {
            self.sealed_bytes -= comp_len(format, plain);
            self.sealed_pages -= 1;
        } else {
            self.resident_bytes -= plain;
        }
    }
}

/// Per-model introspection of the content-addressed chain store: where the
/// sharing wins come from, exposed through `ServingStats` so benchmarks can
/// report it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainStoreStats {
    /// Interned model identity.
    pub model: u32,
    /// Pages in the store for this model (resident + sealed).
    pub pages: usize,
    /// Of those, resident in secure memory.
    pub resident_pages: usize,
    /// Of those, sealed out to normal-world spill.
    pub sealed_pages: usize,
    /// `(reference count, page count)` pairs, ascending by refs — the
    /// sharing histogram (refs 0 = lingering cache, refs ≥ 2 = deduped).
    pub refs_histogram: Vec<(u32, usize)>,
    /// Deepest chain position present (+1 = longest retained chain, pages).
    pub max_depth: u32,
    /// Plain bytes of the resident pages.
    pub resident_bytes: u64,
    /// Compressed bytes of the sealed pages.
    pub sealed_bytes: u64,
}

/// The identity of one whole KV page in the content-addressed store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct PageKey {
    /// Interned model identity: KV is only ever shared within one model.
    model: u32,
    /// `0` when sharing is on; `session + 1` when it is off, which makes
    /// every key private to its session.
    salt: u64,
    /// Chain hash over the page's tokens and its whole prefix
    /// ([`llm::PromptContent::page_keys`]).
    hash: u64,
}

#[derive(Debug, Clone)]
struct PageEntry {
    bytes: u64,
    /// Position in its chain (page 0 is the head); deeper pages are colder
    /// by construction and are spilled first on ties.
    depth: u32,
    /// Sessions currently referencing the page.  Zero-reference *shared*
    /// pages linger as reusable cache until budget pressure removes them;
    /// zero-reference salted pages are removed immediately.
    refs: u32,
    sealed: bool,
    last_use: SimTime,
}

#[derive(Debug, Clone)]
struct SessionKv {
    model: u32,
    bytes_per_token: u64,
    /// Chain hashes of the whole pages of this session's retained context,
    /// in order — each holds one reference in the store.
    page_hashes: Vec<u64>,
    /// Tokens past the last whole page (always `< tokens_per_page`),
    /// private to the session.
    tail_tokens: usize,
    tail_sealed: bool,
    last_use: SimTime,
}

/// One ledger part: a store page, or a session's private tail.
#[derive(Clone, Copy)]
enum Part {
    Page(PageKey),
    Tail(u64),
}

/// What a [`KvQuery`] claims, computed read-only by [`KvPool::claim`].
#[derive(Clone, Copy)]
struct Claim {
    /// The session's retained state diverges from the prompt (or belongs to
    /// another model); the dispatch drops it.
    stale: bool,
    /// Whole pages the session itself retains (zero when stale).
    own_pages: usize,
    /// Leading prompt pages claimed from the store.
    pages: usize,
    /// Private-tail tokens the dispatch keeps: those within the declared
    /// overlap when the claimed run ends exactly at the session's own
    /// pages, none when the run goes past them (the pages subsume the
    /// tail), all when the cap stops the run short of them.
    tail_keep: usize,
    /// Of those, tail tokens reused; the tail is part of the claim exactly
    /// when this is non-zero.
    tail_reuse: usize,
}

/// The per-server KV retention pool: pure accounting (tokens, bytes; time is
/// charged by the serving layer), deterministic by construction.
#[derive(Debug, Clone)]
pub struct KvPool {
    page_bytes: u64,
    shared: bool,
    spill_budget: u64,
    max_sessions: usize,
    format: SpillFormat,
    popularity: bool,
    pages: BTreeMap<PageKey, PageEntry>,
    sessions: BTreeMap<u64, SessionKv>,
    balance: KvBalance,
    /// Live `Σ (refs − 1) × bytes` over all pages.
    deduped_bytes: u64,
    /// `reuse_plan` calls by whole pages matched (the hit-depth
    /// distribution).
    hit_depth: BTreeMap<u32, u64>,
    stats: KvStats,
}

/// Compressed footprint of `plain` f16 bytes under `format`.
fn comp_len(format: SpillFormat, plain: u64) -> u64 {
    format.sealed_len(plain as usize) as u64
}

impl KvPool {
    /// An empty pool with `config`'s knobs.
    pub fn new(config: &KvConfig) -> Self {
        KvPool {
            page_bytes: config.page_bytes.max(1),
            shared: config.shared,
            spill_budget: config.spill_budget,
            max_sessions: config.max_sessions.max(1),
            format: config.spill_format,
            popularity: config.popularity_retention,
            pages: BTreeMap::new(),
            sessions: BTreeMap::new(),
            balance: KvBalance::default(),
            deduped_bytes: 0,
            hit_depth: BTreeMap::new(),
            stats: KvStats::default(),
        }
    }

    /// Bytes of KV currently resident in the secure region (shared pages
    /// counted once).
    pub fn resident_bytes(&self) -> u64 {
        self.balance.resident_bytes
    }

    /// Compressed bytes currently sealed in normal-world memory — the CMA
    /// footprint the spill budget bounds.
    pub fn sealed_bytes(&self) -> u64 {
        self.balance.sealed_bytes
    }

    /// Sealed pages/tails currently in the spill region.
    pub fn sealed_pages(&self) -> u64 {
        self.balance.sealed_pages
    }

    /// The running residency counters, with the references the store's
    /// pages count and the running deduped bytes.
    pub fn balance(&self) -> KvBalance {
        KvBalance {
            page_refs: self.pages.values().map(|e| u64::from(e.refs)).sum(),
            deduped_bytes: self.deduped_bytes,
            ..self.balance
        }
    }

    /// The residency counters recomputed from the pages and private tails
    /// themselves, and the references and deduped bytes from the sessions'
    /// page chains (each chain entry holds one reference): an audit compares
    /// this with [`KvPool::balance`], so a leaked or dangling reference
    /// shows.
    pub fn recount(&self) -> KvBalance {
        let pages = self.pages.values().map(|e| (e.bytes, e.sealed));
        let tails = self
            .sessions
            .values()
            .filter(|kv| kv.tail_tokens > 0)
            .map(|kv| (kv.tail_tokens as u64 * kv.bytes_per_token, kv.tail_sealed));
        let mut balance = KvBalance::default();
        for (plain, sealed) in pages.chain(tails) {
            balance.admit(self.format, plain, sealed);
        }
        let mut refs: BTreeMap<PageKey, u64> = BTreeMap::new();
        for (&session, kv) in &self.sessions {
            for &hash in &kv.page_hashes {
                *refs.entry(self.key(session, kv.model, hash)).or_default() += 1;
            }
        }
        for (key, n) in refs {
            balance.page_refs += n;
            balance.deduped_bytes += (n - 1) * self.pages.get(&key).map_or(0, |e| e.bytes);
        }
        balance
    }

    /// The spill encoding this pool seals evicted pages with.
    pub fn spill_format(&self) -> SpillFormat {
        self.format
    }

    /// Sessions with retained state.
    pub fn sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Whether `session` has any retained state.
    pub fn has_session(&self, session: u64) -> bool {
        self.sessions.contains_key(&session)
    }

    /// Secure bytes the store is currently saving versus per-session copies:
    /// `Σ (refs − 1) × page bytes`.
    pub fn deduped_bytes(&self) -> u64 {
        self.deduped_bytes
    }

    /// Cumulative counters.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// Per-model snapshot of the content-addressed chain store: page counts,
    /// residency split, the refs histogram and the deepest chain — where the
    /// sharing wins come from.  Salted (sharing-off) pages report under
    /// their model too, with refs ≤ 1 by construction.
    pub fn chain_stats(&self) -> Vec<ChainStoreStats> {
        let mut out: Vec<ChainStoreStats> = Vec::new();
        for (key, entry) in &self.pages {
            let stats = match out.iter_mut().find(|s| s.model == key.model) {
                Some(s) => s,
                None => {
                    out.push(ChainStoreStats {
                        model: key.model,
                        pages: 0,
                        resident_pages: 0,
                        sealed_pages: 0,
                        refs_histogram: Vec::new(),
                        max_depth: 0,
                        resident_bytes: 0,
                        sealed_bytes: 0,
                    });
                    out.last_mut().expect("just pushed")
                }
            };
            stats.pages += 1;
            if entry.sealed {
                stats.sealed_pages += 1;
                stats.sealed_bytes += comp_len(self.format, entry.bytes);
            } else {
                stats.resident_pages += 1;
                stats.resident_bytes += entry.bytes;
            }
            stats.max_depth = stats.max_depth.max(entry.depth + 1);
            match stats
                .refs_histogram
                .binary_search_by_key(&entry.refs, |&(r, _)| r)
            {
                Ok(i) => stats.refs_histogram[i].1 += 1,
                Err(i) => stats.refs_histogram.insert(i, (entry.refs, 1)),
            }
        }
        out
    }

    /// The hit-depth distribution: for each whole-page chain depth, how many
    /// dispatches matched exactly that many leading pages in the store
    /// (depth 0 = full miss).  Ascending by depth.
    pub fn hit_depth_histogram(&self) -> Vec<(u32, u64)> {
        self.hit_depth.iter().map(|(&d, &n)| (d, n)).collect()
    }

    /// Whole tokens per page for a model storing `bytes_per_token`.
    pub fn page_tokens(&self, bytes_per_token: u64) -> usize {
        (self.page_bytes / bytes_per_token.max(1)).max(1) as usize
    }

    fn key(&self, session: u64, model: u32, hash: u64) -> PageKey {
        PageKey {
            model,
            salt: if self.shared { 0 } else { session + 1 },
            hash,
        }
    }

    fn note_dedup(&mut self) {
        self.stats.peak_deduped_bytes = self.stats.peak_deduped_bytes.max(self.deduped_bytes);
    }

    /// Moves a resident part of `plain` bytes into the spill region.
    fn seal(&mut self, plain: u64) {
        self.balance.release(self.format, plain, false);
        self.balance.admit(self.format, plain, true);
        self.stats.spilled_bytes += plain;
        self.stats.spilled_compressed_bytes += comp_len(self.format, plain);
    }

    /// Moves a sealed part of `plain` bytes back into the secure region.
    fn unseal(&mut self, plain: u64) {
        self.balance.release(self.format, plain, true);
        self.balance.admit(self.format, plain, false);
        if self.format.is_quantized() {
            self.stats.dequant_bytes += plain;
        }
    }

    /// Creates (resident) or references an existing store page.
    fn ref_page(&mut self, key: PageKey, bytes: u64, depth: u32, now: SimTime) {
        match self.pages.get_mut(&key) {
            Some(entry) => {
                debug_assert_eq!(entry.depth, depth, "equal chains have equal depth");
                entry.refs += 1;
                entry.last_use = now;
                // `deduped_bytes` is Σ (refs − 1) × bytes: re-referencing a
                // zero-ref lingering cache page (0 → 1) saves nothing yet.
                if entry.refs > 1 {
                    self.deduped_bytes += entry.bytes;
                }
            }
            None => {
                self.pages.insert(
                    key,
                    PageEntry {
                        bytes,
                        depth,
                        refs: 1,
                        sealed: false,
                        last_use: now,
                    },
                );
                self.balance.admit(self.format, bytes, false);
            }
        }
        self.note_dedup();
    }

    /// Releases one reference.  A zero-reference salted page is removed on
    /// the spot (nothing can ever match it again); a zero-reference shared
    /// page stays as reusable cache until budget pressure removes it.
    fn deref_page(&mut self, key: PageKey) {
        let Some(entry) = self.pages.get_mut(&key) else {
            return;
        };
        debug_assert!(entry.refs > 0);
        entry.refs -= 1;
        if entry.refs > 0 {
            self.deduped_bytes -= entry.bytes;
            return;
        }
        if key.salt != 0 {
            self.remove_page(key);
        }
    }

    /// Removes a page from the store outright, whatever its state.
    fn remove_page(&mut self, key: PageKey) {
        let Some(entry) = self.pages.remove(&key) else {
            return;
        };
        debug_assert_eq!(entry.refs, 0, "only unreferenced pages are removed");
        self.balance.release(self.format, entry.bytes, entry.sealed);
        self.stats.dropped_bytes += entry.bytes;
    }

    /// Cuts `session`'s private tail to its first `keep` tokens (a sealed
    /// tail stays sealed), counting the cut tokens as dropped.
    fn cut_tail(&mut self, session: u64, keep: usize) {
        let Some(kv) = self.sessions.get_mut(&session) else {
            return;
        };
        if keep >= kv.tail_tokens {
            return;
        }
        let (bpt, old, sealed) = (kv.bytes_per_token, kv.tail_tokens, kv.tail_sealed);
        kv.tail_tokens = keep;
        kv.tail_sealed = sealed && keep > 0;
        self.balance.release(self.format, old as u64 * bpt, sealed);
        if keep > 0 {
            self.balance.admit(self.format, keep as u64 * bpt, sealed);
        }
        self.stats.dropped_bytes += (old - keep) as u64 * bpt;
    }

    /// Truncates `session`'s retained pages at chain position `pos`
    /// (dereferencing every deeper page) and drops its tail.
    fn truncate_session(&mut self, session: u64, pos: usize) {
        self.cut_tail(session, 0);
        let Some(kv) = self.sessions.get_mut(&session) else {
            return;
        };
        let model = kv.model;
        let removed: Vec<u64> = kv.page_hashes.split_off(pos);
        if kv.page_hashes.is_empty() {
            self.sessions.remove(&session);
        }
        for hash in removed {
            let key = self.key(session, model, hash);
            self.deref_page(key);
        }
    }

    /// Drops every trace of `session` (its references and private tail).
    fn drop_session(&mut self, session: u64) {
        self.truncate_session(session, 0);
    }

    /// The one claim rule: what a dispatch of `q` would take, computed
    /// without changing the pool.  The claim is the longest leading run of
    /// the prompt's chain present in the store, up to `max_reuse` whole
    /// pages, plus the session's private tail when that run ends exactly
    /// where the session's own pages do, up to the declared overlap and the
    /// cap.  A session whose state no longer matches the prompt is stale:
    /// the dispatch drops it first, and since a salted page dies with its
    /// last reference, only shared pages outlive it.
    fn claim(&self, q: &KvQuery) -> Claim {
        let bytes_per_token = q.bytes_per_token.max(1);
        let pt = self.page_tokens(bytes_per_token);
        let session = self.sessions.get(&q.session);
        let stale = session.is_some_and(|kv| {
            kv.model != q.model
                || kv.bytes_per_token != bytes_per_token
                || !q.page_hashes.starts_with(&kv.page_hashes)
        });
        let own = session.filter(|_| !stale);
        let own_pages = own.map_or(0, |kv| kv.page_hashes.len());
        let max_pages = if stale && !self.shared {
            0
        } else {
            (q.max_reuse / pt).min(q.page_hashes.len())
        };
        let pages = q.page_hashes[..max_pages]
            .iter()
            .take_while(|&&hash| self.pages.contains_key(&self.key(q.session, q.model, hash)))
            .count();
        let (tail_keep, tail_reuse) = match own {
            Some(kv) if pages == own_pages => {
                let offset = own_pages * pt;
                let keep = kv.tail_tokens.min(q.shared_prefix.saturating_sub(offset));
                (keep, keep.min(q.max_reuse.saturating_sub(offset)))
            }
            Some(kv) if pages < own_pages => (kv.tail_tokens, 0),
            _ => (0, 0),
        };
        Claim {
            stale,
            own_pages,
            pages,
            tail_keep,
            tail_reuse,
        }
    }

    /// The claim's sealed parts in unseal order — leading pages first, then
    /// the private tail — with their plain bytes.
    fn sealed_parts<'a>(
        &'a self,
        q: &'a KvQuery,
        claim: Claim,
    ) -> impl Iterator<Item = (Part, u64)> + 'a {
        let pages = q.page_hashes[..claim.pages]
            .iter()
            .filter_map(move |&hash| {
                let key = self.key(q.session, q.model, hash);
                let entry = &self.pages[&key];
                entry.sealed.then_some((Part::Page(key), entry.bytes))
            });
        let tail = self
            .sessions
            .get(&q.session)
            .filter(|kv| claim.tail_reuse > 0 && kv.tail_sealed)
            .map(|kv| {
                let plain = claim.tail_keep as u64 * kv.bytes_per_token;
                (Part::Tail(q.session), plain)
            });
        pages.chain(tail)
    }

    /// Unseals the claim's sealed parts in order while their compressed
    /// bytes fit `budget`, stopping at the first that does not.  Returns the
    /// compressed bytes unsealed and the f16 bytes they restore.
    fn unseal_claim(&mut self, q: &KvQuery, claim: Claim, budget: u64, now: SimTime) -> (u64, u64) {
        let (mut comp, mut plain) = (0u64, 0u64);
        let parts: Vec<(Part, u64)> = self.sealed_parts(q, claim).collect();
        for (part, bytes) in parts {
            let part_comp = comp_len(self.format, bytes);
            if comp + part_comp > budget {
                break;
            }
            match part {
                Part::Page(key) => {
                    let entry = self.pages.get_mut(&key).expect("claimed pages exist");
                    entry.sealed = false;
                    entry.last_use = now;
                }
                Part::Tail(session) => {
                    // Tokens past the declared overlap are never unsealed.
                    self.cut_tail(session, claim.tail_keep);
                    let kv = self
                        .sessions
                        .get_mut(&session)
                        .expect("claimed tail exists");
                    kv.tail_sealed = false;
                }
            }
            self.unseal(bytes);
            comp += part_comp;
            plain += bytes;
        }
        (comp, plain)
    }

    /// Claims the reusable prefix for a dispatch of `q` under the one claim
    /// rule (see the [module docs](self)): a session whose retained state
    /// diverges from the prompt is dropped, the claimed pages and tail are
    /// unsealed where sealed — the serving layer charges the decrypt-lane
    /// time for them — and referenced, and tail tokens outside the claim
    /// are dropped.
    pub fn reuse_plan(&mut self, q: &KvQuery, now: SimTime) -> KvReuse {
        let claim = self.claim(q);
        let bytes_per_token = q.bytes_per_token.max(1);
        let pt = self.page_tokens(bytes_per_token);
        if claim.stale {
            self.drop_session(q.session);
        }
        self.cut_tail(q.session, claim.tail_keep);
        let (unseal_bytes, plain) = self.unseal_claim(q, claim, u64::MAX, now);
        self.stats.unsealed_bytes += unseal_bytes;
        // The hit-depth distribution records every dispatch, misses included.
        *self.hit_depth.entry(claim.pages as u32).or_insert(0) += 1;

        // Touch the session's own pages; reference the newly claimed ones.
        for (i, &hash) in q.page_hashes[..claim.pages].iter().enumerate() {
            let key = self.key(q.session, q.model, hash);
            if i < claim.own_pages {
                self.pages
                    .get_mut(&key)
                    .expect("claimed pages exist")
                    .last_use = now;
            } else {
                self.ref_page(key, pt as u64 * bytes_per_token, i as u32, now);
            }
        }
        if claim.pages > claim.own_pages {
            let kv = self.sessions.entry(q.session).or_insert_with(|| SessionKv {
                model: q.model,
                bytes_per_token,
                page_hashes: Vec::new(),
                tail_tokens: 0,
                tail_sealed: false,
                last_use: now,
            });
            kv.page_hashes = q.page_hashes[..claim.pages].to_vec();
        }
        if let Some(kv) = self.sessions.get_mut(&q.session) {
            kv.last_use = now;
        }
        let shared_tokens = claim.pages.saturating_sub(claim.own_pages) * pt;
        self.stats.shared_tokens += shared_tokens as u64;

        KvReuse {
            reused_tokens: claim.pages * pt + claim.tail_reuse,
            unseal_bytes,
            dequant_bytes: if self.format.is_quantized() { plain } else { 0 },
            shared_tokens,
        }
    }

    /// Records the completed request's KV state: the session now retains the
    /// full context (`total_tokens` = prompt + generated), whose whole pages
    /// hash to `page_hashes`.  Whole pages land in the content-addressed
    /// store (referencing an existing copy when another session already
    /// produced the same content); the partial last page stays private.
    pub fn on_complete(
        &mut self,
        session: u64,
        model: u32,
        page_hashes: &[u64],
        total_tokens: usize,
        bytes_per_token: u64,
        now: SimTime,
    ) {
        let bytes_per_token = bytes_per_token.max(1);
        let pt = self.page_tokens(bytes_per_token);
        let full_pages = (total_tokens / pt).min(page_hashes.len());
        let tail_tokens = total_tokens.saturating_sub(full_pages * pt);

        // Replace (not "drop") any previous accounting: the old prefix is
        // subsumed by the completed request's full KV, not lost.
        let old = self.sessions.remove(&session);
        let mut common = 0usize;
        if let Some(old) = &old {
            if old.model == model && old.bytes_per_token == bytes_per_token {
                common = old
                    .page_hashes
                    .iter()
                    .zip(page_hashes)
                    .take_while(|(a, b)| a == b)
                    .count()
                    .min(full_pages);
            }
            if old.tail_tokens > 0 {
                let plain = old.tail_tokens as u64 * old.bytes_per_token;
                self.balance.release(self.format, plain, old.tail_sealed);
            }
        }
        // Reference the new pages first, then release the old ones, so a
        // page in both sets never transits through zero references.
        for (i, &hash) in page_hashes.iter().enumerate().take(full_pages).skip(common) {
            let key = self.key(session, model, hash);
            self.ref_page(key, pt as u64 * bytes_per_token, i as u32, now);
        }
        for &hash in page_hashes.iter().take(common) {
            let key = self.key(session, model, hash);
            if let Some(entry) = self.pages.get_mut(&key) {
                entry.last_use = now;
            }
        }
        if let Some(old) = &old {
            for &hash in &old.page_hashes[common..] {
                let key = self.key(session, old.model, hash);
                self.deref_page(key);
            }
        }
        self.balance
            .admit(self.format, tail_tokens as u64 * bytes_per_token, false);
        self.sessions.insert(
            session,
            SessionKv {
                model,
                bytes_per_token,
                page_hashes: page_hashes[..full_pages].to_vec(),
                tail_tokens,
                tail_sealed: false,
                last_use: now,
            },
        );
        self.note_dedup();
    }

    /// Sealed *compressed* bytes a dispatch of `q` would unseal — what
    /// restore-ahead could unseal on idle lanes before the queued request
    /// dispatches.  Exactly [`KvReuse::unseal_bytes`] of a
    /// [`KvPool::reuse_plan`] on the same pool.
    pub fn sealed_bytes_for(&self, q: &KvQuery) -> u64 {
        self.sealed_parts(q, self.claim(q))
            .map(|(_, plain)| comp_len(self.format, plain))
            .sum()
    }

    /// Unseals up to `budget_bytes` *compressed* bytes of the sealed state a
    /// dispatch of `q` would claim (restore-ahead on idle lanes), in claim
    /// order and stopping at the first part that does not fit, returning
    /// the compressed bytes actually credited.  The budget is in compressed
    /// bytes because that is what the decrypt lane streams; the serving
    /// layer derates its crediting rate by the dequant cost per compressed
    /// byte.
    pub fn prewarm(&mut self, q: &KvQuery, budget_bytes: u64, now: SimTime) -> u64 {
        let claim = self.claim(q);
        let (credited, _) = self.unseal_claim(q, claim, budget_bytes, now);
        self.stats.prewarmed_bytes += credited;
        credited
    }

    /// The set of store pages pinned by in-flight sessions.
    fn pinned_pages(&self, active: &BTreeSet<u64>) -> BTreeSet<PageKey> {
        let mut pinned = BTreeSet::new();
        for &session in active {
            if let Some(kv) = self.sessions.get(&session) {
                for &hash in &kv.page_hashes {
                    pinned.insert(self.key(session, kv.model, hash));
                }
            }
        }
        pinned
    }

    /// Enforces the secure and spill budgets: seals the coldest unpinned
    /// pages and tails until resident KV fits under `secure_budget`, trims
    /// the sealed area to its budget, then evicts sessions beyond the cap.
    /// Sessions in `active` (requests in flight) and their pages are never
    /// victims.  Victim order is LRU, deepest chain position first on ties,
    /// so retained prefixes shrink from the tail and never get holes.
    pub fn enforce(&mut self, secure_budget: u64, active: &BTreeSet<u64>) {
        let pinned = self.pinned_pages(active);

        // Resident pressure: seal the worst victim.  With popularity
        // retention on, reference count leads the rank: a page twenty
        // sessions share is the last to leave secure memory, because each
        // secure byte it occupies saves twenty sessions' prefill.  A private
        // tail counts as one reference.
        while self.balance.resident_bytes > secure_budget {
            let popularity = self.popularity;
            let weight = |refs: u32| if popularity { refs } else { 0 };
            let mut best: Option<((u32, SimTime, u32), Part)> = None;
            for (&key, entry) in &self.pages {
                if entry.sealed || pinned.contains(&key) {
                    continue;
                }
                let rank = (weight(entry.refs), entry.last_use, u32::MAX - entry.depth);
                if best.as_ref().is_none_or(|(r, _)| rank < *r) {
                    best = Some((rank, Part::Page(key)));
                }
            }
            for (&session, kv) in &self.sessions {
                if active.contains(&session) || kv.tail_tokens == 0 || kv.tail_sealed {
                    continue;
                }
                let rank = (
                    weight(1),
                    kv.last_use,
                    u32::MAX - kv.page_hashes.len() as u32,
                );
                if best.as_ref().is_none_or(|(r, _)| rank < *r) {
                    best = Some((rank, Part::Tail(session)));
                }
            }
            let plain = match best {
                Some((_, Part::Page(key))) => {
                    let entry = self.pages.get_mut(&key).expect("victim exists");
                    entry.sealed = true;
                    entry.bytes
                }
                Some((_, Part::Tail(session))) => {
                    let kv = self.sessions.get_mut(&session).expect("victim exists");
                    kv.tail_sealed = true;
                    kv.tail_tokens as u64 * kv.bytes_per_token
                }
                None => break, // everything resident is pinned
            };
            self.seal(plain);
        }

        // Spill pressure: drop unreferenced sealed cache first, then sealed
        // tails, then (last resort) truncate sessions off a sealed page.
        while self.balance.sealed_bytes > self.spill_budget {
            let unreferenced = self
                .pages
                .iter()
                .filter(|(_, e)| e.sealed && e.refs == 0)
                .min_by_key(|(&k, e)| ((e.last_use, u32::MAX - e.depth), k))
                .map(|(&k, _)| k);
            if let Some(key) = unreferenced {
                self.remove_page(key);
                continue;
            }
            let tail = self
                .sessions
                .iter()
                .filter(|(s, kv)| !active.contains(s) && kv.tail_sealed && kv.tail_tokens > 0)
                .min_by_key(|(&s, kv)| (kv.last_use, s))
                .map(|(&s, kv)| (s, kv.page_hashes.len()));
            if let Some((session, pages)) = tail {
                self.truncate_session(session, pages);
                continue;
            }
            let popularity = self.popularity;
            let referenced = self
                .pages
                .iter()
                .filter(|(k, e)| e.sealed && !pinned.contains(k))
                .min_by_key(|(&k, e)| {
                    let refs = if popularity { e.refs } else { 0 };
                    ((refs, e.last_use, u32::MAX - e.depth), k)
                })
                .map(|(&k, _)| k);
            match referenced {
                Some(key) => self.evict_page(key),
                None => break, // everything sealed is pinned
            }
        }

        while self.sessions.len() > self.max_sessions {
            let victim = self
                .sessions
                .iter()
                .filter(|(s, _)| !active.contains(s))
                .min_by_key(|(&s, kv)| (kv.last_use, s))
                .map(|(&s, _)| s);
            match victim {
                Some(session) => self.drop_session(session),
                None => break,
            }
        }

        // Steady-state spill occupancy, sampled after trimming: at equal
        // budget a quantized format peaks `expansion()`× higher page counts.
        // Sealed tails are partial pages, so the page peak leaves them out.
        let sealed_tails = self
            .sessions
            .values()
            .filter(|kv| kv.tail_sealed && kv.tail_tokens > 0)
            .count() as u64;
        self.stats.peak_sealed_pages = self
            .stats
            .peak_sealed_pages
            .max(self.balance.sealed_pages - sealed_tails);
        self.stats.peak_sealed_bytes = self.stats.peak_sealed_bytes.max(self.balance.sealed_bytes);
    }

    /// Drops a store page outright: releases it from every referencing
    /// session first (truncating their retained prefix at that chain
    /// position — a page is only droppable once its last reference is
    /// gone), then removes it.
    fn evict_page(&mut self, key: PageKey) {
        let holders: Vec<(u64, usize)> = self
            .sessions
            .iter()
            .filter(|(&s, kv)| kv.model == key.model && self.key(s, kv.model, 0).salt == key.salt)
            .filter_map(|(&s, kv)| {
                kv.page_hashes
                    .iter()
                    .position(|&h| h == key.hash)
                    .map(|pos| (s, pos))
            })
            .collect();
        for (session, pos) in holders {
            self.truncate_session(session, pos);
        }
        // Truncation released the references (a salted page is removed by
        // the last deref); a shared page may remain at zero references.
        if self.pages.contains_key(&key) {
            self.remove_page(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm::PromptContent;

    const BPT: u64 = 1024; // bytes per token, for round numbers
    const PT: usize = 16; // tokens per page under the test configs
    const ANY: usize = usize::MAX; // no overlap or cap limit

    fn config(shared: bool) -> KvConfig {
        KvConfig {
            enabled: true,
            shared,
            page_bytes: PT as u64 * BPT,
            budget_fraction: 1.0,
            spill_budget: 1 << 40,
            max_sessions: 8,
            spill_format: SpillFormat::F16,
            popularity_retention: false,
        }
    }

    fn pool() -> KvPool {
        KvPool::new(&config(true))
    }

    /// A query of `session`'s prompt chain `h` with declared overlap
    /// `shared_prefix` and reuse cap `max_reuse`.
    fn q(session: u64, model: u32, h: &[u64], shared_prefix: usize, max_reuse: usize) -> KvQuery {
        KvQuery {
            session,
            model,
            page_hashes: h.to_vec(),
            bytes_per_token: BPT,
            shared_prefix,
            max_reuse,
        }
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// The page-hash chain of a single-seed stream of `tokens` tokens.
    fn hashes(seed: u64, tokens: usize) -> Vec<u64> {
        PromptContent::from_seed(seed, tokens).page_keys(PT)
    }

    #[test]
    fn retain_and_reuse_full_prefix() {
        let mut p = pool();
        let h = hashes(1, 100);
        p.on_complete(1, 0, &h, 100, BPT, t(0));
        assert_eq!(p.resident_bytes(), 100 * BPT);
        let reuse = p.reuse_plan(&q(1, 0, &h, 100, 139), t(1));
        assert_eq!(reuse.reused_tokens, 100);
        assert_eq!(reuse.unseal_bytes, 0);
        assert_eq!(reuse.shared_tokens, 0, "own state is not a shared hit");
    }

    #[test]
    fn reuse_is_capped_and_model_checked() {
        let mut p = pool();
        let h = hashes(1, 100);
        p.on_complete(1, 0, &h, 100, BPT, t(0));
        // max_reuse caps (at least one token must prefill): 6 whole pages
        // (96 tokens) plus 3 of the 4 tail tokens.
        let reuse = p.reuse_plan(&q(1, 0, &h, 100, 99), t(1));
        assert_eq!(reuse.reused_tokens, 99);

        let h2 = hashes(2, 50);
        p.on_complete(2, 0, &h2, 50, BPT, t(0));
        // Different model: state dropped, nothing reused.
        let reuse = p.reuse_plan(&q(2, 1, &h2, 50, 49), t(1));
        assert_eq!(reuse.reused_tokens, 0);
        assert!(!p.has_session(2));
    }

    #[test]
    fn conversation_reset_drops_state() {
        let mut p = pool();
        p.on_complete(1, 0, &hashes(7, 80), 80, BPT, t(0));
        // A reset conversation has entirely new content: the chain diverges
        // at page zero, nothing is reused, and the session's references are
        // released.  The now-unreferenced shared pages linger as reusable
        // cache until budget pressure removes them.
        let fresh = hashes(8, 80);
        let reuse = p.reuse_plan(&q(1, 0, &fresh, 0, 200), t(1));
        assert_eq!(reuse, KvReuse::default());
        assert!(!p.has_session(1));
        assert_eq!(p.resident_bytes(), 80 * BPT, "pages linger as cache");
        // Pressure with no spill room removes the unreferenced cache
        // outright.
        let mut np = KvPool::new(&KvConfig {
            spill_budget: 0,
            ..config(true)
        });
        np.on_complete(1, 0, &hashes(7, 80), 80, BPT, t(0));
        np.reuse_plan(&q(1, 0, &fresh, 0, 200), t(1));
        np.enforce(0, &BTreeSet::new());
        assert_eq!(np.resident_bytes(), 0);
        assert_eq!(np.sealed_bytes(), 0);
        assert_eq!(np.stats().dropped_bytes, 80 * BPT);
    }

    #[test]
    fn budget_pressure_spills_coldest_tail_pages() {
        let mut p = pool();
        let h1 = hashes(1, 64);
        let h2 = hashes(2, 64);
        p.on_complete(1, 0, &h1, 64, BPT, t(0)); // cold
        p.on_complete(2, 0, &h2, 64, BPT, t(10)); // warm
        let active = BTreeSet::new();
        p.enforce(96 * BPT, &active);
        assert_eq!(p.resident_bytes(), 96 * BPT);
        assert_eq!(p.sealed_bytes(), 32 * BPT);
        // Session 1 (colder) lost its two deepest 16-token pages.
        assert_eq!(p.sealed_bytes_for(&q(1, 0, &h1, ANY, ANY)), 32 * BPT);
        assert_eq!(p.sealed_bytes_for(&q(2, 0, &h2, ANY, ANY)), 0);
        assert_eq!(p.stats().spilled_bytes, 32 * BPT);

        // Reusing the full prefix pays unseal only for the sealed part.
        let reuse = p.reuse_plan(&q(1, 0, &h1, 64, 1000), t(12));
        assert_eq!(reuse.reused_tokens, 64);
        assert_eq!(reuse.unseal_bytes, 32 * BPT);
    }

    #[test]
    fn active_sessions_are_never_victims() {
        let mut p = pool();
        let h1 = hashes(1, 64);
        let h2 = hashes(2, 64);
        p.on_complete(1, 0, &h1, 64, BPT, t(0));
        p.on_complete(2, 0, &h2, 64, BPT, t(10));
        let active: BTreeSet<u64> = [1u64].into_iter().collect();
        p.enforce(0, &active);
        // Session 2 spilled fully; session 1 (active) untouched.
        assert_eq!(p.resident_bytes(), 64 * BPT);
        assert_eq!(p.sealed_bytes_for(&q(2, 0, &h2, ANY, ANY)), 64 * BPT);
        assert_eq!(p.sealed_bytes_for(&q(1, 0, &h1, ANY, ANY)), 0);
    }

    #[test]
    fn spill_budget_drops_sealed_tails() {
        let mut p = KvPool::new(&KvConfig {
            spill_budget: 16 * BPT,
            ..config(true)
        });
        let h = hashes(5, 64);
        p.on_complete(1, 0, &h, 64, BPT, t(0));
        p.enforce(16 * BPT, &BTreeSet::new());
        assert_eq!(p.resident_bytes(), 16 * BPT);
        assert_eq!(p.sealed_bytes(), 16 * BPT, "spill area capped");
        assert_eq!(p.stats().dropped_bytes, 32 * BPT);
    }

    #[test]
    fn sealed_page_peak_counts_whole_pages_only() {
        // Four whole 16-token pages plus an 8-token tail, all sealed under a
        // spill budget that holds exactly that much.
        let mut p = KvPool::new(&KvConfig {
            spill_budget: 72 * BPT,
            ..config(true)
        });
        p.on_complete(1, 0, &hashes(9, 72), 72, BPT, t(0));
        p.enforce(0, &BTreeSet::new());
        assert_eq!(p.resident_bytes(), 0);
        assert_eq!(
            p.sealed_bytes(),
            72 * BPT,
            "the tail's bytes are sealed too"
        );
        assert_eq!(p.sealed_pages(), 5, "four pages and the tail");
        assert_eq!(p.stats().peak_sealed_pages, 4);
        assert_eq!(p.stats().peak_sealed_bytes, 72 * BPT);
    }

    #[test]
    fn prewarm_moves_sealed_to_resident() {
        let mut p = pool();
        let h = hashes(6, 64);
        p.on_complete(1, 0, &h, 64, BPT, t(0));
        p.enforce(16 * BPT, &BTreeSet::new());
        assert_eq!(p.sealed_bytes_for(&q(1, 0, &h, ANY, ANY)), 48 * BPT);
        // A 20-token budget unseals one whole 16-token page (pages unseal
        // whole or not at all).
        let credited = p.prewarm(&q(1, 0, &h, ANY, ANY), 20 * BPT, t(2));
        assert_eq!(credited, 16 * BPT);
        assert_eq!(p.sealed_bytes_for(&q(1, 0, &h, ANY, ANY)), 32 * BPT);
        assert_eq!(p.stats().prewarmed_bytes, 16 * BPT);
        // Prewarming more than remains credits only what exists.
        assert_eq!(p.prewarm(&q(1, 0, &h, ANY, ANY), 1 << 40, t(3)), 32 * BPT);
        assert_eq!(p.sealed_bytes_for(&q(1, 0, &h, ANY, ANY)), 0);
    }

    #[test]
    fn session_cap_evicts_coldest() {
        let mut p = KvPool::new(&KvConfig {
            max_sessions: 2,
            ..config(true)
        });
        let streams: Vec<Vec<u64>> = (0..3).map(|s| hashes(100 + s, 10)).collect();
        for (s, h) in streams.iter().enumerate() {
            p.on_complete(s as u64, 0, h, 10, BPT, t(s as u64));
        }
        p.enforce(1 << 40, &BTreeSet::new());
        assert_eq!(p.sessions(), 2);
        assert_eq!(
            p.reuse_plan(&q(0, 0, &streams[0], 10, 9), t(11))
                .reused_tokens,
            0
        );
        assert_eq!(
            p.reuse_plan(&q(2, 0, &streams[2], 10, 9), t(11))
                .reused_tokens,
            9
        );
    }

    // ---- content-addressed sharing ----

    #[test]
    fn shared_head_is_stored_once_and_hits_cold_sessions() {
        let mut p = pool();
        let head = PromptContent::from_seed(42, 64); // 4 whole pages
        let a = head.extended(1, 40);
        let b = head.extended(2, 40);
        p.on_complete(1, 0, &a.page_keys(PT), 104, BPT, t(0));
        // Session 1 alone: 104 tokens resident, nothing deduped.
        assert_eq!(p.resident_bytes(), 104 * BPT);
        assert_eq!(p.deduped_bytes(), 0);

        // A brand-new session whose prompt opens with the same head reuses
        // it without ever having completed a request — a cold-turn hit.
        let reuse = p.reuse_plan(&q(2, 0, &b.page_keys(PT), 0, 103), t(1));
        assert_eq!(reuse.reused_tokens, 64);
        assert_eq!(reuse.shared_tokens, 64);
        assert_eq!(reuse.unseal_bytes, 0);
        // The head is still stored once; session 2 merely references it.
        assert_eq!(p.resident_bytes(), 104 * BPT);
        assert_eq!(p.deduped_bytes(), 64 * BPT);

        p.on_complete(2, 0, &b.page_keys(PT), 104, BPT, t(2));
        // Both sessions retain 104 tokens; the 64-token head is deduped.
        assert_eq!(p.resident_bytes(), (104 + 40) * BPT);
        assert_eq!(p.deduped_bytes(), 64 * BPT);
        assert_eq!(p.stats().peak_deduped_bytes, 64 * BPT);
    }

    #[test]
    fn divergent_suffixes_stay_private() {
        let mut p = pool();
        let head = PromptContent::from_seed(9, 32);
        let a = head.extended(1, 64);
        let b = head.extended(2, 16); // diverges after the head
        p.on_complete(1, 0, &a.page_keys(PT), 96, BPT, t(0));
        // B matches only the head — A's private suffix is unreachable even
        // though it is resident, because B's chain cannot name it.
        let reuse = p.reuse_plan(&q(2, 0, &b.page_keys(PT), 0, 47), t(1));
        assert_eq!(reuse.reused_tokens, 32, "only the common head is shared");
        assert_eq!(reuse.shared_tokens, 32);
    }

    #[test]
    fn sealing_a_shared_page_seals_one_copy() {
        let mut p = pool();
        let head = PromptContent::from_seed(4, 64);
        let a = head.extended(1, 8);
        let b = head.extended(2, 8);
        p.on_complete(1, 0, &a.page_keys(PT), 72, BPT, t(0));
        p.on_complete(2, 0, &b.page_keys(PT), 72, BPT, t(1));
        assert_eq!(p.resident_bytes(), (72 + 8) * BPT);
        // Squeeze everything out: the shared head spills once (64 tokens),
        // the two private tails spill separately.
        p.enforce(0, &BTreeSet::new());
        assert_eq!(p.resident_bytes(), 0);
        assert_eq!(p.sealed_bytes(), 80 * BPT);
        assert_eq!(
            p.stats().spilled_bytes,
            80 * BPT,
            "the shared head sealed one copy, not one per session"
        );
        // One session unseals the head; the other then finds it resident.
        let ra = p.reuse_plan(&q(1, 0, &a.page_keys(PT), 72, 71), t(3));
        assert_eq!(ra.unseal_bytes, 72 * BPT);
        let rb = p.reuse_plan(&q(2, 0, &b.page_keys(PT), 72, 71), t(4));
        assert_eq!(rb.reused_tokens, 71);
        assert_eq!(rb.unseal_bytes, 8 * BPT, "the shared head is already back");
    }

    #[test]
    fn unreferenced_shared_pages_linger_until_pressure() {
        let mut p = KvPool::new(&KvConfig {
            max_sessions: 1,
            ..config(true)
        });
        let a = PromptContent::from_seed(1, 64);
        p.on_complete(1, 0, &a.page_keys(PT), 64, BPT, t(0));
        let b = hashes(2, 16);
        p.on_complete(2, 0, &b, 16, BPT, t(1));
        p.enforce(1 << 40, &BTreeSet::new());
        assert_eq!(p.sessions(), 1, "session cap evicted the coldest");
        // Session 1 is gone but its shared pages linger as cache: a new
        // session with the same content still hits them.
        let reuse = p.reuse_plan(&q(3, 0, &a.page_keys(PT), 0, 63), t(3));
        assert_eq!(reuse.reused_tokens, 48);
        assert_eq!(reuse.shared_tokens, 48);
        // Re-referencing a zero-ref cache page (0 -> 1) dedups nothing:
        // only one session references the pages again.
        assert_eq!(p.deduped_bytes(), 0);
        // Pressure removes unreferenced cache before touching live state.
        p.enforce(0, &BTreeSet::new());
        assert!(p.resident_bytes() <= 64 * BPT);
    }

    #[test]
    fn sharing_disabled_salts_pages_per_session() {
        let mut p = KvPool::new(&config(false));
        let head = PromptContent::from_seed(11, 64);
        let a = head.extended(1, 8);
        let b = head.extended(2, 8);
        p.on_complete(1, 0, &a.page_keys(PT), 72, BPT, t(0));
        // Identical head content, but sharing is off: nothing crosses.
        let reuse = p.reuse_plan(&q(2, 0, &b.page_keys(PT), 0, 71), t(1));
        assert_eq!(reuse, KvReuse::default());
        p.on_complete(2, 0, &b.page_keys(PT), 72, BPT, t(2));
        assert_eq!(p.resident_bytes(), 144 * BPT, "two full copies");
        assert_eq!(p.deduped_bytes(), 0);
        // The session still reuses its own state as before.
        let own = p.reuse_plan(&q(1, 0, &a.page_keys(PT), 72, 71), t(3));
        assert_eq!(own.reused_tokens, 71);
        assert_eq!(own.shared_tokens, 0);
    }

    // ---- quantized sealed spill ----

    /// Compressed bytes of one whole test page under `format`.
    fn comp_page(format: SpillFormat) -> u64 {
        format.sealed_len((PT as u64 * BPT) as usize) as u64
    }

    fn quant_config(format: SpillFormat) -> KvConfig {
        KvConfig {
            spill_format: format,
            ..config(true)
        }
    }

    #[test]
    fn int8_spill_accounts_compressed_bytes_and_charges_dequant() {
        let mut p = KvPool::new(&quant_config(SpillFormat::Int8));
        let h = hashes(1, 64); // 4 whole pages, no tail
        p.on_complete(1, 0, &h, 64, BPT, t(0));
        p.enforce(0, &BTreeSet::new());
        assert_eq!(p.resident_bytes(), 0);
        assert_eq!(p.sealed_pages(), 4);
        let comp = comp_page(SpillFormat::Int8);
        assert_eq!(p.sealed_bytes(), 4 * comp, "spill holds compressed bytes");
        assert!(
            p.sealed_bytes() < 64 * BPT / 18 * 10,
            "well under 0.56x f16"
        );
        assert_eq!(
            p.stats().spilled_bytes,
            64 * BPT,
            "plain bytes, for drop accounting"
        );
        assert_eq!(p.stats().spilled_compressed_bytes, 4 * comp);

        // Restore pays MAC+decrypt over compressed bytes plus a dequant pass
        // over the full f16 bytes.
        let reuse = p.reuse_plan(&q(1, 0, &h, 64, 1000), t(2));
        assert_eq!(reuse.reused_tokens, 64);
        assert_eq!(reuse.unseal_bytes, 4 * comp);
        assert_eq!(reuse.dequant_bytes, 64 * BPT);
        assert_eq!(p.sealed_bytes(), 0);
        assert_eq!(p.sealed_pages(), 0);
        assert_eq!(p.resident_bytes(), 64 * BPT, "resident state is full f16");
        assert_eq!(p.stats().dequant_bytes, 64 * BPT);
    }

    #[test]
    fn f16_format_never_reports_compression_or_dequant() {
        let mut p = pool();
        let h = hashes(2, 64);
        p.on_complete(1, 0, &h, 64, BPT, t(0));
        p.enforce(0, &BTreeSet::new());
        let s = p.stats();
        assert_eq!(s.spilled_compressed_bytes, s.spilled_bytes);
        assert_eq!(p.sealed_bytes(), 64 * BPT);
        let reuse = p.reuse_plan(&q(1, 0, &h, 64, 63), t(2));
        assert_eq!(reuse.dequant_bytes, 0);
        assert_eq!(p.stats().dequant_bytes, 0);
    }

    #[test]
    fn equal_spill_budget_holds_about_double_the_pages_at_int8() {
        // 64 pages of content squeezed through a spill budget of 16 f16
        // pages: F16 keeps 16 sealed pages, INT8 keeps ~31 — ≥ 1.9x.
        let budget = 16 * PT as u64 * BPT;
        let run = |format: SpillFormat| {
            let mut p = KvPool::new(&KvConfig {
                spill_budget: budget,
                ..quant_config(format)
            });
            let h = hashes(9, 64 * PT);
            p.on_complete(1, 0, &h, 64 * PT, BPT, t(0));
            p.enforce(0, &BTreeSet::new());
            assert!(p.sealed_bytes() <= budget);
            p.sealed_pages()
        };
        let (f16_pages, int8_pages, int4_pages) = (
            run(SpillFormat::F16),
            run(SpillFormat::Int8),
            run(SpillFormat::Int4),
        );
        assert_eq!(f16_pages, 16);
        assert!(
            int8_pages as f64 >= 1.9 * f16_pages as f64,
            "int8 holds {int8_pages} vs f16 {f16_pages}"
        );
        assert!(
            int4_pages as f64 >= 3.7 * f16_pages as f64,
            "int4 holds {int4_pages} vs f16 {f16_pages}"
        );
    }

    #[test]
    fn popularity_retention_keeps_the_shared_head_resident() {
        // A 2-page head shared by two (cold) sessions, plus a warmer
        // single-session page.  Pure LRU seals the cold shared head; with
        // popularity retention the refs-1 page goes first even though it is
        // the most recently used.
        let head = PromptContent::from_seed(77, 32);
        let solo = hashes(78, 32);
        let run = |popularity: bool| {
            let mut p = KvPool::new(&KvConfig {
                popularity_retention: popularity,
                ..config(true)
            });
            p.on_complete(1, 0, &head.page_keys(PT), 32, BPT, t(0));
            p.on_complete(2, 0, &head.page_keys(PT), 32, BPT, t(1));
            p.on_complete(3, 0, &solo, 32, BPT, t(10));
            // 4 resident pages (head deduped); room for only 2.
            p.enforce(32 * BPT, &BTreeSet::new());
            (
                p.sealed_bytes_for(&q(1, 0, &head.page_keys(PT), ANY, ANY)),
                p.sealed_bytes_for(&q(3, 0, &solo, ANY, ANY)),
            )
        };
        let (head_sealed_lru, solo_sealed_lru) = run(false);
        assert!(head_sealed_lru > 0, "LRU seals the cold shared head");
        assert_eq!(solo_sealed_lru, 0);
        let (head_sealed_pop, solo_sealed_pop) = run(true);
        assert_eq!(head_sealed_pop, 0, "popularity keeps the refs-2 head");
        assert!(solo_sealed_pop > 0, "the refs-1 page is the victim");
    }

    #[test]
    fn chain_stats_and_hit_depth_expose_where_sharing_wins() {
        let mut p = pool();
        let head = PromptContent::from_seed(5, 32); // 2 shared pages
        let a = head.extended(1, 32);
        let b = head.extended(2, 32);
        p.on_complete(1, 0, &a.page_keys(PT), 64, BPT, t(0));
        p.on_complete(2, 0, &b.page_keys(PT), 64, BPT, t(1));
        p.reuse_plan(&q(1, 0, &a.page_keys(PT), 64, 1000), t(2)); // depth-4 hit
        let fresh = hashes(99, 32);
        p.reuse_plan(&q(3, 0, &fresh, 0, 31), t(3)); // miss

        let stats = p.chain_stats();
        assert_eq!(stats.len(), 1, "one model in play");
        let s = &stats[0];
        assert_eq!(s.model, 0);
        assert_eq!(s.pages, 6, "2 shared head + 2 private tails each");
        assert_eq!(s.resident_pages, 6);
        assert_eq!(s.max_depth, 4);
        // Refs histogram: 4 private pages at refs 1, 2 head pages at refs 2.
        assert_eq!(s.refs_histogram, vec![(1, 4), (2, 2)]);
        assert_eq!(s.resident_bytes, 6 * 16 * BPT);

        let depths = p.hit_depth_histogram();
        assert_eq!(depths, vec![(0, 1), (4, 1)]);

        // A second model shows up as its own entry.
        p.on_complete(4, 1, &fresh, 32, BPT, t(4));
        assert_eq!(p.chain_stats().len(), 2);
    }

    #[test]
    fn models_never_share_pages() {
        let mut p = pool();
        let c = PromptContent::from_seed(5, 64);
        p.on_complete(1, 0, &c.page_keys(PT), 64, BPT, t(0));
        // Same content, different model: no hit.
        let reuse = p.reuse_plan(&q(2, 1, &c.page_keys(PT), 0, 63), t(1));
        assert_eq!(reuse, KvReuse::default());
        p.on_complete(2, 1, &c.page_keys(PT), 64, BPT, t(2));
        assert_eq!(p.deduped_bytes(), 0, "each model holds its own copy");
        assert_eq!(p.resident_bytes(), 128 * BPT);
    }
}
