//! The secure KV-cache page store with sealed spill (the functional half of
//! the KV-cache manager).
//!
//! TZ-LLM's prototype releases the whole KV cache after every inference
//! (§4.2), so each follow-up turn of a conversation re-prefills everything it
//! already computed.  [`SharedKvStore`] instead retains KV state as
//! fixed-size pages inside the working [`ScalableRegion`](crate::ScalableRegion):
//!
//! * pages are allocated by growing the region through the normal
//!   `extend_allocated`/`extend_protected` path (page-aligned, contiguous,
//!   Iago-validated); freed slots are reused first and
//!   [`SharedKvStore::shrink_to_fit`] hands trailing free slots back;
//! * a page's identity is `(model, chain hash)`, where the chain hash is a
//!   SHA-256 chain over its bytes and its whole prefix ([`PageHash::chain`]).
//!   Installing a page whose identity already exists dedups onto the
//!   existing secure copy and bumps its reference count, and a page can only
//!   be evicted once its last reference is released.  Two sessions that
//!   diverge after a common head get distinct chain hashes from the fork
//!   on — copy-on-divergence without copying, and no way for one session to
//!   name another's private suffix.  A session that must not share at all
//!   roots its head page at a per-session parent hash;
//! * under secure-memory pressure, cold pages are *spilled*: optionally
//!   block-quantized to INT8/INT4 ([`tz_quant::SpillFormat`] — the sealed
//!   payload shrinks 2–4×, so a fixed CMA spill budget holds 2–4× the
//!   pages), then [sealed](tz_crypto::seal()) — one blob per page, however
//!   many sessions reference it — and handed to normal-world CMA memory,
//!   then the plaintext page is scrubbed.  The MAC binds the model, the
//!   chain hash, the quantization format and both lengths, so a blob
//!   relabelled to another model, page or format fails verification before
//!   a byte is decoded;
//! * a restore accepts a blob only for a page the index records as sealed,
//!   so the index is the freshness record: a blob restores at most once (the
//!   page is resident afterwards), and a rewritten page is a new identity,
//!   so the old version's blob names no page once that is evicted.  A
//!   quantized restore reproduces the page within the format's per-block
//!   error bound ([`tz_quant::SpillFormat::error_bound`]); with
//!   [`tz_quant::SpillFormat::F16`] the round-trip is exact.
//!
//! The serving-layer twin of this module ([`tzllm`'s `kv`] in the tzllm
//! crate) does the byte/time *accounting* of the same lifecycle; this module
//! is the byte-exact data path the security tests attack.

use std::collections::BTreeMap;

use tz_crypto::seal::{open, seal, SealAad, SealKey, SealedBlob};
use tz_crypto::{SealError, Sha256};
use tz_hal::PAGE_SIZE;
use tz_quant::{dequantize, quantize, SpillFormat};

use ree_kernel::TzDriver;

use crate::secure_memory::{ScalingError, SecureMemoryManager};
use crate::ta::TaRegistry;

/// Errors from the KV page store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvPoolError {
    /// Growing or shrinking the secure region failed.
    Scaling(ScalingError),
    /// A sealed page failed integrity verification on restore.
    Integrity,
    /// Page data does not match the pool's page size.
    BadPageSize {
        /// What the pool expects.
        expected: u64,
        /// What the caller provided.
        got: u64,
    },
    /// The referenced content-addressed page is not in the store.
    UnknownPage,
    /// The page still has live references and cannot be evicted.
    StillReferenced(u32),
    /// The verified sealed payload does not decode under its authenticated
    /// quantization format (the pool produced an inconsistent blob — this is
    /// a TEE-side invariant violation, not an attack the REE can trigger).
    Quant(tz_quant::QuantError),
}

impl From<ScalingError> for KvPoolError {
    fn from(e: ScalingError) -> Self {
        KvPoolError::Scaling(e)
    }
}

impl From<SealError> for KvPoolError {
    fn from(_: SealError) -> Self {
        KvPoolError::Integrity
    }
}

impl From<tz_quant::QuantError> for KvPoolError {
    fn from(e: tz_quant::QuantError) -> Self {
        KvPoolError::Quant(e)
    }
}

impl std::fmt::Display for KvPoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvPoolError::Scaling(e) => write!(f, "secure region scaling failed: {e}"),
            KvPoolError::Integrity => write!(f, "sealed KV page failed integrity verification"),
            KvPoolError::BadPageSize { expected, got } => {
                write!(f, "page data is {got} bytes, pool pages are {expected}")
            }
            KvPoolError::UnknownPage => write!(f, "no such page in the content-addressed store"),
            KvPoolError::StillReferenced(refs) => {
                write!(f, "page still has {refs} live references")
            }
            KvPoolError::Quant(e) => write!(f, "sealed payload failed quantized decoding: {e}"),
        }
    }
}

impl std::error::Error for KvPoolError {}

/// The SHA-256 chain identity of one shared KV page: commits to the page's
/// bytes *and* every byte of the pages before it, so equal hashes mean equal
/// full prefixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageHash(pub [u8; 32]);

impl PageHash {
    /// Extends a chain: `H(parent || data)` for a page with a predecessor,
    /// `H(data)` for the head page.
    pub fn chain(parent: Option<&PageHash>, data: &[u8]) -> PageHash {
        let mut h = Sha256::new();
        if let Some(p) = parent {
            h.update(&p.0);
        }
        h.update(data);
        PageHash(h.finalize())
    }
}

/// A sealed shared page in normal-world memory: the blob's tag authenticates
/// the model, the chain hash, the quantization format and both lengths, so
/// the REE can neither tamper with the ciphertext nor re-label a page across
/// models, chain positions or spill formats.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedSharedPage {
    /// Model the page belongs to (authenticated, not secret).
    pub model: u32,
    /// Chain identity (authenticated).
    pub hash: PageHash,
    /// Spill encoding of the payload (authenticated).
    pub format: SpillFormat,
    /// The sealed payload (quantized when `format` is not `F16`).
    pub blob: SealedBlob,
}

impl SealedSharedPage {
    fn aad(model: u32, hash: &PageHash, format: SpillFormat, plain_len: u64) -> Vec<u8> {
        SealAad::new("shared-kv")
            .u32("model", model)
            .field("chain", &hash.0)
            .u8("format", format.id())
            .u64("plain-len", plain_len)
            .u64("sealed-len", format.sealed_len(plain_len as usize) as u64)
            .into_bytes()
    }
}

/// Normal-world staging area for sealed pages: everything stored here is
/// readable and writable by a compromised REE, which is exactly what the
/// security tests exercise.
#[derive(Debug, Default)]
pub struct SharedSpill {
    blobs: Vec<SealedSharedPage>,
}

impl SharedSpill {
    /// An empty spill area.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sealed shared pages currently spilled.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// Whether nothing is spilled.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Stores a sealed page, returning its index.
    pub fn push(&mut self, page: SealedSharedPage) -> usize {
        self.blobs.push(page);
        self.blobs.len() - 1
    }

    /// Borrow a sealed page (REE read access).
    pub fn get(&self, index: usize) -> &SealedSharedPage {
        &self.blobs[index]
    }

    /// Mutable access — the REE can tamper with anything it stores.
    pub fn get_mut(&mut self, index: usize) -> &mut SealedSharedPage {
        &mut self.blobs[index]
    }

    /// Removes and returns a sealed page (handed back to the TEE on restore).
    pub fn take(&mut self, index: usize) -> SealedSharedPage {
        self.blobs.remove(index)
    }

    /// Every byte of normal-world memory the spill occupies, concatenated —
    /// the attacker's full view.
    pub fn observable_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for page in &self.blobs {
            out.extend_from_slice(&page.model.to_le_bytes());
            out.extend_from_slice(&page.hash.0);
            out.push(page.format.id());
            out.extend_from_slice(&page.blob.to_bytes());
        }
        out
    }

    /// Sealed payload bytes currently occupying normal-world memory (what a
    /// CMA spill budget actually pays for).
    pub fn payload_bytes(&self) -> u64 {
        self.blobs
            .iter()
            .map(|p| p.blob.ciphertext.len() as u64)
            .sum()
    }
}

/// Where a shared page's single copy currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SharedState {
    /// Resident in the secure slot with this index.
    Resident(usize),
    /// Sealed out to normal-world memory (the slot was scrubbed and freed).
    Sealed,
}

#[derive(Debug)]
struct SharedEntry {
    refs: u32,
    state: SharedState,
}

/// The secure KV page store: per-model, content-addressed and refcounted,
/// with sealed spill (see the [module docs](self)).
#[derive(Debug)]
pub struct SharedKvStore {
    region: usize,
    page_bytes: u64,
    format: SpillFormat,
    /// Secure page slots; a slot holds the single copy of one page.
    slots: Vec<Option<Vec<u8>>>,
    index: BTreeMap<(u32, PageHash), SharedEntry>,
    key: SealKey,
    seal_counter: u64,
}

impl SharedKvStore {
    /// Creates a store of `page_bytes`-sized pages inside secure-memory
    /// region `region`, sealing spilled pages under a key derived from
    /// `root_key` (spilled pages ship verbatim f16 — see
    /// [`SharedKvStore::with_format`]).
    ///
    /// # Panics
    /// Panics if `page_bytes` is not a positive multiple of the platform
    /// page size.
    pub fn new(region: usize, page_bytes: u64, root_key: &[u8]) -> Self {
        Self::with_format(region, page_bytes, root_key, SpillFormat::F16)
    }

    /// Like [`SharedKvStore::new`], but spilled pages are block-quantized to
    /// `format` before sealing.  The chain identity always names the
    /// *logical* (pre-quantization) content: a quantized restore serves the
    /// format's approximation of the page under the identity the MAC binds.
    ///
    /// # Panics
    /// Panics if `page_bytes` is not a positive multiple of the platform
    /// page size.
    pub fn with_format(
        region: usize,
        page_bytes: u64,
        root_key: &[u8],
        format: SpillFormat,
    ) -> Self {
        assert!(
            page_bytes > 0 && page_bytes.is_multiple_of(PAGE_SIZE),
            "KV pages must be a positive multiple of the {PAGE_SIZE}-byte platform page"
        );
        SharedKvStore {
            region,
            page_bytes,
            format,
            slots: Vec::new(),
            index: BTreeMap::new(),
            key: SealKey::derive(root_key, "shared-kv-page-seal"),
            seal_counter: 0,
        }
    }

    /// The spill encoding this store seals evicted pages with.
    pub fn spill_format(&self) -> SpillFormat {
        self.format
    }

    /// Number of distinct pages resident in secure memory.
    pub fn resident_pages(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Total secure bytes the store has claimed from its region (resident and
    /// free slots alike — freed slots are reused before the region grows).
    pub fn claimed_bytes(&self) -> u64 {
        self.slots.len() as u64 * self.page_bytes
    }

    /// Live references on a page, if it is in the store.
    pub fn refs(&self, model: u32, hash: &PageHash) -> Option<u32> {
        self.index.get(&(model, *hash)).map(|e| e.refs)
    }

    /// The resident plaintext of a page (`None` if unknown or sealed).
    pub fn page_data(&self, model: u32, hash: &PageHash) -> Option<&[u8]> {
        match self.index.get(&(model, *hash))?.state {
            SharedState::Resident(slot) => self.slots[slot].as_deref(),
            SharedState::Sealed => None,
        }
    }

    fn free_slot(
        &mut self,
        mgr: &mut SecureMemoryManager,
        tz_driver: &mut TzDriver,
        tas: &mut TaRegistry,
    ) -> Result<usize, KvPoolError> {
        if let Some(slot) = self.slots.iter().position(|s| s.is_none()) {
            return Ok(slot);
        }
        mgr.extend_allocated(self.region, self.page_bytes, tz_driver)?;
        mgr.extend_protected(self.region, self.page_bytes, tas)?;
        self.slots.push(None);
        Ok(self.slots.len() - 1)
    }

    /// Installs one page of KV content for `model`, chained after `parent`
    /// (`None` for the head page), and takes one reference on it.  If the
    /// identical page — same model, same content, same prefix — is already
    /// in the store, the existing copy is referenced instead of allocating a
    /// second one.  Returns the page's chain hash and its reference count.
    ///
    /// A session that must not share roots its head page at a per-session
    /// parent hash, so no other session's chain can name its pages.
    pub fn install(
        &mut self,
        model: u32,
        parent: Option<&PageHash>,
        data: Vec<u8>,
        mgr: &mut SecureMemoryManager,
        tz_driver: &mut TzDriver,
        tas: &mut TaRegistry,
    ) -> Result<(PageHash, u32), KvPoolError> {
        if data.len() as u64 != self.page_bytes {
            return Err(KvPoolError::BadPageSize {
                expected: self.page_bytes,
                got: data.len() as u64,
            });
        }
        let hash = PageHash::chain(parent, &data);
        if let Some(entry) = self.index.get_mut(&(model, hash)) {
            entry.refs += 1;
            return Ok((hash, entry.refs));
        }
        let slot = self.free_slot(mgr, tz_driver, tas)?;
        self.slots[slot] = Some(data);
        self.index.insert(
            (model, hash),
            SharedEntry {
                refs: 1,
                state: SharedState::Resident(slot),
            },
        );
        Ok((hash, 1))
    }

    /// Takes one more reference on an existing page.
    pub fn acquire(&mut self, model: u32, hash: &PageHash) -> Result<u32, KvPoolError> {
        let entry = self
            .index
            .get_mut(&(model, *hash))
            .ok_or(KvPoolError::UnknownPage)?;
        entry.refs += 1;
        Ok(entry.refs)
    }

    /// Releases one reference, returning the remaining count.  The page (and
    /// its sealed copy, if spilled) stays in the store as reusable cache
    /// until [`SharedKvStore::evict`] removes it.
    pub fn release(&mut self, model: u32, hash: &PageHash) -> Result<u32, KvPoolError> {
        let entry = self
            .index
            .get_mut(&(model, *hash))
            .ok_or(KvPoolError::UnknownPage)?;
        entry.refs = entry.refs.saturating_sub(1);
        Ok(entry.refs)
    }

    /// Seals the single secure copy of a page out to normal-world memory —
    /// one sealed blob, however many sessions reference the page — scrubbing
    /// the plaintext slot.  Returns the spill index.
    pub fn spill(
        &mut self,
        model: u32,
        hash: &PageHash,
        spill: &mut SharedSpill,
    ) -> Result<usize, KvPoolError> {
        let entry = self
            .index
            .get_mut(&(model, *hash))
            .ok_or(KvPoolError::UnknownPage)?;
        let SharedState::Resident(slot) = entry.state else {
            return Err(KvPoolError::UnknownPage);
        };
        let data = self.slots[slot].take().expect("resident page has a slot");
        entry.state = SharedState::Sealed;
        let mut nonce = [0u8; 16];
        nonce[..8].copy_from_slice(&self.seal_counter.to_le_bytes());
        nonce[8..12].copy_from_slice(&model.to_le_bytes());
        nonce[12..].copy_from_slice(&hash.0[..4]);
        self.seal_counter += 1;
        let aad = SealedSharedPage::aad(model, hash, self.format, data.len() as u64);
        let payload = quantize(self.format, &data);
        let blob = seal(&self.key, &nonce, &aad, &payload);
        // `data` is dropped here — the secure copy is scrubbed.
        Ok(spill.push(SealedSharedPage {
            model,
            hash: *hash,
            format: self.format,
            blob,
        }))
    }

    /// Restores a sealed page handed back by the normal world.  Only a page
    /// the index records as sealed is accepted, so a blob restores at most
    /// once and a blob of an evicted page is refused.  Then verifies the MAC
    /// over the model, chain identity, spill format, both lengths and the
    /// ciphertext — a mismatch on any of them rejects the blob before a byte
    /// is decrypted — and decrypts (and, for a quantized format,
    /// dequantizes) into a fresh secure slot.  The chain identity is
    /// *authenticated*, not recomputed: the store sealed the page itself
    /// under that identity, so the MAC is the binding (the parent hash
    /// needed to re-derive a non-head page's chain is not stored, and a
    /// quantized restore is the format's approximation of the identity's
    /// logical content).
    pub fn restore(
        &mut self,
        sealed: SealedSharedPage,
        mgr: &mut SecureMemoryManager,
        tz_driver: &mut TzDriver,
        tas: &mut TaRegistry,
    ) -> Result<(), KvPoolError> {
        let entry = self
            .index
            .get(&(sealed.model, sealed.hash))
            .ok_or(KvPoolError::UnknownPage)?;
        if entry.state != SharedState::Sealed {
            return Err(KvPoolError::UnknownPage);
        }
        let aad = SealedSharedPage::aad(sealed.model, &sealed.hash, sealed.format, self.page_bytes);
        let payload = open(&self.key, &aad, &sealed.blob)?;
        let data = dequantize(sealed.format, &payload, self.page_bytes as usize)?;
        let slot = self.free_slot(mgr, tz_driver, tas)?;
        self.slots[slot] = Some(data);
        self.index
            .get_mut(&(sealed.model, sealed.hash))
            .expect("entry checked above")
            .state = SharedState::Resident(slot);
        Ok(())
    }

    /// Removes a page from the store.  Refuses while references remain: a
    /// shared page is only droppable once its last referencing session has
    /// released it.
    pub fn evict(&mut self, model: u32, hash: &PageHash) -> Result<(), KvPoolError> {
        let entry = self
            .index
            .get(&(model, *hash))
            .ok_or(KvPoolError::UnknownPage)?;
        if entry.refs > 0 {
            return Err(KvPoolError::StillReferenced(entry.refs));
        }
        let entry = self.index.remove(&(model, *hash)).expect("checked above");
        if let SharedState::Resident(slot) = entry.state {
            self.slots[slot] = None; // plaintext scrubbed
        }
        Ok(())
    }

    /// Returns trailing free slots' memory to the REE by shrinking the
    /// region; interior free slots stay claimed for reuse (the region must
    /// stay contiguous).  Returns the bytes released.
    pub fn shrink_to_fit(
        &mut self,
        mgr: &mut SecureMemoryManager,
        tz_driver: &mut TzDriver,
        tas: &mut TaRegistry,
    ) -> Result<u64, KvPoolError> {
        let mut tail_free = 0u64;
        while self.slots.last().is_some_and(Option::is_none) {
            self.slots.pop();
            tail_free += self.page_bytes;
        }
        if tail_free > 0 {
            mgr.shrink(self.region, tail_free, tas, tz_driver)?;
        }
        Ok(tail_free)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ree_kernel::{CmaPool, CmaRegion};
    use sim_core::GIB;
    use tz_hal::{DeviceId, PhysAddr, PhysRange, Platform};

    const PAGE: u64 = 4 * PAGE_SIZE;

    fn setup(
        format: SpillFormat,
    ) -> (
        SecureMemoryManager,
        TzDriver,
        TaRegistry,
        SharedKvStore,
        SharedSpill,
    ) {
        let platform = Platform::rk3588();
        let params = CmaRegion::new(
            PhysRange::new(PhysAddr::new(0x1_0000_0000), GIB),
            platform.profile.cma_bandwidth(),
            platform.profile.page_alloc_ns,
        );
        let working = CmaRegion::new(
            PhysRange::new(PhysAddr::new(0x3_8000_0000), GIB),
            platform.profile.cma_bandwidth(),
            platform.profile.page_alloc_ns,
        );
        let tz = TzDriver::new(platform.clone(), params, working);
        let mut tas = TaRegistry::new();
        let llm = tas.register("llm-ta", true);
        let mut mgr = SecureMemoryManager::new(platform);
        let region = mgr.create_region(CmaPool::Working, llm, vec![DeviceId::Npu]);
        let store = SharedKvStore::with_format(region, PAGE, &[0x44u8; 32], format);
        (mgr, tz, tas, store, SharedSpill::new())
    }

    fn page_data(tag: u8) -> Vec<u8> {
        (0..PAGE).map(|i| tag ^ (i % 256) as u8).collect()
    }

    /// The parent hash a private session roots its head page at.
    fn session_root(session: u64) -> PageHash {
        PageHash::chain(None, &session.to_le_bytes())
    }

    #[test]
    fn install_grows_region_and_reuses_freed_slots() {
        let (mut mgr, mut tz, mut tas, mut store, mut spill) = setup(SpillFormat::F16);
        let (a, _) = store
            .install(
                0,
                Some(&session_root(1)),
                page_data(1),
                &mut mgr,
                &mut tz,
                &mut tas,
            )
            .unwrap();
        let (b, _) = store
            .install(0, Some(&a), page_data(2), &mut mgr, &mut tz, &mut tas)
            .unwrap();
        assert_eq!(mgr.region(0).protected_bytes(), 2 * PAGE);
        assert_eq!(store.resident_pages(), 2);

        // Spill page `a`; the next install reuses its slot without growing.
        store.spill(0, &a, &mut spill).unwrap();
        assert_eq!(store.resident_pages(), 1);
        store
            .install(
                0,
                Some(&session_root(2)),
                page_data(3),
                &mut mgr,
                &mut tz,
                &mut tas,
            )
            .unwrap();
        assert_eq!(mgr.region(0).protected_bytes(), 2 * PAGE);
        assert_eq!(store.claimed_bytes(), 2 * PAGE);
        assert_eq!(store.page_data(0, &b).unwrap(), &page_data(2)[..]);
    }

    #[test]
    fn identical_content_dedups_onto_one_secure_copy() {
        let (mut mgr, mut tz, mut tas, mut store, _spill) = setup(SpillFormat::F16);
        let (h1, refs1) = store
            .install(0, None, page_data(9), &mut mgr, &mut tz, &mut tas)
            .unwrap();
        let (h2, refs2) = store
            .install(0, None, page_data(9), &mut mgr, &mut tz, &mut tas)
            .unwrap();
        assert_eq!(h1, h2, "equal content, equal chain identity");
        assert_eq!((refs1, refs2), (1, 2));
        assert_eq!(store.resident_pages(), 1, "one copy serves both");
        assert_eq!(mgr.region(0).protected_bytes(), PAGE);

        // Divergent second pages chain to distinct identities and slots.
        let (pa, _) = store
            .install(0, Some(&h1), page_data(1), &mut mgr, &mut tz, &mut tas)
            .unwrap();
        let (pb, _) = store
            .install(0, Some(&h1), page_data(2), &mut mgr, &mut tz, &mut tas)
            .unwrap();
        assert_ne!(pa, pb);
        assert_eq!(store.resident_pages(), 3);
    }

    #[test]
    fn eviction_waits_for_the_last_reference() {
        let (mut mgr, mut tz, mut tas, mut store, _spill) = setup(SpillFormat::F16);
        let (h, _) = store
            .install(0, None, page_data(5), &mut mgr, &mut tz, &mut tas)
            .unwrap();
        store.acquire(0, &h).unwrap();
        assert_eq!(
            store.evict(0, &h),
            Err(KvPoolError::StillReferenced(2)),
            "a referenced page is not droppable"
        );
        store.release(0, &h).unwrap();
        store.release(0, &h).unwrap();
        store.evict(0, &h).unwrap();
        assert_eq!(store.resident_pages(), 0);
        assert!(store.refs(0, &h).is_none());
    }

    #[test]
    fn release_evict_and_shrink_return_memory() {
        let (mut mgr, mut tz, mut tas, mut store, _spill) = setup(SpillFormat::F16);
        let mut chain = vec![session_root(5)];
        for tag in 0..3 {
            let parent = *chain.last().unwrap();
            let (h, _) = store
                .install(
                    0,
                    Some(&parent),
                    page_data(tag),
                    &mut mgr,
                    &mut tz,
                    &mut tas,
                )
                .unwrap();
            chain.push(h);
        }
        for h in &chain[1..] {
            store.release(0, h).unwrap();
            store.evict(0, h).unwrap();
        }
        let released = store.shrink_to_fit(&mut mgr, &mut tz, &mut tas).unwrap();
        assert_eq!(released, 3 * PAGE);
        assert_eq!(mgr.region(0).protected_bytes(), 0);
        assert_eq!(store.claimed_bytes(), 0);
    }

    #[test]
    fn shared_spill_seals_one_copy_and_roundtrips() {
        let (mut mgr, mut tz, mut tas, mut store, mut spill) = setup(SpillFormat::F16);
        let original = page_data(3);
        let (h, _) = store
            .install(0, None, original.clone(), &mut mgr, &mut tz, &mut tas)
            .unwrap();
        store.acquire(0, &h).unwrap(); // two sessions reference it
        let private = page_data(4);
        let (p, _) = store
            .install(
                0,
                Some(&session_root(9)),
                private.clone(),
                &mut mgr,
                &mut tz,
                &mut tas,
            )
            .unwrap();
        store.spill(0, &h, &mut spill).unwrap();
        store.spill(0, &p, &mut spill).unwrap();
        assert_eq!(
            spill.len(),
            2,
            "one sealed copy per page, not per reference"
        );
        assert_eq!(store.resident_pages(), 0, "plaintext scrubbed");
        assert!(store.page_data(0, &h).is_none());

        while !spill.is_empty() {
            store
                .restore(spill.take(0), &mut mgr, &mut tz, &mut tas)
                .unwrap();
        }
        assert_eq!(store.page_data(0, &h).unwrap(), &original[..]);
        assert_eq!(store.page_data(0, &p).unwrap(), &private[..]);
        assert_eq!(store.refs(0, &h), Some(2), "references survive the trip");
    }

    /// A page of finite f16 values (quantized round-trips are only
    /// meaningful over well-formed f16 data).
    fn f16_page(seed: u64) -> Vec<u8> {
        let mut out = vec![0u8; PAGE as usize];
        let mut state = seed | 1;
        for i in 0..out.len() / 2 {
            state = state
                .wrapping_mul(0x5851_f42d_4c95_7f2d)
                .wrapping_add(0x1405_7b7e_f767_814f);
            let unit = (state >> 40) as f32 / (1u64 << 24) as f32;
            tz_quant::write_f16(&mut out, i, (unit - 0.5) * 8.0);
        }
        out
    }

    #[test]
    fn quantized_spill_shrinks_the_payload_and_roundtrips_within_bound() {
        for format in [SpillFormat::Int8, SpillFormat::Int4] {
            let (mut mgr, mut tz, mut tas, mut store, mut spill) = setup(format);
            let original = f16_page(11);
            let (h, _) = store
                .install(0, None, original.clone(), &mut mgr, &mut tz, &mut tas)
                .unwrap();
            let idx = store.spill(0, &h, &mut spill).unwrap();
            // The sealed payload is the quantized size, not the f16 size.
            assert_eq!(
                spill.get(idx).blob.ciphertext.len(),
                format.sealed_len(PAGE as usize)
            );
            assert!(format.expansion(PAGE as usize) > 1.9);

            store
                .restore(spill.take(idx), &mut mgr, &mut tz, &mut tas)
                .unwrap();
            let page = store.page_data(0, &h).unwrap();
            assert_eq!(page.len(), PAGE as usize, "full-size page comes back");
            // Every element is within the format's per-block error bound.
            for i in 0..PAGE as usize / 2 {
                let (a, b) = (
                    tz_quant::read_f16(&original, i),
                    tz_quant::read_f16(page, i),
                );
                assert!(
                    (a - b).abs() <= format.error_bound(4.0),
                    "elem {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn relabelling_the_spill_format_fails_the_mac() {
        let (mut mgr, mut tz, mut tas, mut store, mut spill) = setup(SpillFormat::Int4);
        let (h, _) = store
            .install(0, None, f16_page(5), &mut mgr, &mut tz, &mut tas)
            .unwrap();
        let idx = store.spill(0, &h, &mut spill).unwrap();
        let mut forged = spill.take(idx);
        forged.format = SpillFormat::Int8; // INT4 blob relabelled INT8
        assert_eq!(
            store.restore(forged, &mut mgr, &mut tz, &mut tas),
            Err(KvPoolError::Integrity)
        );
    }

    #[test]
    fn wrong_sized_data_is_rejected() {
        let (mut mgr, mut tz, mut tas, mut store, _spill) = setup(SpillFormat::F16);
        let err = store
            .install(0, None, vec![0u8; 17], &mut mgr, &mut tz, &mut tas)
            .unwrap_err();
        assert!(matches!(err, KvPoolError::BadPageSize { .. }));
    }
}
