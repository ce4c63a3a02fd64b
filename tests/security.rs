//! Attack-simulation tests covering the threat model of §3.1 and the
//! defences of §6: direct access, DMA attacks, Iago attacks on every exposed
//! TEE-REE interface, and TA isolation.

use llm::{ModelSpec, PackedModel};
use npu::{ExecutionContext, JobId, NpuDevice, NpuJob};
use ree_kernel::{
    CmaPool, CmaRegion, FileContent, FileSystem, FlashDevice, Misbehaviour, TzDriver,
};
use sim_core::{Bandwidth, DetRng, SimDuration, SimTime, GIB};
use tee_kernel::{
    CheckpointError, CheckpointStore, KeyService, KeyServiceError, KvPoolError, PageHash,
    ScalingError, SealedSharedPage, SecureMemoryManager, SecurityViolation, ShadowThreadManager,
    SharedKvStore, SharedSpill, TaRegistry, TeeNpuDriver,
};
use tz_crypto::{HardwareUniqueKey, ModelKey, WrappedModelKey};
use tz_hal::{DeviceId, PhysAddr, PhysRange, Platform, World, PAGE_SIZE};
use tz_quant::{read_f16, write_f16, SpillFormat};

/// Direct access: a non-secure CPU and a non-NPU device cannot touch the
/// parameter region; even the NPU cannot touch regions that do not list it.
#[test]
fn direct_and_dma_access_attacks_are_blocked() {
    let platform = Platform::rk3588();
    let param_region = PhysRange::new(PhysAddr::new(0x1_0000_0000), 64 * 1024 * 1024);
    platform.with_tzasc(|t| {
        t.configure_region(World::Secure, param_region, [DeviceId::Npu])
            .unwrap();
    });

    // Compromised REE OS reads the plaintext parameters: blocked.
    assert!(platform
        .with_tzasc(|t| t.check_cpu_access(World::NonSecure, param_region))
        .is_err());
    // Malicious USB controller DMA: blocked.
    assert!(platform
        .with_tzasc(|t| t.check_dma_access(DeviceId::UsbController, param_region))
        .is_err());
    // The GPU (a different accelerator) is blocked too.
    assert!(platform
        .with_tzasc(|t| t.check_dma_access(DeviceId::Gpu, param_region))
        .is_err());
}

/// Iago attack on secure memory scaling: the TZ driver returns non-adjacent
/// or overlapping CMA blocks; the TEE OS rejects both.
#[test]
fn iago_attack_on_memory_scaling_is_rejected() {
    let platform = Platform::rk3588();
    let mk_pool = |start: u64, size: u64| {
        CmaRegion::new(
            PhysRange::new(PhysAddr::new(start), size),
            platform.profile.cma_bandwidth(),
            platform.profile.page_alloc_ns,
        )
    };
    let mut tz = TzDriver::new(
        platform.clone(),
        mk_pool(0x1_0000_0000, 2 * GIB),
        mk_pool(0x2_0000_0000, GIB),
    );
    let mut tas = TaRegistry::new();
    let llm = tas.register("llm-ta", true);
    let mut secmem = SecureMemoryManager::new(platform);
    let region = secmem.create_region(CmaPool::Parameters, llm, vec![DeviceId::Npu]);

    secmem.extend_allocated(region, GIB / 4, &mut tz).unwrap();
    tz.set_misbehaviour(Misbehaviour::NonAdjacentBlock);
    assert!(matches!(
        secmem.extend_allocated(region, GIB / 4, &mut tz),
        Err(ScalingError::NonContiguousReply { .. })
    ));
    tz.set_misbehaviour(Misbehaviour::OverlappingBlock);
    assert!(matches!(
        secmem.extend_allocated(region, GIB / 4, &mut tz),
        Err(ScalingError::OverlappingReply)
    ));
}

/// Iago attack on NPU job scheduling: replay, reordering and launching
/// never-initialised jobs are all rejected by the TEE data-plane driver.
#[test]
fn iago_attack_on_npu_scheduling_is_rejected() {
    let platform = Platform::rk3588();
    platform.with_tzasc(|t| {
        t.configure_region(
            World::Secure,
            PhysRange::new(PhysAddr::new(0x2_0000_0000), 64 * 1024 * 1024),
            [DeviceId::Npu],
        )
        .unwrap();
    });
    let ctx = ExecutionContext {
        command_buffer: PhysRange::new(PhysAddr::new(0x2_0000_0000), 0x1000),
        io_page_table: PhysRange::new(PhysAddr::new(0x2_0000_1000), 0x1000),
        inputs: vec![],
        outputs: vec![],
    };
    let mut device = NpuDevice::new(3);
    let mut tee = TeeNpuDriver::new(platform);

    tee.init_secure_job(NpuJob::secure(
        JobId(1),
        ctx.clone(),
        SimDuration::from_millis(1),
        "a",
    ))
    .unwrap();
    tee.init_secure_job(NpuJob::secure(
        JobId(2),
        ctx,
        SimDuration::from_millis(1),
        "b",
    ))
    .unwrap();

    // Unknown job.
    assert!(matches!(
        tee.handle_handoff(JobId(42), &mut device, SimTime::ZERO),
        Err(SecurityViolation::UnknownJob(_))
    ));
    // Reordering.
    assert!(matches!(
        tee.handle_handoff(JobId(2), &mut device, SimTime::ZERO),
        Err(SecurityViolation::OutOfOrder { .. })
    ));
    // Correct order works; replay of a completed job fails.
    tee.handle_handoff(JobId(1), &mut device, SimTime::ZERO)
        .unwrap();
    assert!(matches!(
        tee.handle_handoff(JobId(1), &mut device, SimTime::from_millis(5)),
        Err(SecurityViolation::Replay(_))
    ));
}

/// Iago attack on model loading: forged file content fails the per-tensor
/// checksum; a forged header fails authentication.
#[test]
fn iago_attack_on_model_loading_is_rejected() {
    let spec = ModelSpec::nano();
    let key = ModelKey::derive(b"provider", &spec.name);
    let packed = PackedModel::pack_functional(&spec, &key, [4u8; 16], 1);

    let mut forged = packed.encrypted_tensor_bytes("layer.2.wo").unwrap();
    forged[0] ^= 0x01;
    assert!(packed.decrypt_tensor(&key, "layer.2.wo", &forged).is_err());

    let mut forged_header = packed.clone();
    forged_header.header.tensors[0].bytes += 1;
    assert!(forged_header.verify_header(&key).is_err());
}

/// Model keys in flash are wrapped; only the LLM TA on the right device can
/// obtain them, and tampered checkpoints are rejected.
#[test]
fn key_and_checkpoint_protection() {
    let huk = HardwareUniqueKey::provision("device-a");
    let mk = ModelKey::derive(b"provider", "qwen2.5-3b");
    let wrapped = WrappedModelKey::wrap(&huk, &mk, [8u8; 16]);

    let mut tas = TaRegistry::new();
    let llm = tas.register("llm-ta", true);
    let other = tas.register("widevine-ta", false);
    let mut keys = KeyService::new(huk);
    keys.register_model_key("qwen2.5-3b", wrapped.clone());

    assert!(keys.unwrap_for(&tas, llm, "qwen2.5-3b").is_ok());
    assert_eq!(
        keys.unwrap_for(&tas, other, "qwen2.5-3b").unwrap_err(),
        KeyServiceError::NotAuthorised(other)
    );

    // A different physical device cannot unwrap the same blob.
    let other_device = HardwareUniqueKey::provision("device-b");
    assert!(wrapped.unwrap(&other_device, true).is_err());

    // Checkpoint tampering is detected.
    let mut fs = flash_fs();
    let huk = HardwareUniqueKey::provision("device-a");
    let mut store = checkpoint_store("ckpt");
    store.save(&huk, &mut fs, b"framework state");
    let mut blob = fs.raw_bytes("ckpt").unwrap().to_vec();
    let last = blob.len() - 1;
    blob[last] ^= 0xff;
    fs.write_file("ckpt", FileContent::Bytes(blob));
    assert_eq!(
        store.restore(&huk, &mut fs).unwrap_err(),
        CheckpointError::IntegrityFailure
    );
}

fn flash_fs() -> FileSystem {
    FileSystem::new(FlashDevice::new(Bandwidth::from_gib_per_sec(2.0), 2.5))
}

fn checkpoint_store(path: &str) -> CheckpointStore {
    CheckpointStore::new(path, SimDuration::from_millis(140), 9.2e9)
}

/// Checkpoint freshness: the store accepts only its latest save, so the REE
/// cannot roll the framework state back by writing an older, validly sealed
/// checkpoint over the current one.
#[test]
fn checkpoint_rollback_is_rejected() {
    let huk = HardwareUniqueKey::provision("device-a");
    let mut fs = flash_fs();
    let mut store = checkpoint_store("llm.ckpt");
    store.save(&huk, &mut fs, b"framework state v1");
    let old = fs.raw_bytes("llm.ckpt").unwrap().to_vec();
    store.save(&huk, &mut fs, b"framework state v2");
    assert_eq!(
        store.restore(&huk, &mut fs).unwrap().state,
        b"framework state v2"
    );
    fs.write_file("llm.ckpt", FileContent::Bytes(old));
    assert_eq!(
        store.restore(&huk, &mut fs).unwrap_err(),
        CheckpointError::IntegrityFailure
    );
}

/// A checkpoint is bound to its path: copying one model's checkpoint file
/// over another's does not hand the first model's framework state to the
/// second model's TA.
#[test]
fn checkpoint_blob_cannot_move_between_paths() {
    let huk = HardwareUniqueKey::provision("device-a");
    let mut fs = flash_fs();
    let mut qwen = checkpoint_store("qwen2.5-3b.ckpt");
    let mut llama = checkpoint_store("llama-3-8b.ckpt");
    qwen.save(&huk, &mut fs, b"qwen framework state");
    llama.save(&huk, &mut fs, b"llama framework state");
    let moved = fs.raw_bytes("qwen2.5-3b.ckpt").unwrap().to_vec();
    fs.write_file("llama-3-8b.ckpt", FileContent::Bytes(moved));
    assert_eq!(
        llama.restore(&huk, &mut fs).unwrap_err(),
        CheckpointError::IntegrityFailure
    );
    assert_eq!(
        qwen.restore(&huk, &mut fs).unwrap().state,
        b"qwen framework state"
    );
}

/// Every save encrypts under a fresh keystream: an attacker who keeps two
/// checkpoint files of equal length finds nowhere in their XOR the XOR of
/// the two plaintexts, which a reused CTR keystream would expose.
#[test]
fn two_checkpoint_saves_use_distinct_keystreams() {
    let huk = HardwareUniqueKey::provision("device-a");
    let mut fs = flash_fs();
    let mut store = checkpoint_store("llm.ckpt");
    let mut rng = DetRng::new(0xC4EC);
    let mut state = || {
        (0..64)
            .map(|_| rng.gen_range(0, 256) as u8)
            .collect::<Vec<u8>>()
    };
    let (a, b) = (state(), state());
    let xor = |x: &[u8], y: &[u8]| x.iter().zip(y).map(|(p, q)| p ^ q).collect::<Vec<u8>>();

    store.save(&huk, &mut fs, &a);
    let first = fs.raw_bytes("llm.ckpt").unwrap().to_vec();
    store.save(&huk, &mut fs, &b);
    let second = fs.raw_bytes("llm.ckpt").unwrap().to_vec();
    assert_eq!(first.len(), second.len());
    let leak = xor(&a, &b);
    assert!(
        !xor(&first, &second)
            .windows(leak.len())
            .any(|w| w == leak.as_slice()),
        "two saves share a keystream"
    );
}

/// The secure world every KV-store test attacks: an RK3588 with a working
/// region owned by the LLM TA, and a store of one-platform-page pages (small
/// pages keep software AES fast in tests) sealing with `format`.
fn kv_store(
    format: SpillFormat,
) -> (
    SecureMemoryManager,
    TzDriver,
    TaRegistry,
    SharedKvStore,
    SharedSpill,
) {
    let platform = Platform::rk3588();
    let working = CmaRegion::new(
        PhysRange::new(PhysAddr::new(0x3_8000_0000), GIB),
        platform.profile.cma_bandwidth(),
        platform.profile.page_alloc_ns,
    );
    let params = CmaRegion::new(
        PhysRange::new(PhysAddr::new(0x1_0000_0000), GIB),
        platform.profile.cma_bandwidth(),
        platform.profile.page_alloc_ns,
    );
    let tz = TzDriver::new(platform.clone(), params, working);
    let mut tas = TaRegistry::new();
    let llm_ta = tas.register("llm-ta", true);
    let mut mgr = SecureMemoryManager::new(platform);
    let region = mgr.create_region(CmaPool::Working, llm_ta, vec![DeviceId::Npu]);
    let store = SharedKvStore::with_format(region, PAGE_SIZE, &[0x5au8; 32], format);
    (mgr, tz, tas, store, SharedSpill::new())
}

fn random_page(rng: &mut DetRng) -> Vec<u8> {
    (0..PAGE_SIZE)
        .map(|_| rng.gen_range(0, 256) as u8)
        .collect()
}

/// A page of well-formed finite f16 values (quantized round-trips are only
/// meaningful over valid f16 data, unlike raw random pages).
fn random_f16_page(rng: &mut DetRng) -> Vec<u8> {
    let mut out = vec![0u8; PAGE_SIZE as usize];
    for i in 0..out.len() / 2 {
        let unit = rng.gen_range(0, 1 << 16) as f32 / (1 << 16) as f32;
        write_f16(&mut out, i, (unit - 0.5) * 16.0);
    }
    out
}

/// Seals a page out to the spill and returns the blob as the REE holds it.
fn seal_out(
    store: &mut SharedKvStore,
    model: u32,
    hash: &PageHash,
    spill: &mut SharedSpill,
) -> SealedSharedPage {
    let idx = store.spill(model, hash, spill).unwrap();
    spill.get(idx).clone()
}

/// The parent hash a session that must not share roots its head page at.
fn session_root(session: u64) -> PageHash {
    PageHash::chain(None, &session.to_le_bytes())
}

/// No 16-byte block of any plaintext page appears in the attacker's view of
/// normal-world memory.
fn assert_nothing_leaks(spill: &SharedSpill, pages: &[&Vec<u8>]) {
    let observable = spill.observable_bytes();
    for (i, page) in pages.iter().enumerate() {
        for block in page.chunks(16) {
            assert!(
                !observable.windows(block.len()).any(|w| w == block),
                "plaintext block of page {i} visible in normal-world memory"
            );
        }
    }
}

/// Cross-model isolation of the content-addressed store: byte-identical KV
/// content installed for two different models never aliases onto one secure
/// copy, and evicting one model's copy leaves the other's untouched.
#[test]
fn shared_kv_pages_never_alias_across_models() {
    let (mut mgr, mut tz, mut tas, mut store, _spill) = kv_store(SpillFormat::F16);
    let mut rng = DetRng::new(0xA11A);
    let page = random_page(&mut rng);
    let (h0, _) = store
        .install(0, None, page.clone(), &mut mgr, &mut tz, &mut tas)
        .unwrap();
    let (h1, _) = store
        .install(1, None, page.clone(), &mut mgr, &mut tz, &mut tas)
        .unwrap();
    // The chain hash is over content, so it matches — but the store keys on
    // (model, hash): two physical copies, independent reference counts.
    assert_eq!(h0, h1);
    assert_eq!(store.resident_pages(), 2, "no cross-model aliasing");
    assert_eq!(store.refs(0, &h0), Some(1));
    assert_eq!(store.refs(1, &h1), Some(1));
    store.release(0, &h0).unwrap();
    store.evict(0, &h0).unwrap();
    assert!(store.page_data(0, &h0).is_none());
    assert_eq!(
        store.page_data(1, &h1).unwrap(),
        &page[..],
        "model 1's copy survives model 0's eviction"
    );
}

/// KV-cache spill confidentiality and integrity, over many random pages of
/// one private session chain: spilling scrubs every plaintext copy, no
/// 16-byte block of any page appears in normal-world memory, a forged copy
/// of each page — a flipped ciphertext or tag bit at a random position, or
/// the blob relabelled to the next page's chain hash — is rejected before
/// decryption, and the untampered blobs restore to their exact plaintext.
#[test]
fn kv_spill_is_sealed_and_tamper_evident() {
    let (mut mgr, mut tz, mut tas, mut store, mut spill) = kv_store(SpillFormat::F16);
    let mut rng = DetRng::new(0x5ea1);
    let mut parent = session_root(7);
    let mut pages = Vec::new();
    for _ in 0..16 {
        let page = random_page(&mut rng);
        let (h, _) = store
            .install(0, Some(&parent), page.clone(), &mut mgr, &mut tz, &mut tas)
            .unwrap();
        store.spill(0, &h, &mut spill).unwrap();
        pages.push((h, page));
        parent = h;
    }
    assert_eq!(store.resident_pages(), 0, "plaintext copies are scrubbed");
    assert_nothing_leaks(&spill, &pages.iter().map(|(_, p)| p).collect::<Vec<_>>());

    for i in 0..pages.len() {
        let mut forged = spill.get(i).clone();
        let what = match i % 3 {
            0 => {
                let at = rng.gen_range(0, forged.blob.ciphertext.len() as u64) as usize;
                forged.blob.ciphertext[at] ^= 0x01;
                "ciphertext bit"
            }
            1 => {
                let at = rng.gen_range(0, forged.blob.tag.len() as u64) as usize;
                forged.blob.tag[at] ^= 0x80;
                "tag bit"
            }
            _ => {
                forged.hash = pages[(i + 1) % pages.len()].0;
                "chain relabel"
            }
        };
        assert_eq!(
            store.restore(forged, &mut mgr, &mut tz, &mut tas),
            Err(KvPoolError::Integrity),
            "page {i}: {what}"
        );
    }

    for (i, (h, page)) in pages.iter().enumerate() {
        store
            .restore(spill.get(i).clone(), &mut mgr, &mut tz, &mut tas)
            .unwrap();
        assert_eq!(store.page_data(0, h).unwrap(), &page[..], "page {i}");
    }
}

/// Seals, in `format`, a head page referenced by two sessions, its
/// successor, and the same head under model 1, then checks that a flipped
/// ciphertext or tag bit, model 1's blob relabelled as model 0's, and a blob
/// relabelled to another sealed page's chain hash are all rejected before
/// decryption, that a chain hash naming no page is refused, that the spill
/// leaks no plaintext block, and that the honest blobs restore — once for
/// every referencing session.
fn assert_sealed_pages_are_tamper_evident(format: SpillFormat) {
    let (mut mgr, mut tz, mut tas, mut store, mut spill) = kv_store(format);
    let mut rng = DetRng::new(0x5EA2 + format.id() as u64);
    let head = random_f16_page(&mut rng);
    let next = random_f16_page(&mut rng);
    let (h, _) = store
        .install(0, None, head.clone(), &mut mgr, &mut tz, &mut tas)
        .unwrap();
    // A second session references the head.
    store.acquire(0, &h).unwrap();
    let (h_next, _) = store
        .install(0, Some(&h), next.clone(), &mut mgr, &mut tz, &mut tas)
        .unwrap();
    // The same content also exists under model 1 and is sealed too — the
    // attacker will try to feed model 1's blob to model 0.
    let (h1, _) = store
        .install(1, None, head.clone(), &mut mgr, &mut tz, &mut tas)
        .unwrap();
    let blob = seal_out(&mut store, 0, &h, &mut spill);
    let blob_next = seal_out(&mut store, 0, &h_next, &mut spill);
    let blob1 = seal_out(&mut store, 1, &h1, &mut spill);
    assert_nothing_leaks(&spill, &[&head, &next]);

    let mut ciphertext = blob.clone();
    ciphertext.blob.ciphertext[7] ^= 0x01;
    let mut tag = blob.clone();
    tag.blob.tag[0] ^= 0x80;
    // Same content, same chain hash, valid seal — but the tag binds the
    // model.
    let mut model = blob1.clone();
    model.model = 0;
    // A valid blob under another sealed page's identity.
    let mut chain = blob.clone();
    chain.hash = h_next;
    for (what, forged) in [
        ("ciphertext bit", ciphertext),
        ("tag bit", tag),
        ("model relabel", model),
        ("chain relabel", chain),
    ] {
        assert_eq!(
            store.restore(forged, &mut mgr, &mut tz, &mut tas),
            Err(KvPoolError::Integrity),
            "{format:?}: {what}"
        );
    }
    let mut unknown = blob.clone();
    unknown.hash.0[0] ^= 0x01;
    assert_eq!(
        store.restore(unknown, &mut mgr, &mut tz, &mut tas),
        Err(KvPoolError::UnknownPage),
        "{format:?}: a flipped chain hash names no page"
    );

    // The honest blobs restore, and the head serves both references.
    store.restore(blob, &mut mgr, &mut tz, &mut tas).unwrap();
    store
        .restore(blob_next, &mut mgr, &mut tz, &mut tas)
        .unwrap();
    assert_eq!(store.refs(0, &h), Some(2));
    if format == SpillFormat::F16 {
        assert_eq!(store.page_data(0, &h).unwrap(), &head[..]);
        assert_eq!(store.page_data(0, &h_next).unwrap(), &next[..]);
    }
}

/// A sealed shared page survives tamper attempts: ciphertext, tag, and
/// cross-model and cross-chain relabelling are all rejected, the spill leaks
/// no plaintext block, and the honest blob restores for every referencing
/// session at once.
#[test]
fn sealed_shared_pages_are_tamper_evident_and_model_bound() {
    assert_sealed_pages_are_tamper_evident(SpillFormat::F16);
}

/// Tamper rejection of quantized blobs: the same forgeries are rejected
/// before any decryption or dequantization, exactly as for f16 blobs.
#[test]
fn quantized_blob_tampering_is_rejected() {
    for format in [SpillFormat::Int8, SpillFormat::Int4] {
        assert_sealed_pages_are_tamper_evident(format);
    }
}

/// Freshness without a version counter: a session's tail page is rewritten
/// as it fills, and the rewrite is a new chain identity.  Once the old
/// version is released and evicted, its still validly sealed blob names no
/// page, so handing it back restores nothing.
#[test]
fn stale_kv_blob_is_rejected_after_its_page_is_rewritten() {
    let (mut mgr, mut tz, mut tas, mut store, mut spill) = kv_store(SpillFormat::F16);
    let mut rng = DetRng::new(0x57A1E);
    let root = session_root(7);
    let (v1, _) = store
        .install(
            0,
            Some(&root),
            random_page(&mut rng),
            &mut mgr,
            &mut tz,
            &mut tas,
        )
        .unwrap();
    let stale = seal_out(&mut store, 0, &v1, &mut spill);
    store
        .restore(stale.clone(), &mut mgr, &mut tz, &mut tas)
        .unwrap();

    // The session rewrites the page: version 1 goes, version 2 is sealed.
    store.release(0, &v1).unwrap();
    store.evict(0, &v1).unwrap();
    let current = random_page(&mut rng);
    let (v2, _) = store
        .install(0, Some(&root), current.clone(), &mut mgr, &mut tz, &mut tas)
        .unwrap();
    let fresh = seal_out(&mut store, 0, &v2, &mut spill);

    let resident = store.resident_pages();
    assert!(
        store.restore(stale, &mut mgr, &mut tz, &mut tas).is_err(),
        "the version-1 blob restored after the page was rewritten"
    );
    assert_eq!(store.resident_pages(), resident);
    store.restore(fresh, &mut mgr, &mut tz, &mut tas).unwrap();
    assert_eq!(store.page_data(0, &v2).unwrap(), &current[..]);
}

/// A sealed blob restores at most once: a second hand-back of the same blob
/// fails and claims no second secure page.
#[test]
fn a_kv_blob_restores_at_most_once() {
    let (mut mgr, mut tz, mut tas, mut store, mut spill) = kv_store(SpillFormat::F16);
    let mut rng = DetRng::new(0x0DCE);
    let (h, _) = store
        .install(
            0,
            Some(&session_root(7)),
            random_page(&mut rng),
            &mut mgr,
            &mut tz,
            &mut tas,
        )
        .unwrap();
    let blob = seal_out(&mut store, 0, &h, &mut spill);
    store
        .restore(blob.clone(), &mut mgr, &mut tz, &mut tas)
        .unwrap();
    let resident = store.resident_pages();
    assert!(
        store.restore(blob, &mut mgr, &mut tz, &mut tas).is_err(),
        "the same blob restored twice"
    );
    assert_eq!(store.resident_pages(), resident);
}

/// Copy-on-divergence keeps private suffixes private: two sessions share a
/// head page, then diverge; each divergent page has its own chain identity
/// and reference count, one session's release never disturbs the other's
/// suffix, and no chain that reproduces only the head can name either
/// private page.
#[test]
fn copy_on_divergence_keeps_suffixes_private() {
    let (mut mgr, mut tz, mut tas, mut store, _spill) = kv_store(SpillFormat::F16);
    let mut rng = DetRng::new(0xD1FF);
    let head = random_page(&mut rng);
    let suffix_a = random_page(&mut rng);
    let suffix_b = random_page(&mut rng);

    // Session A: [head][suffix_a]; session B: [head][suffix_b].
    let (h_head, _) = store
        .install(0, None, head.clone(), &mut mgr, &mut tz, &mut tas)
        .unwrap();
    let (h_a, refs_a) = store
        .install(
            0,
            Some(&h_head),
            suffix_a.clone(),
            &mut mgr,
            &mut tz,
            &mut tas,
        )
        .unwrap();
    let (_, head_refs) = store
        .install(0, None, head.clone(), &mut mgr, &mut tz, &mut tas)
        .unwrap();
    let (h_b, refs_b) = store
        .install(
            0,
            Some(&h_head),
            suffix_b.clone(),
            &mut mgr,
            &mut tz,
            &mut tas,
        )
        .unwrap();
    assert_eq!(head_refs, 2, "the head is shared");
    assert_eq!((refs_a, refs_b), (1, 1), "suffixes are private");
    assert_ne!(h_a, h_b, "divergent content, divergent identity");
    assert_eq!(
        store.resident_pages(),
        3,
        "head stored once, suffixes apart"
    );

    // A page is only reachable by reproducing its exact chain: B cannot
    // derive A's suffix identity from anything it knows short of A's bytes.
    assert_ne!(PageHash::chain(Some(&h_head), &suffix_b), h_a);

    // Session B releases everything; A's state is untouched.
    store.release(0, &h_head).unwrap();
    store.release(0, &h_b).unwrap();
    store.evict(0, &h_b).unwrap();
    assert_eq!(store.page_data(0, &h_a).unwrap(), &suffix_a[..]);
    assert_eq!(store.refs(0, &h_head), Some(1), "A still holds the head");
    // The head cannot be evicted while A references it.
    assert!(matches!(
        store.evict(0, &h_head),
        Err(KvPoolError::StillReferenced(1))
    ));
}

/// Quantized sealed spill, the round-trip property: quantize → seal → spill
/// → restore → dequantize reproduces every element within the format's
/// per-block error bound, the spill region holds the *compressed* payload
/// (2–4× denser than f16), and no 16-byte block of the original plaintext is
/// observable in normal-world memory.
#[test]
fn quantized_kv_spill_roundtrips_within_error_bound_and_leaks_nothing() {
    for format in [SpillFormat::Int8, SpillFormat::Int4] {
        let (mut mgr, mut tz, mut tas, mut store, mut spill) = kv_store(format);
        let mut rng = DetRng::new(0x0f16 + format.id() as u64);
        let mut parent = session_root(2);
        let mut pages = Vec::new();
        for _ in 0..4 {
            let page = random_f16_page(&mut rng);
            let (h, _) = store
                .install(0, Some(&parent), page.clone(), &mut mgr, &mut tz, &mut tas)
                .unwrap();
            let idx = store.spill(0, &h, &mut spill).unwrap();
            assert_eq!(
                spill.get(idx).blob.ciphertext.len(),
                format.sealed_len(PAGE_SIZE as usize),
                "the spill holds the compressed payload, not f16"
            );
            pages.push((h, page));
            parent = h;
        }
        assert!(format.expansion(PAGE_SIZE as usize) > 1.9);
        assert_eq!(
            spill.payload_bytes(),
            4 * format.sealed_len(PAGE_SIZE as usize) as u64,
            "the CMA pays for the quantized payload, not the f16 pages"
        );

        // Confidentiality: even quantized, nothing recognisable leaks.
        assert_nothing_leaks(&spill, &pages.iter().map(|(_, p)| p).collect::<Vec<_>>());

        // Round-trip accuracy: within one scale step per element.
        let bound = format.error_bound(8.0);
        for (i, (h, page)) in pages.iter().enumerate() {
            store
                .restore(spill.get(i).clone(), &mut mgr, &mut tz, &mut tas)
                .unwrap();
            let restored = store.page_data(0, h).unwrap();
            assert_eq!(restored.len(), page.len());
            for e in 0..page.len() / 2 {
                let err = (read_f16(page, e) - read_f16(restored, e)).abs();
                assert!(err <= bound, "{format:?} page {i} elem {e}: err {err}");
            }
        }
    }
}

/// Format confusion is rejected by the MAC: an INT4 blob relabelled INT8
/// (which would make the dequantizer mis-parse scales as codes) or F16
/// fails verification — the seal binds the format id and both lengths, not
/// just the page identity — while the honest blob restores to the INT4
/// approximation of the page.
#[test]
fn format_confusion_between_int4_and_int8_is_rejected() {
    let (mut mgr, mut tz, mut tas, mut store, mut spill) = kv_store(SpillFormat::Int4);
    let mut rng = DetRng::new(0x4bad);
    let page = random_f16_page(&mut rng);
    let (h, _) = store
        .install(0, None, page.clone(), &mut mgr, &mut tz, &mut tas)
        .unwrap();
    let idx = store.spill(0, &h, &mut spill).unwrap();
    for relabel in [SpillFormat::Int8, SpillFormat::F16] {
        let mut forged = spill.get(idx).clone();
        forged.format = relabel;
        assert_eq!(
            store.restore(forged, &mut mgr, &mut tz, &mut tas),
            Err(KvPoolError::Integrity),
            "INT4 blob relabelled {relabel:?} must fail the MAC"
        );
    }
    store
        .restore(spill.take(idx), &mut mgr, &mut tz, &mut tas)
        .unwrap();
    let restored = store.page_data(0, &h).unwrap();
    let bound = SpillFormat::Int4.error_bound(8.0);
    for e in 0..page.len() / 2 {
        let err = (read_f16(&page, e) - read_f16(restored, e)).abs();
        assert!(err <= bound, "elem {e}: err {err} > bound {bound}");
    }
}

/// A compromised LLM TA cannot reach another TA's memory, and a malicious REE
/// scheduler cannot run a TA thread past a TEE-managed lock.
#[test]
fn ta_isolation_and_thread_order_enforcement() {
    let platform = Platform::rk3588();
    let mut tas = TaRegistry::new();
    let llm = tas.register("llm-ta", true);
    let keymaster = tas.register("keymaster-ta", false);
    tas.map(
        keymaster,
        PhysRange::new(PhysAddr::new(0x3_0000_0000), 0x10000),
    )
    .unwrap();
    assert!(tas
        .check_access(llm, PhysRange::new(PhysAddr::new(0x3_0000_0000), 0x1000))
        .is_err());

    let mut threads = ShadowThreadManager::new(platform);
    let t1 = threads.create_thread(llm);
    let t2 = threads.create_thread(llm);
    let lock = threads.create_mutex();
    assert!(threads.mutex_lock(lock, t1).unwrap());
    assert!(!threads.mutex_lock(lock, t2).unwrap());
    // The REE scheduler tries to force t2 to run anyway.
    let (outcome, _) = threads.resume(t2).unwrap();
    assert_eq!(outcome, tee_kernel::ResumeOutcome::RefusedBlocked(lock));
}

/// The NPU launch path enforces TZPC/TZASC state: the REE cannot launch while
/// the NPU is secured, and a secure job whose context lies outside secure
/// memory is rejected before it ever reaches the device.
#[test]
fn npu_launch_respects_world_configuration() {
    let platform = Platform::rk3588();
    let mut device = NpuDevice::new(3);
    platform.with_tzpc(|t| t.set_secure(World::Secure, DeviceId::Npu, true).unwrap());
    let ree_job = NpuJob::non_secure(
        JobId(9),
        ExecutionContext::empty(),
        SimDuration::from_millis(1),
        "ree",
    );
    assert!(device
        .launch(&platform, World::NonSecure, ree_job, SimTime::ZERO)
        .is_err());

    let mut tee = TeeNpuDriver::new(platform);
    let outside = ExecutionContext {
        command_buffer: PhysRange::new(PhysAddr::new(0x8000_0000), 0x1000),
        io_page_table: PhysRange::new(PhysAddr::new(0x8000_1000), 0x1000),
        inputs: vec![],
        outputs: vec![],
    };
    assert!(matches!(
        tee.init_secure_job(NpuJob::secure(
            JobId(10),
            outside,
            SimDuration::from_millis(1),
            "bad"
        )),
        Err(SecurityViolation::ContextNotSecure(_))
    ));
}
