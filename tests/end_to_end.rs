//! Cross-crate integration tests: the full protected-inference lifecycle on
//! the simulated platform, from provisioning the encrypted model to serving a
//! request, plus the end-to-end performance relations the paper claims.

use llm::{ComputationGraph, FunctionalModel, ModelSpec, PackedModel, Tokenizer};
use ree_kernel::{CmaPool, CmaRegion, FileContent, FileSystem, FlashDevice, TzDriver};
use sim_core::{Bandwidth, GIB};
use tee_kernel::{CheckpointStore, KeyService, SecureMemoryManager, TaRegistry};
use tz_crypto::{HardwareUniqueKey, ModelKey, WrappedModelKey};
use tz_hal::{DeviceId, PhysAddr, PhysRange, Platform, PlatformProfile, World};
use tzllm::{evaluate, InferenceConfig, SystemKind};

fn device_fs() -> FileSystem {
    FileSystem::new(FlashDevice::new(Bandwidth::from_gib_per_sec(2.0), 2.5))
}

/// The full lifecycle: pack → provision → scale secure memory → restore a
/// tensor through the untrusted file system → run a functional inference.
#[test]
fn protected_inference_lifecycle() {
    let platform = Platform::rk3588();
    let spec = ModelSpec::nano();

    // Provider packs the model; device wraps the key.
    let provider_key = ModelKey::derive(b"provider", &spec.name);
    let packed = PackedModel::pack_functional(&spec, &provider_key, [1u8; 16], 77);
    let huk = HardwareUniqueKey::provision("integration-device");
    let wrapped = WrappedModelKey::wrap(&huk, &provider_key, [2u8; 16]);

    // REE side: file system with the encrypted blob, TZ driver with CMA pools.
    let mut fs = device_fs();
    fs.write_file("nano.enc", FileContent::Bytes(packed.blob.clone().unwrap()));
    let params_pool = CmaRegion::new(
        PhysRange::new(PhysAddr::new(0x1_0000_0000), GIB),
        platform.profile.cma_bandwidth(),
        platform.profile.page_alloc_ns,
    );
    let working_pool = CmaRegion::new(
        PhysRange::new(PhysAddr::new(0x2_0000_0000), GIB / 2),
        platform.profile.cma_bandwidth(),
        platform.profile.page_alloc_ns,
    );
    let mut tz_driver = TzDriver::new(platform.clone(), params_pool, working_pool);

    // TEE side: register the LLM TA, its key, and a scalable secure region.
    let mut tas = TaRegistry::new();
    let llm_ta = tas.register("llm-ta", true);
    let mut keys = KeyService::new(huk);
    keys.register_model_key(spec.name.clone(), wrapped);
    let model_key = keys.unwrap_for(&tas, llm_ta, &spec.name).unwrap();

    let mut secmem = SecureMemoryManager::new(platform.clone());
    let region = secmem.create_region(CmaPool::Parameters, llm_ta, vec![DeviceId::Npu]);

    // Scale up enough secure memory for the whole nano model.
    let need = (packed.header.blob_bytes).div_ceil(tz_hal::PAGE_SIZE) * tz_hal::PAGE_SIZE;
    secmem
        .extend_allocated(region, need, &mut tz_driver)
        .unwrap();
    secmem.extend_protected(region, need, &mut tas).unwrap();
    let protected = secmem.region(region).protected_range();

    // The REE cannot read the protected parameters; the secure world can.
    assert!(platform
        .with_tzasc(|t| t.check_cpu_access(World::NonSecure, protected))
        .is_err());
    assert!(platform
        .with_tzasc(|t| t.check_cpu_access(World::Secure, protected))
        .is_ok());

    // Restore every tensor through the untrusted file system, verifying the
    // per-tensor checksum before decrypting.
    for entry in &packed.header.tensors {
        let read = fs.read("nano.enc", entry.offset, entry.bytes).unwrap();
        let plain = packed
            .decrypt_tensor(&model_key, &entry.name, &read.data.unwrap())
            .unwrap();
        assert_eq!(plain.len() as u64, entry.bytes);
    }

    // A functional forward pass generates deterministic tokens.
    let tokenizer = Tokenizer::with_default_merges();
    let prompt: Vec<usize> = tokenizer
        .encode("open the settings app")
        .iter()
        .map(|&t| t as usize)
        .collect();
    let model = FunctionalModel::generate(&spec, 77);
    let out_a = model.generate_greedy(&prompt, 6);
    let out_b = model.generate_greedy(&prompt, 6);
    assert_eq!(out_a, out_b);
    assert_eq!(out_a.len(), 6);

    // Tear down: shrink everything back; the REE regains access.
    secmem
        .shrink(region, need, &mut tas, &mut tz_driver)
        .unwrap();
    assert!(platform
        .with_tzasc(|t| t.check_cpu_access(World::NonSecure, protected))
        .is_ok());
    assert_eq!(tz_driver.pool(CmaPool::Parameters).allocated_bytes(), 0);
}

/// The framework checkpoint round-trips through the untrusted file system and
/// restores far faster than a cold initialisation.
#[test]
fn checkpoint_cycle_through_ree_storage() {
    let profile = PlatformProfile::rk3588();
    let huk = HardwareUniqueKey::provision("integration-device");
    let mut fs = device_fs();
    let mut store = CheckpointStore::new(
        "llm.ckpt",
        profile.checkpoint_restore,
        profile.decrypt_bytes_per_sec,
    );

    let tokenizer = Tokenizer::with_default_merges();
    let state = tokenizer.to_checkpoint_bytes();
    store.save(&huk, &mut fs, &state);

    let restored = store.restore(&huk, &mut fs).unwrap();
    let restored_tokenizer = Tokenizer::from_checkpoint_bytes(&restored.state).unwrap();
    assert_eq!(
        restored_tokenizer.encode("hello world"),
        tokenizer.encode("hello world")
    );
    assert!(restored.duration < profile.framework_init_total() / 4);
}

/// End-to-end TTFT and decode-speed relations across the four systems for
/// every catalogue model and the paper's prompt lengths.
#[test]
fn headline_performance_relations_hold() {
    let profile = PlatformProfile::rk3588();
    for model in ModelSpec::catalogue() {
        for prompt in [32usize, 512] {
            let cfg = InferenceConfig::paper_default(model.clone(), prompt);
            let memory = evaluate(SystemKind::ReeLlmMemory, &profile, &cfg);
            let flash = evaluate(SystemKind::ReeLlmFlash, &profile, &cfg);
            let tz = evaluate(SystemKind::TzLlm, &profile, &cfg);
            let straw = evaluate(SystemKind::Strawman, &profile, &cfg);

            // Who wins, and by roughly what factor.
            assert!(memory.ttft <= flash.ttft);
            assert!(flash.ttft <= tz.ttft);
            let reduction = 1.0 - tz.ttft.as_secs_f64() / straw.ttft.as_secs_f64();
            assert!(reduction > 0.70, "{} @{prompt}: {reduction}", model.name);

            // Decoding: TZ-LLM between the strawman and the REE baseline.
            assert!(tz.decode_tokens_per_sec > straw.decode_tokens_per_sec);
            assert!(tz.decode_tokens_per_sec < memory.decode_tokens_per_sec);
        }
    }
}

/// The prefill graph the pipeline restores is exactly the model the packer
/// laid out: same tensors, same order, same sizes.
#[test]
fn graph_and_packed_layout_agree() {
    let spec = ModelSpec::qwen2_5_3b();
    let key = ModelKey::derive(b"provider", &spec.name);
    let packed = PackedModel::pack_shape_only(&spec, &key, [5u8; 16]);
    let graph = ComputationGraph::prefill(&spec, 64);
    let layout = graph.param_layout();
    assert_eq!(layout.len(), packed.header.tensors.len());
    for (slice, entry) in layout.iter().zip(&packed.header.tensors) {
        assert_eq!(slice.name, entry.name);
        assert_eq!(slice.offset, entry.offset);
        assert_eq!(slice.bytes, entry.bytes);
    }
}
