//! Platform calibration profile.
//!
//! Every performance number in the simulation flows from this profile, which
//! is calibrated against the measurements the paper reports for its testbed
//! (Orange Pi 5 Plus, RK3588, 16 GB LPDDR4X, 1 TB NVMe PCIe 3.0 x4, 6-TOPS
//! NPU):
//!
//! * sequential flash read ≈ 2 GB/s (§2.4.2),
//! * single-thread CMA migration ≈ 1.9 GB/s, 3.8 GB/s with 4 threads (§2.4.2),
//! * parameter decryption of 8137 MB in ≈ 892 ms (Figure 1),
//! * CMA allocation of 8137 MB in ≈ 4.2 s under pressure (Figure 1),
//! * NPU prefill speed-up 12.5×, decode speed-up 1.3× over CPU (§2.3),
//! * full REE NPU driver detach-attach ≈ 32 ms (§2.3),
//! * llama.cpp metadata/boot/tokenizer init ≈ 2.3 s (Figure 1).
//!
//! The absolute numbers do not need to match the paper exactly — the figures
//! compare *systems against each other* — but anchoring them to the reported
//! values keeps the crossover points (e.g. where restoration stops being the
//! TTFT bottleneck) in the right place.

use serde::{Deserialize, Serialize};
use sim_core::{Bandwidth, SimDuration};

/// Calibrated hardware/software constants for the simulated platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlatformProfile {
    /// SoC name the calibration models (`"rk3588"`, `"rk3576"`, `"rk3566"`)
    /// — carried into fleet-shard stats so heterogeneous device mixes stay
    /// attributable per shard.
    pub soc: &'static str,
    /// Number of big CPU cores available to the LLM TA (Cortex-A76 on RK3588).
    pub big_cores: usize,
    /// Number of little CPU cores (run REE background work in the experiments).
    pub little_cores: usize,
    /// Number of NPU cores.
    pub npu_cores: usize,
    /// Total DRAM size in bytes (16 GiB on the testbed).
    pub dram_bytes: u64,
    /// Effective DRAM bandwidth available to a single inference context
    /// (bytes/s); decoding is memory-bandwidth bound.
    pub dram_bandwidth_bytes_per_sec: f64,

    /// Sequential read bandwidth of the flash device (bytes/s).
    pub flash_read_bytes_per_sec: f64,

    /// Single-thread CMA migration throughput (bytes/s).
    pub cma_migration_bytes_per_sec: f64,
    /// Maximum number of CMA migration threads the TZ driver uses.
    pub cma_migration_threads: usize,
    /// Cost of allocating one free (non-migrated) page via the buddy path (ns).
    pub page_alloc_ns: u64,
    /// Cost of zeroing/clearing one page when secure memory is revoked (ns).
    pub page_clear_ns: u64,

    /// AES-CTR decryption throughput inside the TEE (bytes/s).
    pub decrypt_bytes_per_sec: f64,
    /// INT8/INT4 → f16 dequantization throughput on the decrypt threads, in
    /// output (f16) bytes/s — the lane cost of expanding a quantized sealed
    /// KV page on restore.  A multiply and a pack per element on the big
    /// cores: cheaper than AES but not free, and it shares the decrypt
    /// threads, so the serving layer charges it to the same lane.
    pub dequant_bytes_per_sec: f64,

    /// CPU int8 matmul throughput for prefill, in multiply-accumulate ops/s
    /// across all big cores.
    pub cpu_int8_ops_per_sec: f64,
    /// NPU int8 matmul throughput, ops/s across all NPU cores.
    pub npu_int8_ops_per_sec: f64,

    /// Latency of one one-way SMC world switch.
    pub smc_switch: SimDuration,
    /// Latency of one TZASC region reconfiguration.
    pub tzasc_config: SimDuration,
    /// Latency of one TZPC reconfiguration.
    pub tzpc_config: SimDuration,
    /// Latency of one GIC re-route.
    pub gic_config: SimDuration,
    /// Full REE NPU driver detach-attach (the cost TZ-LLM's co-driver avoids).
    pub npu_driver_reinit: SimDuration,

    /// llama.cpp metadata-parse + boot time on a cold start.
    pub framework_meta_init: SimDuration,
    /// Tokenizer construction time on a cold start.
    pub tokenizer_init: SimDuration,
    /// Restoring the framework-state checkpoint (TZ-LLM's replacement for the
    /// two costs above).
    pub checkpoint_restore: SimDuration,
    /// KV-cache allocation time (not optimised by TZ-LLM; kept for Figure 1).
    pub kv_cache_alloc: SimDuration,
    /// Activation-buffer allocation time.
    pub activation_alloc: SimDuration,
}

impl PlatformProfile {
    /// The RK3588 (Orange Pi 5 Plus) calibration used by all experiments.
    pub fn rk3588() -> Self {
        PlatformProfile {
            soc: "rk3588",
            big_cores: 4,
            little_cores: 4,
            npu_cores: 3,
            dram_bytes: 16 * sim_core::GIB,
            dram_bandwidth_bytes_per_sec: 22.0 * 1e9,

            flash_read_bytes_per_sec: 2.0e9,

            cma_migration_bytes_per_sec: 1.9e9,
            cma_migration_threads: 4,
            page_alloc_ns: 260,
            page_clear_ns: 180,

            decrypt_bytes_per_sec: 9.2e9,
            dequant_bytes_per_sec: 8.0e9,

            // 164.5 s CPU prefill for Llama-3-8B at 512 tokens calibrates the
            // CPU rate; the NPU is ~12.5x faster end-to-end on prefill.
            cpu_int8_ops_per_sec: 2.5e10,
            npu_int8_ops_per_sec: 4.0e11,

            smc_switch: SimDuration::from_micros(12),
            tzasc_config: SimDuration::from_micros(14),
            tzpc_config: SimDuration::from_micros(10),
            gic_config: SimDuration::from_micros(8),
            npu_driver_reinit: SimDuration::from_millis(32),

            framework_meta_init: SimDuration::from_millis(447 + 59),
            tokenizer_init: SimDuration::from_millis(1799),
            checkpoint_restore: SimDuration::from_millis(140),
            kv_cache_alloc: SimDuration::from_millis(33),
            activation_alloc: SimDuration::from_millis(137),
        }
    }

    /// A midrange RK3576-class device (8 GiB LPDDR4X, UFS 2.2 flash,
    /// 6-TOPS NPU at lower clocks): every lane is derated from the RK3588
    /// anchor — ~0.7× memory/NPU bandwidth, slower flash and crypto — so a
    /// heterogeneous fleet's aggregate percentiles spread realistically
    /// without inventing a second calibration methodology.
    pub fn rk3576() -> Self {
        PlatformProfile {
            soc: "rk3576",
            big_cores: 4,
            npu_cores: 2,
            dram_bytes: 8 * sim_core::GIB,
            dram_bandwidth_bytes_per_sec: 15.0 * 1e9,
            flash_read_bytes_per_sec: 1.4e9,
            cma_migration_bytes_per_sec: 1.4e9,
            decrypt_bytes_per_sec: 6.5e9,
            dequant_bytes_per_sec: 5.6e9,
            cpu_int8_ops_per_sec: 1.8e10,
            npu_int8_ops_per_sec: 2.8e11,
            framework_meta_init: SimDuration::from_millis(620),
            tokenizer_init: SimDuration::from_millis(2200),
            checkpoint_restore: SimDuration::from_millis(180),
            ..Self::rk3588()
        }
    }

    /// An entry-level RK3566-class device (4×A55 only, 4 GiB LPDDR4, eMMC
    /// flash, 1-TOPS NPU): the slow tail of a heterogeneous fleet.  Same
    /// derating approach as [`PlatformProfile::rk3576`], pushed further.
    pub fn rk3566() -> Self {
        PlatformProfile {
            soc: "rk3566",
            big_cores: 4,
            little_cores: 0,
            npu_cores: 1,
            dram_bytes: 4 * sim_core::GIB,
            dram_bandwidth_bytes_per_sec: 10.0 * 1e9,
            flash_read_bytes_per_sec: 0.9e9,
            cma_migration_bytes_per_sec: 1.0e9,
            cma_migration_threads: 2,
            decrypt_bytes_per_sec: 3.8e9,
            dequant_bytes_per_sec: 3.2e9,
            cpu_int8_ops_per_sec: 0.9e10,
            npu_int8_ops_per_sec: 0.9e11,
            framework_meta_init: SimDuration::from_millis(850),
            tokenizer_init: SimDuration::from_millis(2900),
            checkpoint_restore: SimDuration::from_millis(240),
            ..Self::rk3588()
        }
    }

    /// Looks a calibration up by SoC name (`"rk3588"`, `"rk3576"`,
    /// `"rk3566"`); `None` for anything else.
    pub fn by_soc(name: &str) -> Option<Self> {
        match name {
            "rk3588" => Some(Self::rk3588()),
            "rk3576" => Some(Self::rk3576()),
            "rk3566" => Some(Self::rk3566()),
            _ => None,
        }
    }

    /// Flash sequential-read bandwidth as a [`Bandwidth`].
    pub fn flash_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.flash_read_bytes_per_sec)
    }

    /// Single-thread CMA migration bandwidth.
    pub fn cma_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.cma_migration_bytes_per_sec)
    }

    /// CMA migration bandwidth with `threads` worker threads (linear scaling
    /// capped at the configured maximum, matching §2.4.2's observation that 4
    /// threads reach 3.8 GB/s).
    pub fn cma_bandwidth_threads(&self, threads: usize) -> Bandwidth {
        let threads = threads.clamp(1, self.cma_migration_threads) as f64;
        // Sub-linear scaling: 1 thread = 1.9 GB/s, 4 threads = 3.8 GB/s (§2.4.2).
        let max_threads = self.cma_migration_threads.max(2) as f64;
        let factor = 1.0 + (threads - 1.0) / (max_threads - 1.0);
        Bandwidth::from_bytes_per_sec(self.cma_migration_bytes_per_sec * factor)
    }

    /// Decryption bandwidth inside the TEE.
    pub fn decrypt_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.decrypt_bytes_per_sec)
    }

    /// Total cold-start framework initialisation time (meta init + tokenizer).
    pub fn framework_init_total(&self) -> SimDuration {
        self.framework_meta_init + self.tokenizer_init
    }

    /// The cost of switching the NPU into or out of the secure world under
    /// the co-driver design: TZPC + GIC + TZASC configuration plus one SMC.
    pub fn codriver_switch_cost(&self) -> SimDuration {
        self.smc_switch + self.tzpc_config + self.gic_config + self.tzasc_config
    }
}

impl Default for PlatformProfile {
    fn default() -> Self {
        Self::rk3588()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rk3588_matches_paper_anchors() {
        let p = PlatformProfile::rk3588();
        // Flash: 8137 MB at 2 GB/s ~ 4.0-4.3 s (paper: 4054 ms).
        let load = p.flash_bandwidth().time_for_bytes(8137 * 1024 * 1024);
        assert!((load.as_secs_f64() - 4.27).abs() < 0.4, "load = {load}");
        // Decrypt: 8137 MB ~ 0.9 s (paper: 891.9 ms).
        let dec = p.decrypt_bandwidth().time_for_bytes(8137 * 1024 * 1024);
        assert!((dec.as_secs_f64() - 0.92).abs() < 0.15, "dec = {dec}");
        // Framework init ~ 2.3 s.
        assert!((p.framework_init_total().as_secs_f64() - 2.3).abs() < 0.1);
        // Co-driver switch is orders of magnitude below the 32 ms re-init.
        assert!(p.codriver_switch_cost() < p.npu_driver_reinit / 100);
    }

    #[test]
    fn cma_thread_scaling_reaches_paper_value() {
        let p = PlatformProfile::rk3588();
        let single = p.cma_bandwidth().bytes_per_sec();
        let four = p.cma_bandwidth_threads(4).bytes_per_sec();
        assert!((single - 1.9e9).abs() < 1e6);
        // 4 threads should roughly double the single-thread throughput (3.8 GB/s).
        assert!(
            (four / single - 2.0).abs() < 0.1,
            "ratio = {}",
            four / single
        );
        // More threads than the cap do not help further.
        assert_eq!(
            p.cma_bandwidth_threads(16).bytes_per_sec(),
            p.cma_bandwidth_threads(4).bytes_per_sec()
        );
    }

    #[test]
    fn npu_is_an_order_of_magnitude_faster_than_cpu() {
        let p = PlatformProfile::rk3588();
        let ratio = p.npu_int8_ops_per_sec / p.cpu_int8_ops_per_sec;
        assert!(ratio > 10.0 && ratio < 20.0, "ratio = {ratio}");
    }

    #[test]
    fn derated_socs_order_strictly_below_the_anchor() {
        let flagship = PlatformProfile::rk3588();
        let mid = PlatformProfile::rk3576();
        let entry = PlatformProfile::rk3566();
        // Every lane a fleet percentile flows through must order
        // flagship > midrange > entry, or the heterogeneous mix would not
        // actually spread the aggregate distribution.
        for f in [
            |p: &PlatformProfile| p.dram_bandwidth_bytes_per_sec,
            |p: &PlatformProfile| p.flash_read_bytes_per_sec,
            |p: &PlatformProfile| p.decrypt_bytes_per_sec,
            |p: &PlatformProfile| p.npu_int8_ops_per_sec,
            |p: &PlatformProfile| p.cpu_int8_ops_per_sec,
        ] {
            assert!(f(&flagship) > f(&mid) && f(&mid) > f(&entry));
        }
        assert!(flagship.framework_init_total() < mid.framework_init_total());
        assert!(mid.framework_init_total() < entry.framework_init_total());
    }

    #[test]
    fn by_soc_round_trips_every_calibration() {
        for name in ["rk3588", "rk3576", "rk3566"] {
            let p = PlatformProfile::by_soc(name).expect("known SoC");
            assert_eq!(p.soc, name);
        }
        assert!(PlatformProfile::by_soc("bcm2712").is_none());
    }

    #[test]
    fn default_is_rk3588() {
        let d = PlatformProfile::default();
        let p = PlatformProfile::rk3588();
        assert_eq!(d.big_cores, p.big_cores);
        assert_eq!(d.npu_cores, p.npu_cores);
        assert_eq!(d.npu_driver_reinit, p.npu_driver_reinit);
    }
}
