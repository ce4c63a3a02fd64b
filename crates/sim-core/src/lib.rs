//! # sim-core
//!
//! Discrete-event simulation substrate for the TZ-LLM reproduction.
//!
//! The paper's prototype runs on a Rockchip RK3588 board; this reproduction
//! replaces the physical hardware with a calibrated, fully deterministic
//! simulation.  This crate provides the building blocks shared by every other
//! crate in the workspace:
//!
//! * [`time`] — virtual nanosecond clock ([`SimTime`], [`SimDuration`]).
//! * [`bandwidth`] — constant-throughput device helpers ([`Bandwidth`]).
//! * [`resource`] — the capacity ledger the serving dispatcher books its
//!   CPU / NPU / flash lanes on.
//! * [`engine`] — a generic discrete-event engine for concurrency experiments.
//! * [`telemetry`] — the one zero-cost-when-off span store: request and
//!   lane tracks over interned labels, with Perfetto trace export.  The
//!   serving layer and the §4.1 pipeline simulator both record into it.
//! * [`metrics`] — windowed metrics, where every reported number lives:
//!   per-window counters/gauges and mergeable log-bucketed latency
//!   histograms (≤1% quantile error).
//! * [`stats`] — means, geometric means, percentiles, overhead computations.
//! * [`rng`] — deterministic random streams for workload generation.

pub mod bandwidth;
pub mod engine;
pub mod metrics;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use bandwidth::{Bandwidth, GIB, KIB, MIB};
pub use engine::{Engine, EventScheduler};
pub use metrics::{GaugeWindow, LogHistogram, WindowedMetrics};
pub use resource::{CapacityLedger, LaneEvent, LaneId, LaneUsage};
pub use rng::{shard_seed, DetRng};
pub use stats::PercentileSummary;
pub use telemetry::{Interner, LabelId, Phase, Telemetry, TelemetrySpan, Track};
pub use time::{SimDuration, SimTime};
