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
//! * [`resource`] — server pools for CPU cores / NPU / I/O engine.
//! * [`engine`] — a generic discrete-event engine for concurrency experiments.
//! * [`trace`] — span recording for figure generation and ordering assertions.
//! * [`telemetry`] — zero-cost-when-off serving telemetry: a span store of
//!   request/lane tracks over interned labels, with Perfetto trace export.
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
pub mod trace;

pub use bandwidth::{Bandwidth, GIB, KIB, MIB};
pub use engine::{Engine, EventScheduler};
pub use metrics::{GaugeWindow, LogHistogram, WindowedMetrics};
pub use resource::{CapacityLedger, LaneEvent, LaneId, LaneUsage, Reservation, ServerPool};
pub use rng::{shard_seed, DetRng};
pub use stats::PercentileSummary;
pub use telemetry::{Interner, LabelId, Phase, Telemetry, TelemetrySpan, Track};
pub use time::{SimDuration, SimTime};
pub use trace::{Span, SpanKind, Trace};
