//! Zero-cost-when-off telemetry: the one span store.
//!
//! The serving layer's step loop explains *where each request's latency
//! went* by recording phase spans into a [`Telemetry`] side buffer: one
//! track per request (its lifecycle tiles `[arrival, first_token]` exactly,
//! so the span sum reconciles with the recorded TTFT), plus one track per
//! device lane (step/chunk/draft/seal spans, occupancy intervals derived
//! from the [`crate::resource::CapacityLedger`] journal), and
//! [`Telemetry::chrome_trace_json`] exports them as Chrome trace-event JSON
//! that Perfetto loads directly.  The §4.1 pipeline simulator records its
//! per-operator schedule into the same store (`cpu`, `npu` and `io` lane
//! tracks, one [`Phase`] per operator kind), so a restore schedule exports
//! through the same path.  Numbers — counters, gauges, latency
//! distributions — are not kept here: they live once, in
//! [`crate::metrics::WindowedMetrics`].
//!
//! The hard invariant is that telemetry is *observe-only*: every recording
//! method appends to a side buffer and returns — it never draws randomness,
//! never schedules an event, and early-returns before even interning a
//! label when the subsystem is disabled, so a `Telemetry::off()` instance
//! costs one branch per call site and an enabled one changes no simulated
//! time or statistic (the serial-reproduction suite proves this bit for
//! bit against the committed baseline).
//!
//! Labels are interned by [`Interner`] into dense [`LabelId`]s, so a
//! million spans over a handful of distinct labels cost a million
//! four-byte ids, not a million `String` allocations.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::time::{SimDuration, SimTime};

/// Interned label identifier: an index into an [`Interner`]'s table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(u32);

impl LabelId {
    /// The label's position in its interner's table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A string interner handing out dense [`LabelId`]s.  Interning the same
/// text twice returns the same id; each distinct text is allocated once,
/// shared by the lookup map and the id table.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    ids: HashMap<Arc<str>, u32>,
    names: Vec<Arc<str>>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Interns `name`, returning its dense id (allocating only on first
    /// sight of the text).
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.ids.get(name) {
            return LabelId(id);
        }
        let shared: Arc<str> = Arc::from(name);
        let id = self.names.len() as u32;
        self.ids.insert(Arc::clone(&shared), id);
        self.names.push(shared);
        LabelId(id)
    }

    /// Resolves an id back to its text.
    ///
    /// # Panics
    /// Panics if `id` came from a different interner.
    pub fn resolve(&self, id: LabelId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct labels interned.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Which timeline a span belongs to: one per request (lifecycle phases) or
/// one per device lane (steps, chunks, occupancy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// The request's own lifecycle timeline, keyed by request id.
    Request(u64),
    /// A device lane's timeline, keyed by the interned lane name.
    Lane(LabelId),
}

/// The phase a span records.  The request-lifecycle phases
/// ([`Phase::counts_toward_ttft`]) tile `[arrival, first_token]` without
/// gaps or overlap, so their sum reconciles exactly with the recorded
/// end-to-end TTFT; lane-track phases annotate device activity and never
/// enter that sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Waiting in the admission queue (arrival → dispatch).
    Queued,
    /// Framework init / checkpoint restore at the head of the service.
    FrameworkInit,
    /// Secure working-memory (CMA) allocation.
    WorkingAlloc,
    /// Unsealing (MAC + decrypt + dequant) the session's sealed KV prefix.
    KvUnseal,
    /// The pipelined restoration window up to the prefill's NPU window.
    RestorePipeline,
    /// Prefill: the NPU window, plus the chunk-interleave wait until the
    /// first token lands.
    Prefill,
    /// Decoding (first token → completion); excluded from the TTFT sum.
    Decode,
    /// A background restore-ahead interval on the flash/decrypt lanes.
    RestoreAhead,
    /// One batched NPU step (lane track).
    BatchStep,
    /// One prefill chunk inside a batched step (lane track).
    PrefillChunk,
    /// The serial draft-proposal rounds at the head of a speculative step.
    SpecDraft,
    /// The target's verify sweep of a speculative step.
    SpecVerify,
    /// Sealing / spilling KV pages at request completion.
    Seal,
    /// A lane-occupancy interval derived from the capacity-ledger journal.
    Occupancy,
    /// A §4.1 pipeline allocation (CMA migration) operator (lane track).
    Allocation,
    /// A pipeline parameter-loading (flash read) operator (lane track).
    Loading,
    /// A pipeline parameter-decryption operator (lane track).
    Decryption,
    /// A pipeline computation operator on a CPU core (lane track).
    CpuCompute,
    /// A pipeline computation operator on the NPU (lane track).
    NpuCompute,
}

impl Phase {
    /// Short category label used in the trace-event export.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::FrameworkInit => "framework-init",
            Phase::WorkingAlloc => "working-alloc",
            Phase::KvUnseal => "kv-unseal",
            Phase::RestorePipeline => "restore-pipeline",
            Phase::Prefill => "prefill",
            Phase::Decode => "decode",
            Phase::RestoreAhead => "restore-ahead",
            Phase::BatchStep => "batch-step",
            Phase::PrefillChunk => "prefill-chunk",
            Phase::SpecDraft => "spec-draft",
            Phase::SpecVerify => "spec-verify",
            Phase::Seal => "seal",
            Phase::Occupancy => "occupancy",
            Phase::Allocation => "alloc",
            Phase::Loading => "load",
            Phase::Decryption => "decrypt",
            Phase::CpuCompute => "cpu-compute",
            Phase::NpuCompute => "npu-compute",
        }
    }

    /// Whether the phase is part of the request-lifecycle tiling of
    /// `[arrival, first_token]` — the spans whose durations must sum to the
    /// request's end-to-end TTFT.
    pub fn counts_toward_ttft(self) -> bool {
        matches!(
            self,
            Phase::Queued
                | Phase::FrameworkInit
                | Phase::WorkingAlloc
                | Phase::KvUnseal
                | Phase::RestorePipeline
                | Phase::Prefill
        )
    }
}

/// One recorded interval on a track.
#[derive(Debug, Clone)]
pub struct TelemetrySpan {
    /// The timeline the span lives on.
    pub track: Track,
    /// Phase category.
    pub phase: Phase,
    /// Interned display label (resolve via [`Telemetry::resolve`]).
    pub label: LabelId,
    /// Start instant.
    pub start: SimTime,
    /// End instant (`>= start`).
    pub end: SimTime,
}

impl TelemetrySpan {
    /// Length of the span.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// The telemetry subsystem: an append-only span store keyed by interned
/// labels.  Disabled instances ignore every recording call.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    enabled: bool,
    interner: Interner,
    spans: Vec<TelemetrySpan>,
    /// Human-readable track names for the exporter's thread metadata.
    track_names: BTreeMap<Track, LabelId>,
}

impl Telemetry {
    /// Creates a telemetry instance; a disabled one ignores every
    /// recording call at the cost of one branch.
    pub fn new(enabled: bool) -> Self {
        Telemetry {
            enabled,
            ..Telemetry::default()
        }
    }

    /// A disabled instance.
    pub fn off() -> Self {
        Telemetry::new(false)
    }

    /// Whether recording is live.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Interns a label (usable even while disabled, e.g. to pre-register
    /// lane names).
    pub fn intern(&mut self, name: &str) -> LabelId {
        self.interner.intern(name)
    }

    /// Resolves an interned label back to its text.
    pub fn resolve(&self, id: LabelId) -> &str {
        self.interner.resolve(id)
    }

    /// Names a track for the exporter (e.g. `"req 3 qwen2.5-3b (chat)"`).
    pub fn name_track(&mut self, track: Track, name: &str) {
        if !self.enabled {
            return;
        }
        let id = self.interner.intern(name);
        self.track_names.insert(track, id);
    }

    /// Records one span.
    pub fn span(&mut self, track: Track, phase: Phase, label: &str, start: SimTime, end: SimTime) {
        if !self.enabled {
            return;
        }
        debug_assert!(end >= start, "telemetry span must not end before it starts");
        let label = self.interner.intern(label);
        self.spans.push(TelemetrySpan {
            track,
            phase,
            label,
            start,
            end,
        });
    }

    /// All recorded spans in insertion order.
    pub fn spans(&self) -> &[TelemetrySpan] {
        &self.spans
    }

    /// The lifecycle spans of one request's track.
    pub fn request_spans(&self, id: u64) -> impl Iterator<Item = &TelemetrySpan> {
        self.spans
            .iter()
            .filter(move |s| s.track == Track::Request(id))
    }

    /// Sum of the request's TTFT-tiling phase spans — must equal its
    /// recorded end-to-end TTFT (the reconciliation tests assert it).
    pub fn request_ttft_span_sum(&self, id: u64) -> SimDuration {
        self.request_spans(id)
            .filter(|s| s.phase.counts_toward_ttft())
            .map(TelemetrySpan::duration)
            .sum()
    }

    /// Exports the span store as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` object format), loadable in Perfetto or
    /// `chrome://tracing`.  Requests render as threads of process 0 and
    /// lanes as threads of process 1; timestamps are microseconds of
    /// simulated time.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        let push = |out: &mut String, line: &str, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(line);
        };
        push(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"requests\"}}",
            &mut first,
        );
        push(
            &mut out,
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"lanes\"}}",
            &mut first,
        );
        for (&track, &name) in &self.track_names {
            let (pid, tid) = track_ids(track);
            let line = format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                escape_json(self.interner.resolve(name))
            );
            push(&mut out, &line, &mut first);
        }
        for s in &self.spans {
            let (pid, tid) = track_ids(s.track);
            let ts = s.start.as_nanos() as f64 / 1e3;
            let dur = s.duration().as_nanos() as f64 / 1e3;
            let line = format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
                 \"pid\":{pid},\"tid\":{tid}}}",
                escape_json(self.interner.resolve(s.label)),
                s.phase.label()
            );
            push(&mut out, &line, &mut first);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Perfetto process/thread placement of a track: requests are threads of
/// process 0 (tid = request id + 1), lanes threads of process 1 (tid =
/// interned lane id + 1); tid 0 of each process carries its metadata.
fn track_ids(track: Track) -> (u64, u64) {
    match track {
        Track::Request(id) => (0, id + 1),
        Track::Lane(label) => (1, label.index() as u64 + 1),
    }
}

/// Escapes a label for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn interner_dedups() {
        let mut i = Interner::new();
        let a = i.intern("flash");
        let b = i.intern("flash");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
        assert_eq!(i.resolve(a), "flash");
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let mut t9 = Telemetry::off();
        t9.span(Track::Request(0), Phase::Queued, "queued", t(0), t(5));
        t9.name_track(Track::Request(0), "req 0");
        assert!(t9.spans().is_empty());
        assert!(t9.track_names.is_empty());
    }

    #[test]
    fn ttft_span_sum_covers_only_lifecycle_phases() {
        let mut tel = Telemetry::new(true);
        tel.span(Track::Request(7), Phase::Queued, "queued", t(0), t(10));
        tel.span(Track::Request(7), Phase::Prefill, "prefill", t(10), t(30));
        tel.span(Track::Request(7), Phase::Decode, "decode", t(30), t(90));
        let lane = tel.intern("npu");
        tel.span(Track::Lane(lane), Phase::BatchStep, "step", t(10), t(30));
        assert_eq!(
            tel.request_ttft_span_sum(7),
            SimDuration::from_millis(30),
            "decode and lane spans stay out of the TTFT sum"
        );
    }

    #[test]
    fn chrome_export_is_wellformed_and_escaped() {
        let mut tel = Telemetry::new(true);
        tel.name_track(Track::Request(0), "req \"zero\"\n");
        tel.span(Track::Request(0), Phase::Queued, "queued", t(0), t(2));
        let lane = tel.intern("npu");
        tel.span(Track::Lane(lane), Phase::Occupancy, "npu=1", t(0), t(4));
        let json = tel.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":[") && json.trim_end().ends_with("]}"));
        assert!(json.contains("\\\"zero\\\"\\n"), "labels are escaped");
        assert_eq!(
            json.matches("\"ph\":\"X\"").count(),
            2,
            "one event per span"
        );
        assert_eq!(
            json.matches("\"ph\":\"M\"").count(),
            3,
            "two process names plus one named track"
        );
        // Balanced braces/brackets outside string context — a cheap
        // structural check; CI additionally runs the export through a real
        // JSON parser.
        let depth_ok = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth_ok, 0);
    }
}
