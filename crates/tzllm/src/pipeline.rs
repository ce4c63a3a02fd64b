//! The pipeline scheduler (§4.1).
//!
//! Simulates the execution of a [`RestorePlan`] on the platform's three
//! resource classes — a pool of CPU cores, the NPU, and the flash I/O engine —
//! under one of three scheduling policies:
//!
//! * [`Policy::Sequential`] — no pipelining: all restoration completes before
//!   any computation starts (the strawman behaviour and the
//!   "TZ-LLM (-pipeline)" ablation of Figure 13).
//! * [`Policy::Priority`] — the greedy priority rule of §4.1 without
//!   preemption: a ready CPU computation operator always wins; otherwise the
//!   restoration operator serving the earliest computation operator runs.
//! * [`Policy::PriorityPreemptive`] — the full TZ-LLM policy: allocation and
//!   decryption operators are split into micro-operators so a computation
//!   operator that becomes ready only waits until the next preemption point.
//!
//! The simulator is event-driven and fully deterministic; it produces the
//! makespan (the prefill-pipeline part of the TTFT), busy time per operator
//! class and, on request, the schedule as [`Telemetry`] spans on `cpu`,
//! `npu` and `io` lane tracks.

use std::collections::BTreeSet;

use sim_core::{Phase, SimDuration, SimTime, Telemetry, Track};

use crate::restore::{PipeOp, PipeOpKind, RestorePlan};

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Restore everything, then compute (no overlap).
    Sequential,
    /// Priority-based scheduling without preemption.
    Priority,
    /// Priority-based scheduling with preemptive micro-operators (TZ-LLM).
    PriorityPreemptive,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Number of CPU cores available to the TA.
    pub cpu_cores: usize,
    /// Preemption quantum for allocation/decryption micro-operators.
    pub preempt_quantum: SimDuration,
    /// Scheduling policy.
    pub policy: Policy,
    /// Whether to record the schedule into [`PipelineResult::trace`].  The
    /// ordering tests want it; every evaluation path simulates plans on
    /// each dispatch and turns it off — span recording (and label
    /// rendering) is pure overhead there.
    pub record_trace: bool,
}

/// Result of simulating one pipeline execution.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Completion time of the last operator (the pipeline's contribution to
    /// the TTFT).
    pub makespan: SimDuration,
    /// Busy time per operator kind.
    pub busy_alloc: SimDuration,
    /// Total loading (I/O) busy time.
    pub busy_load: SimDuration,
    /// Total decryption busy time.
    pub busy_decrypt: SimDuration,
    /// Total CPU computation busy time.
    pub busy_cpu_compute: SimDuration,
    /// Total NPU computation busy time.
    pub busy_npu_compute: SimDuration,
    /// The schedule: one span per operator or micro-operator on its
    /// resource's lane track, phased by operator kind.  Disabled (and
    /// empty) unless [`PipelineConfig::record_trace`] is set.
    pub trace: Telemetry,
}

impl PipelineResult {
    /// Total CPU time consumed by restoration work (allocation + decryption) —
    /// the REE interference source measured in Figure 16.
    pub fn restoration_cpu_time(&self) -> SimDuration {
        self.busy_alloc + self.busy_decrypt
    }
}

/// Which single-owner resource class an operator occupied while running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ResourceClass {
    /// One of the CPU cores.
    Cpu,
    /// The NPU.
    Npu,
    /// The flash I/O engine.
    Io,
}

impl ResourceClass {
    /// Every class, in discriminant order.
    const ALL: [ResourceClass; 3] = [ResourceClass::Cpu, ResourceClass::Npu, ResourceClass::Io];

    fn for_kind(kind: PipeOpKind) -> ResourceClass {
        match kind {
            PipeOpKind::Alloc | PipeOpKind::Decrypt | PipeOpKind::CpuCompute => ResourceClass::Cpu,
            PipeOpKind::NpuCompute => ResourceClass::Npu,
            PipeOpKind::Load => ResourceClass::Io,
        }
    }

    fn label(self) -> &'static str {
        match self {
            ResourceClass::Cpu => "cpu",
            ResourceClass::Npu => "npu",
            ResourceClass::Io => "io",
        }
    }
}

/// A typed operator-completion event in the simulation's event heap.
///
/// Ordered by completion time, then operator id, so ties pop
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Completion {
    at: SimTime,
    id: usize,
    resource: ResourceClass,
}

#[derive(Debug, Clone)]
struct SimOp {
    kind: PipeOpKind,
    compute_index: usize,
    duration: SimDuration,
    deps_remaining: usize,
    dependents: Vec<usize>,
    label: crate::restore::OpLabel,
}

/// Expands preemptible operators into chained micro-operators.
fn expand_micro_ops(plan: &RestorePlan, quantum: SimDuration) -> Vec<PipeOp> {
    let mut out: Vec<PipeOp> = Vec::new();
    // Map original id -> id of the *last* micro-op of that original op, so
    // dependencies land on the completion of the whole chain.
    let mut last_of: Vec<usize> = Vec::with_capacity(plan.ops.len());

    for op in &plan.ops {
        let deps: Vec<usize> = op.deps.iter().map(|&d| last_of[d]).collect();
        if !op.preemptible || op.duration <= quantum || quantum.is_zero() {
            let id = out.len();
            out.push(PipeOp {
                id,
                deps,
                ..op.clone()
            });
            last_of.push(id);
            continue;
        }
        let pieces = (op.duration.as_nanos()).div_ceil(quantum.as_nanos().max(1));
        let chunks = op.duration.split(pieces);
        let mut prev: Option<usize> = None;
        let mut first_deps = deps;
        for (i, chunk) in chunks.into_iter().enumerate() {
            let id = out.len();
            let deps = match prev {
                None => std::mem::take(&mut first_deps),
                Some(p) => vec![p],
            };
            out.push(PipeOp {
                id,
                kind: op.kind,
                compute_index: op.compute_index,
                duration: chunk,
                bytes: 0,
                deps,
                preemptible: true,
                label: op.label.with_micro(i),
            });
            prev = Some(id);
        }
        last_of.push(prev.expect("at least one micro-op"));
    }
    out
}

/// Simulates the plan under the given configuration.
pub fn simulate(plan: &RestorePlan, config: &PipelineConfig) -> PipelineResult {
    let ops_src: Vec<PipeOp> = match config.policy {
        Policy::PriorityPreemptive => expand_micro_ops(plan, config.preempt_quantum),
        _ => plan
            .ops
            .iter()
            .enumerate()
            .map(|(i, o)| PipeOp { id: i, ..o.clone() })
            .collect(),
    };

    let n = ops_src.len();
    let mut ops: Vec<SimOp> = ops_src
        .iter()
        .map(|o| SimOp {
            kind: o.kind,
            compute_index: o.compute_index,
            duration: o.duration,
            deps_remaining: o.deps.len(),
            dependents: Vec::new(),
            label: o.label,
        })
        .collect();
    for o in &ops_src {
        for &d in &o.deps {
            ops[d].dependents.push(o.id);
        }
    }

    let restoration_total = ops.iter().filter(|o| o.kind.is_restoration()).count();
    let mut restoration_done = 0usize;

    // Ready sets ordered by (compute_index, id): the priority rule.
    let mut ready_cpu_compute: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut ready_cpu_restore: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut ready_npu: BTreeSet<(usize, usize)> = BTreeSet::new();
    let mut ready_io: BTreeSet<(usize, usize)> = BTreeSet::new();

    let add_ready = |id: usize,
                     op: &SimOp,
                     ready_cpu_compute: &mut BTreeSet<(usize, usize)>,
                     ready_cpu_restore: &mut BTreeSet<(usize, usize)>,
                     ready_npu: &mut BTreeSet<(usize, usize)>,
                     ready_io: &mut BTreeSet<(usize, usize)>| {
        let key = (op.compute_index, id);
        match op.kind {
            PipeOpKind::CpuCompute => {
                ready_cpu_compute.insert(key);
            }
            PipeOpKind::Alloc | PipeOpKind::Decrypt => {
                ready_cpu_restore.insert(key);
            }
            PipeOpKind::NpuCompute => {
                ready_npu.insert(key);
            }
            PipeOpKind::Load => {
                ready_io.insert(key);
            }
        }
    };

    for (i, op) in ops.iter().enumerate() {
        if op.deps_remaining == 0 {
            add_ready(
                i,
                op,
                &mut ready_cpu_compute,
                &mut ready_cpu_restore,
                &mut ready_npu,
                &mut ready_io,
            );
        }
    }

    // Resource state.
    let mut cpu_free = config.cpu_cores;
    let mut npu_free = true;
    let mut io_free = true;
    // The Sequential policy models the strawman's strictly serial cold start:
    // at most one operator (of any kind) in flight at a time.
    let serial = config.policy == Policy::Sequential;
    let mut running = 0usize;

    let mut events: std::collections::BinaryHeap<std::cmp::Reverse<Completion>> =
        std::collections::BinaryHeap::new();

    // A disabled store interns and allocates nothing: the lane tracks exist
    // only when the schedule is recorded.
    let mut trace = Telemetry::new(config.record_trace);
    let lanes = config.record_trace.then(|| {
        ResourceClass::ALL.map(|r| {
            let lane = Track::Lane(trace.intern(r.label()));
            trace.name_track(lane, r.label());
            lane
        })
    });
    let mut busy = [SimDuration::ZERO; 5];
    let kind_index = |k: PipeOpKind| match k {
        PipeOpKind::Alloc => 0usize,
        PipeOpKind::Load => 1,
        PipeOpKind::Decrypt => 2,
        PipeOpKind::CpuCompute => 3,
        PipeOpKind::NpuCompute => 4,
    };
    let phase = |k: PipeOpKind| match k {
        PipeOpKind::Alloc => Phase::Allocation,
        PipeOpKind::Load => Phase::Loading,
        PipeOpKind::Decrypt => Phase::Decryption,
        PipeOpKind::CpuCompute => Phase::CpuCompute,
        PipeOpKind::NpuCompute => Phase::NpuCompute,
    };

    let mut now = SimTime::ZERO;
    let mut completed = 0usize;
    let mut makespan = SimTime::ZERO;

    // Dispatch as much ready work as resources allow at time `now`.
    macro_rules! start_op {
        ($id:expr) => {{
            let id = $id;
            let resource = ResourceClass::for_kind(ops[id].kind);
            let end = now + ops[id].duration;
            if let Some(lanes) = &lanes {
                trace.span(
                    lanes[resource as usize],
                    phase(ops[id].kind),
                    &ops[id].label.to_string(),
                    now,
                    end,
                );
            }
            busy[kind_index(ops[id].kind)] += ops[id].duration;
            events.push(std::cmp::Reverse(Completion {
                at: end,
                id,
                resource,
            }));
            running += 1;
        }};
    }
    macro_rules! dispatch {
        () => {{
            // I/O engine: lowest compute-index load first.
            while io_free && !(serial && running > 0) {
                let Some(&key) = ready_io.iter().next() else {
                    break;
                };
                ready_io.remove(&key);
                start_op!(key.1);
                io_free = false;
            }
            // NPU.
            while npu_free && !(serial && running > 0) {
                let Some(&key) = ready_npu.iter().next() else {
                    break;
                };
                ready_npu.remove(&key);
                start_op!(key.1);
                npu_free = false;
            }
            // CPU cores.
            while cpu_free > 0 && !(serial && running > 0) {
                let sequential_gate =
                    config.policy == Policy::Sequential && restoration_done < restoration_total;
                let pick = if sequential_gate {
                    // No computation until every restoration operator is done.
                    ready_cpu_restore.iter().next().copied()
                } else if let Some(&key) = ready_cpu_compute.iter().next() {
                    Some(key)
                } else {
                    ready_cpu_restore.iter().next().copied()
                };
                let Some(key) = pick else { break };
                let id = key.1;
                if ops[id].kind == PipeOpKind::CpuCompute {
                    ready_cpu_compute.remove(&key);
                } else {
                    ready_cpu_restore.remove(&key);
                }
                start_op!(id);
                cpu_free -= 1;
            }
        }};
    }

    dispatch!();

    while completed < n {
        let std::cmp::Reverse(event) = events
            .pop()
            .expect("pipeline deadlocked: no runnable operator");
        let Completion { at, id, resource } = event;
        now = at;
        makespan = makespan.max(at);
        match resource {
            ResourceClass::Cpu => cpu_free += 1,
            ResourceClass::Npu => npu_free = true,
            ResourceClass::Io => io_free = true,
        }
        running = running.saturating_sub(1);
        completed += 1;
        if ops[id].kind.is_restoration() {
            restoration_done += 1;
        }
        let dependents = ops[id].dependents.clone();
        for dep in dependents {
            ops[dep].deps_remaining -= 1;
            if ops[dep].deps_remaining == 0 {
                let op = ops[dep].clone();
                add_ready(
                    dep,
                    &op,
                    &mut ready_cpu_compute,
                    &mut ready_cpu_restore,
                    &mut ready_npu,
                    &mut ready_io,
                );
            }
        }
        dispatch!();
    }

    PipelineResult {
        makespan: makespan - SimTime::ZERO,
        busy_alloc: busy[0],
        busy_load: busy[1],
        busy_decrypt: busy[2],
        busy_cpu_compute: busy[3],
        busy_npu_compute: busy[4],
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::restore::RestoreRates;
    use llm::{ComputationGraph, CostModel, ModelSpec};

    fn plan(model: &ModelSpec, prompt: usize, cached_fraction: f64, occupancy: f64) -> RestorePlan {
        let graph = ComputationGraph::prefill(model, prompt);
        let cost = CostModel::rk3588();
        let profile = tz_hal::PlatformProfile::rk3588();
        let rates = RestoreRates::from_profile(&profile, occupancy, 4);
        let times: Vec<SimDuration> = graph.ops.iter().map(|o| cost.op_time(o)).collect();
        let cached = (graph.total_param_bytes() as f64 * cached_fraction) as u64;
        RestorePlan::build(&graph, |i| times[i], &rates, cached)
    }

    fn config(policy: Policy) -> PipelineConfig {
        PipelineConfig {
            cpu_cores: 4,
            preempt_quantum: SimDuration::from_millis(2),
            policy,
            record_trace: true,
        }
    }

    #[test]
    fn pipelining_beats_sequential() {
        let plan = plan(&ModelSpec::qwen2_5_3b(), 256, 0.0, 0.8);
        let seq = simulate(&plan, &config(Policy::Sequential));
        let pri = simulate(&plan, &config(Policy::Priority));
        let pre = simulate(&plan, &config(Policy::PriorityPreemptive));
        assert!(
            pri.makespan < seq.makespan,
            "priority {} vs sequential {}",
            pri.makespan,
            seq.makespan
        );
        assert!(
            pre.makespan <= pri.makespan,
            "preemptive {} vs priority {}",
            pre.makespan,
            pri.makespan
        );
        // Sequential is at least the sum of the two phases' bottlenecks.
        let cp = plan.critical_paths();
        assert!(seq.makespan >= cp.lower_bound());
    }

    #[test]
    fn preemptive_schedule_is_close_to_the_lower_bound() {
        for (model, prompt) in [
            (ModelSpec::qwen2_5_3b(), 256usize),
            (ModelSpec::llama3_8b(), 512),
        ] {
            let plan = plan(&model, prompt, 0.2, 0.8);
            let result = simulate(&plan, &config(Policy::PriorityPreemptive));
            let bound = plan.critical_paths().lower_bound();
            let overhead =
                (result.makespan.as_secs_f64() - bound.as_secs_f64()) / bound.as_secs_f64();
            assert!(
                overhead < 0.15,
                "{}@{prompt}: makespan {} vs bound {} ({overhead:.3})",
                model.name,
                result.makespan,
                bound
            );
        }
    }

    #[test]
    fn makespan_never_beats_the_lower_bound() {
        for policy in [
            Policy::Sequential,
            Policy::Priority,
            Policy::PriorityPreemptive,
        ] {
            let plan = plan(&ModelSpec::tinyllama_1_1b(), 128, 0.0, 0.5);
            let result = simulate(&plan, &config(policy));
            assert!(result.makespan >= plan.critical_paths().lower_bound());
        }
    }

    #[test]
    fn caching_reduces_makespan_monotonically() {
        let mut last = SimDuration::MAX;
        for cached in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let plan = plan(&ModelSpec::qwen2_5_3b(), 32, cached, 0.8);
            let result = simulate(&plan, &config(Policy::PriorityPreemptive));
            assert!(
                result.makespan <= last + SimDuration::from_millis(5),
                "cached {cached}: {} vs previous {last}",
                result.makespan
            );
            last = result.makespan;
        }
    }

    #[test]
    fn fully_cached_run_is_pure_computation() {
        let plan = plan(&ModelSpec::qwen2_5_3b(), 128, 1.0, 0.8);
        let result = simulate(&plan, &config(Policy::PriorityPreemptive));
        assert_eq!(result.busy_load, SimDuration::ZERO);
        assert_eq!(result.busy_alloc, SimDuration::ZERO);
        assert_eq!(result.busy_decrypt, SimDuration::ZERO);
        let compute = result.busy_cpu_compute + result.busy_npu_compute;
        // Chain-structured graph: makespan equals total compute time.
        let diff = (result.makespan.as_secs_f64() - compute.as_secs_f64()).abs();
        assert!(diff < 1e-6);
    }

    #[test]
    fn busy_times_are_conserved_across_policies() {
        let plan = plan(&ModelSpec::tinyllama_1_1b(), 64, 0.0, 0.5);
        let a = simulate(&plan, &config(Policy::Priority));
        let b = simulate(&plan, &config(Policy::PriorityPreemptive));
        // The same work is done regardless of the schedule.
        let total = |r: &PipelineResult| {
            (r.busy_alloc + r.busy_load + r.busy_decrypt + r.busy_cpu_compute + r.busy_npu_compute)
                .as_secs_f64()
        };
        assert!((total(&a) - total(&b)).abs() < 1e-6);
    }

    #[test]
    fn trace_records_each_operator_on_its_lane() {
        let plan = plan(&ModelSpec::nano(), 16, 0.0, 0.5);
        let cfg = config(Policy::PriorityPreemptive);
        let result = simulate(&plan, &cfg);
        let trace = &result.trace;
        assert_eq!(
            trace.spans().len(),
            expand_micro_ops(&plan, cfg.preempt_quantum).len(),
            "one span per micro-operator"
        );
        for s in trace.spans() {
            let Track::Lane(lane) = s.track else {
                panic!("pipeline spans live on lane tracks");
            };
            let expected = match s.phase {
                Phase::Loading => "io",
                Phase::NpuCompute => "npu",
                _ => "cpu",
            };
            assert_eq!(trace.resolve(lane), expected, "{:?}", s.phase);
        }
        let json = trace.chrome_trace_json();
        for lane in ["cpu", "npu", "io"] {
            assert!(json.contains(&format!("\"args\":{{\"name\":\"{lane}\"}}")));
        }

        let quiet = simulate(
            &plan,
            &PipelineConfig {
                record_trace: false,
                ..cfg
            },
        );
        assert_eq!(quiet.makespan, result.makespan);
        assert!(!quiet.trace.is_enabled());
        assert_eq!(
            quiet.trace.chrome_trace_json(),
            Telemetry::off().chrome_trace_json(),
            "a disabled store names no lane and records no span"
        );
    }
}
