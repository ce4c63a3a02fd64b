//! Lane accounting for the serving layer's dispatcher.
//!
//! [`CapacityLedger`] tracks, for a set of named lanes (CPU cores, the NPU,
//! the flash channel), how many units are in use *right now*, the peak ever
//! in use, and the busy-time integral — and it refuses over-subscription
//! outright, so any scheduling bug that would double-book a lane fails
//! loudly instead of silently overlapping work.

use crate::time::{SimDuration, SimTime};

/// Identifier of one lane inside a [`CapacityLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneId(usize);

impl LaneId {
    /// The lane's position in the ledger's [`CapacityLedger::usage`] output.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A snapshot of one lane's accounting, as reported back to callers.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneUsage {
    /// Lane name (e.g. `"npu"`, `"flash"`, `"cpu"`).
    pub name: String,
    /// Total units the lane offers.
    pub capacity: u64,
    /// Units in use at the time of the snapshot.
    pub in_use: u64,
    /// The largest number of units ever simultaneously in use.
    pub peak_in_use: u64,
    /// Unit-time integral of usage (`in_use × dt` summed over the run); with
    /// capacity 1 this is plain busy time.
    pub busy_unit_time: SimDuration,
}

impl LaneUsage {
    /// Mean utilisation over `[0, horizon)`.
    ///
    /// Returns the *raw* ratio: a value above 1.0 means the busy integral
    /// exceeds `horizon × capacity` — either the caller passed a horizon
    /// that predates booked activity, or the dispatcher over-booked the
    /// lane.  Earlier revisions clamped to 1.0, which hid exactly that
    /// class of bug; now it is debug-asserted instead.
    pub fn utilisation(&self, horizon: SimTime) -> f64 {
        if horizon == SimTime::ZERO || self.capacity == 0 {
            return 0.0;
        }
        let denom = horizon.as_secs_f64() * self.capacity as f64;
        let ratio = self.busy_unit_time.as_secs_f64() / denom;
        debug_assert!(
            ratio <= 1.0 + 1e-9,
            "lane {} utilisation {ratio} exceeds 1.0 over horizon {horizon}: \
             busy integral {:?} does not fit {} unit(s) — over-booking or a \
             stale horizon",
            self.name,
            self.busy_unit_time,
            self.capacity
        );
        ratio
    }
}

#[derive(Debug, Clone)]
struct Lane {
    name: String,
    capacity: u64,
    in_use: u64,
    peak_in_use: u64,
    busy_nanos_x_units: u128,
    last_change: SimTime,
}

/// One reservation change in a [`CapacityLedger`]'s journal: after the
/// acquire/release at `at`, `lane` had `in_use` units booked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneEvent {
    /// The lane that changed.
    pub lane: LaneId,
    /// When it changed.
    pub at: SimTime,
    /// Units in use immediately after the change.
    pub in_use: u64,
}

/// Instantaneous capacity accounting over a set of named lanes.
///
/// Time must advance monotonically across calls (the discrete-event engine
/// guarantees this); within one instant, release before acquire so handover
/// at an event boundary does not trip the capacity check.
#[derive(Debug, Clone, Default)]
pub struct CapacityLedger {
    lanes: Vec<Lane>,
    /// The journal of reservation changes (`None` = off): every
    /// acquire/release appends a [`LaneEvent`], from which the telemetry
    /// layer derives per-lane occupancy spans.  Off by default — the
    /// journal observes, it never feeds back into the capacity checks.
    journal: Option<Vec<LaneEvent>>,
}

impl CapacityLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        CapacityLedger::default()
    }

    /// Registers a lane with `capacity` units, all free.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn add_lane(&mut self, name: impl Into<String>, capacity: u64) -> LaneId {
        assert!(capacity > 0, "a lane needs at least one unit");
        self.lanes.push(Lane {
            name: name.into(),
            capacity,
            in_use: 0,
            peak_in_use: 0,
            busy_nanos_x_units: 0,
            last_change: SimTime::ZERO,
        });
        LaneId(self.lanes.len() - 1)
    }

    fn advance(lane: &mut Lane, now: SimTime) {
        let dt = now.saturating_since(lane.last_change).as_nanos() as u128;
        lane.busy_nanos_x_units += dt * lane.in_use as u128;
        lane.last_change = now;
    }

    /// Units currently free on `lane`.
    pub fn available(&self, lane: LaneId) -> u64 {
        let l = &self.lanes[lane.0];
        l.capacity - l.in_use
    }

    /// Units currently in use on `lane`.
    pub fn in_use(&self, lane: LaneId) -> u64 {
        self.lanes[lane.0].in_use
    }

    /// Takes `units` on `lane` starting at instant `now`.
    ///
    /// # Panics
    /// Panics if the lane would exceed its capacity — the caller is expected
    /// to check [`CapacityLedger::available`] first; exceeding capacity means
    /// the dispatcher double-booked hardware.
    pub fn acquire(&mut self, lane: LaneId, units: u64, now: SimTime) {
        let l = &mut self.lanes[lane.0];
        Self::advance(l, now);
        assert!(
            l.in_use + units <= l.capacity,
            "lane {} over-subscribed at {now}: {} + {units} > capacity {}",
            l.name,
            l.in_use,
            l.capacity
        );
        l.in_use += units;
        l.peak_in_use = l.peak_in_use.max(l.in_use);
        let in_use = l.in_use;
        self.note(lane, now, in_use);
    }

    /// Returns `units` on `lane` at instant `now`.
    ///
    /// # Panics
    /// Panics if more units are released than are in use.
    pub fn release(&mut self, lane: LaneId, units: u64, now: SimTime) {
        let l = &mut self.lanes[lane.0];
        Self::advance(l, now);
        assert!(
            units <= l.in_use,
            "lane {} released {units} units but only {} in use",
            l.name,
            l.in_use
        );
        l.in_use -= units;
        let in_use = l.in_use;
        self.note(lane, now, in_use);
    }

    fn note(&mut self, lane: LaneId, at: SimTime, in_use: u64) {
        if let Some(journal) = &mut self.journal {
            journal.push(LaneEvent { lane, at, in_use });
        }
    }

    /// Turns on the reservation journal (idempotent; existing entries are
    /// kept).  Purely observational — capacity checks and busy integrals
    /// are identical with the journal on or off.
    pub fn enable_journal(&mut self) {
        self.journal.get_or_insert_with(Vec::new);
    }

    /// The recorded reservation changes (empty while the journal is off).
    pub fn journal(&self) -> &[LaneEvent] {
        self.journal.as_deref().unwrap_or(&[])
    }

    /// The name a lane was registered under.
    pub fn lane_name(&self, lane: LaneId) -> &str {
        &self.lanes[lane.0].name
    }

    /// The capacity a lane was registered with.
    pub fn lane_capacity(&self, lane: LaneId) -> u64 {
        self.lanes[lane.0].capacity
    }

    /// Number of registered lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Snapshots every lane's accounting as of instant `now`.
    pub fn usage(&self, now: SimTime) -> Vec<LaneUsage> {
        self.lanes
            .iter()
            .map(|l| {
                let dt = now.saturating_since(l.last_change).as_nanos() as u128;
                let busy = l.busy_nanos_x_units + dt * l.in_use as u128;
                LaneUsage {
                    name: l.name.clone(),
                    capacity: l.capacity,
                    in_use: l.in_use,
                    peak_in_use: l.peak_in_use,
                    busy_unit_time: SimDuration::from_nanos(
                        u64::try_from(busy).unwrap_or(u64::MAX),
                    ),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tracks_peaks_and_busy_integral() {
        let mut ledger = CapacityLedger::new();
        let cpu = ledger.add_lane("cpu", 4);
        ledger.acquire(cpu, 3, SimTime::ZERO);
        ledger.release(cpu, 2, SimTime::from_secs(2));
        ledger.release(cpu, 1, SimTime::from_secs(3));
        let usage = &ledger.usage(SimTime::from_secs(4))[0];
        assert_eq!(usage.peak_in_use, 3);
        assert_eq!(usage.in_use, 0);
        // 3 units × 2 s + 1 unit × 1 s = 7 unit-seconds.
        assert_eq!(usage.busy_unit_time, SimDuration::from_secs(7));
        assert!((usage.utilisation(SimTime::from_secs(4)) - 7.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn ledger_journal_records_reservation_changes() {
        let mut ledger = CapacityLedger::new();
        let cpu = ledger.add_lane("cpu", 4);
        ledger.acquire(cpu, 3, SimTime::ZERO);
        assert!(
            ledger.journal().is_empty(),
            "journal is off by default and records nothing"
        );
        ledger.enable_journal();
        ledger.release(cpu, 2, SimTime::from_secs(1));
        ledger.acquire(cpu, 1, SimTime::from_secs(2));
        assert_eq!(
            ledger.journal(),
            &[
                LaneEvent {
                    lane: cpu,
                    at: SimTime::from_secs(1),
                    in_use: 1
                },
                LaneEvent {
                    lane: cpu,
                    at: SimTime::from_secs(2),
                    in_use: 2
                },
            ]
        );
        assert_eq!(ledger.lane_name(cpu), "cpu");
        assert_eq!(ledger.lane_capacity(cpu), 4);
        assert_eq!(ledger.lane_count(), 1);
    }

    #[test]
    #[should_panic]
    fn ledger_panics_on_over_subscription() {
        let mut ledger = CapacityLedger::new();
        let npu = ledger.add_lane("npu", 1);
        ledger.acquire(npu, 1, SimTime::ZERO);
        ledger.acquire(npu, 1, SimTime::from_millis(1));
    }

    #[test]
    fn ledger_handover_at_one_instant_is_legal() {
        let mut ledger = CapacityLedger::new();
        let flash = ledger.add_lane("flash", 1);
        ledger.acquire(flash, 1, SimTime::ZERO);
        let t = SimTime::from_millis(5);
        ledger.release(flash, 1, t);
        ledger.acquire(flash, 1, t);
        assert_eq!(ledger.available(flash), 0);
        assert_eq!(ledger.usage(t)[0].peak_in_use, 1);
    }
}
