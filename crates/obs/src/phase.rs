//! Low-overhead kernel-phase accumulation for the fault-simulation
//! hot path.
//!
//! The per-fault loop in `snn-faults` spends its time in a handful of
//! kernel phases — applying/restoring the fault patch (**inject**),
//! simulating forward (**forward.l\<k\>**; the scalar engine books the
//! suffix from `k`), comparing against the golden baseline
//! (**compare**). A [`PhaseAccumulator`] splits wall
//! time across these phases using nothing but relaxed atomics, so the hot
//! path can stay instrumented in release builds: one clock read per phase
//! boundary plus one atomic RMW per touched slot per fault.
//!
//! The hot loop records into a plain-integer [`LocalPhases`] scratch and
//! folds it into the shared accumulator once per fault
//! ([`PhaseAccumulator::merge`]). The packed engine (`snn_faults::packed`)
//! simulates a *run* of up to 512 fault variants at a time and records
//! each phase once per stage of the run; it flushes through
//! [`PhaseAccumulator::merge_pack`], which attributes the wall time once
//! but weights sample counts by the run's fault count, keeping per-fault
//! counts comparable across engines. Campaign-level code snapshots the
//! accumulator before and after a run ([`PhaseAccumulator::snapshot`],
//! [`PhaseSnapshot::delta_since`]) and publishes the delta as synthetic
//! `phase.*` spans ([`emit_spans`]) that `snn profile --phases`
//! aggregates into a kernel-phase table.
//!
//! Durations come from the caller's clock, so everything here is
//! [`ManualClock`](crate::clock::ManualClock)-testable; the process-wide
//! instance for the fault-simulation engine is [`faultsim`].

use crate::trace;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Number of individually-tracked forward layers; deeper layers clamp
/// into the last slot (`phase.forward.l15`).
pub const MAX_FORWARD_LAYERS: usize = 16;

const SLOT_INJECT: usize = 0;
const SLOT_COMPARE: usize = 1;
const SLOT_FAULT: usize = 2;
const SLOT_PACK_PLAN: usize = 3;
const SLOT_PACK_ASSIGN: usize = 4;
const SLOT_PACK_RUN: usize = 5;
const SLOT_FORWARD: usize = 6;
const SLOTS: usize = SLOT_FORWARD + MAX_FORWARD_LAYERS;

/// A fixed, non-layer kernel phase of the fault-simulation pipeline.
/// Per-layer forward time uses [`PhaseAccumulator::add_forward`]
/// instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Applying and restoring the fault's weight patch on the scalar
    /// engine's worker network; under the packed engine, a run's set-up.
    Inject,
    /// Comparing simulated activity against the golden baseline (the
    /// output-distance verdict; the packed engine's divergence masks and
    /// its grouping of equal divergences).
    Compare,
    /// One whole per-fault simulation — the attribution denominator for
    /// the in-loop phases. Under the packed engine, one whole run
    /// flushed with [`PhaseAccumulator::merge_pack`].
    Fault,
    /// Grouping a fault list by fault layer (packed engine, once per
    /// campaign, outside [`Phase::Fault`]).
    PackPlan,
    /// Cutting the layer groups into runs (packed engine, once per
    /// campaign, outside [`Phase::Fault`]).
    PackAssign,
    /// Packed spike-word construction that is neither forward simulation
    /// nor verdict comparison.
    PackRun,
}

impl Phase {
    fn slot(self) -> usize {
        match self {
            Phase::Inject => SLOT_INJECT,
            Phase::Compare => SLOT_COMPARE,
            Phase::Fault => SLOT_FAULT,
            Phase::PackPlan => SLOT_PACK_PLAN,
            Phase::PackAssign => SLOT_PACK_ASSIGN,
            Phase::PackRun => SLOT_PACK_RUN,
        }
    }
}

fn forward_slot(layer: usize) -> usize {
    SLOT_FORWARD + layer.min(MAX_FORWARD_LAYERS - 1)
}

fn slot_name(slot: usize) -> String {
    match slot {
        SLOT_INJECT => "phase.inject".to_string(),
        SLOT_COMPARE => "phase.compare".to_string(),
        SLOT_FAULT => "phase.fault".to_string(),
        SLOT_PACK_PLAN => "phase.pack.plan".to_string(),
        SLOT_PACK_ASSIGN => "phase.pack.assign".to_string(),
        SLOT_PACK_RUN => "phase.pack.run".to_string(),
        _ => format!("phase.forward.l{}", slot - SLOT_FORWARD),
    }
}

fn nanos_of(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Atomics-only accumulator of per-phase wall time and sample counts.
pub struct PhaseAccumulator {
    nanos: [AtomicU64; SLOTS],
    counts: [AtomicU64; SLOTS],
}

impl PhaseAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            nanos: std::array::from_fn(|_| AtomicU64::new(0)),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Adds one `elapsed` sample to `phase`.
    pub fn add(&self, phase: Phase, elapsed: Duration) {
        self.add_slot(phase.slot(), nanos_of(elapsed), 1);
    }

    /// Adds one `elapsed` sample of forward simulation for `layer`
    /// (clamped into the last slot beyond [`MAX_FORWARD_LAYERS`]).
    pub fn add_forward(&self, layer: usize, elapsed: Duration) {
        self.add_slot(forward_slot(layer), nanos_of(elapsed), 1);
    }

    /// Folds a per-fault [`LocalPhases`] scratch in: one atomic RMW pair
    /// per slot the scratch actually touched.
    pub fn merge(&self, local: &LocalPhases) {
        for slot in 0..SLOTS {
            if local.counts[slot] > 0 {
                self.add_slot(slot, local.nanos[slot], local.counts[slot]);
            }
        }
    }

    /// Variant of [`merge`](Self::merge) for the packed engine, which
    /// simulates `lanes` fault variants in one run and records each phase
    /// **once** per stage of it: wall time is folded in unscaled (the
    /// seconds really elapsed once), while sample counts are weighted by
    /// the fault count so per-fault counts stay comparable with the
    /// scalar engine's one-merge-per-fault flushes.
    pub fn merge_pack(&self, local: &LocalPhases, lanes: u64) {
        for slot in 0..SLOTS {
            if local.counts[slot] > 0 {
                self.add_slot(slot, local.nanos[slot], local.counts[slot].saturating_mul(lanes));
            }
        }
    }

    fn add_slot(&self, slot: usize, nanos: u64, count: u64) {
        self.nanos[slot].fetch_add(nanos, Ordering::Relaxed);
        self.counts[slot].fetch_add(count, Ordering::Relaxed);
    }

    /// Point-in-time totals since process start.
    pub fn snapshot(&self) -> PhaseSnapshot {
        PhaseSnapshot {
            nanos: std::array::from_fn(|i| self.nanos[i].load(Ordering::Relaxed)),
            counts: std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed)),
        }
    }
}

impl Default for PhaseAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-fault scratch recorder: plain integers on the worker's stack,
/// folded into the shared accumulator once per fault via
/// [`PhaseAccumulator::merge`].
#[derive(Debug, Clone)]
pub struct LocalPhases {
    nanos: [u64; SLOTS],
    counts: [u64; SLOTS],
}

impl LocalPhases {
    /// An empty scratch.
    pub fn new() -> Self {
        Self { nanos: [0; SLOTS], counts: [0; SLOTS] }
    }

    /// Adds one `elapsed` sample to `phase`.
    pub fn add(&mut self, phase: Phase, elapsed: Duration) {
        self.add_slot(phase.slot(), elapsed);
    }

    /// Adds one `elapsed` sample of forward simulation for `layer`.
    pub fn add_forward(&mut self, layer: usize, elapsed: Duration) {
        self.add_slot(forward_slot(layer), elapsed);
    }

    fn add_slot(&mut self, slot: usize, elapsed: Duration) {
        self.nanos[slot] = self.nanos[slot].saturating_add(nanos_of(elapsed));
        self.counts[slot] += 1;
    }

    /// Total recorded for `phase`.
    pub fn total(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.nanos[phase.slot()])
    }

    /// Total forward time summed across all layer slots.
    pub fn forward_total(&self) -> Duration {
        Duration::from_nanos(
            self.nanos[SLOT_FORWARD..].iter().fold(0u64, |a, n| a.saturating_add(*n)),
        )
    }
}

impl Default for LocalPhases {
    fn default() -> Self {
        Self::new()
    }
}

/// Totals captured by [`PhaseAccumulator::snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSnapshot {
    nanos: [u64; SLOTS],
    counts: [u64; SLOTS],
}

impl PhaseSnapshot {
    /// The per-slot difference `self - earlier` (saturating) — the phase
    /// activity between two snapshots.
    pub fn delta_since(&self, earlier: &PhaseSnapshot) -> PhaseSnapshot {
        PhaseSnapshot {
            nanos: std::array::from_fn(|i| self.nanos[i].saturating_sub(earlier.nanos[i])),
            counts: std::array::from_fn(|i| self.counts[i].saturating_sub(earlier.counts[i])),
        }
    }

    /// Total wall time recorded for `phase`.
    pub fn total(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.nanos[phase.slot()])
    }

    /// Sample count recorded for `phase`.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase.slot()]
    }

    /// `true` when no slot recorded any sample.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|c| *c == 0)
    }

    /// Named rows for every slot with at least one sample, in fixed slot
    /// order (inject, compare, fault, pack.plan, pack.assign,
    /// pack.run, forward.l0…).
    pub fn entries(&self) -> Vec<PhaseEntry> {
        (0..SLOTS)
            .filter(|&slot| self.counts[slot] > 0)
            .map(|slot| PhaseEntry {
                name: slot_name(slot),
                total: Duration::from_nanos(self.nanos[slot]),
                count: self.counts[slot],
            })
            .collect()
    }
}

/// One named row of a [`PhaseSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseEntry {
    /// Synthetic span name, e.g. `phase.inject` or `phase.forward.l0`.
    pub name: String,
    /// Summed wall time of the phase.
    pub total: Duration,
    /// Number of samples folded into `total`.
    pub count: u64,
}

/// The process-wide accumulator for the fault-simulation engine.
pub fn faultsim() -> &'static PhaseAccumulator {
    static FAULTSIM: OnceLock<PhaseAccumulator> = OnceLock::new();
    FAULTSIM.get_or_init(PhaseAccumulator::new)
}

/// Publishes `delta` into the installed trace collector as one synthetic
/// `phase.*` span per non-empty slot, each parented under `parent` and
/// carrying its sample count as a `count` attribute. No-op when tracing
/// is disabled.
pub fn emit_spans(delta: &PhaseSnapshot, parent: Option<u64>) {
    let Some(collector) = trace::installed() else { return };
    for entry in delta.entries() {
        collector.push_synthetic(
            &entry.name,
            parent,
            entry.total,
            vec![("count".to_string(), entry.count.to_string())],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};
    use crate::trace::{global_test_lock, install, uninstall, Collector};
    use std::sync::Arc;

    /// Reads a ManualClock-driven duration: advance, then measure.
    fn tick(clock: &ManualClock, ms: u64) -> Duration {
        let before = clock.now();
        clock.advance(Duration::from_millis(ms));
        clock.now() - before
    }

    #[test]
    fn accumulates_per_phase_totals_and_counts() {
        let clock = ManualClock::new();
        let acc = PhaseAccumulator::new();
        acc.add(Phase::Inject, tick(&clock, 2));
        acc.add(Phase::Inject, tick(&clock, 3));
        acc.add(Phase::Compare, tick(&clock, 7));
        let snap = acc.snapshot();
        assert_eq!(snap.total(Phase::Inject), Duration::from_millis(5));
        assert_eq!(snap.count(Phase::Inject), 2);
        assert_eq!(snap.total(Phase::Compare), Duration::from_millis(7));
        assert_eq!(snap.total(Phase::PackPlan), Duration::ZERO);
    }

    #[test]
    fn forward_layers_clamp_into_the_last_slot() {
        let acc = PhaseAccumulator::new();
        acc.add_forward(0, Duration::from_millis(1));
        acc.add_forward(MAX_FORWARD_LAYERS + 10, Duration::from_millis(2));
        let entries = acc.snapshot().entries();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["phase.forward.l0", "phase.forward.l15"]);
        assert_eq!(entries[1].total, Duration::from_millis(2));
    }

    #[test]
    fn local_scratch_merges_once() {
        let clock = ManualClock::new();
        let acc = PhaseAccumulator::new();
        let mut local = LocalPhases::new();
        local.add(Phase::Inject, tick(&clock, 1));
        local.add_forward(0, tick(&clock, 4));
        local.add_forward(1, tick(&clock, 5));
        local.add(Phase::Fault, tick(&clock, 12));
        assert_eq!(local.forward_total(), Duration::from_millis(9));
        assert_eq!(local.total(Phase::Fault), Duration::from_millis(12));
        acc.merge(&local);
        let snap = acc.snapshot();
        assert_eq!(snap.total(Phase::Inject), Duration::from_millis(1));
        assert_eq!(snap.count(Phase::Fault), 1);
        assert_eq!(snap.entries().len(), 4);
    }

    #[test]
    fn pack_merge_attributes_seconds_once_but_counts_per_lane() {
        let clock = ManualClock::new();
        let acc = PhaseAccumulator::new();
        let mut local = LocalPhases::new();
        // One 17-lane pack: the forward kernel and verdict comparison run
        // once over packed words, the whole pack sits in one Fault
        // envelope, and word construction shows up as PackRun.
        local.add_forward(0, tick(&clock, 6));
        local.add(Phase::Compare, tick(&clock, 2));
        local.add(Phase::PackRun, tick(&clock, 1));
        local.add(Phase::Fault, tick(&clock, 9));
        acc.merge_pack(&local, 17);
        let snap = acc.snapshot();
        // Seconds attributed once: wall time is what actually elapsed.
        assert_eq!(snap.total(Phase::Fault), Duration::from_millis(9));
        assert_eq!(snap.total(Phase::Compare), Duration::from_millis(2));
        // Counts weighted by lane occupancy: 17 faults' worth of samples.
        assert_eq!(snap.count(Phase::Fault), 17);
        assert_eq!(snap.count(Phase::Compare), 17);
        let entries = snap.entries();
        let forward = entries.iter().find(|e| e.name == "phase.forward.l0").unwrap();
        assert_eq!(forward.total, Duration::from_millis(6));
        assert_eq!(forward.count, 17);
        let pack_run = entries.iter().find(|e| e.name == "phase.pack.run").unwrap();
        assert_eq!(pack_run.count, 17);
        // A scalar merge on top composes: one more fault's worth.
        let mut single = LocalPhases::new();
        single.add(Phase::Fault, tick(&clock, 3));
        acc.merge(&single);
        let snap = acc.snapshot();
        assert_eq!(snap.total(Phase::Fault), Duration::from_millis(12));
        assert_eq!(snap.count(Phase::Fault), 18);
    }

    #[test]
    fn delta_since_isolates_one_campaign() {
        let acc = PhaseAccumulator::new();
        acc.add(Phase::Inject, Duration::from_millis(10));
        let before = acc.snapshot();
        assert!(before.delta_since(&before).is_empty());
        acc.add(Phase::Inject, Duration::from_millis(2));
        acc.add(Phase::PackPlan, Duration::from_millis(3));
        let delta = acc.snapshot().delta_since(&before);
        assert_eq!(delta.total(Phase::Inject), Duration::from_millis(2));
        assert_eq!(delta.count(Phase::Inject), 1);
        assert_eq!(delta.total(Phase::PackPlan), Duration::from_millis(3));
    }

    #[test]
    fn emit_spans_publishes_named_synthetic_spans() {
        let _serial = global_test_lock();
        let acc = PhaseAccumulator::new();
        acc.add(Phase::Inject, Duration::from_millis(4));
        acc.add_forward(1, Duration::from_millis(6));
        acc.add(Phase::Fault, Duration::from_millis(11));
        let collector = Arc::new(Collector::with_clock(Arc::new(ManualClock::new())));
        install(collector.clone());
        emit_spans(&acc.snapshot(), Some(3));
        uninstall();
        let spans = collector.finished();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["phase.inject", "phase.fault", "phase.forward.l1"]);
        assert!(spans.iter().all(|s| s.parent == Some(3)));
        assert_eq!(spans[0].duration(), Duration::from_millis(4));
        assert_eq!(spans[0].attrs[0], ("count".to_string(), "1".to_string()));
    }

    #[test]
    fn emit_spans_is_inert_without_a_collector() {
        let _serial = global_test_lock();
        let acc = PhaseAccumulator::new();
        acc.add(Phase::Inject, Duration::from_millis(1));
        emit_spans(&acc.snapshot(), None); // must not panic or block
    }
}
