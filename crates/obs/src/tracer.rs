//! Deterministic stamping.
//!
//! A [`Tracer`] owns one *lane* per worker plus a coordinator lane. Each
//! lane carries a simulated-cycle clock cell and an ordinal counter. The
//! clock cell is written only by the lane's owning worker — it publishes
//! its simulated wall position at morsel boundaries — so an event emitted
//! from a worker's own call path reads that worker's own clock. Host time
//! never enters a stamp; two runs of the same deterministic configuration
//! produce identical stamps.
//!
//! Tracing is off exactly when no tracer is attached: the engine holds
//! an `Option`, so an untraced run never reaches [`Tracer::emit`] and
//! builds no event payload (orders, selectivity vectors, label strings).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::{Stamp, TraceEvent, TraceRecord};
use crate::sink::MemorySink;

/// Per-lane stamp state. Relaxed ordering is sufficient: the engine
/// writes and reads every lane from the one thread that drives the run;
/// the cells are atomic only so a shared tracer stays `Sync`.
#[derive(Debug, Default)]
struct Lane {
    clock: AtomicU64,
    ordinal: AtomicU64,
}

/// Stamps and emits trace events into a shared [`MemorySink`].
pub struct Tracer {
    sink: Arc<MemorySink>,
    lanes: Vec<Lane>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("lanes", &self.lanes.len())
            .finish()
    }
}

impl Tracer {
    /// A tracer for a pool of `workers` workers feeding `sink`: one lane
    /// per worker plus the coordinator lane ([`Self::coordinator_lane`]).
    pub fn for_workers(sink: Arc<MemorySink>, workers: usize) -> Self {
        Self {
            sink,
            lanes: (0..=workers).map(|_| Lane::default()).collect(),
        }
    }

    /// The lane reserved for events not attributable to a single worker
    /// (batch-boundary declarations, admissions).
    pub fn coordinator_lane(&self) -> usize {
        self.lanes.len() - 1
    }

    /// Number of stamp lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Defensive clamp: a lane index past the end (misconfigured tracer)
    /// lands on the coordinator lane instead of panicking mid-run.
    fn clamp(&self, lane: usize) -> usize {
        lane.min(self.coordinator_lane())
    }

    fn lane(&self, lane: usize) -> &Lane {
        &self.lanes[self.clamp(lane)]
    }

    /// Publish `lane`'s simulated wall position. Called by the owning
    /// worker at morsel boundaries so subsequent events on the lane are
    /// stamped at that position.
    pub fn set_clock(&self, lane: usize, cycles: u64) {
        self.lane(lane).clock.store(cycles, Ordering::Relaxed);
    }

    /// The lane's last published simulated wall position.
    pub fn clock(&self, lane: usize) -> u64 {
        self.lane(lane).clock.load(Ordering::Relaxed)
    }

    /// Emit an event on `lane` for `query`, stamped at the lane's
    /// current clock.
    pub fn emit(&self, lane: usize, query: usize, f: impl FnOnce() -> TraceEvent) {
        let cycles = self.lane(lane).clock.load(Ordering::Relaxed);
        self.emit_at(lane, query, cycles, f);
    }

    /// Emit an event stamped at an explicit cycle position (e.g. a
    /// morsel's start rather than the lane clock at its end).
    pub fn emit_at(&self, lane: usize, query: usize, cycles: u64, f: impl FnOnce() -> TraceEvent) {
        let cell = self.lane(lane);
        let ordinal = cell.ordinal.fetch_add(1, Ordering::Relaxed);
        self.sink.record(TraceRecord {
            query,
            stamp: Stamp {
                lane: self.clamp(lane),
                cycles,
                ordinal,
            },
            event: f(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event() -> TraceEvent {
        TraceEvent::Complete {
            qualified: 1,
            sum: 2,
            morsels: 3,
            wall_cycles: 4,
        }
    }

    #[test]
    fn stamps_carry_lane_clock_and_per_lane_ordinals() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::for_workers(sink.clone(), 2);
        assert_eq!(tracer.lanes(), 3);
        assert_eq!(tracer.coordinator_lane(), 2);

        tracer.set_clock(0, 100);
        tracer.set_clock(1, 50);
        tracer.emit(0, 0, event);
        tracer.emit(0, 0, event);
        tracer.emit(1, 0, event);
        tracer.emit_at(1, 0, 7, event);

        let records = sink.take();
        assert_eq!(records.len(), 4);
        assert_eq!(
            (
                records[0].stamp.lane,
                records[0].stamp.cycles,
                records[0].stamp.ordinal
            ),
            (0, 100, 0)
        );
        assert_eq!(
            (
                records[1].stamp.lane,
                records[1].stamp.cycles,
                records[1].stamp.ordinal
            ),
            (0, 100, 1)
        );
        assert_eq!(
            (
                records[2].stamp.lane,
                records[2].stamp.cycles,
                records[2].stamp.ordinal
            ),
            (1, 50, 0)
        );
        assert_eq!(
            (
                records[3].stamp.lane,
                records[3].stamp.cycles,
                records[3].stamp.ordinal
            ),
            (1, 7, 1)
        );
    }

    #[test]
    fn out_of_range_lane_clamps_to_coordinator() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::for_workers(sink.clone(), 1);
        tracer.set_clock(1, 11);
        tracer.emit(9, 3, event);
        let records = sink.take();
        assert_eq!(records[0].stamp.lane, 1);
        assert_eq!(records[0].stamp.cycles, 11);
        assert_eq!(records[0].query, 3);
    }
}
