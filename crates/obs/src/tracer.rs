//! Deterministic stamping and lazy emission.
//!
//! A [`Tracer`] owns one *lane* per worker plus a coordinator lane. Each
//! lane carries a simulated-cycle clock cell and an ordinal counter. The
//! clock cell is written only by the lane's owning worker — it publishes
//! its simulated wall position at morsel boundaries — so an event emitted
//! from a worker's own call path reads that worker's own clock. Host time
//! never enters a stamp; two runs of the same deterministic configuration
//! produce identical stamps.
//!
//! Emission is lazy: [`Tracer::emit`] takes a closure so that when the
//! sink is disabled no event payload (orders, selectivity vectors, label
//! strings) is ever constructed. The cost of disabled tracing is one
//! branch on an already-loaded bool.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::{Stamp, TraceEvent, TraceRecord};
use crate::sink::{NullSink, TraceSink};

/// Per-lane stamp state. Relaxed ordering is sufficient: the engine
/// writes and reads every lane from the one thread that drives the run;
/// the cells are atomic only so a shared tracer stays `Sync`.
#[derive(Debug, Default)]
struct Lane {
    clock: AtomicU64,
    ordinal: AtomicU64,
}

/// Stamps and emits trace events into a shared [`TraceSink`].
pub struct Tracer {
    sink: Arc<dyn TraceSink>,
    lanes: Vec<Lane>,
    enabled: bool,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("lanes", &self.lanes.len())
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl Tracer {
    /// A tracer with `lanes` stamp lanes feeding `sink`.
    pub fn new(sink: Arc<dyn TraceSink>, lanes: usize) -> Self {
        let enabled = sink.enabled();
        Self {
            sink,
            lanes: (0..lanes.max(1)).map(|_| Lane::default()).collect(),
            enabled,
        }
    }

    /// A tracer for a pool of `workers` workers: one lane per worker
    /// plus the coordinator lane ([`Self::coordinator_lane`]).
    pub fn for_workers(sink: Arc<dyn TraceSink>, workers: usize) -> Self {
        Self::new(sink, workers + 1)
    }

    /// A disabled tracer (null sink); stamps nothing, emits nothing.
    pub fn disabled() -> Self {
        Self::new(Arc::new(NullSink), 1)
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

    /// Whether the sink wants events. When `false`, `emit` closures are
    /// never invoked.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn lane(&self, lane: usize) -> &Lane {
        // Defensive clamp: a lane index past the end (misconfigured
        // tracer) lands on the coordinator lane instead of panicking
        // mid-run.
        self.lanes
            .get(lane)
            .unwrap_or_else(|| self.lanes.last().expect("tracer has at least one lane"))
    }

    /// Publish `lane`'s simulated wall position. Called by the owning
    /// worker at morsel boundaries so subsequent events on the lane are
    /// stamped at that position.
    pub fn set_clock(&self, lane: usize, cycles: u64) {
        if self.enabled {
            self.lane(lane).clock.store(cycles, Ordering::Relaxed);
        }
    }

    /// The lane's last published simulated wall position.
    pub fn clock(&self, lane: usize) -> u64 {
        self.lane(lane).clock.load(Ordering::Relaxed)
    }

    /// Emit an event on `lane` for `query`, stamped at the lane's
    /// current clock. The closure runs only when the sink is enabled.
    pub fn emit(&self, lane: usize, query: usize, f: impl FnOnce() -> TraceEvent) {
        if !self.enabled {
            return;
        }
        let cycles = self.lane(lane).clock.load(Ordering::Relaxed);
        self.emit_at(lane, query, cycles, f);
    }

    /// Emit an event stamped at an explicit cycle position (e.g. a
    /// morsel's start rather than the lane clock at its end).
    pub fn emit_at(&self, lane: usize, query: usize, cycles: u64, f: impl FnOnce() -> TraceEvent) {
        if !self.enabled {
            return;
        }
        let cell = self.lane(lane);
        let ordinal = cell.ordinal.fetch_add(1, Ordering::Relaxed);
        self.sink.record(TraceRecord {
            query,
            stamp: Stamp {
                lane: lane.min(self.lanes.len() - 1),
                cycles,
                ordinal,
            },
            event: f(),
        });
    }

    /// Flush/close the underlying sink.
    pub fn finish(&self) {
        self.sink.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    fn event() -> TraceEvent {
        TraceEvent::Complete {
            qualified: 1,
            sum: 2,
            morsels: 3,
            wall_cycles: 4,
        }
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        tracer.set_clock(0, 99);
        tracer.emit(0, 0, || panic!("closure must not run when disabled"));
        assert_eq!(tracer.clock(0), 0, "disabled tracer skips clock writes");
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
        let tracer = Tracer::new(sink.clone(), 2);
        tracer.set_clock(1, 11);
        tracer.emit(9, 3, event);
        let records = sink.take();
        assert_eq!(records[0].stamp.lane, 1);
        assert_eq!(records[0].stamp.cycles, 11);
        assert_eq!(records[0].query, 3);
    }
}
