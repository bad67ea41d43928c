//! The trace sink: where emitted events go.
//!
//! The sink is the non-invasiveness boundary. It hangs off the
//! coordinator/server *outside* the simulated-cost path — recording an
//! event burns zero simulated cycles, exactly like the PMU bank's
//! free-running counters. Tracing is off exactly when no tracer is
//! attached: the engine's hot path is then one `None` check, and no
//! event payload is ever built.

use std::sync::{Mutex, MutexGuard};

use crate::event::TraceRecord;

/// In-memory sink: collects records for post-run export (Chrome trace,
/// decision log) and assertions.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<TraceRecord>>,
}

impl MemorySink {
    fn lock(&self) -> MutexGuard<'_, Vec<TraceRecord>> {
        self.records.lock().expect("sink lock")
    }

    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records collected so far (cloned; the sink keeps collecting).
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.lock().clone()
    }

    /// Drain the collected records.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.lock())
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no record was collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record one event (the tracer's one write path).
    pub(crate) fn record(&self, record: TraceRecord) {
        self.lock().push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Stamp, TraceEvent};

    fn record(ordinal: u64) -> TraceRecord {
        TraceRecord {
            query: 0,
            stamp: Stamp {
                lane: 1,
                cycles: 10 * ordinal,
                ordinal,
            },
            event: TraceEvent::OrderPublish {
                socket: 0,
                order: vec![1, 0],
                epoch: ordinal,
                warm_seed: false,
            },
        }
    }

    #[test]
    fn memory_sink_collects_and_drains() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.record(record(0));
        sink.record(record(1));
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.snapshot().len(), 2);
        let drained = sink.take();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[1].stamp.ordinal, 1);
        assert!(sink.is_empty());
    }
}
