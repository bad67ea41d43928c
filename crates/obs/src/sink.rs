//! Trace sinks: where emitted events go.
//!
//! The sink is the non-invasiveness boundary. It hangs off the
//! coordinator/server *outside* the simulated-cost path — recording an
//! event burns zero simulated cycles, exactly like the PMU bank's
//! free-running counters — and a disabled sink reduces the hot path to
//! one branch ([`TraceSink::enabled`] returning `false` short-circuits
//! event construction entirely; see [`crate::tracer::Tracer::emit`]).

use std::io::Write;
use std::sync::Mutex;

use crate::chrome;
use crate::event::TraceRecord;

/// Where trace records go. Implementations must be shareable across the
/// worker threads of a pool; recording happens under the caller's own
/// locking discipline plus whatever the sink needs internally.
pub trait TraceSink: Send + Sync {
    /// Whether the sink wants events at all. `false` lets emitters skip
    /// event construction — the entire cost of disabled tracing.
    fn enabled(&self) -> bool {
        true
    }

    /// Record one event.
    fn record(&self, record: TraceRecord);

    /// Flush/close the sink (e.g. terminate a streaming JSON document).
    /// Idempotent; a no-op by default.
    fn finish(&self) {}
}

/// The disabled sink: reports `enabled() == false` and drops anything
/// recorded anyway.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _record: TraceRecord) {}
}

/// In-memory sink: collects records for post-run export (Chrome trace,
/// decision log) and assertions.
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Mutex<Vec<TraceRecord>>,
}

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records collected so far (cloned; the sink keeps collecting).
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.lock().expect("sink lock").clone()
    }

    /// Drain the collected records.
    pub fn take(&self) -> Vec<TraceRecord> {
        std::mem::take(&mut *self.records.lock().expect("sink lock"))
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.records.lock().expect("sink lock").len()
    }

    /// Whether no record was collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn record(&self, record: TraceRecord) {
        self.records.lock().expect("sink lock").push(record);
    }
}

/// Streaming Chrome-trace JSON sink: each record is serialized and
/// written as it arrives, so a long run never buffers its whole trace.
/// [`TraceSink::finish`] (or drop) terminates the JSON document.
pub struct StreamSink {
    state: Mutex<StreamState>,
}

struct StreamState {
    writer: Box<dyn Write + Send>,
    written: usize,
    finished: bool,
}

impl StreamSink {
    /// Start a streaming trace document on `writer`.
    pub fn new(mut writer: Box<dyn Write + Send>) -> std::io::Result<Self> {
        writer.write_all(b"{\"traceEvents\":[")?;
        Ok(Self {
            state: Mutex::new(StreamState {
                writer,
                written: 0,
                finished: false,
            }),
        })
    }

    /// Records streamed so far.
    pub fn written(&self) -> usize {
        self.state.lock().expect("stream lock").written
    }
}

impl TraceSink for StreamSink {
    fn record(&self, record: TraceRecord) {
        let mut st = self.state.lock().expect("stream lock");
        if st.finished {
            return;
        }
        let json = chrome::event_json(&record);
        let sep: &[u8] = if st.written == 0 { b"" } else { b"," };
        // Trace output is best-effort by design: an I/O error must never
        // fail the (bit-identical) run it observes.
        let _ = st
            .writer
            .write_all(sep)
            .and_then(|()| st.writer.write_all(json.as_bytes()));
        st.written += 1;
    }

    fn finish(&self) {
        let mut st = self.state.lock().expect("stream lock");
        if st.finished {
            return;
        }
        st.finished = true;
        let _ = st.writer.write_all(b"]}").and_then(|()| st.writer.flush());
    }
}

impl Drop for StreamSink {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Stamp, TraceEvent};
    use std::sync::Arc;

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
    fn null_sink_is_disabled_and_drops() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.record(record(0)); // must not panic
    }

    #[test]
    fn memory_sink_collects_and_drains() {
        let sink = MemorySink::new();
        assert!(sink.enabled());
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

    /// Shared buffer `Write` target for exercising the stream sink.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_sink_emits_valid_json_incrementally() {
        let buf = SharedBuf::default();
        let sink = StreamSink::new(Box::new(buf.clone())).expect("stream opens");
        sink.record(record(0));
        sink.record(record(1));
        assert_eq!(sink.written(), 2);
        sink.finish();
        sink.finish(); // idempotent
        sink.record(record(2)); // post-finish records are dropped
        assert_eq!(sink.written(), 2);
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        crate::json::validate_json(&text).expect("streamed document is valid JSON");
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.ends_with("]}"));
    }

    #[test]
    fn empty_stream_is_still_a_valid_document() {
        let buf = SharedBuf::default();
        let sink = StreamSink::new(Box::new(buf.clone())).expect("stream opens");
        drop(sink); // drop finishes
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        crate::json::validate_json(&text).expect("empty document is valid JSON");
    }
}
