//! # popt-obs — non-invasive observability for the progressive engine
//!
//! The paper's premise is *non-invasive* observation: free-running
//! hardware counters read without perturbing the query (§3–§4). This
//! crate gives the engine's own decisions the same property. Every
//! decision point — trial leases, accepts/reverts, order publications,
//! cache warm-hits, LLC repartitions, socket homing — can emit a
//! structured [`event::TraceEvent`] into a [`sink::TraceSink`] that
//! hangs *outside* the simulated-cost path: tracing burns zero simulated
//! cycles, so enabling it is bit-identical to disabling it (pinned by
//! `tests/proptest_obs.rs` in the workspace root).
//!
//! Determinism is load-bearing and host time never enters a trace.
//! Events are stamped by [`tracer::Tracer`] with `(lane, simulated
//! cycle, ordinal)` where the cycle comes from a per-lane clock cell the
//! owning worker publishes at morsel boundaries and the ordinal from a
//! per-lane counter — both pure functions of the simulation, not of the
//! host scheduler. A disabled sink costs one branch; event payloads are
//! built lazily and never constructed when tracing is off.
//!
//! * [`event`] — the event taxonomy (admit → socket-home → morsel →
//!   reopt round → trial lease/accept/revert → order publish → cache
//!   hit/record/evict → LLC repartition → completion);
//! * [`sink`] — the [`sink::TraceSink`] trait with null, in-memory, and
//!   streaming-JSON implementations;
//! * [`tracer`] — per-lane clocks/ordinals and lazy emission;
//! * [`metrics`] — counters, gauges, and fixed-bucket histograms,
//!   snapshotable at any point;
//! * [`chrome`] — Chrome-trace-event JSON export (Perfetto per-core
//!   timelines);
//! * [`json`] — the workspace's one dependency-free JSON parser and
//!   validator;
//! * [`explain`] — the human-readable progressive decision log: *why*
//!   each order was accepted;
//! * [`drift`] — the model-drift observatory: predicted-vs-observed
//!   residuals per literal-free stage key, with windowed error
//!   statistics (how good is the model the decisions trust?);
//! * [`profile`] — the per-stage cycle profiler: attributed
//!   stage/optimizer/idle lanes under a bit-exact conservation law,
//!   exported as Chrome duration slices and a text flame summary.

pub mod chrome;
pub mod drift;
pub mod event;
pub mod explain;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod tracer;

pub use chrome::chrome_trace;
pub use drift::{DriftObservatory, DriftStats};
pub use event::{Arg, Stamp, TraceEvent, TraceRecord};
pub use explain::{decision_line, decision_log};
pub use json::{parse_json, validate_json, Json};
pub use metrics::{Histogram, MetricsRegistry};
pub use profile::{apportion, ProfLane, ProfSlice, Profiler};
pub use sink::{MemorySink, NullSink, StreamSink, TraceSink};
pub use tracer::Tracer;
