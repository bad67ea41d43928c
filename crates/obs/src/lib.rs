//! # popt-obs — non-invasive observability for the progressive engine
//!
//! The paper's premise is *non-invasive* observation: free-running
//! hardware counters read without perturbing the query (§3–§4). This
//! crate gives the engine's own decisions the same property. Every
//! decision point — trial leases, accepts/reverts, order publications,
//! cache warm-hits, LLC repartitions, socket homing — can emit a
//! structured [`event::TraceEvent`] into a [`sink::MemorySink`] that
//! hangs *outside* the simulated-cost path: tracing burns zero simulated
//! cycles, so a traced run is bit-identical to an untraced one (pinned
//! by `tests/proptest_obs.rs` in the workspace root).
//!
//! Determinism is load-bearing and host time never enters a trace.
//! Events are stamped by [`tracer::Tracer`] with `(lane, simulated
//! cycle, ordinal)` where the cycle comes from a per-lane clock cell the
//! owning worker publishes at morsel boundaries and the ordinal from a
//! per-lane counter — both pure functions of the simulation, not of the
//! host scheduler. Tracing is off exactly when no tracer is attached:
//! the engine's hot path is then one `None` check, and no event payload
//! is ever built. Run-level counts and gauges are not restated here —
//! the engine's reports (`ParallelReport`, `ServeReport`, the order
//! cache's `CacheStats`) are the metrics.
//!
//! * [`event`] — the event taxonomy (admit → socket-home → morsel →
//!   reopt round → trial lease/accept/revert → order publish → cache
//!   hit/record/evict → LLC repartition → completion);
//! * [`sink`] — the in-memory [`sink::MemorySink`] every tracer records
//!   into;
//! * [`tracer`] — per-lane clocks/ordinals and stamping;
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
pub mod profile;
pub mod sink;
pub mod tracer;

pub use chrome::chrome_trace;
pub use drift::{DriftObservatory, DriftStats};
pub use event::{Arg, Stamp, TraceEvent, TraceRecord};
pub use explain::{decision_line, decision_log};
pub use json::{parse_json, validate_json, Json};
pub use profile::{apportion, ProfLane, ProfSlice, Profiler};
pub use sink::MemorySink;
pub use tracer::Tracer;
