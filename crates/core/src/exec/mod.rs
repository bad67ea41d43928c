//! Query executors driving the simulated CPU.
//!
//! * [`program`] — the one compiled form every query runs as: a flat
//!   stage table plus an evaluation-order permutation, lowered from a
//!   logical plan (selections and foreign-key join filters, Sections
//!   5.5–5.6) or from a multi-selection plan (the compiled short-circuit
//!   loop of Section 2.1);
//! * [`scan`] — what every execution of that loop shares: instruction
//!   charges, the back-edge's branch site, per-range measurements;
//! * `kernel` — the batched row loop behind the program's fast path, with
//!   run compression for clustered data;
//! * [`enumerator`] — the invasive, explicit-counter instrumentation
//!   baseline of the overhead experiment (Section 5.7).

pub mod enumerator;
mod kernel;
pub mod program;
pub mod scan;

pub use program::{CompiledProgram, CompiledStage};
pub use scan::{InstrCosts, VectorStats};
