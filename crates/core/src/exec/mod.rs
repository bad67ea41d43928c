//! Query executors driving the simulated CPU.
//!
//! * [`scan`] — the vectorized multi-selection scan (the paper's compiled
//!   short-circuit loop, Section 2.1);
//! * [`program`] — the compiled flat stage form logical plans lower to:
//!   a filter pipeline mixing selections and foreign-key join filters
//!   (Sections 5.5–5.6) as one stage table plus an evaluation-order
//!   permutation;
//! * `kernel` — the one batched row loop behind both executors' fast
//!   paths, with run compression for clustered data;
//! * [`enumerator`] — the invasive, explicit-counter instrumentation
//!   baseline of the overhead experiment (Section 5.7).

pub mod enumerator;
mod kernel;
pub mod program;
pub mod scan;

pub use program::{CompiledProgram, CompiledStage};
pub use scan::{CompiledSelection, InstrCosts, VectorStats};
