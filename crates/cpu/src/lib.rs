//! # popt-cpu — a deterministic simulated CPU with a performance monitoring unit
//!
//! The paper drives progressive query optimization from hardware performance
//! counters (branches taken / not taken, mispredictions split by direction,
//! L3 cache accesses). Real PMUs are neither portable nor deterministic, so
//! this crate provides the substrate the rest of the system runs on: a
//! software model of the microarchitectural structures that *generate* those
//! counters.
//!
//! The model contains exactly the mechanisms the paper's cost models reason
//! about:
//!
//! * a **branch predictor** built from n-state saturating counters (the
//!   automaton whose stationary distribution is the paper's Markov chain,
//!   Section 3.2), optionally indexed by global history (gshare style) so
//!   that sorted inputs become predictable — the effect Section 5.4 exploits;
//! * a **set-associative, LRU, three-level cache hierarchy** with an
//!   adjacent-line prefetcher, producing the "L3 accesses = demand + prefetch
//!   requests" semantics of Section 2.2.2 and the double-counted random
//!   misses of the paper's modified Pirk model (Section 3.1);
//! * a **cycle accounting model** (misprediction penalty plus per-level
//!   memory latencies, with cheaper sequential-stream fills) that converts
//!   executed work into simulated milliseconds for the runtime figures;
//! * a **[`CpuPool`] of independent cores** (each with its own cache
//!   hierarchy and free-running PMU bank) for morsel-driven parallel
//!   execution — the parallel region's wall clock is its busiest core.
//!   The pool can be split into **sockets**, each with its own shared-LLC
//!   partition, and a [`NumaPlacement`] homes address ranges so that
//!   remote-socket misses pay a deterministic latency surcharge.
//!
//! Everything is deterministic: the same event stream produces the same
//! counter values on every run, which makes the reproduction testable.
//! That holds across host threads too: a core's batched events
//! ([`BatchCpu`]) hand their cache-hierarchy walks to one process-wide
//! walker thread when it is free, which applies them in program order
//! while the row loop runs on ([`walker_batches`] counts its batches);
//! otherwise they walk inline.
//!
//! ## Quick example
//!
//! ```
//! use popt_cpu::{SimCpu, CpuConfig, BranchSite};
//!
//! let mut cpu = SimCpu::new(CpuConfig::ivy_bridge());
//! let site = BranchSite(0);
//! for i in 0..1000u64 {
//!     cpu.load(0, i * 4, 4);          // stream 0: sequential 4-byte loads
//!     cpu.branch(site, i % 10 == 0);  // 10% taken
//! }
//! let c = cpu.counters();
//! assert_eq!(c.branches_taken + c.branches_not_taken, 1000);
//! assert!(cpu.cycles() > 0);
//! ```

pub mod batch;
pub mod branch;
pub mod cache;
pub mod config;
pub mod cpu;
pub mod numa;
pub mod pmu;
pub mod pool;
mod walker;

pub use batch::BatchCpu;
pub use branch::{BranchPredictor, BranchSite, SaturatingAutomaton};
pub use cache::{CacheHierarchy, CacheLevel, LevelStats};
pub use config::{CacheLevelConfig, CpuConfig, PredictorConfig, TimingConfig};
pub use cpu::SimCpu;
pub use numa::{HomeSegment, NumaPlacement};
pub use pmu::{CounterDelta, Counters, Pmu};
pub use pool::{partition_llc_ways, CpuPool, LlcMode};
pub use walker::walker_batches;
