//! # popt-core — vectorized execution with progressive optimization
//!
//! The paper's primary contribution: a vectorized, column-at-a-time
//! execution engine whose multi-selection scans are **re-optimized during
//! execution** from non-invasive performance counters (Sections 4.4–4.5),
//! plus the sortedness/co-clusteredness detection that extends the
//! approach to join ordering (Sections 5.5–5.6).
//!
//! * [`predicate`] / [`plan`] — predicate and plan representation, PEO
//!   permutation utilities, and the **query frontend**: a typed
//!   [`plan::LogicalPlan`] builder ([`plan::PlanBuilder`], the single
//!   entry door for query construction), static optimizer passes
//!   ([`plan::passes`]: constant folding, join-condition extraction,
//!   filter pushdown, projection pruning, run in that fixed order by
//!   [`plan::LogicalPlan::optimize`]), and lowering to
//!   the compiled flat stage form ([`exec::program::CompiledProgram`])
//!   the progressive runtime reorders with a cheap permutation re-emit;
//! * [`exec`] — the one compiled form, [`exec::program::CompiledProgram`]:
//!   the short-circuit branch code of Section 2.1 driven against the
//!   simulated CPU, with optional foreign-key join-filter stages (a
//!   multi-selection scan is a program without them), and the invasive
//!   enumerator baseline of Section 5.7;
//! * [`progressive`] — the progressive optimization loop of Figure 10:
//!   sample counters per vector, estimate selectivities, reorder, trial,
//!   revert on regression. It drives any
//!   [`progressive::ProgressiveTarget`]; the engine's one target,
//!   [`progressive::CompiledTarget`], ranks a probe-free program by
//!   ascending selectivity (Section 4.4) and a program with join filters
//!   by estimated cost per input tuple, calibrating probe locality from
//!   the counters (Sections 5.5–5.6);
//! * [`parallel`] — morsel-driven parallel execution with *shared*
//!   progressive reoptimization: one driver steps independent simulated
//!   cores over cache-friendly morsels in simulated-time order,
//!   per-worker counter samples fuse into one pool-wide estimate,
//!   accepted orders are epoch-published to every worker, and trial
//!   orders are leased to exactly one core;
//! * [`serve`] — multi-query serving over the shared pool: admission by
//!   arrival time, stride scheduling by priority, per-query progressive
//!   coordination, and a cross-query order/calibration cache that lets a
//!   repeated query template start from its last converged state;
//! * [`sortedness`] — counter-based access-pattern classification and join
//!   reordering advice;
//! * [`query`] — a high-level builder API (TPC-H Q6 ships as a preset).
//!
//! ```
//! use popt_core::query::{QueryBuilder, RunMode};
//! use popt_storage::tpch::{generate_lineitem, TpchConfig};
//!
//! let table = generate_lineitem(&TpchConfig::tiny());
//! let baseline = QueryBuilder::q6(&table)
//!     .run(RunMode::Baseline)
//!     .unwrap();
//! let optimized = QueryBuilder::q6(&table)
//!     .run(RunMode::Progressive { reop_interval: 2 })
//!     .unwrap();
//! // Same answer, independent of how the plan was reordered mid-query.
//! assert_eq!(baseline.result.sum, optimized.result.sum);
//! ```

pub mod error;
pub mod exec;
pub mod observe;
pub mod parallel;
pub mod plan;
mod policy;
pub mod predicate;
pub mod progressive;
pub mod query;
pub mod serve;
pub mod sortedness;

pub use error::EngineError;
pub use exec::program::{CompiledProgram, CompiledStage};
pub use observe::ExecObservers;
pub use parallel::{
    run_parallel_program_observed, run_parallel_target_observed, MorselConfig, MorselDispatcher,
    ParallelReport, ShardableTarget, TargetShard,
};
pub use plan::{Expr, LogicalNode, LogicalPlan, Peo, PlanBuilder, SelectionPlan};
pub use predicate::{CompareOp, Predicate};
pub use progressive::{
    run_progressive_program_observed, run_progressive_target_observed, CompiledTarget,
    ProgressiveConfig, ProgressiveReport, ProgressiveTarget, VectorConfig,
};
pub use query::{QueryBuilder, QueryReport, RunMode};
pub use serve::{
    CacheStats, OrderCache, Priority, QueryServer, QuerySpec, ServeConfig, ServeReport,
    StrideScheduler, WarmRecordOutcome, WorkloadSignature,
};
