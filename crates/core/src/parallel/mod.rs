//! Morsel-driven parallel execution with shared progressive
//! reoptimization.
//!
//! The paper's §4.4 loop is vector-at-a-time on one core; this module is
//! the intra-query-parallel generalization. Three pieces:
//!
//! * a [`popt_cpu::CpuPool`] of independent simulated cores — per-core
//!   cache hierarchies and free-running PMU banks, sharing nothing but
//!   the immutable column store;
//! * a [`MorselDispatcher`] that carves the scanned row range into
//!   cache-friendly morsels with a deterministic interleaved placement
//!   (morsel `k` → worker `k mod N`, HyPer-style morsel-wise work
//!   division) claimed lazily by real `std::thread` workers — placement
//!   independent of host scheduling, so simulated per-core cycle counts
//!   are reproducible on any machine;
//! * a progressive **coordinator** ([`run_parallel_target_observed`]),
//!   the pooled drive of the same §4.4 policy object the serial
//!   `run_progressive*` runners drive:
//!   per-worker counter samples are fused into one pool-wide estimate,
//!   accepted operator orders are epoch-published (workers re-chain
//!   their pre-compiled primitives at the next morsel boundary), and
//!   trial / measurement-probe orders are leased to exactly one worker
//!   so a bad candidate never runs on more than one core.
//!
//! What makes a target parallelizable is [`ShardableTarget`]: on top of
//! the serial [`ProgressiveTarget`] contract (order proposal, geometry,
//! calibration — the *model* side, owned by the coordinator), it can
//! mint per-worker [`TargetShard`]s (the *execution* side: an
//! independently order-switchable executor over the same immutable
//! data). Both built-in targets — the multi-selection scan and the
//! compiled selection/join-filter program — are shardable, via
//! [`run_parallel_scan`] and [`run_parallel_program`].
//!
//! Results are bit-identical to the single-core executor for any worker
//! count and morsel size: qualifying counts and aggregate sums are
//! integer accumulations over disjoint row ranges, so neither the
//! partitioning nor the completion order can change them.
//!
//! ```
//! use popt_core::parallel::{run_parallel_scan, MorselConfig};
//! use popt_core::plan::SelectionPlan;
//! use popt_core::predicate::{CompareOp, Predicate};
//! use popt_cpu::{CpuConfig, CpuPool};
//! use popt_storage::{AddressSpace, ColumnData, Table};
//!
//! let mut space = AddressSpace::new();
//! let mut table = Table::new("t");
//! table.add_column(
//!     "a",
//!     ColumnData::I32((0..8192).map(|i| (i % 128) as i32).collect()),
//!     &mut space,
//! );
//! let plan =
//!     SelectionPlan::new(vec![Predicate::new("a", CompareOp::Lt, 50)], vec![]).unwrap();
//! let mut pool = CpuPool::new(CpuConfig::tiny_test(), 4);
//! let report = run_parallel_scan(
//!     &table,
//!     &plan,
//!     &[0],
//!     MorselConfig::new(1024),
//!     &mut pool,
//!     None, // baseline; Some(&ProgressiveConfig) enables reopt
//! )
//! .unwrap();
//! assert_eq!(report.qualified, 3200); // 64 cycles of 128 values, 50 qualify each
//! assert_eq!(report.workers, 4);
//! ```

pub mod coordinator;
pub mod morsel;

pub use coordinator::{
    run_parallel_program, run_parallel_program_observed, run_parallel_scan,
    run_parallel_target_observed, ParallelReport,
};
pub use morsel::{MorselConfig, MorselDispatcher};

use popt_cpu::SimCpu;

use crate::error::EngineError;
use crate::exec::program::CompiledProgram;
use crate::exec::scan::VectorStats;
use crate::progressive::{CompiledTarget, ProgressiveTarget, ScanTarget};

/// A per-worker executor: the execution half of a progressive target,
/// runnable over arbitrary row ranges and switchable to any published
/// order at a morsel boundary. Shards are `Send` (they move into worker
/// threads) and share only immutable column data.
pub trait TargetShard: Send {
    /// Re-chain to `order` (a permutation of plan/stage indices).
    fn set_order(&mut self, order: &[usize]) -> Result<(), EngineError>;

    /// Execute rows `start..end` on the worker's private core.
    fn run_range(&mut self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats;
}

/// A progressive target whose execution can be sharded across workers:
/// the master instance keeps the shared estimator model (geometry,
/// order proposal, probe calibration) while [`ShardableTarget::shard`]
/// mints independent executors over the same immutable data.
pub trait ShardableTarget: ProgressiveTarget {
    /// The per-worker executor type.
    type Shard: TargetShard;

    /// Mint a worker executor starting in the target's current order.
    fn shard(&self) -> Result<Self::Shard, EngineError>;
}

impl TargetShard for ScanTarget<'_, '_> {
    fn set_order(&mut self, order: &[usize]) -> Result<(), EngineError> {
        ProgressiveTarget::set_order(self, order)
    }

    fn run_range(&mut self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        ProgressiveTarget::run_range(self, cpu, start, end)
    }
}

impl<'p, 't> ShardableTarget for ScanTarget<'p, 't> {
    type Shard = ScanTarget<'p, 't>;

    fn shard(&self) -> Result<Self::Shard, EngineError> {
        ScanTarget::new(self.table, self.plan, self.compiled.peo())
    }
}

/// A worker-owned compiled-program clone (the stage table borrows the
/// shared immutable column data, so the clone is cheap — re-chaining is
/// just the order permutation re-emit).
pub struct CompiledShard<'t> {
    program: CompiledProgram<'t>,
}

impl TargetShard for CompiledShard<'_> {
    fn set_order(&mut self, order: &[usize]) -> Result<(), EngineError> {
        self.program.reorder(order)
    }

    fn run_range(&mut self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        self.program.run_range(cpu, start, end)
    }
}

impl<'t> ShardableTarget for CompiledTarget<'_, 't> {
    type Shard = CompiledShard<'t>;

    fn shard(&self) -> Result<Self::Shard, EngineError> {
        Ok(CompiledShard {
            program: self.program().clone(),
        })
    }
}
