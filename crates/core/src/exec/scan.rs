//! The vectorized multi-selection scan.
//!
//! Section 2.1 describes the machine code a JIT-compiling engine emits for
//! a conjunctive selection: per tuple, one load + compare + conditional
//! branch per predicate, short-circuiting on the first failure, then the
//! aggregate update and the loop back-edge. This module is that loop,
//! "executed" against the simulated CPU: every predicate owns a static
//! branch site (keyed by its *plan* index so predictor state follows the
//! predicate across reorders, as it would across JIT recompilations at the
//! same code addresses), every column is one access stream, and a
//! qualifying tuple falls through (branch **not** taken) while a failing
//! tuple jumps (branch **taken**) — producing exactly the counter
//! identities of Section 2.2:
//!
//! * `qualifying = 2·n − branches_taken`
//! * `branches_not_taken = Σ per-predicate survivors`

use popt_cpu::{BranchSite, SimCpu};
use popt_storage::Table;

use popt_cost::estimate::PlanGeometry;
use popt_cost::markov::ChainSpec;
use popt_cpu::pmu::CounterDelta;
use popt_solver::SampledCounters;

use crate::error::EngineError;
use crate::exec::kernel::{ColumnRef, RowKernel};
use crate::plan::{Peo, SelectionPlan};
use crate::predicate::CompareOp;

/// Instruction charges of the generated loop (mirrored by the analytic
/// cycle model's defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrCosts {
    /// Per loop iteration: counter increment + bounds test.
    pub loop_overhead: u64,
    /// Per predicate evaluation: load + compare + jump (+ address math).
    pub per_eval: u64,
    /// Per aggregate column read for a qualifying tuple.
    pub per_agg_column: u64,
}

impl Default for InstrCosts {
    fn default() -> Self {
        Self {
            loop_overhead: 2,
            per_eval: 4,
            per_agg_column: 3,
        }
    }
}

/// Branch site id of the loop back-edge (predicate sites use their plan
/// index).
pub const LOOP_BRANCH_SITE: BranchSite = BranchSite(u32::MAX);

pub(crate) struct CompiledPredicate<'t> {
    pub(crate) column: ColumnRef<'t>,
    pub(crate) site: BranchSite,
    pub(crate) op: CompareOp,
    pub(crate) literal: i64,
    pub(crate) extra_instructions: u64,
}

/// A selection plan compiled for one PEO over one table.
pub struct CompiledSelection<'t> {
    pub(crate) preds: Vec<CompiledPredicate<'t>>,
    pub(crate) agg: Vec<ColumnRef<'t>>,
    peo: Peo,
    rows: usize,
    pub(crate) costs: InstrCosts,
    /// When set, `run_range` uses the scalar per-event oracle path.
    scalar_oracle: bool,
}

/// Measurements of one executed vector (or any row range).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorStats {
    /// Tuples processed.
    pub tuples: u64,
    /// Tuples qualifying all predicates (engine ground truth).
    pub qualified: u64,
    /// Aggregate sum over qualifying tuples (product across aggregate
    /// columns, summed).
    pub sum: i64,
    /// Counter deltas for exactly this range.
    pub counters: CounterDelta,
}

impl VectorStats {
    /// The output cardinality as the *counters* see it: `2·n − bT`
    /// (Section 2.2). Equals [`VectorStats::qualified`] whenever the scan
    /// ran alone between the snapshots — the non-invasive path the
    /// estimator uses.
    pub fn derived_output(&self) -> u64 {
        (2 * self.tuples).saturating_sub(self.counters.branches_taken)
    }

    /// Package the measurements for the selectivity estimator.
    pub fn sampled_counters(&self) -> SampledCounters {
        SampledCounters {
            n_input: self.tuples,
            n_output: self.derived_output(),
            bnt: self.counters.branches_not_taken,
            mp_taken: self.counters.mp_taken,
            mp_not_taken: self.counters.mp_not_taken,
            l3_accesses: self.counters.l3_accesses,
        }
    }

    /// Cycles per tuple — the accept/revert metric of the trial step.
    pub fn cycles_per_tuple(&self) -> f64 {
        if self.tuples == 0 {
            0.0
        } else {
            self.counters.cycles as f64 / self.tuples as f64
        }
    }

    /// Merge another range's measurements into this one.
    pub fn accumulate(&mut self, other: &VectorStats) {
        self.tuples += other.tuples;
        self.qualified += other.qualified;
        self.sum += other.sum;
        self.counters.accumulate(&other.counters);
    }

    /// All-zero stats.
    pub fn zero() -> Self {
        Self {
            tuples: 0,
            qualified: 0,
            sum: 0,
            counters: CounterDelta::default(),
        }
    }
}

impl std::fmt::Debug for CompiledSelection<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledSelection")
            .field("peo", &self.peo)
            .field("predicates", &self.preds.len())
            .field("agg_columns", &self.agg.len())
            .field("rows", &self.rows)
            .finish()
    }
}

impl<'t> CompiledSelection<'t> {
    /// Compile `plan` against `table` with the given evaluation order.
    pub fn compile(
        table: &'t Table,
        plan: &SelectionPlan,
        peo: &[usize],
    ) -> Result<Self, EngineError> {
        Self::compile_with_costs(table, plan, peo, InstrCosts::default())
    }

    /// [`CompiledSelection::compile`] with explicit instruction charges.
    pub fn compile_with_costs(
        table: &'t Table,
        plan: &SelectionPlan,
        peo: &[usize],
        costs: InstrCosts,
    ) -> Result<Self, EngineError> {
        plan.validate_peo(peo)?;
        let mut preds = Vec::with_capacity(peo.len());
        for &plan_idx in peo {
            let p = &plan.predicates[plan_idx];
            preds.push(CompiledPredicate {
                column: ColumnRef::resolve(table, &p.column)?,
                site: BranchSite(plan_idx as u32),
                op: p.op,
                literal: p.literal,
                extra_instructions: p.extra_instructions,
            });
        }
        let agg = plan
            .aggregate_columns
            .iter()
            .map(|name| ColumnRef::resolve(table, name))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            preds,
            agg,
            peo: peo.to_vec(),
            rows: table.rows(),
            costs,
            scalar_oracle: false,
        })
    }

    /// The evaluation order this compilation uses (plan indices).
    pub fn peo(&self) -> &[usize] {
        &self.peo
    }

    /// Rows available in the underlying table.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Counter-model geometry for this compilation (used by the
    /// estimator): per-predicate column widths and identities in
    /// evaluation order. Aggregate columns already read by a predicate are
    /// cache-resident and excluded from the geometry's fresh-column list.
    pub fn plan_geometry(&self, n_input: u64, chain: ChainSpec, line_bytes: u32) -> PlanGeometry {
        let column_ids: Vec<usize> = self.preds.iter().map(|p| p.column.stream).collect();
        let mut seen_agg: Vec<usize> = Vec::with_capacity(self.agg.len());
        let agg_bytes: Vec<u32> = self
            .agg
            .iter()
            .filter(|a| {
                let fresh = !column_ids.contains(&a.stream) && !seen_agg.contains(&a.stream);
                seen_agg.push(a.stream);
                fresh
            })
            .map(|_| 4)
            .collect();
        PlanGeometry {
            n_input,
            value_bytes: vec![4; self.preds.len()],
            column_ids,
            agg_bytes,
            line_bytes,
            chain,
            // A multi-selection scan has no dimension probes.
            probes: Vec::new(),
        }
    }

    /// Force every subsequent [`CompiledSelection::run_range`] call
    /// through the scalar per-event oracle instead of the batched fast
    /// path. Test/verification hook; the paths are bit-identical.
    pub fn set_scalar_oracle(&mut self, on: bool) {
        self.scalar_oracle = on;
    }

    /// Execute rows `start..end` against `cpu`, returning measurements for
    /// exactly that range. Dispatches to the batched row kernel
    /// ([`crate::exec::kernel`]) unless the scalar oracle was requested or
    /// the shape exceeds the kernel's fixed scratch.
    pub fn run_range(&self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        assert!(start <= end && end <= self.rows, "row range out of bounds");
        match (!self.scalar_oracle).then(|| self.kernel()).flatten() {
            Some(kernel) => kernel.run(cpu, start, end),
            None => self.run_range_scalar(cpu, start, end),
        }
    }

    /// The predicates in evaluation order and the aggregate columns,
    /// resolved for the row kernel; `None` when they exceed its scratch.
    fn kernel(&self) -> Option<RowKernel<'t>> {
        let mut kernel = RowKernel::new(self.costs);
        for p in &self.preds {
            kernel.push_stage(
                p.column,
                None,
                p.site,
                p.op,
                p.literal,
                p.extra_instructions,
            )?;
        }
        for a in &self.agg {
            kernel.push_agg(*a)?;
        }
        Some(kernel)
    }

    /// The scalar per-event oracle: one `SimCpu` call per simulated
    /// event — the reference semantics the batched
    /// [`CompiledSelection::run_range`] is proptest-pinned against.
    pub fn run_range_scalar(&self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        assert!(start <= end && end <= self.rows, "row range out of bounds");
        let before = cpu.counters();
        let mut qualified = 0u64;
        let mut sum = 0i64;
        let costs = self.costs;
        for i in start..end {
            cpu.instr(costs.loop_overhead);
            let mut pass = true;
            for p in &self.preds {
                cpu.load(p.column.stream, p.column.base + (i as u64) * 4, 4);
                cpu.instr(costs.per_eval + p.extra_instructions);
                let ok = p.op.eval(i64::from(p.column.values[i]), p.literal);
                // Qualifying tuple: fall through (not taken). Failing
                // tuple: jump past the remaining predicate code (taken).
                cpu.branch(p.site, !ok);
                if !ok {
                    pass = false;
                    break;
                }
            }
            if pass {
                qualified += 1;
                let mut product = 1i64;
                for a in &self.agg {
                    cpu.load(a.stream, a.base + (i as u64) * 4, 4);
                    cpu.instr(costs.per_agg_column);
                    product *= i64::from(a.values[i]);
                }
                if !self.agg.is_empty() {
                    sum += product;
                }
            }
            // Loop back-edge: taken every iteration.
            cpu.branch(LOOP_BRANCH_SITE, true);
        }
        let after = cpu.counters();
        VectorStats {
            tuples: (end - start) as u64,
            qualified,
            sum,
            counters: after.since(&before),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use popt_cpu::CpuConfig;
    use popt_storage::{AddressSpace, ColumnData, Table};

    fn test_table(n: usize) -> Table {
        let mut space = AddressSpace::new();
        let mut t = Table::new("t");
        // a: 0..n cyclic mod 100; b: constant blocks; agg: all ones.
        t.add_column(
            "a",
            ColumnData::I32((0..n).map(|i| (i % 100) as i32).collect()),
            &mut space,
        );
        t.add_column(
            "b",
            ColumnData::I32((0..n).map(|i| (i / 100 % 10) as i32).collect()),
            &mut space,
        );
        t.add_column("agg", ColumnData::I32(vec![2; n]), &mut space);
        t
    }

    fn plan() -> SelectionPlan {
        SelectionPlan::new(
            vec![
                Predicate::new("a", CompareOp::Lt, 50),
                Predicate::new("b", CompareOp::Lt, 5),
            ],
            vec!["agg".into()],
        )
        .unwrap()
    }

    fn cpu() -> SimCpu {
        SimCpu::new(CpuConfig::tiny_test())
    }

    #[test]
    fn qualifying_count_is_exact() {
        let t = test_table(1000);
        let c = CompiledSelection::compile(&t, &plan(), &[0, 1]).unwrap();
        let mut cpu = cpu();
        let stats = c.run_range(&mut cpu, 0, 1000);
        // a < 50: 50%, b < 5: 50%, independent-ish by construction.
        assert_eq!(stats.qualified, 250);
        assert_eq!(stats.sum, 500); // 2 per qualifying tuple
    }

    #[test]
    fn result_is_peo_invariant() {
        let t = test_table(2000);
        let mut results = Vec::new();
        for peo in [[0usize, 1], [1, 0]] {
            let c = CompiledSelection::compile(&t, &plan(), &peo).unwrap();
            let mut cpu = cpu();
            let stats = c.run_range(&mut cpu, 0, 2000);
            results.push((stats.qualified, stats.sum));
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn derived_output_matches_ground_truth() {
        let t = test_table(1000);
        let c = CompiledSelection::compile(&t, &plan(), &[1, 0]).unwrap();
        let mut cpu = cpu();
        let stats = c.run_range(&mut cpu, 0, 1000);
        assert_eq!(stats.derived_output(), stats.qualified);
    }

    #[test]
    fn bnt_equals_survivor_sum() {
        let t = test_table(1000);
        let c = CompiledSelection::compile(&t, &plan(), &[0, 1]).unwrap();
        let mut cpu = cpu();
        let stats = c.run_range(&mut cpu, 0, 1000);
        // Survivors: after a<50 -> 500; after b<5 -> 250. BNT = 750.
        assert_eq!(stats.counters.branches_not_taken, 750);
    }

    #[test]
    fn branches_taken_follow_failures_plus_loop() {
        let t = test_table(1000);
        let c = CompiledSelection::compile(&t, &plan(), &[0, 1]).unwrap();
        let mut cpu = cpu();
        let stats = c.run_range(&mut cpu, 0, 1000);
        // Failures: 500 at a, 250 at b; loop: 1000.
        assert_eq!(stats.counters.branches_taken, 500 + 250 + 1000);
    }

    #[test]
    fn short_circuit_skips_later_columns() {
        let t = test_table(1000);
        // Evaluate `a` first: `b` is only accessed for survivors of `a`.
        let c01 = CompiledSelection::compile(&t, &plan(), &[0, 1]).unwrap();
        let c10 = CompiledSelection::compile(&t, &plan(), &[1, 0]).unwrap();
        let mut cpu_a = cpu();
        let mut cpu_b = cpu();
        let s01 = c01.run_range(&mut cpu_a, 0, 1000);
        let s10 = c10.run_range(&mut cpu_b, 0, 1000);
        // Both orders have 50% first-predicate selectivity here, so
        // element access counts match; but survivors differ per column.
        // Check overall L1 accesses are plausible and BNT identical
        // (same survivor sums by symmetry of this data: 500 + 250).
        assert_eq!(
            s01.counters.branches_not_taken,
            s10.counters.branches_not_taken
        );
        // Loads: order a-first reads a 1000x, b 500x, agg 250x.
        let loads01 = s01.counters.l1_accesses + s01.counters.l1_element_hits;
        assert_eq!(loads01, 1000 + 500 + 250);
    }

    #[test]
    fn sampled_counters_roundtrip() {
        let t = test_table(500);
        let c = CompiledSelection::compile(&t, &plan(), &[0, 1]).unwrap();
        let mut cpu = cpu();
        let stats = c.run_range(&mut cpu, 0, 500);
        let s = stats.sampled_counters();
        assert_eq!(s.n_input, 500);
        assert_eq!(s.n_output, stats.qualified);
        assert_eq!(s.bnt, stats.counters.branches_not_taken);
    }

    #[test]
    fn compile_rejects_unknown_column() {
        let t = test_table(10);
        let bad =
            SelectionPlan::new(vec![Predicate::new("nope", CompareOp::Lt, 1)], vec![]).unwrap();
        assert_eq!(
            CompiledSelection::compile(&t, &bad, &[0]).unwrap_err(),
            EngineError::UnknownColumn("nope".into())
        );
    }

    #[test]
    fn compile_rejects_bad_peo() {
        let t = test_table(10);
        assert!(matches!(
            CompiledSelection::compile(&t, &plan(), &[0, 0]).unwrap_err(),
            EngineError::InvalidPeo { .. }
        ));
    }

    #[test]
    fn compile_rejects_i64_column() {
        let mut space = AddressSpace::new();
        let mut t = Table::new("t");
        t.add_column("w", ColumnData::I64(vec![1, 2, 3]), &mut space);
        let p = SelectionPlan::new(vec![Predicate::new("w", CompareOp::Lt, 2)], vec![]).unwrap();
        assert_eq!(
            CompiledSelection::compile(&t, &p, &[0]).unwrap_err(),
            EngineError::UnsupportedColumnType("w".into())
        );
    }

    #[test]
    fn empty_range_is_empty_stats() {
        let t = test_table(100);
        let c = CompiledSelection::compile(&t, &plan(), &[0, 1]).unwrap();
        let mut cpu = cpu();
        let stats = c.run_range(&mut cpu, 50, 50);
        assert_eq!(stats.tuples, 0);
        assert_eq!(stats.qualified, 0);
        assert_eq!(stats.counters.branches, 0);
    }

    #[test]
    fn expensive_predicate_costs_more() {
        let t = test_table(1000);
        let cheap = plan();
        let mut expensive = plan();
        expensive.predicates[0].extra_instructions = 100;
        let cc = CompiledSelection::compile(&t, &cheap, &[0, 1]).unwrap();
        let ce = CompiledSelection::compile(&t, &expensive, &[0, 1]).unwrap();
        let mut cpu1 = cpu();
        let mut cpu2 = cpu();
        let s1 = cc.run_range(&mut cpu1, 0, 1000);
        let s2 = ce.run_range(&mut cpu2, 0, 1000);
        assert!(s2.counters.cycles > s1.counters.cycles);
        assert_eq!(s1.qualified, s2.qualified);
    }

    #[test]
    fn count_only_plan_has_zero_sum() {
        let t = test_table(100);
        let p = SelectionPlan::new(vec![Predicate::new("a", CompareOp::Lt, 50)], vec![]).unwrap();
        let c = CompiledSelection::compile(&t, &p, &[0]).unwrap();
        let mut cpu = cpu();
        let stats = c.run_range(&mut cpu, 0, 100);
        assert_eq!(stats.sum, 0);
        assert_eq!(stats.qualified, 50);
    }
}
