//! The compiled flat stage form: what a [`crate::plan::LogicalPlan`] and
//! a multi-selection [`SelectionPlan`] lower to, and what every executor
//! and the progressive runtime run.
//!
//! Lowering emits a compact *stage table* — one [`CompiledStage`] per
//! canonical conjunct (column base address, stream id, comparison op,
//! literal, optional probe geometry into a dimension) — plus a separate
//! evaluation-order permutation. A progressive reorder is therefore a
//! cheap re-emit of the permutation ([`CompiledProgram::reorder`]): the
//! stage table never moves.
//!
//! Stages are *filters* over the fact table's tuple stream (Sections
//! 5.5–5.6): a join stage probes the dimension tuple addressed by the
//! foreign key and tests a predicate on its payload, so the same
//! short-circuit loop shape applies and operators reorder exactly like
//! predicates. The cache behaviour is what differs — a probe into a
//! co-clustered dimension (lineitem→orders) is a near-sequential access
//! stream, a probe into a randomly keyed one (lineitem→part) is the
//! random pattern Equation 1 prices.
//!
//! The reference semantics are the program's own scalar oracle,
//! [`CompiledProgram::run_range_scalar`] — one `SimCpu` call per
//! simulated event. The batched [`CompiledProgram::run_range`] produces
//! the same results and the same simulated CPU events (loads,
//! instruction charges, branch sites, short-circuit order), pinned by
//! `tests/proptest_fastpath.rs`.

use std::hash::{Hash, Hasher};

use popt_cost::cycles::{INSTR_LOOP, INSTR_PER_AGG_COLUMN, INSTR_PER_EVAL};
use popt_cost::estimate::{PlanGeometry, ProbeGeometry};
use popt_cost::join_model::JoinGeometry;
use popt_cost::markov::ChainSpec;
use popt_cpu::{BranchSite, CpuConfig, NumaPlacement, SimCpu};
use popt_storage::Table;

use crate::error::EngineError;
use crate::exec::kernel::{ColumnRef, RowKernel};
use crate::exec::scan::{VectorStats, LOOP_BRANCH_SITE};
use crate::plan::logical::{Expr, LogicalNode, LogicalPlan};
use crate::plan::SelectionPlan;
use crate::predicate::CompareOp;

/// Instructions charged per probe over the base per-eval charge — the
/// index arithmetic (or hashing) of a foreign-key probe.
const PROBE_INSTRUCTIONS: u64 = 6;

/// One compiled stage: evaluate `op(column[i], literal)` per tuple —
/// directly for selections, through a foreign-key probe for joins (the
/// stage's column is then the FK and the tested value is the probed
/// dimension payload).
#[derive(Clone)]
pub struct CompiledStage<'t> {
    column: ColumnRef<'t>,
    site: BranchSite,
    op: CompareOp,
    literal: i64,
    /// Per-eval instructions over the base charge: UDF cost for
    /// selections, probe arithmetic for joins.
    extra_instructions: u64,
    /// The dimension payload column a join stage probes.
    probe: Option<ColumnRef<'t>>,
}

impl CompiledStage<'_> {
    /// Whether the stage probes a dimension.
    pub fn is_join(&self) -> bool {
        self.probe.is_some()
    }

    /// The stage's literal operand.
    pub fn literal(&self) -> i64 {
        self.literal
    }

    /// Base address of the probed dimension payload, for joins.
    pub fn dim_base(&self) -> Option<u64> {
        self.probe.map(|p| p.base)
    }

    /// Rows of the probed dimension, for joins.
    pub fn dim_rows(&self) -> Option<usize> {
        self.probe.map(|p| p.values.len())
    }

    /// Instructions charged per evaluation over the base charge.
    pub fn extra_instructions(&self) -> u64 {
        self.extra_instructions
    }

    /// A literal-free structural key for this stage: which column it
    /// reads, how it tests, what it probes — everything *except* the
    /// literal, which is a template parameter, not structure. Keys a
    /// calibration snapshot to the stage shape it was learned on.
    pub fn structural_key(&self) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.column.base.hash(&mut hasher);
        self.column.stream.hash(&mut hasher);
        self.op.hash(&mut hasher);
        self.extra_instructions.hash(&mut hasher);
        match &self.probe {
            Some(p) => {
                1u8.hash(&mut hasher);
                p.base.hash(&mut hasher);
                p.stream.hash(&mut hasher);
                p.values.len().hash(&mut hasher);
            }
            None => 0u8.hash(&mut hasher),
        }
        hasher.finish()
    }

    /// Evaluate the stage for row `i` on the scalar oracle path: returns
    /// pass/fail and drives one CPU event per load, charge and branch.
    /// `instrument` runs between the compare and its branch with the
    /// outcome (the §5.7 enumerator's counter update; nothing otherwise).
    #[inline]
    fn eval(&self, cpu: &mut SimCpu, i: usize, instrument: impl FnOnce(&mut SimCpu, bool)) -> bool {
        let ColumnRef {
            values,
            base,
            stream,
        } = self.column;
        cpu.load(stream, base + (i as u64) * 4, 4);
        let value = match &self.probe {
            None => values[i],
            Some(p) => {
                let key = values[i] as usize;
                // The full key range was validated at lowering.
                debug_assert!(key < p.values.len(), "dangling foreign key");
                cpu.load(p.stream, p.base + (key as u64) * 4, 4);
                p.values[key]
            }
        };
        cpu.instr(INSTR_PER_EVAL + self.extra_instructions);
        let ok = self.op.eval(i64::from(value), self.literal);
        instrument(cpu, ok);
        // Qualifying tuple: fall through (not taken). Failing tuple: jump
        // past the remaining stages (taken).
        cpu.branch(self.site, !ok);
        ok
    }
}

impl std::fmt::Debug for CompiledStage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.probe {
            None => write!(f, "Select({:?} {})", self.op, self.literal),
            Some(p) => write!(
                f,
                "Probe({} rows, {:?} {})",
                p.values.len(),
                self.op,
                self.literal
            ),
        }
    }
}

/// A compiled program: the flat stage table, the evaluation-order
/// permutation, and the aggregate columns — the one compiled form every
/// query runs as, whether it was built by [`PlanBuilder`] or is a
/// multi-selection [`SelectionPlan`] ([`CompiledProgram::from_selection`]).
///
/// [`PlanBuilder`]: crate::plan::PlanBuilder
#[derive(Clone)]
pub struct CompiledProgram<'t> {
    /// Stages in plan (lowering) order.
    stages: Vec<CompiledStage<'t>>,
    /// Evaluation order: a permutation of plan indices.
    order: Vec<usize>,
    agg: Vec<ColumnRef<'t>>,
    /// Projected columns materialized beyond what stages/aggregates
    /// already read — they widen the declared hot set, nothing else.
    extra_hot_columns: usize,
    rows: usize,
    /// When set, `run_range` uses the scalar per-event oracle path.
    scalar_oracle: bool,
}

impl std::fmt::Debug for CompiledProgram<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("stages", &self.stages)
            .field("order", &self.order)
            .field("agg_columns", &self.agg.len())
            .field("rows", &self.rows)
            .finish()
    }
}

impl<'t> CompiledProgram<'t> {
    /// Lower a logical plan to the flat stage form.
    ///
    /// Every filter conjunct and join condition is normalized
    /// ([`Expr::normalize`]) and must reach the canonical
    /// `column OP literal` shape — lowering performs the same rewrites
    /// the static passes do, so the passes are an optimization, never a
    /// prerequisite. Branch sites are numbered by stage emission order;
    /// dimension streams are `100 + join ordinal` (the convention the
    /// figures established). Every foreign key is validated against its
    /// dimension's row range here: a dangling or negative key would
    /// otherwise surface as a slice-index panic deep inside the hot loop
    /// (negative keys wrap via `as usize`).
    pub fn from_plan(plan: &LogicalPlan<'t>) -> Result<Self, EngineError> {
        let fact = plan.fact();
        let mut stages: Vec<CompiledStage<'t>> = Vec::new();
        let mut join_ordinal = 0usize;
        for node in plan.nodes() {
            match node {
                LogicalNode::Filter {
                    predicate,
                    extra_instructions,
                } => {
                    for conjunct in predicate.clone().normalize().conjuncts() {
                        if let Some(stage) = lower_select_conjunct(
                            fact,
                            &conjunct,
                            *extra_instructions,
                            stages.len(),
                        )? {
                            stages.push(stage);
                        }
                    }
                }
                LogicalNode::Join { dim, fk_column, on } => {
                    let fk = ColumnRef::resolve(fact, fk_column)?;
                    let fk_col = fact.column_at(fk.stream);
                    let dim_stream = 100 + join_ordinal;
                    join_ordinal += 1;
                    for conjunct in on.clone().normalize().conjuncts() {
                        match conjunct.as_comparison() {
                            Some((column, op, literal)) if dim.column_index(column).is_some() => {
                                let dim_col = dim.column(column).expect("index implies presence");
                                let dim_values = dim_col.data().as_i32().ok_or_else(|| {
                                    EngineError::UnsupportedColumnType(column.to_string())
                                })?;
                                validate_fk_range(fk_col, dim_values.len())?;
                                stages.push(CompiledStage {
                                    column: fk,
                                    site: BranchSite(stages.len() as u32),
                                    op,
                                    literal,
                                    extra_instructions: PROBE_INSTRUCTIONS,
                                    probe: Some(ColumnRef {
                                        values: dim_values,
                                        base: dim_col.base_addr(),
                                        stream: dim_stream,
                                    }),
                                });
                            }
                            // A conjunct over the fact table inside a join
                            // condition lowers to a plain selection — the
                            // same rewrite the extraction pass performs.
                            Some((column, _, _)) if fact.column_index(column).is_some() => {
                                if let Some(stage) =
                                    lower_select_conjunct(fact, &conjunct, 0, stages.len())?
                                {
                                    stages.push(stage);
                                }
                            }
                            _ => {
                                if let Some(stage) =
                                    lower_select_conjunct(fact, &conjunct, 0, stages.len())?
                                {
                                    stages.push(stage);
                                }
                            }
                        }
                    }
                }
            }
        }
        if stages.is_empty() {
            return Err(EngineError::EmptyPlan);
        }

        let agg = plan
            .aggregates()
            .iter()
            .map(|column| ColumnRef::resolve(fact, column))
            .collect::<Result<Vec<_>, _>>()?;
        let mut extra_hot_columns = 0usize;
        for column in plan.projection() {
            let stream = ColumnRef::resolve(fact, column)?.stream;
            let covered = stages.iter().any(|s| s.column.stream == stream)
                || agg.iter().any(|a| a.stream == stream);
            if !covered {
                extra_hot_columns += 1;
            }
        }

        let order = (0..stages.len()).collect();
        Ok(Self {
            stages,
            order,
            agg,
            extra_hot_columns,
            rows: fact.rows(),
            scalar_oracle: false,
        })
    }

    /// Lower a multi-selection plan over `table` — the compiled
    /// short-circuit loop of Section 2.1 — starting in evaluation `order`:
    /// one stage per predicate, branch site = plan index (so predictor
    /// state follows a predicate across reorders, as it would across JIT
    /// recompilations at the same code addresses), no probe, the
    /// predicate's extra instructions carried over.
    pub fn from_selection(
        table: &'t Table,
        plan: &SelectionPlan,
        order: &[usize],
    ) -> Result<Self, EngineError> {
        plan.validate_peo(order)?;
        let stages = plan
            .predicates
            .iter()
            .enumerate()
            .map(|(j, p)| {
                Ok(CompiledStage {
                    column: ColumnRef::resolve(table, &p.column)?,
                    site: BranchSite(j as u32),
                    op: p.op,
                    literal: p.literal,
                    extra_instructions: p.extra_instructions,
                    probe: None,
                })
            })
            .collect::<Result<_, EngineError>>()?;
        let agg = plan
            .aggregate_columns
            .iter()
            .map(|name| ColumnRef::resolve(table, name))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            stages,
            order: order.to_vec(),
            agg,
            extra_hot_columns: 0,
            rows: table.rows(),
            scalar_oracle: false,
        })
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the program has no stages (never true post-lowering).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Rows in the scanned fact table.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The current evaluation order (plan indices).
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The stage at plan index `j`.
    pub fn stage(&self, j: usize) -> &CompiledStage<'t> {
        &self.stages[j]
    }

    /// Whether any stage probes a dimension (Sections 5.5–5.6); a
    /// program without one is a multi-selection scan (Section 4.4).
    pub(crate) fn has_joins(&self) -> bool {
        self.stages.iter().any(CompiledStage::is_join)
    }

    /// Re-emit the evaluation order — the cheap progressive reorder. The
    /// permutation is validated *before* any mutation, so a rejected
    /// order leaves the program exactly as it was.
    pub fn reorder(&mut self, order: &[usize]) -> Result<(), EngineError> {
        if !crate::plan::is_valid_peo(order, self.stages.len()) {
            return Err(EngineError::InvalidPeo {
                expected: self.stages.len(),
                got: order.to_vec(),
            });
        }
        self.order.copy_from_slice(order);
        Ok(())
    }

    /// Force every subsequent [`CompiledProgram::run_range`] call through
    /// the scalar per-event oracle instead of the batched fast path. A
    /// test/verification hook: the two paths are bit-identical (pinned by
    /// `tests/proptest_fastpath.rs`), so flipping this must never change
    /// results — only host speed.
    pub fn set_scalar_oracle(&mut self, on: bool) {
        self.scalar_oracle = on;
    }

    /// Execute rows `start..end`; measurement semantics identical to the
    /// scan executor. Dispatches to the batched row kernel
    /// ([`crate::exec::kernel`]) unless the scalar oracle was requested or
    /// the program shape exceeds the kernel's fixed scratch.
    pub fn run_range(&self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        assert!(start <= end && end <= self.rows, "row range out of bounds");
        match (!self.scalar_oracle).then(|| self.kernel()).flatten() {
            Some(kernel) => kernel.run(cpu, start, end),
            None => self.run_range_scalar(cpu, start, end),
        }
    }

    /// The stages in the current evaluation order and the aggregate
    /// columns, resolved for the row kernel; `None` when they exceed its
    /// scratch.
    fn kernel(&self) -> Option<RowKernel<'t>> {
        let mut kernel = RowKernel::new();
        for &j in &self.order {
            let s = &self.stages[j];
            kernel.push_stage(
                s.column,
                s.probe,
                s.site,
                s.op,
                s.literal,
                s.extra_instructions,
            )?;
        }
        for a in &self.agg {
            kernel.push_agg(*a)?;
        }
        Some(kernel)
    }

    /// The scalar per-event oracle: one `SimCpu` call per simulated
    /// event. This is the reference semantics the batched
    /// [`CompiledProgram::run_range`] is proptest-pinned against.
    pub fn run_range_scalar(&self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        self.run_range_instrumented(cpu, start, end, |_, _, _| {})
    }

    /// [`CompiledProgram::run_range_scalar`] with `instrument(cpu,
    /// position, passed)` run between every stage's compare and its
    /// branch (`position` in evaluation order) — where an invasive engine
    /// compiles its explicit counter updates.
    pub(crate) fn run_range_instrumented(
        &self,
        cpu: &mut SimCpu,
        start: usize,
        end: usize,
        mut instrument: impl FnMut(&mut SimCpu, usize, bool),
    ) -> VectorStats {
        assert!(start <= end && end <= self.rows, "row range out of bounds");
        let before = cpu.counters();
        let mut qualified = 0u64;
        let mut sum = 0i64;
        for i in start..end {
            cpu.instr(INSTR_LOOP);
            let mut pass = true;
            for (k, &j) in self.order.iter().enumerate() {
                let ok = self.stages[j].eval(cpu, i, |cpu, ok| {
                    instrument(cpu, k, ok);
                });
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
                    cpu.instr(INSTR_PER_AGG_COLUMN);
                    product *= i64::from(a.values[i]);
                }
                if !self.agg.is_empty() {
                    sum += product;
                }
            }
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

    /// The program's stream geometry for the current evaluation order:
    /// per-stage column widths and identities in evaluation order, and
    /// the aggregate columns no stage already reads (those are
    /// cache-resident and left out of the fresh-column list). No probe
    /// list — what a probe-free program's counter model is, independent
    /// of the LLC capacity.
    pub(crate) fn stream_geometry(
        &self,
        n_input: u64,
        chain: ChainSpec,
        line_bytes: u32,
    ) -> PlanGeometry {
        let column_ids: Vec<usize> = self
            .order
            .iter()
            .map(|&j| self.stages[j].column.stream)
            .collect();
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
            value_bytes: vec![4; self.stages.len()],
            column_ids,
            agg_bytes,
            line_bytes,
            chain,
            probes: Vec::new(),
        }
    }

    /// Counter-model geometry for the current evaluation order: the
    /// stream geometry (per-stage columns and fresh aggregates) plus,
    /// when any stage probes a dimension, one probe entry per evaluation
    /// position.
    ///
    /// `clustering` holds one entry per *plan* stage: the measured
    /// clustering ratio of that stage's dimension probe (ignored for
    /// selects; `1.0` = assume uniform random; may be empty for a
    /// probe-free program). Line size, predictor shape and the private
    /// L2 capacity (which gates whether probes reach L3 at all) come from
    /// the CPU the program runs on; `llc_bytes` is the **effective**
    /// last-level capacity the executing core sees — the full configured
    /// LLC on a private socket, the contention-shrunken share under the
    /// shared-socket partition — so the Equation-1 probe predictions
    /// price contended miss rates.
    pub fn plan_geometry(
        &self,
        n_input: u64,
        cpu: &CpuConfig,
        llc_bytes: u64,
        clustering: &[f64],
    ) -> PlanGeometry {
        let line_bytes = cpu.line_bytes() as u32;
        let chain = ChainSpec {
            states: cpu.predictor.states,
            not_taken_states: cpu.predictor.not_taken_states,
        };
        let mut geom = self.stream_geometry(n_input, chain, line_bytes);
        if !self.has_joins() {
            return geom;
        }
        assert_eq!(clustering.len(), self.stages.len(), "one entry per stage");
        let llc_lines = (llc_bytes / u64::from(line_bytes)).max(1);
        let upper_cache_bytes = cpu.levels.get(1).map_or(0.0, |l| l.capacity_bytes as f64);
        geom.probes = self
            .order
            .iter()
            .map(|&j| {
                self.stages[j].dim_rows().map(|rows| ProbeGeometry {
                    relation: JoinGeometry {
                        relation_tuples: rows as u64,
                        tuple_bytes: 4,
                        line_bytes,
                        cache_lines: llc_lines,
                    },
                    upper_cache_bytes,
                    clustering: clustering[j].clamp(0.0, 1.0),
                    remote_fraction: 0.0,
                })
            })
            .collect();
        geom
    }

    /// [`CompiledProgram::plan_geometry`] with NUMA-aware probe pricing:
    /// each join stage's probe gains the fraction of its dimension homed
    /// on a socket other than `socket` under `placement`, so the
    /// per-socket cost model prices the hop into a remote partition. Both
    /// inputs are static topology — the geometry stays deterministic.
    pub fn plan_geometry_numa(
        &self,
        n_input: u64,
        cpu: &CpuConfig,
        llc_bytes: u64,
        clustering: &[f64],
        placement: &NumaPlacement,
        socket: usize,
    ) -> PlanGeometry {
        let mut geom = self.plan_geometry(n_input, cpu, llc_bytes, clustering);
        let line_bytes = cpu.line_bytes();
        for (&j, probe) in self.order.iter().zip(geom.probes.iter_mut()) {
            if let (Some(p), Some(base), Some(rows)) = (
                probe.as_mut(),
                self.stages[j].dim_base(),
                self.stages[j].dim_rows(),
            ) {
                p.remote_fraction =
                    placement.remote_fraction(base, rows as u64 * 4, socket, line_bytes);
            }
        }
        geom
    }

    /// Hot-set footprint declared to a shared-socket capacity partition:
    /// every probed dimension in full (probes re-reference it across
    /// morsels) plus a fixed streaming window per touched column (stages,
    /// aggregates, and surviving projected columns — streamed lines are
    /// touched once, so only a small in-flight window ever competes for
    /// capacity).
    pub fn hot_set_bytes(&self) -> u64 {
        let dims: u64 = self
            .stages
            .iter()
            .filter_map(CompiledStage::dim_rows)
            .map(|rows| rows as u64 * 4)
            .sum();
        let streams = (self.stages.len() + self.agg.len() + self.extra_hot_columns) as u64
            * crate::progressive::STREAM_HOT_BYTES_PER_COLUMN;
        dims + streams
    }

    /// Instructions charged per evaluation of each stage, in the current
    /// evaluation order — an input to the cost-per-input-tuple ranking.
    pub fn stage_instructions(&self) -> Vec<f64> {
        self.order
            .iter()
            .map(|&j| (INSTR_PER_EVAL + self.stages[j].extra_instructions) as f64)
            .collect()
    }

    /// Literal-free structural keys, one per plan stage — what a
    /// calibration snapshot is keyed to ([`CompiledStage::structural_key`]).
    pub fn stage_keys(&self) -> Vec<u64> {
        self.stages
            .iter()
            .map(CompiledStage::structural_key)
            .collect()
    }
}

/// Validate every foreign key against the probed dimension's row range.
/// The check itself is O(1) on the column's cached value range; the
/// column is scanned (again) only to name the first offending key.
fn validate_fk_range(fk: &popt_storage::Column, dim_rows: usize) -> Result<(), EngineError> {
    let in_range = |k: i32| k >= 0 && (k as usize) < dim_rows;
    match fk.i32_range() {
        Some((min, max)) if !(in_range(min) && in_range(max)) => {
            let keys = fk.data().as_i32().expect("an i32 range implies i32 data");
            let bad = keys
                .iter()
                .find(|&&k| !in_range(k))
                .expect("range out of bounds");
            Err(EngineError::ForeignKeyOutOfRange {
                column: fk.name().to_string(),
                key: i64::from(*bad),
                dim_rows,
            })
        }
        _ => Ok(()),
    }
}

/// Lower one normalized filter conjunct over the fact table; `TRUE`
/// vanishes, `FALSE` and non-canonical shapes are unsupported.
fn lower_select_conjunct<'t>(
    fact: &'t Table,
    conjunct: &Expr,
    extra_instructions: u64,
    site: usize,
) -> Result<Option<CompiledStage<'t>>, EngineError> {
    match conjunct {
        Expr::Bool(true) => Ok(None),
        Expr::Bool(false) => Err(EngineError::UnsupportedExpr(
            "predicate is constant FALSE — the plan qualifies nothing".to_string(),
        )),
        _ => match conjunct.as_comparison() {
            Some((column, op, literal)) => Ok(Some(CompiledStage {
                column: ColumnRef::resolve(fact, column)?,
                site: BranchSite(site as u32),
                op,
                literal,
                extra_instructions,
                probe: None,
            })),
            None => Err(EngineError::UnsupportedExpr(format!(
                "conjunct {:?} does not normalize to `column OP literal`",
                conjunct.display()
            ))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Expr, PlanBuilder};
    use popt_storage::{AddressSpace, ColumnData, Table};

    /// Fact with a strided pseudo-random FK (`fk`), a value column and a
    /// sequential (co-clustered) FK (`fk_seq`); dimension with payload =
    /// key parity.
    fn tables(n: usize, dim_n: usize) -> (Table, Table) {
        let mut space = AddressSpace::new();
        let mut fact = Table::new("fact");
        fact.add_column(
            "fk",
            ColumnData::I32((0..n).map(|i| ((i * 7919) % dim_n) as i32).collect()),
            &mut space,
        );
        fact.add_column(
            "val",
            ColumnData::I32((0..n).map(|i| (i % 100) as i32).collect()),
            &mut space,
        );
        fact.add_column(
            "fk_seq",
            ColumnData::I32((0..n).map(|i| (i * dim_n / n) as i32).collect()),
            &mut space,
        );
        let mut dim_space = AddressSpace::new();
        let mut dim = Table::new("dim");
        dim.add_column(
            "payload",
            ColumnData::I32((0..dim_n).map(|k| (k % 2) as i32).collect()),
            &mut dim_space,
        );
        (fact, dim)
    }

    fn cpu() -> SimCpu {
        SimCpu::new(popt_cpu::CpuConfig::tiny_test())
    }

    /// The absolute pin of the per-event reference: on a table small
    /// enough to count by hand, the scalar oracle's instruction, branch
    /// and load counts are exactly what the instruction charges and the per-stage
    /// pass counts dictate — and the batched path reports the same.
    #[test]
    fn scalar_oracle_event_counts_match_hand_derivation() {
        // 8 rows. `val < 50` passes rows 0..5 (5 rows); the join keeps
        // payload == 0, i.e. even keys: rows 0, 2, 3, 6, 7 (5 rows);
        // both: rows 0, 2, 3 (3 rows).
        let mut space = AddressSpace::new();
        let mut fact = Table::new("fact");
        fact.add_column(
            "val",
            ColumnData::I32(vec![10, 20, 30, 40, 45, 60, 70, 80]),
            &mut space,
        );
        fact.add_column(
            "fk",
            ColumnData::I32(vec![0, 1, 2, 2, 3, 1, 0, 2]),
            &mut space,
        );
        let mut dim_space = AddressSpace::new();
        let mut dim = Table::new("dim");
        dim.add_column("payload", ColumnData::I32(vec![0, 1, 0, 1]), &mut dim_space);
        let (n, sel_pass, join_pass, both) = (8u64, 5u64, 5u64, 3u64);
        let extra = 30u64;

        // (order, tuples reaching the select, tuples reaching the join)
        for (order, sel_in, join_in) in [([0usize, 1], n, sel_pass), ([1, 0], join_pass, n)] {
            let mut program = PlanBuilder::scan(&fact)
                .filter_costed(Expr::col("val").less_than(50), extra)
                .join(&dim, "fk", Expr::col("payload").equal_to(0))
                .aggregate("val")
                .build()
                .compile()
                .unwrap();
            program.reorder(&order).unwrap();
            let mut c = cpu();
            let stats = program.run_range_scalar(&mut c, 0, n as usize);
            assert_eq!(stats.qualified, both);
            assert_eq!(stats.sum, 10 + 30 + 40);
            let k = &stats.counters;
            assert_eq!(
                k.instructions,
                n * INSTR_LOOP
                    + sel_in * (INSTR_PER_EVAL + extra)
                    + join_in * (INSTR_PER_EVAL + PROBE_INSTRUCTIONS)
                    + both * INSTR_PER_AGG_COLUMN,
                "order {order:?}"
            );
            // One back-edge per row plus one branch per stage evaluation.
            assert_eq!(k.branches, n + sel_in + join_in, "order {order:?}");
            // Every load is either a new-line access or a same-line
            // element hit: one per select evaluation, two (FK + probe)
            // per join evaluation, one per aggregated tuple.
            assert_eq!(
                k.l1_accesses + k.l1_element_hits,
                sel_in + 2 * join_in + both,
                "order {order:?}"
            );

            program.set_scalar_oracle(false);
            let mut c = cpu();
            let batched = program.run_range(&mut c, 0, n as usize);
            assert_eq!(batched, stats, "batched path must report the same events");
        }
    }

    #[test]
    fn reorder_is_cheap_and_result_invariant() {
        let (fact, dim) = tables(2000, 64);
        let mut program = PlanBuilder::scan(&fact)
            .filter(Expr::col("val").less_than(50))
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .build()
            .compile()
            .unwrap();
        let mut c = cpu();
        let forward = program.run_range(&mut c, 0, 2000);
        program.reorder(&[1, 0]).unwrap();
        let mut c = cpu();
        let backward = program.run_range(&mut c, 0, 2000);
        assert_eq!(forward.qualified, backward.qualified);
        assert_eq!(forward.sum, backward.sum);
        // Orders are absolute over plan indices: re-applying the same
        // permutation is idempotent, not a swap back.
        program.reorder(&[1, 0]).unwrap();
        assert_eq!(program.order(), &[1, 0]);
        assert!(program.stage(1).is_join());
    }

    #[test]
    fn failed_reorder_leaves_the_order_untouched() {
        let (fact, dim) = tables(500, 32);
        let mut program = PlanBuilder::scan(&fact)
            .filter(Expr::col("val").less_than(50))
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .build()
            .compile()
            .unwrap();
        program.reorder(&[1, 0]).unwrap();
        assert!(program.reorder(&[0, 0]).is_err());
        assert!(program.reorder(&[1]).is_err());
        assert!(program.reorder(&[1, 2]).is_err());
        assert_eq!(program.order(), &[1, 0], "rejected orders must not corrupt");
    }

    #[test]
    fn multi_conjunct_filters_flatten_to_stages_with_sites_in_emission_order() {
        let (fact, dim) = tables(100, 16);
        let program = PlanBuilder::scan(&fact)
            .filter(
                Expr::col("val")
                    .less_than(80)
                    .and(Expr::col("val").at_least(10)),
            )
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .build()
            .compile()
            .unwrap();
        assert_eq!(program.len(), 3);
        assert!(!program.stage(0).is_join());
        assert!(!program.stage(1).is_join());
        assert!(program.stage(2).is_join());
    }

    #[test]
    fn true_filters_vanish_and_false_is_rejected() {
        let (fact, _) = tables(100, 16);
        let program = PlanBuilder::scan(&fact)
            .filter(Expr::lit(1).less_than(2))
            .filter(Expr::col("val").less_than(50))
            .build()
            .compile()
            .unwrap();
        assert_eq!(program.len(), 1);

        let err = PlanBuilder::scan(&fact)
            .filter(Expr::lit(2).less_than(1))
            .build()
            .compile()
            .unwrap_err();
        assert!(matches!(err, EngineError::UnsupportedExpr(_)), "{err:?}");

        let err = PlanBuilder::scan(&fact).build().compile().unwrap_err();
        assert_eq!(err, EngineError::EmptyPlan);
    }

    #[test]
    fn unsupported_shapes_are_rejected_with_the_shape() {
        let (fact, _) = tables(100, 16);
        let err = PlanBuilder::scan(&fact)
            .filter(
                Expr::col("val")
                    .less_than(1)
                    .or(Expr::col("val").greater_than(90)),
            )
            .build()
            .compile()
            .unwrap_err();
        match err {
            EngineError::UnsupportedExpr(msg) => assert!(msg.contains("OR"), "{msg}"),
            other => panic!("{other:?}"),
        }
        let err = PlanBuilder::scan(&fact)
            .filter(Expr::col("nope").less_than(1))
            .build()
            .compile()
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownColumn("nope".into()));
    }

    #[test]
    fn fact_conjuncts_in_join_conditions_lower_to_selections() {
        let (fact, dim) = tables(1000, 64);
        let program = PlanBuilder::scan(&fact)
            .join(
                &dim,
                "fk",
                Expr::col("payload")
                    .equal_to(0)
                    .and(Expr::col("val").less_than(50)),
            )
            .build()
            .compile()
            .unwrap();
        assert_eq!(program.len(), 2);
        assert!(program.stage(0).is_join());
        assert!(!program.stage(1).is_join());
        // Same result as building the filter separately.
        let split = PlanBuilder::scan(&fact)
            .filter(Expr::col("val").less_than(50))
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .build()
            .compile()
            .unwrap();
        let mut c1 = cpu();
        let mut c2 = cpu();
        assert_eq!(
            program.run_range(&mut c1, 0, 1000).qualified,
            split.run_range(&mut c2, 0, 1000).qualified
        );
    }

    #[test]
    fn out_of_range_foreign_keys_are_rejected_at_lowering() {
        let lower = |keys: Vec<i32>| {
            let mut space = AddressSpace::new();
            let mut fact = Table::new("fact");
            fact.add_column("fk", ColumnData::I32(keys), &mut space);
            let mut dim_space = AddressSpace::new();
            let mut dim = Table::new("dim");
            dim.add_column("payload", ColumnData::I32(vec![1; 10]), &mut dim_space);
            PlanBuilder::scan(&fact)
                .join(&dim, "fk", Expr::col("payload").equal_to(0))
                .build()
                .compile()
                .unwrap_err()
        };
        // Dangling: one past the dimension's last row.
        let err = lower(vec![0, 10, 2]);
        assert!(
            matches!(err, EngineError::ForeignKeyOutOfRange { key: 10, .. }),
            "{err:?}"
        );
        // Negative: would wrap via `as usize` inside the hot loop.
        assert_eq!(
            lower(vec![0, 3, -1, 2]),
            EngineError::ForeignKeyOutOfRange {
                column: "fk".into(),
                key: -1,
                dim_rows: 10,
            }
        );
    }

    #[test]
    fn aggregates_match_the_scan_executor() {
        use crate::predicate::Predicate;

        let (fact, _dim) = tables(3000, 100);
        // Same conjunction through both lowerings: val < 50 AND fk < 60,
        // summing the val column for qualifying tuples.
        let plan = SelectionPlan::new(
            vec![
                Predicate::new("val", CompareOp::Lt, 50),
                Predicate::new("fk", CompareOp::Lt, 60),
            ],
            vec!["val".into()],
        )
        .unwrap();
        let compiled = CompiledProgram::from_selection(&fact, &plan, &[0, 1]).unwrap();
        let mut cpu1 = cpu();
        let scan_stats = compiled.run_range(&mut cpu1, 0, 3000);

        let program = PlanBuilder::scan(&fact)
            .filter(Expr::col("val").less_than(50))
            .filter(Expr::col("fk").less_than(60))
            .aggregate("val")
            .build()
            .compile()
            .unwrap();
        let mut cpu2 = cpu();
        let program_stats = program.run_range_scalar(&mut cpu2, 0, 3000);

        assert_eq!(program_stats.qualified, scan_stats.qualified);
        assert_eq!(program_stats.sum, scan_stats.sum);
        assert!(program_stats.sum > 0, "aggregate path must actually sum");
    }

    #[test]
    fn join_aggregate_matches_host_evaluation() {
        let (fact, dim) = tables(2000, 100);
        let program = PlanBuilder::scan(&fact)
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .aggregate("val")
            .build()
            .compile()
            .unwrap();
        let mut c = cpu();
        let stats = program.run_range_scalar(&mut c, 0, 2000);

        // Host-side ground truth.
        let fk = fact.column("fk").unwrap().data().as_i32().unwrap();
        let val = fact.column("val").unwrap().data().as_i32().unwrap();
        let payload = dim.column("payload").unwrap().data().as_i32().unwrap();
        let qualifying = (0..2000).filter(|&i| payload[fk[i] as usize] == 0);
        assert_eq!(stats.qualified, qualifying.clone().count() as u64);
        assert_eq!(
            stats.sum,
            qualifying.map(|i| i64::from(val[i])).sum::<i64>()
        );
    }

    #[test]
    fn aggregate_on_unknown_column_is_rejected() {
        let (fact, _dim) = tables(100, 10);
        let err = PlanBuilder::scan(&fact)
            .filter(Expr::col("val").less_than(50))
            .aggregate("nope")
            .build()
            .compile()
            .unwrap_err();
        assert_eq!(err, EngineError::UnknownColumn("nope".into()));
    }

    #[test]
    fn plan_geometry_carries_probes_in_evaluation_order() {
        let probe_lines = |geom: &PlanGeometry| {
            geom.probe(0)
                .expect("front stage is a join")
                .relation
                .cache_lines
        };
        let (fact, dim) = tables(1000, 100);
        let mut program = PlanBuilder::scan(&fact)
            .filter(Expr::col("val").less_than(50))
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .build()
            .compile()
            .unwrap();
        program.reorder(&[1, 0]).unwrap();
        let cfg = CpuConfig::tiny_test();
        let geom = program.plan_geometry(1000, &cfg, cfg.llc().capacity_bytes, &[1.0, 0.25]);
        assert_eq!(geom.predicates(), 2);
        assert_eq!(probe_lines(&geom), cfg.llc().lines());
        // A contended share rebinds the probe's Equation-1 capacity.
        let contended =
            program.plan_geometry(1000, &cfg, cfg.llc().capacity_bytes / 4, &[1.0, 0.25]);
        assert_eq!(probe_lines(&contended), cfg.llc().lines() / 4);
        // Join first: probe at position 0 with the join's clustering.
        let probe = geom.probe(0).expect("join stage has a probe");
        assert_eq!(probe.relation.relation_tuples, 100);
        assert!((probe.clustering - 0.25).abs() < 1e-12);
        assert!(geom.probe(1).is_none());
        let instr = program.stage_instructions();
        assert!(
            instr[0] > instr[1],
            "probe arithmetic costs extra: {instr:?}"
        );
    }

    #[test]
    fn coclustered_probe_has_fewer_l3_misses_than_random() {
        let n = 20_000;
        // Dimension much larger than the tiny L3 (16 KiB = 4096 values).
        let (fact, dim) = tables(n, 16_384);
        let run = |fk: &str| {
            let program = PlanBuilder::scan(&fact)
                .join(&dim, fk, Expr::col("payload").equal_to(0))
                .build()
                .compile()
                .unwrap();
            let mut cpu = cpu();
            program.run_range_scalar(&mut cpu, 0, n).counters.l3_misses
        };
        let seq = run("fk_seq");
        let rand = run("fk");
        assert!(seq * 3 < rand, "seq={seq} rand={rand}");
    }

    #[test]
    fn stage_keys_are_literal_free_and_structure_sensitive() {
        let (fact, dim) = tables(500, 32);
        let build = |lit: i64| {
            PlanBuilder::scan(&fact)
                .filter(Expr::col("val").less_than(lit))
                .join(&dim, "fk", Expr::col("payload").equal_to(0))
                .build()
                .compile()
                .unwrap()
        };
        assert_eq!(build(50).stage_keys(), build(51).stage_keys());
        let other = PlanBuilder::scan(&fact)
            .filter(Expr::col("fk").less_than(50))
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .build()
            .compile()
            .unwrap();
        assert_ne!(build(50).stage_keys(), other.stage_keys());
    }

    #[test]
    fn projection_widens_the_hot_set_only_for_uncovered_columns() {
        let (fact, dim) = tables(500, 32);
        let base = PlanBuilder::scan(&fact)
            .filter(Expr::col("val").less_than(50))
            .join(&dim, "fk", Expr::col("payload").equal_to(0))
            .build();
        let plain = base.clone().compile().unwrap();
        // "val" is already a stage column; an unpruned projection of it
        // still adds nothing. A genuinely new column would, but this
        // fact table has only stage columns, so cover the counted path
        // via the covered branch plus geometry equality.
        let projected = {
            let mut b = base.clone();
            b = crate::plan::passes::projection_pruning(b);
            b.compile().unwrap()
        };
        assert_eq!(plain.hot_set_bytes(), projected.hot_set_bytes());
    }
}
