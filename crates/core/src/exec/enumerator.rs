//! The invasive "enumerator-based" instrumentation baseline (Section 5.7).
//!
//! To learn per-predicate selectivities *without* performance counters, an
//! engine must compile explicit counter variables into the selection loop:
//! after every predicate evaluation, a counter in memory is incremented.
//! That costs a load-add-store sequence per evaluation — work proportional
//! to the data, not to the sampling frequency — and requires maintaining a
//! second, instrumented implementation of every operator. The paper
//! measures this overhead at up to ~2× total runtime for large predicate
//! counts (Figure 16), against "virtually no costs" for PMU sampling.
//!
//! This executor is the instrumented twin of the compiled selection loop
//! ([`CompiledProgram::from_selection`]): the program's own per-event loop,
//! walking its stages in evaluation order, with the counter update
//! interleaved between each compare and its branch, in exchange for
//! *exact* per-position pass counts.

use popt_cpu::SimCpu;
use popt_storage::Table;

use crate::error::EngineError;
use crate::exec::program::CompiledProgram;
use crate::exec::scan::VectorStats;
use crate::plan::SelectionPlan;

/// Instructions charged per counter update (load, add, store, address
/// math).
pub const COUNTER_UPDATE_INSTRUCTIONS: u64 = 4;

/// Stream id reserved for the counter array (far past any table column).
pub const COUNTER_STREAM: usize = 4096;

/// Simulated address of the counter array (disjoint from table columns,
/// which allocate upward from a low base).
pub const COUNTER_BASE_ADDR: u64 = 0xC0_0000_0000;

/// A selection scan instrumented with explicit per-predicate counters.
pub struct EnumeratedSelection<'t> {
    program: CompiledProgram<'t>,
}

/// Result of an instrumented range execution.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumeratedStats {
    /// The ordinary measurements (cycles include the instrumentation).
    pub stats: VectorStats,
    /// Exact tuples *passing* each predicate position — the information
    /// the instrumentation buys.
    pub pass_counts: Vec<u64>,
}

impl<'t> EnumeratedSelection<'t> {
    /// Compile the instrumented variant of `plan`.
    pub fn compile(
        table: &'t Table,
        plan: &SelectionPlan,
        peo: &[usize],
    ) -> Result<Self, EngineError> {
        Ok(Self {
            program: CompiledProgram::from_selection(table, plan, peo)?,
        })
    }

    /// Execute rows `start..end` with counter instrumentation: every
    /// predicate evaluation additionally increments an in-memory counter.
    pub fn run_range(&self, cpu: &mut SimCpu, start: usize, end: usize) -> EnumeratedStats {
        let mut pass_counts = vec![0u64; self.program.len()];
        let stats = self
            .program
            .run_range_instrumented(cpu, start, end, |cpu, k, passed| {
                // The instrumentation: update this predicate's counter.
                cpu.instr(COUNTER_UPDATE_INSTRUCTIONS);
                cpu.store(COUNTER_STREAM, COUNTER_BASE_ADDR + (k as u64) * 8, 8);
                pass_counts[k] += u64::from(passed);
            });
        EnumeratedStats { stats, pass_counts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{CompareOp, Predicate};
    use popt_cpu::CpuConfig;
    use popt_storage::{AddressSpace, ColumnData, Table};

    fn table(n: usize) -> Table {
        let mut space = AddressSpace::new();
        let mut t = Table::new("t");
        for c in 0..4 {
            t.add_column(
                format!("c{c}"),
                ColumnData::I32((0..n).map(|i| ((i * (c + 3)) % 100) as i32).collect()),
                &mut space,
            );
        }
        t
    }

    fn plan(preds: usize) -> SelectionPlan {
        SelectionPlan::new(
            (0..preds)
                .map(|c| Predicate::new(format!("c{c}"), CompareOp::Lt, 60))
                .collect(),
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn instrumentation_costs_cycles_but_preserves_results() {
        let t = table(4000);
        let p = plan(4);
        let peo: Vec<usize> = (0..4).collect();
        let plain = CompiledProgram::from_selection(&t, &p, &peo).unwrap();
        let inst = EnumeratedSelection::compile(&t, &p, &peo).unwrap();
        let mut cpu1 = SimCpu::new(CpuConfig::tiny_test());
        let mut cpu2 = SimCpu::new(CpuConfig::tiny_test());
        let s1 = plain.run_range(&mut cpu1, 0, 4000);
        let s2 = inst.run_range(&mut cpu2, 0, 4000);
        assert!(s2.stats.counters.cycles > s1.counters.cycles);
        assert_eq!(s1.qualified, s2.stats.qualified);
        assert_eq!(s1.sum, s2.stats.sum);
    }

    #[test]
    fn pass_counts_are_exact() {
        let t = table(4000);
        let p = plan(3);
        let inst = EnumeratedSelection::compile(&t, &p, &[0, 1, 2]).unwrap();
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let s = inst.run_range(&mut cpu, 0, 4000);
        // Last position's passes are the qualifying tuples.
        assert_eq!(*s.pass_counts.last().unwrap(), s.stats.qualified);
        // Pass counts are non-increasing along the pipeline.
        assert!(s.pass_counts.windows(2).all(|w| w[1] <= w[0]));
        // Sum of passes equals branches-not-taken (Section 4.1 identity).
        let total: u64 = s.pass_counts.iter().sum();
        assert_eq!(total, s.stats.counters.branches_not_taken);
    }

    #[test]
    fn overhead_is_substantial_versus_pmu_sampling() {
        let t = table(4000);
        let p = plan(4);
        let peo: Vec<usize> = (0..4).collect();
        let plain = CompiledProgram::from_selection(&t, &p, &peo).unwrap();
        let inst = EnumeratedSelection::compile(&t, &p, &peo).unwrap();

        let mut cpu1 = SimCpu::new(CpuConfig::tiny_test());
        let base = plain.run_range(&mut cpu1, 0, 4000).counters.cycles as f64;
        // PMU variant: the same plain run plus one counter sample.
        let mut cpu2 = SimCpu::new(CpuConfig::tiny_test());
        let _ = plain.run_range(&mut cpu2, 0, 4000);
        let _ = cpu2.sample();
        let pmu = cpu2.cycles() as f64;
        let mut cpu3 = SimCpu::new(CpuConfig::tiny_test());
        let enumerated = inst.run_range(&mut cpu3, 0, 4000).stats.counters.cycles as f64;

        let pmu_overhead = (pmu - base) / base;
        let enum_overhead = (enumerated - base) / base;
        assert!(pmu_overhead < 0.01, "pmu = {pmu_overhead}");
        assert!(enum_overhead > 0.05, "enum = {enum_overhead}");
        assert!(enum_overhead > pmu_overhead * 10.0);
    }
}
