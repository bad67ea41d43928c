//! Property: morsel-driven parallel execution is observationally
//! equivalent to the single-core executor — identical `qualified` and
//! `sum` for random workloads, worker counts, and morsel sizes, with
//! and without progressive reoptimization.
//!
//! Case count is the vendored proptest default (256), pinnable via the
//! upstream-compatible `PROPTEST_CASES` environment variable (CI pins it
//! so the suite's runtime stays bounded).

use proptest::prelude::*;

use popt::core::parallel::{run_parallel_program, MorselConfig};
use popt::core::plan::SelectionPlan;
use popt::core::predicate::{CompareOp, Predicate};
use popt::core::progressive::ProgressiveConfig;
use popt::cpu::{CpuConfig, CpuPool, SimCpu};
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::xorshift64;

mod common;
use common::{build, tables, ROWS};

proptest! {
    /// Parallel program execution: identical results for every worker
    /// count and morsel size, baseline and progressive.
    #[test]
    fn parallel_pipeline_is_exact(
        stages in 2usize..5,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
        workers in 1usize..9,
        morsel_tuples in 128usize..1500,
    ) {
        let (fact, dim) = tables(seed);
        let serial = build(&fact, &dim, stages, kinds, lit);
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let expect = serial.run_range(&mut cpu, 0, ROWS);

        for progressive in [false, true] {
            let mut program = build(&fact, &dim, stages, kinds, lit);
            let mut pool = CpuPool::new(CpuConfig::tiny_test(), workers);
            let config = ProgressiveConfig { reop_interval: 2 };
            let report = run_parallel_program(
                &mut program,
                &(0..stages).collect::<Vec<_>>(),
                MorselConfig::new(morsel_tuples),
                &mut pool,
                progressive.then_some(&config),
            ).expect("parallel run succeeds");
            prop_assert_eq!(
                report.qualified, expect.qualified,
                "workers={} morsel={} progressive={}", workers, morsel_tuples, progressive
            );
            prop_assert_eq!(report.sum, expect.sum);
            // The caller's program ends in the published order.
            prop_assert_eq!(program.order(), &report.final_order[..]);
        }
    }

    /// Parallel multi-selection scans: identical to the serial compiled
    /// scan for every worker count, morsel size, and evaluation order.
    #[test]
    fn parallel_scan_is_exact(
        lit1 in 0i64..1000,
        lit2 in 0i64..1000,
        lit3 in 0i64..1000,
        seed in any::<u64>(),
        workers in 1usize..9,
        morsel_tuples in 128usize..1500,
        swap in any::<bool>(),
    ) {
        let mut state = seed | 1;
        let mut space = AddressSpace::new();
        let mut t = Table::new("t");
        for (c, _) in [lit1, lit2, lit3].iter().enumerate() {
            let data: Vec<i32> = (0..ROWS)
                .map(|_| (xorshift64(&mut state) % 1000) as i32)
                .collect();
            t.add_column(format!("c{c}"), ColumnData::I32(data), &mut space);
        }
        let plan = SelectionPlan::new(
            vec![
                Predicate::new("c0", CompareOp::Lt, lit1),
                Predicate::new("c1", CompareOp::Lt, lit2),
                Predicate::new("c2", CompareOp::Lt, lit3),
            ],
            vec!["c0".into()],
        ).expect("plan");
        let peo: Vec<usize> = if swap { vec![2, 0, 1] } else { vec![0, 1, 2] };

        use popt::core::exec::program::CompiledProgram;
        let compiled = CompiledProgram::from_selection(&t, &plan, &peo).expect("compiles");
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let expect = compiled.run_range(&mut cpu, 0, ROWS);

        for progressive in [false, true] {
            let mut pool = CpuPool::new(CpuConfig::tiny_test(), workers);
            let config = ProgressiveConfig { reop_interval: 2 };
            let report = run_parallel_program(
                &mut compiled.clone(),
                &peo,
                MorselConfig::new(morsel_tuples),
                &mut pool,
                progressive.then_some(&config),
            ).expect("parallel run succeeds");
            prop_assert_eq!(report.qualified, expect.qualified);
            prop_assert_eq!(report.sum, expect.sum);
        }
    }
}
