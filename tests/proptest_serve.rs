//! Property: serving a random mix of queries — scan/program kinds,
//! random priorities, arrival times, worker counts and morsel sizes,
//! with and without progressive reoptimization — yields per-query
//! results bit-identical to running each query alone on a single core.
//!
//! Case count is the vendored proptest default (256), pinnable via the
//! upstream-compatible `PROPTEST_CASES` environment variable.

use proptest::prelude::*;

use popt::core::exec::program::CompiledProgram;
use popt::core::plan::{Expr, PlanBuilder, SelectionPlan};
use popt::core::predicate::{CompareOp, Predicate};
use popt::core::progressive::ProgressiveConfig;
use popt::core::serve::{Priority, QueryServer, QuerySpec, ServeConfig};
use popt::core::MorselConfig;
use popt::cpu::{CpuConfig, CpuPool, SimCpu};
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::xorshift64;

const ROWS: usize = 2_048;

/// Fact with two value columns and a random FK into a payload dimension.
fn tables(seed: u64) -> (Table, Table) {
    let dim_n = ROWS / 4;
    let mut state = seed | 1;
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    for c in 0..2 {
        let data: Vec<i32> = (0..ROWS)
            .map(|_| (xorshift64(&mut state) % 1000) as i32)
            .collect();
        fact.add_column(format!("val{c}"), ColumnData::I32(data), &mut space);
    }
    fact.add_column(
        "fk",
        ColumnData::I32(
            (0..ROWS)
                .map(|_| (xorshift64(&mut state) % dim_n as u64) as i32)
                .collect(),
        ),
        &mut space,
    );
    let mut dim_space = AddressSpace::new();
    let mut dim = Table::new("dim");
    dim.add_column(
        "payload",
        ColumnData::I32(
            (0..dim_n)
                .map(|_| (xorshift64(&mut state) % 1000) as i32)
                .collect(),
        ),
        &mut dim_space,
    );
    (fact, dim)
}

fn scan_plan(lit: i64) -> SelectionPlan {
    SelectionPlan::new(
        vec![
            Predicate::new("val0", CompareOp::Lt, lit),
            Predicate::new("val1", CompareOp::Lt, 1000 - lit / 2),
        ],
        vec!["val0".into()],
    )
    .expect("plan")
}

/// `val0 < lit` then a join probing `payload < lit`, summing `val1`;
/// plan order is construction order.
fn build_program<'t>(fact: &'t Table, dim: &'t Table, lit: i64) -> CompiledProgram<'t> {
    PlanBuilder::scan(fact)
        .filter(Expr::col("val0").less_than(lit))
        .join(dim, "fk", Expr::col("payload").less_than(lit))
        .aggregate("val1")
        .build()
        .compile()
        .expect("program")
}

proptest! {
    /// Every admitted query's (qualified, sum) equals its solo
    /// single-core execution, regardless of the mix around it.
    #[test]
    fn served_queries_are_exact(
        seed in any::<u64>(),
        nqueries in 1usize..5,
        kinds in any::<u64>(),
        priority_bits in any::<u64>(),
        arrival_spread in 0u64..80_000,
        workers in 1usize..5,
        morsel_tuples in 96usize..1024,
        reopt in any::<bool>(),
        use_cache in any::<bool>(),
    ) {
        let (fact, dim) = tables(seed);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let priorities = [Priority::Low, Priority::Normal, Priority::High];

        // Solo references and specs, one per query.
        let mut refs = Vec::new();
        let mut server = QueryServer::new(ServeConfig {
            morsels: MorselConfig::new(morsel_tuples),
            reopt: reopt.then_some(ProgressiveConfig { reop_interval: 2 }),
            use_order_cache: use_cache,
            dynamic_repartition: false,
        });
        for k in 0..nqueries {
            let lit = 100 + (xorshift64(&mut state) % 800) as i64;
            let arrival = if arrival_spread == 0 {
                0
            } else {
                xorshift64(&mut state) % arrival_spread
            };
            let priority = priorities[(priority_bits >> (2 * k)) as usize % 3];
            if (kinds >> k) & 1 == 0 {
                let plan = scan_plan(lit);
                let mut cpu = SimCpu::new(CpuConfig::tiny_test());
                let expect = CompiledProgram::from_selection(&fact, &plan, &[1, 0])
                    .expect("compiles")
                    .run_range(&mut cpu, 0, ROWS);
                refs.push((expect.qualified, expect.sum));
                server.admit(QuerySpec::scan(
                    format!("q{k}"), &fact, plan, vec![1, 0], priority, arrival,
                ));
            } else {
                let mut program = build_program(&fact, &dim, lit);
                let mut cpu = SimCpu::new(CpuConfig::tiny_test());
                let expect = program.run_range(&mut cpu, 0, ROWS);
                refs.push((expect.qualified, expect.sum));
                // Served from the join-first order.
                program.reorder(&[1, 0]).expect("valid order");
                server.admit(QuerySpec::compiled(
                    format!("q{k}"),
                    program,
                    priority,
                    arrival,
                ));
            }
        }

        let mut pool = CpuPool::new(CpuConfig::tiny_test(), workers);
        let report = server.run(&mut pool).expect("serve run succeeds");
        prop_assert_eq!(report.queries.len(), nqueries);
        for (q, &(qualified, sum)) in report.queries.iter().zip(&refs) {
            prop_assert_eq!(
                q.qualified, qualified,
                "{} diverged (workers={}, morsel={}, reopt={}, cache={})",
                &q.label, workers, morsel_tuples, reopt, use_cache
            );
            prop_assert_eq!(q.sum, sum, "{} sum diverged", &q.label);
            prop_assert!(q.latency_cycles >= q.queue_cycles);
            prop_assert!(q.morsels > 0);
        }
        prop_assert!(report.occupancy > 0.0 && report.occupancy <= 1.0 + 1e-12);
    }
}
