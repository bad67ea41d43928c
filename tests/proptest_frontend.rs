//! Properties of the query frontend.
//!
//! 1. The static optimizer passes commute semantically: *any* order of
//!    the four passes compiles to a program with the same answer as the
//!    unoptimized plan (lowering normalizes on its own).
//! 2. Filter pushdown never increases any node's estimated input
//!    cardinality.
//!
//! (That the batched program executor matches its per-event reference,
//! the scalar oracle, is `tests/proptest_fastpath.rs`.)
//!
//! Case count is the vendored proptest default (256), pinnable via the
//! upstream-compatible `PROPTEST_CASES` environment variable.

use proptest::prelude::*;

use popt::core::exec::program::CompiledProgram;
use popt::core::plan::passes::{
    constant_folding, filter_pushdown, join_condition_extraction, projection_pruning,
};
use popt::core::plan::{Expr, LogicalPlan, PlanBuilder};
use popt::cpu::{CpuConfig, SimCpu};

mod common;
use common::{plan, tables, ROWS};

/// One static optimizer pass.
type Pass = for<'t> fn(LogicalPlan<'t>) -> LogicalPlan<'t>;

fn compile<'t>(plan: &LogicalPlan<'t>) -> CompiledProgram<'t> {
    plan.compile().expect("plan lowers")
}

proptest! {
    /// Any order of the four static passes compiles to the same answer
    /// as the unoptimized plan: passes move stages around, lowering
    /// normalizes expressions either way, the result never moves.
    #[test]
    fn any_pass_order_compiles_to_the_same_answer(
        stages in 2usize..5,
        kinds in any::<u64>(),
        lit in 100i64..900,
        extra_lit in 100i64..900,
        seed in any::<u64>(),
        perm in 0usize..24,
    ) {
        let (fact, dim) = tables(seed);
        // The random mixed shape plus material for every pass: a
        // tautology (folding), a join condition smuggling a fact-side
        // conjunct (extraction), filters after joins (pushdown), and a
        // projection of covered columns (pruning).
        let messy = || {
            let mut builder = PlanBuilder::scan(&fact)
                .filter(Expr::lit(1).less_than(2))
                .join(
                    &dim,
                    "fk_rand",
                    Expr::col("payload")
                        .less_than(lit)
                        .and(Expr::col("val0").less_than(extra_lit)),
                );
            let mut join_ordinal = 1usize;
            for k in 1..stages {
                if (kinds >> k) & 1 == 1 {
                    let fk = if join_ordinal % 2 == 0 { "fk_seq" } else { "fk_rand" };
                    join_ordinal += 1;
                    builder = builder.join(&dim, fk, Expr::col("payload").less_than(lit));
                } else {
                    builder = builder
                        .filter_costed(Expr::col(format!("val{k}")).less_than(lit), k as u64 * 10);
                }
            }
            builder.project("val0").project("val1").aggregate("val0").build()
        };

        let reference = compile(&messy());
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let expect = reference.run_range(&mut cpu, 0, ROWS);

        // Lehmer-decode `perm` into one of the 4! pass orders.
        let mut available: Vec<(&'static str, Pass)> = vec![
            ("constant-folding", constant_folding as Pass),
            ("join-condition-extraction", join_condition_extraction as Pass),
            ("filter-pushdown", filter_pushdown as Pass),
            ("projection-pruning", projection_pruning as Pass),
        ];
        let mut passes = Vec::new();
        let mut code = perm;
        for remaining in (1..=4usize).rev() {
            let pick = code % remaining;
            code /= remaining;
            passes.push(available.remove(pick));
        }
        let names: Vec<_> = passes.iter().map(|(name, _)| *name).collect();

        let optimized = passes.iter().fold(messy(), |plan, (_, pass)| pass(plan));
        let program = compile(&optimized);
        prop_assert_eq!(program.len(), reference.len(), "same conjuncts survive");
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let got = program.run_range(&mut cpu, 0, ROWS);
        prop_assert_eq!(got.qualified, expect.qualified, "order {:?}", names);
        prop_assert_eq!(got.sum, expect.sum, "order {:?}", names);
    }

    /// Filter pushdown only ever lowers the estimated input cardinality
    /// at every node position, for any random plan shape.
    #[test]
    fn pushdown_never_raises_input_estimates(
        stages in 2usize..6,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
    ) {
        let (fact, dim) = tables(seed);
        let logical = plan(&fact, &dim, stages.min(4), kinds, lit);
        let before = logical.input_estimates();
        let pushed = filter_pushdown(logical);
        let after = pushed.input_estimates();
        prop_assert_eq!(before.len(), after.len());
        for (k, (b, a)) in before.iter().zip(&after).enumerate() {
            prop_assert!(a <= b, "position {}: estimate rose {} -> {}", k, b, a);
        }
    }
}
