//! Integration tests for the query frontend: [`PlanBuilder`] → static
//! optimizer passes → [`CompiledProgram`] → the progressive, parallel,
//! and serving runtimes. The batched compiled form must be a drop-in
//! for its per-event scalar oracle — same results, same simulated CPU
//! events — and its literal-free template signature must warm the order
//! cache across sliding parameters.

use popt::core::parallel::{run_parallel_program, MorselConfig};
use popt::core::plan::{passes, Expr, PlanBuilder};
use popt::core::progressive::{run_progressive_program, ProgressiveConfig, VectorConfig};
use popt::core::serve::{Priority, QueryServer, QuerySpec, ServeConfig};
use popt::cpu::{CpuConfig, CpuPool, SimCpu};
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::xorshift64;

const ROWS: usize = 1 << 14;

/// Fact with two value columns and an FK into a payload dimension,
/// uniform over 0..1000 so literals address selectivity directly.
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

fn program<'t>(
    fact: &'t Table,
    dim: &'t Table,
    lit: i64,
) -> popt::core::exec::program::CompiledProgram<'t> {
    PlanBuilder::scan(fact)
        .filter_costed(Expr::col("val0").less_than(lit), 30)
        .join(dim, "fk", Expr::col("payload").less_than(lit))
        .aggregate("val1")
        .build()
        .optimize()
        .compile()
        .expect("plan lowers to a two-stage program")
}

/// [`program`] forced through the scalar per-event oracle.
fn oracle<'t>(
    fact: &'t Table,
    dim: &'t Table,
    lit: i64,
) -> popt::core::exec::program::CompiledProgram<'t> {
    let mut prog = program(fact, dim, lit);
    prog.set_scalar_oracle(true);
    prog
}

/// The batched frontend program drives the same CPU events as its
/// scalar per-event oracle: identical results *and* identical counters,
/// solo, progressively reoptimized, and morsel-parallel.
#[test]
fn frontend_program_is_a_drop_in_for_its_scalar_oracle() {
    let (fact, dim) = tables(0xF60);

    // Solo: bit-identical counters and cycles.
    let prog = program(&fact, &dim, 500);
    let reference = oracle(&fact, &dim, 500);
    let mut c1 = SimCpu::new(CpuConfig::tiny_test());
    let a = prog.run_range(&mut c1, 0, ROWS);
    let mut c2 = SimCpu::new(CpuConfig::tiny_test());
    let b = reference.run_range(&mut c2, 0, ROWS);
    assert_eq!(a.qualified, b.qualified);
    assert_eq!(a.sum, b.sum);
    assert_eq!(a.counters, b.counters, "bit-identical CPU events");
    assert_eq!(c1.counters().cycles, c2.counters().cycles);

    // Progressive: same convergence trajectory from the same start.
    let reopt = ProgressiveConfig { reop_interval: 3 };
    let vectors = VectorConfig {
        vector_tuples: 1024,
        max_vectors: None,
    };
    let mut prog = program(&fact, &dim, 500);
    let mut cpu = SimCpu::new(CpuConfig::tiny_test());
    let via_program =
        run_progressive_program(&mut prog, &[1, 0], vectors, &mut cpu, &reopt).unwrap();
    let mut reference = oracle(&fact, &dim, 500);
    let mut cpu = SimCpu::new(CpuConfig::tiny_test());
    let via_oracle =
        run_progressive_program(&mut reference, &[1, 0], vectors, &mut cpu, &reopt).unwrap();
    assert_eq!(
        via_program, via_oracle,
        "same trajectory, same simulated cost"
    );

    // Morsel-parallel with shared reoptimization: same results at every
    // worker count. (Wall cycles are not compared: morsel→worker
    // assignment follows host thread timing, so only the *results* are
    // deterministic across runs.)
    for workers in [1usize, 2, 4] {
        let mut prog = program(&fact, &dim, 500);
        let mut pool = CpuPool::new(CpuConfig::tiny_test(), workers);
        let p = run_parallel_program(
            &mut prog,
            &[1, 0],
            MorselConfig::new(1024),
            &mut pool,
            Some(&reopt),
        )
        .unwrap();
        let mut reference = oracle(&fact, &dim, 500);
        let mut pool = CpuPool::new(CpuConfig::tiny_test(), workers);
        let q = run_parallel_program(
            &mut reference,
            &[1, 0],
            MorselConfig::new(1024),
            &mut pool,
            Some(&reopt),
        )
        .unwrap();
        assert_eq!(p.qualified, q.qualified, "workers={workers}");
        assert_eq!(p.sum, q.sum);
    }
}

/// The optimizer passes are result-preserving and never raise a
/// node's estimated input cardinality; lowering performs the same
/// normalization itself, so skipping the passes changes nothing about
/// the answer.
#[test]
fn optimizer_passes_preserve_results_and_lower_estimates() {
    let (fact, dim) = tables(0xF61);
    // A deliberately messy plan: a tautology, a join whose condition
    // smuggles a fact-side conjunct, and a filter *after* the join.
    let build = || {
        PlanBuilder::scan(&fact)
            .filter(Expr::lit(1).less_than(2))
            .join(
                &dim,
                "fk",
                Expr::col("payload")
                    .less_than(500)
                    .and(Expr::col("val0").less_than(800)),
            )
            .filter(Expr::col("val1").at_least(100))
            .aggregate("val1")
            .build()
    };

    let raw = build();
    let optimized = build().optimize();
    // Pushdown + extraction put both fact filters before the join.
    assert!(!optimized.nodes()[0].is_join());
    assert!(!optimized.nodes()[1].is_join());
    assert!(optimized.nodes()[2].is_join());
    let before = raw.input_estimates();
    let after = build().optimize().input_estimates();
    for (k, (b, a)) in before.iter().zip(&after).enumerate() {
        assert!(a <= b, "position {k}: estimate rose {b} -> {a}");
    }

    let unopt = raw.compile().expect("lowering normalizes on its own");
    let opt = optimized.compile().expect("optimized plan lowers");
    assert_eq!(unopt.len(), opt.len(), "same conjuncts, different order");
    let mut c1 = SimCpu::new(CpuConfig::tiny_test());
    let mut c2 = SimCpu::new(CpuConfig::tiny_test());
    let u = unopt.run_range(&mut c1, 0, ROWS);
    let o = opt.run_range(&mut c2, 0, ROWS);
    assert_eq!(u.qualified, o.qualified);
    assert_eq!(u.sum, o.sum);

    // The same passes composed in a different order still agree.
    let reordered = passes::projection_pruning(passes::join_condition_extraction(
        passes::constant_folding(passes::filter_pushdown(build())),
    ))
    .compile()
    .unwrap();
    let mut c3 = SimCpu::new(CpuConfig::tiny_test());
    let r = reordered.run_range(&mut c3, 0, ROWS);
    assert_eq!(r.qualified, o.qualified);
    assert_eq!(r.sum, o.sum);
}

/// Parameterized templates through the serving layer: a compiled plan
/// whose literal slides between arrivals warm-hits its template's cache
/// entry; a structural change misses; and a program admitted through
/// `QuerySpec::compiled` shares the template `QuerySpec::from_plan`
/// built (the signature is a property of the stages, not of the door).
#[test]
fn compiled_templates_warm_across_sliding_literals() {
    let (fact, dim) = tables(0xF62);
    let config = ServeConfig {
        morsels: MorselConfig::new(1024),
        reopt: Some(ProgressiveConfig { reop_interval: 3 }),
        use_order_cache: true,
        dynamic_repartition: false,
    };
    let spec = |label: &str, lit: i64| {
        let plan = PlanBuilder::scan(&fact)
            .filter_costed(Expr::col("val0").less_than(lit), 30)
            .join(&dim, "fk", Expr::col("payload").less_than(lit))
            .aggregate("val1")
            .build();
        QuerySpec::from_plan(label, plan, Priority::Normal, 0).expect("plan lowers")
    };

    let mut server = QueryServer::new(config);
    server.admit(spec("q-500", 500));
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), 2);
    let cold = server.run(&mut pool).unwrap();
    assert!(!cold.queries[0].warm_start, "first sighting is cold");
    assert_eq!(server.cache().len(), 1);

    // Slide the literal: same template, warm start, and the answer is
    // still computed with the *new* literal.
    server.admit(spec("q-250", 250));
    let warm = server.run(&mut pool).unwrap();
    assert!(
        warm.queries[0].warm_start,
        "a slid literal must reuse the template's converged state"
    );
    assert_eq!(server.cache().len(), 1, "still one template");
    let solo = {
        let prog = program(&fact, &dim, 250);
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        prog.run_range(&mut cpu, 0, ROWS)
    };
    assert_eq!(warm.queries[0].qualified, solo.qualified);
    assert_eq!(warm.queries[0].sum, solo.sum);

    // Structure change (operator flip) is a new template: cold.
    let restructured = PlanBuilder::scan(&fact)
        .filter_costed(Expr::col("val0").at_least(500), 30)
        .join(&dim, "fk", Expr::col("payload").less_than(500))
        .aggregate("val1")
        .build();
    server
        .admit(QuerySpec::from_plan("q-restructured", restructured, Priority::Normal, 0).unwrap());
    let changed = server.run(&mut pool).unwrap();
    assert!(!changed.queries[0].warm_start, "operator flip must miss");
    assert_eq!(server.cache().len(), 2);

    // A pre-compiled program with the original shape maps to the same
    // template and warms from the plan-built queries' converged state.
    server.admit(QuerySpec::compiled(
        "q-compiled",
        program(&fact, &dim, 750),
        Priority::Normal,
        0,
    ));
    let compiled = server.run(&mut pool).unwrap();
    assert!(
        compiled.queries[0].warm_start,
        "the signature does not depend on the admission door"
    );
    assert_eq!(server.cache().len(), 2);
}

/// `QuerySpec::compiled` starts from the program's *current* order, so a
/// caller can pick a deliberate (e.g. textbook) starting order by
/// reordering before admission — and a failed reorder can never corrupt
/// it, because rejected permutations leave the order untouched.
#[test]
fn compiled_specs_honor_the_submitted_order() {
    let (fact, dim) = tables(0xF63);
    let mut prog = program(&fact, &dim, 500);
    prog.reorder(&[1, 0]).unwrap();
    assert!(prog.reorder(&[0, 0]).is_err());
    assert!(prog.reorder(&[0, 1, 2]).is_err());
    assert_eq!(prog.order(), &[1, 0], "rejected orders leave no trace");

    let mut server = QueryServer::new(ServeConfig {
        morsels: MorselConfig::new(1024),
        reopt: None,
        use_order_cache: false,
        dynamic_repartition: false,
    });
    server.admit(QuerySpec::compiled("q", prog, Priority::Normal, 0));
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), 2);
    let report = server.run(&mut pool).unwrap();
    assert_eq!(
        report.queries[0].final_order,
        vec![1, 0],
        "a static run keeps the submitted order"
    );
    let solo = {
        let prog = program(&fact, &dim, 500);
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        prog.run_range(&mut cpu, 0, ROWS)
    };
    assert_eq!(report.queries[0].qualified, solo.qualified);
    assert_eq!(report.queries[0].sum, solo.sum);
}
