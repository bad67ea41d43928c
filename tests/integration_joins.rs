//! Cross-crate integration: join-filter programs, sortedness detection
//! and counter-driven join reordering (Sections 5.5–5.6).

use popt::core::exec::program::CompiledProgram;
use popt::core::plan::{Expr, PlanBuilder};
use popt::core::sortedness::{classify, recommend_join_order, AccessPattern, JoinObservation};
use popt::cost::join_model::JoinGeometry;
use popt::cpu::SimCpu;
use popt::storage::tpch::{generate_lineitem, generate_orders, generate_part, TpchConfig};

mod common;
use common::small_cache_cpu;

fn setup() -> (
    popt::storage::Table,
    popt::storage::Table,
    popt::storage::Table,
) {
    let cfg = TpchConfig::with_rows(1 << 16);
    (
        generate_lineitem(&cfg),
        generate_orders(&cfg),
        generate_part(&cfg),
    )
}

/// A single always-true join filter probing `dim.col` through `fk`.
fn lone_join<'t>(
    lineitem: &'t popt::storage::Table,
    fk: &str,
    dim: &'t popt::storage::Table,
    col: &str,
) -> CompiledProgram<'t> {
    PlanBuilder::scan(lineitem)
        .join(dim, fk, Expr::col(col).less_than(i64::MAX / 2))
        .build()
        .compile()
        .expect("join compiles")
}

#[test]
fn orders_join_is_coclustered_part_join_is_not() {
    let (lineitem, orders, part) = setup();
    let cpu_cfg = small_cache_cpu();
    let probe = |fk: &str, dim: &popt::storage::Table, col: &str| {
        let program = lone_join(&lineitem, fk, dim, col);
        let mut cpu = SimCpu::new(cpu_cfg.clone());
        let stats = program.run_range(&mut cpu, 0, lineitem.rows());
        let geometry = JoinGeometry {
            relation_tuples: dim.rows() as u64,
            tuple_bytes: 4,
            line_bytes: 64,
            cache_lines: cpu_cfg.llc().lines(),
        };
        classify(&geometry, stats.tuples, stats.counters.l3_misses)
    };
    assert_eq!(
        probe("l_orderkey", &orders, "o_totalprice"),
        AccessPattern::CoClustered
    );
    assert_ne!(
        probe("l_partkey", &part, "p_retailprice"),
        AccessPattern::CoClustered
    );
}

#[test]
fn coclustered_join_first_is_faster() {
    let (lineitem, orders, part) = setup();
    let run = |orders_first: bool| {
        let mut program = PlanBuilder::scan(&lineitem)
            .join(
                &orders,
                "l_orderkey",
                Expr::col("o_totalprice").less_than(250_000),
            )
            .join(
                &part,
                "l_partkey",
                Expr::col("p_retailprice").less_than(1_500),
            )
            .build()
            .compile()
            .expect("two-join program");
        if !orders_first {
            program.reorder(&[1, 0]).expect("reorder");
        }
        let mut cpu = SimCpu::new(small_cache_cpu());
        let stats = program.run_range(&mut cpu, 0, lineitem.rows());
        (cpu.cycles(), stats.qualified)
    };
    let (orders_first, q1) = run(true);
    let (part_first, q2) = run(false);
    assert_eq!(q1, q2, "join order must not change the result");
    assert!(
        orders_first < part_first,
        "orders-first {orders_first} !< part-first {part_first}"
    );
}

#[test]
fn detector_recommends_the_fast_order() {
    let (lineitem, orders, part) = setup();
    let cpu_cfg = small_cache_cpu();
    let observe = |fk: &str, dim: &popt::storage::Table, col: &str, name: &str| {
        let program = lone_join(&lineitem, fk, dim, col);
        let mut cpu = SimCpu::new(cpu_cfg.clone());
        let stats = program.run_range(&mut cpu, 0, 1 << 14);
        JoinObservation {
            name: name.into(),
            geometry: JoinGeometry {
                relation_tuples: dim.rows() as u64,
                tuple_bytes: 4,
                line_bytes: 64,
                cache_lines: cpu_cfg.llc().lines(),
            },
            accesses: stats.tuples,
            measured_misses: stats.counters.l3_misses,
        }
    };
    let obs = vec![
        observe("l_partkey", &part, "p_retailprice", "part"),
        observe("l_orderkey", &orders, "o_totalprice", "orders"),
    ];
    let order = recommend_join_order(&obs);
    assert_eq!(obs[order[0]].name, "orders");
}

#[test]
fn mixed_selection_join_pipeline_is_order_invariant() {
    let (lineitem, orders, _) = setup();
    let run = |order: [usize; 2]| {
        let mut program = PlanBuilder::scan(&lineitem)
            .filter(Expr::col("l_quantity").less_than(24))
            .join(
                &orders,
                "l_orderkey",
                Expr::col("o_totalprice").less_than(250_000),
            )
            .build()
            .compile()
            .expect("select + join program");
        program.reorder(&order).expect("reorder");
        let mut cpu = SimCpu::new(small_cache_cpu());
        program.run_range(&mut cpu, 0, lineitem.rows()).qualified
    };
    assert_eq!(run([0, 1]), run([1, 0]));
}

#[test]
fn expensive_selection_changes_the_best_order() {
    // With a cheap selection, selection-first wins against a random-probe
    // join; make the selection expensive enough and join-first can win
    // when the join is co-clustered (the Figure 14 trade-off).
    let (lineitem, orders, _) = setup();
    let run = |expensive: u64, join_first: bool| {
        let mut program = PlanBuilder::scan(&lineitem)
            .filter_costed(Expr::col("l_quantity").less_than(45), expensive)
            .join(
                &orders,
                "l_orderkey",
                Expr::col("o_totalprice").less_than(100_000),
            )
            .build()
            .compile()
            .expect("select + join program");
        if join_first {
            program.reorder(&[1, 0]).expect("reorder");
        }
        let mut cpu = SimCpu::new(small_cache_cpu());
        program.run_range(&mut cpu, 0, lineitem.rows());
        cpu.cycles()
    };
    // Expensive selection + co-clustered (cheap) join: join-first wins.
    assert!(
        run(200, true) < run(200, false),
        "join-first should win with an expensive selection"
    );
}
