//! Integration tests for the shared-LLC socket model: the deterministic
//! capacity partition slows workloads whose hot sets outgrow their
//! share, leaves share-resident workloads untouched, degenerates to the
//! private model on one core, flips the cost model's operator ranking
//! under contention — and never, in any mode, moves a query result.

use popt::core::exec::program::CompiledProgram;
use popt::core::exec::scan::CompiledSelection;
use popt::core::parallel::{run_parallel_program, MorselConfig};
use popt::core::plan::{order_by_cost_per_tuple, Expr, PlanBuilder, SelectionPlan};
use popt::core::predicate::{CompareOp, Predicate};
use popt::core::serve::{Priority, QueryServer, QuerySpec, ServeConfig};
use popt::cost::cycles::{stage_costs_per_input_tuple, CycleParams};
use popt::cpu::{CpuPool, LlcMode, SimCpu};
use popt::storage::Table;
use popt_bench::figures::workload::{literal_for, mem_tables_with_dim};

mod common;
use common::small_cache_cpu;

const ROWS: usize = 1 << 16;

/// Fact with a value column and a random FK into a dimension of
/// `dim_rows` tuples — the dimension size is the contention knob against
/// the small test hierarchy's 64 KiB LLC (16 KiB 4-worker share).
fn tables(dim_rows: usize, seed: u64) -> (Table, Table) {
    mem_tables_with_dim(ROWS, dim_rows, seed)
}

/// A selection costing `extra` instructions then the join, both 50%
/// selective; plan order is construction order.
fn build<'t>(fact: &'t Table, dim: &'t Table, extra: u64) -> CompiledProgram<'t> {
    let half = literal_for(0.5);
    PlanBuilder::scan(fact)
        .filter_costed(Expr::col("val").less_than(half), extra)
        .join(dim, "fk", Expr::col("payload").less_than(half))
        .build()
        .compile()
        .unwrap()
}

fn wall_cycles(fact: &Table, dim: &Table, workers: usize, mode: LlcMode) -> (u64, (u64, i64)) {
    let mut program = build(fact, dim, 50);
    let mut pool = CpuPool::with_mode(small_cache_cpu(), workers, mode);
    let report = run_parallel_program(
        &mut program,
        &[0, 1],
        MorselConfig::new(1024),
        &mut pool,
        None, // baseline: fully deterministic per-core cycles
    )
    .unwrap();
    (report.wall_cycles, (report.qualified, report.sum))
}

/// A dimension that fits the socket (48 KiB < 64 KiB) but not a 4-worker
/// share (16 KiB): identical results, measurably more wall cycles.
#[test]
fn thrashing_workload_pays_for_the_shared_socket() {
    let (fact, dim) = tables(12 * 1024, 0x7A5);
    let (private, private_result) = wall_cycles(&fact, &dim, 4, LlcMode::Private);
    let (shared, shared_result) = wall_cycles(&fact, &dim, 4, LlcMode::Shared);
    assert_eq!(
        private_result, shared_result,
        "contention moves cycles, never results"
    );
    assert!(
        shared as f64 > private as f64 * 1.2,
        "socket contention must cost: shared {shared} !> 1.2x private {private}"
    );
}

/// A dimension resident in even the smallest share (2 KiB vs 8 KiB at 8
/// workers): the partition is free.
#[test]
fn share_resident_workload_pays_nothing() {
    let (fact, dim) = tables(512, 0x7A6);
    let (private, private_result) = wall_cycles(&fact, &dim, 4, LlcMode::Private);
    let (shared, shared_result) = wall_cycles(&fact, &dim, 4, LlcMode::Shared);
    assert_eq!(private_result, shared_result);
    let drift = (shared as f64 - private as f64).abs() / private as f64;
    assert!(
        drift < 0.02,
        "share-resident workload must not feel the partition: \
         shared {shared} vs private {private} ({:.2}% drift)",
        drift * 100.0
    );
}

/// One core on a shared socket *is* the private model: the lone occupant
/// keeps the full capacity, so the simulated cycles match exactly.
#[test]
fn single_core_shared_socket_matches_private_exactly() {
    let (fact, dim) = tables(12 * 1024, 0x7A7);
    let (private, private_result) = wall_cycles(&fact, &dim, 1, LlcMode::Private);
    let (shared, shared_result) = wall_cycles(&fact, &dim, 1, LlcMode::Shared);
    assert_eq!(private_result, shared_result);
    assert_eq!(
        private, shared,
        "a lone occupant keeps the whole socket (1 core = full capacity)"
    );
}

/// The cost model re-ranks operators under contention: a probe into a
/// dimension resident in the full LLC is cheap (probe-first wins), but
/// the same probe against a contended share pays Equation-1 misses and
/// an expensive selection overtakes it (selection-first wins). This is
/// the signal that lets the progressive reoptimizer flip orders when a
/// co-runner steals capacity.
#[test]
fn contended_capacity_flips_the_operator_ranking() {
    let cfg = small_cache_cpu();
    let (fact, dim) = tables(12 * 1024, 0x7A8); // 48 KiB dim
    let program = build(&fact, &dim, 120);
    let params = CycleParams::default();
    let selectivities = [0.5, 0.5];
    let rank = |llc_bytes: u64| {
        let geom = program.plan_geometry(ROWS as u64, &cfg, llc_bytes, &[1.0, 1.0]);
        let costs = stage_costs_per_input_tuple(
            &geom,
            &program.stage_instructions(),
            &selectivities,
            &params,
        );
        order_by_cost_per_tuple(program.order(), &costs, &selectivities)
    };
    let full = cfg.llc().capacity_bytes;
    assert_eq!(
        rank(full),
        vec![1, 0],
        "resident probe is cheaper than a 120-instruction selection"
    );
    assert_eq!(
        rank(full / 4),
        vec![0, 1],
        "a contended share makes the probe miss and the selection win"
    );
}

/// Serving a mixed batch on a shared socket: per-query results stay
/// bit-identical to solo single-core execution.
#[test]
fn serve_on_shared_socket_is_bit_identical() {
    let (fact, dim) = tables(12 * 1024, 0x7A9);
    let plan = SelectionPlan::new(
        vec![
            Predicate::new("val", CompareOp::Lt, literal_for(0.3)),
            Predicate::new("fk", CompareOp::Ge, 10),
        ],
        vec!["val".into()],
    )
    .unwrap();
    let mut cpu = SimCpu::new(small_cache_cpu());
    let scan_ref = CompiledSelection::compile(&fact, &plan, &[1, 0])
        .unwrap()
        .run_range(&mut cpu, 0, ROWS);
    let mut cpu = SimCpu::new(small_cache_cpu());
    let mut program = build(&fact, &dim, 50);
    let program_ref = program.run_range(&mut cpu, 0, ROWS);
    program.reorder(&[1, 0]).unwrap();

    let mut server = QueryServer::new(ServeConfig::default());
    server.admit(QuerySpec::scan(
        "scan",
        &fact,
        plan.clone(),
        vec![1, 0],
        Priority::High,
        0,
    ));
    server.admit(QuerySpec::compiled("program", program, Priority::Low, 0));
    let mut pool = CpuPool::new_shared(small_cache_cpu(), 4);
    let report = server.run(&mut pool).unwrap();
    assert_eq!(report.queries[0].qualified, scan_ref.qualified);
    assert_eq!(report.queries[0].sum, scan_ref.sum);
    assert_eq!(report.queries[1].qualified, program_ref.qualified);
    assert_eq!(report.queries[1].sum, program_ref.sum);
    // The batch's aggregate footprint really contended the socket.
    let full = small_cache_cpu().llc().capacity_bytes;
    assert!(pool.min_effective_llc_bytes() < full);
}
