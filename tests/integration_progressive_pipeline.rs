//! Cross-crate integration: progressive *operator* reordering for filter
//! pipelines (Sections 5.5–5.6, Figure 14).
//!
//! The acceptance bar: starting from the worse static order on *both*
//! sides of the Figure 14 sortedness crossover, progressive program
//! execution must finish within 10% of the better static order's cycles
//! — the optimizer's trial vectors, estimator time, and late convergence
//! all have to fit inside that envelope.

use popt::core::exec::program::CompiledProgram;
use popt::core::plan::{Expr, PlanBuilder};
use popt::core::progressive::{run_progressive_program, ProgressiveConfig, VectorConfig};
use popt::cpu::SimCpu;
use popt::storage::distribution::knuth_shuffle_window;
use popt::storage::{AddressSpace, ColumnData, Table};

mod common;
use common::small_cache_cpu;

// The `ROWS/4`-tuple dimension table (128 KiB) thrashes the shared
// helper's 64 KiB LLC under random probes.
const ROWS: usize = 1 << 17;
const DOMAIN: i64 = 100;

/// The Figure 14 workload: a sorted FK (4 fact tuples per dimension
/// tuple) shuffled within `window`, an expensive 50%-selective predicate
/// column, and a 50%-selective dimension payload.
fn fact_and_dim(window: usize, seed: u64) -> (Table, Table) {
    let dim_n = ROWS / 4;
    let mut fk: Vec<i32> = (0..ROWS).map(|i| (i / 4) as i32).collect();
    if window > 1 {
        knuth_shuffle_window(&mut fk, window, seed);
    }
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as i64
    };
    let val: Vec<i32> = (0..ROWS).map(|_| (next() % DOMAIN) as i32).collect();
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    fact.add_column("fk", ColumnData::I32(fk), &mut space);
    fact.add_column("val", ColumnData::I32(val), &mut space);
    let payload: Vec<i32> = (0..dim_n).map(|_| (next() % DOMAIN) as i32).collect();
    let mut dim_space = AddressSpace::new();
    let mut dim = Table::new("dim");
    dim.add_column("payload", ColumnData::I32(payload), &mut dim_space);
    (fact, dim)
}

/// The expensive selection (50 extra instructions) then the join,
/// optionally summing `val`; plan order is construction order.
fn build_program<'t>(fact: &'t Table, dim: &'t Table, aggregate: bool) -> CompiledProgram<'t> {
    let mut plan = PlanBuilder::scan(fact)
        .filter_costed(Expr::col("val").less_than(DOMAIN / 2), 50)
        .join(dim, "fk", Expr::col("payload").less_than(DOMAIN / 2));
    if aggregate {
        plan = plan.aggregate("val");
    }
    plan.build().compile().expect("program compiles")
}

/// Static cycles for one order.
fn static_cycles(fact: &Table, dim: &Table, order: [usize; 2]) -> (u64, u64) {
    let mut program = build_program(fact, dim, false);
    program.reorder(&order).expect("valid order");
    let mut cpu = SimCpu::new(small_cache_cpu());
    let stats = program.run_range(&mut cpu, 0, fact.rows());
    (stats.counters.cycles, stats.qualified)
}

/// Run progressive from the worse static order and require it within 10%
/// of the better one.
fn assert_progressive_recovers(window: usize) {
    let (fact, dim) = fact_and_dim(window, 0xF1614);
    let (sel_first, q1) = static_cycles(&fact, &dim, [0, 1]);
    let (join_first, q2) = static_cycles(&fact, &dim, [1, 0]);
    assert_eq!(q1, q2);
    let (better, worse_order) = if sel_first <= join_first {
        (sel_first, [1usize, 0])
    } else {
        (join_first, [0usize, 1])
    };

    let mut program = build_program(&fact, &dim, false);
    let mut cpu = SimCpu::new(small_cache_cpu());
    let prog = run_progressive_program(
        &mut program,
        &worse_order,
        VectorConfig {
            vector_tuples: 4096,
            max_vectors: None,
        },
        &mut cpu,
        &ProgressiveConfig { reop_interval: 2 },
    )
    .expect("progressive program runs");

    assert_eq!(prog.qualified, q1, "reordering must not change the result");
    let bound = better as f64 * 1.10;
    assert!(
        (prog.cycles as f64) < bound,
        "window {window}: progressive {} !< 1.1 × better static {better} \
         (worse order was {worse_order:?}, switches: {:?})",
        prog.cycles,
        prog.switches
    );
}

/// Sorted side of the crossover: co-clustered probes make join-first the
/// better order; progressive starts selection-first.
#[test]
fn progressive_recovers_on_the_sorted_side() {
    let (fact, dim) = fact_and_dim(1, 0xF1614);
    let (sel_first, _) = static_cycles(&fact, &dim, [0, 1]);
    let (join_first, _) = static_cycles(&fact, &dim, [1, 0]);
    assert!(
        join_first < sel_first,
        "workload sanity: join-first must win on sorted data \
         ({join_first} !< {sel_first})"
    );
    assert_progressive_recovers(1);
}

/// Shuffled side of the crossover: random probes thrash the LLC and the
/// expensive selection belongs in front; progressive starts join-first.
#[test]
fn progressive_recovers_on_the_shuffled_side() {
    let (fact, dim) = fact_and_dim(ROWS, 0xF1614);
    let (sel_first, _) = static_cycles(&fact, &dim, [0, 1]);
    let (join_first, _) = static_cycles(&fact, &dim, [1, 0]);
    assert!(
        sel_first < join_first,
        "workload sanity: selection-first must win on shuffled data \
         ({sel_first} !< {join_first})"
    );
    assert_progressive_recovers(ROWS);
}

/// The aggregate survives mid-run reordering, matching a static run.
#[test]
fn progressive_pipeline_aggregate_is_order_independent() {
    let (fact, dim) = fact_and_dim(1, 0xF1614);
    let static_program = build_program(&fact, &dim, true);
    let mut cpu = SimCpu::new(small_cache_cpu());
    let expect = static_program.run_range(&mut cpu, 0, fact.rows());

    let mut program = build_program(&fact, &dim, true);
    let mut cpu = SimCpu::new(small_cache_cpu());
    let prog = run_progressive_program(
        &mut program,
        &[0, 1],
        VectorConfig {
            vector_tuples: 4096,
            max_vectors: None,
        },
        &mut cpu,
        &ProgressiveConfig { reop_interval: 2 },
    )
    .expect("progressive program runs");
    assert_eq!(prog.qualified, expect.qualified);
    assert_eq!(prog.sum, expect.sum);
    assert!(prog.sum > 0);
}
