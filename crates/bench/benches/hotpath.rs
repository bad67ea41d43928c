//! Criterion bench: host ns per simulated tuple through the batched
//! fast path vs the scalar per-event oracle, for the two shapes the
//! fast path targets — a single-predicate scan (closed-form line
//! accounting) and a selection + 3-join pipeline (quiet-API event
//! loop) — serial and under 4-worker morsel parallelism.
//!
//! The two paths are bit-identical in simulated results (pinned by the
//! oracle proptests); this bench measures only host throughput, i.e.
//! what the fast path buys.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use popt_core::exec::program::CompiledProgram;
use popt_core::parallel::{run_parallel_program, MorselConfig};
use popt_core::plan::{Expr, LogicalPlan, PlanBuilder, SelectionPlan};
use popt_core::predicate::{CompareOp, Predicate};
use popt_cpu::{CpuConfig, CpuPool, SimCpu};
use popt_storage::{AddressSpace, ColumnData, Table};

const ROWS: usize = 1 << 16;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn fact_table(rows: usize) -> Table {
    let mut state = 0xBE7Fu64;
    let mut space = AddressSpace::new();
    let mut t = Table::new("fact");
    t.add_column(
        "a",
        ColumnData::I32(
            (0..rows)
                .map(|_| (xorshift(&mut state) % 1000) as i32)
                .collect(),
        ),
        &mut space,
    );
    t.add_column(
        "fk_seq",
        ColumnData::I32((0..rows).map(|i| (i / 4) as i32).collect()),
        &mut space,
    );
    t.add_column(
        "fk_rand",
        ColumnData::I32(
            (0..rows)
                .map(|_| (xorshift(&mut state) % (rows as u64 / 4)) as i32)
                .collect(),
        ),
        &mut space,
    );
    t
}

fn dim_table(rows: usize) -> Table {
    let mut state = 0xD1Du64;
    let mut space = AddressSpace::new();
    let mut t = Table::new("dim");
    t.add_column(
        "payload",
        ColumnData::I32(
            (0..rows / 4)
                .map(|_| (xorshift(&mut state) % 1000) as i32)
                .collect(),
        ),
        &mut space,
    );
    t
}

/// Selection over `a` plus three dimension joins and an aggregate.
fn join3_plan<'t>(fact: &'t Table, dim: &'t Table) -> LogicalPlan<'t> {
    PlanBuilder::scan(fact)
        .filter_costed(Expr::col("a").less_than(500), 0)
        .join(dim, "fk_seq", Expr::col("payload").less_than(700))
        .join(dim, "fk_rand", Expr::col("payload").less_than(500))
        .join(dim, "fk_seq", Expr::col("payload").less_than(300))
        .aggregate("a")
        .build()
}

fn compile_join3<'t>(fact: &'t Table, dim: &'t Table, oracle: bool) -> CompiledProgram<'t> {
    let mut program = join3_plan(fact, dim).compile().expect("plan lowers");
    program.set_scalar_oracle(oracle);
    program
}

fn scan_serial(c: &mut Criterion) {
    let table = fact_table(ROWS);
    let plan =
        SelectionPlan::new(vec![Predicate::new("a", CompareOp::Lt, 500)], vec![]).expect("plan");
    let mut group = c.benchmark_group("hotpath_scan_serial");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(ROWS as u64));
    for (name, oracle) in [("batched", false), ("scalar_oracle", true)] {
        let mut compiled = CompiledProgram::from_selection(&table, &plan, &[0]).expect("compiles");
        compiled.set_scalar_oracle(oracle);
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
                black_box(compiled.run_range(&mut cpu, 0, ROWS))
            })
        });
    }
    group.finish();
}

fn join3_serial(c: &mut Criterion) {
    let fact = fact_table(ROWS);
    let dim = dim_table(ROWS);
    let mut group = c.benchmark_group("hotpath_join3_serial");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(ROWS as u64));
    for (name, oracle) in [("batched", false), ("scalar_oracle", true)] {
        let compiled = compile_join3(&fact, &dim, oracle);
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
                black_box(compiled.run_range(&mut cpu, 0, ROWS))
            })
        });
    }
    group.finish();
}

fn join3_parallel4(c: &mut Criterion) {
    let fact = fact_table(ROWS);
    let dim = dim_table(ROWS);
    let mut group = c.benchmark_group("hotpath_join3_parallel4");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(ROWS as u64));
    for (name, oracle) in [("batched", false), ("scalar_oracle", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut program = compile_join3(&fact, &dim, oracle);
                let mut pool = CpuPool::new(CpuConfig::xeon_e5_2630_v2(), 4);
                black_box(
                    run_parallel_program(
                        &mut program,
                        &[0, 1, 2, 3],
                        MorselConfig::new(1024),
                        &mut pool,
                        None,
                    )
                    .expect("parallel run succeeds"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, scan_serial, join3_serial, join3_parallel4);
criterion_main!(benches);
