//! Simulation-speed figure (beyond the paper): host-side throughput of
//! the simulator itself, in millions of simulated tuples per host
//! second.
//!
//! Three workloads, each executed through the batched fast path and
//! through the scalar per-event oracle (`set_scalar_oracle`):
//!
//! * a single-predicate scan at the Figure-14 cache scaling — the shape
//!   where the fast path's closed-form line accounting applies in full;
//! * the 3-join star pipeline, serial — the quiet-API event loop with
//!   per-probe hierarchy walks;
//! * the same pipeline under 4-worker morsel parallelism (reopt off).
//!
//! The two paths are bit-identical in simulated results — every row of
//! this figure re-asserts that before it prints — so the speedup column
//! is pure host-side win. Timings take the best of a few repeats; the
//! recorded metrics carry a deliberately loose tolerance
//! ([`HOST_TOL`]) because host wall throughput on a shared box is
//! elastic in a way simulated cycles are not: the regression gate is
//! meant to catch the fast path silently degenerating to oracle speed,
//! not scheduler jitter.

use std::time::Instant;

use popt_core::exec::program::CompiledProgram;
use popt_core::parallel::{run_parallel_program, MorselConfig};
use popt_core::plan::SelectionPlan;
use popt_core::predicate::{CompareOp, Predicate};
use popt_cpu::{CpuPool, SimCpu};
use popt_storage::{AddressSpace, ColumnData, Table};

use crate::common::{banner_with, bench_metric_tol, check, fmt, header, row, FigureCtx};
use crate::figures::fig14::scaled_cpu;
use crate::figures::workload::{star_program, star_schema, xorshift64};
use crate::note;

/// Relative tolerance for the host-elastic throughput metrics.
pub const HOST_TOL: f64 = 4.0;

/// Best (fastest) wall seconds of `repeats` runs of `f`.
fn best_secs<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let t0 = Instant::now();
    let mut out = f();
    best = best.min(t0.elapsed().as_secs_f64());
    for _ in 1..repeats {
        let t0 = Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out)
}

fn mtps(rows: usize, secs: f64) -> f64 {
    rows as f64 / secs / 1e6
}

fn report_row(name: &str, rows: usize, fast_s: f64, slow_s: f64, identical: bool) {
    check(identical, "batched result diverged from the scalar oracle");
    let fast = mtps(rows, fast_s);
    let slow = mtps(rows, slow_s);
    row(&[
        name.to_string(),
        fmt(fast),
        fmt(slow),
        format!("{:.2}x", fast / slow),
        identical.to_string(),
    ]);
    bench_metric_tol(&format!("{name}_batched_mtps"), fast, HOST_TOL);
    bench_metric_tol(&format!("{name}_oracle_mtps"), slow, HOST_TOL);
}

pub fn run(ctx: &FigureCtx) {
    let scan_rows = ctx.scale(1 << 21, 1 << 17);
    let star_rows = ctx.scale(1 << 18, 1 << 14);
    let repeats = ctx.scale(3, 2);
    banner_with(
        ctx,
        "simspeed",
        "host throughput of the simulator (batched fast path vs scalar oracle)",
        &[
            ("scan_rows", scan_rows.to_string()),
            ("star_rows", star_rows.to_string()),
            ("repeats", repeats.to_string()),
        ],
    );
    header(&[
        "workload",
        "batched_mtps",
        "oracle_mtps",
        "speedup",
        "identical",
    ]);

    // Single-predicate scan: the closed-form bulk-accounting shape.
    let mut state = 0x5EEDu64;
    let val: Vec<i32> = (0..scan_rows)
        .map(|_| (xorshift64(&mut state) % 1000) as i32)
        .collect();
    let mut space = AddressSpace::new();
    let mut table = Table::new("t");
    table.add_column("val", ColumnData::I32(val), &mut space);
    let plan = SelectionPlan::new(vec![Predicate::new("val", CompareOp::Lt, 500)], vec![])
        .expect("scan plan");
    let mut compiled = CompiledProgram::from_selection(&table, &plan, &[0]).expect("scan compiles");
    let mut timed_scan = |oracle: bool| {
        compiled.set_scalar_oracle(oracle);
        best_secs(repeats, || {
            let mut cpu = SimCpu::new(scaled_cpu());
            let stats = compiled.run_range(&mut cpu, 0, scan_rows);
            (stats, cpu.counters())
        })
    };
    let (fast_s, fast_out) = timed_scan(false);
    let (slow_s, slow_out) = timed_scan(true);
    report_row("scan", scan_rows, fast_s, slow_s, fast_out == slow_out);

    // 3-join star pipeline, serial.
    let star = star_schema(star_rows, 0x57A15);
    let timed_star = |oracle: bool| {
        let mut program = star_program(&star, Some(0.5), [0.5, 0.5, 0.5]);
        program.set_scalar_oracle(oracle);
        best_secs(repeats, || {
            let mut cpu = SimCpu::new(scaled_cpu());
            let stats = program.run_range(&mut cpu, 0, star_rows);
            (stats, cpu.counters())
        })
    };
    let (fast_s, fast_out) = timed_star(false);
    let (slow_s, slow_out) = timed_star(true);
    report_row("join3", star_rows, fast_s, slow_s, fast_out == slow_out);

    // Same pipeline, 4-worker morsel parallelism, reopt off (the
    // reopt-off parallel report is fully deterministic, so the two
    // paths must agree on the whole report, per-worker cycles
    // included).
    let order = [0usize, 1, 2, 3];
    let timed_par = |oracle: bool| {
        best_secs(repeats, || {
            let mut program = star_program(&star, Some(0.5), [0.5, 0.5, 0.5]);
            program.set_scalar_oracle(oracle);
            let mut pool = CpuPool::new(scaled_cpu(), 4);
            run_parallel_program(
                &mut program,
                &order,
                MorselConfig::new(1024),
                &mut pool,
                None,
            )
            .expect("parallel run")
        })
    };
    let (fast_s, fast_rep) = timed_par(false);
    let (slow_s, slow_rep) = timed_par(true);
    report_row(
        "join3_par4",
        star_rows,
        fast_s,
        slow_s,
        fast_rep == slow_rep,
    );

    note!(
        "# simspeed: batched and scalar-oracle paths re-asserted bit-identical on every workload"
    );
}
