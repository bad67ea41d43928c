//! Drift figure (beyond the paper): how accurate is the counter model
//! that steers progressive reoptimization, and where do each stage's
//! cycles actually go?
//!
//! The §4.4 loop trusts two predictions at every reopt round: the fitted
//! counter model (branch/L3 counts at the estimated survivor rates) and
//! the analytic cycles-per-tuple ranking built on it. This figure runs
//! the Figure-14 "Mem" crossover workload — expensive selection against
//! a fully random FK probe whose dimension thrashes the L3 — with the
//! model-drift observatory attached, on four configurations:
//!
//! * the serial §4.4 loop (the crossover itself);
//! * the 4-worker private-LLC pool (fused multi-worker windows);
//! * the 4-worker shared-LLC socket (capacity contention the analytic
//!   model does not price);
//! * a 2-socket NUMA pool (remote-access surcharges likewise outside
//!   the model).
//!
//! Per run, metric and stage key it reports the windowed residual
//! statistics: raw relative error (face value, including the constant
//! bias from the analytic [`CycleParams`] defaults vs the scaled
//! hierarchy the figures simulate), sign bias, the window's best
//! constant scale, and the **calibrated** relative error after dividing
//! that scale out — the model's *shape* accuracy, which is what ranking
//! decisions depend on. The figure's gate: the serial crossover's
//! calibrated mean cycles-per-tuple error stays ≤ 15%.
//!
//! The same runs carry the per-stage cycle profiler; its conservation
//! law (stage + optimizer + idle lanes sum bit-exactly to the pool wall
//! clock) is checked here on real workloads and the serial run's flame
//! summary is printed. Both observers are non-invasive: the serial
//! observed run is asserted bit-identical to the unobserved one.
//!
//! [`CycleParams`]: ../../../popt_cost/cycles/struct.CycleParams.html

use std::sync::Arc;

use popt_core::exec::program::CompiledProgram;
use popt_core::parallel::{run_parallel_program_observed, MorselConfig};
use popt_core::plan::{Expr, PlanBuilder};
use popt_core::progressive::{
    run_progressive_program, run_progressive_program_observed, ProgressiveConfig, VectorConfig,
};
use popt_core::ExecObservers;
use popt_cpu::{CpuPool, LlcMode, SimCpu};
use popt_obs::{DriftObservatory, MetricsRegistry, Profiler};

use crate::common::{banner, bench_metric, bench_metric_tol, check, fmt, header, row, FigureCtx};
use crate::figures::fig15::scaled_cpu;
use crate::figures::workload::{fig14_mem_tables, DOMAIN};
use crate::note;

/// The ≤ 15% calibrated cycles-per-tuple gate of the figure.
pub const CPT_GATE: f64 = 0.15;

/// Print one observatory's series under a run label and return the
/// worst calibrated mean cycles-per-tuple error (None when the run
/// never fitted).
fn print_drift(run: &str, drift: &DriftObservatory) -> Option<f64> {
    for ((metric, key), s) in drift.series() {
        row(&[
            run.to_string(),
            metric.clone(),
            format!("{key:016x}"),
            s.samples.to_string(),
            fmt(s.mean_rel_err),
            fmt(s.max_rel_err),
            fmt(s.sign_bias),
            fmt(s.scale),
            fmt(s.calibrated_mean_rel_err),
            fmt(s.calibrated_max_rel_err),
        ]);
    }
    drift.worst_calibrated_mean("cpt")
}

/// Run the figure.
pub fn run(ctx: &FigureCtx) {
    banner(
        ctx,
        "drift",
        "Model-drift observatory and per-stage cycle profiler on the L3-crossover workload",
    );
    let rows = ctx.scale(1 << 19, 1 << 16);
    let (fact, dim) = fig14_mem_tables(rows, 0x5CA1E);
    let build = || -> CompiledProgram<'_> {
        PlanBuilder::scan(&fact)
            .filter_costed(Expr::col("val").less_than(DOMAIN / 2), 50)
            .join(&dim, "fk", Expr::col("payload").less_than(DOMAIN / 2))
            .build()
            .optimize()
            .compile()
            .expect("plan lowers to a two-stage program")
    };
    // Started join-first (the worse static order at full shuffle) so the
    // loop reoptimizes — every fit is one drift sample.
    let initial = [1usize, 0];
    let serial_config = ProgressiveConfig { reop_interval: 2 };
    let pool_config = ProgressiveConfig { reop_interval: 4 };
    let vectors = VectorConfig {
        vector_tuples: 4_096,
        max_vectors: None,
    };
    let morsels = MorselConfig::cache_friendly(&scaled_cpu(), 12);

    // Ground truth for exactness checks (order-invariant).
    let mut static_cpu = SimCpu::new(scaled_cpu());
    let expect = build().run_range(&mut static_cpu, 0, rows);

    header(&[
        "run",
        "metric",
        "stage_key",
        "n",
        "mean_err",
        "max_err",
        "sign_bias",
        "scale",
        "cal_mean_err",
        "cal_max_err",
    ]);

    // --- Serial crossover: the gated run. ---
    let drift_serial = Arc::new(DriftObservatory::new());
    let prof_serial = Arc::new(Profiler::new(1));
    let obs = ExecObservers::none()
        .with_drift(Arc::clone(&drift_serial))
        .with_profiler(Arc::clone(&prof_serial));
    let mut program = build();
    let mut cpu = SimCpu::new(scaled_cpu());
    let observed = run_progressive_program_observed(
        &mut program,
        &initial,
        vectors,
        &mut cpu,
        &serial_config,
        &obs,
    )
    .expect("observed serial run");

    // Non-invasiveness, demonstrated on the figure's own workload: the
    // unobserved serial run must be bit-identical, field for field.
    let mut plain_program = build();
    let mut plain_cpu = SimCpu::new(scaled_cpu());
    let plain = run_progressive_program(
        &mut plain_program,
        &initial,
        vectors,
        &mut plain_cpu,
        &serial_config,
    )
    .expect("plain serial run");
    check(
        observed.qualified == plain.qualified
            && observed.sum == plain.sum
            && observed.cycles == plain.cycles
            && observed.final_peo == plain.final_peo
            && observed.switches == plain.switches,
        "attaching drift+profiler must not change the serial run",
    );
    check(
        observed.qualified == expect.qualified && observed.sum == expect.sum,
        "serial crossover result must match the static executor",
    );
    let serial_worst = print_drift("serial", &drift_serial);

    // --- 4-worker private pool. ---
    let run_pool = |label: &str, mut pool: CpuPool| {
        let drift = Arc::new(DriftObservatory::new());
        let prof = Arc::new(Profiler::new(pool.cores().len()));
        let obs = ExecObservers::none()
            .with_drift(Arc::clone(&drift))
            .with_profiler(Arc::clone(&prof));
        let mut program = build();
        let report = run_parallel_program_observed(
            &mut program,
            &initial,
            morsels,
            &mut pool,
            Some(&pool_config),
            &obs,
        )
        .expect("observed parallel run");
        check(
            report.qualified == expect.qualified && report.sum == expect.sum,
            "parallel observed result must match the static executor",
        );
        check(
            prof.conserves(),
            "profiled cycles must sum bit-exactly to the pool wall clock",
        );
        check(
            prof.total_attributed() == prof.wall_cycles() * report.workers as u64,
            "attributed total must equal wall x workers",
        );
        let worst = print_drift(label, &drift);
        (report, prof, worst)
    };
    let (par_report, _par_prof, par_worst) = run_pool("parallel-4w", CpuPool::new(scaled_cpu(), 4));
    let (_shared_report, _shared_prof, shared_worst) = run_pool(
        "shared-llc-4w",
        CpuPool::with_mode(scaled_cpu(), 4, LlcMode::Shared),
    );
    let (numa_report, _numa_prof, numa_worst) = run_pool(
        "numa-2s",
        CpuPool::with_topology(scaled_cpu(), 4, LlcMode::Private, 2),
    );

    // --- Serial profile: conservation + flame. ---
    check(
        prof_serial.conserves(),
        "serial profile must conserve against the reported cycles",
    );
    check(
        prof_serial.wall_cycles() == observed.cycles,
        "serial profile wall must equal the report's total cycles",
    );
    note!("# serial flame (cycles per lane, share of attributed total):");
    for line in prof_serial.flame().lines() {
        note!("#   {line}");
    }
    let totals = prof_serial.stage_totals();
    let join_cycles = totals.get(&1).copied().unwrap_or(0);
    let scan_cycles = totals.get(&0).copied().unwrap_or(0);
    // Once converged the selection runs first over every tuple while the
    // LLC-thrashing probe only sees survivors — which lane accumulates
    // more *total* cycles depends on how long convergence took, but both
    // stages must have executed and been attributed.
    check(
        join_cycles > 0 && scan_cycles > 0,
        "both stages must receive profile attribution",
    );
    let (_, opt_cycles, _) = prof_serial.worker_lanes(0);
    check(
        opt_cycles == observed.optimizer_cycles,
        "the profiler's optimizer lane must equal the report's optimizer cycles",
    );

    // --- The gate + registry export. ---
    let serial_worst = serial_worst.expect("serial run fitted at least once");
    let mut reg = MetricsRegistry::new();
    drift_serial.export(&mut reg);
    note!(
        "# drift: serial crossover recorded {} samples over {} series",
        reg.counter("drift.samples"),
        reg.counter("drift.series"),
    );
    let show = |w: Option<f64>| w.map_or("n/a".to_string(), fmt);
    note!(
        "# drift: worst calibrated cpt mean error — serial {} | parallel {} | shared {} | numa {}",
        fmt(serial_worst),
        show(par_worst),
        show(shared_worst),
        show(numa_worst),
    );
    note!(
        "# drift gate: serial calibrated cpt mean {} <= {}: {}",
        fmt(serial_worst),
        CPT_GATE,
        serial_worst <= CPT_GATE,
    );
    check(
        serial_worst <= CPT_GATE,
        "calibrated cycles-per-tuple drift exceeded the 15% gate",
    );

    // Regression-gate metrics: the serial run is a pure function of the
    // simulation (tight tolerance); pool walls and their drift errors
    // are host-elastic under reoptimization (loose tolerance).
    bench_metric("serial.cycles", observed.cycles as f64);
    bench_metric("serial.qualified", observed.qualified as f64);
    bench_metric("serial.stage1_profile_cycles", join_cycles as f64);
    bench_metric_tol("serial.cal_cpt_worst", serial_worst, 0.5);
    bench_metric_tol("parallel.wall_cycles", par_report.wall_cycles as f64, 0.35);
    bench_metric_tol(
        "numa.remote_access_pct",
        numa_report.remote_access_pct,
        0.35,
    );

    note!(
        "# expectation: the raw cycles-per-tuple error carries the constant bias \
         between the analytic CycleParams defaults and the scaled simulated \
         hierarchy (visible as a stable window scale), while the calibrated \
         error — the model's shape accuracy, the thing order ranking depends \
         on — stays within the 15% gate on the crossover; contention the model \
         does not price (shared-LLC capacity, NUMA remote surcharges) shows up \
         as extra calibrated error, and the profiler's stage/optimizer/idle \
         lanes conserve bit-exactly on every configuration"
    );
}
