//! Scaling figure (beyond the paper): morsel-driven parallel execution
//! with shared progressive reoptimization.
//!
//! Two workloads, each swept over worker counts:
//!
//! * the Figure-14-style "Mem" workload (expensive selection + fully
//!   random FK probe into an LLC-thrashing dimension), started from the
//!   *worse* static order so the pool has to converge while scaling;
//! * the 3-join star schema (co-clustered customer join + two random
//!   joins + a selection), started from the fully reversed order.
//!
//! Reported per worker count: wall-clock time (the busiest simulated
//! core, optimizer rounds included), speedup over one worker, whether
//! the result is bit-identical to the single-core executor, and whether
//! the pool converged to the same operator order as the serial
//! progressive loop. The speedup column is the headline: morsel
//! dispatch has no barrier, so the only losses are coordination (one
//! estimator round per interval, charged to the core that ran it) and
//! trial morsels (leased to exactly one core).

use popt_core::exec::program::CompiledProgram;
use popt_core::observe::ExecObservers;
use popt_core::parallel::{
    run_parallel_program_observed, MorselConfig, MorselDispatcher, ParallelReport,
};
use popt_core::plan::{Expr, PlanBuilder};
use popt_core::progressive::{run_progressive_program_observed, ProgressiveConfig, VectorConfig};
use popt_cost::cycles::fleet_occupancy_per_socket;
use popt_cpu::{CpuPool, LlcMode, NumaPlacement, SimCpu};

use crate::common::{fmt, Figure, FigureCtx, TraceCapture};
use crate::figures::fig15::scaled_cpu;
use crate::figures::workload::{
    fig14_mem_tables, mem_tables_with_dim, numa_banded_tables, numa_two_dim_tables, star_program,
    star_schema, DOMAIN,
};

/// Worker counts of the sweep.
pub const WORKER_COUNTS: &[usize] = &[1, 2, 4, 8];

/// Run a parallel program, captured into the figure's trace when
/// `--trace-out` asked for one. Tracing is non-invasive, so every
/// assertion downstream of this helper holds identically either way.
fn run_pool(
    program: &mut CompiledProgram<'_>,
    initial_order: &[usize],
    morsels: MorselConfig,
    pool: &mut CpuPool,
    reopt: Option<&ProgressiveConfig>,
    trace: Option<&TraceCapture>,
) -> ParallelReport {
    let obs = match trace {
        Some(capture) => ExecObservers::none().with_trace(
            std::sync::Arc::clone(capture.tracer()),
            capture.next_query(),
        ),
        None => ExecObservers::none(),
    };
    run_parallel_program_observed(program, initial_order, morsels, pool, reopt, &obs)
        .expect("parallel run")
}

struct SweepPoint {
    workers: usize,
    wall_ms: f64,
    speedup: f64,
    exact: bool,
    final_order: String,
    matches_serial: bool,
}

/// Run one workload's sweep: serial ground truth + progressive
/// reference, then the worker-count scan. `build` must hand back a fresh
/// compiled program in plan order each call; `hot_bytes_per_tuple` sizes
/// the morsels so a worker's hot column data fits its private L2.
fn sweep<'t>(
    build: &dyn Fn() -> CompiledProgram<'t>,
    initial_order: &[usize],
    hot_bytes_per_tuple: usize,
    trace: Option<&TraceCapture>,
) -> Vec<SweepPoint> {
    let rows = build().rows();
    let morsels = MorselConfig::cache_friendly(&scaled_cpu(), hot_bytes_per_tuple);
    // Single-core executor ground truth (static order — results are
    // order-invariant, so any order gives the reference bits).
    let mut static_cpu = SimCpu::new(scaled_cpu());
    let expect = build().run_range(&mut static_cpu, 0, rows);

    // Serial progressive reference: the order the §4.4 loop converges to.
    // A coarser interval than the convergence figures use: with N workers
    // sampling concurrently, one interval already fuses several morsels
    // of counters, and each estimator round bills simulated cycles to
    // the core that ran it — reoptimizing every other morsel would put
    // optimization time, not execution, on the critical path.
    let config = ProgressiveConfig { reop_interval: 4 };
    let mut serial_program = build();
    let mut serial_cpu = SimCpu::new(scaled_cpu());
    let serial = run_progressive_program_observed(
        &mut serial_program,
        initial_order,
        VectorConfig {
            vector_tuples: 4_096,
            max_vectors: None,
        },
        &mut serial_cpu,
        &config,
        &ExecObservers::none(),
    )
    .expect("serial progressive runs");

    let mut one_worker_wall = 0u64;
    WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let mut program = build();
            let mut pool = CpuPool::new(scaled_cpu(), workers);
            let report = run_pool(
                &mut program,
                initial_order,
                morsels,
                &mut pool,
                Some(&config),
                trace,
            );
            if workers == 1 {
                one_worker_wall = report.wall_cycles;
            }
            SweepPoint {
                workers,
                wall_ms: report.millis,
                speedup: report.speedup_over(one_worker_wall),
                exact: report.qualified == expect.qualified && report.sum == expect.sum,
                final_order: format!("{:?}", report.final_order),
                matches_serial: report.final_order == serial.final_peo,
            }
        })
        .collect()
}

fn print_sweep(fig: &mut Figure, label: &str, points: &[SweepPoint]) {
    for p in points {
        fig.row(&[
            label.to_string(),
            p.workers.to_string(),
            fmt(p.wall_ms),
            fmt(p.speedup),
            p.exact.to_string(),
            p.final_order.replace(' ', ""),
            p.matches_serial.to_string(),
        ]);
    }
    let four = points
        .iter()
        .find(|p| p.workers == 4)
        .expect("sweep includes 4 workers");
    let one = points
        .iter()
        .find(|p| p.workers == 1)
        .expect("sweep includes 1 worker");
    // Regression-gate metrics: the 1-worker wall follows the serial-
    // shaped decision sequence — tight default tolerance; multi-worker
    // speedup moves with where the pool's trials and rounds land under
    // reoptimization — loose tolerance.
    fig.metric(&format!("{label}.wall_ms_1w"), one.wall_ms);
    fig.metric_tol(&format!("{label}.speedup_4w"), four.speedup, 0.35);
    assert!(
        points.iter().all(|p| p.exact),
        "{label}: parallel result must be bit-identical to the single-core executor"
    );
    assert!(
        four.speedup >= 2.5,
        "{label}: 4-worker speedup {:.2} < 2.5",
        four.speedup
    );
    fig.note(format!(
        "# {label}: 4-worker speedup {} (>= 2.5: {}), converged to serial order: {}",
        fmt(four.speedup),
        four.speedup >= 2.5,
        four.matches_serial
    ));
}

/// One workload's private-vs-shared contention sweep: the same pipeline
/// on a private-LLC pool and on a single shared socket, workers 1→8.
struct ContentionSweep {
    /// 4-worker wall cycles per mode, `[private, shared]`.
    wall_4w: [u64; 2],
    /// 4-worker speedup over the same mode's 1-worker run.
    speedup_4w: [f64; 2],
    exact: bool,
}

/// Sweep a selection + random-join pipeline whose dimension holds
/// `dim_rows` tuples over both LLC modes. The dimension is the knob: a
/// dim that fits the socket but not a contended share thrashes only in
/// shared mode; a dim small enough for the worst share never notices the
/// partition.
fn contention_sweep(
    fig: &mut Figure,
    label: &str,
    rows: usize,
    dim_rows: usize,
    seed: u64,
    trace: Option<&TraceCapture>,
) -> ContentionSweep {
    let (fact, dim) = mem_tables_with_dim(rows, dim_rows, seed);
    let build = || {
        PlanBuilder::scan(&fact)
            .filter_costed(Expr::col("val").less_than(DOMAIN / 2), 50)
            .join(&dim, "fk", Expr::col("payload").less_than(DOMAIN / 2))
            .build()
            .optimize()
            .compile()
            .expect("plan lowers to a two-stage program")
    };
    let mut static_cpu = SimCpu::new(scaled_cpu());
    let expect = build().run_range(&mut static_cpu, 0, rows);

    let mut sweep = ContentionSweep {
        wall_4w: [0; 2],
        speedup_4w: [0.0; 2],
        exact: true,
    };
    for (m, mode) in [LlcMode::Private, LlcMode::Shared].into_iter().enumerate() {
        let mode_label = match mode {
            LlcMode::Private => "private",
            LlcMode::Shared => "shared",
        };
        let mut one_worker_wall = 0u64;
        for &workers in WORKER_COUNTS {
            // Size morsels against the share each core will actually get
            // (equal footprints: the socket splits evenly).
            let full_llc = scaled_cpu().llc().capacity_bytes;
            let share = match mode {
                LlcMode::Private => full_llc,
                LlcMode::Shared => full_llc / workers as u64,
            };
            let morsels = MorselConfig::cache_friendly_for_share(&scaled_cpu(), 12, share);
            let mut program = build();
            let mut pool = CpuPool::with_mode(scaled_cpu(), workers, mode);
            // Baseline (no reopt): the sweep isolates *capacity* effects,
            // and without trial scheduling the interleaved placement
            // makes per-core cycles — and with them every column below —
            // exactly reproducible on any host.
            let report = run_pool(&mut program, &[0, 1], morsels, &mut pool, None, trace);
            if workers == 1 {
                one_worker_wall = report.wall_cycles;
            }
            let speedup = report.speedup_over(one_worker_wall);
            let exact = report.qualified == expect.qualified && report.sum == expect.sum;
            sweep.exact &= exact;
            if workers == 4 {
                sweep.wall_4w[m] = report.wall_cycles;
                sweep.speedup_4w[m] = speedup;
            }
            fig.row(&[
                label.to_string(),
                mode_label.to_string(),
                workers.to_string(),
                (pool.min_effective_llc_bytes() / 1024).to_string(),
                morsels.morsel_tuples.to_string(),
                fmt(report.millis),
                fmt(speedup),
                exact.to_string(),
            ]);
        }
    }
    sweep
}

/// The `--shared-llc` variant: where the private model's near-linear
/// speedup survives the socket and where it breaks.
fn run_shared(ctx: &FigureCtx) -> Figure {
    let mut fig = Figure::new(
        ctx,
        "scale",
        "Shared-LLC socket: capacity contention vs near-linear scaling",
    );
    let rows = ctx.scale(1 << 20, 1 << 18);
    fig.header(&[
        "workload",
        "llc_mode",
        "workers",
        "llc_share_kib",
        "morsel_tuples",
        "wall_ms",
        "speedup_vs_1w",
        "bit_identical",
    ]);
    let capture = TraceCapture::from_ctx(ctx, *WORKER_COUNTS.last().expect("sweep counts"));
    // Dimensions sized against the scaled CPU's 128 KiB socket LLC:
    // 24 Ki tuples (96 KiB) fit the socket but thrash a 4-worker share;
    // 2 Ki tuples (8 KiB) fit even the 8-worker share.
    let thrash = contention_sweep(
        &mut fig,
        "llc-thrash",
        rows,
        24 * 1024,
        0x5CA1E,
        capture.as_ref(),
    );
    let resident = contention_sweep(
        &mut fig,
        "llc-resident",
        rows,
        2 * 1024,
        0x0D1,
        capture.as_ref(),
    );

    assert!(
        thrash.exact && resident.exact,
        "shared-LLC contention moves cycles, never results"
    );
    let slowdown = |s: &ContentionSweep| (s.wall_4w[1] as f64 / s.wall_4w[0] as f64 - 1.0) * 100.0;
    let (thrash_pct, resident_pct) = (slowdown(&thrash), slowdown(&resident));
    fig.note(format!(
        "# llc-thrash: shared-socket 4-worker slowdown {}% vs private, speedup {} -> {}",
        fmt(thrash_pct),
        fmt(thrash.speedup_4w[0]),
        fmt(thrash.speedup_4w[1]),
    ));
    fig.note(format!(
        "# llc-resident: shared-socket 4-worker slowdown {}% vs private, speedup {} -> {}",
        fmt(resident_pct),
        fmt(resident.speedup_4w[0]),
        fmt(resident.speedup_4w[1]),
    ));
    assert!(
        resident.speedup_4w[1] >= 2.5,
        "cache-resident workload must stay near-linear on the shared socket \
         (got {:.2})",
        resident.speedup_4w[1]
    );
    assert!(
        thrash.speedup_4w[1] < resident.speedup_4w[1],
        "LLC-thrashing speedup {:.2} must fall below cache-resident {:.2}",
        thrash.speedup_4w[1],
        resident.speedup_4w[1]
    );
    assert!(
        thrash_pct >= 10.0,
        "LLC-thrashing workload must pay measurably for the shared socket \
         (got {thrash_pct:.2}%)"
    );
    assert!(
        resident_pct < 5.0,
        "cache-resident workload must not pay for a partition it fits \
         (got {resident_pct:.2}%)"
    );
    fig.note(
        "# expectation: the partition leaves each of N cores 1/N of the socket; a \
         probed dimension that fits the socket but not the share turns LLC hits \
         into memory misses and sub-linear speedup, while a share-resident \
         working set keeps the private model's near-linear scaling — and results \
         are bit-identical in both modes at every worker count",
    );
    if let Some(capture) = &capture {
        capture.write(&mut fig);
    }
    fig
}

/// One printed row of the NUMA study: per-socket occupancy and accepted
/// orders are `|`-joined so each socket gets a column slot.
fn numa_row(
    fig: &mut Figure,
    experiment: &str,
    placement: &str,
    report: &ParallelReport,
    sockets: usize,
    exact: bool,
) {
    let occ: Vec<String> = fleet_occupancy_per_socket(&report.per_worker_cycles, sockets)
        .iter()
        .map(|&o| fmt(o))
        .collect();
    let orders: Vec<String> = report
        .socket_orders
        .iter()
        .map(|o| format!("{o:?}").replace(' ', ""))
        .collect();
    fig.row(&[
        experiment.to_string(),
        placement.to_string(),
        report.workers.to_string(),
        fmt(report.millis),
        fmt(report.remote_access_pct),
        occ.join("|"),
        orders.join("|"),
        exact.to_string(),
    ]);
}

/// The `--sockets N` variant: remote-access pricing on the NUMA pool.
///
/// Two experiments:
///
/// * **affinity** — a remote-heavy workload (banded-random FK probes
///   into an LLC-thrashing dimension) run twice: with the OS-default
///   line-interleaved homing, and with every fact band and its matching
///   dimension slice pinned to the socket whose workers claim it. The
///   same morsels touch the same addresses in both runs; only the home
///   sockets differ, so the wall-clock gap is purely the remote
///   surcharge the affinity pin removes.
/// * **divergence** — two cost-symmetric random joins whose dimensions
///   are homed on *different* sockets, progressive reoptimization on.
///   Each socket's loop should converge to probing its local dimension
///   first: the published per-socket orders end up different while
///   results stay bit-identical to the single-core executor.
fn run_numa(ctx: &FigureCtx) -> Figure {
    let sockets = ctx.sockets;
    let mut fig = Figure::new(
        ctx,
        "scale",
        "NUMA pool: affinity-pinned placement vs interleave, per-socket order divergence",
    );
    let rows = ctx.scale(1 << 20, 1 << 18);
    let workers = 4.max(sockets);
    let capture = TraceCapture::from_ctx(ctx, workers);
    fig.header(&[
        "experiment",
        "placement",
        "workers",
        "wall_ms",
        "remote_access_pct",
        "occ_per_socket",
        "socket_orders",
        "bit_identical",
    ]);

    // --- Experiment A: affinity-pinned vs interleaved placement. ---
    // The dimension matches the fact in row count, so each socket's band
    // is `4 * rows / sockets` bytes — far past the 128 KiB scaled LLC,
    // which keeps the banded-random probes memory-served (an LLC hit
    // never pays the remote surcharge, so a cache-resident dim would
    // show no placement effect at all).
    let morsels = MorselConfig::cache_friendly(&scaled_cpu(), 12);
    let bands: Vec<(usize, usize)> = {
        let d = MorselDispatcher::with_affinity(rows, morsels.morsel_tuples, workers, sockets)
            .expect("affinity dispatcher");
        (0..sockets).map(|s| d.socket_row_range(s)).collect()
    };
    let dim_n = rows;
    let (fact, dim) = numa_banded_tables(rows, dim_n, &bands, 0x0AFF1);
    let build = || {
        PlanBuilder::scan(&fact)
            .filter_costed(Expr::col("val").less_than(DOMAIN / 2), 50)
            .join(&dim, "fk", Expr::col("payload").less_than(DOMAIN / 2))
            .build()
            .optimize()
            .compile()
            .expect("plan lowers to a two-stage program")
    };
    let mut static_cpu = SimCpu::new(scaled_cpu());
    let expect = build().run_range(&mut static_cpu, 0, rows);

    // Pin each fact band — and the dimension slice its FKs address — to
    // the socket whose workers the affinity dispatcher hands that band.
    let mut pinned = NumaPlacement::interleaved(sockets);
    for (s, &(r0, r1)) in bands.iter().enumerate() {
        for col in ["fk", "val"] {
            let c = fact.column(col).expect("fact column");
            pinned.register(c.base_addr() + 4 * r0 as u64, 4 * (r1 - r0) as u64, s);
        }
        let (d0, d1) = (r0 * dim_n / rows, r1 * dim_n / rows);
        let c = dim.column("payload").expect("dim payload");
        pinned.register(c.base_addr() + 4 * d0 as u64, 4 * (d1 - d0) as u64, s);
    }

    // Static order, no reopt: the A/B pair isolates *placement*.
    let run_placement = |fig: &mut Figure, label: &str, placement: Option<&NumaPlacement>| {
        let mut program = build();
        let mut pool = CpuPool::with_topology(scaled_cpu(), workers, LlcMode::Private, sockets);
        if let Some(p) = placement {
            pool.set_placement(p);
        }
        let report = run_pool(
            &mut program,
            &[0, 1],
            morsels,
            &mut pool,
            None,
            capture.as_ref(),
        );
        let exact = report.qualified == expect.qualified && report.sum == expect.sum;
        numa_row(fig, "affinity", label, &report, sockets, exact);
        assert!(
            exact,
            "affinity/{label}: NUMA placement moves cycles, never results"
        );
        report
    };
    let interleave = run_placement(&mut fig, "interleave", None);
    let pin = run_placement(&mut fig, "pinned", Some(&pinned));

    let margin = (interleave.wall_cycles as f64 / pin.wall_cycles as f64 - 1.0) * 100.0;
    fig.note(format!(
        "# affinity: pinned placement beats interleave by {}% wall clock \
         (remote accesses {}% -> {}%)",
        fmt(margin),
        fmt(interleave.remote_access_pct),
        fmt(pin.remote_access_pct),
    ));
    assert!(
        pin.remote_access_pct < interleave.remote_access_pct,
        "pinning the bands must cut remote accesses ({} -> {})",
        interleave.remote_access_pct,
        pin.remote_access_pct
    );
    assert!(
        margin >= 5.0,
        "affinity-pinned placement must beat interleave by >= 5% on the \
         remote-heavy workload (got {margin:.2}%)"
    );

    // --- Experiment B: per-socket order divergence. ---
    // Both joins are the same size, selectivity and access pattern; the
    // only asymmetry is *where* the dimensions live. `dim_a` is homed on
    // socket 0, `dim_b` on socket 1, so each socket's remote-adjusted
    // Equation 1 ranks its local probe cheaper.
    let morsels_b = MorselConfig::cache_friendly(&scaled_cpu(), 16);
    let bands_b: Vec<(usize, usize)> = {
        let d = MorselDispatcher::with_affinity(rows, morsels_b.morsel_tuples, workers, sockets)
            .expect("affinity dispatcher");
        (0..sockets).map(|s| d.socket_row_range(s)).collect()
    };
    let dim_n_b = rows / 2;
    let (fact_b, dim_a, dim_b) = numa_two_dim_tables(rows, dim_n_b, 0x0D1F2);
    let build_b = || {
        PlanBuilder::scan(&fact_b)
            .join(&dim_a, "fk_a", Expr::col("payload_a").less_than(DOMAIN / 2))
            .join(&dim_b, "fk_b", Expr::col("payload_b").less_than(DOMAIN / 2))
            .build()
            .optimize()
            .compile()
            .expect("plan lowers to a two-join program")
    };
    let mut static_cpu_b = SimCpu::new(scaled_cpu());
    let expect_b = build_b().run_range(&mut static_cpu_b, 0, rows);

    let mut homes = NumaPlacement::interleaved(sockets);
    for (s, &(r0, r1)) in bands_b.iter().enumerate() {
        for col in ["fk_a", "fk_b"] {
            let c = fact_b.column(col).expect("fact column");
            homes.register(c.base_addr() + 4 * r0 as u64, 4 * (r1 - r0) as u64, s);
        }
    }
    let ca = dim_a.column("payload_a").expect("dim_a payload");
    homes.register(ca.base_addr(), 4 * dim_n_b as u64, 0);
    let cb = dim_b.column("payload_b").expect("dim_b payload");
    homes.register(cb.base_addr(), 4 * dim_n_b as u64, 1);

    let config = ProgressiveConfig { reop_interval: 4 };
    let mut program_b = build_b();
    let mut pool = CpuPool::with_topology(scaled_cpu(), workers, LlcMode::Private, sockets);
    pool.set_placement(&homes);
    let report_b = run_pool(
        &mut program_b,
        &[0, 1],
        morsels_b,
        &mut pool,
        Some(&config),
        capture.as_ref(),
    );
    let exact_b = report_b.qualified == expect_b.qualified && report_b.sum == expect_b.sum;
    numa_row(
        &mut fig,
        "divergence",
        "dim-homed",
        &report_b,
        sockets,
        exact_b,
    );
    fig.note(format!(
        "# divergence: per-socket accepted orders {}",
        report_b
            .socket_orders
            .iter()
            .map(|o| format!("{o:?}").replace(' ', ""))
            .collect::<Vec<_>>()
            .join(" | "),
    ));
    assert!(
        exact_b,
        "divergence: per-socket orders move cycles, never results"
    );
    assert_eq!(
        report_b.socket_orders[0][0], 0,
        "socket 0 must probe its local dim_a first"
    );
    assert_eq!(
        report_b.socket_orders[1][0], 1,
        "socket 1 must converge to probing its local dim_b first"
    );

    fig.note(
        "# expectation: pinning morsel bands and their dimension slices to the \
         claiming socket removes the remote-access surcharge the interleaved \
         default pays (the same addresses are touched either way — only the \
         homes differ), and with reoptimization on, sockets whose placements \
         price the same dims differently publish *different* accepted orders, \
         each probing its local dimension first — results bit-identical to the \
         single-core executor throughout",
    );
    if let Some(capture) = &capture {
        capture.write(&mut fig);
    }
    fig
}

/// Run the figure.
pub fn run(ctx: &FigureCtx) -> Figure {
    if ctx.sockets > 1 {
        return run_numa(ctx);
    }
    if ctx.shared_llc {
        return run_shared(ctx);
    }
    let mut fig = Figure::new(
        ctx,
        "scale",
        "Morsel-driven parallel scaling with shared progressive reoptimization",
    );
    // The quick scale stays large enough (64 morsels) that convergence
    // and per-interval optimizer time amortize — with fewer morsels the
    // speedup column measures coordination overhead, not scaling.
    let rows = ctx.scale(1 << 21, 1 << 18);

    fig.header(&[
        "workload",
        "workers",
        "wall_ms",
        "speedup_vs_1w",
        "bit_identical",
        "final_order",
        "matches_serial_order",
    ]);

    // Workload A: selection vs. random join, started join-first (the
    // worse order at "Mem" sortedness).
    let (fact, dim) = fig14_mem_tables(rows, 0x5CA1E);
    let build_fig14 = || {
        PlanBuilder::scan(&fact)
            .filter_costed(Expr::col("val").less_than(DOMAIN / 2), 50)
            .join(&dim, "fk", Expr::col("payload").less_than(DOMAIN / 2))
            .build()
            .optimize()
            .compile()
            .expect("plan lowers to a two-stage program")
    };
    let capture = TraceCapture::from_ctx(ctx, *WORKER_COUNTS.last().expect("sweep counts"));
    // Hot bytes per tuple: fk + val + dimension probe, 4 B each.
    print_sweep(
        &mut fig,
        "fig14-mem",
        &sweep(&build_fig14, &[1, 0], 12, capture.as_ref()),
    );

    // Workload B: the 3-join star schema, started fully reversed (random
    // part and supplier joins first, then the co-clustered customer
    // join, with the cheap selection dead last).
    let star = star_schema(rows, 0x57A12);
    let build_star = || star_program(&star, Some(0.5), [0.5, 0.5, 0.5]);
    // Hot bytes per tuple: val + 3 FKs + 3 probes + agg, 4 B each.
    print_sweep(
        &mut fig,
        "star-3join",
        &sweep(&build_star, &[3, 2, 1, 0], 32, capture.as_ref()),
    );

    fig.note(
        "# expectation: near-linear speedup (morsel dispatch is barrier-free; the \
         optimizer runs once per interval on one core), identical results at every \
         worker count, and the pool converging to the serial loop's final order — \
         where it does not (star-3join at 1 worker, and on the --quick input at 4 \
         and 8), the pool settles on another near-optimal order of its near-equal \
         tail stages, the same one on every run, and the locality ranking itself \
         (co-clustered join ahead of random joins) holds at every worker count",
    );
    if let Some(capture) = &capture {
        capture.write(&mut fig);
    }
    fig
}
