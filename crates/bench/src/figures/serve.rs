//! Serving figure (beyond the paper): multi-query admission, priority
//! scheduling, and cross-query order reuse on the shared pool.
//!
//! Three experiments over a mixed workload of repeated query templates
//! (a high-priority selective scan, a normal-priority selection+join
//! pipeline started from the *worse* static order, and a low-priority
//! background scan):
//!
//! 1. **Closed-loop throughput sweep** — the whole batch arrives at
//!    time 0; workers swept 1→8. Morsel slots are divided by stride
//!    scheduling, every query reoptimizes independently, and throughput
//!    must scale (asserted ≥ 2× at 4 workers).
//! 2. **Open-loop latency** — arrivals spaced to ~80% utilization of
//!    the 4-worker pool, priorities cycling high/normal/low over one
//!    template. Reported per priority class: latency percentiles and
//!    mean queueing delay — the stride weights separate the classes.
//! 3. **Warm vs. cold order cache** — the same batch served twice by
//!    one server (fresh pool each time). The second run hits the order
//!    cache, starts every query from its template's converged order and
//!    calibration, and must pay measurably less overhead-vs-best than
//!    the cold run (asserted per template).
//!
//! Every admitted query's qualified/sum is asserted bit-identical to a
//! solo single-core execution in all three experiments.

use popt_core::exec::program::CompiledProgram;
use popt_core::plan::{Expr, PlanBuilder, SelectionPlan};
use popt_core::serve::{Priority, QueryOutcome, QueryServer, QuerySpec, ServeConfig, ServeReport};
use popt_cost::cycles::fleet_occupancy_per_socket;
use popt_cpu::{CpuConfig, CpuPool, LlcMode, SimCpu};
use popt_storage::Table;

use popt_obs::MetricsRegistry;

use crate::common::{
    banner, bench_metric, bench_metric_tol, fmt, header, row, FigureCtx, TraceCapture,
};
use crate::figures::fig15::scaled_cpu;
use crate::figures::workload::{
    fig14_mem_tables, mem_tables_with_dim, uniform_plan, uniform_table, xorshift64, DOMAIN,
};
use crate::note;

/// Worker counts of the closed-loop sweep.
pub const WORKER_COUNTS: &[usize] = &[1, 2, 4, 8];

fn serve_cpu() -> CpuConfig {
    scaled_cpu()
}

fn config() -> ServeConfig {
    ServeConfig {
        // Small morsels relative to the templates' row counts: a served
        // query's stream must span enough reopt intervals to converge
        // even when it only owns a slice of the pool. Reoptimization
        // itself runs at the serving default cadence.
        morsels: popt_core::parallel::MorselConfig::new(1024),
        ..Default::default()
    }
}

fn cycles_to_ms(cycles: u64) -> f64 {
    cycles as f64 / (serve_cpu().timing.frequency_ghz * 1e6)
}

/// The three query templates of the serving mix.
struct Mix {
    scan_table: Table,
    scan_plan: SelectionPlan,
    /// Descending-selectivity start: the worst static PEO.
    scan_worst: Vec<usize>,
    fact: Table,
    dim: Table,
    bg_table: Table,
    bg_plan: SelectionPlan,
}

impl Mix {
    fn new(scan_rows: usize, pipe_rows: usize, bg_rows: usize) -> Self {
        let (fact, dim) = fig14_mem_tables(pipe_rows, 0x5CA1E);
        Self {
            scan_table: uniform_table(scan_rows, 3, 0x5E21),
            // Well-separated selectivities: near-tied tail stages would
            // let one noisy early estimate flip a warm-seeded optimum
            // back and forth (accept, revert, explore), and the churn —
            // not convergence — would dominate the warm/cold comparison.
            scan_plan: uniform_plan(&[0.1, 0.45, 0.9]),
            scan_worst: vec![2, 1, 0],
            fact,
            dim,
            bg_table: uniform_table(bg_rows, 2, 0xB612),
            bg_plan: uniform_plan(&[0.9, 0.5]),
        }
    }

    /// The selection+join program over the Mem tables, built through
    /// the query frontend (plan order: selection 0, join 1 — served
    /// starting join-first, the worse order at full shuffle).
    fn program(&self) -> CompiledProgram<'_> {
        PlanBuilder::scan(&self.fact)
            .filter_costed(Expr::col("val").less_than(DOMAIN / 2), 50)
            .join(&self.dim, "fk", Expr::col("payload").less_than(DOMAIN / 2))
            .build()
            .optimize()
            .compile()
            .expect("plan lowers to a two-stage program")
    }

    fn scan_spec(&self, label: String, priority: Priority, arrival: u64) -> QuerySpec<'_> {
        QuerySpec::scan(
            label,
            &self.scan_table,
            self.scan_plan.clone(),
            self.scan_worst.clone(),
            priority,
            arrival,
        )
    }

    fn pipe_spec(&self, label: String, priority: Priority, arrival: u64) -> QuerySpec<'_> {
        let mut program = self.program();
        program.reorder(&[1, 0]).expect("join-first start order");
        QuerySpec::compiled(label, program, priority, arrival)
    }

    fn bg_spec(&self, label: String, arrival: u64) -> QuerySpec<'_> {
        QuerySpec::scan(
            label,
            &self.bg_table,
            self.bg_plan.clone(),
            vec![0, 1],
            Priority::Low,
            arrival,
        )
    }

    /// Solo single-core references: (scan, pipeline, background) as
    /// (qualified, sum).
    fn solo_refs(&self) -> [(u64, i64); 3] {
        let mut cpu = SimCpu::new(serve_cpu());
        let scan =
            CompiledProgram::from_selection(&self.scan_table, &self.scan_plan, &self.scan_worst)
                .expect("scan compiles")
                .run_range(&mut cpu, 0, self.scan_table.rows());
        let mut cpu = SimCpu::new(serve_cpu());
        let pipe = self.program().run_range(&mut cpu, 0, self.fact.rows());
        let mut cpu = SimCpu::new(serve_cpu());
        let bg = CompiledProgram::from_selection(&self.bg_table, &self.bg_plan, &[0, 1])
            .expect("bg scan compiles")
            .run_range(&mut cpu, 0, self.bg_table.rows());
        [
            (scan.qualified, scan.sum),
            (pipe.qualified, pipe.sum),
            (bg.qualified, bg.sum),
        ]
    }

    /// Assert every outcome matches its template's solo reference
    /// (labels are "<template>-<k>").
    fn assert_exact(&self, outcomes: &[QueryOutcome], refs: &[(u64, i64); 3]) -> bool {
        for q in outcomes {
            let (qualified, sum) = match q.label.split('-').next().expect("labelled template") {
                "scan" => refs[0],
                "pipe" => refs[1],
                "bg" => refs[2],
                other => panic!("unknown template label {other:?}"),
            };
            assert_eq!(
                q.qualified, qualified,
                "{}: served result diverged from solo execution",
                q.label
            );
            assert_eq!(q.sum, sum, "{}: served sum diverged", q.label);
        }
        true
    }
}

/// The closed-loop batch: 4 high-priority scans, 4 normal-priority
/// pipelines, 2 low-priority background scans, all queued at time 0.
fn closed_loop_batch<'t>(mix: &'t Mix) -> Vec<QuerySpec<'t>> {
    let mut batch = Vec::new();
    for k in 0..4 {
        batch.push(mix.scan_spec(format!("scan-{k}"), Priority::High, 0));
    }
    for k in 0..4 {
        batch.push(mix.pipe_spec(format!("pipe-{k}"), Priority::Normal, 0));
    }
    for k in 0..2 {
        batch.push(mix.bg_spec(format!("bg-{k}"), 0));
    }
    batch
}

fn make_pool(workers: usize, shared: bool) -> CpuPool {
    if shared {
        CpuPool::new_shared(serve_cpu(), workers)
    } else {
        CpuPool::new(serve_cpu(), workers)
    }
}

fn run_batch(batch: Vec<QuerySpec<'_>>, workers: usize, shared: bool) -> ServeReport {
    run_batch_with(batch, workers, shared, config())
}

fn run_batch_with(
    batch: Vec<QuerySpec<'_>>,
    workers: usize,
    shared: bool,
    config: ServeConfig,
) -> ServeReport {
    let mut server = QueryServer::new(config);
    for spec in batch {
        server.admit(spec);
    }
    let mut pool = make_pool(workers, shared);
    server.run(&mut pool).expect("serve batch runs")
}

/// `--trace-out`: one extra traced closed-loop batch (4 workers) whose
/// decision stream becomes the figure's Chrome-trace export — admission,
/// socket homing, cache lookups/records, morsel claims, reopt rounds and
/// trial verdicts, all stamped with simulated cycles. Tracing is
/// non-invasive, so the traced batch passes the same exact-results check
/// every untraced experiment passes.
fn trace_export(ctx: &FigureCtx, mix: &Mix, refs: &[(u64, i64); 3], shared: bool) {
    let Some(capture) = TraceCapture::from_ctx(ctx, 4) else {
        return;
    };
    let mut server = QueryServer::new(config());
    server.set_tracer(capture.tracer().clone());
    for spec in closed_loop_batch(mix) {
        server.admit(spec);
    }
    let mut pool = make_pool(4, shared);
    let report = server.run(&mut pool).expect("traced serve batch runs");
    mix.assert_exact(&report.queries, refs);
    let mut reg = MetricsRegistry::new();
    report.record_metrics(&mut reg);
    server.cache().record_metrics(&mut reg);
    note!(
        "# traced batch: queries={} warm_starts={} cache hits={} misses={} evictions={}",
        reg.counter("serve.queries"),
        reg.counter("serve.warm_starts"),
        reg.counter("cache.hits"),
        reg.counter("cache.misses"),
        reg.counter("cache.evictions"),
    );
    capture.write();
}

fn throughput_sweep(mix: &Mix, refs: &[(u64, i64); 3], shared: bool) -> (f64, f64) {
    header(&[
        "sweep",
        "workers",
        "queries",
        "wall_ms",
        "throughput_qps",
        "occupancy",
        "bit_identical",
    ]);
    let mut at_1w = 0.0f64;
    let mut at_4w = 0.0f64;
    for &workers in WORKER_COUNTS {
        let report = run_batch(closed_loop_batch(mix), workers, shared);
        let exact = mix.assert_exact(&report.queries, refs);
        let qps = report.throughput_qps();
        if workers == 1 {
            at_1w = qps;
            // Deterministic: one worker serializes every claim and fit.
            bench_metric("closed_loop.wall_ms_1w", report.wall_millis);
        }
        if workers == 4 {
            at_4w = qps;
            bench_metric_tol("closed_loop.qps_4w", qps, 0.35);
        }
        row(&[
            "closed-loop".to_string(),
            workers.to_string(),
            report.queries.len().to_string(),
            fmt(report.wall_millis),
            fmt(qps),
            fmt(report.occupancy),
            exact.to_string(),
        ]);
    }
    (at_1w, at_4w)
}

fn open_loop_latency(mix: &Mix, refs: &[(u64, i64); 3], n: usize) {
    // Self-calibrating load: measure the 4-worker closed-loop service
    // rate of the scan template, then space arrivals to ~80% of it.
    let probe = {
        let batch: Vec<_> = (0..n)
            .map(|k| mix.scan_spec(format!("scan-{k}"), Priority::Normal, 0))
            .collect();
        run_batch(batch, 4, false)
    };
    let mean_gap = (probe.wall_cycles / n as u64) * 8 / 10;

    let mut state = 0xA221u64 | 1;
    let mut arrival = 0u64;
    let priorities = [Priority::High, Priority::Normal, Priority::Low];
    let batch: Vec<_> = (0..n)
        .map(|k| {
            // Jittered gaps in [0.25, 1.75) × mean keep the queue
            // bursty without long dead air.
            let jitter = 25 + xorshift64(&mut state) % 150;
            arrival += mean_gap * jitter / 100;
            mix.scan_spec(format!("scan-{k}"), priorities[k % 3], arrival)
        })
        .collect();
    // Cache off: this experiment isolates the scheduler's priority
    // separation. With mid-run publication enabled, *which* of the
    // same-template arrivals warm up depends on the host-time race
    // between a mate's completion and this query's first claim on a
    // multi-worker pool — the percentiles below would not reproduce
    // run-to-run. (The warm-up path itself is pinned deterministically
    // by the 1-worker serving tests.)
    let report = run_batch_with(
        batch,
        4,
        false,
        ServeConfig {
            use_order_cache: false,
            ..config()
        },
    );
    mix.assert_exact(&report.queries, refs);

    header(&[
        "priority",
        "n",
        "latency_p50_ms",
        "latency_p95_ms",
        "latency_p99_ms",
        "queue_mean_ms",
    ]);
    let mut p99_by_class = Vec::new();
    for priority in [Priority::High, Priority::Normal, Priority::Low] {
        let class: Vec<_> = report
            .queries
            .iter()
            .filter(|q| q.priority == priority)
            .collect();
        let p50 = report
            .latency_percentile(Some(priority), 0.50)
            .expect("class is populated");
        let p95 = report
            .latency_percentile(Some(priority), 0.95)
            .expect("class is populated");
        let p99 = report
            .latency_percentile(Some(priority), 0.99)
            .expect("class is populated");
        p99_by_class.push(p99);
        let queue_mean =
            class.iter().map(|q| q.queue_cycles).sum::<u64>() as f64 / class.len() as f64;
        row(&[
            priority.label().to_string(),
            class.len().to_string(),
            fmt(cycles_to_ms(p50)),
            fmt(cycles_to_ms(p95)),
            fmt(cycles_to_ms(p99)),
            fmt(queue_mean / (serve_cpu().timing.frequency_ghz * 1e6)),
        ]);
        bench_metric_tol(
            &format!("open_loop.{}.p99_ms", priority.label()),
            cycles_to_ms(p99),
            0.35,
        );
    }
    // The tail, not just the median, must respect the stride weights: a
    // scheduler that separates p50s but lets low-priority bursts starve
    // the high class would pass a median-only check.
    assert!(
        p99_by_class[0] <= p99_by_class[1] && p99_by_class[1] <= p99_by_class[2],
        "p99 latency must order high <= normal <= low, got {:?} cycles",
        p99_by_class
    );
    note!(
        "# open loop at ~80% load, one template across classes: stride weights \
         (16/4/1) order the classes' delays high <= normal <= low — asserted \
         at p99, the tail the weights exist to protect"
    );
}

fn warm_vs_cold<'t>(mix: &'t Mix, refs: &[(u64, i64); 3], shared: bool) {
    // One instance per template: co-scheduling two *identical* queries
    // lets their lockstep morsels share streamed lines in each core's
    // physical cache, a windfall that would mask the convergence and
    // contention costs this experiment isolates.
    let batch = |server: &mut QueryServer<'t>| {
        server.admit(mix.scan_spec("scan-0".into(), Priority::Normal, 0));
        server.admit(mix.pipe_spec("pipe-0".into(), Priority::Normal, 0));
    };
    // A coarse reopt interval, for signal-to-noise: the cold run pays a
    // full interval of worst-order morsels before its first estimate can
    // fix the order (the convergence cost a warm start skips), while the
    // optimizer runs few enough rounds that the elastic multi-worker
    // round scheduling (rounds are skipped while a fit is in flight —
    // host-speed dependent by design) cannot swamp the comparison. At
    // the serving default cadence the convergence cost is only a few
    // morsels and the comparison drowns in optimizer-cycle jitter.
    let warmcold_config = || ServeConfig {
        reopt: Some(popt_core::progressive::ProgressiveConfig { reop_interval: 32 }),
        ..config()
    };
    let mut server = QueryServer::new(warmcold_config());
    batch(&mut server);
    let mut pool = make_pool(4, shared);
    let cold = server.run(&mut pool).expect("cold batch runs");
    mix.assert_exact(&cold.queries, refs);
    assert!(
        cold.queries.iter().all(|q| !q.warm_start),
        "first batch must be cold"
    );

    batch(&mut server);
    let mut pool = make_pool(4, shared);
    let warm = server.run(&mut pool).expect("warm batch runs");
    mix.assert_exact(&warm.queries, refs);
    assert!(
        warm.queries.iter().all(|q| q.warm_start),
        "second batch must hit the order cache"
    );

    header(&[
        "template",
        "cold_cost_ms",
        "warm_cost_ms",
        "best_ms",
        "cold_overhead_pct",
        "warm_overhead_pct",
        "warm_converged",
    ]);
    for template in ["scan", "pipe"] {
        // The optimal orders are known by construction: ascending
        // selectivity for the scan (0.1 < 0.45 < 0.9), selection before
        // the LLC-thrashing random join for the pipeline.
        let optimal: &[usize] = match template {
            "scan" => &[0, 1, 2],
            _ => &[0, 1],
        };
        let of = |report: &ServeReport| {
            let instances: Vec<_> = report
                .queries
                .iter()
                .filter(|q| q.label.starts_with(template))
                .collect();
            let cost =
                instances.iter().map(|q| q.cost_cycles()).sum::<u64>() / instances.len() as u64;
            (cost, instances[0].final_order.clone())
        };
        let (cold_cost, _cold_order) = of(&cold);
        let (warm_cost, warm_order) = of(&warm);
        // Best: solo single-core static execution under the optimal
        // order — the cost with zero convergence overhead.
        let best = match template {
            "scan" => {
                let mut cpu = SimCpu::new(serve_cpu());
                CompiledProgram::from_selection(&mix.scan_table, &mix.scan_plan, optimal)
                    .expect("optimal order compiles")
                    .run_range(&mut cpu, 0, mix.scan_table.rows())
                    .counters
                    .cycles
            }
            _ => {
                let mut program = mix.program();
                program.reorder(optimal).expect("optimal order");
                let mut cpu = SimCpu::new(serve_cpu());
                program
                    .run_range(&mut cpu, 0, mix.fact.rows())
                    .counters
                    .cycles
            }
        };
        let overhead = |cost: u64| (cost as f64 / best as f64 - 1.0) * 100.0;
        let (cold_pct, warm_pct) = (overhead(cold_cost), overhead(warm_cost));
        // Best is a solo single-core static run — fully deterministic;
        // the served costs are host-elastic under reoptimization.
        bench_metric(&format!("warmcold.{template}.best_ms"), cycles_to_ms(best));
        bench_metric_tol(
            &format!("warmcold.{template}.cold_ms"),
            cycles_to_ms(cold_cost),
            0.5,
        );
        bench_metric_tol(
            &format!("warmcold.{template}.warm_ms"),
            cycles_to_ms(warm_cost),
            0.5,
        );
        // "Converged" pins the dominant decision — the cheapest-per-
        // filtered-tuple stage at the front, where nearly all the cost
        // lives. Near-tied tail stages may settle in either order (the
        // same tie behaviour the scaling figure documents), so only the
        // two-stage pipeline admits an exact-permutation check.
        let converged = warm_order.first() == optimal.first();
        row(&[
            template.to_string(),
            fmt(cycles_to_ms(cold_cost)),
            fmt(cycles_to_ms(warm_cost)),
            fmt(cycles_to_ms(best)),
            fmt(cold_pct),
            fmt(warm_pct),
            converged.to_string(),
        ]);
        assert!(
            converged,
            "{template}: warm run must keep the converged front stage \
             (got {warm_order:?}, optimal {optimal:?})"
        );
        if template == "pipe" {
            assert_eq!(
                warm_order, optimal,
                "pipe: two stages leave no ties — the order must match exactly"
            );
        }
        assert!(
            warm_pct < cold_pct,
            "{template}: warm overhead {warm_pct:.2}% must beat cold {cold_pct:.2}%"
        );
        if shared {
            // One socket has no aggregate-capacity windfall: served work
            // can never beat the solo full-LLC reference, so the
            // overheads lose the negative sign the private model showed.
            assert!(
                warm_pct >= 0.0 && cold_pct >= 0.0,
                "{template}: shared-socket overhead must not go negative \
                 (warm {warm_pct:.2}%, cold {cold_pct:.2}%)"
            );
        }
    }
    if shared {
        note!(
            "# note: on the shared socket each core holds a slice of ONE LLC, so \
             the negative overheads the private model produced (N private LLCs \
             beating the solo reference) disappear — overhead is convergence cost \
             plus real capacity contention, both >= 0"
        );
    } else {
        note!(
            "# note: overhead is vs a solo single-core run under the optimal order; \
             served morsels run on 4 cores with private caches (4x the aggregate \
             LLC), so a probe-heavy template pays almost no capacity cost and can \
             even sit below the solo reference — --shared-llc closes that loophole"
        );
    }
}

/// Priority isolation under a probe-heavy co-runner, private vs shared
/// socket: a high-priority pipeline whose dimension fits its share runs
/// (a) alone and (b) against a low-priority pipeline whose dimension
/// overwhelms a share but coexists in the full socket. In private mode
/// the co-runner can only cost scheduler slots — the stride bound (the
/// deterministic 6.03% = 17/16 of the serving tests). On the shared
/// socket the slices shrink until the two hot sets no longer fit
/// together, and the physical eviction pushes the high-priority query's
/// latency past anything the scheduler alone could explain.
fn isolation(ctx: &FigureCtx) -> [f64; 2] {
    let rows = ctx.scale(1 << 17, 1 << 15);
    // 6 Ki tuples = 24 KiB: fits a 4-worker share of the 128 KiB socket.
    let (hp_fact, hp_dim) = mem_tables_with_dim(rows, 6 * 1024, 0xF00D);
    // 24 Ki tuples = 96 KiB: coexists with 24 KiB in the full socket
    // (120 KiB < 128 KiB), overwhelms a 32 KiB share.
    let (bg_fact, bg_dim) = mem_tables_with_dim(rows, 24 * 1024, 0xBEEF);
    fn pipe<'t>(fact: &'t Table, dim: &'t Table) -> CompiledProgram<'t> {
        PlanBuilder::scan(fact)
            .filter_costed(Expr::col("val").less_than(DOMAIN / 2), 50)
            .join(dim, "fk", Expr::col("payload").less_than(DOMAIN / 2))
            .build()
            .optimize()
            .compile()
            .expect("plan lowers")
    }

    header(&[
        "experiment",
        "llc_mode",
        "hp_solo_ms",
        "hp_corun_ms",
        "isolation_inflation_pct",
    ]);
    let mut inflation = [0.0f64; 2];
    for (m, shared) in [false, true].into_iter().enumerate() {
        let hp_spec =
            |label: &str| QuerySpec::compiled(label, pipe(&hp_fact, &hp_dim), Priority::High, 0);
        let solo = run_batch(vec![hp_spec("hp-solo")], 4, shared);
        let corun = run_batch(
            vec![
                hp_spec("hp-corun"),
                QuerySpec::compiled("bg-probe", pipe(&bg_fact, &bg_dim), Priority::Low, 0),
            ],
            4,
            shared,
        );
        let solo_hp = &solo.queries[0];
        let corun_hp = &corun.queries[0];
        assert_eq!(
            solo_hp.qualified, corun_hp.qualified,
            "co-running moved results"
        );
        assert_eq!(solo_hp.sum, corun_hp.sum, "co-running moved the aggregate");
        inflation[m] =
            (corun_hp.latency_cycles as f64 / solo_hp.latency_cycles as f64 - 1.0) * 100.0;
        row(&[
            "isolation".to_string(),
            if shared { "shared" } else { "private" }.to_string(),
            fmt(cycles_to_ms(solo_hp.latency_cycles)),
            fmt(cycles_to_ms(corun_hp.latency_cycles)),
            fmt(inflation[m]),
        ]);
    }
    inflation
}

/// The `--sockets N` variant: the closed-loop batch served on a NUMA
/// pool. Queries are homed on one socket each (greedy least-loaded by
/// footprint), so a query's morsels run only on its home socket's
/// workers and its LLC budget is a slice of that socket's partition —
/// the sweep shows throughput scaling surviving the split. The second
/// table reruns the batch on *shared*-LLC sockets with and without
/// dynamic repartitioning: with it on, a query completing hands its LLC
/// ways back to the co-runners still live on that socket.
fn run_numa(ctx: &FigureCtx) {
    let sockets = ctx.sockets;
    banner(
        ctx,
        "serve",
        "Multi-query serving across sockets: footprint placement and dynamic repartition",
    );
    let mix = Mix::new(
        ctx.scale(1 << 18, 1 << 16),
        ctx.scale(1 << 20, 1 << 18),
        ctx.scale(1 << 19, 1 << 17),
    );
    let refs = mix.solo_refs();

    header(&[
        "sweep",
        "workers",
        "sockets",
        "queries",
        "wall_ms",
        "throughput_qps",
        "occ_per_socket",
        "bit_identical",
    ]);
    let mut at_min = 0.0f64;
    let mut at_max = 0.0f64;
    let counts: Vec<usize> = WORKER_COUNTS
        .iter()
        .copied()
        .filter(|&w| w >= sockets)
        .collect();
    for &workers in &counts {
        let mut server = QueryServer::new(config());
        for spec in closed_loop_batch(&mix) {
            server.admit(spec);
        }
        let mut pool = CpuPool::with_topology(serve_cpu(), workers, LlcMode::Private, sockets);
        let report = server.run(&mut pool).expect("serve batch runs");
        let exact = mix.assert_exact(&report.queries, &refs);
        let qps = report.throughput_qps();
        if workers == counts[0] {
            at_min = qps;
        }
        if workers == *counts.last().expect("non-empty sweep") {
            at_max = qps;
        }
        let occ: Vec<String> = fleet_occupancy_per_socket(&report.per_worker_busy_cycles, sockets)
            .iter()
            .map(|&o| fmt(o))
            .collect();
        row(&[
            "closed-loop".to_string(),
            workers.to_string(),
            sockets.to_string(),
            report.queries.len().to_string(),
            fmt(report.wall_millis),
            fmt(qps),
            occ.join("|"),
            exact.to_string(),
        ]);
    }
    note!(
        "# serve ({sockets} sockets): throughput {} -> {} qps across the worker sweep",
        fmt(at_min),
        fmt(at_max),
    );
    assert!(
        at_max > at_min,
        "adding workers across sockets must still raise throughput \
         ({at_min:.2} -> {at_max:.2} qps)"
    );

    // Dynamic repartitioning on shared-LLC sockets. Per-query way
    // slicing models cross-query contention *within* a core's slice the
    // same way the pool models cross-core contention: by deterministic
    // footprint-proportional capacity shares. While a co-runner lives,
    // the foreground query runs on a fraction of the core's ways — the
    // pessimistic price of declared contention — and at the co-runner's
    // completion event (a point in the worker's own claim stream, so
    // per-core cycles stay host-schedule independent) the partition is
    // recomputed and the survivor reclaims the ways. The experiment
    // pins exactly that reclaim: the same probe-heavy foreground
    // pipeline served against a *short* co-runner and against a *long*
    // one, repartitioning on. The short co-runner drains early, hands
    // its ways back, and most of the foreground stream runs at full
    // capacity. Static orders, no reopt: the pair isolates the
    // partition events.
    let rows = ctx.scale(1 << 17, 1 << 15);
    let (fg_fact, fg_dim) = mem_tables_with_dim(rows, 10 * 1024, 0xF00D);
    let (bg_long_fact, bg_long_dim) = mem_tables_with_dim(rows, 24 * 1024, 0xBEEF);
    let (bg_short_fact, bg_short_dim) = mem_tables_with_dim(rows / 8, 24 * 1024, 0xBEEF);
    fn pipe<'t>(fact: &'t Table, dim: &'t Table) -> CompiledProgram<'t> {
        PlanBuilder::scan(fact)
            .filter_costed(Expr::col("val").less_than(DOMAIN / 2), 50)
            .join(dim, "fk", Expr::col("payload").less_than(DOMAIN / 2))
            .build()
            .optimize()
            .compile()
            .expect("plan lowers")
    }
    let solo = |fact: &Table, dim: &Table, n: usize| {
        let mut cpu = SimCpu::new(serve_cpu());
        let stats = pipe(fact, dim).run_range(&mut cpu, 0, n);
        (stats.qualified, stats.sum)
    };
    let fg_ref = solo(&fg_fact, &fg_dim, rows);
    let bg_refs = [
        solo(&bg_long_fact, &bg_long_dim, rows),
        solo(&bg_short_fact, &bg_short_dim, rows / 8),
    ];

    header(&[
        "experiment",
        "co_runner",
        "dynamic_repartition",
        "fg_exec_mcycles",
        "bit_identical",
    ]);
    // fg's exec cycles under: [long co-runner, short co-runner], each
    // with repartitioning off then on.
    let mut fg_exec = [[0u64; 2]; 2];
    for (c, (bg_label, bg_fact, bg_dim)) in [
        ("long", &bg_long_fact, &bg_long_dim),
        ("short", &bg_short_fact, &bg_short_dim),
    ]
    .into_iter()
    .enumerate()
    {
        for (i, dynamic) in [false, true].into_iter().enumerate() {
            let mut server = QueryServer::new(ServeConfig {
                dynamic_repartition: dynamic,
                reopt: None,
                ..config()
            });
            // One (bg, fg) pair per socket: equal footprints within each
            // class and class-by-class admission home bg-k and fg-k on
            // socket k.
            for s in 0..sockets {
                server.admit(QuerySpec::compiled(
                    format!("bg-{s}"),
                    pipe(bg_fact, bg_dim),
                    Priority::Normal,
                    0,
                ));
            }
            for s in 0..sockets {
                server.admit(QuerySpec::compiled(
                    format!("fg-{s}"),
                    pipe(&fg_fact, &fg_dim),
                    Priority::Normal,
                    0,
                ));
            }
            let mut pool =
                CpuPool::with_topology(serve_cpu(), 2 * sockets, LlcMode::Shared, sockets);
            let report = server.run(&mut pool).expect("serve batch runs");
            let mut exact = true;
            for q in &report.queries {
                let (qualified, sum) = if q.label.starts_with("fg") {
                    fg_ref
                } else {
                    bg_refs[c]
                };
                exact &= q.qualified == qualified && q.sum == sum;
            }
            fg_exec[c][i] = report
                .queries
                .iter()
                .filter(|q| q.label.starts_with("fg"))
                .map(|q| q.exec_cycles)
                .sum::<u64>();
            row(&[
                "repartition".to_string(),
                bg_label.to_string(),
                dynamic.to_string(),
                fmt(fg_exec[c][i] as f64 / 1e6),
                exact.to_string(),
            ]);
            assert!(
                exact,
                "per-query way partitioning moves cycles, never results"
            );
        }
    }
    let reclaim = (fg_exec[0][1] as f64 / fg_exec[1][1] as f64 - 1.0) * 100.0;
    note!(
        "# repartition: with per-query way slicing on, a short co-runner's \
         completion hands its ways back early — the foreground pipeline runs {}% \
         cheaper than against a long co-runner that holds its slice to the end",
        fmt(reclaim),
    );
    assert!(
        fg_exec[1][1] < fg_exec[0][1],
        "the completion-event reclaim must show: fg exec vs short co-runner {} \
         >= vs long co-runner {}",
        fg_exec[1][1],
        fg_exec[0][1]
    );
    for c in [0, 1] {
        assert!(
            fg_exec[c][1] >= fg_exec[c][0],
            "declared contention is pessimistic by design: slicing a core's ways \
             per query must not make the foreground cheaper than unpartitioned \
             sharing ({} < {})",
            fg_exec[c][1],
            fg_exec[c][0]
        );
    }

    note!(
        "# expectation: footprint placement keeps every query on one socket (its \
         budget a slice of that socket's partition), throughput keeps scaling as \
         workers spread over sockets, and per-query way slicing — recomputed \
         at deterministic completion events — prices declared contention while \
         co-runners live and hands a finished query's ways back to the \
         survivors — results bit-identical to solo execution throughout"
    );
    trace_export(ctx, &mix, &refs, false);
}

/// The `--shared-llc` variant: the serving experiments on one socket,
/// where capacity contention erodes the scheduler's isolation bound and
/// removes the private model's negative warm overheads.
fn run_shared(ctx: &FigureCtx) {
    banner(
        ctx,
        "serve",
        "Multi-query serving on a shared-LLC socket: contention vs isolation",
    );
    let mix = Mix::new(
        ctx.scale(1 << 18, 1 << 16),
        ctx.scale(1 << 20, 1 << 18),
        ctx.scale(1 << 19, 1 << 17),
    );
    let refs = mix.solo_refs();

    let (at_1w, at_4w) = throughput_sweep(&mix, &refs, true);
    note!(
        "# serve (shared socket): 4-worker throughput {} qps vs 1-worker {} qps \
         ({:.2}x; contention makes this sub-linear where the private model scaled \
         near-linearly)",
        fmt(at_4w),
        fmt(at_1w),
        at_4w / at_1w
    );
    assert!(
        at_4w >= 1.5 * at_1w,
        "even a contended socket must scale somewhat: {at_4w:.2} < 1.5x {at_1w:.2}"
    );

    let inflation = isolation(ctx);
    note!(
        "# isolation: probe-heavy low-priority co-runner inflates high-priority \
         latency {}% on the shared socket vs {}% private — the stride bound \
         (6.03%) only survives while the LLC is not a shared resource",
        fmt(inflation[1]),
        fmt(inflation[0]),
    );
    assert!(
        inflation[1] > 6.03,
        "shared-socket inflation {:.2}% must exceed the private-mode stride \
         bound of 6.03%",
        inflation[1]
    );
    assert!(
        inflation[1] > inflation[0],
        "contention must cost beyond scheduling: shared {:.2}% <= private {:.2}%",
        inflation[1],
        inflation[0]
    );

    warm_vs_cold(&mix, &refs, true);
    note!(
        "# expectation: one socket's capacity is a shared resource — throughput \
         scales sub-linearly for LLC-hungry templates, a probe-heavy co-runner \
         breaks the scheduler's isolation bound by evicting the foreground \
         query's hot set, warm overheads stay non-negative, and every query's \
         result remains bit-identical to solo execution"
    );
    trace_export(ctx, &mix, &refs, true);
}

/// Run the figure.
pub fn run(ctx: &FigureCtx) {
    if ctx.sockets > 1 {
        run_numa(ctx);
        return;
    }
    if ctx.shared_llc {
        run_shared(ctx);
        return;
    }
    banner(
        ctx,
        "serve",
        "Multi-query serving: admission, priority scheduling, cross-query order reuse",
    );
    let mix = Mix::new(
        ctx.scale(1 << 18, 1 << 16),
        ctx.scale(1 << 20, 1 << 18),
        ctx.scale(1 << 19, 1 << 17),
    );
    let refs = mix.solo_refs();

    let (at_1w, at_4w) = throughput_sweep(&mix, &refs, false);
    assert!(
        at_4w >= 2.0 * at_1w,
        "4-worker throughput {at_4w:.2} qps < 2x 1-worker {at_1w:.2} qps"
    );
    note!(
        "# serve: 4-worker throughput {} qps vs 1-worker {} qps (>= 2x 1-worker: {})",
        fmt(at_4w),
        fmt(at_1w),
        at_4w >= 2.0 * at_1w
    );

    open_loop_latency(&mix, &refs, ctx.scale(30, 12));
    warm_vs_cold(&mix, &refs, false);

    note!(
        "# expectation: throughput scales with workers (stride scheduling keeps \
         every class served, morsel claims stay barrier-free), per-priority \
         latency separates by weight under load, warm templates start at the \
         converged order/calibration and skip the convergence overhead cold \
         starts pay — with every query's result bit-identical to solo execution"
    );
    trace_export(ctx, &mix, &refs, false);
}
