//! Observability figure (beyond the paper): the structured decision
//! trace of the progressive engine, and the proof that collecting it is
//! non-invasive.
//!
//! Three parts:
//!
//! * **bit-identity** — the Figure-14-style "Mem" workload (selection +
//!   LLC-thrashing random FK probe, started join-first so the loop has
//!   work to do) runs twice, on one worker and on a pool, with
//!   reoptimization on: once untraced, once with the full event stream
//!   captured. Each pair's `ParallelReport`s must compare equal
//!   field-for-field — cycles, switches, orders, counters — because
//!   every stamp reads simulated clocks the engine already maintains and
//!   the sink hangs outside the costed path.
//! * **event census** — what the traced multi-worker run actually
//!   emitted, by kind: morsel claims, reopt rounds with their fitted
//!   selectivities, trial leases/accepts/reverts, epoch publications.
//!   The morsel-claim count must equal the report's morsel count — the
//!   trace is complete, not sampled.
//! * **serving decisions** — two one-query batches of the same template
//!   through [`QueryServer`]: admission, socket homing, the cold-miss
//!   then warm-hit pair of cache lookups, and the completion records,
//!   rendered through the human-readable decision log.
//!
//! With `--trace-out PATH` everything captured is exported as one
//! Chrome-trace-event JSON (load it in Perfetto: morsels are duration
//! slices per worker lane, decisions are instants).

use std::collections::BTreeMap;
use std::sync::Arc;

use popt_core::observe::ExecObservers;
use popt_core::parallel::{run_parallel_program_observed, MorselConfig};
use popt_core::plan::{Expr, PlanBuilder};
use popt_core::progressive::ProgressiveConfig;
use popt_core::serve::{Priority, QueryServer, QuerySpec, ServeConfig};
use popt_cpu::CpuPool;
use popt_obs::{decision_log, validate_json, MemorySink, TraceRecord, Tracer};

use crate::common::{fmt, Figure, FigureCtx};
use crate::figures::fig15::scaled_cpu;
use crate::figures::workload::{fig14_mem_tables, DOMAIN};

/// Workers of the multi-worker census run.
const WORKERS: usize = 4;

fn count_kinds(records: &[TraceRecord]) -> BTreeMap<&'static str, usize> {
    let mut kinds = BTreeMap::new();
    for r in records {
        *kinds.entry(r.event.kind()).or_insert(0) += 1;
    }
    kinds
}

/// Run the figure.
pub fn run(ctx: &FigureCtx) -> Figure {
    let rows = ctx.scale(1 << 19, 1 << 17);
    let config = ProgressiveConfig { reop_interval: 4 };
    let morsels = MorselConfig::cache_friendly(&scaled_cpu(), 12);
    let mut fig = Figure::new(
        ctx,
        "trace",
        "Non-invasive decision trace: bit-identity, event census, explain log",
    );
    for (key, value) in [
        ("workers", WORKERS),
        ("morsel_tuples", morsels.morsel_tuples),
        ("reop_interval", config.reop_interval),
    ] {
        fig.config.push((key.into(), value.to_string()));
    }
    let (fact, dim) = fig14_mem_tables(rows, 0x5CA1E);
    let build = || {
        PlanBuilder::scan(&fact)
            .filter_costed(Expr::col("val").less_than(DOMAIN / 2), 50)
            .join(&dim, "fk", Expr::col("payload").less_than(DOMAIN / 2))
            .build()
            .optimize()
            .compile()
            .expect("plan lowers to a two-stage program")
    };

    // --- Part 1: tracing on/off bit-identity. ---
    fig.header(&[
        "pair",
        "workers",
        "reopt",
        "wall_cycles_equal",
        "bit_identical",
    ]);
    let run_pair = |workers: usize, query: usize| {
        let mut plain_program = build();
        let mut plain_pool = CpuPool::new(scaled_cpu(), workers);
        let plain = run_parallel_program_observed(
            &mut plain_program,
            &[1, 0],
            morsels,
            &mut plain_pool,
            Some(&config),
            &ExecObservers::none(),
        )
        .expect("untraced run");
        let sink = Arc::new(MemorySink::new());
        let tracer = Arc::new(Tracer::for_workers(sink.clone(), workers));
        let mut traced_program = build();
        let mut traced_pool = CpuPool::new(scaled_cpu(), workers);
        let traced = run_parallel_program_observed(
            &mut traced_program,
            &[1, 0],
            morsels,
            &mut traced_pool,
            Some(&config),
            &ExecObservers::none().with_trace(Arc::clone(&tracer), query),
        )
        .expect("traced run");
        (plain, traced, sink.take())
    };

    let (plain_1w, traced_1w, records_1w) = run_pair(1, 0);
    fig.row(&[
        "solo".to_string(),
        "1".to_string(),
        "on".to_string(),
        (plain_1w.wall_cycles == traced_1w.wall_cycles).to_string(),
        (plain_1w == traced_1w).to_string(),
    ]);
    assert!(
        plain_1w == traced_1w,
        "1-worker traced report must equal the untraced report field-for-field",
    );
    assert!(
        !records_1w.is_empty(),
        "the traced run must actually emit events",
    );

    let (plain_nw, traced_nw, records_nw) = run_pair(WORKERS, 1);
    fig.row(&[
        "pool".to_string(),
        WORKERS.to_string(),
        "on".to_string(),
        (plain_nw.wall_cycles == traced_nw.wall_cycles).to_string(),
        (plain_nw == traced_nw).to_string(),
    ]);
    assert!(
        plain_nw == traced_nw,
        "multi-worker traced report must equal the untraced report field-for-field",
    );

    // --- Part 2: event census of the traced multi-worker run. ---
    let kinds = count_kinds(&records_nw);
    fig.header(&["event_kind", "count"]);
    for (kind, count) in &kinds {
        fig.row(&[kind.to_string(), count.to_string()]);
    }
    let morsel_events = kinds.get("morsel").copied().unwrap_or(0);
    assert!(
        morsel_events == traced_nw.morsels,
        "one claim event per executed morsel (the trace is complete, not sampled)",
    );
    assert!(
        kinds.get("complete").copied().unwrap_or(0) == 1,
        "exactly one completion event per run",
    );
    assert!(
        kinds.get("llc_repartition").copied().unwrap_or(0) >= 1,
        "the batch-boundary LLC declaration must be traced",
    );
    assert!(
        kinds.get("reopt_round").copied().unwrap_or(0) >= 1,
        "reoptimization rounds must be traced",
    );

    let occupancy = if traced_nw.wall_cycles == 0 {
        0.0
    } else {
        traced_nw.total_cycles as f64 / (traced_nw.wall_cycles as f64 * traced_nw.workers as f64)
    };
    fig.note(format!(
        "# metrics: runs=1 morsels={} switches={} estimates={} occupancy={}",
        traced_nw.morsels,
        traced_nw.switches.len(),
        traced_nw.estimates,
        fmt(occupancy),
    ));

    // --- Part 3: serving decisions through the explain log. ---
    let serve_cpu = scaled_cpu();
    let serve_rows = rows.min(1 << 17);
    let (sfact, sdim) = fig14_mem_tables(serve_rows, 0x0B5);
    let serve_build = || {
        PlanBuilder::scan(&sfact)
            .filter_costed(Expr::col("val").less_than(DOMAIN / 2), 50)
            .join(&sdim, "fk", Expr::col("payload").less_than(DOMAIN / 2))
            .build()
            .optimize()
            .compile()
            .expect("plan lowers to a two-stage program")
    };
    let sink = Arc::new(MemorySink::new());
    let tracer = Arc::new(Tracer::for_workers(sink.clone(), WORKERS));
    let mut server = QueryServer::new(ServeConfig::default());
    server.set_tracer(tracer.clone());
    server.admit(QuerySpec::compiled(
        "mem-cold",
        serve_build(),
        Priority::High,
        0,
    ));
    let mut pool = CpuPool::new(serve_cpu.clone(), WORKERS);
    let cold = server.run(&mut pool).expect("cold serve batch");
    assert!(
        !cold.queries[0].warm_start,
        "the first instance of a template must start cold",
    );
    // Second batch of the same template on the same server: the
    // admission-time cache consultation warm-starts it from the
    // converged order the cold run published.
    server.admit(QuerySpec::compiled(
        "mem-warm",
        serve_build(),
        Priority::Normal,
        0,
    ));
    let mut pool = CpuPool::new(serve_cpu, WORKERS);
    let report = server.run(&mut pool).expect("warm serve batch");
    let serve_records = sink.take();
    let serve_kinds = count_kinds(&serve_records);
    assert!(
        serve_kinds.get("admit").copied().unwrap_or(0) == 2,
        "both admissions must be traced",
    );
    assert!(
        serve_kinds.get("cache_record").copied().unwrap_or(0) == 2,
        "both completions must publish to the cache",
    );
    assert!(
        report.queries[0].warm_start,
        "the second batch must warm-start from the first instance's template",
    );
    // Counts sum over both batches; occupancy is the warm batch's.
    let batches = [&cold, &report];
    let stats = server.cache().stats();
    fig.note(format!(
        "# serve metrics: queries={} warm_starts={} cache hits={} misses={} occupancy={}",
        batches.iter().map(|b| b.queries.len()).sum::<usize>(),
        batches
            .iter()
            .flat_map(|b| &b.queries)
            .filter(|q| q.warm_start)
            .count(),
        stats.hits,
        stats.misses,
        fmt(report.occupancy),
    ));

    // The human-readable decision log: every non-morsel event, ordered
    // by (query, cycles, lane, ordinal). Print the serving batch's head.
    let log = decision_log(&serve_records);
    fig.note("# explain (first decisions of the serving batch):");
    for line in log.lines().take(10) {
        fig.note(format!("#   {line}"));
    }

    // --- Export. ---
    let mut all = records_1w;
    all.extend(records_nw);
    all.extend(serve_records);
    let json = popt_obs::chrome_trace(&all);
    validate_json(&json).expect("chrome trace export is valid JSON");
    match &ctx.trace_out {
        Some(path) => {
            std::fs::write(path, &json).expect("trace output path is writable");
            fig.note(format!(
                "# trace: {} events -> {} ({} bytes)",
                all.len(),
                path,
                json.len()
            ));
        }
        None => fig.note(format!(
            "# chrome trace: {} events, {} bytes (pass --trace-out PATH to write it)",
            all.len(),
            json.len()
        )),
    }

    fig.note(
        "# expectation: tracing changes nothing the simulator measures — the \
         1-worker traced/untraced reports are equal field-for-field, the pool \
         run's results and orders match bit-for-bit, and every executed morsel \
         appears exactly once in the event stream with its (worker, simulated \
         cycle) stamp",
    );
    fig
}
