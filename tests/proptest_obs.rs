//! Property: observation is *non-invasive* — attaching a tracer or the
//! per-stage cycle profiler to a parallel run changes nothing the
//! simulator measures, and what the profiler attributes is conserved
//! bit-exactly.
//!
//! For random mixed programs, across sockets × workers × LLC mode ×
//! reopt on/off:
//!
//! * results are always identical between the traced and untraced run
//!   of the same configuration;
//! * whenever the untraced run itself is cycle-deterministic — reopt
//!   off (any worker count), or reopt on with one worker — the whole
//!   [`ParallelReport`] matches bit-for-bit: accepted orders,
//!   per-worker cycles and counters included. (With trials on a
//!   multi-worker pool, *which* rounds run is host-interleaving-elastic
//!   by design — two untraced runs may already publish different
//!   near-optimal orders — so full-report equality is exactly as strong
//!   a claim as repeated untraced runs support, the same contract
//!   `proptest_numa` pins for the NUMA layer.)
//! * the trace itself is complete: one `morsel` claim event per morsel
//!   the report counts, exactly one `complete` event, every stamp's
//!   lane within the tracer's lane count, and the Chrome-trace export
//!   of the captured records parses;
//! * the profiler obeys its conservation law: per worker, stage +
//!   optimizer lanes equal that worker's reported cycles, adding idle
//!   reaches the pool wall clock, and the attributed total equals
//!   `wall × workers` — all bit-exact, on every configuration.
//!
//! Case count is the vendored proptest default (256), pinnable via the
//! upstream-compatible `PROPTEST_CASES` environment variable.

use std::sync::Arc;

use proptest::prelude::*;

use popt::core::parallel::{
    run_parallel_program, run_parallel_program_observed, MorselConfig, ParallelReport,
};
use popt::core::progressive::ProgressiveConfig;
use popt::core::ExecObservers;
use popt::cpu::{CpuConfig, CpuPool, LlcMode};
use popt::obs::{chrome_trace, validate_json, MemorySink, Profiler, TraceRecord, Tracer};
use popt::storage::Table;

mod common;
use common::{build, tables};

struct Run {
    report: ParallelReport,
    records: Vec<TraceRecord>,
    lanes: usize,
}

/// One (sockets, mode, workers, reopt) configuration, traced or not.
#[allow(clippy::too_many_arguments)]
fn run_config(
    fact: &Table,
    dim: &Table,
    stages: usize,
    kinds: u64,
    lit: i64,
    sockets: usize,
    mode: LlcMode,
    workers: usize,
    morsel_tuples: usize,
    reopt: Option<&ProgressiveConfig>,
    traced: bool,
) -> Run {
    let order: Vec<usize> = (0..stages).collect();
    let mut program = build(fact, dim, stages, kinds, lit);
    let mut pool = CpuPool::with_topology(CpuConfig::tiny_test(), workers, mode, sockets);
    if traced {
        let sink = Arc::new(MemorySink::new());
        let tracer = Arc::new(Tracer::for_workers(sink.clone(), workers));
        let report = run_parallel_program_observed(
            &mut program,
            &order,
            MorselConfig::new(morsel_tuples),
            &mut pool,
            reopt,
            &ExecObservers::none().with_trace(Arc::clone(&tracer), 7),
        )
        .expect("traced run succeeds");
        Run {
            report,
            records: sink.take(),
            lanes: tracer.lanes(),
        }
    } else {
        let report = run_parallel_program(
            &mut program,
            &order,
            MorselConfig::new(morsel_tuples),
            &mut pool,
            reopt,
        )
        .expect("untraced run succeeds");
        Run {
            report,
            records: Vec::new(),
            lanes: 0,
        }
    }
}

proptest! {
    /// The tracer never moves anything the simulator measures, and what
    /// it captures is complete and well-formed.
    #[test]
    fn tracing_is_non_invasive(
        stages in 2usize..4,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
        workers in 1usize..9,
        morsel_tuples in 128usize..1500,
    ) {
        let (fact, dim) = tables(seed);
        let config = ProgressiveConfig { reop_interval: 2 };
        for sockets in [1usize, 2] {
            if sockets > workers {
                continue;
            }
            for mode in [LlcMode::Private, LlcMode::Shared] {
                for progressive in [false, true] {
                    let reopt = progressive.then_some(&config);
                    let plain = run_config(
                        &fact, &dim, stages, kinds, lit,
                        sockets, mode, workers, morsel_tuples, reopt, false,
                    );
                    let traced = run_config(
                        &fact, &dim, stages, kinds, lit,
                        sockets, mode, workers, morsel_tuples, reopt, true,
                    );

                    // Results: identical always.
                    prop_assert_eq!(
                        traced.report.qualified, plain.report.qualified,
                        "sockets={} mode={:?} workers={} progressive={}",
                        sockets, mode, workers, progressive
                    );
                    prop_assert_eq!(traced.report.sum, plain.report.sum);
                    prop_assert_eq!(
                        traced.report.socket_orders.len(),
                        plain.report.socket_orders.len()
                    );

                    // Full-report bit-identity — accepted orders,
                    // per-worker cycles, counters — wherever the
                    // untraced run itself is cycle-deterministic. (With
                    // reopt on a multi-worker pool, *which* rounds run
                    // is host-interleaving-elastic by design, so two
                    // untraced runs may already publish different
                    // near-optimal orders; tracing can only be held to
                    // the determinism the engine itself provides.)
                    if !progressive || workers == 1 {
                        prop_assert_eq!(
                            &traced.report.final_order,
                            &plain.report.final_order
                        );
                        prop_assert_eq!(
                            &traced.report.socket_orders,
                            &plain.report.socket_orders
                        );
                        prop_assert_eq!(
                            &traced.report, &plain.report,
                            "sockets={} mode={:?} workers={} progressive={}",
                            sockets, mode, workers, progressive
                        );
                    }

                    // Trace completeness: one claim event per morsel,
                    // exactly one completion, every lane in range, all
                    // tagged with the query id we passed.
                    let morsel_events = traced
                        .records
                        .iter()
                        .filter(|r| r.event.kind() == "morsel")
                        .count();
                    prop_assert_eq!(morsel_events, traced.report.morsels);
                    let completions = traced
                        .records
                        .iter()
                        .filter(|r| r.event.kind() == "complete")
                        .count();
                    prop_assert_eq!(completions, 1);
                    prop_assert!(traced
                        .records
                        .iter()
                        .all(|r| r.stamp.lane < traced.lanes && r.query == 7));

                    // The Chrome-trace export of exactly these records
                    // must parse.
                    let json = chrome_trace(&traced.records);
                    prop_assert!(validate_json(&json).is_ok());
                }
            }
        }
    }

    /// A disabled tracer (the default, hot-path-off configuration)
    /// behaves exactly like no tracer: nothing is recorded, and the
    /// report still matches the untraced run bit-for-bit when the run
    /// is cycle-deterministic.
    #[test]
    fn disabled_tracer_records_nothing(
        stages in 2usize..4,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
        workers in 1usize..5,
        morsel_tuples in 128usize..1500,
    ) {
        let (fact, dim) = tables(seed);
        let order: Vec<usize> = (0..stages).collect();

        let mut plain_program = build(&fact, &dim, stages, kinds, lit);
        let mut plain_pool = CpuPool::new(CpuConfig::tiny_test(), workers);
        let plain = run_parallel_program(
            &mut plain_program,
            &order,
            MorselConfig::new(morsel_tuples),
            &mut plain_pool,
            None,
        )
        .expect("untraced run succeeds");

        let tracer = Arc::new(Tracer::disabled());
        let mut traced_program = build(&fact, &dim, stages, kinds, lit);
        let mut traced_pool = CpuPool::new(CpuConfig::tiny_test(), workers);
        let traced = run_parallel_program_observed(
            &mut traced_program,
            &order,
            MorselConfig::new(morsel_tuples),
            &mut traced_pool,
            None,
            &ExecObservers::none().with_trace(Arc::clone(&tracer), 0),
        )
        .expect("disabled-tracer run succeeds");

        prop_assert_eq!(&traced, &plain);
        prop_assert!(!tracer.enabled());
    }

    /// The per-stage cycle profiler is non-invasive and conservative:
    /// attaching it never moves a result, full-report bit-identity holds
    /// exactly where the engine itself is cycle-deterministic, and every
    /// attributed cycle is accounted for bit-exactly — per worker,
    /// stage + optimizer lanes equal the reported cycles, adding idle
    /// reaches the pool wall clock, and the pool-wide attributed total
    /// is `wall × workers`.
    #[test]
    fn profiler_conserves_and_is_non_invasive(
        stages in 2usize..4,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
        workers in 1usize..9,
        morsel_tuples in 128usize..1500,
    ) {
        let (fact, dim) = tables(seed);
        let config = ProgressiveConfig { reop_interval: 2 };
        let order: Vec<usize> = (0..stages).collect();
        for sockets in [1usize, 2] {
            if sockets > workers {
                continue;
            }
            for mode in [LlcMode::Private, LlcMode::Shared] {
                for progressive in [false, true] {
                    let reopt = progressive.then_some(&config);
                    let plain = run_config(
                        &fact, &dim, stages, kinds, lit,
                        sockets, mode, workers, morsel_tuples, reopt, false,
                    );

                    let profiler = Arc::new(Profiler::new(workers));
                    let obs = ExecObservers::none().with_profiler(Arc::clone(&profiler));
                    let mut program = build(&fact, &dim, stages, kinds, lit);
                    let mut pool =
                        CpuPool::with_topology(CpuConfig::tiny_test(), workers, mode, sockets);
                    let report = run_parallel_program_observed(
                        &mut program,
                        &order,
                        MorselConfig::new(morsel_tuples),
                        &mut pool,
                        reopt,
                        &obs,
                    )
                    .expect("profiled run succeeds");

                    // Results: identical always.
                    prop_assert_eq!(
                        report.qualified, plain.report.qualified,
                        "sockets={} mode={:?} workers={} progressive={}",
                        sockets, mode, workers, progressive
                    );
                    prop_assert_eq!(report.sum, plain.report.sum);

                    // Full-report bit-identity wherever the engine itself
                    // is cycle-deterministic (same contract as tracing).
                    if !progressive || workers == 1 {
                        prop_assert_eq!(
                            &report, &plain.report,
                            "sockets={} mode={:?} workers={} progressive={}",
                            sockets, mode, workers, progressive
                        );
                    }

                    // Conservation, bit-exact against this run's report.
                    prop_assert!(profiler.finished());
                    prop_assert!(
                        profiler.conserves(),
                        "sockets={} mode={:?} workers={} progressive={}",
                        sockets, mode, workers, progressive
                    );
                    prop_assert_eq!(profiler.wall_cycles(), report.wall_cycles);
                    for w in 0..workers {
                        let (stage, opt, idle) = profiler.worker_lanes(w);
                        prop_assert_eq!(stage + opt, report.per_worker_cycles[w]);
                        prop_assert_eq!(stage + opt + idle, report.wall_cycles);
                    }
                    prop_assert_eq!(
                        profiler.total_attributed(),
                        report.wall_cycles * workers as u64
                    );

                    // Attribution lands only on stages the program has,
                    // and the stage totals plus every optimizer lane
                    // re-add to the pool's busy cycles.
                    let totals = profiler.stage_totals();
                    prop_assert!(totals.keys().all(|&s| s < stages));
                    let opt_total: u64 =
                        (0..workers).map(|w| profiler.worker_lanes(w).1).sum();
                    prop_assert_eq!(
                        totals.values().sum::<u64>() + opt_total,
                        report.per_worker_cycles.iter().sum::<u64>()
                    );

                    // The profiler's own Chrome-trace export must parse.
                    prop_assert!(validate_json(&profiler.chrome_trace()).is_ok());
                }
            }
        }
    }
}
