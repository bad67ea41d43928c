//! Integration tests for the multi-query serving layer: scheduler
//! fairness and isolation, result exactness under interleaving, warm
//! order-cache reuse, and admission/idle accounting.

use std::sync::Arc;

use popt::core::exec::program::CompiledProgram;
use popt::core::plan::{Expr, PlanBuilder, SelectionPlan};
use popt::core::predicate::{CompareOp, Predicate};
use popt::core::progressive::ProgressiveConfig;
use popt::core::serve::{Priority, QueryServer, QuerySpec, ServeConfig};
use popt::core::{EngineError, MorselConfig};
use popt::cpu::{CpuConfig, CpuPool, LlcMode, SimCpu};
use popt::obs::DriftObservatory;
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::xorshift64;

const ROWS: usize = 1 << 15;

/// Fact with three value columns and a random FK into a payload
/// dimension; uniform over 0..1000 so literals address selectivity.
fn tables(seed: u64) -> (Table, Table) {
    let dim_n = ROWS / 4;
    let mut state = seed | 1;
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    for c in 0..3 {
        let data: Vec<i32> = (0..ROWS)
            .map(|_| (xorshift64(&mut state) % 1000) as i32)
            .collect();
        fact.add_column(format!("val{c}"), ColumnData::I32(data), &mut space);
    }
    fact.add_column(
        "fk",
        ColumnData::I32(
            (0..ROWS)
                .map(|_| (xorshift64(&mut state) % dim_n as u64) as i32)
                .collect(),
        ),
        &mut space,
    );
    let mut dim_space = AddressSpace::new();
    let mut dim = Table::new("dim");
    dim.add_column(
        "payload",
        ColumnData::I32(
            (0..dim_n)
                .map(|_| (xorshift64(&mut state) % 1000) as i32)
                .collect(),
        ),
        &mut dim_space,
    );
    (fact, dim)
}

fn scan_plan(lits: [i64; 3]) -> SelectionPlan {
    SelectionPlan::new(
        vec![
            Predicate::new("val0", CompareOp::Lt, lits[0]),
            Predicate::new("val1", CompareOp::Lt, lits[1]),
            Predicate::new("val2", CompareOp::Lt, lits[2]),
        ],
        vec!["val0".into()],
    )
    .unwrap()
}

/// `val0 < lit` (30 extra instructions) then a join probing
/// `payload < lit`, summing `val1`; plan order is construction order.
fn program<'t>(fact: &'t Table, dim: &'t Table, lit: i64) -> CompiledProgram<'t> {
    PlanBuilder::scan(fact)
        .filter_costed(Expr::col("val0").less_than(lit), 30)
        .join(dim, "fk", Expr::col("payload").less_than(lit))
        .aggregate("val1")
        .build()
        .compile()
        .unwrap()
}

/// A compiled-program query submitted in `order` (the order a cache miss
/// starts from).
fn program_spec<'t>(
    label: &str,
    mut program: CompiledProgram<'t>,
    order: &[usize],
    priority: Priority,
    arrival_cycles: u64,
) -> QuerySpec<'t> {
    program.reorder(order).unwrap();
    QuerySpec::compiled(label, program, priority, arrival_cycles)
}

fn config(reopt: bool) -> ServeConfig {
    ServeConfig {
        morsels: MorselConfig::new(1024),
        reopt: reopt.then_some(ProgressiveConfig { reop_interval: 3 }),
        use_order_cache: true,
        dynamic_repartition: false,
    }
}

/// A mixed batch of scans and programs with staggered arrivals and
/// mixed priorities stays bit-identical to solo single-core execution
/// at every worker count, with and without reoptimization.
#[test]
fn mixed_batch_matches_solo_execution() {
    let (fact, dim) = tables(0xA11CE);
    let plan = scan_plan([200, 500, 800]);

    let mut cpu = SimCpu::new(CpuConfig::tiny_test());
    let scan_ref = CompiledProgram::from_selection(&fact, &plan, &[2, 1, 0])
        .unwrap()
        .run_range(&mut cpu, 0, ROWS);
    let mut cpu = SimCpu::new(CpuConfig::tiny_test());
    let pipe_ref = program(&fact, &dim, 500).run_range(&mut cpu, 0, ROWS);

    for reopt in [false, true] {
        for workers in [1usize, 2, 4] {
            let mut server = QueryServer::new(config(reopt));
            server.admit(QuerySpec::scan(
                "scan-hi",
                &fact,
                plan.clone(),
                vec![2, 1, 0],
                Priority::High,
                0,
            ));
            server.admit(program_spec(
                "pipe-norm",
                program(&fact, &dim, 500),
                &[1, 0],
                Priority::Normal,
                5_000,
            ));
            server.admit(QuerySpec::scan(
                "scan-low",
                &fact,
                plan.clone(),
                vec![0, 1, 2],
                Priority::Low,
                10_000,
            ));
            let mut pool = CpuPool::new(CpuConfig::tiny_test(), workers);
            let report = server.run(&mut pool).unwrap();
            assert_eq!(report.queries.len(), 3);
            for q in &report.queries {
                let (qualified, sum) = if q.label.starts_with("scan") {
                    (scan_ref.qualified, scan_ref.sum)
                } else {
                    (pipe_ref.qualified, pipe_ref.sum)
                };
                assert_eq!(
                    q.qualified, qualified,
                    "{} diverged (workers={workers}, reopt={reopt})",
                    q.label
                );
                assert_eq!(q.sum, sum, "{} sum diverged", q.label);
                assert!(q.latency_cycles >= q.queue_cycles);
            }
            assert_eq!(report.workers, workers);
            assert!(report.wall_cycles > 0);
            assert!(
                report.occupancy > 0.0 && report.occupancy <= 1.0 + 1e-12,
                "occupancy {} out of range",
                report.occupancy
            );
            // Wall clock bounds every worker's busy time.
            for (&busy, &idle) in report
                .per_worker_busy_cycles
                .iter()
                .zip(&report.per_worker_idle_cycles)
            {
                assert!(busy + idle <= report.wall_cycles);
            }
        }
    }
}

/// Priority isolation: a high-priority query's latency is barely moved
/// (≤ 10%) by a low-priority background scan hogging the leftover
/// capacity — the stride weights cap the background's slot share at
/// 1/17 while the foreground query is active.
#[test]
fn high_priority_latency_isolated_from_background_scan() {
    let (fact, dim) = tables(0xB0B);
    let _ = &dim;
    let plan = scan_plan([300, 500, 700]);
    let workers = 4;

    let latency_of = |with_background: bool| -> u64 {
        // No reopt: this pins scheduling behaviour, not convergence.
        let mut server = QueryServer::new(ServeConfig {
            morsels: MorselConfig::new(512),
            reopt: None,
            use_order_cache: false,
            dynamic_repartition: false,
        });
        server.admit(QuerySpec::scan(
            "fg",
            &fact,
            plan.clone(),
            vec![0, 1, 2],
            Priority::High,
            0,
        ));
        if with_background {
            // One weight-1 background scan against the weight-16
            // foreground: the stride scheduler caps its slot share at
            // 1/17 while the foreground is active, so the foreground
            // loses at most ~6% of the pool.
            server.admit(QuerySpec::scan(
                "bg",
                &fact,
                plan.clone(),
                vec![0, 1, 2],
                Priority::Low,
                0,
            ));
        }
        let mut pool = CpuPool::new(CpuConfig::tiny_test(), workers);
        let report = server.run(&mut pool).unwrap();
        report
            .queries
            .iter()
            .find(|q| q.label == "fg")
            .expect("foreground query reported")
            .latency_cycles
    };

    let alone = latency_of(false);
    let contended = latency_of(true);
    assert!(
        (contended as f64) <= (alone as f64) * 1.10,
        "high-priority latency inflated {alone} -> {contended} (> 10%)"
    );
}

/// The order cache warms repeated templates: the second batch starts
/// from the first's converged order and calibration, lands on the same
/// final order, and pays less execution+optimizer cost.
#[test]
fn warm_cache_reuses_converged_state() {
    let (fact, dim) = tables(0xCAFE);
    let workers = 2;

    let mut server = QueryServer::new(config(true));
    server.admit(program_spec(
        "pipe",
        program(&fact, &dim, 500),
        &[1, 0],
        Priority::Normal,
        0,
    ));
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), workers);
    let cold = server.run(&mut pool).unwrap();
    assert!(!cold.queries[0].warm_start, "first sighting must be cold");
    assert_eq!(server.cache().len(), 1);

    server.admit(program_spec(
        "pipe",
        program(&fact, &dim, 500),
        &[1, 0],
        Priority::Normal,
        0,
    ));
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), workers);
    let warm = server.run(&mut pool).unwrap();
    assert!(warm.queries[0].warm_start, "repeat template must hit");
    assert_eq!(
        warm.queries[0].final_order, cold.queries[0].final_order,
        "warm run must keep the converged order"
    );
    assert_eq!(warm.queries[0].qualified, cold.queries[0].qualified);
    assert_eq!(warm.queries[0].sum, cold.queries[0].sum);
    assert!(
        warm.queries[0].cost_cycles() < cold.queries[0].cost_cycles(),
        "warm {} !< cold {}",
        warm.queries[0].cost_cycles(),
        cold.queries[0].cost_cycles()
    );

    // A slid literal is the *same* template: parameterized queries
    // (`val0 < ?`) share one cache entry, so the tweaked instance
    // warm-starts from the converged state of its 500-literal mate.
    server.admit(program_spec(
        "pipe-tweaked",
        program(&fact, &dim, 501),
        &[1, 0],
        Priority::Normal,
        0,
    ));
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), workers);
    let tweaked = server.run(&mut pool).unwrap();
    assert!(
        tweaked.queries[0].warm_start,
        "a slid literal must reuse the template's converged order"
    );
    assert_eq!(server.cache().len(), 1, "still one template entry");

    // A *structural* change (different comparison operator) is a new
    // template and must miss.
    let restructured = PlanBuilder::scan(&fact)
        .filter_costed(Expr::col("val0").at_least(500), 30)
        .join(&dim, "fk", Expr::col("payload").less_than(500))
        .aggregate("val1")
        .build()
        .compile()
        .unwrap();
    server.admit(program_spec(
        "pipe-restructured",
        restructured,
        &[1, 0],
        Priority::Normal,
        0,
    ));
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), workers);
    let changed = server.run(&mut pool).unwrap();
    assert!(
        !changed.queries[0].warm_start,
        "an operator change is a different template"
    );
    assert_eq!(server.cache().len(), 2);
}

/// The order cache is bypassed entirely when reoptimization is off: a
/// static run converges nowhere, so recording its start order would
/// poison later warm starts with whatever order the first instance
/// happened to use.
#[test]
fn static_runs_bypass_the_order_cache() {
    let (fact, _dim) = tables(0x5AFE);
    let plan = scan_plan([300, 500, 700]);
    let mut server = QueryServer::new(ServeConfig {
        morsels: MorselConfig::new(1024),
        reopt: None,
        use_order_cache: true,
        dynamic_repartition: false,
    });
    server.admit(QuerySpec::scan(
        "q",
        &fact,
        plan.clone(),
        vec![2, 1, 0],
        Priority::Normal,
        0,
    ));
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), 2);
    let first = server.run(&mut pool).unwrap();
    assert!(!first.queries[0].warm_start);
    assert_eq!(server.cache().len(), 0, "static runs must not record");

    // A repeat of the template with a *better* submitted order must keep
    // it, not be overridden by a stale "converged" entry.
    server.admit(QuerySpec::scan(
        "q",
        &fact,
        plan,
        vec![0, 1, 2],
        Priority::Normal,
        0,
    ));
    let second = server.run(&mut pool).unwrap();
    assert!(!second.queries[0].warm_start);
    assert_eq!(second.queries[0].final_order, vec![0, 1, 2]);
}

/// Future arrivals idle the pool forward instead of spinning or
/// serving early; the report separates idle from busy capacity.
#[test]
fn future_arrival_idles_the_pool() {
    let (fact, _dim) = tables(0x1D1E);
    let plan = scan_plan([100, 500, 900]);
    let arrival = 2_000_000u64;

    let mut server = QueryServer::new(config(false));
    server.admit(QuerySpec::scan(
        "late",
        &fact,
        plan,
        vec![0, 1, 2],
        Priority::Normal,
        arrival,
    ));
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), 2);
    let report = server.run(&mut pool).unwrap();
    let q = &report.queries[0];
    assert!(report.wall_cycles >= arrival, "pool must wait for arrival");
    assert!(report.idle_cycles > 0, "waiting must be accounted as idle");
    assert!(report.occupancy < 1.0);
    assert!(
        q.latency_cycles < report.wall_cycles,
        "latency excludes pre-arrival time: {} vs wall {}",
        q.latency_cycles,
        report.wall_cycles
    );
    // The pool's own occupancy accounting agrees that cores idled.
    assert!(pool.idle_cycles() > 0);
    assert!(pool.occupancy() < 1.0);
    assert!(pool.horizon_cycles() >= arrival);
}

/// Config validation and degenerate batches.
#[test]
fn config_validation_and_empty_batches() {
    let (fact, _dim) = tables(7);
    let plan = scan_plan([500, 500, 500]);

    // Empty batch: a defined empty report, no division by zero.
    let mut server = QueryServer::new(config(true));
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), 2);
    let report = server.run(&mut pool).unwrap();
    assert!(report.queries.is_empty());
    assert_eq!(report.wall_cycles, 0);
    assert_eq!(report.occupancy, 1.0);
    assert_eq!(report.throughput_qps(), 0.0);
    assert!(report.latency_percentile(None, 0.5).is_none());

    // reop_interval = 0 is rejected before any query runs a morsel.
    let mut server = QueryServer::new(ServeConfig {
        reopt: Some(ProgressiveConfig { reop_interval: 0 }),
        ..ServeConfig::default()
    });
    server.admit(QuerySpec::scan(
        "q",
        &fact,
        plan.clone(),
        vec![0, 1, 2],
        Priority::Normal,
        0,
    ));
    assert_eq!(
        server.run(&mut pool).err(),
        Some(EngineError::ZeroReopInterval)
    );

    // morsel_tuples = 0 is rejected by the dispatcher.
    let mut server = QueryServer::new(ServeConfig {
        morsels: MorselConfig::new(0),
        reopt: None,
        use_order_cache: false,
        dynamic_repartition: false,
    });
    server.admit(QuerySpec::scan(
        "q",
        &fact,
        plan,
        vec![0, 1, 2],
        Priority::Normal,
        0,
    ));
    assert!(server.run(&mut pool).is_err());
    assert_eq!(
        server.queued(),
        1,
        "a rejected batch must stay queued for retry"
    );
}

/// A batch rejected mid-validation (one bad query among good ones)
/// keeps the whole queue; fixing the config and retrying serves it.
#[test]
fn rejected_batch_is_not_drained() {
    let (fact, _dim) = tables(0xEE);
    let good = scan_plan([400, 500, 600]);
    let bad = SelectionPlan::new(
        vec![Predicate::new("no_such_column", CompareOp::Lt, 1)],
        vec![],
    )
    .unwrap();

    let mut server = QueryServer::new(config(false));
    server.admit(QuerySpec::scan(
        "good",
        &fact,
        good,
        vec![0, 1, 2],
        Priority::Normal,
        0,
    ));
    server.admit(QuerySpec::scan(
        "bad",
        &fact,
        bad,
        vec![0],
        Priority::Low,
        0,
    ));
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), 2);
    assert!(server.run(&mut pool).is_err());
    assert_eq!(server.queued(), 2, "both queries must survive the error");

    // Successful runs drain.
    let mut server2 = QueryServer::new(config(false));
    server2.admit(QuerySpec::scan(
        "ok",
        &fact,
        scan_plan([400, 500, 600]),
        vec![0, 1, 2],
        Priority::Normal,
        0,
    ));
    let report = server2.run(&mut pool).unwrap();
    assert_eq!(report.queries.len(), 1);
    assert_eq!(server2.queued(), 0, "a served batch drains the queue");
}

/// The server's drift observatory keys every fit by the literal-free
/// structural key of the front stage — of a scan and of a join program
/// alike — never by plan index, which would pool a scan's first predicate
/// with a program's first stage in one series.
#[test]
fn served_drift_series_are_keyed_by_stage_structure() {
    let (fact, dim) = tables(0xD21F);
    let plan = scan_plan([200, 500, 800]);
    let scan_keys = CompiledProgram::from_selection(&fact, &plan, &[0, 1, 2])
        .unwrap()
        .stage_keys();
    let join = program(&fact, &dim, 500);
    let join_keys = join.stage_keys();
    let drift = Arc::new(DriftObservatory::new());
    let mut server = QueryServer::new(config(true));
    server.set_drift(Arc::clone(&drift));
    server.admit(QuerySpec::scan(
        "scan",
        &fact,
        plan,
        vec![2, 1, 0],
        Priority::Normal,
        0,
    ));
    server.admit(program_spec("join", join, &[1, 0], Priority::Normal, 0));
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), 1);
    server.run(&mut pool).unwrap();
    let series = drift.series();
    assert!(!series.is_empty(), "the batch must fit something");
    for ((metric, key), _) in &series {
        assert!(
            scan_keys.contains(key) || join_keys.contains(key),
            "{metric} series keyed {key:#x}, not by a stage structure"
        );
    }
}

/// A scan spec naming a column its table lacks — in a predicate or in the
/// aggregate — is accepted by `admit` and rejected by `run` with the
/// column's name, whether or not the order cache is consulted.
#[test]
fn unknown_scan_column_is_rejected_by_run() {
    let (fact, _dim) = tables(0xC01);
    let bad_predicate = SelectionPlan::new(
        vec![
            Predicate::new("val0", CompareOp::Lt, 500),
            Predicate::new("no_such_column", CompareOp::Lt, 1),
        ],
        vec![],
    )
    .unwrap();
    let bad_aggregate = SelectionPlan::new(
        vec![Predicate::new("val0", CompareOp::Lt, 500)],
        vec!["no_such_aggregate".into()],
    )
    .unwrap();
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), 2);
    for reopt in [false, true] {
        for (plan, column) in [
            (&bad_predicate, "no_such_column"),
            (&bad_aggregate, "no_such_aggregate"),
        ] {
            let mut server = QueryServer::new(config(reopt));
            let order = plan.identity_peo();
            server.admit(QuerySpec::scan(
                "bad",
                &fact,
                plan.clone(),
                order,
                Priority::Normal,
                0,
            ));
            assert_eq!(
                server.run(&mut pool).unwrap_err(),
                EngineError::UnknownColumn(column.into()),
                "reopt {reopt}"
            );
            assert_eq!(server.queued(), 1);
        }
    }
}

/// Stride shares: with two long queries of unequal priority arriving
/// together, the high-priority one must finish first by a wide margin
/// (it owns 16/17 of the slots while both are active).
#[test]
fn priorities_order_completion_under_contention() {
    let (fact, _dim) = tables(0xFA1);
    let plan = scan_plan([500, 500, 500]);
    let mut server = QueryServer::new(config(false));
    server.admit(QuerySpec::scan(
        "hi",
        &fact,
        plan.clone(),
        vec![0, 1, 2],
        Priority::High,
        0,
    ));
    server.admit(QuerySpec::scan(
        "lo",
        &fact,
        plan,
        vec![0, 1, 2],
        Priority::Low,
        0,
    ));
    // One worker: completion order is purely the scheduler's doing.
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), 1);
    let report = server.run(&mut pool).unwrap();
    let hi = &report.queries[0];
    let lo = &report.queries[1];
    assert!(
        hi.latency_cycles * 3 < lo.latency_cycles * 2,
        "high priority must finish well before low: {} vs {}",
        hi.latency_cycles,
        lo.latency_cycles
    );
    // Both still produce identical results.
    assert_eq!(hi.qualified, lo.qualified);
    assert_eq!(hi.sum, lo.sum);
}

/// Mid-run order-cache publication: a query's converged order and
/// calibration publish at *query completion*, so a long open-loop
/// stream warms its own later arrivals — within one batch, without
/// waiting for the batch to drain.
#[test]
fn completed_query_warms_a_later_arrival_in_the_same_batch() {
    let (fact, _dim) = tables(0x0A51);
    let plan = scan_plan([200, 500, 800]);
    // Far enough out that the first instance has certainly completed
    // (in simulated time) before the second arrives.
    let late_arrival = 100_000_000u64;

    let mut server = QueryServer::new(config(true));
    server.admit(QuerySpec::scan(
        "early",
        &fact,
        plan.clone(),
        vec![2, 1, 0],
        Priority::Normal,
        0,
    ));
    server.admit(QuerySpec::scan(
        "late",
        &fact,
        plan,
        vec![2, 1, 0],
        Priority::Normal,
        late_arrival,
    ));
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), 1);
    let report = server.run(&mut pool).unwrap();
    let early = &report.queries[0];
    let late = &report.queries[1];
    assert!(
        !early.warm_start,
        "the first instance has nothing to warm from"
    );
    assert!(
        late.warm_start,
        "the later arrival must warm from its completed template mate"
    );
    assert_eq!(early.final_order, vec![0, 1, 2], "{:?}", early.switches);
    assert_eq!(late.final_order, early.final_order);
    assert!(
        late.switches.is_empty(),
        "seeded at the converged order, the warm run has nothing to switch: {:?}",
        late.switches
    );
    assert_eq!(late.qualified, early.qualified);
    assert_eq!(late.sum, early.sum);
    assert_eq!(server.cache().len(), 1);
}

/// Closed-loop instances of one template co-start and must all run cold:
/// the mid-run warm path is gated to later arrivals (`arrival > 0`), so
/// a batch that arrives together keeps batch-admission semantics
/// regardless of completion interleaving.
#[test]
fn co_starting_template_mates_stay_cold() {
    let (fact, _dim) = tables(0x0A52);
    let plan = scan_plan([200, 500, 800]);
    let mut server = QueryServer::new(config(true));
    for k in 0..3 {
        server.admit(QuerySpec::scan(
            format!("q{k}"),
            &fact,
            plan.clone(),
            vec![2, 1, 0],
            Priority::Normal,
            0,
        ));
    }
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), 2);
    let report = server.run(&mut pool).unwrap();
    assert!(report.queries.iter().all(|q| !q.warm_start));
    for q in &report.queries {
        assert_eq!(q.qualified, report.queries[0].qualified);
        assert_eq!(q.sum, report.queries[0].sum);
    }
    // All three completed and published; one template, one entry.
    assert_eq!(server.cache().len(), 1);
}

/// Fact/dim pair like [`tables`] but with an explicit row count, for
/// co-runners of controlled length.
fn tables_n(rows: usize, seed: u64) -> (Table, Table) {
    let dim_n = (rows / 4).max(16);
    let mut state = seed | 1;
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    for c in 0..3 {
        let data: Vec<i32> = (0..rows)
            .map(|_| (xorshift64(&mut state) % 1000) as i32)
            .collect();
        fact.add_column(format!("val{c}"), ColumnData::I32(data), &mut space);
    }
    fact.add_column(
        "fk",
        ColumnData::I32(
            (0..rows)
                .map(|_| (xorshift64(&mut state) % dim_n as u64) as i32)
                .collect(),
        ),
        &mut space,
    );
    let mut dim = Table::new("dim");
    dim.add_column(
        "payload",
        ColumnData::I32(
            (0..dim_n)
                .map(|_| (xorshift64(&mut state) % 1000) as i32)
                .collect(),
        ),
        &mut space,
    );
    (fact, dim)
}

/// Dynamic LLC repartitioning is keyed to events in the worker's *own*
/// claim stream (a query draining locally). Two runs of the same
/// staggered batch on a multi-worker two-socket shared pool must produce
/// the *entire* report — per-worker busy cycles and per-query execution
/// cycles included — bit-for-bit, and results must match solo
/// execution.
#[test]
fn dynamic_repartition_cycles_are_host_schedule_independent() {
    let (fact, dim) = tables(0xD27A);
    let plan = scan_plan([200, 500, 800]);
    let mut cpu = SimCpu::new(CpuConfig::tiny_test());
    let scan_ref = CompiledProgram::from_selection(&fact, &plan, &[0, 1, 2])
        .unwrap()
        .run_range(&mut cpu, 0, ROWS);
    let mut cpu = SimCpu::new(CpuConfig::tiny_test());
    let pipe_ref = program(&fact, &dim, 500).run_range(&mut cpu, 0, ROWS);

    let run = || {
        let mut server = QueryServer::new(ServeConfig {
            dynamic_repartition: true,
            reopt: None,
            ..config(false)
        });
        server.admit(program_spec(
            "pipe-0",
            program(&fact, &dim, 500),
            &[0, 1],
            Priority::Normal,
            0,
        ));
        server.admit(QuerySpec::scan(
            "scan-0",
            &fact,
            plan.clone(),
            vec![0, 1, 2],
            Priority::Normal,
            2_000,
        ));
        server.admit(program_spec(
            "pipe-1",
            program(&fact, &dim, 500),
            &[0, 1],
            Priority::Low,
            4_000,
        ));
        let mut pool = CpuPool::with_topology(CpuConfig::tiny_test(), 4, LlcMode::Shared, 2);
        server.run(&mut pool).unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(
        first, second,
        "repartition events must be deterministic in the simulated clock"
    );
    for q in &first.queries {
        let (qualified, sum) = if q.label.starts_with("scan") {
            (scan_ref.qualified, scan_ref.sum)
        } else {
            (pipe_ref.qualified, pipe_ref.sum)
        };
        assert_eq!(q.qualified, qualified, "{} diverged", q.label);
        assert_eq!(q.sum, sum, "{} sum diverged", q.label);
    }
}

/// Dynamic repartitioning semantics on one worker: while a co-runner is
/// live the foreground query runs on a slice of the core's ways (the
/// pessimistic price of declared contention — never cheaper than
/// unpartitioned sharing), and the co-runner's *completion event* hands
/// its ways back, so a short co-runner costs the foreground measurably
/// less than a long one.
#[test]
fn dynamic_repartition_prices_co_runners_and_reclaims_at_completion() {
    let (fact, dim) = tables(0x10C0);
    let (short_fact, short_dim) = tables_n(ROWS / 8, 0xC0DE);
    let (long_fact, long_dim) = tables_n(ROWS, 0xC0DE);

    let mut cpu = SimCpu::new(CpuConfig::tiny_test());
    let fg_ref = program(&fact, &dim, 500).run_range(&mut cpu, 0, ROWS);

    let fg_exec = |co_fact: &Table, co_dim: &Table, dynamic: bool| {
        let mut server = QueryServer::new(ServeConfig {
            dynamic_repartition: dynamic,
            reopt: None,
            ..config(false)
        });
        server.admit(program_spec(
            "fg",
            program(&fact, &dim, 500),
            &[0, 1],
            Priority::Normal,
            0,
        ));
        server.admit(program_spec(
            "co",
            program(co_fact, co_dim, 500),
            &[0, 1],
            Priority::Normal,
            0,
        ));
        let mut pool = CpuPool::new_shared(CpuConfig::tiny_test(), 1);
        let report = server.run(&mut pool).unwrap();
        let fg = report
            .queries
            .iter()
            .find(|q| q.label == "fg")
            .expect("fg served");
        assert_eq!(fg.qualified, fg_ref.qualified, "fg diverged");
        assert_eq!(fg.sum, fg_ref.sum, "fg sum diverged");
        fg.exec_cycles
    };

    let long_off = fg_exec(&long_fact, &long_dim, false);
    let long_on = fg_exec(&long_fact, &long_dim, true);
    let short_off = fg_exec(&short_fact, &short_dim, false);
    let short_on = fg_exec(&short_fact, &short_dim, true);

    assert!(
        long_on > long_off,
        "a live co-runner must cost the foreground ways: {long_on} <= {long_off}"
    );
    assert!(
        short_on >= short_off,
        "declared contention is pessimistic, never a speedup: {short_on} < {short_off}"
    );
    assert!(
        short_on < long_on,
        "the completion event must reclaim the co-runner's ways: \
         fg vs short co-runner {short_on} >= vs long {long_on}"
    );
}
