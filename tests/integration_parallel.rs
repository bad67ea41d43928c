//! Cross-crate integration: morsel-driven parallel execution with shared
//! progressive reoptimization.
//!
//! The acceptance bar: for any worker count and morsel size the parallel
//! executor returns bit-identical `qualified`/`sum` to the single-core
//! executor; with progressive reoptimization enabled it converges to the
//! same operator order the serial loop finds; and four workers deliver a
//! ≥ 2.5× wall-clock speedup over one on the Figure-14-style workload.

use popt::core::exec::program::CompiledProgram;
use popt::core::parallel::{
    run_parallel_program_observed, run_parallel_target_observed, MorselConfig,
};
use popt::core::plan::{Expr, PlanBuilder, SelectionPlan};
use popt::core::predicate::{CompareOp, Predicate};
use popt::core::progressive::{
    run_progressive_program_observed, CompiledTarget, ProgressiveConfig, VectorConfig,
};
use popt::core::query::{QueryBuilder, RunMode};
use popt::core::ExecObservers;
use popt::cpu::{CacheLevelConfig, CpuConfig, CpuPool, LlcMode, SimCpu};
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::{fig14_mem_tables, xorshift64, DOMAIN};

mod common;
use common::rigged::Rigged;
use common::small_cache_cpu;

const ROWS: usize = 1 << 17;

/// Three-predicate scan table with very different selectivities
/// (5% / 50% / 95% over the shared workload domain).
fn scan_table(n: usize) -> (Table, SelectionPlan) {
    let mut space = AddressSpace::new();
    let mut t = Table::new("t");
    let mut state = 0xC0FFEEu64 | 1;
    for name in ["lo", "mid", "hi"] {
        let data: Vec<i32> = (0..n)
            .map(|_| (xorshift64(&mut state) % DOMAIN as u64) as i32)
            .collect();
        t.add_column(name, ColumnData::I32(data), &mut space);
    }
    t.add_column("agg", ColumnData::I32(vec![3; n]), &mut space);
    let plan = SelectionPlan::new(
        vec![
            Predicate::new("lo", CompareOp::Lt, DOMAIN / 20),
            Predicate::new("mid", CompareOp::Lt, DOMAIN / 2),
            Predicate::new("hi", CompareOp::Lt, DOMAIN * 19 / 20),
        ],
        vec!["agg".into()],
    )
    .unwrap();
    (t, plan)
}

/// Expensive selection + fully random FK probe into an LLC-thrashing
/// dimension (the fig14 "Mem" workload) — selection-first is optimal.
fn build_program<'t>(fact: &'t Table, dim: &'t Table) -> CompiledProgram<'t> {
    PlanBuilder::scan(fact)
        .filter_costed(Expr::col("val").less_than(DOMAIN / 2), 50)
        .join(dim, "fk", Expr::col("payload").less_than(DOMAIN / 2))
        .aggregate("val")
        .build()
        .compile()
        .unwrap()
}

#[test]
fn parallel_scan_is_bit_identical_to_serial_for_any_worker_count() {
    let n = 1 << 15;
    let (t, plan) = scan_table(n);
    let peo = [2usize, 1, 0];
    let serial = QueryBuilder::new(&t, plan.clone())
        .initial_peo(peo.to_vec())
        .vector_tuples(2048)
        .cpu(CpuConfig::ivy_bridge())
        .run(RunMode::Baseline)
        .unwrap()
        .result;

    for workers in [1usize, 2, 4, 8] {
        for morsel_tuples in [1_000usize, 4_096] {
            // Baseline (no reopt) and progressive must both be exact.
            for progressive in [false, true] {
                let mut pool = CpuPool::new(CpuConfig::ivy_bridge(), workers);
                let config = ProgressiveConfig { reop_interval: 2 };
                let report = run_parallel_program_observed(
                    &mut CompiledProgram::from_selection(&t, &plan, &peo).unwrap(),
                    &peo,
                    MorselConfig::new(morsel_tuples),
                    &mut pool,
                    progressive.then_some(&config),
                    &ExecObservers::none(),
                )
                .unwrap();
                assert_eq!(
                    report.qualified, serial.rows_qualified,
                    "workers={workers} morsel={morsel_tuples} progressive={progressive}"
                );
                assert_eq!(report.sum, serial.sum);
                assert_eq!(report.workers, workers);
            }
        }
    }
}

#[test]
fn parallel_progressive_scan_converges_like_serial() {
    let n = 1 << 16;
    let (t, plan) = scan_table(n);
    let mut pool = CpuPool::new(CpuConfig::ivy_bridge(), 4);
    let report = run_parallel_program_observed(
        &mut CompiledProgram::from_selection(&t, &plan, &[2, 1, 0]).unwrap(),
        &[2, 1, 0], // descending selectivity: worst order
        MorselConfig::new(2_048),
        &mut pool,
        Some(&ProgressiveConfig { reop_interval: 2 }),
        &ExecObservers::none(),
    )
    .unwrap();
    assert_eq!(
        report.final_order,
        vec![0, 1, 2],
        "switches: {:?}",
        report.switches
    );
    assert!(report.estimates > 0);
    assert!(report.optimizer_cycles > 0);
}

#[test]
fn parallel_pipeline_matches_serial_and_converges_to_same_order() {
    let (fact, dim) = fig14_mem_tables(ROWS, 0xF00D);
    // Single-core ground truth (static, selection-first already applied
    // or not — results are order-invariant).
    let static_program = build_program(&fact, &dim);
    let mut serial_cpu = SimCpu::new(small_cache_cpu());
    let expect = static_program.run_range(&mut serial_cpu, 0, ROWS);

    // Serial progressive from the bad (join-first) order.
    let mut serial_program = build_program(&fact, &dim);
    let mut cpu = SimCpu::new(small_cache_cpu());
    let serial = run_progressive_program_observed(
        &mut serial_program,
        &[1, 0],
        VectorConfig {
            vector_tuples: 4_096,
            max_vectors: None,
        },
        &mut cpu,
        &ProgressiveConfig { reop_interval: 2 },
        &ExecObservers::none(),
    )
    .unwrap();

    // Parallel progressive from the same bad order, 4 workers.
    let mut program = build_program(&fact, &dim);
    let mut pool = CpuPool::new(small_cache_cpu(), 4);
    let report = run_parallel_program_observed(
        &mut program,
        &[1, 0],
        MorselConfig::new(4_096),
        &mut pool,
        Some(&ProgressiveConfig { reop_interval: 2 }),
        &ExecObservers::none(),
    )
    .unwrap();

    assert_eq!(report.qualified, expect.qualified);
    assert_eq!(report.sum, expect.sum);
    assert_eq!(
        report.final_order, serial.final_peo,
        "parallel switches: {:?}",
        report.switches
    );
    // The caller's program is left in the accepted order.
    assert_eq!(program.order(), &report.final_order[..]);
}

#[test]
fn four_workers_speed_up_the_pipeline_at_least_2_5x() {
    let (fact, dim) = fig14_mem_tables(ROWS, 0xF00D);
    let run = |workers: usize| {
        let mut program = build_program(&fact, &dim);
        let mut pool = CpuPool::new(small_cache_cpu(), workers);
        run_parallel_program_observed(
            &mut program,
            &[0, 1],
            MorselConfig::new(4_096),
            &mut pool,
            None,
            &ExecObservers::none(),
        )
        .unwrap()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(one.qualified, four.qualified);
    let speedup = four.speedup_over(one.wall_cycles);
    assert!(
        speedup >= 2.5,
        "4-worker speedup {speedup:.2} < 2.5 (1w {} cycles, 4w wall {} cycles)",
        one.wall_cycles,
        four.wall_cycles
    );
}

#[test]
fn rejected_trials_never_spread_and_always_revert() {
    let (fact, dim) = fig14_mem_tables(1 << 16, 0xF00D);
    let mut program = build_program(&fact, &dim);
    program.reorder(&[1, 0]).unwrap();
    let mut pool = CpuPool::new(small_cache_cpu(), 4);
    // Every trial morsel regresses (the rigged target charges any order
    // but the start order): the published order must never change, and
    // each trial must be marked reverted.
    let mut target = Rigged::new(CompiledTarget::new(&mut program)).with_regressing_trials();
    let report = run_parallel_target_observed(
        &mut target,
        MorselConfig::new(4_096),
        &mut pool,
        Some(&ProgressiveConfig { reop_interval: 2 }),
        &ExecObservers::none(),
    )
    .unwrap();
    assert_eq!(report.final_order, vec![1, 0]);
    assert!(!report.switches.is_empty(), "no trial ran");
    assert!(
        report.switches.iter().all(|s| s.reverted),
        "{:?}",
        report.switches
    );
    drop(target);
    assert_eq!(program.order(), &[1, 0]);
}

/// The repo benchmark's `par_star` at a quarter of its scale: a
/// 2¹⁸-row fact table; a co-clustered FK into `rows / 4` dimension rows
/// and random FKs into `rows / 8` and `rows / 64`; a costed 50 % selection
/// and join selectivities 0.3 / 0.5 / 0.7. Plan order: the selection,
/// then customer, supplier, part.
fn quarter_star(seed: u64) -> [Table; 4] {
    let rows = 1 << 18;
    let dims = [rows / 4, rows / 8, rows / 64];
    let mut state = seed | 1;
    let mut space = AddressSpace::new();
    let mut column = |n: usize, domain: usize| {
        ColumnData::I32(
            (0..n)
                .map(|_| (xorshift64(&mut state) % domain as u64) as i32)
                .collect(),
        )
    };
    let mut fact = Table::new("fact");
    let clustered = (0..rows).map(|i| (i * dims[0] / rows) as i32).collect();
    fact.add_column("fk_customer", ColumnData::I32(clustered), &mut space);
    fact.add_column("fk_supplier", column(rows, dims[1]), &mut space);
    fact.add_column("fk_part", column(rows, dims[2]), &mut space);
    fact.add_column("val", column(rows, DOMAIN as usize), &mut space);
    fact.add_column("agg", column(rows, 100), &mut space);
    let mut dim = |name: &str, payload: &str, n: usize| {
        let mut t = Table::new(name);
        t.add_column(payload, column(n, DOMAIN as usize), &mut space);
        t
    };
    let customer = dim("customer", "c_payload", dims[0]);
    let supplier = dim("supplier", "s_payload", dims[1]);
    let part = dim("part", "p_payload", dims[2]);
    [fact, customer, supplier, part]
}

#[test]
fn shared_llc_star_settles_on_one_order_on_every_seed() {
    // Two workers on one shared 256 KiB LLC, 256 morsels, a round every
    // 4: each core's first morsel runs cold. A trial judged against a
    // window that includes it can accept a slower order, and then the
    // run settles on another order and pays ~13 % more, on some seeds
    // only. Judged against the leasing core's previous (warm) morsel,
    // every seed settles on one order inside a narrow band.
    let mut cpu = CpuConfig::xeon_e5_2630_v2();
    let level = |kib: u64, ways, hit_latency_cycles| CacheLevelConfig {
        capacity_bytes: kib * 1024,
        line_bytes: 64,
        ways,
        hit_latency_cycles,
    };
    cpu.levels = vec![level(8, 8, 0), level(32, 8, 10), level(256, 16, 30)];
    let mut runs = Vec::new();
    for seed in [1, 3, 5, 7, 9, 11] {
        let [fact, customer, supplier, part] = quarter_star(seed);
        let mut program = PlanBuilder::scan(&fact)
            .filter_costed(Expr::col("val").less_than(DOMAIN / 2), 50)
            .join(
                &customer,
                "fk_customer",
                Expr::col("c_payload").less_than(3_000),
            )
            .join(
                &supplier,
                "fk_supplier",
                Expr::col("s_payload").less_than(5_000),
            )
            .join(&part, "fk_part", Expr::col("p_payload").less_than(7_000))
            .aggregate("agg")
            .build()
            .optimize()
            .compile()
            .unwrap();
        let mut pool = CpuPool::with_topology(cpu.clone(), 2, LlcMode::Shared, 1);
        let report = run_parallel_program_observed(
            &mut program,
            &[0, 2, 3, 1],
            MorselConfig::new(1_024),
            &mut pool,
            Some(&ProgressiveConfig { reop_interval: 4 }),
            &ExecObservers::none(),
        )
        .unwrap();
        runs.push((seed, report.final_order, report.wall_cycles));
    }
    let (_, order, _) = &runs[0];
    assert!(runs.iter().all(|(_, o, _)| o == order), "{runs:?}");
    let lo = runs.iter().map(|r| r.2).min().unwrap();
    let hi = runs.iter().map(|r| r.2).max().unwrap();
    assert!(hi as f64 <= lo as f64 * 1.07, "{runs:?}");
}

#[test]
fn zero_reop_interval_and_zero_morsel_are_rejected() {
    let (t, plan) = scan_table(1 << 12);
    let mut pool = CpuPool::new(CpuConfig::tiny_test(), 2);
    let err = run_parallel_program_observed(
        &mut CompiledProgram::from_selection(&t, &plan, &[0, 1, 2]).unwrap(),
        &[0, 1, 2],
        MorselConfig::new(0),
        &mut pool,
        None,
        &ExecObservers::none(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        popt::core::EngineError::InvalidVectorConfig(_)
    ));
    let err = run_parallel_program_observed(
        &mut CompiledProgram::from_selection(&t, &plan, &[0, 1, 2]).unwrap(),
        &[0, 1, 2],
        MorselConfig::new(1_024),
        &mut pool,
        Some(&ProgressiveConfig { reop_interval: 0 }),
        &ExecObservers::none(),
    )
    .unwrap_err();
    assert_eq!(err, popt::core::EngineError::ZeroReopInterval);
}
