//! Property: the batched executor fast paths are **bit-identical** to
//! the scalar per-event oracle (`run_range_scalar`, reachable via
//! `set_scalar_oracle`) — identical [`VectorStats`] *and* identical full
//! PMU counter state for random workloads and vector boundaries, and an
//! identical full [`ParallelReport`] across socket counts, worker
//! counts, LLC modes, and progressive reoptimization. Every serial case
//! also runs the fast path on a core whose batches run while decoy cores
//! hold a batch open on every host core, and so walk the cache hierarchy
//! inline, against a core
//! whose batches hand their walks to the walker thread — and asserts, on
//! a host with two cores or more, that the walker thread drained batches.
//!
//! Case count is the vendored proptest default (256), pinnable via the
//! upstream-compatible `PROPTEST_CASES` environment variable (CI runs
//! this suite as a blocking smoke with `PROPTEST_CASES=64`).

use proptest::prelude::*;

use popt::core::exec::program::CompiledProgram;
use popt::core::parallel::{run_parallel_program_observed, MorselConfig};
use popt::core::plan::SelectionPlan;
use popt::core::plan::{Expr, LogicalPlan, PlanBuilder};
use popt::core::predicate::{CompareOp, Predicate};
use popt::core::progressive::ProgressiveConfig;
use popt::core::ExecObservers;
use popt::cost::estimate::estimate_counters;
use popt::cpu::{CpuConfig, CpuPool, LlcMode, SimCpu};
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::xorshift64;

mod common;

const ROWS: usize = 2_048;

/// Fact with four value columns, a co-clustered and a random FK, plus a
/// payload dimension — the random-workload shape of the other parallel
/// proptests.
fn tables(seed: u64) -> (Table, Table) {
    let dim_n = ROWS / 4;
    let mut state = seed | 1;
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    for c in 0..4 {
        let data: Vec<i32> = (0..ROWS)
            .map(|_| (xorshift64(&mut state) % 1000) as i32)
            .collect();
        fact.add_column(format!("val{c}"), ColumnData::I32(data), &mut space);
    }
    fact.add_column(
        "fk_seq",
        ColumnData::I32((0..ROWS).map(|i| (i / 4) as i32).collect()),
        &mut space,
    );
    fact.add_column(
        "fk_rand",
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

/// Random mixed select/join plan: bit `k` of `kinds` picks the stage
/// kind; joins alternate the co-clustered and random FK.
fn plan<'t>(
    fact: &'t Table,
    dim: &'t Table,
    stages: usize,
    kinds: u64,
    lit: i64,
) -> LogicalPlan<'t> {
    let mut builder = PlanBuilder::scan(fact);
    let mut join_ordinal = 0usize;
    for k in 0..stages {
        if (kinds >> k) & 1 == 1 {
            let fk = if join_ordinal % 2 == 0 {
                "fk_seq"
            } else {
                "fk_rand"
            };
            join_ordinal += 1;
            builder = builder.join(dim, fk, Expr::col("payload").less_than(lit));
        } else {
            builder =
                builder.filter_costed(Expr::col(format!("val{k}")).less_than(lit), k as u64 * 10);
        }
    }
    builder.aggregate("val0").build()
}

proptest! {
    /// Serial pipeline programs: batched vs scalar oracle over random
    /// vector boundaries — identical stats and identical full counters
    /// after every vector.
    #[test]
    fn program_fast_path_matches_oracle(
        stages in 1usize..5,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
        vector in 128usize..1200,
    ) {
        let (fact, dim) = tables(seed);
        let p = plan(&fact, &dim, stages, kinds, lit);
        let mut fast = p.compile().expect("plan lowers");
        let mut oracle = fast.clone();
        oracle.set_scalar_oracle(true);
        let drained = popt::cpu::walker_batches();
        let mut cpu_f = SimCpu::new(CpuConfig::tiny_test());
        let mut cpu_o = SimCpu::new(CpuConfig::tiny_test());
        let mut cpu_i = SimCpu::new(CpuConfig::tiny_test());
        // Also exercise re-chaining: reverse the order mid-run.
        let order: Vec<usize> = (0..stages).rev().collect();
        let mut start = 0usize;
        let mut flipped = false;
        while start < ROWS {
            let end = (start + vector).min(ROWS);
            if !flipped && start >= ROWS / 2 {
                fast.reorder(&order).expect("reorder");
                oracle.reorder(&order).expect("reorder");
                flipped = true;
            }
            let sf = fast.run_range(&mut cpu_f, start, end);
            let so = oracle.run_range(&mut cpu_o, start, end);
            let si = common::beside_decoy(|| fast.run_range(&mut cpu_i, start, end));
            prop_assert_eq!(&sf, &so, "vector {}..{}", start, end);
            prop_assert_eq!(cpu_f.counters(), cpu_o.counters());
            prop_assert_eq!(&si, &sf, "inline core, vector {}..{}", start, end);
            prop_assert_eq!(cpu_i.counters(), cpu_f.counters());
            start = end;
        }
        prop_assert!(cpu_i.predictor() == cpu_f.predictor(), "inline core predictor");
        common::assert_walker_drained_since(drained);
    }

    /// Serial multi-selection scans (including the specialized
    /// single-predicate bulk path): batched vs scalar oracle. The same
    /// predicates built as a `PlanBuilder` conjunction and run in the same
    /// random evaluation order must produce the same stats, counters and
    /// predictor state — Q6's shapes included: two predicates on one
    /// column, an aggregate a predicate also reads, up to six predicates.
    /// The scan's stream geometry (no probe list) and the same geometry
    /// with one `None` probe per position must price identically.
    #[test]
    fn scan_fast_path_matches_oracle(
        preds in 1usize..7,
        columns in any::<u64>(),
        ops in any::<u64>(),
        costly in any::<u64>(),
        lit in 0i64..1000,
        seed in any::<u64>(),
        shuffle in any::<u64>(),
        vector in 128usize..1200,
        aggregates in 0usize..4,
    ) {
        let mut state = seed | 1;
        let mut space = AddressSpace::new();
        let mut t = Table::new("t");
        for c in 0..4 {
            let data: Vec<i32> = (0..ROWS)
                .map(|_| (xorshift64(&mut state) % 1000) as i32)
                .collect();
            t.add_column(format!("c{c}"), ColumnData::I32(data), &mut space);
        }
        let predicates: Vec<Predicate> = (0..preds)
            .map(|k| {
                let op = [CompareOp::Lt, CompareOp::Ge, CompareOp::Le, CompareOp::Gt]
                    [(ops >> (2 * k)) as usize & 3];
                let mut p = Predicate::new(
                    format!("c{}", (columns >> (2 * k)) & 3),
                    op,
                    (lit + k as i64 * 37) % 1000,
                );
                p.extra_instructions = ((costly >> k) & 1) * 20;
                p
            })
            .collect();
        let aggregate_columns: Vec<String> = match aggregates {
            0 => vec![],
            1 => vec!["c0".into()],
            2 => vec!["c1".into(), "c0".into()],
            _ => vec!["c3".into()],
        };
        let plan = SelectionPlan::new(predicates.clone(), aggregate_columns.clone())
            .expect("plan");
        // A random evaluation order (Fisher–Yates).
        let mut peo: Vec<usize> = (0..preds).collect();
        let mut shuffle_state = shuffle | 1;
        for k in (1..preds).rev() {
            peo.swap(k, (xorshift64(&mut shuffle_state) % (k as u64 + 1)) as usize);
        }
        let mut fast = CompiledProgram::from_selection(&t, &plan, &peo).expect("compiles");
        let mut builder = PlanBuilder::scan(&t);
        for p in &predicates {
            let conjunct = Expr::Cmp(
                Box::new(Expr::col(p.column.clone())),
                p.op,
                Box::new(Expr::lit(p.literal)),
            );
            builder = builder.filter_costed(conjunct, p.extra_instructions);
        }
        for column in &aggregate_columns {
            builder = builder.aggregate(column.clone());
        }
        let mut lowered = builder.build().compile().expect("plan lowers");
        lowered.reorder(&peo).expect("reorder");
        let drained = popt::cpu::walker_batches();
        let mut cpu_f = SimCpu::new(CpuConfig::tiny_test());
        let mut cpu_o = SimCpu::new(CpuConfig::tiny_test());
        let mut cpu_l = SimCpu::new(CpuConfig::tiny_test());
        let mut cpu_i = SimCpu::new(CpuConfig::tiny_test());
        let mut start = 0usize;
        while start < ROWS {
            let end = (start + vector).min(ROWS);
            fast.set_scalar_oracle(false);
            let sf = fast.run_range(&mut cpu_f, start, end);
            let si = common::beside_decoy(|| fast.run_range(&mut cpu_i, start, end));
            fast.set_scalar_oracle(true);
            let so = fast.run_range(&mut cpu_o, start, end);
            let sl = lowered.run_range(&mut cpu_l, start, end);
            prop_assert_eq!(&sf, &so, "vector {}..{} preds {}", start, end, preds);
            prop_assert_eq!(cpu_f.counters(), cpu_o.counters());
            prop_assert_eq!(&sl, &sf, "lowered, vector {}..{} peo {:?}", start, end, &peo);
            prop_assert_eq!(cpu_l.counters(), cpu_f.counters());
            prop_assert!(cpu_l.predictor() == cpu_f.predictor(), "predictor, peo {:?}", &peo);
            prop_assert_eq!(&si, &sf, "inline core, vector {}..{}", start, end);
            prop_assert_eq!(cpu_i.counters(), cpu_f.counters());
            prop_assert!(cpu_i.predictor() == cpu_f.predictor(), "inline core predictor");
            start = end;
        }
        common::assert_walker_drained_since(drained);

        let cfg = CpuConfig::tiny_test();
        let streams = fast.plan_geometry(ROWS as u64, &cfg, cfg.llc().capacity_bytes, &[]);
        prop_assert!(streams.probes.is_empty(), "a probe-free program has no probe list");
        let mut all_none = streams.clone();
        all_none.probes = vec![None; preds];
        let mut survivors = Vec::with_capacity(preds);
        let mut left = ROWS as f64;
        for _ in 0..preds {
            left *= (xorshift64(&mut state) % 1001) as f64 / 1000.0;
            survivors.push(left);
        }
        prop_assert_eq!(
            estimate_counters(&streams, &survivors),
            estimate_counters(&all_none, &survivors)
        );
    }

    /// Morsel-parallel execution: the batched fast path and the scalar
    /// oracle produce the **same full report** — per-worker cycles, wall
    /// cycles, counters, switches, final orders — across socket counts,
    /// worker counts, LLC modes, and reoptimization off and on.
    #[test]
    fn parallel_report_matches_oracle(
        stages in 1usize..4,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
        workers in 1usize..7,
        sockets in 1usize..3,
        morsel_tuples in 128usize..1500,
    ) {
        let (fact, dim) = tables(seed);
        let order: Vec<usize> = (0..stages).collect();
        let sockets = sockets.min(workers); // topology requires sockets <= cores
        for mode in [LlcMode::Private, LlcMode::Shared] {
            for progressive in [false, true] {
                let config = ProgressiveConfig { reop_interval: 2 };
                let run = |oracle: bool| {
                    let p = plan(&fact, &dim, stages, kinds, lit);
                    let mut program = p.compile().expect("plan lowers");
                    program.set_scalar_oracle(oracle);
                    let mut pool =
                        CpuPool::with_topology(CpuConfig::tiny_test(), workers, mode, sockets);
                    run_parallel_program_observed(
                        &mut program,
                        &order,
                        MorselConfig::new(morsel_tuples),
                        &mut pool,
                        progressive.then_some(&config), &ExecObservers::none(),
                    )
                    .expect("parallel run succeeds")
                };
                prop_assert_eq!(
                    &run(false), &run(true),
                    "mode={:?} sockets={} workers={} morsel={} progressive={}",
                    mode, sockets, workers, morsel_tuples, progressive
                );
            }
        }
    }
}
