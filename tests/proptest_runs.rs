//! Property: on **clustered** inputs — columns built from runs, the
//! shape Q6 over date-clustered `lineitem` and every figure of §5.4
//! executes — the batched executors stay bit-identical to the scalar
//! per-event oracle.
//!
//! `proptest_fastpath.rs` draws i.i.d. values, so no case there ever sees
//! the same outcome many rows in a row. Here every column is a sequence
//! of runs (lengths 1…2 000: shorter than, about and far longer than any
//! internal look-ahead trigger; they straddle `run_range` call boundaries
//! and morsel boundaries), two stages share one column (as Q6's
//! `shipdate ≥`/`<` do), selections sit before and after a join, and the
//! predictor is varied down to a table so small that the leading site
//! and the loop back-edge alias one automaton. Joins probe either through
//! a run-valued FK or through a monotone co-clustered one (`key = offset +
//! i / group`, the offset putting group boundaries anywhere in a line), so
//! consecutive rows probe the same or the next dimension line; such a
//! join leads, sits between or follows the selections, and a second join
//! may probe the same dimension. Beyond `VectorStats` and
//! the counter bank, the comparison covers what a bulk-accounting
//! shortcut could silently corrupt: remote-access counts, the whole
//! predictor state (every automaton and the history register) and the
//! contents of every cache set. Every serial case runs the fast path on
//! a standalone core, whose batches hand their walks to the walker
//! thread, and again on the core of a 1-core pool, which walks inline;
//! both are compared whole against the oracle, and on a host with two
//! cores or more the walker thread must have drained batches.

use proptest::prelude::*;

use popt::core::exec::program::CompiledProgram;
use popt::core::parallel::{run_parallel_program, MorselConfig};
use popt::core::plan::{Expr, LogicalPlan, PlanBuilder, SelectionPlan};
use popt::core::predicate::{CompareOp, Predicate};
use popt::cpu::{CpuConfig, CpuPool, LlcMode, NumaPlacement, PredictorConfig, SimCpu};
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::fig14::scaled_cpu;
use popt_bench::figures::workload::xorshift64;

mod common;

const ROWS: usize = 8_192;
const DIM_ROWS: usize = ROWS / 8;
/// Values are drawn from `0..DOMAIN`, literals from `1..DOMAIN`.
const DOMAIN: u64 = 8;
/// The column each stage ordinal reads: stages 0 and 1 always share one.
const STAGE_COLUMN: [usize; 6] = [0, 0, 1, 2, 1, 3];

/// A column of runs: each run repeats one value for a length drawn from
/// a short (≤ 8), a medium (≤ 64) or a long (≤ 2 000) scale.
fn run_column(state: &mut u64, rows: usize, domain: u64) -> Vec<i32> {
    let mut out = Vec::with_capacity(rows);
    while out.len() < rows {
        let scale = [8, 64, 2_000][(xorshift64(state) % 3) as usize];
        let len = 1 + (xorshift64(state) % scale) as usize;
        let value = (xorshift64(state) % domain) as i32;
        out.extend(std::iter::repeat_n(value, len.min(rows - out.len())));
    }
    out
}

/// Fact with four run-clustered value columns and a run-clustered FK;
/// dimension with a random payload. One address space, so a placement
/// can home parts of either table on another socket.
fn tables(seed: u64) -> (Table, Table) {
    let (fact, dim, _) = co_tables(seed, 1, 0);
    (fact, dim)
}

/// [`tables`], plus a monotone co-clustered FK `fk_co = offset + i /
/// group` on the fact table and the dimension it keys, whose payload is
/// run-clustered (so consecutive keys fail or pass together for long
/// stretches, as well as for a few groups).
fn co_tables(seed: u64, group: usize, offset: usize) -> (Table, Table, Table) {
    let mut state = seed | 1;
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    for c in 0..4 {
        let data = run_column(&mut state, ROWS, DOMAIN);
        fact.add_column(format!("c{c}"), ColumnData::I32(data), &mut space);
    }
    let fk = run_column(&mut state, ROWS, DIM_ROWS as u64);
    fact.add_column("fk", ColumnData::I32(fk), &mut space);
    let mut dim = Table::new("dim");
    let payload = (0..DIM_ROWS)
        .map(|_| (xorshift64(&mut state) % DOMAIN) as i32)
        .collect();
    dim.add_column("payload", ColumnData::I32(payload), &mut space);
    let fk_co = (0..ROWS).map(|i| (offset + i / group) as i32).collect();
    fact.add_column("fk_co", ColumnData::I32(fk_co), &mut space);
    // At least DIM_ROWS rows, so the run-valued FK may key it too.
    let co_rows = (offset + ROWS.div_ceil(group)).max(DIM_ROWS);
    let mut co_dim = Table::new("co_dim");
    let payload = run_column(&mut state, co_rows, DOMAIN);
    co_dim.add_column("payload", ColumnData::I32(payload), &mut space);
    (fact, dim, co_dim)
}

/// `column ≥ lit` on even stage ordinals, `column < lit` on odd ones, so
/// the two stages sharing column 0 bracket a range like Q6's dates.
fn stage_op(k: usize) -> CompareOp {
    if k % 2 == 0 {
        CompareOp::Ge
    } else {
        CompareOp::Lt
    }
}

fn stage_literal(k: usize, lit: i64) -> i64 {
    1 + (lit + 3 * k as i64) % (DOMAIN as i64 - 1)
}

/// One join of a plan: inserted before selection `at` (`at == stages`:
/// after all of them; `> stages`: left out), probing `dim` through `fk`.
struct JoinAt<'t> {
    at: usize,
    dim: &'t Table,
    fk: &'static str,
    on: Expr,
}

/// `stages` selections with a join inserted before selection `join_at`
/// (`join_at == stages`: after all of them; `> stages`: no join).
fn program_plan<'t>(
    fact: &'t Table,
    dim: &'t Table,
    stages: usize,
    join_at: usize,
    lit: i64,
    with_agg: bool,
) -> LogicalPlan<'t> {
    let join = JoinAt {
        at: join_at,
        dim,
        fk: "fk",
        on: Expr::col("payload").less_than(lit),
    };
    plan_with_joins(fact, stages, &[join], lit, with_agg)
}

/// `stages` selections with `joins` inserted where each says, in the
/// given order where two share a position.
fn plan_with_joins<'t>(
    fact: &'t Table,
    stages: usize,
    joins: &[JoinAt<'t>],
    lit: i64,
    with_agg: bool,
) -> LogicalPlan<'t> {
    let join_at = |mut b: PlanBuilder<'t>, k: usize| {
        for j in joins.iter().filter(|j| j.at == k) {
            b = b.join(j.dim, j.fk, j.on.clone());
        }
        b
    };
    let mut builder = PlanBuilder::scan(fact);
    for (k, &column) in STAGE_COLUMN.iter().enumerate().take(stages) {
        builder = join_at(builder, k);
        let col = Expr::col(format!("c{column}"));
        let literal = stage_literal(k, lit);
        let predicate = match stage_op(k) {
            CompareOp::Ge => col.at_least(literal),
            _ => col.less_than(literal),
        };
        builder = builder.filter_costed(predicate, k as u64 * 7);
    }
    builder = join_at(builder, stages);
    if with_agg {
        builder = builder.aggregate("c3");
    }
    builder.build()
}

/// The CPU under test: tiny or scaled (8 KiB / 64 KiB / 1 MiB) hierarchy
/// with the case's predictor.
fn cpu_config(scaled: bool, predictor: PredictorConfig) -> CpuConfig {
    let mut cfg = if scaled {
        scaled_cpu()
    } else {
        CpuConfig::tiny_test()
    };
    cfg.predictor = predictor;
    cfg
}

/// History 0 / 4 / 8 / 16 bits (16 is longer than the rows that precede
/// any look-ahead can fill, so the register is still moving while a
/// saturated automaton is not), 2–8 states split evenly or — `skewed` —
/// with a single taken state (the automaton then mispredicts a run of
/// taken branches right up to the row that saturates it), and a table of
/// 1, 4 or 4 096 automata — with one automaton every site aliases the
/// back-edge.
fn predictor(history_pick: usize, states: u8, skewed: bool, table_pick: usize) -> PredictorConfig {
    PredictorConfig {
        states,
        not_taken_states: if skewed { states - 1 } else { states / 2 },
        history_bits: [0, 4, 8, 16][history_pick],
        table_bits: [0, 2, 12][table_pick],
    }
}

/// A fresh core — standalone, or with `pooled` the core of a 1-core pool;
/// with `numa`, on socket 1 of a two-socket placement that homes the
/// first half of every fact column on socket 0 (so the bulk load path
/// crosses home segments) and interleaves the rest.
fn core(cfg: &CpuConfig, fact: &Table, numa: bool, pooled: bool) -> SimCpu {
    let mut cpu = if pooled {
        common::pool_core(cfg.clone())
    } else {
        SimCpu::new(cfg.clone())
    };
    if numa {
        let mut placement = NumaPlacement::interleaved(2);
        for c in 0..4 {
            let column = fact.column(&format!("c{c}")).expect("value column");
            placement.register(column.base_addr(), (ROWS as u64 / 2) * 4, c % 2);
        }
        cpu.set_placement(placement);
        cpu.set_socket(1);
    }
    cpu
}

/// Everything a simulated core carries, compared piece by piece so a
/// failure names what diverged.
fn assert_same_core(fast: &SimCpu, oracle: &SimCpu) {
    assert_eq!(fast.counters(), oracle.counters(), "counters");
    assert_eq!(
        fast.remote_accesses(),
        oracle.remote_accesses(),
        "remote accesses"
    );
    assert_eq!(
        fast.predictor().history(),
        oracle.predictor().history(),
        "history register"
    );
    assert!(
        fast.predictor() == oracle.predictor(),
        "predictor automata diverged"
    );
    for lvl in 0..fast.hierarchy().depth() {
        let (lf, lo) = (fast.hierarchy().level(lvl), oracle.hierarchy().level(lvl));
        assert_eq!(lf.demand, lo.demand, "L{} demand stats", lvl + 1);
        assert_eq!(lf.prefetch, lo.prefetch, "L{} prefetch stats", lvl + 1);
        for set in 0..lf.set_count() as usize {
            assert_eq!(
                lf.set_lines(set),
                lo.set_lines(set),
                "L{} set {set}",
                lvl + 1
            );
        }
    }
}

proptest! {
    /// Compiled programs (selections before and after a join, a
    /// mid-run reorder) over random vector boundaries.
    #[test]
    fn clustered_program_matches_oracle(
        stages in 1usize..7,
        join_at in 0usize..9,
        lit in 0i64..7,
        seed in any::<u64>(),
        vector in 100usize..3000,
        with_agg in any::<bool>(),
        history_pick in 0usize..4,
        states in 2u8..9,
        skewed in any::<bool>(),
        table_pick in 0usize..3,
        scaled in any::<bool>(),
        numa in any::<bool>(),
    ) {
        let (fact, dim) = tables(seed);
        let plan = program_plan(&fact, &dim, stages, join_at, lit, with_agg);
        let mut fast = plan.compile().expect("plan lowers");
        let mut oracle = fast.clone();
        oracle.set_scalar_oracle(true);
        let cfg = cpu_config(scaled, predictor(history_pick, states, skewed, table_pick));
        let drained = popt::cpu::walker_batches();
        let mut cpu_f = core(&cfg, &fact, numa, false);
        let mut cpu_o = core(&cfg, &fact, numa, false);
        let mut cpu_p = core(&cfg, &fact, numa, true);
        let reversed: Vec<usize> = (0..fast.len()).rev().collect();
        let mut start = 0usize;
        let mut flipped = false;
        while start < ROWS {
            let end = (start + vector).min(ROWS);
            if !flipped && start >= ROWS / 2 {
                fast.reorder(&reversed).expect("reorder");
                oracle.reorder(&reversed).expect("reorder");
                flipped = true;
            }
            let sf = fast.run_range(&mut cpu_f, start, end);
            let so = oracle.run_range(&mut cpu_o, start, end);
            prop_assert_eq!(&fast.run_range(&mut cpu_p, start, end), &sf, "pool core");
            prop_assert_eq!(&sf, &so, "vector {}..{}", start, end);
            prop_assert_eq!(cpu_f.counters(), cpu_o.counters(), "vector {}..{}", start, end);
            start = end;
        }
        assert_same_core(&cpu_f, &cpu_o);
        assert_same_core(&cpu_p, &cpu_o);
        common::assert_walker_drained_since(drained);
    }

    /// A join through the co-clustered FK (`group` ∈ {1, 2, 4, 16, 64}
    /// rows per key) leading, between or after the selections, optionally
    /// a second join into the same dimension — through the same FK or the
    /// run-valued one — over random vector boundaries and a mid-run
    /// reorder that moves the last stage to the front.
    #[test]
    fn co_clustered_probe_matches_oracle(
        stages in 0usize..5,
        join_at in 0usize..5,
        second in 0usize..3,
        second_at in 0usize..5,
        group_pick in 0usize..5,
        offset in 0usize..16,
        lit in 0i64..7,
        seed in any::<u64>(),
        vector in 100usize..3000,
        with_agg in any::<bool>(),
        history_pick in 0usize..4,
        states in 2u8..9,
        skewed in any::<bool>(),
        table_pick in 0usize..3,
        scaled in any::<bool>(),
        numa in any::<bool>(),
    ) {
        let group = [1, 2, 4, 16, 64][group_pick];
        let (fact, _dim, co_dim) = co_tables(seed, group, offset);
        let mut joins = vec![JoinAt {
            at: join_at.min(stages),
            dim: &co_dim,
            fk: "fk_co",
            on: Expr::col("payload").less_than(stage_literal(0, lit)),
        }];
        if second > 0 {
            joins.push(JoinAt {
                at: second_at.min(stages),
                dim: &co_dim,
                fk: if second == 1 { "fk_co" } else { "fk" },
                on: Expr::col("payload").at_least(stage_literal(1, lit)),
            });
        }
        let plan = plan_with_joins(&fact, stages, &joins, lit, with_agg);
        let mut fast = plan.compile().expect("plan lowers");
        let mut oracle = fast.clone();
        oracle.set_scalar_oracle(true);
        let cfg = cpu_config(scaled, predictor(history_pick, states, skewed, table_pick));
        let drained = popt::cpu::walker_batches();
        let mut cpu_f = core(&cfg, &fact, numa, false);
        let mut cpu_o = core(&cfg, &fact, numa, false);
        let mut cpu_p = core(&cfg, &fact, numa, true);
        let n = fast.len();
        let rotated: Vec<usize> = (0..n).map(|k| (k + n - 1) % n).collect();
        let mut start = 0usize;
        let mut flipped = false;
        while start < ROWS {
            let end = (start + vector).min(ROWS);
            if !flipped && start >= ROWS / 2 {
                fast.reorder(&rotated).expect("reorder");
                oracle.reorder(&rotated).expect("reorder");
                flipped = true;
            }
            let sf = fast.run_range(&mut cpu_f, start, end);
            let so = oracle.run_range(&mut cpu_o, start, end);
            prop_assert_eq!(&fast.run_range(&mut cpu_p, start, end), &sf, "pool core");
            prop_assert_eq!(&sf, &so, "vector {}..{}", start, end);
            prop_assert_eq!(cpu_f.counters(), cpu_o.counters(), "vector {}..{}", start, end);
            start = end;
        }
        assert_same_core(&cpu_f, &cpu_o);
        assert_same_core(&cpu_p, &cpu_o);
        common::assert_walker_drained_since(drained);
    }

    /// Compiled selections in a rotated evaluation order, aggregate on
    /// and off.
    #[test]
    fn clustered_scan_matches_oracle(
        preds in 1usize..7,
        rotate in 0usize..6,
        lit in 0i64..7,
        seed in any::<u64>(),
        vector in 100usize..3000,
        with_agg in any::<bool>(),
        history_pick in 0usize..4,
        states in 2u8..9,
        skewed in any::<bool>(),
        table_pick in 0usize..3,
        scaled in any::<bool>(),
        numa in any::<bool>(),
    ) {
        let (fact, _dim) = tables(seed);
        let plan = SelectionPlan::new(
            (0..preds)
                .map(|k| {
                    Predicate::new(
                        format!("c{}", STAGE_COLUMN[k]),
                        stage_op(k),
                        stage_literal(k, lit),
                    )
                })
                .collect(),
            if with_agg { vec!["c3".into(), "c0".into()] } else { vec![] },
        ).expect("plan");
        let peo: Vec<usize> = (0..preds).map(|k| (k + rotate) % preds).collect();
        let fast = CompiledProgram::from_selection(&fact, &plan, &peo).expect("compiles");
        let mut oracle = CompiledProgram::from_selection(&fact, &plan, &peo).expect("compiles");
        oracle.set_scalar_oracle(true);
        let cfg = cpu_config(scaled, predictor(history_pick, states, skewed, table_pick));
        let drained = popt::cpu::walker_batches();
        let mut cpu_f = core(&cfg, &fact, numa, false);
        let mut cpu_o = core(&cfg, &fact, numa, false);
        let mut cpu_p = core(&cfg, &fact, numa, true);
        let mut start = 0usize;
        while start < ROWS {
            let end = (start + vector).min(ROWS);
            let sf = fast.run_range(&mut cpu_f, start, end);
            let so = oracle.run_range(&mut cpu_o, start, end);
            prop_assert_eq!(&fast.run_range(&mut cpu_p, start, end), &sf, "pool core");
            prop_assert_eq!(&sf, &so, "vector {}..{} peo {:?}", start, end, &peo);
            prop_assert_eq!(cpu_f.counters(), cpu_o.counters(), "vector {}..{}", start, end);
            start = end;
        }
        assert_same_core(&cpu_f, &cpu_o);
        assert_same_core(&cpu_p, &cpu_o);
        common::assert_walker_drained_since(drained);
    }

    /// Morsel-parallel execution with reoptimization off: the same full
    /// report — per-worker cycles, counters, remote accesses — from
    /// either path, on one and two sockets, private or shared LLC, tiny
    /// or scaled hierarchy.
    #[test]
    fn clustered_parallel_report_matches_oracle(
        stages in 1usize..5,
        join_at in 0usize..7,
        lit in 0i64..7,
        seed in any::<u64>(),
        workers in 1usize..5,
        sockets in 1usize..3,
        morsel_tuples in 100usize..3000,
        history_pick in 0usize..4,
        table_pick in 0usize..3,
        scaled in any::<bool>(),
        shared in any::<bool>(),
    ) {
        let (fact, dim) = tables(seed);
        let sockets = sockets.min(workers);
        let cfg = cpu_config(scaled, predictor(history_pick, 6, false, table_pick));
        let llc = if shared { LlcMode::Shared } else { LlcMode::Private };
        let run = |oracle: bool| {
            let plan = program_plan(&fact, &dim, stages, join_at, lit, true);
            let mut program = plan.compile().expect("plan lowers");
            program.set_scalar_oracle(oracle);
            let order: Vec<usize> = (0..program.len()).collect();
            let mut pool = CpuPool::with_topology(cfg.clone(), workers, llc, sockets);
            run_parallel_program(
                &mut program,
                &order,
                MorselConfig::new(morsel_tuples),
                &mut pool,
                None,
            )
            .expect("parallel run succeeds")
        };
        prop_assert_eq!(run(false), run(true));
    }
}
