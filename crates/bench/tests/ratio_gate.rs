//! Release-mode host-speed ratio gates: the batched fast path must beat
//! the scalar per-event oracle by at least 3x on the single-predicate
//! scan microbench (the shape where the closed-form line accounting
//! applies in full), and by at least the floors below on a clustered
//! 3-predicate aggregate scan (the shape run compression serves: long
//! runs of rows failing the leading predicate) and on a 3-join star
//! whose co-clustered probe leads (runs of rows failing that probe). On
//! that star, a core whose hierarchy walks run on the walker thread beside
//! the row loop must also beat the same pass walked inline, while a decoy
//! core holds the walker.
//!
//! The assertion is a *ratio* measured within one process — both sides
//! see the same machine, load, and frequency — so it is far more stable
//! than any absolute wall-clock bound. Still, it is host timing, so the
//! tests are `#[ignore]`d by default and CI runs them explicitly in
//! release, one at a time so that neither times the other's load
//! (`cargo test --release -p popt-bench --test ratio_gate -- --ignored
//! --test-threads=1`); a debug-mode run would gate nothing but noise.

use std::thread;
use std::time::Instant;

use popt_bench::figures::fig14::scaled_cpu;
use popt_bench::figures::workload::xorshift64;
use popt_core::exec::program::CompiledProgram;
use popt_core::exec::scan::VectorStats;
use popt_core::plan::{Expr, PlanBuilder, SelectionPlan};
use popt_core::predicate::{CompareOp, Predicate};
use popt_cpu::{walker_batches, Counters, SimCpu};
use popt_storage::{AddressSpace, ColumnData, Table};

const ROWS: usize = 1 << 21;
const REPEATS: usize = 5;
const MIN_RATIO: f64 = 3.0;
/// A third below the 2.15x measured when run compression landed (the
/// same scan read 1.35x before it, so losing the run path trips this).
const MIN_CLUSTERED_RATIO: f64 = 1.43;
/// A third below the 1.18–1.30x measured when probe-led runs landed (the
/// clustered floor's margin; the same star read 1.16x before). Random
/// dimension probes, which both paths walk event by event, dominate this
/// shape, so the floor catches a fast path that falls behind the oracle;
/// the run path's exactness is `tests/proptest_runs.rs`'s to pin.
const MIN_STAR_RATIO: f64 = 0.8;
/// Walks on the walker thread against walks inline, on the probe-led
/// star: 30 % below the 1.69–1.87x measured when the walker landed
/// (1.0x would mean the pipe gains nothing).
const MIN_WALKER_RATIO: f64 = 1.2;

/// Best-of-`REPEATS` host seconds of one whole-table pass on either path,
/// with the pass's full simulated outcome.
fn best_pass(compiled: &mut CompiledProgram<'_>, oracle: bool) -> (f64, (VectorStats, Counters)) {
    compiled.set_scalar_oracle(oracle);
    best_pass_on(compiled, || SimCpu::new(scaled_cpu()))
}

/// Best-of-`REPEATS` host seconds of one whole-table pass on a fresh
/// `core()`, with the pass's full simulated outcome.
fn best_pass_on(
    compiled: &CompiledProgram<'_>,
    core: impl Fn() -> SimCpu,
) -> (f64, (VectorStats, Counters)) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPEATS {
        let mut cpu = core();
        let t0 = Instant::now();
        let stats = compiled.run_range(&mut cpu, 0, ROWS);
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some((stats, cpu.counters()));
    }
    (best, out.expect("at least one repeat"))
}

/// Assert identity with the oracle and `batched ÷ oracle >= min_ratio`.
fn assert_ratio(compiled: &mut CompiledProgram<'_>, min_ratio: f64) {
    let (fast_s, fast_out) = best_pass(compiled, false);
    let (slow_s, slow_out) = best_pass(compiled, true);
    assert_eq!(fast_out, slow_out, "fast path diverged from the oracle");
    let ratio = slow_s / fast_s;
    println!(
        "batched {:.2} ns/row, scalar oracle {:.2} ns/row, ratio {ratio:.2}x (gate {min_ratio}x)",
        fast_s * 1e9 / ROWS as f64,
        slow_s * 1e9 / ROWS as f64,
    );
    assert!(
        ratio >= min_ratio,
        "batched fast path is only {ratio:.2}x the scalar oracle (need >= {min_ratio}x)"
    );
}

#[test]
#[ignore = "host-timing gate; CI runs it in release via -- --ignored"]
fn batched_scan_is_at_least_3x_scalar_oracle() {
    let mut state = 0x5EEDu64;
    let val: Vec<i32> = (0..ROWS)
        .map(|_| (xorshift64(&mut state) % 1000) as i32)
        .collect();
    let mut space = AddressSpace::new();
    let mut table = Table::new("t");
    table.add_column("val", ColumnData::I32(val), &mut space);
    let plan = SelectionPlan::new(vec![Predicate::new("val", CompareOp::Lt, 500)], vec![])
        .expect("scan plan");
    let mut compiled = CompiledProgram::from_selection(&table, &plan, &[0]).expect("scan compiles");
    assert_ratio(&mut compiled, MIN_RATIO);
}

/// The Q6 shape: the leading column is clustered in runs of 1 000–3 000
/// rows and its predicate fails on ~80 % of them; two i.i.d. predicates
/// and an aggregate follow, so a fifth of the rows still take the
/// per-row path through all three stages.
#[test]
#[ignore = "host-timing gate; CI runs it in release via -- --ignored"]
fn batched_clustered_scan_beats_scalar_oracle_by_the_run_floor() {
    let mut state = 0xC1u64;
    let mut lead = Vec::with_capacity(ROWS);
    while lead.len() < ROWS {
        let len = 1_000 + (xorshift64(&mut state) % 2_000) as usize;
        let value = (xorshift64(&mut state) % 1000) as i32;
        lead.extend(std::iter::repeat_n(value, len.min(ROWS - lead.len())));
    }
    let mut space = AddressSpace::new();
    let mut table = Table::new("t");
    table.add_column("lead", ColumnData::I32(lead), &mut space);
    for name in ["a", "b", "agg"] {
        let data = (0..ROWS)
            .map(|_| (xorshift64(&mut state) % 1000) as i32)
            .collect();
        table.add_column(name, ColumnData::I32(data), &mut space);
    }
    let plan = SelectionPlan::new(
        vec![
            Predicate::new("lead", CompareOp::Lt, 200),
            Predicate::new("a", CompareOp::Lt, 500),
            Predicate::new("b", CompareOp::Lt, 500),
        ],
        vec!["agg".into()],
    )
    .expect("scan plan");
    let mut compiled =
        CompiledProgram::from_selection(&table, &plan, &[0, 1, 2]).expect("scan compiles");
    assert_ratio(&mut compiled, MIN_CLUSTERED_RATIO);
}

/// The `join_star` tables: a fact table with a co-clustered customer FK
/// (`fk = i / 4`), two random FKs, a selection and an aggregate column,
/// and three dimensions of 1/4, 1/8 and 1/64 of its rows.
fn star_tables() -> [Table; 4] {
    let mut state = 0x57A2u64;
    let mut uniform = |rows: usize, domain: u64| {
        let data = (0..rows)
            .map(|_| (xorshift64(&mut state) % domain) as i32)
            .collect();
        ColumnData::I32(data)
    };
    let dims = [ROWS / 4, ROWS / 8, ROWS / 64];
    let mut space = AddressSpace::new();
    let mut fact = Table::new("fact");
    let co_clustered = (0..ROWS).map(|i| (i / 4) as i32).collect();
    fact.add_column("fk_customer", ColumnData::I32(co_clustered), &mut space);
    fact.add_column("fk_supplier", uniform(ROWS, dims[1] as u64), &mut space);
    fact.add_column("fk_part", uniform(ROWS, dims[2] as u64), &mut space);
    fact.add_column("val", uniform(ROWS, 1000), &mut space);
    fact.add_column("agg", uniform(ROWS, 100), &mut space);
    let mut dim = |name: &str, rows: usize| {
        let mut t = Table::new(name);
        t.add_column("payload", uniform(rows, 1000), &mut space);
        t
    };
    let (customer, supplier, part) = (
        dim("customer", dims[0]),
        dim("supplier", dims[1]),
        dim("part", dims[2]),
    );
    [fact, customer, supplier, part]
}

/// The `join_star` plan in its converged order: the co-clustered
/// customer probe leads and fails ~70 % of rows, in runs of 4-row
/// groups; a selection, two random probes and an aggregate follow, so
/// the rest of the rows take the per-row path.
fn star_program(tables: &[Table; 4]) -> CompiledProgram<'_> {
    let [fact, customer, supplier, part] = tables;
    let payload = |literal: i64| Expr::col("payload").less_than(literal);
    PlanBuilder::scan(fact)
        .join(customer, "fk_customer", payload(300))
        .filter(Expr::col("val").less_than(500))
        .join(supplier, "fk_supplier", payload(500))
        .join(part, "fk_part", payload(700))
        .aggregate("agg")
        .build()
        .compile()
        .expect("star compiles")
}

/// The probe-led star against the scalar oracle.
#[test]
#[ignore = "host-timing gate; CI runs it in release via -- --ignored"]
fn batched_probe_led_star_beats_scalar_oracle_by_the_run_floor() {
    let tables = star_tables();
    let mut program = star_program(&tables);
    assert_ratio(&mut program, MIN_STAR_RATIO);
}

/// The probe-led star on a core whose batch hands its walks to the
/// walker thread, against the same pass while a decoy core holds a batch
/// open on the walker, so the pass finds it busy and walks inline: equal
/// outcomes, and the pipe must pay. A one-core host has no walker, so
/// there the case has nothing to measure.
#[test]
#[ignore = "host-timing gate; CI runs it in release via -- --ignored"]
fn walker_thread_beats_inline_walks_on_the_probe_led_star() {
    if thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        println!("skipped: one host core, so standalone cores walk inline too");
        return;
    }
    let tables = star_tables();
    let program = star_program(&tables);
    let drained = walker_batches();
    let (piped_s, piped_out) = best_pass_on(&program, || SimCpu::new(scaled_cpu()));
    assert!(
        walker_batches() > drained,
        "no pass ran on the walker thread"
    );
    let mut decoy = SimCpu::new(scaled_cpu());
    let open = decoy.batch();
    let drained = walker_batches();
    let (inline_s, inline_out) = best_pass_on(&program, || SimCpu::new(scaled_cpu()));
    assert_eq!(
        walker_batches(),
        drained,
        "a pass ran on the walker thread while the decoy held it"
    );
    drop(open);
    assert_eq!(
        piped_out, inline_out,
        "the walker thread diverged from inline walks"
    );
    let ratio = inline_s / piped_s;
    println!(
        "walker thread {:.2} ns/row, inline {:.2} ns/row, ratio {ratio:.2}x (gate {MIN_WALKER_RATIO}x)",
        piped_s * 1e9 / ROWS as f64,
        inline_s * 1e9 / ROWS as f64,
    );
    assert!(
        ratio >= MIN_WALKER_RATIO,
        "walks on the walker thread are only {ratio:.2}x inline (need >= {MIN_WALKER_RATIO}x)"
    );
}
