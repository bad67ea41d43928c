//! Release-mode host-speed ratio gates: the batched fast path must beat
//! the scalar per-event oracle by at least 3x on the single-predicate
//! scan microbench (the shape where the closed-form line accounting
//! applies in full), and by at least the floor below on a clustered
//! 3-predicate aggregate scan (the shape run compression serves: long
//! runs of rows failing the leading predicate).
//!
//! The assertion is a *ratio* measured within one process — both sides
//! see the same machine, load, and frequency — so it is far more stable
//! than any absolute wall-clock bound. Still, it is host timing, so the
//! tests are `#[ignore]`d by default and CI runs them explicitly in
//! release, one at a time so that neither times the other's load
//! (`cargo test --release -p popt-bench --test ratio_gate -- --ignored
//! --test-threads=1`); a debug-mode run would gate nothing but noise.

use std::time::Instant;

use popt_bench::figures::fig14::scaled_cpu;
use popt_bench::figures::workload::xorshift64;
use popt_core::exec::scan::{CompiledSelection, VectorStats};
use popt_core::plan::SelectionPlan;
use popt_core::predicate::{CompareOp, Predicate};
use popt_cpu::{Counters, SimCpu};
use popt_storage::{AddressSpace, ColumnData, Table};

const ROWS: usize = 1 << 21;
const REPEATS: usize = 5;
const MIN_RATIO: f64 = 3.0;
/// A third below the 2.15x measured when run compression landed (the
/// same scan read 1.35x before it, so losing the run path trips this).
const MIN_CLUSTERED_RATIO: f64 = 1.43;

/// Best-of-`REPEATS` host seconds of one whole-table pass on either path,
/// with the pass's full simulated outcome.
fn best_pass(compiled: &mut CompiledSelection<'_>, oracle: bool) -> (f64, (VectorStats, Counters)) {
    compiled.set_scalar_oracle(oracle);
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..REPEATS {
        let mut cpu = SimCpu::new(scaled_cpu());
        let t0 = Instant::now();
        let stats = compiled.run_range(&mut cpu, 0, ROWS);
        best = best.min(t0.elapsed().as_secs_f64());
        out = Some((stats, cpu.counters()));
    }
    (best, out.expect("at least one repeat"))
}

/// Assert identity with the oracle and `batched ÷ oracle >= min_ratio`.
fn assert_ratio(compiled: &mut CompiledSelection<'_>, min_ratio: f64) {
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
    let mut compiled = CompiledSelection::compile(&table, &plan, &[0]).expect("scan compiles");
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
        CompiledSelection::compile(&table, &plan, &[0, 1, 2]).expect("scan compiles");
    assert_ratio(&mut compiled, MIN_CLUSTERED_RATIO);
}
