//! Cross-crate integration: the Section 4.5 hazards — skewed value drift
//! and correlated attributes — against the progressive optimizer.

use popt::core::plan::SelectionPlan;
use popt::core::predicate::{CompareOp, Predicate};
use popt::core::query::{QueryBuilder, QueryReport, RunMode};
use popt::cpu::CpuConfig;
use popt::storage::distribution::correlated_pair;
use popt::storage::{AddressSpace, ColumnData, Table};

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const PROGRESSIVE: RunMode = RunMode::Progressive { reop_interval: 2 };

/// `plan` from `peo` in 8192-tuple vectors on a fresh Ivy Bridge core.
fn run(t: &Table, plan: &SelectionPlan, peo: &[usize], mode: RunMode) -> QueryReport {
    QueryBuilder::new(t, plan.clone())
        .initial_peo(peo.to_vec())
        .vector_tuples(8_192)
        .cpu(CpuConfig::ivy_bridge())
        .run(mode)
        .unwrap()
}

/// A table whose selectivity relationship *flips* halfway through: in the
/// first half column `a` is the selective one, in the second half `b`.
fn drift_table(rows: usize) -> Table {
    let half = rows / 2;
    let mut space = AddressSpace::new();
    let mut t = Table::new("drift");
    let a: Vec<i32> = (0..rows)
        .map(|i| {
            let r = (splitmix(i as u64 ^ 0xA) % 1000) as i32;
            if i < half {
                r / 10 // 0..100 of 1000: predicate `< 100` passes ~100%... keep raw
            } else {
                r
            }
        })
        .collect();
    let b: Vec<i32> = (0..rows)
        .map(|i| {
            let r = (splitmix(i as u64 ^ 0xB) % 1000) as i32;
            if i < half {
                r
            } else {
                r / 10
            }
        })
        .collect();
    t.add_column("a", ColumnData::I32(a), &mut space);
    t.add_column("b", ColumnData::I32(b), &mut space);
    t
}

#[test]
fn selectivity_drift_triggers_mid_query_reordering() {
    // Predicates `a < 50`, `b < 50`: in the first half `a < 50` passes
    // ~50% (values 0..100) and `b < 50` ~5%; in the second half the roles
    // swap. The optimal PEO flips at the midpoint.
    let rows = 1 << 18;
    let t = drift_table(rows);
    let plan = SelectionPlan::new(
        vec![
            Predicate::new("a", CompareOp::Lt, 50),
            Predicate::new("b", CompareOp::Lt, 50),
        ],
        vec![],
    )
    .unwrap();
    let prog = run(&t, &plan, &[0, 1], PROGRESSIVE);
    // First half: `a` is dilute (0..100) so `a<50` passes ~50% while
    // `b<50` passes ~5% — optimal order [1,0]. Second half: roles swap —
    // optimal order [0,1]. The run must switch and end on [0,1].
    assert!(
        prog.switches.iter().any(|s| !s.reverted),
        "{:?}",
        prog.switches
    );
    assert_eq!(prog.final_peo, vec![0, 1], "{:?}", prog.switches);

    // And it must beat both static orders.
    for peo in [[0usize, 1], [1, 0]] {
        let base = run(&t, &plan, &peo, RunMode::Baseline);
        assert_eq!(base.result, prog.result);
        assert!(
            prog.cycles < base.cycles,
            "static {peo:?}: {} cycles, progressive {}",
            base.cycles,
            prog.cycles
        );
    }
}

#[test]
fn correlated_predicates_do_not_thrash_the_optimizer() {
    // Two predicates on (almost) the same values: conditional selectivity
    // of the second is near 1 whichever runs first, so reordering cannot
    // help. The optimizer must settle instead of paying an endless
    // sequence of trial-and-revert vectors (the rejection back-off:
    // REJECTION_TTL rounds, doubled at each repeat rejection).
    let rows = 1 << 17;
    let (a, b) = correlated_pair(rows, 1000, 5, 0xC0DE);
    let mut space = AddressSpace::new();
    let mut t = Table::new("corr");
    t.add_column("a", ColumnData::I32(a), &mut space);
    t.add_column("b", ColumnData::I32(b), &mut space);
    let plan = SelectionPlan::new(
        vec![
            Predicate::new("a", CompareOp::Lt, 300),
            Predicate::new("b", CompareOp::Lt, 320),
        ],
        vec![],
    )
    .unwrap();
    let prog = run(&t, &plan, &[0, 1], PROGRESSIVE);

    let reverted = prog.switches.iter().filter(|s| s.reverted).count();
    assert!(
        reverted <= prog.estimates / 2 + 1,
        "thrashing: {reverted} reverted switches over {} estimates",
        prog.estimates
    );

    // Cost must stay close to the better static order.
    let base = run(&t, &plan, &[0, 1], RunMode::Baseline);
    assert!(
        (prog.cycles as f64) < base.cycles as f64 * 1.25,
        "progressive {} vs static {}",
        prog.cycles,
        base.cycles
    );
}

#[test]
fn exploration_is_stall_gated() {
    // Exploration (Section 4.5) only fires when optimization stalls —
    // i.e. estimator proposals keep getting rejected. A continuously converging
    // workload must never pay for it; a correlated workload that causes
    // estimator/measurement disagreement may probe alternate orders, but
    // must stay within a modest premium of the static plan.
    let rows = 1 << 17;

    // Converging workload: no exploratory switches at all.
    let t = drift_table(rows);
    let plan = SelectionPlan::new(
        vec![
            Predicate::new("a", CompareOp::Lt, 50),
            Predicate::new("b", CompareOp::Lt, 50),
        ],
        vec![],
    )
    .unwrap();
    let converging = run(&t, &plan, &[0, 1], PROGRESSIVE);
    assert!(
        converging.switches.iter().all(|s| !s.exploratory),
        "{:?}",
        converging.switches
    );

    // Correlated workload: whether or not exploration fires, the run must
    // stay near the static cost and produce the exact answer.
    let (a, b) = correlated_pair(rows, 1000, 5, 0xC0DE);
    let mut space = AddressSpace::new();
    let mut t = Table::new("corr");
    t.add_column("a", ColumnData::I32(a), &mut space);
    t.add_column("b", ColumnData::I32(b), &mut space);
    let plan = SelectionPlan::new(
        vec![
            Predicate::new("a", CompareOp::Lt, 300),
            Predicate::new("b", CompareOp::Lt, 320),
        ],
        vec![],
    )
    .unwrap();
    let with = run(&t, &plan, &[0, 1], PROGRESSIVE);
    let base = run(&t, &plan, &[0, 1], RunMode::Baseline);
    assert_eq!(with.result, base.result);
    assert!((with.cycles as f64) < base.cycles as f64 * 1.3);
}
