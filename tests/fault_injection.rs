//! Fault injection through one rigged target (`common::rigged`): a
//! `set_order` that fails in the middle of a reoptimization round must
//! surface that error from the serial drive *and* from the pooled one —
//! no panic, no hang, no silently dropped round — and the failing
//! worker's siblings must not finish the scan. A shard that panics
//! mid-run unwinds to the caller and leaves the pool usable. Trials made
//! to regress exercise the serial drive's revert paths: the rejection
//! back-off and its reset on accept, a trial on the last vector, stall
//! exploration, and reverted explorations that never open one. Shards
//! whose first range runs cold show that a pooled trial is judged against
//! its core's previous warm morsel.

use std::panic::{self, AssertUnwindSafe};

use popt::core::parallel::{run_parallel_target_observed, MorselConfig};
use popt::core::plan::SelectionPlan;
use popt::core::predicate::{CompareOp, Predicate};
use popt::core::progressive::{
    run_progressive_target_observed, CompiledTarget, ProgressiveConfig, ProgressiveReport,
    VectorConfig, REJECTION_BACKOFF_CAP, REJECTION_TTL,
};
use popt::core::{CompiledProgram, ExecObservers, Peo};
use popt::cpu::{CpuConfig, CpuPool, SimCpu};
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::{star_program, star_schema};

mod common;
use common::rigged::{injected, Rigged};
use common::small_cache_cpu;

const ROWS: usize = 1 << 16;
const START: [usize; 4] = [3, 2, 1, 0];

fn config() -> ProgressiveConfig {
    ProgressiveConfig { reop_interval: 2 }
}

#[test]
fn serial_drive_returns_the_injected_error() {
    let star = star_schema(ROWS, 0x57A12);
    let run = |fail_at: usize| {
        let mut program = star_program(&star, Some(0.5), [0.5, 0.5, 0.5]);
        program.reorder(&START).unwrap();
        let mut target =
            Rigged::new(CompiledTarget::new(&mut program)).with_failing_set_order(fail_at);
        run_progressive_target_observed(
            &mut target,
            VectorConfig {
                vector_tuples: 2048,
                max_vectors: None,
            },
            &mut SimCpu::new(small_cache_cpu()),
            &config(),
            &ExecObservers::none(),
        )
    };
    let clean = run(usize::MAX).expect("the wrapper is transparent until it fails");
    assert!(clean.switches.len() >= 4, "{:?}", clean.switches);
    for fail_at in 1..=4 {
        assert_eq!(run(fail_at), Err(injected()), "fail_at={fail_at}");
    }
}

/// The pooled drive at 1, 2 and 4 workers. Its driver (one host thread
/// stepping the workers in simulated-time order; a step's error ends the
/// run at once, so no sibling takes another step) and its morsel steps
/// are the query server's too, so this also covers the server's error
/// path, which no test can reach from outside: a served query's
/// `CompiledTarget` never fails `set_order` on a valid order.
#[test]
fn pooled_drive_returns_the_injected_error_and_siblings_stop() {
    let star = star_schema(ROWS, 0x57A12);
    let run = |workers: usize, fail_at: usize| {
        let mut program = star_program(&star, Some(0.5), [0.5, 0.5, 0.5]);
        program.reorder(&START).unwrap();
        let mut target =
            Rigged::new(CompiledTarget::new(&mut program)).with_failing_set_order(fail_at);
        let mut pool = CpuPool::new(small_cache_cpu(), workers);
        let report = run_parallel_target_observed(
            &mut target,
            MorselConfig::new(1024),
            &mut pool,
            Some(&config()),
            &ExecObservers::none(),
        );
        (report, pool.total_cycles())
    };
    for workers in [1, 2, 4] {
        let (clean, clean_cycles) = run(workers, usize::MAX);
        clean.expect("the wrapper is transparent until it fails");
        // The master target's first `set_order` calls set the published
        // order at the start of each due round and before each probe
        // between rounds; later ones also cover trial resolution.
        for fail_at in 1..=4 {
            let (report, cycles) = run(workers, fail_at);
            assert_eq!(
                report,
                Err(injected()),
                "workers={workers} fail_at={fail_at}"
            );
            // The run stops at the failing step: most of the 64 morsels
            // never run.
            assert!(
                cycles < clean_cycles / 2,
                "workers={workers} fail_at={fail_at}: \
                 {cycles} of {clean_cycles} cycles still executed"
            );
        }
    }
}

/// A shard that panics mid-run unwinds through the pooled driver to the
/// caller, at 1, 2 and 4 workers, with no lock to poison and no worker
/// thread to join: the same pool then runs the scan to the answer a
/// fresh pool gives.
#[test]
fn a_panicking_shard_unwinds_to_the_caller_and_the_pool_runs_on() {
    let star = star_schema(ROWS, 0x57A12);
    let run = |pool: &mut CpuPool, panic_at: usize| {
        let mut program = star_program(&star, Some(0.5), [0.5, 0.5, 0.5]);
        program.reorder(&START).unwrap();
        let mut target =
            Rigged::new(CompiledTarget::new(&mut program)).with_panicking_shards_at(panic_at);
        run_parallel_target_observed(
            &mut target,
            MorselConfig::new(1024),
            pool,
            Some(&config()),
            &ExecObservers::none(),
        )
    };
    for workers in [1, 2, 4] {
        let fresh = run(&mut CpuPool::new(small_cache_cpu(), workers), usize::MAX)
            .expect("the wrapper is transparent until it panics");
        let mut pool = CpuPool::new(small_cache_cpu(), workers);
        let unwound = panic::catch_unwind(AssertUnwindSafe(|| run(&mut pool, 3)));
        assert!(unwound.is_err(), "workers={workers}: the panic must unwind");
        let again = run(&mut pool, usize::MAX).expect("the pool runs on");
        assert_eq!(
            (again.qualified, again.sum, again.morsels),
            (fresh.qualified, fresh.sum, fresh.morsels),
            "workers={workers}"
        );
    }
}

/// Table where predicate selectivities are very different: `lo` passes
/// 5%, `mid` 50%, `hi` 95% — the optimal order is [lo, mid, hi].
fn skewed_table(n: usize) -> Table {
    let mut space = AddressSpace::new();
    let mut t = Table::new("t");
    let pseudo = |i: usize, salt: u64| -> i32 {
        let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17) ^ salt;
        ((x >> 33) % 100) as i32
    };
    for (salt, name) in [(1, "lo"), (2, "mid"), (3, "hi")] {
        let data = (0..n).map(|i| pseudo(i, salt)).collect();
        t.add_column(name, ColumnData::I32(data), &mut space);
    }
    t
}

fn skewed_plan() -> SelectionPlan {
    SelectionPlan::new(
        vec![
            Predicate::new("lo", CompareOp::Lt, 5),
            Predicate::new("mid", CompareOp::Lt, 50),
            Predicate::new("hi", CompareOp::Lt, 95),
        ],
        vec![],
    )
    .unwrap()
}

/// The serial drive over the skewed scan from the worst order
/// `[hi, mid, lo]`, one round per vector, on the rigged target `rig`
/// makes of it.
fn rigged_scan(
    rows: usize,
    vector_tuples: usize,
    rig: impl for<'p, 't> FnOnce(Rigged<CompiledTarget<'p, 't>>) -> Rigged<CompiledTarget<'p, 't>>,
) -> ProgressiveReport {
    let t = skewed_table(rows);
    let mut program = CompiledProgram::from_selection(&t, &skewed_plan(), &[2, 1, 0]).unwrap();
    let mut target = rig(Rigged::new(CompiledTarget::new(&mut program)));
    run_progressive_target_observed(
        &mut target,
        VectorConfig {
            vector_tuples,
            max_vectors: None,
        },
        &mut SimCpu::new(CpuConfig::ivy_bridge()),
        &ProgressiveConfig { reop_interval: 1 },
        &ExecObservers::none(),
    )
    .unwrap()
}

/// [`rigged_scan`] with every trial made to regress.
fn regressing_scan(rows: usize, vector_tuples: usize) -> ProgressiveReport {
    rigged_scan(rows, vector_tuples, |rigged| {
        rigged.with_regressing_trials()
    })
}

/// The gaps, in vectors, between successive estimator proposals of each
/// order, in the order the orders were first proposed.
fn reproposal_gaps(report: &ProgressiveReport) -> Vec<(Peo, Vec<usize>)> {
    let mut gaps: Vec<(Peo, Vec<usize>, usize)> = Vec::new();
    for s in report.switches.iter().filter(|s| !s.exploratory) {
        match gaps.iter_mut().find(|(order, _, _)| order == &s.to) {
            Some((_, g, last)) => {
                g.push(s.vector - *last);
                *last = s.vector;
            }
            None => gaps.push((s.to.clone(), Vec::new(), s.vector)),
        }
    }
    gaps.into_iter().map(|(order, g, _)| (order, g)).collect()
}

/// Rounds the policy suppresses an order after its `k`-th rejection
/// (1-based) since the last accept.
fn backoff(k: u32) -> usize {
    (REJECTION_TTL << (k - 1)).min(REJECTION_BACKOFF_CAP)
}

#[test]
fn rejection_ttl_gates_reproposal_of_reverted_orders() {
    // Every trial regresses: the estimator keeps proposing better orders
    // and every proposal is reverted. The first rejection of an order
    // suppresses it for `REJECTION_TTL` rounds and each repeat for twice
    // as long as the last, up to `REJECTION_BACKOFF_CAP`; with
    // reop_interval = 1 a round opens after every vector.
    let prog = regressing_scan(1 << 16, 512);
    assert!(prog.switches.iter().all(|s| s.reverted));
    let gaps = reproposal_gaps(&prog);
    for (order, gaps) in &gaps {
        for (k, &gap) in (1..).zip(gaps) {
            assert!(
                gap > backoff(k),
                "{order:?} re-proposed within its back-off: {:?}",
                prog.switches
            );
        }
    }
    // The estimator's steady proposal comes back one round after its
    // suppression ends once the rounds after each rejection are the
    // estimator's (early on, other proposals and the explorations of the
    // stall window take some): its gaps double up to the cap, then hold.
    let (order, steady) = &gaps[0];
    let expected: Vec<usize> = (3..=steady.len() as u32).map(|k| backoff(k) + 1).collect();
    assert_eq!(steady[2..], expected, "{order:?}: {:?}", prog.switches);
    assert!(
        expected
            .iter()
            .filter(|&&g| g == REJECTION_BACKOFF_CAP + 1)
            .count()
            >= 2,
        "the back-off must reach its cap and stay there: {steady:?}"
    );
}

#[test]
fn an_accepted_order_clears_the_back_off() {
    // Every trial regresses but the stall exploration's `[lo, hi, mid]`:
    // the estimator's `[lo, mid, hi]` is rejected, the exploration is
    // accepted, and from then on `[lo, mid, hi]` backs off as if it had
    // never been rejected — its first post-accept rejection suppresses
    // it for `REJECTION_TTL` rounds again, not twice that.
    let prog = rigged_scan(1 << 16, 512, |rigged| {
        rigged.with_regressing_trials().sparing(&[0, 2, 1])
    });
    let accepted = prog
        .switches
        .iter()
        .find(|s| !s.reverted)
        .unwrap_or_else(|| panic!("the spared order must be accepted: {:?}", prog.switches));
    assert!(accepted.exploratory && accepted.to == [0, 2, 1]);
    assert_eq!(prog.final_peo, vec![0, 2, 1]);
    let proposals = |before: bool| -> Vec<usize> {
        prog.switches
            .iter()
            .filter(|s| !s.exploratory && s.to == [0, 1, 2])
            .filter(|s| (s.vector < accepted.vector) == before)
            .map(|s| s.vector)
            .collect()
    };
    assert!(!proposals(true).is_empty(), "{:?}", prog.switches);
    let after = proposals(false);
    let gaps: Vec<usize> = after.windows(2).map(|w| w[1] - w[0]).collect();
    let expected: Vec<usize> = (1..=gaps.len() as u32).map(|k| backoff(k) + 1).collect();
    assert!(gaps.len() >= 4, "{:?}", prog.switches);
    assert_eq!(gaps, expected, "{:?}", prog.switches);
}

#[test]
fn reverted_explorations_alone_never_open_stall_exploration() {
    // A target that asks for the same measurement probe at every round,
    // every trial regressing: every round spends the probe and every
    // probe is reverted, but no estimator proposal is ever rejected, so
    // the run never counts as stalled and never explores the rotated
    // order `[lo, hi, mid]`.
    let prog = rigged_scan(1 << 14, 512, |rigged| {
        rigged
            .with_regressing_trials()
            .with_probe_every_round(&[0, 1, 2])
    });
    assert_eq!(prog.estimates, 0);
    assert_eq!(prog.switches.len(), prog.vectors - 1, "{:?}", prog.switches);
    assert!(
        prog.switches
            .iter()
            .all(|s| s.exploratory && s.reverted && s.to == [0, 1, 2]),
        "{:?}",
        prog.switches
    );
}

#[test]
fn trial_on_last_vector_is_still_resolved() {
    // Schedule the only possible switch so that its trial vector is the
    // final vector of the scan: the regression must be detected and the
    // switch reverted rather than silently accepted.
    let prog = regressing_scan(4096, 2048); // 2 vectors: reopt after v0, trial = v1
    assert_eq!(prog.vectors, 2);
    assert_eq!(prog.switches.len(), 1, "{:?}", prog.switches);
    assert!(
        prog.switches[0].reverted,
        "last-vector trial left unresolved: {:?}",
        prog.switches
    );
    assert_eq!(prog.final_peo, vec![2, 1, 0], "revert must restore order");
}

#[test]
fn exploration_fires_when_stalled() {
    // Every trial "regresses": all proposals are rejected, the run
    // stalls, and exploration must kick in. (That a converging run never
    // explores is `progressive`'s unit test.)
    let stalled = regressing_scan(16_384, 512);
    assert!(stalled.switches.iter().any(|s| s.reverted));
    assert!(
        stalled.switches.iter().any(|s| s.exploratory),
        "{:?}",
        stalled.switches
    );
}

#[test]
fn a_pooled_trial_is_judged_against_its_cores_previous_warm_morsel() {
    // One worker over the skewed scan from its best order `[lo, mid, hi]`,
    // a round every two morsels, each offering the probe `[mid, lo, hi]`
    // (slower: the 50 % predicate runs on every tuple). The shard's first
    // morsel runs cold, charged `COLD_CHARGE` cycles per tuple more than
    // any probe costs. Every probe is slower than the morsel before it,
    // so every one is reverted — even the first, which a baseline
    // averaged over a window holding the cold morsel would accept.
    let t = skewed_table(1 << 14);
    let mut program = CompiledProgram::from_selection(&t, &skewed_plan(), &[0, 1, 2]).unwrap();
    let mut target = Rigged::new(CompiledTarget::new(&mut program))
        .with_cold_shards()
        .with_probe_every_round(&[1, 0, 2]);
    let report = run_parallel_target_observed(
        &mut target,
        MorselConfig::new(512),
        &mut CpuPool::new(CpuConfig::ivy_bridge(), 1),
        Some(&config()),
        &ExecObservers::none(),
    )
    .unwrap();
    assert!(!report.switches.is_empty());
    assert!(
        report
            .switches
            .iter()
            .all(|s| s.reverted && s.exploratory && s.to == [1, 0, 2]),
        "{:?}",
        report.switches
    );
    assert_eq!(report.final_order, vec![0, 1, 2]);
}
