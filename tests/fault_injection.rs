//! Fault injection through one rigged target (`common::rigged`): a
//! `set_order` that fails in the middle of a reoptimization round must
//! surface that error from the serial drive *and* from the pooled one —
//! no panic, no hang, no silently dropped round — and the failing
//! worker's siblings must not finish the scan. A shard that panics
//! mid-run unwinds to the caller and leaves the pool usable. Trials made
//! to regress exercise the serial drive's revert paths: the rejection
//! memory, a trial on the last vector, and stall exploration.

use std::panic::{self, AssertUnwindSafe};

use popt::core::parallel::{run_parallel_target_observed, MorselConfig};
use popt::core::plan::SelectionPlan;
use popt::core::predicate::{CompareOp, Predicate};
use popt::core::progressive::{
    run_progressive_target_observed, CompiledTarget, ProgressiveConfig, ProgressiveReport,
    VectorConfig, REJECTION_TTL,
};
use popt::core::{CompiledProgram, ExecObservers};
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
        // order at the start of each due round; later ones also cover
        // trial resolution.
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
/// `[hi, mid, lo]`, one round per vector, every trial made to regress.
fn regressing_scan(rows: usize, vector_tuples: usize) -> ProgressiveReport {
    let t = skewed_table(rows);
    let mut program = CompiledProgram::from_selection(&t, &skewed_plan(), &[2, 1, 0]).unwrap();
    let mut target = Rigged::new(CompiledTarget::new(&mut program)).with_regressing_trials();
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

#[test]
fn rejection_ttl_gates_reproposal_of_reverted_orders() {
    // Every trial regresses: the estimator keeps proposing the same
    // better order, each proposal is reverted, and the rejection memory
    // must suppress the re-proposal for exactly `REJECTION_TTL` rounds —
    // pruned every reopt round, so proposals resume on schedule.
    let prog = regressing_scan(16_384, 512);
    assert!(prog.switches.iter().all(|s| s.reverted));
    // Stall exploration interleaves its own (reverted) trials; the
    // rejection memory governs the estimator's proposals.
    let proposals: Vec<_> = prog.switches.iter().filter(|s| !s.exploratory).collect();
    // With reop_interval = 1, rounds advance one per vector: two
    // proposals of the same order must be separated by more than the
    // TTL, and pruning every round means they are not separated by much
    // more (trial + revert + ttl rounds of suppression).
    let mut reproposals = 0;
    for (k, later) in proposals.iter().enumerate() {
        let Some(earlier) = proposals[..k].iter().rev().find(|s| s.to == later.to) else {
            continue;
        };
        reproposals += 1;
        let gap = later.vector - earlier.vector;
        assert!(
            gap > REJECTION_TTL,
            "re-proposed within TTL: {:?}",
            prog.switches
        );
        assert!(
            gap <= REJECTION_TTL + 3,
            "pruning skipped rounds: {:?}",
            prog.switches
        );
    }
    assert!(
        reproposals >= 2,
        "rejections must age out and re-propose: {:?}",
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
