//! Fault injection through one rigged target (`common::rigged`): a
//! `set_order` that fails in the middle of a reoptimization round must
//! surface that error from the serial drive *and* from the pooled one —
//! no panic, no hang, no silently dropped round — and the failing
//! worker's siblings must not finish the scan. A shard that panics
//! mid-run unwinds to the caller and leaves the pool usable. Trials made
//! to regress exercise the serial drive's revert paths: the rejection
//! back-off and its reset on accept, a trial on the last vector, stall
//! exploration, and reverted explorations that never open one; on a star
//! whose probes measured every join, neither drive's stall exploration
//! moves a measured join back to the front. Trials
//! made to regress by a set share show the regret budget: serially and
//! pooled, an order reverted since the last accept is tried again only
//! while the reverted trials have lost at most `REGRESSION_TOLERANCE` of
//! the executed cycles. Shards whose first range runs cold show that a
//! pooled trial is judged against its core's previous warm morsel, never
//! against its cold first one; a probe slower than the accepted order but
//! faster than the reverted trial just before it shows that neither
//! drive judges a trial against a reverted one.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use popt::core::parallel::{run_parallel_target_observed, MorselConfig};
use popt::core::plan::SelectionPlan;
use popt::core::predicate::{CompareOp, Predicate};
use popt::core::progressive::{
    run_progressive_target_observed, CompiledTarget, ProgressiveConfig, ProgressiveReport,
    SwitchEvent, VectorConfig, REGRESSION_TOLERANCE, REJECTION_BACKOFF_CAP, REJECTION_TTL,
};
use popt::core::{CompiledProgram, ExecObservers, Peo, ProgressiveTarget};
use popt::cpu::{CpuConfig, CpuPool, SimCpu};
use popt::obs::{MemorySink, TraceEvent, Tracer};
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

/// What the rigged scans below make of the target.
type Rig = dyn for<'p, 't> Fn(Rigged<CompiledTarget<'p, 't>>) -> Rigged<CompiledTarget<'p, 't>>;

/// The serial drive over the skewed scan from the worst order
/// `[hi, mid, lo]`, one round per vector, on the rigged target `rig`
/// makes of it.
fn rigged_scan(rows: usize, vector_tuples: usize, rig: &Rig) -> ProgressiveReport {
    rigged_scan_every(rows, vector_tuples, 1, rig)
}

/// [`rigged_scan`] with a round every `reop_interval` vectors.
fn rigged_scan_every(
    rows: usize,
    vector_tuples: usize,
    reop_interval: usize,
    rig: &Rig,
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
        &ProgressiveConfig { reop_interval },
        &ExecObservers::none(),
    )
    .unwrap()
}

/// [`rigged_scan`] with every trial made to regress.
fn regressing_scan(rows: usize, vector_tuples: usize) -> ProgressiveReport {
    rigged_scan(rows, vector_tuples, &|rigged| {
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

/// A share by which a trial regresses past the tolerance but loses so
/// little that the regret budget never binds on the scans below: the
/// back-off alone spaces the repeats.
const SLIGHTLY: f64 = 0.021;

#[test]
fn rejection_ttl_gates_reproposal_of_reverted_orders() {
    // Every trial regresses, slightly: the estimator keeps proposing
    // better orders and every proposal is reverted. The first rejection
    // of an order suppresses it for `REJECTION_TTL` rounds and each
    // repeat for twice as long as the last, up to `REJECTION_BACKOFF_CAP`;
    // with reop_interval = 1 a round opens after every vector.
    let prog = rigged_scan(1 << 16, 512, &|rigged| {
        rigged.with_trials_slower_by(SLIGHTLY)
    });
    assert_budget_never_binds(&prog);
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
    // Every trial regresses, slightly, but the stall exploration's
    // `[lo, hi, mid]`: the estimator's `[lo, mid, hi]` is rejected, the
    // exploration is accepted, and from then on `[lo, mid, hi]` backs off
    // as if it had never been rejected — its first post-accept rejection
    // suppresses it for `REJECTION_TTL` rounds again, not twice that.
    let prog = rigged_scan(1 << 16, 512, &|rigged| {
        rigged.with_trials_slower_by(SLIGHTLY).sparing(&[0, 2, 1])
    });
    assert_budget_never_binds(&prog);
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
    // order `[lo, hi, mid]`. A round opens after every vector but the
    // last, except after vector 1: vector 0 ran cold and is no baseline,
    // so the first probe waits for vector 1 and runs as vector 2.
    let prog = rigged_scan(1 << 14, 512, &|rigged| {
        rigged.with_regressing_trials().with_probes(&[&[0, 1, 2]])
    });
    assert_eq!(prog.estimates, 0);
    assert_eq!(prog.switches.len(), prog.vectors - 2, "{:?}", prog.switches);
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
    // 3 vectors: reopt after v0, v1 warms the baseline, trial = v2.
    let prog = regressing_scan(6144, 2048);
    assert_eq!(prog.vectors, 3);
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
fn stall_exploration_skips_join_fronts_already_measured() {
    // The star started select-first, every trial regressing slightly (so
    // the regret budget never holds an exploration back): the target's
    // own probes move each join to the front once, and each probe's trial
    // fit calibrates that join there before the probe reverts. Every
    // estimator proposal then reverts too and the run stalls. The stall
    // exploration rotates the select-first order's tail join to the
    // front — the order its probe already ran — so no stalled round
    // schedules it again: serially, nor in 1- and 2-worker pools.
    let star = star_schema(ROWS, 0x57A12);
    let start = [0, 3, 2, 1];
    let is_join = |stage: usize| stage != 0;
    let check = |drive: &str, switches: &[SwitchEvent], measured: &[bool]| {
        assert_eq!(measured, [false, true, true, true], "{drive}: {switches:?}");
        assert!(switches.iter().all(|s| s.reverted), "{drive}: {switches:?}");
        assert!(
            switches.iter().any(|s| !s.exploratory),
            "{drive}: no estimator proposal to stall on: {switches:?}"
        );
        for (k, s) in switches.iter().enumerate() {
            // One trial is pending at a time, so every earlier switch's
            // trial ran, and calibrated its front join, before this one
            // was scheduled.
            let front = s.to[0];
            let ran_before = switches[..k].iter().any(|e| e.to[0] == front);
            assert!(
                !(s.exploratory && is_join(front) && ran_before),
                "{drive}: switch {k} explores join {front}, measured at the front: {switches:?}"
            );
        }
    };
    // `None` drives the star serially, `Some(n)` on an `n`-worker pool.
    let run = |workers: Option<usize>| {
        let mut program = star_program(&star, Some(0.5), [0.5, 0.5, 0.5]);
        program.reorder(&start).unwrap();
        let mut target =
            Rigged::new(CompiledTarget::new(&mut program)).with_trials_slower_by(SLIGHTLY);
        let switches = match workers {
            None => {
                run_progressive_target_observed(
                    &mut target,
                    VectorConfig {
                        vector_tuples: 1024,
                        max_vectors: None,
                    },
                    &mut SimCpu::new(small_cache_cpu()),
                    &config(),
                    &ExecObservers::none(),
                )
                .unwrap()
                .switches
            }
            Some(workers) => {
                run_parallel_target_observed(
                    &mut target,
                    MorselConfig::new(1024),
                    &mut CpuPool::new(small_cache_cpu(), workers),
                    Some(&config()),
                    &ExecObservers::none(),
                )
                .unwrap()
                .switches
            }
        };
        let cal = target.calibration_snapshot().expect("a star calibrates");
        (switches, cal.measured)
    };
    for (drive, workers) in [
        ("serial", None),
        ("1 worker", Some(1)),
        ("2 workers", Some(2)),
    ] {
        let (switches, measured) = run(workers);
        check(drive, &switches, &measured);
    }
}

#[test]
fn a_pooled_trial_is_judged_against_its_cores_previous_warm_morsel() {
    // 1, 2 and 4 workers over the skewed scan from its best order
    // `[lo, mid, hi]`, a round every 2, 4 and 8 morsels, each offering
    // the probe `[mid, lo, hi]` (slower: the 50 % predicate runs on every
    // tuple). Every shard's first morsel runs cold, charged `COLD_CHARGE`
    // cycles per tuple more than any probe costs, so it is never a
    // baseline: a worker leases only once it has run a warm morsel under
    // the accepted order. Every probe is slower than that morsel, so
    // every one is reverted — even the first, which a baseline holding
    // the cold morsel would accept.
    let t = skewed_table(1 << 14);
    for workers in [1, 2, 4] {
        for reop_interval in [2, 4, 8] {
            let mut program =
                CompiledProgram::from_selection(&t, &skewed_plan(), &[0, 1, 2]).unwrap();
            let mut target = Rigged::new(CompiledTarget::new(&mut program))
                .with_cold_shards()
                .with_probes(&[&[1, 0, 2]]);
            let report = run_parallel_target_observed(
                &mut target,
                MorselConfig::new(512),
                &mut CpuPool::new(CpuConfig::ivy_bridge(), workers),
                Some(&ProgressiveConfig { reop_interval }),
                &ExecObservers::none(),
            )
            .unwrap();
            let case = format!("workers={workers} interval={reop_interval}");
            assert!(!report.switches.is_empty(), "{case}");
            assert!(
                report
                    .switches
                    .iter()
                    .all(|s| s.reverted && s.exploratory && s.to == [1, 0, 2]),
                "{case}: {:?}",
                report.switches
            );
            assert_eq!(report.final_order, vec![0, 1, 2], "{case}");
        }
    }
}

/// The probe `with_trials_slower_by(1.0)` charges twice the accepted
/// order's cycles per tuple in the baseline test below.
const CHARGED: [usize; 3] = [2, 1, 0];
/// The probe it spares: slower than `[lo, mid, hi]` (the 50 % predicate
/// runs on every tuple), faster than a `CHARGED` trial.
const SPARED: [usize; 3] = [1, 0, 2];

#[test]
fn a_trial_after_a_revert_is_judged_against_the_accepted_order() {
    // The skewed scan from its best order `[lo, mid, hi]`, a round after
    // every vector or morsel, each spending a probe: `CHARGED` and
    // `SPARED` in turn. Serially, a `SPARED` trial runs right after a
    // reverted `CHARGED` one; judged against that reverted trial's vector
    // it would be accepted. Judged against the last vector run under the
    // accepted order, it is reverted — and so is every trial of the
    // 1-worker pool, whose baseline never was a trial morsel.
    let t = skewed_table(1 << 14);
    let vector_tuples = 512;
    let rigged = |program| {
        Rigged::new(CompiledTarget::new(program))
            .with_trials_slower_by(1.0)
            .sparing(&SPARED)
            .with_probes(&[&CHARGED, &SPARED])
    };
    let every = ProgressiveConfig { reop_interval: 1 };

    let mut program = CompiledProgram::from_selection(&t, &skewed_plan(), &[0, 1, 2]).unwrap();
    let serial = run_progressive_target_observed(
        &mut rigged(&mut program),
        VectorConfig {
            vector_tuples,
            max_vectors: None,
        },
        &mut SimCpu::new(CpuConfig::ivy_bridge()),
        &every,
        &ExecObservers::none(),
    )
    .unwrap();
    let ran = serial_ran(&serial, vector_tuples as u64);
    let cpt = |v: usize| serial.per_vector_cycles[v] as f64 / vector_tuples as f64;
    let after_revert: Vec<usize> = serial
        .switches
        .windows(2)
        .filter(|pair| pair[0].to == CHARGED && pair[1].to == SPARED)
        .map(|pair| (serial_trial_vector(&pair[0]), serial_trial_vector(&pair[1])))
        .filter(|&(charged, spared)| spared == charged + 1 && spared < ran.len())
        .map(|(_, spared)| spared)
        .collect();
    assert!(!after_revert.is_empty(), "{:?}", serial.switches);
    for v in after_revert {
        let (baseline_cpt, trial_cpt) = ran[v].reverted_trial.expect("reverted");
        assert!(
            baseline_cpt * (1.0 + REGRESSION_TOLERANCE) < trial_cpt && trial_cpt < cpt(v - 1),
            "vector {v}: baseline {baseline_cpt}, trial {trial_cpt}, reverted trial before {}",
            cpt(v - 1)
        );
    }

    let mut program = CompiledProgram::from_selection(&t, &skewed_plan(), &[0, 1, 2]).unwrap();
    let pooled = run_parallel_target_observed(
        &mut rigged(&mut program),
        MorselConfig::new(vector_tuples),
        &mut CpuPool::new(CpuConfig::ivy_bridge(), 1),
        Some(&every),
        &ExecObservers::none(),
    )
    .unwrap();
    for (drive, switches, last) in [
        ("serial", &serial.switches, &serial.final_peo),
        ("pooled", &pooled.switches, &pooled.final_order),
    ] {
        assert!(
            switches.iter().any(|s| s.to == SPARED),
            "{drive}: {switches:?}"
        );
        assert!(switches.iter().all(|s| s.reverted), "{drive}: {switches:?}");
        assert_eq!(last, &vec![0, 1, 2], "{drive}");
    }
}

/// One vector or morsel of a run, in the order it reported: its cycles,
/// its tuples, and, for a reverted trial, its baseline and its own cycles
/// per tuple.
struct Ran {
    cycles: u64,
    tuples: u64,
    reverted_trial: Option<(f64, f64)>,
}

/// The vector that runs the trial of `switch` in a serial run: a switch
/// scheduled after vector `v - 1` runs its trial as vector `v` — but not
/// before vector 2, since vector 0 ran cold and is no baseline.
fn serial_trial_vector(switch: &SwitchEvent) -> usize {
    switch.vector.max(2)
}

/// A serial run's vectors, `vector_tuples` each. A trial is judged
/// against the last vector before it that ran under the accepted order:
/// an accepted trial's own, never a reverted trial's, never vector 0.
fn serial_ran(report: &ProgressiveReport, vector_tuples: u64) -> Vec<Ran> {
    let cpt = |v: usize| report.per_vector_cycles[v] as f64 / vector_tuples as f64;
    let mut baseline = None;
    let mut ran = Vec::new();
    for (v, &cycles) in report.per_vector_cycles.iter().enumerate() {
        let trial = report.switches.iter().find(|s| serial_trial_vector(s) == v);
        let mut reverted_trial = None;
        match trial {
            Some(s) if s.reverted => {
                let baseline_cpt = baseline.expect("a trial is leased against a baseline");
                reverted_trial = Some((baseline_cpt, cpt(v)));
            }
            _ if v > 0 => baseline = Some(cpt(v)),
            _ => {}
        }
        ran.push(Ran {
            cycles,
            tuples: vector_tuples,
            reverted_trial,
        });
    }
    ran
}

/// The morsels of a traced one-worker pooled run.
fn pooled_ran(sink: &MemorySink) -> Vec<Ran> {
    let mut ran: Vec<Ran> = Vec::new();
    for record in sink.snapshot() {
        match record.event {
            TraceEvent::MorselClaim { rows, cycles, .. } => ran.push(Ran {
                cycles,
                tuples: rows as u64,
                reverted_trial: None,
            }),
            TraceEvent::TrialRevert {
                baseline_cpt,
                trial_cpt,
                ..
            } => {
                let trial = ran.last_mut().expect("a trial reverts after its morsel");
                trial.reverted_trial = Some((baseline_cpt, trial_cpt));
            }
            _ => {}
        }
    }
    ran
}

/// The regret budget replayed over `ran`: after each of the first `k`
/// vectors or morsels reported, whether the reverted trials had lost
/// more than `REGRESSION_TOLERANCE` of the executed cycles (index `k`),
/// summed as the policy sums them.
fn over_budget(ran: &[Ran]) -> Vec<bool> {
    let (mut lost, mut executed) = (0.0, 0u64);
    let mut over = vec![false];
    for r in ran {
        executed += r.cycles;
        if let Some((baseline_cpt, trial_cpt)) = r.reverted_trial {
            lost += (trial_cpt - baseline_cpt) * r.tuples as f64;
        }
        over.push(lost > REGRESSION_TOLERANCE * executed as f64);
    }
    over
}

/// Per switch (in scheduling order): whether it repeats an order reverted
/// since the last accept.
fn repeats(switches: &[SwitchEvent]) -> Vec<bool> {
    let mut reverted: Vec<&Peo> = Vec::new();
    switches
        .iter()
        .map(|s| {
            let repeat = reverted.contains(&&s.to);
            if s.reverted {
                reverted.push(&s.to);
            } else {
                reverted.clear();
            }
            repeat
        })
        .collect()
}

/// The budget never bound in `report`: the reverted trials never lost
/// more than `REGRESSION_TOLERANCE` of the executed cycles, so it could
/// hold back no repeat.
fn assert_budget_never_binds(report: &ProgressiveReport) {
    let over = over_budget(&serial_ran(report, 512));
    let first = over.iter().position(|&o| o);
    assert!(
        first.is_none(),
        "the budget bound at {first:?}: {:?}",
        report.switches
    );
}

/// Trials regressing by this share lose half a vector each: the budget
/// binds at once and frees up again once 25 vectors per revert ran.
const NOTABLY: f64 = 0.5;

/// The skewed scan from `[hi, mid, lo]`, every trial but the stall
/// exploration's `[lo, hi, mid]` regressing by `share`, a round every 2
/// vectors or morsels of 512 tuples: serially, and on a traced one-worker
/// pool. Accepting the exploration makes every order a first-time one
/// again, while the budget still holds what the reverts lost. Returns
/// each run's vectors or morsels and switches.
fn budgeted_runs(share: f64) -> [(&'static str, Vec<Ran>, Vec<SwitchEvent>); 2] {
    let rows = 1 << 17;
    let rig: &Rig = &move |rigged| rigged.with_trials_slower_by(share).sparing(&[0, 2, 1]);
    let serial = rigged_scan_every(rows, 512, 2, rig);

    let t = skewed_table(rows);
    let mut program = CompiledProgram::from_selection(&t, &skewed_plan(), &[2, 1, 0]).unwrap();
    let mut target = rig(Rigged::new(CompiledTarget::new(&mut program)));
    let sink = Arc::new(MemorySink::new());
    let tracer = Arc::new(Tracer::for_workers(Arc::clone(&sink), 1));
    let pooled = run_parallel_target_observed(
        &mut target,
        MorselConfig::new(512),
        &mut CpuPool::new(CpuConfig::ivy_bridge(), 1),
        Some(&config()),
        &ExecObservers::none().with_trace(tracer, 0),
    )
    .unwrap();
    [
        ("serial", serial_ran(&serial, 512), serial.switches),
        ("pooled", pooled_ran(&sink), pooled.switches),
    ]
}

#[test]
fn the_regret_budget_holds_back_repeats_but_not_first_time_orders() {
    // Serially and pooled: no order reverted since the last accept is
    // tried again while the reverts have lost more than
    // `REGRESSION_TOLERANCE` of the executed cycles, but first-time
    // orders (the exploration, and the proposal after its accept) are.
    for (drive, ran, switches) in budgeted_runs(NOTABLY) {
        let over = over_budget(&ran);
        let mut first_time_over = 0;
        for (s, repeat) in switches.iter().zip(repeats(&switches)) {
            assert!(
                !(repeat && over[s.vector]),
                "{drive}: repeat {s:?} scheduled over the budget: {switches:?}"
            );
            first_time_over += usize::from(!repeat && over[s.vector]);
        }
        assert!(
            first_time_over > 0,
            "{drive}: no first-time order was tried over the budget: {switches:?}"
        );
    }
}

#[test]
fn repeat_trials_resume_once_enough_work_has_run() {
    // The same runs with trials that lose little never bind the budget.
    // Where they lose much, fewer repeats run — but some still do once
    // the budget bound: enough work ran since to pay for them.
    let repeats_of = |share| {
        budgeted_runs(share).map(|(drive, ran, switches)| {
            let over = over_budget(&ran);
            let after = over.iter().position(|&o| o).unwrap_or(usize::MAX);
            let scheduled: Vec<usize> = switches
                .iter()
                .zip(repeats(&switches))
                .filter(|(_, repeat)| *repeat)
                .map(|(s, _)| s.vector)
                .collect();
            (drive, after, scheduled, switches)
        })
    };
    for (free, (drive, first_over, held, switches)) in
        repeats_of(SLIGHTLY).into_iter().zip(repeats_of(NOTABLY))
    {
        assert_eq!(
            free.1,
            usize::MAX,
            "{drive}: the slight rig bound the budget"
        );
        assert!(
            held.len() < free.2.len(),
            "{drive}: no repeat held back: {held:?} vs {:?}",
            free.2
        );
        assert!(
            held.iter().any(|&v| v > first_over),
            "{drive}: no repeat after the budget bound at {first_over}: {switches:?}"
        );
    }
}
