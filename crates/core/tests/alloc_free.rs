//! Steady-state execution must not touch the heap.
//!
//! A counting wrapper around the system allocator pins the
//! allocation-free property of the hot loops: after compilation and CPU
//! construction, executing rows through the batched fast path performs
//! zero allocations (serial, with the hierarchy walks on the walker
//! thread when the host has two cores or more — the count covers every
//! thread of the process), the parallel claim → execute → sample
//! loop performs none per morsel (total allocations are independent of
//! the morsel count when reoptimization is off), one evaluation of the
//! estimator's prepared counter model performs none, and a whole fit
//! allocates per optimization start, never per evaluation.
//!
//! The counter is process-wide, so this target runs without the libtest
//! harness (`harness = false`): `main` runs the checks one after another
//! on the only thread there is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

use popt_core::exec::CompiledProgram;
use popt_core::parallel::{run_parallel_program, MorselConfig};
use popt_core::plan::SelectionPlan;
use popt_core::predicate::{CompareOp, Predicate};
use popt_cpu::{walker_batches, CpuConfig, CpuPool, SimCpu};
use popt_storage::{AddressSpace, ColumnData, Table};

fn table(rows: usize) -> Table {
    let mut space = AddressSpace::new();
    let mut t = Table::new("t");
    t.add_column(
        "a",
        ColumnData::I32((0..rows).map(|i| (i % 100) as i32).collect()),
        &mut space,
    );
    t.add_column(
        "b",
        ColumnData::I32((0..rows).map(|i| (i / 7 % 10) as i32).collect()),
        &mut space,
    );
    t.add_column("agg", ColumnData::I32(vec![2; rows]), &mut space);
    t
}

fn expected_qualified(rows: usize) -> usize {
    (0..rows)
        .filter(|i| (i % 100) < 50 && (i / 7 % 10) < 5)
        .count()
}

fn plan() -> SelectionPlan {
    SelectionPlan::new(
        vec![
            Predicate::new("a", CompareOp::Lt, 50),
            Predicate::new("b", CompareOp::Lt, 5),
        ],
        vec!["agg".into()],
    )
    .unwrap()
}

fn main() {
    serial_vector_loop_is_allocation_free();
    parallel_morsel_loop_is_allocation_free();
    model_evaluation_is_allocation_free();
    fit_allocates_per_start_not_per_evaluation();
    println!("alloc_free: 4 checks passed");
}

/// The 4-stage star geometry (selection + three join probes) the
/// benchmark's `join_star` fits.
fn star_geometry(n_input: u64) -> popt_cost::estimate::PlanGeometry {
    use popt_cost::estimate::{PlanGeometry, ProbeGeometry};
    use popt_cost::join_model::JoinGeometry;
    let mut geom = PlanGeometry::uniform_i32(n_input, 4);
    let probe = |tuples| {
        let relation = JoinGeometry {
            relation_tuples: tuples,
            tuple_bytes: 4,
            line_bytes: 64,
            cache_lines: 1024 * 1024 / 64,
        };
        Some(ProbeGeometry::random(relation, 64.0 * 1024.0))
    };
    geom.probes = vec![None, probe(500_000), probe(60_000), probe(8_000)];
    geom
}

/// The estimator's objective evaluates the prepared counter model once
/// per evaluation, a few hundred times per fit: on the star geometry it
/// must not touch the heap.
fn model_evaluation_is_allocation_free() {
    use popt_cost::estimate::CounterModel;
    let geom = star_geometry(1 << 20);
    let survivors = [700_000.0, 400_000.0, 90_000.0, 20_000.0];
    let model = CounterModel::new(&geom, survivors[3]);
    let warm = model.estimate(&survivors);
    let before = allocations();
    let mut l3 = 0.0;
    for k in 0..100 {
        let mut s = survivors;
        s[1] += f64::from(k) * 100.0;
        l3 += model.estimate(&s).l3_accesses;
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "100 model evaluations allocated {delta} times");
    assert!(l3 > warm.l3_accesses);
}

/// A whole fit on the star geometry: the search allocates for each
/// optimization start (its start point, simplex and result) and once per
/// fit (bounds, prepared model, estimate), never per evaluation — a
/// bound on allocations in `starts_used` alone, far below the evaluation
/// count.
fn fit_allocates_per_start_not_per_evaluation() {
    use popt_cost::estimate::estimate_counters;
    use popt_solver::{estimate_selectivities, EstimatorConfig, SampledCounters};
    /// Allocations a start may make (start point, region split, simplex),
    /// and a fit besides its starts.
    const PER_START: u64 = 32;
    const PER_FIT: u64 = 32;
    let geom = star_geometry(32_768);
    let est = estimate_counters(&geom, &[26_000.0, 14_000.0, 9_000.0, 2_500.0]);
    let sampled = SampledCounters {
        n_input: geom.n_input,
        n_output: 2_500,
        bnt: est.bnt.round() as u64,
        mp_taken: (est.mp_taken * 1.03).round() as u64,
        mp_not_taken: est.mp_not_taken.round() as u64,
        l3_accesses: (est.l3_accesses * 0.97).round() as u64,
    };
    let fit = |config: &EstimatorConfig| {
        let before = allocations();
        let fit = estimate_selectivities(&geom, &sampled, config);
        let delta = allocations() - before;
        let starts = fit.starts_used as u64;
        assert!(
            delta <= PER_START * starts + PER_FIT,
            "{delta} allocations for {starts} starts, {} evaluations",
            fit.evaluations
        );
        (delta, fit.evaluations as u64)
    };
    fit(&EstimatorConfig::default());
    // A tolerance so tight that each search runs for hundreds of
    // evaluations: still no more allocations than its starts explain.
    let mut tight = EstimatorConfig::default();
    tight.nelder_mead.ftol_abs = 1e-12;
    let (delta, evaluations) = fit(&tight);
    assert!(
        evaluations > 10 * delta,
        "{delta} allocations against {evaluations} evaluations"
    );
}

/// Serial morsel loop: after one warmup vector (stream-state slots may
/// lazily extend on first touch; the walker thread starts), executing
/// any number of further vectors through the batched fast path allocates
/// nothing — on this thread or the walker's. This is the only thread
/// opening batches, so with two host cores or more the walker drains
/// every one of them.
fn serial_vector_loop_is_allocation_free() {
    let rows = 64 * 1024;
    let t = table(rows);
    let compiled = CompiledProgram::from_selection(&t, &plan(), &[0, 1]).unwrap();
    let mut cpu = SimCpu::new(CpuConfig::tiny_test());
    let mut total = compiled.run_range(&mut cpu, 0, 1024);
    let before = allocations();
    let drained = walker_batches();
    for start in (1024..rows).step_by(1024) {
        let stats = compiled.run_range(&mut cpu, start, start + 1024);
        total.accumulate(&stats);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "steady-state vectors allocated {delta} times");
    assert_eq!(total.qualified as usize, expected_qualified(rows));
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        let vectors = (rows / 1024 - 1) as u64;
        assert_eq!(
            walker_batches() - drained,
            vectors,
            "the walker thread drained {} of {vectors} vectors",
            walker_batches() - drained
        );
    }
}

/// Parallel claim → execute → sample loop: with reoptimization off, the
/// run's total allocation count is a function of the setup (workers,
/// shards, report), not of how many morsels stream through it. Running
/// 4× the rows over the same morsel size must allocate exactly as often
/// as the short run.
fn parallel_morsel_loop_is_allocation_free() {
    let run = |rows: usize| {
        let t = table(rows);
        let mut program = CompiledProgram::from_selection(&t, &plan(), &[0, 1]).unwrap();
        let mut pool = CpuPool::new(CpuConfig::tiny_test(), 4);
        let before = allocations();
        let report = run_parallel_program(
            &mut program,
            &[0, 1],
            MorselConfig::new(512),
            &mut pool,
            None,
        )
        .unwrap();
        let delta = allocations() - before;
        assert_eq!(report.qualified as usize, expected_qualified(rows));
        delta
    };
    // Warm both shapes once: lazily initialized process state (thread
    // stack caches, lock shards) must not be charged to either side.
    run(8 * 1024);
    run(32 * 1024);
    let short = run(8 * 1024);
    let long = run(32 * 1024);
    assert_eq!(
        short, long,
        "morsel count leaked into allocations: {short} vs {long} (48 more morsels)"
    );
}
