//! Steady-state execution must not touch the heap.
//!
//! A counting wrapper around the system allocator pins the
//! allocation-free property of the hot loops: after compilation and CPU
//! construction, executing rows through the batched fast path performs
//! zero allocations (serial), the parallel claim → execute → sample
//! loop performs none per morsel (total allocations are independent of
//! the morsel count when reoptimization is off), and one evaluation of
//! the estimator's counter model performs none.
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

use popt_core::exec::CompiledSelection;
use popt_core::parallel::{run_parallel_scan, MorselConfig};
use popt_core::plan::SelectionPlan;
use popt_core::predicate::{CompareOp, Predicate};
use popt_cpu::{CpuConfig, CpuPool, SimCpu};
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
    println!("alloc_free: 3 checks passed");
}

/// The estimator's objective calls `estimate_counters` once per
/// evaluation, a few hundred times per fit: on a 4-stage star geometry
/// (selection + three join probes) it must not touch the heap.
fn model_evaluation_is_allocation_free() {
    use popt_cost::estimate::{estimate_counters, PlanGeometry, ProbeGeometry};
    use popt_cost::join_model::JoinGeometry;
    let mut geom = PlanGeometry::uniform_i32(1 << 20, 4);
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
    let survivors = [700_000.0, 400_000.0, 90_000.0, 20_000.0];
    let warm = estimate_counters(&geom, &survivors);
    let before = allocations();
    let mut l3 = 0.0;
    for k in 0..100 {
        let mut s = survivors;
        s[1] += f64::from(k) * 100.0;
        l3 += estimate_counters(&geom, &s).l3_accesses;
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "100 model evaluations allocated {delta} times");
    assert!(l3 > warm.l3_accesses);
}

/// Serial morsel loop: after one warmup vector (stream-state slots may
/// lazily extend on first touch), executing any number of further
/// vectors through the batched fast path allocates nothing.
fn serial_vector_loop_is_allocation_free() {
    let rows = 64 * 1024;
    let t = table(rows);
    let compiled = CompiledSelection::compile(&t, &plan(), &[0, 1]).unwrap();
    let mut cpu = SimCpu::new(CpuConfig::tiny_test());
    let mut total = compiled.run_range(&mut cpu, 0, 1024);
    let before = allocations();
    for start in (1024..rows).step_by(1024) {
        let stats = compiled.run_range(&mut cpu, start, start + 1024);
        total.accumulate(&stats);
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "steady-state vectors allocated {delta} times");
    assert_eq!(total.qualified as usize, expected_qualified(rows));
}

/// Parallel claim → execute → sample loop: with reoptimization off, the
/// run's total allocation count is a function of the setup (workers,
/// shards, report), not of how many morsels stream through it. Running
/// 4× the rows over the same morsel size must allocate exactly as often
/// as the short run.
fn parallel_morsel_loop_is_allocation_free() {
    let run = |rows: usize| {
        let t = table(rows);
        let p = plan();
        let mut pool = CpuPool::new(CpuConfig::tiny_test(), 4);
        let before = allocations();
        let report =
            run_parallel_scan(&t, &p, &[0, 1], MorselConfig::new(512), &mut pool, None).unwrap();
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
