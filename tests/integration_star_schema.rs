//! Cross-crate integration: the 3-join star-schema workload
//! (fact ⋈ customer ⋈ supplier ⋈ part plus a selection).
//!
//! This is the multi-join pipeline the ROADMAP asked for: with three FK
//! probes contributing to every L3 sample, per-stage clustering
//! calibration must still attribute locality to the right stage — the
//! co-clustered customer join has to end up in front of both random
//! joins even though it probes the *largest* dimension, and the
//! reordering must never change the query result, single- or
//! multi-worker.

use popt::core::parallel::{run_parallel_program, MorselConfig};
use popt::core::progressive::{run_progressive_program, ProgressiveConfig, VectorConfig};
use popt::cpu::{CpuPool, SimCpu};
use popt_bench::figures::workload::{star_program, star_schema, StarSchema};

mod common;
use common::small_cache_cpu;

const ROWS: usize = 1 << 17;

fn star() -> StarSchema {
    star_schema(ROWS, 0x57A12)
}

fn config() -> ProgressiveConfig {
    ProgressiveConfig { reop_interval: 2 }
}

/// Plan-order indices of `star_program` with a selection: 0 = select,
/// 1 = customer (co-clustered), 2 = supplier (random), 3 = part (random).
const CUSTOMER: usize = 1;
const SUPPLIER: usize = 2;
const PART: usize = 3;

#[test]
fn calibration_attributes_locality_with_three_probes_per_sample() {
    let star = star();
    // Ground truth from the static plan order.
    let static_program = star_program(&star, Some(0.5), [0.5, 0.5, 0.5]);
    let mut cpu1 = SimCpu::new(small_cache_cpu());
    let expect = static_program.run_range(&mut cpu1, 0, ROWS);
    assert!(expect.sum > 0, "aggregate must actually sum");

    // Progressive from the fully reversed order: both random joins ahead
    // of the co-clustered one, the selection last.
    let mut program = star_program(&star, Some(0.5), [0.5, 0.5, 0.5]);
    let mut cpu2 = SimCpu::new(small_cache_cpu());
    let prog = run_progressive_program(
        &mut program,
        &[PART, SUPPLIER, CUSTOMER, 0],
        VectorConfig {
            vector_tuples: 4_096,
            max_vectors: None,
        },
        &mut cpu2,
        &config(),
    )
    .unwrap();

    assert_eq!(prog.qualified, expect.qualified);
    assert_eq!(prog.sum, expect.sum);
    // Locality attribution: the co-clustered customer join (the largest
    // dimension!) must rank ahead of both random joins — exactly what a
    // size-based textbook order gets wrong.
    let pos = |stage: usize| {
        prog.final_peo
            .iter()
            .position(|&j| j == stage)
            .expect("stage present")
    };
    assert!(
        pos(CUSTOMER) < pos(SUPPLIER) && pos(CUSTOMER) < pos(PART),
        "customer join not front of the random joins: {:?} (switches {:?})",
        prog.final_peo,
        prog.switches
    );
}

#[test]
fn star_parallel_matches_serial_for_one_and_many_workers() {
    let star = star();
    let static_program = star_program(&star, Some(0.5), [0.5, 0.5, 0.5]);
    let mut cpu = SimCpu::new(small_cache_cpu());
    let expect = static_program.run_range(&mut cpu, 0, ROWS);

    // Serial progressive reference order.
    let mut serial_program = star_program(&star, Some(0.5), [0.5, 0.5, 0.5]);
    let mut serial_cpu = SimCpu::new(small_cache_cpu());
    let serial = run_progressive_program(
        &mut serial_program,
        &[PART, SUPPLIER, CUSTOMER, 0],
        VectorConfig {
            vector_tuples: 4_096,
            max_vectors: None,
        },
        &mut serial_cpu,
        &config(),
    )
    .unwrap();
    assert_eq!(serial.qualified, expect.qualified);

    for workers in [1usize, 4, 8] {
        let mut program = star_program(&star, Some(0.5), [0.5, 0.5, 0.5]);
        let mut pool = CpuPool::new(small_cache_cpu(), workers);
        // Cache-friendly morsels (L2-fitted) rather than one fixed size:
        // convergence needs enough morsel boundaries per worker for the
        // three calibration probes plus the estimator's trials — at 8
        // workers a coarse 4096-tuple carve of this table leaves only 4
        // boundaries per worker, too few to finish calibrating.
        let morsels = MorselConfig::cache_friendly(&small_cache_cpu(), 32);
        assert!(morsels.morsel_tuples < 4_096, "sizing tracks the tiny L2");
        let report = run_parallel_program(
            &mut program,
            &[PART, SUPPLIER, CUSTOMER, 0],
            morsels,
            &mut pool,
            Some(&config()),
        )
        .unwrap();
        assert_eq!(report.qualified, expect.qualified, "workers={workers}");
        assert_eq!(report.sum, expect.sum, "workers={workers}");
        let pos = |stage: usize| {
            report
                .final_order
                .iter()
                .position(|&j| j == stage)
                .expect("stage present")
        };
        assert!(
            pos(CUSTOMER) < pos(SUPPLIER) && pos(CUSTOMER) < pos(PART),
            "workers={workers}: {:?}",
            report.final_order
        );
    }
}
