//! Cross-crate integration: TPC-H Q6 end to end — storage generation,
//! engine execution on the simulated CPU, progressive optimization.

use popt::core::exec::VectorStats;
use popt::core::plan::SelectionPlan;
use popt::core::progressive::{run_progressive_program_observed, ProgressiveConfig, VectorConfig};
use popt::core::query::{QueryBuilder, QueryReport, RunMode};
use popt::core::{CompiledProgram, ExecObservers};
use popt::cpu::{CpuConfig, SimCpu};
use popt::storage::distribution::Layout;
use popt::storage::tpch::{generate_lineitem, TpchConfig};

fn table() -> popt::storage::Table {
    generate_lineitem(&TpchConfig::with_rows(1 << 16))
}

#[test]
fn q6_answer_is_peo_invariant() {
    let t = table();
    let plan = QueryBuilder::q6_plan();
    let orders = [
        plan.identity_peo(),
        vec![4, 3, 2, 1, 0],
        vec![2, 0, 4, 1, 3],
    ];
    let mut results = Vec::new();
    for peo in orders {
        let r = QueryBuilder::q6(&t)
            .initial_peo(peo)
            .run(RunMode::Baseline)
            .expect("baseline runs");
        results.push(r.result);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[0], results[2]);
}

#[test]
fn progressive_matches_baseline_answer_and_beats_worst_plan() {
    // Vector size must stay proportionate: the optimizer's own cycles are
    // charged honestly, and they only amortize over realistically sized
    // vectors (the paper uses 1M-tuple vectors).
    let t = generate_lineitem(&TpchConfig::with_rows(1 << 18));
    let worst = vec![4, 3, 2, 1, 0];
    let base = QueryBuilder::q6(&t)
        .initial_peo(worst.clone())
        .vector_tuples(16_384)
        .run(RunMode::Baseline)
        .expect("baseline runs");
    let prog = QueryBuilder::q6(&t)
        .initial_peo(worst)
        .vector_tuples(16_384)
        .run(RunMode::Progressive { reop_interval: 3 })
        .expect("progressive runs");
    assert_eq!(base.result, prog.result);
    assert!(
        prog.millis < base.millis,
        "progressive {} ms !< worst baseline {} ms",
        prog.millis,
        base.millis
    );
}

#[test]
fn progressive_is_robust_across_all_5_factorial_starts_sampled() {
    // A coarse version of Figure 11: from any initial order, progressive
    // execution must land within a modest factor of the best baseline.
    // Enough vectors that convergence cost amortizes (the paper runs 600
    // vectors; a handful of pre-convergence vectors must not dominate).
    let t = generate_lineitem(&TpchConfig::with_rows(1 << 19));
    let plan = QueryBuilder::q6_plan();
    let all = plan.all_peos();
    let sample: Vec<_> = all.iter().step_by(17).cloned().collect(); // 8 orders

    let mut best_base = f64::INFINITY;
    let mut baselines = Vec::new();
    for peo in &sample {
        let r = QueryBuilder::q6(&t)
            .initial_peo(peo.clone())
            .vector_tuples(8_192)
            .run(RunMode::Baseline)
            .expect("baseline runs");
        best_base = best_base.min(r.millis);
        baselines.push(r.millis);
    }
    let mut prog_sum = 0.0;
    for peo in &sample {
        let r = QueryBuilder::q6(&t)
            .initial_peo(peo.clone())
            .vector_tuples(8_192)
            .run(RunMode::Progressive { reop_interval: 2 })
            .expect("progressive runs");
        prog_sum += r.millis;
        // The robustness claim under test is *worst-case avoidance*
        // (Section 5.3: "we efficiently alleviate bad initial PEOs and
        // make the overall query execute more robust"): from any start,
        // progressive execution stays within a bounded factor of the
        // best static plan. Individual starts can end somewhat slower
        // than their own baseline — the paper shows the same for fast
        // starts (Section 5.4) and the 5-predicate inversion is
        // under-determined (`five_predicates_rank_usably` in
        // `tests/integration_estimator.rs`).
        assert!(
            r.millis < best_base * 2.5,
            "initial {peo:?}: progressive {} ms vs best baseline {} ms",
            r.millis,
            best_base
        );
    }
    // In aggregate, progressive execution must beat the static plans.
    let base_avg: f64 = baselines.iter().sum::<f64>() / baselines.len() as f64;
    let prog_avg = prog_sum / sample.len() as f64;
    assert!(
        prog_avg < base_avg,
        "progressive avg {prog_avg} ms !< baseline avg {base_avg} ms"
    );
}

#[test]
fn counters_satisfy_paper_identities_end_to_end() {
    let t = table();
    let r = QueryBuilder::q6(&t).run(RunMode::Baseline).expect("runs");
    let c = &r.counters;
    // Partition: every conditional branch is taken or not taken.
    assert_eq!(c.branches, c.branches_taken + c.branches_not_taken);
    // Qualifying tuples = 2n - bT (Section 2.2), summed over vectors.
    let n = t.rows() as u64;
    assert_eq!(r.result.rows_qualified, 2 * n - c.branches_taken);
    // Mispredictions split by direction.
    assert!(c.mp_taken <= c.branches_taken);
    assert!(c.mp_not_taken <= c.branches_not_taken);
}

#[test]
fn sorted_layout_enables_phase_switches() {
    let t = generate_lineitem(&TpchConfig::with_rows(1 << 16).shipdate_layout(Layout::Sorted));
    let r = QueryBuilder::q6(&t)
        .vector_tuples(2048)
        .run(RunMode::Progressive { reop_interval: 2 })
        .expect("progressive runs");
    // On sorted data the optimal order changes between the date-window
    // phases; at least one non-reverted switch must happen.
    assert!(
        r.switches.iter().any(|s| !s.reverted),
        "no accepted switches on sorted data: {:?}",
        r.switches
    );
}

#[test]
fn empty_result_queries_are_handled() {
    let t = table();
    let plan = SelectionPlan::new(
        vec![popt::core::predicate::Predicate::new(
            "l_quantity",
            popt::core::predicate::CompareOp::Lt,
            0, // nothing qualifies
        )],
        vec!["l_extendedprice".into()],
    )
    .expect("plan");
    let r = QueryBuilder::new(&t, plan)
        .run(RunMode::Progressive { reop_interval: 2 })
        .expect("runs");
    assert_eq!(r.result.rows_qualified, 0);
    assert_eq!(r.result.sum, 0);
}

#[test]
fn different_cpu_presets_agree_on_results() {
    let t = table();
    for cpu in [
        popt::cpu::CpuConfig::nehalem(),
        popt::cpu::CpuConfig::ivy_bridge(),
        popt::cpu::CpuConfig::amd(),
    ] {
        let r = QueryBuilder::q6(&t)
            .cpu(cpu)
            .run(RunMode::Baseline)
            .expect("runs");
        let reference = QueryBuilder::q6(&t).run(RunMode::Baseline).expect("runs");
        assert_eq!(
            r.result, reference.result,
            "results must not depend on the CPU"
        );
    }
}

/// A static run is the vector loop with no rounds: `RunMode::Baseline`
/// is exactly one `run_range` per vector range of the start order, on a
/// fresh default core, and reports no optimizer activity.
#[test]
fn baseline_mode_is_a_plain_vector_loop_over_the_lowered_program() {
    let t = table();
    let plan = QueryBuilder::q6_plan();
    let start = vec![2, 0, 4, 1, 3];
    let vectors = VectorConfig {
        vector_tuples: 4096,
        max_vectors: None,
    };
    let r = QueryBuilder::new(&t, plan.clone())
        .initial_peo(start.clone())
        .vector_tuples(vectors.vector_tuples)
        .run(RunMode::Baseline)
        .expect("baseline runs");

    let program = CompiledProgram::from_selection(&t, &plan, &start).expect("lowers");
    let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
    let ranges = vectors.ranges(t.rows()).expect("valid vectors");
    let mut total = VectorStats::zero();
    for &(lo, hi) in &ranges {
        total.accumulate(&program.run_range(&mut cpu, lo, hi));
    }
    assert_eq!(r.result.rows_qualified, total.qualified);
    assert_eq!(r.result.sum, total.sum);
    assert_eq!(r.cycles, total.counters.cycles);
    assert_eq!(r.counters, total.counters);
    assert_eq!(r.vectors, ranges.len());
    assert!(r.switches.is_empty());
    assert_eq!(r.estimates, 0);
    assert_eq!(r.final_peo, start);
}

/// `RunMode::Progressive` is the serial drive over the lowered program,
/// whole report for whole report.
#[test]
fn progressive_mode_is_the_serial_drive_over_the_lowered_program() {
    let t = table();
    let plan = QueryBuilder::q6_plan();
    let start = vec![4, 3, 2, 1, 0];
    let vectors = VectorConfig {
        vector_tuples: 2048,
        max_vectors: None,
    };
    let r = QueryBuilder::new(&t, plan.clone())
        .initial_peo(start.clone())
        .vector_tuples(vectors.vector_tuples)
        .run(RunMode::Progressive { reop_interval: 2 })
        .expect("progressive runs");

    let mut program = CompiledProgram::from_selection(&t, &plan, &start).expect("lowers");
    let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
    let reference = run_progressive_program_observed(
        &mut program,
        &start,
        vectors,
        &mut cpu,
        &ProgressiveConfig { reop_interval: 2 },
        &ExecObservers::none(),
    )
    .expect("progressive runs");
    assert!(reference.estimates > 0);
    assert_eq!(r, QueryReport::from(reference));
}
