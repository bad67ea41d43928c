//! Golden pins of the §4.4 reoptimization *decisions*: whole reports,
//! literal expected values, for the serial loop, the 1-worker pool and a
//! 1-worker server batch. Every run here is deterministic (one core or
//! one worker: no arrival races), so any change to when a round fires,
//! what it proposes, how a trial is judged, what is remembered as
//! rejected or what a fit is charged shows up as a diff of these texts —
//! far inside the 10 % tolerance the figure baselines allow.

use popt::core::parallel::{run_parallel_program_observed, MorselConfig, ParallelReport};
use popt::core::plan::{Expr, PlanBuilder, SelectionPlan};
use popt::core::predicate::{CompareOp, Predicate};
use popt::core::progressive::{
    run_progressive_program_observed, ProgressiveConfig, ProgressiveReport, SwitchEvent,
    VectorConfig, REJECTION_TTL,
};
use popt::core::serve::{Priority, QueryServer, QuerySpec, ServeConfig, ServeReport};
use popt::core::CompiledProgram;
use popt::core::ExecObservers;
use popt::cpu::pmu::CounterDelta;
use popt::cpu::{CpuPool, SimCpu};
use popt::storage::distribution::correlated_pair;
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::{star_program, star_schema, xorshift64, StarSchema};

mod common;
use common::small_cache_cpu;

/// FNV-1a over the little-endian bytes of a cycle series.
fn fnv1a(values: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn render_switches(out: &mut String, switches: &[SwitchEvent]) {
    for s in switches {
        out.push_str(&format!(
            "  switch @{} {:?} -> {:?} reverted={} exploratory={}\n",
            s.vector, s.from, s.to, s.reverted, s.exploratory
        ));
    }
}

fn render_counters(c: &CounterDelta) -> String {
    let c = c.0;
    format!(
        "instr={} cycles={} br={} taken={} not_taken={} mp_t={} mp_nt={} l1={} l1_hit={} \
         l1_elem={} l2={} l3={} l3_miss={}",
        c.instructions,
        c.cycles,
        c.branches,
        c.branches_taken,
        c.branches_not_taken,
        c.mp_taken,
        c.mp_not_taken,
        c.l1_accesses,
        c.l1_hits,
        c.l1_element_hits,
        c.l2_accesses,
        c.l3_accesses,
        c.l3_misses,
    )
}

fn render_serial(r: &ProgressiveReport) -> String {
    let mut out = format!(
        "qualified={} sum={} cycles={} vectors={} estimates={} optimizer_cycles={} final_peo={:?}\n\
         counters: {}\nper_vector_fnv={:#018x}\n",
        r.qualified,
        r.sum,
        r.cycles,
        r.vectors,
        r.estimates,
        r.optimizer_cycles,
        r.final_peo,
        render_counters(&r.counters),
        fnv1a(&r.per_vector_cycles),
    );
    render_switches(&mut out, &r.switches);
    out
}

fn render_parallel(r: &ParallelReport) -> String {
    let mut out = format!(
        "qualified={} sum={} wall={} total={} workers={} morsels={} per_worker={:?} estimates={} \
         optimizer_cycles={} final_order={:?} socket_orders={:?} remote_pct={}\ncounters: {}\n",
        r.qualified,
        r.sum,
        r.wall_cycles,
        r.total_cycles,
        r.workers,
        r.morsels,
        r.per_worker_cycles,
        r.estimates,
        r.optimizer_cycles,
        r.final_order,
        r.socket_orders,
        r.remote_access_pct,
        render_counters(&r.counters),
    );
    render_switches(&mut out, &r.switches);
    out
}

fn render_serve(r: &ServeReport) -> String {
    let mut out = format!(
        "workers={} wall={} busy={} idle={} per_worker_busy={:?} per_worker_idle={:?}\n",
        r.workers,
        r.wall_cycles,
        r.busy_cycles,
        r.idle_cycles,
        r.per_worker_busy_cycles,
        r.per_worker_idle_cycles,
    );
    for q in &r.queries {
        out.push_str(&format!(
            "{}: qualified={} sum={} morsels={} exec={} optimizer={} latency={} queue={} \
             estimates={} final_order={:?} warm={}\n",
            q.label,
            q.qualified,
            q.sum,
            q.morsels,
            q.exec_cycles,
            q.optimizer_cycles,
            q.latency_cycles,
            q.queue_cycles,
            q.estimates,
            q.final_order,
            q.warm_start,
        ));
        render_switches(&mut out, &q.switches);
    }
    out
}

/// Compare against the pinned text, printing the actual text whole so a
/// deliberate re-pin is one paste.
fn assert_pinned(actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "report moved.\n--- actual ---\n{actual}--- expected ---\n{expected}"
    );
}

// ---------------------------------------------------------------------
// (a) Correlated 3-predicate scan: revert, TTL suppression, stall
// exploration.
// ---------------------------------------------------------------------

const SCAN_ROWS: usize = 1 << 16;

/// `a` and `b` are near-copies (conditional selectivity of the second
/// ≈ 1 whichever runs first); `c` is independent.
fn correlated_table() -> Table {
    let (a, b) = correlated_pair(SCAN_ROWS, 1000, 5, 0xC0DE);
    let mut state = 0x5EED_u64;
    let c: Vec<i32> = (0..SCAN_ROWS)
        .map(|_| (xorshift64(&mut state) % 1000) as i32)
        .collect();
    let mut space = AddressSpace::new();
    let mut t = Table::new("corr");
    t.add_column("a", ColumnData::I32(a), &mut space);
    t.add_column("b", ColumnData::I32(b), &mut space);
    t.add_column("c", ColumnData::I32(c), &mut space);
    t
}

fn correlated_plan() -> SelectionPlan {
    SelectionPlan::new(
        vec![
            Predicate::new("a", CompareOp::Lt, 300),
            Predicate::new("b", CompareOp::Lt, 320),
            Predicate::new("c", CompareOp::Lt, 310),
        ],
        vec!["c".into()],
    )
    .unwrap()
}

fn scan_config() -> ProgressiveConfig {
    ProgressiveConfig { reop_interval: 2 }
}

const SCAN_SERIAL: &str = r"qualified=6247 sum=963455 cycles=1067447 vectors=32 estimates=12 optimizer_cycles=84960 final_peo=[0, 1, 2]
counters: instr=561037 cycles=982487 br=168342 taken=124825 not_taken=43517 mp_t=4977 mp_nt=23979 l1=12112 l1_hit=0 l1_elem=96941 l2=12112 l3=12264 l3_miss=12264
per_vector_fnv=0x411b95ae3677feb2
  switch @2 [0, 1, 2] -> [2, 0, 1] reverted=true exploratory=false
  switch @6 [0, 1, 2] -> [0, 2, 1] reverted=true exploratory=false
  switch @12 [0, 1, 2] -> [0, 2, 1] reverted=true exploratory=false
  switch @16 [0, 1, 2] -> [2, 0, 1] reverted=true exploratory=true
  switch @22 [0, 1, 2] -> [0, 2, 1] reverted=true exploratory=false
  switch @24 [0, 1, 2] -> [2, 0, 1] reverted=true exploratory=true
";

#[test]
fn serial_correlated_scan_reverts_suppresses_then_explores() {
    let t = correlated_table();
    let plan = correlated_plan();
    let mut cpu = SimCpu::new(popt::cpu::CpuConfig::ivy_bridge());
    let mut program = CompiledProgram::from_selection(&t, &plan, &[0, 1, 2]).unwrap();
    let report = run_progressive_program_observed(
        &mut program,
        &[0, 1, 2],
        VectorConfig {
            vector_tuples: 2048,
            max_vectors: None,
        },
        &mut cpu,
        &scan_config(),
        &ExecObservers::none(),
    )
    .unwrap();
    assert_pinned(&render_serial(&report), SCAN_SERIAL);
}

const SCAN_POOL: &str = r"qualified=6247 sum=963455 wall=1041411 total=1041411 workers=1 morsels=32 per_worker=[1041411] estimates=9 optimizer_cycles=59460 final_order=[0, 1, 2] socket_orders=[[0, 1, 2]] remote_pct=0
counters: instr=559005 cycles=981951 br=167834 taken=124825 not_taken=43009 mp_t=4911 mp_nt=23927 l1=12099 l1_hit=0 l1_elem=96446 l2=12099 l3=12268 l3_miss=12268
  switch @2 [0, 1, 2] -> [2, 0, 1] reverted=true exploratory=false
  switch @5 [0, 1, 2] -> [0, 2, 1] reverted=true exploratory=false
  switch @10 [0, 1, 2] -> [2, 0, 1] reverted=true exploratory=true
  switch @15 [0, 1, 2] -> [0, 2, 1] reverted=true exploratory=false
  switch @20 [0, 1, 2] -> [2, 0, 1] reverted=true exploratory=true
  switch @27 [0, 1, 2] -> [0, 2, 1] reverted=true exploratory=false
  switch @30 [0, 1, 2] -> [2, 0, 1] reverted=true exploratory=true
";

#[test]
fn one_worker_pool_correlated_scan() {
    let t = correlated_table();
    let plan = correlated_plan();
    let mut pool = CpuPool::new(popt::cpu::CpuConfig::ivy_bridge(), 1);
    let report = run_parallel_program_observed(
        &mut CompiledProgram::from_selection(&t, &plan, &[0, 1, 2]).unwrap(),
        &[0, 1, 2],
        MorselConfig::new(2048),
        &mut pool,
        Some(&scan_config()),
        &ExecObservers::none(),
    )
    .unwrap();
    assert_pinned(&render_parallel(&report), SCAN_POOL);
}

// ---------------------------------------------------------------------
// (b) 3-join star through the frontend: measurement probes + calibration.
// ---------------------------------------------------------------------

const STAR_ROWS: usize = 1 << 16;
const STAR_START: [usize; 4] = [3, 2, 1, 0];

fn star() -> StarSchema {
    star_schema(STAR_ROWS, 0x57A12)
}

fn star_plan(star: &StarSchema) -> CompiledProgram<'_> {
    star_program(star, Some(0.5), [0.5, 0.5, 0.5])
}

const STAR_SERIAL: &str = r"qualified=4075 sum=201988 cycles=4141244 vectors=32 estimates=17 optimizer_cycles=554640 final_peo=[1, 3, 2, 0]
counters: instr=1847199 cycles=3586604 br=188019 taken=126997 not_taken=61022 mp_t=21370 mp_nt=21368 l1=77525 l1_hit=7883 l1_elem=160628 l2=69642 l3=71706 l3_miss=22913
per_vector_fnv=0xb25b1b091fabfc34
  switch @2 [3, 2, 1, 0] -> [3, 0, 2, 1] reverted=true exploratory=false
  switch @4 [3, 2, 1, 0] -> [2, 3, 1, 0] reverted=true exploratory=true
  switch @6 [3, 2, 1, 0] -> [1, 3, 2, 0] reverted=false exploratory=true
  switch @8 [1, 3, 2, 0] -> [3, 2, 1, 0] reverted=true exploratory=false
  switch @12 [1, 3, 2, 0] -> [0, 1, 3, 2] reverted=true exploratory=true
  switch @14 [1, 3, 2, 0] -> [3, 1, 0, 2] reverted=true exploratory=false
";

#[test]
fn serial_star_spends_probes_and_calibrates() {
    let star = star();
    let mut program = star_plan(&star);
    let mut cpu = SimCpu::new(small_cache_cpu());
    let report = run_progressive_program_observed(
        &mut program,
        &STAR_START,
        VectorConfig {
            vector_tuples: 2048,
            max_vectors: None,
        },
        &mut cpu,
        &scan_config(),
        &ExecObservers::none(),
    )
    .unwrap();
    assert_pinned(&render_serial(&report), STAR_SERIAL);
}

const STAR_POOL: &str = r"qualified=4075 sum=201988 wall=4116461 total=4116461 workers=1 morsels=32 per_worker=[4116461] estimates=16 optimizer_cycles=529380 final_order=[1, 3, 2, 0] socket_orders=[[1, 3, 2, 0]] remote_pct=0
counters: instr=1847205 cycles=3587081 br=187980 taken=126997 not_taken=60983 mp_t=21375 mp_nt=21347 l1=77460 l1_hit=7897 l1_elem=160606 l2=69563 l3=71678 l3_miss=22915
  switch @2 [3, 2, 1, 0] -> [3, 0, 2, 1] reverted=true exploratory=false
  switch @4 [3, 2, 1, 0] -> [2, 3, 1, 0] reverted=true exploratory=true
  switch @6 [3, 2, 1, 0] -> [1, 3, 2, 0] reverted=false exploratory=true
  switch @9 [1, 3, 2, 0] -> [3, 2, 1, 0] reverted=true exploratory=false
  switch @12 [1, 3, 2, 0] -> [3, 1, 0, 2] reverted=true exploratory=false
  switch @17 [1, 3, 2, 0] -> [0, 1, 3, 2] reverted=true exploratory=true
";

#[test]
fn one_worker_pool_star() {
    let star = star();
    let mut program = star_plan(&star);
    let mut pool = CpuPool::new(small_cache_cpu(), 1);
    let report = run_parallel_program_observed(
        &mut program,
        &STAR_START,
        MorselConfig::new(2048),
        &mut pool,
        Some(&scan_config()),
        &ExecObservers::none(),
    )
    .unwrap();
    assert_pinned(&render_parallel(&report), STAR_POOL);
}

#[test]
fn one_worker_pool_spends_probes_on_consecutive_reports() {
    // A probe runs no fit, so once the first round has opened the pool
    // spends the star's measurement probes as fast as trials resolve: one
    // at each in-epoch report with no trial pending — two morsels apart
    // (the probe's trial, then one morsel under the accepted order) —
    // not one per `reop_interval` morsels.
    let star = star();
    let mut program = star_plan(&star);
    let mut pool = CpuPool::new(small_cache_cpu(), 1);
    let report = run_parallel_program_observed(
        &mut program,
        &STAR_START,
        MorselConfig::new(2048),
        &mut pool,
        Some(&ProgressiveConfig { reop_interval: 8 }),
        &ExecObservers::none(),
    )
    .unwrap();
    let switches = &report.switches;
    assert!(
        switches
            .first()
            .is_some_and(|s| s.vector == 8 && !s.exploratory),
        "the first round fits: {switches:?}"
    );
    let probes = switches[1..].iter().take_while(|s| s.exploratory).count();
    assert!(probes >= 2, "{switches:?}");
    for pair in switches[..=probes].windows(2) {
        assert_eq!(pair[1].vector, pair[0].vector + 2, "{switches:?}");
    }
}

// ---------------------------------------------------------------------
// (c) reop_interval = 1 on a calibrating program: every trial vector
// coincides with a round. A surviving trial's fit is reused by that
// round; a reverted trial leaves a stale sample and the round refits.
// ---------------------------------------------------------------------

const EVERY_VECTOR: &str = r"qualified=4075 sum=201988 cycles=5140636 vectors=32 estimates=35 optimizer_cycles=1119720 final_peo=[3, 1, 2, 0]
counters: instr=2064651 cycles=4020916 br=188125 taken=126997 not_taken=61128 mp_t=26847 mp_nt=27065 l1=95205 l1_hit=12245 l1_elem=138242 l2=82960 l3=74046 l3_miss=23031
per_vector_fnv=0xd5bc413e48b93088
  switch @1 [3, 2, 1, 0] -> [3, 0, 2, 1] reverted=false exploratory=false
  switch @2 [3, 0, 2, 1] -> [2, 3, 0, 1] reverted=true exploratory=true
  switch @3 [3, 0, 2, 1] -> [1, 3, 0, 2] reverted=false exploratory=true
  switch @4 [1, 3, 0, 2] -> [3, 0, 1, 2] reverted=true exploratory=false
  switch @5 [1, 3, 0, 2] -> [3, 1, 2, 0] reverted=false exploratory=false
  switch @6 [3, 1, 2, 0] -> [3, 2, 1, 0] reverted=true exploratory=false
  switch @8 [3, 1, 2, 0] -> [0, 3, 1, 2] reverted=true exploratory=true
  switch @9 [3, 1, 2, 0] -> [3, 1, 0, 2] reverted=false exploratory=false
  switch @10 [3, 1, 0, 2] -> [1, 3, 2, 0] reverted=false exploratory=false
  switch @11 [1, 3, 2, 0] -> [1, 3, 0, 2] reverted=false exploratory=false
  switch @12 [1, 3, 0, 2] -> [3, 0, 1, 2] reverted=true exploratory=false
  switch @13 [1, 3, 0, 2] -> [3, 1, 2, 0] reverted=false exploratory=false
  switch @14 [3, 1, 2, 0] -> [3, 2, 1, 0] reverted=true exploratory=false
  switch @16 [3, 1, 2, 0] -> [0, 3, 1, 2] reverted=true exploratory=true
  switch @21 [3, 1, 2, 0] -> [3, 0, 1, 2] reverted=true exploratory=false
";

#[test]
fn coinciding_round_reuses_a_surviving_trial_fit_and_refits_after_a_revert() {
    let star = star();
    let mut program = star_plan(&star);
    let mut cpu = SimCpu::new(small_cache_cpu());
    let report = run_progressive_program_observed(
        &mut program,
        &STAR_START,
        VectorConfig {
            vector_tuples: 2048,
            max_vectors: None,
        },
        &mut cpu,
        &ProgressiveConfig { reop_interval: 1 },
        &ExecObservers::none(),
    )
    .unwrap();
    assert_pinned(&render_serial(&report), EVERY_VECTOR);

    // The fit count separates reuse from refit. With a round after every
    // vector but the last, and every trial resolved (and fitted, the
    // target calibrates from trials) on the vector after its switch:
    // a round that schedules an exploratory switch fits nothing, nor
    // does a stalled even round whose exploration the regret budget
    // refuses; any other round fits once — unless the vector was a trial
    // that survived, whose resolution fit the round reuses.
    let trial_at = |v: usize| report.switches.iter().find(|s| s.vector == v);
    // Round `r` opens after vector `r - 1`, once every switch scheduled
    // before it resolved; stalled: three rounds since the last accept
    // and an estimator proposal reverted within `REJECTION_TTL` rounds.
    let stalled_even_round = |r: usize| {
        let last = |resolved_as: fn(&SwitchEvent) -> bool| {
            let before = report.switches.iter().filter(|s| s.vector < r);
            before.filter(|s| resolved_as(s)).map(|s| s.vector).max()
        };
        r % 2 == 0
            && r >= last(|s| !s.reverted).unwrap_or(0) + 3
            && last(|s| s.reverted && !s.exploratory).is_some_and(|d| r - d <= REJECTION_TTL)
    };
    let mut fits = 0;
    let (mut reused, mut refitted) = (0, 0);
    for v in 0..report.vectors {
        let trial = trial_at(v);
        fits += usize::from(trial.is_some());
        if v + 1 == report.vectors {
            continue;
        }
        if trial_at(v + 1).is_some_and(|s| s.exploratory) || stalled_even_round(v + 1) {
            continue;
        }
        match trial {
            Some(s) if !s.reverted => reused += 1,
            Some(_) => {
                refitted += 1;
                fits += 1;
            }
            None => fits += 1,
        }
    }
    assert!(reused > 0, "no surviving trial met a round: {report:?}");
    assert!(refitted > 0, "no reverted trial met a round: {report:?}");
    assert_eq!(
        report.estimates, fits,
        "reused {reused}, refitted {refitted}"
    );
}

// ---------------------------------------------------------------------
// One 1-worker server batch of two templates.
// ---------------------------------------------------------------------

const SERVE_BATCH: &str = r"workers=1 wall=2154391 busy=2154391 idle=0 per_worker_busy=[2154391] per_worker_idle=[0]
corr-scan: qualified=6247 sum=963455 morsels=32 exec=983721 optimizer=57600 latency=2154391 queue=0 estimates=9 final_order=[0, 1, 2] warm=false
  switch @2 [0, 1, 2] -> [2, 0, 1] reverted=true exploratory=false
  switch @5 [0, 1, 2] -> [0, 2, 1] reverted=true exploratory=false
  switch @10 [0, 1, 2] -> [2, 0, 1] reverted=true exploratory=true
  switch @15 [0, 1, 2] -> [0, 2, 1] reverted=true exploratory=false
  switch @20 [0, 1, 2] -> [2, 0, 1] reverted=true exploratory=true
  switch @27 [0, 1, 2] -> [0, 2, 1] reverted=true exploratory=false
  switch @30 [0, 1, 2] -> [2, 0, 1] reverted=true exploratory=true
star-2join: qualified=9 sum=460 morsels=32 exec=985450 optimizer=127620 latency=1379680 queue=30998 estimates=17 final_order=[2, 0, 1] warm=false
  switch @2 [1, 2, 0] -> [0, 1, 2] reverted=true exploratory=false
  switch @4 [1, 2, 0] -> [2, 1, 0] reverted=false exploratory=true
  switch @7 [2, 1, 0] -> [2, 0, 1] reverted=false exploratory=false
  switch @10 [2, 0, 1] -> [2, 1, 0] reverted=true exploratory=false
";

#[test]
fn one_worker_server_batch_of_two_templates() {
    let t = correlated_table();
    let star = star();
    let mut server = QueryServer::new(ServeConfig {
        morsels: MorselConfig::new(2048),
        reopt: Some(scan_config()),
        ..Default::default()
    });
    server.admit(QuerySpec::scan(
        "corr-scan",
        &t,
        correlated_plan(),
        vec![0, 1, 2],
        Priority::Normal,
        0,
    ));
    let mut join = PlanBuilder::scan(&star.fact)
        .filter_costed(Expr::col("val").less_than(500), 50)
        .join(
            &star.supplier,
            "fk_supplier",
            Expr::col("s_payload").less_than(500),
        )
        .join(
            &star.customer,
            "fk_customer",
            Expr::col("c_payload").less_than(500),
        )
        .aggregate("agg")
        .build()
        .compile()
        .unwrap();
    join.reorder(&[1, 2, 0]).unwrap();
    server.admit(QuerySpec::compiled("star-2join", join, Priority::High, 0));
    let mut pool = CpuPool::new(small_cache_cpu(), 1);
    let report = server.run(&mut pool).unwrap();
    assert_pinned(&render_serve(&report), SERVE_BATCH);
}
