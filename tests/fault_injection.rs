//! Fault injection: a target whose `set_order` fails in the middle of a
//! reoptimization round must surface that error from the serial drive
//! *and* from the pooled one — no panic, no hang, no silently dropped
//! round — and the failing worker's siblings must stop at their next
//! morsel boundary instead of finishing the scan.

use popt::core::parallel::{run_parallel_target_observed, MorselConfig};
use popt::core::progressive::{
    run_progressive_target_observed, CompiledTarget, ProgressiveConfig, ProgressiveTarget,
    VectorConfig,
};
use popt::core::{EngineError, ExecObservers, ShardableTarget};
use popt::cost::estimate::PlanGeometry;
use popt::cpu::{CpuConfig, CpuPool, NumaPlacement, SimCpu};
use popt::solver::{CalibrationSnapshot, SampledCounters};
use popt_bench::figures::workload::{star_program, star_schema};

mod common;
use common::small_cache_cpu;

/// Delegates everything to `inner`, except that the `fail_at`-th
/// `set_order` call (1-based) fails. Shards are the inner target's own,
/// so on a pool only the coordinator's master target is affected.
struct Failing<T> {
    inner: T,
    calls: usize,
    fail_at: usize,
}

fn injected() -> EngineError {
    EngineError::UnsupportedExpr("injected set_order fault".into())
}

impl<T: ProgressiveTarget> ProgressiveTarget for Failing<T> {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn order(&self) -> Vec<usize> {
        self.inner.order()
    }
    fn set_order(&mut self, order: &[usize]) -> Result<(), EngineError> {
        self.calls += 1;
        if self.calls == self.fail_at {
            return Err(injected());
        }
        self.inner.set_order(order)
    }
    fn run_range(
        &mut self,
        cpu: &mut SimCpu,
        start: usize,
        end: usize,
    ) -> popt::core::exec::scan::VectorStats {
        self.inner.run_range(cpu, start, end)
    }
    fn plan_geometry(&self, n_input: u64, cpu: &CpuConfig, llc_bytes: u64) -> PlanGeometry {
        self.inner.plan_geometry(n_input, cpu, llc_bytes)
    }
    fn plan_geometry_numa(
        &self,
        n_input: u64,
        cpu: &CpuConfig,
        llc_bytes: u64,
        placement: &NumaPlacement,
        socket: usize,
    ) -> PlanGeometry {
        self.inner
            .plan_geometry_numa(n_input, cpu, llc_bytes, placement, socket)
    }
    fn hot_set_bytes(&self) -> u64 {
        self.inner.hot_set_bytes()
    }
    fn propose_order(&self, geom: &PlanGeometry, selectivities: &[f64]) -> Vec<usize> {
        self.inner.propose_order(geom, selectivities)
    }
    fn calibrate(&mut self, geom: &PlanGeometry, sampled: &SampledCounters, survivors: &[f64]) {
        self.inner.calibrate(geom, sampled, survivors)
    }
    fn take_probe_order(&mut self) -> Option<Vec<usize>> {
        self.inner.take_probe_order()
    }
    fn wants_trial_calibration(&self) -> bool {
        self.inner.wants_trial_calibration()
    }
    fn calibration_snapshot(&self) -> Option<CalibrationSnapshot> {
        self.inner.calibration_snapshot()
    }
    fn restore_calibration(&mut self, snapshot: &CalibrationSnapshot) {
        self.inner.restore_calibration(snapshot)
    }
    fn stage_keys(&self) -> Vec<u64> {
        self.inner.stage_keys()
    }
    fn stage_profile_weights(&self) -> Vec<f64> {
        self.inner.stage_profile_weights()
    }
}

impl<T: ShardableTarget> ShardableTarget for Failing<T> {
    type Shard = T::Shard;

    fn shard(&self) -> Result<Self::Shard, EngineError> {
        self.inner.shard()
    }
}

const ROWS: usize = 1 << 16;
const START: [usize; 4] = [3, 2, 1, 0];

fn config() -> ProgressiveConfig {
    ProgressiveConfig {
        reop_interval: 2,
        ..Default::default()
    }
}

#[test]
fn serial_drive_returns_the_injected_error() {
    let star = star_schema(ROWS, 0x57A12);
    let run = |fail_at: usize| {
        let mut program = star_program(&star, Some(0.5), [0.5, 0.5, 0.5]);
        program.reorder(&START).unwrap();
        let mut target = Failing {
            inner: CompiledTarget::new(&mut program),
            calls: 0,
            fail_at,
        };
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

/// The pooled drive at 1, 2 and 4 workers. Its worker scaffold (one
/// mutex, first error kept, siblings stopped at their next boundary
/// lock) and morsel step are the query server's too, so this also covers
/// the server's error path, which no test can reach from outside: a
/// served query's `CompiledTarget` never fails `set_order` on a valid
/// order.
#[test]
fn pooled_drive_returns_the_injected_error_and_siblings_stop() {
    let star = star_schema(ROWS, 0x57A12);
    let run = |workers: usize, fail_at: usize| {
        let mut program = star_program(&star, Some(0.5), [0.5, 0.5, 0.5]);
        program.reorder(&START).unwrap();
        let mut target = Failing {
            inner: CompiledTarget::new(&mut program),
            calls: 0,
            fail_at,
        };
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
        // The master target's first `set_order` calls re-establish the
        // published order around the first fitted round (before the fit
        // and after it); later ones also cover trial resolution.
        for fail_at in 1..=4 {
            let (report, cycles) = run(workers, fail_at);
            assert_eq!(
                report,
                Err(injected()),
                "workers={workers} fail_at={fail_at}"
            );
            // The failing worker stops at once and its siblings at their
            // next boundary: most of the 64 morsels never run.
            assert!(
                cycles < clean_cycles / 2,
                "workers={workers} fail_at={fail_at}: \
                 {cycles} of {clean_cycles} cycles still executed"
            );
        }
    }
}
