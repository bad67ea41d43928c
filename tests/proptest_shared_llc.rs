//! Property: the shared-LLC socket model moves *cycles*, never results.
//! For random mixed programs swept across worker counts and morsel
//! sizes, execution on a shared-socket pool is bit-identical to the
//! private-LLC pool and to the serial single-core executor — with and
//! without progressive reoptimization, i.e. regardless of how the
//! contended capacity steers the optimizer's decisions.
//!
//! Case count is the vendored proptest default (256), pinnable via the
//! upstream-compatible `PROPTEST_CASES` environment variable.

use proptest::prelude::*;

use popt::core::parallel::{run_parallel_program_observed, MorselConfig};
use popt::core::progressive::ProgressiveConfig;
use popt::core::ExecObservers;
use popt::cpu::{CpuConfig, CpuPool, LlcMode, SimCpu};

mod common;
use common::{build, tables, ROWS};

proptest! {
    /// Shared-LLC mode on/off × reopt on/off × workers × morsel sizes:
    /// every combination produces the serial executor's exact bits.
    #[test]
    fn contention_never_moves_results(
        stages in 2usize..4,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
        workers in 1usize..9,
        morsel_tuples in 128usize..1500,
    ) {
        let (fact, dim) = tables(seed);
        let serial = build(&fact, &dim, stages, kinds, lit);
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let expect = serial.run_range(&mut cpu, 0, ROWS);

        for mode in [LlcMode::Private, LlcMode::Shared] {
            for progressive in [false, true] {
                let mut program = build(&fact, &dim, stages, kinds, lit);
                let mut pool = CpuPool::with_mode(CpuConfig::tiny_test(), workers, mode);
                let config = ProgressiveConfig { reop_interval: 2 };
                let report = run_parallel_program_observed(
                    &mut program,
                    &(0..stages).collect::<Vec<_>>(),
                    MorselConfig::new(morsel_tuples),
                    &mut pool,
                    progressive.then_some(&config), &ExecObservers::none(),
                ).expect("parallel run succeeds");
                prop_assert_eq!(
                    report.qualified, expect.qualified,
                    "mode={:?} workers={} morsel={} progressive={}",
                    mode, workers, morsel_tuples, progressive
                );
                prop_assert_eq!(report.sum, expect.sum);
                // The partition actually engaged: a multi-worker shared
                // socket leaves every core less than the full LLC.
                if mode == LlcMode::Shared && workers > 1 {
                    let full = pool.config().llc().capacity_bytes;
                    prop_assert!(pool.min_effective_llc_bytes() < full);
                }
            }
        }
    }
}
