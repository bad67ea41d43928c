//! Property: the NUMA socket topology moves *cycles*, never results.
//!
//! Two guarantees, for random mixed programs:
//!
//! * sockets × workers × LLC mode × reopt on/off — execution on a
//!   multi-socket pool (with a placement that homes the probed dimension
//!   on one socket, so remote surcharges really fire) is bit-identical
//!   to the serial single-core executor;
//! * a 1-socket NUMA pool is the flat pre-NUMA pool *exactly*: the whole
//!   [`ParallelReport`] — per-worker cycles included — matches the
//!   `CpuPool::with_mode` run bit-for-bit, with reoptimization off and
//!   on.
//!
//! Case count is the vendored proptest default (256), pinnable via the
//! upstream-compatible `PROPTEST_CASES` environment variable.

use proptest::prelude::*;

use popt::core::parallel::{run_parallel_program_observed, MorselConfig};
use popt::core::progressive::ProgressiveConfig;
use popt::core::ExecObservers;
use popt::cpu::{CpuConfig, CpuPool, LlcMode, NumaPlacement, SimCpu};

mod common;
use common::{build, tables, ROWS};

proptest! {
    /// Sockets × LLC mode × reopt on/off × workers × morsel sizes: every
    /// combination produces the serial executor's exact bits, even with
    /// a placement that homes the whole probed dimension on the last
    /// socket (maximally remote for every other socket's workers).
    #[test]
    fn numa_topology_never_moves_results(
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

        for sockets in [1usize, 2] {
            if sockets > workers {
                continue;
            }
            for mode in [LlcMode::Private, LlcMode::Shared] {
                for progressive in [false, true] {
                    let mut program = build(&fact, &dim, stages, kinds, lit);
                    let mut pool =
                        CpuPool::with_topology(CpuConfig::tiny_test(), workers, mode, sockets);
                    if sockets > 1 {
                        let mut placement = NumaPlacement::interleaved(sockets);
                        let payload = dim.column("payload").expect("dim payload");
                        placement.register(
                            payload.base_addr(),
                            (dim.rows() * 4) as u64,
                            sockets - 1,
                        );
                        pool.set_placement(&placement);
                    }
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
                        "sockets={} mode={:?} workers={} morsel={} progressive={}",
                        sockets, mode, workers, morsel_tuples, progressive
                    );
                    prop_assert_eq!(report.sum, expect.sum);
                    // One published order per socket, all of them valid
                    // permutations the run actually executed under.
                    prop_assert_eq!(report.socket_orders.len(), sockets);
                    if sockets == 1 {
                        prop_assert_eq!(
                            report.remote_access_pct, 0.0,
                            "a single socket has nothing remote"
                        );
                    }
                }
            }
        }
    }

    /// A 1-socket NUMA pool is the flat pre-NUMA pool bit-for-bit: same
    /// results, same per-worker cycles, same counters, same switches —
    /// the whole report matches, with reoptimization off and on.
    #[test]
    fn one_socket_pool_is_the_flat_pool_exactly(
        stages in 2usize..4,
        kinds in any::<u64>(),
        lit in 100i64..900,
        seed in any::<u64>(),
        workers in 1usize..9,
        morsel_tuples in 128usize..1500,
    ) {
        let (fact, dim) = tables(seed);
        let config = ProgressiveConfig { reop_interval: 2 };
        for mode in [LlcMode::Private, LlcMode::Shared] {
            for reopt in [None, Some(&config)] {
                let order: Vec<usize> = (0..stages).collect();
                let mut flat_program = build(&fact, &dim, stages, kinds, lit);
                let mut flat_pool = CpuPool::with_mode(CpuConfig::tiny_test(), workers, mode);
                let flat = run_parallel_program_observed(
                    &mut flat_program,
                    &order,
                    MorselConfig::new(morsel_tuples),
                    &mut flat_pool,
                    reopt, &ExecObservers::none(),
                ).expect("flat run succeeds");

                let mut numa_program = build(&fact, &dim, stages, kinds, lit);
                let mut numa_pool =
                    CpuPool::with_topology(CpuConfig::tiny_test(), workers, mode, 1);
                let numa = run_parallel_program_observed(
                    &mut numa_program,
                    &order,
                    MorselConfig::new(morsel_tuples),
                    &mut numa_pool,
                    reopt, &ExecObservers::none(),
                ).expect("1-socket run succeeds");

                prop_assert_eq!(
                    &numa, &flat,
                    "mode={:?} workers={} morsel={} reopt={}",
                    mode, workers, morsel_tuples, reopt.is_some()
                );
            }
        }
    }
}
