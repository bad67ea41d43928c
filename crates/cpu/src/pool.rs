//! A pool of simulated cores for morsel-driven parallel execution, with
//! an optional **socket model** for the shared last-level cache.
//!
//! Each core is a full [`SimCpu`]: its own private L1/L2, branch
//! predictor, stream state and free-running PMU bank. Its batches hand
//! their hierarchy walks to the walker thread under the same rule as a
//! standalone core's: the hierarchy moves to the walker for one batch and
//! back; it is never shared. What cores share depends on the pool's
//! [`LlcMode`]:
//!
//! * [`LlcMode::Private`] — every core keeps the full configured LLC, as
//!   if each sat on its own socket. Right for one query on one core;
//!   optimistic for co-running work (N private LLCs beat one socket).
//! * [`LlcMode::Shared`] — the configured LLC is the *socket's*, and
//!   co-running cores contend for it. Contention is modelled
//!   **deterministically** by way-partitioning rather than by a shared
//!   mutable cache: callers declare each core's
//!   hot-set footprint at region boundaries
//!   ([`CpuPool::declare_footprints`]), the pool computes every core's
//!   capacity share with [`partition_llc_ways`] (a pure function of the
//!   declared footprints), and each core's hierarchy is restricted to
//!   its slice. Per-core simulated cycles therefore depend only on the
//!   declared co-runner set, and query *results* never depend on cache
//!   state at all.
//!
//! The pool's timing view is the one a wall clock would see: the
//! parallel region is as slow as its busiest core ([`CpuPool::max_cycles`]),
//! while [`CpuPool::total_cycles`] is the aggregate work — their ratio is
//! the scaling figure's speedup denominator.

use crate::config::CpuConfig;
use crate::cpu::SimCpu;
use crate::numa::NumaPlacement;
use crate::pmu::CounterDelta;

/// How a pool models the last-level cache across its cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LlcMode {
    /// Every core keeps the full configured LLC (N independent sockets).
    #[default]
    Private,
    /// One socket: cores contend for the configured LLC capacity via the
    /// deterministic footprint partition.
    Shared,
}

/// Deterministic capacity partition of a shared LLC: split `total_ways`
/// across cores in proportion to their declared hot-set footprints
/// (bytes), by largest-remainder apportionment.
///
/// * A core with footprint zero is not contending; it keeps the full
///   `total_ways` (it runs nothing, so its slice is inert).
/// * A **single** active core keeps the full capacity — an uncontended
///   socket is exactly the private model.
/// * Every active core keeps at least one way, even when that overcommits
///   `total_ways` (more co-runners than ways): the minimum-occupancy
///   floor bounds the pessimism for heavily oversubscribed sockets.
/// * Apportionment is integer arithmetic with ties broken by core index,
///   so the partition is a pure function of the footprint vector.
pub fn partition_llc_ways(total_ways: u32, footprints: &[u64]) -> Vec<u32> {
    assert!(total_ways >= 1, "an LLC has at least one way");
    let mut ways = vec![total_ways; footprints.len()];
    let active: Vec<usize> = (0..footprints.len())
        .filter(|&i| footprints[i] > 0)
        .collect();
    if active.len() <= 1 {
        return ways; // idle pool or lone occupant: full capacity
    }
    let sum: u128 = active.iter().map(|&i| u128::from(footprints[i])).sum();
    // Largest-remainder apportionment over the active cores.
    let mut base: Vec<(usize, u32)> = Vec::with_capacity(active.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(active.len());
    let mut allocated = 0u32;
    for &i in &active {
        let scaled = u128::from(total_ways) * u128::from(footprints[i]);
        let b = (scaled / sum) as u32;
        base.push((i, b));
        remainders.push((scaled % sum, i));
        allocated += b;
    }
    // Hand out the leftover ways by descending remainder (ties: lowest
    // core index first) — deterministic and exact.
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = total_ways - allocated;
    for &(_, i) in &remainders {
        if leftover == 0 {
            break;
        }
        let slot = base.iter_mut().find(|(j, _)| *j == i).expect("active core");
        slot.1 += 1;
        leftover -= 1;
    }
    // Minimum-occupancy floor: raise zero allocations to one way, paid
    // for by the largest allocations while any can still give.
    while let Some(zero) = base.iter().position(|&(_, w)| w == 0) {
        if let Some(donor) = base
            .iter()
            .enumerate()
            .filter(|(_, &(_, w))| w > 1)
            .max_by_key(|(k, &(_, w))| (w, usize::MAX - k))
            .map(|(k, _)| k)
        {
            base[donor].1 -= 1;
        }
        base[zero].1 = 1;
    }
    for (i, w) in base {
        ways[i] = w;
    }
    ways
}

/// A fixed-size pool of simulated cores split into one or more sockets.
///
/// With `sockets == 1` (the [`CpuPool::new`] / [`CpuPool::new_shared`] /
/// [`CpuPool::with_mode`] constructors) the pool is exactly the flat
/// single-socket pool of earlier revisions: every access is local and
/// the shared-LLC partition spans all cores. [`CpuPool::with_topology`]
/// splits the cores into contiguous socket blocks (`socket_of(c) =
/// c * sockets / cores`): each socket then carries its *own* LLC
/// partition over its members, and cores pay the remote surcharge for
/// lines whose [`NumaPlacement`] home differs from their socket.
#[derive(Debug, Clone)]
pub struct CpuPool {
    cores: Vec<SimCpu>,
    mode: LlcMode,
    /// Number of sockets the cores are split across (contiguous blocks).
    sockets: usize,
    /// Most recently declared per-core hot-set footprints (bytes).
    footprints: Vec<u64>,
}

impl CpuPool {
    /// Build a pool of `cores` identical cores from one configuration,
    /// with private (per-core) LLCs — the historical model.
    ///
    /// # Panics
    /// Panics if `cores` is zero — a pool with no cores cannot execute
    /// anything.
    pub fn new(config: CpuConfig, cores: usize) -> Self {
        Self::with_mode(config, cores, LlcMode::Private)
    }

    /// Build a single-socket pool whose cores share the configured LLC
    /// under the deterministic capacity partition.
    pub fn new_shared(config: CpuConfig, cores: usize) -> Self {
        Self::with_mode(config, cores, LlcMode::Shared)
    }

    /// Build a single-socket pool with an explicit [`LlcMode`].
    ///
    /// # Panics
    /// Panics if `cores` is zero.
    pub fn with_mode(config: CpuConfig, cores: usize, mode: LlcMode) -> Self {
        Self::with_topology(config, cores, mode, 1)
    }

    /// Build a pool of `cores` split across `sockets` contiguous socket
    /// blocks. With more than one socket every core starts on the
    /// line-interleaved [`NumaPlacement`] (the OS-default round-robin);
    /// use [`CpuPool::set_placement`] to home specific ranges.
    ///
    /// # Panics
    /// Panics if `cores` is zero or `sockets` is not in `1..=cores`.
    pub fn with_topology(config: CpuConfig, cores: usize, mode: LlcMode, sockets: usize) -> Self {
        assert!(cores >= 1, "a CPU pool needs at least one core");
        assert!(
            (1..=cores).contains(&sockets),
            "sockets must be in 1..=cores"
        );
        let mut pool = Self {
            cores: (0..cores).map(|_| SimCpu::new(config.clone())).collect(),
            mode,
            sockets,
            footprints: vec![0; cores],
        };
        if sockets > 1 {
            let placement = NumaPlacement::interleaved(sockets);
            for (c, core) in pool.cores.iter_mut().enumerate() {
                core.set_socket(c * sockets / cores);
                core.set_placement(placement.clone());
            }
        }
        pool
    }

    /// The pool's LLC model.
    pub fn llc_mode(&self) -> LlcMode {
        self.mode
    }

    /// Number of sockets.
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Socket of core `c`: cores are split into contiguous blocks, so
    /// `socket_of(c) = c * sockets / cores` (block sizes differ by at
    /// most one). A pure function of the topology — never of scheduling.
    pub fn socket_of(&self, core: usize) -> usize {
        core * self.sockets / self.cores.len()
    }

    /// Cores belonging to `socket`, in core order.
    pub fn socket_members(&self, socket: usize) -> Vec<usize> {
        (0..self.cores.len())
            .filter(|&c| self.socket_of(c) == socket)
            .collect()
    }

    /// Install one [`NumaPlacement`] on every core (the placement is the
    /// machine's memory map, shared by all cores).
    ///
    /// # Panics
    /// Panics if the placement's socket count differs from the pool's.
    pub fn set_placement(&mut self, placement: &NumaPlacement) {
        assert_eq!(
            placement.sockets(),
            self.sockets,
            "placement sockets must match pool sockets"
        );
        for core in &mut self.cores {
            core.set_placement(placement.clone());
        }
    }

    /// Declare each core's hot-set footprint (bytes of data the work it
    /// is about to run wants resident in the LLC) and, in shared mode,
    /// repartition each *socket's* capacity among its members — each
    /// core's slice is restricted to its share before the region starts,
    /// so per-core cycles stay a pure function of the declared co-runner
    /// set. Sockets partition independently: a core only ever contends
    /// with its own socket's members. A no-op on a private pool (every
    /// core already has the full LLC).
    ///
    /// # Panics
    /// Panics if `footprints.len()` differs from the core count.
    pub fn declare_footprints(&mut self, footprints: &[u64]) {
        assert_eq!(footprints.len(), self.cores.len(), "one footprint per core");
        self.footprints = footprints.to_vec();
        if self.mode != LlcMode::Shared {
            return;
        }
        let total_ways = self.config().llc().ways;
        for s in 0..self.sockets {
            let members = self.socket_members(s);
            let local: Vec<u64> = members.iter().map(|&c| footprints[c]).collect();
            let shares = partition_llc_ways(total_ways, &local);
            for (&c, ways) in members.iter().zip(shares) {
                self.cores[c].set_llc_ways(ways as usize);
            }
        }
    }

    /// Effective LLC capacity in bytes of one core's slice.
    pub fn effective_llc_bytes(&self, core: usize) -> u64 {
        self.cores[core].llc_effective_bytes()
    }

    /// The smallest LLC slice across the pool — the conservative capacity
    /// a pool-wide cost estimate should price against.
    pub fn min_effective_llc_bytes(&self) -> u64 {
        self.cores
            .iter()
            .map(SimCpu::llc_effective_bytes)
            .min()
            .expect("a pool has at least one core")
    }

    /// The smallest LLC slice among `socket`'s members — the capacity a
    /// per-socket cost estimate prices against.
    pub fn min_effective_llc_bytes_socket(&self, socket: usize) -> u64 {
        self.socket_members(socket)
            .into_iter()
            .map(|c| self.cores[c].llc_effective_bytes())
            .min()
            .expect("every socket has at least one core")
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether the pool has no cores (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// The configuration the cores were built with.
    pub fn config(&self) -> &CpuConfig {
        self.cores[0].config()
    }

    /// Shared view of every core.
    pub fn cores(&self) -> &[SimCpu] {
        &self.cores
    }

    /// Exclusive view of every core — workers borrow one core each via
    /// `iter_mut`.
    pub fn cores_mut(&mut self) -> &mut [SimCpu] {
        &mut self.cores
    }

    /// Cycles of the busiest core: the wall-clock length of a parallel
    /// region that started with a fresh pool.
    pub fn max_cycles(&self) -> u64 {
        self.cores.iter().map(SimCpu::cycles).max().unwrap_or(0)
    }

    /// Aggregate cycles across all cores (total work, not wall clock).
    pub fn total_cycles(&self) -> u64 {
        self.cores.iter().map(SimCpu::cycles).sum()
    }

    /// Aggregate idle cycles across all cores (gaps a serving scheduler
    /// spent waiting for admissible work, charged via [`SimCpu::idle`]).
    pub fn idle_cycles(&self) -> u64 {
        self.cores.iter().map(SimCpu::idle_cycles).sum()
    }

    /// Wall-clock length of an *interleaved* serving region as the cores
    /// themselves recorded it: the furthest position any core reached in
    /// executed plus idle cycles. Equals [`CpuPool::max_cycles`] when no
    /// core ever idled. Synthetic charges a caller folds into its own
    /// wall clock (e.g. the serving report's estimator-cycle charges)
    /// are not visible to the cores, so under reoptimization the serving
    /// report's `wall_cycles`/`occupancy` — which include them — are the
    /// serving-accurate figures; these methods stay the hardware view.
    pub fn horizon_cycles(&self) -> u64 {
        self.cores
            .iter()
            .map(SimCpu::horizon_cycles)
            .max()
            .unwrap_or(0)
    }

    /// Occupancy of the pool over the horizon: busy cycles as a fraction
    /// of the total core-cycles available (`horizon × cores`). `1.0` for
    /// a pool that has done nothing at all — an empty region wastes no
    /// capacity.
    pub fn occupancy(&self) -> f64 {
        let horizon = self.horizon_cycles();
        if horizon == 0 {
            return 1.0;
        }
        self.total_cycles() as f64 / (horizon * self.cores.len() as u64) as f64
    }

    /// Total remote-socket memory accesses across all cores (zero on a
    /// single-socket pool).
    pub fn remote_accesses(&self) -> u64 {
        self.cores.iter().map(SimCpu::remote_accesses).sum()
    }

    /// Remote accesses as a percentage of all memory-served accesses
    /// pool-wide (`0.0` when nothing reached memory).
    pub fn remote_access_pct(&self) -> f64 {
        let mem = self.counters().0.memory_accesses;
        if mem == 0 {
            return 0.0;
        }
        self.remote_accesses() as f64 / mem as f64 * 100.0
    }

    /// Counter bank summed across all cores.
    pub fn counters(&self) -> CounterDelta {
        let mut total = CounterDelta::default();
        for core in &self.cores {
            total.accumulate(&CounterDelta(core.counters()));
        }
        total
    }

    /// Reset every core: caches, predictors, streams and counters.
    pub fn reset(&mut self) {
        for core in &mut self.cores {
            core.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::BranchSite;

    #[test]
    fn pool_cores_are_independent() {
        let mut pool = CpuPool::new(CpuConfig::tiny_test(), 2);
        let cores = pool.cores_mut();
        // Same address on both cores: each hierarchy misses independently.
        cores[0].load(0, 0, 4);
        cores[1].load(0, 0, 4);
        assert_eq!(cores[0].counters().l1_accesses, 1);
        assert_eq!(cores[1].counters().l1_accesses, 1);
        assert_eq!(cores[0].counters().l1_hits, 0);
        assert_eq!(cores[1].counters().l1_hits, 0, "no shared cache state");
    }

    #[test]
    fn max_and_total_cycles() {
        let mut pool = CpuPool::new(CpuConfig::tiny_test(), 3);
        pool.cores_mut()[0].instr(1000);
        pool.cores_mut()[2].instr(4000);
        let per_core: Vec<u64> = pool.cores().iter().map(SimCpu::cycles).collect();
        assert_eq!(pool.max_cycles(), per_core[2]);
        assert_eq!(pool.total_cycles(), per_core.iter().sum::<u64>());
    }

    #[test]
    fn counters_aggregate_across_cores() {
        let mut pool = CpuPool::new(CpuConfig::tiny_test(), 2);
        pool.cores_mut()[0].branch(BranchSite(0), true);
        pool.cores_mut()[1].branch(BranchSite(0), false);
        let total = pool.counters();
        assert_eq!(total.branches, 2);
        assert_eq!(total.branches_taken, 1);
        assert_eq!(total.branches_not_taken, 1);
    }

    #[test]
    fn occupancy_accounts_idle_gaps() {
        let mut pool = CpuPool::new(CpuConfig::tiny_test(), 2);
        assert_eq!(pool.occupancy(), 1.0, "empty pool wastes nothing");
        // Core 0: 1000 instructions of work. Core 1: same work plus an
        // idle gap of equal length — the horizon stretches, occupancy
        // drops below 1.
        pool.cores_mut()[0].instr(1000);
        pool.cores_mut()[1].instr(1000);
        let busy = pool.cores()[0].cycles();
        assert_eq!(pool.horizon_cycles(), busy);
        assert!((pool.occupancy() - 1.0).abs() < 1e-12);
        pool.cores_mut()[1].idle(busy);
        assert_eq!(pool.idle_cycles(), busy);
        assert_eq!(pool.horizon_cycles(), 2 * busy);
        assert!(
            (pool.occupancy() - 0.5).abs() < 1e-12,
            "{}",
            pool.occupancy()
        );
    }

    #[test]
    fn reset_zeroes_every_core() {
        let mut pool = CpuPool::new(CpuConfig::tiny_test(), 2);
        pool.cores_mut()[1].instr(10);
        pool.reset();
        assert_eq!(pool.total_cycles(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_pool_is_rejected() {
        let _ = CpuPool::new(CpuConfig::tiny_test(), 0);
    }

    #[test]
    fn partition_gives_lone_and_idle_cores_full_capacity() {
        // Idle pool: nothing contends.
        assert_eq!(partition_llc_ways(16, &[0, 0, 0]), vec![16, 16, 16]);
        // A single active core keeps the whole socket (the 1-core =
        // full-capacity edge case), idle peers stay inert at full ways.
        assert_eq!(partition_llc_ways(16, &[0, 4096, 0]), vec![16, 16, 16]);
        assert_eq!(partition_llc_ways(16, &[1 << 30]), vec![16]);
    }

    #[test]
    fn partition_splits_equal_footprints_evenly() {
        assert_eq!(partition_llc_ways(16, &[100, 100, 100, 100]), vec![4; 4]);
        assert_eq!(partition_llc_ways(16, &[7, 7]), vec![8, 8]);
        // Non-divisible ways: largest remainder, ties to the lowest index.
        assert_eq!(partition_llc_ways(16, &[1, 1, 1]), vec![6, 5, 5]);
    }

    #[test]
    fn partition_is_proportional_to_footprints() {
        // 3:1 footprints over 16 ways -> 12:4.
        assert_eq!(partition_llc_ways(16, &[3 << 20, 1 << 20]), vec![12, 4]);
        // A dominant co-runner squeezes the small one, but never to zero.
        let shares = partition_llc_ways(16, &[1 << 30, 4096]);
        assert_eq!(shares[1], 1, "minimum-occupancy floor");
        assert_eq!(shares[0], 15, "the donor pays for the floor");
    }

    #[test]
    fn partition_overcommits_at_one_way_when_oversubscribed() {
        // More active cores than ways: everyone keeps the one-way floor.
        let shares = partition_llc_ways(2, &[5, 5, 5, 5]);
        assert_eq!(shares, vec![1, 1, 1, 1]);
    }

    #[test]
    fn shared_pool_partitions_slices_and_private_pool_does_not() {
        let cfg = CpuConfig::tiny_test(); // 16 KiB LLC, 4 ways
        let full = cfg.llc().capacity_bytes;
        let mut private = CpuPool::new(cfg.clone(), 2);
        private.declare_footprints(&[1 << 20, 1 << 20]);
        assert_eq!(private.llc_mode(), LlcMode::Private);
        assert_eq!(private.effective_llc_bytes(0), full);
        assert_eq!(private.min_effective_llc_bytes(), full);

        let mut shared = CpuPool::new_shared(cfg, 2);
        assert_eq!(shared.llc_mode(), LlcMode::Shared);
        assert_eq!(shared.effective_llc_bytes(0), full, "unclaimed = full");
        shared.declare_footprints(&[1 << 20, 1 << 20]);
        assert_eq!(shared.effective_llc_bytes(0), full / 2);
        assert_eq!(shared.effective_llc_bytes(1), full / 2);
        assert_eq!(shared.min_effective_llc_bytes(), full / 2);
        // Re-declaring with a lone occupant re-widens back to the socket.
        shared.declare_footprints(&[1 << 20, 0]);
        assert_eq!(shared.effective_llc_bytes(0), full);
    }

    #[test]
    fn topology_splits_cores_into_contiguous_blocks() {
        let pool = CpuPool::with_topology(CpuConfig::tiny_test(), 4, LlcMode::Shared, 2);
        assert_eq!(pool.sockets(), 2);
        assert_eq!(pool.socket_of(0), 0);
        assert_eq!(pool.socket_of(1), 0);
        assert_eq!(pool.socket_of(2), 1);
        assert_eq!(pool.socket_of(3), 1);
        assert_eq!(pool.socket_members(0), vec![0, 1]);
        assert_eq!(pool.socket_members(1), vec![2, 3]);
        // Odd split: block sizes differ by at most one.
        let odd = CpuPool::with_topology(CpuConfig::tiny_test(), 3, LlcMode::Private, 2);
        assert_eq!(odd.socket_members(0), vec![0, 1]);
        assert_eq!(odd.socket_members(1), vec![2]);
        // Single-socket constructors stay flat and placement-free.
        let flat = CpuPool::new_shared(CpuConfig::tiny_test(), 4);
        assert_eq!(flat.sockets(), 1);
        assert_eq!(flat.cores()[3].placement().sockets(), 1);
    }

    #[test]
    #[should_panic(expected = "sockets must be in 1..=cores")]
    fn more_sockets_than_cores_is_rejected() {
        let _ = CpuPool::with_topology(CpuConfig::tiny_test(), 2, LlcMode::Shared, 3);
    }

    #[test]
    fn sockets_partition_llc_independently() {
        // 4 cores on 2 sockets, shared LLC: socket 0 has two contenders
        // (half the ways each), socket 1 a lone occupant (full capacity).
        let cfg = CpuConfig::tiny_test();
        let full = cfg.llc().capacity_bytes;
        let mut pool = CpuPool::with_topology(cfg, 4, LlcMode::Shared, 2);
        pool.declare_footprints(&[1 << 20, 1 << 20, 1 << 20, 0]);
        assert_eq!(pool.effective_llc_bytes(0), full / 2);
        assert_eq!(pool.effective_llc_bytes(1), full / 2);
        assert_eq!(pool.effective_llc_bytes(2), full, "lone on its socket");
        assert_eq!(pool.min_effective_llc_bytes_socket(0), full / 2);
        assert_eq!(pool.min_effective_llc_bytes_socket(1), full);
        assert_eq!(pool.min_effective_llc_bytes(), full / 2);
    }

    #[test]
    fn pool_counts_remote_accesses_under_a_pinned_placement() {
        let cfg = CpuConfig::tiny_test();
        let mut pool = CpuPool::with_topology(cfg, 2, LlcMode::Private, 2);
        let mut placement = NumaPlacement::interleaved(2);
        placement.register(0, 1 << 20, 0); // whole range homed on socket 0
        pool.set_placement(&placement);
        // Both cores stride through the socket-0 range: core 0 is local,
        // core 1 (socket 1) is 100% remote.
        for c in 0..2 {
            let core = &mut pool.cores_mut()[c];
            for i in 0..200u64 {
                core.load(0, (i * 7 % 200) * 512, 4);
            }
        }
        assert_eq!(pool.cores()[0].remote_accesses(), 0);
        assert!(pool.cores()[1].remote_accesses() > 0);
        assert!(pool.remote_access_pct() > 0.0);
        assert!(pool.cores()[1].cycles() > pool.cores()[0].cycles());
    }

    #[test]
    fn contended_core_pays_more_for_the_same_accesses() {
        // The same working set re-scanned on an uncontended core vs a core
        // whose slice was halved: the contended core must stall more.
        // 128 even lines (128-byte stride): 4 lines per even LLC set —
        // exactly the tiny config's 4 ways, so the set fits the full
        // slice and cyclically thrashes a halved one. Buddy prefetches
        // target odd lines, i.e. odd sets, and cannot disturb the
        // resident working set.
        let cfg = CpuConfig::tiny_test();
        let run = |pool: &mut CpuPool| {
            let core = &mut pool.cores_mut()[0];
            for _round in 0..4u64 {
                for l in 0..128u64 {
                    core.load(0, l * 128, 4);
                }
            }
            core.cycles()
        };
        let mut private = CpuPool::new(cfg.clone(), 2);
        private.declare_footprints(&[128 * 64, 128 * 64]);
        let uncontended = run(&mut private);
        let mut shared = CpuPool::new_shared(cfg, 2);
        shared.declare_footprints(&[128 * 64, 128 * 64]);
        let contended = run(&mut shared);
        assert!(
            contended > uncontended,
            "contended {contended} !> uncontended {uncontended}"
        );
    }
}
