//! The simulated CPU core: ties predictor, caches, PMU and cycle accounting
//! together behind an event-driven API.
//!
//! A query executor drives the core with three kinds of events:
//!
//! * [`SimCpu::instr`] — retire `n` generic instructions;
//! * [`SimCpu::branch`] — execute a conditional branch at a static site;
//! * [`SimCpu::load`] / [`SimCpu::store`] — touch memory on a named access
//!   *stream* (one stream per column), which enables the per-line fast path
//!   and sequentiality detection.
//!
//! ## Cycle model
//!
//! `cycles = instructions × CPI + mispredict_penalty × mispredictions +
//! Σ hit_latency(level) + memory latencies`, where a memory-served line on a
//! *sequential* stream (line == previous line + 1) is charged the
//! bandwidth-bound `memory_sequential_cycles` instead of the full random
//! latency — modelling a hardware streamer hiding latency on dense scans.

use crate::branch::{BranchPredictor, BranchSite};
use crate::cache::{CacheHierarchy, ServedBy};
use crate::config::CpuConfig;
use crate::numa::NumaPlacement;
use crate::pmu::{Counters, Pmu};

/// Identifier of a memory access stream (typically: one column).
pub type StreamId = usize;

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StreamState {
    /// Line number of the most recent access, plus one (0 = no access yet),
    /// so that the default state never aliases line 0.
    pub(crate) last_line_plus_one: u64,
}

/// The simulated CPU. See the [module documentation](self) for the event
/// model and [`CpuConfig`] for the microarchitectural parameters.
#[derive(Debug, Clone)]
pub struct SimCpu {
    pub(crate) config: CpuConfig,
    pub(crate) hierarchy: CacheHierarchy,
    pub(crate) predictor: BranchPredictor,
    pub(crate) pmu: Pmu,
    pub(crate) streams: Vec<StreamState>,
    pub(crate) line_shift: u32,
    /// Cycles this core sat idle waiting for admissible work (a serving
    /// scheduler with no runnable query advances the core's wall-clock
    /// position without executing anything). Kept outside the PMU bank:
    /// idle time is not attributable to any instruction stream, so it
    /// never contaminates the counter samples the estimator fits.
    idle_cycles: u64,
    /// The socket this core belongs to (0 on a single-socket pool).
    pub(crate) socket: usize,
    /// Address-range → home-socket map shared by the pool. Like the LLC
    /// way allocation, it is socket state: it survives [`SimCpu::reset`].
    pub(crate) placement: NumaPlacement,
    /// Demand misses served by a remote socket's memory. Kept outside
    /// the [`Counters`] bank: the solver's counter model is
    /// socket-agnostic and must not see a new dimension.
    pub(crate) remote_accesses: u64,
}

impl SimCpu {
    /// Build a CPU from its configuration.
    pub fn new(config: CpuConfig) -> Self {
        let line = config.line_bytes();
        assert!(line.is_power_of_two(), "line size must be a power of two");
        Self {
            hierarchy: CacheHierarchy::new(&config),
            predictor: BranchPredictor::new(config.predictor),
            pmu: Pmu::new(),
            streams: Vec::new(),
            line_shift: line.trailing_zeros(),
            idle_cycles: 0,
            socket: 0,
            placement: NumaPlacement::single(),
            remote_accesses: 0,
            config,
        }
    }

    /// The configuration this core was built with.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Retire `n` generic instructions.
    #[inline]
    pub fn instr(&mut self, n: u64) {
        self.pmu.counters_mut().instructions += n;
    }

    /// Execute a conditional branch: predict, compare with the actual
    /// outcome, update counters and charge the misprediction penalty.
    #[inline]
    pub fn branch(&mut self, site: BranchSite, taken: bool) {
        let p = self.predictor.execute(site, taken);
        let c = self.pmu.counters_mut();
        c.branches += 1;
        if taken {
            c.branches_taken += 1;
            if !p.correct {
                c.mp_taken += 1;
            }
        } else {
            c.branches_not_taken += 1;
            if !p.correct {
                c.mp_not_taken += 1;
            }
        }
        if !p.correct {
            c.cycles += self.config.timing.mispredict_penalty_cycles;
        }
    }

    /// Load `bytes` at `addr` on `stream`.
    ///
    /// Accesses within the cache line most recently touched by the same
    /// stream short-circuit as L1 element hits (a scan never loses its
    /// current line between adjacent elements); crossing into a new line
    /// performs a full hierarchy access.
    #[inline]
    pub fn load(&mut self, stream: StreamId, addr: u64, bytes: u32) {
        let first_line = addr >> self.line_shift;
        let last_line = (addr + u64::from(bytes) - 1) >> self.line_shift;
        for line in first_line..=last_line {
            self.touch_line(stream, line);
        }
    }

    /// Store `bytes` at `addr` on `stream`. Write-allocate: identical cache
    /// behaviour to a load (read-for-ownership).
    #[inline]
    pub fn store(&mut self, stream: StreamId, addr: u64, bytes: u32) {
        self.load(stream, addr, bytes);
    }

    /// Load an arbitrarily long byte span at `addr` on `stream`,
    /// accounted strictly line by line. This is the **scalar oracle** the
    /// batched [`crate::batch::BatchCpu::load_span`] is proptest-pinned
    /// against.
    pub fn load_span(&mut self, stream: StreamId, addr: u64, bytes: u64) {
        assert!(bytes >= 1, "empty span");
        let first_line = addr >> self.line_shift;
        let last_line = (addr + bytes - 1) >> self.line_shift;
        for line in first_line..=last_line {
            self.touch_line(stream, line);
        }
    }

    /// Open a batched accounting scope: events issued through the
    /// returned [`crate::batch::BatchCpu`] accumulate PMU counters and
    /// remote-access counts locally and flush in bulk when the guard
    /// drops. While the guard lives, the borrow checker guarantees no
    /// mid-batch reads of this core's counters or cache state (a
    /// standalone core's hierarchy may be out with the walker thread).
    pub fn batch(&mut self) -> crate::batch::BatchCpu<'_> {
        crate::batch::BatchCpu::new(self)
    }

    #[inline]
    fn touch_line(&mut self, stream: StreamId, line: u64) {
        if stream >= self.streams.len() {
            self.streams.resize(stream + 1, StreamState::default());
        }
        let st = &mut self.streams[stream];
        if st.last_line_plus_one == line + 1 {
            // Same line as the previous access on this stream.
            self.pmu.counters_mut().l1_element_hits += 1;
            return;
        }
        let sequential = st.last_line_plus_one == line; // previous == line-1
        st.last_line_plus_one = line + 1;

        let result = self.hierarchy.demand_access(line);
        let timing = self.config.timing;
        let c = self.pmu.counters_mut();
        c.l1_accesses += 1;
        match result.served_by {
            ServedBy::Level(0) => {
                c.l1_hits += 1;
                c.cycles += self.config.levels[0].hit_latency_cycles;
            }
            ServedBy::Level(i) => {
                c.l2_accesses += 1;
                if i >= 2 {
                    c.l3_accesses += 1;
                }
                c.cycles += self.config.levels[i].hit_latency_cycles;
            }
            ServedBy::Memory => {
                c.l2_accesses += 1;
                c.l3_accesses += 1;
                c.l3_misses += 1;
                c.memory_accesses += 1;
                c.cycles += if sequential {
                    timing.memory_sequential_cycles
                } else {
                    timing.memory_random_cycles
                };
                // NUMA hop: a line homed on another socket pays the
                // remote surcharge — in full when latency-bound
                // (random), a quarter when the streamer hides it
                // (sequential). Prefetch fills below stay unsurcharged:
                // they already model overlap with execution.
                if self.placement.sockets() > 1
                    && self
                        .placement
                        .socket_of_addr(line << self.line_shift, 1 << self.line_shift)
                        != self.socket
                {
                    self.remote_accesses += 1;
                    c.cycles += if sequential {
                        timing.memory_remote_extra_cycles / 4
                    } else {
                        timing.memory_remote_extra_cycles
                    };
                }
            }
        }
        if result.prefetch_issued {
            c.prefetch_requests += 1;
            c.l3_accesses += 1;
            if result.prefetch_memory {
                c.l3_misses += 1;
                // Prefetch fills overlap with execution; charge a small
                // bus-occupancy cost rather than the full latency.
                c.cycles += timing.memory_sequential_cycles / 4;
            }
        }
    }

    /// Total simulated cycles so far (work + stalls + penalties).
    pub fn cycles(&self) -> u64 {
        let raw = self.pmu.peek();
        let base =
            (raw.instructions as f64 * self.config.timing.cycles_per_instruction).round() as u64;
        raw.cycles + base
    }

    /// Simulated wall-clock milliseconds at the configured frequency.
    pub fn millis(&self) -> f64 {
        self.cycles() as f64 / (self.config.timing.frequency_ghz * 1e6)
    }

    /// Let the core sit idle for `cycles`: its wall-clock position
    /// advances, its counters do not. Serving schedulers call this when
    /// no admitted query has runnable work for this core.
    pub fn idle(&mut self, cycles: u64) {
        self.idle_cycles += cycles;
    }

    /// Total idle cycles accumulated via [`SimCpu::idle`].
    pub fn idle_cycles(&self) -> u64 {
        self.idle_cycles
    }

    /// Wall-clock position of the core: busy cycles plus idle gaps.
    pub fn horizon_cycles(&self) -> u64 {
        self.cycles() + self.idle_cycles
    }

    /// Snapshot of the counter bank with the cycle counter finalized
    /// (instruction-base cycles folded in). Free — no sampling cost.
    pub fn counters(&self) -> Counters {
        let mut c = *self.pmu.peek();
        c.cycles = self.cycles();
        c
    }

    /// Take a PMU sample: like [`Self::counters`] but charges the fixed
    /// counter-readout cost (Section 5.7's "virtually no costs").
    pub fn sample(&mut self) -> Counters {
        let _ = self.pmu.sample(); // charges SAMPLE_COST_CYCLES into stalls
        self.counters()
    }

    /// Borrow the cache hierarchy (tests, figure harness).
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// Borrow the branch predictor (tests: whole-state comparison).
    pub fn predictor(&self) -> &BranchPredictor {
        &self.predictor
    }

    /// Restrict this core's LLC slice to `ways` ways (clamped into
    /// `1..=configured`). Called by a shared-socket pool when its
    /// capacity partition changes.
    pub fn set_llc_ways(&mut self, ways: usize) {
        self.hierarchy.set_llc_ways(ways);
    }

    /// Effective capacity in bytes of this core's LLC slice: the
    /// configured capacity scaled by the way allocation. Equals the full
    /// configured LLC on a private (uncontended) core — the figure every
    /// cost estimate for work on this core should price against.
    pub fn llc_effective_bytes(&self) -> u64 {
        let llc = self.config.llc();
        llc.capacity_bytes * self.hierarchy.llc_ways() as u64 / u64::from(llc.ways)
    }

    /// The socket this core belongs to.
    pub fn socket(&self) -> usize {
        self.socket
    }

    /// Assign this core to `socket` (pool topology construction).
    pub fn set_socket(&mut self, socket: usize) {
        self.socket = socket;
    }

    /// The address-homing map this core prices remote accesses against.
    pub fn placement(&self) -> &NumaPlacement {
        &self.placement
    }

    /// Install the pool's address-homing map on this core.
    pub fn set_placement(&mut self, placement: NumaPlacement) {
        self.placement = placement;
    }

    /// Demand misses served by a remote socket's memory so far.
    pub fn remote_accesses(&self) -> u64 {
        self.remote_accesses
    }

    /// Forget all cached lines, predictor state, stream state, counters
    /// and idle time. Socket identity and placement survive: they are
    /// topology, not execution state.
    pub fn reset(&mut self) {
        self.hierarchy.reset();
        self.predictor.reset();
        self.pmu.reset();
        self.streams.clear();
        self.idle_cycles = 0;
        self.remote_accesses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu() -> SimCpu {
        SimCpu::new(CpuConfig::tiny_test())
    }

    #[test]
    fn branch_counters_partition() {
        let mut c = cpu();
        let s = BranchSite(0);
        for i in 0..100 {
            c.branch(s, i % 3 == 0);
        }
        let k = c.counters();
        assert_eq!(k.branches, 100);
        assert_eq!(k.branches_taken + k.branches_not_taken, 100);
        assert_eq!(k.branches_taken, 34);
    }

    #[test]
    fn within_line_accesses_are_element_hits() {
        let mut c = cpu();
        // 16 i32 elements in one 64-byte line.
        for i in 0..16u64 {
            c.load(0, i * 4, 4);
        }
        let k = c.counters();
        assert_eq!(k.l1_accesses, 1);
        assert_eq!(k.l1_element_hits, 15);
    }

    #[test]
    fn straddling_load_touches_two_lines() {
        let mut c = cpu();
        c.load(0, 60, 8); // bytes 60..68 cross the 64-byte boundary
        assert_eq!(c.counters().l1_accesses, 2);
    }

    #[test]
    fn sequential_scan_cheaper_than_random() {
        let mut seq = cpu();
        for line in 0..1000u64 {
            seq.load(0, line * 64, 4);
        }
        let mut rnd = cpu();
        // Same number of distinct lines, but strided to defeat adjacency.
        for i in 0..1000u64 {
            rnd.load(0, (i * 17 % 1000) * 64 * 8, 4);
        }
        assert!(
            seq.cycles() < rnd.cycles(),
            "seq {} !< rnd {}",
            seq.cycles(),
            rnd.cycles()
        );
    }

    #[test]
    fn mispredictions_cost_cycles() {
        let mut predictable = cpu();
        let mut unpredictable = cpu();
        let s = BranchSite(0);
        for i in 0..10_000u64 {
            predictable.branch(s, true);
            // 50% pseudo-random: worst case for the predictor.
            let bit = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) & 1;
            unpredictable.branch(s, bit == 1);
        }
        assert!(unpredictable.cycles() > predictable.cycles());
    }

    #[test]
    fn counters_cycles_match_cycles_fn() {
        let mut c = cpu();
        c.instr(1000);
        c.load(0, 0, 4);
        assert_eq!(c.counters().cycles, c.cycles());
    }

    #[test]
    fn sample_charges_readout_cost() {
        let mut c = cpu();
        let before = c.cycles();
        let _ = c.sample();
        assert_eq!(c.cycles() - before, Pmu::SAMPLE_COST_CYCLES);
    }

    #[test]
    fn pmu_l3_counters_match_hierarchy() {
        let mut c = cpu();
        for i in 0..500u64 {
            c.load(0, i * 256, 4); // every 4th line: sparse
        }
        let k = c.counters();
        assert_eq!(k.l3_accesses, c.hierarchy().l3_accesses());
        assert_eq!(k.l3_misses, c.hierarchy().l3_misses());
    }

    #[test]
    fn reset_zeroes_state() {
        let mut c = cpu();
        c.instr(10);
        c.load(0, 0, 4);
        c.branch(BranchSite(0), true);
        c.reset();
        assert_eq!(c.cycles(), 0);
        assert_eq!(c.counters(), Counters::default());
    }

    #[test]
    fn idle_advances_horizon_but_not_counters() {
        let mut c = cpu();
        c.instr(100);
        let busy = c.cycles();
        c.idle(5_000);
        assert_eq!(c.cycles(), busy, "idle must not count as work");
        assert_eq!(c.idle_cycles(), 5_000);
        assert_eq!(c.horizon_cycles(), busy + 5_000);
        c.reset();
        assert_eq!(c.idle_cycles(), 0);
        assert_eq!(c.horizon_cycles(), 0);
    }

    #[test]
    fn millis_scales_with_frequency() {
        let mut c = cpu();
        c.instr(2_600_000_000); // at CPI 0.5 and 2.6 GHz: 0.5 s = 500 ms
        assert!((c.millis() - 500.0).abs() < 1.0);
    }

    #[test]
    fn remote_lines_cost_extra_and_are_counted() {
        use crate::numa::NumaPlacement;
        let run = |socket: usize| {
            let mut c = cpu();
            let mut p = NumaPlacement::interleaved(2);
            p.register(0, 1 << 24, 0); // everything homed on socket 0
            c.set_placement(p);
            c.set_socket(socket);
            // Strided (random) misses through the homed region.
            for i in 0..1000u64 {
                c.load(0, (i * 17 % 1000) * 64 * 8, 4);
            }
            (c.cycles(), c.remote_accesses(), c.counters())
        };
        let (local_cycles, local_remote, local_counters) = run(0);
        let (remote_cycles, remote_remote, remote_counters) = run(1);
        assert_eq!(local_remote, 0);
        assert!(remote_remote > 0);
        assert!(
            remote_cycles > local_cycles,
            "remote {remote_cycles} !> local {local_cycles}"
        );
        // The surcharge lands only in cycles: every architectural
        // counter the estimator sees is socket-invariant.
        assert_eq!(local_counters.l3_misses, remote_counters.l3_misses);
        assert_eq!(
            local_counters.memory_accesses,
            remote_counters.memory_accesses
        );
        // Single-socket placement is inert, and reset clears the count
        // but keeps topology.
        let mut c = cpu();
        c.set_socket(1);
        c.load(0, 0, 4);
        assert_eq!(c.remote_accesses(), 0, "1-socket placement never remote");
        c.set_placement(NumaPlacement::interleaved(2));
        c.load(0, 64 * 1024, 4);
        c.reset();
        assert_eq!(c.remote_accesses(), 0);
        assert_eq!(c.socket(), 1);
        assert_eq!(c.placement().sockets(), 2);
    }

    #[test]
    fn two_streams_do_not_share_line_state() {
        let mut c = cpu();
        c.load(0, 0, 4);
        c.load(1, 0, 4); // same address, different stream: full access
        let k = c.counters();
        assert_eq!(k.l1_accesses, 2);
        assert_eq!(k.l1_hits, 1); // second access hits in L1 proper
    }
}
