//! The performance monitoring unit: a bank of free-running counters.
//!
//! Mirrors the counters the paper samples (Section 2.2): conditional
//! branches split into taken / not taken, mispredictions split by actual
//! direction, cache accesses and misses per level, plus retired
//! instructions and core cycles. Counters are free-running; consumers take
//! [`Counters`] snapshots and subtract them — exactly how `perf`-style
//! sampling works, and what the progressive optimizer does per vector.

/// A snapshot of every architectural counter.
///
/// Naming follows the paper: `mp_taken` counts branches that *were taken*
/// but predicted not-taken (the paper's "mispredicted branches taken",
/// `BTakMP`), and `mp_not_taken` the converse (`BNotTakMP`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Retired instructions (generic work units).
    pub instructions: u64,
    /// Core cycles, including stall and penalty cycles.
    pub cycles: u64,
    /// Conditional branches retired.
    pub branches: u64,
    /// Conditional branches whose outcome was "taken".
    pub branches_taken: u64,
    /// Conditional branches whose outcome was "not taken".
    pub branches_not_taken: u64,
    /// Taken branches that were mispredicted (predicted not-taken).
    pub mp_taken: u64,
    /// Not-taken branches that were mispredicted (predicted taken).
    pub mp_not_taken: u64,
    /// L1 data-cache lookups (per cache line in the scan fast path; within-
    /// line element accesses are counted by `l1_element_hits`).
    pub l1_accesses: u64,
    /// L1 lookups that hit.
    pub l1_hits: u64,
    /// Element-granularity accesses that were absorbed by the current line
    /// (always L1 hits in a no-reuse scan, Section 2.2.2).
    pub l1_element_hits: u64,
    /// L2 lookups (demand only).
    pub l2_accesses: u64,
    /// L3 lookups: demand misses from L2 plus prefetch requests
    /// (Section 2.2.2's definition of "L3 accesses").
    pub l3_accesses: u64,
    /// L3 lookups that missed and were served by memory.
    pub l3_misses: u64,
    /// Prefetch requests issued by the adjacent-line prefetcher.
    pub prefetch_requests: u64,
    /// Demand requests served by main memory.
    pub memory_accesses: u64,
}

impl Counters {
    /// Total mispredicted conditional branches.
    pub fn mispredictions(&self) -> u64 {
        self.mp_taken + self.mp_not_taken
    }

    /// Counter-wise difference `self - earlier`, for interval sampling.
    ///
    /// Panics in debug builds if `earlier` is not actually earlier.
    pub fn since(&self, earlier: &Counters) -> CounterDelta {
        debug_assert!(self.cycles >= earlier.cycles);
        CounterDelta(Counters {
            instructions: self.instructions - earlier.instructions,
            cycles: self.cycles - earlier.cycles,
            branches: self.branches - earlier.branches,
            branches_taken: self.branches_taken - earlier.branches_taken,
            branches_not_taken: self.branches_not_taken - earlier.branches_not_taken,
            mp_taken: self.mp_taken - earlier.mp_taken,
            mp_not_taken: self.mp_not_taken - earlier.mp_not_taken,
            l1_accesses: self.l1_accesses - earlier.l1_accesses,
            l1_hits: self.l1_hits - earlier.l1_hits,
            l1_element_hits: self.l1_element_hits - earlier.l1_element_hits,
            l2_accesses: self.l2_accesses - earlier.l2_accesses,
            l3_accesses: self.l3_accesses - earlier.l3_accesses,
            l3_misses: self.l3_misses - earlier.l3_misses,
            prefetch_requests: self.prefetch_requests - earlier.prefetch_requests,
            memory_accesses: self.memory_accesses - earlier.memory_accesses,
        })
    }
}

/// The difference between two [`Counters`] snapshots.
///
/// A thin newtype so interval measurements cannot be confused with
/// free-running totals; dereferences to [`Counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterDelta(pub Counters);

impl std::ops::Deref for CounterDelta {
    type Target = Counters;
    fn deref(&self) -> &Counters {
        &self.0
    }
}

impl CounterDelta {
    /// Accumulate another interval into this one.
    pub fn accumulate(&mut self, other: &CounterDelta) {
        let a = &mut self.0;
        let b = &other.0;
        a.instructions += b.instructions;
        a.cycles += b.cycles;
        a.branches += b.branches;
        a.branches_taken += b.branches_taken;
        a.branches_not_taken += b.branches_not_taken;
        a.mp_taken += b.mp_taken;
        a.mp_not_taken += b.mp_not_taken;
        a.l1_accesses += b.l1_accesses;
        a.l1_hits += b.l1_hits;
        a.l1_element_hits += b.l1_element_hits;
        a.l2_accesses += b.l2_accesses;
        a.l3_accesses += b.l3_accesses;
        a.l3_misses += b.l3_misses;
        a.prefetch_requests += b.prefetch_requests;
        a.memory_accesses += b.memory_accesses;
    }
}

/// The PMU proper: owns the counter bank and models the (tiny) cost of
/// reading it out.
///
/// Section 5.7 contrasts non-invasive counter sampling with an
/// "enumerator-based" approach that instruments the query loop. Reading a
/// PMU costs a handful of `RDPMC`-style instructions *per sample*, not per
/// tuple; [`Pmu::SAMPLE_COST_CYCLES`] models that fixed cost and the
/// overhead experiment (Figure 16) charges it.
#[derive(Debug, Clone, Default)]
pub struct Pmu {
    counters: Counters,
}

impl Pmu {
    /// Cycles charged per counter-bank readout (a few serializing reads).
    pub const SAMPLE_COST_CYCLES: u64 = 200;

    /// Fresh PMU with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable access to the counter bank (used by the CPU core only).
    #[inline]
    pub(crate) fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// Add a locally accumulated bank (a batch's flush).
    pub(crate) fn add(&mut self, bank: &Counters) {
        let mut sum = CounterDelta(self.counters);
        sum.accumulate(&CounterDelta(*bank));
        self.counters = sum.0;
    }

    /// Read the free-running counters without cost accounting (tests,
    /// introspection).
    pub fn peek(&self) -> &Counters {
        &self.counters
    }

    /// Take a sample: returns the current counter values and charges the
    /// readout cost to the cycle counter.
    pub fn sample(&mut self) -> Counters {
        self.counters.cycles += Self::SAMPLE_COST_CYCLES;
        self.counters
    }

    /// Zero every counter.
    pub fn reset(&mut self) {
        self.counters = Counters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_fieldwise() {
        let mut pmu = Pmu::new();
        pmu.counters_mut().branches_taken = 10;
        pmu.counters_mut().cycles = 100;
        let a = *pmu.peek();
        pmu.counters_mut().branches_taken = 25;
        pmu.counters_mut().cycles = 180;
        let b = *pmu.peek();
        let d = b.since(&a);
        assert_eq!(d.branches_taken, 15);
        assert_eq!(d.cycles, 80);
    }

    #[test]
    fn sample_charges_fixed_cost() {
        let mut pmu = Pmu::new();
        let c0 = pmu.sample();
        let c1 = pmu.sample();
        assert_eq!(c1.cycles - c0.cycles, Pmu::SAMPLE_COST_CYCLES);
    }

    #[test]
    fn accumulate_sums_intervals() {
        let mut d1 = CounterDelta::default();
        let c = Counters {
            branches_not_taken: 7,
            l3_accesses: 3,
            ..Default::default()
        };
        let d2 = CounterDelta(c);
        d1.accumulate(&d2);
        d1.accumulate(&d2);
        assert_eq!(d1.branches_not_taken, 14);
        assert_eq!(d1.l3_accesses, 6);
    }

    #[test]
    fn mispredictions_is_sum_of_directions() {
        let c = Counters {
            mp_taken: 4,
            mp_not_taken: 6,
            ..Default::default()
        };
        assert_eq!(c.mispredictions(), 10);
    }
}
