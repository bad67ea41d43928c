//! Batched event accounting: the simulator fast path.
//!
//! [`BatchCpu`] is a scoped guard over a [`SimCpu`] that accumulates PMU
//! counters, cycles and remote-access counts in a local bank and flushes
//! them **in bulk** when the guard drops — one set of memory writes per
//! morsel instead of several per tuple. On top of the bulk counter flush
//! it adds two accounting short-cuts, both bit-identical to the scalar
//! per-line path (pinned by `tests/proptest_batch.rs`):
//!
//! * **closed-form dense spans** ([`BatchCpu::load_span`]): a sequential
//!   touch of N contiguous *clean* lines is accounted at set/level
//!   granularity (parity rule for memory trips vs buddy-covered L2 hits,
//!   one batched LRU rebuild per set, prefetcher advanced arithmetically)
//!   instead of N hierarchy walks;
//! * **segment-granular NUMA pricing**: remote surcharges are resolved
//!   per contiguous home-range segment ([`NumaPlacement::segment_of`])
//!   through a two-entry segment cache, not by scanning the region list
//!   per missing line.
//!
//! The executor that owns the inner loop (the row kernel behind the
//! compiled program/selection `run_range` fast paths in `popt-core`)
//! additionally keeps per-stream adjacency state and the history
//! register in locals via [`BatchCpu::load_quiet`] +
//! [`BatchCpu::stream_state`]/[`BatchCpu::set_stream_state`] and
//! [`BatchCpu::branch_hist`], so the steady-state tuple loop touches no
//! `Vec` at all.
//!
//! ## Two sides
//!
//! A batch splits the core in two. The guard is the **row side**: the
//! predictor, stream adjacency, element hits and the instruction and
//! branch counters. The **walk side** owns the cache hierarchy, the NUMA
//! placement and the counters walks produce, and applies every line
//! touch and dense span the row side issues, in program order. While the
//! walker is free and the host has a core to spare, it runs on the
//! process-wide walker thread beside the row loop; when the walker is
//! busy or the host is full, the row side calls it inline (the rule is
//! in `crate::walker`). The row side never reads cache
//! state, so both ways produce the same bits; the hierarchy moves to
//! the walker for one batch and back; it is never shared.
//! [`crate::walker_batches`] counts the batches the walker thread
//! drained.
//!
//! The scalar path ([`SimCpu::load`]/[`SimCpu::load_span`] et al.)
//! remains the **oracle**: it is the reference semantics, and every
//! batched shortcut must reproduce its results exactly — counters,
//! cycles, cache state, predictor state and remote counts.
//!
//! [`NumaPlacement::segment_of`]: crate::numa::NumaPlacement::segment_of

use crate::branch::BranchSite;
use crate::cpu::{SimCpu, StreamId, StreamState};
use crate::pmu::Counters;
use crate::walker::Walks;

/// A batched accounting scope over one [`SimCpu`]. See the
/// [module documentation](self).
///
/// Dropping the guard flushes the accumulated counters into the core's
/// PMU bank and gives the core its cache hierarchy back;
/// [`BatchCpu::finish`] does the same explicitly. While the guard is
/// alive the core itself is mutably borrowed, so stale mid-batch counter
/// or cache reads are a compile error, not a hazard.
pub struct BatchCpu<'a> {
    cpu: &'a mut SimCpu,
    /// The row side's counter bank (flushed on drop).
    acc: Counters,
    // Hot constants, copied out of the config once per batch.
    line_shift: u32,
    mispredict_penalty: u64,
    /// Where the line touches go.
    walks: Walks,
}

impl<'a> BatchCpu<'a> {
    pub(crate) fn new(cpu: &'a mut SimCpu) -> Self {
        let walks = Walks::open(cpu);
        Self {
            acc: Counters::default(),
            line_shift: cpu.line_shift,
            mispredict_penalty: cpu.config.timing.mispredict_penalty_cycles,
            cpu,
            walks,
        }
    }

    /// Retire `n` generic instructions.
    #[inline(always)]
    pub fn instr(&mut self, n: u64) {
        self.acc.instructions += n;
    }

    /// Execute a conditional branch — identical semantics to
    /// [`SimCpu::branch`], accumulated locally.
    #[inline(always)]
    pub fn branch(&mut self, site: BranchSite, taken: bool) {
        let correct = self.cpu.predictor.execute_fast(site, taken);
        let c = &mut self.acc;
        let t = u64::from(taken);
        let w = u64::from(!correct);
        c.branches += 1;
        c.branches_taken += t;
        c.branches_not_taken += 1 - t;
        c.mp_taken += w & t;
        c.mp_not_taken += w & (1 - t);
        c.cycles += self.mispredict_penalty * w;
    }

    /// Execute a branch against a caller-held gshare history register
    /// **without** touching the counter bank — the register-resident
    /// executor form. Returns `(mispredicted as 0/1, moved)`, where
    /// `moved` says whether the indexed automaton changed state (see
    /// [`BranchPredictor::execute_hist`] for the fixed-point argument it
    /// serves). The caller accumulates branch totals in plain locals and
    /// flushes them once per morsel via [`BatchCpu::add_branch_block`];
    /// the predictor table still transitions per event, in exact program
    /// order, so simulated state is identical to [`BatchCpu::branch`].
    /// Obtain the register with [`BatchCpu::history`], write it back with
    /// [`BatchCpu::set_history`].
    ///
    /// [`BranchPredictor::execute_hist`]: crate::branch::BranchPredictor::execute_hist
    #[inline(always)]
    pub fn branch_hist(&mut self, history: &mut u32, site: BranchSite, taken: bool) -> (u64, bool) {
        let (correct, moved) = self.cpu.predictor.execute_hist(history, site, taken);
        (u64::from(!correct), moved)
    }

    /// Read the predictor's global history register.
    #[inline]
    pub fn history(&mut self) -> u32 {
        self.cpu.predictor.history()
    }

    /// Write back a history register obtained from [`BatchCpu::history`].
    #[inline]
    pub fn set_history(&mut self, history: u32) {
        self.cpu.predictor.set_history(history);
    }

    /// Bulk-add the branch statistics a [`BatchCpu::branch_hist`] loop
    /// accumulated: total branches, taken count, and mispredictions split
    /// by direction. Equivalent to the per-event bookkeeping of
    /// [`BatchCpu::branch`] applied `branches` times.
    #[inline]
    pub fn add_branch_block(
        &mut self,
        branches: u64,
        taken: u64,
        mp_taken: u64,
        mp_not_taken: u64,
    ) {
        debug_assert!(taken <= branches && mp_taken <= taken);
        debug_assert!(mp_not_taken <= branches - taken);
        let c = &mut self.acc;
        c.branches += branches;
        c.branches_taken += taken;
        c.branches_not_taken += branches - taken;
        c.mp_taken += mp_taken;
        c.mp_not_taken += mp_not_taken;
        c.cycles += self.mispredict_penalty * (mp_taken + mp_not_taken);
    }

    /// Load `bytes` at `addr` against a caller-held stream state,
    /// returning 1 instead of counting when the access is an element hit
    /// on the stream's current line — the register-resident executor
    /// form of [`BatchCpu::load`]. The caller accumulates the hits in a
    /// local and flushes once via [`BatchCpu::add_element_hits`]; line
    /// crossings are accounted directly (and return 0).
    #[inline(always)]
    pub fn load_quiet(&mut self, llpo: &mut u64, addr: u64, bytes: u64) -> u64 {
        debug_assert!(bytes >= 1);
        let first = addr >> self.line_shift;
        let last = (addr + bytes - 1) >> self.line_shift;
        if (*llpo == first + 1) & (first == last) {
            1
        } else {
            self.load_quiet_cold(llpo, first, last);
            0
        }
    }

    /// Bulk-add element hits counted by a [`BatchCpu::load_quiet`] loop.
    #[inline]
    pub fn add_element_hits(&mut self, n: u64) {
        self.acc.l1_element_hits += n;
    }

    /// Load `bytes` at `addr` on `stream` — identical semantics to
    /// [`SimCpu::load`], accumulated locally.
    #[inline]
    pub fn load(&mut self, stream: StreamId, addr: u64, bytes: u32) {
        let mut llpo = self.stream_state(stream);
        let hits = self.load_quiet(&mut llpo, addr, u64::from(bytes));
        self.acc.l1_element_hits += hits;
        self.cpu.streams[stream].last_line_plus_one = llpo;
    }

    /// Store `bytes` at `addr` on `stream` (write-allocate, like
    /// [`SimCpu::store`]).
    #[inline]
    pub fn store(&mut self, stream: StreamId, addr: u64, bytes: u32) {
        self.load(stream, addr, bytes);
    }

    /// Read (creating if needed) the adjacency state of `stream`:
    /// last-touched line number plus one, 0 if untouched. An executor
    /// fast path copies this into a local, drives [`BatchCpu::load_quiet`]
    /// against it, and writes it back once per morsel via
    /// [`BatchCpu::set_stream_state`].
    #[inline]
    pub fn stream_state(&mut self, stream: StreamId) -> u64 {
        if stream >= self.cpu.streams.len() {
            self.cpu.streams.resize(stream + 1, StreamState::default());
        }
        self.cpu.streams[stream].last_line_plus_one
    }

    /// Write back a stream adjacency state obtained from
    /// [`BatchCpu::stream_state`].
    #[inline]
    pub fn set_stream_state(&mut self, stream: StreamId, last_line_plus_one: u64) {
        debug_assert!(stream < self.cpu.streams.len(), "state never read");
        self.cpu.streams[stream].last_line_plus_one = last_line_plus_one;
    }

    /// Out-of-line remainder of [`BatchCpu::load_quiet`]: line crossings
    /// and non-adjacent accesses.
    #[inline]
    fn load_quiet_cold(&mut self, llpo: &mut u64, first: u64, last: u64) {
        for line in first..=last {
            if *llpo == line + 1 {
                self.acc.l1_element_hits += 1;
            } else {
                self.touch_line_with(llpo, line);
            }
        }
    }

    /// One full hierarchy access, handed to the walk side — the scalar
    /// `touch_line` semantics.
    fn touch_line_with(&mut self, llpo: &mut u64, line: u64) {
        let sequential = *llpo == line;
        *llpo = line + 1;
        self.walks.touch(line, sequential);
    }

    /// Load an arbitrarily long byte span at `addr` on `stream`. Dense
    /// clean spans are accounted in closed form at set/level granularity;
    /// anything else (partially resident span, too-shallow hierarchy,
    /// tiny span) falls back to the per-line walk.
    /// Bit-identical to [`SimCpu::load_span`] in all cases.
    pub fn load_span(&mut self, stream: StreamId, addr: u64, bytes: u64) {
        assert!(bytes >= 1, "empty span");
        let mut llpo = self.stream_state(stream);
        let mut first = addr >> self.line_shift;
        let last = (addr + bytes - 1) >> self.line_shift;
        // Leading element hit: the span may re-enter the current line.
        if llpo == first + 1 {
            self.acc.l1_element_hits += 1;
            first += 1;
        }
        if first > last {
            return; // wholly absorbed by the current line
        }
        self.walk_dense_lines(&mut llpo, first, last);
        self.cpu.streams[stream].last_line_plus_one = llpo;
    }

    /// Touch the dense line range `first..=last` exactly as a sequential
    /// per-line walk would: the walk side applies it in closed form when
    /// the span is clean and the hierarchy shape allows it, line by line
    /// otherwise. Leaves `*llpo == last + 1`.
    fn walk_dense_lines(&mut self, llpo: &mut u64, first: u64, last: u64) {
        let entering_sequential = *llpo == first;
        *llpo = last + 1;
        self.walks.dense(first, last, entering_sequential);
    }

    /// Account `n` sequential element loads (`elem` bytes each, starting
    /// at `addr`) against a caller-held stream state, bit-identically to
    /// `n` individual [`BatchCpu::load_quiet`] calls, and return how many
    /// of them were element hits (the caller flushes those in bulk via
    /// [`BatchCpu::add_element_hits`]).
    ///
    /// Exactness: with `addr` element-aligned and the element dividing
    /// the line size, no element straddles a line, so the per-element
    /// walk reduces to "one touch at each new line, element hits for the
    /// rest" — `n − touches` hits plus the same ordered sequence of
    /// sequential line touches, which `BatchCpu::walk_dense_lines`
    /// applies (in closed form when the span is clean). Misaligned
    /// shapes fall back to the per-element loop.
    pub fn load_elements_seq(&mut self, llpo: &mut u64, addr: u64, elem: u64, n: u64) -> u64 {
        debug_assert!(elem >= 1);
        if n == 0 {
            return 0;
        }
        // The line size is a power of two, so the element divides it iff
        // it is a smaller power of two: the test needs no division, which
        // matters to callers accounting runs of a few rows.
        let aligned = elem.is_power_of_two()
            && elem.trailing_zeros() <= self.line_shift
            && addr & (elem - 1) == 0;
        if !aligned {
            let mut hits = 0u64;
            for k in 0..n {
                hits += self.load_quiet(llpo, addr + k * elem, elem);
            }
            return hits;
        }
        let mut first = addr >> self.line_shift;
        let last = (addr + n * elem - 1) >> self.line_shift;
        // Elements in the stream's current line are hits and advance
        // nothing; the first new line starts the touch walk.
        if *llpo == first + 1 {
            first += 1;
        }
        if first > last {
            return n; // wholly absorbed by the current line
        }
        let hits = n - (last - first + 1);
        self.walk_dense_lines(llpo, first, last);
        hits
    }

    /// Flush the accumulated counters into the core and end the batch.
    /// Equivalent to dropping the guard; provided for explicitness.
    pub fn finish(self) {}

    /// Whether the walker thread applies this batch's walks.
    #[cfg(test)]
    fn piped(&self) -> bool {
        matches!(self.walks, Walks::Piped(_))
    }
}

impl Drop for BatchCpu<'_> {
    fn drop(&mut self) {
        self.cpu.pmu.add(&self.acc);
        self.walks.close(self.cpu);
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{self, AssertUnwindSafe};
    use std::thread;
    use std::time::{Duration, Instant};

    use super::*;
    use crate::config::CpuConfig;
    use crate::numa::NumaPlacement;
    use crate::pmu::Counters;
    use crate::walker::walker_batches;

    fn assert_same(a: &SimCpu, b: &SimCpu, what: &str) {
        assert_eq!(a.counters(), b.counters(), "{what}: counters");
        assert_eq!(a.remote_accesses(), b.remote_accesses(), "{what}: remote");
        for lvl in 0..a.hierarchy().depth() {
            let (la, lb) = (a.hierarchy().level(lvl), b.hierarchy().level(lvl));
            assert_eq!(la.demand, lb.demand, "{what}: L{lvl} demand stats");
            assert_eq!(la.prefetch, lb.prefetch, "{what}: L{lvl} prefetch stats");
            for set in 0..la.set_count() as usize {
                assert_eq!(
                    la.set_lines(set),
                    lb.set_lines(set),
                    "{what}: L{lvl} set {set}"
                );
            }
        }
    }

    #[test]
    fn batched_events_flush_to_identical_counters() {
        let mut scalar = SimCpu::new(CpuConfig::tiny_test());
        let mut batched = SimCpu::new(CpuConfig::tiny_test());
        let site = BranchSite(3);
        for i in 0..500u64 {
            scalar.instr(2);
            scalar.load(0, i * 4, 4);
            scalar.branch(site, i % 3 == 0);
        }
        {
            let mut b = batched.batch();
            for i in 0..500u64 {
                b.instr(2);
                b.load(0, i * 4, 4);
                b.branch(site, i % 3 == 0);
            }
        }
        assert_same(&scalar, &batched, "mixed events");
    }

    #[test]
    fn nothing_is_visible_before_the_flush() {
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        {
            let mut b = cpu.batch();
            b.instr(100);
            b.load(0, 0, 4);
        }
        assert!(cpu.counters().instructions == 100, "flushed on drop");
        assert_eq!(cpu.counters(), {
            let mut reference = SimCpu::new(CpuConfig::tiny_test());
            reference.instr(100);
            reference.load(0, 0, 4);
            reference.counters()
        });
    }

    #[test]
    fn clean_dense_span_matches_per_line_oracle() {
        let mut scalar = SimCpu::new(CpuConfig::tiny_test());
        let mut batched = SimCpu::new(CpuConfig::tiny_test());
        // Even and odd entry points, even and odd span ends.
        for (addr, bytes) in [(64u64, 4096u64), (8256, 1000), (64 * 129, 64 * 7)] {
            scalar.load_span(0, addr, bytes);
            batched.batch().load_span(0, addr, bytes);
            assert_same(&scalar, &batched, "span");
        }
    }

    #[test]
    fn load_elements_seq_matches_per_element_loads() {
        // Various starting offsets, element sizes and counts, including a
        // warm pass over the same region (element hits dominate) and a
        // misaligned base (fallback path).
        for (addr, elem, n) in [
            (0u64, 4u64, 1000u64),
            (64 * 7 + 16, 4, 300),
            (64 * 3, 8, 500),
            (128, 64, 40),
            (2, 4, 333), // misaligned: falls back
        ] {
            let mut scalar = SimCpu::new(CpuConfig::tiny_test());
            let mut batched = SimCpu::new(CpuConfig::tiny_test());
            for pass in 0..2 {
                for k in 0..n {
                    scalar.load(0, addr + k * elem, elem as u32);
                }
                let mut b = batched.batch();
                let mut llpo = b.stream_state(0);
                let hits = b.load_elements_seq(&mut llpo, addr, elem, n);
                b.add_element_hits(hits);
                b.set_stream_state(0, llpo);
                drop(b);
                assert_same(
                    &scalar,
                    &batched,
                    &format!("elements addr={addr} elem={elem} n={n} pass={pass}"),
                );
            }
        }
    }

    #[test]
    fn dirty_span_falls_back_and_still_matches() {
        let mut scalar = SimCpu::new(CpuConfig::tiny_test());
        let mut batched = SimCpu::new(CpuConfig::tiny_test());
        // Warm a line in the middle of the span so it is not clean.
        scalar.load(1, 64 * 40, 4);
        batched.load(1, 64 * 40, 4);
        scalar.load_span(0, 64 * 32, 64 * 16);
        batched.batch().load_span(0, 64 * 32, 64 * 16);
        assert_same(&scalar, &batched, "dirty span");
    }

    #[test]
    fn span_remote_surcharge_matches_per_line_oracle() {
        let configure = |socket: usize| {
            let mut c = SimCpu::new(CpuConfig::tiny_test());
            let mut p = NumaPlacement::interleaved(2);
            p.register(0, 64 * 100, 0);
            p.register(64 * 100, 64 * 300, 1);
            c.set_placement(p);
            c.set_socket(socket);
            c
        };
        for socket in [0, 1] {
            let mut scalar = configure(socket);
            let mut batched = configure(socket);
            // Crosses both registered segments and the interleave tail.
            scalar.load_span(0, 64 * 64, 64 * 512);
            batched.batch().load_span(0, 64 * 64, 64 * 512);
            assert_same(&scalar, &batched, "numa span");
        }
    }

    #[test]
    fn guard_keeps_totals_when_interleaved_with_scalar_events() {
        let mut a = SimCpu::new(CpuConfig::tiny_test());
        let mut b = SimCpu::new(CpuConfig::tiny_test());
        a.load(0, 0, 4);
        b.load(0, 0, 4);
        {
            let mut g = b.batch();
            g.load(0, 64, 4);
            g.instr(7);
        }
        a.load(0, 64, 4);
        a.instr(7);
        a.load(0, 128, 4);
        b.load(0, 128, 4);
        assert_eq!(a.counters(), b.counters());
    }

    #[test]
    fn empty_batch_is_free() {
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let before: Counters = cpu.counters();
        cpu.batch().finish();
        assert_eq!(cpu.counters(), before);
    }

    /// Whether standalone cores can hand their walks to the walker thread.
    fn walker_available() -> bool {
        thread::available_parallelism().map_or(1, |n| n.get()) >= 2
    }

    /// Run `events` in a batch on `cpu` that the walker thread serves,
    /// retrying while a concurrently running test holds the walker.
    fn on_walker(cpu: &mut SimCpu, events: impl FnOnce(&mut BatchCpu<'_>)) {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(30) {
            let mut b = cpu.batch();
            if b.piped() {
                events(&mut b);
                return;
            }
            drop(b); // empty and inline: changes nothing
            thread::yield_now();
        }
        panic!("the walker thread stayed busy for 30 s");
    }

    /// Run `events` in a batch on `cpu` that walks inline: a decoy core
    /// holds a batch open on the walker thread meanwhile, so `cpu`'s
    /// batch finds the walker busy. (A one-core host has no walker.)
    fn inline(cpu: &mut SimCpu, events: impl FnOnce(&mut BatchCpu<'_>)) {
        let run = move || {
            let mut b = cpu.batch();
            assert!(!b.piped(), "a batch beside a busy walker walks inline");
            events(&mut b);
        };
        if walker_available() {
            on_walker(&mut SimCpu::new(CpuConfig::tiny_test()), |_| run());
        } else {
            run();
        }
    }

    /// Random and repeated loads, dense spans and branches.
    fn tape(b: &mut BatchCpu<'_>) {
        for i in 0..400u64 {
            b.load(0, (i * 17 % 97) * 64 * 3, 4);
            b.branch(BranchSite(1), i % 5 == 0);
            if i % 50 == 0 {
                b.load_span(1, 64 * (2000 + i * 9), 64 * 24);
            }
        }
    }

    #[test]
    fn a_batch_beside_a_busy_walker_walks_inline_with_the_same_bits() {
        let mut reference = SimCpu::new(CpuConfig::tiny_test());
        inline(&mut reference, tape);
        if walker_available() {
            let mut piped = SimCpu::new(CpuConfig::tiny_test());
            on_walker(&mut piped, tape);
            assert_same(&piped, &reference, "walker thread vs inline");
        }
    }

    #[test]
    fn a_busy_host_hands_the_walks_back_inline() {
        if !walker_available() {
            return;
        }
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let mut first = SimCpu::new(CpuConfig::tiny_test());
        let mut others: Vec<SimCpu> = (0..cores)
            .map(|_| SimCpu::new(CpuConfig::tiny_test()))
            .collect();
        let mut reference = SimCpu::new(CpuConfig::tiny_test());
        on_walker(&mut first, |b| {
            tape(b);
            let mut open: Vec<BatchCpu<'_>> = others.iter_mut().map(SimCpu::batch).collect();
            assert!(
                open.iter().all(|other| !other.piped()),
                "the walker serves one core at a time"
            );
            // With as many other batches open as the host has cores, the
            // walker has no core left: the piped batch takes its walks
            // back at its next publication and goes on inline.
            tape(b);
            assert!(!b.piped(), "a full host keeps the walker idle");
            for other in &mut open {
                tape(other);
                tape(other);
            }
        });
        inline(&mut reference, tape);
        inline(&mut reference, tape);
        assert_same(&first, &reference, "the core that went inline mid-batch");
        for other in &others {
            assert_same(other, &reference, "an inline core");
        }
    }

    #[test]
    fn a_panic_through_a_piped_batch_returns_the_hierarchy() {
        if !walker_available() {
            return;
        }
        let mut piped = SimCpu::new(CpuConfig::tiny_test());
        let mut reference = SimCpu::new(CpuConfig::tiny_test());
        let drained = walker_batches();
        let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
            on_walker(&mut piped, |b| {
                tape(b);
                panic!("the row loop fails mid-batch");
            })
        }));
        assert!(unwound.is_err());
        assert!(walker_batches() > drained, "the walker drained the batch");
        inline(&mut reference, tape);
        assert_same(&piped, &reference, "after the unwind");
        // The core and the walker serve the next batch as before.
        on_walker(&mut piped, tape);
        inline(&mut reference, tape);
        assert_same(&piped, &reference, "the next batch");
    }
}
