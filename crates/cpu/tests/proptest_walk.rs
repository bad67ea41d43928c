//! Property: [`popt_cpu::CacheHierarchy`] — the monomorphized walk every
//! figure and benchmark workload executes, the general walk, way
//! partitioning and the closed-form span path — is access-for-access
//! identical to a naive `Vec`-per-set reference model of the same
//! hierarchy: per-access [`AccessResult`], per-level [`LevelStats`],
//! memory counters, and the LRU-ordered contents of every set.
//!
//! The reference knows nothing about the production set layout; it
//! implements only the semantics of the `cache` module documentation
//! (demand walk L1 → L2 → LLC → memory with fills on the way back, buddy
//! prefetch into L2 and the LLC on a demand L2 miss, true LRU per set).
//!
//! Case count is the vendored proptest default (256), pinnable via
//! `PROPTEST_CASES` (CI pins it).

use proptest::prelude::*;

use popt_cpu::cache::{AccessResult, ServedBy};
use popt_cpu::{CacheHierarchy, CacheLevelConfig, CpuConfig, LevelStats, SimCpu};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One reference level: every set a `Vec` of line numbers, LRU first.
struct RefLevel {
    sets: Vec<Vec<u64>>,
    ways: usize,
    demand: LevelStats,
    prefetch: LevelStats,
}

impl RefLevel {
    fn new(sets: u64, ways: usize) -> Self {
        Self {
            sets: vec![Vec::new(); sets as usize],
            ways,
            demand: LevelStats::default(),
            prefetch: LevelStats::default(),
        }
    }

    fn set_mut(&mut self, line: u64) -> &mut Vec<u64> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn contains(&self, line: u64) -> bool {
        self.sets[(line % self.sets.len() as u64) as usize].contains(&line)
    }

    fn access(&mut self, line: u64, is_prefetch: bool) -> bool {
        let set = self.set_mut(line);
        let hit = match set.iter().position(|&l| l == line) {
            Some(pos) => {
                let l = set.remove(pos);
                set.push(l);
                true
            }
            None => false,
        };
        let stats = if is_prefetch {
            &mut self.prefetch
        } else {
            &mut self.demand
        };
        stats.accesses += 1;
        stats.hits += u64::from(hit);
        stats.misses += u64::from(!hit);
        hit
    }

    fn fill(&mut self, line: u64) {
        let ways = self.ways;
        let set = self.set_mut(line);
        assert!(!set.contains(&line), "reference filled a resident line");
        if set.len() == ways {
            set.remove(0);
        }
        set.push(line);
    }

    fn set_ways(&mut self, ways: usize) {
        for set in &mut self.sets {
            let excess = set.len().saturating_sub(ways);
            set.drain(..excess);
        }
        self.ways = ways;
    }
}

/// The reference three-level hierarchy.
struct RefHierarchy {
    levels: [RefLevel; 3],
    memory_demand: u64,
    memory_prefetch: u64,
}

impl RefHierarchy {
    fn new(config: &CpuConfig) -> Self {
        let level = |i: usize| {
            let l: &CacheLevelConfig = &config.levels[i];
            RefLevel::new(l.sets(), l.ways as usize)
        };
        assert_eq!(config.levels.len(), 3, "reference models L1/L2/LLC");
        Self {
            levels: [level(0), level(1), level(2)],
            memory_demand: 0,
            memory_prefetch: 0,
        }
    }

    fn demand_access(&mut self, line: u64) -> AccessResult {
        let mut result = AccessResult {
            served_by: ServedBy::Memory,
            prefetch_issued: false,
            prefetch_memory: false,
        };
        let hit = (0..3).find(|&i| self.levels[i].access(line, false));
        if let Some(i) = hit {
            result.served_by = ServedBy::Level(i);
        } else {
            self.memory_demand += 1;
        }
        for level in &mut self.levels[..hit.unwrap_or(3)] {
            level.fill(line);
        }
        // A demand request that left L2 triggers the buddy prefetch.
        let buddy = line ^ 1;
        if hit.is_none_or(|i| i == 2) && !self.levels[1].contains(buddy) {
            result.prefetch_issued = true;
            if !self.levels[2].access(buddy, true) {
                self.memory_prefetch += 1;
                result.prefetch_memory = true;
                self.levels[2].fill(buddy);
            }
            self.levels[1].fill(buddy);
        }
        result
    }

    fn assert_matches(&self, h: &CacheHierarchy, what: &str) {
        assert_eq!(h.memory_demand, self.memory_demand, "{what}: memory demand");
        assert_eq!(
            h.memory_prefetch, self.memory_prefetch,
            "{what}: memory prefetch"
        );
        for (i, r) in self.levels.iter().enumerate() {
            let l = h.level(i);
            assert_eq!(l.demand, r.demand, "{what}: L{} demand stats", i + 1);
            assert_eq!(l.prefetch, r.prefetch, "{what}: L{} prefetch stats", i + 1);
            for (s, set) in r.sets.iter().enumerate() {
                assert_eq!(
                    &*l.set_lines(s),
                    set.as_slice(),
                    "{what}: L{} set {s} (LRU first)",
                    i + 1
                );
            }
        }
    }
}

/// Small hierarchies with the way counts of the shapes under test, so
/// short tapes reach evictions at every level. `(8, 8, 16)` and
/// `(8, 8, 20)` take the monomorphized walk, the rest the general one.
fn shaped(shape: u8) -> CpuConfig {
    // (ways, sets) per level.
    let geometry: [(u32, u64); 3] = match shape {
        0 => [(8, 4), (8, 8), (16, 16)],
        1 => [(8, 4), (8, 8), (20, 12)], // non-power-of-two LLC set count
        2 => [(8, 4), (8, 6), (16, 24)], // non-power-of-two L2 and LLC
        _ => return CpuConfig::tiny_test(), // (2, 4, 4)
    };
    let mut cfg = CpuConfig::tiny_test();
    for (level, (ways, sets)) in cfg.levels.iter_mut().zip(geometry) {
        level.ways = ways;
        level.capacity_bytes = u64::from(ways) * sets * level.line_bytes;
    }
    cfg
}

/// Next line of a random tape. Three mixes: uniform over a region a few
/// times the LLC; a hot subset (hits and LRU refreshes at every level);
/// and a few dozen lines of one LLC set (`sets(LLC)` apart, so of one L1
/// and L2 set too in the power-of-two shapes) — two to three times its
/// ways, so some residents share a one-byte fingerprint and residency
/// has to be decided by the full tag.
fn tape_line(s: &mut u64, llc_lines: u64, llc_sets: u64) -> u64 {
    match xorshift(s) % 4 {
        0 => xorshift(s) % 48,
        1 => (xorshift(s) % 3) + (xorshift(s) % 48) * llc_sets,
        _ => xorshift(s) % (4 * llc_lines),
    }
}

proptest! {
    /// Random line tapes, with the LLC slice shrinking and re-widening
    /// mid-tape, leave the production hierarchy and the reference in the
    /// same state after every access.
    #[test]
    fn walk_matches_reference_model(
        seed in any::<u64>(),
        shape in 0u8..4,
        ops in 200usize..1200,
    ) {
        let cfg = shaped(shape);
        let llc = *cfg.llc();
        let mut h = CacheHierarchy::new(&cfg);
        let mut r = RefHierarchy::new(&cfg);
        let mut s = seed | 1;
        for op in 0..ops {
            if xorshift(&mut s) % 97 == 0 {
                // Repartition: any allocation, over-wide requests clamp.
                let ways = 1 + (xorshift(&mut s) % (u64::from(llc.ways) + 3)) as usize;
                h.set_llc_ways(ways);
                r.levels[2].set_ways(ways.min(llc.ways as usize));
                prop_assert_eq!(h.llc_ways(), r.levels[2].ways);
                r.assert_matches(&h, "after repartition");
            }
            let line = tape_line(&mut s, llc.lines(), llc.sets());
            let got = h.demand_access(line);
            let want = r.demand_access(line);
            prop_assert_eq!(got, want, "op {} line {}", op, line);
            // Cheap per-access state probe; the full comparison below
            // runs often enough to localise a divergence.
            prop_assert_eq!(h.level(2).demand, r.levels[2].demand);
            if op % 64 == 0 {
                r.assert_matches(&h, "mid-tape");
            }
        }
        r.assert_matches(&h, "end of tape");
    }

    /// Dense spans through the batched guard (closed-form
    /// `fill_range_ascending` accounting whenever the span is clean)
    /// interleaved with random walks and LLC repartitions equal the
    /// reference replaying every line of every span one access at a time.
    #[test]
    fn spans_interleaved_with_walks_match_reference(
        seed in any::<u64>(),
        shape in 0u8..4,
        ops in 20usize..120,
    ) {
        let cfg = shaped(shape);
        let llc = *cfg.llc();
        let mut cpu = SimCpu::new(cfg.clone());
        let mut r = RefHierarchy::new(&cfg);
        // Per-stream adjacency (last line + 1): a touch of the stream's
        // current line is an element hit and never reaches the hierarchy.
        let mut llpo = [0u64; 2];
        let mut touch = |r: &mut RefHierarchy, stream: usize, line: u64| {
            if llpo[stream] != line + 1 {
                llpo[stream] = line + 1;
                r.demand_access(line);
            }
        };
        let mut s = seed | 1;
        for _ in 0..ops {
            match xorshift(&mut s) % 8 {
                0 => {
                    let ways = 1 + (xorshift(&mut s) % u64::from(llc.ways)) as usize;
                    cpu.set_llc_ways(ways);
                    r.levels[2].set_ways(ways);
                }
                1..=3 => {
                    // Spans from a few lines to several times the LLC set
                    // count, so every level sees both the per-line and
                    // the per-set rebuild (k < ways and k >= ways).
                    let first = 1 + xorshift(&mut s) % (16 * llc.lines());
                    let lines = 1 + xorshift(&mut s) % (3 * llc.lines());
                    cpu.batch().load_span(1, first * 64, lines * 64);
                    for line in first..first + lines {
                        touch(&mut r, 1, line);
                    }
                }
                _ => {
                    for _ in 0..xorshift(&mut s) % 24 {
                        let line = tape_line(&mut s, llc.lines(), llc.sets());
                        cpu.batch().load(0, line * 64, 4);
                        touch(&mut r, 0, line);
                    }
                }
            }
            r.assert_matches(cpu.hierarchy(), "after op");
        }
        let c = cpu.counters();
        prop_assert_eq!(c.l3_accesses, r.levels[2].demand.accesses + r.levels[2].prefetch.accesses);
        prop_assert_eq!(c.memory_accesses, r.memory_demand);
    }
}
