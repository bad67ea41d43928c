//! Static configuration of the simulated microarchitecture.
//!
//! Presets mirror the machines of the paper's evaluation: the Ivy-Bridge
//! Xeon E5-2630 v2 testbed (Section 5.1) plus the Nehalem / Sandy-Bridge /
//! Broadwell / AMD comparison points of Figures 3 and 6. On the simulator
//! the microarchitectures differ in their *predictor automaton* (state
//! count, history) and cache geometry — exactly the degrees of freedom the
//! paper's models are sensitive to.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes (e.g. `32 * 1024` for a 32 KiB L1).
    pub capacity_bytes: u64,
    /// Cache line size in bytes. All levels must share one line size.
    pub line_bytes: u64,
    /// Associativity (ways per set). Must divide `capacity_bytes / line_bytes`.
    pub ways: u32,
    /// Extra cycles charged when a demand access *hits* at this level.
    pub hit_latency_cycles: u64,
}

impl CacheLevelConfig {
    /// Number of cache lines this level can hold (the `#i` of Equation 1).
    pub fn lines(&self) -> u64 {
        self.capacity_bytes / self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.lines() / u64::from(self.ways)
    }
}

/// Configuration of the branch prediction unit.
///
/// The predictor is a table of n-state saturating counters. With
/// `history_bits == 0` it degenerates to one automaton per branch site —
/// the exact process modelled by the paper's Markov chain. With history
/// bits it behaves like a gshare predictor: on i.i.d. inputs each history
/// bucket sees the same Bernoulli stream (so the Markov model still holds
/// statistically), while on sorted/run-structured inputs it predicts almost
/// perfectly, which is the behaviour Section 5.4 relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Total automaton states (2–16 supported; the paper studies 2–8).
    pub states: u8,
    /// States that predict *not taken* (the rest predict taken).
    /// `states / 2` is the even split of the paper's 2/4/6/8-state chains;
    /// `states / 2 + 1` gives the `+1NT` variants of Figure 3.
    pub not_taken_states: u8,
    /// Global history length in bits (0 = pure per-site automaton).
    pub history_bits: u8,
    /// log2 of the prediction table size.
    pub table_bits: u8,
}

impl PredictorConfig {
    /// An n-state automaton with an even (or `+1T`/`+1NT`) split and no
    /// history — the configuration the Markov model of Section 3.2
    /// describes exactly.
    pub fn automaton(states: u8, not_taken_states: u8) -> Self {
        Self {
            states,
            not_taken_states,
            history_bits: 0,
            table_bits: 12,
        }
    }
}

/// Cycle-accounting constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Average cycles per retired instruction absent stalls (superscalar
    /// cores retire several instructions per cycle).
    pub cycles_per_instruction: f64,
    /// Pipeline flush penalty per mispredicted branch.
    pub mispredict_penalty_cycles: u64,
    /// Extra cycles for a demand miss that is served by main memory with a
    /// *random* access pattern.
    pub memory_random_cycles: u64,
    /// Extra cycles for a demand miss served by memory while the access
    /// stream is sequential (prefetch/bandwidth bound rather than latency
    /// bound).
    pub memory_sequential_cycles: u64,
    /// Surcharge for a demand miss served by a *remote* socket's memory
    /// (the NUMA hop). Charged in full on random misses; sequential
    /// (bandwidth-bound) streams pay a quarter, mirroring how the
    /// prefetcher hides most of the extra latency on linear scans.
    pub memory_remote_extra_cycles: u64,
    /// Core frequency, used to convert cycles to wall-clock milliseconds.
    pub frequency_ghz: f64,
}

/// Full description of a simulated CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuConfig {
    /// Human-readable microarchitecture name (shows up in figure output).
    pub name: &'static str,
    /// Cache levels ordered from L1 to last-level.
    pub levels: Vec<CacheLevelConfig>,
    /// Branch prediction unit.
    pub predictor: PredictorConfig,
    /// Cycle accounting constants.
    pub timing: TimingConfig,
}

impl CpuConfig {
    fn base(
        name: &'static str,
        l3_bytes: u64,
        predictor: PredictorConfig,
        frequency_ghz: f64,
    ) -> Self {
        let line = 64;
        Self {
            name,
            levels: vec![
                CacheLevelConfig {
                    capacity_bytes: 32 * 1024,
                    line_bytes: line,
                    ways: 8,
                    hit_latency_cycles: 0,
                },
                CacheLevelConfig {
                    capacity_bytes: 256 * 1024,
                    line_bytes: line,
                    ways: 8,
                    hit_latency_cycles: 10,
                },
                CacheLevelConfig {
                    capacity_bytes: l3_bytes,
                    line_bytes: line,
                    ways: 16,
                    hit_latency_cycles: 30,
                },
            ],
            predictor,
            timing: TimingConfig {
                cycles_per_instruction: 0.5,
                mispredict_penalty_cycles: 15,
                memory_random_cycles: 180,
                memory_sequential_cycles: 24,
                memory_remote_extra_cycles: 90,
                frequency_ghz,
            },
        }
    }

    /// The paper's testbed: Intel Xeon E5-2630 v2 (Ivy Bridge EP), 2.6 GHz,
    /// 32 KiB L1d / 256 KiB L2 per core, 15 MiB shared L3 (Section 5.1).
    pub fn xeon_e5_2630_v2() -> Self {
        Self::base(
            "Xeon E5-2630 v2 (Ivy Bridge EP)",
            15 * 1024 * 1024,
            PredictorConfig {
                states: 6,
                not_taken_states: 3,
                history_bits: 8,
                table_bits: 12,
            },
            2.6,
        )
    }

    /// Ivy Bridge client analogue: six-state automaton — the configuration
    /// the paper's six-state Markov chain matches "almost exactly" (Fig. 3).
    pub fn ivy_bridge() -> Self {
        Self::base(
            "Ivy Bridge",
            8 * 1024 * 1024,
            PredictorConfig {
                states: 6,
                not_taken_states: 3,
                history_bits: 8,
                table_bits: 12,
            },
            2.6,
        )
    }

    /// Sandy Bridge analogue — same branching behaviour as Ivy Bridge
    /// (Zeuch et al. [23] report no change across Sandy/Ivy/Haswell).
    pub fn sandy_bridge() -> Self {
        let mut c = Self::base(
            "Sandy Bridge",
            8 * 1024 * 1024,
            PredictorConfig {
                states: 6,
                not_taken_states: 3,
                history_bits: 8,
                table_bits: 12,
            },
            2.6,
        );
        c.timing.mispredict_penalty_cycles = 17;
        c
    }

    /// Broadwell analogue — six-state behaviour with a slightly larger
    /// prediction table.
    pub fn broadwell() -> Self {
        Self::base(
            "Broadwell",
            8 * 1024 * 1024,
            PredictorConfig {
                states: 6,
                not_taken_states: 3,
                history_bits: 10,
                table_bits: 13,
            },
            2.6,
        )
    }

    /// Nehalem analogue: the oldest microarchitecture in Figure 6, which
    /// "partially differs" from the six-state prediction — modelled with a
    /// classic 2-bit (four-state) automaton and short history.
    pub fn nehalem() -> Self {
        Self::base(
            "Nehalem",
            8 * 1024 * 1024,
            PredictorConfig {
                states: 4,
                not_taken_states: 2,
                history_bits: 4,
                table_bits: 12,
            },
            2.6,
        )
    }

    /// AMD analogue: the paper observes the most precise predictions with a
    /// four-state chain on AMD CPUs.
    pub fn amd() -> Self {
        Self::base(
            "AMD (4-state)",
            8 * 1024 * 1024,
            PredictorConfig {
                states: 4,
                not_taken_states: 2,
                history_bits: 0,
                table_bits: 12,
            },
            2.6,
        )
    }

    /// A small configuration for fast unit tests (tiny caches, no history).
    pub fn tiny_test() -> Self {
        let line = 64;
        Self {
            name: "tiny-test",
            levels: vec![
                CacheLevelConfig {
                    capacity_bytes: 1024,
                    line_bytes: line,
                    ways: 2,
                    hit_latency_cycles: 0,
                },
                CacheLevelConfig {
                    capacity_bytes: 4096,
                    line_bytes: line,
                    ways: 4,
                    hit_latency_cycles: 10,
                },
                CacheLevelConfig {
                    capacity_bytes: 16384,
                    line_bytes: line,
                    ways: 4,
                    hit_latency_cycles: 30,
                },
            ],
            predictor: PredictorConfig::automaton(6, 3),
            timing: TimingConfig {
                cycles_per_instruction: 0.5,
                mispredict_penalty_cycles: 15,
                memory_random_cycles: 180,
                memory_sequential_cycles: 24,
                memory_remote_extra_cycles: 90,
                frequency_ghz: 2.6,
            },
        }
    }

    /// Line size shared by all levels.
    pub fn line_bytes(&self) -> u64 {
        self.levels[0].line_bytes
    }

    /// The last-level cache configuration.
    pub fn llc(&self) -> &CacheLevelConfig {
        self.levels.last().expect("at least one cache level")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_geometry_matches_testbed() {
        let c = CpuConfig::xeon_e5_2630_v2();
        assert_eq!(c.levels.len(), 3);
        assert_eq!(c.levels[0].capacity_bytes, 32 * 1024);
        assert_eq!(c.levels[1].capacity_bytes, 256 * 1024);
        assert_eq!(c.levels[2].capacity_bytes, 15 * 1024 * 1024);
        assert_eq!(c.line_bytes(), 64);
        assert!((c.timing.frequency_ghz - 2.6).abs() < 1e-9);
    }

    #[test]
    fn level_line_and_set_counts() {
        let l = CacheLevelConfig {
            capacity_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
            hit_latency_cycles: 0,
        };
        assert_eq!(l.lines(), 512);
        assert_eq!(l.sets(), 64);
    }

    #[test]
    fn automaton_preset_has_no_history() {
        let p = PredictorConfig::automaton(6, 3);
        assert_eq!(p.history_bits, 0);
        assert_eq!(p.states, 6);
        assert_eq!(p.not_taken_states, 3);
    }

    #[test]
    fn microarch_presets_differ_in_predictor() {
        assert_ne!(
            CpuConfig::nehalem().predictor,
            CpuConfig::ivy_bridge().predictor
        );
        assert_eq!(CpuConfig::amd().predictor.states, 4);
        assert_eq!(CpuConfig::ivy_bridge().predictor.states, 6);
    }
}
