//! Morsel-wise work division: carve a scan's row range into cache-sized
//! chunks with a *deterministic interleaved placement* — morsel `k`
//! belongs to worker `k mod workers`.
//!
//! A *morsel* (HyPer's term) is the parallel analogue of the vectorized
//! loop's vector: small enough that a worker reacts to a newly published
//! operator order within one morsel (workers re-check the coordinator at
//! every morsel boundary), large enough that claiming one costs a single
//! counter increment rather than per-tuple bookkeeping.
//!
//! Placement is deterministic rather than work-stealing on purpose: each
//! worker's morsel *set* is a pure function of the workload, so a
//! simulated core's share never depends on how fast its neighbours ran.
//! Morsels are near-uniform (same tuple count), so the balance
//! work-stealing would buy is at most one morsel.
//!
//! On a multi-socket pool the dispatcher adds HyPer-style **range
//! affinity** ([`MorselDispatcher::with_affinity`]): the morsel range is
//! first split into contiguous per-socket blocks (proportional to each
//! socket's worker count), and each socket's workers interleave within
//! their own block via the same per-worker claim counters. A worker
//! therefore only ever touches rows from its socket's block — pin those
//! rows' columns to that socket in the `NumaPlacement` and every fact
//! access is local. The placement stays a pure function of the workload
//! and topology; with one socket the formula reduces exactly to the flat
//! interleave.

use popt_cpu::CpuConfig;

use crate::error::EngineError;

/// Morsel-division parameters of a parallel run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorselConfig {
    /// Tuples per morsel (the parallel counterpart of
    /// [`crate::progressive::VectorConfig::vector_tuples`]).
    pub morsel_tuples: usize,
}

impl MorselConfig {
    /// A morsel of exactly `morsel_tuples` tuples.
    pub fn new(morsel_tuples: usize) -> Self {
        Self { morsel_tuples }
    }

    /// Cache-friendly sizing: the morsel's hot column data
    /// (`hot_bytes_per_tuple` = summed widths of the columns the pipeline
    /// reads per tuple) should fit the per-core L2, so a worker's reads
    /// stay resident for the duration of the morsel while still being
    /// large enough to amortize the claim and the coordinator check.
    pub fn cache_friendly(cpu: &CpuConfig, hot_bytes_per_tuple: usize) -> Self {
        let l2_bytes = cpu
            .levels
            .get(1)
            .map_or(64 * 1024, |l| l.capacity_bytes as usize);
        Self::fit_hot_bytes(l2_bytes, hot_bytes_per_tuple)
    }

    /// [`MorselConfig::cache_friendly`] for a core on a contended socket:
    /// the morsel's hot data must fit the *smaller* of the private L2 and
    /// the core's effective LLC share (`llc_share_bytes`). On a shared
    /// socket the share can drop below L2 — an L2-sized morsel would then
    /// stream through a slice that cannot hold it, re-fetching from
    /// memory what a share-sized morsel keeps resident.
    pub fn cache_friendly_for_share(
        cpu: &CpuConfig,
        hot_bytes_per_tuple: usize,
        llc_share_bytes: u64,
    ) -> Self {
        let l2_bytes = cpu
            .levels
            .get(1)
            .map_or(64 * 1024, |l| l.capacity_bytes as usize);
        Self::fit_hot_bytes(
            l2_bytes.min(usize::try_from(llc_share_bytes).unwrap_or(usize::MAX)),
            hot_bytes_per_tuple,
        )
    }

    fn fit_hot_bytes(budget_bytes: usize, hot_bytes_per_tuple: usize) -> Self {
        Self {
            morsel_tuples: (budget_bytes / hot_bytes_per_tuple.max(1)).clamp(1_024, 65_536),
        }
    }
}

impl Default for MorselConfig {
    fn default() -> Self {
        Self {
            morsel_tuples: 4_096,
        }
    }
}

/// The work division of a parallel scan over `0..rows`: the morsel
/// range is split into contiguous per-socket blocks (one block spanning
/// everything for a single-socket dispatcher), and within its socket's
/// block worker `w` owns every `ws`-th morsel (`ws` = workers on that
/// socket), claimed lazily via per-worker counters. Disjoint ranges,
/// deterministic placement, completion in any order.
#[derive(Debug)]
pub struct MorselDispatcher {
    rows: usize,
    morsel_tuples: usize,
    workers: usize,
    sockets: usize,
    /// Morsel-index boundary of each socket's contiguous block
    /// (`boundaries[s] .. boundaries[s + 1]`); length `sockets + 1`.
    boundaries: Vec<usize>,
    /// Per-worker count of morsels that worker has claimed so far.
    claimed: Vec<usize>,
}

impl MorselDispatcher {
    /// A dispatcher over `rows` tuples in morsels of `morsel_tuples`,
    /// interleaved across `workers` workers (single socket: morsel `k`
    /// belongs to worker `k mod workers`).
    pub fn new(rows: usize, morsel_tuples: usize, workers: usize) -> Result<Self, EngineError> {
        Self::with_affinity(rows, morsel_tuples, workers, 1)
    }

    /// A dispatcher with range affinity across `sockets` contiguous
    /// socket blocks. Workers map to sockets exactly like pool cores
    /// (`socket_of(w) = w * sockets / workers`), block sizes are
    /// proportional to each socket's worker count, and each socket's
    /// workers interleave within their block — so the claim placement
    /// is a pure function of `(rows, morsel_tuples, workers, sockets)`.
    /// `sockets = 1` is exactly [`MorselDispatcher::new`].
    pub fn with_affinity(
        rows: usize,
        morsel_tuples: usize,
        workers: usize,
        sockets: usize,
    ) -> Result<Self, EngineError> {
        if morsel_tuples == 0 {
            return Err(EngineError::InvalidVectorConfig("morsel_tuples = 0".into()));
        }
        if workers == 0 {
            return Err(EngineError::InvalidVectorConfig("workers = 0".into()));
        }
        if sockets == 0 || sockets > workers {
            return Err(EngineError::InvalidVectorConfig(format!(
                "sockets ({sockets}) must be in 1..=workers ({workers})"
            )));
        }
        let total = rows.div_ceil(morsel_tuples);
        // boundary[s] splits the morsel range proportionally to the
        // cumulative worker count — each socket's block matches its
        // share of the execution bandwidth.
        let boundaries: Vec<usize> = (0..=sockets)
            .map(|s| total * Self::first_worker_of(s, workers, sockets) / workers)
            .collect();
        Ok(Self {
            rows,
            morsel_tuples,
            workers,
            sockets,
            boundaries,
            claimed: vec![0; workers],
        })
    }

    /// First worker index on socket `s` (contiguous worker blocks, same
    /// split as `CpuPool::socket_of`); `workers` for `s == sockets`.
    fn first_worker_of(s: usize, workers: usize, sockets: usize) -> usize {
        (s * workers).div_ceil(sockets)
    }

    /// Socket of `worker`, plus its local index and the worker count of
    /// that socket.
    fn worker_slot(&self, worker: usize) -> (usize, usize, usize) {
        let s = worker * self.sockets / self.workers;
        let first = Self::first_worker_of(s, self.workers, self.sockets);
        let next = Self::first_worker_of(s + 1, self.workers, self.sockets);
        (s, worker - first, next - first)
    }

    /// The morsel index `worker` would claim at claim count `round`,
    /// with its socket's block end.
    fn morsel_at(&self, worker: usize, round: usize) -> (usize, usize) {
        let (s, local, ws) = self.worker_slot(worker);
        (
            self.boundaries[s] + round * ws + local,
            self.boundaries[s + 1],
        )
    }

    /// Whether `worker`'s share of the range still has unclaimed
    /// morsels — the non-consuming eligibility probe the serving
    /// scheduler uses before spending a stride slot on the query.
    pub fn has_morsels(&self, worker: usize) -> bool {
        let (idx, block_end) = self.morsel_at(worker, self.claimed[worker]);
        idx < block_end
    }

    /// Claim `worker`'s next morsel; `None` once that worker's share of
    /// the range is exhausted.
    pub fn next(&mut self, worker: usize) -> Option<(usize, usize)> {
        let (idx, block_end) = self.morsel_at(worker, self.claimed[worker]);
        self.claimed[worker] += 1;
        (idx < block_end).then(|| {
            let start = idx * self.morsel_tuples;
            (start, (start + self.morsel_tuples).min(self.rows))
        })
    }

    /// Whether every morsel has been claimed (claimed ≠ completed: a
    /// worker may still be executing its last one). Used to avoid
    /// scheduling trial orders that could never run.
    pub fn exhausted(&self) -> bool {
        (0..self.workers).all(|w| !self.has_morsels(w))
    }

    /// Total number of morsels the range divides into.
    pub fn total_morsels(&self) -> usize {
        self.rows.div_ceil(self.morsel_tuples)
    }

    /// Workers the range is interleaved across.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sockets the range is blocked across (1 = flat interleave).
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Row range `[start, end)` of socket `s`'s contiguous block — the
    /// rows only `s`'s workers will ever touch. Registering these rows'
    /// columns to socket `s` in the `NumaPlacement` makes every fact
    /// access local under affinity dispatch.
    pub fn socket_row_range(&self, socket: usize) -> (usize, usize) {
        let start = (self.boundaries[socket] * self.morsel_tuples).min(self.rows);
        let end = (self.boundaries[socket + 1] * self.morsel_tuples).min(self.rows);
        (start, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_worker_morsels_cover_range_in_order() {
        let mut d = MorselDispatcher::new(10_000, 1_024, 1).unwrap();
        let mut seen = Vec::new();
        while let Some(m) = d.next(0) {
            seen.push(m);
        }
        assert_eq!(seen.len(), d.total_morsels());
        assert_eq!(seen.first(), Some(&(0, 1_024)));
        assert_eq!(seen.last(), Some(&(9_216, 10_000)));
        for pair in seen.windows(2) {
            assert_eq!(pair[0].1, pair[1].0, "gap or overlap: {pair:?}");
        }
        assert!(d.exhausted());
        assert!(d.next(0).is_none());
    }

    #[test]
    fn interleaved_placement_is_deterministic_and_balanced() {
        let workers = 4;
        let mut d = MorselDispatcher::new(100_000, 777, workers).unwrap();
        // Worker w gets exactly morsels w, w+4, w+8, … regardless of the
        // order in which claims happen.
        let mut all = Vec::new();
        for w in (0..workers).rev() {
            let mut count = 0;
            while let Some((start, end)) = d.next(w) {
                assert_eq!(start / 777 % workers, w, "morsel of the wrong worker");
                all.push((start, end));
                count += 1;
            }
            let total = d.total_morsels();
            let share = total / workers + usize::from(w < total % workers);
            assert_eq!(count, share, "worker {w} claimed an unbalanced share");
        }
        all.sort_unstable();
        assert_eq!(all.len(), d.total_morsels());
        let mut expect_start = 0;
        for (start, end) in all {
            assert_eq!(start, expect_start);
            expect_start = end;
        }
        assert_eq!(expect_start, 100_000);
        assert!(d.exhausted());
    }

    #[test]
    fn has_morsels_tracks_per_worker_shares_without_consuming() {
        let mut d = MorselDispatcher::new(4 * 777, 777, 2).unwrap();
        assert!(d.has_morsels(0) && d.has_morsels(1));
        // Probing never consumes.
        assert!(d.has_morsels(0));
        // Worker 0 drains its share; worker 1's is untouched.
        while d.next(0).is_some() {}
        assert!(!d.has_morsels(0));
        assert!(d.has_morsels(1));
        while d.next(1).is_some() {}
        assert!(!d.has_morsels(1));
        assert!(d.exhausted());
    }

    #[test]
    fn affinity_blocks_are_contiguous_disjoint_and_complete() {
        // 4 workers on 2 sockets over 100k rows: sockets own the two
        // halves of the morsel range, each half interleaved by its own
        // two workers.
        let mut d = MorselDispatcher::with_affinity(100_000, 777, 4, 2).unwrap();
        assert_eq!(d.sockets(), 2);
        let total = d.total_morsels();
        let (s0_start, s0_end) = d.socket_row_range(0);
        let (s1_start, s1_end) = d.socket_row_range(1);
        assert_eq!(s0_start, 0);
        assert_eq!(s0_end, s1_start, "blocks tile the range");
        assert_eq!(s1_end, 100_000);
        let mut all = Vec::new();
        for w in (0..4).rev() {
            let (lo, hi) = if w < 2 {
                (s0_start, s0_end)
            } else {
                (s1_start, s1_end)
            };
            while let Some((start, end)) = d.next(w) {
                assert!(
                    start >= lo && end <= hi,
                    "worker {w} strayed off its socket block: {start}..{end}"
                );
                all.push((start, end));
            }
        }
        all.sort_unstable();
        assert_eq!(all.len(), total);
        let mut expect_start = 0;
        for (start, end) in all {
            assert_eq!(start, expect_start);
            expect_start = end;
        }
        assert_eq!(expect_start, 100_000);
        assert!(d.exhausted());
    }

    #[test]
    fn one_socket_affinity_is_exactly_the_flat_interleave() {
        let mut flat = MorselDispatcher::new(50_000, 777, 3).unwrap();
        let mut aff = MorselDispatcher::with_affinity(50_000, 777, 3, 1).unwrap();
        for w in 0..3 {
            loop {
                let a = flat.next(w);
                let b = aff.next(w);
                assert_eq!(a, b, "worker {w} diverged");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn affinity_with_uneven_workers_keeps_blocks_proportional() {
        // 3 workers on 2 sockets: socket 0 holds workers {0, 1}, socket 1
        // holds {2}; blocks split the morsel range 2:1.
        let mut d = MorselDispatcher::with_affinity(90_000, 1_000, 3, 2).unwrap();
        let (a0, a1) = d.socket_row_range(0);
        let (b0, b1) = d.socket_row_range(1);
        assert_eq!((a0, a1), (0, 60_000));
        assert_eq!((b0, b1), (60_000, 90_000));
        // Worker 2 alone drains socket 1's block in order.
        let mut expect = 60_000;
        while let Some((start, end)) = d.next(2) {
            assert_eq!(start, expect);
            expect = end;
        }
        assert_eq!(expect, 90_000);
    }

    #[test]
    fn affinity_rejects_more_sockets_than_workers() {
        assert!(matches!(
            MorselDispatcher::with_affinity(100, 64, 2, 3).unwrap_err(),
            EngineError::InvalidVectorConfig(_)
        ));
        assert!(matches!(
            MorselDispatcher::with_affinity(100, 64, 2, 0).unwrap_err(),
            EngineError::InvalidVectorConfig(_)
        ));
    }

    #[test]
    fn zero_morsel_size_and_zero_workers_are_rejected() {
        assert!(matches!(
            MorselDispatcher::new(100, 0, 1).unwrap_err(),
            EngineError::InvalidVectorConfig(_)
        ));
        assert!(matches!(
            MorselDispatcher::new(100, 64, 0).unwrap_err(),
            EngineError::InvalidVectorConfig(_)
        ));
    }

    #[test]
    fn empty_range_yields_no_morsels() {
        let mut d = MorselDispatcher::new(0, 64, 2).unwrap();
        assert!(d.next(0).is_none());
        assert!(d.next(1).is_none());
        assert_eq!(d.total_morsels(), 0);
        assert!(d.exhausted());
    }

    #[test]
    fn cache_friendly_sizing_tracks_l2() {
        let cfg = CpuConfig::tiny_test();
        let m = MorselConfig::cache_friendly(&cfg, 8);
        assert!(m.morsel_tuples >= 1_024 && m.morsel_tuples <= 65_536);
        // More hot bytes per tuple never increases the morsel.
        let wide = MorselConfig::cache_friendly(&cfg, 64);
        assert!(wide.morsel_tuples <= m.morsel_tuples);
    }

    #[test]
    fn share_aware_sizing_fits_the_smaller_of_l2_and_share() {
        let cfg = CpuConfig::xeon_e5_2630_v2(); // 256 KiB L2
        let hot = 16;
        // Share above L2: identical to the private sizing.
        let wide = MorselConfig::cache_friendly_for_share(&cfg, hot, 1 << 20);
        assert_eq!(wide, MorselConfig::cache_friendly(&cfg, hot));
        // Share below L2: the morsel shrinks to fit the slice.
        let narrow = MorselConfig::cache_friendly_for_share(&cfg, hot, 64 * 1024);
        assert_eq!(narrow.morsel_tuples, 64 * 1024 / hot);
        assert!(narrow.morsel_tuples < wide.morsel_tuples);
        // The floor still applies for tiny shares.
        let floor = MorselConfig::cache_friendly_for_share(&cfg, hot, 1024);
        assert_eq!(floor.morsel_tuples, 1_024);
    }
}
