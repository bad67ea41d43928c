//! Per-stage cycle profiler: attribute simulated cycles to lanes.
//!
//! The executors are tuple-at-a-time short-circuit loops, so the
//! simulator measures a morsel's *total* cycles but never a per-stage
//! split. The profiler reconstructs one: the engine apportions each
//! morsel's measured cycles across the stages of the order it ran under
//! (model-weighted integer apportionment via [`apportion`] — exact by
//! construction) and records the parts here, together with optimizer
//! charges; [`Profiler::finish`] fills each worker's idle lane up to the
//! pool wall clock.
//!
//! The conservation law this enables — and the workspace proptest pins —
//! is bit-exact: per worker, stage + optimizer lanes sum to the worker's
//! reported cycles, and adding the idle lane reaches the pool wall
//! clock, so the total attributed equals `wall × workers` with no cycle
//! created or destroyed. Like tracing, profiling hangs outside the
//! simulated-cost path: attaching it never changes what the simulator
//! measures.
//!
//! Export: Chrome-trace duration slices (`"X"` events, one per attributed
//! part, per-worker timelines in simulated cycles) and a text flame
//! summary.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::validate_json;

/// Attribution lane of a profiled slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProfLane {
    /// Execution attributed to plan stage `j`.
    Stage(usize),
    /// Optimizer work (estimator fits) charged to the worker.
    Optimizer,
    /// Wait until the pool wall clock (filled by [`Profiler::finish`]).
    Idle,
}

impl ProfLane {
    /// Stable display name (`stage<j>`, `optimizer`, `idle`).
    pub fn label(&self) -> String {
        match self {
            ProfLane::Stage(j) => format!("stage{j}"),
            ProfLane::Optimizer => "optimizer".to_string(),
            ProfLane::Idle => "idle".to_string(),
        }
    }
}

/// One attributed duration on a worker's simulated timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfSlice {
    /// Worker lane (Chrome `tid`).
    pub worker: usize,
    /// Socket (Chrome `pid`).
    pub socket: usize,
    /// What the cycles are attributed to.
    pub lane: ProfLane,
    /// Slice start on the worker's simulated wall.
    pub start_cycles: u64,
    /// Attributed cycles.
    pub cycles: u64,
    /// Per-worker emission sequence (deterministic sort key: a worker's
    /// own slice order is simulation-determined even when cross-worker
    /// collection order is host-elastic).
    pub seq: u64,
}

#[derive(Debug, Default, Clone)]
struct WorkerLanes {
    stages: BTreeMap<usize, u64>,
    optimizer: u64,
    idle: u64,
    seq: u64,
    socket: usize,
}

#[derive(Debug, Default)]
struct ProfInner {
    workers: Vec<WorkerLanes>,
    slices: Vec<ProfSlice>,
    wall_cycles: u64,
    reported: Vec<u64>,
    finished: bool,
}

/// Collects attributed cycles per worker lane. Shareable across worker
/// threads (`&self` recording behind an internal mutex); entirely
/// outside the simulated-cost path.
#[derive(Debug)]
pub struct Profiler {
    inner: Mutex<ProfInner>,
}

impl Profiler {
    /// A profiler for a pool of `workers` workers.
    pub fn new(workers: usize) -> Self {
        Self {
            inner: Mutex::new(ProfInner {
                workers: vec![WorkerLanes::default(); workers],
                slices: Vec::new(),
                wall_cycles: 0,
                reported: vec![0; workers],
                finished: false,
            }),
        }
    }

    /// Record one morsel's per-stage attribution: `parts` are
    /// `(plan stage, cycles)` in evaluation order, laid out back-to-back
    /// from `start_cycles` on the worker's simulated timeline.
    pub fn record_morsel(
        &self,
        worker: usize,
        socket: usize,
        start_cycles: u64,
        parts: &[(usize, u64)],
    ) {
        let mut inner = self.inner.lock().expect("profiler lock");
        let mut pos = start_cycles;
        for &(stage, cycles) in parts {
            let seq = {
                let lanes = match inner.workers.get_mut(worker) {
                    Some(l) => l,
                    None => return,
                };
                *lanes.stages.entry(stage).or_insert(0) += cycles;
                lanes.socket = socket;
                lanes.seq += 1;
                lanes.seq
            };
            inner.slices.push(ProfSlice {
                worker,
                socket,
                lane: ProfLane::Stage(stage),
                start_cycles: pos,
                cycles,
                seq,
            });
            pos += cycles;
        }
    }

    /// Record optimizer cycles charged to `worker` at `start_cycles`.
    pub fn record_optimizer(&self, worker: usize, socket: usize, start_cycles: u64, cycles: u64) {
        if cycles == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("profiler lock");
        let seq = {
            let lanes = match inner.workers.get_mut(worker) {
                Some(l) => l,
                None => return,
            };
            lanes.optimizer += cycles;
            lanes.socket = socket;
            lanes.seq += 1;
            lanes.seq
        };
        inner.slices.push(ProfSlice {
            worker,
            socket,
            lane: ProfLane::Optimizer,
            start_cycles,
            cycles,
            seq,
        });
    }

    /// Close the profile against the pool's per-worker reported cycles
    /// (execution + optimizer): the wall clock is their max, and each
    /// worker's idle lane is filled up to it. Idempotent per run.
    pub fn finish(&self, per_worker_cycles: &[u64]) {
        let mut inner = self.inner.lock().expect("profiler lock");
        if inner.finished {
            return;
        }
        inner.finished = true;
        inner.wall_cycles = per_worker_cycles.iter().copied().max().unwrap_or(0);
        inner.reported = per_worker_cycles.to_vec();
        let wall = inner.wall_cycles;
        let idle_slices: Vec<ProfSlice> = per_worker_cycles
            .iter()
            .enumerate()
            .filter_map(|(w, &busy)| {
                let idle = wall.saturating_sub(busy);
                let lanes = inner.workers.get_mut(w)?;
                lanes.idle = idle;
                if idle == 0 {
                    return None;
                }
                lanes.seq += 1;
                Some(ProfSlice {
                    worker: w,
                    socket: lanes.socket,
                    lane: ProfLane::Idle,
                    start_cycles: busy,
                    cycles: idle,
                    seq: lanes.seq,
                })
            })
            .collect();
        inner.slices.extend(idle_slices);
    }

    /// Whether [`Profiler::finish`] ran.
    pub fn finished(&self) -> bool {
        self.inner.lock().expect("profiler lock").finished
    }

    /// The pool wall clock recorded at finish.
    pub fn wall_cycles(&self) -> u64 {
        self.inner.lock().expect("profiler lock").wall_cycles
    }

    /// Per-worker `(stage total, optimizer, idle)` cycles.
    pub fn worker_lanes(&self, worker: usize) -> (u64, u64, u64) {
        let inner = self.inner.lock().expect("profiler lock");
        inner.workers.get(worker).map_or((0, 0, 0), |l| {
            (l.stages.values().sum(), l.optimizer, l.idle)
        })
    }

    /// Pool-wide attributed cycles per stage (plan-indexed).
    pub fn stage_totals(&self) -> BTreeMap<usize, u64> {
        let inner = self.inner.lock().expect("profiler lock");
        let mut totals = BTreeMap::new();
        for lanes in &inner.workers {
            for (&stage, &cycles) in &lanes.stages {
                *totals.entry(stage).or_insert(0) += cycles;
            }
        }
        totals
    }

    /// Everything attributed across all workers and lanes. After
    /// [`Profiler::finish`], conservation makes this exactly
    /// `wall_cycles × workers`.
    pub fn total_attributed(&self) -> u64 {
        let inner = self.inner.lock().expect("profiler lock");
        inner
            .workers
            .iter()
            .map(|l| l.stages.values().sum::<u64>() + l.optimizer + l.idle)
            .sum()
    }

    /// Bit-exact conservation: per worker, stage + optimizer lanes equal
    /// the reported cycles and adding idle reaches the wall clock.
    pub fn conserves(&self) -> bool {
        let inner = self.inner.lock().expect("profiler lock");
        if !inner.finished {
            return false;
        }
        inner
            .workers
            .iter()
            .zip(&inner.reported)
            .all(|(l, &reported)| {
                let busy = l.stages.values().sum::<u64>() + l.optimizer;
                busy == reported && busy + l.idle == inner.wall_cycles
            })
    }

    /// All recorded slices, deterministically ordered by
    /// `(worker, seq)` — each worker's own timeline order is
    /// simulation-determined even when the cross-worker collection
    /// order was host-elastic.
    pub fn slices(&self) -> Vec<ProfSlice> {
        let inner = self.inner.lock().expect("profiler lock");
        let mut slices = inner.slices.clone();
        slices.sort_by_key(|s| (s.worker, s.seq));
        slices
    }

    /// Chrome-trace document of the attributed slices: per-worker
    /// timelines (`tid` = worker, `pid` = socket) of `"X"` duration
    /// events named after their lane, in simulated cycles.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .slices()
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}}}",
                    s.lane.label(),
                    s.start_cycles,
                    s.cycles,
                    s.socket,
                    s.worker
                )
            })
            .collect();
        let doc = format!("{{\"traceEvents\":[{}]}}", events.join(","));
        debug_assert!(validate_json(&doc).is_ok());
        doc
    }

    /// Text flame summary: pool-wide cycles per lane with their share of
    /// the attributed total, widest lane first (ties broken by lane
    /// order for determinism).
    pub fn flame(&self) -> String {
        let mut lanes: Vec<(ProfLane, u64)> = self
            .stage_totals()
            .into_iter()
            .map(|(j, c)| (ProfLane::Stage(j), c))
            .collect();
        let (mut opt, mut idle) = (0u64, 0u64);
        {
            let inner = self.inner.lock().expect("profiler lock");
            for l in &inner.workers {
                opt += l.optimizer;
                idle += l.idle;
            }
        }
        lanes.push((ProfLane::Optimizer, opt));
        lanes.push((ProfLane::Idle, idle));
        let total: u64 = lanes.iter().map(|(_, c)| c).sum();
        lanes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out = String::new();
        for (lane, cycles) in lanes {
            let share = if total > 0 {
                cycles as f64 / total as f64
            } else {
                0.0
            };
            let bar = "#".repeat((share * 40.0).round() as usize);
            out.push_str(&format!(
                "{:<12} {:>14}  {:>5.1}%  {}\n",
                lane.label(),
                cycles,
                share * 100.0,
                bar
            ));
        }
        out
    }
}

/// Split `total` cycles across `weights.len()` parts proportionally to
/// the (non-negative, finite) weights, *exactly*: the parts always sum
/// to `total`. Weights are quantized to 32-bit fixed point; floor
/// remainders are handed out one cycle at a time from the first part —
/// fully deterministic, so two runs attribute identically. Degenerate
/// weights (all zero / non-finite) fall back to a uniform split.
pub fn apportion(total: u64, weights: &[f64]) -> Vec<u64> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let clean: Vec<f64> = weights
        .iter()
        .map(|&w| if w.is_finite() && w > 0.0 { w } else { 0.0 })
        .collect();
    let sum: f64 = clean.iter().sum();
    let quantized: Vec<u64> = if sum > 0.0 {
        clean
            .iter()
            .map(|&w| ((w / sum) * 4_294_967_296.0) as u64)
            .collect()
    } else {
        vec![1; n]
    };
    let qsum: u128 = quantized.iter().map(|&q| q as u128).sum::<u128>().max(1);
    let mut parts: Vec<u64> = quantized
        .iter()
        .map(|&q| ((total as u128 * q as u128) / qsum) as u64)
        .collect();
    let mut remainder = total - parts.iter().sum::<u64>();
    let mut i = 0usize;
    while remainder > 0 {
        parts[i % n] += 1;
        remainder -= 1;
        i += 1;
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apportion_conserves_exactly() {
        for total in [0u64, 1, 7, 1000, 12_345_678_901] {
            for weights in [
                vec![1.0],
                vec![1.0, 1.0, 1.0],
                vec![3.0, 1.0],
                vec![0.1, 0.9, 0.0001],
                vec![0.0, 0.0],
                vec![f64::NAN, 2.0, -1.0],
            ] {
                let parts = apportion(total, &weights);
                assert_eq!(parts.iter().sum::<u64>(), total, "{total} over {weights:?}");
                assert_eq!(parts.len(), weights.len());
            }
        }
        assert!(apportion(100, &[]).is_empty());
    }

    #[test]
    fn apportion_follows_weights() {
        let parts = apportion(1000, &[3.0, 1.0]);
        assert!(parts[0] >= 740 && parts[0] <= 760, "{parts:?}");
        // Degenerate weights fall back to uniform.
        let parts = apportion(100, &[0.0, 0.0]);
        assert_eq!(parts, vec![50, 50]);
    }

    #[test]
    fn lanes_accumulate_and_finish_fills_idle_to_the_wall() {
        let prof = Profiler::new(2);
        prof.record_morsel(0, 0, 0, &[(1, 60), (0, 40)]);
        prof.record_optimizer(0, 0, 100, 20);
        prof.record_morsel(1, 1, 0, &[(1, 30), (0, 20)]);
        assert!(!prof.finished());
        assert!(!prof.conserves(), "unfinished profiles never conserve");

        // Worker 0 reported 120 (100 exec + 20 optimizer), worker 1: 50.
        prof.finish(&[120, 50]);
        assert_eq!(prof.wall_cycles(), 120);
        assert_eq!(prof.worker_lanes(0), (100, 20, 0));
        assert_eq!(prof.worker_lanes(1), (50, 0, 70));
        assert_eq!(prof.stage_totals().get(&1), Some(&90));
        assert!(prof.conserves());
        assert_eq!(prof.total_attributed(), 120 * 2);
        // Idempotent.
        prof.finish(&[999, 999]);
        assert_eq!(prof.wall_cycles(), 120);
    }

    #[test]
    fn conservation_detects_unattributed_cycles() {
        let prof = Profiler::new(1);
        prof.record_morsel(0, 0, 0, &[(0, 90)]);
        prof.finish(&[100]); // 10 cycles were never attributed
        assert!(!prof.conserves());
    }

    #[test]
    fn chrome_export_validates_and_orders_slices() {
        let prof = Profiler::new(2);
        prof.record_morsel(1, 1, 0, &[(0, 5)]);
        prof.record_morsel(0, 0, 0, &[(2, 10), (0, 7)]);
        prof.record_optimizer(0, 0, 17, 3);
        prof.finish(&[20, 5]);
        let slices = prof.slices();
        assert_eq!(slices[0].worker, 0, "sorted by worker first");
        assert_eq!(slices[0].lane, ProfLane::Stage(2));
        assert_eq!(
            slices.last().unwrap().lane,
            ProfLane::Idle,
            "worker 1 idles to the wall"
        );
        let doc = prof.chrome_trace();
        validate_json(&doc).expect("profiler chrome export parses");
        assert!(doc.contains("\"name\":\"stage2\""));
        assert!(doc.contains("\"name\":\"optimizer\""));
        assert!(doc.contains("\"name\":\"idle\""));
    }

    #[test]
    fn flame_summary_ranks_lanes_by_cycles() {
        let prof = Profiler::new(1);
        prof.record_morsel(0, 0, 0, &[(0, 10), (1, 80)]);
        prof.record_optimizer(0, 0, 90, 10);
        prof.finish(&[100]);
        let flame = prof.flame();
        let s1 = flame.find("stage1").unwrap();
        let s0 = flame.find("stage0").unwrap();
        assert!(s1 < s0, "widest lane first:\n{flame}");
        assert!(flame.contains("80.0%"), "{flame}");
        assert_eq!(flame, prof.flame(), "render is deterministic");
    }

    #[test]
    fn out_of_range_workers_are_ignored() {
        let prof = Profiler::new(1);
        prof.record_morsel(5, 0, 0, &[(0, 10)]);
        prof.record_optimizer(5, 0, 0, 10);
        prof.finish(&[0]);
        assert_eq!(prof.total_attributed(), 0);
    }
}
