//! Unified runtime (cycle) estimates for multi-selection scans.
//!
//! Combines the branch model (misprediction penalties) and the cache model
//! (memory stalls, with the sequential/random latency blend) into a single
//! cost figure. Used for plan analysis and the Figure-1-style best/worst
//! comparisons; the *measured* counterpart is the `popt-cpu` simulator, so
//! tests only require this model to rank plans consistently with it.

use crate::branch_costs::estimate_peo_branches;
use crate::cache_model::{random_line_fraction, touched_lines, CacheGeometry};
use crate::estimate::{survivors_to_selectivities, PlanGeometry};

/// Instructions the generated loop retires per iteration: counter
/// increment + bounds test. The engine charges it and the analytic model
/// prices it.
pub const INSTR_LOOP: u64 = 2;

/// Instructions per predicate evaluation: load + compare + jump (+
/// address math).
pub const INSTR_PER_EVAL: u64 = 4;

/// Instructions per aggregate column read for a qualifying tuple.
pub const INSTR_PER_AGG_COLUMN: u64 = 3;

/// Cycle-accounting constants for the analytic model. Defaults mirror the
/// `popt-cpu` timing configuration and the engine's instruction charges
/// ([`INSTR_LOOP`], [`INSTR_PER_EVAL`], [`INSTR_PER_AGG_COLUMN`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleParams {
    /// Cycles per retired instruction.
    pub cpi: f64,
    /// Instructions per loop iteration (counter increment, bounds test).
    pub instr_loop: f64,
    /// Instructions per predicate evaluation (load, compare, jump).
    pub instr_per_eval: f64,
    /// Instructions per qualifying tuple (aggregate load + add).
    pub instr_agg: f64,
    /// Misprediction penalty in cycles.
    pub mp_penalty: f64,
    /// Memory stall for a line fetched on a random (non-adjacent) access.
    pub mem_random: f64,
    /// Memory stall for a line fetched sequentially (streamed).
    pub mem_sequential: f64,
    /// Extra stall when the line's home is a *remote* socket (the NUMA
    /// hop). Random misses pay it in full; sequential streams pay a
    /// quarter (the prefetcher hides most of the hop on linear scans).
    /// Mirrors `TimingConfig::memory_remote_extra_cycles`.
    pub mem_remote_extra: f64,
    /// Latency of a random access served by the LLC (a probe that misses
    /// L1/L2 but finds the relation resident in L3).
    pub llc_hit: f64,
}

impl Default for CycleParams {
    fn default() -> Self {
        Self {
            cpi: 0.5,
            instr_loop: INSTR_LOOP as f64,
            instr_per_eval: INSTR_PER_EVAL as f64,
            instr_agg: INSTR_PER_AGG_COLUMN as f64,
            mp_penalty: 15.0,
            mem_random: 180.0,
            mem_sequential: 24.0,
            mem_remote_extra: 90.0,
            llc_hit: 30.0,
        }
    }
}

/// Estimated cycles for scanning `geom.n_input` tuples under the survivor
/// hypothesis `survivors` (memory-resident table, i.e. every touched line
/// is fetched from memory).
pub fn scan_cycles(geom: &PlanGeometry, survivors: &[f64], params: &CycleParams) -> f64 {
    assert_eq!(survivors.len(), geom.predicates());
    let n = geom.n_input as f64;
    let sels = survivors_to_selectivities(geom.n_input, survivors);
    let branches = estimate_peo_branches(geom.n_input, &sels, &geom.chain, true);

    // Instruction stream: loop + one eval per tuple reaching each
    // predicate + aggregate work for qualifying tuples.
    let mut instr = n * params.instr_loop;
    let mut reaching = n;
    for &p in &sels {
        instr += reaching * params.instr_per_eval;
        reaching *= p;
    }
    instr += reaching * params.instr_agg;

    // Memory stalls: per column, touched lines blended between the random
    // and sequential latency by the predecessor-untouched probability.
    // Repeated reads of one column are cache-resident within a vector and
    // stall-free (mirroring the counter model's first-read accounting).
    let mut mem = 0.0;
    let mut density = 1.0;
    for (j, &width) in geom.value_bytes.iter().enumerate() {
        if geom.first_read(j) {
            let cg = CacheGeometry {
                line_bytes: geom.line_bytes,
                value_bytes: width,
            };
            mem += column_stall(&cg, geom.n_input, density, params);
        }
        density = (survivors[j] / n).clamp(0.0, 1.0);
    }
    for &width in &geom.agg_bytes {
        let cg = CacheGeometry {
            line_bytes: geom.line_bytes,
            value_bytes: width,
        };
        mem += column_stall(&cg, geom.n_input, density, params);
    }

    instr * params.cpi + branches.mp_total() * params.mp_penalty + mem
}

fn column_stall(cg: &CacheGeometry, n: u64, density: f64, params: &CycleParams) -> f64 {
    let lines = touched_lines(cg, n, density);
    let rf = random_line_fraction(cg, density);
    lines * (rf * params.mem_random + (1.0 - rf) * params.mem_sequential)
}

/// Estimated cycles per probe of a join-filter stage, blending the random
/// (Equation 1) and co-clustered regimes by the probe's measured
/// clustering. A relation resident above the LLC costs nothing here (its
/// stalls are upper-cache latencies absorbed by the instruction stream).
///
/// The LLC capacity this prices against is whatever the probe's
/// [`JoinGeometry`](crate::join_model::JoinGeometry) carries — under the
/// socket model that is the core's *effective* (contention-shrunken)
/// share, so a co-runner stealing capacity raises the predicted stall
/// and can flip the cost-per-tuple ranking that orders the pipeline.
///
/// Likewise the probe's `remote_fraction` prices the NUMA hop: the
/// fraction of the relation homed on another socket pays
/// [`CycleParams::mem_remote_extra`] on top of every miss that reaches
/// memory (quartered for co-clustered streams) — so the same dimension
/// can rank cheap on the socket that owns it and expensive on the other,
/// which is exactly the per-socket order divergence the progressive
/// loop discovers at runtime.
pub fn probe_stall_per_tuple(probe: &crate::estimate::ProbeGeometry, params: &CycleParams) -> f64 {
    let rel = &probe.relation;
    if rel.relation_bytes() <= probe.upper_cache_bytes {
        return 0.0;
    }
    // Random probe: misses the LLC with the thrashing probability of
    // Equation 1 (zero when the relation fits), paying full memory
    // latency — plus the remote surcharge for the off-socket share of
    // the relation; otherwise it is an LLC hit.
    let miss_p = if rel.relation_bytes() <= rel.cache_bytes() {
        0.0
    } else {
        (1.0 - rel.cache_bytes() / rel.relation_bytes()).max(0.0)
    };
    let remote = probe.remote_fraction.clamp(0.0, 1.0);
    let random = miss_p * (params.mem_random + remote * params.mem_remote_extra)
        + (1.0 - miss_p) * params.llc_hit;
    // Co-clustered probe: one streamed line fetch per B/w probes, the
    // remote share paying the quartered (prefetch-hidden) hop.
    let sequential = f64::from(rel.tuple_bytes) / f64::from(rel.line_bytes)
        * (params.mem_sequential + remote * params.mem_remote_extra / 4.0);
    probe.clustering * random + (1.0 - probe.clustering) * sequential
}

/// Estimated cost per *input tuple* of each stage, in evaluation order —
/// the ranking signal for operator reordering (Sections 5.5–5.6).
///
/// Each stage is priced as if it ran at the front of the pipeline
/// (density 1), making the figure an intrinsic per-tuple rate that is
/// comparable across stages: instruction work, expected misprediction
/// penalty at the stage's selectivity, the streamed read of the stage's
/// own column, and — for join filters — the dimension probe. The caller
/// combines these rates with selectivities via the classic `c/(1−s)` rank
/// (see `popt-core`'s `order_by_cost_per_tuple`); ordering by raw
/// selectivity would make an LLC-thrashing probe look as cheap as a
/// comparison.
pub fn stage_costs_per_input_tuple(
    geom: &PlanGeometry,
    stage_instructions: &[f64],
    selectivities: &[f64],
    params: &CycleParams,
) -> Vec<f64> {
    assert_eq!(stage_instructions.len(), geom.predicates());
    assert_eq!(selectivities.len(), geom.predicates());
    (0..geom.predicates())
        .map(|j| {
            let s = selectivities[j].clamp(0.0, 1.0);
            let mp = geom.chain.probabilities(s).mp_total();
            let column =
                f64::from(geom.value_bytes[j]) / f64::from(geom.line_bytes) * params.mem_sequential;
            let probe = geom
                .probe(j)
                .map_or(0.0, |p| probe_stall_per_tuple(p, params));
            stage_instructions[j] * params.cpi + mp * params.mp_penalty + column + probe
        })
        .collect()
}

/// Estimated cycles for the whole plan under the survivor hypothesis:
/// [`scan_cycles`] (instructions, mispredictions, streamed column reads)
/// *plus* the join-probe stalls the scan model deliberately omits — each
/// probe stage pays [`probe_stall_per_tuple`] for every tuple reaching
/// it. This is the model side of the drift observatory's
/// cycles-per-tuple residual: divide by `geom.n_input` and compare
/// against a measured window's cycles per tuple.
pub fn plan_cycles(geom: &PlanGeometry, survivors: &[f64], params: &CycleParams) -> f64 {
    let mut cycles = scan_cycles(geom, survivors, params);
    let mut reaching = geom.n_input as f64;
    for (j, &s) in survivors.iter().enumerate() {
        if let Some(probe) = geom.probe(j) {
            cycles += reaching * probe_stall_per_tuple(probe, params);
        }
        reaching = s.max(0.0);
    }
    cycles
}

/// Wall-clock cycles of a parallel region: the busiest worker bounds the
/// region's end (morsel-driven execution has no other barrier). Defined
/// for degenerate inputs: an empty worker list (or a pool that recorded
/// zero cycles — empty or all-stale morsel streams) is a zero-length
/// region, so the wall clock is 0 rather than an error.
pub fn fleet_wall_cycles(per_worker_cycles: &[u64]) -> u64 {
    per_worker_cycles.iter().copied().max().unwrap_or(0)
}

/// Wall-clock speedup of a parallel run over a reference (typically the
/// same workload on one worker): `reference / max(per-worker)`.
///
/// When the pool recorded zero cycles (empty or all-stale morsel
/// streams), the ratio is `0/0`-shaped; a zero-length region completes
/// neither faster nor slower than any reference, so the defined value is
/// `1.0` — parity — rather than a division by zero (or the misleading
/// `0.0`, which reads as "infinitely slower" to a scaling figure).
pub fn fleet_speedup(reference_cycles: u64, per_worker_cycles: &[u64]) -> f64 {
    let wall = fleet_wall_cycles(per_worker_cycles);
    if wall == 0 {
        1.0
    } else {
        reference_cycles as f64 / wall as f64
    }
}

/// Wall-clock cycles of an *interleaved* serving region: each worker's
/// busy cycles plus the idle gaps it spent waiting for admissible work
/// (open-loop arrivals leave the pool idle between bursts). The busiest
/// wall-clock position across workers bounds the region; with no idle
/// gaps this degenerates to [`fleet_wall_cycles`].
pub fn fleet_wall_cycles_interleaved(
    per_worker_busy_cycles: &[u64],
    per_worker_idle_cycles: &[u64],
) -> u64 {
    assert_eq!(
        per_worker_busy_cycles.len(),
        per_worker_idle_cycles.len(),
        "one idle entry per worker"
    );
    per_worker_busy_cycles
        .iter()
        .zip(per_worker_idle_cycles)
        .map(|(&busy, &idle)| busy + idle)
        .max()
        .unwrap_or(0)
}

/// Occupancy of an interleaved serving region: busy cycles as a fraction
/// of the total core-cycles the region's wall clock made available
/// (`wall × workers`). A zero-length region wastes no capacity, so its
/// occupancy is the defined value `1.0` rather than a division by zero.
pub fn fleet_occupancy(per_worker_busy_cycles: &[u64], per_worker_idle_cycles: &[u64]) -> f64 {
    let wall = fleet_wall_cycles_interleaved(per_worker_busy_cycles, per_worker_idle_cycles);
    if wall == 0 {
        return 1.0;
    }
    let busy: u64 = per_worker_busy_cycles.iter().sum();
    busy as f64 / (wall * per_worker_busy_cycles.len() as u64) as f64
}

/// Per-socket occupancy of a parallel region, measured against the
/// *region's* wall clock (the busiest core anywhere): a socket whose
/// members finish early idles until the busiest socket drains, so its
/// occupancy reflects cross-socket imbalance, not just its own. A
/// zero-length region is fully occupied by definition.
pub fn fleet_occupancy_per_socket(per_worker_cycles: &[u64], sockets: usize) -> Vec<f64> {
    assert!(sockets >= 1, "at least one socket");
    let wall = fleet_wall_cycles(per_worker_cycles);
    let n = per_worker_cycles.len();
    let mut busy = vec![0u64; sockets];
    let mut members = vec![0u64; sockets];
    for (w, &cycles) in per_worker_cycles.iter().enumerate() {
        let s = w * sockets / n;
        busy[s] += cycles;
        members[s] += 1;
    }
    busy.iter()
        .zip(&members)
        .map(|(&b, &m)| {
            if wall == 0 || m == 0 {
                1.0
            } else {
                b as f64 / (wall * m) as f64
            }
        })
        .collect()
}

/// Convenience: cycles for a PEO given per-predicate *selectivities* in
/// evaluation order.
pub fn scan_cycles_for_selectivities(
    geom: &PlanGeometry,
    selectivities: &[f64],
    params: &CycleParams,
) -> f64 {
    let mut survivors = Vec::with_capacity(selectivities.len());
    let mut cur = geom.n_input as f64;
    for &p in selectivities {
        cur *= p;
        survivors.push(cur);
    }
    scan_cycles(geom, &survivors, params)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(preds: usize) -> PlanGeometry {
        PlanGeometry::uniform_i32(1_000_000, preds)
    }

    #[test]
    fn ascending_selectivity_order_is_cheapest() {
        // The classic rule: evaluate the most selective predicate first.
        let g = geom(3);
        let p = CycleParams::default();
        let asc = scan_cycles_for_selectivities(&g, &[0.1, 0.5, 0.9], &p);
        let desc = scan_cycles_for_selectivities(&g, &[0.9, 0.5, 0.1], &p);
        let mid = scan_cycles_for_selectivities(&g, &[0.5, 0.1, 0.9], &p);
        assert!(asc < mid && mid < desc, "{asc} {mid} {desc}");
    }

    #[test]
    fn selective_plans_cost_less() {
        let g = geom(2);
        let p = CycleParams::default();
        let tight = scan_cycles_for_selectivities(&g, &[0.01, 0.01], &p);
        let loose = scan_cycles_for_selectivities(&g, &[0.99, 0.99], &p);
        assert!(tight < loose);
    }

    #[test]
    fn misprediction_heavy_selectivity_costs_extra() {
        // Same column work (one full scan), different branch behaviour.
        let g = PlanGeometry::uniform_i32(1_000_000, 1);
        let p = CycleParams::default();
        let easy = scan_cycles_for_selectivities(&g, &[0.999], &p);
        let hard = scan_cycles_for_selectivities(&g, &[0.5], &p);
        assert!(hard > easy, "hard {hard} easy {easy}");
    }

    #[test]
    fn stage_costs_separate_probe_from_select() {
        use crate::estimate::ProbeGeometry;
        use crate::join_model::JoinGeometry;
        let mut g = PlanGeometry::uniform_i32(1 << 20, 2);
        let thrashing = ProbeGeometry {
            relation: JoinGeometry {
                relation_tuples: 500_000,
                tuple_bytes: 4,
                line_bytes: 64,
                cache_lines: 1024 * 1024 / 64,
            },
            upper_cache_bytes: 64.0 * 1024.0,
            clustering: 1.0,
            remote_fraction: 0.0,
        };
        g.probes = vec![None, Some(thrashing.clone())];
        let p = CycleParams::default();
        let costs = stage_costs_per_input_tuple(&g, &[4.0, 10.0], &[0.5, 0.5], &p);
        // An LLC-thrashing random probe dwarfs a comparison.
        assert!(costs[1] > 5.0 * costs[0], "{costs:?}");
        // The same probe co-clustered is within an order of magnitude of
        // the select.
        let coclustered = ProbeGeometry {
            clustering: 0.0,
            ..thrashing
        };
        g.probes = vec![None, Some(coclustered)];
        let costs = stage_costs_per_input_tuple(&g, &[4.0, 10.0], &[0.5, 0.5], &p);
        assert!(costs[1] < 3.0 * costs[0], "{costs:?}");
        // An expensive selection (UDF-style instruction count) overtakes a
        // co-clustered probe.
        let costs = stage_costs_per_input_tuple(&g, &[100.0, 10.0], &[0.5, 0.5], &p);
        assert!(costs[0] > costs[1], "{costs:?}");
    }

    #[test]
    fn probe_stall_grows_as_the_llc_share_shrinks() {
        use crate::estimate::ProbeGeometry;
        use crate::join_model::JoinGeometry;
        // A 128 KiB dimension against shares swept 128 KiB -> 16 KiB:
        // each halving of the share raises the Equation-1 miss blend, so
        // the predicted probe stall must grow monotonically.
        let relation = JoinGeometry {
            relation_tuples: 32 * 1024,
            tuple_bytes: 4,
            line_bytes: 64,
            cache_lines: 0, // rebound per share below
        };
        let p = CycleParams::default();
        let stall_at = |share_bytes: u64| {
            probe_stall_per_tuple(
                &ProbeGeometry {
                    relation: relation.with_cache_bytes(share_bytes),
                    upper_cache_bytes: 8.0 * 1024.0,
                    clustering: 1.0,
                    remote_fraction: 0.0,
                },
                &p,
            )
        };
        let full = stall_at(128 * 1024);
        let half = stall_at(64 * 1024);
        let quarter = stall_at(32 * 1024);
        let eighth = stall_at(16 * 1024);
        assert!(
            full < half && half < quarter && quarter < eighth,
            "{full} {half} {quarter} {eighth}"
        );
        // Fully resident at the full share: LLC-hit latency only.
        assert!((full - p.llc_hit).abs() < 1e-9, "{full}");
        // A co-clustered probe is immune to the capacity loss (streamed
        // lines are fetched once either way).
        let seq = |share: u64| {
            probe_stall_per_tuple(
                &ProbeGeometry {
                    relation: relation.with_cache_bytes(share),
                    upper_cache_bytes: 8.0 * 1024.0,
                    clustering: 0.0,
                    remote_fraction: 0.0,
                },
                &p,
            )
        };
        assert!((seq(128 * 1024) - seq(16 * 1024)).abs() < 1e-9);
    }

    #[test]
    fn fleet_zero_cycle_pools_have_defined_values() {
        // Empty/all-stale morsel streams record zero cycles; the fleet
        // figures must stay defined (parity, not 0/0).
        assert_eq!(fleet_wall_cycles(&[]), 0);
        assert_eq!(fleet_wall_cycles(&[0, 0]), 0);
        assert_eq!(fleet_speedup(0, &[]), 1.0);
        assert_eq!(fleet_speedup(0, &[0, 0]), 1.0);
        assert_eq!(fleet_speedup(1_000, &[0]), 1.0);
        // Non-degenerate inputs are the plain ratio.
        assert_eq!(fleet_speedup(1_000, &[250, 500]), 2.0);
    }

    #[test]
    fn interleaved_wall_includes_idle_gaps() {
        // Worker 0: 100 busy. Worker 1: 60 busy after idling 80.
        assert_eq!(fleet_wall_cycles_interleaved(&[100, 60], &[0, 80]), 140);
        // No idle: degenerates to the busiest worker.
        assert_eq!(fleet_wall_cycles_interleaved(&[100, 60], &[0, 0]), 100);
        assert_eq!(fleet_wall_cycles_interleaved(&[], &[]), 0);
    }

    #[test]
    fn occupancy_is_busy_share_of_the_horizon() {
        // Two workers, wall 100: 100 + 50 busy of 200 available.
        let occ = fleet_occupancy(&[100, 50], &[0, 0]);
        assert!((occ - 0.75).abs() < 1e-12, "{occ}");
        // Idle stretches the wall and dilutes occupancy.
        let occ = fleet_occupancy(&[100, 50], &[100, 0]);
        assert!((occ - 150.0 / 400.0).abs() < 1e-12, "{occ}");
        // Zero-length region: defined as fully occupied.
        assert_eq!(fleet_occupancy(&[], &[]), 1.0);
        assert_eq!(fleet_occupancy(&[0], &[0]), 1.0);
    }

    #[test]
    fn remote_fraction_raises_probe_stall_and_can_flip_ranking() {
        use crate::estimate::ProbeGeometry;
        use crate::join_model::JoinGeometry;
        let p = CycleParams::default();
        // A dimension bigger than the share, probed randomly.
        let probe = |remote: f64| ProbeGeometry {
            relation: JoinGeometry {
                relation_tuples: 64 * 1024,
                tuple_bytes: 4,
                line_bytes: 64,
                cache_lines: (128 * 1024) / 64, // 128 KiB share vs 256 KiB dim
            },
            upper_cache_bytes: 8.0 * 1024.0,
            clustering: 1.0,
            remote_fraction: remote,
        };
        let local = probe_stall_per_tuple(&probe(0.0), &p);
        let remote = probe_stall_per_tuple(&probe(1.0), &p);
        let half = probe_stall_per_tuple(&probe(0.5), &p);
        assert!(local < half && half < remote, "{local} {half} {remote}");
        // The surcharge lands only on the miss share: miss_p * extra.
        let miss_p = 0.5;
        assert!((remote - local - miss_p * p.mem_remote_extra).abs() < 1e-9);
        // Two equally-shaped dims, one local and one remote: the remote
        // one must rank strictly more expensive — the seed of per-socket
        // order divergence.
        assert!(probe_stall_per_tuple(&probe(1.0), &p) > probe_stall_per_tuple(&probe(0.0), &p));
    }

    #[test]
    fn per_socket_occupancy_splits_contiguous_blocks() {
        // 4 workers on 2 sockets: {0,1} and {2,3}.
        let cycles = [100u64, 80, 40, 60];
        let occ = fleet_occupancy_per_socket(&cycles, 2);
        assert!((occ[0] - 180.0 / 200.0).abs() < 1e-12, "{occ:?}");
        assert!((occ[1] - 100.0 / 200.0).abs() < 1e-12, "{occ:?}");
        // Zero-length region: defined values.
        assert_eq!(fleet_occupancy_per_socket(&[0, 0], 2), vec![1.0, 1.0]);
    }

    #[test]
    fn plan_cycles_adds_probe_stalls_on_reaching_tuples() {
        use crate::estimate::ProbeGeometry;
        use crate::join_model::JoinGeometry;
        let p = CycleParams::default();
        let mut g = PlanGeometry::uniform_i32(1 << 20, 2);
        let survivors = [(1u64 << 19) as f64, (1u64 << 18) as f64];
        // No probes: identical to the scan model.
        assert_eq!(
            plan_cycles(&g, &survivors, &p),
            scan_cycles(&g, &survivors, &p)
        );
        // A thrashing probe at stage 1 charges its stall once per tuple
        // *reaching* stage 1 — the survivors of stage 0.
        let probe = ProbeGeometry {
            relation: JoinGeometry {
                relation_tuples: 500_000,
                tuple_bytes: 4,
                line_bytes: 64,
                cache_lines: 1024 * 1024 / 64,
            },
            upper_cache_bytes: 64.0 * 1024.0,
            clustering: 1.0,
            remote_fraction: 0.0,
        };
        let stall = probe_stall_per_tuple(&probe, &p);
        g.probes = vec![None, Some(probe)];
        let with_probe = plan_cycles(&g, &survivors, &p);
        let expected = scan_cycles(&g, &survivors, &p) + survivors[0] * stall;
        assert!(
            (with_probe - expected).abs() < 1e-6,
            "{with_probe} {expected}"
        );
        assert!(with_probe > scan_cycles(&g, &survivors, &p));
    }

    #[test]
    fn selectivities_convert_to_survivors() {
        let g = geom(1);
        let p = CycleParams::default();
        let cycles = scan_cycles_for_selectivities(&g, &[0.5], &p);
        assert!((scan_cycles(&g, &[500_000.0], &p) - cycles).abs() < 1e-9);
    }

    #[test]
    fn worst_best_ratio_in_figure_one_range() {
        // Q6-like: shipdate sweep predicate + three fixed ones. At very low
        // shipdate selectivity the worst/best ratio should sit in the 2–5x
        // band of Figure 1.
        let g = geom(4);
        let p = CycleParams::default();
        let best = scan_cycles_for_selectivities(&g, &[0.001, 0.27, 0.46, 0.73], &p);
        let worst = scan_cycles_for_selectivities(&g, &[0.73, 0.46, 0.27, 0.001], &p);
        let ratio = worst / best;
        assert!(ratio > 1.5 && ratio < 6.0, "ratio = {ratio}");
    }
}
