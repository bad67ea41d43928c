//! The selectivity estimator: multi-start Nelder–Mead over the
//! Equation-10 objective.
//!
//! Given the counters sampled for one execution interval (branches not
//! taken, mispredictions split by direction, L3 accesses — gathered
//! simultaneously on real PMUs, Section 4.2), find the survivor vector
//! whose model-predicted counters match best. The outer loop follows
//! Section 4.4: draw start points, run the local optimizer, and stop when
//! either no better optimum appeared in the last `n` rounds or `m = 2·p`
//! rounds have run.
//!
//! Two exact identities shrink the problem before any optimization
//! happens: the output cardinality is known from `2·n − bT`
//! (Section 2.2), pinning the last survivor count, and the sampled BNT
//! equals the survivor sum, bounding every other coordinate (Section 4.1).
//!
//! ## Objective
//!
//! The paper prints Equation 10 as a sum of signed differences; minimized
//! literally that diverges, so — as any faithful implementation must — we
//! take the magnitude. Each counter residual is normalized by its sampled
//! value (so tuples-scaled and lines-scaled counters weigh comparably),
//! and the four counters weigh equally.

use popt_cost::estimate::{
    survivors_to_selectivities, CounterEstimate, CounterModel, PlanGeometry,
};

use crate::bounds::{bnt_bounds, SearchBounds};
use crate::nelder_mead::{minimize, NelderMeadOptions};
use crate::start_points::StartPointGenerator;

/// The counters sampled for one interval, as consumed by the estimator.
///
/// The window is whatever scope the caller accumulated over; the solver
/// never mixes scopes itself. On a multi-socket pool each socket fits its
/// *own* windows — only counters accumulated by that socket's workers,
/// priced against that socket's geometry (LLC partition and remote
/// fraction) — so one socket's contention or remote traffic never leaks
/// into another's selectivity fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledCounters {
    /// Tuples processed in the interval.
    pub n_input: u64,
    /// Qualifying tuples (derived by the engine from `2·n − bT`).
    pub n_output: u64,
    /// Branches not taken across the predicate sites.
    pub bnt: u64,
    /// Mispredicted taken branches.
    pub mp_taken: u64,
    /// Mispredicted not-taken branches.
    pub mp_not_taken: u64,
    /// L3 accesses (demand + prefetch).
    pub l3_accesses: u64,
}

impl SampledCounters {
    /// Fold another interval's sample into this one.
    ///
    /// Parallel workers sample their own per-core PMU banks over disjoint
    /// morsels of the same scan; because every counter is an additive
    /// event count, the fused sample is exactly what a single core would
    /// have measured executing all those morsels under the same order —
    /// so one estimator run can serve the whole pool.
    pub fn merge(&mut self, other: &SampledCounters) {
        self.n_input += other.n_input;
        self.n_output += other.n_output;
        self.bnt += other.bnt;
        self.mp_taken += other.mp_taken;
        self.mp_not_taken += other.mp_not_taken;
        self.l3_accesses += other.l3_accesses;
    }

    /// Fuse per-worker samples into the pool-wide sample. Returns `None`
    /// for an empty slice (no worker contributed to the window).
    pub fn merged(samples: &[SampledCounters]) -> Option<SampledCounters> {
        let mut iter = samples.iter();
        let mut total = *iter.next()?;
        for s in iter {
            total.merge(s);
        }
        Some(total)
    }
}

/// Consecutive starts without improvement after which a fit stops (the
/// paper's "fewer than 5 fruitless starts"; at most `m = 2·p` starts run
/// either way).
pub const NO_IMPROVEMENT_LIMIT: usize = 4;

/// Estimator configuration (the default is the paper's reported best
/// trade-off: tolerance 1, 10 k iterations; the start budget is fixed by
/// [`NO_IMPROVEMENT_LIMIT`] and `m = 2·p`).
#[derive(Debug, Clone, PartialEq)]
pub struct EstimatorConfig {
    /// Local optimizer options.
    pub nelder_mead: NelderMeadOptions,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        Self {
            // The paper's "absolute tolerance of one" applies to an
            // objective in raw counter units; ours is normalized per
            // counter, so the equivalent tolerance scales down by the
            // counter magnitude. Real (simulated-hardware) counters carry
            // model error of ~1e-2, so a tighter tolerance only burns
            // evaluations wandering inside the noise floor; the evaluation
            // cap bounds the optimization time the progressive loop
            // charges to the query (Section 5.7).
            nelder_mead: NelderMeadOptions {
                ftol_abs: 3e-4,
                max_evaluations: 4_000,
                initial_step_fraction: 0.25,
            },
        }
    }
}

/// Result of one estimation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateResult {
    /// Estimated survivor counts `a_1 … a_p` (last pinned to the output).
    pub survivors: Vec<f64>,
    /// Estimated per-predicate selectivities, in evaluation order.
    pub selectivities: Vec<f64>,
    /// Final objective value (0 = counters matched exactly).
    pub objective: f64,
    /// Optimization starts consumed.
    pub starts_used: usize,
    /// Total objective evaluations across all starts.
    pub evaluations: usize,
    /// Search bounds that constrained the run (for diagnostics).
    pub bounds: SearchBounds,
}

/// The Equation-10 objective for a full survivor vector whose predicted
/// counters are `est`.
pub(crate) fn objective(est: CounterEstimate, sampled: &SampledCounters, survivors: &[f64]) -> f64 {
    let rel = |s: u64, e: f64| -> f64 { (s as f64 - e).abs() / (s as f64).max(1.0) };
    let mut cost = rel(sampled.bnt, est.bnt)
        + rel(sampled.mp_taken, est.mp_taken)
        + rel(sampled.mp_not_taken, est.mp_not_taken)
        + rel(sampled.l3_accesses, est.l3_accesses);
    // Monotonicity penalty: survivors must be non-increasing.
    let mut prev = sampled.n_input as f64;
    for &a in survivors {
        if a > prev {
            cost += 10.0 * (a - prev) / sampled.n_input.max(1) as f64;
        }
        prev = a;
    }
    cost
}

/// Estimate per-predicate selectivities for the currently executing PEO.
///
/// `geom.value_bytes.len()` defines the predicate count; the sampled
/// counters must come from the same interval.
pub fn estimate_selectivities(
    geom: &PlanGeometry,
    sampled: &SampledCounters,
    config: &EstimatorConfig,
) -> EstimateResult {
    // Every hypothesis the search evaluates pins the last survivor count
    // to the sampled output, so the model is prepared for it once.
    let model = CounterModel::new(geom, sampled.n_output as f64);
    fit(geom, sampled, config, |survivors| model.estimate(survivors))
}

/// [`estimate_selectivities`] over an explicit counter `model` — always
/// the prepared [`CounterModel`], except in the test that pins it bit for
/// bit against the model computed anew on every call.
fn fit(
    geom: &PlanGeometry,
    sampled: &SampledCounters,
    config: &EstimatorConfig,
    model: impl Fn(&[f64]) -> CounterEstimate,
) -> EstimateResult {
    let p = geom.predicates();
    assert!(p >= 1, "need at least one predicate");
    assert_eq!(geom.n_input, sampled.n_input, "geometry/sample mismatch");

    let full_bounds = bnt_bounds(p, sampled.n_input, sampled.n_output, sampled.bnt);
    let out = sampled.n_output as f64;

    // One predicate: fully determined by the qualifying-tuple identity.
    if p == 1 {
        let survivors = vec![out];
        let selectivities = survivors_to_selectivities(sampled.n_input, &survivors);
        let objective = objective(model(&survivors), sampled, &survivors);
        return EstimateResult {
            survivors,
            selectivities,
            objective,
            starts_used: 0,
            evaluations: 0,
            bounds: full_bounds,
        };
    }

    // Search over a_1..a_{p-1}; the last coordinate is pinned.
    let free_bounds = full_bounds.without_last();
    let dims = free_bounds.dims();
    let null = StartPointGenerator::null_hypothesis(dims, p, sampled.n_input, sampled.n_output);
    let generator = StartPointGenerator::new(free_bounds.clone(), null);

    let mut best_x: Option<Vec<f64>> = None;
    let mut best_value = f64::INFINITY;
    let mut starts_used = 0usize;
    let mut evaluations = 0usize;
    let mut since_improvement = 0usize;

    let mut full = vec![0.0; p];
    for start in generator.take(2 * p) {
        starts_used += 1;
        let result = minimize(
            |x| {
                full[..dims].copy_from_slice(x);
                full[dims] = out;
                objective(model(&full), sampled, &full)
            },
            &start,
            &free_bounds.lower,
            &free_bounds.upper,
            &config.nelder_mead,
        );
        evaluations += result.evaluations;
        if result.value + 1e-12 < best_value {
            best_value = result.value;
            best_x = Some(result.x);
            since_improvement = 0;
        } else {
            since_improvement += 1;
            if since_improvement >= NO_IMPROVEMENT_LIMIT {
                break;
            }
        }
    }

    let mut survivors = best_x.expect("at least one start ran");
    survivors.push(out);
    let selectivities = survivors_to_selectivities(sampled.n_input, &survivors);
    EstimateResult {
        survivors,
        selectivities,
        objective: best_value,
        starts_used,
        evaluations,
        bounds: full_bounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_cost::estimate::estimate_counters;

    /// Build a synthetic sample by running the *model itself* on known
    /// survivors — the estimator must then invert it (model-consistency).
    fn synthetic_sample(geom: &PlanGeometry, survivors: &[f64]) -> SampledCounters {
        let est = estimate_counters(geom, survivors);
        SampledCounters {
            n_input: geom.n_input,
            n_output: *survivors.last().unwrap() as u64,
            bnt: est.bnt.round() as u64,
            mp_taken: est.mp_taken.round() as u64,
            mp_not_taken: est.mp_not_taken.round() as u64,
            l3_accesses: est.l3_accesses.round() as u64,
        }
    }

    fn tight_config() -> EstimatorConfig {
        EstimatorConfig {
            nelder_mead: NelderMeadOptions {
                ftol_abs: 1e-6,
                max_evaluations: 4_000,
                initial_step_fraction: 0.25,
            },
        }
    }

    #[test]
    fn single_predicate_is_exact() {
        let geom = PlanGeometry::uniform_i32(100_000, 1);
        let sampled = synthetic_sample(&geom, &[25_000.0]);
        let r = estimate_selectivities(&geom, &sampled, &tight_config());
        assert_eq!(r.survivors, vec![25_000.0]);
        assert!((r.selectivities[0] - 0.25).abs() < 1e-9);
        assert_eq!(r.starts_used, 0);
    }

    #[test]
    fn two_predicates_recover_planted_selectivities() {
        let geom = PlanGeometry::uniform_i32(1_000_000, 2);
        // p1 = 0.4, p2 = 0.2.
        let sampled = synthetic_sample(&geom, &[400_000.0, 80_000.0]);
        let r = estimate_selectivities(&geom, &sampled, &tight_config());
        assert!(
            (r.selectivities[0] - 0.4).abs() < 0.05,
            "sels = {:?}",
            r.selectivities
        );
        assert!(
            (r.selectivities[1] - 0.2).abs() < 0.05,
            "{:?}",
            r.selectivities
        );
    }

    #[test]
    fn order_asymmetry_is_detected() {
        // [0.2, 0.4] vs [0.4, 0.2]: same output, different counters —
        // the estimator must not confuse the two (Section 4.2's premise).
        let geom = PlanGeometry::uniform_i32(1_000_000, 2);
        let sampled = synthetic_sample(&geom, &[200_000.0, 80_000.0]);
        let r = estimate_selectivities(&geom, &sampled, &tight_config());
        assert!(r.selectivities[0] < 0.3, "sels = {:?}", r.selectivities);
        assert!(r.selectivities[1] > 0.3, "sels = {:?}", r.selectivities);
    }

    #[test]
    fn three_predicates_recover_within_tolerance() {
        let geom = PlanGeometry::uniform_i32(1_000_000, 3);
        // p = [0.7, 0.3, 0.5] -> survivors [700k, 210k, 105k].
        let sampled = synthetic_sample(&geom, &[700_000.0, 210_000.0, 105_000.0]);
        let r = estimate_selectivities(&geom, &sampled, &tight_config());
        for (got, want) in r.selectivities.iter().zip([0.7, 0.3, 0.5]) {
            assert!((got - want).abs() < 0.12, "sels = {:?}", r.selectivities);
        }
    }

    #[test]
    fn estimates_respect_bounds() {
        let geom = PlanGeometry::uniform_i32(100_000, 3);
        let sampled = synthetic_sample(&geom, &[50_000.0, 20_000.0, 10_000.0]);
        let r = estimate_selectivities(&geom, &sampled, &tight_config());
        assert!(r.bounds.contains(&r.survivors), "{:?}", r);
    }

    #[test]
    fn budget_limits_starts() {
        // At most `m = 2·p` starts, whatever the search finds.
        let geom = PlanGeometry::uniform_i32(100_000, 4);
        let sampled = synthetic_sample(&geom, &[80_000.0, 40_000.0, 20_000.0, 10_000.0]);
        let r = estimate_selectivities(&geom, &sampled, &tight_config());
        assert!(r.starts_used <= 2 * 4, "used {}", r.starts_used);
        // Two predicates: a budget of two starts.
        let geom = PlanGeometry::uniform_i32(100_000, 2);
        let sampled = synthetic_sample(&geom, &[50_000.0, 25_000.0]);
        let r = estimate_selectivities(&geom, &sampled, &tight_config());
        assert!(r.starts_used <= 2 * 2, "used {}", r.starts_used);
    }

    #[test]
    fn no_improvement_stops_early() {
        // A model-consistent sample is matched by the first start; the
        // next `NO_IMPROVEMENT_LIMIT` find nothing better and the fit
        // stops well inside its `2·p` budget.
        let geom = PlanGeometry::uniform_i32(100_000, 6);
        let survivors = [80_000.0, 40_000.0, 20_000.0, 10_000.0, 5_000.0, 2_500.0];
        let sampled = synthetic_sample(&geom, &survivors);
        let r = estimate_selectivities(&geom, &sampled, &tight_config());
        assert!(
            r.starts_used > NO_IMPROVEMENT_LIMIT,
            "used {}",
            r.starts_used
        );
        assert!(r.starts_used < 2 * 6, "used {}", r.starts_used);
    }

    #[test]
    fn join_probe_geometry_still_inverts() {
        // A pipeline-shaped plan: cheap select followed by a join filter
        // whose probe dominates the L3 counter. The estimator must invert
        // the probe-aware model just like the plain-scan one — the
        // geometry is an *input*, the search does not care what produced
        // the counters.
        use popt_cost::estimate::ProbeGeometry;
        use popt_cost::join_model::JoinGeometry;
        let mut geom = PlanGeometry::uniform_i32(1_000_000, 2);
        geom.probes = vec![
            None,
            Some(ProbeGeometry {
                relation: JoinGeometry {
                    relation_tuples: 250_000,
                    tuple_bytes: 4,
                    line_bytes: 64,
                    cache_lines: 512 * 1024 / 64,
                },
                upper_cache_bytes: 64.0 * 1024.0,
                clustering: 1.0,
                remote_fraction: 0.0,
            }),
        ];
        // p1 = 0.3, p2 = 0.5.
        let sampled = synthetic_sample(&geom, &[300_000.0, 150_000.0]);
        let r = estimate_selectivities(&geom, &sampled, &tight_config());
        assert!(
            (r.selectivities[0] - 0.3).abs() < 0.05,
            "sels = {:?}",
            r.selectivities
        );
        assert!(
            (r.selectivities[1] - 0.5).abs() < 0.05,
            "sels = {:?}",
            r.selectivities
        );
    }

    /// The counter model computed anew on every call, as it was
    /// before it was prepared per fit: branch counters over fully
    /// normalised stationary distributions, every L3 term — the head
    /// column, first reads, probes, aggregates — recomputed from the
    /// geometry.
    fn reference_model(geom: &PlanGeometry, survivors: &[f64]) -> CounterEstimate {
        use popt_cost::cache_model::CacheGeometry;
        let sels = survivors_to_selectivities(geom.n_input, survivors);
        let k = geom.chain.not_taken_states as usize;
        let n = geom.n_input as f64;
        let mut input = n;
        let (mut bnt, mut bt, mut mp_taken, mut mp_not_taken) = (0.0, 0.0, 0.0, 0.0);
        for &p in &sels {
            let predict_not_taken: f64 = geom.chain.stationary(p)[..k].iter().sum();
            let predict_taken = 1.0 - predict_not_taken;
            bnt += input * p;
            bt += input * (1.0 - p);
            mp_taken += input * ((1.0 - p) * predict_not_taken);
            mp_not_taken += input * (p * predict_taken);
            input *= p;
        }
        bt += n;
        let column_l3 = |width: u32, density: f64| {
            let cg = CacheGeometry {
                line_bytes: geom.line_bytes,
                value_bytes: width,
            };
            let lines = cg.lines(geom.n_input);
            lines * (1.0 - (1.0 - density).powf(2.0 * cg.values_per_line()))
        };
        let mut l3 = 0.0;
        let mut density = 1.0;
        let mut reaching = n;
        for (j, &width) in geom.value_bytes.iter().enumerate() {
            if geom.first_read(j) {
                l3 += column_l3(width, density);
            }
            if let Some(probe) = geom.probe(j) {
                l3 += probe.l3_accesses(reaching);
            }
            density = if n > 0.0 {
                (survivors[j] / n).clamp(0.0, 1.0)
            } else {
                0.0
            };
            reaching = survivors[j].clamp(0.0, reaching);
        }
        for &width in &geom.agg_bytes {
            l3 += column_l3(width, density);
        }
        CounterEstimate {
            bnt,
            bt,
            mp_taken,
            mp_not_taken,
            l3_accesses: l3,
        }
    }

    #[test]
    fn fits_are_bit_identical_to_the_allocating_model() {
        // The shapes the benchmark fits — the 4-stage star (selection +
        // three dimension probes, as `join_star` samples it) and plain
        // multi-selections — plus, for every p = 2…6, a star whose
        // co-clustered probe leads and a Q6-style plan whose positions
        // re-read one column (a range's two bounds), over 0/1/2 aggregate
        // columns and four predictor chains. The samples are ones the
        // model cannot match exactly (counters off by a few percent), so
        // each search runs its full course instead of stopping at a zero
        // objective.
        use popt_cost::estimate::ProbeGeometry;
        use popt_cost::join_model::JoinGeometry;
        use popt_cost::markov::ChainSpec;
        let probe = |tuples, clustering| {
            let relation = JoinGeometry {
                relation_tuples: tuples,
                tuple_bytes: 4,
                line_bytes: 64,
                cache_lines: 1024 * 1024 / 64,
            };
            let mut probe = ProbeGeometry::random(relation, 64.0 * 1024.0);
            probe.clustering = clustering;
            Some(probe)
        };
        let mut star = PlanGeometry::uniform_i32(32_768, 4);
        star.probes = vec![
            None,
            probe(500_000, 1.0),
            probe(60_000, 1.0),
            probe(8_000, 1.0),
        ];
        let mut clustered = star.clone();
        if let Some(p) = clustered.probes[1].as_mut() {
            p.clustering = 0.35;
        }
        let mut cases: Vec<(PlanGeometry, Vec<f64>)> = vec![
            (star, vec![26_000.0, 14_000.0, 9_000.0, 2_500.0]),
            (clustered, vec![30_000.0, 6_000.0, 5_500.0, 300.0]),
            (
                PlanGeometry::uniform_i32(1_000_000, 2),
                vec![400_000.0, 80_000.0],
            ),
            (
                PlanGeometry::uniform_i32(1_000_000, 3),
                vec![700_000.0, 210_000.0, 105_000.0],
            ),
            (
                PlanGeometry::uniform_i32(65_536, 5),
                vec![60_000.0, 31_000.0, 30_000.0, 4_000.0, 3_999.0],
            ),
        ];
        let chains = [
            ChainSpec::SIX,
            ChainSpec::FOUR,
            ChainSpec::even(16),
            ChainSpec::plus_one_not_taken(7),
        ];
        let selectivities = [0.3, 0.9, 0.55, 0.8, 0.35, 0.95];
        for p in 2..=6 {
            let survivors = |n: u64| -> Vec<f64> {
                let fractions = selectivities[..p].iter();
                fractions
                    .scan(n as f64, |a, q| {
                        *a *= q;
                        Some(a.round())
                    })
                    .collect()
            };
            let mut star = PlanGeometry::uniform_i32(32_768, p);
            star.probes = (0..p)
                .map(|j| match j {
                    0 => probe(8_192, 0.1),
                    1 => None,
                    _ => probe(40_000 * j as u64, 1.0),
                })
                .collect();
            star.chain = chains[p % 4];
            star.agg_bytes = vec![4; p % 3];
            let n = star.n_input;
            cases.push((star, survivors(n)));

            let mut q6 = PlanGeometry::uniform_i32(65_536, p);
            q6.column_ids = (0..p).map(|j| j / 2).collect();
            q6.chain = chains[(p + 1) % 4];
            q6.agg_bytes = vec![4; (p + 1) % 3];
            let n = q6.n_input;
            cases.push((q6, survivors(n)));
        }
        let mut total_evaluations = 0;
        for (geom, survivors) in &cases {
            let mut sampled = synthetic_sample(geom, survivors);
            sampled.mp_taken = sampled.mp_taken * 103 / 100;
            sampled.l3_accesses = sampled.l3_accesses * 97 / 100;
            for config in [EstimatorConfig::default(), tight_config()] {
                let got = estimate_selectivities(geom, &sampled, &config);
                let want = fit(geom, &sampled, &config, |s| reference_model(geom, s));
                total_evaluations += got.evaluations;
                let case = format!("{:?} {:?}", geom.column_ids, geom.chain);
                assert_eq!(got.evaluations, want.evaluations, "{case}");
                assert_eq!(got.starts_used, want.starts_used, "{case}");
                assert_eq!(got.objective.to_bits(), want.objective.to_bits(), "{case}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.survivors), bits(&want.survivors), "{case}");
                assert_eq!(
                    bits(&got.selectivities),
                    bits(&want.selectivities),
                    "{case}"
                );
            }
        }
        assert!(
            total_evaluations > 20_000,
            "searches too short to pin anything: {total_evaluations} evaluations"
        );
    }

    #[test]
    fn merged_worker_samples_estimate_like_one_big_sample() {
        // Two workers each sample half the interval; the fused sample
        // must equal the single-core sample of the whole interval, and
        // the estimate over it must recover the same selectivities.
        let whole = PlanGeometry::uniform_i32(1_000_000, 2);
        let half = PlanGeometry::uniform_i32(500_000, 2);
        let per_worker = synthetic_sample(&half, &[200_000.0, 40_000.0]);
        let merged = SampledCounters::merged(&[per_worker, per_worker]).unwrap();
        assert_eq!(merged.n_input, 1_000_000);
        assert_eq!(merged.bnt, 2 * per_worker.bnt);
        assert_eq!(merged.l3_accesses, 2 * per_worker.l3_accesses);
        let r = estimate_selectivities(&whole, &merged, &tight_config());
        assert!(
            (r.selectivities[0] - 0.4).abs() < 0.05,
            "{:?}",
            r.selectivities
        );
        assert!(SampledCounters::merged(&[]).is_none());
    }

    #[test]
    fn fits_stay_bound_feasible() {
        // The result must respect the exact constraints.
        let geom = PlanGeometry::uniform_i32(1_000_000, 2);
        let sampled = synthetic_sample(&geom, &[400_000.0, 80_000.0]);
        let r = estimate_selectivities(&geom, &sampled, &tight_config());
        assert!(r.bounds.contains(&r.survivors));
        // Survivor sum must be close to the sampled BNT.
        let sum: f64 = r.survivors.iter().sum();
        assert!((sum - sampled.bnt as f64).abs() / sampled.bnt as f64 * 100.0 < 5.0);
    }
}
