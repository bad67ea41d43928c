//! A from-scratch, box-bounded Nelder–Mead downhill simplex [15].
//!
//! The paper evaluated NLopt's algorithm portfolio and chose Nelder–Mead
//! as the local optimizer "because it performs best for our selectivity
//! estimations" (Section 4.2). This implementation uses the standard
//! coefficients (reflection 1, expansion 2, contraction ½, shrink ½),
//! clamps every candidate into the feasible box, and terminates on the
//! paper's criteria: an absolute tolerance between successive optima or a
//! maximum evaluation count (the paper's best configuration: tolerance 1,
//! 10 000 iterations).

/// Termination and step-size options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadOptions {
    /// Stop when the simplex's best-worst spread falls below this.
    pub ftol_abs: f64,
    /// Hard cap on objective evaluations: a run never evaluates more
    /// often (see [`minimize`] for budgets too small for the initial
    /// simplex).
    pub max_evaluations: usize,
    /// Initial simplex edge length as a fraction of each coordinate's
    /// box width.
    pub initial_step_fraction: f64,
}

impl Default for NelderMeadOptions {
    fn default() -> Self {
        // The values Section 4.2 reports as the best trade-off.
        Self {
            ftol_abs: 1.0,
            max_evaluations: 10_000,
            initial_step_fraction: 0.25,
        }
    }
}

/// Outcome of one minimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizationResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of objective evaluations consumed.
    pub evaluations: usize,
    /// True if the convergence tolerance was met (false: ran out of budget).
    pub converged: bool,
}

/// Minimize `f` over the box `[lower, upper]`, starting at `start`.
///
/// `start` is clamped into the box; a zero-dimensional problem evaluates
/// it once and returns it. The evaluation budget is never exceeded: a step
/// that has no evaluation left keeps the reflected point where it beats
/// the worst vertex and ends the run, a budget below `dim + 1` returns
/// the best vertex of the partial initial simplex, and a zero budget
/// returns the clamped start unevaluated, valued `+∞`.
///
/// The vertices and the trial points are allocated once per run: an
/// accepted candidate trades buffers with the worst vertex.
pub fn minimize(
    mut f: impl FnMut(&[f64]) -> f64,
    start: &[f64],
    lower: &[f64],
    upper: &[f64],
    options: &NelderMeadOptions,
) -> OptimizationResult {
    let dim = start.len();
    assert_eq!(lower.len(), dim, "bounds dimensionality mismatch");
    assert_eq!(upper.len(), dim, "bounds dimensionality mismatch");
    for d in 0..dim {
        assert!(
            lower[d] <= upper[d],
            "empty box in dimension {d}: [{}, {}]",
            lower[d],
            upper[d]
        );
    }
    let clamp = |x: &mut [f64]| {
        for d in 0..dim {
            x[d] = x[d].clamp(lower[d], upper[d]);
        }
    };
    let budget = options.max_evaluations;
    let mut evaluations = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        f(x)
    };

    let mut x0 = start.to_vec();
    clamp(&mut x0);
    if budget == 0 {
        return OptimizationResult {
            x: x0,
            value: f64::INFINITY,
            evaluations,
            converged: false,
        };
    }
    if dim == 0 {
        let value = eval(&x0, &mut evaluations);
        return OptimizationResult {
            x: x0,
            value,
            evaluations,
            converged: true,
        };
    }

    // Initial simplex: x0 plus one perturbed point per dimension. If the
    // step would leave the box, step the other way.
    let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(dim + 1);
    let v0 = eval(&x0, &mut evaluations);
    simplex.push((x0.clone(), v0));
    for d in 0..dim.min(budget - 1) {
        let width = upper[d] - lower[d];
        let step = if width > 0.0 {
            width * options.initial_step_fraction
        } else {
            0.0
        };
        let mut xi = x0.clone();
        if xi[d] + step <= upper[d] {
            xi[d] += step;
        } else {
            xi[d] -= step;
        }
        clamp(&mut xi);
        let vi = eval(&xi, &mut evaluations);
        simplex.push((xi, vi));
    }

    const ALPHA: f64 = 1.0; // reflection
    const GAMMA: f64 = 2.0; // expansion
    const RHO: f64 = 0.5; // contraction
    const SIGMA: f64 = 0.5; // shrink

    let by_value = |a: &(Vec<f64>, f64), b: &(Vec<f64>, f64)| {
        a.1.partial_cmp(&b.1).expect("objective returned NaN")
    };
    let mut centroid = vec![0.0; dim];
    let mut reflected = vec![0.0; dim];
    let mut candidate = vec![0.0; dim];
    let mut converged = false;
    while simplex.len() == dim + 1 && evaluations < budget {
        simplex.sort_by(by_value);
        let best = simplex[0].1;
        let worst = simplex[dim].1;
        if (worst - best).abs() < options.ftol_abs {
            converged = true;
            break;
        }

        // Centroid of all but the worst vertex.
        centroid.fill(0.0);
        for (x, _) in &simplex[..dim] {
            for d in 0..dim {
                centroid[d] += x[d];
            }
        }
        for c in &mut centroid {
            *c /= dim as f64;
        }
        // `out = centroid + t · (centroid − worst)`, clamped into the box.
        let blend = |t: f64, worst: &[f64], out: &mut [f64]| {
            for d in 0..dim {
                out[d] = centroid[d] + t * (centroid[d] - worst[d]);
            }
            clamp(out);
        };

        // Reflection.
        blend(ALPHA, &simplex[dim].0, &mut reflected);
        let vr = eval(&reflected, &mut evaluations);
        if vr < simplex[0].1 {
            // Expansion.
            if evaluations < budget {
                blend(GAMMA, &simplex[dim].0, &mut candidate);
                let ve = eval(&candidate, &mut evaluations);
                if ve < vr {
                    replace_worst(&mut simplex, &mut candidate, ve);
                    continue;
                }
            }
            replace_worst(&mut simplex, &mut reflected, vr);
            continue;
        }
        if vr < simplex[dim - 1].1 {
            replace_worst(&mut simplex, &mut reflected, vr);
            continue;
        }
        if evaluations == budget {
            if vr < simplex[dim].1 {
                replace_worst(&mut simplex, &mut reflected, vr);
            }
            break;
        }
        // Contraction (outside if the reflection improved on the worst,
        // inside otherwise).
        let t = if vr < simplex[dim].1 { RHO } else { -RHO };
        blend(t, &simplex[dim].0, &mut candidate);
        let vc = eval(&candidate, &mut evaluations);
        if vc < simplex[dim].1.min(vr) {
            replace_worst(&mut simplex, &mut candidate, vc);
            continue;
        }
        // Shrink towards the best vertex.
        let (best, rest) = simplex.split_at_mut(1);
        let best_x = &best[0].0;
        for vertex in rest {
            if evaluations == budget {
                break;
            }
            for (v, &best) in vertex.0.iter_mut().zip(best_x) {
                *v = best + SIGMA * (*v - best);
            }
            clamp(&mut vertex.0);
            vertex.1 = eval(&vertex.0, &mut evaluations);
        }
    }

    simplex.sort_by(by_value);
    let (x, value) = simplex.swap_remove(0);
    OptimizationResult {
        x,
        value,
        evaluations,
        converged,
    }
}

/// Put the candidate in `x` (valued `value`) in the worst vertex's place;
/// the worst vertex's buffer becomes the caller's spare.
fn replace_worst(simplex: &mut [(Vec<f64>, f64)], x: &mut Vec<f64>, value: f64) {
    let worst = simplex.last_mut().expect("a simplex has vertices");
    std::mem::swap(&mut worst.0, x);
    worst.1 = value;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> NelderMeadOptions {
        NelderMeadOptions {
            ftol_abs: 1e-9,
            max_evaluations: 20_000,
            initial_step_fraction: 0.25,
        }
    }

    #[test]
    fn minimizes_quadratic_bowl() {
        let r = minimize(
            |x| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2),
            &[0.0, 0.0],
            &[-10.0, -10.0],
            &[10.0, 10.0],
            &opts(),
        );
        assert!(r.converged);
        assert!((r.x[0] - 3.0).abs() < 1e-3, "{:?}", r.x);
        assert!((r.x[1] + 1.0).abs() < 1e-3, "{:?}", r.x);
    }

    #[test]
    fn respects_box_bounds() {
        // Unconstrained minimum at (-5, -5) lies outside the box.
        let r = minimize(
            |x| (x[0] + 5.0).powi(2) + (x[1] + 5.0).powi(2),
            &[5.0, 5.0],
            &[0.0, 0.0],
            &[10.0, 10.0],
            &opts(),
        );
        assert!(r.x[0] >= 0.0 && r.x[1] >= 0.0);
        assert!(r.x[0] < 1e-3 && r.x[1] < 1e-3, "{:?}", r.x);
    }

    #[test]
    fn rosenbrock_two_d() {
        let r = minimize(
            |x| {
                let a = 1.0 - x[0];
                let b = x[1] - x[0] * x[0];
                a * a + 100.0 * b * b
            },
            &[-1.2, 1.0],
            &[-5.0, -5.0],
            &[5.0, 5.0],
            &opts(),
        );
        assert!((r.x[0] - 1.0).abs() < 1e-2, "{:?}", r);
        assert!((r.x[1] - 1.0).abs() < 1e-2, "{:?}", r);
    }

    #[test]
    fn evaluation_budget_is_respected() {
        // Every budget, including ones that end inside the initial simplex
        // or between a reflection and its expansion, contraction or
        // shrink: the cap is never exceeded.
        for budget in 0..=80 {
            let mut calls = 0usize;
            let r = minimize(
                |x| {
                    calls += 1;
                    x.iter().map(|v| v * v).sum::<f64>()
                },
                &[4.0, 4.0, 4.0, 4.0],
                &[-10.0; 4],
                &[10.0; 4],
                &NelderMeadOptions {
                    ftol_abs: 0.0,
                    max_evaluations: budget,
                    initial_step_fraction: 0.25,
                },
            );
            assert_eq!(r.evaluations, calls, "budget {budget}");
            assert!(calls <= budget, "budget {budget}: {calls} calls");
            assert!(!r.converged);
            if budget == 0 {
                assert_eq!(r.value, f64::INFINITY);
            } else {
                let value: f64 = r.x.iter().map(|v| v * v).sum();
                assert_eq!(r.value.to_bits(), value.to_bits(), "budget {budget}");
            }
        }
    }

    #[test]
    fn degenerate_box_dimension_is_held() {
        // Second coordinate is pinned: lower == upper.
        let r = minimize(
            |x| (x[0] - 2.0).powi(2) + (x[1] - 9.0).powi(2),
            &[0.0, 5.0],
            &[-10.0, 5.0],
            &[10.0, 5.0],
            &opts(),
        );
        assert_eq!(r.x[1], 5.0);
        assert!((r.x[0] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn one_dimensional_problem() {
        let r = minimize(|x| (x[0] - 0.25).powi(2), &[0.9], &[0.0], &[1.0], &opts());
        assert!((r.x[0] - 0.25).abs() < 1e-4);
    }

    #[test]
    fn absolute_tolerance_terminates_early() {
        let tight = minimize(
            |x| x[0] * x[0],
            &[100.0],
            &[-1000.0],
            &[1000.0],
            &NelderMeadOptions {
                ftol_abs: 1.0,
                max_evaluations: 10_000,
                initial_step_fraction: 0.25,
            },
        );
        assert!(tight.converged);
        // With ftol 1.0 we stop well before machine precision.
        assert!(tight.evaluations < 200);
    }

    /// `minimize` as it was before the simplex was updated in place: a
    /// fresh `Vec` per centroid, candidate and saved vertex, and the
    /// evaluation cap checked once per iteration (so a run could
    /// overshoot it).
    fn vec_per_candidate_minimize(
        mut f: impl FnMut(&[f64]) -> f64,
        start: &[f64],
        lower: &[f64],
        upper: &[f64],
        options: &NelderMeadOptions,
    ) -> OptimizationResult {
        let dim = start.len();
        let clamp = |x: &mut Vec<f64>| {
            for d in 0..dim {
                x[d] = x[d].clamp(lower[d], upper[d]);
            }
        };
        let mut evaluations = 0usize;
        let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
            *evals += 1;
            f(x)
        };
        let mut x0 = start.to_vec();
        clamp(&mut x0);
        let mut simplex: Vec<(Vec<f64>, f64)> = Vec::with_capacity(dim + 1);
        let v0 = eval(&x0, &mut evaluations);
        simplex.push((x0.clone(), v0));
        for d in 0..dim {
            let width = upper[d] - lower[d];
            let step = if width > 0.0 {
                width * options.initial_step_fraction
            } else {
                0.0
            };
            let mut xi = x0.clone();
            if xi[d] + step <= upper[d] {
                xi[d] += step;
            } else {
                xi[d] -= step;
            }
            clamp(&mut xi);
            let vi = eval(&xi, &mut evaluations);
            simplex.push((xi, vi));
        }
        let mut converged = false;
        while evaluations < options.max_evaluations {
            simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("objective returned NaN"));
            if (simplex[dim].1 - simplex[0].1).abs() < options.ftol_abs {
                converged = true;
                break;
            }
            let mut centroid = vec![0.0; dim];
            for (x, _) in &simplex[..dim] {
                for d in 0..dim {
                    centroid[d] += x[d];
                }
            }
            for c in &mut centroid {
                *c /= dim as f64;
            }
            let worst_x = simplex[dim].0.clone();
            let blend = |t: f64| -> Vec<f64> {
                let mut x: Vec<f64> = (0..dim)
                    .map(|d| centroid[d] + t * (centroid[d] - worst_x[d]))
                    .collect();
                clamp(&mut x);
                x
            };
            let xr = blend(1.0);
            let vr = eval(&xr, &mut evaluations);
            if vr < simplex[0].1 {
                let xe = blend(2.0);
                let ve = eval(&xe, &mut evaluations);
                simplex[dim] = if ve < vr { (xe, ve) } else { (xr, vr) };
                continue;
            }
            if vr < simplex[dim - 1].1 {
                simplex[dim] = (xr, vr);
                continue;
            }
            let xc = if vr < simplex[dim].1 {
                blend(0.5)
            } else {
                blend(-0.5)
            };
            let vc = eval(&xc, &mut evaluations);
            if vc < simplex[dim].1.min(vr) {
                simplex[dim] = (xc, vc);
                continue;
            }
            let best_x = simplex[0].0.clone();
            for vertex in simplex.iter_mut().skip(1) {
                for (v, &best) in vertex.0.iter_mut().zip(&best_x) {
                    *v = best + 0.5 * (*v - best);
                }
                clamp(&mut vertex.0);
                vertex.1 = eval(&vertex.0, &mut evaluations);
                if evaluations >= options.max_evaluations {
                    break;
                }
            }
        }
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("objective returned NaN"));
        let (x, value) = simplex.swap_remove(0);
        OptimizationResult {
            x,
            value,
            evaluations,
            converged,
        }
    }

    #[test]
    fn in_place_simplex_is_bit_identical_to_the_vec_per_candidate_one() {
        // Wherever the cap does not bind, updating the simplex in place
        // changes no floating-point operation: same points, values,
        // evaluation counts and verdicts, on a bowl, Rosenbrock's valley
        // and the estimator's objective over the 4-stage star from the
        // first start points the fit would draw.
        use crate::bounds::bnt_bounds;
        use crate::estimator::{objective, EstimatorConfig, SampledCounters};
        use crate::start_points::StartPointGenerator;
        use popt_cost::estimate::{estimate_counters, CounterModel, PlanGeometry, ProbeGeometry};
        use popt_cost::join_model::JoinGeometry;

        let same = |a: &OptimizationResult, b: &OptimizationResult, what: &str| {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.x), bits(&b.x), "{what}");
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{what}");
            assert_eq!(a.evaluations, b.evaluations, "{what}");
            assert_eq!(a.converged, b.converged, "{what}");
        };
        let bowl = |x: &[f64]| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2) + 0.5 * x[2] * x[2];
        let rosenbrock = |x: &[f64]| {
            let a = 1.0 - x[0];
            let b = x[1] - x[0] * x[0];
            a * a + 100.0 * b * b
        };
        for (start, options) in [
            ([0.0, 0.0, 9.0], opts()),
            ([-7.5, 4.0, -1.0], NelderMeadOptions::default()),
        ] {
            let lower = [-10.0; 3];
            let upper = [10.0; 3];
            let got = minimize(bowl, &start, &lower, &upper, &options);
            let want = vec_per_candidate_minimize(bowl, &start, &lower, &upper, &options);
            same(&got, &want, "bowl");
            let got = minimize(rosenbrock, &start[..2], &lower[..2], &upper[..2], &options);
            let want = vec_per_candidate_minimize(
                rosenbrock,
                &start[..2],
                &lower[..2],
                &upper[..2],
                &options,
            );
            same(&got, &want, "rosenbrock");
        }

        let probe = |tuples| {
            let relation = JoinGeometry {
                relation_tuples: tuples,
                tuple_bytes: 4,
                line_bytes: 64,
                cache_lines: 1024 * 1024 / 64,
            };
            Some(ProbeGeometry::random(relation, 64.0 * 1024.0))
        };
        let mut star = PlanGeometry::uniform_i32(32_768, 4);
        star.probes = vec![None, probe(500_000), probe(60_000), probe(8_000)];
        let est = estimate_counters(&star, &[26_000.0, 14_000.0, 9_000.0, 2_500.0]);
        let sampled = SampledCounters {
            n_input: star.n_input,
            n_output: 2_500,
            bnt: est.bnt.round() as u64,
            mp_taken: (est.mp_taken * 1.03).round() as u64,
            mp_not_taken: est.mp_not_taken.round() as u64,
            l3_accesses: (est.l3_accesses * 0.97).round() as u64,
        };
        let model = CounterModel::new(&star, 2_500.0);
        let star_objective = |x: &[f64]| {
            let full = [x[0], x[1], x[2], 2_500.0];
            objective(model.estimate(&full), &sampled, &full)
        };
        let bounds = bnt_bounds(4, sampled.n_input, sampled.n_output, sampled.bnt).without_last();
        let null = StartPointGenerator::null_hypothesis(3, 4, sampled.n_input, sampled.n_output);
        let tight = NelderMeadOptions {
            ftol_abs: 1e-9,
            ..EstimatorConfig::default().nelder_mead
        };
        let mut evaluations = 0;
        for options in [EstimatorConfig::default().nelder_mead, tight] {
            for start in StartPointGenerator::new(bounds.clone(), null.clone()).take(6) {
                let (lower, upper) = (&bounds.lower, &bounds.upper);
                let got = minimize(star_objective, &start, lower, upper, &options);
                let want =
                    vec_per_candidate_minimize(star_objective, &start, lower, upper, &options);
                same(&got, &want, "star");
                assert!(got.evaluations < options.max_evaluations, "the cap bound");
                evaluations += got.evaluations;
            }
        }
        assert!(
            evaluations > 2_000,
            "searches too short to pin anything: {evaluations}"
        );
    }
}
