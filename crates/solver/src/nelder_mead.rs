//! A from-scratch, box-bounded Nelder–Mead downhill simplex \[15\].
//!
//! The paper evaluated NLopt's algorithm portfolio and chose Nelder–Mead
//! as the local optimizer "because it performs best for our selectivity
//! estimations" (Section 4.2). This implementation uses the standard
//! coefficients (reflection 1, expansion 2, contraction ½, shrink ½),
//! clamps every candidate into the feasible box, and terminates on the
//! paper's criteria: an absolute tolerance between successive optima or a
//! maximum evaluation count (the paper's best configuration: tolerance 1,
//! 10 000 iterations).

use std::cmp::Ordering;

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
    /// Number of objective calls: a candidate bitwise equal to a point
    /// the run holds reuses that point's value (see [`minimize`]).
    pub evaluations: usize,
    /// True if the convergence tolerance was met or the simplex collapsed
    /// onto one point (false: ran out of budget).
    pub converged: bool,
}

/// Minimize `f` over the box `[lower, upper]`, starting at `start`.
///
/// `start` is clamped into the box; a zero-dimensional problem evaluates
/// it once and returns it. The evaluation budget is never exceeded: a step
/// that has no evaluation left keeps the reflected point where it beats
/// the worst vertex and ends the run, a budget below `dim + 1` returns
/// the best vertex of the partial initial simplex, and a zero budget
/// returns the clamped start unevaluated, valued `+∞`. A NaN value counts
/// as `+∞`: the worst vertex, never the best.
///
/// `f` must be pure: a candidate bitwise equal to a point the run holds
/// takes that point's value instead of a call — the reflection when it
/// equals a vertex, the expansion or contraction when it equals a vertex
/// or the reflection, a shrunk vertex when it equals the best vertex. So
/// every point and value is what evaluating each candidate would give,
/// and only `evaluations`, the count of calls, is smaller. A shrink that
/// calls nothing has collapsed the simplex onto its best vertex, which
/// ends the run as converged.
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
        let value = f(x);
        if value.is_nan() {
            f64::INFINITY
        } else {
            value
        }
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

    // No value is NaN (`eval` maps it to +∞), so every pair compares.
    let by_value =
        |a: &(Vec<f64>, f64), b: &(Vec<f64>, f64)| a.1.partial_cmp(&b.1).unwrap_or(Ordering::Equal);
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
        let vr = held_value(&reflected, vertices(&simplex))
            .unwrap_or_else(|| eval(&reflected, &mut evaluations));
        let held = |simplex: &[(Vec<f64>, f64)], candidate: &[f64]| {
            held_value(candidate, vertices(simplex).chain([(&reflected[..], vr)]))
        };
        if vr < simplex[0].1 {
            // Expansion.
            if evaluations < budget {
                blend(GAMMA, &simplex[dim].0, &mut candidate);
                let ve = held(&simplex, &candidate)
                    .unwrap_or_else(|| eval(&candidate, &mut evaluations));
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
        let vc = held(&simplex, &candidate).unwrap_or_else(|| eval(&candidate, &mut evaluations));
        if vc < simplex[dim].1.min(vr) {
            replace_worst(&mut simplex, &mut candidate, vc);
            continue;
        }
        // Shrink towards the best vertex.
        let (best, rest) = simplex.split_at_mut(1);
        let (best_x, best_value) = (&best[0].0, best[0].1);
        let called = evaluations;
        for vertex in rest {
            if evaluations == budget {
                break;
            }
            for (v, &best) in vertex.0.iter_mut().zip(best_x) {
                *v = best + SIGMA * (*v - best);
            }
            clamp(&mut vertex.0);
            vertex.1 = if same_point(&vertex.0, best_x) {
                best_value
            } else {
                eval(&vertex.0, &mut evaluations)
            };
        }
        if evaluations == called && called < budget {
            // Every vertex shrank onto the best one: no step can move it.
            converged = true;
            break;
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

/// The simplex's vertices with their values.
fn vertices(simplex: &[(Vec<f64>, f64)]) -> impl Iterator<Item = (&[f64], f64)> {
    simplex.iter().map(|(x, value)| (&x[..], *value))
}

/// Whether `a` and `b` are the same point, bit for bit.
fn same_point(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// The value of the first `held` point that is `x` bit for bit: the value
/// a call at `x` would return, the objective being pure.
fn held_value<'a>(x: &[f64], mut held: impl Iterator<Item = (&'a [f64], f64)>) -> Option<f64> {
    held.find(|(point, _)| same_point(point, x))
        .map(|(_, value)| value)
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

    /// `minimize` as it was before the simplex was updated in place or
    /// reused a held point's value: a fresh `Vec` per centroid, candidate
    /// and saved vertex, every candidate evaluated, and the evaluation cap
    /// checked once per iteration (so a run could overshoot it). Returns,
    /// besides the result, whether each call's point was one the run held:
    /// the reflection equal to a vertex, the expansion or contraction equal
    /// to a vertex or the reflection, a shrunk vertex equal to the best.
    fn vec_per_candidate_minimize(
        mut f: impl FnMut(&[f64]) -> f64,
        start: &[f64],
        lower: &[f64],
        upper: &[f64],
        options: &NelderMeadOptions,
    ) -> (OptimizationResult, Vec<bool>) {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut held = Vec::new();
        let in_simplex = |simplex: &[(Vec<f64>, f64)], x: &[f64]| {
            simplex.iter().any(|(v, _)| bits(v) == bits(x))
        };
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
        held.push(false);
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
            held.push(false);
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
            held.push(in_simplex(&simplex, &xr));
            if vr < simplex[0].1 {
                let xe = blend(2.0);
                let ve = eval(&xe, &mut evaluations);
                held.push(in_simplex(&simplex, &xe) || bits(&xe) == bits(&xr));
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
            held.push(in_simplex(&simplex, &xc) || bits(&xc) == bits(&xr));
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
                held.push(bits(&vertex.0) == bits(&best_x));
                if evaluations >= options.max_evaluations {
                    break;
                }
            }
        }
        simplex.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("objective returned NaN"));
        let (x, value) = simplex.swap_remove(0);
        let result = OptimizationResult {
            x,
            value,
            evaluations,
            converged,
        };
        (result, held)
    }

    /// Survivors of the star sample whose first two stages filter: no
    /// optimum on the box's faces.
    const FILTERING_STAR: [f64; 4] = [26_000.0, 14_000.0, 9_000.0, 2_500.0];
    /// Survivors of a star sample whose first two stages pass every tuple
    /// (a join every fact row matches): the optimum lies on the box's
    /// upper faces, where clamped candidates land on held points.
    const PASSING_STAR: [f64; 4] = [32_768.0, 32_768.0, 9_000.0, 2_500.0];

    /// Hand `run` the estimator's objective over the 4-stage star
    /// geometry the benchmark's `join_star` fits (as `alloc_free.rs`
    /// builds it) for a sample of `survivors`, its search box, and the
    /// first six start points a fit would draw.
    fn with_star_problem<R>(
        survivors: [f64; 4],
        run: impl FnOnce(&dyn Fn(&[f64]) -> f64, &[f64], &[f64], &[Vec<f64>]) -> R,
    ) -> R {
        use crate::bounds::bnt_bounds;
        use crate::estimator::{objective, SampledCounters};
        use crate::start_points::StartPointGenerator;
        use popt_cost::estimate::{estimate_counters, CounterModel, PlanGeometry, ProbeGeometry};
        use popt_cost::join_model::JoinGeometry;

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
        let est = estimate_counters(&star, &survivors);
        let out = survivors[3];
        let sampled = SampledCounters {
            n_input: star.n_input,
            n_output: out as u64,
            bnt: est.bnt.round() as u64,
            mp_taken: (est.mp_taken * 1.03).round() as u64,
            mp_not_taken: est.mp_not_taken.round() as u64,
            l3_accesses: (est.l3_accesses * 0.97).round() as u64,
        };
        let model = CounterModel::new(&star, out);
        let star_objective = |x: &[f64]| {
            let full = [x[0], x[1], x[2], out];
            objective(model.estimate(&full), &sampled, &full)
        };
        let bounds = bnt_bounds(4, sampled.n_input, sampled.n_output, sampled.bnt).without_last();
        let null = StartPointGenerator::null_hypothesis(3, 4, sampled.n_input, sampled.n_output);
        let starts: Vec<Vec<f64>> = StartPointGenerator::new(bounds.clone(), null)
            .take(6)
            .collect();
        run(&star_objective, &bounds.lower, &bounds.upper, &starts)
    }

    /// The runs the pins below hold: the problems of the tests above and
    /// the star fit from each of its six start points, at the estimator's
    /// options.
    fn pinned_runs() -> Vec<(String, OptimizationResult)> {
        use crate::estimator::EstimatorConfig;
        let rosenbrock = |x: &[f64]| {
            let a = 1.0 - x[0];
            let b = x[1] - x[0] * x[0];
            a * a + 100.0 * b * b
        };
        let ftol = NelderMeadOptions {
            ftol_abs: 1.0,
            max_evaluations: 10_000,
            initial_step_fraction: 0.25,
        };
        let mut runs = vec![
            (
                "bowl".to_string(),
                minimize(
                    |x| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2),
                    &[0.0, 0.0],
                    &[-10.0, -10.0],
                    &[10.0, 10.0],
                    &opts(),
                ),
            ),
            (
                "box".to_string(),
                minimize(
                    |x| (x[0] + 5.0).powi(2) + (x[1] + 5.0).powi(2),
                    &[5.0, 5.0],
                    &[0.0, 0.0],
                    &[10.0, 10.0],
                    &opts(),
                ),
            ),
            (
                "rosenbrock".to_string(),
                minimize(
                    rosenbrock,
                    &[-1.2, 1.0],
                    &[-5.0, -5.0],
                    &[5.0, 5.0],
                    &opts(),
                ),
            ),
            (
                "degenerate".to_string(),
                minimize(
                    |x| (x[0] - 2.0).powi(2) + (x[1] - 9.0).powi(2),
                    &[0.0, 5.0],
                    &[-10.0, 5.0],
                    &[10.0, 5.0],
                    &opts(),
                ),
            ),
            (
                "one_dim".to_string(),
                minimize(|x| (x[0] - 0.25).powi(2), &[0.9], &[0.0], &[1.0], &opts()),
            ),
            (
                "ftol".to_string(),
                minimize(|x| x[0] * x[0], &[100.0], &[-1000.0], &[1000.0], &ftol),
            ),
        ];
        let options = EstimatorConfig::default().nelder_mead;
        let tight = NelderMeadOptions {
            ftol_abs: 1e-12,
            ..options
        };
        with_star_problem(FILTERING_STAR, |star_objective, lower, upper, starts| {
            for (k, start) in starts.iter().enumerate() {
                let run = minimize(star_objective, start, lower, upper, &options);
                runs.push((format!("star{k}"), run));
                let run = minimize(star_objective, start, lower, upper, &tight);
                runs.push((format!("star_tight{k}"), run));
            }
        });
        with_star_problem(PASSING_STAR, |star_objective, lower, upper, starts| {
            for (k, start) in starts.iter().enumerate() {
                let run = minimize(star_objective, start, lower, upper, &options);
                runs.push((format!("passing_star{k}"), run));
            }
        });
        runs
    }

    /// Per run of `pinned_runs`: its name, the bits of its point and
    /// value — the ones evaluating every candidate gives — and its calls
    /// before and since a candidate on a held point reuses that point's
    /// value.
    #[rustfmt::skip]
    const PINS: &[(&str, &[u64], u64, usize, usize)] = &[
        ("bowl", &[0x400800032d16babb, 0xbff000097de64057], 0x3de04e401607837c, 79, 79),
        ("box", &[0x0000000000000000, 0x0000000000000000], 0x4049000000000000, 151, 44),
        ("rosenbrock", &[0x3fefffaf0a4466a5, 0x3fefff5b35b9f0a9], 0x3e1cd42fe19e374e, 157, 157),
        ("degenerate", &[0x4000000400000000, 0x4014000000000000], 0x4030000000004000, 45, 37),
        ("one_dim", &[0x3fcfff3333333334], 0x3e047ae147adeb85, 31, 30),
        ("ftol", &[0x3fd9000000000000], 0x3fc3880000000000, 20, 20),
        ("star0", &[0x40d6fd497ab23e4a, 0x40cfdbfde4e48726, 0x40bd01cd6fc62bee], 0x3faf6912111781cc, 79, 79),
        ("star_tight0", &[0x40d583a3a1f850e2, 0x40d03a97444e5cd4, 0x40bf6442b40ed29f], 0x3fa7036abe3d597c, 599, 599),
        ("star1", &[0x40d571eedf3a2664, 0x40d04ca1dba34960, 0x40bfd95abcf787d8], 0x3fa7d01044bcc4f5, 99, 99),
        ("star_tight1", &[0x40d583a3a1f99921, 0x40d03a97444e28ee, 0x40bf6442b40b8eba], 0x3fa7036abe30e010, 440, 440),
        ("star2", &[0x40d8192510e6bf67, 0x40d000c161840cdb, 0x40bdddae6720cd8e], 0x3faf4c9503927f48, 88, 88),
        ("star_tight2", &[0x40d81865b975dba0, 0x40cfff7f0452f318, 0x40bddbcf2e22f4b0], 0x3faf31b571935b32, 270, 270),
        ("star3", &[0x40d96962a7b24d3e, 0x40bfb40000000000, 0x40b4d92a27816fea], 0x3fe739ac93da74b3, 37, 37),
        ("star_tight3", &[0x40d9599a5219d431, 0x40bfb40000000000, 0x40b4fb3d7c699636], 0x3fe73925313a806e, 118, 118),
        ("star4", &[0x40d94a4b90f8b88a, 0x40c918c54b51ce13, 0x40a3880000000000], 0x3fdda2f4f3645354, 66, 66),
        ("star_tight4", &[0x40d94cbe740341c5, 0x40c90b4e79d8eeb0, 0x40a3880000000000], 0x3fdd8de85d259696, 301, 301),
        ("star5", &[0x40d79e9040fb5991, 0x40cfe33d1062d31f, 0x40bd50bdd648e58c], 0x3fb002213d2955c6, 79, 79),
        ("star_tight5", &[0x40d84ab365b8e714, 0x40d005b38f82effc, 0x40be26642b101996], 0x3faeda5b4ca6fbab, 533, 533),
        ("passing_star0", &[0x40dff4eacff881e0, 0x40dff6d03bed5bb9, 0x40c1940000000000], 0x3fa14cc498f404a6, 90, 68),
        ("passing_star1", &[0x40dff4eacff881e0, 0x40dff6d03bed5bb9, 0x40c1940000000000], 0x3fa14cc498f404a6, 90, 68),
        ("passing_star2", &[0x40e0000000000000, 0x40e0000000000000, 0x40d8435555555555], 0x4012c1e256f39d5d, 51, 16),
        ("passing_star3", &[0x40dff3afef44fa8a, 0x40e0000000000000, 0x40c1940000000000], 0x3fa86635b4a47510, 53, 43),
        ("passing_star4", &[0x40dff3c60ebfbc94, 0x40e0000000000000, 0x40c1940000000000], 0x3fa8718c9e766966, 56, 45),
        ("passing_star5", &[0x40e0000000000000, 0x40e0000000000000, 0x40c1cf4386bb0dee], 0x3fa530e4351f7a46, 39, 35),
    ];

    #[test]
    fn runs_keep_their_bits_and_spend_fewer_calls() {
        let runs = pinned_runs();
        assert_eq!(runs.len(), PINS.len());
        for ((name, r), &(pin, x, value, before, calls)) in runs.iter().zip(PINS) {
            assert_eq!(name, pin);
            let bits: Vec<u64> = r.x.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, x, "{name}");
            assert_eq!(r.value.to_bits(), value, "{name}");
            assert_eq!(r.evaluations, calls, "{name}");
            assert!(calls <= before, "{name}");
        }
        let before: usize = PINS.iter().map(|pin| pin.3).sum();
        let calls: usize = PINS.iter().map(|pin| pin.4).sum();
        assert!(calls < before, "{calls} calls, {before} before");
        // A star fit whose optimum lies on the box's faces saves on every
        // start.
        for pin in PINS.iter().filter(|pin| pin.0.starts_with("passing_star")) {
            assert!(pin.4 < pin.3, "{}", pin.0);
        }
    }

    /// Run `minimize` and the every-candidate reference on one problem,
    /// recording the points each passes to the objective: `minimize`'s
    /// are exactly the reference's that its run did not hold. Returns how
    /// many it held.
    fn held_points_are_never_passed(
        f: impl Fn(&[f64]) -> f64,
        start: &[f64],
        lower: &[f64],
        upper: &[f64],
        options: &NelderMeadOptions,
    ) -> usize {
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut calls = Vec::new();
        minimize(
            |x| {
                calls.push(bits(x));
                f(x)
            },
            start,
            lower,
            upper,
            options,
        );
        let mut every = Vec::new();
        let (_, held) = vec_per_candidate_minimize(
            |x| {
                every.push(bits(x));
                f(x)
            },
            start,
            lower,
            upper,
            options,
        );
        assert_eq!(every.len(), held.len());
        let unheld: Vec<Vec<u64>> = every
            .into_iter()
            .zip(&held)
            .filter(|(_, &held)| !held)
            .map(|(call, _)| call)
            .collect();
        assert_eq!(calls, unheld);
        held.iter().filter(|&&h| h).count()
    }

    #[test]
    fn no_point_is_evaluated_while_the_run_holds_it() {
        use crate::estimator::EstimatorConfig;
        let mut held = held_points_are_never_passed(
            |x| (x[0] + 5.0).powi(2) + (x[1] + 5.0).powi(2),
            &[5.0, 5.0],
            &[0.0, 0.0],
            &[10.0, 10.0],
            &opts(),
        );
        held += held_points_are_never_passed(
            |x| (x[0] - 2.0).powi(2) + (x[1] - 9.0).powi(2),
            &[0.0, 5.0],
            &[-10.0, 5.0],
            &[10.0, 5.0],
            &opts(),
        );
        held += held_points_are_never_passed(
            |x| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2),
            &[0.0, 0.0],
            &[-10.0, -10.0],
            &[10.0, 10.0],
            &opts(),
        );
        for survivors in [FILTERING_STAR, PASSING_STAR] {
            with_star_problem(survivors, |star_objective, lower, upper, starts| {
                for start in starts {
                    held += held_points_are_never_passed(
                        star_objective,
                        start,
                        lower,
                        upper,
                        &EstimatorConfig::default().nelder_mead,
                    );
                }
            });
        }
        assert!(held > 100, "too few held points to show anything: {held}");
    }

    #[test]
    fn a_nan_value_counts_as_the_worst_vertex() {
        // Either sign: x86's default NaN has the sign bit set, so a total
        // order would rank it below every number, as the best vertex.
        for nan in [f64::NAN, -f64::NAN] {
            // The start lies in a NaN hole: the search leaves it for the
            // bowl's minimum.
            let holed_bowl = |x: &[f64]| {
                if x[0] < 1.0 {
                    nan
                } else {
                    (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2)
                }
            };
            let r = minimize(holed_bowl, &[0.0, 0.0], &[-10.0; 2], &[10.0; 2], &opts());
            assert!(r.converged, "{r:?}");
            assert!(
                (r.x[0] - 3.0).abs() < 1e-3 && (r.x[1] + 1.0).abs() < 1e-3,
                "{r:?}"
            );
            // NaN everywhere: the run spends its budget, valued +∞.
            let options = NelderMeadOptions {
                max_evaluations: 50,
                ..opts()
            };
            let r = minimize(|_| nan, &[0.0, 0.0], &[-10.0; 2], &[10.0; 2], &options);
            assert_eq!(r.value, f64::INFINITY);
            assert_eq!(r.evaluations, 50);
            assert!(!r.converged);
        }
    }

    #[test]
    fn in_place_simplex_is_bit_identical_to_the_vec_per_candidate_one() {
        // Wherever the cap does not bind, updating the simplex in place
        // and reusing held points' values changes no floating-point
        // operation: same points, values and verdicts, and one call fewer
        // per held point, on a bowl, Rosenbrock's valley and the
        // estimator's objective over the 4-stage star from the first
        // start points the fit would draw.
        use crate::estimator::EstimatorConfig;

        let same =
            |a: &OptimizationResult, (b, held): &(OptimizationResult, Vec<bool>), what: &str| {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&a.x), bits(&b.x), "{what}");
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "{what}");
                let repeats = held.iter().filter(|&&h| h).count();
                assert_eq!(a.evaluations, b.evaluations - repeats, "{what}");
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

        let tight = NelderMeadOptions {
            ftol_abs: 1e-9,
            ..EstimatorConfig::default().nelder_mead
        };
        let evaluations =
            with_star_problem(FILTERING_STAR, |star_objective, lower, upper, starts| {
                let mut evaluations = 0;
                for options in [EstimatorConfig::default().nelder_mead, tight] {
                    for start in starts {
                        let got = minimize(star_objective, start, lower, upper, &options);
                        let want = vec_per_candidate_minimize(
                            star_objective,
                            start,
                            lower,
                            upper,
                            &options,
                        );
                        same(&got, &want, "star");
                        assert!(got.evaluations < options.max_evaluations, "the cap bound");
                        evaluations += got.evaluations;
                    }
                }
                evaluations
            });
        assert!(
            evaluations > 2_000,
            "searches too short to pin anything: {evaluations}"
        );
    }
}
