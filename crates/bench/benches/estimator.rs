//! Criterion bench: selectivity-estimation latency — the optimization
//! time the paper trades against estimate quality (Sections 4.4/5.7) —
//! plus an ablation over the number of optimization start points.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

use popt_cost::estimate::{estimate_counters, PlanGeometry};
use popt_solver::{estimate_selectivities, CounterWeights, EstimatorConfig, SampledCounters};

fn sample_for(geom: &PlanGeometry, survivors: &[f64]) -> SampledCounters {
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

fn survivors_for(n: u64, sels: &[f64]) -> Vec<f64> {
    let mut cur = n as f64;
    sels.iter()
        .map(|&p| {
            cur *= p;
            cur
        })
        .collect()
}

fn estimator_by_predicates(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator_by_predicates");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    for preds in [2usize, 3, 5] {
        let geom = PlanGeometry::uniform_i32(1 << 16, preds);
        let sels: Vec<f64> = (0..preds).map(|i| 0.2 + 0.15 * i as f64).collect();
        let survivors = survivors_for(geom.n_input, &sels);
        let sampled = sample_for(&geom, &survivors);
        let config = EstimatorConfig::default();
        group.bench_with_input(BenchmarkId::from_parameter(preds), &preds, |b, _| {
            b.iter(|| black_box(estimate_selectivities(&geom, &sampled, &config)))
        });
    }
    group.finish();
}

fn estimator_start_point_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator_starts_ablation");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    let geom = PlanGeometry::uniform_i32(1 << 16, 4);
    let survivors = survivors_for(geom.n_input, &[0.7, 0.3, 0.5, 0.4]);
    let sampled = sample_for(&geom, &survivors);
    for starts in [1usize, 4, 8, 16] {
        let config = EstimatorConfig {
            max_starts: Some(starts),
            no_improvement_limit: starts,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(starts), &starts, |b, _| {
            b.iter(|| black_box(estimate_selectivities(&geom, &sampled, &config)))
        });
    }
    group.finish();
}

fn estimator_counter_subsets(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator_counter_subsets");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(400));
    group.measurement_time(Duration::from_secs(2));
    let geom = PlanGeometry::uniform_i32(1 << 16, 3);
    let survivors = survivors_for(geom.n_input, &[0.6, 0.3, 0.5]);
    let sampled = sample_for(&geom, &survivors);
    for (name, weights) in [
        ("all_counters", CounterWeights::default()),
        ("bnt_only", CounterWeights::bnt_only()),
    ] {
        let config = EstimatorConfig {
            weights,
            ..Default::default()
        };
        group.bench_function(name, |b| {
            b.iter(|| black_box(estimate_selectivities(&geom, &sampled, &config)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    estimator_by_predicates,
    estimator_start_point_ablation,
    estimator_counter_subsets
);
criterion_main!(benches);
