//! Property-based tests over the core invariants the paper's method
//! relies on, checked across randomized plans, data and selectivities.

use proptest::prelude::*;

use popt::core::exec::scan::CompiledSelection;
use popt::core::plan::{order_by_selectivity, SelectionPlan};
use popt::core::predicate::{CompareOp, Predicate};
use popt::cost::estimate::{estimate_counters, PlanGeometry};
use popt::cost::markov::ChainSpec;
use popt::cpu::{CpuConfig, SimCpu};
use popt::solver::bounds::bnt_bounds;
use popt::storage::distribution::{knuth_shuffle_window, max_displacement};
use popt::storage::{AddressSpace, ColumnData, Table};
use popt_bench::figures::workload::xorshift64;

mod common;
use common::{build, tables, ROWS};

fn table_with_columns(rows: usize, literals: &[i64], seed: u64) -> (Table, SelectionPlan) {
    let mut space = AddressSpace::new();
    let mut t = Table::new("t");
    let mut state = seed | 1;
    for c in 0..literals.len() {
        let data: Vec<i32> = (0..rows)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 17) % 1000) as i32
            })
            .collect();
        t.add_column(format!("c{c}"), ColumnData::I32(data), &mut space);
    }
    let plan = SelectionPlan::new(
        literals
            .iter()
            .enumerate()
            .map(|(c, &lit)| Predicate::new(format!("c{c}"), CompareOp::Lt, lit))
            .collect(),
        vec![],
    )
    .expect("non-empty plan");
    (t, plan)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `qualifying = 2·n − bT` and `bT + bNT = branches` hold for every
    /// plan, PEO, and data set (Section 2.2's counter identities).
    #[test]
    fn counter_identities_hold(
        lit1 in 0i64..1000,
        lit2 in 0i64..1000,
        lit3 in 0i64..1000,
        seed in any::<u64>(),
        swap in any::<bool>(),
    ) {
        let rows = 2048usize;
        let (t, plan) = table_with_columns(rows, &[lit1, lit2, lit3], seed);
        let peo = if swap { vec![2, 0, 1] } else { vec![0, 1, 2] };
        let compiled = CompiledSelection::compile(&t, &plan, &peo).unwrap();
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let stats = compiled.run_range(&mut cpu, 0, rows);
        let c = &stats.counters;
        prop_assert_eq!(c.branches, c.branches_taken + c.branches_not_taken);
        prop_assert_eq!(stats.derived_output(), stats.qualified);
        prop_assert!(c.mispredictions() <= c.branches);
    }

    /// Query results are invariant under any predicate evaluation order.
    #[test]
    fn results_are_peo_invariant(
        lit1 in 100i64..900,
        lit2 in 100i64..900,
        seed in any::<u64>(),
    ) {
        let rows = 2048usize;
        let (t, plan) = table_with_columns(rows, &[lit1, lit2], seed);
        let mut results = Vec::new();
        for peo in [[0usize, 1], [1, 0]] {
            let compiled = CompiledSelection::compile(&t, &plan, &peo).unwrap();
            let mut cpu = SimCpu::new(CpuConfig::tiny_test());
            let stats = compiled.run_range(&mut cpu, 0, rows);
            results.push((stats.qualified, stats.counters.branches_not_taken));
        }
        prop_assert_eq!(results[0].0, results[1].0);
    }

    /// The BNT bounds of Section 4.1 always bracket the true survivor
    /// vector measured on real executions.
    #[test]
    fn bnt_bounds_bracket_truth(
        lit1 in 50i64..950,
        lit2 in 50i64..950,
        lit3 in 50i64..950,
        seed in any::<u64>(),
    ) {
        let rows = 2048usize;
        let (t, plan) = table_with_columns(rows, &[lit1, lit2, lit3], seed);
        let peo = plan.identity_peo();
        let compiled = CompiledSelection::compile(&t, &plan, &peo).unwrap();
        let mut cpu = SimCpu::new(CpuConfig::tiny_test());
        let stats = compiled.run_range(&mut cpu, 0, rows);
        let sampled = stats.sampled_counters();
        let bounds = bnt_bounds(3, sampled.n_input, sampled.n_output, sampled.bnt);

        // True survivors via exact host-side evaluation.
        let cols: Vec<&[i32]> = (0..3)
            .map(|c| t.column(&format!("c{c}")).unwrap().data().as_i32().unwrap())
            .collect();
        let mut survivors = vec![0.0f64; 3];
        for i in 0..rows {
            let mut alive = true;
            for (j, col) in cols.iter().enumerate() {
                alive = alive && plan.predicates[j].eval(i64::from(col[i]));
                if alive {
                    survivors[j] += 1.0;
                } else {
                    break;
                }
            }
        }
        prop_assert!(bounds.contains(&survivors), "bounds {bounds:?} vs {survivors:?}");
    }

    /// The Markov stationary distribution is a proper distribution and a
    /// fixed point of the chain, for every state count and selectivity.
    #[test]
    fn markov_stationary_is_fixed_point(
        states in 2u8..10,
        split in 1u8..9,
        p in 0.01f64..0.99,
    ) {
        let not_taken = split.min(states - 1).max(1);
        let spec = ChainSpec { states, not_taken_states: not_taken };
        let pi = spec.stationary(p);
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let via_solve = spec.stationary_linear(p);
        for (a, b) in pi.iter().zip(&via_solve) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }

    /// Counter model sanity across the survivor space: predicted counters
    /// are finite, non-negative, and BNT equals the survivor sum.
    #[test]
    fn counter_model_is_sane(
        a1 in 0.0f64..1.0,
        a2 in 0.0f64..1.0,
        a3 in 0.0f64..1.0,
    ) {
        let n = 100_000u64;
        // Sort descending to form a monotone survivor vector.
        let mut fr = [a1, a2, a3];
        fr.sort_by(|x, y| y.partial_cmp(x).unwrap());
        let survivors: Vec<f64> = fr.iter().map(|f| f * n as f64).collect();
        let geom = PlanGeometry::uniform_i32(n, 3);
        let est = estimate_counters(&geom, &survivors);
        prop_assert!(est.bnt >= 0.0 && est.bnt.is_finite());
        prop_assert!((est.bnt - survivors.iter().sum::<f64>()).abs() < 1e-6);
        prop_assert!(est.mp_taken >= 0.0 && est.mp_not_taken >= 0.0);
        prop_assert!(est.l3_accesses >= 0.0 && est.l3_accesses.is_finite());
    }

    /// Windowed Knuth shuffling is a permutation with bounded
    /// displacement.
    #[test]
    fn window_shuffle_is_bounded_permutation(
        window in 1usize..256,
        seed in any::<u64>(),
    ) {
        let mut v: Vec<i32> = (0..2048).collect();
        knuth_shuffle_window(&mut v, window, seed);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..2048).collect::<Vec<i32>>());
        prop_assert!(max_displacement(&v) < window.max(1));
    }

    /// For random N-stage programs mixing selections and foreign-key
    /// join filters, any permutation of the stages yields the same
    /// qualifying count and aggregate sum, and non-permutations are
    /// rejected.
    #[test]
    fn pipeline_reorder_preserves_results(
        stages in 2usize..5,
        lit in 100i64..900,
        seed in any::<u64>(),
    ) {
        // Bit k of the seed picks stage k's kind; joins alternate
        // between the co-clustered and the random foreign key.
        let (fact, dim) = tables(seed);

        // A random permutation of 0..stages (Fisher–Yates off the seed).
        let mut state = seed | 1;
        let mut perm: Vec<usize> = (0..stages).collect();
        for i in (1..stages).rev() {
            let j = (xorshift64(&mut state) % (i as u64 + 1)) as usize;
            perm.swap(i, j);
        }

        let identity = build(&fact, &dim, stages, seed, lit);
        let mut cpu1 = SimCpu::new(CpuConfig::tiny_test());
        let base = identity.run_range(&mut cpu1, 0, ROWS);

        let mut permuted = build(&fact, &dim, stages, seed, lit);
        permuted.reorder(&perm).expect("valid permutation");
        let mut cpu2 = SimCpu::new(CpuConfig::tiny_test());
        let got = permuted.run_range(&mut cpu2, 0, ROWS);

        prop_assert_eq!(got.qualified, base.qualified);
        prop_assert_eq!(got.sum, base.sum);

        // Non-permutations are rejected without touching the program.
        let mut broken = build(&fact, &dim, stages, seed, lit);
        prop_assert!(broken.reorder(&vec![0; stages]).is_err());
        prop_assert!(broken.reorder(&perm[..stages - 1]).is_err());
        prop_assert!(broken.reorder(&(1..=stages).collect::<Vec<_>>()).is_err());
        prop_assert_eq!(broken.order(), &(0..stages).collect::<Vec<_>>()[..]);
    }

    /// Reordering by selectivity yields a valid permutation and puts the
    /// minimum-selectivity predicate first.
    #[test]
    fn selectivity_order_is_valid_permutation(
        s1 in 0.0f64..1.0,
        s2 in 0.0f64..1.0,
        s3 in 0.0f64..1.0,
        s4 in 0.0f64..1.0,
    ) {
        let peo = vec![3usize, 1, 0, 2];
        let sels = vec![s1, s2, s3, s4];
        let ordered = order_by_selectivity(&peo, &sels);
        let mut check = ordered.clone();
        check.sort_unstable();
        prop_assert_eq!(check, vec![0, 1, 2, 3]);
        // The first entry corresponds to the minimum selectivity.
        let min_idx = sels
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        prop_assert_eq!(ordered[0], peo[min_idx]);
    }
}
