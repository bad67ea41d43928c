//! Figure 4: measured/predicted branch misprediction ratios for a
//! two-predicate selection over the full selectivity grid (Section 3.2).
//!
//! Heat maps in the paper; here each grid point prints its ratio. Values
//! near 1.0 everywhere mean the multi-predicate composition of the Markov
//! model holds.

use popt_core::exec::program::CompiledProgram;
use popt_cost::branch_costs::estimate_peo_branches;
use popt_cost::markov::ChainSpec;
use popt_cpu::{CpuConfig, SimCpu};

use crate::common::{fmt, parallel_map, Figure, FigureCtx};
use crate::figures::workload::{uniform_plan, uniform_table};

/// Run the figure.
pub fn run(ctx: &FigureCtx) -> Figure {
    let mut fig = Figure::new(
        ctx,
        "4",
        "Two-predicate mispredictions: measured / predicted",
    );
    let rows = ctx.scale(1 << 18, 1 << 14);
    let table = uniform_table(rows, 2, 0xF1604);

    let grid: Vec<(f64, f64)> = (0..=10)
        .flat_map(|i| (0..=10).map(move |j| (i as f64 / 10.0, j as f64 / 10.0)))
        .collect();

    let results = parallel_map(&grid, |&(p1, p2)| {
        let plan = uniform_plan(&[p1, p2]);
        let mut cpu = SimCpu::new(CpuConfig::ivy_bridge());
        let compiled =
            CompiledProgram::from_selection(&table, &plan, &[0, 1]).expect("plan compiles");
        let stats = compiled.run_range(&mut cpu, 0, rows);
        let predicted = estimate_peo_branches(rows as u64, &[p1, p2], &ChainSpec::SIX, true);
        let ratio = |measured: u64, predicted: f64| -> f64 {
            if predicted < 1.0 {
                if measured == 0 {
                    1.0
                } else {
                    measured as f64
                }
            } else {
                measured as f64 / predicted
            }
        };
        (
            ratio(stats.counters.mp_not_taken, predicted.mp_not_taken),
            ratio(stats.counters.mp_taken, predicted.mp_taken),
            ratio(stats.counters.mispredictions(), predicted.mp_total()),
        )
    });

    fig.header(&[
        "sel1",
        "sel2",
        "ratio_not_taken_mp",
        "ratio_taken_mp",
        "ratio_all_mp",
    ]);
    let mut worst: f64 = 1.0;
    for ((p1, p2), (rnt, rt, rall)) in grid.iter().zip(&results) {
        fig.row(&[fmt(*p1), fmt(*p2), fmt(*rnt), fmt(*rt), fmt(*rall)]);
        // Track the worst overall-MP deviation over the interior grid
        // (corners have near-zero counts and noisy ratios).
        if *p1 > 0.05 && *p1 < 0.95 && *p2 > 0.05 && *p2 < 0.95 {
            let r = *rall;
            worst = worst.max(r.max(1.0 / r.max(1e-9)));
        }
    }
    fig.note(format!(
        "# worst interior all-MP deviation factor: {}",
        fmt(worst)
    ));
    fig
}
