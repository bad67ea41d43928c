//! Figure 3: Markov chains with 2–8 states (including the uneven +1T/+1NT
//! variants) against a measured sample (Section 3.2).
//!
//! Three panels — taken mispredictions (a), not-taken mispredictions (b),
//! all mispredictions (c) — each as percent of the predicate's branches.
//! The six-state chain should track the measured Ivy-Bridge-like sample
//! "almost exactly".

use popt_core::exec::program::CompiledProgram;
use popt_cost::markov::ChainSpec;
use popt_cpu::{CpuConfig, SimCpu};

use crate::common::{fmt, parallel_map, Figure, FigureCtx};
use crate::figures::workload::{uniform_plan, uniform_table};

/// The chain configurations of the figure's legend.
pub fn chains() -> Vec<ChainSpec> {
    vec![
        ChainSpec::even(2),
        ChainSpec::even(4),
        ChainSpec::plus_one_not_taken(5),
        ChainSpec::plus_one_taken(5),
        ChainSpec::even(6),
        ChainSpec::plus_one_taken(7),
        ChainSpec::plus_one_not_taken(7),
        ChainSpec::even(8),
    ]
}

/// Run the figure.
pub fn run(ctx: &FigureCtx) -> Figure {
    let mut fig = Figure::new(ctx, "3", "Markov model state counts vs. measured sample");
    let rows = ctx.scale(1 << 19, 1 << 15);
    let table = uniform_table(rows, 1, 0xF1603);
    let specs = chains();

    let sels: Vec<f64> = (0..=20).map(|i| i as f64 * 5.0).collect();
    let samples = parallel_map(&sels, |&pct| {
        let plan = uniform_plan(&[pct / 100.0]);
        let mut cpu = SimCpu::new(CpuConfig::ivy_bridge());
        let compiled = CompiledProgram::from_selection(&table, &plan, &[0]).expect("plan compiles");
        let stats = compiled.run_range(&mut cpu, 0, rows);
        let n = rows as f64;
        (
            stats.counters.mp_taken as f64 / n * 100.0,
            stats.counters.mp_not_taken as f64 / n * 100.0,
            stats.counters.mispredictions() as f64 / n * 100.0,
        )
    });

    for (panel, label) in [
        (0usize, "(a) taken mispredictions, % of branches"),
        (1, "(b) not-taken mispredictions, % of branches"),
        (2, "(c) all mispredictions, % of branches"),
    ] {
        fig.note(format!("# panel {label}"));
        let mut cols = vec!["sel_pct".to_string()];
        cols.extend(specs.iter().map(|s| s.label()));
        cols.push("ivy_sample".into());
        fig.header(&cols);
        for (s, sample) in sels.iter().zip(&samples) {
            let p = s / 100.0;
            let mut cells = vec![fmt(*s)];
            for spec in &specs {
                let probs = spec.probabilities(p);
                let v = match panel {
                    0 => probs.mp_taken,
                    1 => probs.mp_not_taken,
                    _ => probs.mp_total(),
                };
                cells.push(fmt(v * 100.0));
            }
            let measured = match panel {
                0 => sample.0,
                1 => sample.1,
                _ => sample.2,
            };
            cells.push(fmt(measured));
            fig.row(&cells);
        }
    }
    fig
}
