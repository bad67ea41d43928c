//! Figure 6: branch counter overview across microarchitectures against
//! the Markov estimate and the Zeuch et al. piecewise baseline
//! (Section 3.2).
//!
//! For each selectivity: mispredictions (total, taken, not-taken) measured
//! on the Nehalem / Sandy-Bridge / Ivy-Bridge / Broadwell predictor
//! configurations, the Equation-5 estimates, and Equation 3's piecewise
//! total.

use popt_core::exec::program::CompiledProgram;
use popt_cost::markov::ChainSpec;
use popt_cost::piecewise;
use popt_cpu::{CpuConfig, SimCpu};

use crate::common::{fmt, parallel_map, Figure, FigureCtx};
use crate::figures::workload::{uniform_plan, uniform_table};

/// Run the figure.
pub fn run(ctx: &FigureCtx) -> Figure {
    let mut fig = Figure::new(
        ctx,
        "6",
        "Branch counters across microarchitectures vs. estimates",
    );
    let rows = ctx.scale(1 << 20, 1 << 15);
    let table = uniform_table(rows, 1, 0xF1606);
    let archs: Vec<(&str, CpuConfig)> = vec![
        ("nehalem", CpuConfig::nehalem()),
        ("sandy", CpuConfig::sandy_bridge()),
        ("ivy", CpuConfig::ivy_bridge()),
        ("broadwell", CpuConfig::broadwell()),
    ];

    let sels: Vec<f64> = (0..=20).map(|i| i as f64 * 5.0).collect();

    let mut cols = vec!["sel_pct".to_string()];
    for (name, _) in &archs {
        cols.push(format!("{name}_mp"));
        cols.push(format!("{name}_tak_mp"));
        cols.push(format!("{name}_nottak_mp"));
    }
    cols.extend([
        "est_mp".into(),
        "est_tak_mp".into(),
        "est_nottak_mp".into(),
        "zeuch_mp".into(),
    ]);
    fig.header(&cols);

    let measurements = parallel_map(&sels, |&pct| {
        archs
            .iter()
            .map(|(_, cfg)| {
                let plan = uniform_plan(&[pct / 100.0]);
                let mut cpu = SimCpu::new(cfg.clone());
                let compiled =
                    CompiledProgram::from_selection(&table, &plan, &[0]).expect("plan compiles");
                let stats = compiled.run_range(&mut cpu, 0, rows);
                (
                    stats.counters.mispredictions(),
                    stats.counters.mp_taken,
                    stats.counters.mp_not_taken,
                )
            })
            .collect::<Vec<_>>()
    });

    for (s, per_arch) in sels.iter().zip(&measurements) {
        let p = s / 100.0;
        let mut cells = vec![fmt(*s)];
        for (mp, tak, nottak) in per_arch {
            cells.push(fmt(*mp as f64));
            cells.push(fmt(*tak as f64));
            cells.push(fmt(*nottak as f64));
        }
        let probs = ChainSpec::SIX.probabilities(p);
        let n = rows as f64;
        cells.push(fmt(probs.mp_total() * n));
        cells.push(fmt(probs.mp_taken * n));
        cells.push(fmt(probs.mp_not_taken * n));
        cells.push(fmt(piecewise::mp_count(rows as u64, p)));
        fig.row(&cells);
    }
    fig
}
