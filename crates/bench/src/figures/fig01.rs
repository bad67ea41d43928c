//! Figure 1: best vs. worst physical plan for TPC-H Query 6 as the
//! shipdate selectivity sweeps from 10⁻⁴ % to 10² % (Section 1).
//!
//! The paper's motivating plot: the cost ratio between the worst and best
//! of the 24 predicate orders of the four-predicate Q6 form, largest when
//! the shipdate predicate is very selective (evaluating it late wastes
//! work on every other column).

use popt_core::exec::program::CompiledProgram;
use popt_core::query::QueryBuilder;
use popt_cpu::{CpuConfig, SimCpu};
use popt_storage::stats;
use popt_storage::tpch::{generate_lineitem, TpchConfig};

use crate::common::{fmt, parallel_map, Figure, FigureCtx};

/// Shipdate selectivities in percent (log scale, as in the figure).
pub const SELECTIVITIES_PCT: &[f64] = &[0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0];

/// Run the figure.
pub fn run(ctx: &FigureCtx) -> Figure {
    let mut fig = Figure::new(ctx, "1", "Best v. Worst plan costs for TPC-H Query 6");
    let rows = ctx.scale(1 << 20, 1 << 17);
    let table = generate_lineitem(&TpchConfig::with_rows(rows));
    let shipdate = table.column("l_shipdate").unwrap();

    fig.header(&["shipdate_sel_pct", "best_ms", "worst_ms", "worst/best"]);
    let mut max_ratio: f64 = 0.0;
    for &pct in SELECTIVITIES_PCT {
        let literal = if pct >= 100.0 {
            i64::MAX / 2
        } else {
            stats::quantile(shipdate.data(), pct / 100.0)
        };
        let plan = QueryBuilder::q6_figure1_plan(literal);
        let peos = plan.all_peos();
        let cycles = parallel_map(&peos, |peo| {
            let mut cpu = SimCpu::new(CpuConfig::xeon_e5_2630_v2());
            let compiled =
                CompiledProgram::from_selection(&table, &plan, peo).expect("figure plan compiles");
            compiled.run_range(&mut cpu, 0, rows);
            cpu.cycles()
        });
        let best = *cycles.iter().min().unwrap() as f64;
        let worst = *cycles.iter().max().unwrap() as f64;
        let to_ms = |c: f64| c / 2.6e6;
        let ratio = worst / best;
        max_ratio = max_ratio.max(ratio);
        fig.row(&[fmt(pct), fmt(to_ms(best)), fmt(to_ms(worst)), fmt(ratio)]);
    }
    fig.note(format!("# max worst/best ratio: {}", fmt(max_ratio)));
    fig
}
