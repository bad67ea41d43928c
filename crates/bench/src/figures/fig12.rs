//! Figure 12: Q6 with varying shipdate selectivity (Section 5.3).
//!
//! For each shipdate-window selectivity (log scale 10⁻⁴…10² %): the
//! min/max/avg baseline runtime over all 120 PEOs, and the average
//! progressive runtime over the same 120 initial PEOs for reoptimization
//! intervals 10, 75 and 200 vectors.

use popt_core::plan::{Peo, SelectionPlan};
use popt_core::predicate::{CompareOp, Predicate};
use popt_core::query::{QueryBuilder, RunMode, Q6_DISCOUNT_HI, Q6_DISCOUNT_LO, Q6_QUANTITY};
use popt_storage::stats;
use popt_storage::tpch::{generate_lineitem, TpchConfig};

use crate::common::{fmt, parallel_map, subsample, Figure, FigureCtx};

/// Shipdate selectivities in percent (log scale).
pub const SELECTIVITIES_PCT: &[f64] = &[0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 100.0];

/// The reoptimization intervals of the figure.
pub const REOP_INTERVALS: &[usize] = &[10, 75, 200];

/// Q6 with the shipdate window centred in the domain and sized for the
/// requested combined selectivity.
pub fn q6_with_shipdate_selectivity(table: &popt_storage::Table, pct: f64) -> SelectionPlan {
    let shipdate = table.column("l_shipdate").expect("lineitem table");
    let half = (pct / 100.0 / 2.0).min(0.5);
    let lo = stats::quantile(shipdate.data(), (0.5 - half).max(0.0));
    let hi = stats::quantile(shipdate.data(), (0.5 + half).min(1.0));
    SelectionPlan::new(
        vec![
            Predicate::new("l_shipdate", CompareOp::Ge, lo),
            Predicate::new("l_shipdate", CompareOp::Le, hi),
            Predicate::new("l_discount", CompareOp::Ge, Q6_DISCOUNT_LO),
            Predicate::new("l_discount", CompareOp::Le, Q6_DISCOUNT_HI),
            Predicate::new("l_quantity", CompareOp::Lt, Q6_QUANTITY),
        ],
        vec!["l_extendedprice".into(), "l_discount".into()],
    )
    .expect("plan is non-empty")
}

/// Run the figure.
pub fn run(ctx: &FigureCtx) -> Figure {
    let mut fig = Figure::new(ctx, "12", "Q6 with varying shipdate selectivity");
    let rows = ctx.scale(1 << 20, 1 << 17);
    let vector_tuples = ctx.scale(4_096, 2_048);
    // Baselines are cheap enough to run for every PEO (their min/max are
    // the figure's envelope); progressive runs average over an even
    // subsample of initial PEOs.
    let base_sample = ctx.scale(120, 12);
    let prog_sample = ctx.scale(24, 6);
    let table = generate_lineitem(&TpchConfig::with_rows(rows));

    fig.header(&[
        "shipdate_sel_pct",
        "min_base_ms",
        "max_base_ms",
        "avg_base_ms",
        "avg_reop10_ms",
        "avg_reop75_ms",
        "avg_reop200_ms",
    ]);
    for &pct in SELECTIVITIES_PCT {
        let plan = q6_with_shipdate_selectivity(&table, pct);
        let all_peos = plan.all_peos();
        let base_peos = subsample(&all_peos, base_sample);
        let prog_peos = subsample(&all_peos, prog_sample);
        let millis = |peo: &Peo, mode| {
            QueryBuilder::new(&table, plan.clone())
                .initial_peo(peo.clone())
                .vector_tuples(vector_tuples)
                .run(mode)
                .expect("query runs")
                .millis
        };

        let base: Vec<f64> = parallel_map(&base_peos, |peo| millis(peo, RunMode::Baseline));
        let min = base.iter().copied().fold(f64::INFINITY, f64::min);
        let max = base.iter().copied().fold(0.0f64, f64::max);
        let avg = base.iter().sum::<f64>() / base.len() as f64;

        let mut avgs = Vec::new();
        for &reop_interval in REOP_INTERVALS {
            let runs: Vec<f64> = parallel_map(&prog_peos, |peo| {
                millis(peo, RunMode::Progressive { reop_interval })
            });
            avgs.push(runs.iter().sum::<f64>() / runs.len() as f64);
        }
        fig.row(&[
            fmt(pct),
            fmt(min),
            fmt(max),
            fmt(avg),
            fmt(avgs[0]),
            fmt(avgs[1]),
            fmt(avgs[2]),
        ]);
    }
    fig.note("# expectation: avg_reop10 tracks min_base in the 0.1–10% band");
    fig
}
