//! Figure 13: Q6 on differently sorted shipdate layouts (Section 5.4).
//!
//! Three data sets — sorted (a), month-clustered (b), random (c) — each
//! swept over the 120 PEOs with the baseline and progressive runs at
//! reoptimization intervals 10, 75, 200. On sorted data short intervals
//! win (the optimal PEO changes between data partitions); on random data
//! the premise "the sampled vector predicts the future" fails and
//! improvements shrink.

use popt_core::query::{QueryBuilder, RunMode};
use popt_storage::distribution::Layout;
use popt_storage::tpch::{generate_lineitem, TpchConfig};

use crate::common::{fmt, parallel_map, subsample, Figure, FigureCtx};

/// The reoptimization intervals of the figure.
pub const REOP_INTERVALS: &[usize] = &[10, 75, 200];

/// One sampled PEO's results: baseline millis plus one progressive
/// millis per reoptimization interval.
type PeoRun = (f64, Vec<f64>);

/// Run the figure.
pub fn run(ctx: &FigureCtx) -> Figure {
    let mut fig = Figure::new(
        ctx,
        "13",
        "Q6 on sorted / clustered / random shipdate layouts",
    );
    let rows = ctx.scale(1 << 20, 1 << 17);
    let vector_tuples = ctx.scale(4_096, 2_048);
    let peo_sample = ctx.scale(40, 12);
    let month = TpchConfig::month_window(rows);
    let layouts: Vec<(&str, Layout)> = vec![
        ("(a) sorted", Layout::Sorted),
        ("(b) clustered", Layout::Clustered(month)),
        ("(c) random", Layout::Random),
    ];
    let plan = QueryBuilder::q6_plan();
    let peos = subsample(&plan.all_peos(), peo_sample);

    for (label, layout) in layouts {
        fig.note(format!("# panel {label}"));
        let table = generate_lineitem(&TpchConfig::with_rows(rows).shipdate_layout(layout));
        let runs: Vec<(f64, Vec<f64>)> = parallel_map(&peos, |peo| {
            let millis = |mode| {
                QueryBuilder::new(&table, plan.clone())
                    .initial_peo(peo.clone())
                    .vector_tuples(vector_tuples)
                    .run(mode)
                    .expect("query runs")
                    .millis
            };
            let base = millis(RunMode::Baseline);
            let reops = REOP_INTERVALS
                .iter()
                .map(|&reop_interval| millis(RunMode::Progressive { reop_interval }))
                .collect();
            (base, reops)
        });
        let mut sorted = runs;
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        fig.header(&[
            "permutation_rank",
            "baseline_ms",
            "reop10_ms",
            "reop75_ms",
            "reop200_ms",
        ]);
        for (rank, (base, reops)) in sorted.iter().enumerate() {
            fig.row(&[
                rank.to_string(),
                fmt(*base),
                fmt(reops[0]),
                fmt(reops[1]),
                fmt(reops[2]),
            ]);
        }
        let avg = |f: &dyn Fn(&PeoRun) -> f64| -> f64 {
            sorted.iter().map(f).sum::<f64>() / sorted.len() as f64
        };
        fig.note(format!(
            "# avg baseline {} ms; avg reop10 {} ms; avg reop75 {} ms; avg reop200 {} ms",
            fmt(avg(&|r| r.0)),
            fmt(avg(&|r| r.1[0])),
            fmt(avg(&|r| r.1[1])),
            fmt(avg(&|r| r.1[2])),
        ));
    }
    fig
}
