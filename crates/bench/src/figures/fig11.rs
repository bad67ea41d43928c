//! Figure 11: the TPC-H common case — all 120 predicate evaluation orders
//! of Q6, baseline vs. progressively optimized runtime (Section 5.2).
//!
//! Baseline executes one fixed PEO over the whole table; the progressive
//! run starts from the same PEO and reoptimizes every 10 vectors.
//! Progressive runtimes should be largely flat across permutations while
//! baselines span the best/worst range.

use popt_core::plan::Peo;
use popt_core::query::{QueryBuilder, RunMode};
use popt_storage::tpch::{generate_lineitem, TpchConfig};

use crate::common::{fmt, parallel_map, subsample, Figure, FigureCtx};

/// Run the figure.
pub fn run(ctx: &FigureCtx) -> Figure {
    let mut fig = Figure::new(
        ctx,
        "11",
        "TPC-H common case: 120 Q6 PEOs, baseline vs. progressive",
    );
    let rows = ctx.scale(1 << 20, 1 << 17);
    let vector_tuples = ctx.scale(8_192, 4_096);
    let table = generate_lineitem(&TpchConfig::with_rows(rows));
    let plan = QueryBuilder::q6_plan();
    let mut peos = plan.all_peos();
    if ctx.quick {
        peos = subsample(&peos, 24);
    }
    let run = |peo: &Peo, mode| {
        QueryBuilder::new(&table, plan.clone())
            .initial_peo(peo.clone())
            .vector_tuples(vector_tuples)
            .run(mode)
    };

    let results: Vec<(Peo, f64, f64)> = parallel_map(&peos, |peo| {
        let base = run(peo, RunMode::Baseline).expect("baseline runs");
        let prog = run(peo, RunMode::Progressive { reop_interval: 10 }).expect("progressive runs");
        assert_eq!(base.result, prog.result, "result must be PEO-invariant");
        (peo.clone(), base.millis, prog.millis)
    });

    let mut sorted = results;
    sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    fig.header(&["permutation_rank", "baseline_ms", "optimized_ms", "peo"]);
    for (rank, (peo, base, prog)) in sorted.iter().enumerate() {
        fig.row(&[rank.to_string(), fmt(*base), fmt(*prog), format!("{peo:?}")]);
    }
    let worst_base = sorted.iter().map(|r| r.1).fold(0.0f64, f64::max);
    let best_base = sorted.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let avg_base: f64 = sorted.iter().map(|r| r.1).sum::<f64>() / sorted.len() as f64;
    let worst_prog = sorted.iter().map(|r| r.2).fold(0.0f64, f64::max);
    let avg_prog: f64 = sorted.iter().map(|r| r.2).sum::<f64>() / sorted.len() as f64;
    fig.note(format!(
        "# baseline best/avg/worst: {}/{}/{} ms; progressive avg/worst: {}/{} ms",
        fmt(best_base),
        fmt(avg_base),
        fmt(worst_base),
        fmt(avg_prog),
        fmt(worst_prog)
    ));
    fig.note(format!(
        "# improvement: avg {}x, worst-case {}x",
        fmt(avg_base / avg_prog),
        fmt(worst_base / worst_prog)
    ));
    fig
}
