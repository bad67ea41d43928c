//! Figure 8: model-predicted counter values for a two-predicate selection
//! over the selectivity grid (Section 4.2).
//!
//! Four heat maps — branches not taken (a), mispredicted not-taken (b),
//! mispredicted taken (c), and L3 accesses (d) — computed purely from the
//! Section 3 cost models for 10 M tuples. Two queries are distinguishable
//! whenever they differ in at least one of these surfaces.

use popt_cost::estimate::{estimate_counters, PlanGeometry};

use crate::common::{fmt, Figure, FigureCtx};

/// Tuples assumed by the figure (matches the paper's 10 M).
pub const TUPLES: u64 = 10_000_000;

/// Run the figure.
pub fn run(ctx: &FigureCtx) -> Figure {
    let mut fig = Figure::new(ctx, "8", "Two-predicate counter predictions (model only)");
    let geom = PlanGeometry::uniform_i32(TUPLES, 2);
    fig.header(&[
        "sel1",
        "sel2",
        "bnt",
        "mp_not_taken",
        "mp_taken",
        "l3_accesses",
    ]);
    for i in 0..=10 {
        for j in 0..=10 {
            let p1 = f64::from(i) / 10.0;
            let p2 = f64::from(j) / 10.0;
            let n = TUPLES as f64;
            let est = estimate_counters(&geom, &[n * p1, n * p1 * p2]);
            fig.row(&[
                fmt(p1),
                fmt(p2),
                fmt(est.bnt),
                fmt(est.mp_not_taken),
                fmt(est.mp_taken),
                fmt(est.l3_accesses),
            ]);
        }
    }
    // The distinguishability example of Section 4.2: (40%, 20%) vs
    // (20%, 40%).
    let a = estimate_counters(&geom, &[TUPLES as f64 * 0.4, TUPLES as f64 * 0.08]);
    let b = estimate_counters(&geom, &[TUPLES as f64 * 0.2, TUPLES as f64 * 0.08]);
    fig.note(format!(
        "# (40%,20%) vs (20%,40%): BNT {} vs {}, MP-not-taken {} vs {} — at least one \
         counter separates the two orders",
        fmt(a.bnt),
        fmt(b.bnt),
        fmt(a.mp_not_taken),
        fmt(b.mp_not_taken),
    ));
    fig
}
