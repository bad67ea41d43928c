//! Figure 9: start-point selection in a two-dimensional search space
//! (Section 4.3).
//!
//! A query with 25% overall selectivity over two predicates: the null
//! hypothesis sits at survivors (50, 25) of 100 input tuples, splitting
//! the space; vertices and largest-subspace centroids follow.

use popt_solver::bounds::SearchBounds;
use popt_solver::start_points::StartPointGenerator;

use crate::common::{fmt, Figure, FigureCtx};

/// Run the figure.
pub fn run(ctx: &FigureCtx) -> Figure {
    let mut fig = Figure::new(
        ctx,
        "9",
        "Start point selection (2-D example, 25% overall selectivity)",
    );
    let bounds = SearchBounds {
        lower: vec![0.0, 0.0],
        upper: vec![100.0, 100.0],
    };
    let null = StartPointGenerator::null_hypothesis(2, 2, 100, 25);
    let generator = StartPointGenerator::new(bounds, null);
    fig.header(&["point", "a1", "a2"]);
    for (i, p) in generator.take(10).enumerate() {
        fig.row(&[format!("C{}", i + 1), fmt(p[0]), fmt(p[1])]);
    }
    fig
}
