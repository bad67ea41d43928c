//! # popt-bench — the experiment harness
//!
//! One module per figure of the paper's evaluation (plus the cost-model
//! figures of Sections 1–4). Each module exposes `run(&FigureCtx)` which
//! returns the data series the figure plots as one `common::Figure`,
//! rendered as tab-separated rows with a header (or JSON lines) —
//! suitable for eyeballing, diffing against the numbers the README's
//! subsystem sections quote, or piping into gnuplot.
//!
//! Run everything with
//! `cargo run --release -p popt-bench --bin figures -- all`
//! or one figure with `… -- 12` (optionally `--quick`).

pub mod common;
pub mod figures;
pub mod regress;
