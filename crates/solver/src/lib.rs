//! # popt-solver — selectivity inference from performance counters
//!
//! Implements Section 4.1–4.3 of the paper: given one sampled counter
//! vector for a whole predicate evaluation order, recover the *individual*
//! predicate selectivities.
//!
//! * [`bounds`] — search-space restriction via the upper/lower tuple
//!   bounds (Equations 6–7) and the upper/lower branches-not-taken bounds
//!   (Equations 8–9), reproducing the worked example of Figure 7;
//! * [`nelder_mead`] — a from-scratch, box-bounded Nelder–Mead simplex
//!   (the algorithm the paper selects out of NLopt's portfolio), with the
//!   paper's termination criteria (absolute tolerance and a maximum
//!   iteration count);
//! * [`start_points`] — the multi-start schedule of Section 4.3: bounding
//!   box vertices, the even-split null hypothesis, then centroids of the
//!   largest unexplored subspace (Figure 9);
//! * [`estimator`] — the outer loop (Section 4.4's inner sequence):
//!   repeatedly start Nelder–Mead on the Equation-10 objective until no
//!   better optimum appears for `n` rounds or `m = 2·p` rounds elapsed;
//! * [`calibration`] — snapshot/restore of the runtime-learned probe
//!   clustering, so a serving layer can carry a converged calibration
//!   from one execution of a query template to the next.

pub mod bounds;
pub mod calibration;
pub mod estimator;
pub mod nelder_mead;
pub mod start_points;

pub use bounds::SearchBounds;
pub use calibration::CalibrationSnapshot;
pub use estimator::{
    estimate_selectivities, EstimateResult, EstimatorConfig, SampledCounters, NO_IMPROVEMENT_LIMIT,
};
pub use nelder_mead::{minimize, NelderMeadOptions, OptimizationResult};
pub use start_points::StartPointGenerator;
