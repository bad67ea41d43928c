//! The uniform target type the server schedules: a served query is a
//! multi-selection scan or a compiled frontend program, and the
//! scheduler must hold a heterogeneous set of them in one collection. A
//! closed enum (rather than trait objects) keeps the
//! [`ShardableTarget`] associated-type machinery — and with it the
//! zero-cost shard dispatch in the morsel hot path — fully static.

use popt_cost::estimate::PlanGeometry;
use popt_cpu::{CpuConfig, SimCpu};
use popt_solver::{CalibrationSnapshot, SampledCounters};

use crate::error::EngineError;
use crate::exec::scan::VectorStats;
use crate::parallel::{CompiledShard, ShardableTarget, TargetShard};
use crate::plan::Peo;
use crate::progressive::{CompiledTarget, ProgressiveTarget, ScanTarget};

/// A served query's master target: scan or compiled program.
pub(crate) enum ServeTarget<'p, 't> {
    Scan(ScanTarget<'p, 't>),
    Compiled(CompiledTarget<'p, 't>),
}

impl ProgressiveTarget for ServeTarget<'_, '_> {
    fn rows(&self) -> usize {
        match self {
            Self::Scan(t) => t.rows(),
            Self::Compiled(t) => t.rows(),
        }
    }

    fn order(&self) -> Peo {
        match self {
            Self::Scan(t) => ProgressiveTarget::order(t),
            Self::Compiled(t) => ProgressiveTarget::order(t),
        }
    }

    fn set_order(&mut self, order: &[usize]) -> Result<(), EngineError> {
        match self {
            Self::Scan(t) => ProgressiveTarget::set_order(t, order),
            Self::Compiled(t) => ProgressiveTarget::set_order(t, order),
        }
    }

    fn run_range(&mut self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        match self {
            Self::Scan(t) => ProgressiveTarget::run_range(t, cpu, start, end),
            Self::Compiled(t) => ProgressiveTarget::run_range(t, cpu, start, end),
        }
    }

    fn plan_geometry(&self, n_input: u64, cpu: &CpuConfig, llc_bytes: u64) -> PlanGeometry {
        match self {
            Self::Scan(t) => t.plan_geometry(n_input, cpu, llc_bytes),
            Self::Compiled(t) => t.plan_geometry(n_input, cpu, llc_bytes),
        }
    }

    fn hot_set_bytes(&self) -> u64 {
        match self {
            Self::Scan(t) => t.hot_set_bytes(),
            Self::Compiled(t) => t.hot_set_bytes(),
        }
    }

    fn propose_order(&self, geom: &PlanGeometry, selectivities: &[f64]) -> Peo {
        match self {
            Self::Scan(t) => t.propose_order(geom, selectivities),
            Self::Compiled(t) => t.propose_order(geom, selectivities),
        }
    }

    fn calibrate(&mut self, geom: &PlanGeometry, sampled: &SampledCounters, survivors: &[f64]) {
        match self {
            Self::Scan(t) => t.calibrate(geom, sampled, survivors),
            Self::Compiled(t) => t.calibrate(geom, sampled, survivors),
        }
    }

    fn take_probe_order(&mut self) -> Option<Peo> {
        match self {
            Self::Scan(t) => t.take_probe_order(),
            Self::Compiled(t) => t.take_probe_order(),
        }
    }

    fn wants_trial_calibration(&self) -> bool {
        match self {
            Self::Scan(t) => t.wants_trial_calibration(),
            Self::Compiled(t) => t.wants_trial_calibration(),
        }
    }

    fn calibration_snapshot(&self) -> Option<CalibrationSnapshot> {
        match self {
            Self::Scan(t) => t.calibration_snapshot(),
            Self::Compiled(t) => t.calibration_snapshot(),
        }
    }

    fn restore_calibration(&mut self, snapshot: &CalibrationSnapshot) {
        match self {
            Self::Scan(t) => t.restore_calibration(snapshot),
            Self::Compiled(t) => t.restore_calibration(snapshot),
        }
    }
}

/// A worker's private executor for one served query.
pub(crate) enum ServeShard<'p, 't> {
    Scan(ScanTarget<'p, 't>),
    Compiled(CompiledShard<'t>),
}

impl TargetShard for ServeShard<'_, '_> {
    fn set_order(&mut self, order: &[usize]) -> Result<(), EngineError> {
        match self {
            Self::Scan(s) => TargetShard::set_order(s, order),
            Self::Compiled(s) => TargetShard::set_order(s, order),
        }
    }

    fn run_range(&mut self, cpu: &mut SimCpu, start: usize, end: usize) -> VectorStats {
        match self {
            Self::Scan(s) => TargetShard::run_range(s, cpu, start, end),
            Self::Compiled(s) => TargetShard::run_range(s, cpu, start, end),
        }
    }
}

impl<'p, 't> ShardableTarget for ServeTarget<'p, 't> {
    type Shard = ServeShard<'p, 't>;

    fn shard(&self) -> Result<Self::Shard, EngineError> {
        Ok(match self {
            Self::Scan(t) => ServeShard::Scan(t.shard()?),
            Self::Compiled(t) => ServeShard::Compiled(t.shard()?),
        })
    }
}
