//! High-level query API: build, configure, run, report.
//!
//! The door for a [`SelectionPlan`]: a builder that picks the start order,
//! the vectors and the simulated CPU, lowers the plan through
//! [`CompiledProgram::from_selection`] and runs it on the serial drive,
//! with or without reoptimization rounds. It ships the paper's workhorse
//! query — TPC-H Q6 in the five-predicate form of Section 5.2 (shipdate
//! window, discount window, quantity cap, 120 possible PEOs) — as a
//! preset.

use popt_cpu::{CpuConfig, SimCpu};
use popt_storage::Table;

use crate::error::EngineError;
use crate::exec::program::CompiledProgram;
use crate::observe::ExecObservers;
use crate::plan::{Peo, SelectionPlan};
use crate::predicate::{CompareOp, Predicate};
use crate::progressive::{
    serial_drive, CompiledTarget, ProgressiveConfig, ProgressiveReport, SwitchEvent, VectorConfig,
};

/// Day numbers (since 1992-01-01) of the Q6 shipdate window
/// `[1994-01-01, 1995-01-01)`.
pub const Q6_SHIPDATE_LO: i64 = 731;
/// Exclusive upper day bound of the Q6 shipdate window.
pub const Q6_SHIPDATE_HI: i64 = 1096;
/// Q6 discount window `[0.05, 0.07]` in scaled percent.
pub const Q6_DISCOUNT_LO: i64 = 5;
/// Upper bound of the Q6 discount window.
pub const Q6_DISCOUNT_HI: i64 = 7;
/// Q6 quantity bound (`l_quantity < 24`).
pub const Q6_QUANTITY: i64 = 24;

/// How to execute the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Fixed PEO for the whole run (the paper's "common execution
    /// pattern").
    Baseline,
    /// Progressive optimization with the given reoptimization interval in
    /// vectors.
    Progressive {
        /// Vectors between optimization attempts.
        reop_interval: usize,
    },
}

/// The logical query answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryResult {
    /// Qualifying tuples.
    pub rows_qualified: u64,
    /// Aggregate sum.
    pub sum: i64,
}

/// Everything a run produced: answer, timing, and optimizer telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// The logical answer.
    pub result: QueryResult,
    /// Simulated milliseconds.
    pub millis: f64,
    /// Simulated cycles (including optimizer time).
    pub cycles: u64,
    /// Vectors executed.
    pub vectors: usize,
    /// PEO switch history.
    pub switches: Vec<SwitchEvent>,
    /// Order in effect at the end.
    pub final_peo: Peo,
    /// Full counter totals.
    pub counters: popt_cpu::pmu::CounterDelta,
    /// Estimator invocations.
    pub estimates: usize,
}

impl From<ProgressiveReport> for QueryReport {
    fn from(r: ProgressiveReport) -> Self {
        QueryReport {
            result: QueryResult {
                rows_qualified: r.qualified,
                sum: r.sum,
            },
            millis: r.millis,
            cycles: r.cycles,
            vectors: r.vectors,
            switches: r.switches,
            final_peo: r.final_peo,
            counters: r.counters,
            estimates: r.estimates,
        }
    }
}

/// Builder for configuring and running a multi-selection query.
pub struct QueryBuilder<'t> {
    table: &'t Table,
    plan: SelectionPlan,
    initial_peo: Option<Peo>,
    vector_tuples: usize,
    max_vectors: Option<usize>,
    cpu_config: CpuConfig,
}

impl<'t> QueryBuilder<'t> {
    /// Default tuples per vector.
    pub const DEFAULT_VECTOR_TUPLES: usize = 8192;

    /// A query from an explicit plan.
    pub fn new(table: &'t Table, plan: SelectionPlan) -> Self {
        Self {
            table,
            plan,
            initial_peo: None,
            vector_tuples: Self::DEFAULT_VECTOR_TUPLES,
            max_vectors: None,
            cpu_config: CpuConfig::xeon_e5_2630_v2(),
        }
    }

    /// TPC-H Q6 in the paper's five-predicate form over a `lineitem`
    /// table:
    ///
    /// ```sql
    /// SELECT sum(l_extendedprice * l_discount)
    /// FROM lineitem
    /// WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
    ///   AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24
    /// ```
    pub fn q6(table: &'t Table) -> Self {
        Self::new(table, Self::q6_plan())
    }

    /// The Q6 plan itself (five predicates; revenue aggregate).
    pub fn q6_plan() -> SelectionPlan {
        SelectionPlan::new(
            vec![
                Predicate::new("l_shipdate", CompareOp::Ge, Q6_SHIPDATE_LO),
                Predicate::new("l_shipdate", CompareOp::Lt, Q6_SHIPDATE_HI),
                Predicate::new("l_discount", CompareOp::Ge, Q6_DISCOUNT_LO),
                Predicate::new("l_discount", CompareOp::Le, Q6_DISCOUNT_HI),
                Predicate::new("l_quantity", CompareOp::Lt, Q6_QUANTITY),
            ],
            vec!["l_extendedprice".into(), "l_discount".into()],
        )
        .expect("Q6 plan is non-empty")
    }

    /// The four-predicate Q6 variant of Figure 1 (single shipdate bound
    /// with a configurable literal).
    pub fn q6_figure1_plan(shipdate_le: i64) -> SelectionPlan {
        SelectionPlan::new(
            vec![
                Predicate::new("l_shipdate", CompareOp::Le, shipdate_le),
                Predicate::new("l_quantity", CompareOp::Lt, Q6_QUANTITY),
                Predicate::new("l_discount", CompareOp::Ge, Q6_DISCOUNT_LO),
                Predicate::new("l_discount", CompareOp::Le, Q6_DISCOUNT_HI),
            ],
            vec!["l_extendedprice".into(), "l_discount".into()],
        )
        .expect("plan is non-empty")
    }

    /// Set the initial PEO (defaults to plan order).
    pub fn initial_peo(mut self, peo: Peo) -> Self {
        self.initial_peo = Some(peo);
        self
    }

    /// Set tuples per vector.
    pub fn vector_tuples(mut self, tuples: usize) -> Self {
        self.vector_tuples = tuples;
        self
    }

    /// Cap the number of vectors executed (`run` rejects a cap of zero).
    pub fn vectors(mut self, max: usize) -> Self {
        self.max_vectors = Some(max);
        self
    }

    /// Select the simulated CPU.
    pub fn cpu(mut self, config: CpuConfig) -> Self {
        self.cpu_config = config;
        self
    }

    /// Access the plan (e.g. to enumerate PEOs).
    pub fn plan(&self) -> &SelectionPlan {
        &self.plan
    }

    /// Execute and report.
    pub fn run(self, mode: RunMode) -> Result<QueryReport, EngineError> {
        // `from_selection` rejects an invalid start order.
        let peo = self.initial_peo.unwrap_or_else(|| self.plan.identity_peo());
        let vectors = VectorConfig {
            vector_tuples: self.vector_tuples,
            max_vectors: self.max_vectors,
        };
        let reopt = match mode {
            RunMode::Baseline => None,
            RunMode::Progressive { reop_interval } => Some(ProgressiveConfig { reop_interval }),
        };
        let mut program = CompiledProgram::from_selection(self.table, &self.plan, &peo)?;
        let mut cpu = SimCpu::new(self.cpu_config);
        let report = serial_drive(
            &mut CompiledTarget::new(&mut program),
            vectors,
            &mut cpu,
            reopt.as_ref(),
            &ExecObservers::none(),
        )?;
        Ok(report.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popt_storage::stats;
    use popt_storage::tpch::{generate_lineitem, TpchConfig};

    #[test]
    fn q6_runs_and_counts_plausibly() {
        let t = generate_lineitem(&TpchConfig::tiny());
        let report = QueryBuilder::q6(&t).run(RunMode::Baseline).unwrap();
        let n = t.rows() as f64;
        // Independent selectivities: shipdate ~1/7 (365/2526), discount
        // 3/11, quantity 23/50.
        let expected = n * (365.0 / 2526.0) * (3.0 / 11.0) * (23.0 / 50.0);
        let got = report.result.rows_qualified as f64;
        assert!(
            (got - expected).abs() / expected < 0.25,
            "got {got}, expected ≈ {expected}"
        );
        assert!(report.millis > 0.0);
    }

    #[test]
    fn q6_result_matches_ground_truth_scan() {
        let t = generate_lineitem(&TpchConfig::tiny());
        let report = QueryBuilder::q6(&t).run(RunMode::Baseline).unwrap();
        // Recompute with a plain host-side scan.
        let ship = t.column("l_shipdate").unwrap().data().as_i32().unwrap();
        let disc = t.column("l_discount").unwrap().data().as_i32().unwrap();
        let qty = t.column("l_quantity").unwrap().data().as_i32().unwrap();
        let price = t
            .column("l_extendedprice")
            .unwrap()
            .data()
            .as_i32()
            .unwrap();
        let mut count = 0u64;
        let mut sum = 0i64;
        for i in 0..t.rows() {
            let s = i64::from(ship[i]);
            let d = i64::from(disc[i]);
            let q = i64::from(qty[i]);
            if (Q6_SHIPDATE_LO..Q6_SHIPDATE_HI).contains(&s)
                && (Q6_DISCOUNT_LO..=Q6_DISCOUNT_HI).contains(&d)
                && q < Q6_QUANTITY
            {
                count += 1;
                sum += i64::from(price[i]) * d;
            }
        }
        assert_eq!(report.result.rows_qualified, count);
        assert_eq!(report.result.sum, sum);
    }

    #[test]
    fn progressive_mode_reports_switches_field() {
        let t = generate_lineitem(&TpchConfig::tiny());
        // Deliberately bad initial order: least selective first.
        let report = QueryBuilder::q6(&t)
            .initial_peo(vec![4, 3, 2, 1, 0])
            .vector_tuples(2048)
            .run(RunMode::Progressive { reop_interval: 1 })
            .unwrap();
        assert!(report.estimates > 0);
    }

    #[test]
    fn invalid_initial_peo_is_rejected() {
        let t = generate_lineitem(&TpchConfig::tiny());
        let err = QueryBuilder::q6(&t)
            .initial_peo(vec![0, 1])
            .run(RunMode::Baseline)
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidPeo { .. }));
    }

    #[test]
    fn vector_cap_limits_work() {
        let t = generate_lineitem(&TpchConfig::tiny());
        let full = QueryBuilder::q6(&t).run(RunMode::Baseline).unwrap();
        let capped = QueryBuilder::q6(&t)
            .vectors(1)
            .run(RunMode::Baseline)
            .unwrap();
        assert!(capped.vectors < full.vectors);
        assert!(capped.cycles < full.cycles);
    }

    #[test]
    fn zero_vector_cap_is_rejected() {
        let t = generate_lineitem(&TpchConfig::tiny());
        for mode in [RunMode::Baseline, RunMode::Progressive { reop_interval: 1 }] {
            let err = QueryBuilder::q6(&t).vectors(0).run(mode).unwrap_err();
            assert!(
                matches!(err, EngineError::InvalidVectorConfig(_)),
                "{mode:?}: {err:?}"
            );
        }
    }

    #[test]
    fn figure1_plan_has_four_predicates() {
        let t = generate_lineitem(&TpchConfig::tiny());
        let ship = t.column("l_shipdate").unwrap();
        let v = stats::quantile(ship.data(), 0.01);
        let plan = QueryBuilder::q6_figure1_plan(v);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.all_peos().len(), 24);
    }
}
