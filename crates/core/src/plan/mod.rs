//! Selection plans and predicate evaluation orders (PEOs).
//!
//! A multi-selection plan is an unordered *set* of conjunctive predicates
//! plus an aggregate; the **PEO** — the order in which the predicates are
//! wired into the short-circuit loop — is the runtime degree of freedom
//! the progressive optimizer adjusts (Section 2.1).
//!
//! The module also hosts the query frontend: [`logical`] holds the
//! [`logical::LogicalPlan`] builder layer (typed scan/filter/join/
//! aggregate nodes over arbitrary boolean predicate expressions) and
//! [`passes`] the static optimizer passes that rewrite a logical plan
//! before it is lowered to the compiled stage form
//! (`crate::exec::program`).

pub mod logical;
pub mod passes;

pub use logical::{Expr, LogicalNode, LogicalPlan, PlanBuilder};

use crate::error::EngineError;
use crate::predicate::Predicate;

/// A predicate evaluation order: a permutation of plan predicate indices.
pub type Peo = Vec<usize>;

/// Whether `order` is a permutation of `0..stages` — the one validity
/// rule every order-bearing structure shares (plans, programs, the
/// serving layer's order cache). Quadratic in the stage count but
/// allocation-free: a pool re-validates its accepted order between
/// morsels.
pub fn is_valid_peo(order: &[usize], stages: usize) -> bool {
    order.len() == stages
        && order
            .iter()
            .enumerate()
            .all(|(k, &i)| i < stages && !order[..k].contains(&i))
}

/// A multi-selection query plan with a sum aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionPlan {
    /// The conjunctive predicates, in plan (not evaluation) order.
    pub predicates: Vec<Predicate>,
    /// Columns summed for qualifying tuples (empty = count only).
    pub aggregate_columns: Vec<String>,
}

impl SelectionPlan {
    /// Build a plan; at least one predicate is required.
    pub fn new(
        predicates: Vec<Predicate>,
        aggregate_columns: Vec<String>,
    ) -> Result<Self, EngineError> {
        if predicates.is_empty() {
            return Err(EngineError::EmptyPlan);
        }
        Ok(Self {
            predicates,
            aggregate_columns,
        })
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// Whether the plan has no predicates (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// The identity PEO `0, 1, …, p-1`.
    pub fn identity_peo(&self) -> Peo {
        (0..self.len()).collect()
    }

    /// Validate that `peo` is a permutation of this plan's predicates.
    pub fn validate_peo(&self, peo: &[usize]) -> Result<(), EngineError> {
        if is_valid_peo(peo, self.len()) {
            Ok(())
        } else {
            Err(EngineError::InvalidPeo {
                expected: self.len(),
                got: peo.to_vec(),
            })
        }
    }

    /// All `p!` PEOs in lexicographic order (the 120 permutations of
    /// Figures 11/13 for Q6's five predicates). Guarded against blowups.
    pub fn all_peos(&self) -> Vec<Peo> {
        assert!(self.len() <= 8, "refusing to enumerate more than 8! orders");
        let mut result = Vec::new();
        let mut current = self.identity_peo();
        permutations(&mut current, 0, &mut result);
        result.sort();
        result
    }
}

fn permutations(current: &mut Vec<usize>, k: usize, out: &mut Vec<Peo>) {
    if k == current.len() {
        out.push(current.clone());
        return;
    }
    for i in k..current.len() {
        current.swap(k, i);
        permutations(current, k + 1, out);
        current.swap(k, i);
    }
}

/// Order predicate indices ascending by estimated selectivity — the
/// reorder rule of Section 4.4 ("we reorder the predicates according to
/// the best estimation so far"): most selective first minimizes work.
///
/// `selectivities` are given in the order of `current_peo`; the result is
/// a new PEO over plan indices.
pub fn order_by_selectivity(current_peo: &[usize], selectivities: &[f64]) -> Peo {
    assert_eq!(current_peo.len(), selectivities.len());
    let mut pairs: Vec<(f64, usize)> = selectivities
        .iter()
        .copied()
        .zip(current_peo.iter().copied())
        .collect();
    // Stable order with plan index as tie-breaker for determinism.
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    pairs.into_iter().map(|(_, idx)| idx).collect()
}

/// Order stage indices by the classic rank `cost / (1 − selectivity)`,
/// ascending — the optimal order for independent filters with differing
/// per-tuple costs. With equal costs this degenerates to
/// [`order_by_selectivity`]; with an LLC-thrashing join probe in the mix
/// it is what keeps a cheap selection in front of an expensive probe even
/// when the probe is the more selective stage (Sections 5.5–5.6).
///
/// `costs` and `selectivities` are given in the order of `current_order`;
/// a stage with selectivity ≥ 1 filters nothing and sorts last (by cost,
/// then plan index).
pub fn order_by_cost_per_tuple(
    current_order: &[usize],
    costs: &[f64],
    selectivities: &[f64],
) -> Peo {
    assert_eq!(current_order.len(), costs.len());
    assert_eq!(current_order.len(), selectivities.len());
    let mut entries: Vec<(f64, f64, usize)> = current_order
        .iter()
        .enumerate()
        .map(|(j, &idx)| {
            let s = selectivities[j].clamp(0.0, 1.0);
            let c = costs[j].max(0.0);
            let rank = if s >= 1.0 {
                f64::INFINITY
            } else {
                c / (1.0 - s)
            };
            (rank, c, idx)
        })
        .collect();
    entries.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("ranks are not NaN")
            .then(a.1.partial_cmp(&b.1).expect("costs are not NaN"))
            .then(a.2.cmp(&b.2))
    });
    entries.into_iter().map(|(_, _, idx)| idx).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CompareOp;

    fn plan(p: usize) -> SelectionPlan {
        let preds = (0..p)
            .map(|i| Predicate::new(format!("c{i}"), CompareOp::Lt, 10))
            .collect();
        SelectionPlan::new(preds, vec!["agg".into()]).unwrap()
    }

    #[test]
    fn empty_plan_rejected() {
        assert_eq!(
            SelectionPlan::new(vec![], vec![]).unwrap_err(),
            EngineError::EmptyPlan
        );
    }

    #[test]
    fn peo_validation() {
        let p = plan(3);
        assert!(p.validate_peo(&[0, 1, 2]).is_ok());
        assert!(p.validate_peo(&[2, 0, 1]).is_ok());
        assert!(p.validate_peo(&[0, 1]).is_err());
        assert!(p.validate_peo(&[0, 1, 1]).is_err());
        assert!(p.validate_peo(&[0, 1, 3]).is_err());
    }

    #[test]
    fn all_peos_counts_factorial() {
        assert_eq!(plan(1).all_peos().len(), 1);
        assert_eq!(plan(3).all_peos().len(), 6);
        assert_eq!(plan(5).all_peos().len(), 120);
    }

    #[test]
    fn all_peos_are_distinct_permutations() {
        let p = plan(4);
        let orders = p.all_peos();
        assert_eq!(orders.len(), 24);
        for o in &orders {
            assert!(p.validate_peo(o).is_ok());
        }
        let mut dedup = orders.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 24);
    }

    #[test]
    fn order_by_selectivity_ascending() {
        let peo = vec![2, 0, 1];
        let sels = vec![0.9, 0.1, 0.5];
        // predicate 2 has sel 0.9, predicate 0 has 0.1, predicate 1 has 0.5
        assert_eq!(order_by_selectivity(&peo, &sels), vec![0, 1, 2]);
    }

    #[test]
    fn order_by_selectivity_tie_breaks_by_plan_index() {
        let peo = vec![3, 1, 2, 0];
        let sels = vec![0.5, 0.5, 0.5, 0.5];
        assert_eq!(order_by_selectivity(&peo, &sels), vec![0, 1, 2, 3]);
    }

    #[test]
    fn cost_rank_reduces_to_selectivity_with_equal_costs() {
        let peo = vec![2usize, 0, 1];
        let sels = vec![0.9, 0.1, 0.5];
        let costs = vec![3.0, 3.0, 3.0];
        assert_eq!(
            order_by_cost_per_tuple(&peo, &costs, &sels),
            order_by_selectivity(&peo, &sels)
        );
    }

    #[test]
    fn expensive_selective_stage_ranks_behind_cheap_one() {
        // Stage 0: cost 100, sel 0.5 -> rank 200. Stage 1: cost 2,
        // sel 0.9 -> rank 20. The cheap-but-unselective stage goes first.
        let peo = vec![0usize, 1];
        assert_eq!(
            order_by_cost_per_tuple(&peo, &[100.0, 2.0], &[0.5, 0.9]),
            vec![1, 0]
        );
    }

    #[test]
    fn non_filtering_stage_goes_last() {
        let peo = vec![0usize, 1, 2];
        let order = order_by_cost_per_tuple(&peo, &[1.0, 5.0, 1.0], &[1.0, 0.5, 0.5]);
        assert_eq!(*order.last().unwrap(), 0);
        // Two non-filtering stages tie-break by cost, then plan index.
        let order = order_by_cost_per_tuple(&peo, &[1.0, 5.0, 1.0], &[1.0, 1.0, 0.5]);
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn predicates_render_in_plan_order() {
        let p = plan(2);
        let rendered: Vec<String> = p.predicates.iter().map(Predicate::display).collect();
        assert_eq!(rendered, ["c0 < 10", "c1 < 10"]);
    }
}
