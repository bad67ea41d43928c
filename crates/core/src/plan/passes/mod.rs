//! Static optimizer passes over [`LogicalPlan`]s.
//!
//! Each pass is a pure, total, result-preserving `fn(LogicalPlan) ->
//! LogicalPlan` rewrite; [`LogicalPlan::optimize`] runs the four in one
//! fixed order — constant folding, join-condition extraction, filter
//! pushdown, projection pruning. Passes are individually testable and
//! *optional for correctness*: lowering
//! ([`crate::exec::program::CompiledProgram::from_plan`]) performs the
//! same expression normalization itself, so a pass can only change which
//! stages exist and in what plan order — never the query's result. The
//! proptest suite pins that running the passes in any order compiles to
//! a semantically identical program.

use super::logical::{Expr, LogicalNode, LogicalPlan};

/// Normalize every predicate expression ([`Expr::normalize`]) and drop
/// filters that folded to `TRUE`. A filter folding to `FALSE` is *kept*:
/// the plan qualifies nothing, and lowering reports that shape
/// explicitly rather than a pass silently deciding the query's result.
pub fn constant_folding(mut plan: LogicalPlan<'_>) -> LogicalPlan<'_> {
    plan.nodes = plan
        .nodes
        .into_iter()
        .filter_map(|node| match node {
            LogicalNode::Filter {
                predicate,
                extra_instructions,
            } => match predicate.normalize() {
                Expr::Bool(true) => None,
                predicate => Some(LogicalNode::Filter {
                    predicate,
                    extra_instructions,
                }),
            },
            LogicalNode::Join { dim, fk_column, on } => Some(LogicalNode::Join {
                dim,
                fk_column,
                on: on.normalize(),
            }),
        })
        .collect();
    plan
}

/// Split each join's `on` conjunction: conjuncts over dimension columns
/// stay with the probe, conjuncts over fact columns become standalone
/// filters *before* the join (they never needed the probe to evaluate).
/// Conjuncts naming neither table's columns are left on the join for
/// lowering to reject with the precise error.
pub fn join_condition_extraction(mut plan: LogicalPlan<'_>) -> LogicalPlan<'_> {
    let fact = plan.fact;
    let mut nodes = Vec::with_capacity(plan.nodes.len());
    for node in plan.nodes {
        match node {
            LogicalNode::Join { dim, fk_column, on } => {
                let mut kept: Option<Expr> = None;
                for conjunct in on.normalize().conjuncts() {
                    let is_fact_conjunct = match conjunct.as_comparison() {
                        Some((column, _, _)) => {
                            dim.column_index(column).is_none()
                                && fact.column_index(column).is_some()
                        }
                        None => false,
                    };
                    if is_fact_conjunct {
                        nodes.push(LogicalNode::Filter {
                            predicate: conjunct,
                            extra_instructions: 0,
                        });
                    } else {
                        kept = Some(match kept {
                            Some(prev) => prev.and(conjunct),
                            None => conjunct,
                        });
                    }
                }
                nodes.push(LogicalNode::Join {
                    dim,
                    fk_column,
                    on: kept.unwrap_or(Expr::Bool(true)),
                });
            }
            other => nodes.push(other),
        }
    }
    plan.nodes = nodes;
    plan
}

/// Stable-partition filters in front of joins. Filters only read fact
/// columns, so evaluating them before any probe is always result-
/// preserving — and under the static priors (filters keep less than
/// probes) it minimizes every node's estimated input cardinality
/// ([`LogicalPlan::input_estimates`]).
pub fn filter_pushdown(mut plan: LogicalPlan<'_>) -> LogicalPlan<'_> {
    let (filters, joins): (Vec<_>, Vec<_>) =
        plan.nodes.into_iter().partition(|node| !node.is_join());
    plan.nodes = filters;
    plan.nodes.extend(joins);
    plan
}

/// Drop projection columns the compiled stages already materialize —
/// stage input columns and aggregate columns are hot regardless — and
/// deduplicate the rest. Fewer projected streams means a smaller
/// declared hot-set footprint under shared-LLC partitioning.
pub fn projection_pruning(mut plan: LogicalPlan<'_>) -> LogicalPlan<'_> {
    let mut covered: Vec<String> = plan.aggregates.clone();
    for node in &plan.nodes {
        match node {
            LogicalNode::Filter { predicate, .. } => {
                covered.extend(predicate.columns().iter().map(|c| c.to_string()));
            }
            LogicalNode::Join { fk_column, .. } => covered.push(fk_column.clone()),
        }
    }
    let mut kept: Vec<String> = Vec::new();
    for column in plan.projection {
        if !covered.contains(&column) && !kept.contains(&column) {
            kept.push(column);
        }
    }
    plan.projection = kept;
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;
    use popt_storage::{AddressSpace, ColumnData, Table};

    fn tables() -> (Table, Table) {
        let mut space = AddressSpace::new();
        let mut fact = Table::new("fact");
        fact.add_column("val", ColumnData::I32((0..64).collect()), &mut space);
        fact.add_column(
            "fk",
            ColumnData::I32((0..64).map(|i| i % 8).collect()),
            &mut space,
        );
        let mut dim_space = AddressSpace::new();
        let mut dim = Table::new("dim");
        dim.add_column("payload", ColumnData::I32((0..8).collect()), &mut dim_space);
        (fact, dim)
    }

    #[test]
    fn constant_folding_drops_true_filters_and_keeps_false() {
        let (fact, _) = tables();
        let plan = PlanBuilder::scan(&fact)
            .filter(Expr::lit(1).less_than(2))
            .filter(Expr::col("val").less_than(10))
            .build();
        let folded = constant_folding(plan);
        assert_eq!(folded.nodes().len(), 1);

        let plan = PlanBuilder::scan(&fact)
            .filter(Expr::lit(2).less_than(1))
            .build();
        let folded = constant_folding(plan);
        assert_eq!(
            folded.nodes().len(),
            1,
            "FALSE is a lowering error, not a pass decision"
        );
    }

    #[test]
    fn join_condition_extraction_splits_fact_conjuncts_out() {
        let (fact, dim) = tables();
        let plan = PlanBuilder::scan(&fact)
            .join(
                &dim,
                "fk",
                Expr::col("payload")
                    .less_than(5)
                    .and(Expr::col("val").less_than(32)),
            )
            .build();
        let rewritten = join_condition_extraction(plan);
        assert_eq!(rewritten.nodes().len(), 2);
        assert!(
            !rewritten.nodes()[0].is_join(),
            "fact conjunct became a filter"
        );
        assert!(rewritten.nodes()[1].is_join());
        match &rewritten.nodes()[1] {
            LogicalNode::Join { on, .. } => {
                assert_eq!(
                    on.as_comparison().map(|(c, _, _)| c),
                    Some("payload"),
                    "dimension conjunct stays on the probe"
                );
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn filter_pushdown_partitions_stably_and_never_raises_estimates() {
        let (fact, dim) = tables();
        let plan = PlanBuilder::scan(&fact)
            .join(&dim, "fk", Expr::col("payload").less_than(5))
            .filter(Expr::col("val").less_than(10))
            .filter(Expr::col("val").greater_than(2))
            .build();
        let before = plan.input_estimates();
        let pushed = filter_pushdown(plan);
        assert!(!pushed.nodes()[0].is_join());
        assert!(!pushed.nodes()[1].is_join());
        assert!(pushed.nodes()[2].is_join());
        let after = pushed.input_estimates();
        for (k, (b, a)) in before.iter().zip(&after).enumerate() {
            assert!(a <= b, "position {k}: {a} > {b}");
        }
    }

    #[test]
    fn projection_pruning_drops_covered_and_duplicate_columns() {
        let (fact, dim) = tables();
        let plan = PlanBuilder::scan(&fact)
            .filter(Expr::col("val").less_than(10))
            .join(&dim, "fk", Expr::col("payload").less_than(5))
            .project("val")
            .project("fk")
            .project("val")
            .build();
        let pruned = projection_pruning(plan);
        assert!(pruned.projection().is_empty(), "{:?}", pruned.projection());
    }
}
