//! Logical query plans: the typed entry door of the query frontend.
//!
//! Every query — figure, test, workload generator, serving spec — is
//! built here first: a [`PlanBuilder`] assembles a [`LogicalPlan`] of
//! typed nodes (scan, filter over an arbitrary boolean [`Expr`],
//! foreign-key join, aggregate), the static passes in
//! [`crate::plan::passes`] rewrite it, and lowering
//! ([`crate::exec::program::CompiledProgram::from_plan`]) emits the flat
//! compiled stage form the progressive runtime reorders at execution
//! time.
//!
//! Expressions are general trees; [`Expr::normalize`] rewrites them into
//! the canonical `column OP literal` conjunction the short-circuit loop
//! executes (constant folding, `NOT` pushed through comparisons and De
//! Morgan, literal-on-left swaps, single-column linear rearrangement).
//! Shapes that survive normalization without reaching that form — e.g. a
//! disjunction of two columns — are rejected at lowering with
//! [`crate::error::EngineError::UnsupportedExpr`].

use popt_storage::Table;

use crate::predicate::CompareOp;

/// A predicate expression tree over one table's columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A column reference.
    Col(String),
    /// An integer literal.
    Lit(i64),
    /// A boolean constant (the result of folding a constant comparison).
    Bool(bool),
    /// A comparison between two sub-expressions.
    Cmp(Box<Expr>, CompareOp, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Integer addition.
    Add(Box<Expr>, Box<Expr>),
    /// Integer subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Integer multiplication.
    Mul(Box<Expr>, Box<Expr>),
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::Lit(v)
    }
}

impl From<&str> for Expr {
    fn from(name: &str) -> Self {
        Expr::Col(name.to_string())
    }
}

impl Expr {
    /// A column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Col(name.into())
    }

    /// An integer literal.
    pub fn lit(v: i64) -> Expr {
        Expr::Lit(v)
    }

    /// `self < rhs`.
    pub fn less_than(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Cmp(Box::new(self), CompareOp::Lt, Box::new(rhs.into()))
    }

    /// `self <= rhs`.
    pub fn at_most(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Cmp(Box::new(self), CompareOp::Le, Box::new(rhs.into()))
    }

    /// `self > rhs`.
    pub fn greater_than(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Cmp(Box::new(self), CompareOp::Gt, Box::new(rhs.into()))
    }

    /// `self >= rhs`.
    pub fn at_least(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Cmp(Box::new(self), CompareOp::Ge, Box::new(rhs.into()))
    }

    /// `self == rhs`.
    pub fn equal_to(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Cmp(Box::new(self), CompareOp::Eq, Box::new(rhs.into()))
    }

    /// `self AND rhs`.
    pub fn and(self, rhs: impl Into<Expr>) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs.into()))
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs.into()))
    }

    /// `NOT self`.
    pub fn negate(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// `self + rhs`.
    pub fn plus(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs.into()))
    }

    /// `self - rhs`.
    pub fn minus(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs.into()))
    }

    /// `self * rhs`.
    pub fn times(self, rhs: impl Into<Expr>) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs.into()))
    }

    /// Rewrite the expression into canonical form:
    ///
    /// * constant arithmetic and constant comparisons fold to literals /
    ///   booleans;
    /// * `NOT` is pushed through comparisons ([`CompareOp::negated`]) and
    ///   conjunctions/disjunctions (De Morgan), double negation cancels;
    /// * `literal OP column` swaps to `column OP literal`
    ///   ([`CompareOp::swapped`]);
    /// * single-column linear forms rearrange onto the literal side
    ///   (`col + k OP y` → `col OP y − k`, `k − col OP y` →
    ///   `col OP.swapped k − y`), skipped on `i64` overflow;
    /// * `TRUE`/`FALSE` absorb through `AND`/`OR`.
    ///
    /// Normalization is idempotent and preserves the predicate's value on
    /// every tuple; it never errors — shapes it cannot canonicalize are
    /// left intact for lowering to reject.
    pub fn normalize(self) -> Expr {
        match self {
            Expr::Col(_) | Expr::Lit(_) | Expr::Bool(_) => self,
            Expr::Add(a, b) => fold_arith(a.normalize(), b.normalize(), Expr::Add, |x, y| {
                x.checked_add(y)
            }),
            Expr::Sub(a, b) => fold_arith(a.normalize(), b.normalize(), Expr::Sub, |x, y| {
                x.checked_sub(y)
            }),
            Expr::Mul(a, b) => fold_arith(a.normalize(), b.normalize(), Expr::Mul, |x, y| {
                x.checked_mul(y)
            }),
            Expr::Cmp(a, op, b) => normalize_cmp(a.normalize(), op, b.normalize()),
            Expr::And(a, b) => match (a.normalize(), b.normalize()) {
                (Expr::Bool(false), _) | (_, Expr::Bool(false)) => Expr::Bool(false),
                (Expr::Bool(true), e) | (e, Expr::Bool(true)) => e,
                (a, b) => Expr::And(Box::new(a), Box::new(b)),
            },
            Expr::Or(a, b) => match (a.normalize(), b.normalize()) {
                (Expr::Bool(true), _) | (_, Expr::Bool(true)) => Expr::Bool(true),
                (Expr::Bool(false), e) | (e, Expr::Bool(false)) => e,
                (a, b) => Expr::Or(Box::new(a), Box::new(b)),
            },
            Expr::Not(e) => match e.normalize() {
                Expr::Bool(b) => Expr::Bool(!b),
                Expr::Cmp(a, op, b) => Expr::Cmp(a, op.negated(), b),
                Expr::And(a, b) => Expr::Or(
                    Box::new(Expr::Not(a).normalize()),
                    Box::new(Expr::Not(b).normalize()),
                )
                .normalize(),
                Expr::Or(a, b) => Expr::And(
                    Box::new(Expr::Not(a).normalize()),
                    Box::new(Expr::Not(b).normalize()),
                )
                .normalize(),
                Expr::Not(inner) => *inner,
                other => Expr::Not(Box::new(other)),
            },
        }
    }

    /// Flatten a (normalized) conjunction into its conjuncts, in
    /// left-to-right order.
    pub fn conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// The canonical `column OP literal` view of a normalized comparison,
    /// if it has that shape.
    pub fn as_comparison(&self) -> Option<(&str, CompareOp, i64)> {
        match self {
            Expr::Cmp(lhs, op, rhs) => match (lhs.as_ref(), rhs.as_ref()) {
                (Expr::Col(name), Expr::Lit(v)) => Some((name.as_str(), *op, *v)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Column names referenced anywhere in the expression.
    pub fn columns(&self) -> Vec<&str> {
        fn walk<'e>(e: &'e Expr, out: &mut Vec<&'e str>) {
            match e {
                Expr::Col(name) => out.push(name.as_str()),
                Expr::Lit(_) | Expr::Bool(_) => {}
                Expr::Cmp(a, _, b)
                | Expr::And(a, b)
                | Expr::Or(a, b)
                | Expr::Add(a, b)
                | Expr::Sub(a, b)
                | Expr::Mul(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Expr::Not(a) => walk(a, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Human-readable rendering (for errors and plan display).
    pub fn display(&self) -> String {
        match self {
            Expr::Col(name) => name.clone(),
            Expr::Lit(v) => v.to_string(),
            Expr::Bool(b) => b.to_string().to_uppercase(),
            Expr::Cmp(a, op, b) => format!("{} {} {}", a.display(), op.symbol(), b.display()),
            Expr::And(a, b) => format!("({} AND {})", a.display(), b.display()),
            Expr::Or(a, b) => format!("({} OR {})", a.display(), b.display()),
            Expr::Not(a) => format!("NOT ({})", a.display()),
            Expr::Add(a, b) => format!("({} + {})", a.display(), b.display()),
            Expr::Sub(a, b) => format!("({} - {})", a.display(), b.display()),
            Expr::Mul(a, b) => format!("({} * {})", a.display(), b.display()),
        }
    }
}

/// Fold an arithmetic node whose children are already normalized;
/// non-foldable shapes (including `i64` overflow) are rebuilt intact.
fn fold_arith(
    a: Expr,
    b: Expr,
    rebuild: fn(Box<Expr>, Box<Expr>) -> Expr,
    fold: fn(i64, i64) -> Option<i64>,
) -> Expr {
    if let (Expr::Lit(x), Expr::Lit(y)) = (&a, &b) {
        if let Some(v) = fold(*x, *y) {
            return Expr::Lit(v);
        }
    }
    rebuild(Box::new(a), Box::new(b))
}

/// Canonicalize a comparison whose operands are already normalized.
fn normalize_cmp(lhs: Expr, op: CompareOp, rhs: Expr) -> Expr {
    match (lhs, rhs) {
        (Expr::Lit(x), Expr::Lit(y)) => Expr::Bool(op.eval(x, y)),
        // literal OP expr → expr OP.swapped literal (column on the left).
        (Expr::Lit(x), e) => normalize_cmp(e, op.swapped(), Expr::Lit(x)),
        // e + k OP y → e OP y − k (and symmetric); skipped on overflow.
        (Expr::Add(a, b), Expr::Lit(y)) => match (*a, *b) {
            (e, Expr::Lit(k)) | (Expr::Lit(k), e) => match y.checked_sub(k) {
                Some(lit) => normalize_cmp(e, op, Expr::Lit(lit)),
                None => Expr::Cmp(
                    Box::new(Expr::Add(Box::new(e), Box::new(Expr::Lit(k)))),
                    op,
                    Box::new(Expr::Lit(y)),
                ),
            },
            (a, b) => Expr::Cmp(
                Box::new(Expr::Add(Box::new(a), Box::new(b))),
                op,
                Box::new(Expr::Lit(y)),
            ),
        },
        // e − k OP y → e OP y + k; k − e OP y → e OP.swapped k − y.
        (Expr::Sub(a, b), Expr::Lit(y)) => match (*a, *b) {
            (e, Expr::Lit(k)) => match y.checked_add(k) {
                Some(lit) => normalize_cmp(e, op, Expr::Lit(lit)),
                None => Expr::Cmp(
                    Box::new(Expr::Sub(Box::new(e), Box::new(Expr::Lit(k)))),
                    op,
                    Box::new(Expr::Lit(y)),
                ),
            },
            (Expr::Lit(k), e) => match k.checked_sub(y) {
                Some(lit) => normalize_cmp(e, op.swapped(), Expr::Lit(lit)),
                None => Expr::Cmp(
                    Box::new(Expr::Sub(Box::new(Expr::Lit(k)), Box::new(e))),
                    op,
                    Box::new(Expr::Lit(y)),
                ),
            },
            (a, b) => Expr::Cmp(
                Box::new(Expr::Sub(Box::new(a), Box::new(b))),
                op,
                Box::new(Expr::Lit(y)),
            ),
        },
        (lhs, rhs) => Expr::Cmp(Box::new(lhs), op, Box::new(rhs)),
    }
}

/// One logical operator over the scanned fact table.
#[derive(Debug, Clone)]
pub enum LogicalNode<'t> {
    /// Filter the fact stream by a boolean predicate expression over
    /// fact-table columns.
    Filter {
        /// The predicate expression.
        predicate: Expr,
        /// Extra instructions charged per evaluation of each lowered
        /// conjunct (expensive predicates — UDFs, `LIKE`, …).
        extra_instructions: u64,
    },
    /// Foreign-key join filter: probe `dim` through `fk_column` and test
    /// `on` (an expression over the joined row's columns — dimension
    /// conjuncts probe, fact conjuncts are extractable filters).
    Join {
        /// The probed dimension table.
        dim: &'t Table,
        /// The foreign-key column on the fact table.
        fk_column: String,
        /// The join's filtering condition.
        on: Expr,
    },
}

impl LogicalNode<'_> {
    /// Whether this node is a foreign-key join.
    pub fn is_join(&self) -> bool {
        matches!(self, LogicalNode::Join { .. })
    }

    /// Static selectivity prior for cardinality estimation before any
    /// counters exist: a filter keeps half its input, a join probe — a
    /// validated FK hit filtered by its condition — three quarters.
    pub fn selectivity_prior(&self) -> f64 {
        match self {
            LogicalNode::Filter { .. } => 0.5,
            LogicalNode::Join { .. } => 0.75,
        }
    }
}

/// A logical query plan: scan one fact table through a sequence of
/// filter/join nodes, then aggregate. The single source every compiled
/// program is lowered from.
#[derive(Debug, Clone)]
pub struct LogicalPlan<'t> {
    pub(crate) fact: &'t Table,
    pub(crate) nodes: Vec<LogicalNode<'t>>,
    pub(crate) aggregates: Vec<String>,
    pub(crate) projection: Vec<String>,
}

impl<'t> LogicalPlan<'t> {
    /// The scanned fact table.
    pub fn fact(&self) -> &'t Table {
        self.fact
    }

    /// The filter/join nodes, in plan order.
    pub fn nodes(&self) -> &[LogicalNode<'t>] {
        &self.nodes
    }

    /// Aggregate columns summed for qualifying tuples.
    pub fn aggregates(&self) -> &[String] {
        &self.aggregates
    }

    /// Extra columns materialized for qualifying tuples.
    pub fn projection(&self) -> &[String] {
        &self.projection
    }

    /// Run the static optimizer passes ([`crate::plan::passes`]) over
    /// the plan, in their one fixed order.
    pub fn optimize(self) -> LogicalPlan<'t> {
        use super::passes::{
            constant_folding, filter_pushdown, join_condition_extraction, projection_pruning,
        };
        projection_pruning(filter_pushdown(join_condition_extraction(
            constant_folding(self),
        )))
    }

    /// Lower to the flat compiled stage form the progressive runtime
    /// executes ([`crate::exec::program::CompiledProgram`]).
    pub fn compile(&self) -> Result<crate::exec::program::CompiledProgram<'t>, crate::EngineError> {
        crate::exec::program::CompiledProgram::from_plan(self)
    }

    /// Estimated input tuples per node under the static selectivity
    /// priors: node `k` sees `rows × Π_{j<k} prior_j`. The quantity
    /// filter pushdown must never increase at any position.
    pub fn input_estimates(&self) -> Vec<f64> {
        let mut input = self.fact.rows() as f64;
        self.nodes
            .iter()
            .map(|node| {
                let seen = input;
                input *= node.selectivity_prior();
                seen
            })
            .collect()
    }
}

/// Builder for [`LogicalPlan`]: the fluent single entry door.
///
/// ```
/// use popt_core::plan::{Expr, PlanBuilder};
/// # use popt_storage::{AddressSpace, ColumnData, Table};
/// # let mut space = AddressSpace::new();
/// # let mut fact = Table::new("fact");
/// # fact.add_column("val", ColumnData::I32((0..100).collect()), &mut space);
/// let plan = PlanBuilder::scan(&fact)
///     .filter(Expr::col("val").less_than(50))
///     .aggregate("val")
///     .build();
/// let program = plan.optimize().compile().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct PlanBuilder<'t> {
    plan: LogicalPlan<'t>,
}

impl<'t> PlanBuilder<'t> {
    /// Start a plan scanning `fact`.
    pub fn scan(fact: &'t Table) -> Self {
        Self {
            plan: LogicalPlan {
                fact,
                nodes: Vec::new(),
                aggregates: Vec::new(),
                projection: Vec::new(),
            },
        }
    }

    /// Add a filter over fact-table columns.
    pub fn filter(self, predicate: impl Into<Expr>) -> Self {
        self.filter_costed(predicate, 0)
    }

    /// Add a filter whose lowered conjuncts each charge
    /// `extra_instructions` per evaluation (expensive predicates).
    pub fn filter_costed(mut self, predicate: impl Into<Expr>, extra_instructions: u64) -> Self {
        self.plan.nodes.push(LogicalNode::Filter {
            predicate: predicate.into(),
            extra_instructions,
        });
        self
    }

    /// Add a foreign-key join filter probing `dim` through `fk_column`,
    /// keeping joined rows satisfying `on`.
    pub fn join(
        mut self,
        dim: &'t Table,
        fk_column: impl Into<String>,
        on: impl Into<Expr>,
    ) -> Self {
        self.plan.nodes.push(LogicalNode::Join {
            dim,
            fk_column: fk_column.into(),
            on: on.into(),
        });
        self
    }

    /// Sum `column` (on the fact table) over qualifying tuples.
    pub fn aggregate(mut self, column: impl Into<String>) -> Self {
        self.plan.aggregates.push(column.into());
        self
    }

    /// Materialize `column` for qualifying tuples (adds a hot stream;
    /// projection pruning drops columns the stages already read).
    pub fn project(mut self, column: impl Into<String>) -> Self {
        self.plan.projection.push(column.into());
        self
    }

    /// Finish the plan. Validation happens at lowering
    /// ([`LogicalPlan::compile`]), so a builder chain itself never fails.
    pub fn build(self) -> LogicalPlan<'t> {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons_fold_and_swap() {
        assert_eq!(Expr::lit(3).less_than(4).normalize(), Expr::Bool(true));
        assert_eq!(Expr::lit(4).less_than(4).normalize(), Expr::Bool(false));
        // literal on the left swaps onto the right with the mirrored op.
        let e = Expr::lit(10).greater_than(Expr::col("a")).normalize();
        assert_eq!(e.as_comparison(), Some(("a", CompareOp::Lt, 10)));
    }

    #[test]
    fn not_pushes_through_comparisons_and_de_morgan() {
        let e = Expr::col("a").less_than(5).negate().normalize();
        assert_eq!(e.as_comparison(), Some(("a", CompareOp::Ge, 5)));
        // NOT (a < 5 OR b >= 2) → a >= 5 AND b < 2.
        let e = Expr::col("a")
            .less_than(5)
            .or(Expr::col("b").at_least(2))
            .negate()
            .normalize();
        let conjuncts = e.conjuncts();
        assert_eq!(conjuncts.len(), 2);
        assert_eq!(conjuncts[0].as_comparison(), Some(("a", CompareOp::Ge, 5)));
        assert_eq!(conjuncts[1].as_comparison(), Some(("b", CompareOp::Lt, 2)));
        // Double negation cancels.
        let e = Expr::col("a").equal_to(1).negate().negate().normalize();
        assert_eq!(e.as_comparison(), Some(("a", CompareOp::Eq, 1)));
    }

    #[test]
    fn linear_forms_rearrange_onto_the_literal() {
        // a + 2 < 5 → a < 3 (also with the constant on the left).
        let e = Expr::col("a").plus(2).less_than(5).normalize();
        assert_eq!(e.as_comparison(), Some(("a", CompareOp::Lt, 3)));
        let e = Expr::lit(2).plus(Expr::col("a")).less_than(5).normalize();
        assert_eq!(e.as_comparison(), Some(("a", CompareOp::Lt, 3)));
        // a - 2 <= 5 → a <= 7.
        let e = Expr::col("a").minus(2).at_most(5).normalize();
        assert_eq!(e.as_comparison(), Some(("a", CompareOp::Le, 7)));
        // 10 - a < 4 → a > 6 (sign flip).
        let e = Expr::lit(10).minus(Expr::col("a")).less_than(4).normalize();
        assert_eq!(e.as_comparison(), Some(("a", CompareOp::Gt, 6)));
        // Constant arithmetic folds before the comparison sees it.
        let e = Expr::col("a").equal_to(Expr::lit(2).times(3)).normalize();
        assert_eq!(e.as_comparison(), Some(("a", CompareOp::Eq, 6)));
    }

    #[test]
    fn bool_constants_absorb_through_connectives() {
        let live = Expr::col("a").less_than(1);
        assert_eq!(
            live.clone().and(Expr::lit(1).less_than(2)).normalize(),
            live.clone().normalize()
        );
        assert_eq!(
            live.clone().and(Expr::lit(2).less_than(1)).normalize(),
            Expr::Bool(false)
        );
        assert_eq!(
            live.clone().or(Expr::lit(1).less_than(2)).normalize(),
            Expr::Bool(true)
        );
        assert_eq!(
            live.clone().or(Expr::lit(2).less_than(1)).normalize(),
            live.normalize()
        );
    }

    #[test]
    fn normalize_is_idempotent() {
        let exprs = [
            Expr::col("a").plus(2).less_than(5),
            Expr::col("a")
                .less_than(5)
                .or(Expr::col("b").at_least(2))
                .negate(),
            Expr::col("a").less_than(Expr::col("b")),
            Expr::col("a").times(2).less_than(5),
        ];
        for e in exprs {
            let once = e.clone().normalize();
            assert_eq!(once.clone().normalize(), once, "{}", e.display());
        }
    }

    #[test]
    fn overflowing_rearrangement_is_left_intact() {
        // i64::MIN - 1 would overflow: keep the shape, don't wrap.
        let e = Expr::col("a").plus(1).less_than(i64::MIN).normalize();
        assert_eq!(e.as_comparison(), None);
        assert!(matches!(e, Expr::Cmp(..)));
    }

    #[test]
    fn columns_and_display_walk_the_tree() {
        let e = Expr::col("a")
            .less_than(5)
            .and(Expr::col("b").equal_to(Expr::col("c")));
        assert_eq!(e.columns(), vec!["a", "b", "c"]);
        assert_eq!(e.display(), "(a < 5 AND b = c)");
    }
}
