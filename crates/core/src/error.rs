//! Engine error type.

use std::fmt;

/// Errors surfaced by plan compilation and query execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A predicate or aggregate references a column the table lacks.
    UnknownColumn(String),
    /// A column has a type the vectorized scan cannot execute (the hot
    /// loop specializes on 32-bit columns).
    UnsupportedColumnType(String),
    /// The plan contains no predicates.
    EmptyPlan,
    /// A predicate evaluation order is not a permutation of the plan's
    /// predicates.
    InvalidPeo {
        /// Number of predicates in the plan.
        expected: usize,
        /// The offending order.
        got: Vec<usize>,
    },
    /// A vectorization parameter is zero or otherwise unusable.
    InvalidVectorConfig(String),
    /// The reoptimization interval is zero: no drive can wait zero
    /// vectors or morsels between rounds.
    ZeroReopInterval,
    /// A predicate expression has a shape the compiled stage form cannot
    /// express (e.g. a disjunction of non-constant terms, or a constant-
    /// false filter that would qualify nothing).
    UnsupportedExpr(String),
    /// A foreign-key column holds a key outside the dimension table's row
    /// range (negative or dangling), detected at join-filter construction.
    ForeignKeyOutOfRange {
        /// The offending foreign-key column.
        column: String,
        /// The first out-of-range key value.
        key: i64,
        /// Rows in the probed dimension table.
        dim_rows: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownColumn(name) => write!(f, "unknown column {name:?}"),
            EngineError::UnsupportedColumnType(name) => {
                write!(
                    f,
                    "column {name:?} has an unsupported type for vectorized scans"
                )
            }
            EngineError::EmptyPlan => write!(f, "plan has no predicates"),
            EngineError::InvalidPeo { expected, got } => {
                write!(f, "PEO {got:?} is not a permutation of 0..{expected}")
            }
            EngineError::InvalidVectorConfig(msg) => write!(f, "invalid vector config: {msg}"),
            EngineError::ZeroReopInterval => write!(f, "reop_interval must be at least 1"),
            EngineError::UnsupportedExpr(msg) => {
                write!(f, "unsupported predicate expression: {msg}")
            }
            EngineError::ForeignKeyOutOfRange {
                column,
                key,
                dim_rows,
            } => {
                write!(
                    f,
                    "foreign key column {column:?} holds key {key} outside the \
                     dimension's 0..{dim_rows} row range"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EngineError::UnknownColumn("l_foo".into());
        assert!(e.to_string().contains("l_foo"));
        let e = EngineError::InvalidPeo {
            expected: 3,
            got: vec![0, 0, 2],
        };
        assert!(e.to_string().contains("0..3"));
    }
}
