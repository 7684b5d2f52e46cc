//! Typed execution errors, shared by every operator module.
//!
//! The executor trusts the optimizer for *physical* facts it can check
//! cheaply elsewhere, but hand-built plans are part of the public API,
//! so every structural contradiction a caller can construct by hand
//! surfaces as a typed error instead of a panic: join keys referencing
//! absent tables, column references beyond a table's arity, plan nodes
//! that name indexes the physical configuration has not materialized,
//! and indexes built before their table gained rows. A panic inside the
//! tuner would kill a whole parallel batch; an `ExecError` propagates to
//! the harness cell that issued the query.

use colt_catalog::{ColRef, TableId};

/// A plan/input mismatch detected during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// A join predicate references a table absent from the operator's
    /// input batch: the plan's join tree does not cover the predicate.
    JoinKeyTableMissing {
        /// Operator that detected the mismatch.
        operator: &'static str,
        /// The table the join key references.
        table: TableId,
    },
    /// A predicate or join key references a column beyond
    /// its table's arity (or a table absent from the output layout).
    UnknownColRef {
        /// Operator that detected the mismatch.
        operator: &'static str,
        /// The out-of-range column reference.
        col: ColRef,
    },
    /// The plan scans or probes an index the physical configuration has
    /// not materialized.
    UnmaterializedIndex {
        /// Operator that detected the mismatch.
        operator: &'static str,
        /// The index column the plan names.
        col: ColRef,
    },
    /// An index scan node carries no predicate of the kind
    /// that justified choosing that access path (equality/range driver).
    MissingDriverPredicate {
        /// Operator that detected the mismatch.
        operator: &'static str,
        /// The column the scan was supposed to be driven by.
        col: ColRef,
    },
    /// The plan reads an index built before its table gained rows: it
    /// misses them, and may key ranks since re-assigned.
    StaleIndex {
        /// The index column.
        col: ColRef,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::JoinKeyTableMissing { operator, table } => write!(
                f,
                "{operator}: join key references table t{} absent from the input batch",
                table.0
            ),
            ExecError::UnknownColRef { operator, col } => {
                write!(f, "{operator}: column {col} is not part of the operator's input")
            }
            ExecError::UnmaterializedIndex { operator, col } => {
                write!(f, "{operator}: plan uses unmaterialized index {col}")
            }
            ExecError::MissingDriverPredicate { operator, col } => {
                write!(f, "{operator}: scan on {col} has no driving predicate of the planned kind")
            }
            ExecError::StaleIndex { col } => write!(f, "index {col} predates rows of its table"),
        }
    }
}

impl std::error::Error for ExecError {}
