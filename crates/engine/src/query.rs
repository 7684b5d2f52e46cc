//! Select-project-join query representation.
//!
//! The workloads of the paper are SPJ queries over the TPC-H-like schema:
//! a set of tables, equi-join predicates between them, and single-column
//! selection predicates (equality or range). This is exactly the query
//! shape COLT mines for candidate indices, so the AST stores predicates
//! in terms of [`ColRef`]s.

use colt_catalog::{ColRef, TableId};
use colt_storage::Value;
use std::fmt;
use std::ops::Bound;

/// One bound of a range predicate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RangeBound {
    /// The bounding value.
    pub value: Value,
    /// Whether the bound itself is included.
    pub inclusive: bool,
}

impl RangeBound {
    /// One side of a range predicate as a [`Bound`] on the literal.
    pub fn as_bound(side: &Option<RangeBound>) -> Bound<&Value> {
        match side {
            Some(b) if b.inclusive => Bound::Included(&b.value),
            Some(b) => Bound::Excluded(&b.value),
            None => Bound::Unbounded,
        }
    }
}

/// The comparison applied by a selection predicate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PredicateKind {
    /// `col = value`
    Eq(Value),
    /// `col IN (v1, v2, …)` — a disjunction of equalities.
    In(Vec<Value>),
    /// `lo (<|<=) col (<|<=) hi`; either side may be absent.
    Range {
        /// Lower bound, if any.
        lo: Option<RangeBound>,
        /// Upper bound, if any.
        hi: Option<RangeBound>,
    },
}

/// A single-column selection predicate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SelPred {
    /// The restricted column.
    pub col: ColRef,
    /// The comparison.
    pub kind: PredicateKind,
}

impl SelPred {
    /// Equality predicate `col = v`.
    pub fn eq(col: ColRef, v: impl Into<Value>) -> Self {
        SelPred {
            col,
            kind: PredicateKind::Eq(v.into()),
        }
    }

    /// Closed range predicate `lo <= col <= hi`.
    pub fn between(col: ColRef, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        SelPred {
            col,
            kind: PredicateKind::Range {
                lo: Some(RangeBound {
                    value: lo.into(),
                    inclusive: true,
                }),
                hi: Some(RangeBound {
                    value: hi.into(),
                    inclusive: true,
                }),
            },
        }
    }

    /// One-sided range `col >= lo` (inclusive).
    pub fn ge(col: ColRef, lo: impl Into<Value>) -> Self {
        SelPred {
            col,
            kind: PredicateKind::Range {
                lo: Some(RangeBound {
                    value: lo.into(),
                    inclusive: true,
                }),
                hi: None,
            },
        }
    }

    /// One-sided range `col <= hi` (inclusive).
    pub fn le(col: ColRef, hi: impl Into<Value>) -> Self {
        SelPred {
            col,
            kind: PredicateKind::Range {
                lo: None,
                hi: Some(RangeBound {
                    value: hi.into(),
                    inclusive: true,
                }),
            },
        }
    }

    /// `col IN (…)` predicate; duplicates in the list are removed.
    pub fn is_in(col: ColRef, values: Vec<Value>) -> Self {
        let mut values = values;
        values.sort();
        values.dedup();
        SelPred { col, kind: PredicateKind::In(values) }
    }

    /// Does a row value satisfy the predicate?
    pub fn matches(&self, v: &Value) -> bool {
        match &self.kind {
            PredicateKind::Eq(target) => v == target,
            PredicateKind::In(values) => values.binary_search(v).is_ok(),
            PredicateKind::Range { lo, hi } => {
                let lo_ok = lo.as_ref().is_none_or(|b| {
                    if b.inclusive {
                        v >= &b.value
                    } else {
                        v > &b.value
                    }
                });
                let hi_ok = hi.as_ref().is_none_or(|b| {
                    if b.inclusive {
                        v <= &b.value
                    } else {
                        v < &b.value
                    }
                });
                lo_ok && hi_ok
            }
        }
    }
}

/// An equi-join predicate `left = right` between columns of two tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JoinPred {
    /// Column of the first table.
    pub left: ColRef,
    /// Column of the second table.
    pub right: ColRef,
}

impl JoinPred {
    /// Construct a join predicate, normalizing operand order so that the
    /// smaller column reference comes first (joins are symmetric).
    pub fn new(a: ColRef, b: ColRef) -> Self {
        if a <= b {
            JoinPred { left: a, right: b }
        } else {
            JoinPred { left: b, right: a }
        }
    }

    /// The side of the join on `table`, if any.
    pub fn side_on(&self, table: TableId) -> Option<ColRef> {
        if self.left.table == table {
            Some(self.left)
        } else if self.right.table == table {
            Some(self.right)
        } else {
            None
        }
    }
}

/// A select-project-join query.
///
/// `Ord` compares the full structure — tables, joins, selections *and*
/// literal values — so a query can key deterministic ordered maps (the
/// what-if memo cache relies on this: two queries compare equal exactly
/// when the optimizer would derive identical state for them).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Query {
    /// Referenced tables (no duplicates; self-joins are out of scope, as
    /// in the paper's workloads).
    pub tables: Vec<TableId>,
    /// Equi-join predicates connecting the tables.
    pub joins: Vec<JoinPred>,
    /// Selection predicates.
    pub selections: Vec<SelPred>,
}

impl Query {
    /// Single-table query with the given selections.
    pub fn single(table: TableId, selections: Vec<SelPred>) -> Self {
        Query {
            tables: vec![table],
            joins: Vec::new(),
            selections,
        }
    }

    /// Multi-table query.
    pub fn join(tables: Vec<TableId>, joins: Vec<JoinPred>, selections: Vec<SelPred>) -> Self {
        Query {
            tables,
            joins,
            selections,
        }
    }

    /// Selections restricted to one table.
    pub fn selections_on(&self, table: TableId) -> impl Iterator<Item = &SelPred> + '_ {
        self.selections.iter().filter(move |p| p.col.table == table)
    }

    /// All columns restricted by selection predicates — these are COLT's
    /// candidate indices for this query (paper §3: candidates are mined
    /// from selection predicates).
    pub fn candidate_columns(&self) -> Vec<ColRef> {
        let mut cols: Vec<ColRef> = self.selections.iter().map(|p| p.col).collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Basic well-formedness: unique tables, predicates reference only
    /// listed tables, joins connect listed tables.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = self.tables.clone();
        seen.sort_unstable();
        let n_unique = {
            let mut s = seen.clone();
            s.dedup();
            s.len()
        };
        if n_unique != self.tables.len() {
            return Err("duplicate table references".into());
        }
        if self.tables.is_empty() {
            return Err("query references no tables".into());
        }
        for p in &self.selections {
            if !self.tables.contains(&p.col.table) {
                return Err(format!("selection on unlisted table {:?}", p.col.table));
            }
        }
        for j in &self.joins {
            if !self.tables.contains(&j.left.table) || !self.tables.contains(&j.right.table) {
                return Err("join touches unlisted table".into());
            }
            if j.left.table == j.right.table {
                return Err("self-join predicates are out of scope".into());
            }
        }
        Ok(())
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT * FROM ")?;
        for (i, t) in self.tables.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "t{}", t.0)?;
        }
        if !self.joins.is_empty() || !self.selections.is_empty() {
            write!(f, " WHERE ")?;
        }
        let mut first = true;
        for j in &self.joins {
            if !first {
                write!(f, " AND ")?;
            }
            first = false;
            write!(f, "{} = {}", j.left, j.right)?;
        }
        for p in &self.selections {
            if !first {
                write!(f, " AND ")?;
            }
            first = false;
            match &p.kind {
                PredicateKind::Eq(v) => write!(f, "{} = {}", p.col, v)?,
                PredicateKind::In(vs) => {
                    write!(f, "{} IN (", p.col)?;
                    for (i, v) in vs.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{v}")?;
                    }
                    write!(f, ")")?;
                }
                PredicateKind::Range { lo, hi } => {
                    match (lo, hi) {
                        (Some(l), Some(h)) => write!(
                            f,
                            "{} {} {} AND {} {} {}",
                            l.value,
                            if l.inclusive { "<=" } else { "<" },
                            p.col,
                            p.col,
                            if h.inclusive { "<=" } else { "<" },
                            h.value
                        )?,
                        (Some(l), None) => write!(
                            f,
                            "{} {} {}",
                            p.col,
                            if l.inclusive { ">=" } else { ">" },
                            l.value
                        )?,
                        (None, Some(h)) => write!(
                            f,
                            "{} {} {}",
                            p.col,
                            if h.inclusive { "<=" } else { "<" },
                            h.value
                        )?,
                        (None, None) => write!(f, "TRUE")?,
                    };
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(t: u32, col: u32) -> ColRef {
        ColRef::new(TableId(t), col)
    }

    #[test]
    fn eq_predicate_matches() {
        let p = SelPred::eq(c(0, 0), 5i64);
        assert!(p.matches(&Value::Int(5)));
        assert!(!p.matches(&Value::Int(6)));
    }

    #[test]
    fn range_predicate_bounds() {
        let p = SelPred::between(c(0, 0), 10i64, 20i64);
        assert!(p.matches(&Value::Int(10)));
        assert!(p.matches(&Value::Int(20)));
        assert!(!p.matches(&Value::Int(9)));
        assert!(!p.matches(&Value::Int(21)));

        let ge = SelPred::ge(c(0, 0), 100i64);
        assert!(ge.matches(&Value::Int(100)));
        assert!(!ge.matches(&Value::Int(99)));

        let le = SelPred::le(c(0, 0), 0i64);
        assert!(le.matches(&Value::Int(0)));
        assert!(!le.matches(&Value::Int(1)));
    }

    #[test]
    fn in_predicate_matches_and_dedups() {
        let p = SelPred::is_in(c(0, 0), vec![Value::Int(3), Value::Int(1), Value::Int(3)]);
        let PredicateKind::In(vs) = &p.kind else { panic!() };
        assert_eq!(vs.len(), 2, "deduplicated and sorted");
        assert!(p.matches(&Value::Int(1)));
        assert!(p.matches(&Value::Int(3)));
        assert!(!p.matches(&Value::Int(2)));
    }

    #[test]
    fn join_pred_normalizes_order() {
        let j1 = JoinPred::new(c(1, 0), c(0, 2));
        let j2 = JoinPred::new(c(0, 2), c(1, 0));
        assert_eq!(j1, j2);
        assert_eq!(j1.left.table, TableId(0));
        assert_eq!(j1.side_on(TableId(1)), Some(c(1, 0)));
        assert_eq!(j1.side_on(TableId(5)), None);
    }

    #[test]
    fn candidate_columns_dedup_sorted() {
        let q = Query::single(
            TableId(0),
            vec![
                SelPred::eq(c(0, 2), 1i64),
                SelPred::eq(c(0, 1), 2i64),
                SelPred::ge(c(0, 2), 0i64),
            ],
        );
        assert_eq!(q.candidate_columns(), vec![c(0, 1), c(0, 2)]);
    }

    #[test]
    fn validate_catches_malformed_queries() {
        assert!(Query::single(TableId(0), vec![]).validate().is_ok());
        let bad_sel = Query::single(TableId(0), vec![SelPred::eq(c(1, 0), 1i64)]);
        assert!(bad_sel.validate().is_err());
        let dup = Query::join(vec![TableId(0), TableId(0)], vec![], vec![]);
        assert!(dup.validate().is_err());
        let self_join = Query::join(
            vec![TableId(0), TableId(1)],
            vec![JoinPred {
                left: c(0, 0),
                right: c(0, 1),
            }],
            vec![],
        );
        assert!(self_join.validate().is_err());
        let empty = Query {
            tables: vec![],
            joins: vec![],
            selections: vec![],
        };
        assert!(empty.validate().is_err());
    }

    #[test]
    fn display_renders_sql_shape() {
        let q = Query::join(
            vec![TableId(0), TableId(1)],
            vec![JoinPred::new(c(0, 0), c(1, 1))],
            vec![
                SelPred::eq(c(0, 2), 7i64),
                SelPred::between(c(1, 0), 1i64, 5i64),
            ],
        );
        let s = q.to_string();
        assert!(s.contains("FROM t0, t1"), "{s}");
        assert!(s.contains("t0.c0 = t1.c1"), "{s}");
        assert!(s.contains("t0.c2 = 7"), "{s}");
    }
}
