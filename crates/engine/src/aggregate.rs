//! Hash aggregation over query results.
//!
//! The paper's workloads are `SELECT *` SPJ queries, but the interactive
//! analysis scenario that motivates on-line tuning is full of
//! aggregates. This module adds a grouping/aggregation operator that
//! runs on top of any physical plan: `COUNT`, `SUM`, `AVG`, `MIN`, `MAX`
//! with an optional `GROUP BY` list. Aggregation never changes which
//! indices help a query (it consumes the join result), so it composes
//! with the tuner without touching it.
//!
//! The operator consumes the plan's [`crate::batch::ColumnBatch`]es
//! directly — group keys and aggregate inputs are read column-at-a-time
//! from each batch, without materializing row-major tuples first.

use crate::batch::{KeyHash, TableLayout};
use crate::error::ExecError;
use crate::executor::{col_set, Executor, QueryResult};
use crate::plan::Plan;
use crate::query::Query;
use colt_catalog::ColRef;
use colt_storage::{IoStats, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// An aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Row count (ignores its column when `None`).
    Count,
    /// Sum of a numeric column.
    Sum,
    /// Arithmetic mean of a numeric column.
    Avg,
    /// Minimum value.
    Min,
    /// Maximum value.
    Max,
}

/// One aggregate expression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggExpr {
    /// The function.
    pub func: AggFunc,
    /// The aggregated column; `None` only for `COUNT(*)`.
    pub col: Option<ColRef>,
}

impl AggExpr {
    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        AggExpr { func: AggFunc::Count, col: None }
    }

    /// An aggregate over a column.
    pub fn over(func: AggFunc, col: ColRef) -> Self {
        AggExpr { func, col: Some(col) }
    }
}

/// A grouping + aggregation specification.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Grouping columns (empty for a single global group).
    pub group_by: Vec<ColRef>,
    /// Aggregates to compute per group.
    pub exprs: Vec<AggExpr>,
}

/// Streaming accumulator for one aggregate in one group. Shared with the
/// row-at-a-time reference executor so both paths fold identically.
#[derive(Debug, Clone)]
pub(crate) enum Acc {
    Count(u64),
    Sum(f64),
    Avg { sum: f64, n: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
}

impl Acc {
    pub(crate) fn new(func: AggFunc) -> Self {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum(0.0),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    pub(crate) fn feed(&mut self, v: Option<&Value>) {
        match self {
            Acc::Count(n) => *n += 1,
            // colt: allow(panic-policy) — AggExpr::over pairs every non-COUNT function with a column
            Acc::Sum(s) => *s += v.expect("SUM needs a column").as_f64(),
            Acc::Avg { sum, n } => {
                // colt: allow(panic-policy) — AggExpr::over pairs every non-COUNT function with a column
                *sum += v.expect("AVG needs a column").as_f64();
                *n += 1;
            }
            Acc::Min(cur) => {
                // colt: allow(panic-policy) — AggExpr::over pairs every non-COUNT function with a column
                let v = v.expect("MIN needs a column");
                if cur.as_ref().is_none_or(|c| v < c) {
                    *cur = Some(v.clone());
                }
            }
            Acc::Max(cur) => {
                // colt: allow(panic-policy) — AggExpr::over pairs every non-COUNT function with a column
                let v = v.expect("MAX needs a column");
                if cur.as_ref().is_none_or(|c| v > c) {
                    *cur = Some(v.clone());
                }
            }
        }
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n as i64),
            Acc::Sum(s) => Value::Float(s),
            Acc::Avg { sum, n } => Value::Float(if n == 0 { 0.0 } else { sum / n as f64 }),
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Int(0)),
        }
    }
}

/// Resolve a column reference against the plan's output layout,
/// rejecting references the layout cannot satisfy instead of letting
/// them index out of bounds deep inside the fold loop.
fn resolve(
    db: &colt_catalog::Database,
    layout: &TableLayout,
    c: ColRef,
) -> Result<usize, ExecError> {
    let pos =
        layout.col_of(c).ok_or(ExecError::UnknownColRef { operator: "aggregate", col: c })?;
    if c.column as usize >= db.table(c.table).schema.arity() {
        return Err(ExecError::UnknownColRef { operator: "aggregate", col: c });
    }
    Ok(pos)
}

/// Resolve a spec's group-by and aggregate columns against a layout.
#[allow(clippy::type_complexity)]
fn resolve_spec(
    db: &colt_catalog::Database,
    layout: &TableLayout,
    spec: &AggSpec,
) -> Result<(Vec<usize>, Vec<Option<usize>>), ExecError> {
    let group_pos = spec
        .group_by
        .iter()
        .map(|&c| resolve(db, layout, c))
        .collect::<Result<_, ExecError>>()?;
    let agg_pos = spec
        .exprs
        .iter()
        .map(|e| e.col.map(|c| resolve(db, layout, c)).transpose())
        .collect::<Result<_, ExecError>>()?;
    Ok((group_pos, agg_pos))
}

impl<'a> Executor<'a> {
    /// Execute a plan and aggregate its result per `spec`. Output rows
    /// are `group_by` values followed by one value per aggregate, in
    /// deterministic group order. With an empty `group_by`, exactly one
    /// row is produced (even over an empty input, as in SQL).
    pub fn execute_aggregate(
        &self,
        query: &Query,
        plan: &Plan,
        spec: &AggSpec,
    ) -> Result<(QueryResult, Vec<Vec<Value>>), ExecError> {
        let mut io = IoStats::new();
        let db = self.database();
        // The fold's column needs push down through the whole plan:
        // only group-by and aggregate input columns (plus, inside the
        // plan, each join's own keys) are ever materialized. Charges
        // are identical either way; pushdown only skips value clones.
        let layout = TableLayout::of_plan(db, &plan.root);
        let (group_pos, agg_pos) = resolve_spec(db, &layout, spec)?;
        let needed = col_set(group_pos.iter().copied().chain(agg_pos.iter().flatten().copied()));
        let input = self.run(query, &plan.root, &mut io, &needed)?;

        // Group lookup is hash-based, key column at a time, mirroring the
        // hash-join build phase. Deliberately HashMaps: point-lookup only
        // — never iterated — each maps a key to its index in the `keys` /
        // `groups` side tables, and emission sorts `keys`, so no hash
        // order can reach the result. (colt-analyze's hash-iteration lint
        // verifies the "never iterated" part, which is also what makes
        // the fixed-seed `KeyHash` safe.) Single-column keys borrow the
        // batch value and skip the per-row key Vec entirely; a group's key
        // is cloned once, on first sight.
        let _batch_span = colt_obs::span("engine.exec.batch");
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let mut groups: Vec<Vec<Acc>> = Vec::new();
        if spec.group_by.is_empty() {
            keys.push(Vec::new());
            groups.push(spec.exprs.iter().map(|e| Acc::new(e.func)).collect());
        }
        let mut single: HashMap<&Value, usize, KeyHash> = HashMap::default();
        let mut multi: HashMap<Vec<Value>, usize, KeyHash> = HashMap::default();
        if needed.is_empty() {
            // Only a global COUNT(*) reads no column at all: its input
            // arrives as a bare count, with no batches to walk.
            for _ in 0..input.count {
                groups[0].iter_mut().for_each(|acc| acc.feed(None));
            }
            io.cpu_ops += input.count * (spec.exprs.len() as u64 + 1);
        }
        for b in &input.batches {
            for r in b.live() {
                let g = if spec.group_by.is_empty() {
                    0
                } else if let [key_pos] = group_pos[..] {
                    *single.entry(b.val(key_pos, r)).or_insert_with_key(|&v| {
                        keys.push(vec![v.clone()]);
                        groups.push(spec.exprs.iter().map(|e| Acc::new(e.func)).collect());
                        groups.len() - 1
                    })
                } else {
                    let key: Vec<Value> =
                        group_pos.iter().map(|&p| b.val(p, r).clone()).collect();
                    match multi.entry(key) {
                        Entry::Occupied(o) => *o.get(),
                        Entry::Vacant(v) => {
                            keys.push(v.key().clone());
                            groups.push(spec.exprs.iter().map(|e| Acc::new(e.func)).collect());
                            *v.insert(groups.len() - 1)
                        }
                    }
                };
                for (acc, pos) in groups[g].iter_mut().zip(&agg_pos) {
                    acc.feed(pos.map(|p| b.val(p, r)));
                }
                io.cpu_ops += spec.exprs.len() as u64 + 1;
            }
        }

        // Group keys are unique, so sorting the side tables by key gives
        // the same emission order the old BTreeMap fold produced.
        let mut pairs: Vec<(Vec<Value>, Vec<Acc>)> = keys.into_iter().zip(groups).collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let out: Vec<Vec<Value>> = pairs
            .into_iter()
            .map(|(mut key, accs)| {
                key.extend(accs.into_iter().map(Acc::finish));
                key
            })
            .collect();
        Ok((
            QueryResult {
                row_count: out.len() as u64,
                millis: db.cost.millis_of(&io),
                io,
            },
            out,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{IndexSetView, Optimizer};
    use crate::query::SelPred;
    use colt_catalog::{Column, Database, PhysicalConfig, TableId, TableSchema};
    use colt_storage::{row_from, ValueType};

    fn setup() -> (Database, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableSchema::new(
            "sales",
            vec![
                Column::new("id", ValueType::Int),
                Column::new("region", ValueType::Int),
                Column::new("amount", ValueType::Float),
            ],
        ));
        db.insert_rows(
            t,
            (0..1_000i64).map(|i| {
                row_from(vec![Value::Int(i), Value::Int(i % 4), Value::Float((i % 10) as f64)])
            }),
        ).unwrap();
        db.analyze_all();
        (db, t)
    }

    fn run(db: &Database, q: &Query, spec: &AggSpec) -> Vec<Vec<Value>> {
        let cfg = PhysicalConfig::new();
        let plan = Optimizer::new(db).optimize(q, IndexSetView::real(&cfg));
        Executor::new(db, &cfg).execute_aggregate(q, &plan, spec).unwrap().1
    }

    #[test]
    fn count_star_grouped() {
        let (db, t) = setup();
        let q = Query::single(t, vec![]);
        let spec =
            AggSpec { group_by: vec![ColRef::new(t, 1)], exprs: vec![AggExpr::count_star()] };
        let rows = run(&db, &q, &spec);
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert_eq!(r[1], Value::Int(250));
        }
    }

    #[test]
    fn sum_avg_min_max() {
        let (db, t) = setup();
        let amount = ColRef::new(t, 2);
        let q = Query::single(t, vec![]);
        let spec = AggSpec {
            group_by: vec![],
            exprs: vec![
                AggExpr::over(AggFunc::Sum, amount),
                AggExpr::over(AggFunc::Avg, amount),
                AggExpr::over(AggFunc::Min, amount),
                AggExpr::over(AggFunc::Max, amount),
            ],
        };
        let rows = run(&db, &q, &spec);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], Value::Float(4_500.0));
        assert_eq!(rows[0][1], Value::Float(4.5));
        assert_eq!(rows[0][2], Value::Float(0.0));
        assert_eq!(rows[0][3], Value::Float(9.0));
    }

    #[test]
    fn aggregation_respects_filters() {
        let (db, t) = setup();
        let q = Query::single(t, vec![SelPred::eq(ColRef::new(t, 1), 2i64)]);
        let spec = AggSpec { group_by: vec![], exprs: vec![AggExpr::count_star()] };
        let rows = run(&db, &q, &spec);
        assert_eq!(rows[0][0], Value::Int(250));
    }

    #[test]
    fn empty_input_global_group() {
        let (db, t) = setup();
        let q = Query::single(t, vec![SelPred::eq(ColRef::new(t, 0), -1i64)]);
        let spec = AggSpec { group_by: vec![], exprs: vec![AggExpr::count_star()] };
        let rows = run(&db, &q, &spec);
        assert_eq!(rows, vec![vec![Value::Int(0)]], "COUNT(*) over empty input is 0");
        // With grouping, an empty input yields no groups.
        let spec =
            AggSpec { group_by: vec![ColRef::new(t, 1)], exprs: vec![AggExpr::count_star()] };
        assert!(run(&db, &q, &spec).is_empty());
    }

    #[test]
    fn grouped_output_is_sorted_and_deterministic() {
        let (db, t) = setup();
        let q = Query::single(t, vec![]);
        let spec = AggSpec {
            group_by: vec![ColRef::new(t, 1)],
            exprs: vec![AggExpr::over(AggFunc::Max, ColRef::new(t, 0))],
        };
        let a = run(&db, &q, &spec);
        let b = run(&db, &q, &spec);
        assert_eq!(a, b);
        let keys: Vec<&Value> = a.iter().map(|r| &r[0]).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn unknown_aggregate_column_is_typed_error() {
        // A spec referencing a table absent from the plan output (or a
        // column past the table's arity) used to panic inside offset
        // resolution; both now surface as ExecError::UnknownColRef.
        let (db, t) = setup();
        let q = Query::single(t, vec![]);
        let cfg = PhysicalConfig::new();
        let plan = Optimizer::new(&db).optimize(&q, IndexSetView::real(&cfg));
        let stray = ColRef::new(TableId(99), 0);
        let spec = AggSpec { group_by: vec![stray], exprs: vec![AggExpr::count_star()] };
        let err = Executor::new(&db, &cfg).execute_aggregate(&q, &plan, &spec).unwrap_err();
        assert_eq!(err, ExecError::UnknownColRef { operator: "aggregate", col: stray });
        let wide = ColRef::new(t, 7);
        let spec =
            AggSpec { group_by: vec![], exprs: vec![AggExpr::over(AggFunc::Sum, wide)] };
        let err = Executor::new(&db, &cfg).execute_aggregate(&q, &plan, &spec).unwrap_err();
        assert_eq!(err, ExecError::UnknownColRef { operator: "aggregate", col: wide });
    }
}
