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
//! The operator consumes the plan's row ids directly — group keys and
//! aggregate inputs are read from the heap columns through them, and
//! only a group's key (once) and an aggregate's input become values.

use crate::batch::{hash_keys, keys_eq, Chains, KeyCol, TableLayout};
use crate::error::ExecError;
use crate::executor::{Executor, QueryResult};
use crate::plan::Plan;
use crate::query::Query;
use colt_catalog::ColRef;
use colt_storage::{IoStats, Value};

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

    /// Fold one input row in. `v` is `None` only for `COUNT(*)`:
    /// [`AggSpec::check`] rejects every other column-less aggregate
    /// before a fold starts, so the last arm is never the answer.
    pub(crate) fn feed(&mut self, v: Option<&Value>) {
        match (self, v) {
            (Acc::Count(n), _) => *n += 1,
            (Acc::Sum(s), Some(v)) => *s += v.as_f64(),
            (Acc::Avg { sum, n }, Some(v)) => {
                *sum += v.as_f64();
                *n += 1;
            }
            (Acc::Min(cur), Some(v)) => {
                if cur.as_ref().is_none_or(|c| v < c) {
                    *cur = Some(v.clone());
                }
            }
            (Acc::Max(cur), Some(v)) => {
                if cur.as_ref().is_none_or(|c| v > c) {
                    *cur = Some(v.clone());
                }
            }
            (_, None) => {}
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

impl AggSpec {
    /// Reject an aggregate that needs a column and names none. The
    /// fields are public, so `AggExpr { func: Sum, col: None }` can be
    /// written; only [`AggExpr::over`] and [`AggExpr::count_star`]
    /// cannot produce it.
    pub(crate) fn check(&self) -> Result<(), ExecError> {
        match self.exprs.iter().position(|e| e.func != AggFunc::Count && e.col.is_none()) {
            Some(expr) => Err(ExecError::AggregateWithoutColumn { expr }),
            None => Ok(()),
        }
    }
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
        spec.check()?;
        // Resolve every column against the plan's output layout first:
        // a reference it cannot satisfy is an error here, not an index
        // out of bounds deep inside the fold loop.
        let layout = TableLayout::of_plan(db, &plan.root);
        let resolve = |col: ColRef| {
            self.key_column("aggregate", &layout, col)
                .map_err(|_| ExecError::UnknownColRef { operator: "aggregate", col })
        };
        let group_cols =
            spec.group_by.iter().map(|&c| resolve(c)).collect::<Result<Vec<_>, ExecError>>()?;
        let agg_cols = (spec.exprs.iter())
            .map(|e| e.col.map(resolve).transpose())
            .collect::<Result<Vec<_>, ExecError>>()?;
        let input = self.run(query, &plan.root, &mut io, true)?;

        let _batch_span = colt_obs::span("engine.exec.batch");
        let rows = input.count() as usize;
        let group_keys: Vec<KeyCol<'_>> =
            group_cols.into_iter().map(|c| input.key_col(c)).collect();
        let agg_inputs: Vec<Option<KeyCol<'_>>> =
            agg_cols.into_iter().map(|c| c.map(|c| input.key_col(c))).collect();

        // Grouping is the hash join's build phase over the input's own
        // rows: chained by key hash in row order, so the first row of a
        // chain that equals row `r` on every key column is the row that
        // opened `r`'s group. Emission sorts the groups by key, so no
        // hash can reach the result. A global aggregate chains nothing.
        let grouped = !group_keys.is_empty();
        let mut hashes = Vec::new();
        if grouped {
            hash_keys(&group_keys, 0..rows, &mut hashes);
        }
        // The group each opening row opened.
        let mut opened: Vec<usize> = vec![0; hashes.len()];
        let chains = Chains::build(hashes);
        let mut keys: Vec<Vec<Value>> = Vec::new();
        let mut groups: Vec<Vec<Acc>> = Vec::new();
        let new_group = || spec.exprs.iter().map(|e| Acc::new(e.func)).collect::<Vec<Acc>>();
        if !grouped {
            keys.push(Vec::new());
            groups.push(new_group());
        }
        for r in 0..rows {
            let g = if !grouped {
                0
            } else {
                let first = (chains.candidates(chains.hash_of(r)))
                    .find(|&c| keys_eq(&group_keys, c, &group_keys, r))
                    .unwrap_or(r);
                if first == r {
                    opened[r] = groups.len();
                    keys.push(group_keys.iter().filter_map(|k| k.value(r)).collect());
                    groups.push(new_group());
                }
                opened[first]
            };
            for (acc, input) in groups[g].iter_mut().zip(&agg_inputs) {
                acc.feed(input.and_then(|k| k.value(r)).as_ref());
            }
            io.cpu_ops += spec.exprs.len() as u64 + 1;
        }
        colt_obs::counter(
            "engine.exec.values_materialized",
            (keys.len() * group_keys.len() + rows * agg_inputs.iter().flatten().count()) as u64,
        );

        // Group keys are unique, so sorting the side tables by key gives
        // the same emission order the reference's BTreeMap fold produces.
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

    #[test]
    fn column_less_aggregate_is_typed_error_not_panic() {
        // Regression: `AggExpr`'s fields are public, so SUM / AVG / MIN
        // / MAX without a column can be written by hand; it used to get
        // past resolution and die on an `expect` inside the fold.
        use crate::rowwise::RowwiseExecutor;
        let (db, t) = setup();
        let q = Query::single(t, vec![]);
        let cfg = PhysicalConfig::new();
        let plan = Optimizer::new(&db).optimize(&q, IndexSetView::real(&cfg));
        for func in [AggFunc::Sum, AggFunc::Avg, AggFunc::Min, AggFunc::Max] {
            let spec = AggSpec {
                group_by: vec![ColRef::new(t, 1)],
                exprs: vec![AggExpr::count_star(), AggExpr { func, col: None }],
            };
            let want = ExecError::AggregateWithoutColumn { expr: 1 };
            let err = Executor::new(&db, &cfg).execute_aggregate(&q, &plan, &spec).unwrap_err();
            assert_eq!(err, want, "{func:?}");
            let err =
                RowwiseExecutor::new(&db, &cfg).execute_aggregate(&q, &plan, &spec).unwrap_err();
            assert_eq!(err, want, "{func:?} rowwise");
            assert!(err.to_string().contains("names no column"), "{err}");
        }
        // `COUNT` over nothing is `COUNT(*)`, and the fold itself is total.
        let spec = AggSpec {
            group_by: vec![],
            exprs: vec![AggExpr { func: AggFunc::Count, col: None }],
        };
        assert_eq!(run(&db, &q, &spec), vec![vec![Value::Int(1_000)]]);
        let mut acc = Acc::new(AggFunc::Max);
        acc.feed(None);
        assert_eq!(acc.finish(), Value::Int(0));
    }
}
