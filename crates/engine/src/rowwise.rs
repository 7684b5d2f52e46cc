//! Row-at-a-time reference executor.
//!
//! The straight-line tuple-at-a-time implementation the vectorized
//! executor replaced, kept as an executable specification: it shares
//! the rowid-collection helpers (and therefore the exact `IoStats`
//! charges) with [`crate::executor::Executor`], but processes one
//! row-major `Vec<Value>` at a time — every heap row materialized from
//! the column store, every predicate through [`SelPred::matches`] —
//! with no batching, no selection vectors, no compiled kernels, and no
//! late materialization. The engine property tests
//! assert both executors produce identical results, charges, and row
//! order on random queries; `benches/perf`'s oracle rounds re-check the
//! row counts on every workload.
//!
//! Deliberately *not* instrumented: no `colt_obs` counters or spans, so
//! running the reference never perturbs observability snapshots the
//! exhibits assert on.

use crate::error::ExecError;
use crate::executor::{
    check_pred_cols, composite_scan_rowids, index_scan_rowids, materialized_index, Collect,
    ExecOutput, QueryResult,
};
use crate::plan::{AccessPath, Plan, PlanNode};
use crate::query::{Query, SelPred};
use colt_catalog::{ColRef, Database, PhysicalConfig, TableId};
use colt_storage::{literal_code, IoStats, Value};
use std::collections::HashMap;

/// Rows flowing between operators: the source table of each column slice
/// is tracked so join keys can be located.
struct Batch {
    tables: Vec<TableId>,
    rows: Vec<Vec<Value>>,
}

/// The reference executor. Same public surface as
/// [`crate::executor::Executor`], tuple-at-a-time inside.
#[derive(Debug, Clone, Copy)]
pub struct RowwiseExecutor<'a> {
    db: &'a Database,
    config: &'a PhysicalConfig,
}

impl<'a> RowwiseExecutor<'a> {
    /// Create a reference executor over a database and configuration.
    pub fn new(db: &'a Database, config: &'a PhysicalConfig) -> Self {
        RowwiseExecutor { db, config }
    }

    /// Execute a plan row-at-a-time. Unlike the vectorized executor,
    /// rows are always materialized internally; `collect` only controls
    /// whether they are returned.
    pub fn execute(
        &self,
        query: &Query,
        plan: &Plan,
        collect: Collect,
    ) -> Result<ExecOutput, ExecError> {
        let mut io = IoStats::new();
        let batch = self.run(query, &plan.root, &mut io)?;
        let millis = self.db.cost.millis_of(&io);
        Ok(ExecOutput {
            result: QueryResult { row_count: batch.rows.len() as u64, millis, io },
            rows: if collect == Collect::Rows { batch.rows } else { Vec::new() },
            layout: batch.tables,
        })
    }

    fn run(&self, query: &Query, node: &PlanNode, io: &mut IoStats) -> Result<Batch, ExecError> {
        match node {
            PlanNode::Scan { table, path, .. } => self.run_scan(query, *table, path, io),
            PlanNode::HashJoin { build, probe, on, .. } => {
                let b = self.run(query, build, io)?;
                let p = self.run(query, probe, io)?;
                self.hash_join(b, p, on, io)
            }
            PlanNode::IndexNlJoin { outer, inner, index, probe_on, residual_on, .. } => {
                let o = self.run(query, outer, io)?;
                self.index_nl_join(query, o, *inner, *index, *probe_on, residual_on, io)
            }
        }
    }

    fn run_scan(
        &self,
        query: &Query,
        table: TableId,
        path: &AccessPath,
        io: &mut IoStats,
    ) -> Result<Batch, ExecError> {
        let t = self.db.table(table);
        let preds: Vec<&SelPred> = query.selections_on(table).collect();
        check_pred_cols("scan", &preds, t.schema.arity())?;
        // An index scan's driving predicate is not checked again; a
        // composite scan checks every predicate on the fetched rows.
        let (mut rowids, driving) = match path {
            AccessPath::SeqScan => {
                let rows = (t.heap.scan(io))
                    .filter(|(_, row)| {
                        io.cpu_ops += preds.len() as u64;
                        preds.iter().all(|p| p.matches(&row[p.col.column as usize]))
                    })
                    .map(|(_, row)| row.into_vec())
                    .collect();
                return Ok(Batch { tables: vec![table], rows });
            }
            AccessPath::IndexScan { col } => {
                let (rowids, driving) = index_scan_rowids(self.db, self.config, &preds, *col, io)?;
                (rowids, Some(driving))
            }
            AccessPath::CompositeScan { key, eq_prefix, range_next } => {
                let (db, config) = (self.db, self.config);
                (composite_scan_rowids(db, config, &preds, key, *eq_prefix, *range_next, io)?, None)
            }
        };
        t.heap.fetch_sorted(&mut rowids, io);
        let residual: Vec<&SelPred> = (preds.iter().enumerate())
            .filter(|&(i, _)| Some(i) != driving)
            .map(|(_, p)| *p)
            .collect();
        let rows = (rowids.iter())
            .filter_map(|&id| t.heap.peek(id))
            .filter(|row| {
                io.cpu_ops += residual.len() as u64;
                residual.iter().all(|p| p.matches(&row[p.col.column as usize]))
            })
            .map(|row| row.into_vec())
            .collect();
        Ok(Batch { tables: vec![table], rows })
    }

    fn hash_join(
        &self,
        build: Batch,
        probe: Batch,
        on: &[crate::query::JoinPred],
        io: &mut IoStats,
    ) -> Result<Batch, ExecError> {
        let locate = |batch: &Batch, side: ColRef| -> Result<usize, ExecError> {
            let pos =
                col_of(self.db, &batch.tables, side).ok_or(ExecError::JoinKeyTableMissing {
                    operator: "hash_join",
                    table: side.table,
                })?;
            if side.column as usize >= self.db.table(side.table).schema.arity() {
                return Err(ExecError::UnknownColRef { operator: "hash_join", col: side });
            }
            Ok(pos)
        };
        let key_positions = |batch: &Batch| -> Result<Vec<usize>, ExecError> {
            on.iter()
                .map(|j| {
                    let side =
                        if batch.tables.contains(&j.left.table) { j.left } else { j.right };
                    locate(batch, side)
                })
                .collect()
        };
        let build_keys = key_positions(&build)?;
        let probe_keys = key_positions(&probe)?;

        // Build phase — HashMap is point-lookup only, never iterated.
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(build.rows.len());
        for (i, row) in build.rows.iter().enumerate() {
            let key: Vec<Value> = build_keys.iter().map(|&k| row[k].clone()).collect();
            table.entry(key).or_default().push(i);
            io.cpu_ops += 2; // hash + insert
        }

        // Probe phase. Cartesian product when `on` is empty.
        let mut out = Vec::new();
        if on.is_empty() {
            for b in &build.rows {
                for p in &probe.rows {
                    io.cpu_ops += 1;
                    let mut row = b.clone();
                    row.extend(p.iter().cloned());
                    out.push(row);
                }
            }
        } else {
            for p in &probe.rows {
                io.cpu_ops += 1;
                let key: Vec<Value> = probe_keys.iter().map(|&k| p[k].clone()).collect();
                if let Some(matches) = table.get(&key) {
                    for &bi in matches {
                        let mut row = build.rows[bi].clone();
                        row.extend(p.iter().cloned());
                        out.push(row);
                    }
                }
            }
        }
        io.tuples += out.len() as u64;

        let mut tables = build.tables;
        tables.extend(probe.tables);
        Ok(Batch { tables, rows: out })
    }

    #[allow(clippy::too_many_arguments)]
    fn index_nl_join(
        &self,
        query: &Query,
        outer: Batch,
        inner: TableId,
        index_col: ColRef,
        probe_on: crate::query::JoinPred,
        residual_on: &[crate::query::JoinPred],
        io: &mut IoStats,
    ) -> Result<Batch, ExecError> {
        let inner_table = self.db.table(inner);
        let (index, indexed) = materialized_index("index_nl_join", self.db, self.config, index_col)?;
        let inner_preds: Vec<&SelPred> = query.selections_on(inner).collect();
        let inner_arity = inner_table.schema.arity();
        check_pred_cols("index_nl_join", &inner_preds, inner_arity)?;

        let locate = |side: ColRef| -> Result<usize, ExecError> {
            let pos =
                col_of(self.db, &outer.tables, side).ok_or(ExecError::JoinKeyTableMissing {
                    operator: "index_nl_join",
                    table: side.table,
                })?;
            if side.column as usize >= self.db.table(side.table).schema.arity() {
                return Err(ExecError::UnknownColRef { operator: "index_nl_join", col: side });
            }
            Ok(pos)
        };
        let outer_side = if probe_on.left.table == inner { probe_on.right } else { probe_on.left };
        let probe_pos = locate(outer_side)?;
        let residuals: Vec<(usize, usize)> = residual_on
            .iter()
            .map(|j| {
                let (o, i) =
                    if j.left.table == inner { (j.right, j.left) } else { (j.left, j.right) };
                if i.column as usize >= inner_arity {
                    return Err(ExecError::UnknownColRef { operator: "index_nl_join", col: i });
                }
                Ok((locate(o)?, i.column as usize))
            })
            .collect::<Result<_, ExecError>>()?;

        let mut out = Vec::new();
        for orow in &outer.rows {
            let key = &orow[probe_pos];
            let mut rowids = Vec::new();
            index.lookup_code_into(literal_code(key, indexed), &mut rowids, io);
            inner_table.heap.fetch_sorted(&mut rowids, io);
            for irow in rowids.iter().filter_map(|&id| inner_table.heap.peek(id)) {
                io.cpu_ops += (inner_preds.len() + residuals.len()) as u64;
                let sel_ok = inner_preds.iter().all(|p| p.matches(&irow[p.col.column as usize]));
                let res_ok = residuals.iter().all(|&(op, ic)| orow[op] == irow[ic]);
                if sel_ok && res_ok {
                    let mut row = orow.clone();
                    row.extend(irow.iter().cloned());
                    out.push(row);
                }
            }
        }
        io.tuples += out.len() as u64;

        let mut tables = outer.tables;
        tables.push(inner);
        Ok(Batch { tables, rows: out })
    }
}

/// The offset of `col` in a row of `tables`' concatenated columns, when
/// its table is one of them.
fn col_of(db: &Database, tables: &[TableId], col: ColRef) -> Option<usize> {
    let at = tables.iter().position(|&t| t == col.table)?;
    let before: usize = tables[..at].iter().map(|&t| db.table(t).schema.arity()).sum();
    Some(before + col.column as usize)
}
