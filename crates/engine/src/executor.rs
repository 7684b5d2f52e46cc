//! Vectorized physical plan execution with deterministic I/O accounting.
//!
//! The executor runs plans against the *real* data a batch at a time:
//! sequential scans walk the heap's typed columns in
//! [`BATCH_ROWS`]-row windows, index scans probe the actual B+ trees
//! and fetch rows in sorted rowid order (bitmap-style, deduplicating
//! page reads), and hash joins build once and probe a window at a
//! time. Operators exchange heap row ids (`RowIds`; see
//! [`crate::batch`]), never values: each selection predicate is
//! compiled once per scan into a [`Kernel`] over its column's native
//! slice and evaluated over a whole window into a selection vector, the
//! scan's output *is* those selection vectors, and a join reads its
//! keys from the heap columns through its inputs' ids (a predicate-free
//! scan's, none: it is its whole table). One switch, `emit`, says whether
//! an operator's consumer reads the ids at all: it is off only at a
//! [`Collect::CountOnly`] plan root, which counts and writes nothing.
//!
//! None of this changes what is *charged*: every operator charges
//! [`IoStats`] per page and per tuple processed, which is invariant to
//! batch grouping, so [`QueryResult::millis`] — the simulated
//! wall-clock time every experiment reports — is byte-identical to the
//! row-at-a-time reference implementation in [`crate::rowwise`].

use crate::batch::{equi_join, KeyCol, Matches, RowIds, BATCH_ROWS};
use crate::error::ExecError;
use crate::kernel::Kernel;
use crate::plan::{AccessPath, Plan, PlanNode};
use crate::query::{JoinPred, PredicateKind, Query, SelPred};
use colt_catalog::{ColRef, Database, PhysicalConfig, Table, TableId};
use colt_storage::{
    code_interval, literal_code, BPlusTreeOf, ColumnSlice, IoStats, RowId, Value,
};

/// Result of executing one query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Number of result rows (the rows themselves are only retained
    /// under [`Collect::Rows`]; see [`ExecOutput::rows`]).
    pub row_count: u64,
    /// Physical work performed.
    pub io: IoStats,
    /// Simulated execution time in milliseconds.
    pub millis: f64,
}

/// What [`Executor::execute`] should retain of the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Collect {
    /// Count rows and charge I/O, but do not keep the result: the plan
    /// root writes no row ids and no value is built — the charges are
    /// identical either way.
    #[default]
    CountOnly,
    /// Also retain the result rows (column-concatenated per
    /// [`ExecOutput::layout`]).
    Rows,
}

/// Everything [`Executor::execute`] produces, under one roof.
#[derive(Debug, Clone)]
pub struct ExecOutput {
    /// Counts and charges.
    pub result: QueryResult,
    /// The result rows — empty under [`Collect::CountOnly`].
    pub rows: Vec<Vec<Value>>,
    /// The output column layout: result rows are the concatenation of
    /// these tables' columns, in order. Consumers that address columns
    /// by [`ColRef`] need this because join operators order their
    /// inputs by cost, not by the query's table list.
    pub layout: Vec<TableId>,
}

impl ExecOutput {
    /// Number of result rows.
    pub fn row_count(&self) -> u64 {
        self.result.row_count
    }

    /// Simulated execution time in milliseconds.
    pub fn millis(&self) -> f64 {
        self.result.millis
    }

    /// Physical work performed.
    pub fn io(&self) -> &IoStats {
        &self.result.io
    }
}

/// How a join obtains an input: given the child node and its slice of
/// the plan's table order, execute it (a join always reads its inputs'
/// ids). Plain execution recurses into [`Executor::run`]; EXPLAIN
/// ANALYZE wraps the recursion to render and account each child.
type RunChild<'f> =
    &'f mut dyn FnMut(&PlanNode, &[TableId], &mut IoStats) -> Result<RowIds, ExecError>;

/// What an operator is given beside its node: the query, its slice of
/// the plan's table order ([`layout_of`]), the charges, whether its
/// consumer reads its ids, and how it runs a join input.
struct OpCtx<'c> {
    query: &'c Query,
    layout: &'c [TableId],
    io: &'c mut IoStats,
    emit: bool,
    child: RunChild<'c>,
}

/// The executor.
#[derive(Debug, Clone, Copy)]
pub struct Executor<'a> {
    db: &'a Database,
    config: &'a PhysicalConfig,
}

impl<'a> Executor<'a> {
    /// Create an executor over a database and its physical configuration.
    pub fn new(db: &'a Database, config: &'a PhysicalConfig) -> Self {
        Executor { db, config }
    }

    /// Execute a plan. `collect` chooses whether result values are
    /// retained ([`Collect::Rows`]) or only counted and charged
    /// ([`Collect::CountOnly`]); the I/O charges are identical.
    pub fn execute(
        &self,
        query: &Query,
        plan: &Plan,
        collect: Collect,
    ) -> Result<ExecOutput, ExecError> {
        let span = colt_obs::span("engine.execute");
        let mut io = IoStats::new();
        let mut layout = Vec::new();
        layout_of(&plan.root, &mut layout);
        let out = self.run(query, &plan.root, &layout, &mut io, collect == Collect::Rows)?;
        let millis = self.db.cost.millis_of(&io);
        span.sim_ms(millis);
        let mut rows = Vec::new();
        if out.emits() {
            // Every column of every table of the layout, in order.
            let cols: Vec<(usize, ColumnSlice<'_>)> = (layout.iter().enumerate())
                .flat_map(|(t, &table)| {
                    let table = self.db.table(table);
                    (0..table.schema.arity()).filter_map(move |c| Some((t, table.heap.column(c)?)))
                })
                .collect();
            out.extend_rows(&cols, &mut rows);
        }
        Ok(ExecOutput {
            result: QueryResult { row_count: out.count(), millis, io },
            rows,
            layout,
        })
    }

    /// EXPLAIN ANALYZE: execute the plan and render the operator tree
    /// annotated with *estimated vs actual* rows and the per-node
    /// physical work. The estimation error visible here is exactly the
    /// noise COLT's confidence intervals exist to tolerate.
    pub fn explain_analyze(
        &self,
        query: &Query,
        plan: &Plan,
    ) -> Result<(QueryResult, String), ExecError> {
        let mut io = IoStats::new();
        let mut layout = Vec::new();
        layout_of(&plan.root, &mut layout);
        let (root, mut out) = self.analyze_node(query, &plan.root, &layout, &mut io, false, 0)?;
        let result =
            QueryResult { row_count: root.count(), millis: self.db.cost.millis_of(&io), io };
        out.push_str(&format!(
            "total: {} rows, {:.2} simulated ms ({} seq + {} random pages, {} tuples)\n",
            result.row_count,
            result.millis,
            result.io.seq_pages,
            result.io.random_pages,
            result.io.tuples
        ));
        Ok((result, out))
    }

    /// Execute one node, and render its annotated line followed by its
    /// children's (pre-order).
    fn analyze_node(
        &self,
        query: &Query,
        node: &PlanNode,
        layout: &[TableId],
        io: &mut IoStats,
        emit: bool,
        depth: usize,
    ) -> Result<(RowIds, String), ExecError> {
        let pad = "  ".repeat(depth);
        let mut child_text = String::new();
        let mut child_io = IoStats::new();
        let before = *io;
        let child: RunChild<'_> = &mut |child, layout, io| {
            let before = *io;
            let (output, text) = self.analyze_node(query, child, layout, io, true, depth + 1)?;
            child_text.push_str(&text);
            child_io += *io - before;
            Ok(output)
        };
        let result = self.run_node(node, OpCtx { query, layout, io, emit, child })?;
        let own_io = *io - before - child_io;
        let label = match node {
            PlanNode::Scan { table, path, .. } => match path {
                AccessPath::SeqScan => format!("SeqScan t{}", table.0),
                AccessPath::IndexScan { col } => {
                    format!("IndexScan[{col}] t{}", table.0)
                }
            },
            PlanNode::HashJoin { on, .. } => format!("HashJoin on {} preds", on.len()),
            PlanNode::IndexNlJoin { inner, index, .. } => {
                format!("IndexNLJoin inner=t{} via [{index}]", inner.0)
            }
        };
        let mut out = format!(
            "{pad}{label} (est rows={:.1}, actual rows={}; pages seq={} rnd={})\n",
            node.est_rows(),
            result.count(),
            own_io.seq_pages,
            own_io.random_pages,
        );
        out.push_str(&child_text);
        Ok((result, out))
    }

    /// Execute a subtree into the heap row ids of its output rows, per
    /// table of `layout` — the subtree's slice of the plan's table order
    /// ([`layout_of`]). With `emit` off — a [`Collect::CountOnly`] plan
    /// root — the operator only counts and writes no ids; its inputs
    /// always emit, because a join reads its keys through them. Charges
    /// never depend on `emit`: the cost model counts pages and tuples
    /// processed, not ids written.
    fn run(
        &self,
        query: &Query,
        node: &PlanNode,
        layout: &[TableId],
        io: &mut IoStats,
        emit: bool,
    ) -> Result<RowIds, ExecError> {
        let child: RunChild<'_> = &mut |child, layout, io| self.run(query, child, layout, io, true);
        self.run_node(node, OpCtx { query, layout, io, emit, child })
    }

    /// Execute one node, obtaining join inputs through `cx.child`.
    fn run_node(&self, node: &PlanNode, cx: OpCtx<'_>) -> Result<RowIds, ExecError> {
        let out = match node {
            PlanNode::Scan { table, path, .. } => self.run_scan(*table, path, cx),
            PlanNode::HashJoin { build, probe, on, .. } => {
                colt_obs::counter("engine.op.hash_join", 1);
                self.hash_join(build, probe, on, cx)
            }
            PlanNode::IndexNlJoin { outer, inner, index, probe_on, residual_on, .. } => {
                colt_obs::counter("engine.op.index_nl_join", 1);
                self.index_nl_join(outer, *inner, *index, (*probe_on, residual_on), cx)
            }
        }?;
        colt_obs::counter("engine.exec.row_ids_written", out.written());
        Ok(out)
    }

    /// Run one scan node: the ids of the rows that pass, in fetch order.
    fn run_scan(
        &self,
        table: TableId,
        path: &AccessPath,
        cx: OpCtx<'_>,
    ) -> Result<RowIds, ExecError> {
        let OpCtx { query, io, emit, .. } = cx;
        colt_obs::counter(
            match path {
                AccessPath::SeqScan => "engine.op.seq_scan",
                AccessPath::IndexScan { .. } => "engine.op.index_scan",
            },
            1,
        );
        let t = self.db.table(table);
        let preds: Vec<&SelPred> = query.selections_on(table).collect();
        // An index scan's driving predicate resolves against the tree and
        // is not compiled (a second one on its column is).
        let driving = driving_predicate(path, &preds)?;
        let checked = preds.iter().enumerate().filter(|&(i, _)| Some(i) != driving);
        let kernels = compile_preds("scan", t, checked.map(|(_, &p)| p))?;

        let _batch_span = colt_obs::span("engine.exec.batch");
        let mut out = RowIds::new(1, emit);
        let mut sel: Vec<u32> = Vec::with_capacity(BATCH_ROWS);
        let Some(driving) = driving else {
            for window in t.heap.scan_batches(BATCH_ROWS, io) {
                io.cpu_ops += (kernels.len() * window.len()) as u64;
                match kernels.split_first() {
                    // Nobody reads the ids and nothing narrows them
                    // further: sum the test, store nothing.
                    Some((only, [])) if !emit => out.count_only(only.count(window) as u64),
                    Some((first, rest)) => {
                        first.select(window, &mut sel);
                        rest.iter().for_each(|k| k.retain(&mut sel));
                        out.push_sel(&sel);
                    }
                    // The whole table, dense: nothing to select.
                    None => {}
                }
            }
            let rows = t.heap.row_count() as u64;
            return Ok(if kernels.is_empty() { RowIds::dense(rows, emit) } else { out });
        };
        let mut rowids = index_scan_rowids(self.db, self.config, preds[driving], io)?;
        t.heap.fetch_sorted(&mut rowids, io);
        for chunk in rowids.chunks(BATCH_ROWS) {
            io.cpu_ops += (kernels.len() * chunk.len()) as u64;
            retain_rows(chunk, &kernels, &mut sel);
            out.push_sel(&sel);
        }
        Ok(out)
    }

    /// Locate a key column within an operator input's layout — the
    /// position of its table there and the heap cells of its column —
    /// validating both before either is used as an offset.
    fn key_column(
        &self,
        operator: &'static str,
        layout: &[TableId],
        col: ColRef,
    ) -> Result<(usize, ColumnSlice<'a>), ExecError> {
        let table = (layout.iter().position(|&t| t == col.table))
            .ok_or(ExecError::JoinKeyTableMissing { operator, table: col.table })?;
        let cells = (self.db.table(col.table).heap)
            .column(col.column as usize)
            .ok_or(ExecError::UnknownColRef { operator, col })?;
        Ok((table, cells))
    }

    /// Hash join: build on `build`'s output, probe with `probe`'s. Keys
    /// are read from the heap through the inputs' ids and chained by
    /// code offset or by hash, which the inputs decide ([`equi_join`]);
    /// either way a cross-type key pair matches nothing and every rule
    /// is charged the same.
    fn hash_join(
        &self,
        build: &PlanNode,
        probe: &PlanNode,
        on: &[JoinPred],
        cx: OpCtx<'_>,
    ) -> Result<RowIds, ExecError> {
        let (build_layout, probe_layout) = cx.layout.split_at(width(build));
        let keys_in = |layout: &[TableId]| -> Result<Vec<(usize, ColumnSlice<'a>)>, ExecError> {
            on.iter()
                .map(|j| {
                    let side = if layout.contains(&j.left.table) { j.left } else { j.right };
                    self.key_column("hash_join", layout, side)
                })
                .collect()
        };
        let build_keys = keys_in(build_layout)?;
        let probe_keys = keys_in(probe_layout)?;
        let build = (cx.child)(build, build_layout, cx.io)?;
        let probe = (cx.child)(probe, probe_layout, cx.io)?;

        let _batch_span = colt_obs::span("engine.exec.batch");
        let (build_rows, probe_rows) = (build.count() as usize, probe.count() as usize);
        let mut matches = Matches::new(cx.emit);
        // Both phases charge like the reference: hash + insert per build
        // row, one probe per probe row (per pair when nothing connects).
        cx.io.cpu_ops += 2 * build_rows as u64;
        if on.is_empty() {
            // Cartesian product, build-major like the reference.
            cx.io.cpu_ops += build_rows as u64 * probe_rows as u64;
            let all: Vec<u32> = (0..probe_rows as u32).collect();
            (0..build_rows).for_each(|b| matches.extend(b, &all));
        } else {
            let build_keys: Vec<_> = build_keys.into_iter().map(|k| build.key_col(k)).collect();
            let probe_keys: Vec<_> = probe_keys.into_iter().map(|k| probe.key_col(k)).collect();
            cx.io.cpu_ops += probe_rows as u64;
            equi_join(&build_keys, &probe_keys, &mut matches);
        }
        cx.io.tuples += matches.len();
        Ok(RowIds::joined(&build, &probe, matches))
    }

    /// Index nested-loop join: probe the inner table's B+ tree once per
    /// outer row, fetch matches, and apply the inner table's selection
    /// predicates plus any residual join predicates, all on the inner
    /// heap's columns. Each outer key probes as its code in the indexed
    /// column: a string's is a search of that column's dictionary.
    fn index_nl_join(
        &self,
        outer: &PlanNode,
        inner: TableId,
        index_col: ColRef,
        (probe_on, residual_on): (JoinPred, &[JoinPred]),
        cx: OpCtx<'_>,
    ) -> Result<RowIds, ExecError> {
        let inner_table = self.db.table(inner);
        let (index, indexed) = materialized_index("index_nl_join", self.db, self.config, index_col)?;
        let inner_kernels = compile_preds("index_nl_join", inner_table, cx.query.selections_on(inner))?;

        // Locate (and validate) the outer side of each join predicate
        // in the outer layout: all of this node's but the inner table.
        let outer_layout = &cx.layout[..cx.layout.len() - 1];
        let outer_side = if probe_on.left.table == inner { probe_on.right } else { probe_on.left };
        let probe_key = self.key_column("index_nl_join", outer_layout, outer_side)?;
        // Residual join predicates: (outer key, inner column).
        let residuals: Vec<((usize, ColumnSlice<'_>), ColumnSlice<'_>)> = residual_on
            .iter()
            .map(|j| {
                let (o, i) =
                    if j.left.table == inner { (j.right, j.left) } else { (j.left, j.right) };
                let cells = inner_table
                    .heap
                    .column(i.column as usize)
                    .ok_or(ExecError::UnknownColRef { operator: "index_nl_join", col: i })?;
                Ok((self.key_column("index_nl_join", outer_layout, o)?, cells))
            })
            .collect::<Result<_, ExecError>>()?;
        let outer = (cx.child)(outer, outer_layout, cx.io)?;

        let _batch_span = colt_obs::span("engine.exec.batch");
        let residuals: Vec<(KeyCol<'_>, ColumnSlice<'_>)> =
            residuals.into_iter().map(|(o, cells)| (outer.key_col(o), cells)).collect();
        let mut matches = Matches::new(cx.emit);
        // One probe per outer row, reusing the rowid buffer. Page
        // charges deduplicate within one fetch only (per probe), never
        // across probes — merging rowids across outer rows would change
        // `random_pages` relative to the row-at-a-time reference.
        let mut rowids: Vec<RowId> = Vec::new();
        let mut sel: Vec<u32> = Vec::new();
        let probe_key = outer.key_col(probe_key);
        let io = cx.io;
        for o in 0..outer.count() as usize {
            rowids.clear();
            index.lookup_code_into(probe_key.code_in(o, &indexed), &mut rowids, io);
            inner_table.heap.fetch_sorted(&mut rowids, io);
            io.cpu_ops += ((inner_kernels.len() + residuals.len()) * rowids.len()) as u64;
            retain_rows(&rowids, &inner_kernels, &mut sel);
            for (outer_key, cells) in &residuals {
                sel.retain(|&row| outer_key.eq_cell(o, cells, row as usize));
            }
            matches.extend(o, &sel);
        }
        io.tuples += matches.len();
        // The inner side's rows are its heap rows.
        let inner_rows = RowIds::dense(inner_table.heap.row_count() as u64, true);
        Ok(RowIds::joined(&outer, &inner_rows, matches))
    }
}

/// Append the tables of `node`'s output in operator order — build side
/// then probe side, outer side then inner table — computed once, at the
/// root: every subtree's tables are a contiguous slice of it.
fn layout_of(node: &PlanNode, out: &mut Vec<TableId>) {
    match node {
        PlanNode::Scan { table, .. } => out.push(*table),
        PlanNode::HashJoin { build, probe, .. } => {
            layout_of(build, out);
            layout_of(probe, out);
        }
        PlanNode::IndexNlJoin { outer, inner, .. } => {
            layout_of(outer, out);
            out.push(*inner);
        }
    }
}

/// How many tables a subtree's output spans: the length of its slice.
fn width(node: &PlanNode) -> usize {
    match node {
        PlanNode::Scan { .. } => 1,
        PlanNode::HashJoin { build, probe, .. } => width(build) + width(probe),
        PlanNode::IndexNlJoin { outer, .. } => width(outer) + 1,
    }
}

/// Compile every predicate against the heap column it restricts,
/// surfacing an out-of-range column as [`ExecError::UnknownColRef`]
/// instead of an indexing panic inside an operator loop.
fn compile_preds<'a>(
    operator: &'static str,
    table: &'a Table,
    preds: impl Iterator<Item = &'a SelPred>,
) -> Result<Vec<Kernel<'a>>, ExecError> {
    preds
        .map(|p| {
            let cells = table
                .heap
                .column(p.col.column as usize)
                .ok_or(ExecError::UnknownColRef { operator, col: p.col })?;
            Ok(Kernel::compile(p, cells))
        })
        .collect()
}

/// Check every predicate's column against the table arity, like
/// [`compile_preds`] does, for the reference executor.
pub(crate) fn check_pred_cols(
    operator: &'static str,
    preds: &[&SelPred],
    arity: usize,
) -> Result<(), ExecError> {
    for p in preds {
        if p.col.column as usize >= arity {
            return Err(ExecError::UnknownColRef { operator, col: p.col });
        }
    }
    Ok(())
}

/// Leave in `sel` the fetched rows that pass every kernel, in fetch
/// order.
fn retain_rows(fetched: &[RowId], kernels: &[Kernel<'_>], sel: &mut Vec<u32>) {
    sel.clear();
    sel.extend(fetched.iter().map(|id| id.0));
    kernels.iter().for_each(|kernel| kernel.retain(sel));
}

/// The tree of the index a plan node refers to and the heap column its
/// probes resolve against, or a typed error: the index was never built,
/// or it was built before its table gained rows (it holds fewer entries
/// than the table has rows): it misses the new rows, and may key offsets
/// or ranks the heap has since re-assigned.
pub(crate) fn materialized_index<'c>(
    operator: &'static str,
    db: &'c Database,
    config: &'c PhysicalConfig,
    col: ColRef,
) -> Result<(&'c BPlusTreeOf<u32>, ColumnSlice<'c>), ExecError> {
    let index = config.get(col).ok_or(ExecError::UnmaterializedIndex { operator, col })?;
    let column = db.table(col.table).heap.column(col.column as usize);
    let column = column.ok_or(ExecError::UnknownColRef { operator, col })?;
    if index.tree.len() != column.len() {
        return Err(ExecError::StaleIndex { col });
    }
    Ok((&index.tree, column))
}

/// The position within `preds` of the predicate that drives an index
/// scan — the first on the index's column — or `None` for a sequential
/// scan. An index scan without one is
/// [`ExecError::MissingDriverPredicate`].
pub(crate) fn driving_predicate(
    path: &AccessPath,
    preds: &[&SelPred],
) -> Result<Option<usize>, ExecError> {
    let AccessPath::IndexScan { col } = *path else { return Ok(None) };
    let driving = preds.iter().position(|p| p.col == col);
    driving.map(Some).ok_or(ExecError::MissingDriverPredicate { operator: "index_scan", col })
}

/// Collect the rowids an index scan's driving predicate selects from
/// the index on its column. Charges descend/leaf I/O via the tree; the
/// caller fetches the heap rows.
pub(crate) fn index_scan_rowids(
    db: &Database,
    config: &PhysicalConfig,
    driver: &SelPred,
    io: &mut IoStats,
) -> Result<Vec<RowId>, ExecError> {
    let (index, column) = materialized_index("index_scan", db, config, driver.col)?;
    let mut rowids: Vec<RowId> = Vec::new();
    match &driver.kind {
        PredicateKind::Eq(v) => index.lookup_code_into(literal_code(v, column), &mut rowids, io),
        PredicateKind::Range { lo, hi } => {
            index.range_codes_into(code_interval(lo, hi, column), &mut rowids, io)
        }
    }
    Ok(rowids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{IndexSetView, Optimizer};
    use crate::query::{JoinPred, SelPred};
    use colt_catalog::{ColRef, Column, TableSchema};
    use colt_storage::{row_from, ValueType};

    fn db() -> (Database, TableId, TableId) {
        let mut db = Database::new();
        let fact = db.add_table(TableSchema::new(
            "fact",
            vec![
                Column::new("id", ValueType::Int),
                Column::new("fk", ValueType::Int),
                Column::new("v", ValueType::Int),
            ],
        ));
        let dim = db.add_table(TableSchema::new(
            "dim",
            vec![Column::new("id", ValueType::Int), Column::new("grp", ValueType::Int)],
        ));
        db.insert_rows(
            fact,
            (0..20_000i64)
                .map(|i| row_from(vec![Value::Int(i), Value::Int(i % 200), Value::Int(i % 7)])),
        ).unwrap();
        db.insert_rows(dim, (0..200i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 4)]))).unwrap();
        db.analyze_all();
        (db, fact, dim)
    }

    fn plan_and_run(
        db: &Database,
        cfg: &PhysicalConfig,
        q: &Query,
    ) -> (QueryResult, Vec<Vec<Value>>) {
        let opt = Optimizer::new(db);
        let plan = opt.optimize(q, IndexSetView::real(cfg));
        let out = Executor::new(db, cfg).execute(q, &plan, Collect::Rows).unwrap();
        (out.result, out.rows)
    }

    #[test]
    fn seq_scan_filters_correctly() {
        let (db, fact, _) = db();
        let cfg = PhysicalConfig::new();
        let q = Query::single(fact, vec![SelPred::eq(ColRef::new(fact, 2), 3i64)]);
        let (res, rows) = plan_and_run(&db, &cfg, &q);
        // v = i % 7 == 3 → ~ 20000/7 rows.
        assert_eq!(res.row_count as usize, rows.len());
        assert_eq!(rows.len(), 2857, "count of i%7==3 in 0..20000");
        assert!(rows.iter().all(|r| r[2] == Value::Int(3)));
        assert!(res.millis > 0.0);
        assert!(res.io.seq_pages > 0);
    }

    #[test]
    fn count_only_charges_like_rows() {
        // Collect::CountOnly writes no ids at the root; the charges
        // (and therefore the simulated clock) must not move.
        let (db, fact, dim) = db();
        let cfg = PhysicalConfig::new();
        // Rows 1000..=3000 lie in three of the scan's windows.
        let three_windows = SelPred::between(ColRef::new(fact, 0), 1000i64, 3000i64);
        const { assert!(2 * BATCH_ROWS < 3000 && 3000 < 3 * BATCH_ROWS) };
        let queries = [
            (Query::single(fact, vec![SelPred::eq(ColRef::new(fact, 2), 3i64)]), 2857),
            // A root scan with one predicate counts without selecting…
            (Query::single(fact, vec![three_windows.clone()]), 2001),
            // …one with two must still narrow the first one's rows…
            (Query::single(fact, vec![three_windows, SelPred::eq(ColRef::new(fact, 2), 3i64)]), 286),
            // …and one with none counts its windows.
            (Query::single(fact, vec![]), 20_000),
            (
                Query::join(
                    vec![fact, dim],
                    vec![JoinPred::new(ColRef::new(fact, 1), ColRef::new(dim, 0))],
                    vec![SelPred::eq(ColRef::new(dim, 1), 2i64)],
                ),
                5000,
            ),
        ];
        let opt = Optimizer::new(&db);
        for (q, rows) in &queries {
            let plan = opt.optimize(q, IndexSetView::real(&cfg));
            let ex = Executor::new(&db, &cfg);
            let counted = ex.execute(q, &plan, Collect::CountOnly).unwrap();
            let collected = ex.execute(q, &plan, Collect::Rows).unwrap();
            assert!(counted.rows.is_empty());
            assert_eq!(counted.row_count(), *rows, "{q:?}");
            assert_eq!(collected.rows.len() as u64, *rows, "{q:?}");
            assert_eq!(counted.result.io, collected.result.io);
            assert_eq!(counted.layout, collected.layout);
        }
    }

    #[test]
    fn values_materialized_is_exact() {
        // Late materialization, as countable work: operators exchange
        // row ids, so the counter is the values the *consumer* gets —
        // none when it only counts, every column of every result row
        // when it collects, whatever the plan below did.
        let (db, fact, dim) = db();
        let cfg = PhysicalConfig::new();
        let opt = Optimizer::new(&db);
        let materialized = |q: &Query, collect: Collect| {
            let plan = opt.optimize(q, IndexSetView::real(&cfg));
            let prev = colt_obs::install(colt_obs::Recorder::new(colt_obs::Level::Summary));
            let out = Executor::new(&db, &cfg).execute(q, &plan, collect).unwrap();
            let snap = colt_obs::take().unwrap().into_snapshot();
            if let Some(p) = prev {
                colt_obs::install(p);
            }
            (snap.counter("engine.exec.values_materialized"), out.row_count())
        };

        let scan = Query::single(fact, vec![SelPred::eq(ColRef::new(fact, 2), 3i64)]);
        assert_eq!(materialized(&scan, Collect::CountOnly), (0, 2857));
        assert_eq!(materialized(&scan, Collect::Rows), (2857 * 3, 2857));

        // 50 live `dim` rows against all 20000 `fact` rows: the join
        // reads its keys in place, so counting copies nothing at all.
        let join = Query::join(
            vec![fact, dim],
            vec![JoinPred::new(ColRef::new(fact, 1), ColRef::new(dim, 0))],
            vec![SelPred::eq(ColRef::new(dim, 1), 2i64)],
        );
        assert_eq!(materialized(&join, Collect::CountOnly), (0, 5000));
        assert_eq!(materialized(&join, Collect::Rows), (5000 * 5, 5000));
    }

    #[test]
    fn row_ids_written_is_exact() {
        // Ids are written only where a consumer reads them: a filtered
        // scan's rows when they feed a join or the collected result, a
        // join's rows times its tables when collected — never a
        // predicate-free scan's, nor anything at a counting root.
        let (db, fact, dim) = db();
        let cfg = PhysicalConfig::new();
        let opt = Optimizer::new(&db);
        let written = |q: &Query, collect: Collect| {
            let plan = opt.optimize(q, IndexSetView::real(&cfg));
            let prev = colt_obs::install(colt_obs::Recorder::new(colt_obs::Level::Summary));
            let out = Executor::new(&db, &cfg).execute(q, &plan, collect).unwrap();
            let snap = colt_obs::take().unwrap().into_snapshot();
            if let Some(p) = prev {
                colt_obs::install(p);
            }
            (snap.counter("engine.exec.row_ids_written"), out.row_count())
        };
        let scan = Query::single(fact, vec![SelPred::eq(ColRef::new(fact, 2), 3i64)]);
        assert_eq!(written(&scan, Collect::CountOnly), (0, 2857));
        assert_eq!(written(&scan, Collect::Rows), (2857, 2857));
        let whole = Query::single(fact, vec![]);
        assert_eq!(written(&whole, Collect::Rows), (0, 20_000));
        // The 50 live `dim` rows feed the join; all of `fact` does too,
        // in place.
        let join = Query::join(
            vec![fact, dim],
            vec![JoinPred::new(ColRef::new(fact, 1), ColRef::new(dim, 0))],
            vec![SelPred::eq(ColRef::new(dim, 1), 2i64)],
        );
        assert_eq!(written(&join, Collect::CountOnly), (50, 5000));
        assert_eq!(written(&join, Collect::Rows), (50 + 5000 * 2, 5000));
    }

    #[test]
    fn results_straddle_batch_boundaries() {
        // 2857 matching rows out of 20000: both the scan input (20000)
        // and its output straddle the 1024-row batch boundary, and the
        // total must be exact.
        let (db, fact, _) = db();
        let cfg = PhysicalConfig::new();
        let q = Query::single(fact, vec![SelPred::eq(ColRef::new(fact, 2), 3i64)]);
        let (res, rows) = plan_and_run(&db, &cfg, &q);
        assert!(res.row_count as usize > BATCH_ROWS * 2);
        assert_eq!(rows.len(), res.row_count as usize);
        // Row order is heap order, across all chunk boundaries.
        let ids: Vec<i64> = rows
            .iter()
            .map(|r| if let Value::Int(i) = r[0] { i } else { panic!("not an Int") })
            .collect();
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn index_scan_and_seq_scan_agree() {
        let (db, fact, _) = db();
        let col = ColRef::new(fact, 0);
        let q = Query::single(fact, vec![SelPred::between(col, 100i64, 140i64)]);

        let no_index = PhysicalConfig::new();
        let (seq_res, mut seq_rows) = plan_and_run(&db, &no_index, &q);

        let mut cfg = PhysicalConfig::new();
        cfg.create_index(&db, col);
        let opt = Optimizer::new(&db);
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        assert_eq!(plan.used_indices(), vec![col], "index must be chosen: {}", plan.explain());
        let out = Executor::new(&db, &cfg).execute(&q, &plan, Collect::Rows).unwrap();
        let (idx_res, mut idx_rows) = (out.result, out.rows);

        seq_rows.sort();
        idx_rows.sort();
        assert_eq!(seq_rows, idx_rows, "same result via both paths");
        assert_eq!(idx_res.row_count, 41);
        // The selective index scan must actually be faster.
        assert!(
            idx_res.millis < seq_res.millis,
            "index {} ms vs seq {} ms",
            idx_res.millis,
            seq_res.millis
        );
    }

    #[test]
    fn contradictory_predicates_on_driving_column() {
        // Regression: two predicates on the indexed column — only the
        // driver may be skipped as residual; the other must still apply.
        let (db, fact, _) = db();
        let col = ColRef::new(fact, 0);
        let mut cfg = PhysicalConfig::new();
        cfg.create_index(&db, col);
        let q = Query::single(fact, vec![SelPred::eq(col, 5i64), SelPred::eq(col, 7i64)]);
        let opt = Optimizer::new(&db);
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        let res = Executor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly).unwrap();
        assert_eq!(res.row_count(), 0, "id = 5 AND id = 7 matches nothing");
        // Overlapping ranges on the same column must intersect.
        let q = Query::single(
            fact,
            vec![SelPred::between(col, 0i64, 100i64), SelPred::between(col, 50i64, 200i64)],
        );
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        let res = Executor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly).unwrap();
        assert_eq!(res.row_count(), 51, "intersection [50, 100]");
    }

    #[test]
    fn residual_predicates_applied_on_index_path() {
        let (db, fact, _) = db();
        let col = ColRef::new(fact, 0);
        let mut cfg = PhysicalConfig::new();
        cfg.create_index(&db, col);
        let q = Query::single(
            fact,
            vec![SelPred::between(col, 0i64, 999i64), SelPred::eq(ColRef::new(fact, 2), 0i64)],
        );
        let (_, rows) = plan_and_run(&db, &cfg, &q);
        assert!(rows.iter().all(|r| r[2] == Value::Int(0)));
        // 1000 ids, every 7th has v=0 → ceil(1000/7) = 143.
        assert_eq!(rows.len(), 143);
    }

    #[test]
    fn hash_join_matches_nested_reference() {
        let (db, fact, dim) = db();
        let cfg = PhysicalConfig::new();
        let q = Query::join(
            vec![fact, dim],
            vec![JoinPred::new(ColRef::new(fact, 1), ColRef::new(dim, 0))],
            vec![SelPred::eq(ColRef::new(dim, 1), 2i64)],
        );
        let (res, rows) = plan_and_run(&db, &cfg, &q);
        // dim rows with grp=2: ids {2,6,10,...198} → 50 ids; each matches
        // 20000/200 = 100 fact rows.
        assert_eq!(res.row_count, 50 * 100);
        // Every output row satisfies the join and the filter.
        // Column layout depends on build/probe order; find offsets.
        assert_eq!(rows.len(), 5000);
    }

    #[test]
    fn inl_join_matches_hash_join_results() {
        use crate::optimizer::OptimizerOptions;
        let (db, fact, dim) = db();
        let mut cfg = PhysicalConfig::new();
        let fk = ColRef::new(fact, 1);
        cfg.create_index(&db, fk);
        let q = Query::join(
            vec![fact, dim],
            vec![JoinPred::new(fk, ColRef::new(dim, 0))],
            vec![SelPred::eq(ColRef::new(dim, 0), 7i64), SelPred::eq(ColRef::new(fact, 2), 3i64)],
        );
        let inl_opt = Optimizer::with_options(&db, OptimizerOptions { enable_index_nl_join: true });
        let inl_plan = inl_opt.optimize(&q, IndexSetView::real(&cfg));
        assert!(
            matches!(inl_plan.root, crate::plan::PlanNode::IndexNlJoin { .. }),
            "{}",
            inl_plan.explain()
        );
        let hash_plan = Optimizer::new(&db).optimize(&q, IndexSetView::real(&PhysicalConfig::new()));

        let inl = Executor::new(&db, &cfg).execute(&q, &inl_plan, Collect::Rows).unwrap();
        let hash = Executor::new(&db, &PhysicalConfig::new())
            .execute(&q, &hash_plan, Collect::Rows)
            .unwrap();
        assert_eq!(inl.row_count(), hash.row_count());
        // Column order differs between the operators (outer-first vs
        // build-first); compare as multisets of sorted rows.
        let canon = |rows: Vec<Vec<Value>>| {
            let mut v: Vec<Vec<Value>> = rows
                .into_iter()
                .map(|mut r| {
                    r.sort();
                    r
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(canon(inl.rows), canon(hash.rows));
        // The two strategies are within the same ballpark here (the
        // single-probe case is a near-tie in this cost model); the I/O
        // profiles must nonetheless differ in the expected direction:
        // INLJ does random probes, the hash join scans sequentially.
        assert!(inl.result.io.random_pages > hash.result.io.random_pages);
        assert!(inl.result.io.seq_pages < hash.result.io.seq_pages);
    }

    #[test]
    fn empty_result_is_fine() {
        let (db, fact, _) = db();
        let cfg = PhysicalConfig::new();
        let q = Query::single(fact, vec![SelPred::eq(ColRef::new(fact, 0), -1i64)]);
        let (res, rows) = plan_and_run(&db, &cfg, &q);
        assert_eq!(res.row_count, 0);
        assert!(rows.is_empty());
    }

    #[test]
    fn explain_analyze_reports_estimates_and_actuals() {
        let (db, fact, dim) = db();
        let cfg = PhysicalConfig::new();
        let q = Query::join(
            vec![fact, dim],
            vec![JoinPred::new(ColRef::new(fact, 1), ColRef::new(dim, 0))],
            vec![SelPred::eq(ColRef::new(dim, 1), 2i64)],
        );
        let opt = Optimizer::new(&db);
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        let (res, text) = Executor::new(&db, &cfg).explain_analyze(&q, &plan).unwrap();
        // Same result as plain execution.
        let plain = Executor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly).unwrap();
        assert_eq!(res.row_count, plain.row_count());
        assert_eq!(res.io, plain.result.io);
        // The rendering mentions each operator with estimates and actuals.
        assert!(text.contains("HashJoin"), "{text}");
        assert!(text.contains("SeqScan"), "{text}");
        assert!(text.contains("est rows="), "{text}");
        assert!(text.contains(&format!("actual rows={}", res.row_count)), "{text}");
        assert!(text.contains("total:"), "{text}");
    }

    #[test]
    fn malformed_plan_join_key_is_typed_error_not_panic() {
        // Regression: a hand-built plan whose join predicate references
        // a table the join tree never produced used to panic; it must
        // surface as ExecError so harness callers can propagate it.
        use crate::plan::{AccessPath, PlanNode};
        let (db, fact, dim) = db();
        let cfg = PhysicalConfig::new();
        let stray = TableId(99);
        let scan = |t: TableId| PlanNode::Scan {
            table: t,
            path: AccessPath::SeqScan,
            est_rows: 1.0,
            est_cost: 1.0,
        };
        let plan = Plan {
            root: PlanNode::HashJoin {
                build: Box::new(scan(fact)),
                probe: Box::new(scan(dim)),
                // Predicate between `fact` and a table not in the tree.
                on: vec![JoinPred::new(ColRef::new(fact, 1), ColRef::new(stray, 0))],
                est_rows: 1.0,
                est_cost: 2.0,
            },
            selectivities: Vec::new(),
        };
        let q = Query::join(vec![fact, dim], vec![], vec![]);
        let err = Executor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly).unwrap_err();
        assert_eq!(err, ExecError::JoinKeyTableMissing { operator: "hash_join", table: stray });
        assert!(err.to_string().contains("t99"), "{err}");
        // The same contradiction through the INLJ path.
        let mut icfg = PhysicalConfig::new();
        let fk = ColRef::new(fact, 1);
        icfg.create_index(&db, fk);
        let plan = Plan {
            root: PlanNode::IndexNlJoin {
                outer: Box::new(scan(dim)),
                inner: fact,
                index: fk,
                probe_on: JoinPred::new(fk, ColRef::new(stray, 0)),
                residual_on: vec![],
                est_rows: 1.0,
                est_cost: 2.0,
            },
            selectivities: Vec::new(),
        };
        let err = Executor::new(&db, &icfg).execute(&q, &plan, Collect::CountOnly).unwrap_err();
        assert_eq!(
            err,
            ExecError::JoinKeyTableMissing { operator: "index_nl_join", table: stray }
        );
    }

    #[test]
    fn out_of_range_column_is_typed_error_not_panic() {
        // A predicate (or join key) referencing a column beyond the
        // table's arity used to be an unchecked indexing panic inside
        // the operator loop; it must surface as ExecError::UnknownColRef
        // at the batch boundary.
        use crate::plan::{AccessPath, PlanNode};
        let (db, fact, dim) = db();
        let cfg = PhysicalConfig::new();
        let bad = ColRef::new(fact, 9);
        let q = Query::single(fact, vec![SelPred::eq(bad, 1i64)]);
        let scan = |t: TableId| PlanNode::Scan {
            table: t,
            path: AccessPath::SeqScan,
            est_rows: 1.0,
            est_cost: 1.0,
        };
        let plan = Plan { root: scan(fact), selectivities: vec![1.0] };
        let err = Executor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly).unwrap_err();
        assert_eq!(err, ExecError::UnknownColRef { operator: "scan", col: bad });
        assert!(err.to_string().contains("input"), "{err}");
        // Through a hand-built join key.
        let plan = Plan {
            root: PlanNode::HashJoin {
                build: Box::new(scan(fact)),
                probe: Box::new(scan(dim)),
                on: vec![JoinPred::new(bad, ColRef::new(dim, 0))],
                est_rows: 1.0,
                est_cost: 2.0,
            },
            selectivities: Vec::new(),
        };
        let jq = Query::join(vec![fact, dim], vec![], vec![]);
        let err = Executor::new(&db, &cfg).execute(&jq, &plan, Collect::CountOnly).unwrap_err();
        assert_eq!(err, ExecError::UnknownColRef { operator: "hash_join", col: bad });
    }

    #[test]
    fn an_index_built_before_an_insert_is_a_typed_error() {
        // `PhysicalConfig` does not borrow the database, so rows can be
        // added under a built index; probing it then must not silently
        // miss them (or, for strings, read re-assigned ranks).
        use crate::plan::{AccessPath, PlanNode};
        use crate::rowwise::RowwiseExecutor;
        let (mut db, fact, dim) = db();
        let (id, fk) = (ColRef::new(fact, 0), ColRef::new(fact, 1));
        let mut cfg = PhysicalConfig::new();
        cfg.create_index(&db, id);
        cfg.create_index(&db, fk);
        db.insert_rows(fact, [row_from(vec![Value::Int(-1), Value::Int(0), Value::Int(0)])]).unwrap();

        let scan = |table, path| PlanNode::Scan { table, path, est_rows: 1.0, est_cost: 1.0 };
        let by_index =
            Plan { root: scan(fact, AccessPath::IndexScan { col: id }), selectivities: vec![1.0] };
        let q = Query::single(fact, vec![SelPred::eq(id, 5i64)]);
        let inlj = Plan {
            root: PlanNode::IndexNlJoin {
                outer: Box::new(scan(dim, AccessPath::SeqScan)),
                inner: fact,
                index: fk,
                probe_on: JoinPred::new(fk, ColRef::new(dim, 0)),
                residual_on: vec![],
                est_rows: 1.0,
                est_cost: 2.0,
            },
            selectivities: Vec::new(),
        };
        let jq = Query::join(vec![dim, fact], vec![JoinPred::new(fk, ColRef::new(dim, 0))], vec![]);
        for (query, plan, col) in [(&q, &by_index, id), (&jq, &inlj, fk)] {
            let vectorized = Executor::new(&db, &cfg).execute(query, plan, Collect::CountOnly);
            let rowwise = RowwiseExecutor::new(&db, &cfg).execute(query, plan, Collect::CountOnly);
            assert_eq!(vectorized.unwrap_err(), ExecError::StaleIndex { col });
            assert_eq!(rowwise.unwrap_err(), ExecError::StaleIndex { col });
        }
        // Rebuilt, the index covers the new row.
        cfg.create_index(&db, id);
        let q = Query::single(fact, vec![SelPred::eq(id, -1i64)]);
        let out = Executor::new(&db, &cfg).execute(&q, &by_index, Collect::CountOnly).unwrap();
        assert_eq!(out.row_count(), 1);
        assert!(ExecError::StaleIndex { col: id }.to_string().contains("predates rows"));
    }

    #[test]
    fn an_index_scan_without_its_driving_predicate_is_a_typed_error() {
        // The index exists and the query restricts the table, but not on
        // the index's column: neither executor may fall back to another
        // predicate, or panic.
        use crate::plan::{AccessPath, PlanNode};
        use crate::rowwise::RowwiseExecutor;
        let (db, fact, _) = db();
        let (id, v) = (ColRef::new(fact, 0), ColRef::new(fact, 2));
        let mut cfg = PhysicalConfig::new();
        cfg.create_index(&db, id);
        let q = Query::single(fact, vec![SelPred::eq(v, 3i64)]);
        let root = PlanNode::Scan {
            table: fact,
            path: AccessPath::IndexScan { col: id },
            est_rows: 1.0,
            est_cost: 1.0,
        };
        let plan = Plan { root, selectivities: vec![1.0] };
        let missing = ExecError::MissingDriverPredicate { operator: "index_scan", col: id };
        let vectorized = Executor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly);
        let rowwise = RowwiseExecutor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly);
        assert_eq!(vectorized.unwrap_err(), missing);
        assert_eq!(rowwise.unwrap_err(), missing);
        assert!(missing.to_string().contains("no driving predicate"), "{missing}");
    }

    #[test]
    fn executor_time_tracks_io() {
        let (db, fact, _) = db();
        let cfg = PhysicalConfig::new();
        let q = Query::single(fact, vec![]);
        let (res, _) = plan_and_run(&db, &cfg, &q);
        let expect = db.cost.millis_of(&res.io);
        assert!((res.millis - expect).abs() < 1e-9);
    }
}
