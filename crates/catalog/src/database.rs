//! The database: tables with their heaps and statistics, plus the
//! physical configuration of materialized indices.

use crate::composite::{CompositeKey, MaterializedComposite};
use crate::index::{build_index, IndexEstimate, IndexOrigin, MaterializedIndex};
use crate::schema::{ColRef, TableId, TableSchema};
use crate::stats::ColumnStats;
use colt_storage::{BPlusTreeOf, ColumnSlice, CostParams, HeapTable, IoStats, Row, RowError, RowId};
use std::collections::BTreeMap;

/// One table: schema, heap storage, and per-column statistics.
#[derive(Debug, Clone)]
pub struct Table {
    /// The table id.
    pub id: TableId,
    /// Logical schema.
    pub schema: TableSchema,
    /// Physical heap.
    pub heap: HeapTable,
    /// Per-column statistics; empty until [`Table::analyze`] runs.
    pub stats: Vec<ColumnStats>,
}

impl Table {
    /// (Re-)gather statistics for every column.
    pub fn analyze(&mut self) {
        self.stats = (0..self.schema.arity()).map(|c| ColumnStats::analyze(&self.heap, c)).collect();
    }

    /// Statistics for a column (panics if `analyze` has not run).
    pub fn column_stats(&self, column: u32) -> &ColumnStats {
        &self.stats[column as usize]
    }
}

// Database-dependent composite operations live here (not in
// `composite.rs`) so the module graph stays acyclic: `database` depends
// on `composite` for the key identity, never the reverse.
impl CompositeKey {
    /// Total key width in bytes under the table's schema.
    pub fn key_width(&self, db: &Database) -> usize {
        let schema = &db.table(self.table).schema;
        self.columns.iter().map(|&c| schema.columns[c as usize].vtype.byte_width()).sum()
    }

    /// Estimated physical shape.
    pub fn estimate(&self, db: &Database) -> IndexEstimate {
        IndexEstimate::for_table(db.table(self.table).heap.row_count() as u64, self.key_width(db))
    }
}

/// Build a composite index over a table's heap: full scan, sort by the
/// composite key, bulk load, page writes — the same charge structure as
/// single-column builds. A key is its cells' key codes in column order
/// (a string's rank code), so the tree is probed through its columns.
pub fn build_composite(db: &Database, key: &CompositeKey) -> MaterializedComposite {
    let t = db.table(key.table);
    let mut io = IoStats::new();
    // One scan is charged (with the leading column); the other key
    // columns are read out of that same pass.
    let leading = t.heap.scan_column(key.columns[0] as usize, &mut io);
    let columns: Vec<ColumnSlice<'_>> = leading
        .into_iter()
        .chain(key.columns[1..].iter().filter_map(|&c| t.heap.column(c as usize)))
        .collect();
    let mut entries: Vec<(Vec<u64>, RowId)> = (0..t.heap.row_count())
        .map(|row| (columns.iter().map(|c| c.code(row)).collect(), RowId(row as u32)))
        .collect();
    entries.sort_unstable();
    let n = entries.len() as u64;
    if n > 1 {
        io.cpu_ops += n * (64 - n.leading_zeros() as u64);
    }
    let tree = BPlusTreeOf::bulk_load(key.key_width(db), entries);
    io.pages_written += tree.page_count() as u64;
    MaterializedComposite { key: key.clone(), tree, build_io: io }
}

/// An in-memory database instance.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: Vec<Table>,
    /// Cost constants shared by the optimizer and the simulated clock.
    pub cost: CostParams,
}

impl Database {
    /// Create an empty database with default cost parameters.
    pub fn new() -> Self {
        Database { tables: Vec::new(), cost: CostParams::default() }
    }

    /// Add a table, returning its id.
    pub fn add_table(&mut self, schema: TableSchema) -> TableId {
        let id = TableId(self.tables.len() as u32);
        let types: Vec<_> = schema.columns.iter().map(|c| c.vtype).collect();
        let heap = HeapTable::new(&types);
        self.tables.push(Table { id, schema, heap, stats: Vec::new() });
        id
    }

    /// Append rows to a table as one batch
    /// ([`HeapTable::insert_rows`]), stopping at the first whose arity or
    /// value types disagree with the schema (the rows before it stay).
    /// Statistics are not refreshed automatically, nor are indices
    /// built before: executing a plan through one is an error.
    pub fn insert_rows(
        &mut self,
        table: TableId,
        rows: impl IntoIterator<Item = Row>,
    ) -> Result<(), RowError> {
        self.tables[table.0 as usize].heap.insert_rows(rows)
    }

    /// Gather statistics for every column of every table.
    pub fn analyze_all(&mut self) {
        for t in &mut self.tables {
            t.analyze();
        }
    }

    /// Borrow a table.
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.0 as usize]
    }

    /// All tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Total tuples across all tables.
    pub fn total_tuples(&self) -> u64 {
        self.tables.iter().map(|t| t.heap.row_count() as u64).sum()
    }

    /// Total data size in bytes (heap pages only).
    pub fn total_bytes(&self) -> u64 {
        self.tables.iter().map(|t| t.heap.byte_size() as u64).sum()
    }

    /// Number of indexable attributes (every column of every table).
    pub fn indexable_attributes(&self) -> usize {
        self.tables.iter().map(|t| t.schema.arity()).sum()
    }

    /// Estimated shape of a (possibly hypothetical) index on `col`.
    pub fn index_estimate(&self, col: ColRef) -> IndexEstimate {
        let t = self.table(col.table);
        let width = t.schema.columns[col.column as usize].vtype.byte_width();
        IndexEstimate::for_table(t.heap.row_count() as u64, width)
    }
}

/// The set of materialized indices, with per-table versioning.
///
/// Versions let COLT detect when a past gain measurement became stale:
/// a measurement taken for an index on table `T` is consistent only
/// while the set of materialized indices on `T` is unchanged (paper
/// §4.1, "statistics may become invalid as M evolves").
#[derive(Debug, Clone, Default)]
pub struct PhysicalConfig {
    indices: BTreeMap<ColRef, MaterializedIndex>,
    composites: BTreeMap<CompositeKey, MaterializedComposite>,
    versions: BTreeMap<TableId, u64>,
    col_changes: BTreeMap<ColRef, u64>,
    generations: BTreeMap<TableId, u64>,
}

impl PhysicalConfig {
    /// Empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Is there a materialized index on `col`?
    pub fn contains(&self, col: ColRef) -> bool {
        self.indices.contains_key(&col)
    }

    /// Borrow the index on `col`, if materialized.
    pub fn get(&self, col: ColRef) -> Option<&MaterializedIndex> {
        self.indices.get(&col)
    }

    /// All materialized columns in deterministic order.
    pub fn columns(&self) -> impl Iterator<Item = ColRef> + '_ {
        self.indices.keys().copied()
    }

    /// Columns of indices materialized on-line (subject to the budget).
    pub fn online_columns(&self) -> impl Iterator<Item = ColRef> + '_ {
        self.indices.values().filter(|m| m.origin == IndexOrigin::Online).map(|m| m.col)
    }

    /// Number of materialized indices.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when no index is materialized.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Total pages used by on-line indices (the quantity constrained by
    /// the budget `B`).
    pub fn online_pages(&self) -> u64 {
        self.indices
            .values()
            .filter(|m| m.origin == IndexOrigin::Online)
            .map(|m| m.tree.page_count() as u64)
            .sum()
    }

    /// Materialization version of a table: bumped whenever an index on
    /// that table is created or dropped.
    pub fn table_version(&self, table: TableId) -> u64 {
        self.versions.get(&table).copied().unwrap_or(0)
    }

    /// Materialization version of `col`'s table counting only changes to
    /// *other* columns' indices.
    ///
    /// This is the consistency token for a gain measurement of an index
    /// on `col` (paper §4.1): `QueryGain(q, I)` compares the plan cost
    /// with and without `I`, so it stays valid across `I`'s own
    /// materialization or drop — it is invalidated only when a different
    /// index on the same table appears or disappears.
    pub fn version_excluding(&self, col: ColRef) -> u64 {
        self.table_version(col.table) - self.col_changes.get(&col).copied().unwrap_or(0)
    }

    /// Materialization generation of a table: moves whenever an index
    /// on it — single-column or composite — is created, replaced or
    /// dropped, and never returns to an earlier value, so two reads that
    /// agree saw the same materialized sets. It lets a cache of
    /// optimizer results (the what-if memo) pin them with one integer.
    pub fn generation(&self, table: TableId) -> u64 {
        self.generations.get(&table).copied().unwrap_or(0)
    }

    /// The sum of every table's [`PhysicalConfig::generation`]: stands
    /// still exactly while all of them do.
    pub fn generation_total(&self) -> u64 {
        self.generations.values().sum()
    }

    fn bump(&mut self, col: ColRef) {
        *self.versions.entry(col.table).or_insert(0) += 1;
        *self.col_changes.entry(col).or_insert(0) += 1;
        *self.generations.entry(col.table).or_insert(0) += 1;
    }

    /// Build and install an index on `col`, returning the build cost.
    /// Replaces any existing index on the same column.
    pub fn create_index(&mut self, db: &Database, col: ColRef, origin: IndexOrigin) -> IoStats {
        let t = db.table(col.table);
        let width = t.schema.columns[col.column as usize].vtype.byte_width();
        let (tree, io) = build_index(&t.heap, col, width);
        self.indices.insert(col, MaterializedIndex { col, tree, build_io: io, origin });
        self.bump(col);
        io
    }

    /// Build and install a composite (multi-column) index — the paper's
    /// future-work extension; see [`crate::composite`]. Composites are
    /// part of the pre-tuned base configuration (built before a run),
    /// so they do not bump the on-line consistency versions, only the
    /// table's [`PhysicalConfig::generation`].
    pub fn create_composite(&mut self, db: &Database, key: CompositeKey) -> IoStats {
        let m = build_composite(db, &key);
        let io = m.build_io;
        *self.generations.entry(key.table).or_insert(0) += 1;
        self.composites.insert(key, m);
        io
    }

    /// Borrow a composite index, if materialized.
    pub fn get_composite(&self, key: &CompositeKey) -> Option<&MaterializedComposite> {
        self.composites.get(key)
    }

    /// Composite indices on one table.
    pub fn composites_on(
        &self,
        table: TableId,
    ) -> impl Iterator<Item = &MaterializedComposite> + '_ {
        self.composites.values().filter(move |m| m.key.table == table)
    }

    /// Drop a composite index; returns whether one existed.
    pub fn drop_composite(&mut self, key: &CompositeKey) -> bool {
        let existed = self.composites.remove(key).is_some();
        if existed {
            *self.generations.entry(key.table).or_insert(0) += 1;
        }
        existed
    }

    /// Drop the index on `col` if present; returns whether one existed.
    /// Dropping is metadata-only and charges no I/O (as in PostgreSQL).
    pub fn drop_index(&mut self, col: ColRef) -> bool {
        let existed = self.indices.remove(&col).is_some();
        if existed {
            self.bump(col);
        }
        existed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use colt_storage::{row_from, Value, ValueType};

    fn db_with_table(rows: i64) -> (Database, TableId) {
        let mut db = Database::new();
        let tid = db.add_table(TableSchema::new(
            "t",
            vec![Column::new("a", ValueType::Int), Column::new("b", ValueType::Int)],
        ));
        db.insert_rows(tid, (0..rows).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 10)]))).unwrap();
        db.analyze_all();
        (db, tid)
    }

    #[test]
    fn database_accounting() {
        let (db, tid) = db_with_table(1000);
        assert_eq!(db.table_count(), 1);
        assert_eq!(db.total_tuples(), 1000);
        assert_eq!(db.indexable_attributes(), 2);
        assert!(db.total_bytes() > 0);
        assert_eq!(db.table(tid).column_stats(0).row_count, 1000);
    }

    #[test]
    fn create_and_drop_index_versions() {
        let (db, tid) = db_with_table(500);
        let mut cfg = PhysicalConfig::new();
        let col = ColRef::new(tid, 0);
        assert_eq!(cfg.table_version(tid), 0);
        assert!(!cfg.contains(col));

        let io = cfg.create_index(&db, col, IndexOrigin::Online);
        assert!(cfg.contains(col));
        assert!(io.pages_written > 0);
        assert_eq!(cfg.table_version(tid), 1);
        assert_eq!(cfg.len(), 1);
        assert!(cfg.online_pages() > 0);

        assert!(cfg.drop_index(col));
        assert!(!cfg.drop_index(col));
        assert_eq!(cfg.table_version(tid), 2);
        assert!(cfg.is_empty());
    }

    #[test]
    fn base_indices_exempt_from_online_accounting() {
        let (db, tid) = db_with_table(500);
        let mut cfg = PhysicalConfig::new();
        cfg.create_index(&db, ColRef::new(tid, 0), IndexOrigin::Base);
        assert_eq!(cfg.online_pages(), 0);
        assert_eq!(cfg.online_columns().count(), 0);
        cfg.create_index(&db, ColRef::new(tid, 1), IndexOrigin::Online);
        assert_eq!(cfg.online_columns().count(), 1);
        assert!(cfg.online_pages() > 0);
    }

    #[test]
    fn insert_rows_refuses_rows_that_do_not_fit_the_schema() {
        let (mut db, tid) = db_with_table(10);
        let err = db.insert_rows(tid, [row_from(vec![Value::Int(1)])]).unwrap_err();
        assert_eq!(err, RowError::Arity { expected: 2, got: 1 });
        // The rows before the offending one stay, the ones after do not.
        let rows = [
            vec![Value::Int(10), Value::Int(0)],
            vec![Value::Int(11), Value::Str("x".into())],
            vec![Value::Int(12), Value::Int(2)],
        ];
        let err = db.insert_rows(tid, rows.map(row_from)).unwrap_err();
        assert_eq!(
            err,
            RowError::Type { column: 1, expected: ValueType::Int, got: ValueType::Str }
        );
        assert_eq!(db.table(tid).heap.row_count(), 11);
    }

    #[test]
    fn index_estimate_uses_table_shape() {
        let (db, tid) = db_with_table(2000);
        let est = db.index_estimate(ColRef::new(tid, 0));
        assert_eq!(est.entries, 2000);
        assert!(est.pages >= est.leaf_pages);
    }
}
