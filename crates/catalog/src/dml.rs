//! Data modification with index maintenance.
//!
//! The reproduction's tables are append-only (row ids are heap
//! positions), so the supported modification is ingestion: appending
//! rows while keeping every materialized index on the table consistent,
//! charging the physical work a disk-based system would do — the heap
//! page write (amortized: one write per filled page) and, per index, a
//! descent plus a leaf write.
//!
//! Statistics are *not* refreshed automatically — exactly as in a real
//! system, where the optimizer works off the last `ANALYZE`. Call
//! [`crate::Database::analyze_all`] (or [`crate::Table::analyze`]) to
//! refresh; the drift in between is realistic estimation noise.

use crate::database::{Database, PhysicalConfig};
use crate::schema::TableId;
use colt_storage::{tuples_per_page, IoStats, Row, RowError, RowId};

/// Append one row to `table`, maintaining all materialized indices on
/// it. Returns the new row id and the physical work charged, or — with
/// table and indices untouched — why the row does not fit the schema.
pub fn insert_row(
    db: &mut Database,
    config: &mut PhysicalConfig,
    table: TableId,
    row: Row,
) -> Result<(RowId, IoStats), RowError> {
    let mut io = IoStats::new();
    let t = db.table_mut(table);
    let rid = t.heap.insert(row)?;
    io.tuples += 1;
    // Heap write: one page write each time a page fills up (amortized),
    // plus always the first row of a table.
    let per_page = tuples_per_page(t.heap.row_width());
    if rid.index().is_multiple_of(per_page) {
        io.pages_written += 1;
    }

    // Maintain every index on this table.
    for m in config.indices_on_mut(table) {
        // The key is the cell the heap just stored.
        let cells = t.heap.column(m.col.column as usize);
        let Some(key) = cells.and_then(|cells| cells.get(rid.index())) else { continue };
        // Descent to the leaf plus the leaf write.
        io.random_pages += m.tree.height() as u64;
        io.pages_written += 1;
        let fits = m.tree.insert(key, rid);
        debug_assert!(fits.is_ok(), "an index is keyed by its column's type");
    }
    Ok((rid, io))
}

/// Append many rows; convenience wrapper returning the total charge.
/// Stops at the first row that does not fit the schema.
pub fn insert_rows(
    db: &mut Database,
    config: &mut PhysicalConfig,
    table: TableId,
    rows: impl IntoIterator<Item = Row>,
) -> Result<IoStats, RowError> {
    let mut io = IoStats::new();
    for row in rows {
        let (_, cost) = insert_row(db, config, table, row)?;
        io.accumulate(&cost);
    }
    Ok(io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexOrigin;
    use crate::schema::{ColRef, Column, TableSchema};
    use colt_storage::{row_from, IndexTree, Value, ValueType};

    fn setup() -> (Database, PhysicalConfig, TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableSchema::new(
            "t",
            vec![Column::new("a", ValueType::Int), Column::new("b", ValueType::Int)],
        ));
        db.insert_rows(t, (0..1_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 10)]))).unwrap();
        db.analyze_all();
        let mut cfg = PhysicalConfig::new();
        cfg.create_index(&db, ColRef::new(t, 0), IndexOrigin::Online);
        (db, cfg, t)
    }

    #[test]
    fn insert_maintains_indices() {
        let (mut db, mut cfg, t) = setup();
        let col = ColRef::new(t, 0);
        let before = cfg.get(col).unwrap().tree.len();
        let (rid, io) = insert_row(&mut db, &mut cfg, t, row_from(vec![Value::Int(5_000), Value::Int(1)])).unwrap();
        assert_eq!(rid, RowId(1_000));
        assert_eq!(cfg.get(col).unwrap().tree.len(), before + 1);
        assert!(io.random_pages > 0, "index descent charged");
        assert!(io.pages_written >= 1, "leaf write charged");

        // The new row is findable through the index.
        let mut probe_io = IoStats::new();
        let mut hits = Vec::new();
        cfg.get(col).unwrap().tree.lookup_into(&Value::Int(5_000), &mut hits, &mut probe_io);
        assert_eq!(hits, vec![rid]);
        // And through the heap.
        assert_eq!(db.table(t).heap.peek(rid).unwrap()[0], Value::Int(5_000));
    }

    #[test]
    fn bulk_ingestion_consistent_with_rebuild() {
        let (mut db, mut cfg, t) = setup();
        let col = ColRef::new(t, 0);
        let io = insert_rows(
            &mut db,
            &mut cfg,
            t,
            (0..500i64).map(|i| row_from(vec![Value::Int(10_000 + i), Value::Int(0)])),
        ).unwrap();
        assert!(io.pages_written >= 500, "one leaf write per row");

        // Rebuilding from scratch must agree with incremental maintenance.
        let mut fresh = PhysicalConfig::new();
        fresh.create_index(&db, col, IndexOrigin::Online);
        let entries = |cfg: &PhysicalConfig| -> Vec<(u64, RowId)> {
            let IndexTree::Coded { tree, .. } = &cfg.get(col).unwrap().tree else {
                panic!("an Int column is indexed by key code")
            };
            tree.iter().map(|(code, r)| (*code, r)).collect()
        };
        assert_eq!(entries(&cfg).len(), 1_500);
        assert_eq!(entries(&cfg), entries(&fresh));
    }

    #[test]
    fn mismatched_rows_are_typed_errors_and_change_nothing() {
        let (mut db, mut cfg, t) = setup();
        let col = ColRef::new(t, 0);
        let err = insert_row(&mut db, &mut cfg, t, row_from(vec![Value::Int(1)])).unwrap_err();
        assert_eq!(err, RowError::Arity { expected: 2, got: 1 });
        let wrong_type = row_from(vec![Value::Int(1), Value::Float(1.0)]);
        let err = insert_row(&mut db, &mut cfg, t, wrong_type).unwrap_err();
        assert_eq!(
            err,
            RowError::Type { column: 1, expected: ValueType::Int, got: ValueType::Float }
        );
        assert_eq!(db.table(t).heap.row_count(), 1_000);
        assert_eq!(cfg.get(col).unwrap().tree.len(), 1_000);
        // The bulk wrapper stops at the offending row and keeps the rest.
        let rows = [vec![Value::Int(7), Value::Int(7)], vec![Value::Date(7), Value::Int(7)]];
        let err = insert_rows(&mut db, &mut cfg, t, rows.map(row_from)).unwrap_err();
        assert!(matches!(err, RowError::Type { column: 0, .. }), "{err}");
        assert_eq!(db.table(t).heap.row_count(), 1_001);
        assert_eq!(cfg.get(col).unwrap().tree.len(), 1_001);
    }

    #[test]
    fn tables_without_indices_charge_heap_only() {
        let (mut db, _, t) = setup();
        let mut empty_cfg = PhysicalConfig::new();
        let (_, io) = insert_row(&mut db, &mut empty_cfg, t, row_from(vec![Value::Int(1), Value::Int(1)])).unwrap();
        assert_eq!(io.random_pages, 0);
    }
}
