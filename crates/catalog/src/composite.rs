//! Multi-column indices — the paper's stated future work (§2: "the
//! extension of our techniques to more general access structures, e.g.,
//! multi-column indices … is an interesting direction for future
//! work").
//!
//! A composite index covers an ordered list of columns of one table and
//! stores lexicographic keys of its cells' key codes, one per column
//! (`Vec<u64>`). It can serve any query whose predicates match a
//! *prefix* of the column list: a run of equalities, optionally followed
//! by one range on the next column — one range over the codes, which
//! the executor resolves against the key columns.
//!
//! Composite indices live next to the single-column set inside
//! [`crate::PhysicalConfig`] but are *not* managed by COLT's on-line
//! loop (the paper's tuner is single-column by design); they are built
//! by the off-line advisor (`colt_offline::suggest_composites`) or by
//! hand, as part of the pre-tuned base configuration.
//!
//! This module holds only the key identity and the built index;
//! everything that needs the [`crate::database::Database`] (key widths,
//! shape estimates, the builder) lives in `database.rs` so the module
//! graph stays a DAG (`database` may depend on `composite`, never the
//! reverse).

use crate::schema::{ColRef, TableId};
use colt_storage::{BPlusTreeOf, IoStats};
use std::fmt;

/// Identity of a composite index: the table and the ordered columns.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompositeKey {
    /// Owning table.
    pub table: TableId,
    /// Ordered column positions (at least two).
    pub columns: Vec<u32>,
}

impl CompositeKey {
    /// Build a composite key; panics when fewer than two columns are
    /// given (use a single-column index instead) or on duplicates.
    pub fn new(table: TableId, columns: Vec<u32>) -> Self {
        assert!(columns.len() >= 2, "composite indices need at least two columns");
        let mut dedup = columns.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), columns.len(), "duplicate column in composite index");
        CompositeKey { table, columns }
    }

    /// The leading column, as a [`ColRef`].
    pub fn leading(&self) -> ColRef {
        ColRef::new(self.table, self.columns[0])
    }
}

impl fmt::Display for CompositeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.(", self.table.0)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "c{c}")?;
        }
        write!(f, ")")
    }
}

/// A materialized composite index.
#[derive(Debug, Clone)]
pub struct MaterializedComposite {
    /// The identity.
    pub key: CompositeKey,
    /// The physical tree over the key columns' codes, in column order.
    pub tree: BPlusTreeOf<Vec<u64>>,
    /// The physical work charged to build it.
    pub build_io: IoStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{build_composite, Database};
    use crate::schema::{Column, TableSchema};
    use colt_storage::{row_from, KeyCode, RowId, Value, ValueType};
    use std::ops::Bound;

    fn setup() -> (Database, TableId, CompositeKey) {
        let mut db = Database::new();
        let t = db.add_table(TableSchema::new(
            "t",
            vec![
                Column::new("a", ValueType::Int),
                Column::new("b", ValueType::Int),
                Column::new("c", ValueType::Int),
            ],
        ));
        db.insert_rows(
            t,
            (0..2_000i64).map(|i| {
                row_from(vec![Value::Int(i % 20), Value::Int(i % 50), Value::Int(i)])
            }),
        ).unwrap();
        db.analyze_all();
        (db, t, CompositeKey::new(t, vec![0, 1]))
    }

    #[test]
    fn build_covers_all_rows() {
        let (db, _, key) = setup();
        let m = build_composite(&db, &key);
        assert_eq!(m.tree.len(), 2_000);
        assert!(m.build_io.pages_written > 0);
        m.tree.check_invariants();
    }

    /// The rows whose key codes lie in `[lo, hi]`, `Int` cells given
    /// as themselves: the scan the executor makes of a prefix (`lo`) and
    /// its range on the next column (`hi`, padded with the greatest code).
    fn scan(m: &MaterializedComposite, lo: &[i64], hi: &[i64]) -> Vec<RowId> {
        let codes = |cells: &[i64]| cells.iter().map(|x| x.code()).collect::<Vec<u64>>();
        let mut hi = codes(hi);
        hi.resize(2, u64::MAX);
        m.tree.range(Bound::Included(&codes(lo)), Bound::Included(&hi), &mut IoStats::new())
    }

    #[test]
    fn full_composite_point_lookup() {
        let (db, t, key) = setup();
        let m = build_composite(&db, &key);
        // Rows with a=3, b=13: i ≡ 3 (mod 20) and i ≡ 13 (mod 50) →
        // i ≡ 63 (mod 100) → 20 of 2000 rows.
        let hits = scan(&m, &[3, 13], &[3, 13]);
        assert_eq!(hits.len(), 20);
        for rid in hits {
            let row = db.table(t).heap.peek(rid).unwrap();
            assert_eq!(row[0], Value::Int(3));
            assert_eq!(row[1], Value::Int(13));
        }
    }

    #[test]
    fn prefix_only_scan() {
        let (db, t, key) = setup();
        let m = build_composite(&db, &key);
        let hits = scan(&m, &[3], &[3]);
        assert_eq!(hits.len(), 100, "a=3 matches 100 of 2000 rows");
        for rid in hits {
            assert_eq!(db.table(t).heap.peek(rid).unwrap()[0], Value::Int(3));
        }
    }

    #[test]
    fn prefix_plus_range_scan() {
        let (db, t, key) = setup();
        let m = build_composite(&db, &key);
        // a=3 → b = i%50 where i ≡ 3 (mod 20): b ∈ {3,23,43,13,33} each
        // 20 times; within [10,20), the codes of 10 to 19: only b=13 →
        // 20 rows.
        let hits = scan(&m, &[3, 10], &[3, 19]);
        assert_eq!(hits.len(), 20);
        for rid in hits {
            let row = db.table(t).heap.peek(rid).unwrap();
            assert_eq!(row[0], Value::Int(3));
            assert_eq!(row[1], Value::Int(13));
        }
    }

    #[test]
    fn estimate_consistent_with_build() {
        let (db, _, key) = setup();
        let est = key.estimate(&db);
        let m = build_composite(&db, &key);
        let ratio = est.pages as f64 / m.tree.page_count() as f64;
        assert!((0.5..2.0).contains(&ratio), "est {} real {}", est.pages, m.tree.page_count());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_column_rejected() {
        CompositeKey::new(TableId(0), vec![1]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_column_rejected() {
        CompositeKey::new(TableId(0), vec![1, 1]);
    }
}
