//! Multi-column indices — the paper's stated future work (§2: "the
//! extension of our techniques to more general access structures, e.g.,
//! multi-column indices … is an interesting direction for future
//! work").
//!
//! A composite index covers an ordered list of columns of one table and
//! stores lexicographic `Vec<Value>` keys. It can serve any query whose
//! predicates match a *prefix* of the column list: a run of equalities,
//! optionally followed by one range on the next column.
//!
//! Composite indices live next to the single-column set inside
//! [`crate::PhysicalConfig`] but are *not* managed by COLT's on-line
//! loop (the paper's tuner is single-column by design); they are built
//! by the off-line advisor (`colt_offline::suggest_composites`) or by
//! hand, as part of the pre-tuned base configuration.
//!
//! This module holds only the key identity and the tree-level scan;
//! everything that needs the [`crate::database::Database`] (key widths,
//! shape estimates, the builder) lives in `database.rs` so the module
//! graph stays a DAG (`database` may depend on `composite`, never the
//! reverse).

use crate::schema::{ColRef, TableId};
use colt_storage::{CompositeBPlusTree, IoStats, RowId, Value};
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
    /// The physical tree over lexicographic composite keys.
    pub tree: CompositeBPlusTree,
    /// The physical work charged to build it.
    pub build_io: IoStats,
}

/// Lexicographic prefix scan of a composite index: `prefix` pins the
/// leading columns by equality; `next` optionally bounds the following
/// column. Returns the matching row ids, charging descent + leaf chain.
pub fn prefix_scan(
    index: &MaterializedComposite,
    prefix: &[Value],
    next: Option<(std::ops::Bound<Value>, std::ops::Bound<Value>)>,
    io: &mut IoStats,
) -> Vec<RowId> {
    use colt_storage::ScanControl;
    use std::ops::Bound;
    assert!(prefix.len() <= index.key.columns.len());
    let k = prefix.len();

    // Start bound: the prefix itself, extended by the range's lower
    // bound when it is inclusive/exclusive on the next column.
    let mut start = prefix.to_vec();
    let start_bound = match &next {
        Some((Bound::Included(lo), _)) | Some((Bound::Excluded(lo), _)) => {
            start.push(lo.clone());
            // Exclusive lower bounds still descend to the boundary key
            // and skip equal values via the keep closure.
            Bound::Included(start)
        }
        _ => Bound::Included(start),
    };

    let next_ref = &next;
    index.tree.scan_from(
        start_bound,
        move |key: &Vec<Value>| {
            if key.len() < k || key[..k] != *prefix {
                return ScanControl::Stop;
            }
            match next_ref {
                None => ScanControl::Take,
                Some((lo, hi)) => {
                    let v = &key[k];
                    let lo_ok = match lo {
                        Bound::Included(b) => v >= b,
                        Bound::Excluded(b) => v > b,
                        Bound::Unbounded => true,
                    };
                    let hi_ok = match hi {
                        Bound::Included(b) => v <= b,
                        Bound::Excluded(b) => v < b,
                        Bound::Unbounded => true,
                    };
                    if !hi_ok {
                        // Sorted within the prefix: nothing later matches.
                        ScanControl::Stop
                    } else if lo_ok {
                        ScanControl::Take
                    } else {
                        ScanControl::Skip
                    }
                }
            }
        },
        io,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{build_composite, Database};
    use crate::schema::{Column, TableSchema};
    use colt_storage::{row_from, ValueType};
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

    #[test]
    fn full_composite_point_lookup() {
        let (db, t, key) = setup();
        let m = build_composite(&db, &key);
        let mut io = IoStats::new();
        // Rows with a=3, b=13: i ≡ 3 (mod 20) and i ≡ 13 (mod 50) →
        // i ≡ 63 (mod 100) → 20 of 2000 rows.
        let hits = prefix_scan(&m, &[Value::Int(3), Value::Int(13)], None, &mut io);
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
        let mut io = IoStats::new();
        let hits = prefix_scan(&m, &[Value::Int(3)], None, &mut io);
        assert_eq!(hits.len(), 100, "a=3 matches 100 of 2000 rows");
        for rid in hits {
            assert_eq!(db.table(t).heap.peek(rid).unwrap()[0], Value::Int(3));
        }
    }

    #[test]
    fn prefix_plus_range_scan() {
        let (db, t, key) = setup();
        let m = build_composite(&db, &key);
        let mut io = IoStats::new();
        let hits = prefix_scan(
            &m,
            &[Value::Int(3)],
            Some((Bound::Included(Value::Int(10)), Bound::Excluded(Value::Int(20)))),
            &mut io,
        );
        // a=3 → b = i%50 where i ≡ 3 (mod 20): b ∈ {3,23,43,13,33} each
        // 20 times; within [10,20): only b=13 → 20 rows.
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
