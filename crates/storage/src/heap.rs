//! Append-only in-memory heap tables with page-level I/O accounting.
//!
//! The *accounting* is a row store's — fixed-width tuples on 8 KiB
//! pages, charged per page and per tuple — but the data is held column
//! by column, one vector of 32-bit cells each: a date's day code, an `Int`'s
//! offset from its column's least value, or a rank in a sorted
//! dictionary of the column's values (see [`crate::column`]). A scan
//! that evaluates one predicate reads 4 contiguous bytes per row instead
//! of pulling a separately boxed row into the cache. Readers that want
//! rows ([`HeapTable::scan`], [`HeapTable::peek`]) get them materialized
//! from the columns.

use crate::column::{Batch, Column, ColumnSlice};
use crate::page::{pages_for, tuples_per_page, IoStats};
use crate::row::{Row, RowId};
use crate::value::ValueType;
use std::fmt;
use std::ops::Range;

/// Why a row, or a batch of column batches, cannot be stored in a heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowError {
    /// The row has more or fewer values — or the batches more or fewer
    /// batches — than the table has columns.
    Arity {
        /// Columns in the table.
        expected: usize,
        /// Values in the row, or batches.
        got: usize,
    },
    /// A value's type, or a batch's, is not its column's.
    Type {
        /// Zero-based column position.
        column: usize,
        /// The column's type.
        expected: ValueType,
        /// The value's type.
        got: ValueType,
    },
    /// A column's batch holds another number of rows than the first
    /// column's.
    Length {
        /// Zero-based column position.
        column: usize,
        /// Rows in the first column's batch.
        expected: usize,
        /// Rows in this one.
        got: usize,
    },
    /// A string batch's rows and strings disagree: a row names a string
    /// past the batch's strings, or no row names one of them (it would
    /// enter the column's dictionary as a value no cell holds).
    Dictionary {
        /// Zero-based column position.
        column: usize,
    },
    /// Row ids are 32-bit; the heap already holds `u32::MAX` rows.
    Full,
}

impl fmt::Display for RowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowError::Arity { expected, got } => {
                write!(f, "row has {got} values, the table has {expected} columns")
            }
            RowError::Type { column, expected, got } => {
                write!(f, "column {column} stores {expected}, the row holds {got}")
            }
            RowError::Length { column, expected, got } => {
                write!(f, "column {column}'s batch has {got} rows, the first column's {expected}")
            }
            RowError::Dictionary { column } => {
                write!(f, "column {column}'s batch names a string it lacks, or lacks a row for one")
            }
            RowError::Full => write!(f, "heap table exceeds u32 rows"),
        }
    }
}

impl std::error::Error for RowError {}

/// An in-memory heap of rows. The heap knows its (fixed) row width so it
/// can report how many 8 KiB pages it occupies and charge scans
/// accordingly.
#[derive(Debug, Clone)]
pub struct HeapTable {
    /// One typed vector per column, each `len` long.
    columns: Vec<Column>,
    len: usize,
    row_width: usize,
}

impl HeapTable {
    /// Create an empty heap with one column per entry of `types`; the
    /// row's payload width is the sum of the types' byte widths.
    pub fn new(types: &[ValueType]) -> Self {
        HeapTable {
            columns: types.iter().map(|&t| Column::new(t)).collect(),
            len: 0,
            row_width: types.iter().map(|t| t.byte_width()).sum::<usize>().max(1),
        }
    }

    /// Append a row, returning its id: a batch of one
    /// ([`HeapTable::insert_rows`]), so a refused row leaves the heap as
    /// it was.
    pub fn insert(&mut self, row: Row) -> Result<RowId, RowError> {
        self.insert_rows([row]).map(|()| RowId(self.len as u32 - 1))
    }

    /// Append rows in order, stopping at the first whose arity or value
    /// types disagree with the columns: the rows before it stay, nothing
    /// of it does. The rows are transposed into one [`Batch`] per column
    /// and appended as [`HeapTable::insert_columns`] appends: one pass
    /// over the rows per batch, however many new values it brings.
    pub fn insert_rows(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<(), RowError> {
        let mut rows = rows.into_iter();
        let room = rows.size_hint().0;
        let mut batches: Vec<_> =
            self.columns.iter().map(|c| Batch::new(c.as_slice().value_type(), room)).collect();
        let mut taken = 0;
        let stored = rows.try_for_each(|row| {
            if row.len() != self.columns.len() {
                return Err(RowError::Arity { expected: self.columns.len(), got: row.len() });
            }
            for (column, (c, v)) in self.columns.iter().zip(row.iter()).enumerate() {
                let (expected, got) = (c.as_slice().value_type(), v.value_type());
                if expected != got {
                    return Err(RowError::Type { column, expected, got });
                }
            }
            u32::try_from(self.len + taken).map_err(|_| RowError::Full)?;
            for (batch, v) in batches.iter_mut().zip(row.into_vec()) {
                // Cannot fail: every type was checked above.
                drop(batch.push(v));
            }
            taken += 1;
            Ok(())
        });
        self.append(batches, taken);
        stored
    }

    /// Append one batch per column, every batch as long as the first:
    /// the columnar way in, with no [`Row`] or [`crate::Value`] per cell.
    /// A batch set of the wrong count, type or length, a string batch
    /// whose rows and strings disagree ([`RowError::Dictionary`]), or one
    /// that would take the heap past 2³² rows is refused whole: nothing
    /// is appended.
    pub fn insert_columns(&mut self, batches: Vec<Batch>) -> Result<(), RowError> {
        if batches.len() != self.columns.len() {
            return Err(RowError::Arity { expected: self.columns.len(), got: batches.len() });
        }
        let rows = batches.first().map_or(0, Batch::len);
        for (column, (c, batch)) in self.columns.iter().zip(&batches).enumerate() {
            let (expected, got) = (c.as_slice().value_type(), batch.value_type());
            if expected != got {
                return Err(RowError::Type { column, expected, got });
            }
            if batch.len() != rows {
                return Err(RowError::Length { column, expected: rows, got: batch.len() });
            }
            if let Batch::Str { strings, ids } = batch {
                let mut named = vec![false; strings.len()];
                for &id in ids {
                    *named.get_mut(id as usize).ok_or(RowError::Dictionary { column })? = true;
                }
                if named.contains(&false) {
                    return Err(RowError::Dictionary { column });
                }
            }
        }
        // The last row's id must be a `u32`.
        if rows > 0 {
            u32::try_from(self.len + rows - 1).map_err(|_| RowError::Full)?;
        }
        self.append(batches, rows);
        Ok(())
    }

    /// Encode `rows` rows' batches, one per column, after the stored rows
    /// (`Column::append`): the one encoding path of both ways in.
    fn append(&mut self, batches: Vec<Batch>, rows: usize) {
        for (c, batch) in self.columns.iter_mut().zip(batches) {
            c.append(batch);
        }
        self.len += rows;
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.len
    }

    /// True when the heap has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Payload width of a row in bytes.
    pub fn row_width(&self) -> usize {
        self.row_width
    }

    /// Number of 8 KiB pages the heap occupies.
    pub fn page_count(&self) -> usize {
        pages_for(self.len, self.row_width)
    }

    /// Approximate size in bytes (pages × page size).
    pub fn byte_size(&self) -> usize {
        self.page_count() * crate::page::PAGE_SIZE
    }

    /// One column as a slice of its native type, without charging I/O:
    /// for readers that already paid for the rows they touch — a scan
    /// window of [`HeapTable::scan_batches`], row ids
    /// [`HeapTable::fetch_sorted`] charged — and for statistics builds.
    pub fn column(&self, column: usize) -> Option<ColumnSlice<'_>> {
        self.columns.get(column).map(Column::as_slice)
    }

    /// Materialize a row without charging I/O (tests, and the
    /// row-at-a-time reference after it charged the fetch).
    pub fn peek(&self, id: RowId) -> Option<Row> {
        if id.index() >= self.len {
            return None;
        }
        self.columns.iter().map(|c| c.as_slice().get(id.index())).collect()
    }

    /// Charge a fetch of many rows by id and leave in `ids` the rows
    /// fetched: the ids that exist, ascending and without duplicates.
    /// Page accesses are deduplicated, modelling a bitmap-style heap
    /// fetch: `k` rowids touching `p` distinct pages cost `p` random
    /// page reads, not `k`. The caller reads the rows' cells through
    /// [`HeapTable::column`].
    pub fn fetch_sorted(&self, ids: &mut Vec<RowId>, io: &mut IoStats) {
        colt_obs::counter("storage.heap.fetches", ids.len() as u64);
        ids.sort_unstable();
        ids.dedup();
        ids.truncate(ids.partition_point(|id| id.index() < self.len));
        let per_page = tuples_per_page(self.row_width);
        let mut last_page = usize::MAX;
        for id in ids.iter() {
            let page = id.index() / per_page;
            if page != last_page {
                io.random_pages += 1;
                last_page = page;
            }
        }
        io.tuples += ids.len() as u64;
    }

    /// Charge one full sequential scan: every heap page as a sequential
    /// read and every row as a processed tuple, all upfront.
    fn charge_scan(&self, io: &mut IoStats) {
        colt_obs::counter("storage.heap.scans", 1);
        io.seq_pages += self.page_count() as u64;
        io.tuples += self.len as u64;
    }

    /// Full sequential scan, row at a time: charges the scan, then
    /// yields every row materialized from the columns. This is the
    /// reference path; batch consumers use [`HeapTable::scan_batches`].
    pub fn scan<'a>(&'a self, io: &mut IoStats) -> impl Iterator<Item = (RowId, Row)> + 'a {
        self.charge_scan(io);
        self.iter()
    }

    /// Full sequential scan in fixed-size row windows, for
    /// batch-at-a-time executors. Charges *identically* to
    /// [`HeapTable::scan`], so a windowed consumer is indistinguishable
    /// from a row-at-a-time one in the I/O model. Yields consecutive
    /// `start..end` row ranges of at most `batch_rows` rows (the final
    /// one may be short) to be read through [`HeapTable::column`].
    pub fn scan_batches(
        &self,
        batch_rows: usize,
        io: &mut IoStats,
    ) -> impl Iterator<Item = Range<usize>> {
        self.charge_scan(io);
        let (len, step) = (self.len, batch_rows.max(1));
        (0..len).step_by(step).map(move |start| start..(start + step).min(len))
    }

    /// Full sequential scan for a consumer of one column (index and
    /// statistics builds): charges like [`HeapTable::scan`] and returns
    /// the column — `None`, still charged, when there is no such column.
    pub fn scan_column(&self, column: usize, io: &mut IoStats) -> Option<ColumnSlice<'_>> {
        self.charge_scan(io);
        self.column(column)
    }

    /// Iterate materialized rows without charging I/O (tests).
    pub fn iter(&self) -> impl Iterator<Item = (RowId, Row)> + '_ {
        (0..self.len as u32).filter_map(|i| Some((RowId(i), self.peek(RowId(i))?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::row_from;
    use crate::value::Value;
    use crate::KeyCode;

    /// 11 Int columns + 3 Dates: width 100 → 64 tuples per page.
    fn wide() -> Vec<ValueType> {
        let mut t = vec![ValueType::Int; 11];
        t.extend([ValueType::Date; 3]);
        t
    }

    fn wide_row(i: usize) -> Row {
        let mut r = vec![Value::Int(i as i64); 11];
        r.extend(vec![Value::Date(i as i32); 3]);
        row_from(r)
    }

    fn heap_with(n: usize) -> HeapTable {
        let mut h = HeapTable::new(&wide());
        assert_eq!(h.row_width(), 100);
        for i in 0..n {
            h.insert(wide_row(i)).unwrap();
        }
        h
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let mut h = HeapTable::new(&[ValueType::Int]);
        assert_eq!(h.insert(row_from(vec![Value::Int(1)])), Ok(RowId(0)));
        assert_eq!(h.insert(row_from(vec![Value::Int(2)])), Ok(RowId(1)));
        assert_eq!(h.row_count(), 2);
        assert!(!h.is_empty());
    }

    #[test]
    fn mismatched_rows_are_refused_whole() {
        let mut h = HeapTable::new(&[ValueType::Int, ValueType::Str]);
        assert_eq!(
            h.insert(row_from(vec![Value::Int(1)])),
            Err(RowError::Arity { expected: 2, got: 1 })
        );
        let err = h.insert(row_from(vec![Value::Int(1), Value::Date(3)])).unwrap_err();
        assert_eq!(
            err,
            RowError::Type { column: 1, expected: ValueType::Str, got: ValueType::Date }
        );
        assert!(err.to_string().contains("column 1"), "{err}");
        // Nothing of a refused row stays behind — not even the leading
        // value that did fit its column.
        assert_eq!(h.row_count(), 0);
        assert!(h.column(0).unwrap().is_empty());
        assert_eq!(h.insert(row_from(vec![Value::Int(1), Value::Str("x".into())])), Ok(RowId(0)));
    }

    #[test]
    fn bad_column_batches_are_refused_whole() {
        let types = [ValueType::Int, ValueType::Str, ValueType::Date];
        let mut h = HeapTable::new(&types);
        h.insert(row_from(vec![Value::Int(9), Value::Str("m".into()), Value::Date(9)])).unwrap();
        let strs = |strings: &[&str], ids: &[u32]| Batch::Str {
            strings: strings.iter().map(|s| s.to_string()).collect(),
            ids: ids.to_vec(),
        };
        let good = || vec![Batch::Int(vec![1, 2]), strs(&["b", "a"], &[1, 0]), Batch::Date(vec![3, 4])];
        let refused = [
            (good()[..2].to_vec(), RowError::Arity { expected: 3, got: 2 }),
            (
                vec![Batch::Int(vec![1, 2]), strs(&["b", "a"], &[1, 0]), Batch::Date(vec![3])],
                RowError::Length { column: 2, expected: 2, got: 1 },
            ),
            (
                vec![Batch::Int(vec![1, 2]), strs(&["b", "a"], &[1, 0, 0]), Batch::Date(vec![3, 4])],
                RowError::Length { column: 1, expected: 2, got: 3 },
            ),
            (
                vec![Batch::Int(vec![1, 2]), Batch::Int(vec![5, 6]), Batch::Date(vec![3, 4])],
                RowError::Type { column: 1, expected: ValueType::Str, got: ValueType::Int },
            ),
            (
                vec![Batch::Int(vec![1, 2]), strs(&["b", "a"], &[1, 2]), Batch::Date(vec![3, 4])],
                RowError::Dictionary { column: 1 },
            ),
            (
                vec![Batch::Int(vec![1, 2]), strs(&["b", "a", "z"], &[1, 0]), Batch::Date(vec![3, 4])],
                RowError::Dictionary { column: 1 },
            ),
        ];
        for (batches, error) in refused {
            assert_eq!(h.insert_columns(batches), Err(error));
            assert!(!error.to_string().is_empty());
            // Nothing of a refused batch set stays, in any column.
            assert_eq!(h.row_count(), 1);
            assert!((0..3).all(|c| h.column(c).unwrap().len() == 1), "{error:?}");
        }
        // The good set lands as the same rows inserted one by one.
        h.insert_columns(good()).unwrap();
        let mut by_rows = HeapTable::new(&types);
        by_rows.insert(row_from(vec![Value::Int(9), Value::Str("m".into()), Value::Date(9)])).unwrap();
        by_rows.insert(row_from(vec![Value::Int(1), Value::Str("a".into()), Value::Date(3)])).unwrap();
        by_rows.insert(row_from(vec![Value::Int(2), Value::Str("b".into()), Value::Date(4)])).unwrap();
        assert_eq!(format!("{h:?}"), format!("{by_rows:?}"));
        // An empty set of empty batches appends nothing and is no error.
        let empty = types.iter().map(|&t| Batch::new(t, 0)).collect();
        assert_eq!(h.insert_columns(empty), Ok(()));
        assert_eq!(h.row_count(), 3);
    }

    #[test]
    fn scan_charges_all_pages_and_tuples() {
        let h = heap_with(130); // 64 tuples/page at width 100 → 3 pages
        let mut io = IoStats::new();
        let rows: Vec<_> = h.scan(&mut io).collect();
        assert_eq!(rows.len(), 130);
        assert_eq!(rows[7], (RowId(7), wide_row(7)));
        assert_eq!(io.seq_pages, 3);
        assert_eq!(io.tuples, 130);
        assert_eq!(io.random_pages, 0);
    }

    #[test]
    fn fetch_sorted_dedups_pages_and_drops_missing_ids() {
        let h = heap_with(200); // 64/page → rows 0..63 on page 0
        let mut io = IoStats::new();
        let mut ids = vec![RowId(5), RowId(1), RowId(900), RowId(63), RowId(64), RowId(64)];
        h.fetch_sorted(&mut ids, &mut io);
        // Duplicate and out-of-range ids removed, neither charged.
        assert_eq!(ids, vec![RowId(1), RowId(5), RowId(63), RowId(64)]);
        assert_eq!(io.random_pages, 2); // page 0 and page 1
        assert_eq!(io.tuples, 4);
    }

    #[test]
    fn scan_batches_and_scan_column_charge_like_scan() {
        let h = heap_with(200); // 64 tuples/page at width 100 → 4 pages
        let mut io_scan = IoStats::new();
        assert_eq!(h.scan(&mut io_scan).count(), 200);
        let mut io_batch = IoStats::new();
        let windows: Vec<_> = h.scan_batches(64, &mut io_batch).collect();
        assert_eq!(windows, vec![0..64, 64..128, 128..192, 192..200]);
        assert_eq!(io_scan, io_batch, "windowed scan must charge identically");
        let mut io_col = IoStats::new();
        let Some(ColumnSlice::Date(d)) = h.scan_column(13, &mut io_col) else {
            panic!("column 13 is a date column")
        };
        assert_eq!((d.len(), d[199]), (200, 199i32.code()));
        assert_eq!(io_scan, io_col);
        // A missing column is still a charged scan.
        let mut io_none = IoStats::new();
        assert!(h.scan_column(14, &mut io_none).is_none());
        assert_eq!(io_scan, io_none);
        // Degenerate batch size is clamped, not a panic or infinite loop.
        let mut io = IoStats::new();
        assert_eq!(h.scan_batches(0, &mut io).count(), 200);
    }

    #[test]
    fn empty_heap_scan() {
        let h = HeapTable::new(&wide());
        let mut io = IoStats::new();
        assert_eq!(h.scan(&mut io).count(), 0);
        assert_eq!(h.scan_batches(64, &mut io).count(), 0);
        assert_eq!(io.seq_pages, 0);
        assert_eq!(h.page_count(), 0);
        assert_eq!(h.byte_size(), 0);
    }

    #[test]
    fn peek_and_column_read_without_charging() {
        let mut h = HeapTable::new(&[ValueType::Int, ValueType::Str]);
        h.insert(row_from(vec![Value::Int(1), Value::Str("x".into())])).unwrap();
        assert_eq!(h.peek(RowId(0)), Some(row_from(vec![Value::Int(1), Value::Str("x".into())])));
        assert_eq!(h.peek(RowId(5)), None);
        assert_eq!(h.column(1).unwrap().get(0), Some(Value::Str("x".into())));
        assert!(h.column(9).is_none());
        assert_eq!(h.iter().count(), 1);
    }
}
