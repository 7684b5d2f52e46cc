//! Single-column index descriptors, size estimation, and builds.
//!
//! COLT only considers single-column indices (paper §2), so an index is
//! identified by the [`ColRef`] it covers. The optimizer costs both real
//! and hypothetical indices from the *estimates* here; the executor uses
//! the actual B+ tree once an index is materialized.

use crate::schema::ColRef;
use colt_storage::btree::bulk_shape;
use colt_storage::{sorted_entries, BPlusTreeOf, HeapTable, IoStats};

/// Estimated physical shape of a (possibly hypothetical) index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexEstimate {
    /// Number of entries (table rows).
    pub entries: u64,
    /// Estimated leaf pages.
    pub leaf_pages: u64,
    /// Estimated total pages (leaves + internals).
    pub pages: u64,
    /// Estimated height (levels, including the leaf level).
    pub height: u32,
}

impl IndexEstimate {
    /// The shape an index over `rows` keys of width `key_width` bytes
    /// is built with ([`bulk_shape`], the loader's own rule).
    pub fn for_table(rows: u64, key_width: usize) -> Self {
        let shape = bulk_shape(rows as usize, key_width);
        IndexEstimate {
            entries: rows,
            leaf_pages: shape.leaves as u64,
            pages: shape.pages as u64,
            height: shape.height as u32,
        }
    }

    /// Estimated size in bytes.
    pub fn byte_size(&self) -> u64 {
        self.pages * colt_storage::PAGE_SIZE as u64
    }
}

/// A materialized single-column index.
#[derive(Debug, Clone)]
pub struct MaterializedIndex {
    /// The indexed column.
    pub col: ColRef,
    /// The physical tree, over the column's cell codes.
    pub tree: BPlusTreeOf<u32>,
}

/// Build an index over `column` of `heap`, charging the physical work to
/// the returned [`IoStats`]: a full sequential heap scan, an external
/// sort (`n log2 n` comparisons), and the writes of every index page.
/// The keys are the cells' codes — their days, offsets or ranks — as
/// [`sorted_entries`] sorts them, so the tree is probed through the
/// column it was built from.
pub fn build_index(heap: &HeapTable, col: ColRef, key_width: usize) -> (BPlusTreeOf<u32>, IoStats) {
    let mut io = IoStats::new();
    let entries = heap.scan_column(col.column as usize, &mut io).map_or_else(Vec::new, sorted_entries);
    let tree = BPlusTreeOf::bulk_load(key_width, entries);
    let n = tree.len() as u64;
    if n > 1 {
        io.cpu_ops += n * (64 - n.leading_zeros() as u64);
    }
    io.pages_written += tree.page_count() as u64;
    (tree, io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableId;
    use colt_storage::{row_from, Value, ValueType};

    fn heap(n: i64) -> HeapTable {
        let mut h = HeapTable::new(&[ValueType::Int]);
        for i in 0..n {
            h.insert(row_from(vec![Value::Int(i % 97)])).unwrap();
        }
        h
    }

    #[test]
    fn estimate_empty() {
        let e = IndexEstimate::for_table(0, 8);
        assert_eq!(e.pages, 1);
        assert_eq!(e.height, 1);
    }

    #[test]
    fn estimate_grows_and_heightens() {
        let small = IndexEstimate::for_table(1_000, 8);
        let large = IndexEstimate::for_table(1_000_000, 8);
        assert!(large.pages > small.pages * 500);
        assert!(large.height >= small.height);
        assert!(large.byte_size() > 0);
    }

    #[test]
    fn estimate_close_to_real_build() {
        let h = heap(50_000);
        let (tree, _) = build_index(&h, ColRef::new(TableId(0), 0), 8);
        let est = IndexEstimate::for_table(50_000, 8);
        let real = tree.page_count() as f64;
        let ratio = est.pages as f64 / real;
        assert!((0.5..2.0).contains(&ratio), "estimate {} vs real {}", est.pages, real);
        assert_eq!(est.height as usize, tree.height());
    }

    #[test]
    fn build_charges_scan_sort_write() {
        let h = heap(10_000);
        let (tree, io) = build_index(&h, ColRef::new(TableId(0), 0), 8);
        assert_eq!(tree.len(), 10_000);
        assert_eq!(io.seq_pages as usize, h.page_count());
        assert_eq!(io.tuples, 10_000);
        assert_eq!(io.pages_written as usize, tree.page_count());
        assert!(io.cpu_ops > 10_000, "sort work charged");
    }

    #[test]
    fn build_empty_heap() {
        let h = HeapTable::new(&[ValueType::Int]);
        let (tree, io) = build_index(&h, ColRef::new(TableId(0), 0), 8);
        assert!(tree.is_empty());
        assert_eq!(io.tuples, 0);
    }
}
