//! What flows between vectorized operators: heap row ids.
//!
//! The executor processes rows a batch at a time (MonetDB/X100 style)
//! and materializes late: an operator's output is a [`RowIds`] — per
//! table of its [`TableLayout`], the heap row each output row takes
//! that table's columns from — and no operator copies a cell. Scans
//! append the selection vectors their kernels produce; joins read their
//! keys straight from the heap's typed columns through those ids
//! ([`KeyCol`]), hash them a column at a time ([`hash_keys`]) and chain
//! equal hashes ([`Chains`]). `Value`s are built where a consumer asks
//! for them, at the plan root ([`RowIds::extend_rows`]).
//!
//! None of this affects the cost model: [`colt_storage::IoStats`] is
//! charged per page and per tuple *processed*, which is invariant to
//! how processed rows are grouped into batches (see DESIGN.md,
//! "Vectorized execution").

use crate::plan::PlanNode;
use colt_catalog::{ColRef, Database, TableId};
use colt_storage::{ColumnSlice, Value};
use std::ops::Range;

/// Target rows per batch. Large enough to amortize per-batch dispatch,
/// small enough that a batch's working vectors stay cache-resident.
pub const BATCH_ROWS: usize = 1024;

/// One operator's output: the row count and, per table of the subtree's
/// [`TableLayout`], the heap row id behind each output row. An operator
/// asked only to count (a [`crate::Collect::CountOnly`] plan root)
/// carries no id vectors at all, so [`RowIds::push`] writes nothing.
#[derive(Debug)]
pub(crate) struct RowIds {
    ids: Vec<Vec<u32>>,
    count: u64,
}

impl RowIds {
    /// An empty output over `tables` tables; `emit` says whether the
    /// consumer reads the ids or only the count.
    pub(crate) fn new(tables: usize, emit: bool) -> Self {
        RowIds { ids: vec![Vec::new(); if emit { tables } else { 0 }], count: 0 }
    }

    /// Number of output rows.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Does this output carry ids, or only the count?
    pub(crate) fn emits(&self) -> bool {
        !self.ids.is_empty()
    }

    /// Count `n` more rows without ids (a count-only Cartesian product).
    pub(crate) fn count_only(&mut self, n: u64) {
        debug_assert!(!self.emits());
        self.count += n;
    }

    /// A scan's step: append one selection vector of its table's rows.
    pub(crate) fn push_sel(&mut self, sel: &[u32]) {
        self.count += sel.len() as u64;
        if let Some(ids) = self.ids.first_mut() {
            ids.extend_from_slice(sel);
        }
    }

    /// A join's step: append one output row, its ids in layout order.
    pub(crate) fn push(&mut self, row: impl Iterator<Item = u32>) {
        self.count += 1;
        for (ids, id) in self.ids.iter_mut().zip(row) {
            ids.push(id);
        }
    }

    /// The ids of output row `i`, in layout order.
    pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = u32> + '_ {
        self.ids.iter().map(move |ids| ids[i])
    }

    /// Bind a column of table `table` (a position in the layout) to
    /// this output's rows.
    pub(crate) fn key_col<'a>(&'a self, (table, cells): (usize, ColumnSlice<'a>)) -> KeyCol<'a> {
        KeyCol { cells, rows: &self.ids[table] }
    }

    /// Append every output row to `out` as a row-major `Vec<Value>`.
    /// `cols` lists the output columns in order: the layout position of
    /// each one's table and its heap cells. This is where a
    /// [`crate::Collect::Rows`] result gets its values, a column and a
    /// [`BATCH_ROWS`] window at a time.
    pub(crate) fn extend_rows(&self, cols: &[(usize, ColumnSlice<'_>)], out: &mut Vec<Vec<Value>>) {
        let rows = self.count as usize;
        out.reserve(rows);
        let mut cells: Vec<Value> = Vec::with_capacity(BATCH_ROWS.min(rows));
        for start in (0..rows).step_by(BATCH_ROWS) {
            let window = start..(start + BATCH_ROWS).min(rows);
            let first = out.len();
            out.extend(window.clone().map(|_| Vec::with_capacity(cols.len())));
            for &(table, col) in cols {
                col.gather(&self.ids[table][window.clone()], &mut cells);
                for (row, cell) in out[first..].iter_mut().zip(cells.drain(..)) {
                    row.push(cell);
                }
            }
        }
        colt_obs::counter("engine.exec.values_materialized", (rows * cols.len()) as u64);
    }
}

/// One key column of an operator input: the heap cells of the column
/// and, per input row, the heap row to read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyCol<'a> {
    cells: ColumnSlice<'a>,
    rows: &'a [u32],
}

impl KeyCol<'_> {
    /// Every input row's cell as a [`Value`], in input order.
    pub(crate) fn values(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.cells.gather(self.rows, &mut out);
        out
    }

    /// Does input row `i` hold the cell `cells` has at heap row `row`?
    /// `Value`'s equality: same type, floats bit for bit.
    pub(crate) fn eq_cell(&self, i: usize, cells: &ColumnSlice<'_>, row: usize) -> bool {
        self.cells.cells_eq(self.rows[i] as usize, cells, row)
    }
}

/// Are the keys of `left`'s row `i` and `right`'s row `j` equal, column
/// for column?
pub(crate) fn keys_eq(left: &[KeyCol<'_>], i: usize, right: &[KeyCol<'_>], j: usize) -> bool {
    left.iter().zip(right).all(|(l, r)| l.eq_cell(i, &r.cells, r.rows[j] as usize))
}

/// 2^64 / golden ratio: an odd multiplier that spreads consecutive keys
/// across the whole word.
const KEY_HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One fixed-seed multiply-rotate round (FxHash style) per 8-byte word,
/// in place of `RandomState`'s per-process-seeded SipHash. A fixed seed
/// is safe here because [`Chains`] is point-lookup only — a bucket is
/// walked in row order, never in hash order, so no hash can reach a
/// result — and the keys are column cells of the program's own
/// generated data, not outside input an adversary could craft to
/// collide.
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(KEY_HASH_MUL)
}

/// Fold one key column into the running hashes: `hashes[i]` absorbs the
/// cell of heap row `rows[i]`. Equal cells fold equally; the type is
/// not hashed (a cross-type key pair may collide, and then fails
/// [`ColumnSlice::cells_eq`]).
fn hash_cells(cells: ColumnSlice<'_>, rows: &[u32], hashes: &mut [u64]) {
    fn fold<T>(cells: &[T], rows: &[u32], hashes: &mut [u64], word: impl Fn(&T) -> u64) {
        for (hash, &row) in hashes.iter_mut().zip(rows) {
            *hash = mix(*hash, word(&cells[row as usize]));
        }
    }
    match cells {
        ColumnSlice::Int(c) => fold(c, rows, hashes, |&x| x as u64),
        ColumnSlice::Float(c) => fold(c, rows, hashes, |x| x.to_bits()),
        ColumnSlice::Date(c) => fold(c, rows, hashes, |&x| x as u32 as u64),
        ColumnSlice::Str(c) => {
            for (hash, &row) in hashes.iter_mut().zip(rows) {
                let bytes = c[row as usize].as_bytes();
                for chunk in bytes.chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    *hash = mix(*hash, u64::from_le_bytes(word));
                }
                *hash = mix(*hash, bytes.len() as u64);
            }
        }
    }
}

/// The key hash of each input row in `window`, a key column at a time.
pub(crate) fn hash_keys(keys: &[KeyCol<'_>], window: Range<usize>, hashes: &mut Vec<u64>) {
    hashes.clear();
    hashes.resize(window.len(), 0);
    for key in keys {
        hash_cells(key.cells, &key.rows[window.clone()], hashes);
    }
    for hash in hashes.iter_mut() {
        // A multiply only carries entropy upward, but `Chains` picks its
        // slot from the low bits: keys that are multiples of 2^k would
        // share one. Fold the high half down and mix once more.
        let h = (*hash ^ (*hash >> 32)).wrapping_mul(KEY_HASH_MUL);
        *hash = h ^ (h >> 29);
    }
}

/// "No row" in a [`Chains`] link.
const NO_ROW: u32 = u32::MAX;

/// Slots per chained row. With few slots a probe's "is the slot empty?"
/// branch is a coin flip; at 8 a probe that matches nothing almost
/// always stops at the slot (measured on the `joins` workload: 28.4 µs
/// execute per query at 2, 19.9 µs at 8; EXPERIMENTS.md).
const SLOTS_PER_ROW: usize = 8;

/// A hash table over rows `0..n` keyed by precomputed hashes: each slot
/// heads a chain of the rows whose hash falls in it, linked in
/// ascending row order — so a probe meets its matches in the order the
/// rows were produced, whatever the hashes are.
#[derive(Debug)]
pub(crate) struct Chains {
    hashes: Vec<u64>,
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl Chains {
    /// Chain rows `0..hashes.len()`, row `i` under `hashes[i]`.
    pub(crate) fn build(hashes: Vec<u64>) -> Self {
        let mut heads = vec![NO_ROW; (hashes.len() * SLOTS_PER_ROW).next_power_of_two()];
        let mut next = vec![NO_ROW; hashes.len()];
        // Last row first: every insertion is at the head.
        for (row, &hash) in hashes.iter().enumerate().rev() {
            let slot = hash as usize & (heads.len() - 1);
            next[row] = std::mem::replace(&mut heads[slot], row as u32);
        }
        Chains { hashes, heads, next }
    }

    /// The rows chained under exactly `hash`, ascending.
    pub(crate) fn candidates(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.heads[hash as usize & (self.heads.len() - 1)];
        std::iter::from_fn(move || {
            while at != NO_ROW {
                let row = at as usize;
                at = self.next[row];
                if self.hashes[row] == hash {
                    return Some(row);
                }
            }
            None
        })
    }
}

/// The column layout of an operator's output: which tables participate,
/// in column-slice order, with each table's starting column offset
/// precomputed so join keys resolve in O(tables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableLayout {
    tables: Vec<TableId>,
    starts: Vec<usize>,
}

impl TableLayout {
    /// The layout of several tables' concatenated columns, in order.
    pub fn of_tables(db: &Database, tables: &[TableId]) -> Self {
        let mut names = Vec::with_capacity(tables.len());
        let mut starts = Vec::with_capacity(tables.len());
        let mut width = 0;
        for &t in tables {
            names.push(t);
            starts.push(width);
            width += db.table(t).schema.arity();
        }
        TableLayout { tables: names, starts }
    }

    /// The output layout of a plan subtree, known before it runs: scans
    /// emit their table's columns, joins their left input's (build,
    /// outer) then their right input's (probe, inner).
    pub fn of_plan(db: &Database, node: &PlanNode) -> Self {
        fn walk(node: &PlanNode, out: &mut Vec<TableId>) {
            match node {
                PlanNode::Scan { table, .. } => out.push(*table),
                PlanNode::HashJoin { build, probe, .. } => {
                    walk(build, out);
                    walk(probe, out);
                }
                PlanNode::IndexNlJoin { outer, inner, .. } => {
                    walk(outer, out);
                    out.push(*inner);
                }
            }
        }
        let mut tables = Vec::new();
        walk(node, &mut tables);
        Self::of_tables(db, &tables)
    }

    /// Participating tables in column-slice order.
    pub fn tables(&self) -> &[TableId] {
        &self.tables
    }

    /// The position of `table` among [`TableLayout::tables`], when
    /// present: the index of its id vector in an operator's output.
    pub fn position_of(&self, table: TableId) -> Option<usize> {
        self.tables.iter().position(|&t| t == table)
    }

    /// Resolve a column reference to its offset in this layout.
    pub fn col_of(&self, col: ColRef) -> Option<usize> {
        self.position_of(col.table).map(|i| self.starts[i] + col.column as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The finished key hashes of one column's rows `0..len`.
    fn hashes_of(cells: ColumnSlice<'_>) -> Vec<u64> {
        let rows: Vec<u32> = (0..cells.len() as u32).collect();
        let mut hashes = Vec::new();
        hash_keys(&[KeyCol { cells, rows: &rows }], 0..rows.len(), &mut hashes);
        hashes
    }

    #[test]
    fn key_hasher_spreads_strided_keys_over_low_bits() {
        // `Chains` picks slots from the low bits, and a bare
        // multiplicative hash maps keys that are multiples of 2^k to
        // hashes that are too. The finish must not: 1024 keys at any
        // stride should fill about as many of 1024 slots as random
        // hashes would (1 - 1/e, ~647).
        for stride in [1i64, 1 << 10, 1 << 20, 1 << 40, 1 << 50] {
            let keys: Vec<i64> = (0..1024).map(|i| i * stride).collect();
            let mut slots = [false; 1024];
            for hash in hashes_of(ColumnSlice::Int(&keys)) {
                slots[(hash & 1023) as usize] = true;
            }
            let filled = slots.iter().filter(|&&b| b).count();
            assert!(filled >= 512, "stride {stride}: {filled} of 1024 slots");
        }
    }

    #[test]
    fn equal_cells_hash_equally_and_the_two_zeros_do_not() {
        let ints = hashes_of(ColumnSlice::Int(&[7, -3, 7, i64::MIN, -3]));
        assert_eq!((ints[0], ints[1]), (ints[2], ints[4]));
        assert_ne!(ints[0], ints[1]);
        let strs = ["ab", "", "ab", "ab\0", "abcdefghi", "abcdefgh"].map(String::from);
        let hashed = hashes_of(ColumnSlice::Str(&strs));
        assert_eq!(hashed[0], hashed[2]);
        // Zero padding of the last word must not hide a length.
        assert_ne!(hashed[0], hashed[3]);
        assert_ne!(hashed[4], hashed[5]);
        let nan = f64::NAN;
        let floats = hashes_of(ColumnSlice::Float(&[0.0, -0.0, nan, -nan, nan, 0.0]));
        assert_ne!(floats[0], floats[1], "0.0 and -0.0 are different keys");
        assert_ne!(floats[2], floats[3], "so are the two NaN signs");
        assert_eq!((floats[0], floats[2]), (floats[5], floats[4]));
        // A second key column folds into the first one's hashes.
        let rows = [0u32, 1, 2];
        let (a, b) = ([1i64, 1, 2], [5i32, 6, 5]);
        let keys = [
            KeyCol { cells: ColumnSlice::Int(&a), rows: &rows },
            KeyCol { cells: ColumnSlice::Date(&b), rows: &rows },
        ];
        let mut two = Vec::new();
        hash_keys(&keys, 0..3, &mut two);
        assert!(two[0] != two[1] && two[0] != two[2] && two[1] != two[2]);
        assert!(keys_eq(&keys, 0, &keys, 0) && !keys_eq(&keys, 0, &keys, 1));
    }

    #[test]
    fn chains_yield_equal_hashes_in_row_order() {
        // Hashes 3 and 3 + 64 share a slot of the 64 a 6-row build
        // gets; a probe for one must skip the other and keep row order.
        let chains = Chains::build(vec![3, 67, 3, 9, 67, 3]);
        assert_eq!(chains.candidates(3).collect::<Vec<_>>(), [0, 2, 5]);
        assert_eq!(chains.candidates(67).collect::<Vec<_>>(), [1, 4]);
        assert_eq!(chains.candidates(9).collect::<Vec<_>>(), [3]);
        assert_eq!(chains.candidates(131).count(), 0);
        assert_eq!(Chains::build(Vec::new()).candidates(0).count(), 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        for emit in [false, true] {
            let ids = RowIds::new(2, emit);
            assert_eq!((ids.count(), ids.emits()), (0, emit));
            let mut rows = Vec::new();
            ids.extend_rows(&[], &mut rows);
            assert!(rows.is_empty());
        }
        // Counting without ids: pushes move the count and write nothing.
        let mut counted = RowIds::new(2, false);
        counted.push_sel(&[4, 9]);
        counted.push([1, 2].into_iter());
        counted.count_only(5);
        assert_eq!((counted.count(), counted.emits()), (8, false));
    }

    #[test]
    fn extend_rows_honors_selection() {
        // Two tables; the output takes rows (1, 0) then (3, 0) of them.
        let (a, b) = ([10i64, 11, 12, 13], ["x".to_string()]);
        let mut ids = RowIds::new(2, true);
        ids.push([1, 0].into_iter());
        ids.push([3, 0].into_iter());
        assert_eq!(ids.row(1).collect::<Vec<_>>(), [3, 0]);
        let cols = [(0, ColumnSlice::Int(&a)), (1, ColumnSlice::Str(&b)), (0, ColumnSlice::Int(&a))];
        let mut rows = vec![vec![Value::Int(-1)]];
        ids.extend_rows(&cols, &mut rows);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(-1)],
                vec![Value::Int(11), Value::from("x"), Value::Int(11)],
                vec![Value::Int(13), Value::from("x"), Value::Int(13)],
            ]
        );
    }
}
