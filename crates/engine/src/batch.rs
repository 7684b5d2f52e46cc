//! Columnar batches flowing between vectorized operators.
//!
//! The executor processes rows a batch at a time (MonetDB/X100 style):
//! every operator produces [`ColumnBatch`]es of up to [`BATCH_ROWS`]
//! rows, stored as one `Vec<Value>` per output column; a
//! [`TableLayout`], derived from the plan, maps each participating
//! table to its column range. A batch optionally carries a *selection vector* — the
//! sorted physical row indices that are still live after filtering —
//! so a filter can drop rows without moving any column data; every
//! consumer iterates [`ColumnBatch::live`] and therefore honors it.
//! Inside the executor a batch's columns may be *pruned* (left empty):
//! needed-column pushdown materializes only what a consumer reads.
//!
//! None of this affects the cost model: [`colt_storage::IoStats`] is
//! charged per page and per tuple *processed*, which is invariant to
//! how processed rows are grouped into batches (see DESIGN.md,
//! "Vectorized execution").

use crate::error::ExecError;
use crate::plan::PlanNode;
use colt_catalog::{ColRef, Database, TableId};
use colt_storage::Value;
use std::hash::{BuildHasherDefault, Hasher};

/// Target rows per batch. Large enough to amortize per-batch dispatch,
/// small enough that a batch's columns stay cache-resident.
pub const BATCH_ROWS: usize = 1024;

/// The hasher behind the join and group-by hash tables: one fixed-seed
/// multiply-rotate round per 8-byte word (FxHash style) in place of
/// `RandomState`'s per-process-seeded SipHash. A fixed seed is safe
/// here because those tables are point-lookup only — never iterated, so
/// no hash order can reach a result — and their keys are column values
/// of the program's own generated data, not outside input an adversary
/// could craft to collide.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

/// 2^64 / golden ratio: an odd multiplier that spreads consecutive keys
/// across the whole word.
const KEY_HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// `BuildHasher` for [`KeyHasher`]-keyed `HashMap`s.
pub(crate) type KeyHash = BuildHasherDefault<KeyHasher>;

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(KEY_HASH_MUL);
    }

    fn finish(&self) -> u64 {
        // A multiply only carries entropy upward, but the table picks
        // its bucket from the low bits: keys that are multiples of 2^k
        // would share one. Fold the high half down and mix once more.
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(KEY_HASH_MUL);
        h ^ (h >> 29)
    }
}

/// A batch of rows in columnar form, with an optional selection vector.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnBatch {
    /// One vector per column; all the same length.
    columns: Vec<Vec<Value>>,
    /// Physical row count (the length of every column).
    rows: usize,
    /// Live physical row indices, sorted ascending; `None` = all live.
    sel: Option<Vec<u32>>,
}

impl ColumnBatch {
    /// A batch from pre-built columns, all fully live. Returns
    /// [`ExecError::ColumnArityMismatch`] unless every column has the
    /// same length.
    pub fn from_columns(columns: Vec<Vec<Value>>) -> Result<Self, ExecError> {
        let rows = columns.first().map_or(0, Vec::len);
        for c in &columns {
            if c.len() != rows {
                return Err(ExecError::ColumnArityMismatch {
                    operator: "batch",
                    expected: rows,
                    got: c.len(),
                });
            }
        }
        Ok(ColumnBatch { columns, rows, sel: None })
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Physical rows stored (live or not).
    pub fn physical_rows(&self) -> usize {
        self.rows
    }

    /// Rows still live under the selection vector.
    pub fn live_rows(&self) -> usize {
        self.sel.as_ref().map_or(self.rows, Vec::len)
    }

    /// The selection vector, when one is present.
    pub fn sel(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// One column's values (physical order; apply [`ColumnBatch::live`]
    /// to read only live rows). `None` when out of range.
    pub fn column(&self, col: usize) -> Option<&[Value]> {
        self.columns.get(col).map(Vec::as_slice)
    }

    /// One value by (column, physical row). `None` when out of range.
    pub fn value(&self, col: usize, row: usize) -> Option<&Value> {
        self.columns.get(col).and_then(|c| c.get(row))
    }

    /// Iterate the live physical row indices, in ascending order.
    pub fn live(&self) -> impl Iterator<Item = usize> + '_ {
        // Chain the two representations into one iterator shape.
        let (dense, selected) = match &self.sel {
            None => (0..self.rows, [].iter()),
            Some(s) => (0..0, s.iter()),
        };
        dense.chain(selected.map(|&i| i as usize))
    }

    /// Refine the selection vector: keep only live rows for which
    /// `keep(physical_row)` holds. This is the vectorized filter
    /// primitive — no column data moves.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        match &mut self.sel {
            Some(s) => s.retain(|&i| keep(i as usize)),
            None => {
                let s: Vec<u32> = (0..self.rows as u32).filter(|&i| keep(i as usize)).collect();
                if s.len() != self.rows {
                    self.sel = Some(s);
                }
            }
        }
    }

    /// Append every live row to `out` as a row-major `Vec<Value>`.
    pub fn extend_rows(&self, out: &mut Vec<Vec<Value>>) {
        out.reserve(self.live_rows());
        for r in self.live() {
            out.push(self.columns.iter().map(|c| c[r].clone()).collect());
        }
    }

    /// Consume the batch, appending every live row to `out` as a
    /// row-major `Vec<Value>`. Dense batches *move* their values out
    /// (one pass of column iterators, no clones); selected batches
    /// clone only the live rows.
    pub fn into_rows(self, out: &mut Vec<Vec<Value>>) {
        out.reserve(self.live_rows());
        match self.sel {
            None => {
                let mut iters: Vec<_> = self.columns.into_iter().map(Vec::into_iter).collect();
                for _ in 0..self.rows {
                    // colt: allow(panic-policy) — every column holds `rows` values by construction
                    out.push(iters.iter_mut().map(|it| it.next().expect("column length")).collect());
                }
            }
            Some(s) => {
                for &i in &s {
                    out.push(self.columns.iter().map(|c| c[i as usize].clone()).collect());
                }
            }
        }
    }

    /// Internal: one value by (column, physical row), for operator inner
    /// loops whose offsets were validated at the batch boundary.
    pub(crate) fn val(&self, col: usize, row: usize) -> &Value {
        &self.columns[col][row]
    }

    /// Internal: a dense batch of `rows` rows. Operators build columns
    /// in lockstep, so every column holds `rows` values — except the
    /// columns no consumer reads, which needed-column pushdown leaves
    /// *empty* (pruned). Reading a pruned column via
    /// [`ColumnBatch::val`] panics, loudly, instead of returning wrong
    /// data.
    pub(crate) fn dense(columns: Vec<Vec<Value>>, rows: usize) -> Self {
        debug_assert!(columns.iter().all(|c| c.is_empty() || c.len() == rows));
        ColumnBatch { columns, rows, sel: None }
    }

    /// Internal: move this batch's live rows onto the end of `cols`
    /// (one target vector per column). Dense batches move their column
    /// vectors wholesale; selected batches copy only live rows.
    pub(crate) fn drain_into(mut self, cols: &mut [Vec<Value>]) {
        debug_assert_eq!(cols.len(), self.columns.len());
        match self.sel {
            None => {
                for (dst, src) in cols.iter_mut().zip(self.columns.iter_mut()) {
                    if dst.is_empty() {
                        std::mem::swap(dst, src);
                    } else {
                        dst.append(src);
                    }
                }
            }
            Some(ref s) => {
                for (dst, src) in cols.iter_mut().zip(self.columns.iter()) {
                    dst.extend(s.iter().map(|&i| src[i as usize].clone()));
                }
            }
        }
    }
}

/// The column layout of an operator's output: which tables participate,
/// in column-slice order, with each table's starting column offset
/// precomputed so join keys and aggregate columns resolve in O(tables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableLayout {
    tables: Vec<TableId>,
    starts: Vec<usize>,
    width: usize,
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
        TableLayout { tables: names, starts, width }
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

    /// Total column count.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The starting column offset of `table`, when present.
    pub fn start_of(&self, table: TableId) -> Option<usize> {
        self.tables.iter().position(|&t| t == table).map(|i| self.starts[i])
    }

    /// Resolve a column reference to its offset in this layout.
    pub fn col_of(&self, col: ColRef) -> Option<usize> {
        self.start_of(col.table).map(|s| s + col.column as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: usize) -> ColumnBatch {
        ColumnBatch::from_columns(vec![
            (0..n as i64).map(Value::Int).collect(),
            (0..n as i64).map(|i| Value::Int(i * 10)).collect(),
        ])
        .unwrap()
    }

    #[test]
    fn key_hasher_spreads_strided_keys_over_low_bits() {
        // The hash table picks buckets from the low bits, and a bare
        // multiplicative hash maps keys that are multiples of 2^k to
        // hashes that are too. The finish must not: 1024 keys at any
        // stride should fill about as many of 1024 buckets as random
        // hashes would (1 - 1/e, ~647).
        use std::hash::BuildHasher;
        for stride in [1i64, 1 << 10, 1 << 20, 1 << 40, 1 << 50] {
            let mut buckets = [false; 1024];
            for i in 0..1024 {
                let hash = KeyHash::default().hash_one(Value::Int(i * stride));
                buckets[(hash & 1023) as usize] = true;
            }
            let filled = buckets.iter().filter(|&&b| b).count();
            assert!(filled >= 512, "stride {stride}: {filled} of 1024 buckets");
        }
    }

    #[test]
    fn arity_mismatch_is_typed_error() {
        let err = ColumnBatch::from_columns(vec![vec![Value::Int(1)], vec![]]).unwrap_err();
        assert_eq!(
            err,
            ExecError::ColumnArityMismatch { operator: "batch", expected: 1, got: 0 }
        );
    }

    #[test]
    fn empty_batch_is_fine() {
        let b = ColumnBatch::from_columns(vec![]).unwrap();
        assert_eq!(b.live_rows(), 0);
        assert_eq!(b.live().count(), 0);
        let b = batch(0);
        assert_eq!(b.live_rows(), 0);
        assert_eq!(b.width(), 2);
    }

    #[test]
    fn retain_refines_selection() {
        let mut b = batch(10);
        assert!(b.sel().is_none());
        b.retain(|r| r % 2 == 0); // 0,2,4,6,8
        assert_eq!(b.live_rows(), 5);
        assert_eq!(b.physical_rows(), 10, "no data moved");
        b.retain(|r| r >= 4); // 4,6,8
        assert_eq!(b.live().collect::<Vec<_>>(), vec![4, 6, 8]);
        // All-filtered is a live but empty selection.
        b.retain(|_| false);
        assert_eq!(b.live_rows(), 0);
        assert_eq!(b.sel(), Some(&[][..]));
    }

    #[test]
    fn retain_keeping_everything_stays_dense() {
        let mut b = batch(4);
        b.retain(|_| true);
        assert!(b.sel().is_none(), "full selection stays implicit");
    }

    #[test]
    fn extend_rows_honors_selection() {
        let mut b = batch(4);
        b.retain(|r| r == 1 || r == 3);
        let mut rows = Vec::new();
        b.extend_rows(&mut rows);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(3), Value::Int(30)],
            ]
        );
    }

    #[test]
    fn into_rows_matches_extend_rows() {
        for selected in [false, true] {
            let mut b = batch(5);
            if selected {
                b.retain(|r| r % 2 == 1);
            }
            let mut cloned = Vec::new();
            b.extend_rows(&mut cloned);
            let mut moved = Vec::new();
            b.into_rows(&mut moved);
            assert_eq!(moved, cloned, "selected={selected}");
        }
    }

    #[test]
    fn drain_into_moves_dense_and_gathers_selected() {
        let mut cols = vec![Vec::new(), Vec::new()];
        batch(3).drain_into(&mut cols);
        let mut b = batch(3);
        b.retain(|r| r == 2);
        b.drain_into(&mut cols);
        assert_eq!(cols[0], vec![Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(2)]);
        assert_eq!(cols[1].len(), 4);
    }
}
