//! What flows between vectorized operators: heap row ids.
//!
//! The executor processes rows a batch at a time (MonetDB/X100 style)
//! and materializes late: an operator's output is a [`RowIds`] — per
//! table of its slice of the plan's table order, the heap row each
//! output row takes that table's columns from — and no operator copies
//! a cell. Scans append the selection vectors their kernels produce;
//! joins read their keys straight from the heap's typed columns through
//! those ids ([`KeyCol`]), hash them a column at a time ([`hash_keys`])
//! and chain equal hashes ([`Chains`]). `Value`s are built where a
//! consumer asks for them, at the plan root ([`RowIds::extend_rows`]).
//!
//! None of this affects the cost model: [`colt_storage::IoStats`] is
//! charged per page and per tuple *processed*, which is invariant to
//! how processed rows are grouped into batches (see DESIGN.md,
//! "Vectorized execution").

use colt_storage::{ColumnSlice, Value};
use std::cmp::Ordering;
use std::ops::Range;

/// Target rows per batch. Large enough to amortize per-batch dispatch,
/// small enough that a batch's working vectors stay cache-resident.
pub const BATCH_ROWS: usize = 1024;

/// One operator's output: the row count and, per table of the subtree's
/// layout (its tables in output order), the heap row id behind each
/// output row. An operator asked only to count (a
/// [`crate::Collect::CountOnly`] plan root) carries no id vectors at
/// all, so [`RowIds::push`] writes nothing.
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
    /// Input row `i`'s cell as a key code of `column`: an index probe.
    pub(crate) fn code_in(&self, i: usize, column: &ColumnSlice<'_>) -> Result<u64, Ordering> {
        self.cells.code_in(self.rows[i] as usize, column)
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

/// One folded multiply per 8-byte word: the 128-bit product of
/// `hash ^ word` and [`KEY_HASH_MUL`], its two halves xored. A plain
/// multiply carries entropy only upward, so keys at a stride of 2^k
/// would hash to multiples of 2^k and share [`Chains`]' low-bit slots;
/// the high half brings the rest down, so no finishing pass is needed
/// (`key_hasher_spreads_*`: ≥ 512 of 1 024 slots at every stride tried;
/// a finishing pass on top measured `joins` 1.16× against 1.30× without,
/// EXPERIMENTS.md, "PR 25"). A fixed seed, in place of `RandomState`'s
/// per-process SipHash, is safe because [`Chains`] is point-lookup only
/// — a chain is walked in row order, never in hash order, so no hash
/// can reach a result — and the keys are column cells of the program's
/// own generated data, not outside input an adversary could craft to
/// collide.
fn mix(hash: u64, word: u64) -> u64 {
    let product = u128::from(hash ^ word) * u128::from(KEY_HASH_MUL);
    product as u64 ^ (product >> 64) as u64
}

/// Fold one key column into the running hashes: `hashes[i]` absorbs the
/// cell of heap row `rows[i]`. Equal cells fold equally; the type is
/// not hashed (a cross-type key pair may collide, and then fails
/// [`ColumnSlice::cells_eq`]). A string is hashed by its bytes, read
/// through its column's dictionary: two tables' ranks of one string
/// differ.
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
        ColumnSlice::Str { dict, ranks } => {
            for (hash, &row) in hashes.iter_mut().zip(rows) {
                let bytes = dict[ranks[row as usize] as usize].as_bytes();
                // Whole words as one load each (a variable-length copy per
                // word is a `memcpy` call), then the zero-padded tail.
                let mut words = bytes.chunks_exact(8);
                for chunk in words.by_ref() {
                    let mut word = [0u8; 8];
                    word.copy_from_slice(chunk);
                    *hash = mix(*hash, u64::from_le_bytes(word));
                }
                let tail = words.remainder().iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
                *hash = mix(mix(*hash, tail), bytes.len() as u64);
            }
        }
    }
}

/// The key hash of each input row in `window`, a key column at a time,
/// ready for [`Chains`]' low-bit slots as each [`mix`] leaves it.
pub(crate) fn hash_keys(keys: &[KeyCol<'_>], window: Range<usize>, hashes: &mut Vec<u64>) {
    hashes.clear();
    hashes.resize(window.len(), 0);
    for key in keys {
        hash_cells(key.cells, &key.rows[window.clone()], hashes);
    }
}

/// The equi-join of two inputs' key columns: `hit(b, p)` for every build
/// row `b` and probe row `p` whose keys are equal ([`keys_eq`]), probe
/// rows in order and each one's matches in build order, as the reference
/// emits them. The probe goes a [`BATCH_ROWS`] window at a time.
pub(crate) fn equi_join(
    build: &[KeyCol<'_>],
    probe: &[KeyCol<'_>],
    mut hit: impl FnMut(usize, usize),
) {
    let rows = |keys: &[KeyCol<'_>]| keys.first().map_or(0, |k| k.rows.len());
    let mut hashes = Vec::new();
    hash_keys(build, 0..rows(build), &mut hashes);
    let chains = Chains::build(hashes);
    let probe_rows = rows(probe);
    let (mut hashes, mut heads) = (Vec::new(), Vec::new());
    for start in (0..probe_rows).step_by(BATCH_ROWS) {
        hash_keys(probe, start..(start + BATCH_ROWS).min(probe_rows), &mut hashes);
        chains.probe(&hashes, &mut heads, |i, b| {
            if keys_eq(build, b, probe, start + i) {
                hit(b, start + i);
            }
        });
    }
}

/// "No row" in a [`Chains`] link.
const NO_ROW: u32 = u32::MAX;

/// Slots per chained row: the more slots, the fewer probes find an
/// occupied slot whose chain holds only other hashes. Measured under
/// the branch-free probe on the `joins` workload: 8, 4 and 2 slots read
/// 1.30×, 1.22× and 1.09× the queries/s of PR 24's one-pass probe
/// (EXPERIMENTS.md, "PR 25").
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

    /// `hit(i, row)` for every chained row whose hash is `hashes[i]`, in
    /// order of `i`, then ascending `row`. Two passes, so that nothing
    /// branches on the data before a chain is known to be there: the
    /// first writes every probe's slot head into `heads` (a buffer the
    /// caller keeps) and advances past the occupied ones only, like
    /// `Kernel::select`; the second walks those chains.
    pub(crate) fn probe(
        &self,
        hashes: &[u64],
        heads: &mut Vec<(u32, u32)>,
        mut hit: impl FnMut(usize, usize),
    ) {
        let mask = self.heads.len() - 1;
        heads.clear();
        heads.resize(hashes.len(), (0, NO_ROW));
        let out = heads.as_mut_slice();
        let mut found = 0;
        for (i, &hash) in hashes.iter().enumerate() {
            let head = self.heads[hash as usize & mask];
            out[found] = (i as u32, head);
            found += usize::from(head != NO_ROW);
        }
        for &(i, mut at) in &out[..found] {
            let hash = hashes[i as usize];
            while at != NO_ROW {
                let row = at as usize;
                if self.hashes[row] == hash {
                    hit(i as usize, row);
                }
                at = self.next[row];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_storage::{row_from, HeapTable, ValueType};

    /// A one-column heap of strings, row `i` holding `strs[i]`.
    fn str_heap<S: AsRef<str>>(strs: &[S]) -> HeapTable {
        let mut heap = HeapTable::new(&[ValueType::Str]);
        heap.insert_rows(strs.iter().map(|s| row_from(vec![s.as_ref().into()]))).unwrap();
        heap
    }

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

    /// How many of 1 024 low-bit slots the hashes fill.
    fn slots_filled(hashes: &[u64]) -> usize {
        let mut slots = [false; 1024];
        for hash in hashes {
            slots[(hash & 1023) as usize] = true;
        }
        slots.iter().filter(|&&b| b).count()
    }

    #[test]
    fn key_hasher_spreads_wide_strides_two_column_keys_and_shared_prefixes() {
        // The same ≥ 512-of-1 024 bar on shapes the strides above leave
        // out: strides past 2^32 (a key's only set bits in the high
        // word), a two-column key whose first column is constant or
        // strided, and strings that share their first 8-byte word.
        for stride in [1i64 << 32, 1 << 54, 3 << 52] {
            let keys: Vec<i64> = (0..1024).map(|i: i64| i.wrapping_mul(stride)).collect();
            let filled = slots_filled(&hashes_of(ColumnSlice::Int(&keys)));
            assert!(filled >= 512, "stride {stride}: {filled} of 1024 slots");
        }
        let rows: Vec<u32> = (0..1024).collect();
        let days: Vec<i32> = (0..1024).map(|i| 8_000 + i * 1024).collect();
        for ints in [vec![7i64; 1024], (0..1024).map(|i| i << 20).collect()] {
            let keys = [
                KeyCol { cells: ColumnSlice::Int(&ints), rows: &rows },
                KeyCol { cells: ColumnSlice::Date(&days), rows: &rows },
            ];
            let mut hashes = Vec::new();
            hash_keys(&keys, 0..1024, &mut hashes);
            let filled = slots_filled(&hashes);
            assert!(filled >= 512, "(Int, Date) from {}: {filled} of 1024 slots", ints[1]);
        }
        let names: Vec<String> = (0..1024).map(|i| format!("Customer#{i:09}")).collect();
        let filled = slots_filled(&hashes_of(str_heap(&names).column(0).unwrap()));
        assert!(filled >= 512, "shared prefix: {filled} of 1024 slots");
    }

    #[test]
    fn equal_cells_hash_equally_and_the_two_zeros_do_not() {
        let ints = hashes_of(ColumnSlice::Int(&[7, -3, 7, i64::MIN, -3]));
        assert_eq!((ints[0], ints[1]), (ints[2], ints[4]));
        assert_ne!(ints[0], ints[1]);
        let strs = ["ab", "", "ab", "ab\0", "abcdefghi", "abcdefgh"].map(String::from);
        let hashed = hashes_of(str_heap(&strs).column(0).unwrap());
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
        let candidates = |chains: &Chains, hash: u64| {
            let mut rows = Vec::new();
            chains.probe(&[hash], &mut Vec::new(), |_, row| rows.push(row));
            rows
        };
        assert_eq!(candidates(&chains, 3), [0, 2, 5]);
        assert_eq!(candidates(&chains, 67), [1, 4]);
        assert_eq!(candidates(&chains, 9), [3]);
        assert_eq!(candidates(&chains, 131).len(), 0);
        assert_eq!(candidates(&Chains::build(Vec::new()), 0).len(), 0);
    }

    /// The equi-join as a nested loop over [`keys_eq`] (`cells_eq` per
    /// column): `(build row, probe row)` pairs, probe-major and
    /// build-ascending.
    fn nested_loop(build: &[KeyCol<'_>], probe: &[KeyCol<'_>]) -> Vec<(usize, usize)> {
        let (builds, probes) = (build[0].rows.len(), probe[0].rows.len());
        (0..probes)
            .flat_map(|p| {
                (0..builds).filter(move |&b| keys_eq(build, b, probe, p)).map(move |b| (b, p))
            })
            .collect()
    }

    #[test]
    fn equi_join_matches_a_nested_loop() {
        let ints = [i64::MIN, i64::MAX, -1, 0, 1, 1 << 40, 3 << 52];
        let nan = f64::NAN;
        let floats = [0.0, -0.0, nan, -nan, 1.5, f64::INFINITY, f64::NEG_INFINITY];
        // Across 8-byte word boundaries, and equal but for the length.
        let strs = ["", "a", "abcdefg", "abcdefgh", "abcdefghi", "abcdefgh\0", "abcdefghabcdefgh"]
            .map(String::from);
        let strs = str_heap(&strs);
        let strs = strs.column(0).unwrap();
        let dates = [i32::MIN, i32::MAX, -1, 0, 1, 8_000];
        // A two-column key (a, hash(a) ^ c) hashes to hash(c) whatever `a`
        // is: under each of three `c`s the seven `a`s share one full
        // hash, and the three hashes agree in their low 14 bits, so all
        // 21 keys share a slot in a table of up to 2 048 rows.
        let hash = |x: i64| hashes_of(ColumnSlice::Int(&[x]))[0];
        let mut by_slot = std::collections::BTreeMap::<u64, Vec<u64>>::new();
        let cs = (0..)
            .find_map(|c| {
                let same = by_slot.entry(hash(c) & 0x3fff).or_default();
                same.push(c as u64);
                (same.len() == 3).then(|| same.clone())
            })
            .unwrap();
        let firsts: Vec<i64> = (0..21).map(|k| ints[k % 7]).collect();
        let seconds: Vec<i64> = (0..21).map(|k| (hash(firsts[k]) ^ cs[k / 7]) as i64).collect();
        let mut pair_hashes = Vec::new();
        let all: Vec<u32> = (0..21).collect();
        let pairs = [(ColumnSlice::Int(&firsts), &all), (ColumnSlice::Int(&seconds), &all)];
        hash_keys(&pairs.map(|(cells, rows)| KeyCol { cells, rows }), 0..21, &mut pair_hashes);
        pair_hashes.dedup();
        assert_eq!(pair_hashes.len(), 3, "seven keys per full hash");
        assert!(pair_hashes.iter().all(|h| h & 0x3fff == pair_hashes[0] & 0x3fff));

        use ColumnSlice::{Date, Float, Int};
        let shapes: [(&str, Vec<ColumnSlice<'_>>, Vec<ColumnSlice<'_>>); 7] = [
            ("int", vec![Int(&ints)], vec![Int(&ints)]),
            ("float", vec![Float(&floats)], vec![Float(&floats)]),
            ("str", vec![strs], vec![strs]),
            ("date", vec![Date(&dates)], vec![Date(&dates)]),
            ("(int, str)", vec![Int(&ints), strs], vec![Int(&ints), strs]),
            (
                "(int, int) in one slot",
                vec![Int(&firsts), Int(&seconds)],
                vec![Int(&firsts), Int(&seconds)],
            ),
            ("int = date", vec![Int(&ints)], vec![Date(&dates)]),
        ];
        let mut rng = colt_storage::Prng::new(0xc0de_0025);
        for (name, build_cols, probe_cols) in &shapes {
            let mut matched = 0;
            for builds in [0, 1, 1_500] {
                // Probes of one window, one short of two, exactly one,
                // one past it, and three windows through one buffer.
                for probes in [1, 1_023, 1_024, 1_025, 3_000] {
                    // One draw per input row picks the cell of every key
                    // column; build rows 200..700 are one key.
                    let mut draws = |n: usize| (0..n).map(|_| rng.next_u64()).collect::<Vec<_>>();
                    let mut build_draws = draws(builds);
                    if builds > 700 {
                        let one = build_draws[200];
                        build_draws[200..700].fill(one);
                    }
                    let probe_draws = draws(probes);
                    let ids = |draws: &[u64], cols: &[ColumnSlice<'_>]| -> Vec<Vec<u32>> {
                        (cols.iter())
                            .map(|c| draws.iter().map(|&d| (d % c.len() as u64) as u32).collect())
                            .collect()
                    };
                    let (build_ids, probe_ids) =
                        (ids(&build_draws, build_cols), ids(&probe_draws, probe_cols));
                    fn keys<'a>(cols: &[ColumnSlice<'a>], ids: &'a [Vec<u32>]) -> Vec<KeyCol<'a>> {
                        (cols.iter().zip(ids))
                            .map(|(&cells, rows)| KeyCol { cells, rows })
                            .collect()
                    }
                    let (build, probe) =
                        (keys(build_cols, &build_ids), keys(probe_cols, &probe_ids));
                    let mut got = Vec::new();
                    equi_join(&build, &probe, |b, p| got.push((b, p)));
                    assert_eq!(got, nested_loop(&build, &probe), "{name}: {builds} x {probes}");
                    matched += got.len();
                }
            }
            assert_eq!(matched > 0, *name != "int = date", "{name}: {matched} pairs");
        }
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
        let (a, b) = ([10i64, 11, 12, 13], str_heap(&["x"]));
        let mut ids = RowIds::new(2, true);
        ids.push([1, 0].into_iter());
        ids.push([3, 0].into_iter());
        assert_eq!(ids.row(1).collect::<Vec<_>>(), [3, 0]);
        let cols = [(0, ColumnSlice::Int(&a)), (1, b.column(0).unwrap()), (0, ColumnSlice::Int(&a))];
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
