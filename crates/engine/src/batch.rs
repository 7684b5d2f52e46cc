//! What flows between vectorized operators: heap row ids.
//!
//! The executor processes rows a batch at a time (MonetDB/X100 style)
//! and materializes late: an operator's output is a `RowIds` — per
//! table of its slice of the plan's table order, the heap row each
//! output row takes that table's columns from — and no operator copies
//! a cell. Ids are written only where a consumer reads them: a
//! predicate-free scan's output is its whole table, *dense*, with no ids;
//! other scans append their kernels' selection vectors; a join gathers
//! its inputs' ids through its matching row pairs (`Matches`), or only
//! counts them at a [`crate::Collect::CountOnly`] root. Joins read their
//! keys straight from the heap's typed columns (`KeyCol`) and chain
//! them (`Chains`) under a slot key: a single `Int` or `Date` key's
//! code less the build's least, when the build's codes span few enough
//! slots, else the key's hash, a column at a time (`hash_keys`;
//! `SlotRule`). `Value`s are built where a consumer asks for them, at
//! the plan root (`RowIds::extend_rows`).
//!
//! None of this affects the cost model: [`colt_storage::IoStats`] is
//! charged per page and per tuple *processed*, which is invariant to
//! how processed rows are grouped into batches (see DESIGN.md,
//! "Vectorized execution").

use colt_storage::{ColumnSlice, KeyCode, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;

/// Target rows per batch. Large enough to amortize per-batch dispatch,
/// small enough that a batch's working vectors stay cache-resident.
pub const BATCH_ROWS: usize = 1024;

/// One operator's output: the row count and which heap rows they are.
/// An operator asked only to count (a [`crate::Collect::CountOnly`] plan
/// root) lists no table at all, so nothing is written.
#[derive(Debug)]
pub(crate) struct RowIds {
    ids: Ids,
    count: u64,
}

#[derive(Debug)]
enum Ids {
    /// Rows `0..count` of the one table: a predicate-free scan's.
    Dense,
    /// Per table of the subtree's layout (its tables in output order),
    /// the heap row behind each output row; no table when counted only.
    Listed(Vec<Vec<u32>>),
}

impl RowIds {
    /// An empty output over `tables` tables; `emit` says whether the
    /// consumer reads the ids or only the count.
    pub(crate) fn new(tables: usize, emit: bool) -> Self {
        RowIds { ids: Ids::Listed(vec![Vec::new(); if emit { tables } else { 0 }]), count: 0 }
    }

    /// Rows `0..n` of one table, written nowhere.
    pub(crate) fn dense(n: u64, emit: bool) -> Self {
        RowIds { ids: if emit { Ids::Dense } else { Ids::Listed(Vec::new()) }, count: n }
    }

    /// Number of output rows.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Does this output carry ids, or only the count?
    pub(crate) fn emits(&self) -> bool {
        !matches!(&self.ids, Ids::Listed(tables) if tables.is_empty())
    }

    /// How many ids the operator wrote: one per row and listed table.
    pub(crate) fn written(&self) -> u64 {
        if let Ids::Listed(tables) = &self.ids { self.count * tables.len() as u64 } else { 0 }
    }

    /// Count `n` more rows without ids (a counting scan's window).
    pub(crate) fn count_only(&mut self, n: u64) {
        self.count += n;
    }

    /// A scan's step: append one selection vector of its table's rows.
    pub(crate) fn push_sel(&mut self, sel: &[u32]) {
        self.count += sel.len() as u64;
        if let Ids::Listed(tables) = &mut self.ids {
            tables.iter_mut().for_each(|ids| ids.extend_from_slice(sel));
        }
    }

    /// A join's output: counted, or per matching pair `(l, r)` row `l`
    /// of `left` then row `r` of `right`, gathered a table at a time.
    pub(crate) fn joined(left: &RowIds, right: &RowIds, matches: Matches) -> Self {
        let pairs = match matches {
            Matches::Counted(count) => return RowIds { ids: Ids::Listed(Vec::new()), count },
            Matches::Pairs(pairs) => pairs,
        };
        let mut ids = Vec::new();
        left.gather(pairs.iter().map(|&(l, _)| l), &mut ids);
        right.gather(pairs.iter().map(|&(_, r)| r), &mut ids);
        RowIds { ids: Ids::Listed(ids), count: pairs.len() as u64 }
    }

    /// Append, per table of this output, the heap rows of its rows `at`.
    fn gather(&self, at: impl Iterator<Item = u32> + Clone, out: &mut Vec<Vec<u32>>) {
        match &self.ids {
            Ids::Dense => out.push(at.collect()),
            Ids::Listed(tables) => {
                out.extend(tables.iter().map(|ids| at.clone().map(|i| ids[i as usize]).collect()))
            }
        }
    }

    /// Bind a column of table `table` (a position in the layout) to
    /// this output's rows.
    pub(crate) fn key_col<'a>(&'a self, (table, cells): (usize, ColumnSlice<'a>)) -> KeyCol<'a> {
        let rows = if let Ids::Listed(ids) = &self.ids { Some(&ids[table][..]) } else { None };
        KeyCol { cells, rows }
    }

    /// Append every output row to `out` as a row-major `Vec<Value>`.
    /// `cols` lists the output columns in order: the layout position of
    /// each one's table and its heap cells. This is where a
    /// [`crate::Collect::Rows`] result gets its values, a column and a
    /// [`BATCH_ROWS`] window at a time.
    pub(crate) fn extend_rows(&self, cols: &[(usize, ColumnSlice<'_>)], out: &mut Vec<Vec<Value>>) {
        let rows = self.count as usize;
        let ids = match &self.ids {
            Ids::Dense => Cow::Owned(vec![(0..rows as u32).collect()]),
            Ids::Listed(tables) => Cow::Borrowed(tables),
        };
        out.reserve(rows);
        let mut cells: Vec<Value> = Vec::with_capacity(BATCH_ROWS.min(rows));
        for start in (0..rows).step_by(BATCH_ROWS) {
            let window = start..(start + BATCH_ROWS).min(rows);
            let first = out.len();
            out.extend(window.clone().map(|_| Vec::with_capacity(cols.len())));
            for &(table, col) in cols {
                col.gather(&ids[table][window.clone()], &mut cells);
                for (row, cell) in out[first..].iter_mut().zip(cells.drain(..)) {
                    row.push(cell);
                }
            }
        }
        colt_obs::counter("engine.exec.values_materialized", (rows * cols.len()) as u64);
    }
}

/// What a join keeps of its matching `(left row, right row)` pairs: how
/// many there are, or, when its consumer reads ids, the pairs in output
/// order, for [`RowIds::joined`] to gather through.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Matches {
    Counted(u64),
    Pairs(Vec<(u32, u32)>),
}

impl Matches {
    pub(crate) fn new(emit: bool) -> Self {
        if emit { Matches::Pairs(Vec::new()) } else { Matches::Counted(0) }
    }

    pub(crate) fn len(&self) -> u64 {
        match self {
            Matches::Counted(n) => *n,
            Matches::Pairs(pairs) => pairs.len() as u64,
        }
    }

    /// Left row `l` matches each of the right rows `rs`.
    pub(crate) fn extend(&mut self, l: usize, rs: &[u32]) {
        match self {
            Matches::Counted(n) => *n += rs.len() as u64,
            Matches::Pairs(pairs) => pairs.extend(rs.iter().map(|&r| (l as u32, r))),
        }
    }
}

/// [`KeyCol::rows`] as a type: a loop over an input's cells is compiled
/// once per representation, which [`by_rows!`] picks once per call,
/// never per row — and a dense input's cells are read in place.
trait RowMap: Copy {
    /// The cells input rows `window` read, in order.
    fn cells<T>(self, cells: &[T], window: Range<usize>) -> impl Cells<'_, T>;
}

/// An iterator over the cells of a window of input rows.
trait Cells<'c, T: 'c>: DoubleEndedIterator<Item = &'c T> + ExactSizeIterator {}
impl<'c, T: 'c, I: DoubleEndedIterator<Item = &'c T> + ExactSizeIterator> Cells<'c, T> for I {}

/// A dense input's rows: input row `i` reads heap row `i`.
#[derive(Debug, Clone, Copy)]
struct Dense;

impl RowMap for Dense {
    fn cells<T>(self, cells: &[T], window: Range<usize>) -> impl Cells<'_, T> {
        cells[window].iter()
    }
}

impl RowMap for &[u32] {
    fn cells<T>(self, cells: &[T], window: Range<usize>) -> impl Cells<'_, T> {
        self[window].iter().map(move |&row| &cells[row as usize])
    }
}

/// `$body` with `$map` bound to the [`RowMap`] of `$rows`.
macro_rules! by_rows {
    ($rows:expr, |$map:ident| $body:expr) => {
        match $rows {
            None => { let $map = Dense; $body }
            Some(ids) => { let $map = ids; $body }
        }
    };
}

/// `$body` with `$cells` and `$key` bound to a `Date` or `Int` key column's
/// cells and their values' [`KeyCode`] — a day's own, an offset plus the
/// base's ([`offset_cells`]), a rank's value's — once per call; else `false`.
macro_rules! by_value_code {
    ($column:expr, |$cells:ident, $key:ident| $body:expr) => {
        match ($column, offset_cells($column)) {
            (_, Some(($cells, base))) => {
                let $key = move |&c: &u32| base + u64::from(c);
                $body
            }
            (ColumnSlice::RankedInt { dict, ranks: $cells }, None) => {
                let $key = |&r: &u32| dict[r as usize].code();
                $body
            }
            _ => false,
        }
    };
}

/// One key column of an operator input: the heap cells of the column
/// and which of them each input row reads — row `i` heap row `rows[i]`,
/// or heap row `i` itself when the input is dense (`None`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyCol<'a> {
    cells: ColumnSlice<'a>,
    rows: Option<&'a [u32]>,
}

impl KeyCol<'_> {
    /// Number of input rows.
    fn len(&self) -> usize {
        self.rows.map_or(self.cells.len(), <[u32]>::len)
    }

    /// The heap row input row `i` reads: for a check made per match or
    /// per index probe, not in a loop over the input's rows.
    fn row(&self, i: usize) -> usize {
        self.rows.map_or(i, |ids| ids[i] as usize)
    }

    /// Input row `i`'s cell as a key code of `column`: an index probe.
    pub(crate) fn code_in(&self, i: usize, column: &ColumnSlice<'_>) -> Result<u64, Ordering> {
        self.cells.code_in(self.row(i), column)
    }

    /// Does input row `i` hold the cell `cells` has at heap row `row`?
    /// `Value`'s equality: same type, floats bit for bit.
    pub(crate) fn eq_cell(&self, i: usize, cells: &ColumnSlice<'_>, row: usize) -> bool {
        self.cells.cells_eq(self.row(i), cells, row)
    }
}

/// Are the keys of `left`'s row `i` and `right`'s row `j` equal, column
/// for column?
pub(crate) fn keys_eq(left: &[KeyCol<'_>], i: usize, right: &[KeyCol<'_>], j: usize) -> bool {
    left.iter().zip(right).all(|(l, r)| l.eq_cell(i, &r.cells, r.row(j)))
}

/// 2^64 / golden ratio: an odd multiplier that spreads consecutive keys
/// across the whole word.
const KEY_HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// One folded multiply per 8-byte word: the 128-bit product of
/// `hash ^ word` and [`KEY_HASH_MUL`], its two halves xored. A plain
/// multiply carries entropy only upward, so keys at a stride of 2^k
/// would hash to multiples of 2^k and share `Chains`' low-bit slots;
/// the high half brings the rest down, so no finishing pass is needed
/// (`key_hasher_spreads_*`: ≥ 512 of 1 024 slots at every stride tried;
/// a finishing pass on top measured `joins` 1.16× against 1.30× without,
/// EXPERIMENTS.md, "PR 25"). A fixed seed, in place of `RandomState`'s
/// per-process SipHash, is safe because `Chains` is point-lookup only
/// — a chain is walked in row order, never in hash order, so no hash
/// can reach a result — and the keys are column cells of the program's
/// own generated data, not outside input an adversary could craft to
/// collide.
fn mix(hash: u64, word: u64) -> u64 {
    let product = u128::from(hash ^ word) * u128::from(KEY_HASH_MUL);
    product as u64 ^ (product >> 64) as u64
}

/// Fold one key column into the running hashes: `hashes[i]` absorbs the
/// cell input row `window.start + i` reads. Equal cells fold equally; the
/// type is not hashed (a cross-type key pair may collide, and then fails
/// [`ColumnSlice::cells_eq`]). A cell is hashed by its value — an offset
/// with its column's base, a rank through its column's dictionary, a
/// string by its bytes, a date by its code — as two tables' offsets or
/// ranks of one value differ.
fn hash_cells(cells: ColumnSlice<'_>, map: impl RowMap, window: Range<usize>, hashes: &mut [u64]) {
    fn fold<'c, T: 'c>(cells: impl Cells<'c, T>, hashes: &mut [u64], word: impl Fn(&T) -> u64) {
        for (hash, x) in hashes.iter_mut().zip(cells) {
            *hash = mix(*hash, word(x));
        }
    }
    match cells {
        ColumnSlice::Int { base, offsets } => {
            fold(map.cells(offsets, window), hashes, |&o| base.wrapping_add(o.into()) as u64)
        }
        ColumnSlice::RankedInt { dict, ranks } => {
            fold(map.cells(ranks, window), hashes, |&r| dict[r as usize] as u64)
        }
        ColumnSlice::Float { dict, ranks } => {
            fold(map.cells(ranks, window), hashes, |&r| dict[r as usize].to_bits())
        }
        ColumnSlice::Date(c) => fold(map.cells(c, window), hashes, |&x| u64::from(x)),
        ColumnSlice::Str { dict, ranks } => {
            for (hash, &rank) in hashes.iter_mut().zip(map.cells(ranks, window)) {
                let bytes = dict[rank as usize].as_bytes();
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
/// ready for `Chains`' low-bit slots as each [`mix`] leaves it. Out of
/// line for the reason [`slot_pass`] is.
#[inline(never)]
fn hash_keys(keys: &[KeyCol<'_>], window: Range<usize>, hashes: &mut Vec<u64>) {
    hashes.clear();
    hashes.resize(window.len(), 0);
    for key in keys {
        by_rows!(key.rows, |map| hash_cells(key.cells, map, window.clone(), hashes));
    }
}

/// How [`equi_join`] slotted its rows; its inputs fix which.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotRule {
    /// One `Int` key column on each side, or one `Date` on each, whose
    /// build values' codes span few enough slots: a row's slot key is its
    /// value's code less the build's least ([`offset_join`]).
    Offset,
    /// Any other key: the folded-multiply hash of it (`hash_keys`).
    Hashed,
}

/// The equi-join of two inputs' key columns into `out`: every build row
/// `b` and probe row `p` whose keys are equal ([`keys_eq`]), as `(b, p)`
/// pairs in probe order and each probe row's in build order, as the
/// reference emits them — or only their number. The probe goes a
/// [`BATCH_ROWS`] window at a time.
pub(crate) fn equi_join(build: &[KeyCol<'_>], probe: &[KeyCol<'_>], out: &mut Matches) -> SlotRule {
    if let ([b], [p]) = (build, probe) {
        let offset = b.cells.value_type() == p.cells.value_type()
            && by_rows!(b.rows, |bm| by_rows!(p.rows, |pm| match (b.cells, p.cells) {
                // Offsets on both sides, every generated key's layout: its own
                // loop read `joins` 1.036× the general one (EXPERIMENTS.md).
                (
                    ColumnSlice::Int { base: bb, offsets: bc },
                    ColumnSlice::Int { base: pb, offsets: pc },
                ) => {
                    let key = |base: u64| move |&o: &u32| base + u64::from(o);
                    let (bk, pk) = (key(bb.code()), key(pb.code()));
                    offset_join((bc, bk, bm, b.len()), (pc, pk, pm, p.len()), out)
                }
                _ => by_value_code!(b.cells, |bc, bk| {
                    by_value_code!(p.cells, |pc, pk| {
                        offset_join((bc, bk, bm, b.len()), (pc, pk, pm, p.len()), out)
                    })
                }),
            }));
        if offset {
            return SlotRule::Offset;
        }
    }
    match out {
        Matches::Counted(n) => hashed_join(build, probe, |_, _| *n += 1),
        Matches::Pairs(pairs) => hashed_join(build, probe, |b, p| pairs.push((b as u32, p as u32))),
    }
    SlotRule::Hashed
}

/// A `Date` or offset `Int` key column's cells and the code its values'
/// [`KeyCode`]s count from (a day is its own code).
fn offset_cells(cells: ColumnSlice<'_>) -> Option<(&[u32], u64)> {
    match cells {
        ColumnSlice::Int { base, offsets } => Some((offsets, base.code())),
        ColumnSlice::Date(days) => Some((days, 0)),
        _ => None,
    }
}

/// The offset rule, taken when the build's key codes span no more slots
/// than [`SLOTS_PER_ROW`] per build row or one per probe row — so the
/// table costs no more to fill than the hashed rule's or than the probe
/// that reads it. Codes are the values' own [`KeyCode`]s (`bcode` and
/// `pcode` of either side's cells), so two columns' offsets or ranks
/// meet. A row's slot key is `code − min`, `min` the build's least: each
/// build code has a slot of its own and equal codes are equal values —
/// every build row under a probe row's slot is a match, with no hash and
/// no [`keys_eq`]. Counted, the table holds how many build rows each code
/// has, summed over the probe; emitting, it chains them (`Chains`).
/// `false`, with nothing matched, when the span is wider.
fn offset_join<T, U>(
    (build, bcode, bm, builds): (&[T], impl Fn(&T) -> u64, impl RowMap, usize),
    (probe, pcode, pm, probes): (&[U], impl Fn(&U) -> u64, impl RowMap, usize),
    matches: &mut Matches,
) -> bool {
    let codes = || bm.cells(build, 0..builds).map(&bcode);
    let (min, max) = codes().fold((u64::MAX, 0), |(min, max), c| (min.min(c), max.max(c)));
    let span = max.saturating_sub(min);
    if span >= (SLOTS_PER_ROW * builds).max(probes) as u64 {
        return false;
    }
    let slots = (span as usize + 1).next_power_of_two();
    // A key past the span, or a code below `min` wrapped past
    // `u64::MAX`, may share a slot but never a code.
    let key = |x: &U| {
        let key = pcode(x).wrapping_sub(min);
        (key, key <= span)
    };
    match matches {
        Matches::Counted(n) => {
            let mut counts = vec![0u32; slots];
            codes().for_each(|c| counts[(c - min) as usize] += 1);
            let count = |(key, can_match): (u64, bool)| {
                u64::from(counts[key as usize & (slots - 1)]) * u64::from(can_match)
            };
            *n += pm.cells(probe, 0..probes).map(key).map(count).sum::<u64>();
        }
        Matches::Pairs(pairs) => {
            let chains = Chains::build(codes().map(|c| c - min), slots);
            let mut heads = Vec::new();
            for start in (0..probes).step_by(BATCH_ROWS) {
                let window = pm.cells(probe, start..(start + BATCH_ROWS).min(probes));
                let found = slot_pass(&chains.heads, window.map(&key), &mut heads);
                for &(i, at) in &heads[..found] {
                    chains.walk(at, |b| pairs.push((b as u32, start as u32 + i)));
                }
            }
        }
    }
    true
}

/// The hashed rule: a row chains under the hash of its whole key
/// (`hash_keys`), and a chained row matches a probe row only if the
/// hashes and then the cells ([`keys_eq`]) are equal.
fn hashed_join(build: &[KeyCol<'_>], probe: &[KeyCol<'_>], mut hit: impl FnMut(usize, usize)) {
    let rows = |keys: &[KeyCol<'_>]| keys.first().map_or(0, KeyCol::len);
    let mut build_hashes = Vec::new();
    hash_keys(build, 0..rows(build), &mut build_hashes);
    let slots = (build_hashes.len() * SLOTS_PER_ROW).next_power_of_two();
    let chains = Chains::build(build_hashes.iter().copied(), slots);
    let probe_rows = rows(probe);
    let (mut hashes, mut heads) = (Vec::new(), Vec::new());
    for start in (0..probe_rows).step_by(BATCH_ROWS) {
        hash_keys(probe, start..(start + BATCH_ROWS).min(probe_rows), &mut hashes);
        let found = slot_pass(&chains.heads, hashes.iter().map(|&hash| (hash, true)), &mut heads);
        for &(i, at) in &heads[..found] {
            let (p, hash) = (start + i as usize, hashes[i as usize]);
            chains.walk(at, |b| {
                if build_hashes[b] == hash && keys_eq(build, b, probe, p) {
                    hit(b, p);
                }
            });
        }
    }
}

/// One probe window's slot pass over `keys`: per probe row `i`, its
/// slot key and whether it can match at all. Every row's slot head goes
/// to `out`, and the cursor passes the candidates only — an occupied
/// slot and a key that can match — like `Kernel::select`, so nothing
/// branches on the data before a chain is known to be there; returns how
/// many there are. Out of line on purpose: inlined into
/// `Executor::run_node`, the cursor lived on the stack, a load and a
/// store per row, and the pass ran at 3–4.5 ns/row instead of ≈ 1
/// (DESIGN.md §5, "Hash tables").
#[inline(never)]
fn slot_pass(
    heads: &[u32],
    keys: impl ExactSizeIterator<Item = (u64, bool)>,
    out: &mut Vec<(u32, u32)>,
) -> usize {
    out.clear();
    out.resize(keys.len(), (0, NO_ROW));
    let mut found = 0;
    for (i, (key, can_match)) in keys.enumerate() {
        let head = heads[key as usize & (heads.len() - 1)];
        out[found] = (i as u32, head);
        found += usize::from((head != NO_ROW) & can_match);
    }
    found
}

/// "No row" in a `Chains` link.
const NO_ROW: u32 = u32::MAX;

/// Slots per chained row under the hashed rule, and the most per build
/// row the offset rule may use: the more slots, the fewer probes find
/// an occupied slot whose chain holds only other hashes. Measured under
/// the branch-free probe on the `joins` workload: 8, 4 and 2 slots read
/// 1.30×, 1.22× and 1.09× the queries/s of PR 24's one-pass probe
/// (EXPERIMENTS.md, "PR 25").
const SLOTS_PER_ROW: usize = 8;

/// A table over rows `0..n` keyed by precomputed slot keys: the slot of
/// a key is its low bits, and each slot heads a chain of its rows,
/// linked in ascending row order — so a walk meets its matches in the
/// order the rows were produced, whatever the keys are.
#[derive(Debug)]
struct Chains {
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl Chains {
    /// Chain rows `0..keys.len()`, row `i` under the `i`-th key, in
    /// `slots` slots (a power of two).
    fn build(keys: impl DoubleEndedIterator<Item = u64> + ExactSizeIterator, slots: usize) -> Self {
        let mut heads = vec![NO_ROW; slots];
        let mut next = vec![NO_ROW; keys.len()];
        // Last row first: every insertion is at the head.
        for (row, key) in keys.enumerate().rev() {
            next[row] = std::mem::replace(&mut heads[key as usize & (slots - 1)], row as u32);
        }
        Chains { heads, next }
    }

    /// `hit(row)` for every row of the chain headed by `at`, ascending.
    fn walk(&self, mut at: u32, mut hit: impl FnMut(usize)) {
        while at != NO_ROW {
            hit(at as usize);
            at = self.next[at as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_storage::{row_from, HeapTable, ValueType};

    /// A one-column heap of strings, row `i` holding `strs[i]`.
    fn str_heap<S: AsRef<str>>(strs: &[S]) -> HeapTable {
        heap_of(ValueType::Str, strs.iter().map(|s| s.as_ref().into()))
    }

    /// A one-column heap of `vtype`, row `i` holding the `i`-th value.
    fn heap_of(vtype: ValueType, values: impl IntoIterator<Item = Value>) -> HeapTable {
        let mut heap = HeapTable::new(&[vtype]);
        heap.insert_rows(values.into_iter().map(|v| row_from(vec![v]))).unwrap();
        heap
    }

    /// A one-column heap of `Int`s: offsets when they span less than
    /// 2^32, ranks otherwise.
    fn int_heap(ints: &[i64]) -> HeapTable {
        heap_of(ValueType::Int, ints.iter().map(|&x| Value::Int(x)))
    }

    /// The finished key hashes of one column's rows `0..len`, read in
    /// place and through their ids alike.
    fn hashes_of(cells: ColumnSlice<'_>) -> Vec<u64> {
        let ids: Vec<u32> = (0..cells.len() as u32).collect();
        let [mut dense, mut listed] = [Vec::new(), Vec::new()];
        hash_keys(&[KeyCol { cells, rows: None }], 0..ids.len(), &mut dense);
        hash_keys(&[KeyCol { cells, rows: Some(&ids) }], 0..ids.len(), &mut listed);
        assert_eq!(dense, listed);
        dense
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
            for hash in hashes_of(int_heap(&keys).column(0).unwrap()) {
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
            let filled = slots_filled(&hashes_of(int_heap(&keys).column(0).unwrap()));
            assert!(filled >= 512, "stride {stride}: {filled} of 1024 slots");
        }
        let rows: Vec<u32> = (0..1024).collect();
        let days: Vec<u32> = (0..1024).map(|i: i32| (8_000 + i * 1024).code()).collect();
        for ints in [vec![7i64; 1024], (0..1024).map(|i| i << 20).collect()] {
            let heap = int_heap(&ints);
            let keys = [
                KeyCol { cells: heap.column(0).unwrap(), rows: Some(&rows) },
                KeyCol { cells: ColumnSlice::Date(&days), rows: None },
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
        let ints = hashes_of(int_heap(&[7, -3, 7, i64::MIN, -3]).column(0).unwrap());
        // One value hashes alike from offsets, from ranks and from
        // another base.
        let ranked = hashes_of(int_heap(&[7, -3, i64::MAX]).column(0).unwrap());
        let based = hashes_of(int_heap(&[-3, 7, 1_000]).column(0).unwrap());
        assert_eq!((ranked[0], ranked[1]), (ints[0], ints[1]));
        assert_eq!((based[1], based[0]), (ints[0], ints[1]));
        assert_eq!((ints[0], ints[1]), (ints[2], ints[4]));
        assert_ne!(ints[0], ints[1]);
        let strs = ["ab", "", "ab", "ab\0", "abcdefghi", "abcdefgh"].map(String::from);
        let hashed = hashes_of(str_heap(&strs).column(0).unwrap());
        assert_eq!(hashed[0], hashed[2]);
        // Zero padding of the last word must not hide a length.
        assert_ne!(hashed[0], hashed[3]);
        assert_ne!(hashed[4], hashed[5]);
        let nan = f64::NAN;
        let floats = [0.0, -0.0, nan, -nan, nan, 0.0].map(Value::Float);
        let floats = hashes_of(heap_of(ValueType::Float, floats).column(0).unwrap());
        assert_ne!(floats[0], floats[1], "0.0 and -0.0 are different keys");
        assert_ne!(floats[2], floats[3], "so are the two NaN signs");
        assert_eq!((floats[0], floats[2]), (floats[5], floats[4]));
        // A second key column folds into the first one's hashes.
        let rows = [0u32, 1, 2];
        let (a, b) = (int_heap(&[1, 1, 2]), [5i32, 6, 5].map(KeyCode::code));
        let keys = [
            KeyCol { cells: a.column(0).unwrap(), rows: Some(&rows) },
            KeyCol { cells: ColumnSlice::Date(&b), rows: Some(&rows) },
        ];
        let mut two = Vec::new();
        hash_keys(&keys, 0..3, &mut two);
        assert!(two[0] != two[1] && two[0] != two[2] && two[1] != two[2]);
        assert!(keys_eq(&keys, 0, &keys, 0) && !keys_eq(&keys, 0, &keys, 1));
    }

    #[test]
    fn chains_yield_equal_hashes_in_row_order() {
        // Hashes 3 and 3 + 64 share a slot of the 64 a 6-row build
        // gets: its chain holds both in row order, the slot pass finds
        // it for either, and the hash compare keeps one.
        let hashes = [3, 67, 3, 9, 67, 3];
        let chains = Chains::build(hashes.iter().copied(), 64);
        let candidates = |chains: &Chains, hash: u64| {
            let (mut heads, mut rows) = (Vec::new(), Vec::new());
            let found = slot_pass(&chains.heads, [(hash, true)].into_iter(), &mut heads);
            for &(_, at) in &heads[..found] {
                chains.walk(at, |row| rows.push(row));
            }
            rows
        };
        assert_eq!(candidates(&chains, 3), [0, 1, 2, 4, 5]);
        let equal = |hash: u64| {
            let rows = candidates(&chains, hash).into_iter();
            rows.filter(|&r| hashes[r] == hash).collect::<Vec<_>>()
        };
        assert_eq!((equal(3), equal(67), equal(9)), (vec![0, 2, 5], vec![1, 4], vec![3]));
        assert!(equal(131).is_empty() && candidates(&chains, 130).is_empty());
        assert_eq!(candidates(&Chains::build(std::iter::empty(), 1), 0).len(), 0);
    }

    /// The equi-join as a nested loop over [`keys_eq`] (`cells_eq` per
    /// column): `(build row, probe row)` pairs, probe-major and
    /// build-ascending.
    fn nested_loop(build: &[KeyCol<'_>], probe: &[KeyCol<'_>]) -> Vec<(u32, u32)> {
        let (builds, probes) = (build[0].len() as u32, probe[0].len() as u32);
        (0..probes)
            .flat_map(|p| {
                let eq = move |&b: &u32| keys_eq(build, b as usize, probe, p as usize);
                (0..builds).filter(eq).map(move |b| (b, p))
            })
            .collect()
    }

    /// [`equi_join`] emitting and counting: the pairs must be `want`, the
    /// count their number, and both take one rule, which is returned.
    fn joined(
        build: &[KeyCol<'_>],
        probe: &[KeyCol<'_>],
        want: &[(u32, u32)],
        at: &str,
    ) -> SlotRule {
        let (mut pairs, mut counted) = (Matches::new(true), Matches::new(false));
        let rule = equi_join(build, probe, &mut pairs);
        assert_eq!(pairs, Matches::Pairs(want.to_vec()), "{at}: emitted");
        assert_eq!(equi_join(build, probe, &mut counted), rule, "{at}: counted");
        assert_eq!(counted, Matches::Counted(want.len() as u64), "{at}: counted");
        rule
    }

    /// A one-column heap holding the cells `ids` pick from `cells`, in
    /// order: the input those ids list, as a dense one.
    fn dense_copy(cells: &ColumnSlice<'_>, ids: &[u32]) -> HeapTable {
        let mut heap = HeapTable::new(&[cells.value_type()]);
        let rows = ids.iter().map(|&i| row_from(vec![cells.get(i as usize).unwrap()]));
        heap.insert_rows(rows).unwrap();
        heap
    }

    #[test]
    fn equi_join_matches_a_nested_loop() {
        let ints = int_heap(&[i64::MIN, i64::MAX, -1, 0, 1, 1 << 40, 3 << 52]);
        let ints = ints.column(0).unwrap();
        let nan = f64::NAN;
        let floats = [0.0, -0.0, nan, -nan, 1.5, f64::INFINITY, f64::NEG_INFINITY];
        let floats = heap_of(ValueType::Float, floats.map(Value::Float));
        let floats = floats.column(0).unwrap();
        // Across 8-byte word boundaries, and equal but for the length.
        let strs = ["", "a", "abcdefg", "abcdefgh", "abcdefghi", "abcdefgh\0", "abcdefghabcdefgh"]
            .map(String::from);
        let strs = str_heap(&strs);
        let strs = strs.column(0).unwrap();
        let dates = [i32::MIN, i32::MAX, -1, 0, 1, 8_000].map(KeyCode::code);
        // A two-column key (a, hash(a) ^ c) hashes to hash(c) whatever `a`
        // is: under each of three `c`s the seven `a`s share one full
        // hash, and the three hashes agree in their low 14 bits, so all
        // 21 keys share a slot in a table of up to 2 048 rows.
        let hash = |x: i64| hashes_of(int_heap(&[x]).column(0).unwrap())[0];
        let mut by_slot = std::collections::BTreeMap::<u64, Vec<u64>>::new();
        let cs = (0..)
            .find_map(|c| {
                let same = by_slot.entry(hash(c) & 0x3fff).or_default();
                same.push(c as u64);
                (same.len() == 3).then(|| same.clone())
            })
            .unwrap();
        let first = |k: usize| [i64::MIN, i64::MAX, -1, 0, 1, 1 << 40, 3 << 52][k % 7];
        let firsts: Vec<i64> = (0..21).map(first).collect();
        let seconds: Vec<i64> = (0..21).map(|k| (hash(firsts[k]) ^ cs[k / 7]) as i64).collect();
        let (firsts, seconds) = (int_heap(&firsts), int_heap(&seconds));
        let (firsts, seconds) = (firsts.column(0).unwrap(), seconds.column(0).unwrap());
        let mut pair_hashes = Vec::new();
        let all: Vec<u32> = (0..21).collect();
        let pairs = [(firsts, &all), (seconds, &all)];
        let pairs = pairs.map(|(cells, rows)| KeyCol { cells, rows: Some(rows) });
        hash_keys(&pairs, 0..21, &mut pair_hashes);
        pair_hashes.dedup();
        assert_eq!(pair_hashes.len(), 3, "seven keys per full hash");
        assert!(pair_hashes.iter().all(|h| h & 0x3fff == pair_hashes[0] & 0x3fff));

        use ColumnSlice::Date;
        let shapes: [(&str, Vec<ColumnSlice<'_>>, Vec<ColumnSlice<'_>>); 7] = [
            ("int", vec![ints], vec![ints]),
            ("float", vec![floats], vec![floats]),
            ("str", vec![strs], vec![strs]),
            ("date", vec![Date(&dates)], vec![Date(&dates)]),
            ("(int, str)", vec![ints, strs], vec![ints, strs]),
            ("(int, int) in one slot", vec![firsts, seconds], vec![firsts, seconds]),
            ("int = date", vec![ints], vec![Date(&dates)]),
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
                            .map(|(&cells, rows)| KeyCol { cells, rows: Some(rows) })
                            .collect()
                    }
                    let (build, probe) =
                        (keys(build_cols, &build_ids), keys(probe_cols, &probe_ids));
                    let want = nested_loop(&build, &probe);
                    // Each input also as a predicate-free scan's: its
                    // cells copied into columns of their own, read in place.
                    let dense = |cols: &[ColumnSlice<'_>], ids: &[Vec<u32>]| -> Vec<HeapTable> {
                        cols.iter().zip(ids).map(|(cells, ids)| dense_copy(cells, ids)).collect()
                    };
                    let build_heaps = dense(build_cols, &build_ids);
                    let probe_heaps = dense(probe_cols, &probe_ids);
                    fn in_place(heaps: &[HeapTable]) -> Vec<KeyCol<'_>> {
                        let cells = heaps.iter().map(|h| h.column(0).unwrap());
                        cells.map(|cells| KeyCol { cells, rows: None }).collect()
                    }
                    let dense_build = in_place(&build_heaps);
                    let dense_probe = in_place(&probe_heaps);
                    // These cells span far too wide for offsets; only a
                    // build of at most one row spans none.
                    let offset = matches!(*name, "int" | "date") && builds <= 1;
                    for (b, p, how) in [
                        (&build, &probe, "listed x listed"),
                        (&dense_build, &probe, "dense x listed"),
                        (&build, &dense_probe, "listed x dense"),
                        (&dense_build, &dense_probe, "dense x dense"),
                    ] {
                        let ctx = format!("{name}: {builds} x {probes}, {how}");
                        assert_eq!(joined(b, p, &want, &ctx) == SlotRule::Offset, offset, "{ctx}");
                    }
                    matched += want.len();
                }
            }
            assert_eq!(matched > 0, *name != "int = date", "{name}: {matched} pairs");
        }

        // The offset rule on its edges, for `Int` and `Date` keys from
        // the least cell, around zero and up to the greatest: builds
        // spanning one slot under the bound and exactly the bound, once
        // where `SLOTS_PER_ROW` per build row sets it and once where
        // one per probe row does; builds of no row, one row and a
        // 500-row run of one key. Probes hit the least and greatest
        // build key, one below and one above them, both ends of the
        // type (wrapping past `u64::MAX` under `code − min`), and keys
        // drawn across twice the table, which share occupied slots.
        use SlotRule::{Hashed, Offset};
        let cases = [
            (200, 300, 1_599, Offset),
            (200, 300, 1_600, Hashed),
            (10, 1_000, 999, Offset),
            (10, 1_000, 1_000, Hashed),
            (0, 300, 0, Offset),
            (1, 300, 0, Offset),
            (500, 300, 0, Offset),
        ];
        for date in [false, true] {
            let (least, most) =
                if date { (i32::MIN.into(), i32::MAX.into()) } else { (i64::MIN, i64::MAX) };
            for &(builds, probes, span, rule) in &cases {
                for lo in [least, -700, most - span] {
                    let mut build = vec![lo; builds];
                    if builds > 1 && span > 0 {
                        build[builds - 1] = lo + span;
                        for key in &mut build[1..builds - 1] {
                            *key = lo + (rng.next_u64() % (span as u64 + 1)) as i64;
                        }
                    }
                    let slots = (span as u64 + 1).next_power_of_two();
                    let mut probe = vec![lo.wrapping_sub(1), lo, lo + span];
                    probe.extend([(lo + span).wrapping_add(1), least, most]);
                    probe.extend((6..probes).map(|_| {
                        let at = (rng.next_u64() % (span as u64 + 2 * slots)).wrapping_sub(slots);
                        lo.wrapping_add(at as i64)
                    }));
                    // A `Date` key wraps in `i32`, where `least − 1` is `most`.
                    let days = |keys: &[i64]| keys.iter().map(|&k| (k as i32).code()).collect::<Vec<_>>();
                    let (build_days, probe_days) = (days(&build), days(&probe));
                    let (build_rows, probe_rows): (Vec<u32>, Vec<u32>) =
                        ((0..builds as u32).collect(), (0..probes as u32).collect());
                    // Each input listed (ids `0..n`) and dense.
                    // An `Int` build is offsets, an `Int` probe (it holds
                    // both ends of the type) ranks.
                    let (build_ints, probe_ints) = (int_heap(&build), int_heap(&probe));
                    let (build_cells, probe_cells) = if date {
                        (Date(&build_days[..]), Date(&probe_days[..]))
                    } else {
                        (build_ints.column(0).unwrap(), probe_ints.column(0).unwrap())
                    };
                    fn key<'a>(cells: ColumnSlice<'a>, ids: &'a [u32]) -> [[KeyCol<'a>; 1]; 2] {
                        [Some(ids), None].map(|rows| [KeyCol { cells, rows }])
                    }
                    let builds_as = key(build_cells, &build_rows);
                    let probes_as = key(probe_cells, &probe_rows);
                    let want = nested_loop(&builds_as[0], &probes_as[0]);
                    let ctx = format!("date {date}, {builds} x {probes} from {lo}, span {span}");
                    for (b, build) in builds_as.iter().enumerate() {
                        for (p, probe) in probes_as.iter().enumerate() {
                            let ctx = format!("{ctx}, dense build {}, probe {}", b == 1, p == 1);
                            assert_eq!(joined(build, probe, &want, &ctx), rule, "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        for emit in [false, true] {
            let ids = RowIds::new(2, emit);
            assert_eq!((ids.count(), ids.emits(), ids.written()), (0, emit, 0));
            let mut rows = Vec::new();
            ids.extend_rows(&[], &mut rows);
            assert!(rows.is_empty());
        }
        // Counting without ids: scans and joins move the count and write
        // nothing; a dense scan writes nothing either way.
        let mut counted = RowIds::new(2, false);
        counted.push_sel(&[4, 9]);
        counted.count_only(5);
        assert_eq!((counted.count(), counted.emits(), counted.written()), (7, false, 0));
        let dense = RowIds::dense(3, true);
        let joined = RowIds::joined(&dense, &dense, Matches::Counted(4));
        assert_eq!((joined.count(), joined.emits(), joined.written()), (4, false, 0));
        assert_eq!((dense.count(), dense.emits(), dense.written()), (3, true, 0));
        assert!(!RowIds::dense(3, false).emits());
    }

    #[test]
    fn extend_rows_honors_selection() {
        // Two tables; the output takes rows (1, 0) then (3, 0) of them:
        // a listed input's rows 0 and 2 paired with a dense one's row 0.
        let (a, b) = (int_heap(&[10, 11, 12, 13]), str_heap(&["x"]));
        let a = a.column(0).unwrap();
        let mut left = RowIds::new(1, true);
        left.push_sel(&[1, 2, 3]);
        let pairs = Matches::Pairs(vec![(0, 0), (2, 0)]);
        let ids = RowIds::joined(&left, &RowIds::dense(1, true), pairs);
        assert_eq!((ids.count(), ids.written()), (2, 4));
        let cols = [(0, a), (1, b.column(0).unwrap()), (0, a)];
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
        // A dense output materializes its table's rows in order.
        let mut rows = Vec::new();
        RowIds::dense(4, true).extend_rows(&[(0, a)], &mut rows);
        assert_eq!(rows, [10, 11, 12, 13].map(|i| vec![Value::Int(i)]));
    }
}
