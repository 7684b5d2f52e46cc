//! Typed column vectors — the heap's physical layout — and the
//! order-preserving key codes index builds and predicate kernels
//! compare instead of [`Value`] enums.
//!
//! Every cell is 32 bits wide, and its *cell code* orders as its value
//! does in the column: a `Date`'s day as its `i32` [`KeyCode`], an `Int`'s
//! `u32` offset from the column's least value when the column spans less
//! than 2³², else — and for every `Float` and `Str` — a `u32` rank in a
//! sorted dictionary of the column's values. The data picks the layout,
//! per [`Batch`] — one column's cells in their own types, a string
//! column's as a dictionary plus one id per row — through the one
//! encoding path, `Column::append`. An index keys, and a predicate
//! resolves to, the *key code* `2c + 1` of cell code `c` ([`literal_code`]).

use crate::row::RowId;
use crate::value::{Value, ValueType};
use std::cmp::Ordering;

/// A fixed-width cell type with an order-preserving unsigned code:
/// `a.code() < b.code()` exactly when `Value::cmp` orders `a` before
/// `b` (so `f64` follows `total_cmp`: NaNs at the extremes, `-0.0`
/// below `+0.0`), and `from_code(code(x))` is `x` bit for bit. Sorting
/// codes therefore sorts keys, at the price of an integer compare.
/// A `u32` is a cell code ([`ColumnSlice`]): `c` has key code `2c + 1`,
/// which leaves the even codes to the values the column lacks
/// ([`literal_code`]). The `i64` and `f64` codes are a value's own,
/// whatever column holds it ([`value_code`]).
pub trait KeyCode: Copy {
    /// The unsigned code type, as wide as the cell.
    type Code: Copy + Ord + Into<u64>;
    /// The cell's code.
    fn code(self) -> Self::Code;
    /// The cell a code was made from.
    fn from_code(code: Self::Code) -> Self;
}

impl KeyCode for i64 {
    type Code = u64;
    fn code(self) -> u64 {
        (self as u64) ^ (1 << 63)
    }
    fn from_code(code: u64) -> i64 {
        (code ^ (1 << 63)) as i64
    }
}

impl KeyCode for i32 {
    type Code = u32;
    fn code(self) -> u32 {
        (self as u32) ^ (1 << 31)
    }
    fn from_code(code: u32) -> i32 {
        (code ^ (1 << 31)) as i32
    }
}

impl KeyCode for f64 {
    type Code = u64;
    fn code(self) -> u64 {
        // Negative floats order by descending magnitude: flip every
        // bit. Non-negative ones only move above them.
        let bits = self.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits ^ (1 << 63)
        }
    }
    fn from_code(code: u64) -> f64 {
        f64::from_bits(if code >> 63 == 1 { code ^ (1 << 63) } else { !code })
    }
}

impl KeyCode for u32 {
    type Code = u64;
    fn code(self) -> u64 {
        u64::from(self) << 1 | 1
    }
    fn from_code(code: u64) -> u32 {
        (code >> 1) as u32
    }
}

/// A fixed-width value's own [`KeyCode`], the same in every column (what
/// statistics compare in place of their values); `None` for a string.
pub fn value_code(value: &Value) -> Option<u64> {
    match *value {
        Value::Int(x) => Some(x.code()),
        Value::Float(x) => Some(x.code()),
        Value::Date(x) => Some(x.code().into()),
        Value::Str(_) => None,
    }
}

/// The key code of a dictionary search's outcome: a rank's code, or `2p`
/// for the place `p` a missing value would take — between the codes of
/// its neighbours, so it equals no cell and bounds a range exactly.
fn rank_code(search: Result<usize, usize>) -> u64 {
    search.map_or_else(|place| 2 * place as u64, |rank| (rank as u32).code())
}

/// The key code of `literal` in `column` (its cell code `c` as `2c + 1`;
/// a value the column lacks, the even code between its neighbours — an
/// `Int` outside an offset column's reach, 0 or 2³³), or — for a literal
/// of another type — the side of the column `Value`'s cross-type order
/// puts it on: `Err(Less)` sorts below every cell, `Err(Greater)` above
/// every one. This is the one place a predicate literal meets a column:
/// the scan kernels and the index both resolve through it, so a
/// predicate is the same code interval to either.
pub fn literal_code(literal: &Value, column: ColumnSlice<'_>) -> Result<u64, Ordering> {
    match (literal, column) {
        (&Value::Int(x), ColumnSlice::Int { base, .. }) => {
            Ok(match u32::try_from(i128::from(x) - i128::from(base)) {
                Ok(offset) => offset.code(),
                Err(_) => if x < base { 0 } else { 2 << 32 },
            })
        }
        (Value::Int(x), ColumnSlice::RankedInt { dict, .. }) => Ok(rank_code(dict.binary_search(x))),
        (Value::Float(x), ColumnSlice::Float { dict, .. }) => {
            Ok(rank_code(dict.binary_search_by(|d| d.total_cmp(x))))
        }
        (Value::Str(s), ColumnSlice::Str { dict, .. }) => Ok(rank_code(dict.binary_search(s))),
        (Value::Date(x), ColumnSlice::Date(_)) => Ok(x.code().code()),
        _ => Err(literal.value_type().cmp(&column.value_type())),
    }
}

/// The closed range `lo..=hi` over `column` as the closed interval of
/// key codes its cells must lie in ([`literal_code`] of each literal), or
/// `None` when a side admits no cell: a literal of another type bounds
/// nothing from its own side of the column (the side's end of the code
/// space) and everything from the other. The interval may still be
/// empty, `lo > hi`.
pub fn code_interval(lo: &Value, hi: &Value, column: ColumnSlice<'_>) -> Option<(u64, u64)> {
    let lo = match literal_code(lo, column) {
        Ok(code) => code,
        Err(side) => (side == Ordering::Less).then_some(u64::MIN)?,
    };
    let hi = match literal_code(hi, column) {
        Ok(code) => code,
        Err(side) => (side == Ordering::Greater).then_some(u64::MAX)?,
    };
    Some((lo, hi))
}

/// Most radix bits one pass spends: 4 096 write heads are 32 KB of
/// counters and 256 KB of half-filled cache lines.
const MAX_DIGIT_BITS: u32 = 12;

/// A bucket up to this long (128 KB of pairs) takes a span of up to twice
/// its length in one pass, past `MAX_DIGIT_BITS` (DESIGN.md §5).
const CACHED_BUCKET: usize = 1 << 14;

/// Buckets up to this long are finished by a comparison sort.
const SMALL_BUCKET: usize = 32;

/// The `(cell code, row id)` entries of a column's cells in code, then
/// row-id order: a single-column index as
/// [`crate::BPlusTreeOf::bulk_load`] keeps it. Codes that already ascend
/// are the entries as they stand; others go through a
/// most-significant-digit radix sort of the 32-bit cell codes over
/// `code − least code` (a ranked column's span is its distinct values,
/// an offset column's its values' range): one read finds the span, one
/// counts the buckets, a third writes each 8-byte entry to its bucket in
/// row order. The digit is the whole span where that asks at most twice
/// the entries in buckets (within `MAX_DIGIT_BITS` or `CACHED_BUCKET`),
/// and then that one pass's output is the result; else the top bits
/// that leave a bucket four to eight entries — halved above
/// `MAX_DIGIT_BITS`, the buckets' own pass taking the rest. A bucket of
/// up to `SMALL_BUCKET` entries is comparison-sorted in place, a longer
/// one still out of order distributed again and copied back while it is
/// in cache. Its span, `storage.column.sort`, is an index build's frame.
pub fn sorted_entries(column: ColumnSlice<'_>) -> Vec<(u32, RowId)> {
    let _span = colt_obs::span("storage.column.sort");
    radix_sorted(column.cells().iter().copied().zip((0..column.len() as u32).map(RowId)))
}

/// A radix-sortable code: a 32-bit cell code, or a 64-bit [`KeyCode`].
trait SortCode: Copy + Ord + Default + Into<u64> {}
impl SortCode for u32 {}
impl SortCode for u64 {}

/// `pairs` in code, then place order, by [`sorted_entries`]' radix sort.
fn radix_sorted<C: SortCode, P: Copy + Ord>(pairs: impl ExactSizeIterator<Item = (C, P)> + Clone) -> Vec<(C, P)> {
    // Any pair fills the output: the distribution writes every slot.
    let Some((span, filler)) = unsorted_span(pairs.clone()).zip(pairs.clone().next()) else {
        return pairs.collect();
    };
    let mut sorted = vec![filler; pairs.len()];
    distribute(pairs, span, &mut sorted);
    sorted
}

/// The least and greatest code among `pairs`, or `None` when the codes
/// already ascend (so do none, one, and all-equal).
fn unsorted_span<C: SortCode, P>(pairs: impl Iterator<Item = (C, P)> + Clone) -> Option<(u64, u64)> {
    let mut previous = C::default();
    if pairs.clone().all(|(code, _)| std::mem::replace(&mut previous, code) <= code) {
        return None;
    }
    let span = |(lo, hi): (u64, u64), (c, _): (C, P)| (lo.min(c.into()), hi.max(c.into()));
    Some(pairs.fold((u64::MAX, 0), span))
}

/// Write the `(code, place)` pairs of `src` — codes within `min..=max`,
/// not all equal, equal codes in ascending place order — into `dst`, as
/// long as `src`, in code, then place order.
fn distribute<C: SortCode, P: Copy + Ord>(
    src: impl Iterator<Item = (C, P)> + Clone,
    (min, max): (u64, u64),
    dst: &mut [(C, P)],
) {
    let bits = 64 - (max - min).leading_zeros();
    let spread = dst.len().ilog2();
    let most = if dst.len() <= CACHED_BUCKET { spread + 1 } else { MAX_DIGIT_BITS };
    let width = match spread.saturating_sub(2).max(1) {
        _ if bits <= (spread + 1).min(most) => bits,
        top if top <= MAX_DIGIT_BITS => top,
        top => top.div_ceil(2).min(bits),
    };
    let shift = bits - width;
    let bucket = |code: C| ((code.into() - min) >> shift) as usize;
    let mut heads = vec![0u32; 1 << width];
    for (code, _) in src.clone() {
        heads[bucket(code)] += 1;
    }
    // Occurrences of each digit become its bucket's first output slot.
    let mut next = 0;
    for head in &mut heads {
        next += std::mem::replace(head, next);
    }
    for pair in src {
        let head = &mut heads[bucket(pair.0)];
        dst[*head as usize] = pair;
        *head += 1;
    }
    if shift == 0 {
        return;
    }
    // Every head has moved to its bucket's end.
    let (mut start, mut scratch) = (0, Vec::new());
    for end in heads.into_iter().map(|end| end as usize) {
        let bucket = &mut dst[start..end];
        start = end;
        if bucket.len() <= SMALL_BUCKET {
            bucket.sort_unstable();
        } else if let Some(span) = unsorted_span(bucket.iter().copied()) {
            scratch.resize(scratch.len().max(bucket.len()), bucket[0]);
            let sorted = &mut scratch[..bucket.len()];
            distribute(bucket.iter().copied(), span, sorted);
            bucket.copy_from_slice(sorted);
        }
    }
}

/// One column of a heap, owned, laid out as its [`ColumnSlice`].
#[derive(Debug, Clone)]
pub(crate) enum Column {
    Int { base: i64, offsets: Vec<u32> },
    RankedInt(Ranked<i64>),
    Float(Ranked<f64>),
    Str(Ranked<String>),
    Date(Vec<u32>),
}

/// A sorted dictionary of distinct values and each row's rank in it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ranked<T> {
    dict: Vec<T>,
    ranks: Vec<u32>,
}

impl<T> Ranked<T> {
    /// Append a batch as ranks: row `i` holds `values[ids[i]]`, or
    /// `values[i]` without `ids`. Values the dictionary holds take their
    /// ranks; when the batch brings new ones, the dictionary's and the
    /// batch's values are sorted together (`sort`: each with its place,
    /// in `order`) into the new dictionary, every stored row's rank is
    /// rewritten, and row `i` takes `rank[stored + ids[i]]` — one sort
    /// and one pass over the rows per batch, however many new values it
    /// brings.
    fn append(
        &mut self,
        values: Vec<T>,
        ids: Option<&[u32]>,
        order: impl Fn(&T, &T) -> Ordering,
        sort: impl FnOnce(Vec<T>) -> Vec<(T, u32)>,
    ) {
        let Ranked { dict, ranks } = self;
        // Each row's rank, given each batch value's.
        let extend = |ranks: &mut Vec<u32>, rank: &[u32]| match ids {
            Some(ids) => ranks.extend(ids.iter().map(|&id| rank[id as usize])),
            None => ranks.extend_from_slice(rank),
        };
        let rank = |x: &T| dict.binary_search_by(|d| order(d, x)).ok().map(|r| r as u32);
        if let Some(known) = values.iter().map(rank).collect::<Option<Vec<u32>>>() {
            return extend(ranks, &known);
        }
        // A value's place: its old rank, or past the dictionary, the batch's.
        let stored = dict.len();
        let values: Vec<T> = std::mem::take(dict).into_iter().chain(values).collect();
        let mut rank = vec![0; values.len()];
        // Sized once, then trimmed to the distinct values: doubling read
        // 3–4 % more peak RSS (DESIGN.md, "Offsets and ranks").
        dict.reserve_exact(values.len());
        for (x, at) in sort(values) {
            // A value twice, in the batch or there and stored, is one entry.
            if dict.last().is_none_or(|d| order(d, &x).is_ne()) {
                dict.push(x);
            }
            rank[at as usize] = dict.len() as u32 - 1;
        }
        dict.shrink_to_fit();
        ranks.iter_mut().for_each(|r| *r = rank[*r as usize]);
        extend(ranks, &rank[stored..]);
    }
}

/// `xs`, each with its place, in key-code order ([`radix_sorted`]).
fn by_code<T: KeyCode<Code = u64>>(xs: Vec<T>) -> Vec<(T, u32)> {
    let codes = radix_sorted(xs.iter().map(|x| x.code()).zip(0..xs.len() as u32));
    codes.into_iter().map(|(code, at)| (T::from_code(code), at)).collect()
}

/// One column's cells in their values' own types: what
/// [`crate::HeapTable::insert_columns`] appends, one batch per column,
/// and what [`crate::HeapTable::insert_rows`] transposes its rows into.
/// A string batch is a dictionary batch: its strings, in any order and
/// repeats allowed, each named by some row, and for each row the index
/// of its string among them (rows pushed one by one each bring their
/// own string, `ids` `0..n`).
#[derive(Debug, Clone, PartialEq)]
pub enum Batch {
    /// [`ValueType::Int`] cells.
    Int(Vec<i64>),
    /// [`ValueType::Float`] cells.
    Float(Vec<f64>),
    /// [`ValueType::Str`] cells: row `i` holds `strings[ids[i]]`.
    Str {
        /// The batch's strings.
        strings: Vec<String>,
        /// Each row's index into `strings`.
        ids: Vec<u32>,
    },
    /// [`ValueType::Date`] cells.
    Date(Vec<i32>),
}

impl Batch {
    /// An empty batch of `vtype`, with room for `rows` cells.
    pub fn new(vtype: ValueType, rows: usize) -> Self {
        match vtype {
            ValueType::Int => Batch::Int(Vec::with_capacity(rows)),
            ValueType::Float => Batch::Float(Vec::with_capacity(rows)),
            ValueType::Str => Batch::Str { strings: Vec::with_capacity(rows), ids: Vec::with_capacity(rows) },
            ValueType::Date => Batch::Date(Vec::with_capacity(rows)),
        }
    }

    /// The type of the batch's cells.
    pub fn value_type(&self) -> ValueType {
        match self {
            Batch::Int(_) => ValueType::Int,
            Batch::Float(_) => ValueType::Float,
            Batch::Str { .. } => ValueType::Str,
            Batch::Date(_) => ValueType::Date,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Batch::Int(xs) => xs.len(),
            Batch::Float(xs) => xs.len(),
            Batch::Str { ids, .. } => ids.len(),
            Batch::Date(xs) => xs.len(),
        }
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a row's value of the batch's type (a string as a string of
    /// its own); any other is handed back.
    pub(crate) fn push(&mut self, value: Value) -> Result<(), Value> {
        match (self, value) {
            (Batch::Int(c), Value::Int(x)) => c.push(x),
            (Batch::Float(c), Value::Float(x)) => c.push(x),
            (Batch::Str { strings, ids }, Value::Str(x)) => {
                ids.push(strings.len() as u32);
                strings.push(x);
            }
            (Batch::Date(c), Value::Date(x)) => c.push(x),
            (_, other) => return Err(other),
        }
        Ok(())
    }
}

impl Column {
    pub(crate) fn new(vtype: ValueType) -> Self {
        match vtype {
            ValueType::Int => Column::Int { base: 0, offsets: Vec::new() },
            ValueType::Float => Column::Float(Ranked::default()),
            ValueType::Str => Column::Str(Ranked::default()),
            ValueType::Date => Column::Date(Vec::new()),
        }
    }

    /// Encode a batch's cells after the stored ones. An offset column
    /// whose values come to span 2³² or more is ranked from here on; a
    /// batch of another type than the column's changes nothing.
    pub(crate) fn append(&mut self, batch: Batch) {
        let by_str = |strs: Vec<String>| {
            let mut placed: Vec<(String, u32)> = strs.into_iter().zip(0..).collect();
            placed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            placed
        };
        let wide = match (&mut *self, batch) {
            (Column::Int { base, offsets }, Batch::Int(xs)) => append_offsets(base, offsets, xs),
            (Column::RankedInt(r), Batch::Int(xs)) => return r.append(xs, None, i64::cmp, by_code),
            (Column::Float(r), Batch::Float(xs)) => return r.append(xs, None, f64::total_cmp, by_code),
            (Column::Str(r), Batch::Str { strings, ids }) => {
                return r.append(strings, Some(&ids), String::cmp, by_str)
            }
            (Column::Date(days), Batch::Date(xs)) => return days.extend(xs.into_iter().map(i32::code)),
            _ => return,
        };
        if let Some(values) = wide {
            let mut ranked = Ranked::default();
            ranked.append(values, None, i64::cmp, by_code);
            *self = Column::RankedInt(ranked);
        }
    }

    pub(crate) fn as_slice(&self) -> ColumnSlice<'_> {
        match self {
            Column::Int { base, offsets } => ColumnSlice::Int { base: *base, offsets },
            Column::RankedInt(r) => ColumnSlice::RankedInt { dict: &r.dict, ranks: &r.ranks },
            Column::Float(r) => ColumnSlice::Float { dict: &r.dict, ranks: &r.ranks },
            Column::Str(r) => ColumnSlice::Str { dict: &r.dict, ranks: &r.ranks },
            Column::Date(days) => ColumnSlice::Date(days),
        }
    }
}

/// Append `xs` to the offset column `(base, offsets)`, `base` its least
/// value. The base moves down (and every stored offset up) when a value
/// falls below it; when the values would then span 2³² or more, nothing
/// changes and every value, stored ones first, is returned for ranking.
fn append_offsets(base: &mut i64, offsets: &mut Vec<u32>, xs: Vec<i64>) -> Option<Vec<i64>> {
    let (Some(&lo), Some(&hi)) = (xs.iter().min(), xs.iter().max()) else { return None };
    if offsets.is_empty() {
        *base = lo;
    }
    let least = lo.min(*base);
    let offset = |x: i64| u32::try_from(i128::from(x) - i128::from(least)).ok();
    let shift = offset(*base).filter(|&s| s == 0 || offsets.iter().all(|o| o.checked_add(s).is_some()));
    let (Some(shift), Some(_)) = (shift, offset(hi)) else {
        let stored = offsets.iter().map(|&o| base.wrapping_add(o.into()));
        return Some(stored.chain(xs).collect());
    };
    (shift > 0).then(|| offsets.iter_mut().for_each(|o| *o += shift));
    *base = least;
    offsets.extend(xs.into_iter().filter_map(offset));
    None
}

/// One column of a heap, borrowed; row `i` of the table is element `i`
/// of its 32-bit cells ([`ColumnSlice::cells`]).
#[derive(Debug, Clone, Copy)]
pub enum ColumnSlice<'a> {
    /// A [`ValueType::Int`] column whose values span less than 2³²: row
    /// `i` holds `base + offsets[i]`.
    Int {
        /// The column's least value (0 while it is empty).
        base: i64,
        /// Each row's distance from `base`.
        offsets: &'a [u32],
    },
    /// A [`ValueType::Int`] column spanning 2³² or more: row `i` holds
    /// `dict[ranks[i]]`.
    RankedInt {
        /// The column's values, ascending, each once.
        dict: &'a [i64],
        /// Each row's rank in `dict`.
        ranks: &'a [u32],
    },
    /// A [`ValueType::Float`] column: row `i` holds `dict[ranks[i]]`.
    Float {
        /// The column's values in `total_cmp` order, each bit pattern once.
        dict: &'a [f64],
        /// Each row's rank in `dict`.
        ranks: &'a [u32],
    },
    /// A [`ValueType::Str`] column: row `i` holds `dict[ranks[i]]`.
    Str {
        /// The column's strings, sorted by `str::cmp`, each once.
        dict: &'a [String],
        /// Each row's rank in `dict`.
        ranks: &'a [u32],
    },
    /// A [`ValueType::Date`] column: each row's day as its [`KeyCode`].
    Date(&'a [u32]),
}

impl<'a> ColumnSlice<'a> {
    /// The column's type.
    pub fn value_type(&self) -> ValueType {
        match self {
            ColumnSlice::Int { .. } | ColumnSlice::RankedInt { .. } => ValueType::Int,
            ColumnSlice::Float { .. } => ValueType::Float,
            ColumnSlice::Str { .. } => ValueType::Str,
            ColumnSlice::Date(_) => ValueType::Date,
        }
    }

    /// The column's cells, each its own cell code: days, offsets or ranks.
    pub fn cells(&self) -> &'a [u32] {
        match *self {
            ColumnSlice::Int { offsets: codes, .. }
            | ColumnSlice::RankedInt { ranks: codes, .. }
            | ColumnSlice::Float { ranks: codes, .. }
            | ColumnSlice::Str { ranks: codes, .. }
            | ColumnSlice::Date(codes) => codes,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cells().len()
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell of one row as a [`Value`]; `None` past the end.
    pub fn get(&self, row: usize) -> Option<Value> {
        self.cells().get(row).map(|&code| self.value_of(code))
    }

    /// The value cell code `code` stands for (how statistics turn sorted
    /// codes into values). Panics on a rank past the dictionary.
    pub fn value_of(&self, code: u32) -> Value {
        match *self {
            ColumnSlice::Int { base, .. } => Value::Int(base.wrapping_add(code.into())),
            ColumnSlice::RankedInt { dict, .. } => Value::Int(dict[code as usize]),
            ColumnSlice::Float { dict, .. } => Value::Float(dict[code as usize]),
            ColumnSlice::Str { dict, .. } => Value::Str(dict[code as usize].clone()),
            ColumnSlice::Date(_) => Value::Date(i32::from_code(code)),
        }
    }

    /// Append the cells of `rows` (in that order) to `out` as
    /// [`Value`]s, skipping rows past the end: callers pass row ids a
    /// scan window or [`crate::HeapTable::fetch_sorted`] produced.
    pub fn gather(&self, rows: &[u32], out: &mut Vec<Value>) {
        out.extend(rows.iter().filter_map(|&r| self.get(r as usize)));
    }

    /// [`literal_code`] of the cell of `row`'s value in `column` (a
    /// string's without a copy). Panics on a row past the end.
    pub fn code_in(&self, row: usize, column: &ColumnSlice<'_>) -> Result<u64, Ordering> {
        match (self, column) {
            (ColumnSlice::Str { dict, ranks }, ColumnSlice::Str { dict: other, .. }) => {
                Ok(rank_code(other.binary_search(&dict[ranks[row] as usize])))
            }
            _ => literal_code(&self.value_of(self.cells()[row]), *column),
        }
    }

    /// Does the cell of `row` equal `other`'s cell of `other_row` under
    /// `Value`'s equality (same type, floats bit for bit)? False for
    /// columns of different types and past either end. Two columns'
    /// offsets or ranks are not comparable: their values are compared.
    #[inline]
    pub fn cells_eq(&self, row: usize, other: &ColumnSlice<'_>, other_row: usize) -> bool {
        fn same<T>(a: &[T], i: usize, b: &[T], j: usize, eq: impl Fn(&T, &T) -> bool) -> bool {
            matches!((a.get(i), b.get(j)), (Some(x), Some(y)) if eq(x, y))
        }
        use ColumnSlice::{Date, Int, Str};
        // Join keys' layouts compared in place, the rest as values.
        match (*self, *other) {
            (Int { base: a, offsets: x }, Int { base: b, offsets: y }) => {
                let value = |base: i64, o: u32| base.wrapping_add(o.into());
                same(x, row, y, other_row, |&p, &q| value(a, p) == value(b, q))
            }
            (Str { dict: a, ranks: x }, Str { dict: b, ranks: y }) => {
                same(x, row, y, other_row, |&p, &q| a[p as usize] == b[q as usize])
            }
            (Date(x), Date(y)) => same(x, row, y, other_row, u32::eq),
            _ => matches!((self.get(row), other.get(other_row)), (Some(a), Some(b)) if a == b),
        }
    }

    /// The closed interval of key codes `lo..=hi` as the closed interval
    /// of the cell codes `c` whose key codes `2c + 1` lie in it, or `None`
    /// when no cell code's does.
    pub fn cell_interval(&self, (lo, hi): (u64, u64)) -> Option<(u32, u32)> {
        let hi = u32::try_from(hi.checked_sub(1)? / 2).unwrap_or(u32::MAX);
        let lo = u32::try_from(lo / 2).ok().filter(|&lo| lo <= hi)?;
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_preserve_value_order_and_round_trip() {
        let ints = [i64::MIN, -7, -1, 0, 1, 42, i64::MAX];
        for w in ints.windows(2) {
            assert!(w[0].code() < w[1].code());
        }
        assert!(ints.iter().all(|&x| i64::from_code(x.code()) == x));

        let dates = [i32::MIN, -1, 0, 9_000, i32::MAX];
        for w in dates.windows(2) {
            assert!(w[0].code() < w[1].code());
        }
        assert!(dates.iter().all(|&x| i32::from_code(x.code()) == x));

        // total_cmp order, including both NaN signs and both zeros.
        let floats =
            [-f64::NAN, f64::NEG_INFINITY, -1e300, -1.5, -0.0, 0.0, 2.5, f64::INFINITY, f64::NAN];
        for w in floats.windows(2) {
            assert!(w[0].code() < w[1].code(), "{} !< {}", w[0], w[1]);
            assert!(Value::Float(w[0]) < Value::Float(w[1]));
        }
        assert!(floats.iter().all(|&x| f64::from_code(x.code()).to_bits() == x.to_bits()));
    }

    /// `sorted_entries` must give what `sort_unstable` gives on the
    /// `(cell code, row id)` pairs, and every code must turn back into
    /// its cell bit for bit.
    fn assert_sorts_like_pairs(values: &[Value], shape: &str) {
        let Some(first) = values.first() else { return };
        let column = column_of(first.value_type(), values);
        let column = column.as_slice();
        let mut expected: Vec<(u32, RowId)> = column.cells().iter().copied().zip((0..).map(RowId)).collect();
        expected.sort_unstable();
        let entries = sorted_entries(column);
        assert!(entries == expected, "{shape}, {} cells, {:?}", values.len(), column.value_type());
        for (cell, rid) in entries {
            let (got, want) = (column.value_of(cell), &values[rid.0 as usize]);
            let bits = |v: &Value| if let Value::Float(x) = v { Some(x.to_bits()) } else { None };
            assert!(&got == want && bits(&got) == bits(want), "{shape}: {got:?} for {want:?}");
        }
    }

    /// Every shape the distribution branches on, as indices into a
    /// type's ascending `domain` (its extremes first and last): row `i`
    /// of `len` holds `domain[shape(i) % domain.len()]`.
    fn shapes(len: u64, rng: &mut crate::prng::Prng) -> Vec<(&'static str, Vec<u64>)> {
        let random: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
        vec![
            ("all equal", vec![7; len as usize]),
            ("two values", random.iter().map(|r| 3 + r % 2 * 40).collect()),
            // The type's least value once, the rest close together.
            ("one outlier far below", (0..len).map(|i| if i == len / 2 { 0 } else { 60 + i % 9 }).collect()),
            ("sorted", (0..len).collect()),
            ("reversed", (0..len).rev().collect()),
            // Both extremes, the specials and everything between.
            ("random", random),
        ]
    }

    #[test]
    fn radix_sort_equals_sort_unstable_on_code_row_pairs() {
        use crate::prng::Prng;
        // Ascending domains of 100 003 values (more distinct codes than
        // a pass has buckets, at every length): the extremes, then a
        // spread of ordinary values, specials in their places. An `Int`
        // column holding an extreme is ranked; one without, offsets.
        const DOMAIN: u64 = 100_003;
        let int = |k: u64| match k {
            0 => i64::MIN,
            k if k == DOMAIN - 1 => i64::MAX,
            k => (k as i64 - 50_000) * 7_919,
        };
        let date = |k: u64| match k {
            0 => i32::MIN,
            k if k == DOMAIN - 1 => i32::MAX,
            k => k as i32 - 50_000,
        };
        let float = |k: u64| match k {
            0 => -f64::NAN,
            1 => f64::NEG_INFINITY,
            50_000 => -0.0,
            50_001 => 0.0,
            k if k == DOMAIN - 2 => f64::INFINITY,
            k if k == DOMAIN - 1 => f64::NAN,
            k => (k as f64 - 50_000.5) * 0.37,
        };
        let mut rng = Prng::new(0x5EED_C0DE);
        for len in [0, 1, 2, 25, 6_000, 70_000] {
            for (shape, picks) in shapes(len, &mut rng) {
                let cells = |pick: &u64| pick % DOMAIN;
                let ints: Vec<Value> = picks.iter().map(|p| Value::Int(int(cells(p)))).collect();
                assert_sorts_like_pairs(&ints, shape);
                let dates: Vec<Value> = picks.iter().map(|p| Value::Date(date(cells(p)))).collect();
                assert_sorts_like_pairs(&dates, shape);
                let floats: Vec<Value> = picks.iter().map(|p| Value::Float(float(cells(p)))).collect();
                assert_sorts_like_pairs(&floats, shape);
            }
        }
    }

    /// A column of `values` (one type), appended as one batch.
    fn column_of(vtype: ValueType, values: &[Value]) -> Column {
        let mut column = Column::new(vtype);
        let mut batch = Batch::new(vtype, values.len());
        values.iter().for_each(|v| batch.push(v.clone()).unwrap());
        column.append(batch);
        column
    }

    #[test]
    fn push_rejects_other_variants() {
        let mut c = Column::new(ValueType::Date);
        let mut batch = Batch::new(ValueType::Date, 1);
        assert!(batch.push(Value::Date(3)).is_ok());
        assert_eq!(batch.push(Value::Int(3)), Err(Value::Int(3)));
        c.append(batch);
        assert_eq!(c.as_slice().len(), 1);
        // A batch of another type changes nothing.
        c.append(Batch::Int(vec![1]));
        assert_eq!(c.as_slice().len(), 1);
    }

    #[test]
    fn the_data_picks_the_layout() {
        let ints = |xs: &[i64]| xs.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>();
        let mut c = column_of(ValueType::Int, &ints(&[7, 5, 9]));
        assert!(matches!(c.as_slice(), ColumnSlice::Int { base: 5, offsets: [2, 0, 4] }));
        // A value below the base moves it, and every stored offset.
        let mut batch = Batch::new(ValueType::Int, 1);
        batch.push(Value::Int(-1)).unwrap();
        c.append(batch);
        assert!(matches!(c.as_slice(), ColumnSlice::Int { base: -1, offsets: [8, 6, 10, 0] }));
        // A span of 2^32 ranks the column, stored rows and all.
        let mut batch = Batch::new(ValueType::Int, 1);
        batch.push(Value::Int((1 << 32) - 1)).unwrap();
        c.append(batch);
        let ColumnSlice::RankedInt { dict, ranks } = c.as_slice() else { panic!("ranked") };
        assert_eq!((dict, ranks), (&[-1, 5, 7, 9, (1 << 32) - 1][..], &[2, 1, 3, 0, 4][..]));
        // One short of it stays in offsets.
        let c = column_of(ValueType::Int, &ints(&[i64::MAX, i64::MAX - u32::MAX as i64]));
        assert!(matches!(c.as_slice(), ColumnSlice::Int { offsets: [u32::MAX, 0], .. }));
        let c = column_of(ValueType::Int, &ints(&[i64::MIN, i64::MAX]));
        assert!(matches!(c.as_slice(), ColumnSlice::RankedInt { ranks: [0, 1], .. }));
    }

    #[test]
    fn slice_reads_cells() {
        let strs = ["b", "a", "c"].map(|s| Value::Str(s.into()));
        let c = column_of(ValueType::Str, &strs);
        let s = c.as_slice();
        assert_eq!(s.value_type(), ValueType::Str);
        assert_eq!(s.get(1), Some(Value::Str("a".into())));
        assert_eq!(s.get(3), None);
        let mut out = Vec::new();
        s.gather(&[2, 0], &mut out);
        assert_eq!(out, vec![Value::Str("c".into()), Value::Str("b".into())]);
        assert!(s.cells_eq(0, &s, 0) && !s.cells_eq(0, &s, 1));
        let int = column_of(ValueType::Int, &[Value::Int(0)]);
        assert!(!s.cells_eq(0, &int.as_slice(), 0), "another type equals nothing");
        assert!(!s.cells_eq(9, &s, 0) && !s.cells_eq(0, &s, 9), "nor does a row past the end");

        let nan = f64::NAN;
        let floats = [0.0, -0.0, nan, -nan, nan].map(Value::Float);
        let c = column_of(ValueType::Float, &floats);
        let f = c.as_slice();
        assert!(f.cells_eq(0, &f, 0) && !f.cells_eq(0, &f, 1), "floats compare bit for bit");
        assert!(f.cells_eq(2, &f, 4) && !f.cells_eq(2, &f, 3));
        let ColumnSlice::Float { dict, ranks } = f else { panic!("a ranked float column") };
        assert_eq!((dict.len(), ranks), (4, &[2, 1, 3, 0, 3][..]));
    }
}
