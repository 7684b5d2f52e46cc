//! Typed column vectors — the heap's physical layout — and the
//! order-preserving key codes index builds and predicate kernels
//! compare instead of [`Value`] enums.

use crate::row::RowId;
use crate::value::{Value, ValueType};
use std::cmp::Ordering;
use std::ops::Bound;

/// A fixed-width cell type with an order-preserving unsigned code:
/// `a.code() < b.code()` exactly when `Value::cmp` orders `a` before
/// `b` (so `f64` follows `total_cmp`: NaNs at the extremes, `-0.0`
/// below `+0.0`), and `from_code(code(x))` is `x` bit for bit. Sorting
/// codes therefore sorts keys, at the price of an integer compare.
/// A `u32` cell is a string's rank in its column's dictionary
/// ([`ColumnSlice::Str`]): rank `r` has code `2r + 1`, which leaves the
/// even codes to the strings the dictionary lacks ([`literal_code`]).
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

/// The key code of the string `s` in a column of dictionary `dict`: its
/// rank's code when present, else `2p` for the rank `p` it would take —
/// between the codes of its neighbours, so it equals no cell and bounds
/// a range exactly.
fn str_code(s: &str, dict: &[String]) -> u64 {
    match dict.binary_search_by(|d| d.as_str().cmp(s)) {
        Ok(rank) => (rank as u32).code(),
        Err(place) => 2 * place as u64,
    }
}

/// The key code of `literal` in `column` (a date's 32-bit code widened,
/// a string's from the column's dictionary), or — for a literal of
/// another type — the side of the column `Value`'s cross-type order puts
/// it on: `Err(Less)` sorts below every cell, `Err(Greater)` above every
/// one. This is the one place a predicate literal meets a column: the
/// scan kernels and the index both resolve through it, so a predicate is
/// the same code interval to either.
pub fn literal_code(literal: &Value, column: ColumnSlice<'_>) -> Result<u64, Ordering> {
    match (literal, column) {
        (Value::Int(x), ColumnSlice::Int(_)) => Ok(x.code()),
        (Value::Float(x), ColumnSlice::Float(_)) => Ok(x.code()),
        (Value::Date(x), ColumnSlice::Date(_)) => Ok(x.code().into()),
        (Value::Str(s), ColumnSlice::Str { dict, .. }) => Ok(str_code(s, dict)),
        _ => Err(literal.value_type().cmp(&column.value_type())),
    }
}

/// One side of a range over `column` (`lower`: its lower side) as a
/// bound on the column's codes, or `None` when no cell can satisfy it.
/// A literal of another type bounds nothing from its own side of the
/// column and everything from the other.
pub fn code_bound(bound: Bound<&Value>, column: ColumnSlice<'_>, lower: bool) -> Option<Bound<u64>> {
    let (literal, inclusive) = match bound {
        Bound::Included(v) => (v, true),
        Bound::Excluded(v) => (v, false),
        Bound::Unbounded => return Some(Bound::Unbounded),
    };
    match literal_code(literal, column) {
        Ok(code) if inclusive => Some(Bound::Included(code)),
        Ok(code) => Some(Bound::Excluded(code)),
        Err(side) => ((side == Ordering::Less) == lower).then_some(Bound::Unbounded),
    }
}

/// A range over `column` as the closed interval of codes its cells must
/// lie in: each side the tightest inclusive code ([`code_bound`]; an
/// exclusive bound moves to the adjacent code, an open side to the end
/// of the code space), or `None` when a side admits no cell. The
/// interval may still be empty, `lo > hi`.
pub fn code_interval(
    lo: Bound<&Value>,
    hi: Bound<&Value>,
    column: ColumnSlice<'_>,
) -> Option<(u64, u64)> {
    let closed = |bound, lower: bool| match code_bound(bound, column, lower)? {
        Bound::Included(c) => Some(c),
        Bound::Excluded(c) if lower => c.checked_add(1),
        Bound::Excluded(c) => c.checked_sub(1),
        Bound::Unbounded => Some(if lower { u64::MIN } else { u64::MAX }),
    };
    Some((closed(lo, true)?, closed(hi, false)?))
}

/// Most radix bits one pass spends: 4 096 write heads are 32 KB of
/// counters and 256 KB of half-filled cache lines.
const MAX_DIGIT_BITS: u32 = 12;

/// Buckets up to this long are finished by a comparison sort.
const SMALL_BUCKET: usize = 32;

/// The `(code, row id)` entries of a column's cells — a string column's
/// ranks — in code, then row-id order: what
/// [`crate::BPlusTreeOf::bulk_load`] takes; the cells' codes
/// ([`KeyCode`]) sort as `Value::cmp` sorts the cells.
///
/// Codes that already ascend (a key column in load order) are the
/// entries as they stand. Otherwise: a most-significant-digit radix
/// sort over `code − least code`, so bits above the column's span cost
/// nothing. One read of the column finds the span, one counts the
/// buckets, a third writes every entry to its bucket, in row order
/// within it. The digit is the whole span where that asks no more
/// buckets than entries (then nothing is left to do), else the top bits
/// that leave a bucket four to eight entries — halved when that exceeds
/// [`MAX_DIGIT_BITS`], the buckets' own pass taking the rest. A bucket
/// of up to [`SMALL_BUCKET`] entries is comparison-sorted; a longer one
/// still out of order is sorted the same way over its own narrower span
/// (few values far apart, a sentinel far from the rest).
pub fn sorted_entries<T: KeyCode>(cells: &[T]) -> Vec<(u64, RowId)> {
    let rows = cells.iter().zip(0..).map(|(cell, rid)| (cell.code().into(), RowId(rid)));
    let Some(span) = unsorted_span(rows.clone()) else { return rows.collect() };
    let mut entries = vec![(0, RowId(0)); cells.len()];
    distribute(rows, span, &mut entries);
    entries
}

/// The least and greatest code among `entries`, or `None` when the
/// codes already ascend (so do none, one, and all-equal).
fn unsorted_span(entries: impl Iterator<Item = (u64, RowId)> + Clone) -> Option<(u64, u64)> {
    let mut previous = 0;
    if entries.clone().all(|(code, _)| std::mem::replace(&mut previous, code) <= code) {
        return None;
    }
    Some(entries.fold((u64::MAX, 0), |(min, max), (code, _)| (min.min(code), max.max(code))))
}

/// Write the entries of `src` — codes within `min..=max`, not all equal,
/// equal codes in ascending row-id order — into `dst` (as long as `src`)
/// in code, then row-id order.
fn distribute(
    src: impl Iterator<Item = (u64, RowId)> + Clone,
    (min, max): (u64, u64),
    dst: &mut [(u64, RowId)],
) {
    let bits = 64 - (max - min).leading_zeros();
    let spread = dst.len().ilog2();
    let width = match spread.saturating_sub(2).max(1) {
        _ if bits <= spread.min(MAX_DIGIT_BITS) => bits,
        top if top <= MAX_DIGIT_BITS => top,
        top => top.div_ceil(2).min(bits),
    };
    let shift = bits - width;
    let bucket = |code: u64| ((code - min) >> shift) as usize;
    let mut heads = vec![0usize; 1 << width];
    for (code, _) in src.clone() {
        heads[bucket(code)] += 1;
    }
    // Occurrences of each digit become its bucket's first output slot.
    let mut next = 0;
    for head in &mut heads {
        next += std::mem::replace(head, next);
    }
    for entry in src {
        let head = &mut heads[bucket(entry.0)];
        dst[*head] = entry;
        *head += 1;
    }
    if shift == 0 {
        return;
    }
    // Every head has moved to its bucket's end.
    let mut start = 0;
    for end in heads {
        let bucket = &mut dst[start..end];
        start = end;
        if bucket.len() <= SMALL_BUCKET {
            bucket.sort_unstable();
        } else if let Some(span) = unsorted_span(bucket.iter().copied()) {
            let unsorted = bucket.to_vec();
            distribute(unsorted.iter().copied(), span, bucket);
        }
    }
}

/// One column of a heap, owned, laid out as its [`ColumnSlice`].
#[derive(Debug, Clone)]
pub(crate) enum Column {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str { dict: Vec<String>, ranks: Vec<u32> },
    Date(Vec<i32>),
}

impl Column {
    pub(crate) fn new(vtype: ValueType) -> Self {
        match vtype {
            ValueType::Int => Column::Int(Vec::new()),
            ValueType::Float => Column::Float(Vec::new()),
            ValueType::Str => Column::Str { dict: Vec::new(), ranks: Vec::new() },
            ValueType::Date => Column::Date(Vec::new()),
        }
    }

    /// Append a value of the column's own type; any other variant is
    /// handed back untouched. A string the dictionary lacks goes to the
    /// batch's `fresh` strings, its row holding the placeholder
    /// `dict.len() + i` for `fresh[i]` until [`Column::rerank`].
    pub(crate) fn push(&mut self, value: Value, fresh: &mut Vec<String>) -> Result<(), Value> {
        match (self, value) {
            (Column::Int(c), Value::Int(x)) => c.push(x),
            (Column::Float(c), Value::Float(x)) => c.push(x),
            (Column::Str { dict, ranks }, Value::Str(x)) => {
                let rank = dict.binary_search(&x).unwrap_or(dict.len() + fresh.len());
                if rank >= dict.len() {
                    fresh.push(x);
                }
                ranks.push(rank as u32);
            }
            (Column::Date(c), Value::Date(x)) => c.push(x),
            (_, other) => return Err(other),
        }
        Ok(())
    }

    /// End a batch of [`Column::push`]es: sort its `fresh` strings into
    /// the dictionary and rewrite every row's old rank or placeholder as
    /// its new rank — one sort, one pass over the rows, per batch.
    pub(crate) fn rerank(&mut self, fresh: Vec<String>) {
        let (Column::Str { dict, ranks }, false) = (self, fresh.is_empty()) else { return };
        // Every string with its code, its old rank or placeholder; sorted
        // unstably, as the codes are distinct and stable scratch is big.
        let mut coded: Vec<(String, u32)> =
            std::mem::take(dict).into_iter().chain(fresh).zip(0..).collect();
        coded.sort_unstable();
        dict.reserve_exact(coded.len());
        let mut rank = vec![0u32; coded.len()];
        for (s, code) in coded {
            // A fresh string twice in the batch is one dictionary entry.
            if dict.last() != Some(&s) {
                dict.push(s);
            }
            rank[code as usize] = dict.len() as u32 - 1;
        }
        ranks.iter_mut().for_each(|r| *r = rank[*r as usize]);
    }

    pub(crate) fn as_slice(&self) -> ColumnSlice<'_> {
        match self {
            Column::Int(c) => ColumnSlice::Int(c),
            Column::Float(c) => ColumnSlice::Float(c),
            Column::Str { dict, ranks } => ColumnSlice::Str { dict, ranks },
            Column::Date(c) => ColumnSlice::Date(c),
        }
    }
}

/// One column of a heap, borrowed as a slice of its native type; row
/// `i` of the table is element `i`.
#[derive(Debug, Clone, Copy)]
pub enum ColumnSlice<'a> {
    /// A [`ValueType::Int`] column.
    Int(&'a [i64]),
    /// A [`ValueType::Float`] column.
    Float(&'a [f64]),
    /// A [`ValueType::Str`] column: row `i` holds `dict[ranks[i]]`.
    Str {
        /// The column's strings, sorted by `str::cmp`, each once.
        dict: &'a [String],
        /// Each row's rank in `dict`, so ranks order as their strings.
        ranks: &'a [u32],
    },
    /// A [`ValueType::Date`] column.
    Date(&'a [i32]),
}

impl ColumnSlice<'_> {
    /// The column's type.
    pub fn value_type(&self) -> ValueType {
        match self {
            ColumnSlice::Int(_) => ValueType::Int,
            ColumnSlice::Float(_) => ValueType::Float,
            ColumnSlice::Str { .. } => ValueType::Str,
            ColumnSlice::Date(_) => ValueType::Date,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnSlice::Int(c) => c.len(),
            ColumnSlice::Float(c) => c.len(),
            ColumnSlice::Str { ranks, .. } => ranks.len(),
            ColumnSlice::Date(c) => c.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cell of one row as a [`Value`]; `None` past the end.
    pub fn get(&self, row: usize) -> Option<Value> {
        Some(match self {
            ColumnSlice::Int(c) => Value::Int(*c.get(row)?),
            ColumnSlice::Float(c) => Value::Float(*c.get(row)?),
            ColumnSlice::Str { dict, ranks } => Value::Str(dict[*ranks.get(row)? as usize].clone()),
            ColumnSlice::Date(c) => Value::Date(*c.get(row)?),
        })
    }

    /// Append the cells of `rows` (in that order) to `out` as
    /// [`Value`]s, skipping rows past the end: callers pass row ids a
    /// scan window or [`crate::HeapTable::fetch_sorted`] produced.
    pub fn gather(&self, rows: &[u32], out: &mut Vec<Value>) {
        out.extend(rows.iter().filter_map(|&r| self.get(r as usize)));
    }

    /// The key code of the cell of `row` (a string's rank code). Panics
    /// on a row past the end.
    pub fn code(&self, row: usize) -> u64 {
        match self {
            ColumnSlice::Int(c) => c[row].code(),
            ColumnSlice::Float(c) => c[row].code(),
            ColumnSlice::Str { ranks, .. } => ranks[row].code(),
            ColumnSlice::Date(c) => c[row].code().into(),
        }
    }

    /// [`literal_code`] of the cell of `row` in `column`, without a
    /// [`Value`] (a string's searches `column`'s dictionary). Panics on a
    /// row past the end.
    pub fn code_in(&self, row: usize, column: &ColumnSlice<'_>) -> Result<u64, Ordering> {
        match (self, column) {
            (ColumnSlice::Int(c), ColumnSlice::Int(_)) => Ok(c[row].code()),
            (ColumnSlice::Float(c), ColumnSlice::Float(_)) => Ok(c[row].code()),
            (ColumnSlice::Date(c), ColumnSlice::Date(_)) => Ok(c[row].code().into()),
            (ColumnSlice::Str { dict, ranks }, ColumnSlice::Str { dict: other, .. }) => {
                Ok(str_code(&dict[ranks[row] as usize], other))
            }
            _ => Err(self.value_type().cmp(&column.value_type())),
        }
    }

    /// Does the cell of `row` equal `other`'s cell of `other_row` under
    /// `Value`'s equality (same type, floats bit for bit)? False for
    /// columns of different types and past either end. Two string
    /// columns' ranks are not comparable: their strings are compared.
    #[inline]
    pub fn cells_eq(&self, row: usize, other: &ColumnSlice<'_>, other_row: usize) -> bool {
        fn same<T>(a: &[T], i: usize, b: &[T], j: usize, eq: impl Fn(&T, &T) -> bool) -> bool {
            matches!((a.get(i), b.get(j)), (Some(x), Some(y)) if eq(x, y))
        }
        match (self, other) {
            (ColumnSlice::Int(a), ColumnSlice::Int(b)) => same(a, row, b, other_row, i64::eq),
            (ColumnSlice::Float(a), ColumnSlice::Float(b)) => {
                same(a, row, b, other_row, |x, y| x.to_bits() == y.to_bits())
            }
            (ColumnSlice::Str { dict: a, ranks: ra }, ColumnSlice::Str { dict: b, ranks: rb }) => {
                same(ra, row, rb, other_row, |&x, &y| a[x as usize] == b[y as usize])
            }
            (ColumnSlice::Date(a), ColumnSlice::Date(b)) => same(a, row, b, other_row, i32::eq),
            _ => false,
        }
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
    /// `(code, row id)` pairs, and every code must turn back into its
    /// cell bit for bit.
    fn assert_sorts_like_pairs<T: KeyCode>(cells: &[T], bits: fn(T) -> u64, shape: &str)
    where
        T::Code: TryFrom<u64>,
    {
        let mut expected: Vec<(u64, RowId)> =
            cells.iter().zip(0..).map(|(x, rid)| (x.code().into(), RowId(rid))).collect();
        expected.sort_unstable();
        let entries = sorted_entries(cells);
        assert!(entries == expected, "{shape}, {} cells", cells.len());
        let narrow = |code: u64| T::Code::try_from(code).ok().expect("the code fits its cell's width");
        for (code, rid) in entries {
            assert_eq!(bits(T::from_code(narrow(code))), bits(cells[rid.0 as usize]));
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
        // spread of ordinary values, specials in their places.
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
                let ints: Vec<i64> = picks.iter().map(|p| int(cells(p))).collect();
                assert_sorts_like_pairs(&ints, |x| x as u64, shape);
                let dates: Vec<i32> = picks.iter().map(|p| date(cells(p))).collect();
                assert_sorts_like_pairs(&dates, |x| x as u32 as u64, shape);
                let floats: Vec<f64> = picks.iter().map(|p| float(cells(p))).collect();
                assert_sorts_like_pairs(&floats, f64::to_bits, shape);
            }
        }
    }

    #[test]
    fn push_rejects_other_variants() {
        let mut c = Column::new(ValueType::Date);
        assert!(c.push(Value::Date(3), &mut Vec::new()).is_ok());
        assert_eq!(c.push(Value::Int(3), &mut Vec::new()), Err(Value::Int(3)));
        assert_eq!(c.as_slice().len(), 1);
    }

    #[test]
    fn slice_reads_cells() {
        let (mut c, mut fresh) = (Column::new(ValueType::Str), Vec::new());
        for s in ["b", "a", "c"] {
            c.push(Value::Str(s.into()), &mut fresh).unwrap();
        }
        c.rerank(fresh);
        let s = c.as_slice();
        assert_eq!(s.value_type(), ValueType::Str);
        assert_eq!(s.get(1), Some(Value::Str("a".into())));
        assert_eq!(s.get(3), None);
        let mut out = Vec::new();
        s.gather(&[2, 0], &mut out);
        assert_eq!(out, vec![Value::Str("c".into()), Value::Str("b".into())]);
        assert!(s.cells_eq(0, &s, 0) && !s.cells_eq(0, &s, 1));
        assert!(!s.cells_eq(0, &ColumnSlice::Int(&[0]), 0), "another type equals nothing");
        assert!(!s.cells_eq(9, &s, 0) && !s.cells_eq(0, &s, 9), "nor does a row past the end");

        let nan = f64::NAN;
        let f = ColumnSlice::Float(&[0.0, -0.0, nan, -nan, nan]);
        assert!(f.cells_eq(0, &f, 0) && !f.cells_eq(0, &f, 1), "floats compare bit for bit");
        assert!(f.cells_eq(2, &f, 4) && !f.cells_eq(2, &f, 3));
    }
}
