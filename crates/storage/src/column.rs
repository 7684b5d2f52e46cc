//! Typed column vectors — the heap's physical layout — and the
//! order-preserving key codes index builds and predicate kernels
//! compare instead of [`Value`] enums.

use crate::value::{Value, ValueType};
use std::cmp::Ordering;
use std::ops::Bound;

/// A fixed-width cell type with an order-preserving unsigned code:
/// `a.code() < b.code()` exactly when `Value::cmp` orders `a` before
/// `b` (so `f64` follows `total_cmp`: NaNs at the extremes, `-0.0`
/// below `+0.0`), and `from_code(code(x))` is `x` bit for bit. Sorting
/// codes therefore sorts keys, at the price of an integer compare.
/// Strings have no such fixed-width code and keep comparing as `str`.
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

/// The key code of `literal` in a fixed-width column of type `column` (a
/// date's 32-bit code widened), or — for a literal of another type — the
/// side of the column `Value`'s cross-type order puts it on: `Err(Less)`
/// sorts below every cell, `Err(Greater)` above every one. This is the
/// one place a predicate literal meets a column type: the scan kernels
/// and the index both resolve through it, so a predicate is the same
/// code interval to either. Strings have no code; a `Str` column answers
/// a `Str` literal `Err(Equal)`.
pub fn literal_code(literal: &Value, column: ValueType) -> Result<u64, Ordering> {
    match (literal, column) {
        (Value::Int(x), ValueType::Int) => Ok(x.code()),
        (Value::Float(x), ValueType::Float) => Ok(x.code()),
        (Value::Date(x), ValueType::Date) => Ok(x.code().into()),
        _ => Err(literal.value_type().cmp(&column)),
    }
}

/// One side of a range over a fixed-width column (`lower`: its lower
/// side) as a bound on the column's codes, or `None` when no cell can
/// satisfy it. A literal of another type bounds nothing from its own
/// side of the column and everything from the other.
pub fn code_bound(bound: Bound<&Value>, column: ValueType, lower: bool) -> Option<Bound<u64>> {
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

/// Sort `(code, row id)` pairs made in row order into `(code, row id)`
/// order, looking at the codes only: the sort is stable, so pairs with
/// equal codes keep their ascending row ids. This is a
/// least-significant-byte-first radix sort: one read of the pairs counts
/// the values at every byte position of the code type, then each
/// position moves the pairs once between the vector and a scratch copy
/// of it — except a position on which every code agrees (the high bytes
/// of small integers, a float column's sign and exponent), which orders
/// nothing and costs no pass.
pub fn sort_by_code<C: Copy + Into<u64>>(pairs: &mut Vec<(C, u32)>) {
    let byte = |pair: &(C, u32), position: usize| (pair.0.into() >> (8 * position)) as usize & 0xff;
    let mut slots = [[0usize; 256]; 8];
    let slots = &mut slots[..std::mem::size_of::<C>().min(8)];
    for pair in pairs.iter() {
        for (position, slot) in slots.iter_mut().enumerate() {
            slot[byte(pair, position)] += 1;
        }
    }
    let mut scratch = pairs.clone();
    for (position, slot) in slots.iter_mut().enumerate() {
        if slot.contains(&pairs.len()) {
            continue;
        }
        // Occurrences of each value become its first output slot.
        let mut next = 0;
        for s in slot.iter_mut() {
            let count = *s;
            *s = next;
            next += count;
        }
        for pair in pairs.iter() {
            let s = &mut slot[byte(pair, position)];
            scratch[*s] = *pair;
            *s += 1;
        }
        std::mem::swap(pairs, &mut scratch);
    }
}

/// One column of a heap, owned: a vector of the column's native type.
#[derive(Debug, Clone)]
pub(crate) enum Column {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Vec<String>),
    Date(Vec<i32>),
}

impl Column {
    pub(crate) fn new(vtype: ValueType) -> Self {
        match vtype {
            ValueType::Int => Column::Int(Vec::new()),
            ValueType::Float => Column::Float(Vec::new()),
            ValueType::Str => Column::Str(Vec::new()),
            ValueType::Date => Column::Date(Vec::new()),
        }
    }

    /// Append a value of the column's own type; any other variant is
    /// handed back untouched.
    pub(crate) fn push(&mut self, value: Value) -> Result<(), Value> {
        match (self, value) {
            (Column::Int(c), Value::Int(x)) => c.push(x),
            (Column::Float(c), Value::Float(x)) => c.push(x),
            (Column::Str(c), Value::Str(x)) => c.push(x),
            (Column::Date(c), Value::Date(x)) => c.push(x),
            (_, other) => return Err(other),
        }
        Ok(())
    }

    pub(crate) fn as_slice(&self) -> ColumnSlice<'_> {
        match self {
            Column::Int(c) => ColumnSlice::Int(c),
            Column::Float(c) => ColumnSlice::Float(c),
            Column::Str(c) => ColumnSlice::Str(c),
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
    /// A [`ValueType::Str`] column.
    Str(&'a [String]),
    /// A [`ValueType::Date`] column.
    Date(&'a [i32]),
}

impl ColumnSlice<'_> {
    /// The column's type.
    pub fn value_type(&self) -> ValueType {
        match self {
            ColumnSlice::Int(_) => ValueType::Int,
            ColumnSlice::Float(_) => ValueType::Float,
            ColumnSlice::Str(_) => ValueType::Str,
            ColumnSlice::Date(_) => ValueType::Date,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnSlice::Int(c) => c.len(),
            ColumnSlice::Float(c) => c.len(),
            ColumnSlice::Str(c) => c.len(),
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
            ColumnSlice::Str(c) => Value::Str(c.get(row)?.clone()),
            ColumnSlice::Date(c) => Value::Date(*c.get(row)?),
        })
    }

    /// Append the cells of `rows` (in that order) to `out` as
    /// [`Value`]s. Panics on a row past the end: callers pass row ids a
    /// scan window or [`crate::HeapTable::fetch_sorted`] produced.
    pub fn gather(&self, rows: &[u32], out: &mut Vec<Value>) {
        out.reserve(rows.len());
        match self {
            ColumnSlice::Int(c) => out.extend(rows.iter().map(|&r| Value::Int(c[r as usize]))),
            ColumnSlice::Float(c) => out.extend(rows.iter().map(|&r| Value::Float(c[r as usize]))),
            ColumnSlice::Str(c) => {
                out.extend(rows.iter().map(|&r| Value::Str(c[r as usize].clone())))
            }
            ColumnSlice::Date(c) => out.extend(rows.iter().map(|&r| Value::Date(c[r as usize]))),
        }
    }

    /// Does the cell of `row` equal `other`'s cell of `other_row` under
    /// `Value`'s equality (same type, floats bit for bit)? False for
    /// columns of different types and past either end.
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
            (ColumnSlice::Str(a), ColumnSlice::Str(b)) => same(a, row, b, other_row, String::eq),
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

    /// `sort_by_code` on `(code, row id)` pairs in row order must give
    /// what `sort_unstable` gives on the pairs, and every code must turn
    /// back into its cell bit for bit.
    fn assert_sorts_like_pairs<T: KeyCode>(cells: &[T], bits: fn(T) -> u64)
    where
        T::Code: std::fmt::Debug,
    {
        let mut keyed: Vec<(T::Code, u32)> = cells.iter().map(|x| x.code()).zip(0..).collect();
        let mut expected = keyed.clone();
        expected.sort_unstable();
        sort_by_code(&mut keyed);
        assert_eq!(keyed, expected, "{} cells", cells.len());
        for (code, rid) in keyed {
            assert_eq!(bits(T::from_code(code)), bits(cells[rid as usize]));
        }
    }

    #[test]
    fn radix_sort_equals_sort_unstable_on_code_row_pairs() {
        use crate::prng::Prng;
        const FLOATS: [f64; 8] =
            [-0.0, 0.0, f64::NEG_INFINITY, f64::INFINITY, f64::NAN, -1.5, 1.5, f64::MIN_POSITIVE];
        let mut rng = Prng::new(0x5EED_C0DE);
        for len in [0, 1, 2, 255, 256, 257, 100_000] {
            // Each shape draws from the whole domain, from a handful of
            // values (heavy duplicates) and from a single one (all equal).
            for distinct in [u64::MAX, 5, 1] {
                let mut draw = || match distinct {
                    u64::MAX => rng.next_u64(),
                    n => rng.below_u64(n),
                };
                let ints: Vec<i64> = (0..len).map(|_| (draw() as i64).wrapping_sub(2)).collect();
                assert_sorts_like_pairs(&ints, |x| x as u64);
                let dates: Vec<i32> = (0..len).map(|_| (draw() as i32).wrapping_sub(2)).collect();
                assert_sorts_like_pairs(&dates, |x| x as u32 as u64);
                // Random bit patterns (every exponent, both NaN signs)
                // with the special values mixed in; the narrow shapes
                // draw from the specials alone.
                let floats: Vec<f64> = (0..len)
                    .map(|_| match draw() {
                        d if distinct == u64::MAX && d % 4 != 0 => f64::from_bits(d),
                        d => FLOATS[(d % 8) as usize],
                    })
                    .collect();
                assert_sorts_like_pairs(&floats, f64::to_bits);
            }
        }
    }

    #[test]
    fn push_rejects_other_variants() {
        let mut c = Column::new(ValueType::Date);
        assert!(c.push(Value::Date(3)).is_ok());
        assert_eq!(c.push(Value::Int(3)), Err(Value::Int(3)));
        assert_eq!(c.as_slice().len(), 1);
    }

    #[test]
    fn slice_reads_cells() {
        let mut c = Column::new(ValueType::Str);
        for s in ["b", "a", "c"] {
            c.push(Value::Str(s.into())).unwrap();
        }
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
