//! Compiled selection predicates over typed heap columns.
//!
//! A [`SelPred`] compares [`Value`] enums: every row pays a
//! discriminant match, and a range pays it four times. A [`Kernel`] is
//! the same predicate *compiled once per scan* against the column it
//! restricts: the literals are resolved to the column's key codes up
//! front, and the per-row work is one unsigned compare over a slice of
//! `i64` / `f64` / `i32` cells or of a string column's `u32` ranks.
//!
//! The kernel accepts exactly the rows [`SelPred::matches`] accepts.
//! Cells are compared through their order-preserving [`KeyCode`]s, so
//! floats follow `total_cmp` like `Value::cmp` does (`-0.0` below
//! `+0.0`, NaNs at the extremes, equality bit for bit) and strings
//! follow `str::cmp` through their ranks. Literals become codes through
//! `colt_storage`'s one resolver ([`literal_code`] / [`code_interval`]),
//! the same one an index scan's bounds go through: a string the column
//! lacks equals no cell and bounds a range between its neighbours, a
//! literal of another type never equals a cell, and bounds a range as
//! `Value`'s cross-type order says — below every cell of the column or
//! above every one. An exclusive bound at the type's extreme leaves
//! nothing to match.

use crate::query::{PredicateKind, RangeBound, SelPred};
use colt_storage::{code_interval, literal_code, ColumnSlice, KeyCode, Value};
use std::ops::Range;

/// One [`SelPred`] compiled against the column it restricts.
#[derive(Debug, Clone)]
pub struct Kernel<'a> {
    cells: ColumnSlice<'a>,
    test: CodeTest,
}

/// A test on a cell's key code, widened to 64 bits (a 32-bit loop for
/// dates measured no faster: the store, not the compare, paces it).
#[derive(Debug, Clone)]
enum CodeTest {
    /// `lo <= code <= lo + span`, tested as the one compare
    /// `code - lo <= span`: a code below `lo` wraps above any span.
    Range { lo: u64, span: u64 },
    /// Membership in a sorted, duplicate-free list. The empty list is
    /// what a predicate nothing satisfies compiles to.
    In(Vec<u64>),
}

impl<'a> Kernel<'a> {
    /// Compile `pred` for evaluation over `column`, the heap column it
    /// restricts.
    pub fn compile(pred: &SelPred, column: ColumnSlice<'a>) -> Self {
        Kernel { cells: column, test: code_test(&pred.kind, column) }
    }

    /// Replace `sel` with the rows of the window `rows` the predicate
    /// accepts, ascending. Panics when the window reaches past the
    /// column's end.
    pub fn select(&self, rows: Range<usize>, sel: &mut Vec<u32>) {
        self.run(Op::Select(rows, sel));
    }

    /// How many rows of the window `rows` the predicate accepts — the
    /// length [`Kernel::select`] would leave in its vector, without the
    /// vector: the test is summed, nothing is stored. Panics when the
    /// window reaches past the column's end.
    pub fn count(&self, rows: Range<usize>) -> usize {
        let mut kept = 0;
        self.run(Op::Count(rows, &mut kept));
        kept
    }

    /// Keep in `sel` (row ids of the column) only the rows the
    /// predicate accepts. Panics on a row id past the column's end.
    pub fn retain(&self, sel: &mut Vec<u32>) {
        self.run(Op::Retain(sel));
    }

    /// Pick the loop for this column type once, outside it. The code
    /// comes in as a closure (resolved in the generic loop, the `f64`
    /// count loop vectorized to an SSE2 form measured 1.35× slower).
    fn run(&self, op: Op<'_>) {
        match self.cells {
            ColumnSlice::Int(cells) => self.test.run(cells, |x| x.code(), op),
            ColumnSlice::Float(cells) => self.test.run(cells, |x| x.code(), op),
            ColumnSlice::Str { ranks, .. } => self.test.run(ranks, |x| x.code(), op),
            ColumnSlice::Date(cells) => self.test.run(cells, |x| x.code().into(), op),
        }
    }
}

impl CodeTest {
    fn run<T>(&self, cells: &[T], code: impl Fn(&T) -> u64, op: Op<'_>) {
        match *self {
            // `lo` and `span` by value: read through `self`, the loop
            // would reload both after every store to the selection.
            CodeTest::Range { lo, span } => {
                apply(cells, move |x| code(x).wrapping_sub(lo) <= span, op)
            }
            CodeTest::In(ref list) => apply(cells, |x| list.binary_search(&code(x)).is_ok(), op),
        }
    }
}

/// What to do with a per-cell test.
enum Op<'s> {
    Select(Range<usize>, &'s mut Vec<u32>),
    Count(Range<usize>, &'s mut usize),
    Retain(&'s mut Vec<u32>),
}

fn apply<T>(cells: &[T], keep: impl Fn(&T) -> bool, op: Op<'_>) {
    match op {
        Op::Select(rows, sel) => {
            // Branch-free: write every row id, advance past the kept
            // ones only — the cost does not depend on how predictable
            // the predicate's outcome is.
            let first = rows.start;
            let window = &cells[rows];
            sel.clear();
            sel.resize(window.len(), 0);
            // Through a slice: the vector's own pointer and length
            // would be reloaded after every store.
            let out = sel.as_mut_slice();
            let mut kept = 0;
            for (i, x) in window.iter().enumerate() {
                out[kept] = (first + i) as u32;
                kept += usize::from(keep(x));
            }
            sel.truncate(kept);
        }
        // A plain loop: `filter().count()` compiles to another one,
        // which on `i64` cells measured no faster than selecting them.
        Op::Count(rows, kept) => {
            let mut n = 0;
            for x in &cells[rows] {
                n += usize::from(keep(x));
            }
            *kept = n;
        }
        Op::Retain(sel) => sel.retain(|&row| keep(&cells[row as usize])),
    }
}

/// Resolve a predicate against `column`'s key space.
fn code_test(kind: &PredicateKind, column: ColumnSlice<'_>) -> CodeTest {
    let code_of = |v: &Value| literal_code(v, column).ok();
    match kind {
        PredicateKind::Eq(v) => match code_of(v) {
            Some(lo) => CodeTest::Range { lo, span: 0 },
            None => CodeTest::In(Vec::new()),
        },
        PredicateKind::In(values) => {
            let mut codes: Vec<u64> = values.iter().filter_map(code_of).collect();
            codes.sort_unstable();
            codes.dedup();
            CodeTest::In(codes)
        }
        PredicateKind::Range { lo, hi } => {
            match code_interval(RangeBound::as_bound(lo), RangeBound::as_bound(hi), column) {
                Some((lo, hi)) if lo <= hi => CodeTest::Range { lo, span: hi - lo },
                _ => CodeTest::In(Vec::new()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{ColRef, TableId};

    fn col() -> ColRef {
        ColRef::new(TableId(0), 0)
    }

    fn selected(pred: &SelPred, column: ColumnSlice<'_>) -> Vec<u32> {
        let mut sel = vec![99];
        Kernel::compile(pred, column).select(0..column.len(), &mut sel);
        sel
    }

    #[test]
    fn int_ranges_resolve_exclusive_bounds_at_the_extremes() {
        let cells = [i64::MIN, -1, 0, 5, i64::MAX];
        let column = ColumnSlice::Int(&cells);
        assert_eq!(selected(&SelPred::between(col(), -1i64, 5i64), column), vec![1, 2, 3]);
        assert_eq!(selected(&SelPred::eq(col(), i64::MAX), column), vec![4]);
        let open = |lo: Option<(i64, bool)>, hi: Option<(i64, bool)>| SelPred {
            col: col(),
            kind: PredicateKind::Range {
                lo: lo.map(|(v, inclusive)| RangeBound { value: Value::Int(v), inclusive }),
                hi: hi.map(|(v, inclusive)| RangeBound { value: Value::Int(v), inclusive }),
            },
        };
        assert_eq!(selected(&open(Some((i64::MAX, false)), None), column), Vec::<u32>::new());
        assert_eq!(selected(&open(None, Some((i64::MIN, false))), column), Vec::<u32>::new());
        assert_eq!(selected(&open(Some((i64::MIN, false)), None), column), vec![1, 2, 3, 4]);
        assert_eq!(selected(&open(Some((5, true)), Some((0, true))), column), Vec::<u32>::new());
        assert_eq!(selected(&open(None, None), column), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn other_types_literals_follow_the_cross_type_order() {
        let cells = [1.5, -0.0, 0.0, f64::NAN];
        let column = ColumnSlice::Float(&cells);
        // Int sorts below every float, Str above.
        assert_eq!(selected(&SelPred::ge(col(), 7i64), column), vec![0, 1, 2, 3]);
        assert_eq!(selected(&SelPred::le(col(), 7i64), column), Vec::<u32>::new());
        assert_eq!(selected(&SelPred::le(col(), "a"), column), vec![0, 1, 2, 3]);
        assert_eq!(selected(&SelPred::eq(col(), 0i64), column), Vec::<u32>::new());
        // Same type: total_cmp, zeros apart, NaN on top.
        assert_eq!(selected(&SelPred::eq(col(), 0.0), column), vec![2]);
        assert_eq!(selected(&SelPred::ge(col(), 0.0), column), vec![0, 2, 3]);
        let mixed =
            SelPred::is_in(col(), vec![Value::Float(-0.0), Value::Int(1), Value::Float(f64::NAN)]);
        assert_eq!(selected(&mixed, column), vec![1, 3]);
    }

    #[test]
    fn strings_and_dates() {
        use colt_storage::{row_from, HeapTable, ValueType};
        let mut heap = HeapTable::new(&[ValueType::Str]);
        heap.insert_rows(["pear", "apple", "fig", ""].map(|s| row_from(vec![s.into()]))).unwrap();
        let column = heap.column(0).unwrap();
        assert_eq!(selected(&SelPred::eq(col(), "fig"), column), vec![2]);
        assert_eq!(selected(&SelPred::between(col(), "b", "g"), column), vec![2]);
        assert_eq!(selected(&SelPred::ge(col(), Value::Date(0)), column), Vec::<u32>::new());
        assert_eq!(selected(&SelPred::ge(col(), 0i64), column), vec![0, 1, 2, 3]);
        let list = SelPred::is_in(col(), vec!["".into(), "pear".into(), Value::Int(3)]);
        assert_eq!(selected(&list, column), vec![0, 3]);

        let days = [i32::MIN, 10, 20, i32::MAX];
        let column = ColumnSlice::Date(&days);
        let pred = SelPred::between(col(), Value::Date(10), Value::Date(i32::MAX));
        assert_eq!(selected(&pred, column), vec![1, 2, 3]);
        // Every other type sorts below dates.
        assert_eq!(selected(&SelPred::ge(col(), "zzz"), column), vec![0, 1, 2, 3]);
    }

    /// `select` on random windows and `retain` on random row ids keep
    /// exactly the cells `pred.matches`.
    fn assert_matches(pred: &SelPred, column: ColumnSlice<'_>, rng: &mut colt_storage::Prng) {
        let kernel = Kernel::compile(pred, column);
        let matches = |row: usize| column.get(row).is_some_and(|cell| pred.matches(&cell));
        for _ in 0..8 {
            let start = rng.below(column.len() + 1);
            let window = start..start + rng.below(column.len() - start + 1);
            let mut sel = vec![3];
            kernel.select(window.clone(), &mut sel);
            let want: Vec<u32> = window.clone().filter(|&r| matches(r)).map(|r| r as u32).collect();
            assert_eq!(sel, want, "{pred:?}");
            assert_eq!(kernel.count(window.clone()), sel.len(), "{pred:?} count");
            let mut ids: Vec<u32> = (0..12).map(|_| rng.below(column.len()) as u32).collect();
            let want: Vec<u32> = ids.iter().copied().filter(|&r| matches(r as usize)).collect();
            kernel.retain(&mut ids);
            assert_eq!(ids, want, "{pred:?} retain");
        }
    }

    #[test]
    fn one_compare_range_test_holds_at_the_ends_of_the_code_space() {
        // Per type: the cells with the lowest and the highest code, their
        // neighbours, and some in between.
        let ints = [i64::MIN, i64::MIN + 1, -3, 0, 3, i64::MAX - 1, i64::MAX, 0, i64::MIN, i64::MAX];
        let dates = [i32::MIN, i32::MIN + 1, -3, 0, 3, i32::MAX - 1, i32::MAX, 0, i32::MIN, i32::MAX];
        let (lowest, highest) = (f64::from_code(u64::MIN), f64::from_code(u64::MAX));
        let floats = [lowest, -f64::NAN, -0.0, 0.0, 2.5, f64::NAN, highest, 0.0, lowest, highest];
        let columns: [(ColumnSlice<'_>, [Value; 4]); 3] = [
            (ColumnSlice::Int(&ints), [i64::MIN, -3, 3, i64::MAX].map(Value::Int)),
            (ColumnSlice::Date(&dates), [i32::MIN, -3, 3, i32::MAX].map(Value::Date)),
            (ColumnSlice::Float(&floats), [lowest, -0.0, 2.5, highest].map(Value::Float)),
        ];
        let mut rng = colt_storage::Prng::new(0xc0de_0005);
        for (column, [min, low, high, max]) in columns {
            let range = |lo: Option<(&Value, bool)>, hi: Option<(&Value, bool)>| {
                let side = |s: Option<(&Value, bool)>| {
                    s.map(|(v, inclusive)| RangeBound { value: v.clone(), inclusive })
                };
                SelPred { col: col(), kind: PredicateKind::Range { lo: side(lo), hi: side(hi) } }
            };
            let preds = [
                // The full span, `hi - lo` the code type's maximum.
                range(Some((&min, true)), Some((&max, true))),
                range(None, None),
                // Empty: inverted, and exclusive at either extreme.
                range(Some((&high, true)), Some((&low, true))),
                range(Some((&max, false)), None),
                range(None, Some((&min, false))),
                range(Some((&low, false)), Some((&low, true))),
                // A single code at each end, as a range and as an equality.
                range(Some((&min, true)), Some((&min, true))),
                range(Some((&max, true)), Some((&max, true))),
                SelPred::eq(col(), min.clone()),
                SelPred::eq(col(), max.clone()),
                // Everything but one end.
                range(Some((&min, false)), None),
                range(None, Some((&max, false))),
            ];
            let mut kept = 0;
            for pred in &preds {
                assert_matches(pred, column, &mut rng);
                kept += selected(pred, column).len();
            }
            // 10 + 10, four empties, 2 + 2 + 2 + 2, 8 + 8.
            assert_eq!(kept, 44, "{:?}", column.value_type());
        }
    }

    #[test]
    fn select_windows_and_retain() {
        let cells: Vec<i64> = (0..10).collect();
        let pred = SelPred::ge(col(), 4i64);
        let kernel = Kernel::compile(&pred, ColumnSlice::Int(&cells));
        let mut sel = Vec::new();
        kernel.select(2..7, &mut sel);
        assert_eq!(sel, vec![4, 5, 6]);
        kernel.select(3..3, &mut sel);
        assert!(sel.is_empty());
        let mut ids = vec![9, 1, 4, 3];
        kernel.retain(&mut ids);
        assert_eq!(ids, vec![9, 4]);
    }
}
