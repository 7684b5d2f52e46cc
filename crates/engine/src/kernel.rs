//! Compiled selection predicates over typed heap columns.
//!
//! A [`SelPred`] compares [`Value`](colt_storage::Value) enums: every
//! row pays a discriminant match, and a range pays it four times. A
//! [`Kernel`] is the same predicate *compiled once per scan* against the
//! column it restricts: the literals are resolved to the column's cell
//! codes up front, and the per-row work is one unsigned 32-bit compare
//! over the column's cells — a date's day, an `Int`'s offset from its
//! column's least value, or a rank in the column's dictionary
//! ([`colt_storage::column`]). One loop serves all four types.
//!
//! The kernel accepts exactly the rows [`SelPred::matches`] accepts.
//! Cell codes order as their values do within a column, so floats
//! follow `total_cmp` like `Value::cmp` does (`-0.0` below `+0.0`, NaNs
//! at the extremes, equality bit for bit) and strings follow `str::cmp`.
//! Literals become codes through `colt_storage`'s one resolver
//! ([`literal_code`] / [`code_interval`]), the same one an index scan's
//! bounds go through: a value the column lacks equals no cell and
//! bounds a range between its neighbours, a literal of another type
//! never equals a cell, and bounds a range as `Value`'s cross-type order
//! says — below every cell of the column or above every one.

use crate::query::{PredicateKind, SelPred};
use colt_storage::{code_interval, literal_code, ColumnSlice};
use std::ops::Range;

/// One [`SelPred`] compiled against the column it restricts.
#[derive(Debug, Clone)]
pub struct Kernel<'a> {
    cells: &'a [u32],
    /// `None` for a predicate no cell satisfies: an inverted range, or
    /// a literal no cell can equal.
    test: Option<CodeRange>,
}

/// The test on a cell's 32-bit cell code, `lo <= code <= lo + span`,
/// made the one compare `code - lo <= span`: a code below `lo` wraps
/// above any span. Baseline x86-64 has no 64-bit vector compare: a count
/// over 64-bit codes paid for an emulated one (EXPERIMENTS.md, "PR 31"
/// and "PR 35").
#[derive(Debug, Clone, Copy)]
struct CodeRange {
    lo: u32,
    span: u32,
}

impl<'a> Kernel<'a> {
    /// Compile `pred` for evaluation over `column`, the heap column it
    /// restricts.
    pub fn compile(pred: &SelPred, column: ColumnSlice<'a>) -> Self {
        Kernel { cells: column.cells(), test: code_test(&pred.kind, column) }
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

    /// Pick the loop for this predicate's test once, outside it.
    fn run(&self, op: Op<'_>) {
        match self.test {
            // `lo` and `span` by value: read through `self`, the loop
            // would reload both after every store to the selection.
            Some(CodeRange { lo, span }) => apply(self.cells, move |&x| x.wrapping_sub(lo) <= span, op),
            None => apply(self.cells, |_| false, op),
        }
    }
}

/// What to do with a per-cell test.
enum Op<'s> {
    Select(Range<usize>, &'s mut Vec<u32>),
    Count(Range<usize>, &'s mut usize),
    Retain(&'s mut Vec<u32>),
}

fn apply(cells: &[u32], keep: impl Fn(&u32) -> bool, op: Op<'_>) {
    match op {
        Op::Select(rows, sel) => mask_select(cells, rows, keep, sel),
        // A plain loop: `filter().count()` compiles to another one,
        // which on `i64` cells measured no faster than selecting them.
        // Tallied in `u32`, a vector lane per cell rather than per two,
        // over chunks short enough that the tally cannot wrap.
        Op::Count(rows, kept) => {
            *kept = cells[rows]
                .chunks(u32::MAX as usize)
                .map(|chunk| {
                    let mut n = 0u32;
                    for x in chunk {
                        n += u32::from(keep(x));
                    }
                    n as usize
                })
                .sum();
        }
        Op::Retain(sel) => sel.retain(|&row| keep(&cells[row as usize])),
    }
}

/// [`Op::Select`]: 32 rows' tests into one mask, then a store per set
/// bit, not one per row as a branch-free select does — 0.65 against
/// 0.76 ns/row on `joins`' date ranges (EXPERIMENTS.md, "Hash joins
/// write only what a consumer reads").
fn mask_select(cells: &[u32], rows: Range<usize>, keep: impl Fn(&u32) -> bool, sel: &mut Vec<u32>) {
    sel.clear();
    sel.resize(rows.len(), 0);
    let out = sel.as_mut_slice();
    let mut kept = 0;
    for (chunk, base) in cells[rows.clone()].chunks(32).zip((rows.start as u32..).step_by(32)) {
        let bits = chunk.iter().enumerate();
        let mut mask = bits.fold(0u32, |mask, (i, x)| mask | u32::from(keep(x)) << i);
        while mask != 0 {
            out[kept] = base + mask.trailing_zeros();
            kept += 1;
            mask &= mask - 1;
        }
    }
    sel.truncate(kept);
}

/// Resolve a predicate against `column`'s cell codes: its literals'
/// key codes ([`literal_code`], [`code_interval`]), narrowed to the
/// cells they take in ([`ColumnSlice::cell_interval`]).
fn code_test(kind: &PredicateKind, column: ColumnSlice<'_>) -> Option<CodeRange> {
    let codes = match kind {
        PredicateKind::Eq(v) => literal_code(v, column).ok().map(|code| (code, code)),
        PredicateKind::Range { lo, hi } => code_interval(lo, hi, column),
    };
    let (lo, hi) = column.cell_interval(codes?)?;
    Some(CodeRange { lo, span: hi - lo })
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{ColRef, TableId};
    use colt_storage::{row_from, HeapTable, KeyCode, Value, ValueType};

    fn col() -> ColRef {
        ColRef::new(TableId(0), 0)
    }

    /// A one-column heap of `values`, inserted as one batch.
    fn heap_of(values: &[Value]) -> HeapTable {
        let mut heap = HeapTable::new(&[values[0].value_type()]);
        heap.insert_rows(values.iter().map(|v| row_from(vec![v.clone()]))).unwrap();
        heap
    }

    fn layout(column: ColumnSlice<'_>) -> &'static str {
        match column {
            ColumnSlice::Int { .. } => "int offsets",
            ColumnSlice::RankedInt { .. } => "ranked int",
            ColumnSlice::Float { .. } => "ranked float",
            ColumnSlice::Str { .. } => "ranked str",
            ColumnSlice::Date(_) => "date",
        }
    }

    fn selected(pred: &SelPred, column: ColumnSlice<'_>) -> Vec<u32> {
        let mut sel = vec![99];
        Kernel::compile(pred, column).select(0..column.len(), &mut sel);
        sel
    }

    #[test]
    fn int_ranges_resolve_at_the_extremes() {
        let heap = heap_of(&[i64::MIN, -1, 0, 5, i64::MAX].map(Value::Int));
        let column = heap.column(0).unwrap();
        let between = |lo: i64, hi: i64| selected(&SelPred::between(col(), lo, hi), column);
        assert_eq!(between(-1, 5), vec![1, 2, 3]);
        assert_eq!(selected(&SelPred::eq(col(), i64::MAX), column), vec![4]);
        assert_eq!(between(i64::MIN, i64::MAX), vec![0, 1, 2, 3, 4]);
        assert_eq!(between(i64::MIN, i64::MIN), vec![0]);
        assert_eq!(between(i64::MAX, i64::MAX), vec![4]);
        // Inverted, and between two cells.
        assert_eq!(between(5, 0), Vec::<u32>::new());
        assert_eq!(between(i64::MAX, i64::MIN), Vec::<u32>::new());
        assert_eq!(between(6, i64::MAX - 1), Vec::<u32>::new());
        assert_eq!(selected(&SelPred::eq(col(), 6i64), column), Vec::<u32>::new());
    }

    #[test]
    fn other_types_literals_follow_the_cross_type_order() {
        let heap = heap_of(&[1.5, -0.0, 0.0, f64::NAN].map(Value::Float));
        let column = heap.column(0).unwrap();
        let between = |lo: Value, hi: Value| selected(&SelPred::between(col(), lo, hi), column);
        // Int sorts below every float, Str above.
        assert_eq!(between(7i64.into(), "a".into()), vec![0, 1, 2, 3]);
        assert_eq!(between(7i64.into(), 7i64.into()), Vec::<u32>::new());
        assert_eq!(between("a".into(), "b".into()), Vec::<u32>::new());
        assert_eq!(between(7i64.into(), 0.0.into()), vec![1, 2]);
        assert_eq!(selected(&SelPred::eq(col(), 0i64), column), Vec::<u32>::new());
        // Same type: total_cmp, zeros apart, NaN on top.
        assert_eq!(selected(&SelPred::eq(col(), 0.0), column), vec![2]);
        assert_eq!(selected(&SelPred::eq(col(), -0.0), column), vec![1]);
        assert_eq!(selected(&SelPred::eq(col(), f64::NAN), column), vec![3]);
        assert_eq!(between(0.0.into(), f64::NAN.into()), vec![0, 2, 3]);
    }

    #[test]
    fn strings_and_dates() {
        let mut heap = HeapTable::new(&[ValueType::Str]);
        heap.insert_rows(["pear", "apple", "fig", ""].map(|s| row_from(vec![s.into()]))).unwrap();
        let column = heap.column(0).unwrap();
        assert_eq!(selected(&SelPred::eq(col(), "fig"), column), vec![2]);
        assert_eq!(selected(&SelPred::eq(col(), ""), column), vec![3]);
        assert_eq!(selected(&SelPred::between(col(), "b", "g"), column), vec![2]);
        let dates = SelPred::between(col(), Value::Date(0), Value::Date(9));
        assert_eq!(selected(&dates, column), Vec::<u32>::new());
        let around = SelPred::between(col(), 0i64, Value::Date(0));
        assert_eq!(selected(&around, column), vec![0, 1, 2, 3]);

        let days = [i32::MIN, 10, 20, i32::MAX].map(KeyCode::code);
        let column = ColumnSlice::Date(&days);
        let pred = SelPred::between(col(), Value::Date(10), Value::Date(i32::MAX));
        assert_eq!(selected(&pred, column), vec![1, 2, 3]);
        // Every other type sorts below dates.
        let pred = SelPred::between(col(), "zzz", Value::Date(i32::MAX));
        assert_eq!(selected(&pred, column), vec![0, 1, 2, 3]);
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

    /// `select` and `count` keep exactly the cells `pred.matches` on
    /// windows of every length the 32-row mask select tells apart — none,
    /// one, one short of a mask, one, one past it, a batch short of a row
    /// and a full batch — each starting past row 0.
    fn assert_mask_windows(pred: &SelPred, column: ColumnSlice<'_>, rng: &mut colt_storage::Prng) {
        let kernel = Kernel::compile(pred, column);
        for len in [0, 1, 31, 32, 33, 1_023, 1_024] {
            let start = 1 + rng.below(column.len() - len);
            let window = start..start + len;
            let want: Vec<u32> = (window.clone())
                .filter(|&r| column.get(r).is_some_and(|cell| pred.matches(&cell)))
                .map(|r| r as u32)
                .collect();
            let mut sel = vec![3];
            kernel.select(window.clone(), &mut sel);
            assert_eq!(sel, want, "{pred:?} {window:?}");
            assert_eq!(kernel.count(window.clone()), want.len(), "{pred:?} {window:?} count");
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
        // Ints twice: ranked (their span is the whole type), and as
        // offsets (the dates' days, a span one short of 2^32).
        let int = |x: i32| Value::Int(x.into());
        let values: [([Value; 10], [Value; 4]); 4] = [
            (ints.map(Value::Int), [i64::MIN, -3, 3, i64::MAX].map(Value::Int)),
            (dates.map(int), [i32::MIN, -3, 3, i32::MAX].map(int)),
            (dates.map(Value::Date), [i32::MIN, -3, 3, i32::MAX].map(Value::Date)),
            (floats.map(Value::Float), [lowest, -0.0, 2.5, highest].map(Value::Float)),
        ];
        let mut rng = colt_storage::Prng::new(0xc0de_0005);
        // The same cells over and over, 1 100 of them, for long windows.
        let heaps: Vec<(HeapTable, HeapTable)> = (values.iter())
            .map(|(cells, _)| {
                let long: Vec<Value> = (0..1_100).map(|i| cells[i % cells.len()].clone()).collect();
                (heap_of(cells), heap_of(&long))
            })
            .collect();
        let columns = (heaps.iter().zip(&values))
            .map(|((heap, _), (_, edges))| (heap.column(0).unwrap(), edges.clone()));
        let longs = heaps.iter().map(|(_, long)| long.column(0).unwrap());
        let layouts: Vec<&str> = columns.clone().map(|(c, _)| layout(c)).collect();
        assert_eq!(layouts, ["ranked int", "int offsets", "date", "ranked float"]);
        for ((column, [min, low, high, max]), long) in columns.into_iter().zip(longs) {
            let range = |lo: &Value, hi: &Value| SelPred::between(col(), lo.clone(), hi.clone());
            let preds = [
                // The full span, `hi - lo` the code type's maximum.
                range(&min, &max),
                // Empty: inverted.
                range(&high, &low),
                range(&max, &min),
                // A single code at each end, as a range and as an equality.
                range(&min, &min),
                range(&max, &max),
                SelPred::eq(col(), min.clone()),
                SelPred::eq(col(), max.clone()),
                // Everything from one end to a code inside.
                range(&low, &max),
                range(&min, &high),
            ];
            let mut kept = 0;
            for pred in &preds {
                assert_matches(pred, column, &mut rng);
                assert_mask_windows(pred, long, &mut rng);
                kept += selected(pred, column).len();
            }
            // 10, two empties, 2 + 2 + 2 + 2, 7 + 7.
            assert_eq!(kept, 32, "{:?}", column.value_type());
        }
    }

    #[test]
    fn select_windows_and_retain() {
        let heap = heap_of(&(0..10).map(Value::Int).collect::<Vec<_>>());
        let pred = SelPred::between(col(), 4i64, i64::MAX);
        let kernel = Kernel::compile(&pred, heap.column(0).unwrap());
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
