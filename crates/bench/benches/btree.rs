//! Micro-benchmarks of the B+ tree substrate: bulk loads, incremental
//! inserts, point lookups, and range scans across tree sizes.
//!
//! Also CI's "Bench smoke" step, and a gate there: a bulk load is one
//! pass over sorted input, so the run fails when an entry of a
//! 100 000-entry load costs more than [`BULK_LOAD_SCALING_LIMIT`] times
//! an entry of a 1 000-entry load (the leaf-peeling loader this guards
//! against re-copied the tail once per leaf and read 600×). Index
//! builds are held to the same growth limit and must beat, in this
//! process, the comparison sort their radix sort replaced and the same
//! build with `(Value, RowId)` entries, which the code-keyed tree
//! replaced. The scan kernels' ns/row are printed,
//! not gated: the row the next kernel change starts from.

use colt_bench::bench;
use colt_catalog::{build_index, ColRef, TableId};
use colt_engine::{Kernel, SelPred, BATCH_ROWS};
use colt_storage::{
    row_from, sort_by_code, BPlusTree, BPlusTreeOf, ColumnSlice, HeapTable, IoStats, KeyCode,
    RowId, Value, ValueType,
};
use std::hint::black_box;
use std::ops::Bound;

fn entries(n: usize) -> Vec<(Value, RowId)> {
    (0..n).map(|i| (Value::Int(i as i64), RowId(i as u32))).collect()
}

/// Allowed growth of bulk load's per-entry cost from 1 k to 100 k
/// entries; cache misses account for 1–2×, a quadratic loader for 100×.
const BULK_LOAD_SCALING_LIMIT: f64 = 10.0;

/// Benchmarks bulk load at three sizes; false when it scales worse than
/// [`BULK_LOAD_SCALING_LIMIT`].
fn bench_bulk_load() -> bool {
    let per_entry: Vec<f64> = [1_000usize, 10_000, 100_000]
        .into_iter()
        .map(|n| {
            let data = entries(n);
            let ns = bench(&format!("btree/bulk_load/{n}"), || {
                black_box(BPlusTree::bulk_load(8, black_box(data.clone())));
            });
            ns / n as f64
        })
        .collect();
    let growth = per_entry[2] / per_entry[0];
    println!("  bulk_load ns/entry at 100k vs 1k: {growth:.2}x (limit {BULK_LOAD_SCALING_LIMIT}x)");
    growth <= BULK_LOAD_SCALING_LIMIT
}

/// A step of `build_index` swapped for what it replaced.
#[derive(Clone, Copy)]
enum Reference {
    /// `sort_unstable` on the `(code, row id)` pairs, not the radix sort.
    ComparisonSort,
    /// Every sorted code turned back into a `(Value, RowId)` entry of a
    /// `Value`-keyed tree, not kept as the key.
    ValueEntries,
}

/// `build_index` over the heap's one fixed-width column with one step
/// swapped, as the same-process reference; the built tree's page count.
fn reference_build(heap: &HeapTable, reference: Reference) -> usize {
    fn build<T: KeyCode>(cells: &[T], wrap: fn(T) -> Value, reference: Reference) -> usize {
        let mut keyed: Vec<(T::Code, u32)> = cells.iter().map(|x| x.code()).zip(0..).collect();
        match reference {
            Reference::ComparisonSort => {
                keyed.sort_unstable();
                let entries = keyed.into_iter().map(|(code, rid)| (code.into(), RowId(rid)));
                BPlusTreeOf::<u64>::bulk_load(8, entries.collect()).page_count()
            }
            Reference::ValueEntries => {
                sort_by_code(&mut keyed);
                let entries =
                    keyed.into_iter().map(|(code, rid)| (wrap(T::from_code(code)), RowId(rid)));
                BPlusTree::bulk_load(8, entries.collect()).page_count()
            }
        }
    }
    match heap.column(0) {
        Some(ColumnSlice::Int(cells)) => build(cells, Value::Int, reference),
        Some(ColumnSlice::Date(cells)) => build(cells, Value::Date, reference),
        Some(ColumnSlice::Float(cells)) => build(cells, Value::Float, reference),
        _ => unreachable!("the heap has one fixed-width column"),
    }
}

/// Benchmarks `build_index` on one column (scrambled row order) at 1 k
/// and 100 k rows; false when the per-entry cost grows more than
/// [`BULK_LOAD_SCALING_LIMIT`] or the 100 k build is not faster than
/// both references.
fn bench_build_index(name: &str, vtype: ValueType, value: fn(u64) -> Value) -> bool {
    let col = ColRef::new(TableId(0), 0);
    let heap_of = |n: u64| {
        let mut heap = HeapTable::new(&[vtype]);
        for i in 0..n {
            let row = row_from(vec![value(i.wrapping_mul(2_654_435_761) % (n * 97))]);
            heap.insert(row).expect("the row has the column's type");
        }
        heap
    };
    // The fastest of three rounds over the builds being compared, taken
    // in turn: the verdict must not hang on a neighbour's burst during
    // one 100 ms measurement, nor on which build it fell on.
    type Build<'a> = (String, &'a dyn Fn(&HeapTable) -> usize);
    let per_entry = |n: u64, builds: &[Build<'_>]| {
        let heap = heap_of(n);
        let mut best = vec![f64::INFINITY; builds.len()];
        for _ in 0..3 {
            for (best, (name, build)) in best.iter_mut().zip(builds) {
                let ns = bench(name, || {
                    black_box(build(black_box(&heap)));
                });
                *best = best.min(ns / n as f64);
            }
        }
        best
    };
    let coded = |heap: &HeapTable| build_index(heap, col, 8).0.page_count();
    let small = per_entry(1_000, &[(format!("btree/build_index/{name}/1000"), &coded)])[0];
    let at_100k = per_entry(
        100_000,
        &[
            (format!("btree/build_index/{name}/100000"), &coded),
            (format!("btree/build_index/{name}/100000/sort_unstable"), &|heap| {
                reference_build(heap, Reference::ComparisonSort)
            }),
            (format!("btree/build_index/{name}/100000/value_entries"), &|heap| {
                reference_build(heap, Reference::ValueEntries)
            }),
        ],
    );
    let (large, by_comparison, by_values) = (at_100k[0], at_100k[1], at_100k[2]);
    let (growth, sort_ratio, entry_ratio) =
        (large / small, large / by_comparison, large / by_values);
    println!(
        "  build_index/{name} ns/entry at 100k vs 1k: {growth:.2}x (limit \
         {BULK_LOAD_SCALING_LIMIT}x); radix / sort_unstable at 100k: {sort_ratio:.2} (limit 1); \
         code-keyed / Value-keyed at 100k: {entry_ratio:.2} (limit 1)"
    );
    growth <= BULK_LOAD_SCALING_LIMIT && sort_ratio < 1.0 && entry_ratio < 1.0
}

/// Prints what `Kernel::select` costs per row over a 6 000-row column,
/// a scan window at a time, for ranges keeping 0.3 %, 10 % and 50 % of
/// the rows.
fn bench_kernel_select() {
    const ROWS: usize = 6_000;
    // Row `i` holds key `i · 3 539 mod 6 000`, a permutation of the
    // keys; a range over the keys keeps rows all over the column.
    let keys: Vec<i64> = (0..ROWS as i64).map(|i| i * 3_539 % ROWS as i64).collect();
    let date = |k: i64| k as i32 + 8_000;
    let float = |k: i64| 900.0 + k as f64 / 100.0;
    let dates: Vec<i32> = keys.iter().map(|&k| date(k)).collect();
    let floats: Vec<f64> = keys.iter().map(|&k| float(k)).collect();
    let select = |name: &str, column: ColumnSlice<'_>, literal: &dyn Fn(i64) -> Value| {
        for (label, kept) in [("0.3%", 18), ("10%", 600), ("50%", 3_000)] {
            let col = ColRef::new(TableId(0), 0);
            let pred = SelPred::between(col, literal(1_000), literal(1_000 + kept - 1));
            let kernel = Kernel::compile(&pred, column);
            let mut sel = Vec::new();
            let ns = bench(&format!("kernel/select/{name}/{label}"), || {
                let mut selected = 0;
                for start in (0..ROWS).step_by(BATCH_ROWS) {
                    kernel.select(start..(start + BATCH_ROWS).min(ROWS), &mut sel);
                    selected += black_box(&sel).len();
                }
                assert_eq!(selected, kept as usize);
            });
            println!("  kernel/select/{name}/{label}: {:.2} ns/row", ns / ROWS as f64);
        }
    };
    select("int", ColumnSlice::Int(&keys), &Value::Int);
    select("date", ColumnSlice::Date(&dates), &|k| Value::Date(date(k)));
    select("float", ColumnSlice::Float(&floats), &|k| Value::Float(float(k)));
}

fn bench_insert() {
    for n in [1_000usize, 10_000] {
        bench(&format!("btree/insert/{n}"), || {
            let mut t = BPlusTree::new(8);
            // Scrambled order stresses splits.
            for i in 0..n {
                let k = (i.wrapping_mul(2654435761)) % n;
                t.insert(Value::Int(k as i64), RowId(i as u32));
            }
            black_box(t);
        });
    }
}

fn bench_lookup() {
    let tree = BPlusTree::bulk_load(8, entries(100_000));
    let mut i = 0i64;
    bench("btree/lookup/100k", || {
        i = (i * 75 + 74) % 65_537;
        let mut io = IoStats::new();
        black_box(tree.lookup(&Value::Int(i % 100_000), &mut io));
    });
}

fn bench_range() {
    let tree = BPlusTree::bulk_load(8, entries(100_000));
    for width in [100i64, 1_000, 10_000] {
        bench(&format!("btree/range/{width}"), || {
            let mut io = IoStats::new();
            black_box(tree.range(
                Bound::Included(&Value::Int(5_000)),
                Bound::Excluded(&Value::Int(5_000 + width)),
                &mut io,
            ));
        });
    }
}

fn bench_composite() {
    use colt_storage::CompositeBPlusTree;
    let entries: Vec<(Vec<Value>, RowId)> = (0..100_000)
        .map(|i| (vec![Value::Int(i % 100), Value::Int(i / 100)], RowId(i as u32)))
        .collect();
    let mut sorted = entries.clone();
    sorted.sort();
    let tree = CompositeBPlusTree::bulk_load(16, sorted);

    let mut i = 0i64;
    bench("btree/composite_lookup/100k", || {
        i = (i * 75 + 74) % 65_537;
        let mut io = IoStats::new();
        black_box(tree.lookup(&vec![Value::Int(i % 100), Value::Int(i % 1000)], &mut io));
    });

    let mut j = 0i64;
    bench("btree/composite_prefix_scan/100k", || {
        use colt_storage::ScanControl;
        j = (j * 75 + 74) % 97;
        let prefix = vec![Value::Int(j)];
        let mut io = IoStats::new();
        black_box(tree.scan_from(
            Bound::Included(prefix.clone()),
            |k: &Vec<Value>| {
                if k.starts_with(&prefix) {
                    ScanControl::Take
                } else {
                    ScanControl::Stop
                }
            },
            &mut io,
        ));
    });
}

fn main() -> std::process::ExitCode {
    println!("# btree micro-benchmarks");
    let bulk_load_linear = bench_bulk_load();
    // ~n distinct ids, 2 500 days, prices in cents from 900.00.
    let builds_fast = [
        bench_build_index("int", ValueType::Int, |k| Value::Int(k as i64)),
        bench_build_index("date", ValueType::Date, |k| Value::Date((k % 2_500) as i32 + 8_000)),
        bench_build_index("float", ValueType::Float, |k| {
            Value::Float(900.0 + (k % 10_000_000) as f64 / 100.0)
        }),
    ]
    .iter()
    .all(|&ok| ok);
    bench_kernel_select();
    bench_insert();
    bench_lookup();
    bench_range();
    bench_composite();
    if !bulk_load_linear {
        println!("FAIL: bulk load's per-entry cost grows with the input size");
    }
    if !builds_fast {
        println!(
            "FAIL: an index build scales worse than linearly, lost to sort_unstable, or lost to \
             the same build with (Value, RowId) entries"
        );
    }
    if bulk_load_linear && builds_fast {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
