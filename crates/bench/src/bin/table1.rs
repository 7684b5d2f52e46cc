//! Table 1 of the paper: data set characteristics.
//!
//! Prints the characteristics at the paper's scale (1.0) next to the
//! experiment scale actually used by the figure benches, and verifies
//! the generated database matches the declared summary at the
//! experiment scale.
#![allow(clippy::print_stdout, clippy::unwrap_used, reason = "an exhibit bin prints and aborts")]

use colt_bench::{build_data, scale, SEED};
use colt_workload::summary;

fn main() {
    let paper = summary(1.0);
    let ours = summary(scale());

    println!("# Table 1 — Data Set Characteristics");
    println!();
    println!("  {:<28} {:>15} {:>15}", "", "paper scale", format!("scale {}", scale()));
    println!("  {:<28} {:>15} {:>15}", "Size (binary data)", gb(paper.bytes), gb(ours.bytes));
    println!("  {:<28} {:>15} {:>15}", "# Tables", paper.tables, ours.tables);
    println!("  {:<28} {:>15} {:>15}", "# Tuples in all tables", paper.total_tuples, ours.total_tuples);
    println!("  {:<28} {:>15} {:>15}", "# Tuples in largest table", paper.largest, ours.largest);
    println!("  {:<28} {:>15} {:>15}", "# Tuples in smallest table", paper.smallest, ours.smallest);
    println!("  {:<28} {:>15} {:>15}", "# Indexable attributes", paper.attributes, ours.attributes);
    println!();
    println!("  (paper reports: 1.4 GB, 32 tables, 6,928,120 tuples, largest");
    println!("   1,200,000, smallest 5, 244 indexable attributes)");

    // Cross-check the generator against the declared summary.
    let data = build_data(SEED);
    assert_eq!(data.db.table_count(), ours.tables);
    assert_eq!(data.db.total_tuples(), ours.total_tuples);
    assert_eq!(data.db.indexable_attributes(), ours.attributes);
    let largest = data.db.tables().iter().map(|t| t.heap.row_count()).max().unwrap() as u64;
    let smallest = data.db.tables().iter().map(|t| t.heap.row_count()).min().unwrap() as u64;
    assert_eq!(largest, ours.largest);
    assert_eq!(smallest, ours.smallest);
    println!();
    println!("  generator cross-check at scale {}: OK", scale());
}

fn gb(bytes: u64) -> String {
    let gb = bytes as f64 / (1024.0 * 1024.0 * 1024.0);
    if gb >= 0.1 {
        format!("{gb:.2} GB")
    } else {
        format!("{:.1} MB", bytes as f64 / (1024.0 * 1024.0))
    }
}
