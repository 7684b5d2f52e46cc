//! Multi-column indices — the paper's stated future work, implemented:
//! the advisor mines co-occurring predicates from a workload, suggests
//! composite indices, and the engine plans and executes prefix scans
//! over them.
//!
//! Run with: `cargo run --release --example composite_indexes`
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an example prints and aborts")]

use colt_repro::engine::{Executor, IndexSetView, Optimizer, Query, SelPred};
use colt_repro::offline::suggest_composites;
use colt_repro::prelude::*;

fn main() {
    let data = generate(0.01, 7);
    let db = &data.db;
    let inst = &data.instances[0];
    let lineitem = inst.table("lineitem");
    let suppkey = inst.col(db, "lineitem", "l_suppkey");
    let shipdate = inst.col(db, "lineitem", "l_shipdate");

    // An analyst keeps asking: "line items of supplier X shipped in
    // window W" — two predicates that always co-occur.
    let workload: Vec<Query> = (0..60i64)
        .map(|i| {
            Query::single(
                lineitem,
                vec![
                    SelPred::eq(suppkey, i % 40),
                    SelPred::between(shipdate, Value::Date((i * 40 % 2000) as i32), Value::Date((i * 40 % 2000 + 90) as i32)),
                ],
            )
        })
        .collect();

    // 1. Ask the advisor.
    let suggestions = suggest_composites(db, &workload, 3);
    println!("advisor suggestions:");
    for s in &suggestions {
        println!(
            "  {}  serves {} queries, extra benefit {:.0} cost units, ~{} pages",
            s.key, s.occurrences, s.extra_benefit, s.pages
        );
    }
    let top = suggestions.first().expect("co-occurring predicates must yield a suggestion");

    // 2. Compare three configurations: bare, best single-column, composite.
    let bare = PhysicalConfig::new();
    let mut single = PhysicalConfig::new();
    single.create_index(db, suppkey, IndexOrigin::Online);
    let mut composite = PhysicalConfig::new();
    composite.create_composite(db, top.key.clone());

    let opt = Optimizer::new(db);
    let mut totals = [0.0f64; 3];
    for q in &workload {
        for (i, cfg) in [&bare, &single, &composite].iter().enumerate() {
            let plan = opt.optimize(q, IndexSetView::real(cfg));
            totals[i] += Executor::new(db, cfg)
                .execute(q, &plan, Collect::CountOnly)
                .expect("plan matches query")
                .millis();
        }
    }
    println!();
    println!("workload time (60 queries, simulated ms):");
    println!("  no index:              {:>8.1}", totals[0]);
    println!("  single-column (l_suppkey): {:>4.1}", totals[1]);
    println!("  composite {}: {:>8.1}", top.key, totals[2]);
    if (totals[1] - totals[0]).abs() < 1e-6 {
        println!();
        println!("  (note: the single-column index is never chosen here — 2.5%");
        println!("   selectivity is past the random-page break-even — while the");
        println!("   composite resolves both predicates inside the index)");
    }
    assert!(totals[2] < totals[0] && totals[2] < totals[1]);

    // 3. Show the plan the optimizer picks with the composite available.
    let plan = opt.optimize(&workload[0], IndexSetView::real(&composite));
    println!();
    println!("plan with the composite materialized:");
    print!("{}", plan.explain());
    let (res, text) = Executor::new(db, &composite).explain_analyze(&workload[0], &plan).expect("plan matches query");
    println!();
    println!("EXPLAIN ANALYZE:");
    print!("{text}");
    let _ = res;
}
