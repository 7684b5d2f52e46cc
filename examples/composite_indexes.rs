//! Multi-column indices — the paper's stated future work, implemented:
//! COLT's on-line composite extension mines co-occurring predicates from
//! the query window and builds a composite index when its benefit over
//! the window pays for the build, and the engine plans and executes
//! prefix scans over it.
//!
//! Run with: `cargo run --release --example composite_indexes`
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an example prints and aborts")]

use colt_repro::colt::CompositeTuner;
use colt_repro::engine::{Executor, IndexSetView, Optimizer, Query, SelPred};
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

    // 1. Let the composite tuner watch the workload — each query with
    //    the plan it ran under — and close the epoch.
    let opt = Optimizer::new(db);
    let bare = PhysicalConfig::new();
    let mut tuner = CompositeTuner::new(&ColtConfig { composite_budget_pages: 10_000, ..Default::default() });
    for q in &workload {
        tuner.observe(q, &opt.optimize(q, IndexSetView::real(&bare)));
    }
    let mut composite = PhysicalConfig::new();
    let step = tuner.reorganize(db, &mut composite);
    println!("composite tuner built:");
    for (key, io) in &step.built {
        println!("  {key}  ~{} pages, build {:.1} simulated ms", key.estimate(db).pages, db.cost.millis_of(io));
    }
    let (key, _) = step.built.first().expect("co-occurring predicates must earn a composite");

    // 2. Compare three configurations: bare, best single-column, composite.
    let mut single = PhysicalConfig::new();
    single.create_index(db, suppkey);
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
    println!("  composite {key}: {:>8.1}", totals[2]);
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
