//! What-if exploration: use the extended query optimizer directly to
//! ask "how much would this index help this query?" — the same
//! interface COLT profiles through (paper §3, EQO).
//!
//! Run with: `cargo run --release --example whatif_explorer`
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an example prints and aborts")]

use colt_repro::prelude::*;

fn main() {
    let data = generate(0.01, 7);
    let db = &data.db;
    let inst = &data.instances[0];

    let lineitem = inst.table("lineitem");
    let orders = inst.table("orders");
    let l_shipdate = inst.col(db, "lineitem", "l_shipdate");
    let l_quantity = inst.col(db, "lineitem", "l_quantity");
    let o_custkey = inst.col(db, "orders", "o_custkey");
    let o_orderkey = inst.col(db, "orders", "o_orderkey");
    let l_orderkey = inst.col(db, "lineitem", "l_orderkey");

    // A two-table join: recent line items of one customer's orders.
    let query = Query::join(
        vec![lineitem, orders],
        vec![colt_repro::engine::JoinPred::new(l_orderkey, o_orderkey)],
        vec![
            SelPred::between(l_shipdate, Value::Date(100), Value::Date(400)),
            SelPred::eq(o_custkey, 42i64),
        ],
    );
    println!("query: {query}");
    println!();

    let config = PhysicalConfig::new();
    let mut eqo = Eqo::new(db);

    // The plan with no indexes at all.
    let base = eqo.optimize(&query, &config);
    println!("plan without indexes (estimated cost {:.1}):", base.est_cost());
    println!("{}", base.explain());

    // Ask the what-if interface about every candidate index at once.
    let candidates = vec![l_shipdate, l_quantity, o_custkey];
    let gains = eqo.what_if_optimize(&query, &candidates, &config);
    println!("what-if gains (cost units saved if materialized):");
    for g in &gains {
        let t = db.table(g.col.table);
        println!(
            "  {}.{:<14} {:>10.1}",
            t.schema.name, t.schema.columns[g.col.column as usize].name, g.gain
        );
    }
    println!();

    // Materialize the best one and show the new plan — and the reverse
    // what-if (gain of a *materialized* index).
    let best = gains
        .iter()
        .max_by(|a, b| a.gain.total_cmp(&b.gain))
        .expect("non-empty candidates");
    let mut config = PhysicalConfig::new();
    let build_io = config.create_index(db, best.col);
    println!(
        "materialized the best candidate ({} pages written); new plan:",
        build_io.pages_written
    );
    let indexed = eqo.optimize(&query, &config);
    println!("{}", indexed.explain());
    println!(
        "estimated cost {:.1} → {:.1} (gain matches the what-if answer: {:.1})",
        base.est_cost(),
        indexed.est_cost(),
        best.gain
    );

    // Execute both ways and verify the engine agrees with the estimates
    // in *direction* (estimates are statistics-based, execution is real).
    let no_index = PhysicalConfig::new();
    let plan_seq = Optimizer::new(db).optimize(&query, IndexSetView::real(&no_index));
    let seq_out = Executor::new(db, &no_index)
        .execute(&query, &plan_seq, Collect::Rows)
        .expect("plan matches query");
    let idx_out = Executor::new(db, &config)
        .execute(&query, &indexed, Collect::Rows)
        .expect("plan matches query");
    let (seq_res, mut rows_seq) = (seq_out.result, seq_out.rows);
    let (idx_res, mut rows_idx) = (idx_out.result, idx_out.rows);
    rows_seq.sort();
    rows_idx.sort();
    assert_eq!(rows_seq, rows_idx, "same answer either way");
    println!();
    println!(
        "executed: {} rows; {:.1} simulated ms without the index, {:.1} with it",
        seq_res.row_count, seq_res.millis, idx_res.millis
    );
    println!("what-if calls spent: {}", eqo.counters().whatif_calls);
}
