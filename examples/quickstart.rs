//! Quickstart: build a small database, stream queries through the
//! engine, and let COLT discover and materialize the right index.
//!
//! Run with: `cargo run --release --example quickstart`

use colt_repro::prelude::*;

fn main() {
    // 1. A small database: one table of 50k "order" rows.
    let mut db = Database::new();
    let orders = db.add_table(TableSchema::new(
        "orders",
        vec![
            Column::new("id", ValueType::Int),
            Column::new("customer", ValueType::Int),
            Column::new("status", ValueType::Int),
        ],
    ));
    db.insert_rows(
        orders,
        (0..50_000i64).map(|i| row_from(vec![Value::Int(i), Value::Int(i % 2_000), Value::Int(i % 4)])),
    )
    .expect("rows match the schema");
    db.analyze_all(); // gather statistics, as a DBA would run ANALYZE

    // 2. An initially empty physical design and a COLT tuner with a
    //    2 000-page on-line budget.
    let mut physical = PhysicalConfig::new();
    let mut tuner = ColtTuner::new(ColtConfig { storage_budget_pages: 2_000, ..Default::default() });
    let mut eqo = Eqo::new(&db);

    // 3. Stream 120 selective point lookups on `customer`. Each query is
    //    optimized, executed, and handed to the tuner.
    let customer = ColRef::new(orders, 1);
    let mut first_epoch_ms = 0.0;
    let mut last_epoch_ms = 0.0;
    for i in 0..120i64 {
        let q = Query::single(orders, vec![SelPred::eq(customer, i * 37 % 2_000)]);
        let plan = eqo.optimize(&q, &physical);
        let result = Executor::new(&db, &physical)
            .execute(&q, &plan, Collect::CountOnly)
            .expect("plan matches query")
            .result;
        let step = tuner.on_query(&db, &mut physical, &mut eqo, &q, &plan);

        if i < 10 {
            first_epoch_ms += result.millis;
        }
        if i >= 110 {
            last_epoch_ms += result.millis;
        }
        if !step.created.is_empty() {
            println!("query {i:>3}: COLT materialized {:?}", step.created);
        }
    }

    // 4. COLT noticed the pattern and installed the index on its own.
    assert!(physical.contains(customer), "COLT should have materialized orders.customer");
    println!();
    println!("first 10 queries (no index): {first_epoch_ms:>8.1} simulated ms");
    println!("last 10 queries (indexed):   {last_epoch_ms:>8.1} simulated ms");
    println!("speedup: {:.0}x", first_epoch_ms / last_epoch_ms);
    println!();
    println!("epoch trace:");
    for e in &tuner.trace().epochs {
        println!(
            "  epoch {:>2}: {:>2} what-if calls (budget {:>2}), next budget {:>2}",
            e.epoch, e.whatif_used, e.whatif_limit, e.next_budget
        );
    }
}
