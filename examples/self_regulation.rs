//! Self-regulation in action: watch COLT's what-if budget hibernate on
//! a stable workload and wake up the moment the workload shifts —
//! the paper's distinguishing mechanism (§5, re-budgeting).
//!
//! Run with: `cargo run --release --example self_regulation`
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an example prints and aborts")]

use colt_repro::prelude::*;
use colt_repro::workload::{QueryDistribution, QueryTemplate, SelSpec, TemplateSelection};
use colt_repro::storage::Prng;

fn main() {
    let data = generate(0.01, 7);
    let db = &data.db;
    let inst = &data.instances[0];
    let other = &data.instances[1];

    let dist_for = |i: &colt_repro::workload::Instance, table: &str, column: &str| {
        QueryDistribution::new().with(
            1.0,
            QueryTemplate::single(
                i.table(table),
                vec![TemplateSelection {
                    col: i.col(db, table, column),
                    spec: SelSpec::RangeFrac { lo_frac: 0.001, hi_frac: 0.004 },
                }],
            ),
        )
    };
    // Phase A: 200 queries on instance 0; phase B: 200 on instance 1.
    let phase_a = dist_for(inst, "lineitem", "l_shipdate");
    let phase_b = dist_for(other, "orders", "o_totalprice");

    let mut physical = PhysicalConfig::new();
    let mut tuner = ColtTuner::new(ColtConfig { storage_budget_pages: 5_000, ..Default::default() });
    let mut eqo = Eqo::new(db);
    let mut rng = Prng::new(3);

    for i in 0..400usize {
        let dist = if i < 200 { &phase_a } else { &phase_b };
        let q = dist.sample(db, &mut rng);
        let plan = eqo.optimize(&q, &physical);
        Executor::new(db, &physical)
            .execute(&q, &plan, Collect::CountOnly)
            .expect("plan matches query");
        tuner.on_query(db, &mut physical, &mut eqo, &q, &plan);
    }

    println!("what-if budget per epoch (the workload shifts at epoch 20):");
    println!("  epoch  used/limit  next   r      activity");
    for e in &tuner.trace().epochs {
        let marker = if e.epoch == 19 { "  <-- shift arrives next epoch" } else { "" };
        let activity = if !e.created.is_empty() {
            format!("built {:?}", e.created.len())
        } else if e.whatif_used == 0 && e.whatif_limit == 0 {
            "hibernating".to_string()
        } else {
            String::new()
        };
        println!(
            "  {:>5}  {:>4}/{:<5} {:>4}  {:>5.2}  {activity}{marker}",
            e.epoch, e.whatif_used, e.whatif_limit, e.next_budget, e.ratio
        );
    }

    let spent: Vec<u64> = tuner.trace().whatif_per_epoch();
    let stable_spend: u64 = spent[10..19].iter().sum();
    let shift_spend: u64 = spent[20..29].iter().sum();
    println!();
    println!("what-if calls in the 9 epochs before the shift: {stable_spend}");
    println!("what-if calls in the 9 epochs after the shift:  {shift_spend}");
    assert!(
        shift_spend > stable_spend,
        "profiling must intensify at the shift ({shift_spend} vs {stable_spend})"
    );
}
