//! Interactive data analysis — the paper's motivating scenario (§1).
//!
//! An analyst explores the TPC-H data set hypothesis by hypothesis.
//! Queries within one hypothesis share their shape (same tables, same
//! attributes, similar selectivities), but each hypothesis focuses on a
//! different slice of the schema. Off-line tuning can only serve the
//! *average* of this session; COLT re-tunes per hypothesis.
//!
//! Run with: `cargo run --release --example interactive_analysis`
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an example prints and aborts")]

use colt_repro::prelude::*;
use colt_repro::workload::{QueryDistribution, QueryTemplate, SelSpec, TemplateSelection};
use colt_repro::storage::Prng;

fn main() {
    // The four-instance TPC-H data set at a small scale.
    let data = generate(0.01, 7);
    let db = &data.db;
    let inst = &data.instances[0];

    let sel = |t: &str, c: &str, spec: SelSpec| TemplateSelection { col: inst.col(db, t, c), spec };
    let narrow = SelSpec::RangeFrac { lo_frac: 0.001, hi_frac: 0.004 };

    // Three analysis sessions ("hypotheses"), 80 queries each.
    let hypotheses: Vec<(&str, QueryDistribution)> = vec![
        (
            "H1: are recent shipments delayed?",
            QueryDistribution::new().with(
                1.0,
                QueryTemplate::single(
                    inst.table("lineitem"),
                    vec![sel("lineitem", "l_shipdate", narrow.clone())],
                ),
            ),
        ),
        (
            "H2: which customers drive large orders?",
            QueryDistribution::new()
                .with(
                    1.0,
                    QueryTemplate::single(
                        inst.table("orders"),
                        vec![sel("orders", "o_totalprice", narrow.clone())],
                    ),
                )
                .with(
                    1.0,
                    QueryTemplate::single(
                        inst.table("orders"),
                        vec![sel("orders", "o_custkey", SelSpec::Eq)],
                    ),
                ),
        ),
        (
            "H3: is part pricing consistent?",
            QueryDistribution::new().with(
                1.0,
                QueryTemplate::single(
                    inst.table("partsupp"),
                    vec![sel("partsupp", "ps_supplycost", narrow)],
                ),
            ),
        ),
    ];

    let mut physical = PhysicalConfig::new();
    let mut tuner = ColtTuner::new(ColtConfig { storage_budget_pages: 3_000, ..Default::default() });
    let mut eqo = Eqo::new(db);
    let mut rng = Prng::new(99);

    for (title, dist) in &hypotheses {
        println!("== {title}");
        let mut session_ms = 0.0;
        let mut tail_ms = 0.0;
        for i in 0..80 {
            let q = dist.sample(db, &mut rng);
            let plan = eqo.optimize(&q, &physical);
            let result = Executor::new(db, &physical)
                .execute(&q, &plan, Collect::CountOnly)
                .expect("plan matches query")
                .result;
            let step = tuner.on_query(db, &mut physical, &mut eqo, &q, &plan);
            session_ms += result.millis;
            if i >= 60 {
                tail_ms += result.millis;
            }
            for c in &step.created {
                let t = db.table(c.table);
                println!(
                    "   query {i:>2}: materialized index on {}.{}",
                    t.schema.name, t.schema.columns[c.column as usize].name
                );
            }
            for c in &step.dropped {
                let t = db.table(c.table);
                println!(
                    "   query {i:>2}: dropped index on {}.{}",
                    t.schema.name, t.schema.columns[c.column as usize].name
                );
            }
        }
        println!(
            "   session: {session_ms:.0} simulated ms total, last-quarter average {:.1} ms/query",
            tail_ms / 20.0
        );
    }

    println!();
    println!(
        "materialized at the end: {:?}",
        physical
            .online_columns()
            .map(|c| {
                let t = db.table(c.table);
                format!("{}.{}", t.schema.name, t.schema.columns[c.column as usize].name)
            })
            .collect::<Vec<_>>()
    );
    println!(
        "what-if calls across the whole session: {} (budget was {} per epoch)",
        tuner.trace().total_whatif(),
        tuner.config().max_whatif_per_epoch
    );
}
