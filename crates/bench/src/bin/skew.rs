//! Extension experiment: estimation robustness under data skew.
//!
//! A Zipf-distributed column breaks the uniform-within-distinct
//! assumption: the hot value matches thousands of rows (an index scan
//! would thrash), cold values match a handful (a sequential scan wastes
//! the table). With most-common-value statistics the optimizer picks
//! the right path *per constant*, and COLT's measured gains stay
//! calibrated — the tuner still converges to the off-line optimum.
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an exhibit bin prints and aborts")]

use colt_bench::{colt_vs_offline, fmt_ms, run_exhibit, SEED};
use colt_catalog::{ColRef, Column, Database, PhysicalConfig, TableSchema};
use colt_engine::{Collect, Executor, IndexSetView, Optimizer, Query, SelPred};
use colt_harness::metrics::{deviation_pct, tail_deviation};
use colt_storage::{Prng, Value, ValueType};
use colt_workload::gen::{draw_columns, ColumnGen};

fn main() {
    // 60k-row table; `kind` is Zipf(1.0) over 500 distinct values.
    let mut db = Database::new();
    let t = db.add_table(TableSchema::new(
        "events",
        vec![Column::new("id", ValueType::Int), Column::new("kind", ValueType::Int)],
    ));
    let zipf = ColumnGen::Zipf { n: 500, s: 1.0 };
    let mut rng = Prng::new(SEED);
    db.insert_columns(t, draw_columns(&[ColumnGen::Key, zipf.clone()], 60_000, &mut rng))
        .expect("generated columns fit the schema");
    db.analyze_all();
    let kind = ColRef::new(t, 1);
    let stats = db.table(t).column_stats(1);
    println!("# Extension — estimation robustness under Zipf skew");
    println!(
        "  events.kind: {} distinct, hottest value covers {:.1}% of rows, {} MCVs tracked",
        stats.n_distinct,
        stats.mcvs.first().map(|(_, f)| f * 100.0).unwrap_or(0.0),
        stats.mcvs.len()
    );

    // Per-constant plan choice with the index materialized.
    let mut cfg = PhysicalConfig::new();
    cfg.create_index(&db, kind);
    let opt = Optimizer::new(&db);
    println!();
    println!("  per-constant access-path choice (index on kind materialized):");
    for probe in [0i64, 2, 50, 400] {
        let q = Query::single(t, vec![SelPred::eq(kind, probe)]);
        let plan = opt.optimize(&q, IndexSetView::real(&cfg));
        let res =
            Executor::new(&db, &cfg).execute(&q, &plan, Collect::CountOnly).expect("plan matches query");
        let path = if plan.used_indices().is_empty() { "SeqScan " } else { "IndexScan" };
        println!(
            "    kind = {probe:>3}: {path}  ({} rows, {:.1} simulated ms)",
            res.row_count(), res.millis()
        );
    }

    // COLT on a Zipf-sampled eq workload.
    let workload: Vec<Query> = (0..400)
        .map(|i| {
            let v = zipf.generate(i, &mut rng);
            Query::single(t, vec![SelPred::eq(kind, match v { Value::Int(x) => x, _ => 0 })])
        })
        .collect();
    let budget = db.index_estimate(kind).pages + 16;
    let cells = colt_vs_offline("", &db, &workload, budget);
    let report = run_exhibit("Skew cells", &cells);
    let offline = report.get("OFFLINE").expect("offline cell");
    let colt = report.get("COLT").expect("colt cell");
    println!();
    println!("  COLT vs OFFLINE on 400 Zipf-sampled equality queries:");
    println!("    OFFLINE {:>10}", fmt_ms(offline.total_millis()));
    println!("    COLT    {:>10}  ({:+.1}%)", fmt_ms(colt.total_millis()), deviation_pct(colt, offline, ..));
    println!("    post-convergence deviation: {:+.1}%", tail_deviation(colt, offline));
}
