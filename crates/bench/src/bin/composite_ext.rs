//! Extension experiment: on-line multi-column tuning (the paper's
//! future work, DESIGN.md §8).
//!
//! The workload pairs two mid-selectivity equality predicates on
//! lineitem (supplier × quantity). Each predicate alone is past the
//! random-page break-even — no single-column index helps, so the paper's
//! COLT is stuck at sequential scans. With a composite budget, the
//! extension mines the co-occurrence on-line and materializes the
//! two-column index.
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an exhibit bin prints and aborts")]

use colt_bench::{build_data, fmt_ms, run_exhibit, SEED};
use colt_core::ColtConfig;
use colt_harness::{Cell, Policy};
use colt_storage::Prng;
use colt_workload::{fixed, QueryDistribution, QueryTemplate, SelSpec, TemplateSelection};

fn main() {
    let data = build_data(SEED);
    let db = &data.db;
    let inst = &data.instances[0];
    let li = inst.table("lineitem");
    let dist = QueryDistribution::new().with(
        1.0,
        QueryTemplate::single(
            li,
            vec![
                TemplateSelection { col: inst.col(db, "lineitem", "l_suppkey"), spec: SelSpec::Eq },
                TemplateSelection { col: inst.col(db, "lineitem", "l_quantity"), spec: SelSpec::Eq },
            ],
        ),
    );
    let mut rng = Prng::new(SEED);
    let workload = fixed(&dist, 400, db, &mut rng);

    println!("# Extension — on-line multi-column tuning");
    println!("  workload: 400 lineitem queries pairing l_suppkey = x AND l_quantity = y");
    println!();

    let cells = [
        Cell::new("no tuning", db, &workload, Policy::None),
        Cell::new(
            "COLT single-column",
            db,
            &workload,
            Policy::colt(ColtConfig { storage_budget_pages: 4_096, ..Default::default() }),
        ),
        Cell::new(
            "COLT composite",
            db,
            &workload,
            Policy::colt(ColtConfig {
                storage_budget_pages: 4_096,
                composite_budget_pages: 4_096,
                ..Default::default()
            }),
        ),
    ];
    let report = run_exhibit("Composite cells", &cells);
    let none = report.get("no tuning").expect("baseline cell");
    let plain = report.get("COLT single-column").expect("plain cell");
    let extended = report.get("COLT composite").expect("extended cell");

    println!("  no tuning:            {:>10}", fmt_ms(none.total_millis()));
    println!(
        "  COLT (paper, single-column): {:>3} — single-column indices never pay here",
        fmt_ms(plain.total_millis())
    );
    println!(
        "  COLT + composite extension:  {:>3}",
        fmt_ms(extended.total_millis())
    );
    println!();
    println!(
        "  extension speedup over paper-COLT: {:.1}x",
        plain.total_millis() / extended.total_millis()
    );
}
