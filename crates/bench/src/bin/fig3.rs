//! Figure 3 of the paper: on-line tuning for a **stable** workload.
//!
//! 500 queries from a fixed distribution with 18 relevant indices; the
//! budget fits 3–6 of them. The paper's findings this bench checks:
//!
//! * during the first ~100 queries COLT pays for monitoring and index
//!   creation;
//! * afterwards COLT's execution time is essentially equal to the ideal
//!   OFFLINE technique (the paper reports a ~1% deviation).
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an exhibit bin prints and aborts")]

use colt_bench::{build_data, dump_obs, fmt_ms, seed, threads};
use colt_core::ColtConfig;
use colt_harness::{
    bucket_rows, emit_breakdown, emit_parallel_summary, render_buckets, run_cells, Cell, Policy,
};
use colt_workload::presets;

fn main() {
    let data = build_data();
    let preset = presets::stable(&data, seed());
    println!(
        "# Figure 3 — Stable workload ({} queries, {} relevant indices, budget {} pages)",
        preset.queries.len(),
        preset.relevant.len(),
        preset.budget_pages
    );

    let cells = [
        Cell::new(
            "OFFLINE",
            &data.db,
            &preset.queries,
            Policy::Offline { budget_pages: preset.budget_pages },
        ),
        Cell::new(
            "COLT",
            &data.db,
            &preset.queries,
            Policy::colt(ColtConfig { storage_budget_pages: preset.budget_pages, ..Default::default() }),
        ),
    ];
    let report = run_cells(&cells, threads()).expect("run failed");
    emit_parallel_summary("Figure 3 cells", &report);
    let offline = report.get("OFFLINE").expect("offline cell");
    let colt = report.get("COLT").expect("colt cell");
    emit_breakdown("OFFLINE", offline);
    emit_breakdown("COLT", colt);
    dump_obs(&report);

    let rows = bucket_rows(colt, offline, 50);
    println!("{}", render_buckets("Execution time per 50-query bucket", &rows));

    // Convergence metrics (paper: ≤ ~1% deviation after query 100).
    let tail = 100..preset.queries.len();
    let colt_tail = colt.range_millis(tail.clone());
    let off_tail = offline.range_millis(tail);
    let deviation = (colt_tail / off_tail - 1.0) * 100.0;
    println!("## Convergence");
    println!(
        "  first 100 queries: COLT {} vs OFFLINE {} (start-up: monitoring + builds)",
        fmt_ms(colt.range_millis(0..100)),
        fmt_ms(offline.range_millis(0..100)),
    );
    println!(
        "  queries 100..{}: COLT {} vs OFFLINE {} → deviation {deviation:+.1}% (paper: ~1%)",
        preset.queries.len(),
        fmt_ms(colt_tail),
        fmt_ms(off_tail),
    );
    println!(
        "  OFFLINE selected {:?} ({} indices); COLT ended with {:?}",
        offline.offline.as_ref().map(|s| s.indices.len()),
        offline.final_indices.len(),
        colt.final_indices.len(),
    );
    println!("  index builds by COLT: {}", colt.trace.total_builds());
    match colt_harness::convergence_point(colt, offline, 20, 0.10) {
        Some(p) => println!(
            "  convergence: within 10% of OFFLINE from query ~{p} onward (paper: ~100)"
        ),
        None => println!("  convergence: not reached within the run"),
    }
    println!(
        "  mean what-if budget utilization: {:.1}%",
        100.0 * colt_harness::budget_utilization(colt, 20)
    );
    println!("## Summary (COLT)");
    println!("{}", colt.summary_json());
}
