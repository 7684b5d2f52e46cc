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

use colt_bench::{build_data, colt_vs_offline, fmt_ms, run_exhibit, SEED};
use colt_harness::metrics::{budget_utilization, convergence, tail_deviation, STARTUP_QUERIES};
use colt_harness::{bucket_rows, emit_breakdown, render_buckets, Policy};
use colt_workload::presets;

fn main() {
    let data = build_data(SEED);
    let preset = presets::stable(&data, SEED);
    println!(
        "# Figure 3 — Stable workload ({} queries, {} relevant indices, budget {} pages)",
        preset.queries.len(),
        preset.relevant.len(),
        preset.budget_pages
    );

    let cells = colt_vs_offline("", &data.db, &preset.queries, preset.budget_pages);
    let report = run_exhibit("Figure 3 cells", &cells);
    let offline = report.get("OFFLINE").expect("offline cell");
    let colt = report.get("COLT").expect("colt cell");
    emit_breakdown("OFFLINE", offline);
    emit_breakdown("COLT", colt);

    let rows = bucket_rows(colt, offline, 50);
    println!("{}", render_buckets("Execution time per 50-query bucket", &rows));

    // Convergence metrics (paper: ≤ ~1% deviation after query 100).
    let (startup, tail) = (0..STARTUP_QUERIES, STARTUP_QUERIES..);
    println!("## Convergence");
    println!(
        "  first {STARTUP_QUERIES} queries: COLT {} vs OFFLINE {} (start-up: monitoring + builds)",
        fmt_ms(colt.range_millis(startup.clone())),
        fmt_ms(offline.range_millis(startup)),
    );
    println!(
        "  queries {STARTUP_QUERIES}..{}: COLT {} vs OFFLINE {} → deviation {:+.1}% (paper: ~1%)",
        preset.queries.len(),
        fmt_ms(colt.range_millis(tail.clone())),
        fmt_ms(offline.range_millis(tail)),
        tail_deviation(colt, offline),
    );
    println!(
        "  OFFLINE selected {:?} ({} indices); COLT ended with {:?}",
        offline.offline.as_ref().map(|s| s.indices.len()),
        offline.final_indices.len(),
        colt.final_indices.len(),
    );
    println!("  index builds by COLT: {}", colt.trace.total_builds());
    match convergence(colt, offline) {
        Some(p) => println!(
            "  convergence: within 10% of OFFLINE from query ~{p} onward (paper: ~100)"
        ),
        None => println!("  convergence: not reached within the run"),
    }
    if let Policy::Colt(cfg) = &colt.policy {
        println!(
            "  mean what-if budget utilization: {:.1}%",
            100.0 * budget_utilization(colt, cfg.max_whatif_per_epoch)
        );
    }
    println!("## Summary (COLT)");
    println!("{}", colt.summary_json());
}
