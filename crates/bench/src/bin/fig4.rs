//! Figure 4 of the paper: on-line tuning for a **shifting** workload.
//!
//! Four 300-query phases over different query distributions with
//! 50-query gradual transitions (1350 queries). OFFLINE tunes once for
//! the whole workload; COLT re-tunes per phase. The paper's findings:
//!
//! * COLT outperforms OFFLINE for the majority of the stream;
//! * in phase 2 (queries 350–650) COLT is ~49% faster;
//! * over the whole workload COLT is ~33% faster.
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an exhibit bin prints and aborts")]

use colt_bench::{build_data, colt_vs_offline, fmt_ms, run_exhibit, SEED};
use colt_harness::metrics::reduction_pct;
use colt_harness::{adaptation_latency, bucket_rows, render_buckets};
use colt_workload::presets::{self, SHIFTING_PHASES};

fn main() {
    let data = build_data(SEED);
    let preset = presets::shifting(&data, SEED);
    println!(
        "# Figure 4 — Shifting workload ({} queries, {} phases, {} relevant indices, budget {} pages)",
        preset.queries.len(),
        SHIFTING_PHASES.count,
        preset.relevant.len(),
        preset.budget_pages
    );

    let cells = colt_vs_offline("", &data.db, &preset.queries, preset.budget_pages);
    let report = run_exhibit("Figure 4 cells", &cells);
    let offline = report.get("OFFLINE").expect("offline cell");
    let colt = report.get("COLT").expect("colt cell");

    let rows = bucket_rows(colt, offline, 50);
    println!("{}", render_buckets("Execution time per 50-query bucket", &rows));

    println!("## Phase breakdown (paper: phase 2 ≈ 49% shorter, overall ≈ 33% shorter)");
    let phases = SHIFTING_PHASES.pure_spans().into_iter().enumerate();
    let spans = phases.map(|(i, span)| (format!("phase {}", i + 1), span));
    for (name, span) in spans.chain([("overall".to_string(), 0..preset.queries.len())]) {
        let label = format!("{name} ({}..{})", span.start, span.end);
        println!(
            "  {label:<22} COLT {:>12} OFFLINE {:>12}  reduction {:+.1}%",
            fmt_ms(colt.range_millis(span.clone())),
            fmt_ms(offline.range_millis(span.clone())),
            reduction_pct(colt, offline, span),
        );
    }
    println!(
        "  COLT built {} indices and dropped {} over the run",
        colt.trace.total_builds(),
        colt.trace.total_drops(),
    );
    println!("## Adaptation (paper: \"adapts rapidly to shifts\")");
    let starts = SHIFTING_PHASES.transition_starts();
    for (i, &shift) in starts.iter().enumerate() {
        let until = starts.get(i + 1).copied().unwrap_or(preset.queries.len());
        match adaptation_latency(colt, shift, until, 20, 0.15) {
            Some(lat) => println!(
                "  after transition {} (query {shift}): settled within ~{lat} queries",
                i + 1
            ),
            None => println!("  after transition {} (query {shift}): did not settle", i + 1),
        }
    }
}
