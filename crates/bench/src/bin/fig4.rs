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

use colt_bench::{build_data, dump_obs, fmt_ms, seed, threads};
use colt_core::ColtConfig;
use colt_harness::{
    bucket_rows, emit_parallel_summary, render_buckets, run_cells, Cell, Policy,
};
use colt_workload::presets;

fn main() {
    let data = build_data();
    let preset = presets::shifting(&data, seed());
    println!(
        "# Figure 4 — Shifting workload ({} queries, 4 phases, {} relevant indices, budget {} pages)",
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
    emit_parallel_summary("Figure 4 cells", &report);
    dump_obs(&report);
    let offline = report.get("OFFLINE").expect("offline cell");
    let colt = report.get("COLT").expect("colt cell");

    let rows = bucket_rows(colt, offline, 50);
    println!("{}", render_buckets("Execution time per 50-query bucket", &rows));

    println!("## Phase breakdown (paper: phase 2 ≈ 49% shorter, overall ≈ 33% shorter)");
    let spans = [
        ("phase 1 (0..300)", 0..300),
        ("phase 2 (350..650)", 350..650),
        ("phase 3 (700..1000)", 700..1000),
        ("phase 4 (1050..1350)", 1050..1350),
        ("overall (0..1350)", 0..preset.queries.len()),
    ];
    for (label, span) in spans {
        let c = colt.range_millis(span.clone());
        let o = offline.range_millis(span);
        let red = (1.0 - c / o) * 100.0;
        println!(
            "  {label:<22} COLT {:>12} OFFLINE {:>12}  reduction {red:+.1}%",
            fmt_ms(c),
            fmt_ms(o)
        );
    }
    println!(
        "  COLT built {} indices and dropped {} over the run",
        colt.trace.total_builds(),
        colt.trace.epochs.iter().map(|e| e.dropped.len()).sum::<usize>(),
    );
    println!("## Adaptation (paper: \"adapts rapidly to shifts\")");
    let bounds = colt_workload::phase_boundaries(4, 300, 50);
    for (i, &shift) in bounds.iter().enumerate() {
        let until = bounds.get(i + 1).copied().unwrap_or(preset.queries.len());
        match colt_harness::adaptation_latency(colt, shift, until, 20, 0.15) {
            Some(lat) => println!(
                "  after transition {} (query {shift}): settled within ~{lat} queries",
                i + 1
            ),
            None => println!("  after transition {} (query {shift}): did not settle", i + 1),
        }
    }
}
