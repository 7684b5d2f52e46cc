//! Ablation study of COLT's design choices (DESIGN.md §7).
//!
//! Runs the shifting workload (the Figure 4 setting) under variants of
//! the tuner and reports total time, tuning overhead, and churn:
//!
//! * **full** — COLT as configured by default;
//! * **no self-regulation** — the what-if budget is always `#WI_max`,
//!   modelling the fixed-intensity on-line tuners the paper contrasts
//!   against (§1); isolates the value of re-budgeting;
//! * **no swap hysteresis** — `swap_margin = 0`: the knapsack re-solve
//!   replaces the materialized set whenever the estimates say so;
//!   isolates the cost of materialization churn;
//! * **eager forecast window** (h=4) and **sluggish window** (h=24) —
//!   sensitivity of adaptation speed and noise resilience to the
//!   memory depth.
//!
//! Every variant is an independent run cell (`ablation_cells`, which
//! `report`'s seed spread runs at every sweep seed too); the whole grid
//! fans across the parallel harness.
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an exhibit bin prints and aborts")]

use colt_bench::{ablation_cells, build_data, fmt_ms, run_exhibit, SEED};
use colt_harness::metrics::deviation_pct;
use colt_harness::{Cell, CellResult};
use colt_workload::{presets, Preset};

/// Print one table from its cells' results, OFFLINE first.
fn print_table(title: &str, preset: &Preset, cells: &[CellResult]) {
    println!("# Ablation — {title} ({} queries)", preset.queries.len());
    let offline = &cells[0].result;
    println!("  OFFLINE reference: {}", fmt_ms(offline.total_millis()));
    println!();
    println!(
        "  {:<20} {:>12} {:>10} {:>9} {:>7} {:>7}",
        "variant", "total", "vs OFFLINE", "#what-if", "builds", "drops"
    );
    for cell in &cells[1..] {
        let run = &cell.result;
        println!(
            "  {:<20} {:>12} {:>9.1}% {:>9} {:>7} {:>7}",
            cell.label,
            fmt_ms(run.total_millis()),
            deviation_pct(run, offline, ..),
            run.trace.total_whatif(),
            run.trace.total_builds(),
            run.trace.total_drops(),
        );
    }
    println!();
}

/// Both tables' cells run as one batch, so the `COLT_OBS_PATH` dump
/// holds both: the shifting table's records, then the stable table's.
fn main() {
    let data = build_data(SEED);
    let tables = [
        ("shifting workload", presets::shifting(&data, SEED)),
        ("stable workload", presets::stable(&data, SEED)),
    ];
    let cells: Vec<Cell<'_>> = tables.iter().flat_map(|(_, preset)| ablation_cells(&data.db, preset)).collect();
    let report = run_exhibit("Ablation cells", &cells);
    for ((title, preset), results) in tables.iter().zip(report.cells.chunks(cells.len() / tables.len())) {
        print_table(title, preset, results);
    }
    println!("  (lower total is better; 'no self-regulation' shows the extra");
    println!("   what-if calls the paper's mechanism avoids; 'no swap");
    println!("   hysteresis' shows materialization churn, which hurts most");
    println!("   on the stable workload)");
}
