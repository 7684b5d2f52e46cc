//! Flight-recorder report: exhibit-grade markdown from the tuner's
//! decision ledger and per-epoch time series.
//!
//! Runs the Figure 3 stable preset (OFFLINE + COLT cells) and renders:
//!
//! * the per-epoch decision timeline (what-if budget, knapsack solve,
//!   creates/drops, build cost);
//! * the "why each index exists" audit, joining every create/drop to
//!   the knapsack solve that produced it;
//! * the per-epoch access-path mix for both policy arms, showing the
//!   executor shifting from sequential scans to index access paths as
//!   the tuner materializes indices;
//! * the seed spread ([`SeedSweep`]): each paper headline at every seed
//!   of `SWEEP_SEEDS`, with how many seeds meet the paper. Its cells run
//!   in the same batch as the report's own two, so one `COLT_OBS_PATH`
//!   dump holds them all: seed after seed, then the report's cells.
//!
//! Under `COLT_OBS=off` nothing is recorded, so the bin stops (exit 2)
//! before any work instead of printing an empty report.
//!
//! Every value printed is deterministic (simulated cost units, page
//! counts, epochs — never the wall clock), so the output pastes into
//! EXPERIMENTS.md and diffs cleanly in CI at any thread count.
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an exhibit bin prints and aborts")]

use colt_bench::{build_data, colt_vs_offline, require_recording, run_exhibit, SeedSweep, SEED};
use colt_harness::{
    render_access_path_mix, render_decision_timeline, render_index_explanations,
    render_ledger_digest,
};
use colt_workload::presets;

fn main() {
    require_recording();
    let data = build_data(SEED);
    let preset = presets::stable(&data, SEED);
    println!(
        "# Flight recorder — stable workload ({} queries, {} relevant indices, budget {} pages)",
        preset.queries.len(),
        preset.relevant.len(),
        preset.budget_pages
    );

    // One batch, so one dump. Its merged ledger keeps the newest 65 536
    // decisions, so the report's own two cells go last and the dump
    // holds their records whole.
    let sweep = SeedSweep::build();
    let mut cells = sweep.cells();
    let swept = cells.len();
    cells.extend(colt_vs_offline("", &data.db, &preset.queries, preset.budget_pages));
    let report = run_exhibit("Report cells", &cells);
    let offline = report.get("OFFLINE").expect("offline cell");
    let colt = report.get("COLT").expect("colt cell");

    println!();
    print!("{}", render_decision_timeline(colt));
    println!();
    print!("{}", render_index_explanations(colt));
    println!();
    print!("{}", render_ledger_digest(&colt.obs));
    println!();
    print!("{}", render_access_path_mix("COLT", &colt.obs));
    println!();
    print!("{}", render_access_path_mix("OFFLINE", &offline.obs));
    println!();
    println!(
        "Ledger: {} decisions ({} evicted), {} time-series points ({} evicted).",
        colt.obs.ledger.len(),
        colt.obs.ledger.evicted(),
        colt.obs.series.len(),
        colt.obs.series.evicted(),
    );
    println!();
    print!("{}", sweep.render(&report.cells[..swept]));
}
