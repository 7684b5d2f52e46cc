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
//!   the tuner materializes indices.
//!
//! Every value printed is deterministic (simulated cost units, page
//! counts, epochs — never the wall clock), so the output pastes into
//! EXPERIMENTS.md and diffs cleanly in CI at any thread count.

use colt_bench::{build_data, dump_obs, seed, threads};
use colt_core::ColtConfig;
use colt_harness::{
    render_access_path_mix, render_decision_timeline, render_index_explanations,
    render_ledger_digest, run_cells, Cell, Policy,
};
use colt_workload::presets;

fn main() {
    let data = build_data();
    let preset = presets::stable(&data, seed());
    println!(
        "# Flight recorder — stable workload ({} queries, {} relevant indices, budget {} pages)",
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
        "Ledger: {} decisions ({} evicted), {} time-series points ({} evicted), \
         what-if memo {} entries evicted.",
        colt.obs.ledger.len(),
        colt.obs.ledger.evicted(),
        colt.obs.series.len(),
        colt.obs.series.evicted(),
        colt.obs.counter("engine.whatif.memo_evictions"),
    );
    dump_obs(&report);
}
