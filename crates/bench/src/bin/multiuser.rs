//! Multi-user shifting workload (paper §6.2, closing remark of the
//! shifting-workload experiment: "we have observed similar benefits in
//! multi-user settings, where the shifting workload is generated by
//! multiple concurrent clients").
//!
//! Four clients each run their own copy of the shifting workload
//! (different seeds, same phase structure); the tuner sees the fair
//! random interleaving. COLT must still beat OFFLINE despite related
//! queries no longer arriving adjacently.
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an exhibit bin prints and aborts")]

use colt_bench::{build_data, colt_vs_offline, fmt_ms, run_exhibit, SEED};
use colt_harness::metrics::reduction_pct;
use colt_harness::{interleave, split_round_robin};
use colt_workload::presets;

fn main() {
    let data = build_data(SEED);
    println!("# Multi-user shifting workload (4 concurrent clients)");

    let clients = 4;
    // The shifting workload is generated collectively by the clients:
    // split the stream round-robin so each client holds a quarter of
    // every phase, then serialize through a fair random interleaving.
    // Locally, related queries no longer arrive adjacently; globally,
    // the phases still progress as in Figure 4.
    let preset = presets::shifting(&data, SEED);
    let budget = preset.budget_pages;
    let streams = split_round_robin(&preset.queries, clients);
    let merged = interleave(&streams, SEED);
    println!("  merged stream: {} queries from {clients} clients; budget {budget} pages", merged.len());

    let cells = colt_vs_offline("", &data.db, &merged, budget);
    let report = run_exhibit("Multi-user cells", &cells);
    let offline = report.get("OFFLINE").expect("offline cell");
    let colt = report.get("COLT").expect("colt cell");

    println!("  COLT    {:>12}", fmt_ms(colt.total_millis()));
    println!("  OFFLINE {:>12}", fmt_ms(offline.total_millis()));
    println!(
        "  reduction for COLT: {:+.1}% (paper: 'similar benefits' to the 33% single-user win)",
        reduction_pct(colt, offline, ..)
    );
    println!(
        "  builds {} · drops {} · what-if {}",
        colt.trace.total_builds(),
        colt.trace.total_drops(),
        colt.trace.total_whatif()
    );
}
