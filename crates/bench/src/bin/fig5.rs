//! Figure 5 of the paper: **overhead** — what-if calls per epoch over
//! the shifting workload of Figure 4.
//!
//! The paper's findings this bench checks:
//!
//! * the chart has four discernible peaks coinciding with the phase
//!   transitions;
//! * outside the peaks COLT uses less than half its budget (20 calls
//!   per 10-query epoch);
//! * only ~11% of the relevant indices are ever profiled accurately.
//!
//! The primary run is replicated across extra workload seeds to check
//! that the self-regulation shape is not a seed artifact; the replicas
//! run as parallel cells (`COLT_THREADS`). Everything printed to stdout
//! derives from run *results*, which are bit-identical at any thread
//! count; wall-clock and speedup go to stderr.
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an exhibit bin prints and aborts")]

use colt_bench::{build_data, run_exhibit, seed};
use colt_core::ColtConfig;
use colt_harness::metrics::stable_epoch_mean;
use colt_harness::{render_whatif_series, Cell, Policy};
use colt_workload::presets::{self, SHIFTING_PHASES};

/// An epoch is stable when it lies more than this many epochs from
/// every transition's.
const MARGIN: usize = 8;

/// Replicated workload seeds: the primary plus three more.
const REPLICAS: u64 = 4;

fn main() {
    let data = build_data();
    let presets: Vec<_> =
        (0..REPLICAS).map(|i| presets::shifting(&data, seed().wrapping_add(i))).collect();
    let colt_cfg =
        ColtConfig { storage_budget_pages: presets[0].budget_pages, ..Default::default() };
    let epoch_len = colt_cfg.epoch_length;
    let max_budget = colt_cfg.max_whatif_per_epoch;

    println!("# Figure 5 — What-if calls per epoch (shifting workload)");
    let cells: Vec<Cell<'_>> = presets
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Cell::new(
                format!("COLT seed={}", seed().wrapping_add(i as u64)),
                &data.db,
                &p.queries,
                Policy::colt(ColtConfig {
                    storage_budget_pages: p.budget_pages,
                    ..colt_cfg.clone()
                }),
            )
        })
        .collect();
    let report = run_exhibit("Figure 5 cells", &cells);

    let colt = &report.cells[0].result;
    let series = colt.trace.whatif_per_epoch();
    println!("{}", render_whatif_series("#What-if calls per epoch", &series, max_budget));

    let transition_epochs = SHIFTING_PHASES.transition_epochs(epoch_len);
    println!("## Analysis");
    println!("  phase transitions begin at epochs {transition_epochs:?}");

    // Peak detection: mean usage in windows around transitions vs in
    // stable mid-phase windows.
    let window = 8;
    let mean = |range: std::ops::Range<usize>| -> f64 {
        let vals: Vec<u64> =
            range.filter_map(|i| series.get(i).copied()).collect();
        if vals.is_empty() { 0.0 } else { vals.iter().sum::<u64>() as f64 / vals.len() as f64 }
    };
    for (i, &te) in transition_epochs.iter().enumerate() {
        let peak = mean(te..te + window);
        let stable = mean((te.saturating_sub(12))..te.saturating_sub(4));
        println!(
            "  transition {}: mean what-if around transition {peak:.1} vs preceding stable {stable:.1}",
            i + 1
        );
    }
    let total_epochs = series.len();
    let stable_mean = stable_epoch_mean(&series, &transition_epochs, MARGIN);
    println!(
        "  mean what-if per stable epoch: {stable_mean:.2} of budget {max_budget} (paper: < half budget)"
    );
    // The paper's denominator is the workload's relevant indices in the
    // broad sense: every indexable attribute of every referenced table.
    let referenced: std::collections::BTreeSet<_> =
        presets[0].queries.iter().flat_map(|q| q.tables.iter().copied()).collect();
    let attrs: usize = referenced.iter().map(|&t| data.db.table(t).schema.arity()).sum();
    println!(
        "  accurately profiled indices: {} of {} indexable attributes on referenced tables = {:.0}% (paper: ~11%)",
        colt.profiled_indices,
        attrs,
        100.0 * colt.profiled_indices as f64 / attrs as f64
    );
    println!("  total what-if calls: {} over {total_epochs} epochs", colt.trace.total_whatif());

    // Seed replicas: the self-regulation shape must hold for each.
    println!("## Seed replicas (stable-epoch budget use, paper: < half budget)");
    for cell in &report.cells {
        let m = stable_epoch_mean(&cell.result.trace.whatif_per_epoch(), &transition_epochs, MARGIN);
        println!(
            "  {:<16} total what-if {:>5}, mean stable epoch {m:.2}/{max_budget}",
            cell.label,
            cell.result.trace.total_whatif()
        );
    }
    println!("## Summary (primary seed)");
    println!("{}", colt.summary_json());
}
