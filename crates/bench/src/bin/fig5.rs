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

use colt_bench::{build_data, dump_obs, seed, threads};
use colt_core::ColtConfig;
use colt_harness::{emit_parallel_summary, render_whatif_series, run_cells, Cell, Policy};
use colt_workload::{phase_boundaries, presets};

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
    let report = run_cells(&cells, threads()).expect("run failed");
    emit_parallel_summary("Figure 5 cells", &report);
    dump_obs(&report);

    let colt = &report.cells[0].result;
    let series = colt.trace.whatif_per_epoch();
    println!("{}", render_whatif_series("#What-if calls per epoch", &series, max_budget));

    // Transition epochs (phase boundaries in epochs).
    let boundaries = phase_boundaries(4, 300, 50);
    let transition_epochs: Vec<usize> = boundaries.iter().map(|q| q / epoch_len).collect();
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
    let stable_mean = {
        let stable_epochs: Vec<u64> = series
            .iter()
            .enumerate()
            .filter(|(i, _)| transition_epochs.iter().all(|&te| (*i as i64 - te as i64).abs() > 8))
            .map(|(_, &v)| v)
            .collect();
        stable_epochs.iter().sum::<u64>() as f64 / stable_epochs.len().max(1) as f64
    };
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
        let s = cell.result.trace.whatif_per_epoch();
        let stable: Vec<u64> = s
            .iter()
            .enumerate()
            .filter(|(i, _)| transition_epochs.iter().all(|&te| (*i as i64 - te as i64).abs() > 8))
            .map(|(_, &v)| v)
            .collect();
        let m = stable.iter().sum::<u64>() as f64 / stable.len().max(1) as f64;
        println!(
            "  {:<16} total what-if {:>5}, mean stable epoch {m:.2}/{max_budget}",
            cell.label,
            cell.result.trace.total_whatif()
        );
    }
    println!("## Summary (primary seed)");
    println!("{}", colt.summary_json());
}
