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
//! One COLT run at the exhibits' seed; `report`'s seed spread holds the
//! stable-epoch and around-transition means at every sweep seed, each
//! with its own data set. Everything printed to stdout derives from the
//! run's *result*, which is bit-identical at any thread count;
//! wall-clock goes to stderr.
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an exhibit bin prints and aborts")]

use colt_bench::{build_data, run_exhibit, MARGIN, SEED};
use colt_core::ColtConfig;
use colt_harness::metrics::stable_epoch_mean;
use colt_harness::{render_whatif_series, Cell, Policy};
use colt_workload::presets::{self, SHIFTING_PHASES};

fn main() {
    let data = build_data(SEED);
    let preset = presets::shifting(&data, SEED);
    let colt_cfg = ColtConfig { storage_budget_pages: preset.budget_pages, ..Default::default() };
    let epoch_len = colt_cfg.epoch_length;
    let max_budget = colt_cfg.max_whatif_per_epoch;

    println!("# Figure 5 — What-if calls per epoch (shifting workload)");
    let cells = [Cell::new("COLT", &data.db, &preset.queries, Policy::colt(colt_cfg))];
    let report = run_exhibit("Figure 5 cells", &cells);

    let colt = &report.cells[0].result;
    let series = colt.trace.whatif_per_epoch();
    println!("{}", render_whatif_series("#What-if calls per epoch", &series, max_budget));

    let transition_epochs = SHIFTING_PHASES.transition_epochs(epoch_len);
    println!("## Analysis");
    println!("  phase transitions begin at epochs {transition_epochs:?}");

    // Per transition: the mean over the 8 epochs from its start against
    // the 8 epochs ending 4 before it. These windows are this exhibit's
    // own and predate `MARGIN`: the run-level means below and the seed
    // spread split every epoch by its distance to the nearest transition
    // (`stable_epoch_mean`, `around_transition_mean`), which pools the
    // epochs on both sides of each transition. These lines keep their
    // windows so that their golden lines do not move.
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
        preset.queries.iter().flat_map(|q| q.tables.iter().copied()).collect();
    let attrs: usize = referenced.iter().map(|&t| data.db.table(t).schema.arity()).sum();
    println!(
        "  accurately profiled indices: {} of {} indexable attributes on referenced tables = {:.0}% (paper: ~11%)",
        colt.profiled_indices,
        attrs,
        100.0 * colt.profiled_indices as f64 / attrs as f64
    );
    println!("  total what-if calls: {} over {total_epochs} epochs", colt.trace.total_whatif());

    println!("## Summary (primary seed)");
    println!("{}", colt.summary_json());
}
