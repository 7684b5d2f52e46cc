//! Figure 6 of the paper: COLT under a **noisy** workload.
//!
//! A fixed distribution `Q1` with bursts of queries from a disjoint
//! distribution `Q2` (20% of the workload). OFFLINE is tuned solely on
//! `Q1` (it ignores noise); the metric is the ratio of COLT's execution
//! time to OFFLINE's, excluding the first 100 queries. The paper's
//! findings:
//!
//! * short bursts (≤ ~20 queries) are ignored → ratio ≈ 1;
//! * long bursts (≥ ~70) get their indices materialized early enough to
//!   pay off → ratio ≈ 1;
//! * a worst-case band at 30–60 queries (≈ the forecast window) where
//!   COLT materializes indices that stop being useful → average ~18%
//!   loss.
//!
//! Each burst duration contributes two independent run cells (OFFLINE
//! and COLT), all fanned across the parallel harness.
#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    clippy::unwrap_used,
    reason = "an exhibit bin prints and aborts"
)]

use colt_bench::{build_data, colt_vs_offline, run_exhibit, seed};
use colt_harness::metrics::{time_ratio, worst_burst};
use colt_workload::presets;

const BURSTS: [usize; 12] = [20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 140];

fn main() {
    let data = build_data();
    println!("# Figure 6 — Performance ratio COLT/OFFLINE vs noise-burst duration");
    println!();
    println!("  burst  total  bursts  ratio   bar (1.0 = parity)");

    let setups: Vec<_> = BURSTS
        .iter()
        .map(|&burst| {
            let (preset, plan) = presets::noisy(&data, burst, seed());
            // OFFLINE tunes on Q1 alone, then runs the full noisy stream.
            let q1_only: Vec<_> = preset
                .queries
                .iter()
                .enumerate()
                .filter(|(i, _)| !plan.is_noise(*i))
                .map(|(_, q)| q.clone())
                .collect();
            (burst, preset, plan, q1_only)
        })
        .collect();
    let cells: Vec<_> = setups
        .iter()
        .flat_map(|(burst, preset, _, q1_only)| {
            let suffix = format!(" burst={burst}");
            let [offline, colt] = colt_vs_offline(&suffix, &data.db, &preset.queries, preset.budget_pages);
            [offline.analyzed(q1_only), colt]
        })
        .collect();
    let report = run_exhibit("Figure 6 cells", &cells);

    let mut ratios = Vec::new();
    for (i, (burst, _, plan, _)) in setups.iter().enumerate() {
        let offline = &report.cells[2 * i].result;
        let colt = &report.cells[2 * i + 1].result;
        let ratio = time_ratio(colt, offline, plan.warmup);
        ratios.push((*burst, ratio));
        let bar_len = (ratio * 40.0).round() as usize;
        println!(
            "  {burst:>5}  {:>5}  {:>6}  {ratio:>5.3}  {}|",
            plan.total,
            plan.burst_starts.len(),
            "=".repeat(bar_len),
        );
    }

    println!();
    println!("## Analysis (paper: ≈1 at short and long bursts, dip of ~18% at 30–60)");
    let at = |b: usize| ratios.iter().find(|(x, _)| *x == b).unwrap().1;
    let short = (at(20) + at(30) + at(40)) / 3.0;
    let long = (at(120) + at(140)) / 2.0;
    let (dip_at, dip) = worst_burst(&ratios).unwrap();
    println!("  mean ratio at short bursts (20–40):  {short:.3}");
    println!("  worst ratio:                         {dip:.3} at burst {dip_at}");
    println!("  mean ratio at long bursts (120–140): {long:.3}");
    println!();
    println!("  The dip sits where the burst length is comparable to the");
    println!("  forecast window (h·w = 120 queries), the mechanism the paper");
    println!("  describes; our stabilized (window-averaged) forecast shifts it");
    println!("  toward the right edge of the paper's 30–60 band.");
}
