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
//! Each burst duration of `BURSTS` contributes two independent run
//! cells (OFFLINE and COLT, `burst_cells`), all fanned across the
//! parallel harness; `report`'s seed spread runs the same grid at every
//! sweep seed.
#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    clippy::unwrap_used,
    reason = "an exhibit bin prints and aborts"
)]

use colt_bench::{build_data, burst_cells, burst_ratios, bursts, run_exhibit, SEED};
use colt_harness::metrics::worst_burst;

fn main() {
    let data = build_data(SEED);
    println!("# Figure 6 — Performance ratio COLT/OFFLINE vs noise-burst duration");
    println!();
    println!("  burst  total  bursts  ratio   bar (1.0 = parity)");

    let bursts = bursts(&data, SEED);
    let report = run_exhibit("Figure 6 cells", &burst_cells("", &data.db, &bursts));
    let ratios = burst_ratios(&bursts, &report.cells);
    for (b, &(burst, ratio)) in bursts.iter().zip(&ratios) {
        let bar_len = (ratio * 40.0).round() as usize;
        println!(
            "  {burst:>5}  {:>5}  {:>6}  {ratio:>5.3}  {}|",
            b.plan.total,
            b.plan.burst_starts.len(),
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
