//! Scale-invariance study (extension): the paper's headline shapes must
//! hold across data-set scales, since COLT's decisions depend only on
//! relative table sizes and selectivities (DESIGN.md §2's substitution
//! argument). Runs the stable and shifting experiments at three scales
//! and reports the headline metrics side by side.
//!
//! The grid is 3 scales × (stable, shifting) × (OFFLINE, COLT) = 12 run
//! cells, all independent: each borrows its own scale's database and
//! fans across the parallel harness.
#![allow(clippy::expect_used, clippy::print_stdout, reason = "an exhibit bin prints and aborts")]

use colt_bench::{colt_vs_offline, fmt_ms, run_exhibit, SEED};
use colt_harness::metrics::{best_phase_reduction, convergence, reduction_pct, tail_deviation};
use colt_workload::{generate, presets};

const SCALES: [f64; 3] = [0.01, 0.025, 0.05];

fn main() {
    println!("# Scale invariance of the headline results");
    println!();
    println!(
        "  {:<7} {:>10} | {:>12} {:>12} | {:>12} {:>12}",
        "scale", "tuples", "f3 tail dev", "f3 converge", "f4 overall", "f4 phase-best"
    );

    // Build all data sets and presets first so the cells can borrow them.
    let setups: Vec<_> = SCALES
        .iter()
        .map(|&scale| {
            let data = generate(scale, SEED);
            let stable = presets::stable(&data, SEED);
            let shifting = presets::shifting(&data, SEED);
            (scale, data, stable, shifting)
        })
        .collect();
    let cells: Vec<_> = setups
        .iter()
        .flat_map(|(scale, data, stable, shifting)| {
            [(stable, "f3"), (shifting, "f4")].into_iter().flat_map(move |(preset, fig)| {
                let suffix = format!(" {fig} scale={scale}");
                colt_vs_offline(&suffix, &data.db, &preset.queries, preset.budget_pages)
            })
        })
        .collect();
    let report = run_exhibit("Scaling cells", &cells);

    for (i, (scale, data, _, _)) in setups.iter().enumerate() {
        let off3 = &report.cells[4 * i].result;
        let colt3 = &report.cells[4 * i + 1].result;
        let off4 = &report.cells[4 * i + 2].result;
        let colt4 = &report.cells[4 * i + 3].result;
        let conv = convergence(colt3, off3).map(|p| format!("q{p}")).unwrap_or_else(|| "—".into());
        println!(
            "  {:<7} {:>10} | {:>11.1}% {:>12} | {:>11.1}% {:>11.1}%",
            scale,
            data.db.total_tuples(),
            tail_deviation(colt3, off3),
            conv,
            reduction_pct(colt4, off4, ..),
            best_phase_reduction(colt4, off4),
        );
        colt_obs::progress(
            colt_obs::Event::new("scale_point")
                .field("scale", *scale)
                .field("stable_colt", fmt_ms(colt3.total_millis()))
                .field("stable_offline", fmt_ms(off3.total_millis()))
                .field("shifting_colt", fmt_ms(colt4.total_millis()))
                .field("shifting_offline", fmt_ms(off4.total_millis())),
        );
    }
    println!();
    println!("  (f3 tail dev = COLT-vs-OFFLINE deviation after query 100 on the");
    println!("   stable workload, paper ≈1%; f4 overall = COLT's reduction on the");
    println!("   shifting workload, paper ≈33%. The shapes — convergence on");
    println!("   stable, a clear win on shifting — must hold at every scale.)");
}
