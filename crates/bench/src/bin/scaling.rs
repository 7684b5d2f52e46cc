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

use colt_bench::{dump_obs, fmt_ms, seed, threads};
use colt_core::ColtConfig;
use colt_harness::{convergence_point, emit_parallel_summary, run_cells, Cell, Policy};
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
            let data = generate(scale, seed());
            let stable = presets::stable(&data, seed());
            let shifting = presets::shifting(&data, seed());
            (scale, data, stable, shifting)
        })
        .collect();
    let cells: Vec<Cell<'_>> = setups
        .iter()
        .flat_map(|(scale, data, stable, shifting)| {
            [(stable, "f3"), (shifting, "f4")].into_iter().flat_map(move |(preset, fig)| {
                [
                    Cell::new(
                        format!("OFFLINE {fig} scale={scale}"),
                        &data.db,
                        &preset.queries,
                        Policy::Offline { budget_pages: preset.budget_pages },
                    ),
                    Cell::new(
                        format!("COLT {fig} scale={scale}"),
                        &data.db,
                        &preset.queries,
                        Policy::colt(ColtConfig {
                            storage_budget_pages: preset.budget_pages,
                            ..Default::default()
                        }),
                    ),
                ]
            })
        })
        .collect();
    let report = run_cells(&cells, threads()).expect("run failed");
    emit_parallel_summary("Scaling cells", &report);
    dump_obs(&report);

    for (i, (scale, data, stable, _)) in setups.iter().enumerate() {
        let off3 = &report.cells[4 * i].result;
        let colt3 = &report.cells[4 * i + 1].result;
        let off4 = &report.cells[4 * i + 2].result;
        let colt4 = &report.cells[4 * i + 3].result;

        // Figure 3 metrics.
        let tail = 100..stable.queries.len();
        let dev = (colt3.range_millis(tail.clone()) / off3.range_millis(tail) - 1.0) * 100.0;
        let conv = convergence_point(colt3, off3, 20, 0.10)
            .map(|p| format!("q{p}"))
            .unwrap_or_else(|| "—".into());

        // Figure 4 metrics.
        let overall = (1.0 - colt4.total_millis() / off4.total_millis()) * 100.0;
        let best = [350..650, 700..1000, 1050..1350]
            .into_iter()
            .map(|s| (1.0 - colt4.range_millis(s.clone()) / off4.range_millis(s)) * 100.0)
            .fold(f64::NEG_INFINITY, f64::max);

        println!(
            "  {:<7} {:>10} | {:>11.1}% {:>12} | {:>11.1}% {:>11.1}%",
            scale,
            data.db.total_tuples(),
            dev,
            conv,
            overall,
            best,
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
