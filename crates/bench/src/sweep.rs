//! The seed spread: the paper's headlines at every seed of
//! [`SWEEP_SEEDS`], each seed with its own data set and streams.
//!
//! The paper states each finding as a shape that should hold on any
//! instance, so one seed's exhibit cannot confirm it. [`SeedSweep`] builds
//! each seed's data and the cells of the headline exhibits (Figures 3–6
//! and the ablation, plus Figure 4's phase oracle); the caller runs them
//! in its own batch, so the bin still writes one `COLT_OBS_PATH` dump,
//! and [`SeedSweep::render`] prints one markdown row per headline: every
//! seed's value, the lower median, the range, and how many seeds meet
//! the paper under [`CRITERIA`]. Every headline is the same
//! `colt_harness::metrics` function its exhibit bin prints.

use crate::{ablation_cells, build_data, burst_cells, burst_ratios, bursts, Burst, MARGIN, SWEEP_SEEDS};
use colt_core::ColtConfig;
use colt_harness::metrics::{
    around_transition_mean, best_phase_reduction, convergence, deviation_pct, reduction_pct,
    stable_epoch_mean, tail_deviation, worst_burst,
};
use colt_harness::{parallel_map, Cell, CellResult, Policy, RunResult};
use colt_workload::presets::{self, SHIFTING_PHASES};
use colt_workload::{Preset, TpchData};

/// One seed's data and the streams its cells borrow.
struct World {
    seed: u64,
    data: TpchData,
    stable: Preset,
    shifting: Preset,
    bursts: Vec<Burst>,
}

/// The seed spread's worlds, one per seed of [`SWEEP_SEEDS`].
pub struct SeedSweep {
    worlds: Vec<World>,
}

/// A world's cells, in order: the stable ablation table (OFFLINE, then
/// its five variants, `full` being Figure 3's COLT), the shifting one
/// (Figures 4 and 5), one phase oracle per pure span, and Figure 6's
/// burst pairs.
const STABLE: usize = 0;
const SHIFTING: usize = 6;
const ORACLE: usize = 12;
const BURST: usize = ORACLE + SHIFTING_PHASES.count;

/// Offsets into an ablation table's cells ([`ablation_cells`]).
const FULL: usize = 1;
const NO_SELF_REGULATION: usize = 2;
const NO_SWAP_MARGIN: usize = 3;
const WINDOW_H4: usize = 4;

/// One seed's headlines. A convergence that never happens is infinite,
/// so it sorts after every query number.
struct Headlines {
    tail: f64,
    whole: f64,
    convergence: f64,
    builds: f64,
    colt_indices: f64,
    offline_indices: f64,
    overall: f64,
    phases: Vec<f64>,
    best_phase: f64,
    oracle_pure: f64,
    colt_pure: f64,
    oracle_phases: Vec<f64>,
    stable_mean: f64,
    around_mean: f64,
    worst_ratio: f64,
    worst_burst: f64,
    /// What-if calls, `[stable, shifting]` × `[full, no self-regulation]`.
    whatif: [[f64; 2]; 2],
    /// Deviation from OFFLINE in percent, `[stable, shifting]` ×
    /// `[full, swap_margin 0, h 4]`.
    vs_offline: [[f64; 3]; 2],
}

/// How a headline's value prints.
#[derive(Clone, Copy)]
enum Unit {
    Pct,
    Count,
    Query,
    Calls,
    Ratio,
}

impl Unit {
    fn show(self, v: f64) -> String {
        match self {
            Unit::Pct => format!("{v:+.1} %"),
            Unit::Count => format!("{v}"),
            Unit::Query if v.is_infinite() => "never".to_string(),
            Unit::Query => format!("~{v}"),
            Unit::Calls => format!("{v:.2}"),
            Unit::Ratio => format!("{v:.3}"),
        }
    }
}

/// One printed row: a headline, its unit, and where a seed's value is.
struct Row {
    label: &'static str,
    unit: Unit,
    value: fn(&Headlines) -> f64,
}

const TAIL: &str = "Fig 3 tail deviation vs OFFLINE, queries 100–500";
const CONVERGENCE: &str =
    "Fig 3 convergence: query after the last 20-query window over +10 % (one late build resets it)";
const OVERALL: &str = "Fig 4 overall reduction vs OFFLINE";
const BEST_PHASE: &str = "Fig 4 best of phases 2–4";
const STABLE_MEAN: &str = "Fig 5 what-if calls per stable epoch (of 20)";
const AROUND_MEAN: &str = "Fig 5 what-if calls per epoch within 8 of a transition";
const WORST_BURST: &str = "Fig 6 burst of the worst ratio";
const CALLS_SHIFTING: &str = "Ablation what-if calls on shifting, full";
const CALLS_STABLE: &str = "Ablation what-if calls on stable, full";

const ROWS: [Row; 33] = [
    Row { label: TAIL, unit: Unit::Pct, value: |h| h.tail },
    Row { label: "Fig 3 whole run vs OFFLINE", unit: Unit::Pct, value: |h| h.whole },
    Row { label: CONVERGENCE, unit: Unit::Query, value: |h| h.convergence },
    Row { label: "Fig 3 index builds by COLT", unit: Unit::Count, value: |h| h.builds },
    Row { label: "Fig 3 final indices, COLT", unit: Unit::Count, value: |h| h.colt_indices },
    Row { label: "Fig 3 final indices, OFFLINE", unit: Unit::Count, value: |h| h.offline_indices },
    Row { label: OVERALL, unit: Unit::Pct, value: |h| h.overall },
    Row { label: "Fig 4 phase 1 reduction", unit: Unit::Pct, value: |h| h.phases[0] },
    Row { label: "Fig 4 phase 2 reduction", unit: Unit::Pct, value: |h| h.phases[1] },
    Row { label: "Fig 4 phase 3 reduction", unit: Unit::Pct, value: |h| h.phases[2] },
    Row { label: "Fig 4 phase 4 reduction", unit: Unit::Pct, value: |h| h.phases[3] },
    Row { label: BEST_PHASE, unit: Unit::Pct, value: |h| h.best_phase },
    Row { label: "Headroom: phase oracle (pays no build) over the pure spans", unit: Unit::Pct, value: |h| h.oracle_pure },
    Row { label: "Headroom: COLT over the pure spans", unit: Unit::Pct, value: |h| h.colt_pure },
    Row { label: "Headroom: COLT's share of the oracle's", unit: Unit::Ratio, value: |h| h.colt_pure / h.oracle_pure },
    Row { label: "Headroom: phase oracle (pays no build), phase 1", unit: Unit::Pct, value: |h| h.oracle_phases[0] },
    Row { label: "Headroom: phase oracle (pays no build), phase 2", unit: Unit::Pct, value: |h| h.oracle_phases[1] },
    Row { label: "Headroom: phase oracle (pays no build), phase 3", unit: Unit::Pct, value: |h| h.oracle_phases[2] },
    Row { label: "Headroom: phase oracle (pays no build), phase 4", unit: Unit::Pct, value: |h| h.oracle_phases[3] },
    Row { label: STABLE_MEAN, unit: Unit::Calls, value: |h| h.stable_mean },
    Row { label: AROUND_MEAN, unit: Unit::Calls, value: |h| h.around_mean },
    Row { label: "Fig 6 worst ratio COLT/OFFLINE", unit: Unit::Ratio, value: |h| h.worst_ratio },
    Row { label: WORST_BURST, unit: Unit::Count, value: |h| h.worst_burst },
    Row { label: CALLS_SHIFTING, unit: Unit::Count, value: |h| h.whatif[1][0] },
    Row { label: "Ablation what-if calls on shifting, no self-regulation", unit: Unit::Count, value: |h| h.whatif[1][1] },
    Row { label: CALLS_STABLE, unit: Unit::Count, value: |h| h.whatif[0][0] },
    Row { label: "Ablation what-if calls on stable, no self-regulation", unit: Unit::Count, value: |h| h.whatif[0][1] },
    Row { label: "Ablation shifting vs OFFLINE, full (swap_margin 0.5, h 12)", unit: Unit::Pct, value: |h| h.vs_offline[1][0] },
    Row { label: "Ablation shifting vs OFFLINE, swap_margin 0", unit: Unit::Pct, value: |h| h.vs_offline[1][1] },
    Row { label: "Ablation shifting vs OFFLINE, h 4", unit: Unit::Pct, value: |h| h.vs_offline[1][2] },
    Row { label: "Ablation stable vs OFFLINE, full (swap_margin 0.5, h 12)", unit: Unit::Pct, value: |h| h.vs_offline[0][0] },
    Row { label: "Ablation stable vs OFFLINE, swap_margin 0", unit: Unit::Pct, value: |h| h.vs_offline[0][1] },
    Row { label: "Ablation stable vs OFFLINE, h 4", unit: Unit::Pct, value: |h| h.vs_offline[0][2] },
];

/// When a seed meets the paper: a headline's row, the paper's finding
/// in its words, and the rule that judges a seed. Fixed before the
/// sweep first ran; a percentage headline's bar is 0.9 × the paper's
/// number. The other rows print `—`: the paper gives them no number.
struct Criterion {
    row: &'static str,
    paper: &'static str,
    rule: &'static str,
    holds: fn(&Headlines) -> bool,
}

const CRITERIA: [Criterion; 9] = [
    Criterion { row: TAIL, rule: "≤ +1.0 %", holds: |h| h.tail <= 1.0,
        paper: "after the start-up, COLT's execution time is essentially OFFLINE's (≈ 1 % deviation)" },
    Criterion { row: CONVERGENCE, rule: "≤ query 100", holds: |h| h.convergence <= 100.0,
        paper: "COLT pays for monitoring and index builds during the first ~100 queries" },
    Criterion { row: OVERALL, rule: "≥ +29.7 %", holds: |h| h.overall >= 29.7,
        paper: "over the whole shifting workload COLT is ≈ 33 % faster" },
    Criterion { row: BEST_PHASE, rule: "≥ +44.1 %", holds: |h| h.best_phase >= 44.1,
        paper: "in phase 2 COLT is ≈ 49 % faster" },
    Criterion { row: STABLE_MEAN, rule: "< 10", holds: |h| h.stable_mean < 10.0,
        paper: "outside the peaks COLT uses less than half its what-if budget" },
    Criterion { row: AROUND_MEAN, rule: "≥ 2 × the stable-epoch mean", holds: |h| h.around_mean >= 2.0 * h.stable_mean,
        paper: "the calls per epoch peak at the phase transitions" },
    Criterion { row: WORST_BURST, rule: "in 30–60", holds: |h| (30.0..=60.0).contains(&h.worst_burst),
        paper: "a worst-case band at bursts of 30–60 queries" },
    Criterion { row: CALLS_SHIFTING, rule: "< no self-regulation", holds: |h| h.whatif[1][0] < h.whatif[1][1],
        paper: "self-regulation spends fewer what-if calls than a fixed-intensity tuner" },
    Criterion { row: CALLS_STABLE, rule: "< no self-regulation", holds: |h| h.whatif[0][0] < h.whatif[0][1],
        paper: "self-regulation spends fewer what-if calls than a fixed-intensity tuner" },
];

impl SeedSweep {
    /// Generate every seed's data set at `COLT_SCALE` and its streams,
    /// the seeds spread over `COLT_THREADS` workers (each world depends
    /// on its seed alone, so on no thread count).
    pub fn build() -> Self {
        let world = |seed| {
            let data = build_data(seed);
            let stable = presets::stable(&data, seed);
            let shifting = presets::shifting(&data, seed);
            let bursts = bursts(&data, seed);
            World { seed, data, stable, shifting, bursts }
        };
        SeedSweep { worlds: parallel_map(&SWEEP_SEEDS, crate::env().threads, |_, &seed| world(seed)) }
    }

    /// Every world's cells, world after world, labelled by seed.
    pub fn cells(&self) -> Vec<Cell<'_>> {
        self.worlds.iter().flat_map(World::cells).collect()
    }

    /// The section, from the results of [`SeedSweep::cells`] in order.
    pub fn render(&self, results: &[CellResult]) -> String {
        let per_world = results.len() / self.worlds.len().max(1);
        let seeds: Vec<Headlines> =
            self.worlds.iter().zip(results.chunks(per_world)).map(|(w, r)| w.headlines(r)).collect();
        let n = seeds.len();
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("## Seed spread ({n} seeds, each its own data set and streams)"));
        line(String::new());
        line("Per headline: each seed's value, the lower median (`never` sorts last), the range, and \
            how many seeds meet the paper (`—`: the paper gives no number). The phase oracle is OFFLINE \
            tuned on each pure phase alone and timed over it; like OFFLINE it pays no build, so it \
            bounds what any on-line tuner can gain. COLT's own per-phase gains are Fig 4's rows."
            .to_string());
        line(String::new());
        let header: Vec<String> = self.worlds.iter().map(|w| w.seed.to_string()).collect();
        line(format!("| headline | {} | median | range | meets the paper |", header.join(" | ")));
        line(format!("|---|{}---:|---|---|", "---:|".repeat(n)));
        for row in &ROWS {
            let values: Vec<f64> = seeds.iter().map(row.value).collect();
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            let show = |v: f64| row.unit.show(v);
            let cells: Vec<String> = values.iter().map(|&v| show(v)).collect();
            let (median, range) = (show(sorted[(n - 1) / 2]), format!("{} – {}", show(sorted[0]), show(sorted[n - 1])));
            let meets = CRITERIA.iter().find(|c| c.row == row.label).map_or("—".to_string(), |c| {
                format!("{} of {n} ({})", seeds.iter().filter(|h| (c.holds)(h)).count(), c.rule)
            });
            line(format!("| {} | {} | {median} | {range} | {meets} |", row.label, cells.join(" | ")));
        }
        line(String::new());
        line("What meets the paper, fixed before the first sweep ran:".to_string());
        line(String::new());
        for c in &CRITERIA {
            line(format!("- {}: {}. The paper: {}.", c.row, c.rule, c.paper));
        }
        out
    }
}

impl World {
    fn cells(&self) -> Vec<Cell<'_>> {
        let db = &self.data.db;
        let shifting = &self.shifting;
        let oracle = SHIFTING_PHASES.pure_spans().into_iter().enumerate().map(|(k, span)| {
            let policy = Policy::Offline { budget_pages: shifting.budget_pages };
            let cell = Cell::new(format!("phase {} oracle", k + 1), db, &shifting.queries, policy);
            cell.analyzed(&shifting.queries[span])
        });
        let mut cells = ablation_cells(db, &self.stable);
        cells.extend(ablation_cells(db, shifting));
        cells.extend(oracle);
        cells.extend(burst_cells("", db, &self.bursts));
        for cell in &mut cells {
            cell.label = format!("seed={} {}", self.seed, cell.label);
        }
        cells
    }

    fn headlines(&self, r: &[CellResult]) -> Headlines {
        let run = |i: usize| -> &RunResult { &r[i].result };
        let (offline, colt) = (run(STABLE), run(STABLE + FULL));
        let (shift_offline, shift_colt) = (run(SHIFTING), run(SHIFTING + FULL));
        let spans = SHIFTING_PHASES.pure_spans();
        // A gain over the four pure spans together is the OFFLINE-time
        // weighted mean of the per-span gains.
        let weights: Vec<f64> = spans.iter().map(|s| shift_offline.range_millis(s.clone())).collect();
        let pure = |gains: &[f64]| {
            gains.iter().zip(&weights).map(|(g, w)| g * w).sum::<f64>() / weights.iter().sum::<f64>()
        };
        let phases: Vec<f64> = spans.iter().map(|s| reduction_pct(shift_colt, shift_offline, s.clone())).collect();
        let oracle_phases: Vec<f64> = (spans.iter().enumerate())
            .map(|(k, s)| reduction_pct(run(ORACLE + k), shift_offline, s.clone()))
            .collect();
        let series = shift_colt.trace.whatif_per_epoch();
        let transitions = SHIFTING_PHASES.transition_epochs(ColtConfig::default().epoch_length);
        let ratios = burst_ratios(&self.bursts, &r[BURST..]);
        let (worst_burst, worst_ratio) = worst_burst(&ratios).unwrap_or((0, f64::NAN));
        let calls = |table: usize| {
            [FULL, NO_SELF_REGULATION].map(|v| run(table + v).trace.total_whatif() as f64)
        };
        let vs_offline =
            |table: usize| [FULL, NO_SWAP_MARGIN, WINDOW_H4].map(|v| deviation_pct(run(table + v), run(table), ..));
        Headlines {
            tail: tail_deviation(colt, offline),
            whole: deviation_pct(colt, offline, ..),
            convergence: convergence(colt, offline).map_or(f64::INFINITY, |q| q as f64),
            builds: colt.trace.total_builds() as f64,
            colt_indices: colt.final_indices.len() as f64,
            offline_indices: offline.final_indices.len() as f64,
            overall: reduction_pct(shift_colt, shift_offline, ..),
            colt_pure: pure(&phases),
            oracle_pure: pure(&oracle_phases),
            phases,
            oracle_phases,
            best_phase: best_phase_reduction(shift_colt, shift_offline),
            stable_mean: stable_epoch_mean(&series, &transitions, MARGIN),
            around_mean: around_transition_mean(&series, &transitions, MARGIN),
            worst_ratio,
            worst_burst: worst_burst as f64,
            whatif: [calls(STABLE), calls(SHIFTING)],
            vs_offline: [vs_offline(STABLE), vs_offline(SHIFTING)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Unit, CRITERIA, ROWS};

    #[test]
    fn every_criterion_judges_one_row() {
        for c in &CRITERIA {
            assert_eq!(ROWS.iter().filter(|r| r.label == c.row).count(), 1, "{}", c.row);
        }
    }

    #[test]
    fn never_prints_and_sorts_last() {
        assert_eq!(Unit::Query.show(f64::INFINITY), "never");
        assert_eq!(Unit::Query.show(63.0), "~63");
        assert_eq!(Unit::Pct.show(3.456), "+3.5 %");
        let mut v = [f64::INFINITY, 84.0, 63.0];
        v.sort_by(f64::total_cmp);
        assert_eq!(v, [63.0, 84.0, f64::INFINITY]);
    }
}
