//! Convergence and adaptation metrics over run results, and the one
//! definition of each of the paper's headline numbers.
//!
//! The paper makes qualitative speed claims — COLT "adapts rapidly to
//! shifts of the query load" and converges to OFFLINE "after 100
//! queries". These helpers quantify both from per-query samples. The
//! headlines — Figure 3's tail deviation and convergence, Figure 4's
//! phase reductions, Figure 5's stable-epoch budget use and Figure 6's
//! worst burst — are each computed here once, for the exhibit bins to
//! print and the end-to-end tests to assert.

use crate::runner::RunResult;
use colt_workload::presets::SHIFTING_PHASES;
use std::ops::RangeBounds;

/// Figure 3's start-up: from this query on COLT is held to OFFLINE
/// (the paper: "after 100 queries").
pub const STARTUP_QUERIES: usize = 100;

/// `(c/o − 1)·100`: how much longer `colt` ran than `offline` over
/// `range` of the stream, in percent.
pub fn deviation_pct(colt: &RunResult, offline: &RunResult, range: impl RangeBounds<usize> + Clone) -> f64 {
    (colt.range_millis(range.clone()) / offline.range_millis(range) - 1.0) * 100.0
}

/// `(1 − c/o)·100`: how much shorter `colt` ran than `offline` over
/// `range` of the stream, in percent.
pub fn reduction_pct(colt: &RunResult, offline: &RunResult, range: impl RangeBounds<usize> + Clone) -> f64 {
    (1.0 - colt.range_millis(range.clone()) / offline.range_millis(range)) * 100.0
}

/// The COLT/OFFLINE execution-time ratio after the first `skip` queries
/// (the metric of Figure 6).
pub fn time_ratio(colt: &RunResult, offline: &RunResult, skip: usize) -> f64 {
    colt.range_millis(skip..) / offline.range_millis(skip..)
}

/// Figure 3's tail deviation: [`deviation_pct`] after
/// [`STARTUP_QUERIES`] (the paper: ≈ 1 %).
pub fn tail_deviation(colt: &RunResult, offline: &RunResult) -> f64 {
    deviation_pct(colt, offline, STARTUP_QUERIES..)
}

/// Figure 3's convergence: the [`convergence_point`] of 20-query
/// windows within 10 % of OFFLINE (the paper: ~100).
pub fn convergence(colt: &RunResult, offline: &RunResult) -> Option<usize> {
    convergence_point(colt, offline, 20, 0.10)
}

/// Figure 4's phase-best: COLT's largest [`reduction_pct`] over the pure
/// spans of phases 2–4 of [`SHIFTING_PHASES`] (phase 1 starts both
/// policies cold).
pub fn best_phase_reduction(colt: &RunResult, offline: &RunResult) -> f64 {
    SHIFTING_PHASES
        .pure_spans()
        .into_iter()
        .skip(1)
        .map(|span| reduction_pct(colt, offline, span))
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Figure 5's stable-epoch use: the mean of `series` (what-if calls per
/// epoch) over the epochs more than `margin` epochs from every epoch in
/// `transitions` (the paper: under half the budget); 0 over none.
pub fn stable_epoch_mean(series: &[u64], transitions: &[usize], margin: usize) -> f64 {
    mean_where(series, |i| transitions.iter().all(|&t| i.abs_diff(t) > margin))
}

/// The mean of `series` over the epochs within `margin` epochs of some
/// epoch in `transitions`; 0 over none.
pub fn around_transition_mean(series: &[u64], transitions: &[usize], margin: usize) -> f64 {
    mean_where(series, |i| transitions.iter().any(|&t| i.abs_diff(t) <= margin))
}

fn mean_where(series: &[u64], keep: impl Fn(usize) -> bool) -> f64 {
    let kept: Vec<u64> = series.iter().enumerate().filter(|&(i, _)| keep(i)).map(|(_, &v)| v).collect();
    kept.iter().sum::<u64>() as f64 / kept.len().max(1) as f64
}

/// Figure 6's worst band: the highest `(burst, ratio)` of a sweep, the
/// last one on a tie; `None` for an empty sweep.
pub fn worst_burst(ratios: &[(usize, f64)]) -> Option<(usize, f64)> {
    ratios.iter().copied().max_by(|a, b| a.1.total_cmp(&b.1))
}

/// Moving average of total per-query time over a window.
fn moving_avg(run: &RunResult, window: usize) -> Vec<f64> {
    let n = run.samples.len();
    if n == 0 || window == 0 {
        return Vec::new();
    }
    let w = window.min(n);
    let mut out = Vec::with_capacity(n - w + 1);
    let mut sum: f64 = run.samples[..w].iter().map(|s| s.total_millis()).sum();
    out.push(sum / w as f64);
    for i in w..n {
        sum += run.samples[i].total_millis() - run.samples[i - w].total_millis();
        out.push(sum / w as f64);
    }
    out
}

/// First query index after which COLT's windowed average time stays
/// within `tolerance` (relative) of the baseline's for the rest of the
/// run. `None` if it never converges.
pub fn convergence_point(
    run: &RunResult,
    baseline: &RunResult,
    window: usize,
    tolerance: f64,
) -> Option<usize> {
    let a = moving_avg(run, window);
    let b = moving_avg(baseline, window);
    let n = a.len().min(b.len());
    if n == 0 {
        return None;
    }
    // Walk backwards: find the last window that violates the tolerance.
    let last_violation = a.iter().zip(&b).rposition(|(&x, &y)| x > y * (1.0 + tolerance) + 1e-12);
    match last_violation {
        None => Some(0),
        Some(i) if i + 1 < n => Some(i + 1),
        Some(_) => None,
    }
}

/// Adaptation latency after a workload shift at query `shift_at`: the
/// number of queries until the windowed average first comes within
/// `tolerance` of the post-shift steady state (the median of the last
/// quarter of the `shift_at..until` region — pass the next shift as
/// `until` so later phases do not contaminate the estimate). `None`
/// when it never settles.
pub fn adaptation_latency(
    run: &RunResult,
    shift_at: usize,
    until: usize,
    window: usize,
    tolerance: f64,
) -> Option<usize> {
    let n = run.samples.len().min(until);
    if window == 0 || shift_at + window >= n {
        return None;
    }
    let avgs = moving_avg(run, window);
    // Steady state: median of windowed averages over the last quarter
    // of the post-shift region.
    let post = &avgs[shift_at.min(avgs.len() - 1)..n.saturating_sub(window).max(shift_at + 1).min(avgs.len())];
    let tail_start = post.len() - (post.len() / 4).max(1);
    let mut tail: Vec<f64> = post[tail_start..].to_vec();
    tail.sort_by(f64::total_cmp);
    let steady = tail[tail.len() / 2];

    post.iter()
        .position(|&v| v <= steady * (1.0 + tolerance) + 1e-12)
        .map(|i| i + window / 2) // center the window
}

/// Mean what-if budget utilization (used / max) over a trace.
pub fn budget_utilization(run: &RunResult, max_budget: u64) -> f64 {
    let epochs = &run.trace.epochs;
    if epochs.is_empty() || max_budget == 0 {
        return 0.0;
    }
    epochs.iter().map(|e| e.whatif_used as f64).sum::<f64>()
        / (epochs.len() as f64 * max_budget as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Policy, QuerySample};
    use colt_core::Trace;

    fn fake(times: Vec<f64>) -> RunResult {
        RunResult {
            policy: Policy::None,
            samples: times
                .into_iter()
                .map(|t| QuerySample { exec_millis: t, tuning_millis: 0.0, rows: 0 })
                .collect(),
            trace: Trace::new(),
            final_indices: Vec::new(),
            offline: None,
            profiled_indices: 0,
            obs: colt_obs::Snapshot::default(),
        }
    }

    #[test]
    fn converges_after_startup() {
        // 30 slow queries, then parity with the baseline.
        let mut t = vec![20.0; 30];
        t.extend(vec![10.0; 170]);
        let colt = fake(t);
        let base = fake(vec![10.0; 200]);
        let p = convergence_point(&colt, &base, 10, 0.05).expect("converges");
        assert!((25..=45).contains(&p), "convergence at {p}");
    }

    #[test]
    fn never_converges_when_always_slower() {
        let colt = fake(vec![20.0; 100]);
        let base = fake(vec![10.0; 100]);
        assert_eq!(convergence_point(&colt, &base, 10, 0.05), None);
    }

    #[test]
    fn immediate_convergence() {
        let colt = fake(vec![10.0; 100]);
        let base = fake(vec![10.0; 100]);
        assert_eq!(convergence_point(&colt, &base, 10, 0.05), Some(0));
    }

    #[test]
    fn adaptation_measures_post_shift_settling() {
        // Steady at 10, shift at 100 spikes to 30, settles back by ~140.
        let mut t = vec![10.0; 100];
        t.extend(vec![30.0; 40]);
        t.extend(vec![10.0; 160]);
        let run = fake(t);
        let lat = adaptation_latency(&run, 100, 300, 10, 0.1).expect("settles");
        assert!((30..=60).contains(&lat), "latency {lat}");
        // A bounded region excluding the settled tail gives no latency
        // when the region never reaches steady state... but a region
        // ending inside the spike still reports the spike's own level.
        assert!(adaptation_latency(&run, 290, 295, 10, 0.1).is_none());
    }

    #[test]
    fn empty_runs_never_converge() {
        let empty = fake(vec![]);
        let base = fake(vec![10.0; 50]);
        assert_eq!(convergence_point(&empty, &base, 10, 0.05), None);
        assert_eq!(convergence_point(&base, &empty, 10, 0.05), None);
        assert_eq!(convergence_point(&empty, &empty, 10, 0.05), None);
    }

    #[test]
    fn window_larger_than_sample_count_clamps() {
        // moving_avg clamps the window to the run length, so a giant
        // window degenerates to one whole-run average per side.
        let colt = fake(vec![10.0; 5]);
        let base = fake(vec![10.0; 5]);
        assert_eq!(convergence_point(&colt, &base, 1_000, 0.05), Some(0));
        let slow = fake(vec![20.0; 5]);
        assert_eq!(convergence_point(&slow, &base, 1_000, 0.05), None);
    }

    #[test]
    fn zero_window_never_converges() {
        let colt = fake(vec![10.0; 20]);
        let base = fake(vec![10.0; 20]);
        assert_eq!(convergence_point(&colt, &base, 0, 0.05), None);
    }

    #[test]
    fn zero_window_never_settles() {
        let run = fake(vec![10.0; 50]);
        assert_eq!(adaptation_latency(&run, 10, 50, 0, 0.15), None);
    }

    #[test]
    fn headline_formulas() {
        let mut t = vec![30.0; 100];
        t.extend(vec![11.0; 100]);
        let (colt, offline) = (fake(t), fake(vec![10.0; 200]));
        assert!((deviation_pct(&colt, &offline, ..) - 105.0).abs() < 1e-9);
        assert!((reduction_pct(&offline, &colt, ..) - 100.0 * 21.0 / 41.0).abs() < 1e-9);
        assert!((tail_deviation(&colt, &offline) - 10.0).abs() < 1e-9);
        let series = [1, 1, 1, 1, 9, 9, 1, 1];
        assert_eq!(stable_epoch_mean(&series, &[4], 1), 1.0);
        assert_eq!(around_transition_mean(&series, &[4], 1), 19.0 / 3.0);
        assert_eq!(stable_epoch_mean(&series, &[4], 10), 0.0);
        assert_eq!(worst_burst(&[(20, 1.0), (50, 1.3), (80, 1.3), (140, 1.1)]), Some((80, 1.3)));
        assert_eq!(worst_burst(&[]), None);
    }

    #[test]
    fn violation_in_final_window_means_no_convergence() {
        // The run is at parity except for the very last window — there
        // is no later window to converge in, so the answer must be None,
        // not an out-of-range index.
        let mut t = vec![10.0; 99];
        t.push(1_000.0);
        let colt = fake(t);
        let base = fake(vec![10.0; 100]);
        assert_eq!(convergence_point(&colt, &base, 1, 0.05), None);
    }

    #[test]
    fn budget_utilization_means() {
        use colt_core::EpochRecord;
        let mut run = fake(vec![1.0; 10]);
        for (i, used) in [20u64, 0, 0, 0].iter().enumerate() {
            run.trace.push(EpochRecord {
                epoch: i as u64,
                whatif_used: *used,
                whatif_limit: 20,
                whatif_skipped: 0,
                next_budget: 0,
                ratio: 1.0,
                created: vec![],
                dropped: vec![],
                build_millis: 0.0,
            });
        }
        assert!((budget_utilization(&run, 20) - 0.25).abs() < 1e-12);
        assert_eq!(budget_utilization(&fake(vec![]), 20), 0.0);
    }
}
