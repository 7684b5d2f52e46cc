//! Convergence and adaptation metrics over run results.
//!
//! The paper makes qualitative speed claims — COLT "adapts rapidly to
//! shifts of the query load" and converges to OFFLINE "after 100
//! queries". These helpers quantify both from per-query samples.

use crate::runner::RunResult;

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
    let mut last_violation = None;
    for i in 0..n {
        if a[i] > b[i] * (1.0 + tolerance) + 1e-12 {
            last_violation = Some(i);
        }
    }
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
    if shift_at + window >= n {
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
