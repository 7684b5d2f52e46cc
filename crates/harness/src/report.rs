//! Paper-style textual rendering of the experiment results.
//!
//! The figures of the paper are stacked bar charts: per 50-query bucket,
//! a grey region for the faster technique's time, and a black (COLT
//! extra) or white (OFFLINE extra) region for the slower one's excess.
//! We render the same information as aligned text tables plus ASCII
//! bars, which diff cleanly and paste into EXPERIMENTS.md.

use crate::parallel::ParallelReport;
use crate::runner::RunResult;

/// One row of a Figure-3/4-style comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BucketRow {
    /// Index of the last query in the bucket (1-based, as in the paper's
    /// x-axis labels: 50, 100, …).
    pub upto: usize,
    /// Total COLT time in the bucket (ms).
    pub colt: f64,
    /// Total OFFLINE time in the bucket (ms).
    pub offline: f64,
}

impl BucketRow {
    /// Time of the faster technique (the grey region).
    pub fn minimum(&self) -> f64 {
        self.colt.min(self.offline)
    }

    /// COLT's excess over OFFLINE (the black region), 0 when COLT wins.
    pub fn colt_extra(&self) -> f64 {
        (self.colt - self.offline).max(0.0)
    }

    /// OFFLINE's excess over COLT (the white region), 0 when it wins.
    pub fn offline_extra(&self) -> f64 {
        (self.offline - self.colt).max(0.0)
    }
}

/// Bucket two runs into Figure-3/4 rows.
pub fn bucket_rows(colt: &RunResult, offline: &RunResult, bucket: usize) -> Vec<BucketRow> {
    let a = colt.bucket_millis(bucket);
    let b = offline.bucket_millis(bucket);
    a.iter()
        .zip(&b)
        .enumerate()
        .map(|(i, (&c, &o))| BucketRow { upto: (i + 1) * bucket, colt: c, offline: o })
        .collect()
}

/// Render rows as an aligned table with an ASCII stacked bar.
pub fn render_buckets(title: &str, rows: &[BucketRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str("  query   minimum     COLT-extra  OFF-extra   bar (#=min, B=COLT extra, o=OFFLINE extra)\n");
    let max = rows.iter().map(|r| r.colt.max(r.offline)).fold(1.0f64, f64::max);
    for r in rows {
        let scale = 48.0 / max;
        let g = (r.minimum() * scale).round() as usize;
        let b = (r.colt_extra() * scale).round() as usize;
        let w = (r.offline_extra() * scale).round() as usize;
        out.push_str(&format!(
            "  {:>5}   {:>9.1}   {:>9.1}   {:>9.1}   {}{}{}\n",
            r.upto,
            r.minimum(),
            r.colt_extra(),
            r.offline_extra(),
            "#".repeat(g),
            "B".repeat(b),
            "o".repeat(w),
        ));
    }
    let colt_total: f64 = rows.iter().map(|r| r.colt).sum();
    let off_total: f64 = rows.iter().map(|r| r.offline).sum();
    out.push_str(&format!(
        "  total: COLT {colt_total:.1} ms, OFFLINE {off_total:.1} ms ({:+.1}% for COLT)\n",
        (colt_total / off_total - 1.0) * 100.0
    ));
    out
}

/// Render a per-epoch what-if series (Figure 5) as an ASCII chart.
pub fn render_whatif_series(title: &str, series: &[u64], max_budget: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(&format!("  epoch  #what-if (budget {max_budget})\n"));
    for (i, &v) in series.iter().enumerate() {
        out.push_str(&format!("  {:>5}  {:>3}  {}\n", i, v, "*".repeat(v as usize)));
    }
    out
}

/// Per-component wall-clock breakdown of one run, from its metrics
/// snapshot's `engine.optimize`, `engine.execute` and `harness.tune`
/// flame frames under `harness.run`.
#[derive(Debug, Clone, PartialEq)]
pub struct Breakdown {
    /// Optimizer (plan search) wall ms.
    pub optimize_ms: f64,
    /// Executor wall ms.
    pub execute_ms: f64,
    /// Tuner wall ms (profiling + epoch closing + builds).
    pub tune_ms: f64,
    /// Unattributed remainder of the run (loop overhead, setup), ≥ 0.
    pub other_ms: f64,
    /// Total measured run wall ms (the `harness.run` frame).
    pub total_ms: f64,
}

/// Fold a run's flame frames into a per-component breakdown. Empty
/// snapshots (runs under `COLT_OBS=off`) yield an all-zero breakdown.
pub fn component_breakdown(run: &RunResult) -> Breakdown {
    let ns = |frame: &str| run.obs.frame_ns(frame);
    let (optimize, execute, tune) = (ns("engine.optimize"), ns("engine.execute"), ns("harness.tune"));
    let total = ns("harness.run");
    let other = total.saturating_sub(optimize + execute + tune);
    let ms = |ns: u64| ns as f64 / 1e6;
    Breakdown {
        optimize_ms: ms(optimize),
        execute_ms: ms(execute),
        tune_ms: ms(tune),
        other_ms: ms(other),
        total_ms: ms(total),
    }
}

/// Emit a parallel batch's progress through the event sink: one
/// `parallel_batch` event with its wall-clock/speedup numbers (real
/// wall-clock times, so stderr only: stdout artifacts stay
/// byte-identical across thread counts). A serial run would cost the
/// sum of the cells' `harness.run` frames. All bench binaries report
/// batch completion through this one path, so the stderr format is
/// uniform.
pub fn emit_parallel_summary(title: &str, report: &ParallelReport) {
    let serial_ns: u64 = report.cells.iter().map(|c| c.result.obs.frame_ns("harness.run")).sum();
    let serial_ms = serial_ns as f64 / 1e6;
    let speedup = if report.wall_millis > 0.0 { serial_ms / report.wall_millis } else { 1.0 };
    colt_obs::progress(
        colt_obs::Event::new("parallel_batch")
            .field("title", title)
            .field("threads", report.threads)
            .field("cells", report.cells.len())
            .field("wall_ms", report.wall_millis)
            .field("serial_ms", serial_ms)
            .field("speedup", speedup),
    );
}

/// Emit one run's per-component breakdown through the event sink.
pub fn emit_breakdown(label: &str, run: &RunResult) {
    let b = component_breakdown(run);
    colt_obs::progress(
        colt_obs::Event::new("breakdown")
            .field("label", label)
            .field("optimize_ms", b.optimize_ms)
            .field("execute_ms", b.execute_ms)
            .field("tune_ms", b.tune_ms)
            .field("other_ms", b.other_ms)
            .field("total_ms", b.total_ms),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Policy, QuerySample};
    use colt_core::Trace;

    fn fake_run(times: &[f64]) -> RunResult {
        RunResult {
            policy: Policy::None,
            samples: times
                .iter()
                .map(|&t| QuerySample { exec_millis: t, tuning_millis: 0.0, rows: 0 })
                .collect(),
            trace: Trace::new(),
            final_indices: Vec::new(),
            offline: None,
            profiled_indices: 0,
            obs: colt_obs::Snapshot::default(),
        }
    }

    #[test]
    fn bucket_rows_regions() {
        let colt = fake_run(&[10.0, 10.0, 5.0, 5.0]);
        let off = fake_run(&[5.0, 5.0, 10.0, 10.0]);
        let rows = bucket_rows(&colt, &off, 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].minimum(), 10.0);
        assert_eq!(rows[0].colt_extra(), 10.0);
        assert_eq!(rows[0].offline_extra(), 0.0);
        assert_eq!(rows[1].colt_extra(), 0.0);
        assert_eq!(rows[1].offline_extra(), 10.0);
    }

    #[test]
    fn render_includes_totals() {
        let colt = fake_run(&[10.0, 10.0]);
        let off = fake_run(&[5.0, 5.0]);
        let rows = bucket_rows(&colt, &off, 1);
        let s = render_buckets("Test", &rows);
        assert!(s.contains("COLT 20.0 ms"));
        assert!(s.contains("OFFLINE 10.0 ms"));
        assert!(s.contains("+100.0%"));
    }

    #[test]
    fn ratio_skips_warmup() {
        use crate::metrics::time_ratio;
        let colt = fake_run(&[100.0, 10.0, 10.0]);
        let off = fake_run(&[1.0, 10.0, 10.0]);
        assert!((time_ratio(&colt, &off, 1) - 1.0).abs() < 1e-9);
        assert!(time_ratio(&colt, &off, 0) > 1.0);
    }

    #[test]
    fn whatif_series_renders() {
        let s = render_whatif_series("Fig5", &[20, 3, 0], 20);
        assert!(s.contains("epoch"));
        assert!(s.contains("********************"));
    }

    /// A run whose snapshot's flame holds `stacks` (folded stack, self ns).
    fn flamed_run(stacks: &[(&str, u64)]) -> RunResult {
        let mut run = fake_run(&[1.0]);
        run.obs.flame = stacks.iter().map(|&(stack, ns)| (stack.to_string(), ns)).collect();
        run
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let run = flamed_run(&[
            ("harness.run", 2_000_000),
            ("harness.run;engine.optimize", 1_500_000),
            ("harness.run;engine.execute", 4_500_000),
            ("harness.run;engine.execute;engine.exec.batch", 500_000),
            ("harness.run;harness.tune", 800_000),
            ("harness.run;harness.tune;engine.whatif", 200_000),
        ]);
        let b = component_breakdown(&run);
        assert_eq!(b, Breakdown {
            optimize_ms: 1.5,
            execute_ms: 5.0,
            tune_ms: 1.0,
            other_ms: 2.0,
            total_ms: 9.5,
        });
        assert_eq!(b.optimize_ms + b.execute_ms + b.tune_ms + b.other_ms, b.total_ms);
    }

    #[test]
    fn breakdown_of_empty_snapshot_is_zero() {
        let run = fake_run(&[1.0]);
        let b = component_breakdown(&run);
        let zero = Breakdown { optimize_ms: 0.0, execute_ms: 0.0, tune_ms: 0.0, other_ms: 0.0, total_ms: 0.0 };
        assert_eq!(b, zero);
    }

    #[test]
    fn breakdown_clamps_overshoot() {
        // A component frame outside the run frame can make the
        // components overshoot the run; `other` must clamp at zero
        // rather than go negative.
        let run = flamed_run(&[("engine.execute", 11_000_000), ("harness.run", 10_000_000)]);
        assert_eq!(component_breakdown(&run).other_ms, 0.0);
    }
}
