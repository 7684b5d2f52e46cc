//! The full protocol: every workload, sampled in separate processes
//! and separate time windows.
//!
//! Three passes; each pass spawns one process per workload in the fixed
//! order, so a workload is measured in three windows and each process
//! has its own address space. A fourth, traced process per workload
//! gives the per-layer numbers and never feeds an end-to-end metric.
//! The samples of a workload's passes are pooled before summarising.
//! Why: on a shared box the host's speed changes from minute to minute
//! (`README.md`, "Bounds and noise").

use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::run::Limit;
use crate::sample::Sample;
use crate::workloads::{Workload, STREAMS_TRACED, WORKLOADS};
use crate::{compact, metrics_json, print_metrics, Cli, SAMPLE_PREFIX};
use colt_core::json::{self, Json};
use std::fs::File;
use std::process::{Command, Stdio};

const PASSES: usize = 3;
/// What a pass measures of one workload, and what the traced process
/// does: a third of the `run_seconds` in `BENCHMARK.json` each.
const PASS: Limit = Limit::Seconds(13.0);
const QUICK: Limit = Limit::Rounds(2);

/// One workload's share of a set.
pub struct WorkloadResult {
    pub workload: Workload,
    pub sample: Sample,
    pub end_to_end: Values,
    pub per_layer: Values,
    /// Operations of the traced process (not part of `sample`).
    pub traced_attempted: u64,
    pub traced_failed: u64,
}

impl WorkloadResult {
    fn failed(&self) -> u64 {
        self.sample.failed + self.traced_failed
    }
}

/// Run this binary as a single run and return its standard output.
fn spawn(cli: &Cli, workload: Workload, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload.name,
        "--trace",
        if traced { "1" } else { "0" },
    ])
    .args(["--seed", &cli.seed.to_string()])
    .args(match if cli.quick { QUICK } else { PASS } {
        Limit::Seconds(s) => ["--seconds".to_string(), s.to_string()],
        Limit::Rounds(n) => ["--rounds".to_string(), n.to_string()],
    })
    .arg("--out")
    .arg(&cli.out);
    if cli.quick {
        cmd.arg("--quick");
    }
    if traced {
        // Fully recorded rounds print every event to stderr, as the
        // program does under COLT_OBS=full; keep that out of the report.
        std::fs::create_dir_all(&cli.out).map_err(|e| format!("{}: {e}", cli.out.display()))?;
        let log = cli.out.join(format!("{}.stderr.log", workload.name));
        let file = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        cmd.stderr(Stdio::from(file));
    }
    let output = cmd
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    // 0 = all correct, 1 = measured but some output was wrong; anything
    // else printed no result.
    match output.status.code() {
        Some(0 | 1) => String::from_utf8(output.stdout).map_err(|e| format!("child output: {e}")),
        code => Err(format!(
            "{} (trace {traced}) ended with {code:?}",
            workload.name
        )),
    }
}

fn last_line_json(stdout: &str) -> Result<Json, String> {
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    json::parse(line).map_err(|e| format!("child result: {e}"))
}

fn parse_sample(stdout: &str) -> Result<Sample, String> {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix(SAMPLE_PREFIX))
        .ok_or("child printed no sample")?;
    Sample::from_json(&json::parse(line)?)
}

fn parse_per_layer(result: &Json) -> Result<Values, String> {
    PER_LAYER
        .iter()
        .map(|m| {
            let value = result
                .get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|e| e.get("value"));
            Ok((
                m.name,
                value
                    .and_then(Json::as_f64)
                    .ok_or(format!("traced child: no {}", m.name))?,
            ))
        })
        .collect()
}

/// One full set of measurements.
fn measure(cli: &Cli) -> Result<Vec<WorkloadResult>, String> {
    let selected: Vec<Workload> = WORKLOADS
        .into_iter()
        .filter(|w| cli.workload.is_none_or(|only| only.name == w.name))
        .collect();
    let passes = if cli.quick { 1 } else { PASSES };
    let mut samples: Vec<Sample> = vec![Sample::default(); selected.len()];
    for pass in 1..=passes {
        for (w, pooled) in selected.iter().zip(&mut samples) {
            eprintln!("pass {pass}/{passes}: {}", w.name);
            pooled.merge(parse_sample(&spawn(cli, *w, false)?)?);
        }
    }
    selected
        .into_iter()
        .zip(samples)
        .map(|(workload, sample)| {
            let end_to_end = sample.end_to_end().ok_or("a stream has no timed round")?;
            let mut result = WorkloadResult {
                workload,
                sample,
                end_to_end,
                per_layer: Values::new(),
                traced_attempted: 0,
                traced_failed: 0,
            };
            // A smoke run has no time for the traced process.
            if !cli.quick {
                eprintln!("traced: {}", workload.name);
                let traced = last_line_json(&spawn(cli, workload, true)?)?;
                let count = |key: &str| {
                    traced
                        .get(key)
                        .and_then(Json::as_u64)
                        .ok_or(format!("no {key}"))
                };
                result.per_layer = parse_per_layer(&traced)?;
                result.traced_attempted = count("attempted")?;
                result.traced_failed = count("failed")?;
            }
            Ok(result)
        })
        .collect()
}

fn set_json(cli: &Cli, set: &[WorkloadResult]) -> Result<Json, String> {
    let workloads = set
        .iter()
        .map(|r| {
            let mut body = vec![
                (
                    "attempted",
                    Json::UInt(r.sample.attempted + r.traced_attempted),
                ),
                ("failed", Json::UInt(r.failed())),
                ("end_to_end", metrics_json(&END_TO_END, &r.end_to_end)?),
                ("sample", r.sample.to_json()),
            ];
            if !r.per_layer.is_empty() {
                body.push(("per_layer", metrics_json(&PER_LAYER, &r.per_layer)?));
            }
            Ok((r.workload.name, Json::obj(body)))
        })
        .collect::<Result<_, String>>()?;
    Ok(Json::obj(vec![
        ("seed", Json::UInt(cli.seed)),
        ("quick", Json::Bool(cli.quick)),
        ("workloads", Json::obj(workloads)),
    ]))
}

fn print_set(set: &[WorkloadResult]) {
    for r in set {
        let name = r.workload.name;
        print_metrics(name, &END_TO_END, &r.end_to_end, r.sample.rounds());
        let attempted = r.sample.attempted + r.traced_attempted;
        println!(
            "{name} failed_frac {} ratio {attempted}",
            r.failed() as f64 / attempted.max(1) as f64
        );
        print_metrics(name, &PER_LAYER, &r.per_layer, STREAMS_TRACED);
    }
}

/// Whether two sets of the same code agree: every end-to-end metric
/// within its own bound, and every exact count identical.
fn agree(first: &[WorkloadResult], second: &[WorkloadResult]) -> bool {
    let mut ok = true;
    for (a, b) in first.iter().zip(second) {
        let name = a.workload.name;
        for m in END_TO_END {
            let (x, y) = (a.end_to_end[m.name], b.end_to_end[m.name]);
            let apart = (x - y).abs() / x.min(y);
            let within = apart <= m.bound;
            let verdict = if within { "ok" } else { "FAIL" };
            println!(
                "check-repeat {name} {} {x} {y} apart {apart:.4} bound {} {verdict}",
                m.name, m.bound
            );
            ok &= within;
        }
        let exact = |r: &WorkloadResult| -> Vec<f64> {
            let counts = PER_LAYER.iter().filter(|m| m.unit == "count");
            let counts = counts.filter_map(|m| r.per_layer.get(m.name).copied());
            r.sample
                .sim_total_ms
                .iter()
                .copied()
                .chain(counts)
                .collect()
        };
        if exact(a) != exact(b) {
            println!("check-repeat {name} exact counts differ FAIL");
            ok = false;
        }
    }
    ok
}

/// Run the protocol; with `--check-repeat`, twice. Returns whether
/// every output was correct (and the two sets agreed).
pub fn run(cli: &Cli) -> Result<bool, String> {
    let first = measure(cli)?;
    print_set(&first);
    std::fs::create_dir_all(&cli.out).map_err(|e| format!("{}: {e}", cli.out.display()))?;
    let path = cli.out.join("results.json");
    std::fs::write(&path, compact(&set_json(cli, &first)?) + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let mut ok = first.iter().all(|r| r.failed() == 0);
    if cli.check_repeat {
        let second = measure(cli)?;
        print_set(&second);
        ok &= second.iter().all(|r| r.failed() == 0) && agree(&first, &second);
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::StreamSample;

    fn result(wall_s: f64, sim_total_ms: f64, builds: f64) -> WorkloadResult {
        let stream = StreamSample {
            stream: 0,
            queries: 100,
            rounds: 3,
            wall_s,
            geomean_us: 50.0,
            slow5_us: 900.0,
        };
        let sample = Sample {
            setup_s: vec![0.4],
            peak_rss_mb: 200.0,
            sim_total_ms: vec![sim_total_ms],
            streams: vec![stream],
            attempted: 400,
            failed: 0,
        };
        WorkloadResult {
            workload: WORKLOADS[0],
            end_to_end: sample.end_to_end().expect("complete"),
            sample,
            // Every count reads `builds`, everything else `wall_s`.
            per_layer: PER_LAYER
                .iter()
                .map(|m| (m.name, if m.unit == "count" { builds } else { wall_s }))
                .collect(),
            traced_attempted: 100,
            traced_failed: 0,
        }
    }

    #[test]
    fn sets_agree_within_bounds_and_on_exact_counts() {
        let base = [result(1.0, 500.0, 7.0)];
        // 20 % slower is inside the 25 % bound on wall-clock metrics
        // (the traced run's timings are not compared at all).
        assert!(agree(&base, &[result(1.2, 500.0, 7.0)]));
        assert!(!agree(&base, &[result(1.3, 500.0, 7.0)]));
        assert!(
            !agree(&base, &[result(1.0, 500.5, 7.0)]),
            "simulated totals are exact"
        );
        assert!(
            !agree(&base, &[result(1.0, 500.0, 8.0)]),
            "counts are exact"
        );
    }

    #[test]
    fn a_childs_output_parses_back() {
        let r = result(1.0, 500.0, 7.0);
        let stdout = format!(
            "stable queries_per_s 100 1/s 3\n{SAMPLE_PREFIX}{}\n{{\"correct\": true,\"failed\": 0}}\n",
            compact(&r.sample.to_json())
        );
        assert_eq!(parse_sample(&stdout).expect("sample"), r.sample);
        assert_eq!(
            last_line_json(&stdout)
                .expect("json")
                .get("failed")
                .and_then(Json::as_u64),
            Some(0)
        );
        assert!(parse_sample("no sample here\n").is_err());
        assert!(last_line_json("").is_err());
        assert!(parse_per_layer(&Json::obj(vec![])).is_err());
        let cli = crate::parse_cli(&[]).expect("defaults");
        let json = compact(&set_json(&cli, &[r]).expect("json"));
        assert!(json.contains("\"stable\"") && json.contains("\"core.builds\""));
    }
}
