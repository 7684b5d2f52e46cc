//! `colt-perf`: the repo's benchmark. See `README.md` beside this crate
//! for the metrics, the workloads and the run protocol, and
//! `BENCHMARK.json` at the repo root for the contract.
//!
//! Two ways to run it (both through `run.sh`, which builds first):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one process, one
//!   workload: prints one line per metric and, last, one JSON object
//!   with `correct`, `attempted`, `failed` and `metrics`.
//! * no `--trace` — the full protocol: three passes of one process per
//!   workload plus a traced process each, pooled (`protocol.rs`).

mod closed_loop;
mod layers;
mod metrics;
mod protocol;
mod run;
mod sample;
mod spans;
mod stats;
mod workloads;

use colt_core::json::Json;
use metrics::{Metric, Values, END_TO_END, PER_LAYER};
use run::{Limit, Run, RunArgs};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Workload;

const USAGE: &str = "usage: run.sh [--seed N] [--workload W] [--quick] [--check-repeat]
       run.sh --workload W --seed N --seconds S --trace 0|1 [--rounds N] [--quick]
workloads: stable shifting churn joins";

/// The line of a single run's output that carries its [`sample::Sample`]
/// to the full protocol.
pub const SAMPLE_PREFIX: &str = "SAMPLE ";

#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub rounds: Option<usize>,
    /// `Some` selects a single run.
    pub trace: Option<bool>,
    pub quick: bool,
    pub check_repeat: bool,
    pub out: PathBuf,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        rounds: None,
        trace: None,
        quick: false,
        check_repeat: false,
        out: PathBuf::from("benches/perf/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--quick" => cli.quick = true,
            "--check-repeat" => cli.check_repeat = true,
            "--workload" => {
                let v = value()?;
                cli.workload = Some(Workload::by_name(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => cli.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--rounds" => cli.rounds = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--out" => cli.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// `Json::pretty` on one line.
pub fn compact(j: &Json) -> String {
    j.pretty().lines().map(str::trim_start).collect()
}

fn metrics_json(defs: &[Metric], values: &Values) -> Result<Json, String> {
    let pairs = defs
        .iter()
        .map(|m| {
            let v = *values
                .get(m.name)
                .ok_or(format!("metric {} was not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not a number", m.name));
            }
            Ok((
                m.name,
                Json::obj(vec![
                    ("value", Json::Float(v)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Json::obj(pairs))
}

/// One line per metric: `workload metric value unit n`.
pub fn print_metrics(workload: &str, defs: &[Metric], values: &Values, n: usize) {
    for m in defs {
        if let Some(v) = values.get(m.name) {
            println!("{workload} {} {v} {} {n}", m.name, m.unit);
        }
    }
}

fn write_trace(out: &Path, workload: &str, spans: &[spans::Span]) -> Result<(), String> {
    let write = |ext: &str, text: String| {
        let path = out.join(format!("{workload}.{ext}"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    write("trace.jsonl", spans::jsonl(spans))?;
    write("folded", spans::folded_text(spans))
}

/// One process, one workload. Returns whether every output was correct.
fn single_run(cli: &Cli, traced: bool) -> Result<bool, String> {
    let workload = cli.workload.ok_or("a single run needs --workload")?;
    let limit = match (cli.rounds, cli.seconds) {
        (Some(n), _) => Limit::Rounds(n),
        (None, Some(s)) => Limit::Seconds(s),
        (None, None) => return Err("a single run needs --seconds or --rounds".into()),
    };
    let args = RunArgs {
        workload,
        seed: cli.seed,
        limit,
        traced,
        quick: cli.quick,
    };

    let (data, presets, first_set_up) = args.set_up();
    let mut run = Run::execute(&args, &data.db, presets)?;
    let mut per_layer = if traced {
        layers::per_layer(&mut run)?
    } else {
        Values::new()
    };
    let mut sample = run.sample();
    let percentiles = [50.0, 95.0, 99.0].map(|p| (p, run.pooled_percentile_us(p)));
    let (correct, traced_rounds) = (run.failed == 0, run.rounds.len() / 3);
    if traced {
        write_trace(&cli.out, workload.name, &run.tracer.spans)?;
    }

    // The process's first set-up and those repeated between the rounds.
    let mut set_ups = vec![first_set_up];
    set_ups.append(&mut run.set_ups);
    let fastest_of = |f: fn(&(f64, f64)) -> f64| {
        stats::fastest(&set_ups.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    sample.setup_s = set_ups
        .iter()
        .map(|(generate, streams)| generate + streams)
        .collect();

    let (defs, values, n): (&[Metric], Values, usize) = if traced {
        per_layer.insert("workload.generate_s", fastest_of(|s| s.0));
        per_layer.insert("workload.stream_gen_ms", fastest_of(|s| s.1 * 1e3));
        (&PER_LAYER, per_layer, traced_rounds)
    } else {
        for (p, pooled) in percentiles {
            if let Some((us, n)) = pooled {
                println!("{} query_p{p}_us {us} us {n}", workload.name);
            }
        }
        println!("{SAMPLE_PREFIX}{}", compact(&sample.to_json()));
        let values = sample.end_to_end().ok_or("a stream has no timed round")?;
        (&END_TO_END, values, sample.rounds())
    };
    print_metrics(workload.name, defs, &values, n);
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(sample.attempted)),
        ("failed", Json::UInt(sample.failed)),
        ("metrics", metrics_json(defs, &values)?),
    ]);
    println!("{}", compact(&result));
    Ok(correct)
}

fn main() -> ExitCode {
    // Only generated inputs reach the program: no `COLT_*` setting of
    // the caller's shell may change what is measured, and the program's
    // own recording stays off unless a round installs a recorder.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("COLT_") {
            std::env::remove_var(key);
        }
    }
    std::env::set_var("COLT_OBS", "off");

    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| match cli.trace {
        Some(traced) => single_run(&cli, traced),
        None => protocol::run(&cli),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("colt-perf: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_arguments_select_a_single_run() {
        let c = cli(&[
            "--workload",
            "churn",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("cli");
        assert_eq!(c.workload.map(|w| w.name), Some("churn"));
        assert_eq!((c.seed, c.seconds, c.trace), (7, Some(10.0), Some(true)));
        let full = cli(&["--quick", "--check-repeat"]).expect("cli");
        assert_eq!(
            (full.trace, full.seed, full.quick, full.check_repeat),
            (None, 42, true, true)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_json_is_one_line_with_every_metric() {
        let values: Values = END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let line = compact(&metrics_json(&END_TO_END, &values).expect("complete"));
        assert!(!line.contains('\n'));
        let back = colt_core::json::parse(&line).expect("json");
        for m in END_TO_END {
            let entry = back.get(m.name).expect("metric");
            assert_eq!(entry.get("value").and_then(Json::as_f64), Some(1.5));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        }
        let mut missing = values.clone();
        missing.remove("setup_s");
        assert!(metrics_json(&END_TO_END, &missing).is_err());
        let mut nan = values;
        nan.insert("setup_s", f64::NAN);
        assert!(metrics_json(&END_TO_END, &nan).is_err());
    }
}
