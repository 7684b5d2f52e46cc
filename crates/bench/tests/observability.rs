//! Black-box observability checks against the real `fig3` binary, in
//! three spawns (`off`; `full` at 1 thread with a dump; `full` at 4
//! threads with a dump):
//!
//! * stdout is byte-identical across all three — neither `COLT_OBS`
//!   nor `COLT_THREADS` perturbs an experiment artifact; stderr is empty
//!   at `off` and JSONL progress lines at `full`;
//! * every line of the `COLT_OBS_PATH` dump parses with the in-repo
//!   strict JSON parser and is tagged by its first key with one of the
//!   five line kinds, each present at least once;
//! * the `decision` + `series_epoch` lines (the flight recorder) are
//!   byte-identical at 1 vs 4 threads;
//! * the `flame` lines carry positive self time over non-empty frames,
//!   with the executor's `engine.exec.batch` spans only ever nested;
//! * the spans instrumented across the stack surface by name.
//!
//! The usage errors around the dump stop `fig3` before it writes
//! anything, and `report`, whose stdout is the flight recorder, refuses
//! to run under `COLT_OBS=off`.
#![allow(clippy::expect_used, clippy::panic, reason = "test helpers may unwrap and panic")]

use colt_obs::json::{parse, Json};
use std::path::PathBuf;
use std::process::{Command, Output};

/// Tiny scale so the three spawned runs stay in CI-friendly territory.
const SCALE: &str = "0.004";

/// The dump's line kinds, in the order `Snapshot::jsonl` writes them.
const TAGS: [&str; 5] = ["decision", "series_epoch", "counter", "span", "flame"];

fn run_fig3(obs_level: &str, threads: &str, obs_path: Option<&PathBuf>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig3"));
    cmd.env("COLT_SCALE", SCALE)
        .env("COLT_THREADS", threads)
        .env("COLT_OBS", obs_level)
        .env_remove("COLT_OBS_PATH");
    if let Some(p) = obs_path {
        cmd.env("COLT_OBS_PATH", p);
    }
    let out = cmd.output().expect("spawn fig3");
    assert!(
        out.status.success(),
        "fig3 (COLT_OBS={obs_level}, COLT_THREADS={threads}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("colt-obs-test-{}-{tag}.jsonl", std::process::id()))
}

/// One parsed dump line: its tag, the object, and the raw text.
struct Line<'a> {
    tag: &'a str,
    value: Json,
    raw: &'a str,
}

fn parse_dump(text: &str) -> Vec<Line<'_>> {
    text.lines()
        .enumerate()
        .map(|(i, raw)| {
            let value = parse(raw).unwrap_or_else(|e| panic!("dump line {}: {e}: {raw}", i + 1));
            let Json::Obj(pairs) = &value else { panic!("dump line {} is not an object: {raw}", i + 1) };
            let first = pairs.first().map_or("", |(k, _)| k.as_str());
            let tag = TAGS
                .iter()
                .find(|t| **t == first)
                .unwrap_or_else(|| panic!("dump line {}: unknown tag {first:?}: {raw}", i + 1));
            Line { tag, value, raw }
        })
        .collect()
}

/// The deterministic lines, as README's `grep` recipe selects them.
fn flight_lines(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| l.starts_with("{\"decision\":") || l.starts_with("{\"series_epoch\":"))
        .collect()
}

#[test]
fn fig3_dump_is_one_parseable_file_and_stdout_never_moves() {
    let (p1, p4) = (temp_path("t1"), temp_path("t4"));
    let off = run_fig3("off", "2", None);
    let full1 = run_fig3("full", "1", Some(&p1));
    let full4 = run_fig3("full", "4", Some(&p4));
    let d1 = std::fs::read_to_string(&p1).expect("fig3 must write the 1-thread dump");
    let d4 = std::fs::read_to_string(&p4).expect("fig3 must write the 4-thread dump");
    drop(std::fs::remove_file(&p1));
    drop(std::fs::remove_file(&p4));

    assert!(!off.stdout.is_empty(), "fig3 must print its report to stdout");
    assert_eq!(off.stdout, full1.stdout, "COLT_OBS must not change a single stdout byte");
    assert_eq!(full1.stdout, full4.stdout, "fig3 stdout must not depend on COLT_THREADS");
    assert!(off.stderr.is_empty(), "COLT_OBS=off must keep stderr empty");
    let stderr = String::from_utf8(full1.stderr).expect("stderr is utf-8");
    assert!(!stderr.is_empty(), "COLT_OBS=full must emit JSONL to stderr");
    for line in stderr.lines() {
        let v = parse(line).unwrap_or_else(|e| panic!("stderr line: {e}: {line}"));
        assert!(v.get("event").and_then(Json::as_str).is_some(), "stderr line lacks a kind: {line}");
    }

    // Every line parses and carries one of the five tags; none is absent.
    let lines = parse_dump(&d1);
    parse_dump(&d4); // panics on a malformed or untagged line
    for tag in TAGS {
        assert!(lines.iter().any(|l| l.tag == tag), "no {tag:?} line in the dump");
    }

    // The flight recorder is the file's prefix and does not depend on
    // the thread count.
    let flight = flight_lines(&d1);
    assert_eq!(flight, flight_lines(&d4), "decision + series_epoch lines differ at 1 vs 4 threads");
    assert!(d1.lines().zip(&flight).all(|(a, b)| a == *b), "the flight recorder must come first");

    // Flame lines: positive self time, no empty frame, batch spans nested.
    let mut batch_frames = 0usize;
    for l in lines.iter().filter(|l| l.tag == "flame") {
        let stack = l.value.get("flame").and_then(Json::as_str).expect("flame stack");
        let ns = l.value.get("ns").and_then(Json::as_u64).expect("flame ns");
        assert!(ns > 0, "flame line carries zero self time: {}", l.raw);
        assert!(stack.split(';').all(|f| !f.is_empty()), "flame line has an empty frame: {}", l.raw);
        if stack.split(';').any(|f| f == "engine.exec.batch") {
            // The executor's batch spans open inside `engine.execute`,
            // so they must appear as nested (never root) frames.
            assert_ne!(stack, "engine.exec.batch", "engine.exec.batch must be nested under its caller");
            batch_frames += 1;
        }
    }
    assert!(batch_frames > 0, "no engine.exec.batch frames in the flame lines");

    // The spans and counters instrumented across the stack surface.
    let names: Vec<&str> = lines
        .iter()
        .filter_map(|l| l.value.get("span").or_else(|| l.value.get("counter")).and_then(Json::as_str))
        .collect();
    for needle in ["engine.execute", "tuner.epoch", "engine.whatif_calls"] {
        assert!(names.contains(&needle), "dump lacks metric {needle}: {names:?}");
    }
}

/// The usage errors around the dump: each is one `error:` line on
/// stderr and a non-zero exit, with nothing on stdout and no file.
#[test]
fn unusable_dump_requests_stop_the_binary() {
    let fig3 = |envs: &[(&str, &str)]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig3"));
        cmd.env("COLT_SCALE", SCALE).env_remove("COLT_OBS_PATH").env_remove("COLT_OBS");
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let out = cmd.output().expect("spawn fig3");
        (out.status.code(), String::from_utf8(out.stderr).expect("utf-8"), out.stdout)
    };
    let path = temp_path("off");
    let path_str = path.to_str().expect("utf-8 temp path");
    let (code, stderr, stdout) = fig3(&[("COLT_OBS", "off"), ("COLT_OBS_PATH", path_str)]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.starts_with("error: COLT_OBS_PATH=") && stderr.lines().count() == 1, "{stderr}");
    assert!(stdout.is_empty() && !path.exists());

    let (code, stderr, _) = fig3(&[("COLT_OBS", "banana")]);
    assert_eq!((code, stderr.as_str()), (Some(2), "error: COLT_OBS=\"banana\": expected off, summary or full\n"));
    let (code, stderr, _) = fig3(&[("COLT_THREADS", "abc")]);
    assert_eq!((code, stderr.as_str()), (Some(2), "error: COLT_THREADS=\"abc\": expected an integer > 0\n"));

    // A dump that cannot be written is an error even when the sink is
    // otherwise quiet, after the run.
    let (code, stderr, _) =
        fig3(&[("COLT_OBS", "summary"), ("COLT_OBS_PATH", "/nonexistent-dir/colt/dump.jsonl")]);
    assert_eq!(code, Some(1), "{stderr}");
    let last = stderr.lines().last().unwrap_or_default();
    assert!(last.starts_with("error: COLT_OBS_PATH=\"/nonexistent-dir/colt/dump.jsonl\": "), "{stderr}");
}

/// `report` renders the flight recorder, which nothing records under
/// `COLT_OBS=off`: it stops before any work (exit 2) with one line
/// naming the setting, instead of printing a report of empty cells.
#[test]
fn report_refuses_to_run_unrecorded() {
    let out = Command::new(env!("CARGO_BIN_EXE_report"))
        .env("COLT_SCALE", SCALE)
        .env("COLT_OBS", "off")
        .env_remove("COLT_OBS_PATH")
        .output()
        .expect("spawn report");
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "report printed under COLT_OBS=off");
    assert!(stderr.starts_with("error: COLT_OBS=\"off\": ") && stderr.lines().count() == 1, "{stderr}");
}
