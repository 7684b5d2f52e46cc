//! The exhibits' record: the stdout of the nine exhibit bins and
//! `report` at EXPERIMENTS' scale (`COLT_SCALE=0.025`; the seeds are
//! constants in `colt_bench`), checked in under `tests/golden/`, must be
//! what the bins print, byte for byte. The nine run at 1 and at 4
//! threads; their `COLT_OBS_PATH` dumps' flight recorder (the `decision`
//! and `series_epoch` lines) must not depend on the thread count either,
//! and `table1` writes none. `report` runs once, at 4 threads: its seed
//! spread makes it ≈ 7 s in the test profile, so CI's release step
//! "Report golden" holds it at 1 and 4 threads, stdout and recorder.
//!
//! EXPERIMENTS.md cites the goldens: each measured number there is a
//! link to the golden line that prints it, and
//! `experiments_cites_its_goldens` reads each one back.
//!
//! A change that moves an exhibit on purpose re-blesses the goldens in
//! the same diff, so every moved line is in it, and restates each moved
//! citation. From the repo root:
//!
//! ```text
//! for bin in table1 fig3 fig4 fig5 fig6 ablation multiuser scaling skew report; do
//!   COLT_SCALE=0.025 COLT_THREADS=1 cargo run -q --offline -p colt-bench --bin $bin \
//!     > crates/bench/tests/golden/$bin.txt 2>/dev/null
//! done
//! ```
#![allow(clippy::panic, reason = "test helpers may unwrap and panic")]

use colt_obs::json::parse;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const BINS: [(&str, &str); 9] = [
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("fig3", env!("CARGO_BIN_EXE_fig3")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("multiuser", env!("CARGO_BIN_EXE_multiuser")),
    ("scaling", env!("CARGO_BIN_EXE_scaling")),
    ("skew", env!("CARGO_BIN_EXE_skew")),
];

/// Where a run of `bin` at `threads` writes its dump.
fn dump_path(bin: &str, threads: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("exhibit-{bin}-t{threads}.jsonl"))
}

fn spawn(bin: &str, exe: &str, threads: &str) -> Child {
    let dump = dump_path(bin, threads);
    // A dump left by an earlier run must not stand in for this one's.
    drop(std::fs::remove_file(&dump));
    Command::new(exe)
        .env("COLT_SCALE", "0.025")
        .env("COLT_THREADS", threads)
        .env_remove("COLT_OBS")
        .env("COLT_OBS_PATH", dump)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

/// The flight recorder of a run's dump, `None` when it wrote none.
fn flight_recorder(bin: &str, threads: &str) -> Option<String> {
    let dump = std::fs::read_to_string(dump_path(bin, threads)).ok()?;
    let flight = dump.lines().filter(|l| l.starts_with("{\"decision\"") || l.starts_with("{\"series_epoch\""));
    Some(flight.map(|l| format!("{l}\n")).collect())
}

/// The first line where `got` leaves `want`, for the failure message.
fn first_difference(want: &str, got: &str, [want_name, got_name]: [&str; 2]) -> String {
    let (mut want_lines, mut got_lines) = (want.lines(), got.lines());
    for line in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (None, None) => break,
            (w, g) if w == g => continue,
            (w, g) => return format!("line {line}:\n  {want_name:<8}{w:?}\n  {got_name:<8}{g:?}"),
        }
    }
    "only in line endings".to_string()
}

/// The checked-in stdout of `bin`.
fn golden(bin: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/{bin}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Wait for a spawned run; a line for `moved` when its stdout is not
/// `want`.
fn diff_run(bin: &str, threads: &str, child: Child, want: &str) -> Option<String> {
    let out = child.wait_with_output().unwrap_or_else(|e| panic!("wait for {bin}: {e}"));
    assert!(out.status.success(), "{bin} (COLT_THREADS={threads}) exited with {}", out.status);
    let got = String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{bin} stdout: {e}"));
    (got != want).then(|| format!("{bin} at {threads} thread(s), {}", first_difference(want, &got, ["golden:", "bin:"])))
}

#[test]
fn exhibit_stdout_matches_its_golden_at_1_and_4_threads() {
    let (mut moved, mut threaded) = (Vec::new(), Vec::new());
    let report = spawn("report", env!("CARGO_BIN_EXE_report"), "4");
    for (bin, exe) in BINS {
        let want = golden(bin);
        // Two runs at a time, one per thread count.
        let runs = ["1", "4"].map(|threads| (threads, spawn(bin, exe, threads)));
        moved.extend(runs.into_iter().filter_map(|(threads, child)| diff_run(bin, threads, child, &want)));
        match (bin, ["1", "4"].map(|threads| flight_recorder(bin, threads))) {
            ("table1", [None, None]) => {}
            ("table1", _) => threaded.push("table1 wrote a dump".to_string()),
            (_, [Some(one), Some(four)]) if !one.is_empty() => {
                if one != four {
                    threaded.push(format!("{bin}, {}", first_difference(&one, &four, ["1:", "4:"])));
                }
            }
            _ => threaded.push(format!("{bin} wrote no flight recorder at 1 or 4 threads")),
        }
    }
    moved.extend(diff_run("report", "4", report, &golden("report")));
    assert!(moved.is_empty(), "exhibit output moved (re-bless only on purpose):\n{}", moved.join("\n"));
    assert!(threaded.is_empty(), "flight recorder differs at 1 vs 4 threads:\n{}", threaded.join("\n"));
    assert!(flight_recorder("report", "4").is_some_and(|f| !f.is_empty()), "report wrote no flight recorder");
    // `ablation` runs its two tables as one batch, so its dump holds the
    // shifting table's boundaries (to epoch 134 at this scale, as
    // `fig4`'s do), not the stable table's alone (to epoch 49).
    let ablation = flight_recorder("ablation", "1").unwrap_or_default();
    let decisions = ablation.lines().filter(|l| l.starts_with("{\"decision\""));
    let last = decisions.filter_map(|l| parse(l).ok()?.get("epoch")?.as_u64()).max();
    assert!(last >= Some(134), "ablation's decision lines end at epoch {last:?}, not the shifting table's 134");
}

/// The numbers written in `text`, each as its sign and digits: a `+` is
/// dropped, a `-` or `−` right before the digits kept as `-`, and a
/// thousands comma removed, so `+3.5 %` is `3.5` and `−4.7 %` is `-4.7`.
fn numbers(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let digit_at = |i: usize| chars.get(i).is_some_and(char::is_ascii_digit);
    let (mut out, mut i) = (Vec::new(), 0);
    while i < chars.len() {
        if !digit_at(i) {
            i += 1;
            continue;
        }
        let mut number = if i > 0 && matches!(chars[i - 1], '-' | '−') { "-".to_string() } else { String::new() };
        while digit_at(i) || (matches!(chars.get(i), Some('.' | ',')) && digit_at(i + 1)) {
            if chars[i] != ',' {
                number.push(chars[i]);
            }
            i += 1;
        }
        out.push(number);
    }
    out
}

/// EXPERIMENTS.md's paper-vs-measured part (everything before its
/// "Performance log") writes each measured number as a link to the
/// golden line that prints it, `[+3.5 %](crates/bench/tests/golden/fig3.txt#L18)`.
/// Every number in a link's text must be a number of that line, so a
/// golden that moves fails here until the text is restated.
#[test]
fn experiments_cites_its_goldens() {
    const LINK: &str = "](crates/bench/tests/golden/";
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let cited = text.split("\n# Performance log").next().unwrap_or_default();
    let (mut checked, mut bad) = (0, Vec::new());
    for (at, _) in cited.match_indices(LINK) {
        let label = &cited[cited[..at].rfind('[').map_or(at, |i| i + 1)..at];
        let target = cited[at + LINK.len()..].split(')').next().unwrap_or_default();
        let Some((bin, line)) = target.split_once(".txt#L") else {
            bad.push(format!("[{label}]: {target:?} is not a golden line"));
            continue;
        };
        let line_no: usize = line.parse().unwrap_or_else(|e| panic!("[{label}]({target}): {e}"));
        let golden = golden(bin);
        let Some(have) = golden.lines().nth(line_no.wrapping_sub(1)) else {
            bad.push(format!("[{label}]: {bin}.txt has no line {line_no}"));
            continue;
        };
        let (want, have_numbers) = (numbers(label), numbers(have));
        if want.is_empty() || want.iter().any(|n| !have_numbers.contains(n)) {
            bad.push(format!("[{label}] cites {bin}.txt:{line_no}, which reads {have:?}"));
        }
        checked += 1;
    }
    assert!(checked >= 100, "only {checked} citations before \"# Performance log\"");
    assert!(bad.is_empty(), "EXPERIMENTS.md cites numbers its goldens do not print:\n{}", bad.join("\n"));
}

#[test]
fn numbers_read_signs_decimals_and_thousands() {
    assert_eq!(numbers("+3.5 % and −4.7 %"), ["3.5", "-4.7"]);
    assert_eq!(numbers("phase 1 (0..300) -18.5%"), ["1", "0", "300", "-18.5"]);
    assert_eq!(numbers("6,928,120 tuples, t7.c10, ~63 – never"), ["6928120", "7", "10", "63"]);
}
