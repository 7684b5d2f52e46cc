//! The exhibits' record: the stdout of the ten exhibit bins and
//! `report` at EXPERIMENTS' scale and seed (`COLT_SCALE=0.025`,
//! `COLT_SEED=42`), checked in under `tests/golden/`, must be what the
//! bins print at 1 and at 4 threads, byte for byte. The same runs write
//! their `COLT_OBS_PATH` dump, and its flight recorder (the `decision`
//! and `series_epoch` lines) must not depend on the thread count either;
//! `table1` writes none.
//!
//! A change that moves an exhibit on purpose re-blesses the goldens in
//! the same diff, so every moved line is in it. From the repo root:
//!
//! ```text
//! for bin in table1 fig3 fig4 fig5 fig6 ablation multiuser scaling composite_ext skew report; do
//!   COLT_SCALE=0.025 COLT_SEED=42 COLT_THREADS=1 cargo run -q --offline -p colt-bench --bin $bin \
//!     > crates/bench/tests/golden/$bin.txt 2>/dev/null
//! done
//! ```
#![allow(clippy::panic, reason = "test helpers may unwrap and panic")]

use colt_obs::json::parse;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const BINS: [(&str, &str); 11] = [
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("fig3", env!("CARGO_BIN_EXE_fig3")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("multiuser", env!("CARGO_BIN_EXE_multiuser")),
    ("scaling", env!("CARGO_BIN_EXE_scaling")),
    ("composite_ext", env!("CARGO_BIN_EXE_composite_ext")),
    ("skew", env!("CARGO_BIN_EXE_skew")),
    ("report", env!("CARGO_BIN_EXE_report")),
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
        .env("COLT_SEED", "42")
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

#[test]
fn exhibit_stdout_matches_its_golden_at_1_and_4_threads() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let (mut moved, mut threaded) = (Vec::new(), Vec::new());
    for (bin, exe) in BINS {
        let want_path = golden.join(format!("{bin}.txt"));
        let want = std::fs::read_to_string(&want_path)
            .unwrap_or_else(|e| panic!("read {}: {e}", want_path.display()));
        // Two runs at a time, one per thread count.
        let runs = ["1", "4"].map(|threads| (threads, spawn(bin, exe, threads)));
        for (threads, child) in runs {
            let out = child.wait_with_output().unwrap_or_else(|e| panic!("wait for {bin}: {e}"));
            assert!(out.status.success(), "{bin} (COLT_THREADS={threads}) exited with {}", out.status);
            let got = String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{bin} stdout: {e}"));
            if got != want {
                moved.push(format!("{bin} at {threads} thread(s), {}", first_difference(&want, &got, ["golden:", "bin:"])));
            }
        }
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
    assert!(moved.is_empty(), "exhibit output moved (re-bless only on purpose):\n{}", moved.join("\n"));
    assert!(threaded.is_empty(), "flight recorder differs at 1 vs 4 threads:\n{}", threaded.join("\n"));
    // `ablation` runs its two tables as one batch, so its dump holds the
    // shifting table's boundaries (to epoch 134 at this scale, as
    // `fig4`'s do), not the stable table's alone (to epoch 49).
    let ablation = flight_recorder("ablation", "1").unwrap_or_default();
    let decisions = ablation.lines().filter(|l| l.starts_with("{\"decision\""));
    let last = decisions.filter_map(|l| parse(l).ok()?.get("epoch")?.as_u64()).max();
    assert!(last >= Some(134), "ablation's decision lines end at epoch {last:?}, not the shifting table's 134");
}
