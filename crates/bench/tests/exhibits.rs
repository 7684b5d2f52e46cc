//! The exhibits' record: the stdout of the ten exhibit bins and
//! `report` at EXPERIMENTS' scale and seed (`COLT_SCALE=0.025`,
//! `COLT_SEED=42`), checked in under `tests/golden/`, must be what the
//! bins print at 1 and at 4 threads, byte for byte.
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

use std::path::Path;
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

fn spawn(exe: &str, threads: &str) -> Child {
    Command::new(exe)
        .env("COLT_SCALE", "0.025")
        .env("COLT_SEED", "42")
        .env("COLT_THREADS", threads)
        .env_remove("COLT_OBS")
        .env_remove("COLT_OBS_PATH")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

/// The first line where `got` leaves `want`, for the failure message.
fn first_difference(want: &str, got: &str) -> String {
    let (mut want_lines, mut got_lines) = (want.lines(), got.lines());
    for line in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (None, None) => break,
            (w, g) if w == g => continue,
            (w, g) => return format!("line {line}:\n  golden: {w:?}\n  bin:    {g:?}"),
        }
    }
    "only in line endings".to_string()
}

#[test]
fn exhibit_stdout_matches_its_golden_at_1_and_4_threads() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut moved = Vec::new();
    for (bin, exe) in BINS {
        let want_path = golden.join(format!("{bin}.txt"));
        let want = std::fs::read_to_string(&want_path)
            .unwrap_or_else(|e| panic!("read {}: {e}", want_path.display()));
        // Two runs at a time, one per thread count.
        let runs = ["1", "4"].map(|threads| (threads, spawn(exe, threads)));
        for (threads, child) in runs {
            let out = child.wait_with_output().unwrap_or_else(|e| panic!("wait for {bin}: {e}"));
            assert!(out.status.success(), "{bin} (COLT_THREADS={threads}) exited with {}", out.status);
            let got = String::from_utf8(out.stdout).unwrap_or_else(|e| panic!("{bin} stdout: {e}"));
            if got != want {
                moved.push(format!("{bin} at {threads} thread(s), {}", first_difference(&want, &got)));
            }
        }
    }
    assert!(moved.is_empty(), "exhibit output moved (re-bless only on purpose):\n{}", moved.join("\n"));
}
