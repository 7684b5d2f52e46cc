//! The examples' record: the stdout of every `examples/*.rs`, checked in
//! under `tests/golden/`, must be what the example prints, byte for
//! byte. `whatif_explorer` (what-if gains, index builds) runs the heap's
//! encodings end to end.
//!
//! `cargo test` builds the examples before it runs any test; the test
//! runs the binaries it left in the target directory (run this file
//! alone after `cargo build --examples`). A change that moves an
//! example's output on purpose re-blesses its golden in the same diff,
//! so every moved line is in it. From the repo root:
//!
//! ```text
//! for ex in interactive_analysis quickstart self_regulation whatif_explorer; do
//!   cargo run -q --offline --example $ex > tests/golden/$ex.txt 2>/dev/null
//! done
//! ```
#![allow(clippy::panic, clippy::expect_used, reason = "test helpers may unwrap and panic")]

use std::path::{Path, PathBuf};
use std::process::Command;

const EXAMPLES: [&str; 4] = ["interactive_analysis", "quickstart", "self_regulation", "whatif_explorer"];

/// Where cargo put the example binaries of this test's profile: beside
/// the test binary's `deps` directory.
fn examples_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the test binary's path");
    let profile = exe.parent().and_then(Path::parent).expect("target/<profile>/deps/<test>");
    profile.join("examples")
}

#[test]
fn every_example_is_listed() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut found: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples/")
        .filter_map(|e| e.ok()?.file_name().to_str()?.strip_suffix(".rs").map(String::from))
        .collect();
    found.sort();
    assert_eq!(found, EXAMPLES, "add the new example to EXAMPLES and bless its golden");
}

#[test]
fn example_stdout_matches_its_golden() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut failures = Vec::new();
    for example in EXAMPLES {
        let exe = examples_dir().join(example);
        let out = Command::new(&exe)
            .output()
            .unwrap_or_else(|e| panic!("run {}: {e} (build it: cargo build --examples)", exe.display()));
        assert!(out.status.success(), "{example} exited with {}", out.status);
        let got = String::from_utf8(out.stdout).expect("utf-8 stdout");
        let want = std::fs::read_to_string(golden.join(format!("{example}.txt")))
            .unwrap_or_else(|e| panic!("{example}'s golden: {e}"));
        if got != want {
            let line = (want.lines().zip(got.lines()).position(|(w, g)| w != g))
                .unwrap_or_else(|| want.lines().count().min(got.lines().count()));
            failures.push(format!(
                "{example}, line {}:\n  golden  {:?}\n  got     {:?}",
                line + 1,
                want.lines().nth(line),
                got.lines().nth(line)
            ));
        }
    }
    assert!(failures.is_empty(), "examples left their goldens:\n{}", failures.join("\n"));
}
