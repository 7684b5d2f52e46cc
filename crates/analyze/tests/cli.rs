//! End-to-end exit-code contract for the `colt-analyze` binary:
//! 0 on a clean tree, 1 when violations are found, 2 on usage errors.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_colt-analyze"))
}

/// A scratch tree under target/ (unique per test to allow parallelism).
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/analyze-cli-tests")
        .join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("reset scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write(root: &Path, rel: &str, src: &str) {
    let path = root.join(rel);
    std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    std::fs::write(path, src).expect("write source");
}

#[test]
fn check_exits_zero_on_clean_tree() {
    let root = scratch("clean");
    write(&root, "crates/core/src/lib.rs", "pub fn ok() -> u32 { 1 }\n");
    let out = bin().args(["--check", "--root"]).arg(&root).output().expect("run");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn check_exits_one_on_violation_and_names_it() {
    let root = scratch("dirty");
    write(
        &root,
        "crates/engine/src/lib.rs",
        "pub fn shout() { println!(\"hi\"); }\n",
    );
    let out = bin().args(["--check", "--root"]).arg(&root).output().expect("run");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/engine/src/lib.rs:1: output-hygiene:"),
        "missing file:line: lint prefix in:\n{stdout}"
    );
}

#[test]
fn every_violation_fixture_fails_the_binary() {
    // The ISSUE's acceptance bar: --check exits non-zero on every fixture
    // violation, run end-to-end through the binary.
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&fixtures)
        .expect("fixtures dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().ends_with("_violation.rs"))
        })
        .collect();
    entries.sort();
    assert!(!entries.is_empty());
    for fixture in entries {
        let src = std::fs::read_to_string(&fixture).expect("fixture readable");
        let first = src.lines().next().unwrap_or_default();
        let rel = first
            .split_whitespace()
            .find_map(|p| p.strip_prefix("path="))
            .expect("directive path");
        let name = fixture.file_name().expect("name").to_string_lossy().to_string();
        let root = scratch(name.trim_end_matches(".rs"));
        write(&root, rel, &src);
        let out = bin().args(["--check", "--root"]).arg(&root).output().expect("run");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name}: expected exit 1, got {:?}\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn list_and_explain_succeed() {
    let out = bin().arg("--list").output().expect("run");
    assert_eq!(out.status.code(), Some(0));
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(listing.contains("hash-iteration"), "{listing}");

    let out = bin().args(["--explain", "layering"]).output().expect("run");
    assert_eq!(out.status.code(), Some(0));

    let out = bin().args(["--explain", "no-such-lint"]).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn bad_usage_exits_two() {
    let out = bin().arg("--frobnicate").output().expect("run");
    assert_eq!(out.status.code(), Some(2));
}
