//! The analyzer's SARIF export must round-trip through the same strict
//! JSON parser CI uses for every other artifact (`colt_obs::json`) —
//! a hand-rolled serializer that emits un-parseable output would fail
//! silently only at upload time.

use colt_obs::json::{parse, Json};

#[test]
fn sarif_export_parses_with_the_strict_parser() {
    // A snippet that trips a real lint (wall-clock in a non-allowlisted
    // crate), whose message text exercises the SARIF string escaper.
    let src = "pub fn f() -> u128 { std::time::Instant::now().elapsed().as_nanos() }\n";
    let violations = colt_analyze::analyze_source("crates/core/src/fixture.rs", src);
    assert!(!violations.is_empty(), "fixture snippet must trip at least one lint");

    let report = colt_analyze::Report {
        files_scanned: 1,
        violations,
        ..colt_analyze::Report::default()
    };
    let doc = parse(&report.to_sarif()).expect("SARIF must parse with colt_obs::json");

    assert_eq!(doc.get("version").and_then(Json::as_str), Some("2.1.0"));
    let run = doc.get("runs").and_then(|r| r.idx(0)).expect("one run");
    let driver = run.get("tool").and_then(|t| t.get("driver")).expect("tool.driver");
    assert_eq!(driver.get("name").and_then(Json::as_str), Some("colt-analyze"));

    // Every lint in the engine is declared as a SARIF rule.
    let rules = driver.get("rules").expect("driver.rules");
    let mut n_rules = 0usize;
    while rules.idx(n_rules).is_some() {
        n_rules += 1;
    }
    assert!(n_rules >= 15, "expected all lints declared as rules, got {n_rules}");

    // Each violation becomes a result carrying its file and line.
    let result = run.get("results").and_then(|r| r.idx(0)).expect("first result");
    assert_eq!(result.get("level").and_then(Json::as_str), Some("error"));
    assert!(result.get("ruleId").and_then(Json::as_str).is_some());
    let loc = result
        .get("locations")
        .and_then(|l| l.idx(0))
        .and_then(|l| l.get("physicalLocation"))
        .expect("physicalLocation");
    assert_eq!(
        loc.get("artifactLocation").and_then(|a| a.get("uri")).and_then(Json::as_str),
        Some("crates/core/src/fixture.rs")
    );
    assert!(loc.get("region").and_then(|r| r.get("startLine")).and_then(Json::as_u64).is_some());
}

#[test]
fn clean_report_sarif_still_parses() {
    // The common CI case: zero violations must still produce a valid
    // document (empty results array), not a degenerate one.
    let report = colt_analyze::Report { files_scanned: 1, ..colt_analyze::Report::default() };
    let doc = parse(&report.to_sarif()).expect("empty SARIF must parse");
    let run = doc.get("runs").and_then(|r| r.idx(0)).expect("one run");
    assert!(run.get("results").and_then(|r| r.idx(0)).is_none(), "no results expected");
}
