//! # colt-analyze
//!
//! Workspace invariant checker: a lightweight, zero-dependency static
//! pass that walks every `.rs` file in the workspace and enforces the
//! project's determinism, layering, and output-hygiene contracts as
//! named lints (see [`rules::Lint`] and DESIGN.md, "Static analysis &
//! invariants").
//!
//! The contracts it guards are the ones CI otherwise checks only by
//! end-to-end diff of one binary at one scale: bit-identical artifacts
//! at 1 vs N threads, byte-identical stdout across `COLT_OBS` levels,
//! and replayable seeding. A stray `HashMap` iteration or `println!` in
//! a library crate breaks every exhibit at once; this pass proves the
//! invariants over the whole tree on every `cargo test`.
//!
//! The single escape hatch for every lint is a waiver comment on the
//! flagged line or the line directly above:
//!
//! ```text
//! // colt: allow(<lint-name>) — <reason>
//! ```
//!
//! Waivers without a reason, and waivers that no longer suppress
//! anything, are themselves errors — the exception set cannot rot.

#![warn(missing_docs)]

pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod syntax;

pub use lexer::{Lexed, Waiver};
pub use manifest::Manifest;
pub use rules::{Kind, Lint, Violation};
pub use syntax::SyntaxIndex;

use std::io;
use std::path::{Path, PathBuf};

/// One classified, lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// `crates/<name>/…` → `Some(name)`; root files → `None`.
    pub crate_name: Option<String>,
    /// Library / binary / test role.
    pub kind: Kind,
    /// Lexed tokens and waivers.
    pub lexed: Lexed,
    /// `#[cfg(test)]` line regions.
    pub test_regions: Vec<(u32, u32)>,
    /// Item structure, block tree, and early-exit edges.
    pub syntax: SyntaxIndex,
}

/// One waiver annotation found in non-test code (the unit the waiver
/// budget counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Waived lint name, as written.
    pub lint: String,
}

/// Classify a workspace-relative path into (crate, kind).
pub fn classify(rel: &str) -> (Option<String>, Kind) {
    let mut crate_name = None;
    let mut inner = rel;
    if let Some(rest) = rel.strip_prefix("crates/") {
        if let Some((name, tail)) = rest.split_once('/') {
            crate_name = Some(name.to_string());
            inner = tail;
        }
    }
    let kind = if inner.starts_with("tests/")
        || inner.starts_with("benches/")
        || inner.starts_with("examples/")
        || inner == "build.rs"
    {
        Kind::Test
    } else if inner.starts_with("src/bin/") || inner == "src/main.rs" {
        Kind::Bin
    } else {
        Kind::Lib
    };
    (crate_name, kind)
}

/// Lex + classify one file's source.
pub fn load_source(rel: &str, src: &str) -> SourceFile {
    let (crate_name, kind) = classify(rel);
    let lexed = lexer::lex(src);
    let test_regions = rules::test_regions(&lexed.tokens);
    let syntax = SyntaxIndex::build(&lexed.tokens);
    SourceFile { rel: rel.to_string(), crate_name, kind, lexed, test_regions, syntax }
}

/// Analyze one file (rules + waiver application) — the unit the fixture
/// corpus exercises. `rel` decides crate and kind, so fixtures can
/// impersonate any location (e.g. `crates/core/src/x.rs`). Uses the
/// embedded workspace manifest.
pub fn analyze_source(rel: &str, src: &str) -> Vec<Violation> {
    analyze_source_with(rel, src, &Manifest::embedded())
}

/// [`analyze_source`] against an explicit manifest.
pub fn analyze_source_with(rel: &str, src: &str, manifest: &Manifest) -> Vec<Violation> {
    let file = load_source(rel, src);
    let raw = rules::check_file(&file, manifest);
    apply_waivers(&file, raw)
}

/// The waiver annotations in one file that count against the budget:
/// everything outside test code (test-region waivers are exempt from
/// unused-waiver and never suppress anything the budget cares about).
fn waiver_sites(file: &SourceFile) -> Vec<WaiverSite> {
    if file.kind == Kind::Test {
        return Vec::new();
    }
    file.lexed
        .waivers
        .iter()
        .filter(|w| !file.test_regions.iter().any(|&(a, b)| w.line >= a && w.line <= b))
        .map(|w| WaiverSite { file: file.rel.clone(), line: w.line, lint: w.lint.clone() })
        .collect()
}

/// Apply the file's waivers to its raw violations: suppress matches,
/// then report bad and unused waivers.
fn apply_waivers(file: &SourceFile, raw: Vec<Violation>) -> Vec<Violation> {
    let in_test = |line: u32| {
        file.kind == Kind::Test
            || file.test_regions.iter().any(|&(a, b)| line >= a && line <= b)
    };
    let mut used = vec![false; file.lexed.waivers.len()];
    let mut out = Vec::new();
    for v in raw {
        let mut suppressed = false;
        for (wi, w) in file.lexed.waivers.iter().enumerate() {
            let covers = w.line == v.line || w.line + 1 == v.line;
            if covers && !w.reason.is_empty() && w.lint == v.lint.name() {
                used[wi] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            out.push(v);
        }
    }
    for (wi, w) in file.lexed.waivers.iter().enumerate() {
        if w.reason.is_empty() {
            out.push(Violation {
                file: file.rel.clone(),
                line: w.line,
                lint: Lint::BadWaiver,
                message: format!("waiver for `{}` has no reason; write `// colt: allow({}) — <why>`", w.lint, w.lint),
            });
        } else if Lint::by_name(&w.lint).is_none() {
            out.push(Violation {
                file: file.rel.clone(),
                line: w.line,
                lint: Lint::BadWaiver,
                message: format!("waiver names unknown lint `{}`", w.lint),
            });
        } else if !used[wi] && !in_test(w.line) {
            out.push(Violation {
                file: file.rel.clone(),
                line: w.line,
                lint: Lint::UnusedWaiver,
                message: format!("waiver for `{}` suppresses nothing; remove it", w.lint),
            });
        }
    }
    out.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    out
}

/// The outcome of a workspace scan.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Violations after waiver application, sorted by file/line.
    pub violations: Vec<Violation>,
    /// Non-test waiver annotations (the waiver budget's input).
    pub waivers: Vec<WaiverSite>,
}

impl Report {
    /// No violations?
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// `file:line: lint: message` lines plus a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "colt-analyze: {} file(s) scanned, {} violation(s)\n",
            self.files_scanned,
            self.violations.len()
        ));
        out
    }

    /// The per-lint waiver budget table and whether any cap is
    /// exceeded. Caps come from `[waiver-budget]` in the manifest;
    /// unlisted lints cap at zero.
    pub fn render_waivers(&self, manifest: &Manifest) -> (String, bool) {
        let mut counts: Vec<(String, Vec<&WaiverSite>)> = Vec::new();
        for w in &self.waivers {
            match counts.iter_mut().find(|(l, _)| *l == w.lint) {
                Some((_, sites)) => sites.push(w),
                None => counts.push((w.lint.clone(), vec![w])),
            }
        }
        counts.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::from("## Waiver budget\n\n");
        out.push_str(&format!("{:<18} {:>7} {:>5} {:>9}\n", "lint", "waivers", "cap", "headroom"));
        let mut over = false;
        for (lint, sites) in &counts {
            let cap = manifest.waiver_cap(lint);
            let n = sites.len() as u64;
            let status = if n > cap {
                over = true;
                "OVER".to_string()
            } else {
                (cap - n).to_string()
            };
            out.push_str(&format!("{lint:<18} {n:>7} {cap:>5} {status:>9}\n"));
            if n > cap {
                for s in sites {
                    out.push_str(&format!("    over-cap site: {}:{}\n", s.file, s.line));
                }
            }
        }
        // Caps for lints that currently have no waivers at all are
        // stale headroom: surface them so they get ratcheted to zero.
        for (lint, cap) in &manifest.waiver_budget {
            if *cap > 0 && !counts.iter().any(|(l, _)| l == lint) {
                out.push_str(&format!(
                    "{lint:<18} {0:>7} {cap:>5} {cap:>9}  (cap is stale: ratchet to 0)\n",
                    0
                ));
            }
        }
        out.push_str(&format!("{:<18} {:>7}\n", "total", self.waivers.len()));
        (out, over)
    }
}

/// Paths (relative, `/`-separated) never scanned: build output, VCS
/// metadata, and the deliberately-dirty fixture corpus.
fn skip_dir(rel: &str) -> bool {
    rel == "target"
        || rel == ".git"
        || rel.starts_with("target/")
        || rel.ends_with("/target")
        || rel == "crates/analyze/tests/fixtures"
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        let rel = rel_of(root, &path);
        if path.is_dir() {
            if !skip_dir(&rel) {
                walk(root, &path, out)?;
            }
        } else if rel.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Scan the workspace rooted at `root` and run every rule over every
/// `.rs` file, under the manifest found there (the CLI and other
/// crates' test suites both call this).
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let manifest =
        Manifest::load(root).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    let mut report = Report::default();
    for path in files {
        let rel = rel_of(root, &path);
        let src = std::fs::read_to_string(&path)?;
        report.files_scanned += 1;
        let file = load_source(&rel, &src);
        let raw = rules::check_file(&file, &manifest);
        report.violations.extend(apply_waivers(&file, raw));
        report.waivers.extend(waiver_sites(&file));
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(report)
}

/// The workspace root, derived from this crate's manifest directory
/// (`crates/analyze` → two levels up). Valid both for the CLI and for
/// other crates' test suites that link the library.
pub fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("crates/core/src/cluster.rs"), (Some("core".into()), Kind::Lib));
        assert_eq!(classify("crates/bench/src/bin/fig3.rs"), (Some("bench".into()), Kind::Bin));
        assert_eq!(classify("crates/bench/benches/btree.rs"), (Some("bench".into()), Kind::Test));
        assert_eq!(classify("crates/catalog/tests/t.rs"), (Some("catalog".into()), Kind::Test));
        assert_eq!(classify("src/lib.rs"), (None, Kind::Lib));
        assert_eq!(classify("src/main.rs"), (None, Kind::Bin));
        assert_eq!(classify("tests/end_to_end.rs"), (None, Kind::Test));
        assert_eq!(classify("examples/quickstart.rs"), (None, Kind::Test));
    }

    #[test]
    fn waiver_suppresses_same_and_next_line() {
        let src = "\
fn f(x: Option<u8>) -> u8 {
    // colt: allow(panic-policy) — caller checked is_some
    x.unwrap()
}
fn g(x: Option<u8>) -> u8 {
    x.unwrap() // colt: allow(panic-policy) — caller checked is_some
}
";
        let v = analyze_source("crates/core/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn waiver_wrong_lint_does_not_suppress() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // colt: allow(wall-clock) — wrong lint\n}\n";
        let v = analyze_source("crates/core/src/x.rs", src);
        let lints: Vec<&str> = v.iter().map(|x| x.lint.name()).collect();
        assert!(lints.contains(&"panic-policy"), "{v:?}");
        assert!(lints.contains(&"unused-waiver"), "{v:?}");
    }

    #[test]
    fn waiver_without_reason_is_bad() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // colt: allow(panic-policy)\n}\n";
        let v = analyze_source("crates/core/src/x.rs", src);
        let lints: Vec<&str> = v.iter().map(|x| x.lint.name()).collect();
        assert!(lints.contains(&"bad-waiver"), "{v:?}");
        assert!(lints.contains(&"panic-policy"), "reasonless waiver must not suppress: {v:?}");
    }

    #[test]
    fn unknown_lint_waiver_is_bad() {
        let src = "// colt: allow(made-up-lint) — whatever\nfn f() {}\n";
        let v = analyze_source("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, Lint::BadWaiver);
    }

    #[test]
    fn unused_waiver_reported() {
        let src = "// colt: allow(panic-policy) — nothing here panics\nfn f() {}\n";
        let v = analyze_source("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, Lint::UnusedWaiver);
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
fn lib_ok() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let x: Option<u8> = Some(1);
        x.unwrap();
        println!(\"test output is fine\");
    }
}
";
        let v = analyze_source("crates/core/src/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
        let v = analyze_source("crates/core/tests/integration.rs", "fn f(x: Option<u8>) { x.unwrap(); }");
        assert!(v.is_empty(), "{v:?}");
    }
}
