//! CLI for the workspace invariant checker.
//!
//! ```text
//! colt-analyze --check [--root <path>] [--waivers] [--github]
//! colt-analyze --list                             # lint catalogue
//! colt-analyze --explain <lint>                   # long-form description
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use colt_analyze::rules::Lint;

const USAGE: &str = "\
colt-analyze: workspace invariant checker

USAGE:
    colt-analyze --check [--root <path>] [--waivers] [--github]
    colt-analyze --list
    colt-analyze --explain <lint-name>

MODES:
    --check     Scan every .rs file under the workspace root and report
                violations as `file:line: lint-name: message`.
                Exit code 0 if clean, 1 if violations were found.
    --waivers   With --check: also print the per-lint waiver budget
                table and fail (exit 1) when any [waiver-budget] cap
                from colt-analyze.toml is exceeded.
    --github    With --check: also emit GitHub `::error` workflow
                annotations for each violation.
    --root      Override the workspace root (default: inferred from the
                crate's own location).
    --list      Print the lint catalogue (name + one-line summary).
    --explain   Print the long-form description of one lint.
";

/// Escape a value for a GitHub workflow-command message.
fn gh_escape(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<&str> = None;
    let mut waivers = false;
    let mut github = false;
    let mut root: Option<PathBuf> = None;
    let mut explain_target: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => mode = Some("check"),
            "--list" => mode = Some("list"),
            "--explain" => {
                mode = Some("explain");
                i += 1;
                match args.get(i) {
                    Some(name) => explain_target = Some(name.clone()),
                    None => {
                        eprintln!("error: --explain requires a lint name\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--waivers" => waivers = true,
            "--github" => github = true,
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(p) => root = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("error: --root requires a path\n\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    match mode {
        Some("list") => {
            for lint in Lint::all() {
                println!("{:<18} {}", lint.name(), lint.summary());
            }
            ExitCode::SUCCESS
        }
        Some("explain") => {
            let name = explain_target.unwrap_or_default();
            match Lint::by_name(&name) {
                Some(lint) => {
                    println!("{}: {}\n\n{}", lint.name(), lint.summary(), lint.explain());
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("error: unknown lint `{name}`; try --list");
                    ExitCode::from(2)
                }
            }
        }
        Some("check") => {
            let root = root.unwrap_or_else(colt_analyze::workspace_root);
            match colt_analyze::check_workspace(&root) {
                Ok(report) => {
                    print!("{}", report.render());
                    if github {
                        for v in &report.violations {
                            println!(
                                "::error file={},line={},title=colt-analyze {}::{}",
                                v.file,
                                v.line,
                                v.lint.name(),
                                gh_escape(&v.message)
                            );
                        }
                    }
                    let mut over_budget = false;
                    if waivers {
                        let manifest = match colt_analyze::Manifest::load(&root) {
                            Ok(m) => m,
                            Err(e) => {
                                eprintln!("error: {e}");
                                return ExitCode::from(2);
                            }
                        };
                        let (table, over) = report.render_waivers(&manifest);
                        print!("{table}");
                        over_budget = over;
                    }
                    if report.is_clean() && !over_budget {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("error: scan of {} failed: {e}", root.display());
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("error: pick one of --check, --list, --explain\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
