//! The `colt-analyze.toml` manifest: per-crate module DAGs, the
//! charge-coverage allowlist, and per-lint waiver budgets.
//!
//! Parsed with a deliberately minimal TOML-subset reader (sections,
//! bare keys, strings, integers, string arrays — nothing else), so the
//! checker stays zero-dependency. The workspace copy at the repo root
//! is embedded at compile time as the default, which keeps fixture and
//! scratch-tree scans (no manifest on disk) behaving like the real
//! workspace scan.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The embedded workspace manifest (compile-time copy of the repo
/// root's `colt-analyze.toml`).
pub const DEFAULT_MANIFEST: &str = include_str!("../../../colt-analyze.toml");

/// Parsed manifest contents.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// `[modules.<crate>] order = […]`: each crate's module order; a
    /// module may only `use crate::<m>` for modules earlier in the list.
    pub module_order: BTreeMap<String, Vec<String>>,
    /// `[charge-coverage] uncharged = […]`: `Type::fn` (or bare fn)
    /// names allowed to touch page state without an `IoStats` charge.
    pub uncharged: BTreeSet<String>,
    /// `[waiver-budget] <lint> = <cap>`: per-lint waiver caps; lints
    /// not listed have a cap of zero.
    pub waiver_budget: BTreeMap<String, u64>,
}

impl Manifest {
    /// Parse manifest text. Errors name the offending line.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut m = Manifest::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate().peekable();
        while let Some((ln, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((key, mut value)) = line.split_once('=').map(|(k, v)| {
                (k.trim().trim_matches('"').to_string(), v.trim().to_string())
            }) else {
                return Err(format!("line {}: expected `key = value`", ln + 1));
            };
            // A multiline array: keep consuming lines until the `]`.
            if value.starts_with('[') && !value.ends_with(']') {
                for (_, cont) in lines.by_ref() {
                    let cont = strip_comment(cont).trim().to_string();
                    value.push(' ');
                    value.push_str(&cont);
                    if cont.ends_with(']') {
                        break;
                    }
                }
            }
            m.apply(&section, &key, &value, ln + 1)?;
        }
        Ok(m)
    }

    fn apply(&mut self, section: &str, key: &str, value: &str, ln: usize) -> Result<(), String> {
        if let Some(krate) = section.strip_prefix("modules.") {
            if key == "order" {
                self.module_order.insert(krate.to_string(), parse_array(value, ln)?);
            }
            return Ok(());
        }
        match (section, key) {
            ("charge-coverage", "uncharged") => {
                self.uncharged = parse_array(value, ln)?.into_iter().collect();
            }
            ("waiver-budget", lint) => {
                let cap = value
                    .parse::<u64>()
                    .map_err(|_| format!("line {ln}: `{lint}` cap must be an integer"))?;
                self.waiver_budget.insert(lint.to_string(), cap);
            }
            _ => {} // unknown sections/keys are ignored for forward-compat
        }
        Ok(())
    }

    /// The manifest governing a scan of `root`: the on-disk
    /// `colt-analyze.toml` if present and well-formed, else the
    /// embedded workspace default (scratch trees, fixtures). A present
    /// but malformed manifest is returned as an error so CI fails
    /// loudly instead of silently linting against the default.
    pub fn load(root: &Path) -> Result<Manifest, String> {
        match std::fs::read_to_string(root.join("colt-analyze.toml")) {
            Ok(text) => Manifest::parse(&text).map_err(|e| format!("colt-analyze.toml: {e}")),
            Err(_) => Ok(Manifest::embedded()),
        }
    }

    /// The embedded workspace default.
    pub fn embedded() -> Manifest {
        // The unit test below proves the embedded copy parses; if it
        // ever regresses, fall back to an empty manifest (which turns
        // the manifest-driven lints off rather than aborting scans).
        Manifest::parse(DEFAULT_MANIFEST).unwrap_or_default()
    }

    /// The waiver cap for a lint (zero when unlisted).
    pub fn waiver_cap(&self, lint: &str) -> u64 {
        self.waiver_budget.get(lint).copied().unwrap_or(0)
    }
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `[ "a", "b" ]` into its elements.
fn parse_array(value: &str, ln: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("line {ln}: expected a `[ … ]` array"))?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let s = part
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("line {ln}: array elements must be quoted strings"))?;
        out.push(s.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_manifest_parses_and_is_populated() {
        let m = Manifest::parse(DEFAULT_MANIFEST).expect("embedded manifest must parse");
        assert!(m.module_order.contains_key("storage"), "{:?}", m.module_order.keys());
        assert!(m.module_order.contains_key("engine"));
        assert!(m.waiver_budget.contains_key("panic-policy"));
        // Orders must not contain duplicates.
        for (krate, order) in &m.module_order {
            let set: BTreeSet<&String> = order.iter().collect();
            assert_eq!(set.len(), order.len(), "duplicate module in [modules.{krate}]");
        }
    }

    #[test]
    fn parse_sections_and_values() {
        let m = Manifest::parse(
            "# comment\n[modules.demo]\norder = [\"a\", \"b\"]\n\n[charge-coverage]\nuncharged = [\n  \"T::f\", # why\n  \"g\",\n]\n[waiver-budget]\npanic-policy = 3\n",
        )
        .unwrap();
        assert_eq!(m.module_order["demo"], ["a", "b"]);
        assert!(m.uncharged.contains("T::f") && m.uncharged.contains("g"));
        assert_eq!(m.waiver_cap("panic-policy"), 3);
        assert_eq!(m.waiver_cap("wall-clock"), 0);
    }

    #[test]
    fn parse_errors_name_the_line() {
        assert!(Manifest::parse("[waiver-budget]\npanic-policy = many\n").is_err());
        assert!(Manifest::parse("[modules.x]\norder = 3\n").is_err());
        assert!(Manifest::parse("junk\n").is_err());
    }
}
