//! Content-hash incremental scan cache.
//!
//! One line-oriented file under `target/` maps each scanned path to
//! its FNV-1a content hash plus the post-waiver violations and waiver
//! sites the last scan produced. A file whose hash is unchanged is
//! served from the cache, so a warm full-workspace re-scan is pure
//! hashing (<1s). The cache key folds in the manifest text and a rules
//! revision, so editing `colt-analyze.toml` or shipping new lints
//! invalidates everything at once. Writes go through a
//! temp-file-and-rename so concurrent scans never observe a torn file;
//! any parse mismatch simply degrades to a cold scan.

use crate::rules::{Lint, Violation};
use crate::{Manifest, WaiverSite};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Bump when rule behavior changes so stale caches self-invalidate.
const RULES_REV: u64 = 2;

/// Cached scan results for one file.
#[derive(Debug, Clone)]
pub struct Entry {
    /// FNV-1a 64 hash of the file's bytes.
    pub hash: u64,
    /// Post-waiver violations.
    pub violations: Vec<Violation>,
    /// Non-test waiver sites (budget input).
    pub waivers: Vec<WaiverSite>,
}

/// FNV-1a 64-bit content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The cache file's location for a workspace root.
pub fn cache_path(root: &Path) -> PathBuf {
    root.join("target").join("colt-analyze-cache.txt")
}

/// The scan-wide cache key: manifest text + rules revision + crate
/// version.
pub fn cache_key(manifest: &Manifest) -> u64 {
    let mut text = manifest.source.clone();
    text.push_str(&format!("\nrules-rev={RULES_REV}\nversion={}", env!("CARGO_PKG_VERSION")));
    fnv1a(text.as_bytes())
}

/// Load the cache, returning `None` on any mismatch (missing file,
/// different key, malformed line) — the scan then runs cold.
pub fn load(path: &Path, key: u64) -> Option<BTreeMap<String, Entry>> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    let header = lines.next()?;
    if header != format!("colt-analyze-cache {key:016x}") {
        return None;
    }
    let mut map = BTreeMap::new();
    let mut current: Option<(String, Entry)> = None;
    for line in lines {
        let (tag, rest) = line.split_once(' ')?;
        match tag {
            "F" => {
                if let Some((rel, entry)) = current.take() {
                    map.insert(rel, entry);
                }
                let (hash_hex, rel) = rest.split_once(' ')?;
                let hash = u64::from_str_radix(hash_hex, 16).ok()?;
                current =
                    Some((rel.to_string(), Entry { hash, violations: Vec::new(), waivers: Vec::new() }));
            }
            "V" => {
                let (rel, entry) = current.as_mut()?;
                let mut it = rest.splitn(3, ' ');
                let line_no: u32 = it.next()?.parse().ok()?;
                let lint = Lint::by_name(it.next()?)?;
                let message = it.next()?.to_string();
                entry.violations.push(Violation {
                    file: rel.clone(),
                    line: line_no,
                    lint,
                    message,
                });
            }
            "W" => {
                let (rel, entry) = current.as_mut()?;
                let (line_no, lint) = rest.split_once(' ')?;
                entry.waivers.push(WaiverSite {
                    file: rel.clone(),
                    line: line_no.parse().ok()?,
                    lint: lint.to_string(),
                });
            }
            _ => return None,
        }
    }
    if let Some((rel, entry)) = current.take() {
        map.insert(rel, entry);
    }
    Some(map)
}

/// Persist the cache atomically (temp file + rename). Violation
/// messages never contain newlines (the lexer/rules only emit one-line
/// messages), which keeps the format line-oriented.
pub fn store(path: &Path, key: u64, entries: &[(String, Entry)]) -> std::io::Result<()> {
    let Some(dir) = path.parent() else { return Ok(()) };
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(".colt-analyze-cache.{}.tmp", std::process::id()));
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        writeln!(f, "colt-analyze-cache {key:016x}")?;
        for (rel, e) in entries {
            writeln!(f, "F {:016x} {rel}", e.hash)?;
            for v in &e.violations {
                writeln!(f, "V {} {} {}", v.line, v.lint.name(), v.message.replace('\n', " "))?;
            }
            for w in &e.waivers {
                writeln!(f, "W {} {}", w.line, w.lint)?;
            }
        }
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_content_sensitive() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"colt"), fnv1a(b"colt"));
    }

    #[test]
    fn round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("colt-analyze-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.txt");
        let entries = vec![
            (
                "crates/core/src/x.rs".to_string(),
                Entry {
                    hash: 42,
                    violations: vec![Violation {
                        file: "crates/core/src/x.rs".into(),
                        line: 7,
                        lint: Lint::PanicPolicy,
                        message: "a message with spaces".into(),
                    }],
                    waivers: vec![WaiverSite {
                        file: "crates/core/src/x.rs".into(),
                        line: 3,
                        lint: "panic-policy".into(),
                    }],
                },
            ),
            ("crates/core/src/y.rs".to_string(), Entry { hash: 9, violations: vec![], waivers: vec![] }),
        ];
        store(&path, 0xabc, &entries).unwrap();
        let back = load(&path, 0xabc).unwrap();
        assert_eq!(back.len(), 2);
        let x = &back["crates/core/src/x.rs"];
        assert_eq!(x.hash, 42);
        assert_eq!(x.violations.len(), 1);
        assert_eq!(x.violations[0].line, 7);
        assert_eq!(x.violations[0].message, "a message with spaces");
        assert_eq!(x.waivers[0].line, 3);
        // Key mismatch → cold scan.
        assert!(load(&path, 0xdef).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
