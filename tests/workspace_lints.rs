//! The workspace's static contracts (DESIGN §9). Clippy holds the
//! determinism, output and panic lints (the root `Cargo.toml`'s
//! `[workspace.lints.clippy]` and `clippy.toml`); these tests run it with
//! `-D warnings`, count library code's `#[expect]`s against [`WAIVER_CAPS`], and
//! hold what clippy cannot: the crate DAG, module orders, metric names, and
//! the tuning guide's table of `ColtConfig` fields.
#![allow(clippy::expect_used, clippy::panic, reason = "test helpers may unwrap and panic")]

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// `#[expect]` waivers per lint in library code (`#[allow]` is no waiver
/// there); a lint not listed caps at zero. Counts equal caps: burning a
/// waiver lowers its cap in the same diff; raising one takes a review.
///
/// The ratchet: 30 at first count (29 panic-policy, 1 output-hygiene).
/// Burned since: the executor's seven panics (typed `ExecError`s), the
/// heap's overflow `expect` (`RowError::Full`), `tpch::summary`'s two
/// `unwrap`s (`tpch::generate` gained one), the aggregation fold's four
/// `expect`s, `ColumnBatch::into_rows`, three of the B+ tree's four leaf
/// `unreachable!`s. The 12 + 1 left became `#[expect]`s, joined by what
/// the old scanner allowlisted by path: the stderr sink, clock and env
/// reads in obs, the parallel harness and bench, the reference hash-join
/// table, and four operators with eight or more arguments — burned when
/// the executor's operators took their shared arguments as one context
/// (`OpCtx`), EXPLAIN ANALYZE returned its text, and both executors'
/// index NL joins took their probe and residual predicates as one pair.
/// OFFLINE's "the DP always holds the empty selection" `expect` went
/// with its private DP. The span guard's and the cell timer's clocks
/// burned when the flame became the one wall-time account, and the B+
/// tree's last leaf `unreachable!` when the tree became its sorted
/// entries, with no internal node to reach.
const WAIVER_CAPS: &[(&str, usize)] = &[
    ("clippy::disallowed_methods", 6),
    ("clippy::disallowed_types", 1),
    ("clippy::expect_used", 7),
    ("clippy::panic", 2),
    ("clippy::print_stderr", 1),
    ("clippy::print_stdout", 1),
    ("clippy::unwrap_used", 1),
];

/// The crate DAG, lowest layer first: a crate's `[dependencies]` name
/// `colt-*` crates of earlier layers only (the root facade names any).
const LAYERS: &[&str] =
    &["obs", "storage", "catalog", "engine", "core workload offline", "harness", "bench"];

/// Module orders, lowest first: a top-level module (not the `lib.rs`
/// facade) may name `crate::n` only for an `n` before it in its list.
const MODULE_ORDERS: &[(&str, &str)] = &[
    ("obs", "json event ledger recorder"),
    ("storage", "value row page prng column heap btree"),
    ("catalog", "schema stats index database"),
    ("engine", "error query plan selectivity cost knapsack batch kernel optimizer executor rowwise \
                whatif"),
    ("core", "config trace cluster crude gain hotset profiler organizer tuner"),
    ("workload", "gen distribution tpch workload presets"),
    ("harness", "runner flight metrics multiclient parallel report"),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `path:line` of a byte offset into `code`.
fn at(rel: &str, code: &str, offset: usize) -> String {
    format!("{rel}:{}", code[..offset].matches('\n').count() + 1)
}

/// Each library file's workspace-relative path, source and code ([`blank`]).
fn library() -> Vec<(String, String, String)> {
    let crates = LAYERS.iter().flat_map(|l| l.split(' ')).map(|k| root().join("crates").join(k));
    let mut dirs: Vec<PathBuf> = crates.chain([root().into()]).map(|d| d.join("src")).collect();
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(dir).expect("read a source directory") {
            let path = entry.expect("a directory entry").path();
            if path.is_dir() && !path.ends_with("bin") {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with("main.rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    let sources = files.into_iter().map(|path| {
        let src = fs::read_to_string(&path).expect("read a source file");
        let rel = path.strip_prefix(root()).expect("a workspace path").to_string_lossy();
        (rel.into_owned(), blank(&src), src)
    });
    sources.collect()
}

/// `src` with comments, string and char literal contents, and every
/// `#[cfg(test)]` item turned to spaces, keeping newlines and offsets.
fn blank(src: &str) -> String {
    let b = src.as_bytes();
    let mut code = b.to_vec();
    let erase = |code: &mut Vec<u8>, from: usize, to: usize| {
        code[from..to.min(b.len())].iter_mut().filter(|c| **c != b'\n').for_each(|c| *c = b' ');
    };
    let mut i = 0;
    while i < b.len() {
        // What to erase: a comment, or the inside of a literal at `i`.
        let (from, to) = match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                (i, b[i..].iter().position(|&c| c == b'\n').map_or(b.len(), |p| i + p))
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                (i + 1, j)
            }
            // A char literal, or else a lifetime.
            b'\'' => {
                let end = match b[i + 1] {
                    b'\\' => b[i + 3..].iter().position(|&c| c == b'\'').map(|p| i + 3 + p),
                    _ => src[i + 1..].chars().next().map(|c| i + 1 + c.len_utf8()),
                };
                (i + 1, end.filter(|&j| b.get(j) == Some(&b'\'')).unwrap_or(i))
            }
            _ => (i + 1, i),
        };
        erase(&mut code, from, to.max(from));
        i = to.max(i) + 1;
    }
    let mut from = 0;
    while let Some(p) = code[from..].windows(12).position(|w| w == b"#[cfg(test)]") {
        // The item ends at its first `;`, or with the block of its first `{`.
        let at = from + p;
        let first = code[at..].iter().position(|&c| c == b'{' || c == b';').map(|q| at + q);
        from = first.map_or(code.len(), |q| if code[q] == b'{' { close(&code, q) } else { q + 1 });
        erase(&mut code, at, from);
    }
    String::from_utf8(code).expect("code outside literals and comments is UTF-8")
}

/// The offset just past the bracket that closes the `(` or `{` at `open`.
fn close(code: &[u8], open: usize) -> usize {
    let (left, right) = if code[open] == b'(' { (b'(', b')') } else { (b'{', b'}') };
    let mut depth = 0usize;
    for (j, &c) in code.iter().enumerate().skip(open) {
        depth += usize::from(c == left);
        depth -= usize::from(c == right);
        if depth == 0 {
            return j + 1;
        }
    }
    code.len()
}

/// The `#[name(…)]` and `#![name(…)]` attributes of `code`: the offset
/// of each and the lints it names.
fn attributes(code: &str, name: &str) -> Vec<(usize, Vec<String>)> {
    let pattern = format!("[{name}(");
    let found = code.match_indices(&pattern).filter(|&(at, _)| code[..at].ends_with(['#', '!']));
    let found = found.map(|(at, _)| {
        let open = at + pattern.len() - 1;
        let args = code[open + 1..close(code.as_bytes(), open) - 1].split(',').map(str::trim);
        (at, args.filter(|a| !a.is_empty() && !a.starts_with("reason")).map(String::from).collect())
    });
    found.collect()
}

fn ident(s: &str) -> &str {
    s.split(|c: char| !c.is_ascii_alphanumeric() && c != '_').next().unwrap_or_default()
}

/// The modules the `crate::…` paths of `code` name, each with its path's
/// offset: the first segment, or each first-level name of a group.
fn crate_edges(code: &str) -> Vec<(usize, &str)> {
    let mut edges = Vec::new();
    let word = |c: char| c == '_' || c == '$' || c.is_ascii_alphanumeric();
    for (at, _) in code.match_indices("crate::").filter(|(at, _)| !code[..*at].ends_with(word)) {
        let start = at + "crate::".len();
        let group = match code[start..].starts_with('{') {
            true => &code[start + 1..close(code.as_bytes(), start) - 1],
            false => ident(&code[start..]),
        };
        let (mut depth, mut piece) = (0usize, 0);
        for (j, c) in group.char_indices().chain([(group.len(), ',')]) {
            depth += usize::from(c == '{');
            depth -= usize::from(c == '}');
            if c == ',' && depth == 0 {
                edges.push((at, ident(group[piece..j].trim_start())));
                piece = j + 1;
            }
        }
    }
    edges
}

#[test]
fn clippy_is_clean() {
    // The workspace's one clippy gate, in a target directory of its own
    // so that it does not wait for the lock of the `cargo test` running it.
    let out = Command::new(env!("CARGO"))
        .args(["clippy", "--workspace", "--all-targets", "--", "-D", "warnings"])
        .current_dir(root())
        .env("CARGO_TARGET_DIR", Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy"))
        .output()
        .expect("spawn cargo");
    assert!(out.status.success(), "clippy:\n{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn waivers_equal_their_caps() {
    let mut sites: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut allows = Vec::new();
    for (rel, code, _) in library() {
        let site = |offset: usize| at(&rel, &code, offset);
        for (offset, lints) in attributes(&code, "expect") {
            lints.into_iter().for_each(|l| sites.entry(l).or_default().push(site(offset)));
        }
        allows.extend(attributes(&code, "allow").iter().map(|(offset, _)| site(*offset)));
    }
    assert!(allows.is_empty(), "library code waives with a counted #[expect]: {allows:#?}");
    let counts: BTreeMap<&str, usize> = sites.iter().map(|(l, s)| (l.as_str(), s.len())).collect();
    let caps: BTreeMap<&str, usize> = WAIVER_CAPS.iter().copied().collect();
    assert_eq!(counts, caps, "#[expect]s (left) must equal WAIVER_CAPS (right): {sites:#?}");
}

#[test]
fn manifests_follow_the_crate_dag() {
    let layer = |k: &str| LAYERS.iter().position(|l| l.split(' ').any(|m| m == k));
    for entry in fs::read_dir(root().join("crates")).expect("read crates/") {
        let krate = entry.expect("a directory entry").file_name().to_string_lossy().into_owned();
        let mine = layer(&krate).unwrap_or_else(|| panic!("crates/{krate} is not in LAYERS"));
        let manifest = fs::read_to_string(root().join(format!("crates/{krate}/Cargo.toml")))
            .expect("read a manifest");
        let deps = manifest.lines().skip_while(|l| l.trim() != "[dependencies]").skip(1);
        for line in deps.take_while(|l| !l.starts_with('[')) {
            let Some(dep) = line.trim().strip_prefix("colt-").map(ident) else { continue };
            let lower = layer(dep).is_some_and(|theirs| theirs < mine);
            assert!(lower, "crates/{krate}/Cargo.toml: colt-{dep} is not below {krate} in LAYERS");
        }
    }
}

#[test]
fn module_edges_follow_each_crate_order() {
    let (files, mut bad) = (library(), Vec::new());
    for &(krate, order) in MODULE_ORDERS {
        let order: Vec<&str> = order.split_whitespace().collect();
        let distinct: BTreeSet<&str> = order.iter().copied().collect();
        assert_eq!(distinct.len(), order.len(), "a module is listed twice in colt-{krate}'s order");
        let dir = format!("crates/{krate}/src/");
        for (rel, code, _) in &files {
            let module = rel.strip_prefix(&dir).and_then(|m| m.strip_suffix(".rs"));
            let Some(module) = module.filter(|m| !m.contains('/') && *m != "lib") else { continue };
            let Some(mine) = order.iter().position(|m| *m == module) else {
                bad.push(format!("{rel}: `{module}` is not in MODULE_ORDERS"));
                continue;
            };
            for (offset, target) in crate_edges(code) {
                if order.iter().position(|m| *m == target).is_some_and(|theirs| theirs > mine) {
                    let site = at(rel, code, offset);
                    bad.push(format!("{site}: `{module}` uses a later `crate::{target}`"));
                }
            }
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn metric_names_are_well_formed_and_owned() {
    // Counters and spans merge by name, so a name is lowercase
    // `area.noun[.verb]` and its area belongs to the emitting crate:
    // colt-core owns the tuner's three, every other area its namesake.
    let segment = |s: &&str| {
        !s.is_empty() && s.bytes().all(|c| matches!(c, b'a'..=b'z' | b'0'..=b'9' | b'_'))
    };
    let mut bad = Vec::new();
    for (rel, code, src) in library() {
        // colt-obs defines the API; the facade crate emits nothing.
        let krate = rel.strip_prefix("crates/").and_then(|r| r.split('/').next());
        let Some(krate) = krate.filter(|k| *k != "obs") else { continue };
        let calls = ["colt_obs::span(", "colt_obs::counter("].map(|c| code.match_indices(c));
        for (offset, call) in calls.into_iter().flatten() {
            // Every string literal in the call is a name: a `match` over
            // access paths may pick it.
            let open = offset + call.len() - 1;
            let quotes = code[open..close(code.as_bytes(), open)].match_indices('"');
            for pair in quotes.map(|(q, _)| open + q).collect::<Vec<_>>().chunks(2) {
                let name = &src[pair[0] + 1..pair[1]];
                let segments: Vec<&str> = name.split('.').collect();
                let owner = match segments[0] {
                    "profiler" | "organizer" | "tuner" => "core",
                    area => area,
                };
                if segments.len() < 2 || !segments.iter().all(segment) || owner != krate {
                    let site = at(&rel, &code, pair[0]);
                    bad.push(format!("{site}: `{name}` is not `area.noun[.verb]` of colt-{krate}"));
                }
            }
        }
    }
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn tuning_guide_lists_the_config_fields_in_order() {
    // docs/TUNING.md explains every knob a caller can set: its table's
    // first column is `ColtConfig`'s `pub` fields, in declaration order.
    let read = |rel: &str| fs::read_to_string(root().join(rel)).expect("read a tracked file");
    let code = blank(&read("crates/core/src/config.rs"));
    let head = "pub struct ColtConfig ";
    let open = code.find(head).expect("ColtConfig in config.rs") + head.len();
    let body = &code[open + 1..close(code.as_bytes(), open) - 1];
    let fields: Vec<&str> =
        body.lines().filter_map(|l| l.trim().strip_prefix("pub ")).map(ident).collect();
    let guide = read("docs/TUNING.md");
    let table = guide.lines().skip_while(|l| !l.starts_with("| parameter |")).skip(2);
    let rows = table.take_while(|l| l.starts_with('|')).map(|l| l.split('`').nth(1).unwrap_or(l));
    let rows: Vec<&str> = rows.collect();
    assert_eq!(rows, fields, "docs/TUNING.md's table (left) must list ColtConfig's fields (right)");
}
