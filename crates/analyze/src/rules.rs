//! The lint catalogue and per-file rule checks.
//!
//! Each lint enforces one workspace contract (see DESIGN.md, "Static
//! analysis & invariants"). Token-level rules match identifiers and
//! punctuation straight off [`crate::lexer::lex`]'s stream; the
//! flow-sensitive rules (span-pairing, charge-coverage, module-dag)
//! additionally consult the per-file [`crate::syntax::SyntaxIndex`] and
//! the workspace [`crate::manifest::Manifest`]. Either way the pass
//! stays fast, dependency-free, and immune to comment/string false
//! positives.

use crate::lexer::{ident, str_lit, Tok, Token};
use crate::manifest::Manifest;
use crate::syntax::ExitKind;
use crate::SourceFile;
use std::collections::BTreeSet;

/// A named workspace invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// Wall-clock reads outside the observability/harness allowlist.
    WallClock,
    /// Iteration over `HashMap`/`HashSet` in result-producing crates.
    HashIteration,
    /// A `colt_*` import that violates the crate layering DAG.
    Layering,
    /// stdout/stderr writes outside the sanctioned sinks.
    OutputHygiene,
    /// `unwrap`/`expect`/`panic!` in non-test library code.
    PanicPolicy,
    /// Ambient randomness or env-dependent behavior in the kernel.
    NondetSeed,
    /// A metric name literal that breaks the `area.noun[.verb]`
    /// convention or whose area prefix doesn't match the emitting crate.
    MetricName,
    /// A `colt_obs::span` guard that is discarded or whose `.sim_ms()`
    /// can be skipped by an early exit.
    SpanPairing,
    /// A public colt-storage fn that touches page state without
    /// charging `IoStats` (and is not on the manifest allowlist).
    ChargeCoverage,
    /// An intra-crate `use crate::…` edge that violates the module
    /// order declared in `colt-analyze.toml`.
    ModuleDag,
    /// A waiver annotation without a justification.
    BadWaiver,
    /// A waiver annotation that suppressed nothing.
    UnusedWaiver,
}

impl Lint {
    /// Every lint, in reporting order.
    pub fn all() -> &'static [Lint] {
        &[
            Lint::WallClock,
            Lint::HashIteration,
            Lint::Layering,
            Lint::OutputHygiene,
            Lint::PanicPolicy,
            Lint::NondetSeed,
            Lint::MetricName,
            Lint::SpanPairing,
            Lint::ChargeCoverage,
            Lint::ModuleDag,
            Lint::BadWaiver,
            Lint::UnusedWaiver,
        ]
    }

    /// The kebab-case name used in reports and waivers.
    pub fn name(self) -> &'static str {
        match self {
            Lint::WallClock => "wall-clock",
            Lint::HashIteration => "hash-iteration",
            Lint::Layering => "layering",
            Lint::OutputHygiene => "output-hygiene",
            Lint::PanicPolicy => "panic-policy",
            Lint::NondetSeed => "nondet-seed",
            Lint::MetricName => "metric-name",
            Lint::SpanPairing => "span-pairing",
            Lint::ChargeCoverage => "charge-coverage",
            Lint::ModuleDag => "module-dag",
            Lint::BadWaiver => "bad-waiver",
            Lint::UnusedWaiver => "unused-waiver",
        }
    }

    /// Look a lint up by its report name.
    pub fn by_name(name: &str) -> Option<Lint> {
        Lint::all().iter().copied().find(|l| l.name() == name)
    }

    /// One-line summary (for `--list`).
    pub fn summary(self) -> &'static str {
        match self {
            Lint::WallClock => "no Instant/SystemTime outside colt-obs, the parallel harness, and colt-bench",
            Lint::HashIteration => "no HashMap/HashSet iteration in colt-core/colt-engine (order is nondeterministic)",
            Lint::Layering => "colt_* imports must follow the DAG obs < storage < catalog < engine < {core, workload, offline} < harness < bench",
            Lint::OutputHygiene => "stdout only in bench bins / harness report; stderr only through the colt-obs sink",
            Lint::PanicPolicy => "no unwrap/expect/panic!/unreachable!/todo! in non-test library code",
            Lint::NondetSeed => "no ambient randomness anywhere; no env reads in the deterministic kernel crates",
            Lint::MetricName => "span/counter names must be dot-separated `area.noun[.verb]` with an area prefix owned by the emitting crate",
            Lint::SpanPairing => "a colt_obs::span guard must be bound (not `_`) and reach its .sim_ms() on every path",
            Lint::ChargeCoverage => "public colt-storage fns touching heap/btree page state must charge IoStats or be allowlisted",
            Lint::ModuleDag => "intra-crate `use crate::…` edges must follow the module order in colt-analyze.toml",
            Lint::BadWaiver => "every waiver must carry a justification after the dash",
            Lint::UnusedWaiver => "a waiver that suppresses nothing is an error (it has rotted)",
        }
    }

    /// Full rationale (for `--explain`).
    pub fn explain(self) -> &'static str {
        match self {
            Lint::WallClock => "The experiment pipeline's headline contract is bit-identical \
artifacts at any thread count and any COLT_OBS level. Reading the wall clock \
(std::time::Instant / SystemTime) inside result-producing code couples output to \
scheduling. Wall-clock reads are confined to colt-obs (span timing), \
colt-harness's parallel driver (cell wall-time, stderr only), and colt-bench \
(micro-benchmark runner). Everything else must use the simulated clock that the \
cost model provides.",
            Lint::HashIteration => "std::collections::HashMap/HashSet iterate in an order that \
depends on the process-random hasher seed, so any result derived from iteration \
order is nondeterministic across runs. In colt-core and colt-engine — the crates \
that produce experiment results — maps that are iterated must be BTreeMap/BTreeSet \
or must sort before iterating, and hash-keyed struct fields (persistent state) are \
flagged even without iteration. Pure point-lookup hash map locals (e.g. a hash-join \
build table) are fine and are not flagged.",
            Lint::Layering => "Crates form a DAG: obs < storage < catalog < engine < \
{core, workload, offline} < harness < bench. A lower layer importing a higher one \
(e.g. colt-engine using colt_core) creates a cycle Cargo may tolerate via dev-deps \
but the architecture does not. The checker flags any colt_* path reference outside \
the importing crate's allowed set. Test code is exempt (dev-dependencies are not \
part of the runtime DAG).",
            Lint::OutputHygiene => "Experiment stdout is a diffable artifact: CI compares it \
byte-for-byte across thread counts and COLT_OBS levels. A stray println! in a \
library crate breaks every exhibit at once. stdout writes are allowed only in \
colt-bench's binaries, colt-analyze's own CLI, and colt_harness::report; stderr \
writes only inside colt-obs's sink (everything else routes diagnostics through \
colt_obs::progress).",
            Lint::PanicPolicy => "Library code must surface failures to the caller, not abort \
the process: a panic inside the tuner kills a whole parallel batch. unwrap(), \
expect(), panic!, unreachable!, todo! and unimplemented! are banned in non-test \
library code unless the line carries a waiver naming the invariant that makes the \
panic unreachable.",
            Lint::NondetSeed => "All randomness flows from colt_core::prng::Prng (or \
colt-storage's local copy) seeded explicitly from configuration, so every run is \
replayable. Ambient sources (RandomState, DefaultHasher, thread_rng, from_entropy) \
are banned everywhere; reading the environment (std::env::var) is banned inside \
the deterministic kernel crates (storage, catalog, engine, core, workload, \
offline) — configuration enters through ColtConfig, not ambient state.",
            Lint::MetricName => "Counters and spans are merged across run cells and \
rendered into exhibit tables by name, so a malformed or mis-prefixed name silently \
fragments a series (`tuner.budget.spent` vs `tunr.budget_spent` never aggregate). \
Every name literal passed to colt_obs::span / counter / span_sim must be \
lowercase dot-separated segments (`area.noun` or `area.noun.verb`), and the area \
prefix must belong to the emitting crate: storage/catalog/engine name their own \
crate, `profiler.*`/`organizer.*`/`tuner.*` belong to colt-core, `harness.*` to \
colt-harness, `bench.*` to colt-bench. Progress events (colt_obs::progress) are \
human-facing and exempt.",
            Lint::BadWaiver => "The single escape hatch for every lint is \
`// colt: allow(<lint>) — <reason>` on the flagged line or the line above. A \
waiver with no reason defeats auditing — the reviewer cannot tell why the \
violation is acceptable.",
            Lint::UnusedWaiver => "Waivers rot: the code they excused gets refactored away and \
the stale annotation then silently licenses a future violation. A waiver that \
suppresses no violation is itself reported, so the waiver set always matches the \
real exception set.",
            Lint::SpanPairing => "A colt_obs::span guard is the unit of both wall-time and \
simulated-cost attribution: the RAII drop records wall time, and an explicit \
.sim_ms(…) call charges simulated cost. Binding the guard to `_` drops it on the \
same statement (the span covers nothing), and a return/break/continue between the \
binding and its .sim_ms(…) silently loses the simulated charge on that path. The \
`?` operator is exempt: error paths carry no simulated cost by design, and the \
RAII drop still records wall time. Guards that never call .sim_ms(…) are \
wall-time-only and are fine as long as they are bound to a named (or `_`-prefixed) \
binding.",
            Lint::ChargeCoverage => "The paper's cost model is enforced by IoStats page \
charging: every heap or B+ tree page touched must be charged, or simulated cost \
drifts from the physical design the tuner reasons about. Any public colt-storage \
fn whose body reaches page state (the heap's `columns`, the tree's `arena`, or the \
page walkers descend/leftmost_leaf) must either take/construct an IoStats or be \
listed in colt-analyze.toml's [charge-coverage] uncharged allowlist — a reviewed, \
documented inventory of zero-I/O accessors — so vectorized fast paths like \
scan_batches/lookup_into cannot silently skip charging.",
            Lint::ModuleDag => "The inter-crate layering lint stops at crate boundaries; \
inside a crate, modules can still tangle into cycles (batch ↔ executor was real). \
colt-analyze.toml declares each crate's [modules.<crate>] order and this lint \
flags any `use crate::<m>` or inline `crate::<m>::…` path that points at a module \
later in (or missing from) the order. lib.rs, main.rs, bins, and test code are \
exempt: the DAG governs the library's internal structure, not its public facade.",
        }
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The violated lint.
    pub lint: Lint,
    /// Human message.
    pub message: String,
}

impl Violation {
    /// `file:line: lint-name: message` — the CI-greppable format.
    pub fn render(&self) -> String {
        format!("{}:{}: {}: {}", self.file, self.line, self.lint.name(), self.message)
    }
}

/// File role within its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Library source (`crates/*/src/**`, root `src/lib.rs`).
    Lib,
    /// Binary source (`src/bin/**`, `src/main.rs`).
    Bin,
    /// Tests, benches, examples — exempt from most rules.
    Test,
}

/// Crates whose results must be bit-deterministic (the "kernel").
const KERNEL: &[&str] = &["storage", "catalog", "engine", "core", "workload", "offline"];

/// Every crate in the workspace, by `colt_`-stripped name. Used to tell
/// a real `colt_engine` crate reference apart from an unrelated local
/// identifier that merely starts with `colt_`.
const WORKSPACE_CRATES: &[&str] = &[
    "obs", "storage", "catalog", "engine", "core", "workload", "offline", "harness", "bench",
    "analyze", "repro",
];

/// The layering DAG: which `colt_*` crates each crate may reference.
/// `None` means "any" (the root crate, bench, tests).
fn allowed_deps(krate: &str) -> Option<&'static [&'static str]> {
    match krate {
        "obs" | "analyze" => Some(&[]),
        "storage" => Some(&["obs"]),
        "catalog" => Some(&["obs", "storage"]),
        "engine" => Some(&["obs", "storage", "catalog"]),
        "core" | "workload" | "offline" => Some(&["obs", "storage", "catalog", "engine"]),
        "harness" => {
            Some(&["obs", "storage", "catalog", "engine", "core", "workload", "offline"])
        }
        _ => None, // bench, the root crate: top of the DAG
    }
}

/// Hash-typed iteration methods whose order depends on the hasher seed.
const HASH_ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "into_keys", "into_values",
    "drain", "retain",
];

/// Ambient-randomness identifiers banned workspace-wide.
const AMBIENT_RANDOM: &[&str] =
    &["RandomState", "DefaultHasher", "thread_rng", "from_entropy", "SipHasher"];

/// colt-obs entry points whose first argument (and any string literal in
/// the call, e.g. a `match` over access paths) is a merged metric name.
const METRIC_FNS: &[&str] = &["span", "counter", "span_sim"];

/// Metric area prefixes and the crate that owns each.
fn metric_area_owner(prefix: &str) -> Option<&'static str> {
    Some(match prefix {
        "storage" => "storage",
        "catalog" => "catalog",
        "engine" => "engine",
        "profiler" | "organizer" | "tuner" => "core",
        "workload" => "workload",
        "offline" => "offline",
        "harness" => "harness",
        "bench" => "bench",
        "obs" => "obs",
        _ => return None,
    })
}

/// Is `name` a well-formed metric name: at least two non-empty
/// dot-separated segments of `[a-z0-9_]`?
fn well_formed_metric(name: &str) -> bool {
    let mut segments = 0usize;
    for seg in name.split('.') {
        if seg.is_empty()
            || !seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            return false;
        }
        segments += 1;
    }
    segments >= 2
}

fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

/// Compute `#[cfg(test)]` line regions from the token stream: the
/// attribute plus the item it covers (brace-matched block, or through
/// the terminating `;`).
pub fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i + 5 < tokens.len() {
        let is_cfg_test = tokens[i].tok == Tok::Punct('#')
            && tokens[i + 1].tok == Tok::Punct('[')
            && ident(&tokens[i + 2]) == Some("cfg")
            && tokens[i + 3].tok == Tok::Punct('(')
            && ident(&tokens[i + 4]) == Some("test")
            && tokens[i + 5].tok == Tok::Punct(')');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Find the covered item's extent: first `{` opens a
        // brace-matched block; a `;` before any `{` ends the item.
        let mut j = i + 6;
        let mut end_line = start_line;
        let mut depth = 0usize;
        let mut opened = false;
        while j < tokens.len() {
            match tokens[j].tok {
                Tok::Punct('{') => {
                    depth += 1;
                    opened = true;
                }
                Tok::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        end_line = tokens[j].line;
                        break;
                    }
                }
                Tok::Punct(';') if !opened => {
                    end_line = tokens[j].line;
                    break;
                }
                _ => {}
            }
            end_line = tokens[j].line;
            j += 1;
        }
        regions.push((start_line, end_line));
        i = j + 1;
    }
    regions
}

/// Run every rule over one file, producing raw (pre-waiver) violations.
pub fn check_file(file: &SourceFile, manifest: &Manifest) -> Vec<Violation> {
    let mut out = Vec::new();
    let toks = &file.lexed.tokens;
    let test = |line: u32| file.kind == Kind::Test || in_regions(&file.test_regions, line);
    let push = |out: &mut Vec<Violation>, line: u32, lint: Lint, message: String| {
        out.push(Violation { file: file.rel.clone(), line, lint, message });
    };
    let krate = file.crate_name.as_deref();

    // --- wall-clock ---
    let wall_allowed = matches!(krate, Some("obs") | Some("bench") | Some("analyze"))
        || (krate == Some("harness") && file.rel.ends_with("parallel.rs"));
    // --- hash-iteration: collect hash-typed binding names first ---
    let hash_scope = matches!(krate, Some("core") | Some("engine")) && file.kind == Kind::Lib;
    let mut hash_names: BTreeSet<&str> = BTreeSet::new();
    if hash_scope {
        for i in 0..toks.len() {
            if matches!(ident(&toks[i]), Some("HashMap") | Some("HashSet")) && i >= 2 {
                let prev = &toks[i - 1].tok;
                if (*prev == Tok::Punct(':') || *prev == Tok::Punct('='))
                    && toks[i - 2].tok != Tok::Punct(':')
                {
                    if let Some(name) = ident(&toks[i - 2]) {
                        hash_names.insert(name);
                        // A hash-keyed *struct field* is persistent kernel
                        // state and is flagged outright: even if lookup-only
                        // today, it is one refactor away from leaking hash
                        // order into results. Locals (build tables etc.) are
                        // only flagged when actually iterated.
                        let field = *prev == Tok::Punct(':')
                            && toks[..i - 1].iter().rev().find_map(|t| match ident(t) {
                                Some("let") | Some("fn") => Some(false),
                                Some("struct") => Some(true),
                                _ => None,
                            }) == Some(true);
                        if field && !(file.kind == Kind::Test || in_regions(&file.test_regions, toks[i].line)) {
                            out.push(Violation {
                                file: file.rel.clone(),
                                line: toks[i].line,
                                lint: Lint::HashIteration,
                                message: format!("hash-keyed struct field `{name}`: persistent state in a kernel crate must be BTreeMap/BTreeSet (hash order leaks into results)"),
                            });
                        }
                    }
                }
            }
        }
    }

    for i in 0..toks.len() {
        let line = toks[i].line;
        if test(line) {
            continue;
        }
        let Some(id) = ident(&toks[i]) else { continue };
        let next = toks.get(i + 1).map(|t| &t.tok);
        let next2 = toks.get(i + 2).map(|t| &t.tok);

        // wall-clock
        if !wall_allowed && (id == "Instant" || id == "SystemTime") {
            push(
                &mut out,
                line,
                Lint::WallClock,
                format!("`{id}` read outside the wall-clock allowlist (colt-obs, harness parallel driver, colt-bench); use the simulated clock"),
            );
        }

        // nondet-seed: ambient randomness (everywhere) and env reads
        // (kernel crates only).
        if AMBIENT_RANDOM.contains(&id) {
            push(
                &mut out,
                line,
                Lint::NondetSeed,
                format!("ambient randomness `{id}`; all randomness must flow from an explicitly seeded Prng"),
            );
        }
        if id == "env"
            && next == Some(&Tok::Punct(':'))
            && next2 == Some(&Tok::Punct(':'))
            && matches!(toks.get(i + 3).and_then(|t| ident(t)), Some("var") | Some("var_os"))
            && krate.is_some_and(|k| KERNEL.contains(&k))
        {
            push(
                &mut out,
                line,
                Lint::NondetSeed,
                "environment read inside a deterministic kernel crate; thread configuration through ColtConfig".to_string(),
            );
        }

        // metric-name: every string literal inside a
        // colt_obs::{span,counter,span_sim}(…) call is a
        // merged metric name (the literal may sit inside a `match` over
        // access paths, so the whole argument list is scanned). The obs
        // crate itself is exempt: it defines the API and exercises it
        // with doc-example names.
        let obs_scope = krate.is_some() && !matches!(krate, Some("obs") | Some("analyze"));
        if obs_scope
            && id == "colt_obs"
            && next == Some(&Tok::Punct(':'))
            && next2 == Some(&Tok::Punct(':'))
            && toks
                .get(i + 3)
                .and_then(|t| ident(t))
                .is_some_and(|f| METRIC_FNS.contains(&f))
            && toks.get(i + 4).map(|t| &t.tok) == Some(&Tok::Punct('('))
        {
            let mut j = i + 5;
            let mut depth = 1usize;
            while depth > 0 {
                let Some(t) = toks.get(j) else { break };
                match &t.tok {
                    Tok::Punct('(') => depth += 1,
                    Tok::Punct(')') => depth -= 1,
                    Tok::Str(name) => {
                        if !well_formed_metric(name) {
                            push(
                                &mut out,
                                t.line,
                                Lint::MetricName,
                                format!("metric name `{name}` must be dot-separated lowercase `area.noun[.verb]` segments"),
                            );
                        } else {
                            let area = name.split('.').next().unwrap_or("");
                            match metric_area_owner(area) {
                                None => push(
                                    &mut out,
                                    t.line,
                                    Lint::MetricName,
                                    format!("metric name `{name}` has unknown area prefix `{area}`; use the emitting crate's area"),
                                ),
                                Some(owner) if Some(owner) != krate => push(
                                    &mut out,
                                    t.line,
                                    Lint::MetricName,
                                    format!("metric area `{area}.*` belongs to colt-{owner}; crate colt-{} must not emit `{name}`", krate.unwrap_or("?")),
                                ),
                                Some(_) => {}
                            }
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }

        // layering — only identifiers that name an actual workspace
        // crate count; locals like `colt_total` are not crate edges.
        if let Some(target) = id.strip_prefix("colt_").filter(|t| WORKSPACE_CRATES.contains(t)) {
            if file.kind != Kind::Test {
                if let Some(k) = krate {
                    if let Some(allowed) = allowed_deps(k) {
                        if target != k && !allowed.contains(&target) {
                            push(
                                &mut out,
                                line,
                                Lint::Layering,
                                format!("crate colt-{k} must not reference colt_{target}: the layering DAG only allows {{{}}}", allowed.join(", ")),
                            );
                        }
                    }
                }
            }
        }

        // output-hygiene
        let is_macro = next == Some(&Tok::Punct('!'));
        let stdout_allowed = (matches!(krate, Some("bench") | Some("analyze"))
            && file.kind == Kind::Bin)
            || (krate == Some("harness") && file.rel.ends_with("report.rs"));
        let stderr_allowed = stdout_allowed || krate == Some("obs");
        if is_macro && (id == "println" || id == "print") && !stdout_allowed {
            push(
                &mut out,
                line,
                Lint::OutputHygiene,
                format!("`{id}!` outside bench binaries / harness report; stdout is a diffable artifact — route output through the caller or the event sink"),
            );
        }
        if id == "stdout" && next == Some(&Tok::Punct('(')) && !stdout_allowed {
            push(
                &mut out,
                line,
                Lint::OutputHygiene,
                "direct stdout() handle outside bench binaries / harness report".to_string(),
            );
        }
        if is_macro && (id == "eprintln" || id == "eprint" || id == "dbg") && !stderr_allowed {
            push(
                &mut out,
                line,
                Lint::OutputHygiene,
                format!("`{id}!` outside the colt-obs sink; route diagnostics through colt_obs::progress"),
            );
        }

        // panic-policy (library code only; binaries may abort).
        if file.kind == Kind::Lib {
            let method_call = i >= 1
                && toks[i - 1].tok == Tok::Punct('.')
                && next == Some(&Tok::Punct('('));
            if method_call && (id == "unwrap" || id == "expect") {
                // `.expect(...)?` is error propagation through a
                // user-defined Result-returning method (e.g. the parser's
                // `expect(Tok::…)?`), not Option/Result::expect aborting.
                let mut j = i + 2; // first token inside the parens
                let mut depth = 1usize;
                while depth > 0 {
                    match toks.get(j).map(|t| &t.tok) {
                        Some(Tok::Punct('(')) => depth += 1,
                        Some(Tok::Punct(')')) => depth -= 1,
                        None => break,
                        _ => {}
                    }
                    j += 1;
                }
                let propagated = toks.get(j).map(|t| &t.tok) == Some(&Tok::Punct('?'));
                if !propagated {
                    push(
                        &mut out,
                        line,
                        Lint::PanicPolicy,
                        format!(".{id}() in library code; return an error or waive with the invariant that rules the panic out"),
                    );
                }
            }
            if is_macro
                && matches!(id, "panic" | "unreachable" | "todo" | "unimplemented")
            {
                push(
                    &mut out,
                    line,
                    Lint::PanicPolicy,
                    format!("`{id}!` in library code; return an error or waive with the invariant that rules the panic out"),
                );
            }
        }

        // hash-iteration
        if hash_scope {
            let receiver_is_hash = hash_names.contains(id);
            if receiver_is_hash
                && next == Some(&Tok::Punct('.'))
                && toks
                    .get(i + 2)
                    .and_then(|t| ident(t))
                    .is_some_and(|m| HASH_ITER_METHODS.contains(&m))
                && toks.get(i + 3).map(|t| &t.tok) == Some(&Tok::Punct('('))
            {
                let method = ident(&toks[i + 2]).unwrap_or("");
                push(
                    &mut out,
                    line,
                    Lint::HashIteration,
                    format!("`.{method}()` on hash-typed `{id}`: iteration order is nondeterministic — use BTreeMap/BTreeSet or sort first"),
                );
            }
            // `for x in &name {` / `for (k, v) in name {`
            if id == "in" {
                let mut j = i + 1;
                loop {
                    match toks.get(j).map(|t| &t.tok) {
                        Some(Tok::Punct('&')) => j += 1,
                        Some(Tok::Ident(s)) if s == "mut" => j += 1,
                        _ => break,
                    }
                }
                let mut last_ident: Option<&str> = None;
                while let Some(t) = toks.get(j) {
                    match &t.tok {
                        Tok::Ident(s) => last_ident = Some(s.as_str()),
                        Tok::Punct('.') => {}
                        Tok::Punct('{') => break,
                        _ => {
                            last_ident = None;
                            break;
                        }
                    }
                    j += 1;
                }
                if let Some(name) = last_ident {
                    if hash_names.contains(name) {
                        push(
                            &mut out,
                            line,
                            Lint::HashIteration,
                            format!("`for … in {name}` iterates a hash map: order is nondeterministic — use BTreeMap/BTreeSet or sort first"),
                        );
                    }
                }
            }
        }
    }

    // --- flow-sensitive rules (syntax index + manifest) ---
    check_span_pairing(file, &mut out);
    check_charge_coverage(file, manifest, &mut out);
    check_module_dag(file, manifest, &mut out);
    out
}

/// Does the token sequence at `i` spell `colt_obs::span(`?
fn span_call_at(toks: &[Token], i: usize) -> bool {
    ident(&toks[i]) == Some("colt_obs")
        && toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
        && toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct(':'))
        && toks.get(i + 3).and_then(ident) == Some("span")
        && toks.get(i + 4).map(|t| &t.tok) == Some(&Tok::Punct('('))
}

/// span-pairing: every `colt_obs::span(…)` guard must be bound to a
/// named binding, and any `.sim_ms(…)` on that binding must be
/// reachable on every non-`?` path from the binding.
fn check_span_pairing(file: &SourceFile, out: &mut Vec<Violation>) {
    let krate = file.crate_name.as_deref();
    if !matches!(krate, Some(k) if !matches!(k, "obs" | "analyze")) {
        return;
    }
    let toks = &file.lexed.tokens;
    let ix = &file.syntax;
    let test = |line: u32| file.kind == Kind::Test || in_regions(&file.test_regions, line);
    for i in 0..toks.len() {
        if !span_call_at(toks, i) || test(toks[i].line) {
            continue;
        }
        let line = toks[i].line;
        let metric = toks.get(i + 5).and_then(str_lit).unwrap_or("…");
        let prev = i.checked_sub(1).map(|p| &toks[p].tok);
        // `let _ = colt_obs::span(…)` / `_ = colt_obs::span(…)`: the
        // guard drops before the statement ends.
        if prev == Some(&Tok::Punct('='))
            && i >= 2
            && ident(&toks[i - 2]) == Some("_")
        {
            out.push(Violation {
                file: file.rel.clone(),
                line,
                lint: Lint::SpanPairing,
                message: format!("span guard for `{metric}` is bound to `_` and drops immediately; bind `let _span = …` so the span covers its block"),
            });
            continue;
        }
        // Statement-position call whose guard is never bound:
        // `colt_obs::span(…);`.
        if matches!(prev, None | Some(Tok::Punct(';')) | Some(Tok::Punct('{')) | Some(Tok::Punct('}'))) {
            let mut j = i + 5;
            let mut depth = 1usize;
            while depth > 0 {
                match toks.get(j).map(|t| &t.tok) {
                    Some(Tok::Punct('(')) => depth += 1,
                    Some(Tok::Punct(')')) => depth -= 1,
                    None => break,
                    _ => {}
                }
                j += 1;
            }
            if toks.get(j).map(|t| &t.tok) == Some(&Tok::Punct(';')) {
                out.push(Violation {
                    file: file.rel.clone(),
                    line,
                    lint: Lint::SpanPairing,
                    message: format!("span guard for `{metric}` is dropped at the end of its own statement; bind `let _span = …` so the span covers its block"),
                });
            }
            continue;
        }
        // `let <name> = colt_obs::span(…)`: if the guard later calls
        // `.sim_ms(…)`, no return/break/continue may leave the binding
        // block in between (`?` is exempt: error paths carry no
        // simulated cost, and the RAII drop still records wall time).
        let (Some(&Tok::Punct('=')), true) = (prev, i >= 3) else { continue };
        let Some(name) = ident(&toks[i - 2]) else { continue };
        if ident(&toks[i - 3]) != Some("let") && ident(&toks[i - 3]) != Some("mut") {
            continue;
        }
        let block = ix.block_at(i);
        let block_close = ix.blocks.get(block).map_or(toks.len(), |b| b.close);
        let mut last_sim: Option<usize> = None;
        let mut j = i + 5;
        while j + 3 < toks.len().min(block_close) {
            if ident(&toks[j]) == Some(name)
                && toks[j + 1].tok == Tok::Punct('.')
                && ident(&toks[j + 2]) == Some("sim_ms")
                && toks[j + 3].tok == Tok::Punct('(')
                && ix.within(ix.block_at(j), block)
            {
                last_sim = Some(j);
            }
            j += 1;
        }
        let Some(last_sim) = last_sim else { continue };
        for e in &ix.exits {
            if e.token <= i || e.token >= last_sim || test(toks[e.token].line) {
                continue;
            }
            if matches!(e.kind, ExitKind::Return | ExitKind::Break | ExitKind::Continue)
                && ix.escapes(e, block)
            {
                let kw = match e.kind {
                    ExitKind::Return => "return",
                    ExitKind::Break => "break",
                    _ => "continue",
                };
                out.push(Violation {
                    file: file.rel.clone(),
                    line: toks[e.token].line,
                    lint: Lint::SpanPairing,
                    message: format!("`{kw}` escapes between span guard `{name}` (`{metric}`, line {line}) and its `.sim_ms(…)`; the simulated charge is lost on this path"),
                });
            }
        }
    }
}

/// Heap/btree state fields whose element access means pages are read:
/// the heap's column store and the tree's node arena.
const PAGE_STATE_FIELDS: &[&str] = &["columns", "arena"];

/// Accessors on those fields that read elements (metadata like `len` /
/// `is_empty` and build-side `push` are not page reads).
const PAGE_STATE_ACCESSORS: &[&str] = &[
    "get", "get_mut", "iter", "iter_mut", "chunks", "chunks_exact", "windows", "first", "last",
    "binary_search", "binary_search_by", "binary_search_by_key",
];

/// Private page walkers whose callers must be charging.
const PAGE_WALKERS: &[&str] = &["descend", "leftmost_leaf"];

/// charge-coverage: public colt-storage fns that reach page state must
/// take or construct an `IoStats`, or be allowlisted in the manifest.
fn check_charge_coverage(file: &SourceFile, manifest: &Manifest, out: &mut Vec<Violation>) {
    if file.crate_name.as_deref() != Some("storage") || file.kind != Kind::Lib {
        return;
    }
    let toks = &file.lexed.tokens;
    let ix = &file.syntax;
    let test = |line: u32| in_regions(&file.test_regions, line);
    for f in &ix.fns {
        let Some(body) = f.body else { continue };
        if !f.is_pub || test(f.line) {
            continue;
        }
        let key = match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        };
        if manifest.uncharged.contains(&key) || manifest.uncharged.contains(&f.name) {
            continue;
        }
        let (open, close) = (ix.blocks[body].open, ix.blocks[body].close);
        let mut touched: Option<&str> = None;
        let mut charged = false;
        // The signature (fn keyword to body open) can declare the
        // IoStats parameter; the body can construct one locally.
        for j in f.token..close.min(toks.len()) {
            let Some(id) = ident(&toks[j]) else { continue };
            if id == "IoStats" {
                charged = true;
            }
            if j <= open {
                continue; // the rest are body-only triggers
            }
            let prev_dot = j >= 1 && toks[j - 1].tok == Tok::Punct('.');
            let next = toks.get(j + 1).map(|t| &t.tok);
            if PAGE_STATE_FIELDS.contains(&id) && prev_dot {
                let elem_access = next == Some(&Tok::Punct('['))
                    || (next == Some(&Tok::Punct('.'))
                        && toks
                            .get(j + 2)
                            .and_then(ident)
                            .is_some_and(|m| PAGE_STATE_ACCESSORS.contains(&m)));
                if elem_access {
                    touched = touched.or(Some(id));
                }
            }
            if PAGE_WALKERS.contains(&id) && next == Some(&Tok::Punct('(')) {
                touched = touched.or(Some(id));
            }
        }
        if let (Some(what), false) = (touched, charged) {
            out.push(Violation {
                file: file.rel.clone(),
                line: f.line,
                lint: Lint::ChargeCoverage,
                message: format!("pub fn `{key}` reaches page state (`{what}`) without an IoStats charge; charge io or add it to [charge-coverage] uncharged in colt-analyze.toml"),
            });
        }
    }
}

/// module-dag: intra-crate `crate::<module>` edges must point at
/// earlier modules in the crate's declared order.
fn check_module_dag(file: &SourceFile, manifest: &Manifest, out: &mut Vec<Violation>) {
    let Some(krate) = file.crate_name.as_deref() else { return };
    let Some(order) = manifest.module_order.get(krate) else { return };
    if file.kind != Kind::Lib {
        return;
    }
    let prefix = format!("crates/{krate}/src/");
    let Some(module) = file
        .rel
        .strip_prefix(&prefix)
        .and_then(|m| m.strip_suffix(".rs"))
        .filter(|m| !m.contains('/') && *m != "lib")
    else {
        return;
    };
    let test = |line: u32| in_regions(&file.test_regions, line);
    // Collect edges from expanded use trees and inline `crate::m::…`
    // paths (deduplicated: use decls appear in both sources).
    let mut edges: BTreeSet<(String, u32)> = BTreeSet::new();
    for u in &file.syntax.uses {
        if test(u.line) {
            continue;
        }
        for p in &u.paths {
            if let Some(first) = p.strip_prefix("crate::").and_then(|r| r.split("::").next()) {
                edges.insert((first.to_string(), u.line));
            }
        }
    }
    let toks = &file.lexed.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        if ident(&toks[i]) == Some("crate")
            && toks[i + 1].tok == Tok::Punct(':')
            && toks[i + 2].tok == Tok::Punct(':')
            && !test(toks[i].line)
        {
            if let Some(m) = ident(&toks[i + 3]) {
                edges.insert((m.to_string(), toks[i].line));
            }
        }
    }
    let my_ix = order.iter().position(|m| m == module);
    for (target, line) in edges {
        if target == module {
            continue;
        }
        let Some(dep_ix) = order.iter().position(|m| m == &target) else { continue };
        match my_ix {
            None => {
                out.push(Violation {
                    file: file.rel.clone(),
                    line,
                    lint: Lint::ModuleDag,
                    message: format!("module `{module}` uses `crate::{target}` but is not declared in [modules.{krate}] order in colt-analyze.toml"),
                });
                return; // one declaration violation is enough
            }
            Some(mine) if dep_ix >= mine => {
                out.push(Violation {
                    file: file.rel.clone(),
                    line,
                    lint: Lint::ModuleDag,
                    message: format!("module `{module}` may not use `crate::{target}`: [modules.{krate}] in colt-analyze.toml orders `{target}` at or after `{module}` (layering cycle)"),
                });
            }
            Some(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_names_round_trip() {
        for &l in Lint::all() {
            assert_eq!(Lint::by_name(l.name()), Some(l));
            assert!(!l.summary().is_empty());
            assert!(!l.explain().is_empty());
        }
        assert_eq!(Lint::by_name("no-such-lint"), None);
    }

    #[test]
    fn test_region_detection() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n";
        let lexed = crate::lexer::lex(src);
        let regions = test_regions(&lexed.tokens);
        assert_eq!(regions, vec![(2, 5)]);
        assert!(in_regions(&regions, 4));
        assert!(!in_regions(&regions, 6));
    }

    #[test]
    fn cfg_test_use_statement_region_is_one_item() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn real() {}\n";
        let lexed = crate::lexer::lex(src);
        let regions = test_regions(&lexed.tokens);
        assert_eq!(regions, vec![(1, 2)]);
    }
}
