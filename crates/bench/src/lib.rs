//! # colt-bench
//!
//! Benchmark harness for the COLT reproduction: one binary per paper
//! exhibit (`table1`, `fig3`, `fig4`, `fig5`, `fig6`), the `ablation`
//! study, the extensions (`scaling`, `multiuser`, `skew`) and the
//! flight-recorder `report`, plus plain-`main`
//! micro-benchmarks of the substrates (`cargo bench`; see [`bench()`]).
//! Wall-clock regressions are judged by `benches/perf` alone; nothing
//! here compares a timing to a checked-in number.
//!
//! A bin pairs its policies with [`colt_vs_offline`], runs its cells
//! with [`run_exhibit`], and computes each paper headline with
//! `colt_harness::metrics`. Every exhibit runs at [`SEED`]; `report`'s
//! [`SeedSweep`] re-runs the headline exhibits at each of
//! [`SWEEP_SEEDS`]. Seeds are constants, not settings.
//!
//! Every binary reads four environment variables, all parsed together
//! at first use; one that is set but unusable stops the binary (exit 2)
//! with one `error:` line naming the variable and the value:
//!
//! * `COLT_SCALE` — data scale relative to the paper's Table 1
//!   (default: 0.025 = 1/40),
//! * `COLT_THREADS` — worker threads for the parallel harness
//!   (default: available parallelism). Results are bit-identical at
//!   every thread count; only wall-clock time changes,
//! * `COLT_OBS` — `off`, `summary` (default) or `full`: what the
//!   `colt_obs` sink prints to stderr,
//! * `COLT_OBS_PATH` — a file to write the merged snapshot to
//!   ([`run_exhibit`]); needs a recording level, so it is an error
//!   together with `COLT_OBS=off`.
//!
//! Results are printed to stdout in a form that pastes directly into
//! `EXPERIMENTS.md`.

mod sweep;

pub use sweep::SeedSweep;

use colt_catalog::Database;
use colt_core::ColtConfig;
use colt_engine::Query;
use colt_harness::metrics::time_ratio;
use colt_harness::{emit_parallel_summary, run_cells, Cell, CellResult, ParallelReport, Policy};
use colt_obs::Level;
use colt_workload::{generate, presets, NoisePlan, Preset, TpchData, DEFAULT_SCALE};
use std::sync::OnceLock;

/// The master seed of every exhibit and golden.
pub const SEED: u64 = 42;

/// The seeds of `report`'s seed spread, fixed before the first sweep
/// ran; [`SEED`] is not among them.
pub const SWEEP_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// The environment, as checked.
struct Env {
    scale: f64,
    level: Level,
    /// Worker threads for the parallel harness. Cell results are
    /// bit-identical at every count; only wall-clock time changes.
    threads: usize,
    obs_path: Option<String>,
}

/// Parse every variable once; the first unusable one stops the binary
/// before any work starts, whichever accessor was called first.
fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| {
        let level = env_or_exit("COLT_OBS", parse_obs);
        Env {
            scale: env_or_exit("COLT_SCALE", parse_scale),
            threads: env_or_exit("COLT_THREADS", parse_threads),
            obs_path: env_or_exit("COLT_OBS_PATH", |raw| parse_obs_path(raw, level)),
            level,
        }
    })
}

/// Data scale from `COLT_SCALE` (default [`DEFAULT_SCALE`]).
pub fn scale() -> f64 {
    env().scale
}

/// Stop the binary (exit 2) before any work unless `COLT_OBS` records:
/// a bin whose stdout renders the flight recorder would print an empty
/// report under `off`.
pub fn require_recording() {
    if env().level == Level::Off {
        exit_with(2, "COLT_OBS=\"off\": this report renders the flight recorder, which nothing records at off");
    }
}

/// `COLT_SCALE` as set (`None` = unset, keeps the default). Unusable
/// values are errors, never a silent fall-back to the default data set.
fn parse_scale(raw: Option<&str>) -> Result<f64, String> {
    let Some(raw) = raw else { return Ok(DEFAULT_SCALE) };
    raw.parse()
        .ok()
        .filter(|s: &f64| s.is_finite() && *s > 0.0)
        .ok_or_else(|| format!("COLT_SCALE={raw:?}: expected a finite number > 0"))
}

/// `COLT_THREADS` as set (`None` = unset: every available core).
fn parse_threads(raw: Option<&str>) -> Result<usize, String> {
    let Some(raw) = raw else {
        return Ok(std::thread::available_parallelism().map_or(1, |n| n.get()));
    };
    raw.parse()
        .ok()
        .filter(|&n: &usize| n > 0)
        .ok_or_else(|| format!("COLT_THREADS={raw:?}: expected an integer > 0"))
}

/// `COLT_OBS` as set (`None` = unset, keeps the default level). The
/// sink reads the variable itself ([`Level::from_env`]) with the same
/// parser; this check is what turns its silent default into an error.
fn parse_obs(raw: Option<&str>) -> Result<Level, String> {
    let Some(raw) = raw else { return Ok(Level::default()) };
    Level::parse(raw).ok_or_else(|| format!("COLT_OBS={raw:?}: expected off, summary or full"))
}

/// `COLT_OBS_PATH` as set (`None` or empty = no dump). At
/// [`Level::Off`] nothing is recorded and the dump would be an empty
/// file, so asking for one is an error.
fn parse_obs_path(raw: Option<&str>, level: Level) -> Result<Option<String>, String> {
    match raw {
        None | Some("") => Ok(None),
        Some(path) if level == Level::Off => {
            Err(format!("COLT_OBS_PATH={path:?}: nothing is recorded under COLT_OBS=off"))
        }
        Some(path) => Ok(Some(path.to_string())),
    }
}

/// One `error:` line straight to stderr, then exit. Not through the
/// `colt_obs` sink: the line has to show under `COLT_OBS=off` too, and
/// no artifact follows it.
fn exit_with(code: i32, msg: &str) -> ! {
    use std::io::Write;
    drop(writeln!(std::io::stderr(), "error: {msg}"));
    std::process::exit(code)
}

/// Parse the variable `name`, or stop the binary (exit 2) with one line
/// naming the variable and the value.
fn env_or_exit<T>(name: &str, parse: impl FnOnce(Option<&str>) -> Result<T, String>) -> T {
    #[expect(clippy::disallowed_methods, reason = "the bins' COLT_* variables enter here only")]
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse(raw.as_deref()).unwrap_or_else(|msg| exit_with(2, &msg))
}

/// Generate the experiment data set at `COLT_SCALE` and `seed`,
/// reporting shape and timing through the event sink (stderr only;
/// silent under `COLT_OBS=off`).
pub fn build_data(seed: u64) -> TpchData {
    let scale = scale();
    #[expect(clippy::disallowed_methods, reason = "setup wall time goes to stderr only")]
    let t0 = std::time::Instant::now();
    let data = generate(scale, seed);
    colt_obs::progress(
        colt_obs::Event::new("setup")
            .field("scale", scale)
            .field("seed", seed)
            .field("tables", data.db.table_count())
            .field("tuples", data.db.total_tuples())
            .field("attributes", data.db.indexable_attributes())
            .field("wall_ms", t0.elapsed().as_secs_f64() * 1e3),
    );
    data
}

/// The two arms of a paper exhibit at one storage budget `B`: OFFLINE
/// selecting once for `B` pages, labelled `OFFLINE{suffix}`, and COLT at
/// [`ColtConfig::default()`] with budget `B`, labelled `COLT{suffix}`.
pub fn colt_vs_offline<'a>(
    suffix: &str,
    db: &'a Database,
    queries: &'a [Query],
    budget_pages: u64,
) -> [Cell<'a>; 2] {
    let colt = ColtConfig { storage_budget_pages: budget_pages, ..Default::default() };
    [
        Cell::new(format!("OFFLINE{suffix}"), db, queries, Policy::Offline { budget_pages }),
        Cell::new(format!("COLT{suffix}"), db, queries, Policy::colt(colt)),
    ]
}

/// Figure 5's split of a run's epochs: an epoch is stable when it lies
/// more than this many epochs from every transition's, and around a
/// transition otherwise (`colt_harness::metrics::stable_epoch_mean`,
/// `around_transition_mean`).
pub const MARGIN: usize = 8;

/// Figure 6's noise-burst lengths, in queries.
const BURSTS: [usize; 12] = [20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 140];

/// One Figure 6 workload: a fixed distribution `Q1` with bursts of
/// `len` queries from a disjoint `Q2`, and the `Q1` queries alone, which
/// OFFLINE is tuned on.
pub struct Burst {
    len: usize,
    preset: Preset,
    /// Where the bursts sit.
    pub plan: NoisePlan,
    q1_only: Vec<Query>,
}

/// Figure 6's workloads at `seed`, one per burst length of its grid
/// (20–140 queries).
pub fn bursts(data: &TpchData, seed: u64) -> Vec<Burst> {
    let burst = |len| {
        let (preset, plan) = presets::noisy(data, len, seed);
        let q1 = preset.queries.iter().enumerate().filter(|(i, _)| !plan.is_noise(*i));
        let q1_only = q1.map(|(_, q)| q.clone()).collect();
        Burst { len, preset, plan, q1_only }
    };
    BURSTS.into_iter().map(burst).collect()
}

/// Each burst's [`colt_vs_offline`] pair, labelled `…{suffix} burst=N`,
/// with OFFLINE tuned on `Q1` alone (it ignores noise) and both running
/// the whole noisy stream.
pub fn burst_cells<'a>(suffix: &str, db: &'a Database, bursts: &'a [Burst]) -> Vec<Cell<'a>> {
    let pair = |b: &'a Burst| {
        let [offline, colt] =
            colt_vs_offline(&format!("{suffix} burst={}", b.len), db, &b.preset.queries, b.preset.budget_pages);
        [offline.analyzed(&b.q1_only), colt]
    };
    bursts.iter().flat_map(pair).collect()
}

/// Figure 6's `(burst, ratio)` sweep from [`burst_cells`]' results: COLT's
/// execution time over OFFLINE's after the plan's warm-up.
pub fn burst_ratios(bursts: &[Burst], results: &[CellResult]) -> Vec<(usize, f64)> {
    let pairs = bursts.iter().zip(results.chunks(2));
    pairs.map(|(b, r)| (b.len, time_ratio(&r[1].result, &r[0].result, b.plan.warmup))).collect()
}

/// One ablation table's cells at `preset`'s budget: OFFLINE, then the
/// tuner's variants (DESIGN §7), labelled `full`, `no self-regulation`
/// (`#WI_lim` always `#WI_max`), `no swap hysteresis` (`swap_margin` 0),
/// `window h=4` and `window h=24`.
pub fn ablation_cells<'a>(db: &'a Database, preset: &'a Preset) -> Vec<Cell<'a>> {
    let budget_pages = preset.budget_pages;
    let base = ColtConfig { storage_budget_pages: budget_pages, ..Default::default() };
    let variants = [
        ("full", base.clone()),
        ("no self-regulation", ColtConfig { self_regulation: false, ..base.clone() }),
        ("no swap hysteresis", ColtConfig { swap_margin: 0.0, ..base.clone() }),
        ("window h=4", ColtConfig { history_epochs: 4, ..base.clone() }),
        ("window h=24", ColtConfig { history_epochs: 24, ..base }),
    ];
    let colt = variants.into_iter().map(|(name, cfg)| (name, Policy::colt(cfg)));
    let policies = std::iter::once(("OFFLINE", Policy::Offline { budget_pages })).chain(colt);
    policies.map(|(name, policy)| Cell::new(name, db, &preset.queries, policy)).collect()
}

/// Run an exhibit's cells on `COLT_THREADS` workers and report the
/// batch on stderr as `title`. When `COLT_OBS_PATH=<file>` is set, write
/// the batch's merged snapshot to exactly that file as JSONL
/// ([`colt_obs::Snapshot::jsonl`]: the deterministic `decision` /
/// `series_epoch` lines first, then the `counter`, `span` and `flame`
/// lines); never touches stdout. A run that fails, or a dump that cannot
/// be written, stops the binary (exit 1) with one `error:` line.
pub fn run_exhibit(title: &str, cells: &[Cell<'_>]) -> ParallelReport {
    let report = run_cells(cells, env().threads).unwrap_or_else(|e| exit_with(1, &format!("run failed: {e}")));
    emit_parallel_summary(title, &report);
    if let Some(path) = &env().obs_path {
        let dump = report.obs().jsonl();
        if let Err(e) = std::fs::write(path, &dump) {
            exit_with(1, &format!("COLT_OBS_PATH={path:?}: {e}"));
        }
        colt_obs::progress(
            colt_obs::Event::new("obs_dump").field("lines", dump.lines().count()).field("path", path.as_str()),
        );
    }
    report
}

/// Format a simulated-ms quantity compactly.
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 10_000.0 {
        format!("{:.1} s", ms / 1000.0)
    } else {
        format!("{ms:.1} ms")
    }
}

/// Minimal micro-benchmark runner (`cargo bench` harness): warm the
/// closure up for ~20 ms to size the measured iteration count, then
/// time it, print ns/op and return it. Wrap results the optimizer could
/// discard in [`std::hint::black_box`] inside the closure.
#[expect(clippy::disallowed_methods, clippy::print_stdout, reason = "micro-bench clock and output")]
pub fn bench(name: &str, mut f: impl FnMut()) -> f64 {
    use std::time::{Duration, Instant};
    let warm = Instant::now();
    let mut warm_iters = 0u64;
    while warm.elapsed() < Duration::from_millis(20) {
        f();
        warm_iters += 1;
    }
    let iters = (warm_iters * 5).clamp(10, 200_000);
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    let per_ns = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    let shown = if per_ns >= 1e6 {
        format!("{:.3} ms/op", per_ns / 1e6)
    } else if per_ns >= 1e3 {
        format!("{:.3} µs/op", per_ns / 1e3)
    } else {
        format!("{per_ns:.1} ns/op")
    };
    println!("  {name:<44} {shown:>14}  ({iters} iters)");
    per_ns
}

#[cfg(test)]
mod tests {
    use super::{parse_obs, parse_obs_path, parse_scale, parse_threads, Level};

    #[test]
    fn unset_overrides_keep_the_defaults() {
        assert_eq!(parse_scale(None), Ok(super::DEFAULT_SCALE));
        assert!(parse_threads(None).is_ok_and(|n| n > 0));
        assert_eq!(parse_obs(None), Ok(Level::Summary));
        assert_eq!(parse_obs_path(None, Level::Off), Ok(None));
        assert_eq!(parse_obs_path(Some(""), Level::Off), Ok(None));
        assert_eq!(parse_scale(Some("0.01")), Ok(0.01));
        assert_eq!(parse_threads(Some("4")), Ok(4));
        assert_eq!(parse_obs(Some("off")), Ok(Level::Off));
        assert_eq!(parse_obs(Some("FULL")), Ok(Level::Full));
        assert_eq!(parse_obs_path(Some("d.jsonl"), Level::Summary), Ok(Some("d.jsonl".into())));
    }

    #[test]
    fn unusable_overrides_are_errors_naming_variable_and_value() {
        for bad in ["0,01", "", "abc", "0", "-1", "inf", "NaN"] {
            let err = parse_scale(Some(bad)).expect_err(bad);
            assert_eq!(err, format!("COLT_SCALE={bad:?}: expected a finite number > 0"));
        }
        for bad in ["abc", "0", "-1", "2.0", ""] {
            let err = parse_threads(Some(bad)).expect_err(bad);
            assert_eq!(err, format!("COLT_THREADS={bad:?}: expected an integer > 0"));
        }
        for bad in ["banana", "", "verbose"] {
            let err = parse_obs(Some(bad)).expect_err(bad);
            assert_eq!(err, format!("COLT_OBS={bad:?}: expected off, summary or full"));
        }
        assert_eq!(
            parse_obs_path(Some("d.jsonl"), Level::Off),
            Err("COLT_OBS_PATH=\"d.jsonl\": nothing is recorded under COLT_OBS=off".into())
        );
    }

    #[test]
    fn fmt_ms_shapes() {
        assert_eq!(super::fmt_ms(12.34), "12.3 ms");
        assert_eq!(super::fmt_ms(123_456.0), "123.5 s");
    }
}
