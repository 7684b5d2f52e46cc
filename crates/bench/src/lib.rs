//! # colt-bench
//!
//! Benchmark harness for the COLT reproduction: one binary per paper
//! exhibit (`table1`, `fig3`, `fig4`, `fig5`, `fig6`, `ablation`) plus
//! plain-`main` micro-benchmarks of the substrates (`cargo bench`; see
//! [`bench`]). Wall-clock regressions are judged by `benches/perf`
//! alone; nothing here compares a timing to a checked-in number.
//!
//! Every binary reads five environment variables, all parsed together
//! at first use; one that is set but unusable stops the binary (exit 2)
//! with one `error:` line naming the variable and the value:
//!
//! * `COLT_SCALE` — data scale relative to the paper's Table 1
//!   (default: 0.025 = 1/40),
//! * `COLT_SEED` — master seed (default: 42),
//! * `COLT_THREADS` — worker threads for the parallel harness
//!   (default: available parallelism). Results are bit-identical at
//!   every thread count; only wall-clock time changes,
//! * `COLT_OBS` — `off`, `summary` (default) or `full`: what the
//!   `colt_obs` sink prints to stderr,
//! * `COLT_OBS_PATH` — a file to write the merged snapshot to
//!   ([`dump_obs`]); needs a recording level, so it is an error
//!   together with `COLT_OBS=off`.
//!
//! Results are printed to stdout in a form that pastes directly into
//! `EXPERIMENTS.md`.

use colt_obs::Level;
use colt_workload::{generate, TpchData, DEFAULT_SCALE};
use std::sync::OnceLock;

/// The environment, as checked.
struct Env {
    scale: f64,
    seed: u64,
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
            seed: env_or_exit("COLT_SEED", parse_seed),
            threads: env_or_exit("COLT_THREADS", parse_threads),
            obs_path: env_or_exit("COLT_OBS_PATH", |raw| parse_obs_path(raw, level)),
        }
    })
}

/// Data scale from `COLT_SCALE` (default [`DEFAULT_SCALE`]).
pub fn scale() -> f64 {
    env().scale
}

/// Master seed from `COLT_SEED` (default 42).
pub fn seed() -> u64 {
    env().seed
}

/// Worker-thread count for the parallel harness: `COLT_THREADS` if set,
/// else the machine's available parallelism. Cell results are
/// bit-identical at every thread count, so this only changes wall-clock
/// time.
pub fn threads() -> usize {
    env().threads
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

/// `COLT_SEED` as set (`None` = unset, keeps the default).
fn parse_seed(raw: Option<&str>) -> Result<u64, String> {
    let Some(raw) = raw else { return Ok(42) };
    raw.parse().map_err(|_| format!("COLT_SEED={raw:?}: expected an unsigned integer"))
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
    let _ = writeln!(std::io::stderr(), "error: {msg}");
    std::process::exit(code)
}

/// Parse the variable `name`, or stop the binary (exit 2) with one line
/// naming the variable and the value.
fn env_or_exit<T>(name: &str, parse: impl FnOnce(Option<&str>) -> Result<T, String>) -> T {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse(raw.as_deref()).unwrap_or_else(|msg| exit_with(2, &msg))
}

/// Generate the experiment data set, reporting shape and timing through
/// the event sink (stderr only; silent under `COLT_OBS=off`).
pub fn build_data() -> TpchData {
    let scale = scale();
    let seed = seed();
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

/// When `COLT_OBS_PATH=<file>` is set, write a parallel batch's merged
/// snapshot to exactly that file as JSONL ([`colt_obs::Snapshot::jsonl`]:
/// the deterministic `decision` / `series_epoch` lines first, then the
/// `counter`, `span` and `flame` lines). Does nothing
/// otherwise; never touches stdout. A dump that cannot be written stops
/// the binary (exit 1) with one `error:` line.
pub fn dump_obs(report: &colt_harness::ParallelReport) {
    let Some(path) = &env().obs_path else { return };
    let dump = report.obs().jsonl();
    if let Err(e) = std::fs::write(path, &dump) {
        exit_with(1, &format!("COLT_OBS_PATH={path:?}: {e}"));
    }
    colt_obs::progress(
        colt_obs::Event::new("obs_dump").field("lines", dump.lines().count()).field("path", path.as_str()),
    );
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
    // colt: allow(output-hygiene) — cargo-bench harness output, never part of a diffed experiment artifact
    println!("  {name:<44} {shown:>14}  ({iters} iters)");
    per_ns
}

#[cfg(test)]
mod tests {
    use super::{parse_obs, parse_obs_path, parse_scale, parse_seed, parse_threads, Level};

    #[test]
    fn unset_overrides_keep_the_defaults() {
        assert_eq!(parse_scale(None), Ok(super::DEFAULT_SCALE));
        assert_eq!(parse_seed(None), Ok(42));
        assert!(parse_threads(None).is_ok_and(|n| n > 0));
        assert_eq!(parse_obs(None), Ok(Level::Summary));
        assert_eq!(parse_obs_path(None, Level::Off), Ok(None));
        assert_eq!(parse_obs_path(Some(""), Level::Off), Ok(None));
        assert_eq!(parse_scale(Some("0.01")), Ok(0.01));
        assert_eq!(parse_seed(Some("7")), Ok(7));
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
        for bad in ["4 2", "-1", "1.5", ""] {
            let err = parse_seed(Some(bad)).expect_err(bad);
            assert_eq!(err, format!("COLT_SEED={bad:?}: expected an unsigned integer"));
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
