//! # colt-bench
//!
//! Benchmark harness for the COLT reproduction: one binary per paper
//! exhibit (`table1`, `fig3`, `fig4`, `fig5`, `fig6`, `ablation`) plus
//! plain-`main` micro-benchmarks of the substrates (`cargo bench`; see
//! [`bench`]). Wall-clock regressions are judged by `benches/perf`
//! alone; nothing here compares a timing to a checked-in number.
//!
//! Every binary reads three environment variables:
//!
//! * `COLT_SCALE` — data scale relative to the paper's Table 1
//!   (default: 0.025 = 1/40),
//! * `COLT_SEED` — master seed (default: 42); a set but unusable
//!   `COLT_SCALE` or `COLT_SEED` stops the binary (exit 2),
//! * `COLT_THREADS` — worker threads for the parallel harness
//!   (default: available parallelism). Results are bit-identical at
//!   every thread count; only wall-clock time changes.
//!
//! Results are printed to stdout in a form that pastes directly into
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

use colt_workload::{generate, TpchData, DEFAULT_SCALE};

/// Data scale from `COLT_SCALE` (default [`DEFAULT_SCALE`]). A value
/// that is set but is not a finite number > 0 stops the binary.
pub fn scale() -> f64 {
    env_or_exit("COLT_SCALE", parse_scale)
}

/// Master seed from `COLT_SEED` (default 42). A value that is set but
/// is not an unsigned integer stops the binary.
pub fn seed() -> u64 {
    env_or_exit("COLT_SEED", parse_seed)
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

/// Parse the variable `name`, or stop the binary (exit 2) with one line
/// naming the variable and the value. The line is written straight to
/// stderr, not through the `colt_obs` sink: a usage error has to show
/// under `COLT_OBS=off` too, and no artifact follows it.
fn env_or_exit<T>(name: &str, parse: fn(Option<&str>) -> Result<T, String>) -> T {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse(raw.as_deref()).unwrap_or_else(|msg| {
        use std::io::Write;
        let _ = writeln!(std::io::stderr(), "error: {msg}");
        std::process::exit(2)
    })
}

/// Worker-thread count for the parallel harness: `COLT_THREADS` if set,
/// else the machine's available parallelism. Cell results are
/// bit-identical at every thread count, so this only changes wall-clock
/// time.
pub fn threads() -> usize {
    colt_harness::default_threads()
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

/// When `COLT_OBS_PATH` is set, dump a parallel batch's merged metrics
/// next to it: `<path>.jsonl` (the structured event stream, one JSON
/// object per line) and `<path>.prom` (the Prometheus-style text dump).
/// When `COLT_OBS_FLAME` is set, additionally write the merged span
/// stacks as folded-stack lines (`outer;inner;leaf <ns>`) to that path,
/// ready for `flamegraph.pl` / `inferno-flamegraph`. When
/// `COLT_OBS_LEDGER` is set, write the merged flight recorder (decision
/// ledger then per-epoch time series, JSONL) to that path — the dump
/// holds only deterministic simulated values, so it is byte-identical
/// at every `COLT_THREADS`. Does nothing otherwise. Dump destinations
/// and contents never touch stdout.
pub fn dump_obs(report: &colt_harness::ParallelReport) {
    dump_flame(report);
    dump_ledger(report);
    let Ok(path) = std::env::var("COLT_OBS_PATH") else { return };
    if path.is_empty() {
        return;
    }
    let snap = report.obs();
    let jsonl = format!("{path}.jsonl");
    let prom = format!("{path}.prom");
    if let Err(e) = std::fs::write(&jsonl, snap.events_jsonl()) {
        colt_obs::progress(
            colt_obs::Event::new("obs_dump_error").field("path", jsonl).field("error", e.to_string()),
        );
        return;
    }
    if let Err(e) = std::fs::write(&prom, snap.prometheus()) {
        colt_obs::progress(
            colt_obs::Event::new("obs_dump_error").field("path", prom).field("error", e.to_string()),
        );
        return;
    }
    colt_obs::progress(
        colt_obs::Event::new("obs_dump")
            .field("events", snap.events.len())
            .field("jsonl", jsonl)
            .field("prom", prom),
    );
}

/// Write the merged flame accumulator as folded-stack lines when
/// `COLT_OBS_FLAME=<path>` is set.
fn dump_flame(report: &colt_harness::ParallelReport) {
    let Ok(path) = std::env::var("COLT_OBS_FLAME") else { return };
    if path.is_empty() {
        return;
    }
    let snap = report.obs();
    if let Err(e) = std::fs::write(&path, snap.folded_flame()) {
        colt_obs::progress(
            colt_obs::Event::new("obs_dump_error").field("path", path).field("error", e.to_string()),
        );
        return;
    }
    colt_obs::progress(
        colt_obs::Event::new("obs_flame_dump").field("frames", snap.flame.len()).field("path", path),
    );
}

/// Write the merged flight recorder (ledger + time series JSONL) when
/// `COLT_OBS_LEDGER=<path>` is set.
fn dump_ledger(report: &colt_harness::ParallelReport) {
    let Ok(path) = std::env::var("COLT_OBS_LEDGER") else { return };
    if path.is_empty() {
        return;
    }
    let snap = report.obs();
    if let Err(e) = std::fs::write(&path, snap.flight_jsonl()) {
        colt_obs::progress(
            colt_obs::Event::new("obs_dump_error").field("path", path).field("error", e.to_string()),
        );
        return;
    }
    colt_obs::progress(
        colt_obs::Event::new("obs_ledger_dump")
            .field("decisions", snap.ledger.len() as u64)
            .field("series_points", snap.series.len() as u64)
            .field("path", path),
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
    use super::{parse_scale, parse_seed};

    #[test]
    fn unset_overrides_keep_the_defaults() {
        assert_eq!(parse_scale(None), Ok(super::DEFAULT_SCALE));
        assert_eq!(parse_seed(None), Ok(42));
        assert_eq!(parse_scale(Some("0.01")), Ok(0.01));
        assert_eq!(parse_seed(Some("7")), Ok(7));
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
    }

    #[test]
    fn fmt_ms_shapes() {
        assert_eq!(super::fmt_ms(12.34), "12.3 ms");
        assert_eq!(super::fmt_ms(123_456.0), "123.5 s");
    }
}
