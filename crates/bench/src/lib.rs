//! # colt-bench
//!
//! Benchmark harness for the COLT reproduction: one binary per paper
//! exhibit (`table1`, `fig3`, `fig4`, `fig5`, `fig6`, `ablation`) plus
//! Criterion micro-benchmarks of the substrates (`cargo bench`).
//!
//! Every binary reads three environment variables:
//!
//! * `COLT_SCALE` — data scale relative to the paper's Table 1
//!   (default: 0.025 = 1/40),
//! * `COLT_SEED` — master seed (default: 42),
//! * `COLT_THREADS` — worker threads for the parallel harness
//!   (default: available parallelism). Results are bit-identical at
//!   every thread count; only wall-clock time changes.
//!
//! Results are printed to stdout in a form that pastes directly into
//! `EXPERIMENTS.md`.

#![forbid(unsafe_code)]

use colt_workload::{generate, TpchData, DEFAULT_SCALE};

/// Data scale from `COLT_SCALE` (default [`DEFAULT_SCALE`]).
pub fn scale() -> f64 {
    std::env::var("COLT_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SCALE)
}

/// Master seed from `COLT_SEED` (default 42).
pub fn seed() -> u64 {
    std::env::var("COLT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
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
    #[test]
    fn env_defaults() {
        // Do not set the env vars: defaults must apply.
        assert!(super::scale() > 0.0);
        assert!(super::seed() > 0);
    }

    #[test]
    fn fmt_ms_shapes() {
        assert_eq!(super::fmt_ms(12.34), "12.3 ms");
        assert_eq!(super::fmt_ms(123_456.0), "123.5 s");
    }
}
