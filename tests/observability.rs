//! The observability contract, end to end:
//!
//! * a run under a `Full` recorder yields a snapshot whose three
//!   component spans bracket every query and account for the run's
//!   simulated time (counts and simulated ms, never wall clocks);
//! * every line of the snapshot's one dump parses with the strict
//!   in-repo JSON parser and carries one of its five tags;
//! * an `Off` recorder records nothing and costs the default path
//!   nothing — the samples are identical with and without recording;
//! * the work a run does, in counted units, is pinned exactly.

use colt_repro::colt::ColtConfig;
use colt_repro::harness::{component_breakdown, Experiment, Policy};
use colt_repro::obs::{install, take, DecisionKind, Level, Recorder};
use colt_repro::workload::{generate, presets, TpchData};

const SCALE: f64 = 0.004;
const SEED: u64 = 42;

/// Run COLT over `preset` with recording forced to `level`:
/// [`Experiment::run`] inherits the level of the recorder installed on
/// the calling thread, so installing one here controls recording
/// regardless of the `COLT_OBS` environment.
fn run_colt_at(
    level: Level,
    preset: fn(&TpchData, u64) -> presets::Preset,
) -> colt_repro::harness::RunResult {
    let data = generate(SCALE, SEED);
    let preset = preset(&data, SEED);
    let prev = install(Recorder::new(level));
    assert!(prev.is_none(), "test thread must start without a recorder");
    let result = Experiment::new(&data.db, &preset.queries)
        .policy(Policy::colt(ColtConfig {
            storage_budget_pages: preset.budget_pages,
            ..Default::default()
        }))
        .run().expect("run failed");
    take(); // drop the outer recorder, leaving the thread clean
    result
}

/// The breakdown's three component spans account for the run: one of
/// each brackets every query (and one `harness.run` all of them), so
/// nothing a query does falls outside them, and the simulated time they
/// were handed is the run's charged time to within 5 % (to the last
/// bit, in fact). Counts and simulated time only: the *wall-clock*
/// remainder depends on what else the machine is doing — the same
/// assertion on `other_ms` failed one isolated run in twenty — and is
/// reported, not gated, as `harness.loop_self_share` by `benches/perf`.
#[test]
fn breakdown_accounts_for_run_time_within_5_percent() {
    let run = run_colt_at(Level::Full, presets::stable);
    assert!(!run.obs.is_empty(), "Full-level run must record metrics");
    let span = |name: &str| run.obs.span(name).unwrap_or_else(|| panic!("no {name} span"));

    assert_eq!(span("harness.run").count, 1);
    let components = ["harness.optimize", "harness.execute", "harness.tune"];
    for name in components {
        assert_eq!(span(name).count, run.samples.len() as u64, "one {name} span per query");
    }
    let attributed: f64 = components.iter().map(|name| span(name).sim_ms).sum();
    let total = run.total_millis();
    assert!(total > 0.0);
    assert!(
        (total - attributed).abs() <= total * 0.05,
        "the components' simulated {attributed} ms must account for the run's {total} ms"
    );

    // The wall-clock breakdown reads the same spans.
    assert!(component_breakdown(&run).total_ms > 0.0, "harness.run span must be measured");
}

#[test]
fn snapshot_covers_every_layer() {
    let run = run_colt_at(Level::Full, presets::stable);
    let s = &run.obs;
    // Harness layer.
    assert!(s.counter("harness.queries") > 0);
    assert!(s.span("harness.run").is_some());
    // Engine layer.
    assert!(s.span("engine.optimize").is_some());
    assert!(s.span("engine.execute").is_some());
    assert!(s.counter("engine.whatif_calls") > 0);
    // Tuner layers.
    assert!(s.span("profiler.profile").is_some());
    assert!(s.span("tuner.epoch").is_some());
    assert!(s.span("organizer.knapsack").is_some());
    // Storage layer.
    assert!(s.counter("storage.heap.scans") > 0);
    // Simulated time attribution mirrors the sample accounting.
    let exec_sim: f64 = run.samples.iter().map(|q| q.exec_millis).sum();
    let span_sim = s.span("harness.execute").expect("execute span").sim_ms;
    assert!(
        (exec_sim - span_sim).abs() < 1e-6,
        "simulated execute time diverged: samples {exec_sim} vs span {span_sim}"
    );
    let tune_sim: f64 = run.samples.iter().map(|q| q.tuning_millis).sum();
    let tune_span = s.span("harness.tune").expect("tune span").sim_ms;
    assert!((tune_sim - tune_span).abs() < 1e-6);
    // Every closed epoch left its budget decision in the ledger.
    let closed: Vec<u64> = s.ledger.of_kind(DecisionKind::BudgetChange).map(|r| r.epoch).collect();
    assert!(!closed.is_empty(), "a tuned run closes epochs");
    assert_eq!(closed, (0..run.trace.epochs.len() as u64).collect::<Vec<_>>());
}

#[test]
fn every_dump_line_parses_and_carries_one_of_five_tags() {
    use colt_repro::obs::json::{parse, Json};
    let run = run_colt_at(Level::Full, presets::stable);
    let dump = run.obs.jsonl();
    assert!(dump.starts_with(&run.obs.flight_jsonl()), "the flight recorder is the dump's prefix");
    let mut decisions = run.obs.ledger.records();
    for (i, line) in dump.lines().enumerate() {
        let v = parse(line).unwrap_or_else(|e| panic!("line {}: {e}: {line}", i + 1));
        let Json::Obj(pairs) = &v else { panic!("line {} is not an object: {line}", i + 1) };
        let tag = pairs.first().map_or("", |(k, _)| k.as_str());
        assert!(
            ["decision", "series_epoch", "counter", "span", "flame"].contains(&tag),
            "line {}: unknown tag {tag:?}: {line}",
            i + 1
        );
        if tag == "decision" {
            // Each decision line is the ledger's record, in record
            // order: its kind's wire name, its epoch, and every field
            // under its own key.
            let d = decisions.next().expect("no more decision lines than ledger records");
            assert_eq!(v.get("decision").and_then(Json::as_str), Some(d.kind.name()), "line {}", i + 1);
            assert_eq!(v.get("epoch").and_then(Json::as_u64), Some(d.epoch), "line {}", i + 1);
            assert_eq!(pairs.len(), 2 + d.fields.len(), "line {}: {line}", i + 1);
            assert!(d.fields.iter().all(|(k, _)| v.get(k).is_some()), "line {}: {line}", i + 1);
        }
    }
    assert!(decisions.next().is_none(), "every ledger record has its line");
    assert!(!run.obs.ledger.is_empty());
}

#[test]
fn off_recorder_records_nothing_and_changes_nothing() {
    let full = run_colt_at(Level::Full, presets::stable);
    let off = run_colt_at(Level::Off, presets::stable);
    assert!(off.obs.is_empty(), "Off-level runs must not record");
    // The runs themselves are identical: recording is observation only.
    assert_eq!(full.samples, off.samples);
    assert_eq!(full.summary_json(), off.summary_json());
}

/// The work one COLT run over the shifting preset does, in counted
/// units: every counter, then every span's call count as `<span>.calls`
/// (never wall ns), each group sorted by name.
/// Runs are deterministic, so any difference is a behaviour change —
/// if it is intended, replace the listing with the one the failure
/// prints and say in the PR which lines moved and why.
#[test]
fn work_counters_are_exact() {
    const EXPECTED: &str = "\
engine.op.hash_join 45
engine.op.index_scan 714
engine.op.seq_scan 681
engine.whatif.memo_invalidate 45
engine.whatif.memo_miss 48
engine.whatif_calls 48
harness.queries 1350
storage.btree.lookups 249
storage.btree.ranges 714
storage.heap.fetches 8594
storage.heap.scans 692
tuner.budget.spent 4021
tuner.whatif.considered 179
tuner.whatif.issued 48
tuner.whatif.skipped 131
engine.exec.batch.calls 1440
engine.execute.calls 1350
engine.optimize.calls 1350
engine.whatif.calls 48
harness.execute.calls 1350
harness.optimize.calls 1350
harness.run.calls 1
harness.tune.calls 1350
organizer.knapsack.calls 405
organizer.rebudget.calls 135
organizer.reorganize.calls 135
profiler.cluster.calls 1350
profiler.crude.calls 1350
profiler.profile.calls 1350
profiler.whatif.calls 48
storage.btree.bulk_load.calls 11
tuner.epoch.calls 135
";
    let s = run_colt_at(Level::Summary, presets::shifting).obs;
    let actual: String = (s.counters.iter().map(|(k, v)| format!("{k} {v}\n")))
        .chain(s.spans.iter().map(|(k, v)| format!("{k}.calls {}\n", v.count)))
        .collect();
    assert!(actual == EXPECTED, "work counters moved; actual listing:\n{actual}");
    // The listing must never be pinned on a run that exercised nothing.
    assert_eq!(
        s.counter("tuner.whatif.issued") + s.counter("tuner.whatif.skipped"),
        s.counter("tuner.whatif.considered")
    );
    for live in ["tuner.whatif.skipped", "engine.whatif.memo_miss", "storage.btree.lookups"] {
        assert!(s.counter(live) > 0, "{live} must be exercised");
    }
}
