//! The flight-recorder contract, end to end: a COLT run under a
//! recording level produces a decision ledger that explains every index
//! the tuner built or dropped, a per-epoch time series aligned with the
//! trace's epoch axis, and cross-checks against the plain counters.

use colt_repro::colt::ColtConfig;
use colt_repro::harness::{explaining_knapsack, parse_candidates, Experiment, Policy};
use colt_repro::obs::{install, take, DecisionKind, Level, Recorder};
use colt_repro::workload::{generate, presets};

const SCALE: f64 = 0.004;
const SEED: u64 = 42;

fn run_colt_at(level: Level) -> colt_repro::harness::RunResult {
    let data = generate(SCALE, SEED);
    let preset = presets::stable(&data, SEED);
    let prev = install(Recorder::new(level));
    assert!(prev.is_none(), "test thread must start without a recorder");
    let result = Experiment::new(&data.db, &preset.queries)
        .policy(Policy::colt(ColtConfig {
            storage_budget_pages: preset.budget_pages,
            ..Default::default()
        }))
        .run()
        .expect("run failed");
    take();
    result
}

#[test]
fn every_index_change_is_explained_by_the_ledger() {
    let run = run_colt_at(Level::Summary);
    assert!(!run.obs.ledger.is_empty(), "a tuned run must leave a decision trail");

    // Every create/drop the trace saw has a ledger record at the same
    // epoch, and that record joins to a knapsack solve whose candidate
    // set prices the index.
    for e in &run.trace.epochs {
        for (col, action) in e
            .created
            .iter()
            .map(|c| (c, DecisionKind::IndexCreate))
            .chain(e.dropped.iter().map(|c| (c, DecisionKind::IndexDrop)))
        {
            let name = col.to_string();
            let rec = run
                .obs
                .ledger
                .of_kind(action)
                .find(|r| r.epoch == e.epoch && r.get_str("index") == Some(name.as_str()))
                .unwrap_or_else(|| {
                    panic!("epoch {}: no {} ledger record for {name}", e.epoch, action.name())
                });
            let solve = explaining_knapsack(&run.obs, rec.epoch)
                .unwrap_or_else(|| panic!("no knapsack solve at or before epoch {}", rec.epoch));
            assert!(
                parse_candidates(solve).iter().any(|c| c.index == name),
                "epoch {}: knapsack candidates do not price {name}",
                e.epoch
            );
        }
    }
    // And the trace's build totals agree with the ledger's.
    let ledger_creates = run.obs.ledger.of_kind(DecisionKind::IndexCreate).count();
    assert_eq!(ledger_creates, run.trace.total_builds(), "one create record per build");
}

#[test]
fn ledger_knapsack_spend_cross_checks_the_counter() {
    let run = run_colt_at(Level::Summary);
    // `tuner.budget.spent` is bumped by spent_pages at every knapsack
    // solve; the ledger records the same quantity per solve. The two
    // observation paths must tell one story.
    let from_ledger: u64 = run
        .obs
        .ledger
        .of_kind(DecisionKind::Knapsack)
        .map(|r| r.get_u64("spent_pages").unwrap_or(0))
        .sum();
    assert!(from_ledger > 0, "the stable preset materializes indices");
    assert_eq!(from_ledger, run.obs.counter("tuner.budget.spent"));
}

#[test]
fn time_series_spans_the_epoch_axis_without_gaps_at_the_start() {
    let run = run_colt_at(Level::Summary);
    let axis = run.trace.epoch_axis(&run.obs);
    assert!(axis as usize >= run.trace.epochs.len());
    assert!(!run.obs.series.is_empty(), "per-epoch deltas must be recorded");
    let max = run.obs.series.max_epoch().expect("non-empty series");
    assert!(max < axis, "series epochs stay inside the axis");
    // Every epoch executed queries, so every epoch has a series point
    // with engine activity.
    for e in 0..run.trace.epochs.len() as u64 {
        assert!(
            run.obs.series.counter_at(e, "engine.op.seq_scan")
                + run.obs.series.counter_at(e, "engine.op.index_scan")
                + run.obs.series.counter_at(e, "engine.op.composite_scan")
                > 0,
            "epoch {e} shows no scan activity"
        );
    }
}

#[test]
fn flight_dump_is_identical_across_recording_levels() {
    // The ledger and series hold only simulated values, so Summary and
    // Full runs must serialize byte-identically.
    let a = run_colt_at(Level::Summary);
    let b = run_colt_at(Level::Full);
    assert_eq!(a.obs.flight_jsonl(), b.obs.flight_jsonl());
    assert!(!a.obs.flight_jsonl().is_empty());
}
