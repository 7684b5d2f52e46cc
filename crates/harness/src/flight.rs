//! Exhibit-grade markdown rendering of the flight recorder: the
//! per-epoch decision timeline, the "why each index exists" audit, and
//! the per-epoch access-path mix.
//!
//! Everything rendered here is deterministic — epochs, page counts,
//! benefit values, and simulated milliseconds only, never the wall
//! clock — so the output pastes into EXPERIMENTS.md and diffs cleanly
//! in CI at any thread count and `COLT_OBS` level.

use crate::runner::RunResult;
use colt_obs::{DecisionKind, DecisionRecord, Snapshot};

/// One parsed entry of a knapsack record's `candidates` field
/// (`index:size_pages:net_benefit|...`).
#[derive(Debug, Clone, PartialEq)]
pub struct KnapsackCandidate {
    /// The candidate index, rendered `t<table>.c<column>`.
    pub index: String,
    /// Size in budget pages.
    pub size_pages: u64,
    /// Net-benefit value the knapsack saw.
    pub value: f64,
}

/// Parse a knapsack record's `candidates` field.
pub fn parse_candidates(record: &DecisionRecord) -> Vec<KnapsackCandidate> {
    let Some(s) = record.get_str("candidates") else { return Vec::new() };
    s.split('|')
        .filter(|part| !part.is_empty())
        .filter_map(|part| {
            let mut it = part.splitn(3, ':');
            Some(KnapsackCandidate {
                index: it.next()?.to_string(),
                size_pages: it.next()?.parse().ok()?,
                value: it.next()?.parse().ok()?,
            })
        })
        .collect()
}

/// The knapsack record that explains a create/drop at `epoch`: the last
/// knapsack solved at or before that epoch (piggybacked builds execute
/// epochs after the solve that chose them).
pub fn explaining_knapsack(obs: &Snapshot, epoch: u64) -> Option<&DecisionRecord> {
    obs.ledger.of_kind(DecisionKind::Knapsack).filter(|r| r.epoch <= epoch).last()
}

/// Render the per-epoch decision timeline: one row per epoch on the
/// flight recorder's axis, folding the trace's reorganization outcome
/// with the ledger's knapsack solve.
pub fn render_decision_timeline(run: &RunResult) -> String {
    let axis = run.trace.epoch_axis(&run.obs);
    let mut out = String::from("## Per-epoch decision timeline\n\n");
    out.push_str(
        "| epoch | what-if used/limit | next budget | ratio | knapsack spent/budget (pages) | created | dropped | build (sim ms) |\n",
    );
    out.push_str("|------:|-------------------:|------------:|------:|------------------------------:|---|---|---:|\n");
    for e in 0..axis {
        let (used, limit, next_budget, ratio, created, dropped, build) =
            match run.trace.epochs.get(e as usize) {
                Some(r) => (
                    r.whatif_used,
                    r.whatif_limit,
                    r.next_budget,
                    r.ratio,
                    join_cols(&r.created),
                    join_cols(&r.dropped),
                    r.build_millis,
                ),
                None => (0, 0, 0, 0.0, String::new(), String::new(), 0.0),
            };
        let knapsack = run
            .obs
            .ledger
            .of_kind(DecisionKind::Knapsack)
            .filter(|r| r.epoch == e)
            .last()
            .map(|r| {
                format!(
                    "{}/{}",
                    r.get_u64("spent_pages").unwrap_or(0),
                    r.get_u64("budget_pages").unwrap_or(0)
                )
            })
            .unwrap_or_else(|| "—".to_string());
        out.push_str(&format!(
            "| {e} | {used}/{limit} | {next_budget} | {ratio:.3} | {knapsack} | {} | {} | {build:.1} |\n",
            dash_if_empty(&created),
            dash_if_empty(&dropped),
        ));
    }
    out
}

/// Render the "why each index exists" audit: every `index_create` /
/// `index_drop` ledger record joined to the knapsack solve that
/// produced it, with the index's size and net-benefit value as the
/// knapsack saw them (`evicted` where the ledger no longer holds it).
pub fn render_index_explanations(run: &RunResult) -> String {
    let mut out = String::from("## Why each index exists\n\n");
    out.push_str(
        "| epoch | action | index | via | build (sim ms) | knapsack value | size (pages) | budget spent/total |\n",
    );
    out.push_str("|------:|---|---|---|---:|---:|---:|---:|\n");
    let mut rows = 0usize;
    for rec in run.obs.ledger.records() {
        let action = match rec.kind {
            DecisionKind::IndexCreate => "create",
            DecisionKind::IndexDrop => "drop",
            _ => continue,
        };
        rows += 1;
        let index = rec.get_str("index").unwrap_or("?");
        let via = rec.get_str("via").unwrap_or("?");
        let build = rec.get_f64("build_millis").unwrap_or(0.0);
        let knapsack = explaining_knapsack(&run.obs, rec.epoch);
        let cand = knapsack.and_then(|k| parse_candidates(k).into_iter().find(|c| c.index == index));
        // A solve the bounded ledger evicted is not a solve that never ran.
        let gap = if knapsack.is_none() && run.obs.ledger.evicted() > 0 { "evicted" } else { "—" };
        let value = cand.as_ref().map_or(gap.to_string(), |c| format!("{:.3}", c.value));
        let size = cand.as_ref().map_or(gap.to_string(), |c| c.size_pages.to_string());
        let spent = knapsack.map_or(gap.to_string(), |k| {
            format!(
                "{}/{}",
                k.get_u64("spent_pages").unwrap_or(0),
                k.get_u64("budget_pages").unwrap_or(0)
            )
        });
        out.push_str(&format!(
            "| {} | {action} | {index} | {via} | {build:.1} | {value} | {size} | {spent} |\n",
            rec.epoch
        ));
    }
    if rows == 0 {
        out.push_str("| — | — | — | — | — | — | — | — |\n");
    }
    out
}

/// Human label of a ledger record kind. The match is exhaustive, so a
/// new [`DecisionKind`] does not compile until it has a label here.
fn label(kind: DecisionKind) -> &'static str {
    match kind {
        DecisionKind::WhatifProbe => "what-if probe",
        DecisionKind::WhatifSkip => "what-if skip",
        DecisionKind::ClusterAssign => "cluster assignment",
        DecisionKind::Knapsack => "knapsack solve",
        DecisionKind::IndexCreate => "index created",
        DecisionKind::IndexDrop => "index dropped",
        DecisionKind::BudgetChange => "budget change",
    }
}

/// Render the ledger digest: one row per decision kind — label, record
/// count, and epoch span. Every kind is always present, so a kind whose
/// records stopped flowing shows up as a zero row in the diff instead
/// of silently vanishing from the exhibit.
pub fn render_ledger_digest(obs: &Snapshot) -> String {
    let mut out = String::from("## Decision-ledger digest\n\n");
    out.push_str("| kind | decisions | first epoch | last epoch |\n");
    out.push_str("|---|---:|---:|---:|\n");
    for kind in DecisionKind::ALL {
        let mut count = 0u64;
        let mut first: Option<u64> = None;
        let mut last: Option<u64> = None;
        for r in obs.ledger.of_kind(kind) {
            count += 1;
            first = Some(first.map_or(r.epoch, |f| f.min(r.epoch)));
            last = Some(last.map_or(r.epoch, |l| l.max(r.epoch)));
        }
        let dash = "—".to_string();
        out.push_str(&format!(
            "| {} | {count} | {} | {} |\n",
            label(kind),
            first.map_or_else(|| dash.clone(), |e| e.to_string()),
            last.map_or_else(|| dash.clone(), |e| e.to_string()),
        ));
    }
    out
}

/// The access-path counters the mix exhibit tracks, in column order.
pub const ACCESS_PATH_COUNTERS: &[(&str, &str)] = &[
    ("engine.op.seq_scan", "seq scan"),
    ("engine.op.index_scan", "index scan"),
    ("engine.op.composite_scan", "composite scan"),
    ("engine.op.index_nl_join", "index NL join"),
    ("engine.op.hash_join", "hash join"),
    ("storage.btree.lookups", "btree lookups"),
    ("storage.heap.scans", "heap scans"),
];

/// Render the per-epoch access-path mix from the time series: how the
/// executor's operator choices shift as the tuner materializes indices.
pub fn render_access_path_mix(title: &str, obs: &Snapshot) -> String {
    let mut out = format!("## Access-path mix per epoch — {title}\n\n");
    out.push_str("| epoch |");
    for (_, label) in ACCESS_PATH_COUNTERS {
        out.push_str(&format!(" {label} |"));
    }
    out.push('\n');
    out.push_str("|------:|");
    for _ in ACCESS_PATH_COUNTERS {
        out.push_str("---:|");
    }
    out.push('\n');
    let axis = obs.series.max_epoch().map_or(0, |e| e + 1);
    for e in 0..axis {
        out.push_str(&format!("| {e} |"));
        for (name, _) in ACCESS_PATH_COUNTERS {
            out.push_str(&format!(" {} |", obs.series.counter_at(e, name)));
        }
        out.push('\n');
    }
    if axis == 0 {
        out.push_str("| — |");
        for _ in ACCESS_PATH_COUNTERS {
            out.push_str(" — |");
        }
        out.push('\n');
    }
    out
}

fn join_cols(cols: &[colt_catalog::ColRef]) -> String {
    cols.iter().map(ToString::to_string).collect::<Vec<_>>().join(" ")
}

fn dash_if_empty(s: &str) -> &str {
    if s.is_empty() {
        "—"
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{Policy, QuerySample};
    use colt_core::trace::EpochRecord;
    use colt_core::Trace;
    use colt_obs::{Level, Recorder};

    fn run_with(trace: Trace, obs: Snapshot) -> RunResult {
        RunResult {
            policy: Policy::None,
            samples: vec![QuerySample { exec_millis: 1.0, tuning_millis: 0.0, rows: 0 }],
            trace,
            final_indices: Vec::new(),
            offline: None,
            profiled_indices: 0,
            obs,
        }
    }

    fn recorder_with_decisions() -> Snapshot {
        decisions_into(Recorder::new(Level::Summary))
    }

    fn decisions_into(mut r: Recorder) -> Snapshot {
        r.record_decision(
            DecisionRecord::new(DecisionKind::Knapsack)
                .field("candidates", "t0.c0:40:123.456|t0.c1:60:-2.000")
                .field("chosen", "t0.c0")
                .field("budget_pages", 100u64)
                .field("spent_pages", 40u64),
        );
        r.record_decision(
            DecisionRecord::new(DecisionKind::IndexCreate)
                .field("index", "t0.c0")
                .field("via", "reorganize")
                .field("build_millis", 12.5),
        );
        r.add_counter("engine.op.seq_scan", 5);
        r.mark_epoch(0);
        r.add_counter("engine.op.index_scan", 7);
        r.mark_epoch(1);
        r.into_snapshot()
    }

    #[test]
    fn ledger_digest_lists_every_kind() {
        let s = render_ledger_digest(&recorder_with_decisions());
        for kind in DecisionKind::ALL {
            assert!(s.contains(label(kind)), "digest misses `{}`:\n{s}", label(kind));
        }
        assert!(s.contains("| knapsack solve | 1 | 0 | 0 |"), "digest:\n{s}");
        assert!(s.contains("| what-if probe | 0 | — | — |"), "digest:\n{s}");
    }

    #[test]
    fn candidates_round_trip() {
        let rec = DecisionRecord::new(DecisionKind::Knapsack)
            .field("candidates", "t0.c0:40:123.456|t0.c1:60:-2.000");
        let c = parse_candidates(&rec);
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].index, "t0.c0");
        assert_eq!(c[0].size_pages, 40);
        assert!((c[0].value - 123.456).abs() < 1e-9);
        assert!((c[1].value + 2.0).abs() < 1e-9);
        assert!(parse_candidates(&DecisionRecord::new(DecisionKind::Knapsack)).is_empty());
    }

    #[test]
    fn timeline_pads_to_the_recorder_axis() {
        let mut trace = Trace::new();
        trace.push(EpochRecord {
            epoch: 0,
            whatif_used: 0,
            whatif_limit: 0,
            whatif_skipped: 0,
            next_budget: 0,
            ratio: 0.0,
            created: vec![],
            dropped: vec![],
            build_millis: 0.0,
        });
        let s = render_decision_timeline(&run_with(trace, recorder_with_decisions()));
        // The series saw epochs 0 and 1; the trace closed only epoch 0,
        // so the table has a zero row for epoch 1.
        assert!(s.contains("| 0 | 0/0 | 0 | 0.000 | 40/100 |"), "timeline:\n{s}");
        assert!(s.contains("| 1 | 0/0 | 0 | 0.000 | — |"), "timeline:\n{s}");
    }

    #[test]
    fn explanations_join_creates_to_their_knapsack() {
        let s = render_index_explanations(&run_with(Trace::new(), recorder_with_decisions()));
        assert!(
            s.contains("| 0 | create | t0.c0 | reorganize | 12.5 | 123.456 | 40 | 40/100 |"),
            "explanations:\n{s}"
        );
    }

    #[test]
    fn explanations_say_when_the_explaining_knapsack_was_evicted() {
        // A one-record ring: the create pushes its own knapsack out.
        let obs = decisions_into(Recorder::new(Level::Summary).with_ledger_capacity(1));
        assert_eq!(obs.ledger.evicted(), 1);
        let s = render_index_explanations(&run_with(Trace::new(), obs));
        assert!(
            s.contains("| 0 | create | t0.c0 | reorganize | 12.5 | evicted | evicted | evicted |"),
            "explanations:\n{s}"
        );
    }

    #[test]
    fn explanations_render_a_placeholder_row_when_empty() {
        let s = render_index_explanations(&run_with(Trace::new(), Snapshot::default()));
        assert!(s.contains("| — | — | — | — | — | — | — | — |"));
    }

    #[test]
    fn access_path_mix_reads_the_series() {
        let s = render_access_path_mix("COLT", &recorder_with_decisions());
        assert!(s.contains("| 0 | 5 | 0 |"), "mix:\n{s}");
        assert!(s.contains("| 1 | 0 | 7 |"), "mix:\n{s}");
        let empty = render_access_path_mix("NONE", &Snapshot::default());
        assert!(empty.contains("| — |"));
    }

    #[test]
    fn explaining_knapsack_takes_the_latest_at_or_before() {
        let mut r = Recorder::new(Level::Summary);
        r.record_decision(DecisionRecord::new(DecisionKind::Knapsack).field("spent_pages", 1u64));
        r.add_counter("c.n", 1);
        r.mark_epoch(0);
        r.record_decision(DecisionRecord::new(DecisionKind::Knapsack).field("spent_pages", 2u64));
        let obs = r.into_snapshot();
        assert_eq!(explaining_knapsack(&obs, 0).unwrap().get_u64("spent_pages"), Some(1));
        assert_eq!(explaining_knapsack(&obs, 5).unwrap().get_u64("spent_pages"), Some(2));
    }
}
