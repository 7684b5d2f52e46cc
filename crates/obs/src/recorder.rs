//! The metrics recorder and its immutable snapshot.
//!
//! A [`Recorder`] is plain owned state — no globals, no locks, no
//! atomics. The intended deployment (see the crate docs) is one
//! recorder per thread, installed into the thread-local slot for the
//! duration of a run and merged with sibling snapshots afterwards; the
//! hot path is therefore a thread-local pointer check plus a `BTreeMap`
//! bump, and aggregation across threads happens outside the measured
//! region entirely.

use crate::hist::{Histogram, DURATION_US_BUCKETS};
use crate::json::{format_float, write_str};
use crate::ledger::{DecisionLedger, DecisionRecord, EpochPoint, TimeSeries};
use crate::Level;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated timing of one named span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall-clock nanoseconds across completions.
    pub wall_ns: u64,
    /// Total *simulated* milliseconds attributed to the span (reported
    /// explicitly by instrumented sites; the deterministic clock has no
    /// ambient "now").
    pub sim_ms: f64,
    /// Wall-clock duration distribution, in microseconds.
    pub wall_us: Histogram,
}

impl SpanStats {
    fn new() -> Self {
        SpanStats { count: 0, wall_ns: 0, sim_ms: 0.0, wall_us: Histogram::new(DURATION_US_BUCKETS) }
    }

    /// Total wall-clock milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6
    }

    fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.wall_ns += other.wall_ns;
        self.sim_ms += other.sim_ms;
        self.wall_us.merge(&other.wall_us);
    }
}

/// A mutable metrics recorder: counters, span timings, and the flight
/// recorder.
#[derive(Debug, Clone)]
pub struct Recorder {
    level: Level,
    counters: BTreeMap<&'static str, u64>,
    spans: BTreeMap<&'static str, SpanStats>,
    /// Self-time flame accumulator: the live span stack, the instant of
    /// the last enter/exit transition, and folded-stack self time in
    /// nanoseconds keyed by `outer;inner;leaf`.
    flame_stack: Vec<&'static str>,
    flame_last: Option<Instant>,
    flame: BTreeMap<String, u64>,
    /// Flight recorder: the decision ledger, the per-epoch time series,
    /// the epoch stamped onto incoming decisions, and the metric
    /// baselines the next [`Recorder::mark_epoch`] diffs against.
    ledger: DecisionLedger,
    series: TimeSeries,
    epoch: u64,
    series_counter_base: BTreeMap<&'static str, u64>,
    series_sim_base: BTreeMap<&'static str, f64>,
}

impl Recorder {
    /// A recorder at the given level. [`Level::Off`] recorders are
    /// inert: installing one disables all recording on the thread.
    pub fn new(level: Level) -> Self {
        Recorder {
            level,
            counters: BTreeMap::new(),
            spans: BTreeMap::new(),
            flame_stack: Vec::new(),
            flame_last: None,
            flame: BTreeMap::new(),
            ledger: DecisionLedger::default(),
            series: TimeSeries::default(),
            epoch: 0,
            series_counter_base: BTreeMap::new(),
            series_sim_base: BTreeMap::new(),
        }
    }

    /// Replace the decision ledger's capacity (testing hook for
    /// eviction behavior; the default bound is
    /// [`crate::ledger::DEFAULT_LEDGER_CAPACITY`]).
    pub fn with_ledger_capacity(mut self, capacity: usize) -> Self {
        self.ledger = DecisionLedger::new(capacity);
        self
    }

    /// Replace the time series' capacity (testing hook; the default
    /// bound is [`crate::ledger::DEFAULT_SERIES_CAPACITY`]).
    pub fn with_series_capacity(mut self, capacity: usize) -> Self {
        self.series = TimeSeries::new(capacity);
        self
    }

    /// A recorder at the level selected by the `COLT_OBS` environment
    /// variable (see [`Level::from_env`]).
    pub fn from_env() -> Self {
        Self::new(Level::from_env())
    }

    /// The recorder's level.
    pub fn level(&self) -> Level {
        self.level
    }

    /// Add `n` to a named counter.
    pub fn add_counter(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Record one completed span of `wall_ns` nanoseconds.
    pub fn record_span(&mut self, name: &'static str, wall_ns: u64) {
        let s = self.spans.entry(name).or_insert_with(SpanStats::new);
        s.count += 1;
        s.wall_ns += wall_ns;
        s.wall_us.observe(wall_ns as f64 / 1e3);
    }

    /// Attribute simulated milliseconds to a named span.
    pub fn record_span_sim(&mut self, name: &'static str, sim_ms: f64) {
        self.spans.entry(name).or_insert_with(SpanStats::new).sim_ms += sim_ms;
    }

    /// A span guard opened: attribute elapsed self time to the current
    /// stack, then push the new frame.
    pub fn flame_enter(&mut self, name: &'static str) {
        self.flame_tick();
        self.flame_stack.push(name);
    }

    /// A span guard dropped: attribute elapsed self time to the current
    /// stack, then pop the frame. Guards normally drop in LIFO order;
    /// if one outlives a later sibling, the deepest frame with this
    /// name is removed so the stack stays consistent.
    pub fn flame_exit(&mut self, name: &'static str) {
        self.flame_tick();
        if self.flame_stack.last() == Some(&name) {
            self.flame_stack.pop();
        } else if let Some(pos) = self.flame_stack.iter().rposition(|&f| f == name) {
            self.flame_stack.remove(pos);
        }
    }

    /// Charge the time since the previous transition to whatever stack
    /// was live across that interval (self time, not inclusive time).
    fn flame_tick(&mut self) {
        let now = Instant::now();
        if let Some(last) = self.flame_last {
            if !self.flame_stack.is_empty() {
                let ns = now.duration_since(last).as_nanos().min(u64::MAX as u128) as u64;
                *self.flame.entry(self.flame_stack.join(";")).or_insert(0) += ns;
            }
        }
        self.flame_last = Some(now);
    }

    /// Append a decision record to the ledger, stamping it with the
    /// recorder's current epoch.
    pub fn record_decision(&mut self, mut record: DecisionRecord) {
        record.epoch = self.epoch;
        self.ledger.push(record);
    }

    /// The epoch the next decision record will be stamped with.
    pub fn current_epoch(&self) -> u64 {
        self.epoch
    }

    /// Close epoch `epoch` in the flight recorder: snapshot every
    /// counter/span-sim delta since the previous mark into a
    /// time-series point (skipped when all deltas are zero), advance
    /// the baselines, and stamp subsequent decisions with `epoch + 1`.
    pub fn mark_epoch(&mut self, epoch: u64) {
        let mut counters: Vec<(String, u64)> = Vec::new();
        for (&name, &v) in &self.counters {
            let base = self.series_counter_base.get(name).copied().unwrap_or(0);
            if v > base {
                counters.push((name.to_string(), v - base));
            }
        }
        let mut sim_ms: Vec<(String, f64)> = Vec::new();
        for (&name, stats) in &self.spans {
            let base = self.series_sim_base.get(name).copied().unwrap_or(0.0);
            if stats.sim_ms != base {
                sim_ms.push((name.to_string(), stats.sim_ms - base));
            }
        }
        sim_ms.sort_by(|a, b| a.0.cmp(&b.0));
        let point = EpochPoint { epoch, counters, sim_ms };
        if !point.is_zero() {
            self.series.push(point);
        }
        self.series_counter_base = self.counters.clone();
        self.series_sim_base = self.spans.iter().map(|(&k, s)| (k, s.sim_ms)).collect();
        self.epoch = epoch + 1;
    }

    /// Freeze the recorder into a snapshot.
    pub fn into_snapshot(self) -> Snapshot {
        Snapshot {
            counters: self.counters.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            spans: self.spans.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
            flame: self.flame,
            ledger: self.ledger,
            series: self.series,
        }
    }
}

/// An immutable, mergeable snapshot of a recorder's state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Span timings by name.
    pub spans: BTreeMap<String, SpanStats>,
    /// Folded-stack self time in nanoseconds, keyed by
    /// `outer;inner;leaf` span paths.
    pub flame: BTreeMap<String, u64>,
    /// The flight recorder's decision ledger.
    pub ledger: DecisionLedger,
    /// The flight recorder's per-epoch time series.
    pub series: TimeSeries,
}

impl Snapshot {
    /// True when nothing was recorded (e.g. the run executed at
    /// [`Level::Off`]).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.spans.is_empty()
            && self.flame.is_empty()
            && self.ledger.is_empty()
            && self.series.is_empty()
    }

    /// A counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A span's accumulated stats.
    pub fn span(&self, name: &str) -> Option<&SpanStats> {
        self.spans.get(name)
    }

    /// A span's total wall-clock milliseconds (0 when absent).
    pub fn span_wall_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, SpanStats::wall_ms)
    }

    /// Fold another snapshot into this one: counters, spans and flame
    /// frames accumulate; decisions and series points append.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.spans {
            match self.spans.get_mut(k) {
                Some(s) => s.merge(v),
                None => {
                    self.spans.insert(k.clone(), v.clone());
                }
            }
        }
        for (k, v) in &other.flame {
            *self.flame.entry(k.clone()).or_insert(0) += v;
        }
        self.ledger.merge(&other.ledger);
        self.series.merge(&other.series);
    }

    /// The flight recorder as JSONL: every ledger record, then every
    /// time-series point (the two line shapes are distinguished by
    /// their leading `"decision"` / `"series_epoch"` key). It contains
    /// only deterministic simulated values, so it is byte-identical
    /// across `COLT_OBS` levels and `COLT_THREADS` counts — the prefix
    /// of [`Snapshot::jsonl`] that determinism checks compare.
    pub fn flight_jsonl(&self) -> String {
        let mut out = self.ledger.jsonl();
        out.push_str(&self.series.jsonl());
        out
    }

    /// The whole snapshot as JSONL — its only serialisation, and what
    /// `COLT_OBS_PATH=<file>` writes. Every line is one JSON object
    /// tagged by its first key, in this order:
    ///
    /// * `{"decision":kind,"epoch":N,…}` and
    ///   `{"series_epoch":N,"counters":{…},"sim_ms":{…}}` —
    ///   [`Snapshot::flight_jsonl`], the deterministic prefix;
    /// * `{"counter":name,"value":N}` — by name;
    /// * `{"span":name,"count":N,"wall_ns":N,"sim_ms":F,"wall_us_buckets":[…]}`
    ///   — by name; the buckets are per-bucket (not cumulative) counts
    ///   over [`DURATION_US_BUCKETS`] plus a final `+Inf` bucket;
    /// * `{"flame":"outer;inner;leaf","ns":N}` — folded-stack self time.
    ///
    /// Everything after the prefix may carry wall-clock values.
    pub fn jsonl(&self) -> String {
        let mut out = self.flight_jsonl();
        for (name, v) in &self.counters {
            out.push_str("{\"counter\":");
            write_str(&mut out, name);
            out.push_str(&format!(",\"value\":{v}}}\n"));
        }
        for (name, s) in &self.spans {
            out.push_str("{\"span\":");
            write_str(&mut out, name);
            let buckets: Vec<String> = s.wall_us.bucket_counts().iter().map(u64::to_string).collect();
            out.push_str(&format!(
                ",\"count\":{},\"wall_ns\":{},\"sim_ms\":{},\"wall_us_buckets\":[{}]}}\n",
                s.count,
                s.wall_ns,
                format_float(s.sim_ms),
                buckets.join(",")
            ));
        }
        for (stack, ns) in &self.flame {
            out.push_str("{\"flame\":");
            write_str(&mut out, stack);
            out.push_str(&format!(",\"ns\":{ns}}}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DecisionKind;

    #[test]
    fn record_and_snapshot() {
        let mut r = Recorder::new(Level::Full);
        r.add_counter("a.b", 2);
        r.add_counter("a.b", 3);
        r.record_span("s", 1_500_000); // 1.5 ms
        r.record_span_sim("s", 9.0);
        let s = r.into_snapshot();
        assert_eq!(s.counter("a.b"), 5);
        let span = s.span("s").unwrap();
        assert_eq!(span.count, 1);
        assert!((span.wall_ms() - 1.5).abs() < 1e-9);
        assert_eq!(span.sim_ms, 9.0);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_snapshot() {
        assert!(Recorder::new(Level::Off).into_snapshot().is_empty());
        assert!(Snapshot::default().is_empty());
        assert_eq!(Snapshot::default().counter("nope"), 0);
        assert_eq!(Snapshot::default().span_wall_ms("nope"), 0.0);
    }

    #[test]
    fn merge_accumulates_and_appends() {
        let mut a = Recorder::new(Level::Full);
        a.add_counter("c", 1);
        a.record_span("s", 1_000);
        a.record_decision(DecisionRecord::new(DecisionKind::Knapsack));
        let mut b = Recorder::new(Level::Full);
        b.add_counter("c", 2);
        b.add_counter("d", 7);
        b.record_span("s", 2_000);
        b.record_decision(DecisionRecord::new(DecisionKind::IndexCreate));
        let mut sa = a.into_snapshot();
        sa.merge(&b.into_snapshot());
        assert_eq!(sa.counter("c"), 3);
        assert_eq!(sa.counter("d"), 7);
        assert_eq!(sa.span("s").unwrap().count, 2);
        assert_eq!(sa.span("s").unwrap().wall_ns, 3_000);
        let kinds: Vec<&str> = sa.ledger.records().map(|d| d.kind.name()).collect();
        assert_eq!(kinds, ["knapsack", "index_create"]);
    }

    #[test]
    fn flame_folds_nested_stacks_with_self_time() {
        let mut r = Recorder::new(Level::Full);
        r.flame_enter("outer");
        r.flame_enter("inner");
        r.flame_exit("inner");
        r.flame_exit("outer");
        let s = r.into_snapshot();
        // Both the nested path and the outer self-time frame exist; the
        // actual nanosecond values depend on the wall clock.
        assert!(s.flame.contains_key("outer;inner"), "flame: {:?}", s.flame);
        assert!(s.flame.contains_key("outer"), "flame: {:?}", s.flame);
        assert!(s.flame.keys().all(|stack| !stack.is_empty()));
    }

    #[test]
    fn flame_exit_tolerates_out_of_order_drops() {
        let mut r = Recorder::new(Level::Full);
        r.flame_enter("a");
        r.flame_enter("b");
        r.flame_exit("a"); // dropped before its nested sibling
        r.flame_exit("b");
        let s = r.into_snapshot();
        assert!(s.flame.keys().all(|k| !k.is_empty()));
        // The stack fully unwound: no frame was left behind to pollute
        // unrelated paths (checked indirectly: no key nests b under b).
        assert!(!s.flame.contains_key("b;b"));
    }

    #[test]
    fn flame_merges_by_summing() {
        let mut a = Snapshot::default();
        a.flame.insert("x;y".into(), 10);
        let mut b = Snapshot::default();
        b.flame.insert("x;y".into(), 5);
        b.flame.insert("z".into(), 7);
        a.merge(&b);
        assert_eq!(a.flame["x;y"], 15);
        assert_eq!(a.flame["z"], 7);
        assert_eq!(a.jsonl(), "{\"flame\":\"x;y\",\"ns\":15}\n{\"flame\":\"z\",\"ns\":7}\n");
    }

    #[test]
    fn decisions_are_stamped_with_the_current_epoch() {
        let mut r = Recorder::new(Level::Summary);
        r.record_decision(DecisionRecord::new(DecisionKind::Knapsack));
        r.add_counter("a.b", 1);
        r.mark_epoch(0);
        r.record_decision(DecisionRecord::new(DecisionKind::IndexCreate));
        assert_eq!(r.current_epoch(), 1);
        let s = r.into_snapshot();
        let epochs: Vec<(u64, &str)> = s.ledger.records().map(|d| (d.epoch, d.kind.name())).collect();
        assert_eq!(epochs, [(0, "knapsack"), (1, "index_create")]);
        assert!(!s.is_empty());
    }

    #[test]
    fn mark_epoch_snapshots_deltas_and_advances_baselines() {
        let mut r = Recorder::new(Level::Summary);
        r.add_counter("a.b", 3);
        r.record_span_sim("s.t", 2.5);
        r.mark_epoch(0);
        r.add_counter("a.b", 2);
        r.mark_epoch(1);
        r.mark_epoch(2); // all-zero delta: no point is pushed
        let s = r.into_snapshot();
        assert_eq!(s.series.len(), 2);
        let points: Vec<&crate::EpochPoint> = s.series.points().collect();
        assert_eq!(points[0].epoch, 0);
        assert_eq!(points[0].counter("a.b"), 3);
        assert_eq!(points[0].sim("s.t"), 2.5);
        assert_eq!(points[1].epoch, 1);
        assert_eq!(points[1].counter("a.b"), 2);
        assert_eq!(points[1].sim("s.t"), 0.0);
        assert_eq!(s.series.max_epoch(), Some(1));
    }

    #[test]
    fn flight_jsonl_merges_deterministically() {
        let mut a = Recorder::new(Level::Summary);
        a.record_decision(DecisionRecord::new(DecisionKind::Knapsack).field("spent_pages", 4u64));
        a.add_counter("c.n", 1);
        a.mark_epoch(0);
        let mut b = Recorder::new(Level::Summary);
        b.record_decision(DecisionRecord::new(DecisionKind::BudgetChange).field("next", 9u64));
        b.add_counter("c.n", 2);
        b.mark_epoch(0);
        let mut merged = a.into_snapshot();
        merged.merge(&b.into_snapshot());
        assert_eq!(
            merged.flight_jsonl(),
            "{\"decision\":\"knapsack\",\"epoch\":0,\"spent_pages\":4}\n\
             {\"decision\":\"budget_change\",\"epoch\":0,\"next\":9}\n\
             {\"series_epoch\":0,\"counters\":{\"c.n\":1},\"sim_ms\":{}}\n\
             {\"series_epoch\":0,\"counters\":{\"c.n\":2},\"sim_ms\":{}}\n"
        );
        assert_eq!(merged.series.counter_at(0, "c.n"), 3);
    }

    #[test]
    fn capacity_hooks_bound_the_rings() {
        let mut r = Recorder::new(Level::Summary).with_ledger_capacity(2).with_series_capacity(1);
        for i in 0..4u64 {
            r.record_decision(DecisionRecord::new(DecisionKind::WhatifProbe).field("i", i));
            r.add_counter("c.n", 1);
            r.mark_epoch(i);
        }
        let s = r.into_snapshot();
        assert_eq!(s.ledger.len(), 2);
        assert_eq!(s.ledger.evicted(), 2);
        assert_eq!(s.series.len(), 1);
        assert_eq!(s.series.evicted(), 3);
        assert_eq!(s.series.points().next().unwrap().epoch, 3);
    }

    /// Every line shape of the one dump, on a hand-built recorder, and
    /// the deterministic flight recorder as its byte prefix.
    #[test]
    fn jsonl_pins_each_line_shape_after_the_flight_prefix() {
        let mut r = Recorder::new(Level::Full);
        r.record_decision(DecisionRecord::new(DecisionKind::Knapsack).field("spent_pages", 4u64));
        r.add_counter("engine.whatif_calls", 12);
        r.record_span("organizer.knapsack", 2_000_000); // 2 ms → the le=10 ms bucket
        r.record_span_sim("organizer.knapsack", 7.0);
        r.mark_epoch(0);
        let mut s = r.into_snapshot();
        s.flame.insert("tuner.epoch;organizer.knapsack".into(), 1_900);
        let text = s.jsonl();
        assert_eq!(
            text,
            "{\"decision\":\"knapsack\",\"epoch\":0,\"spent_pages\":4}\n\
             {\"series_epoch\":0,\"counters\":{\"engine.whatif_calls\":12},\"sim_ms\":{\"organizer.knapsack\":7.0}}\n\
             {\"counter\":\"engine.whatif_calls\",\"value\":12}\n\
             {\"span\":\"organizer.knapsack\",\"count\":1,\"wall_ns\":2000000,\"sim_ms\":7.0,\"wall_us_buckets\":[0,0,0,1,0,0,0]}\n\
             {\"flame\":\"tuner.epoch;organizer.knapsack\",\"ns\":1900}\n"
        );
        assert!(text.starts_with(&s.flight_jsonl()) && s.flight_jsonl().lines().count() == 2);
        for line in text.lines() {
            crate::json::parse(line).expect("every dump line parses");
        }
        assert_eq!(Snapshot::default().jsonl(), "");
    }
}
