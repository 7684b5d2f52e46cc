//! The tuner flight recorder: a bounded [`DecisionLedger`] of every
//! tuner decision and a per-epoch metric [`TimeSeries`].
//!
//! Both stores are deterministic by construction: records carry only
//! simulated/derived values (epochs, page counts, gains, simulated
//! milliseconds) — never the wall clock — so their JSONL dumps are
//! byte-identical across `COLT_OBS` levels and `COLT_THREADS` counts.
//! Both are fixed-capacity rings: when full, the **oldest** entry is
//! evicted and counted, so a long run degrades to a recent-history
//! window instead of growing without bound.

use crate::event::{write_fields, FieldValue};
use crate::json::{format_float, write_str};
use std::collections::VecDeque;

/// Default [`DecisionLedger`] capacity (records).
pub const DEFAULT_LEDGER_CAPACITY: usize = 65_536;

/// Default [`TimeSeries`] capacity (epoch points).
pub const DEFAULT_SERIES_CAPACITY: usize = 4_096;

/// The kind of a [`DecisionRecord`]: the seven decisions the tuner loop
/// takes. A new kind is a new variant, and every `match` over the kinds
/// (the `report` renderer's labels) then fails to compile until it
/// handles it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// The profiler issued a what-if call for a candidate.
    WhatifProbe,
    /// A skip-proof showed a considered probe could not change the
    /// epoch's knapsack solution, so it was not issued.
    WhatifSkip,
    /// A query was assigned to its cluster.
    ClusterAssign,
    /// The Self-Organizer solved the boundary's knapsack.
    Knapsack,
    /// The scheduler built an index.
    IndexCreate,
    /// The scheduler dropped an index.
    IndexDrop,
    /// The boundary set the next epoch's what-if budget.
    BudgetChange,
}

impl DecisionKind {
    /// Every kind, in render order.
    pub const ALL: [DecisionKind; 7] = {
        use DecisionKind::*;
        [WhatifProbe, WhatifSkip, ClusterAssign, Knapsack, IndexCreate, IndexDrop, BudgetChange]
    };

    /// The wire name: the value of a dump line's `"decision"` key.
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::WhatifProbe => "whatif_probe",
            DecisionKind::WhatifSkip => "whatif_skip",
            DecisionKind::ClusterAssign => "cluster_assign",
            DecisionKind::Knapsack => "knapsack",
            DecisionKind::IndexCreate => "index_create",
            DecisionKind::IndexDrop => "index_drop",
            DecisionKind::BudgetChange => "budget_change",
        }
    }
}

/// One tuner decision: a kind, the epoch it was taken in, and ordered
/// key/value fields carrying the decision's inputs and outputs.
///
/// The epoch is stamped by the recorder at record time (sites do not
/// thread epoch numbers through their signatures); build one with
/// [`DecisionRecord::new`] and record it via `colt_obs::decision`.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// The epoch the decision was taken in.
    pub epoch: u64,
    /// The decision kind.
    pub kind: DecisionKind,
    /// Ordered fields (decision inputs and outputs).
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl DecisionRecord {
    /// A record with no fields yet; the epoch is stamped when the
    /// record reaches the recorder.
    pub fn new(kind: DecisionKind) -> Self {
        DecisionRecord { epoch: 0, kind, fields: Vec::new() }
    }

    /// Append a field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<FieldValue>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Field lookup by key.
    pub fn get(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// A field as `u64` (through `I64`/`F64` when lossless).
    pub fn get_u64(&self, key: &str) -> Option<u64> {
        match self.get(key)? {
            FieldValue::U64(n) => Some(*n),
            FieldValue::I64(n) => u64::try_from(*n).ok(),
            FieldValue::F64(f) if *f >= 0.0 && *f == f.trunc() => Some(*f as u64),
            _ => None,
        }
    }

    /// A field as `f64`.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            FieldValue::F64(f) => Some(*f),
            FieldValue::U64(n) => Some(*n as f64),
            FieldValue::I64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// A field as `&str`.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            FieldValue::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// One-line JSON: `{"decision":"kind","epoch":3,"k":v,...}`.
    pub fn jsonl(&self) -> String {
        let mut out = String::from("{\"decision\":");
        write_str(&mut out, self.kind.name());
        out.push_str(&format!(",\"epoch\":{}", self.epoch));
        write_fields(&mut out, &self.fields);
        out
    }
}

/// A bounded, append-only ring of [`DecisionRecord`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionLedger {
    capacity: usize,
    records: VecDeque<DecisionRecord>,
    evicted: u64,
}

impl Default for DecisionLedger {
    fn default() -> Self {
        Self::new(DEFAULT_LEDGER_CAPACITY)
    }
}

impl DecisionLedger {
    /// An empty ledger holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        DecisionLedger { capacity: capacity.max(1), records: VecDeque::new(), evicted: 0 }
    }

    /// Append a record, evicting the oldest when full.
    pub fn push(&mut self, record: DecisionRecord) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.evicted += 1;
        }
        self.records.push_back(record);
    }

    /// Retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &DecisionRecord> {
        self.records.iter()
    }

    /// Retained records of one kind, oldest first.
    pub fn of_kind(&self, kind: DecisionKind) -> impl Iterator<Item = &DecisionRecord> {
        self.records.iter().filter(move |r| r.kind == kind)
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The largest epoch of any retained record, when non-empty.
    pub fn max_epoch(&self) -> Option<u64> {
        self.records.iter().map(|r| r.epoch).max()
    }

    /// Fold another ledger into this one: records append in call order
    /// (the parallel harness merges cells in submission order, which
    /// makes the merged ledger identical at every thread count); the
    /// bound still applies and evictions accumulate.
    pub fn merge(&mut self, other: &DecisionLedger) {
        self.evicted += other.evicted;
        for r in &other.records {
            self.push(r.clone());
        }
    }

    /// The ledger as JSONL, one record per line (trailing newline when
    /// non-empty).
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.jsonl());
            out.push('\n');
        }
        out
    }
}

/// One time-series point: the deltas every counter and every span's
/// simulated milliseconds accumulated over one epoch. Zero deltas are
/// omitted; names are sorted.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochPoint {
    /// The epoch the deltas cover.
    pub epoch: u64,
    /// Counter deltas over the epoch, sorted by name, zeros omitted.
    pub counters: Vec<(String, u64)>,
    /// Span simulated-millisecond deltas over the epoch, sorted by
    /// name, zeros omitted.
    pub sim_ms: Vec<(String, f64)>,
}

impl EpochPoint {
    /// A counter's delta at this point (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(k, _)| k == name).map_or(0, |(_, v)| *v)
    }

    /// A span's simulated-ms delta at this point (0 when absent).
    pub fn sim(&self, name: &str) -> f64 {
        self.sim_ms.iter().find(|(k, _)| k == name).map_or(0.0, |(_, v)| *v)
    }

    /// True when every delta is zero.
    pub fn is_zero(&self) -> bool {
        self.counters.is_empty() && self.sim_ms.is_empty()
    }

    /// One-line JSON:
    /// `{"series_epoch":3,"counters":{...},"sim_ms":{...}}`.
    pub fn jsonl(&self) -> String {
        let mut out = format!("{{\"series_epoch\":{}", self.epoch);
        out.push_str(",\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, k);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"sim_ms\":{");
        for (i, (k, v)) in self.sim_ms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, k);
            out.push(':');
            out.push_str(&format_float(*v));
        }
        out.push_str("}}");
        out
    }
}

/// A bounded ring of per-epoch metric deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    capacity: usize,
    points: VecDeque<EpochPoint>,
    evicted: u64,
}

impl Default for TimeSeries {
    fn default() -> Self {
        Self::new(DEFAULT_SERIES_CAPACITY)
    }
}

impl TimeSeries {
    /// An empty series holding at most `capacity` points (min 1).
    pub fn new(capacity: usize) -> Self {
        TimeSeries { capacity: capacity.max(1), points: VecDeque::new(), evicted: 0 }
    }

    /// Append a point, evicting the oldest when full.
    pub fn push(&mut self, point: EpochPoint) {
        if self.points.len() == self.capacity {
            self.points.pop_front();
            self.evicted += 1;
        }
        self.points.push_back(point);
    }

    /// Retained points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = &EpochPoint> {
        self.points.iter()
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points are retained.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of points evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The largest epoch of any retained point, when non-empty.
    pub fn max_epoch(&self) -> Option<u64> {
        self.points.iter().map(|p| p.epoch).max()
    }

    /// Sum of one counter's deltas across all points with the given
    /// epoch (a merged snapshot may hold one point per run cell).
    pub fn counter_at(&self, epoch: u64, name: &str) -> u64 {
        self.points.iter().filter(|p| p.epoch == epoch).map(|p| p.counter(name)).sum()
    }

    /// Fold another series into this one (points append in call order;
    /// see [`DecisionLedger::merge`] for the determinism argument).
    pub fn merge(&mut self, other: &TimeSeries) {
        self.evicted += other.evicted;
        for p in &other.points {
            self.push(p.clone());
        }
    }

    /// The series as JSONL, one point per line (trailing newline when
    /// non-empty).
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for p in &self.points {
            out.push_str(&p.jsonl());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_jsonl_shape() {
        let mut r = DecisionRecord::new(DecisionKind::Knapsack)
            .field("budget_pages", 100u64)
            .field("free_value", 2.5)
            .field("adopted", "free");
        r.epoch = 3;
        assert_eq!(
            r.jsonl(),
            r#"{"decision":"knapsack","epoch":3,"budget_pages":100,"free_value":2.5,"adopted":"free"}"#
        );
        assert_eq!(r.get_u64("budget_pages"), Some(100));
        assert_eq!(r.get_f64("free_value"), Some(2.5));
        assert_eq!(r.get_str("adopted"), Some("free"));
        assert_eq!(r.get("nope"), None);
    }

    #[test]
    fn ledger_bounds_and_counts_evictions() {
        let mut l = DecisionLedger::new(3);
        for i in 0..5u64 {
            let mut r = DecisionRecord::new(DecisionKind::WhatifProbe);
            r.epoch = i;
            l.push(r);
        }
        assert_eq!(l.len(), 3);
        assert_eq!(l.evicted(), 2);
        // Oldest evicted: epochs 2, 3, 4 remain, in order.
        let epochs: Vec<u64> = l.records().map(|r| r.epoch).collect();
        assert_eq!(epochs, [2, 3, 4]);
        assert_eq!(l.max_epoch(), Some(4));
    }

    #[test]
    fn ledger_merge_appends_in_call_order_and_keeps_bound() {
        let mut a = DecisionLedger::new(4);
        let mut b = DecisionLedger::new(4);
        for i in 0..3u64 {
            let mut r = DecisionRecord::new(DecisionKind::Knapsack);
            r.epoch = i;
            a.push(r.clone());
            r.kind = DecisionKind::IndexCreate;
            b.push(r);
        }
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.evicted(), 2);
        let kinds: Vec<&str> = a.records().map(|r| r.kind.name()).collect();
        assert_eq!(kinds, ["knapsack", "index_create", "index_create", "index_create"]);
    }

    #[test]
    fn series_bounds_and_sums_per_epoch() {
        let mut s = TimeSeries::new(2);
        for epoch in 0..3u64 {
            s.push(EpochPoint {
                epoch,
                counters: vec![("engine.op.hash_join".into(), epoch + 1)],
                sim_ms: vec![("harness.execute".into(), 0.5)],
            });
        }
        assert_eq!(s.len(), 2);
        assert_eq!(s.evicted(), 1);
        assert_eq!(s.max_epoch(), Some(2));
        assert_eq!(s.counter_at(2, "engine.op.hash_join"), 3);
        assert_eq!(s.counter_at(0, "engine.op.hash_join"), 0); // evicted
        let p = s.points().next().unwrap();
        assert_eq!(p.counter("engine.op.hash_join"), 2);
        assert_eq!(p.sim("harness.execute"), 0.5);
        assert!(!p.is_zero());
    }

    #[test]
    fn point_jsonl_shape() {
        let p = EpochPoint {
            epoch: 7,
            counters: vec![("a.b".into(), 2)],
            sim_ms: vec![("c.d".into(), 1.5)],
        };
        assert_eq!(p.jsonl(), r#"{"series_epoch":7,"counters":{"a.b":2},"sim_ms":{"c.d":1.5}}"#);
        let empty = EpochPoint { epoch: 0, counters: vec![], sim_ms: vec![] };
        assert!(empty.is_zero());
        assert_eq!(empty.jsonl(), r#"{"series_epoch":0,"counters":{},"sim_ms":{}}"#);
    }

    /// The dump's `"decision"` values, literally and in `ALL` order: a
    /// renamed or reordered variant must not silently change what a
    /// reader of the dump parses.
    #[test]
    fn decision_kinds_keep_their_wire_names() {
        let names: Vec<&str> = DecisionKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "whatif_probe",
                "whatif_skip",
                "cluster_assign",
                "knapsack",
                "index_create",
                "index_drop",
                "budget_change"
            ]
        );
    }
}
