//! The tuner flight recorder: a bounded [`DecisionLedger`] of every
//! tuner decision and a per-epoch metric [`TimeSeries`].
//!
//! Both stores are deterministic by construction: records carry only
//! simulated/derived values (epochs, page counts, gains, simulated
//! milliseconds) — never the wall clock — so their JSONL dumps are
//! byte-identical across `COLT_OBS` levels and `COLT_THREADS` counts.
//! Both are one fixed-capacity [`Ring`]: when full, the **oldest** entry
//! is evicted and counted, so a long run degrades to a recent-history
//! window instead of growing without bound; the dump writes the count
//! ([`crate::Snapshot::jsonl`]).

use crate::json::{self, Json};
use std::collections::VecDeque;

/// The kind of a [`DecisionRecord`]: the six decisions the tuner loop
/// takes. A new kind is a new variant, and every `match` over the kinds
/// (the `report` renderer's labels) then fails to compile until it
/// handles it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// The profiler issued a what-if call for a candidate.
    WhatifProbe,
    /// A query was assigned to its cluster.
    ClusterAssign,
    /// The Self-Organizer solved the boundary's knapsack.
    Knapsack,
    /// The tuner built an index.
    IndexCreate,
    /// The tuner dropped an index.
    IndexDrop,
    /// The boundary set the next epoch's what-if budget.
    BudgetChange,
}

impl DecisionKind {
    /// Every kind, in render order.
    pub const ALL: [DecisionKind; 6] = {
        use DecisionKind::*;
        [WhatifProbe, ClusterAssign, Knapsack, IndexCreate, IndexDrop, BudgetChange]
    };

    /// The wire name: the value of a dump line's `"decision"` key.
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::WhatifProbe => "whatif_probe",
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
    pub fields: Vec<(&'static str, Json)>,
}

impl DecisionRecord {
    /// A record with no fields yet; the epoch is stamped when the
    /// record reaches the recorder.
    pub fn new(kind: DecisionKind) -> Self {
        DecisionRecord { epoch: 0, kind, fields: Vec::new() }
    }

    /// Append a field (builder style).
    pub fn field(mut self, key: &'static str, value: impl Into<Json>) -> Self {
        self.fields.push((key, value.into()));
        self
    }

    /// Field lookup by key; read it with [`Json::as_u64`],
    /// [`Json::as_f64`] or [`Json::as_str`].
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// An entry of a [`Ring`]: stamped with an epoch, dumped as one JSONL
/// line.
pub trait RingEntry: Clone {
    /// The capacity of a [`Ring::default`] of this entry.
    const DEFAULT_CAPACITY: usize;
    /// The epoch the entry belongs to.
    fn epoch(&self) -> u64;
    /// The entry as one line of JSON, without a newline.
    fn jsonl(&self) -> String;
}

impl RingEntry for DecisionRecord {
    const DEFAULT_CAPACITY: usize = 65_536;
    fn epoch(&self) -> u64 {
        self.epoch
    }
    /// `{"decision":"kind","epoch":3,"k":v,...}`.
    fn jsonl(&self) -> String {
        let head = [("decision", Json::from(self.kind.name())), ("epoch", Json::UInt(self.epoch))];
        json::object_line(head.iter().chain(&self.fields).map(|(k, v)| (*k, v)))
    }
}

/// A bounded, append-only ring of entries.
#[derive(Debug, Clone, PartialEq)]
pub struct Ring<T> {
    capacity: usize,
    entries: VecDeque<T>,
    evicted: u64,
}

/// The ring of every tuner decision.
pub type DecisionLedger = Ring<DecisionRecord>;

/// The ring of per-epoch metric deltas.
pub type TimeSeries = Ring<EpochPoint>;

impl<T: RingEntry> Default for Ring<T> {
    fn default() -> Self {
        Self::new(T::DEFAULT_CAPACITY)
    }
}

impl<T: RingEntry> Ring<T> {
    /// An empty ring holding at most `capacity` entries (min 1).
    pub fn new(capacity: usize) -> Self {
        Ring { capacity: capacity.max(1), entries: VecDeque::new(), evicted: 0 }
    }

    /// Append an entry, evicting the oldest when full.
    pub fn push(&mut self, entry: T) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.entries.push_back(entry);
    }

    /// Retained entries, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The largest epoch of any retained entry, when non-empty.
    pub fn max_epoch(&self) -> Option<u64> {
        self.entries.iter().map(T::epoch).max()
    }

    /// Fold another ring into this one: entries append in call order
    /// (the parallel harness merges cells in submission order, which
    /// makes the merged ring identical at every thread count); the
    /// bound still applies and evictions accumulate.
    pub fn merge(&mut self, other: &Ring<T>) {
        self.evicted += other.evicted;
        for e in &other.entries {
            self.push(e.clone());
        }
    }

    /// The ring as JSONL, one entry per line (trailing newline when
    /// non-empty).
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.jsonl());
            out.push('\n');
        }
        out
    }
}

impl DecisionLedger {
    /// Retained records of one kind, oldest first.
    pub fn of_kind(&self, kind: DecisionKind) -> impl Iterator<Item = &DecisionRecord> {
        self.entries.iter().filter(move |r| r.kind == kind)
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
}

impl RingEntry for EpochPoint {
    const DEFAULT_CAPACITY: usize = 4_096;
    fn epoch(&self) -> u64 {
        self.epoch
    }
    /// `{"series_epoch":3,"counters":{...},"sim_ms":{...}}`.
    fn jsonl(&self) -> String {
        let counters = self.counters.iter().map(|(k, v)| (k.clone(), Json::UInt(*v)));
        let sim_ms = self.sim_ms.iter().map(|(k, v)| (k.clone(), Json::Float(*v)));
        json::object_line([
            ("series_epoch", &Json::UInt(self.epoch)),
            ("counters", &Json::Obj(counters.collect())),
            ("sim_ms", &Json::Obj(sim_ms.collect())),
        ])
    }
}

impl TimeSeries {
    /// Sum of one counter's deltas across all points with the given
    /// epoch (a merged snapshot may hold one point per run cell).
    pub fn counter_at(&self, epoch: u64, name: &str) -> u64 {
        self.entries.iter().filter(|p| p.epoch == epoch).map(|p| p.counter(name)).sum()
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
        assert_eq!(r.get("budget_pages").and_then(Json::as_u64), Some(100));
        assert_eq!(r.get("free_value").and_then(Json::as_f64), Some(2.5));
        assert_eq!(r.get("adopted").and_then(Json::as_str), Some("free"));
        assert_eq!(r.get("nope"), None);
    }

    /// The ring's own entry: an epoch and nothing else.
    #[derive(Debug, Clone, PartialEq)]
    struct Tick(u64);

    impl RingEntry for Tick {
        const DEFAULT_CAPACITY: usize = 2;
        fn epoch(&self) -> u64 {
            self.0
        }
        fn jsonl(&self) -> String {
            format!("{{\"tick\":{}}}", self.0)
        }
    }

    fn ticks(capacity: usize, epochs: std::ops::Range<u64>) -> Ring<Tick> {
        let mut ring = Ring::new(capacity);
        epochs.for_each(|e| ring.push(Tick(e)));
        ring
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let ring = ticks(3, 0..5);
        assert_eq!((ring.len(), ring.capacity(), ring.evicted()), (3, 3, 2));
        // Oldest evicted: epochs 2, 3, 4 remain, in order.
        assert_eq!(ring.records().cloned().collect::<Vec<_>>(), [Tick(2), Tick(3), Tick(4)]);
        assert_eq!(ring.max_epoch(), Some(4));
        assert_eq!(ring.jsonl(), "{\"tick\":2}\n{\"tick\":3}\n{\"tick\":4}\n");
        assert_eq!(Ring::<Tick>::default().capacity(), Tick::DEFAULT_CAPACITY);
        assert!(Ring::<Tick>::new(0).is_empty());
        assert_eq!(Ring::<Tick>::new(0).capacity(), 1);
        assert_eq!(Ring::<Tick>::new(0).max_epoch(), None);
    }

    #[test]
    fn ring_merge_appends_in_call_order_and_keeps_bound() {
        let mut a = ticks(4, 0..3);
        let b = ticks(2, 10..13);
        a.merge(&b);
        let merged: Vec<Tick> = a.records().cloned().collect();
        assert_eq!(merged, [Tick(1), Tick(2), Tick(11), Tick(12)]);
        assert_eq!(a.evicted(), 2, "b's eviction, then a's own");
    }

    #[test]
    fn series_bounds_and_sums_per_epoch() {
        let mut s = TimeSeries::new(2);
        for epoch in 0..3u64 {
            s.push(EpochPoint {
                epoch,
                counters: vec![("engine.op.hash_join".into(), epoch + 1)],
                sim_ms: vec![("engine.execute".into(), 0.5)],
            });
        }
        assert_eq!(s.counter_at(2, "engine.op.hash_join"), 3);
        assert_eq!(s.counter_at(0, "engine.op.hash_join"), 0); // evicted
        let p = s.records().next().unwrap();
        assert_eq!(p.counter("engine.op.hash_join"), 2);
        assert_eq!(p.sim("engine.execute"), 0.5);
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
                "cluster_assign",
                "knapsack",
                "index_create",
                "index_drop",
                "budget_change"
            ]
        );
    }
}
