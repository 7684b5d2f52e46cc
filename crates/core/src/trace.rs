//! Run tracing: per-epoch records of COLT's internal decisions.
//!
//! The trace is what the benchmark harness reads to regenerate the
//! paper's Figure 5 (what-if calls per epoch) and to audit
//! materialization churn, budget regulation, and profiling coverage.

use colt_catalog::ColRef;

/// One epoch's worth of tuner activity.
#[derive(Debug, Clone)]
pub struct EpochRecord {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// What-if calls performed during the epoch.
    pub whatif_used: u64,
    /// The budget `#WI_lim` that was in force.
    pub whatif_limit: u64,
    /// Probes proven redundant by skip-proofs and skipped (charging
    /// nothing against the budget).
    pub whatif_skipped: u64,
    /// Budget granted to the next epoch by re-budgeting.
    pub next_budget: u64,
    /// Re-budgeting ratio `r`.
    pub ratio: f64,
    /// Indices built at this boundary.
    pub created: Vec<ColRef>,
    /// Indices dropped at this boundary.
    pub dropped: Vec<ColRef>,
    /// Simulated milliseconds spent building indices at this boundary.
    pub build_millis: f64,
}

/// A complete run trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Per-epoch records, in order.
    pub epochs: Vec<EpochRecord>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an epoch record.
    pub fn push(&mut self, record: EpochRecord) {
        self.epochs.push(record);
    }

    /// What-if calls per epoch — the series of the paper's Figure 5.
    pub fn whatif_per_epoch(&self) -> Vec<u64> {
        self.epochs.iter().map(|e| e.whatif_used).collect()
    }

    /// Total what-if calls over the run.
    pub fn total_whatif(&self) -> u64 {
        self.epochs.iter().map(|e| e.whatif_used).sum()
    }

    /// Total index builds over the run.
    pub fn total_builds(&self) -> usize {
        self.epochs.iter().map(|e| e.created.len()).sum()
    }

    /// The epoch axis a per-epoch table must span: the trace's closed
    /// epochs, extended to cover every epoch the flight recorder saw
    /// (the ledger and time series also record the trailing partial
    /// epoch — queries after the last boundary — which closes no
    /// [`EpochRecord`]).
    pub fn epoch_axis(&self, obs: &colt_obs::Snapshot) -> u64 {
        let ledger = obs.ledger.max_epoch().map_or(0, |e| e + 1);
        let series = obs.series.max_epoch().map_or(0, |e| e + 1);
        (self.epochs.len() as u64).max(ledger).max(series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::TableId;

    fn record(epoch: u64, whatif: u64, created: usize) -> EpochRecord {
        EpochRecord {
            epoch,
            whatif_used: whatif,
            whatif_limit: 20,
            whatif_skipped: 0,
            next_budget: 10,
            ratio: 1.1,
            created: (0..created).map(|i| ColRef::new(TableId(0), i as u32)).collect(),
            dropped: vec![],
            build_millis: 0.0,
        }
    }

    #[test]
    fn aggregations() {
        let mut t = Trace::new();
        t.push(record(0, 20, 2));
        t.push(record(1, 5, 0));
        t.push(record(2, 0, 1));
        assert_eq!(t.whatif_per_epoch(), vec![20, 5, 0]);
        assert_eq!(t.total_whatif(), 25);
        assert_eq!(t.total_builds(), 3);
    }

    #[test]
    fn epoch_axis_covers_the_flight_recorder() {
        let mut t = Trace::new();
        t.push(record(0, 20, 1));
        // The flight recorder saw a trailing partial epoch (epoch 1)
        // that closed no trace record.
        let mut rec = colt_obs::Recorder::new(colt_obs::Level::Summary);
        rec.add_counter("engine.op.hash_join", 3);
        rec.mark_epoch(0);
        rec.add_counter("engine.op.hash_join", 1);
        rec.mark_epoch(1);
        let obs = rec.into_snapshot();
        assert_eq!(t.epoch_axis(&obs), 2);
        // Without flight-recorder data the axis is just the trace.
        assert_eq!(t.epoch_axis(&colt_obs::Snapshot::default()), 1);
    }
}
