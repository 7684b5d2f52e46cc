//! The candidate set `C` and its crude `BenefitC` statistics (paper
//! §4.1, first profiling level).
//!
//! Every column restricted by a selection predicate inside the memory
//! window `S_h` is a candidate. Each candidate accumulates the crude,
//! cost-formula-based gain estimate `QueryGain_C` per epoch; the
//! Self-Organizer reads an exponentially smoothed per-epoch benefit to
//! pick the next hot set. Candidates unseen for `h` epochs are evicted.

use colt_catalog::ColRef;
use std::collections::BTreeMap;

/// Weight of the most recent epoch in the smoothed `BenefitC` series.
/// The paper smooths crude benefits for hot-set selection (§5) but gives
/// no factor; this is the reconstruction's.
const SMOOTHING_ALPHA: f64 = 0.4;

/// Crude statistics for one candidate index.
#[derive(Debug, Clone)]
pub struct CrudeCandidate {
    /// Accumulator for the epoch in progress.
    current: f64,
    /// Exponentially smoothed per-epoch benefit.
    smoothed: f64,
    /// Epoch index when the candidate last appeared in a query.
    last_seen_epoch: u64,
}

impl CrudeCandidate {
    fn new(epoch: u64) -> Self {
        CrudeCandidate { current: 0.0, smoothed: 0.0, last_seen_epoch: epoch }
    }

    /// Smoothed per-epoch crude benefit.
    pub fn smoothed(&self) -> f64 {
        self.smoothed
    }

    /// Smoothed benefit including the epoch in progress — what the
    /// Self-Organizer reads, since reorganization runs before the epoch
    /// rolls.
    pub fn projected(&self) -> f64 {
        SMOOTHING_ALPHA * self.current + (1.0 - SMOOTHING_ALPHA) * self.smoothed
    }
}

/// The candidate set `C`.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    candidates: BTreeMap<ColRef, CrudeCandidate>,
    /// `h`: the epochs an unseen candidate stays in `C`.
    history_epochs: usize,
    epoch: u64,
}

impl CandidateSet {
    /// Empty candidate set with memory depth `h`.
    pub fn new(history_epochs: usize) -> Self {
        let history_epochs = history_epochs.max(1);
        CandidateSet { candidates: BTreeMap::new(), history_epochs, epoch: 0 }
    }

    /// Record a crude gain estimate for a candidate observed in the
    /// current query (creates the candidate on first sight).
    pub fn add_gain(&mut self, col: ColRef, gain: f64) {
        let epoch = self.epoch;
        let c = self.candidates.entry(col).or_insert_with(|| CrudeCandidate::new(epoch));
        c.current += gain.max(0.0);
        c.last_seen_epoch = epoch;
    }

    /// Note that a candidate appeared (even with zero crude gain), so it
    /// stays alive in `C`.
    pub fn touch(&mut self, col: ColRef) {
        let epoch = self.epoch;
        let c = self.candidates.entry(col).or_insert_with(|| CrudeCandidate::new(epoch));
        c.last_seen_epoch = epoch;
    }

    /// Number of live candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the candidate set is empty.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Is the column currently a candidate?
    pub fn contains(&self, col: ColRef) -> bool {
        self.candidates.contains_key(&col)
    }

    /// Borrow a candidate's crude statistics.
    pub fn get(&self, col: ColRef) -> Option<&CrudeCandidate> {
        self.candidates.get(&col)
    }

    /// Smoothed per-epoch benefit of every live candidate (including
    /// the epoch in progress), in deterministic column order.
    pub fn smoothed_benefits(&self) -> Vec<(ColRef, f64)> {
        self.candidates.iter().map(|(c, s)| (*c, s.projected())).collect()
    }

    /// Projected smoothed benefit of one candidate.
    pub fn projected_benefit(&self, col: ColRef) -> f64 {
        self.candidates.get(&col).map(CrudeCandidate::projected).unwrap_or(0.0)
    }

    /// Close the epoch: fold the in-progress accumulator into the
    /// smoothed level, and evict candidates unseen for `h` epochs.
    pub fn roll_epoch(&mut self) {
        let h = self.history_epochs;
        for c in self.candidates.values_mut() {
            let total = std::mem::take(&mut c.current);
            c.smoothed = SMOOTHING_ALPHA * total + (1.0 - SMOOTHING_ALPHA) * c.smoothed;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.candidates.retain(|_, c| epoch.saturating_sub(c.last_seen_epoch) < h as u64);
    }

    /// Index of the epoch in progress.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::TableId;

    fn col(i: u32) -> ColRef {
        ColRef::new(TableId(0), i)
    }

    #[test]
    fn gains_accumulate_within_epoch() {
        let mut c = CandidateSet::new(12);
        c.add_gain(col(0), 10.0);
        c.add_gain(col(0), 5.0);
        c.roll_epoch();
        assert_eq!(c.get(col(0)).unwrap().smoothed(), SMOOTHING_ALPHA * 15.0);
    }

    #[test]
    fn negative_gains_clamped() {
        let mut c = CandidateSet::new(12);
        c.add_gain(col(0), -10.0);
        c.roll_epoch();
        assert_eq!(c.get(col(0)).unwrap().smoothed(), 0.0);
    }

    #[test]
    fn smoothing_decays_old_signal() {
        let mut c = CandidateSet::new(12);
        c.add_gain(col(0), 100.0);
        c.roll_epoch();
        let peak = c.get(col(0)).unwrap().smoothed();
        c.touch(col(0));
        for _ in 0..5 {
            c.roll_epoch();
            // keep candidate alive
            c.touch(col(0));
        }
        let decayed = c.get(col(0)).unwrap().smoothed();
        assert!(decayed < peak / 10.0, "decayed {decayed} vs peak {peak}");
    }

    #[test]
    fn ttl_evicts_stale_candidates() {
        let mut c = CandidateSet::new(3);
        c.add_gain(col(0), 1.0);
        for _ in 0..2 {
            c.roll_epoch();
        }
        assert!(c.contains(col(0)));
        c.roll_epoch();
        assert!(!c.contains(col(0)), "unseen for h epochs");
        assert!(c.is_empty());
    }

    #[test]
    fn touch_keeps_alive() {
        let mut c = CandidateSet::new(2);
        c.add_gain(col(0), 1.0);
        for _ in 0..6 {
            c.roll_epoch();
            c.touch(col(0));
        }
        assert!(c.contains(col(0)));
        assert_eq!(c.len(), 1);
    }
}
