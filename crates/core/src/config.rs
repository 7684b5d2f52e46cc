//! COLT configuration parameters.

use std::fmt;

/// Tunable parameters of the COLT framework. Defaults are the values the
/// paper's experimental study used (§6.1): epoch length `w = 10`, history
/// depth `h = 12`, at most 20 what-if calls per epoch, and 90% confidence
/// intervals.
///
/// Build one with a struct literal over [`Default`]; it is validated
/// ([`ColtConfig::validate`]) when the tuner is created.
#[derive(Debug, Clone, PartialEq)]
pub struct ColtConfig {
    /// Epoch length `w`: number of queries per profiling epoch.
    pub epoch_length: usize,
    /// History depth `h`: number of epochs in the system's memory; also
    /// the forecasting horizon of the Self-Organizer.
    pub history_epochs: usize,
    /// `#WI_max`: hard cap on what-if calls per epoch, and the first
    /// epoch's `#WI_lim` (later epochs' are set by re-budgeting).
    pub max_whatif_per_epoch: u64,
    /// z-score of the confidence intervals (1.645 ≈ 90%).
    pub confidence_z: f64,
    /// On-line storage budget `B`, in 8 KiB pages.
    pub storage_budget_pages: u64,
    /// Selectivity boundary between the "selective" and "non-selective"
    /// clustering buckets (paper: 2%).
    pub selective_boundary: f64,
    /// `r` value at (or above) which profiling runs at full budget
    /// (paper: 1.3).
    pub full_budget_ratio: f64,
    /// Exponential smoothing factor for the crude `BenefitC` series used
    /// by hot-set selection (weight of the most recent epoch).
    pub smoothing_alpha: f64,
    /// Upper bound on the size of the hot set; keeps the accurate
    /// profiling level affordable even if the crude clustering puts many
    /// candidates in the top group.
    pub max_hot_set: usize,
    /// Candidates unseen for this many epochs are evicted from `C`.
    pub candidate_ttl_epochs: usize,
    /// Reorganization hysteresis: a knapsack solution that requires new
    /// builds replaces the current materialized set only when its
    /// aggregate `NetBenefit` exceeds the current set's by this relative
    /// margin. Damps materialization churn between near-tied indices
    /// whose per-epoch benefit estimates fluctuate with query-mix noise
    /// (a stabilization on top of the paper's `MatCost` term; set to 0
    /// to ablate it — see the `ablation` bench).
    pub swap_margin: f64,
    /// Page budget for the on-line multi-column extension
    /// (`colt_core::composite_ext`); 0 (the default) disables it and
    /// keeps the tuner exactly as the paper describes.
    pub composite_budget_pages: u64,
    /// Whether re-budgeting self-regulates the what-if budget (the
    /// paper's headline mechanism). When false the tuner always runs at
    /// `#WI_max`, modelling the fixed-intensity on-line tuners the paper
    /// contrasts against; used by the `ablation` bench.
    pub self_regulation: bool,
    /// Whether the Profiler runs skip-proofs before what-if probes
    /// (dynamic budget reallocation): a probe whose gain interval
    /// provably cannot alter the current knapsack solution is skipped,
    /// charging nothing against `#WI_lim`, and the freed budget flows to
    /// the widest-interval candidates. The outer `r`-ratio control loop
    /// is untouched either way. `skip_proofs_cut_issued_probes`
    /// (`tests/end_to_end.rs`) runs with this off to measure the probe
    /// reduction.
    pub dynamic_rebudget: bool,
    /// Seed of COLT's internal (deterministic) sampling PRNG.
    pub seed: u64,
}

impl Default for ColtConfig {
    fn default() -> Self {
        ColtConfig {
            epoch_length: 10,
            history_epochs: 12,
            max_whatif_per_epoch: 20,
            confidence_z: 1.645,
            storage_budget_pages: 4096,
            selective_boundary: 0.02,
            full_budget_ratio: 1.3,
            smoothing_alpha: 0.4,
            max_hot_set: 10,
            candidate_ttl_epochs: 12,
            swap_margin: 0.5,
            composite_budget_pages: 0,
            self_regulation: true,
            dynamic_rebudget: true,
            seed: 0x0C01_7001,
        }
    }
}

/// Why a [`ColtConfig`] was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The epoch length `w` is zero.
    ZeroEpochLength,
    /// The history depth `h` is zero.
    ZeroHistory,
    /// The on-line storage budget `B` is zero pages.
    ZeroStorageBudget,
    /// A float parameter lies outside its allowed interval.
    OutOfRange {
        /// Parameter name.
        param: &'static str,
        /// Offending value.
        value: f64,
        /// Inclusive lower bound.
        lo: f64,
        /// Inclusive upper bound.
        hi: f64,
    },
    /// `full_budget_ratio` does not exceed 1.
    RatioNotAboveOne(f64),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroEpochLength => write!(f, "epoch_length (w) must be positive"),
            ConfigError::ZeroHistory => write!(f, "history_epochs (h) must be positive"),
            ConfigError::ZeroStorageBudget => {
                write!(f, "storage_budget_pages (B) must be positive")
            }
            ConfigError::OutOfRange { param, value, lo, hi } => {
                write!(f, "{param} = {value} outside [{lo}, {hi}]")
            }
            ConfigError::RatioNotAboveOne(r) => {
                write!(f, "full_budget_ratio = {r} must exceed 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ColtConfig {
    /// Validate parameter sanity.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.epoch_length == 0 {
            return Err(ConfigError::ZeroEpochLength);
        }
        if self.history_epochs == 0 {
            return Err(ConfigError::ZeroHistory);
        }
        if self.storage_budget_pages == 0 {
            return Err(ConfigError::ZeroStorageBudget);
        }
        if !(0.0..=1.0).contains(&self.selective_boundary) {
            return Err(ConfigError::OutOfRange {
                param: "selective_boundary",
                value: self.selective_boundary,
                lo: 0.0,
                hi: 1.0,
            });
        }
        if self.full_budget_ratio <= 1.0 {
            return Err(ConfigError::RatioNotAboveOne(self.full_budget_ratio));
        }
        if !(0.0..=1.0).contains(&self.smoothing_alpha) {
            return Err(ConfigError::OutOfRange {
                param: "smoothing_alpha",
                value: self.smoothing_alpha,
                lo: 0.0,
                hi: 1.0,
            });
        }
        if !(0.0..=10.0).contains(&self.swap_margin) {
            return Err(ConfigError::OutOfRange {
                param: "swap_margin",
                value: self.swap_margin,
                lo: 0.0,
                hi: 10.0,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let c = ColtConfig::default();
        assert_eq!(c.epoch_length, 10);
        assert_eq!(c.history_epochs, 12);
        assert_eq!(c.max_whatif_per_epoch, 20);
        assert!((c.confidence_z - 1.645).abs() < 1e-9);
        assert!((c.selective_boundary - 0.02).abs() < 1e-12);
        assert!((c.full_budget_ratio - 1.3).abs() < 1e-12);
        assert!(c.dynamic_rebudget, "skip-proofs are on by default");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        use ConfigError::*;
        let d = ColtConfig::default;
        let range = |param, value, hi| OutOfRange { param, value, lo: 0.0, hi };
        let cases = [
            (ColtConfig { epoch_length: 0, ..d() }, ZeroEpochLength),
            (ColtConfig { history_epochs: 0, ..d() }, ZeroHistory),
            (ColtConfig { storage_budget_pages: 0, ..d() }, ZeroStorageBudget),
            (ColtConfig { full_budget_ratio: 0.9, ..d() }, RatioNotAboveOne(0.9)),
            (ColtConfig { full_budget_ratio: 1.0, ..d() }, RatioNotAboveOne(1.0)),
            (ColtConfig { selective_boundary: 1.5, ..d() }, range("selective_boundary", 1.5, 1.0)),
            (ColtConfig { smoothing_alpha: -0.1, ..d() }, range("smoothing_alpha", -0.1, 1.0)),
            (ColtConfig { swap_margin: -2.0, ..d() }, range("swap_margin", -2.0, 10.0)),
        ];
        for (c, err) in cases {
            assert_eq!(c.validate(), Err(err), "{c:?}");
        }
        assert!(range("swap_margin", -2.0, 10.0).to_string().contains("swap_margin"));
    }
}
