//! COLT configuration parameters.

use std::fmt;

/// Tunable parameters of the COLT framework. Defaults are the values the
/// paper's experimental study used (§6.1): epoch length `w = 10`, history
/// depth `h = 12` and at most 20 what-if calls per epoch. What the paper
/// fixes and never varies (the 90% interval, the 2% selective cut, the
/// `r ≥ 1.3` ramp) is a `const` beside its one reader instead.
///
/// Build one with a struct literal over [`Default`]; it is validated
/// ([`ColtConfig::validate`]) when the tuner is created.
#[derive(Debug, Clone, PartialEq)]
pub struct ColtConfig {
    /// Epoch length `w`: number of queries per profiling epoch.
    pub epoch_length: usize,
    /// History depth `h`: number of epochs in the system's memory; also
    /// the forecasting horizon of the Self-Organizer, and how long an
    /// unseen candidate stays in `C`.
    pub history_epochs: usize,
    /// `#WI_max`: hard cap on what-if calls per epoch, and the first
    /// epoch's `#WI_lim` (later epochs' are set by re-budgeting).
    pub max_whatif_per_epoch: u64,
    /// On-line storage budget `B`, in 8 KiB pages.
    pub storage_budget_pages: u64,
    /// Reorganization hysteresis: a knapsack solution that requires new
    /// builds replaces the current materialized set only when its
    /// aggregate `NetBenefit` exceeds the current set's by this relative
    /// margin. Damps materialization churn between near-tied indices
    /// whose per-epoch benefit estimates fluctuate with query-mix noise
    /// (a stabilization on top of the paper's `MatCost` term; set to 0
    /// to ablate it — see the `ablation` bench).
    pub swap_margin: f64,
    /// Whether re-budgeting self-regulates the what-if budget (the
    /// paper's headline mechanism). When false the tuner always runs at
    /// `#WI_max`, modelling the fixed-intensity on-line tuners the paper
    /// contrasts against; used by the `ablation` bench.
    pub self_regulation: bool,
}

impl Default for ColtConfig {
    fn default() -> Self {
        ColtConfig {
            epoch_length: 10,
            history_epochs: 12,
            max_whatif_per_epoch: 20,
            storage_budget_pages: 4096,
            swap_margin: 0.5,
            self_regulation: true,
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
            (ColtConfig { swap_margin: -2.0, ..d() }, range("swap_margin", -2.0, 10.0)),
        ];
        for (c, err) in cases {
            assert_eq!(c.validate(), Err(err), "{c:?}");
        }
        assert!(range("swap_margin", -2.0, 10.0).to_string().contains("swap_margin"));
    }
}
