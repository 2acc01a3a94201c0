use serde::{Deserialize, Serialize};

use crate::model::ModelSpec;
use crate::split_rule::SplitRule;

/// Configuration shared by the [`crate::Sta`] and [`crate::Ada`] heavy
/// hitter trackers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HhhConfig {
    /// Heavy hitter threshold θ (Definition 1/2). The paper chooses it
    /// "sufficiently small" so that every anomaly candidate is covered —
    /// around 125 heavy hitters at CCD peak.
    pub theta: f64,
    /// Time-series window length ℓ in timeunits (the paper's typical
    /// value is 8 064: a 12-week window of 15-minute units).
    pub ell: usize,
    /// Forecasting model bound to each heavy hitter.
    pub model: ModelSpec,
    /// Split-ratio heuristic for ADA's `SPLIT` (§V-B4).
    pub split_rule: SplitRule,
    /// Number of top hierarchy levels `h` (excluding the root) that keep
    /// reference time series (§V-B5). `0` disables the add-on.
    pub ref_levels: usize,
    /// Smoothing rate of the EWMA split-rule statistic. The statistic is
    /// maintained only while `split_rule` is [`SplitRule::Ewma`], the one
    /// rule that reads it ([`HhhConfig::with_split_rule`] keeps the two
    /// rates equal); under any other rule it is never updated.
    pub stat_ewma_alpha: f64,
    /// Keeps the root's time series out of `SPLIT` inheritance: a
    /// first-level node joining the heavy hitter set seeds from its
    /// reference series when one exists and from zeros otherwise,
    /// never from a scaled copy of the root's series.
    ///
    /// The root is the only node whose Definition-2 weight couples
    /// *sibling* top-level subtrees, so with this flag every depth ≥ 1
    /// series is a pure function of that node's own subtree counts.
    /// That is the property the sharded engine relies on for
    /// shard-count-invariant output; see `tiresias-core`'s
    /// `ShardedTiresias`. Off by default (the paper's SPLIT applies at
    /// every level, including the root).
    pub root_isolation: bool,
}

impl HhhConfig {
    /// Creates a configuration with the given threshold and window,
    /// defaulting the rest (daily Holt-Winters, `Long-Term-History`
    /// splits, `h = 2` reference levels).
    pub fn new(theta: f64, ell: usize) -> Self {
        HhhConfig {
            theta,
            ell,
            model: ModelSpec::default(),
            split_rule: SplitRule::default(),
            ref_levels: 2,
            stat_ewma_alpha: 0.4,
            root_isolation: false,
        }
    }

    /// Sets the forecasting model.
    #[must_use]
    pub fn with_model(mut self, model: ModelSpec) -> Self {
        self.model = model;
        self
    }

    /// Sets the split rule.
    #[must_use]
    pub fn with_split_rule(mut self, rule: SplitRule) -> Self {
        self.split_rule = rule;
        if let SplitRule::Ewma { alpha } = rule {
            self.stat_ewma_alpha = alpha;
        }
        self
    }

    /// Sets the number of reference levels `h`.
    #[must_use]
    pub fn with_ref_levels(mut self, h: usize) -> Self {
        self.ref_levels = h;
        self
    }

    /// Enables root isolation (see [`HhhConfig::root_isolation`]).
    #[must_use]
    pub fn with_root_isolation(mut self, enabled: bool) -> Self {
        self.root_isolation = enabled;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.theta.is_nan() || self.theta <= 0.0 {
            return Err(format!("theta must be positive, got {}", self.theta));
        }
        if self.ell == 0 {
            return Err("ell (window length) must be positive".into());
        }
        if !(self.stat_ewma_alpha > 0.0 && self.stat_ewma_alpha <= 1.0) {
            return Err(format!("stat_ewma_alpha must be in (0, 1], got {}", self.stat_ewma_alpha));
        }
        Ok(())
    }
}

impl Default for HhhConfig {
    fn default() -> Self {
        HhhConfig::new(10.0, 8064)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(HhhConfig::default().validate().is_ok());
    }

    #[test]
    fn invalid_fields_are_reported() {
        assert!(HhhConfig::new(0.0, 10).validate().is_err());
        assert!(HhhConfig::new(-1.0, 10).validate().is_err());
        assert!(HhhConfig::new(5.0, 0).validate().is_err());
        let mut c = HhhConfig::new(5.0, 10);
        c.stat_ewma_alpha = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn ewma_split_rule_syncs_stat_alpha() {
        let c = HhhConfig::new(5.0, 10).with_split_rule(SplitRule::Ewma { alpha: 0.8 });
        assert_eq!(c.stat_ewma_alpha, 0.8);
    }
}
