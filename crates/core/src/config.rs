//! User-facing configuration of the quality-driven disorder handling.
//!
//! The paper exposes two *user requirements* — the recall requirement `Γ`
//! and the result-quality measurement period `P` — and three *system
//! parameters*: the adaptation interval `L`, the basic-window size `b` and
//! the K-search granularity `g` (Table I and Sec. VI, *Default Parameter
//! Configuration*).
//!
//! Orthogonally to the disorder parameters, a session chooses a
//! [`ProbeStrategy`] for the join operator's window probes (re-exported
//! here from `mswj-join`): [`ProbeStrategy::Auto`] plans hash-indexed
//! bucket lookups from the condition's equi structure, while
//! [`ProbeStrategy::NestedLoop`] forces the exhaustive reference scan —
//! the knob the differential test harness uses to prove both paths
//! equivalent.  See [`SessionBuilder::probe`](crate::SessionBuilder::probe).

use mswj_types::{Duration, Error, Result};
use serde::{Deserialize, Serialize};

pub use mswj_join::{ProbePlan, ProbeStrategy};

/// How the ratio `sel_on(K) / sel_on` of Eq. 5 is modelled (Sec. IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SelectivityStrategy {
    /// Assume the join selectivity is unaffected by incomplete disorder
    /// handling (`sel_on(K) = sel_on`); equivalent to modelling recall on
    /// cross-join result sizes only.
    EqSel,
    /// Learn the delay↔productivity correlation from the join output and
    /// estimate `sel_on(K)` per candidate K via Eq. 6.  The paper finds this
    /// strategy more robust and uses it by default.
    #[default]
    NonEqSel,
}

impl std::fmt::Display for SelectivityStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectivityStrategy::EqSel => write!(f, "EqSel"),
            SelectivityStrategy::NonEqSel => write!(f, "NonEqSel"),
        }
    }
}

/// Configuration of the quality-driven Buffer-Size Manager.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DisorderConfig {
    /// User-specified minimum recall requirement `Γ` in `(0, 1]`.
    pub(crate) gamma: f64,
    /// User-specified result-quality measurement period `P` (ms).
    pub period_p: Duration,
    /// Adaptation interval `L` (ms); must satisfy `L ≤ P`.
    pub interval_l: Duration,
    /// Basic-window size `b` (ms) used by the completeness model (Eq. 3).
    pub(crate) basic_window_b: Duration,
    /// K-search granularity `g` (ms) used by Alg. 3 and by the coarse delay
    /// histograms.
    pub granularity_g: Duration,
    /// Selectivity modelling strategy (EqSel vs NonEqSel).
    pub(crate) selectivity: SelectivityStrategy,
}

impl Default for DisorderConfig {
    /// The paper's default parameter configuration:
    /// `P` = 1 min, `b` = 10 ms, `g` = 10 ms, `L` = 1 s, NonEqSel.
    fn default() -> Self {
        DisorderConfig {
            gamma: 0.99,
            period_p: 60_000,
            interval_l: 1_000,
            basic_window_b: 10,
            granularity_g: 10,
            selectivity: SelectivityStrategy::NonEqSel,
        }
    }
}

impl DisorderConfig {
    /// Creates the paper-default configuration with the given `Γ`.
    pub fn with_gamma(gamma: f64) -> Self {
        DisorderConfig {
            gamma,
            ..Default::default()
        }
    }

    /// Validates all invariants the paper states:
    /// `0 < Γ ≤ 1`, `0 < L ≤ P`, `b > 0`, `g > 0`.
    pub(crate) fn validate(&self) -> Result<()> {
        if !(self.gamma > 0.0 && self.gamma <= 1.0) {
            return Err(Error::InvalidConfig(format!(
                "recall requirement Γ must be in (0, 1], got {}",
                self.gamma
            )));
        }
        if self.interval_l == 0 {
            return Err(Error::InvalidConfig(
                "adaptation interval L must be positive".into(),
            ));
        }
        if self.interval_l > self.period_p {
            return Err(Error::InvalidConfig(format!(
                "adaptation interval L ({} ms) must not exceed the measurement period P ({} ms)",
                self.interval_l, self.period_p
            )));
        }
        if self.basic_window_b == 0 {
            return Err(Error::InvalidConfig(
                "basic window size b must be positive".into(),
            ));
        }
        if self.granularity_g == 0 {
            return Err(Error::InvalidConfig(
                "K-search granularity g must be positive".into(),
            ));
        }
        Ok(())
    }

    /// Builder-style setter for the measurement period `P`.
    pub fn period(mut self, p: Duration) -> Self {
        self.period_p = p;
        self
    }

    /// Builder-style setter for the adaptation interval `L`.
    pub fn interval(mut self, l: Duration) -> Self {
        self.interval_l = l;
        self
    }

    /// Builder-style setter for the basic-window size `b`.
    pub fn basic_window(mut self, b: Duration) -> Self {
        self.basic_window_b = b;
        self
    }

    /// Builder-style setter for the K-search granularity `g`.
    pub fn granularity(mut self, g: Duration) -> Self {
        self.granularity_g = g;
        self
    }

    /// Builder-style setter for the selectivity strategy.
    pub fn selectivity_strategy(mut self, s: SelectivityStrategy) -> Self {
        self.selectivity = s;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_defaults() {
        let c = DisorderConfig::default();
        assert_eq!(c.period_p, 60_000);
        assert_eq!(c.interval_l, 1_000);
        assert_eq!(c.basic_window_b, 10);
        assert_eq!(c.granularity_g, 10);
        assert_eq!(c.selectivity, SelectivityStrategy::NonEqSel);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let c = DisorderConfig::with_gamma(0.95)
            .period(30_000)
            .interval(500)
            .basic_window(20)
            .granularity(100)
            .selectivity_strategy(SelectivityStrategy::EqSel);
        assert_eq!(c.gamma, 0.95);
        assert_eq!(c.period_p, 30_000);
        assert_eq!(c.interval_l, 500);
        assert_eq!(c.basic_window_b, 20);
        assert_eq!(c.granularity_g, 100);
        assert_eq!(c.selectivity, SelectivityStrategy::EqSel);
        assert!(c.validate().is_ok());
    }

    #[track_caller]
    fn assert_invalid(result: Result<()>, needle: &str) {
        match result {
            Err(Error::InvalidConfig(msg)) => {
                assert!(msg.contains(needle), "message `{msg}` misses `{needle}`")
            }
            other => panic!("expected InvalidConfig({needle}), got {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_bad_parameters_with_specific_errors() {
        assert_invalid(DisorderConfig::with_gamma(0.0).validate(), "Γ");
        assert_invalid(DisorderConfig::with_gamma(-0.1).validate(), "Γ");
        assert_invalid(DisorderConfig::with_gamma(1.5).validate(), "got 1.5");
        assert_invalid(DisorderConfig::with_gamma(f64::NAN).validate(), "Γ");
        assert_invalid(
            DisorderConfig::default().interval(0).validate(),
            "adaptation interval L must be positive",
        );
        assert_invalid(
            DisorderConfig::default()
                .period(500)
                .interval(1_000)
                .validate(),
            "must not exceed the measurement period",
        );
        assert_invalid(
            DisorderConfig::default().basic_window(0).validate(),
            "basic window size b must be positive",
        );
        assert_invalid(
            DisorderConfig::default().granularity(0).validate(),
            "granularity g must be positive",
        );
        // Boundary values are accepted: Γ = 1 and L = P are legal.
        assert!(DisorderConfig::with_gamma(1.0).validate().is_ok());
        assert!(DisorderConfig::default()
            .period(1_000)
            .interval(1_000)
            .validate()
            .is_ok());
    }

    #[test]
    fn strategy_display() {
        assert_eq!(SelectivityStrategy::EqSel.to_string(), "EqSel");
        assert_eq!(SelectivityStrategy::NonEqSel.to_string(), "NonEqSel");
        assert_eq!(
            SelectivityStrategy::default(),
            SelectivityStrategy::NonEqSel
        );
    }
}
