//! Buffer-size policies: the quality-driven manager plus the baselines the
//! paper evaluates against.
//!
//! * [`BufferPolicy::QualityDriven`] — the paper's contribution (Sec. IV).
//! * [`BufferPolicy::NoKSlack`] — `K_i = 0` for every stream; only the
//!   Synchronizer handles disorder (baseline 1 of Sec. VI).
//! * [`BufferPolicy::MaxKSlack`] — `K` tracks the maximum delay among all
//!   tuples observed so far, the state-of-the-art baseline \[12\]
//!   (baseline 2 of Sec. VI).
//! * [`BufferPolicy::FixedK`] — a constant, user-chosen buffer size
//!   (the latency-side configurability of e.g. Aurora \[14\]).

use crate::config::DisorderConfig;
use mswj_types::Duration;

/// How the K-slack buffer sizes are managed during a run.
#[derive(Debug, Clone, PartialEq)]
pub enum BufferPolicy {
    /// Model-based, quality-driven adaptation (the paper's approach).
    QualityDriven(DisorderConfig),
    /// No intra-stream disorder handling at all (`K = 0`).
    NoKSlack,
    /// `K` equals the largest delay observed so far across all streams.
    MaxKSlack,
    /// A constant buffer size in milliseconds.
    FixedK(Duration),
}

impl BufferPolicy {
    /// Short name used in experiment reports.
    pub fn name(&self) -> &'static str {
        match self {
            BufferPolicy::QualityDriven(_) => "quality-driven",
            BufferPolicy::NoKSlack => "no-k-slack",
            BufferPolicy::MaxKSlack => "max-k-slack",
            BufferPolicy::FixedK(_) => "fixed-k",
        }
    }

    /// The disorder-handling configuration, when the policy has one.
    pub fn config(&self) -> Option<&DisorderConfig> {
        match self {
            BufferPolicy::QualityDriven(c) => Some(c),
            _ => None,
        }
    }

    /// Whether the policy performs periodic adaptation steps.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, BufferPolicy::QualityDriven(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_config_access() {
        let qd = BufferPolicy::QualityDriven(DisorderConfig::default());
        assert_eq!(qd.name(), "quality-driven");
        assert!(qd.config().is_some());
        assert!(qd.is_adaptive());

        assert_eq!(BufferPolicy::NoKSlack.name(), "no-k-slack");
        assert!(BufferPolicy::NoKSlack.config().is_none());
        assert!(!BufferPolicy::NoKSlack.is_adaptive());

        assert_eq!(BufferPolicy::MaxKSlack.name(), "max-k-slack");
        assert_eq!(BufferPolicy::FixedK(500).name(), "fixed-k");
    }
}
