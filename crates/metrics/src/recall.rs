//! Period-based recall `γ(P)` and requirement fulfilment `Φ(Γ)` (Sec. II-B
//! and Sec. VI, *Metrics*).
//!
//! `γ(P)` is measured "right before each adaptation of K": at every pipeline
//! checkpoint we compare the number of produced results whose timestamps lie
//! within the last `P` time units against the corresponding ground-truth
//! count.  Measurements obtained during the first quality measurement period
//! are excluded, as in the paper.  A run that takes no measurement — one
//! shorter than `P` — is unmeasured, not perfect: its average and minimum
//! `γ(P)` and its `Φ(Γ)` are NaN.

use crate::ground_truth::CountSeries;
use mswj_core::{Checkpoint, RunReport};
use mswj_types::{Duration, Timestamp};
use serde::Serialize;

/// One `γ(P)` measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct RecallSample {
    /// The measurement instant (result-timestamp domain).
    pub at: Timestamp,
    /// Produced results with timestamps in `(at - P, at]`.
    pub produced: u64,
    /// True results with timestamps in `(at - P, at]`.
    pub true_results: u64,
    /// The recall `γ(P)`; 1.0 when there are no true results in the period.
    pub recall: f64,
}

/// Aggregated recall evaluation of one pipeline run.
#[derive(Debug, Clone, Serialize)]
pub struct RecallEvaluation {
    /// Individual `γ(P)` measurements (first period excluded).
    pub samples: Vec<RecallSample>,
    /// Average `γ(P)` over all measurements; NaN without one.
    pub avg_recall: f64,
    /// Overall recall (total produced / total true over the whole run).
    pub overall_recall: f64,
    /// Mean adaptation-step time (ms); 0 for non-adaptive policies.
    pub avg_adaptation_ms: f64,
}

impl RecallEvaluation {
    /// The requirement fulfilment percentage `Φ(Γ)`: the share of `γ(P)`
    /// measurements that are not lower than `gamma`, in percent; NaN
    /// without a measurement.
    pub fn fulfilment_pct(&self, gamma: f64) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let ok = self
            .samples
            .iter()
            .filter(|s| s.recall + 1e-12 >= gamma)
            .count();
        100.0 * ok as f64 / self.samples.len() as f64
    }

    /// The relaxed fulfilment `Φ(.99Γ)` the paper also reports.
    pub fn fulfilment_pct_relaxed(&self, gamma: f64) -> f64 {
        self.fulfilment_pct(gamma * 0.99)
    }

    /// Minimum observed `γ(P)`; NaN without a measurement.
    pub fn min_recall(&self) -> f64 {
        let recalls = self.samples.iter().map(|s| s.recall);
        recalls.reduce(f64::min).unwrap_or(f64::NAN)
    }
}

/// Measures `γ(P)` at every checkpoint of `report` against the ground truth.
///
/// Checkpoints whose measurement instant lies within the first `P` time
/// units of the run are excluded, mirroring the paper's methodology.
pub fn evaluate_recall(
    report: &RunReport,
    truth: &CountSeries,
    period_p: Duration,
) -> RecallEvaluation {
    let produced = CountSeries::new(report.produced.clone());
    let warmup_end = Timestamp::ZERO.saturating_add_duration(period_p);
    let samples: Vec<RecallSample> = report
        .checkpoints
        .iter()
        .filter(|c| c.measure_ts > warmup_end)
        .map(|c| sample_at(c, &produced, truth, period_p))
        .collect();
    // 0 / 0 without a measurement: NaN.
    let avg_recall = samples.iter().map(|s| s.recall).sum::<f64>() / samples.len() as f64;
    let overall_recall = if truth.total() == 0 {
        1.0
    } else {
        (produced.total() as f64 / truth.total() as f64).min(1.0)
    };
    RecallEvaluation {
        samples,
        avg_recall,
        overall_recall,
        avg_adaptation_ms: report.avg_adaptation_millis(),
    }
}

fn sample_at(
    checkpoint: &Checkpoint,
    produced: &CountSeries,
    truth: &CountSeries,
    period_p: Duration,
) -> RecallSample {
    let at = checkpoint.measure_ts;
    let from = at.saturating_sub_duration(period_p);
    let produced_in = produced.count_in(from, at);
    let true_in = truth.count_in(from, at);
    let recall = if true_in == 0 {
        1.0
    } else {
        (produced_in as f64 / true_in as f64).min(1.0)
    };
    RecallSample {
        at,
        produced: produced_in,
        true_results: true_in,
        recall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_core::Checkpoint;
    use mswj_join::OperatorStats;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn checkpoint(at: u64) -> Checkpoint {
        Checkpoint {
            at: ts(at),
            measure_ts: ts(at),
            k: 0,
            gamma_prime: f64::NAN,
            estimated_recall: f64::NAN,
            adaptation_nanos: 0,
            steps: 0,
            n_prod_history: 0,
            n_true_history: 0,
            n_true_next: 0,
            n_lost_next: 0,
            n_dropped_next: 0,
            max_delay: 0,
            selectivity_ratio: f64::NAN,
        }
    }

    fn report(produced: Vec<(Timestamp, u64)>, checkpoints: Vec<Checkpoint>) -> RunReport {
        RunReport {
            policy: "test".into(),
            produced,
            checkpoints,
            avg_k_ms: 123.0,
            operator_stats: OperatorStats::default(),
            shard_stats: vec![mswj_core::ShardStats::default()],
            total_produced: 0,
            kslack_residual_out_of_order: 0,
            max_observed_delay: 0,
            duration_ms: 10_000,
            avg_adaptation_nanos: 2_000_000.0,
        }
    }

    #[test]
    fn recall_samples_match_hand_computation() {
        // True results: 10 at t=1_500, 10 at t=2_500.  Produced: 10 at 1_500,
        // 5 at 2_500.  P = 1_000.
        let truth = CountSeries::new(vec![(ts(1_500), 10), (ts(2_500), 10)]);
        let rep = report(
            vec![(ts(1_500), 10), (ts(2_500), 5)],
            vec![checkpoint(1_600), checkpoint(2_600)],
        );
        let eval = evaluate_recall(&rep, &truth, 1_000);
        assert_eq!(eval.samples.len(), 2);
        assert!((eval.samples[0].recall - 1.0).abs() < 1e-12);
        assert!((eval.samples[1].recall - 0.5).abs() < 1e-12);
        assert!((eval.avg_recall - 0.75).abs() < 1e-12);
        assert!((eval.overall_recall - 0.75).abs() < 1e-12);
        assert_eq!(eval.samples[1].produced, 5);
        assert_eq!(eval.samples[1].true_results, 10);
        assert!((eval.avg_adaptation_ms - 2.0).abs() < 1e-12);
        assert!((eval.min_recall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn warmup_period_is_excluded() {
        let truth = CountSeries::new(vec![(ts(500), 10), (ts(5_000), 10)]);
        let rep = report(
            vec![(ts(5_000), 10)],
            vec![checkpoint(800), checkpoint(5_500)],
        );
        let eval = evaluate_recall(&rep, &truth, 1_000);
        // The checkpoint at 800 lies within the first P = 1_000 ms: excluded.
        assert_eq!(eval.samples.len(), 1);
        assert_eq!(eval.samples[0].at, ts(5_500));
    }

    #[test]
    fn fulfilment_percentages() {
        let truth = CountSeries::new(vec![(ts(2_000), 100), (ts(3_000), 200), (ts(4_000), 100)]);
        let rep = report(
            vec![(ts(2_000), 100), (ts(3_000), 197), (ts(4_000), 80)],
            vec![checkpoint(2_100), checkpoint(3_100), checkpoint(4_100)],
        );
        let eval = evaluate_recall(&rep, &truth, 1_000);
        // Recalls: 1.0, 0.985, 0.8.
        assert!((eval.fulfilment_pct(0.99) - 33.333).abs() < 0.1);
        // Φ(.99Γ) with Γ = 0.99 accepts anything >= 0.9801: 1.0 and 0.985.
        assert!((eval.fulfilment_pct_relaxed(0.99) - 66.666).abs() < 0.1);
        assert!((eval.fulfilment_pct(0.5) - 100.0).abs() < 1e-9);
        assert!((eval.fulfilment_pct(1.0) - 33.333).abs() < 0.1);
    }

    #[test]
    fn empty_period_counts_as_perfect_recall() {
        let truth = CountSeries::new(vec![(ts(10_000), 5)]);
        let rep = report(vec![], vec![checkpoint(5_000)]);
        let eval = evaluate_recall(&rep, &truth, 1_000);
        assert_eq!(eval.samples.len(), 1);
        assert!((eval.samples[0].recall - 1.0).abs() < 1e-12);
        assert_eq!(eval.fulfilment_pct(0.999), 100.0);
    }

    #[test]
    fn no_samples_defaults() {
        let truth = CountSeries::new(vec![]);
        let rep = report(vec![], vec![]);
        let eval = evaluate_recall(&rep, &truth, 1_000);
        assert!(eval.samples.is_empty());
        assert!(eval.avg_recall.is_nan());
        assert_eq!(eval.overall_recall, 1.0);
        assert!(eval.fulfilment_pct(0.9).is_nan());
        assert!(eval.min_recall().is_nan());
    }

    #[test]
    fn a_run_shorter_than_p_is_unmeasured() {
        // Checkpoints every second of a 10 s run that misses half its
        // results, measured over P = 60 s: every checkpoint lies in the
        // first period, so none is a measurement.
        let truth = CountSeries::new(vec![(ts(5_000), 10)]);
        let checkpoints = (1..=10).map(|s| checkpoint(s * 1_000)).collect();
        let rep = report(vec![(ts(5_000), 5)], checkpoints);
        let eval = evaluate_recall(&rep, &truth, 60_000);
        assert!(eval.samples.is_empty());
        assert!(eval.avg_recall.is_nan());
        assert!(eval.min_recall().is_nan());
        assert!(eval.fulfilment_pct(0.9).is_nan());
        assert!(eval.fulfilment_pct_relaxed(0.9).is_nan());
        assert!((eval.overall_recall - 0.5).abs() < 1e-12);
    }
}
