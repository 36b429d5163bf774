//! The Result-Size Monitor (Sec. III-A / IV-C).
//!
//! The monitor keeps a sliding window of `P − L` milliseconds over the
//! stream of produced join results (counted, not materialized) and over the
//! per-interval estimates of the true result size.  The Buffer-Size Manager
//! uses both to calibrate the *instant* recall requirement `Γ'` (Eq. 7): if
//! the recall over the last `P − L` was comfortably above `Γ`, the next
//! interval may aim lower, and vice versa.

use mswj_types::{Duration, Timestamp};
use std::collections::VecDeque;

/// Sliding-window counters over produced and estimated-true result sizes.
#[derive(Debug, Clone)]
pub struct ResultSizeMonitor {
    /// Window length `P − L` in milliseconds.
    window: Duration,
    produced: VecDeque<(Timestamp, u64)>,
    produced_sum: u64,
    true_estimates: VecDeque<(Timestamp, u64)>,
    true_sum: u64,
}

impl ResultSizeMonitor {
    /// Creates a monitor with window length `P − L` (ms).
    pub fn new(window: Duration) -> Self {
        ResultSizeMonitor {
            window,
            produced: VecDeque::new(),
            produced_sum: 0,
            true_estimates: VecDeque::new(),
            true_sum: 0,
        }
    }

    /// Records `count` produced join results with result timestamp `ts`.
    pub fn record_produced(&mut self, ts: Timestamp, count: u64) {
        if count == 0 {
            return;
        }
        self.produced.push_back((ts, count));
        self.produced_sum += count;
    }

    /// Records the estimated true result size of one completed adaptation
    /// interval ending at `ts` (the `N_true(L)` estimate of the profiler).
    pub fn record_true_estimate(&mut self, ts: Timestamp, count: u64) {
        self.true_estimates.push_back((ts, count));
        self.true_sum += count;
    }

    /// Number of produced results whose timestamps fall within
    /// `(now − (P − L), now]`; also prunes older entries.
    pub fn produced_within(&mut self, now: Timestamp) -> u64 {
        let cutoff = now.saturating_sub_duration(self.window);
        while let Some(&(ts, c)) = self.produced.front() {
            if ts <= cutoff {
                self.produced.pop_front();
                self.produced_sum -= c;
            } else {
                break;
            }
        }
        self.produced_sum
    }

    /// Sum of per-interval true-result-size estimates within
    /// `(now − (P − L), now]`; also prunes older entries.
    pub fn true_within(&mut self, now: Timestamp) -> u64 {
        let cutoff = now.saturating_sub_duration(self.window);
        while let Some(&(ts, c)) = self.true_estimates.front() {
            if ts <= cutoff {
                self.true_estimates.pop_front();
                self.true_sum -= c;
            } else {
                break;
            }
        }
        self.true_sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn produced_counts_slide_with_the_window() {
        let mut m = ResultSizeMonitor::new(1_000);
        assert_eq!(m.window, 1_000);
        m.record_produced(ts(100), 5);
        m.record_produced(ts(600), 3);
        m.record_produced(ts(1_200), 2);
        // At t = 1 200 the window is (200, 1_200]: the entry at 100 is out.
        assert_eq!(m.produced_within(ts(1_200)), 5);
        // At t = 1 600 the window is (600, 1_600]: only the entry at 1 200 remains.
        assert_eq!(m.produced_within(ts(1_600)), 2);
        // At t = 3 000 everything is gone.
        assert_eq!(m.produced_within(ts(3_000)), 0);
    }

    #[test]
    fn zero_counts_are_ignored() {
        let mut m = ResultSizeMonitor::new(1_000);
        m.record_produced(ts(10), 0);
        assert_eq!(m.produced_within(ts(10)), 0);
    }

    #[test]
    fn true_estimates_slide_independently() {
        let mut m = ResultSizeMonitor::new(2_000);
        m.record_true_estimate(ts(1_000), 100);
        m.record_true_estimate(ts(2_000), 150);
        m.record_true_estimate(ts(3_000), 50);
        // Window (1_000, 3_000]: the estimate recorded exactly at the cutoff
        // is pruned.
        assert_eq!(m.true_within(ts(3_000)), 150 + 50);
        // Window (2_500, 4_500].
        assert_eq!(m.true_within(ts(4_500)), 50);
        assert_eq!(m.true_within(ts(10_000)), 0);
        // Produced side is untouched.
        assert_eq!(m.produced_within(ts(10_000)), 0);
    }

    #[test]
    fn boundary_is_exclusive_on_the_old_side() {
        let mut m = ResultSizeMonitor::new(1_000);
        m.record_produced(ts(1_000), 7);
        // Window (1_000, 2_000]: an entry exactly at the cutoff is pruned.
        assert_eq!(m.produced_within(ts(2_000)), 0);
    }
}
