//! # mswj-adwin — adaptive windowing (ADWIN) for change detection
//!
//! The Statistics Manager of the disorder-handling framework (Sec. IV-A of
//! the ICDE'16 paper) approximates the per-stream tuple-delay distribution
//! from a window `R_stat_i` over the stream's recent history.  A fixed
//! window size is hard to choose without a-priori knowledge of the disorder
//! pattern, so the paper adopts the **adaptive window** approach of Bifet &
//! Gavaldà (SIAM SDM 2007, "Learning from time-changing data with adaptive
//! windowing") — reference \[25\] — which grows the window while the data is
//! stationary and shrinks it when a change in the mean of the monitored
//! quantity (here: tuple delays) is detected.
//!
//! This crate is a standalone implementation of ADWIN2, the bucket-based
//! variant of the algorithm: observations are summarised in exponentially
//! growing buckets, and after each insertion the algorithm checks every
//! bucket boundary as a candidate cut point using the Hoeffding-style bound
//! of the original paper.  When a significant difference between the means
//! of the two sub-windows is found, the older sub-window is dropped.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::VecDeque;

/// Default confidence parameter δ used by the paper's reference setup.
pub const DEFAULT_DELTA: f64 = 0.002;

/// Default number of buckets per exponential row (the `M` of ADWIN2).
pub(crate) const DEFAULT_MAX_BUCKETS: usize = 5;

/// A summary bucket holding `count ≈ 2^row` observations.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bucket {
    sum: f64,
    sum_sq: f64,
    count: u64,
}

impl Bucket {
    fn single(value: f64) -> Self {
        Bucket {
            sum: value,
            sum_sq: value * value,
            count: 1,
        }
    }

    fn merge(self, other: Bucket) -> Bucket {
        Bucket {
            sum: self.sum + other.sum,
            sum_sq: self.sum_sq + other.sum_sq,
            count: self.count + other.count,
        }
    }
}

/// Adaptive sliding window with automatic change detection (ADWIN2).
///
/// # Examples
///
/// ```
/// use mswj_adwin::Adwin;
/// let mut adwin = Adwin::new(0.002);
/// // A long stationary phase followed by a jump in the mean.
/// for _ in 0..1_000 { adwin.insert(1.0); }
/// let mut shrunk = false;
/// for _ in 0..1_000 {
///     if adwin.insert(50.0) { shrunk = true; }
/// }
/// assert!(shrunk, "ADWIN must detect the change in the mean");
/// assert!(adwin.mean() > 25.0, "old regime must have been dropped");
/// ```
#[derive(Debug, Clone)]
pub struct Adwin {
    delta: f64,
    max_buckets: usize,
    /// `rows[r]` holds buckets of capacity `2^r`, newest first.
    rows: Vec<VecDeque<Bucket>>,
    total: Bucket,
    /// Check for cuts only every `check_period` insertions (1 = every time).
    check_period: u64,
    /// Insertions left until the next cut check, counting down from
    /// `check_period`: the `check_period`-th, `2·check_period`-th, …
    /// insertion checks.
    until_check: u64,
}

impl Adwin {
    /// Creates an ADWIN detector with confidence parameter `delta`
    /// (smaller δ ⇒ fewer false alarms, slower reaction).
    pub fn new(delta: f64) -> Self {
        Self::with_params(delta, DEFAULT_MAX_BUCKETS, 1)
    }

    /// Creates an ADWIN detector with the default δ of 0.002.
    pub fn default_detector() -> Self {
        Self::new(DEFAULT_DELTA)
    }

    /// Full-control constructor: `max_buckets` buckets per exponential row
    /// and a cut check every `check_period` insertions.
    pub fn with_params(delta: f64, max_buckets: usize, check_period: u64) -> Self {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0, 1)");
        assert!(max_buckets >= 2, "need at least two buckets per row");
        assert!(check_period >= 1, "check_period must be at least 1");
        Adwin {
            delta,
            max_buckets,
            rows: vec![VecDeque::new()],
            total: Bucket {
                sum: 0.0,
                sum_sq: 0.0,
                count: 0,
            },
            check_period,
            until_check: check_period,
        }
    }

    /// Number of observations currently inside the adaptive window.
    pub fn len(&self) -> u64 {
        self.total.count
    }

    /// `true` when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.total.count == 0
    }

    /// Mean of the observations inside the window (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total.count == 0 {
            0.0
        } else {
            self.total.sum / self.total.count as f64
        }
    }

    /// Variance of the observations inside the window (0.0 when < 2 items).
    pub(crate) fn variance(&self) -> f64 {
        if self.total.count < 2 {
            return 0.0;
        }
        let n = self.total.count as f64;
        let mean = self.total.sum / n;
        (self.total.sum_sq / n - mean * mean).max(0.0)
    }

    /// Inserts an observation; returns `true` if a change was detected and
    /// the window was shrunk as a consequence.
    pub fn insert(&mut self, value: f64) -> bool {
        self.rows[0].push_front(Bucket::single(value));
        self.total = self.total.merge(Bucket::single(value));
        self.compress();
        self.until_check -= 1;
        if self.until_check == 0 {
            self.until_check = self.check_period;
            self.detect_and_shrink()
        } else {
            false
        }
    }

    /// Merges overflowing buckets into the next exponential row.  A row
    /// only grows by the merge its predecessor hands it, so the first row
    /// that did not overflow ends the cascade.
    fn compress(&mut self) {
        let mut row = 0;
        while row < self.rows.len() && self.rows[row].len() > self.max_buckets {
            let b1 = self.rows[row].pop_back().expect("len checked");
            let b2 = self.rows[row].pop_back().expect("len checked");
            if row + 1 == self.rows.len() {
                self.rows.push(VecDeque::new());
            }
            self.rows[row + 1].push_front(b2.merge(b1));
            row += 1;
        }
    }

    /// Scans candidate cut points from the oldest bucket towards the newest
    /// and drops the oldest buckets while a significant difference in means
    /// is detected.  Returns `true` if anything was dropped.
    fn detect_and_shrink(&mut self) -> bool {
        if self.total.count < 2 {
            return false;
        }
        let mut shrunk = false;
        let mut reduced = true;
        while reduced {
            reduced = false;
            // Every candidate of one scan splits the same window, so the
            // two terms of the bound that depend only on the whole window
            // are computed once per scan (again after each dropped bucket).
            let ln_term = (2.0 / (self.delta / (self.total.count as f64).max(1.0))).ln();
            let variance = self.variance();
            // Accumulate the "old" side starting from the oldest bucket.
            let mut old = Bucket {
                sum: 0.0,
                sum_sq: 0.0,
                count: 0,
            };
            'outer: for row in (0..self.rows.len()).rev() {
                for idx in (0..self.rows[row].len()).rev() {
                    let bucket = self.rows[row][idx];
                    old = old.merge(bucket);
                    let recent_count = self.total.count - old.count;
                    if recent_count == 0 {
                        break 'outer;
                    }
                    let recent_sum = self.total.sum - old.sum;
                    let mean_old = old.sum / old.count as f64;
                    let mean_recent = recent_sum / recent_count as f64;
                    let cut = Self::cut_detected(
                        old.count,
                        recent_count,
                        mean_old,
                        mean_recent,
                        variance,
                        ln_term,
                    );
                    if cut {
                        self.drop_oldest_bucket();
                        shrunk = true;
                        reduced = self.total.count > 2;
                        break 'outer;
                    }
                }
            }
        }
        shrunk
    }

    /// The ADWIN cut condition: `|μ_old - μ_recent| >= ε_cut`, with the
    /// variance-aware bound of Bifet & Gavaldà (Theorem 3.2).  `variance`
    /// is the whole window's and `ln_term` is `ln(2/δ′)` with
    /// `δ′ = δ / (n0 + n1)`.
    fn cut_detected(n0: u64, n1: u64, mean0: f64, mean1: f64, variance: f64, ln_term: f64) -> bool {
        // Harmonic mean of the two sub-window sizes.
        let m = 1.0 / (1.0 / n0 as f64 + 1.0 / n1 as f64);
        let eps = (2.0 / m * variance * ln_term).sqrt() + 2.0 / (3.0 * m) * ln_term;
        (mean0 - mean1).abs() >= eps
    }

    /// Removes the single oldest bucket from the window.
    fn drop_oldest_bucket(&mut self) {
        for row in (0..self.rows.len()).rev() {
            if let Some(b) = self.rows[row].pop_back() {
                self.total.sum -= b.sum;
                self.total.sum_sq -= b.sum_sq;
                self.total.count -= b.count;
                if self.total.count == 0 {
                    self.total.sum = 0.0;
                    self.total.sum_sq = 0.0;
                }
                return;
            }
        }
    }
}

impl Default for Adwin {
    fn default() -> Self {
        Adwin::default_detector()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The detector as it was before the per-scan hoisting and the early
    /// `compress` exit: every row walked on every insert, `ln(2/δ′)` and
    /// the window variance recomputed per candidate cut, and a cut check
    /// wherever the 1-based insert count `observed` is a multiple of the
    /// check period.  Kept as the oracle of
    /// `hoisted_scan_is_bit_identical_to_the_per_candidate_oracle`.
    impl Adwin {
        fn insert_oracle(&mut self, value: f64, observed: u64) -> bool {
            self.rows[0].push_front(Bucket::single(value));
            self.total = self.total.merge(Bucket::single(value));
            self.compress_oracle();
            if observed.is_multiple_of(self.check_period) {
                self.detect_and_shrink_oracle()
            } else {
                false
            }
        }

        fn compress_oracle(&mut self) {
            let mut row = 0;
            while row < self.rows.len() {
                if self.rows[row].len() > self.max_buckets {
                    let b1 = self.rows[row].pop_back().expect("len checked");
                    let b2 = self.rows[row].pop_back().expect("len checked");
                    if row + 1 == self.rows.len() {
                        self.rows.push(VecDeque::new());
                    }
                    self.rows[row + 1].push_front(b2.merge(b1));
                }
                row += 1;
            }
        }

        fn detect_and_shrink_oracle(&mut self) -> bool {
            if self.total.count < 2 {
                return false;
            }
            let mut shrunk = false;
            let mut reduced = true;
            while reduced {
                reduced = false;
                let mut old = Bucket {
                    sum: 0.0,
                    sum_sq: 0.0,
                    count: 0,
                };
                'outer: for row in (0..self.rows.len()).rev() {
                    for idx in (0..self.rows[row].len()).rev() {
                        let bucket = self.rows[row][idx];
                        old = old.merge(bucket);
                        let recent_count = self.total.count - old.count;
                        if recent_count == 0 {
                            break 'outer;
                        }
                        let recent_sum = self.total.sum - old.sum;
                        let mean_old = old.sum / old.count as f64;
                        let mean_recent = recent_sum / recent_count as f64;
                        if self.cut_detected_oracle(old.count, recent_count, mean_old, mean_recent)
                        {
                            self.drop_oldest_bucket();
                            shrunk = true;
                            reduced = self.total.count > 2;
                            break 'outer;
                        }
                    }
                }
            }
            shrunk
        }

        fn cut_detected_oracle(&self, n0: u64, n1: u64, mean0: f64, mean1: f64) -> bool {
            let n0 = n0 as f64;
            let n1 = n1 as f64;
            let n = n0 + n1;
            let m = 1.0 / (1.0 / n0 + 1.0 / n1);
            let delta_prime = self.delta / n.max(1.0);
            let ln_term = (2.0 / delta_prime).ln();
            let variance = self.variance();
            let eps = (2.0 / m * variance * ln_term).sqrt() + 2.0 / (3.0 * m) * ln_term;
            (mean0 - mean1).abs() >= eps
        }
    }

    #[test]
    fn hoisted_scan_is_bit_identical_to_the_per_candidate_oracle() {
        // Delay-like streams (non-negative, heavy at zero): stationary, a
        // step change, and a ramp — each at the pipeline's cadence (32) and
        // at a cut check per insert.
        fn stationary(_: usize, noise: f64) -> f64 {
            (noise * 40.0).floor()
        }
        fn step(i: usize, noise: f64) -> f64 {
            if i < 3_000 {
                (noise * 10.0).floor()
            } else {
                200.0 + (noise * 50.0).floor()
            }
        }
        fn ramp(i: usize, noise: f64) -> f64 {
            (i as f64 * 0.05).floor() + (noise * 8.0).floor()
        }
        type Stream = fn(usize, f64) -> f64;
        let streams: [(&str, Stream); 3] =
            [("stationary", stationary), ("step", step), ("ramp", ramp)];
        for (name, stream) in streams {
            for check_period in [1u64, 32] {
                for seed in 0..3u64 {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut shipped = Adwin::with_params(DEFAULT_DELTA, 5, check_period);
                    let mut oracle = shipped.clone();
                    let mut cuts = 0;
                    for i in 0..6_000 {
                        let v = stream(i, rng.gen::<f64>());
                        let shrunk = shipped.insert(v);
                        assert_eq!(
                            shrunk,
                            oracle.insert_oracle(v, i as u64 + 1),
                            "{name} period {check_period} seed {seed} insert {i}"
                        );
                        cuts += u64::from(shrunk);
                        assert_eq!(
                            (shipped.len(), shipped.mean().to_bits()),
                            (oracle.len(), oracle.mean().to_bits()),
                            "{name} period {check_period} seed {seed} insert {i}"
                        );
                    }
                    assert_eq!(shipped.rows, oracle.rows, "{name}: bucket rows diverged");
                    if name != "stationary" {
                        assert!(cuts > 0, "{name}: no cut was ever exercised");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "delta must be in (0, 1)")]
    fn rejects_invalid_delta() {
        let _ = Adwin::new(0.0);
    }

    #[test]
    #[should_panic(expected = "need at least two buckets")]
    fn rejects_too_few_buckets() {
        let _ = Adwin::with_params(0.01, 1, 1);
    }

    #[test]
    fn empty_window_defaults() {
        let a = Adwin::default();
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.variance(), 0.0);
        assert_eq!(a.until_check, a.check_period);
    }

    #[test]
    fn stationary_stream_grows_the_window() {
        let mut a = Adwin::new(0.002);
        for i in 0..5_000 {
            // Small bounded noise around a constant mean.
            let v = 10.0 + ((i % 7) as f64 - 3.0) * 0.01;
            a.insert(v);
        }
        // Window should retain (nearly) all observations: allow a small
        // number of spurious drops but not systematic shrinking.
        assert!(a.len() > 4_000, "window shrank too much: {}", a.len());
        assert!((a.mean() - 10.0).abs() < 0.1);
    }

    #[test]
    fn abrupt_change_is_detected_and_old_data_dropped() {
        let mut a = Adwin::new(0.002);
        for _ in 0..2_000 {
            a.insert(1.0);
        }
        let mut detected = false;
        for _ in 0..2_000 {
            if a.insert(100.0) {
                detected = true;
            }
        }
        assert!(detected);
        // After the drift finishes the window mean must reflect the new regime.
        assert!(
            a.mean() > 60.0,
            "mean still dominated by old data: {}",
            a.mean()
        );
    }

    #[test]
    fn gradual_change_eventually_detected() {
        let mut a = Adwin::new(0.01);
        let mut detected = false;
        for i in 0..6_000 {
            let v = if i < 3_000 {
                5.0
            } else {
                5.0 + (i - 3_000) as f64 * 0.01
            };
            detected |= a.insert(v);
        }
        assert!(detected, "gradual drift never detected");
        assert!(a.mean() > 10.0);
    }

    #[test]
    fn variance_is_nonnegative_and_sensible() {
        let mut a = Adwin::new(0.002);
        for i in 0..1_000 {
            a.insert(if i % 2 == 0 { 0.0 } else { 10.0 });
        }
        assert!(a.variance() > 0.0);
        assert!((a.mean() - 5.0).abs() < 0.5);
    }

    #[test]
    fn observed_counts_everything_inserted() {
        let mut a = Adwin::with_params(0.002, 5, 7);
        for _ in 0..100 {
            a.insert(3.0);
        }
        // A constant stream is never cut: the window holds every insert.
        assert_eq!(a.len(), 100);
        // 100 = 14 · 7 + 2: two inserts into the fifteenth check period.
        assert_eq!(a.until_check, 5);
    }

    #[test]
    fn check_period_skips_detection() {
        let mut a = Adwin::with_params(0.002, 5, 10_000);
        let mut detected = false;
        for _ in 0..500 {
            detected |= a.insert(1.0);
        }
        for _ in 0..500 {
            detected |= a.insert(100.0);
        }
        // With an enormous check period nothing is ever cut.
        assert!(!detected);
        assert_eq!(a.len(), 1_000);
    }

    #[test]
    fn bucket_compression_keeps_totals_consistent() {
        let mut a = Adwin::with_params(0.002, 2, 1_000_000);
        let mut expected_sum = 0.0;
        for i in 0..257 {
            let v = i as f64;
            expected_sum += v;
            a.insert(v);
        }
        assert_eq!(a.len(), 257);
        assert!((a.mean() - expected_sum / 257.0).abs() < 1e-9);
    }
}
