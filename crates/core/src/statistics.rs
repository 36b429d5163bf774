//! The Statistics Manager (Sec. IV-A).
//!
//! For every input stream the Statistics Manager monitors a recent history
//! of tuple arrivals and maintains:
//!
//! * a **coarse-grained delay histogram** approximating the pdf `f_{D_i}`
//!   (bucket 0 holds in-order tuples, bucket `d ≥ 1` holds delays in
//!   `((d-1)·g, d·g]`, matching the K-search granularity `g`);
//! * the average implicit synchronizer buffer size `K_sync_i` (Proposition 1
//!   lets us measure it directly on the raw input streams);
//! * the stream's data rate `r_i`;
//! * the maximum observed delay `MaxDH` bounding the K search of Alg. 3.
//!
//! The length of the history window `R_stat_i` is adjusted per stream with
//! ADWIN \[25\], so the histogram forgets stale disorder patterns quickly when
//! the delay distribution changes.

use mswj_adwin::Adwin;
use mswj_types::{Duration, SkewTracker, StreamIndex, Timestamp};
use std::collections::VecDeque;

/// Hard cap on the per-stream history length, bounding memory even when the
/// delay distribution is perfectly stationary.
const MAX_HISTORY: usize = 50_000;

/// Maps a raw delay to its coarse bucket at granularity `g` (≥ 1): 0 for
/// in-order tuples, `d` for delays in `((d-1)·g, d·g]`.  The one rule the
/// delay histograms and the productivity profiler share — Alg. 3 reads
/// both at the same `g`, so they must agree.
#[inline]
pub(crate) fn delay_bucket(delay: Duration, g: Duration) -> usize {
    if delay == 0 {
        0
    } else {
        delay.div_ceil(g) as usize
    }
}

/// A coarse-grained tuple-delay histogram (the empirical `f_{D_i}`).
#[derive(Debug, Clone, PartialEq)]
pub struct DelayHistogram {
    granularity: Duration,
    counts: Vec<u64>,
    total: u64,
}

impl DelayHistogram {
    /// Builds a histogram with granularity `g` from raw delays (ms).
    pub fn from_delays<I: IntoIterator<Item = Duration>>(g: Duration, delays: I) -> Self {
        let mut h = DelayHistogram::empty(g);
        for d in delays {
            h.add(d);
        }
        h
    }

    /// An empty histogram.
    pub fn empty(g: Duration) -> Self {
        DelayHistogram {
            granularity: g.max(1),
            counts: Vec::new(),
            total: 0,
        }
    }

    /// Adds one raw delay observation.
    pub fn add(&mut self, delay: Duration) {
        let bucket = self.bucket_of(delay);
        match self.counts.get_mut(bucket) {
            Some(count) => *count += 1,
            None => {
                self.counts.resize(bucket, 0);
                self.counts.push(1);
            }
        }
        self.total += 1;
    }

    /// Removes one previously added observation, dropping trailing empty
    /// buckets so the table always equals `from_delays` over what is left.
    fn remove(&mut self, delay: Duration) {
        let bucket = self.bucket_of(delay);
        self.counts[bucket] -= 1;
        self.total -= 1;
        while self.counts.last() == Some(&0) {
            self.counts.pop();
        }
    }

    /// Per-bucket observation counts; the last bucket, if any, is non-empty.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Maps a raw delay to its coarse bucket: 0 for in-order tuples, `d` for
    /// delays in `((d-1)·g, d·g]`.
    pub fn bucket_of(&self, delay: Duration) -> usize {
        delay_bucket(delay, self.granularity)
    }

    /// The histogram granularity `g`.
    pub fn granularity(&self) -> Duration {
        self.granularity
    }

    /// Number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Largest non-empty bucket index.
    pub fn max_bucket(&self) -> usize {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0)
    }

    /// Probability `Pr[D_i = d]` of coarse bucket `d` (the empirical pdf).
    pub fn probability(&self, d: usize) -> f64 {
        if self.total == 0 {
            // With no evidence assume perfectly ordered input.
            return if d == 0 { 1.0 } else { 0.0 };
        }
        self.counts.get(d).copied().unwrap_or(0) as f64 / self.total as f64
    }

    /// Cumulative probability `Pr[D_i <= d]`.
    pub fn cumulative(&self, d: usize) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let sum: u64 = self.counts.iter().take(d + 1).sum();
        sum as f64 / self.total as f64
    }
}

/// One recorded arrival in the per-stream history window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DelaySample {
    ts: Timestamp,
    delay: Duration,
    k_sync: Duration,
}

/// History of one input stream, sized adaptively with ADWIN.
#[derive(Debug, Clone)]
struct StreamHistory {
    adwin: Adwin,
    samples: VecDeque<DelaySample>,
    /// Bucket counts of exactly the delays in `samples`: `+1` on admit,
    /// `-1` on evict, never rebuilt.
    histogram: DelayHistogram,
    delay_sum: u128,
    k_sync_sum: u128,
    max_delay: Duration,
    max_delay_dirty: bool,
}

impl StreamHistory {
    fn new(granularity: Duration) -> Self {
        StreamHistory {
            // Checking the ADWIN cut on every arrival is unnecessarily
            // expensive at stream rates of hundreds of tuples per second;
            // every 32 arrivals is plenty for the drift scales of interest.
            adwin: Adwin::with_params(mswj_adwin::DEFAULT_DELTA, 5, 32),
            samples: VecDeque::new(),
            histogram: DelayHistogram::empty(granularity),
            delay_sum: 0,
            k_sync_sum: 0,
            max_delay: 0,
            max_delay_dirty: false,
        }
    }

    fn record(&mut self, sample: DelaySample) {
        self.adwin.insert(sample.delay as f64);
        self.samples.push_back(sample);
        self.histogram.add(sample.delay);
        self.delay_sum += sample.delay as u128;
        self.k_sync_sum += sample.k_sync as u128;
        if sample.delay > self.max_delay {
            self.max_delay = sample.delay;
        }
        // Trim the history to the ADWIN window length (and the hard cap).
        let target = (self.adwin.len() as usize).clamp(1, MAX_HISTORY);
        while self.samples.len() > target {
            let old = self.samples.pop_front().expect("len checked");
            self.histogram.remove(old.delay);
            self.delay_sum -= old.delay as u128;
            self.k_sync_sum -= old.k_sync as u128;
            if old.delay == self.max_delay {
                self.max_delay_dirty = true;
            }
        }
        if self.max_delay_dirty {
            self.max_delay = self.samples.iter().map(|s| s.delay).max().unwrap_or(0);
            self.max_delay_dirty = false;
        }
    }

    fn k_sync_avg(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.k_sync_sum as f64 / self.samples.len() as f64
        }
    }

    fn rate_per_ms(&self) -> f64 {
        if self.samples.len() < 2 {
            return 0.0;
        }
        let first = self.samples.front().expect("non-empty").ts;
        let last = self.samples.back().expect("non-empty").ts;
        let span = last.saturating_duration_since(first).max(1);
        self.samples.len() as f64 / span as f64
    }
}

/// Runtime statistics provider feeding the analytical model (Sec. IV-A).
#[derive(Debug, Clone)]
pub struct StatisticsManager {
    skew: SkewTracker,
    histories: Vec<StreamHistory>,
}

impl StatisticsManager {
    /// Creates a manager for `m` streams with delay-bucket granularity `g`.
    pub fn new(m: usize, granularity: Duration) -> Self {
        StatisticsManager {
            skew: SkewTracker::new(m),
            histories: (0..m).map(|_| StreamHistory::new(granularity)).collect(),
        }
    }

    /// Number of monitored streams.
    pub fn arity(&self) -> usize {
        self.histories.len()
    }

    /// Observes the arrival of a raw input tuple of stream `i` with
    /// timestamp `ts`, returning its delay.
    pub fn observe(&mut self, i: StreamIndex, ts: Timestamp) -> Duration {
        let delay = self.skew.observe(i, ts);
        let k_sync = self.skew.k_sync(i);
        self.histories[i.as_usize()].record(DelaySample { ts, delay, k_sync });
        delay
    }

    /// The coarse-grained delay histogram of stream `i` over its current
    /// history window, maintained incrementally by [`Self::observe`].
    pub fn delay_histogram(&self, i: StreamIndex) -> &DelayHistogram {
        &self.histories[i.as_usize()].histogram
    }

    /// The raw delays currently in the history window of stream `i`, oldest
    /// first (what [`Self::delay_histogram`] is the histogram of).
    pub fn history_delays(&self, i: StreamIndex) -> impl Iterator<Item = Duration> + '_ {
        self.histories[i.as_usize()].samples.iter().map(|s| s.delay)
    }

    /// The average measured `K_sync_i` within the history of stream `i`.
    pub fn k_sync_avg(&self, i: StreamIndex) -> f64 {
        self.histories[i.as_usize()].k_sync_avg()
    }

    /// The `K_sync_i` estimates used by the model:
    /// `avg(K_sync_i) - min_j avg(K_sync_j)` (Sec. IV-A).
    pub fn k_sync_estimates(&self) -> Vec<Duration> {
        let mut estimates = Vec::new();
        self.fill_k_sync_estimates(&mut estimates);
        estimates
    }

    /// [`Self::k_sync_estimates`] into a caller-owned buffer.
    pub(crate) fn fill_k_sync_estimates(&self, out: &mut Vec<Duration>) {
        let avgs = || self.histories.iter().map(StreamHistory::k_sync_avg);
        let min = avgs().fold(f64::INFINITY, f64::min);
        out.clear();
        if min.is_finite() {
            out.extend(avgs().map(|a| (a - min).round() as Duration));
        } else {
            out.resize(self.arity(), 0);
        }
    }

    /// Estimated data rate `r_i` of stream `i` in tuples per millisecond.
    pub fn rate_per_ms(&self, i: StreamIndex) -> f64 {
        self.histories[i.as_usize()].rate_per_ms()
    }

    /// Current maximum tuple delay (`MaxDH`) within the monitored histories
    /// of all streams.
    pub fn max_delay(&self) -> Duration {
        self.histories
            .iter()
            .map(|h| h.max_delay)
            .max()
            .unwrap_or(0)
    }

    /// Length of the history window currently kept for stream `i`.
    pub fn history_len(&self, i: StreamIndex) -> usize {
        self.histories[i.as_usize()].samples.len()
    }

    /// Mean raw delay over the history of stream `i` (ms).
    pub fn mean_delay(&self, i: StreamIndex) -> f64 {
        let h = &self.histories[i.as_usize()];
        if h.samples.is_empty() {
            0.0
        } else {
            h.delay_sum as f64 / h.samples.len() as f64
        }
    }

    /// The underlying skew tracker (local current times of raw streams).
    pub fn skew(&self) -> &SkewTracker {
        &self.skew
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn histogram_bucketing_matches_paper_definition() {
        let h = DelayHistogram::from_delays(10, vec![0, 0, 5, 10, 11, 20, 25]);
        // Bucket 0: delay 0 (2 tuples); bucket 1: (0, 10] -> 5, 10;
        // bucket 2: (10, 20] -> 11, 20; bucket 3: (20, 30] -> 25.
        assert_eq!(h.total(), 7);
        assert!((h.probability(0) - 2.0 / 7.0).abs() < 1e-12);
        assert!((h.probability(1) - 2.0 / 7.0).abs() < 1e-12);
        assert!((h.probability(2) - 2.0 / 7.0).abs() < 1e-12);
        assert!((h.probability(3) - 1.0 / 7.0).abs() < 1e-12);
        assert_eq!(h.probability(4), 0.0);
        assert_eq!(h.max_bucket(), 3);
        assert!((h.cumulative(1) - 4.0 / 7.0).abs() < 1e-12);
        assert!((h.cumulative(10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_assumes_ordered_input() {
        let h = DelayHistogram::empty(10);
        assert_eq!(h.probability(0), 1.0);
        assert_eq!(h.probability(3), 0.0);
        assert_eq!(h.cumulative(0), 1.0);
        assert_eq!(h.total(), 0);
        assert_eq!(h.granularity(), 10);
    }

    #[test]
    fn granularity_zero_is_clamped() {
        let h = DelayHistogram::empty(0);
        assert_eq!(h.granularity(), 1);
    }

    #[test]
    fn observe_records_delays_and_ksync() {
        let mut sm = StatisticsManager::new(2, 10);
        assert_eq!(sm.arity(), 2);
        assert_eq!(sm.observe(StreamIndex(0), ts(100)), 0);
        assert_eq!(sm.observe(StreamIndex(0), ts(80)), 20);
        assert_eq!(sm.observe(StreamIndex(1), ts(50)), 0);
        let h0 = sm.delay_histogram(StreamIndex(0));
        assert_eq!(h0.total(), 2);
        assert!(h0.probability(2) > 0.0); // delay 20 -> bucket 2
        assert_eq!(sm.max_delay(), 20);
        assert_eq!(sm.history_len(StreamIndex(0)), 2);
        assert!(sm.mean_delay(StreamIndex(0)) > 0.0);
        assert_eq!(sm.mean_delay(StreamIndex(1)), 0.0);
    }

    #[test]
    fn k_sync_estimates_are_relative_to_slowest_stream() {
        let mut sm = StatisticsManager::new(3, 10);
        // Stream 0 leads, stream 1 lags, stream 2 in the middle.
        for i in 0..50u64 {
            sm.observe(StreamIndex(0), ts(1_000 + i * 10));
            sm.observe(StreamIndex(1), ts(500 + i * 10));
            sm.observe(StreamIndex(2), ts(700 + i * 10));
        }
        let est = sm.k_sync_estimates();
        assert_eq!(est[1], 0, "the slowest stream has K_sync = 0");
        assert!(est[0] > est[2], "leading stream has the largest K_sync");
        assert!(est[0] >= 400 && est[0] <= 600, "got {}", est[0]);
    }

    #[test]
    fn rate_estimation_uses_event_time_span() {
        let mut sm = StatisticsManager::new(2, 10);
        for i in 0..101u64 {
            sm.observe(StreamIndex(0), ts(i * 10)); // 100 tuples over 1000 ms
        }
        let rate = sm.rate_per_ms(StreamIndex(0));
        assert!((rate - 0.101).abs() < 0.02, "rate {rate}");
        assert_eq!(sm.rate_per_ms(StreamIndex(1)), 0.0);
    }

    #[test]
    fn history_adapts_when_delay_pattern_changes() {
        let mut sm = StatisticsManager::new(1, 10);
        // Long phase with zero delays, then a phase with large delays.
        let mut t = 0u64;
        for _ in 0..3_000 {
            t += 10;
            sm.observe(StreamIndex(0), ts(t));
        }
        let before = sm.history_len(StreamIndex(0));
        for i in 0..3_000u64 {
            t += 10;
            // Every other tuple is late by 500 ms.
            let tuple_ts = if i % 2 == 0 { t } else { t - 500 };
            sm.observe(StreamIndex(0), ts(tuple_ts));
        }
        let hist = sm.delay_histogram(StreamIndex(0));
        // The delay histogram must reflect the new pattern: a substantial
        // fraction of late tuples, not the stale all-zero history.
        assert!(
            hist.probability(0) < 0.9,
            "history did not adapt: P(0) = {}",
            hist.probability(0)
        );
        assert!(before > 1_000);
        // The late tuples lag 500 ms behind the generation clock, but the
        // local current time iT itself lags 10 ms (the last in-order tuple),
        // so the observed delay is 490 ms.
        assert_eq!(sm.max_delay(), 490);
    }

    #[test]
    fn max_delay_tracks_history_and_history_is_bounded() {
        let mut sm = StatisticsManager::new(1, 10);
        sm.observe(StreamIndex(0), ts(10_000));
        sm.observe(StreamIndex(0), ts(100));
        assert_eq!(sm.max_delay(), 9_900);
        // The history window never exceeds the hard cap, whatever ADWIN does.
        let mut t = 10_000u64;
        for _ in 0..(MAX_HISTORY + 5_000) {
            t += 10;
            sm.observe(StreamIndex(0), ts(t));
        }
        assert!(sm.history_len(StreamIndex(0)) <= MAX_HISTORY);
    }
}
