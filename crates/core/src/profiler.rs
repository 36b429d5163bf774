//! The Tuple-Productivity Profiler (Sec. IV-B).
//!
//! To estimate the join selectivity under incomplete disorder handling
//! (`sel(K)` for candidate buffer sizes `K`), the framework learns the
//! correlation between a tuple's **delay** and its **productivity**
//! (DPcorr) by monitoring the join output — an *output-based* approach that
//! works for arbitrary join conditions.
//!
//! For every in-order tuple `e` the join operator reports the actual number
//! of results `n_on(e)` and the cross-join size `n_x(e)`; the profiler
//! accumulates both per coarse-grained delay bucket in the maps `M_on` and
//! `M_x`.  Out-of-order tuples are never probed, so their productivity is
//! estimated conservatively as the maximum productivity observed within the
//! last adaptation interval.  At the end of the interval the maps feed
//! Eq. 6 (selectivity ratio) and the `N_true(L)` estimate of Eq. 7.

use crate::statistics::delay_bucket;
use mswj_types::Duration;
use std::collections::BTreeMap;

/// Accumulated productivity statistics of one adaptation interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IntervalMaps {
    /// `(M_x[d], M_on[d])`: accumulated cross-join sizes and join result
    /// counts per coarse delay bucket — one map, both are always recorded
    /// together.
    by_bucket: BTreeMap<usize, (u64, u64)>,
    /// Maximum `n_on(e)` observed for an in-order tuple.
    max_join: u64,
    /// Maximum `n_x(e)` observed for an in-order tuple.
    max_cross: u64,
    /// Number of in-order (probing) tuples recorded.
    processed: u64,
    /// Number of out-of-order tuples whose productivity was estimated.
    estimated: u64,
}

impl IntervalMaps {
    fn add(&mut self, bucket: usize, n_cross: u64, n_join: u64) {
        let (cross, join) = self.by_bucket.entry(bucket).or_insert((0, 0));
        *cross += n_cross;
        *join += n_join;
    }
}

/// Cumulative `M_on` / `M_x` sums used to evaluate Eq. 6 for many candidate
/// buffer sizes cheaply.  Reusable: the Buffer-Size Manager refills one in
/// place at every checkpoint.
#[derive(Debug, Clone, Default)]
pub struct SelectivityTable {
    granularity: Duration,
    /// `(bucket, Σ M_on up to bucket, Σ M_x up to bucket)`, ascending.
    cum: Vec<(usize, u64, u64)>,
}

impl SelectivityTable {
    /// The selectivity ratio `sel(K)/sel` of Eq. 6 for buffer size `k` (ms).
    pub fn ratio(&self, k: Duration) -> f64 {
        let k_bucket = (k / self.granularity.max(1)) as usize;
        self.ratio_of_prefix(self.cum.partition_point(|&(b, _, _)| b <= k_bucket))
    }

    /// A forward cursor yielding the ratio for `K = 0, g, 2g, …` in turn —
    /// Alg. 3's walk — without a search or a division per candidate.
    pub fn walk(&self) -> impl Iterator<Item = f64> + '_ {
        let mut covered = 0;
        (0usize..).map(move |k_bucket| {
            while self
                .cum
                .get(covered)
                .is_some_and(|&(b, _, _)| b <= k_bucket)
            {
                covered += 1;
            }
            self.ratio_of_prefix(covered)
        })
    }

    /// Eq. 6 over the first `covered` entries (the buckets `<= K/g`).
    fn ratio_of_prefix(&self, covered: usize) -> f64 {
        let Some(&(_, total_join, total_cross)) = self.cum.last() else {
            return 1.0;
        };
        if total_join == 0 || total_cross == 0 || covered == 0 {
            return 1.0;
        }
        let (_, join_k, cross_k) = self.cum[covered - 1];
        if cross_k == 0 {
            // No probing evidence at or below this K: fall back to the
            // overall selectivity (ratio 1).
            return 1.0;
        }
        let sel_k = join_k as f64 / cross_k as f64;
        let sel = total_join as f64 / total_cross as f64;
        if sel <= 0.0 {
            1.0
        } else {
            sel_k / sel
        }
    }
}

/// Learns DPcorr and estimates selectivity ratios from the join output.
#[derive(Debug, Clone)]
pub struct ProductivityProfiler {
    granularity: Duration,
    current: IntervalMaps,
    last: IntervalMaps,
}

impl ProductivityProfiler {
    /// Creates a profiler with coarse delay granularity `g` (ms) — the same
    /// granularity used by Alg. 3's K search.
    pub fn new(granularity: Duration) -> Self {
        ProductivityProfiler {
            granularity: granularity.max(1),
            current: IntervalMaps::default(),
            last: IntervalMaps::default(),
        }
    }

    /// Records an in-order tuple that was probed by the join operator with
    /// the given raw delay and observed productivities.
    pub fn record_processed(&mut self, delay: Duration, n_cross: u64, n_join: u64) {
        let bucket = delay_bucket(delay, self.granularity);
        self.current.add(bucket, n_cross, n_join);
        self.current.processed += 1;
        if n_join > self.current.max_join {
            self.current.max_join = n_join;
        }
        if n_cross > self.current.max_cross {
            self.current.max_cross = n_cross;
        }
    }

    /// Records an out-of-order tuple (never probed): its productivity is
    /// estimated as the maximum productivity seen for in-order tuples in the
    /// last adaptation interval (falling back to the current one).
    pub fn record_unprocessed(&mut self, delay: Duration) {
        let bucket = delay_bucket(delay, self.granularity);
        let est_join = self.last.max_join.max(self.current.max_join);
        let est_cross = self
            .last
            .max_cross
            .max(self.current.max_cross)
            .max(est_join);
        self.current.add(bucket, est_cross, est_join);
        self.current.estimated += 1;
    }

    /// Closes the current adaptation interval: the accumulated maps become
    /// the "last interval" statistics used by the next adaptation step, and
    /// accumulation restarts from scratch.
    pub fn roll_interval(&mut self) {
        self.last = std::mem::take(&mut self.current);
    }

    /// Estimated selectivity ratio `sel(K)/sel` (Eq. 6) for a candidate
    /// buffer size `K`, based on the last completed interval.
    ///
    /// Returns 1.0 when there is no evidence yet (empty maps), matching the
    /// EqSel assumption.
    pub fn selectivity_ratio(&self, k: Duration) -> f64 {
        self.selectivity_table().ratio(k)
    }

    /// Precomputes a lookup table for `sel(K)/sel` so that Alg. 3 can probe
    /// many candidate K values without re-summing the maps each time.
    pub fn selectivity_table(&self) -> SelectivityTable {
        let mut table = SelectivityTable::default();
        self.fill_selectivity_table(&mut table);
        table
    }

    /// [`Self::selectivity_table`] into a caller-owned table: one in-order
    /// pass over the last interval's map, no allocation once it has grown.
    pub(crate) fn fill_selectivity_table(&self, table: &mut SelectivityTable) {
        table.granularity = self.granularity;
        table.cum.clear();
        let mut join_acc = 0u64;
        let mut cross_acc = 0u64;
        table
            .cum
            .extend(self.last.by_bucket.iter().map(|(&b, &(cross, join))| {
                join_acc += join;
                cross_acc += cross;
                (b, join_acc, cross_acc)
            }));
    }

    /// Estimate of the true result size of the last interval,
    /// `N_true(L) ≈ Σ_d M_on[d]` (Sec. IV-C).
    pub fn n_true_estimate(&self) -> u64 {
        self.last.by_bucket.values().map(|&(_, join)| join).sum()
    }

    /// Actually produced results recorded in the last interval (in-order
    /// contributions only, i.e. excluding estimated productivities).
    pub fn processed_tuples(&self) -> u64 {
        self.last.processed
    }

    /// Out-of-order tuples whose productivity had to be estimated in the
    /// last interval.
    pub fn estimated_tuples(&self) -> u64 {
        self.last.estimated
    }

    /// The coarse granularity `g` of the delay buckets.
    pub fn granularity(&self) -> Duration {
        self.granularity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectivity_ratio_defaults_to_one_without_evidence() {
        let p = ProductivityProfiler::new(10);
        assert_eq!(p.selectivity_ratio(0), 1.0);
        assert_eq!(p.selectivity_ratio(1_000), 1.0);
        assert_eq!(p.n_true_estimate(), 0);
        assert_eq!(p.granularity(), 10);
    }

    #[test]
    fn ratio_reflects_delay_productivity_correlation() {
        let mut p = ProductivityProfiler::new(10);
        // In-order tuples (delay 0) have low productivity, delayed tuples
        // (delay 50) have high productivity: the selectivity at small K is
        // lower than the overall selectivity, so the ratio is < 1.
        for _ in 0..100 {
            p.record_processed(0, 100, 1);
            p.record_processed(50, 100, 20);
        }
        p.roll_interval();
        let r0 = p.selectivity_ratio(0);
        let r50 = p.selectivity_ratio(50);
        assert!(r0 < 1.0, "ratio at K=0 should be < 1, got {r0}");
        assert!((r50 - 1.0).abs() < 1e-9, "ratio at full coverage is 1");
        assert!(r0 < r50);
    }

    #[test]
    fn anti_correlation_gives_ratio_above_one() {
        let mut p = ProductivityProfiler::new(10);
        for _ in 0..100 {
            p.record_processed(0, 100, 20); // in-order tuples very productive
            p.record_processed(50, 100, 1); // late tuples barely productive
        }
        p.roll_interval();
        assert!(p.selectivity_ratio(0) > 1.0);
    }

    #[test]
    fn unprocessed_tuples_use_max_productivity_estimate() {
        let mut p = ProductivityProfiler::new(10);
        p.record_processed(0, 50, 3);
        p.record_processed(0, 80, 7); // max join = 7, max cross = 80
        p.record_unprocessed(30);
        p.roll_interval();
        // N_true estimate includes the estimated productivity 7.
        assert_eq!(p.n_true_estimate(), 3 + 7 + 7);
        assert_eq!(p.processed_tuples(), 2);
        assert_eq!(p.estimated_tuples(), 1);
    }

    #[test]
    fn unprocessed_estimates_fall_back_to_last_interval_maximum() {
        let mut p = ProductivityProfiler::new(10);
        p.record_processed(0, 100, 9);
        p.roll_interval();
        // New interval: the only information so far is from the last one.
        p.record_unprocessed(40);
        p.roll_interval();
        assert_eq!(p.n_true_estimate(), 9);
    }

    #[test]
    fn roll_interval_resets_accumulation() {
        let mut p = ProductivityProfiler::new(10);
        p.record_processed(0, 10, 5);
        p.roll_interval();
        assert_eq!(p.n_true_estimate(), 5);
        p.roll_interval();
        assert_eq!(p.n_true_estimate(), 0, "second roll sees an empty interval");
    }

    #[test]
    fn bucketing_respects_granularity() {
        let mut p = ProductivityProfiler::new(100);
        p.record_processed(0, 10, 1); // bucket 0
        p.record_processed(100, 10, 2); // bucket 1 (delay in (0, 100])
        p.record_processed(101, 10, 4); // bucket 2
        p.roll_interval();
        // K = 100 covers buckets 0 and 1 only.
        let k_cov = p.selectivity_ratio(100);
        let full = p.selectivity_ratio(300);
        assert!(k_cov < full);
        assert!((full - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ratio_handles_zero_cross_at_small_k() {
        let mut p = ProductivityProfiler::new(10);
        // Only delayed tuples were ever probed (e.g. all in-order tuples saw
        // empty windows): no cross-join evidence at K = 0.
        p.record_processed(500, 100, 10);
        p.roll_interval();
        assert_eq!(p.selectivity_ratio(0), 1.0);
    }
}
