//! The three instrument primitives: [`Counter`], [`Gauge`] and the fixed
//! log₂-bucket [`Histogram`].
//!
//! All three are plain clusters of [`AtomicU64`]s: updating any of them
//! from the ingestion hot path is a handful of relaxed atomic operations —
//! no locks, no allocation, no branching beyond the bucket index
//! computation.  Reads (snapshots, renderers) use the same relaxed loads;
//! telemetry is observational, so cross-instrument consistency is not
//! required and not promised.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` gauge (stored as raw bits in an [`AtomicU64`]).
///
/// Gauges start at `0.0`.  `NaN` is a legal value (the quality gauges of a
/// non-adaptive policy stay `NaN`); the JSON renderer maps it to `null`,
/// the Prometheus renderer emits the literal `NaN` the text format allows.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the gauge.
    #[inline]
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of buckets in every [`Histogram`], including the `0` bucket and
/// the unbounded overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket base-2 logarithmic histogram of `u64` samples.
///
/// Bucket `0` holds the value `0`; bucket `i ≥ 1` holds values in
/// `[2^(i−1), 2^i − 1]`; the last bucket is unbounded (`+Inf`).  The bucket
/// layout is baked in at compile time, so [`Histogram::record`] is three
/// relaxed `fetch_add`s and never allocates — safe on the per-event hot
/// path.  Units are the caller's business: the registry names each
/// histogram with its unit (`_ms`, `_nanos`).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Per-bucket (non-cumulative) counts, in bucket order.
    pub(crate) fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Inclusive upper bound of bucket `idx`, or `None` for the unbounded
    /// overflow bucket.
    pub(crate) fn bucket_upper_bound(idx: usize) -> Option<u64> {
        if idx + 1 >= HISTOGRAM_BUCKETS {
            None
        } else {
            Some((1u64 << idx) - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn gauge_holds_last_value_including_nan() {
        let g = Gauge::default();
        assert_eq!(g.get(), 0.0);
        g.set(0.95);
        assert_eq!(g.get(), 0.95);
        g.set(f64::NAN);
        assert!(g.get().is_nan());
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(2); // bucket 2
        h.record(3); // bucket 2
        h.record(1024); // bucket 11
        h.record(1 << 40); // overflow bucket
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[2], 2);
        assert_eq!(buckets[11], 1);
        assert_eq!(buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 2 + 3 + 1024 + (1 << 40));
    }

    #[test]
    fn bucket_bounds_cover_their_values() {
        // Every value in bucket i must be ≤ its upper bound and > the
        // previous bucket's bound.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, 1 << 30] {
            let idx = if v == 0 {
                0
            } else {
                (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
            };
            if let Some(le) = Histogram::bucket_upper_bound(idx) {
                assert!(v <= le, "{v} > le {le} of its bucket {idx}");
            }
            if idx > 0 {
                let below = Histogram::bucket_upper_bound(idx - 1).unwrap();
                assert!(v > below, "{v} ≤ le {below} of the bucket below {idx}");
            }
        }
        assert_eq!(Histogram::bucket_upper_bound(0), Some(0));
        assert_eq!(Histogram::bucket_upper_bound(1), Some(1));
        assert_eq!(Histogram::bucket_upper_bound(2), Some(3));
        assert_eq!(Histogram::bucket_upper_bound(HISTOGRAM_BUCKETS - 1), None);
    }
}
