//! Stream progress tracking: local current times, delays and skews.
//!
//! Sec. II-A defines for every stream `S_i` the *local current time*
//! `iT = max { e.ts | e already arrived in S_i }`, the per-tuple *delay*
//! `delay(e) = iT - e.ts` (evaluated with the `iT` updated at e's arrival)
//! and the pairwise *time skew* `skew(S_i, S_j) = |iT - jT|`.  These
//! quantities drive both the K-slack buffers and the analytical model, so
//! they get their own small utilities here.

use crate::stream::StreamIndex;
use crate::timestamp::{Duration, Timestamp};
use serde::{Deserialize, Serialize};

/// Tracks the local current time `iT` of a single stream and computes tuple
/// delays against it.
///
/// # Examples
///
/// ```
/// use mswj_types::{LocalClock, Timestamp};
/// let mut clock = LocalClock::new();
/// assert_eq!(clock.observe(Timestamp::from_millis(10)), 0);   // in order
/// assert_eq!(clock.observe(Timestamp::from_millis(30)), 0);   // in order
/// assert_eq!(clock.observe(Timestamp::from_millis(25)), 5);   // 5 ms late
/// assert_eq!(clock.now(), Timestamp::from_millis(30));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalClock {
    now: Timestamp,
    started: bool,
    observed: u64,
    out_of_order: u64,
    max_delay: Duration,
}

impl LocalClock {
    /// A clock that has not yet seen any tuple.
    pub fn new() -> Self {
        LocalClock::default()
    }

    /// Observes the arrival of a tuple with timestamp `ts`, advances the
    /// local current time if needed and returns the tuple's delay
    /// `delay(e) = iT - e.ts` (zero for in-order tuples).
    pub fn observe(&mut self, ts: Timestamp) -> Duration {
        self.observed += 1;
        if !self.started || ts >= self.now {
            self.now = ts;
            self.started = true;
            0
        } else {
            let delay = self.now - ts;
            self.out_of_order += 1;
            if delay > self.max_delay {
                self.max_delay = delay;
            }
            delay
        }
    }

    /// The current local time `iT`; [`Timestamp::ZERO`] before any arrival.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Whether at least one tuple has been observed.
    pub fn started(&self) -> bool {
        self.started
    }

    /// Total number of observed tuples.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Number of observed tuples that were out of order.
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order
    }

    /// Largest delay observed so far (zero if every tuple was in order).
    pub fn max_delay(&self) -> Duration {
        self.max_delay
    }
}

/// Tracks local current times for all `m` streams of a query and derives
/// skews and the implicit synchronizer buffer sizes `K_sync_i`.
///
/// Proposition 1 of the paper shows that, under the Same-K policy, the
/// skew between K-slack output streams equals the skew between the raw
/// inputs; the Statistics Manager therefore measures `K_sync_i` directly on
/// the raw inputs via this tracker.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SkewTracker {
    clocks: Vec<LocalClock>,
}

impl SkewTracker {
    /// Creates a tracker for `m` streams.
    pub fn new(m: usize) -> Self {
        SkewTracker {
            clocks: vec![LocalClock::new(); m],
        }
    }

    /// Number of tracked streams.
    pub fn arity(&self) -> usize {
        self.clocks.len()
    }

    /// Observes a tuple arrival on stream `i`, returning its delay.
    pub fn observe(&mut self, i: StreamIndex, ts: Timestamp) -> Duration {
        self.clocks[i.as_usize()].observe(ts)
    }

    /// The local current time of stream `i`.
    pub fn local_time(&self, i: StreamIndex) -> Timestamp {
        self.clocks[i.as_usize()].now()
    }

    /// Access to the per-stream clock.
    pub fn clock(&self, i: StreamIndex) -> &LocalClock {
        &self.clocks[i.as_usize()]
    }

    /// Pairwise skew `|iT - jT|` between two streams.
    pub fn skew(&self, i: StreamIndex, j: StreamIndex) -> Duration {
        self.local_time(i).abs_diff(self.local_time(j))
    }

    /// Local time of the slowest stream, `min_i iT` — the value the
    /// synchronizer's `T_sync` converges to when all K-slack buffers are
    /// empty (proof of Theorem 1).  Ranges over the streams that have
    /// produced a tuple: a stream with none has no local time yet, and
    /// reading it as [`Timestamp::ZERO`] would make every `K_sync_i` the
    /// raw timestamp `iT`.  [`Timestamp::ZERO`] before any arrival.
    pub fn slowest(&self) -> Timestamp {
        self.clocks
            .iter()
            .filter(|c| c.started())
            .map(LocalClock::now)
            .min()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Local time of the fastest (leading) stream, `max_i iT`.
    pub fn fastest(&self) -> Timestamp {
        self.clocks
            .iter()
            .map(LocalClock::now)
            .max()
            .unwrap_or(Timestamp::ZERO)
    }

    /// The implicit synchronizer buffer contribution for stream `i`,
    /// `K_sync_i = iT - min_j jT` (Sec. III-B), the minimum over the
    /// started streams (zero for a stream that has not started).
    pub fn k_sync(&self, i: StreamIndex) -> Duration {
        self.local_time(i) - self.slowest()
    }

    /// All `K_sync_i` values in stream order.
    pub fn k_sync_all(&self) -> Vec<Duration> {
        let slowest = self.slowest();
        self.clocks.iter().map(|c| c.now() - slowest).collect()
    }

    /// Largest tuple delay observed on any stream.
    pub fn max_delay(&self) -> Duration {
        self.clocks
            .iter()
            .map(LocalClock::max_delay)
            .max()
            .unwrap_or(0)
    }

    /// Whether every stream has produced at least one tuple.
    pub fn all_started(&self) -> bool {
        self.clocks.iter().all(LocalClock::started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn local_clock_tracks_max_timestamp() {
        let mut c = LocalClock::new();
        assert!(!c.started());
        assert_eq!(c.now(), Timestamp::ZERO);
        c.observe(ts(10));
        c.observe(ts(5));
        c.observe(ts(20));
        assert_eq!(c.now(), ts(20));
        assert!(c.started());
        assert_eq!(c.observed(), 3);
    }

    #[test]
    fn local_clock_delays_match_paper_definition() {
        // Example of Fig. 3: tuple with ts 5 arriving when iT = 7 has delay 2.
        let mut c = LocalClock::new();
        assert_eq!(c.observe(ts(1)), 0);
        assert_eq!(c.observe(ts(4)), 0);
        assert_eq!(c.observe(ts(3)), 1);
        assert_eq!(c.observe(ts(7)), 0);
        assert_eq!(c.observe(ts(5)), 2);
        assert_eq!(c.out_of_order(), 2);
        assert_eq!(c.max_delay(), 2);
    }

    #[test]
    fn equal_timestamp_is_in_order() {
        let mut c = LocalClock::new();
        c.observe(ts(10));
        assert_eq!(c.observe(ts(10)), 0);
        assert_eq!(c.out_of_order(), 0);
    }

    #[test]
    fn skew_tracker_basic_quantities() {
        let mut sk = SkewTracker::new(3);
        assert_eq!(sk.arity(), 3);
        sk.observe(StreamIndex(0), ts(100));
        sk.observe(StreamIndex(1), ts(40));
        sk.observe(StreamIndex(2), ts(70));
        assert_eq!(sk.local_time(StreamIndex(0)), ts(100));
        assert_eq!(sk.skew(StreamIndex(0), StreamIndex(1)), 60);
        assert_eq!(sk.skew(StreamIndex(1), StreamIndex(0)), 60);
        assert_eq!(sk.slowest(), ts(40));
        assert_eq!(sk.fastest(), ts(100));
        assert_eq!(sk.k_sync(StreamIndex(0)), 60);
        assert_eq!(sk.k_sync(StreamIndex(1)), 0);
        assert_eq!(sk.k_sync(StreamIndex(2)), 30);
        assert_eq!(sk.k_sync_all(), vec![60, 0, 30]);
        assert!(sk.all_started());
    }

    #[test]
    fn skew_tracker_max_delay_across_streams() {
        let mut sk = SkewTracker::new(2);
        sk.observe(StreamIndex(0), ts(50));
        sk.observe(StreamIndex(0), ts(20)); // delay 30
        sk.observe(StreamIndex(1), ts(10));
        sk.observe(StreamIndex(1), ts(5)); // delay 5
        assert_eq!(sk.max_delay(), 30);
        assert_eq!(sk.clock(StreamIndex(1)).max_delay(), 5);
    }

    #[test]
    fn k_sync_ignores_streams_that_have_not_started() {
        // Epoch-millisecond timestamps: before stream 1's first tuple,
        // stream 0 is the slowest started stream, not `Timestamp::ZERO`.
        let base = 1_700_000_000_000;
        let mut sk = SkewTracker::new(3);
        sk.observe(StreamIndex(0), ts(base + 10));
        assert_eq!(sk.slowest(), ts(base + 10));
        assert_eq!(sk.k_sync(StreamIndex(0)), 0);
        assert_eq!(sk.k_sync_all(), vec![0, 0, 0]);
        sk.observe(StreamIndex(1), ts(base + 4));
        assert_eq!(sk.slowest(), ts(base + 4));
        assert_eq!(sk.k_sync(StreamIndex(0)), 6);
        assert_eq!(sk.k_sync_all(), vec![6, 0, 0]);
    }

    #[test]
    fn empty_tracker_defaults() {
        let sk = SkewTracker::new(2);
        assert_eq!(sk.slowest(), Timestamp::ZERO);
        assert_eq!(sk.fastest(), Timestamp::ZERO);
        assert!(!sk.all_started());
        assert_eq!(sk.max_delay(), 0);
    }
}
