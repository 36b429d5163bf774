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
        if !self.started || ts >= self.now {
            self.now = ts;
            self.started = true;
            0
        } else {
            self.now - ts
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

    /// Observes a tuple arrival on stream `i`, returning its delay.
    pub fn observe(&mut self, i: StreamIndex, ts: Timestamp) -> Duration {
        self.clocks[i.as_usize()].observe(ts)
    }

    /// The local current time of stream `i`.
    pub fn local_time(&self, i: StreamIndex) -> Timestamp {
        self.clocks[i.as_usize()].now()
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
    pub(crate) fn slowest(&self) -> Timestamp {
        self.clocks
            .iter()
            .filter(|c| c.started())
            .map(LocalClock::now)
            .min()
            .unwrap_or(Timestamp::ZERO)
    }

    /// The implicit synchronizer buffer contribution for stream `i`,
    /// `K_sync_i = iT - min_j jT` (Sec. III-B), the minimum over the
    /// started streams (zero for a stream that has not started).
    pub fn k_sync(&self, i: StreamIndex) -> Duration {
        self.local_time(i) - self.slowest()
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
    }

    #[test]
    fn equal_timestamp_is_in_order() {
        let mut c = LocalClock::new();
        c.observe(ts(10));
        assert_eq!(c.observe(ts(10)), 0);
    }

    #[test]
    fn skew_tracker_basic_quantities() {
        let mut sk = SkewTracker::new(3);
        sk.observe(StreamIndex(0), ts(100));
        sk.observe(StreamIndex(1), ts(40));
        sk.observe(StreamIndex(2), ts(70));
        assert_eq!(sk.local_time(StreamIndex(0)), ts(100));
        assert_eq!(sk.skew(StreamIndex(0), StreamIndex(1)), 60);
        assert_eq!(sk.skew(StreamIndex(1), StreamIndex(0)), 60);
        assert_eq!(sk.slowest(), ts(40));
        assert_eq!(sk.k_sync(StreamIndex(0)), 60);
        assert_eq!(sk.k_sync(StreamIndex(1)), 0);
        assert_eq!(sk.k_sync(StreamIndex(2)), 30);
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
        sk.observe(StreamIndex(1), ts(base + 4));
        assert_eq!(sk.slowest(), ts(base + 4));
        assert_eq!(sk.k_sync(StreamIndex(0)), 6);
    }

    #[test]
    fn empty_tracker_defaults() {
        let sk = SkewTracker::new(2);
        assert_eq!(sk.slowest(), Timestamp::ZERO);
    }
}
