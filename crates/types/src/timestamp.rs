//! Application-time timestamps and durations.
//!
//! The paper's datasets use millisecond-granularity timestamps assigned at
//! the data source.  We model application time as an unsigned number of
//! milliseconds since the start of the stream.  All disorder-handling
//! arithmetic (delays, K-slack buffer sizes, window scopes) is done in this
//! unit.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A span of application time in milliseconds.
///
/// Window sizes `W_i`, the K-slack buffer size `K`, the adaptation interval
/// `L`, the result-quality measurement period `P`, the basic-window size `b`
/// and the K-search granularity `g` are all [`Duration`]s.
pub type Duration = u64;

/// A point in application time, measured in milliseconds since stream start.
///
/// `Timestamp` is a thin, `Copy` newtype over `u64`; ordering and equality
/// follow the numeric value.  Subtraction saturates at zero because the
/// paper's formulas only ever need non-negative differences (delays, skews).
///
/// # Examples
///
/// ```
/// use mswj_types::Timestamp;
/// let a = Timestamp::from_millis(5_000);
/// let b = Timestamp::from_millis(3_000);
/// assert_eq!(a - b, 2_000);
/// assert_eq!(b.saturating_sub_duration(5_000), Timestamp::ZERO);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The origin of application time.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from a number of milliseconds since stream start.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis)
    }

    /// Returns the timestamp as milliseconds since stream start.
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Returns the timestamp as (possibly fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Adds a duration, saturating at `u64::MAX` milliseconds.
    #[inline]
    pub fn saturating_add_duration(self, d: Duration) -> Self {
        Timestamp(self.0.saturating_add(d))
    }

    /// Subtracts a duration, saturating at [`Timestamp::ZERO`].
    #[inline]
    pub fn saturating_sub_duration(self, d: Duration) -> Self {
        Timestamp(self.0.saturating_sub(d))
    }

    /// Returns `self - other` as a [`Duration`], or zero when `other > self`.
    #[inline]
    pub fn saturating_duration_since(self, other: Timestamp) -> Duration {
        self.0.saturating_sub(other.0)
    }

    /// Absolute difference between two timestamps; used for time skews
    /// `skew(S_i, S_j) = |iT - jT|` (Sec. II-A).
    #[inline]
    pub fn abs_diff(self, other: Timestamp) -> Duration {
        self.0.abs_diff(other.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

impl From<u64> for Timestamp {
    fn from(millis: u64) -> Self {
        Timestamp(millis)
    }
}

impl From<Timestamp> for u64 {
    fn from(ts: Timestamp) -> Self {
        ts.0
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs)
    }
}

impl AddAssign<Duration> for Timestamp {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    #[inline]
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(rhs))
    }
}

impl SubAssign<Duration> for Timestamp {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_sub(rhs);
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Timestamp) -> Duration {
        self.0.saturating_sub(rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Timestamp::from_millis(3_000);
        assert_eq!(t.as_millis(), 3_000);
        assert_eq!(Timestamp::from_millis(1_500).as_secs_f64(), 1.5);
        assert_eq!(Timestamp::ZERO.as_millis(), 0);
    }

    #[test]
    fn ordering_follows_numeric_value() {
        assert!(Timestamp::from_millis(5) > Timestamp::from_millis(4));
        assert_eq!(Timestamp::from_millis(7), Timestamp::from(7u64));
        assert_eq!(
            Timestamp::from_millis(9).max(Timestamp::from_millis(2)),
            Timestamp::from_millis(9)
        );
        assert_eq!(
            Timestamp::from_millis(9).min(Timestamp::from_millis(2)),
            Timestamp::from_millis(2)
        );
    }

    #[test]
    fn arithmetic_saturates() {
        let t = Timestamp::from_millis(100);
        assert_eq!(t + 50, Timestamp::from_millis(150));
        assert_eq!(t - 150, Timestamp::ZERO);
        assert_eq!(t - Timestamp::from_millis(150), 0);
        assert_eq!(t.saturating_sub_duration(1_000), Timestamp::ZERO);
        let max = Timestamp::from_millis(u64::MAX);
        assert_eq!(max.saturating_add_duration(10), max);
        assert_eq!(t.saturating_duration_since(Timestamp::from_millis(30)), 70);
        assert_eq!(t.saturating_duration_since(Timestamp::from_millis(300)), 0);
    }

    #[test]
    fn abs_diff_is_symmetric() {
        let a = Timestamp::from_millis(10);
        let b = Timestamp::from_millis(25);
        assert_eq!(a.abs_diff(b), 15);
        assert_eq!(b.abs_diff(a), 15);
        assert_eq!(a.abs_diff(a), 0);
    }

    #[test]
    fn assign_ops() {
        let mut t = Timestamp::from_millis(10);
        t += 5;
        assert_eq!(t.as_millis(), 15);
        t -= 20;
        assert_eq!(t, Timestamp::ZERO);
    }

    #[test]
    fn display_and_millis_roundtrip() {
        // The vendored serde stub does not serialize, so the transparent
        // representation is checked via the raw-millis round-trip instead of
        // a serde_json round-trip.
        let t = Timestamp::from_millis(42);
        assert_eq!(t.to_string(), "42ms");
        let raw = t.as_millis();
        assert_eq!(raw, 42);
        assert_eq!(Timestamp::from_millis(raw), t);
    }
}
