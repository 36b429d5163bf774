//! Ground-truth (true) result sizes and time-bucketed count series.
//!
//! "For each dataset, we generated a sorted version where tuples of all
//! streams are globally ordered according to their timestamps.  By
//! evaluating Q×x on the corresponding sorted dataset, we can obtain the
//! true join results" (Sec. VI).  This module does exactly that: it replays
//! the arrival log in timestamp order through the same [`MswjOperator`] and
//! records how many results carry each timestamp.

use mswj_join::{JoinQuery, MswjOperator};
use mswj_types::{ArrivalLog, Timestamp};

/// A series of `(timestamp, count)` pairs ordered by timestamp, with prefix
/// sums for O(log n) range-count queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CountSeries {
    entries: Vec<(Timestamp, u64)>,
    prefix: Vec<u64>,
}

impl CountSeries {
    /// Builds a series from unordered `(timestamp, count)` pairs.
    pub(crate) fn new(mut entries: Vec<(Timestamp, u64)>) -> Self {
        entries.retain(|&(_, c)| c > 0);
        entries.sort_by_key(|&(ts, _)| ts);
        let mut prefix = Vec::with_capacity(entries.len());
        let mut acc = 0u64;
        for &(_, c) in &entries {
            acc += c;
            prefix.push(acc);
        }
        CountSeries { entries, prefix }
    }

    /// Total count over the whole series.
    pub fn total(&self) -> u64 {
        self.prefix.last().copied().unwrap_or(0)
    }

    /// Count of results with timestamps in the half-open interval
    /// `(from, to]` — the shape of the paper's "last `P` time units".
    pub(crate) fn count_in(&self, from_exclusive: Timestamp, to_inclusive: Timestamp) -> u64 {
        if to_inclusive <= from_exclusive {
            return 0;
        }
        self.cumulative_upto(to_inclusive) - self.cumulative_upto(from_exclusive)
    }

    /// Count of results with timestamps `<= ts`.
    fn cumulative_upto(&self, ts: Timestamp) -> u64 {
        // partition_point returns the number of entries with timestamp <= ts.
        let idx = self.entries.partition_point(|&(t, _)| t <= ts);
        if idx == 0 {
            0
        } else {
            self.prefix[idx - 1]
        }
    }
}

/// Computes the true result counts of `query` over `log` by replaying the
/// log in global timestamp order through the join operator.
///
/// Returns a [`CountSeries`] keyed by result timestamp.
pub fn ground_truth_counts(query: &JoinQuery, log: &ArrivalLog) -> CountSeries {
    let sorted = log.sorted_by_timestamp();
    let mut operator = MswjOperator::new(query.clone());
    let mut entries = Vec::new();
    for event in sorted.iter() {
        let ts = event.ts();
        let outcome = operator.push(event.tuple.clone());
        debug_assert!(outcome.in_order, "sorted replay must be fully in order");
        if outcome.n_join > 0 {
            entries.push((ts, outcome.n_join));
        }
    }
    CountSeries::new(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_join::CommonKeyEquiJoin;
    use mswj_types::{ArrivalEvent, FieldType, Schema, StreamSet, Tuple, Value};
    use std::sync::Arc;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn count_series_range_queries() {
        let s = CountSeries::new(vec![(ts(10), 2), (ts(30), 0), (ts(20), 3), (ts(40), 1)]);
        assert_eq!(s.total(), 6);
        assert_eq!(s.entries.len(), 3, "zero counts are dropped");
        assert!(!s.entries.is_empty());
        assert_eq!(s.count_in(ts(0), ts(40)), 6);
        assert_eq!(s.count_in(ts(10), ts(40)), 4, "(10, 40] excludes ts=10");
        assert_eq!(s.count_in(ts(15), ts(20)), 3);
        assert_eq!(s.count_in(ts(40), ts(10)), 0, "inverted range is empty");
        assert_eq!(s.count_in(ts(41), ts(100)), 0);
        assert_eq!(s.entries.last().map(|&(t, _)| t), Some(ts(40)));
        assert!(CountSeries::default().entries.is_empty());
    }

    #[test]
    fn ground_truth_matches_hand_computed_join() {
        // 2-way equi-join, windows of 100 ms; all tuples share key 1.
        let streams =
            StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), 100).unwrap();
        let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        let query = mswj_join::JoinQuery::new("t", streams, cond).unwrap();

        // Stream 0 at t = 10, 50; stream 1 at t = 40, 200 (arrival order is
        // deliberately scrambled — ground truth must not depend on it).
        let mk = |stream: usize, seq: u64, t: u64| {
            ArrivalEvent::new(
                ts(1_000 + seq),
                Tuple::new(stream.into(), seq, ts(t), vec![Value::Int(1)]),
            )
        };
        let log = ArrivalLog::from_events(vec![
            mk(1, 1, 200),
            mk(0, 0, 10),
            mk(1, 0, 40),
            mk(0, 1, 50),
        ]);
        let truth = ground_truth_counts(&query, &log);
        // Sorted order: 10(S1), 40(S2) joins 10 -> 1, 50(S1) joins 40 -> 1,
        // 200(S2) joins nothing (10 and 50 expired).
        assert_eq!(truth.total(), 2);
        assert_eq!(truth.count_in(ts(0), ts(45)), 1);
        assert_eq!(truth.count_in(ts(45), ts(300)), 1);
    }

    #[test]
    fn ground_truth_is_arrival_order_invariant() {
        let streams =
            StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), 500).unwrap();
        let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        let query = mswj_join::JoinQuery::new("t", streams, cond).unwrap();
        let mk = |stream: usize, seq: u64, t: u64, arrival: u64| {
            ArrivalEvent::new(
                ts(arrival),
                Tuple::new(stream.into(), seq, ts(t), vec![Value::Int(1)]),
            )
        };
        let ordered = ArrivalLog::from_events(vec![
            mk(0, 0, 10, 10),
            mk(1, 0, 20, 20),
            mk(0, 1, 30, 30),
            mk(1, 1, 40, 40),
        ]);
        let scrambled = ArrivalLog::from_events(vec![
            mk(1, 1, 40, 5),
            mk(0, 0, 10, 6),
            mk(1, 0, 20, 7),
            mk(0, 1, 30, 8),
        ]);
        assert_eq!(
            ground_truth_counts(&query, &ordered),
            ground_truth_counts(&query, &scrambled)
        );
    }
}
