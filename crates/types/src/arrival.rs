//! Arrival events, arrival logs and multi-stream interleaving.
//!
//! The framework is driven by the *arrival order* of tuples, which is what a
//! stream processing system actually observes: tuples of one stream may
//! arrive out of timestamp order and tuples of different streams arrive
//! interleaved.  An [`ArrivalEvent`] pairs a tuple with the wall-clock-like
//! instant at which it reaches the system; an [`ArrivalLog`] is a replayable
//! sequence of such events for one dataset, and [`Interleaver`] merges
//! per-stream arrival sequences into a single global arrival order.

use crate::stream::StreamIndex;
use crate::timestamp::Timestamp;
use crate::tuple::Tuple;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One tuple arrival at the stream processing system.
///
/// `arrival` is the instant (on a global, monotone axis shared by all
/// streams) at which the tuple becomes visible to the disorder-handling
/// framework.  For the synthetic datasets of Sec. VI this is the generation
/// time `iT` at which the tuple was emitted by the source; for the simulated
/// soccer dataset it is `e.ts + network delay`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrivalEvent {
    /// Global arrival instant.
    pub arrival: Timestamp,
    /// The arriving tuple.
    pub tuple: Tuple,
}

impl ArrivalEvent {
    /// Creates an arrival event.
    pub fn new(arrival: Timestamp, tuple: Tuple) -> Self {
        ArrivalEvent { arrival, tuple }
    }

    /// The stream the tuple belongs to.
    pub fn stream(&self) -> StreamIndex {
        self.tuple.stream
    }

    /// The tuple's application timestamp.
    pub fn ts(&self) -> Timestamp {
        self.tuple.ts
    }
}

/// A replayable, arrival-ordered sequence of tuple arrivals for a whole
/// dataset (all streams interleaved).
///
/// Generators produce `ArrivalLog`s; pipelines and metrics consume them.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ArrivalLog {
    events: Vec<ArrivalEvent>,
}

impl ArrivalLog {
    /// Builds a log from events in any order, sorting by arrival instant
    /// with ties broken by `(stream index, sequence number)`.
    ///
    /// The tie-break makes the resulting order a pure function of the event
    /// *set*: two shuffles of the same events produce identical logs, and
    /// equal-arrival ties across streams follow the same stream-index order
    /// that [`Interleaver`] uses — so replays are deterministic.
    pub fn from_events(mut events: Vec<ArrivalEvent>) -> Self {
        events.sort_by_key(|e| (e.arrival, e.stream(), e.tuple.seq));
        ArrivalLog { events }
    }

    /// Number of arrivals in the log.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the log holds no arrivals.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the arrivals in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &ArrivalEvent> + '_ {
        self.events.iter()
    }

    /// The events as a slice.
    pub fn events(&self) -> &[ArrivalEvent] {
        &self.events
    }

    /// Number of arrivals belonging to stream `i`.
    pub fn count_for(&self, i: StreamIndex) -> usize {
        self.events.iter().filter(|e| e.stream() == i).count()
    }

    /// Returns a new log containing the tuples of all streams sorted
    /// globally by application timestamp, with arrival instants equal to the
    /// timestamps.  This is the "sorted version" of a dataset used to obtain
    /// the true join results (Sec. VI, *Datasets and Queries*).
    pub fn sorted_by_timestamp(&self) -> ArrivalLog {
        let mut events: Vec<ArrivalEvent> = self
            .events
            .iter()
            .map(|e| ArrivalEvent::new(e.ts(), e.tuple.clone()))
            .collect();
        // Stable sort keeps the relative order of equal timestamps, matching
        // the paper's note that ties may be emitted in any fixed order.
        events.sort_by_key(|e| e.ts());
        ArrivalLog { events }
    }
}

impl IntoIterator for ArrivalLog {
    type Item = ArrivalEvent;
    type IntoIter = std::vec::IntoIter<ArrivalEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a ArrivalLog {
    type Item = &'a ArrivalEvent;
    type IntoIter = std::slice::Iter<'a, ArrivalEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// Merges several per-stream arrival sequences (each already ordered by
/// arrival instant) into one global arrival order.
///
/// Ties between streams are broken by stream index so that interleaving is
/// deterministic and replayable.
#[derive(Debug, Default)]
pub struct Interleaver {
    per_stream: Vec<Vec<ArrivalEvent>>,
}

#[derive(PartialEq, Eq)]
struct HeapEntry {
    arrival: Timestamp,
    stream: usize,
    pos: usize,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get the earliest arrival first.
        other
            .arrival
            .cmp(&self.arrival)
            .then_with(|| other.stream.cmp(&self.stream))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Interleaver {
    /// Creates an empty interleaver.
    pub fn new() -> Self {
        Interleaver::default()
    }

    /// Adds the arrival sequence of one stream.  The sequence must already be
    /// ordered by arrival instant (checked in debug builds).
    pub fn add_stream(&mut self, events: Vec<ArrivalEvent>) -> &mut Self {
        debug_assert!(
            events.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "per-stream arrival sequence must be ordered by arrival instant"
        );
        self.per_stream.push(events);
        self
    }

    /// Merges all added streams into a single [`ArrivalLog`].
    pub fn merge(self) -> ArrivalLog {
        let mut heap = BinaryHeap::new();
        for (s, events) in self.per_stream.iter().enumerate() {
            if let Some(first) = events.first() {
                heap.push(HeapEntry {
                    arrival: first.arrival,
                    stream: s,
                    pos: 0,
                });
            }
        }
        let total: usize = self.per_stream.iter().map(Vec::len).sum();
        let mut merged = Vec::with_capacity(total);
        while let Some(HeapEntry { stream, pos, .. }) = heap.pop() {
            merged.push(self.per_stream[stream][pos].clone());
            let next = pos + 1;
            if let Some(ev) = self.per_stream[stream].get(next) {
                heap.push(HeapEntry {
                    arrival: ev.arrival,
                    stream,
                    pos: next,
                });
            }
        }
        ArrivalLog { events: merged }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(stream: usize, seq: u64, ts: u64, arrival: u64) -> ArrivalEvent {
        ArrivalEvent::new(
            Timestamp::from_millis(arrival),
            Tuple::marker(StreamIndex(stream), seq, Timestamp::from_millis(ts)),
        )
    }

    #[test]
    fn arrival_event_accessors() {
        let e = ev(1, 2, 30, 40);
        assert_eq!(e.stream(), StreamIndex(1));
        assert_eq!(e.ts(), Timestamp::from_millis(30));
        assert_eq!(e.arrival, Timestamp::from_millis(40));
    }

    #[test]
    fn log_from_events_sorts_by_arrival() {
        let log = ArrivalLog::from_events(vec![ev(0, 1, 5, 50), ev(0, 0, 3, 10)]);
        let arrivals: Vec<u64> = log.iter().map(|e| e.arrival.as_millis()).collect();
        assert_eq!(arrivals, vec![10, 50]);
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
    }

    #[test]
    fn from_events_breaks_arrival_ties_by_stream_then_seq() {
        // Same arrival instant everywhere, scrambled input order.
        let scrambled = vec![
            ev(2, 0, 1, 10),
            ev(0, 1, 1, 10),
            ev(1, 0, 1, 10),
            ev(0, 0, 1, 10),
        ];
        let log = ArrivalLog::from_events(scrambled.clone());
        let order: Vec<(usize, u64)> = log
            .iter()
            .map(|e| (e.stream().as_usize(), e.tuple.seq))
            .collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (2, 0)]);
        // Any permutation of the same events yields the identical log.
        let mut reversed = scrambled;
        reversed.reverse();
        assert_eq!(ArrivalLog::from_events(reversed), log);
    }

    #[test]
    fn log_push_and_counts() {
        let log = ArrivalLog::from_events(vec![ev(0, 0, 1, 1), ev(1, 0, 2, 2), ev(0, 1, 3, 3)]);
        assert_eq!(log.count_for(StreamIndex(0)), 2);
        assert_eq!(log.count_for(StreamIndex(1)), 1);
        assert_eq!(log.count_for(StreamIndex(2)), 0);
    }

    #[test]
    fn empty_log_defaults() {
        let log = ArrivalLog::default();
        assert!(log.is_empty());
    }

    #[test]
    fn sorted_by_timestamp_orders_globally() {
        // Out-of-order arrivals across two streams.
        let log = ArrivalLog::from_events(vec![
            ev(0, 0, 40, 10),
            ev(1, 0, 10, 20),
            ev(0, 1, 20, 30),
            ev(1, 1, 30, 40),
        ]);
        let sorted = log.sorted_by_timestamp();
        let ts: Vec<u64> = sorted.iter().map(|e| e.ts().as_millis()).collect();
        assert_eq!(ts, vec![10, 20, 30, 40]);
        // In the sorted log arrival instants coincide with timestamps.
        assert!(sorted.iter().all(|e| e.arrival == e.ts()));
        // The original log is untouched.
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn interleaver_merges_by_arrival_instant() {
        let mut il = Interleaver::new();
        il.add_stream(vec![ev(0, 0, 1, 10), ev(0, 1, 2, 30), ev(0, 2, 3, 50)]);
        il.add_stream(vec![ev(1, 0, 1, 20), ev(1, 1, 2, 40)]);
        let log = Interleaver::merge(std::mem::take(&mut il));
        let arrivals: Vec<u64> = log.iter().map(|e| e.arrival.as_millis()).collect();
        assert_eq!(arrivals, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn interleaver_breaks_ties_by_stream_index() {
        let mut il = Interleaver::new();
        il.add_stream(vec![ev(0, 0, 1, 10)]);
        il.add_stream(vec![ev(1, 0, 1, 10)]);
        il.add_stream(vec![ev(2, 0, 1, 10)]);
        let log = Interleaver::merge(std::mem::take(&mut il));
        let streams: Vec<usize> = log.iter().map(|e| e.stream().as_usize()).collect();
        assert_eq!(streams, vec![0, 1, 2]);
    }

    #[test]
    fn interleaver_handles_empty_streams() {
        let mut il = Interleaver::new();
        il.add_stream(vec![]);
        il.add_stream(vec![ev(1, 0, 1, 5)]);
        let log = Interleaver::merge(std::mem::take(&mut il));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn into_iterator_yields_owned_events() {
        let log = ArrivalLog::from_events(vec![ev(0, 0, 1, 1), ev(0, 1, 2, 2)]);
        let owned: Vec<ArrivalEvent> = log.clone().into_iter().collect();
        assert_eq!(owned.len(), 2);
        let borrowed: Vec<&ArrivalEvent> = (&log).into_iter().collect();
        assert_eq!(borrowed.len(), 2);
    }
}
