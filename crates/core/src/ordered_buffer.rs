//! The ordered buffer under [`crate::KSlack`], [`crate::Synchronizer`] and
//! the engine's occupancy tracker: a sorted run plus a small late heap.
//!
//! The paper's front end sorts *nearly sorted* input — most tuples arrive on
//! time, a few are late.  [`OrderedBuffer`] therefore keeps two halves:
//!
//! * `run`, a `VecDeque` that is **non-decreasing front to back** at all
//!   times: an entry that is `>=` the run's back is appended in O(1);
//! * `late`, a binary min-heap holding every entry that arrived below the
//!   run's back.
//!
//! `peek`/`pop` take the smaller of the run's front and the heap's top, so
//! the pop sequence is exactly the ascending order of the entries' `Ord` —
//! the same sequence a single min-heap yields — while an on-time entry
//! costs O(1) in and O(1) out and only late entries pay the heap's
//! O(log late).  Both halves keep their backing capacity across pops, so a
//! pipeline in steady state performs **no heap allocation per event**.
//!
//! [`TupleBuffer`] is the instance the two tuple-carrying components share:
//! entries ordered by `(timestamp, arrival counter)`, i.e. timestamp order
//! with stable FIFO tie-breaking.  The counter makes the order total, which
//! is what makes the run/heap split invisible in the emission sequence.

use mswj_types::{Timestamp, Tuple};
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

/// A multiset of `E` that pops in ascending order; see the module docs for
/// the run/late-heap invariant.
#[derive(Debug, Clone)]
pub(crate) struct OrderedBuffer<E> {
    run: VecDeque<E>,
    late: BinaryHeap<Reverse<E>>,
}

impl<E: Ord> Default for OrderedBuffer<E> {
    fn default() -> Self {
        OrderedBuffer {
            run: VecDeque::new(),
            late: BinaryHeap::new(),
        }
    }
}

impl<E: Ord> OrderedBuffer<E> {
    /// Buffers one entry; returns `true` when it arrived below the run's
    /// back and took the late heap.
    #[inline]
    pub(crate) fn push(&mut self, entry: E) -> bool {
        match self.run.back() {
            Some(back) if entry < *back => {
                self.late.push(Reverse(entry));
                true
            }
            _ => {
                self.run.push_back(entry);
                false
            }
        }
    }

    /// `true` when the next entry to pop sits in the late heap.
    #[inline]
    fn late_is_next(&self) -> bool {
        match (self.run.front(), self.late.peek()) {
            (Some(front), Some(Reverse(top))) => top < front,
            (None, Some(_)) => true,
            _ => false,
        }
    }

    /// The smallest buffered entry, if any.
    #[inline]
    pub(crate) fn peek(&self) -> Option<&E> {
        if self.late_is_next() {
            self.late.peek().map(|Reverse(e)| e)
        } else {
            self.run.front()
        }
    }

    /// Removes and returns the smallest buffered entry.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<E> {
        self.pop_if(|_| true)
    }

    /// Removes and returns the smallest buffered entry if `ready` accepts
    /// it — one run-or-heap decision for the peek and the pop of a drain
    /// loop.
    #[inline]
    pub(crate) fn pop_if(&mut self, ready: impl FnOnce(&E) -> bool) -> Option<E> {
        if self.late_is_next() {
            let Reverse(top) = self.late.peek()?;
            if ready(top) {
                self.late.pop().map(|Reverse(e)| e)
            } else {
                None
            }
        } else if ready(self.run.front()?) {
            self.run.pop_front()
        } else {
            None
        }
    }

    /// Number of buffered entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.run.len() + self.late.len()
    }

    /// `true` when nothing is buffered.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.run.is_empty() && self.late.is_empty()
    }
}

/// One buffered tuple; ordered by `(tuple.ts, counter)`.
#[derive(Debug, Clone)]
struct Entry {
    counter: u64,
    tuple: Tuple,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl Ord for Entry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.tuple
            .ts
            .cmp(&other.tuple.ts)
            .then_with(|| self.counter.cmp(&other.counter))
    }
}

impl PartialOrd for Entry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Tuples ordered by timestamp with FIFO tie-breaking among equal
/// timestamps.
#[derive(Debug, Clone, Default)]
pub(crate) struct TupleBuffer {
    entries: OrderedBuffer<Entry>,
    counter: u64,
}

impl TupleBuffer {
    /// Buffers one tuple under its timestamp; returns `true` when it took
    /// the late heap (its timestamp is below the newest on-time one).
    #[inline]
    pub(crate) fn push(&mut self, tuple: Tuple) -> bool {
        let entry = Entry {
            counter: self.counter,
            tuple,
        };
        self.counter += 1;
        self.entries.push(entry)
    }

    /// The smallest buffered timestamp, if any.
    #[inline]
    pub(crate) fn peek_ts(&self) -> Option<Timestamp> {
        self.entries.peek().map(|e| e.tuple.ts)
    }

    /// Removes and returns the tuple with the smallest `(ts, counter)`.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Tuple> {
        self.entries.pop().map(|e| e.tuple)
    }

    /// Removes and returns the tuple with the smallest `(ts, counter)` if
    /// `ready` accepts its timestamp.
    #[inline]
    pub(crate) fn pop_if_ts(&mut self, ready: impl FnOnce(Timestamp) -> bool) -> Option<Tuple> {
        self.entries.pop_if(|e| ready(e.tuple.ts)).map(|e| e.tuple)
    }

    /// Number of buffered tuples.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is buffered.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The heap-only tuple buffer the run/late-heap structure replaced, kept —
/// with its own entry type and its own `(ts, counter)` comparison — as the
/// reference the differential tests compare against.
#[cfg(test)]
pub(crate) mod oracle {
    use mswj_types::{Timestamp, Tuple};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    #[derive(Debug, Clone)]
    struct Entry {
        ts: Timestamp,
        counter: u64,
        tuple: Tuple,
    }

    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.ts == other.ts && self.counter == other.counter
        }
    }

    impl Eq for Entry {}

    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // `BinaryHeap` is a max-heap; invert so the smallest
            // (ts, counter) pops first.
            other
                .ts
                .cmp(&self.ts)
                .then_with(|| other.counter.cmp(&self.counter))
        }
    }

    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// A binary min-heap of tuples ordered by timestamp with FIFO
    /// tie-breaking; [`super::TupleBuffer`]'s interface.
    #[derive(Debug, Clone, Default)]
    pub(crate) struct MinTsHeap {
        heap: BinaryHeap<Entry>,
        counter: u64,
    }

    impl MinTsHeap {
        pub(crate) fn push(&mut self, tuple: Tuple) {
            let entry = Entry {
                ts: tuple.ts,
                counter: self.counter,
                tuple,
            };
            self.counter += 1;
            self.heap.push(entry);
        }

        pub(crate) fn peek_ts(&self) -> Option<Timestamp> {
            self.heap.peek().map(|e| e.ts)
        }

        pub(crate) fn pop(&mut self) -> Option<Tuple> {
            self.heap.pop().map(|e| e.tuple)
        }

        pub(crate) fn len(&self) -> usize {
            self.heap.len()
        }

        pub(crate) fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::MinTsHeap;
    use super::*;
    use mswj_types::StreamIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn t(seq: u64, ts: u64) -> Tuple {
        Tuple::marker(StreamIndex(0), seq, Timestamp::from_millis(ts))
    }

    #[test]
    fn pops_in_timestamp_order() {
        let mut b = TupleBuffer::default();
        let late: Vec<bool> = [(0u64, 50u64), (1, 10), (2, 30), (3, 20), (4, 60)]
            .into_iter()
            .map(|(seq, ts)| b.push(t(seq, ts)))
            .collect();
        // 50 opens the run; 10, 30 and 20 arrive below it; 60 extends it.
        assert_eq!(late, vec![false, true, true, true, false]);
        assert_eq!(b.len(), 5);
        assert_eq!(b.peek_ts(), Some(Timestamp::from_millis(10)));
        let order: Vec<u64> = std::iter::from_fn(|| b.pop())
            .map(|t| t.ts.as_millis())
            .collect();
        assert_eq!(order, vec![10, 20, 30, 50, 60]);
        assert!(b.is_empty());
    }

    #[test]
    fn equal_timestamps_pop_in_insertion_order() {
        let mut b = TupleBuffer::default();
        // Ties straddle both halves: the first 7 and both 9s sit in the run,
        // the later 7s in the late heap.
        for (seq, ts) in [(0u64, 7u64), (1, 9), (2, 7), (3, 7), (4, 9), (5, 7)] {
            b.push(t(seq, ts));
        }
        let seqs: Vec<u64> = std::iter::from_fn(|| b.pop()).map(|t| t.seq).collect();
        assert_eq!(seqs, vec![0, 2, 3, 5, 1, 4]);
    }

    #[test]
    fn capacity_is_retained_across_pops() {
        // Even timestamps extend the run, odd ones land below its back:
        // both halves fill, drain and refill.
        let fill = |b: &mut TupleBuffer| {
            for seq in 0..128u64 {
                let ts = if seq % 2 == 0 { 1_000 + seq } else { seq };
                b.push(t(seq, ts));
            }
        };
        let mut b = TupleBuffer::default();
        fill(&mut b);
        assert_eq!(b.entries.run.len(), 64);
        assert_eq!(b.entries.late.len(), 64);
        while b.pop().is_some() {}
        let run_cap = b.entries.run.capacity();
        let late_cap = b.entries.late.capacity();
        fill(&mut b);
        assert_eq!(b.entries.run.capacity(), run_cap, "run must not reallocate");
        assert_eq!(
            b.entries.late.capacity(),
            late_cap,
            "late heap must not reallocate"
        );
    }

    /// Differential (1): random interleavings of push / peek / pop /
    /// conditional pop with heavy timestamp ties — identical pop sequence,
    /// `seq` of tied tuples included, identical `peek_ts` and `len` at every
    /// step.
    #[test]
    fn random_interleavings_match_heap_oracle() {
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut buffer = TupleBuffer::default();
            let mut oracle = MinTsHeap::default();
            // A slowly advancing clock with bounded lateness over a tiny
            // timestamp range: most draws tie with a buffered timestamp.
            let span = 1 + seed % 7;
            let mut now = 0u64;
            let mut late_seen = 0u64;
            for seq in 0..2_000u64 {
                match rng.gen_range(0..10u64) {
                    0..=5 => {
                        now += rng.gen_range(0..2u64);
                        let ts = now.saturating_sub(rng.gen_range(0..=span));
                        late_seen += u64::from(buffer.push(t(seq, ts)));
                        oracle.push(t(seq, ts));
                    }
                    6 => assert_eq!(buffer.peek_ts(), oracle.peek_ts(), "seed {seed}"),
                    7 => {
                        let bound = Timestamp::from_millis(now.saturating_sub(span / 2));
                        let expected = match oracle.peek_ts() {
                            Some(ts) if ts <= bound => oracle.pop(),
                            _ => None,
                        };
                        let popped = buffer.pop_if_ts(|ts| ts <= bound);
                        assert_eq!(popped, expected, "seed {seed} step {seq}");
                    }
                    _ => assert_eq!(buffer.pop(), oracle.pop(), "seed {seed} step {seq}"),
                }
                assert_eq!(buffer.len(), oracle.len());
                assert_eq!(buffer.is_empty(), oracle.is_empty());
            }
            assert!(late_seen > 0, "seed {seed} never exercised the late heap");
            while !oracle.is_empty() {
                assert_eq!(buffer.pop(), oracle.pop(), "seed {seed} final drain");
            }
            assert!(buffer.is_empty());
        }
    }
}
