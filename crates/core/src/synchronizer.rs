//! The inter-stream Synchronizer (Alg. 1).
//!
//! The output streams of all K-slack components progress at different
//! speeds.  The Synchronizer merges them into a single stream that the join
//! operator can consume, holding back tuples of leading streams until every
//! stream has caught up:
//!
//! * a tuple with `ts > T_sync` is buffered; whenever the buffer contains at
//!   least one tuple of **every** stream, `T_sync` advances to the smallest
//!   buffered timestamp and all tuples carrying it are emitted;
//! * a tuple with `ts <= T_sync` (still out of order after K-slack) is
//!   emitted immediately and will be detected as out of order by the join
//!   operator downstream.
//!
//! As a side effect the synchronization buffer *implicitly* handles part of
//! the intra-stream disorder of leading streams — the `K_sync_i` of
//! Theorem 1 (Same-K policy).

use crate::ordered_buffer::TupleBuffer;
use mswj_types::{Timestamp, Tuple};

/// Lifetime statistics of the Synchronizer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SynchronizerStats {
    /// Tuples that entered the component.
    pub received: u64,
    /// Tuples emitted through the synchronized path (buffer drains).
    pub(crate) emitted_synchronized: u64,
    /// Tuples emitted immediately because they were not ahead of `T_sync`.
    pub(crate) emitted_immediately: u64,
    /// Largest number of tuples simultaneously buffered.
    pub peak_buffered: usize,
    /// Buffered tuples whose timestamp was below the newest in-order one
    /// in the buffer (they took its late heap instead of an O(1) append).
    pub late_inserts: u64,
}

/// Synchronizes the (partially sorted) output streams of the per-stream
/// K-slack components (Alg. 1 of the paper).
#[derive(Debug, Clone)]
pub struct Synchronizer {
    t_sync: Timestamp,
    /// Buffered tuples ordered by (timestamp, arrival counter).
    buffer: TupleBuffer,
    /// Number of buffered tuples per stream.
    per_stream: Vec<usize>,
    stats: SynchronizerStats,
}

impl Synchronizer {
    /// Creates a synchronizer for `m` input streams.
    pub fn new(arity: usize) -> Self {
        Synchronizer {
            t_sync: Timestamp::ZERO,
            buffer: TupleBuffer::default(),
            per_stream: vec![0; arity],
            stats: SynchronizerStats::default(),
        }
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> SynchronizerStats {
        self.stats
    }

    /// Processes one tuple according to Alg. 1, appending the tuples it
    /// releases downstream (possibly none, possibly several) to `out`.
    pub fn push_into(&mut self, tuple: Tuple, out: &mut Vec<Tuple>) {
        self.push_with(tuple, |t| out.push(t));
    }

    /// [`Synchronizer::push_into`] handing each released tuple to `emit`
    /// instead of a buffer: the pipeline chains it straight into the join
    /// stage.
    pub(crate) fn push_with(&mut self, tuple: Tuple, mut emit: impl FnMut(Tuple)) {
        self.stats.received += 1;
        if tuple.ts <= self.t_sync {
            // Lines 9–10: emit immediately.
            self.stats.emitted_immediately += 1;
            emit(tuple);
            return;
        }
        // Lines 4–8: buffer, then drain while the buffer holds at least one
        // tuple of every stream, each round emitting every tuple that
        // carries the smallest buffered timestamp, the new `T_sync`.
        self.per_stream[tuple.stream.as_usize()] += 1;
        self.stats.late_inserts += u64::from(self.buffer.push(tuple));
        if self.buffer.len() > self.stats.peak_buffered {
            self.stats.peak_buffered = self.buffer.len();
        }
        while self.per_stream.iter().all(|&c| c > 0) {
            let min_ts = self
                .buffer
                .peek_ts()
                .expect("per-stream counts imply a non-empty buffer");
            self.t_sync = min_ts;
            while let Some(tuple) = self.buffer.pop_if_ts(|ts| ts == min_ts) {
                self.per_stream[tuple.stream.as_usize()] -= 1;
                self.stats.emitted_synchronized += 1;
                emit(tuple);
            }
        }
    }

    /// Appends everything still buffered (end of stream) to `out`, in
    /// timestamp order.
    pub fn flush_into(&mut self, out: &mut Vec<Tuple>) {
        self.flush_with(|t| out.push(t));
    }

    /// [`Synchronizer::flush_into`] handing each tuple to `emit`.
    pub(crate) fn flush_with(&mut self, mut emit: impl FnMut(Tuple)) {
        while let Some(tuple) = self.buffer.pop() {
            self.per_stream[tuple.stream.as_usize()] -= 1;
            if tuple.ts > self.t_sync {
                self.t_sync = tuple.ts;
            }
            self.stats.emitted_synchronized += 1;
            emit(tuple);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_types::StreamIndex;

    fn t(stream: usize, seq: u64, ts: u64) -> Tuple {
        Tuple::marker(StreamIndex(stream), seq, Timestamp::from_millis(ts))
    }

    /// Pushes `(stream, seq, ts)` tuples in order, returning the released
    /// timestamps.
    fn push(sync: &mut Synchronizer, tuples: &[(usize, u64, u64)]) -> Vec<u64> {
        let mut out = Vec::new();
        for &(stream, seq, ts) in tuples {
            sync.push_into(t(stream, seq, ts), &mut out);
        }
        out.iter().map(|e| e.ts.as_millis()).collect()
    }

    #[test]
    fn holds_leading_stream_until_lagging_catches_up() {
        let mut sync = Synchronizer::new(2);
        assert!(push(&mut sync, &[(0, 0, 100), (0, 1, 200)]).is_empty());
        assert_eq!(sync.buffer.len(), 2);
        assert_eq!(sync.per_stream[0], 2);
        // The first S2 tuple lets the buffer drain: 100 comes out, then 150
        // itself (it is the smallest buffered timestamp while both streams
        // are still represented); 200 stays because S2 is then exhausted.
        assert_eq!(push(&mut sync, &[(1, 0, 150)]), vec![100, 150]);
        assert_eq!(sync.t_sync, Timestamp::from_millis(150));
        assert_eq!(sync.buffer.len(), 1);
    }

    #[test]
    fn drains_repeatedly_while_all_streams_present() {
        let mut sync = Synchronizer::new(2);
        push(&mut sync, &[(0, 0, 10), (0, 1, 20)]);
        // S2 tuple at 30: drain emits 10 and 20 (each drain step re-checks
        // presence of both streams; after emitting 10, S1 still has 20 and
        // S2 has 30, so 20 is emitted too; then S1 is exhausted).
        assert_eq!(push(&mut sync, &[(1, 0, 30)]), vec![10, 20]);
        assert_eq!(sync.t_sync, Timestamp::from_millis(20));
        // A further S2 tuple alone cannot drain anything (S1 is exhausted).
        assert!(push(&mut sync, &[(1, 1, 40)]).is_empty());
    }

    #[test]
    fn late_tuple_is_emitted_immediately() {
        let mut sync = Synchronizer::new(2);
        // The S2 tuple drains the 100 tuple, T_sync = 100.
        push(&mut sync, &[(0, 0, 100), (1, 0, 200)]);
        // 50 <= T_sync: immediate.
        assert_eq!(push(&mut sync, &[(0, 1, 50)]), vec![50]);
        assert_eq!(sync.stats().emitted_immediately, 1);
    }

    #[test]
    fn equal_timestamps_across_streams_emitted_together() {
        let mut sync = Synchronizer::new(3);
        assert!(push(&mut sync, &[(0, 0, 10), (1, 0, 10)]).is_empty());
        assert_eq!(push(&mut sync, &[(2, 0, 10)]), vec![10, 10, 10]);
        assert_eq!(sync.buffer.len(), 0);
    }

    #[test]
    fn output_is_ordered_when_inputs_are_ordered() {
        // Two in-order streams with different progress: the synchronized
        // output must be globally ordered.
        let mut sync = Synchronizer::new(2);
        let mut out = Vec::new();
        let s1 = [10u64, 30, 50, 70];
        let s2 = [20u64, 40, 60, 80];
        for i in 0..4 {
            sync.push_into(t(0, i as u64, s1[i]), &mut out);
            sync.push_into(t(1, i as u64, s2[i]), &mut out);
        }
        sync.flush_into(&mut out);
        let ts: Vec<u64> = out.iter().map(|e| e.ts.as_millis()).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
        assert_eq!(ts.len(), 8);
    }

    #[test]
    fn flush_emits_in_timestamp_order_and_advances_t_sync() {
        let mut sync = Synchronizer::new(2);
        push(&mut sync, &[(0, 0, 100), (0, 1, 300)]);
        let mut out = Vec::new();
        sync.flush_into(&mut out);
        let ts: Vec<u64> = out.iter().map(|e| e.ts.as_millis()).collect();
        assert_eq!(ts, vec![100, 300]);
        assert_eq!(sync.t_sync, Timestamp::from_millis(300));
        assert_eq!(sync.buffer.len(), 0);
        assert_eq!(sync.per_stream[0], 0);
    }

    #[test]
    fn stats_account_every_path() {
        let mut sync = Synchronizer::new(2);
        // The last tuple is immediate.
        push(&mut sync, &[(0, 0, 100), (1, 0, 200), (0, 1, 10)]);
        let stats = sync.stats();
        assert_eq!(stats.received, 3);
        assert_eq!(stats.emitted_synchronized, 1);
        assert_eq!(stats.emitted_immediately, 1);
        assert!(stats.peak_buffered >= 2);
    }

    #[test]
    fn implicit_buffer_covers_leading_stream_disorder() {
        // The leading stream S1 is internally out of order, but since S2 lags
        // far behind, S1's tuples sit in the synchronization buffer and come
        // out sorted — the K_sync effect used in the proof of Theorem 1.
        let mut sync = Synchronizer::new(2);
        let leading: Vec<(usize, u64, u64)> = [100u64, 300, 200, 500, 400]
            .iter()
            .enumerate()
            .map(|(seq, &ts)| (0, seq as u64, ts))
            .collect();
        assert!(push(&mut sync, &leading).is_empty());
        // S1's buffered tuples come out sorted; the S2 tuple itself is
        // released as well once it becomes the smallest buffered timestamp.
        assert_eq!(
            push(&mut sync, &[(1, 0, 450)]),
            vec![100, 200, 300, 400, 450]
        );
    }
}
