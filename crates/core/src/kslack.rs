//! The K-slack intra-stream disorder handling component (Sec. III-A).
//!
//! A buffer of `K` time units is used to sort the tuples of one stream:
//! whenever the stream's local current time `iT` advances, every buffered
//! tuple `e` with `e.ts + K <= iT` is emitted, in timestamp order.  A tuple
//! delayed by more than `K` time units cannot be fully re-ordered and leaves
//! the component still out of order (with its residual delay reduced by
//! `K`), exactly as in the example of Fig. 3 of the paper.
//!
//! Unlike classic K-slack, the buffer size here is *externally adjustable*:
//! the Buffer-Size Manager assigns a new `K` at every adaptation step.

use crate::ordered_buffer::TupleBuffer;
use mswj_types::{Duration, LocalClock, Timestamp, Tuple};

/// Lifetime statistics of one K-slack component.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KSlackStats {
    /// Tuples that entered the component.
    pub received: u64,
    /// Tuples emitted so far.
    pub emitted: u64,
    /// Emitted tuples that were still out of order in the output stream
    /// (emitted with a timestamp smaller than an already-emitted one).
    pub residual_out_of_order: u64,
    /// Largest number of tuples simultaneously buffered.  With `K = 0`
    /// tuples bypass the buffer entirely (pass-through fast path), so this
    /// stays 0 for a component that never held a positive `K`.
    pub peak_buffered: usize,
    /// Buffered tuples whose timestamp was below the newest on-time one in
    /// the buffer — the pushes that paid for the buffer's late heap instead
    /// of an O(1) append.  `late_inserts / received` is the out-of-order
    /// share as the buffer sees it.
    pub late_inserts: u64,
}

/// A K-slack sorting buffer for one input stream.
///
/// # Examples
///
/// Re-creates the example of Fig. 3 (K = 1 time unit = 1 ms here): the tuple
/// with timestamp 5 arriving after `iT` reached 7 has delay 2 and cannot be
/// fully re-ordered.
///
/// ```
/// use mswj_core::KSlack;
/// use mswj_types::{Timestamp, Tuple};
/// let mut ks = KSlack::new(1);
/// let mut out = Vec::new();
/// for (seq, ts) in [1u64, 4, 3, 7, 5, 8, 6, 9].iter().enumerate() {
///     let t = Tuple::marker(0.into(), seq as u64, Timestamp::from_millis(*ts));
///     ks.push_into(t, &mut out);
/// }
/// ks.flush_into(&mut out);
/// let released: Vec<u64> = out.iter().map(|t| t.ts.as_millis()).collect();
/// assert_eq!(released, vec![1, 3, 4, 5, 7, 6, 8, 9]);
/// ```
#[derive(Debug, Clone)]
pub struct KSlack {
    k: Duration,
    clock: LocalClock,
    /// Buffered tuples ordered by (timestamp, arrival counter) so that
    /// emission yields timestamp order with stable tie-breaking.
    buffer: TupleBuffer,
    max_emitted_ts: Timestamp,
    stats: KSlackStats,
}

impl KSlack {
    /// Creates a component with initial buffer size `k` (ms).
    pub fn new(k: Duration) -> Self {
        KSlack {
            k,
            clock: LocalClock::new(),
            buffer: TupleBuffer::default(),
            max_emitted_ts: Timestamp::ZERO,
            stats: KSlackStats::default(),
        }
    }

    /// The current buffer size `K` in milliseconds.
    pub fn k(&self) -> Duration {
        self.k
    }

    /// Sets a new buffer size; takes effect from the next emission check.
    pub fn set_k(&mut self, k: Duration) {
        self.k = k;
    }

    /// The stream's local current time `iT` as observed by this component.
    pub fn local_time(&self) -> Timestamp {
        self.clock.now()
    }

    /// The per-stream clock (delay and disorder statistics).
    pub fn clock(&self) -> &LocalClock {
        &self.clock
    }

    /// Number of currently buffered tuples.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> KSlackStats {
        self.stats
    }

    /// Processes the arrival of one tuple: annotates it with its delay,
    /// buffers it and appends every tuple that became emittable
    /// (`e.ts + K <= iT`) to `out`, in timestamp order.  The pipeline's hot
    /// path reuses one scratch buffer across events, so a steady-state push
    /// performs no heap allocation.
    pub fn push_into(&mut self, mut tuple: Tuple, out: &mut Vec<Tuple>) {
        let delay = self.clock.observe(tuple.ts);
        tuple.set_delay(delay);
        self.stats.received += 1;
        if self.k == 0 && self.buffer.is_empty() {
            // Fast path: with K = 0 and an empty buffer the tuple is
            // immediately emittable (`iT >= e.ts` after the clock update),
            // so skip the buffer round-trip entirely.
            self.account_emission(&tuple);
            out.push(tuple);
            return;
        }
        self.stats.late_inserts += u64::from(self.buffer.push(tuple));
        if self.buffer.len() > self.stats.peak_buffered {
            self.stats.peak_buffered = self.buffer.len();
        }
        self.emit_ready_into(out);
    }

    /// Appends every buffered tuple with `ts + K <= iT` to `out`, in
    /// timestamp order.  Called automatically by [`KSlack::push_into`]; also
    /// useful after lowering `K` via [`KSlack::set_k`].
    pub fn emit_ready_into(&mut self, out: &mut Vec<Tuple>) {
        if !self.clock.started() {
            return;
        }
        let (now, k) = (self.clock.now(), self.k);
        while let Some(tuple) = self
            .buffer
            .pop_if_ts(|ts| ts.saturating_add_duration(k) <= now)
        {
            self.account_emission(&tuple);
            out.push(tuple);
        }
    }

    /// Appends everything still buffered (end of stream) to `out`, in
    /// timestamp order.
    pub fn flush_into(&mut self, out: &mut Vec<Tuple>) {
        while let Some(tuple) = self.buffer.pop() {
            self.account_emission(&tuple);
            out.push(tuple);
        }
    }

    fn account_emission(&mut self, tuple: &Tuple) {
        self.stats.emitted += 1;
        if self.stats.emitted > 1 && tuple.ts < self.max_emitted_ts {
            self.stats.residual_out_of_order += 1;
        }
        if tuple.ts > self.max_emitted_ts {
            self.max_emitted_ts = tuple.ts;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_types::StreamIndex;

    fn t(seq: u64, ts: u64) -> Tuple {
        Tuple::marker(StreamIndex(0), seq, Timestamp::from_millis(ts))
    }

    fn millis(tuples: &[Tuple]) -> Vec<u64> {
        tuples.iter().map(|t| t.ts.as_millis()).collect()
    }

    /// Pushes one tuple per timestamp, returning the released tuples.
    fn push_all(ks: &mut KSlack, timestamps: &[u64]) -> Vec<Tuple> {
        let mut out = Vec::new();
        for (seq, &ts) in timestamps.iter().enumerate() {
            ks.push_into(t(seq as u64, ts), &mut out);
        }
        out
    }

    #[test]
    fn zero_k_emits_everything_at_or_before_local_time() {
        let mut ks = KSlack::new(0);
        let out = push_all(&mut ks, &[1, 2, 3]);
        assert_eq!(millis(&out), vec![1, 2, 3]);
        assert_eq!(ks.buffered(), 0);
    }

    #[test]
    fn fig3_example_with_k_one() {
        // Input timestamps in arrival order (Fig. 3): 1 4 3 7 5 8 6 9, K = 1.
        // Expected output (Fig. 3): 1 3 4 5 7 6 8 (9 still buffered).
        let mut ks = KSlack::new(1);
        let mut out = push_all(&mut ks, &[1, 4, 3, 7, 5, 8, 6, 9]);
        assert_eq!(millis(&out), vec![1, 3, 4, 5, 7, 6, 8]);
        ks.flush_into(&mut out);
        assert_eq!(millis(&out), vec![1, 3, 4, 5, 7, 6, 8, 9]);
        // The tuple with ts 6 had delay 2 > K = 1: residual disorder.
        assert_eq!(ks.stats().residual_out_of_order, 1);
    }

    #[test]
    fn buffer_large_enough_fully_sorts() {
        let mut ks = KSlack::new(10);
        let mut out = push_all(&mut ks, &[5, 1, 9, 3, 12, 7, 20, 15, 30]);
        ks.flush_into(&mut out);
        let out = millis(&out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(out, sorted);
        assert_eq!(ks.stats().residual_out_of_order, 0);
        assert_eq!(ks.stats().received, 9);
        assert_eq!(ks.stats().emitted, 9);
    }

    #[test]
    fn delay_annotation_reflects_raw_delay() {
        let mut ks = KSlack::new(100);
        let mut emitted = push_all(&mut ks, &[1_000, 2_000]);
        ks.flush_into(&mut emitted);
        // Second arrival is in order: delay 0; out-of-order example:
        assert!(emitted.iter().all(|e| e.delay() == Some(0)));
        let mut ks = KSlack::new(100);
        let mut out = push_all(&mut ks, &[1_000, 400]);
        ks.flush_into(&mut out);
        let by_ts: Vec<(u64, u64)> = out
            .iter()
            .map(|e| (e.ts.as_millis(), e.delay_or_zero()))
            .collect();
        assert_eq!(by_ts, vec![(400, 600), (1_000, 0)]);
    }

    #[test]
    fn larger_k_holds_tuples_back() {
        let mut ks = KSlack::new(1_000);
        assert!(push_all(&mut ks, &[0, 500]).is_empty());
        // iT = 1_000: tuple at 0 satisfies 0 + 1000 <= 1000 and is emitted.
        let mut out = Vec::new();
        ks.push_into(t(2, 1_000), &mut out);
        assert_eq!(millis(&out), vec![0]);
        assert_eq!(ks.buffered(), 2);
        assert_eq!(ks.stats().peak_buffered, 3);
    }

    #[test]
    fn lowering_k_releases_buffered_tuples() {
        let mut ks = KSlack::new(10_000);
        assert!(push_all(&mut ks, &[0, 100, 200]).is_empty());
        assert_eq!(ks.buffered(), 3);
        ks.set_k(0);
        assert_eq!(ks.k(), 0);
        let mut out = Vec::new();
        ks.emit_ready_into(&mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(ks.buffered(), 0);
    }

    #[test]
    fn emission_is_in_timestamp_order_even_with_ties() {
        let mut ks = KSlack::new(0);
        let out = push_all(&mut ks, &[5, 5, 5, 6]);
        assert_eq!(millis(&out), vec![5, 5, 5, 6]);
    }

    /// Sec. III-A over the heap-only oracle buffer, step for step the
    /// component above: what `KSlack` was before its buffer became a sorted
    /// run plus a late heap.
    struct HeapKSlack {
        k: Duration,
        clock: LocalClock,
        buffer: crate::ordered_buffer::oracle::MinTsHeap,
        max_emitted_ts: Timestamp,
        stats: KSlackStats,
    }

    impl HeapKSlack {
        fn new(k: Duration) -> Self {
            HeapKSlack {
                k,
                clock: LocalClock::new(),
                buffer: Default::default(),
                max_emitted_ts: Timestamp::ZERO,
                stats: KSlackStats::default(),
            }
        }

        fn push_into(&mut self, mut tuple: Tuple, out: &mut Vec<Tuple>) {
            let delay = self.clock.observe(tuple.ts);
            tuple.set_delay(delay);
            self.stats.received += 1;
            if self.k == 0 && self.buffer.is_empty() {
                self.account_emission(&tuple);
                out.push(tuple);
                return;
            }
            self.buffer.push(tuple);
            self.stats.peak_buffered = self.stats.peak_buffered.max(self.buffer.len());
            self.emit_ready_into(out);
        }

        fn emit_ready_into(&mut self, out: &mut Vec<Tuple>) {
            if !self.clock.started() {
                return;
            }
            let now = self.clock.now();
            while let Some(ts) = self.buffer.peek_ts() {
                if ts.saturating_add_duration(self.k) > now {
                    break;
                }
                let tuple = self.buffer.pop().expect("peeked just above");
                self.account_emission(&tuple);
                out.push(tuple);
            }
        }

        fn flush_into(&mut self, out: &mut Vec<Tuple>) {
            while let Some(tuple) = self.buffer.pop() {
                self.account_emission(&tuple);
                out.push(tuple);
            }
        }

        fn account_emission(&mut self, tuple: &Tuple) {
            self.stats.emitted += 1;
            if self.stats.emitted > 1 && tuple.ts < self.max_emitted_ts {
                self.stats.residual_out_of_order += 1;
            }
            self.max_emitted_ts = self.max_emitted_ts.max(tuple.ts);
        }
    }

    /// Differential (2): random arrivals with heavy timestamp ties under
    /// random `set_k` + `emit_ready_into` mid-stream — shrink to 0 (the
    /// PR 2 shrink-drain: a backlog must still leave in timestamp order
    /// while K = 0 arrivals queue behind it) and K far beyond the stream's
    /// span included.  Emitted tuples (delay annotation included), stats
    /// and the final flush are identical after every step.
    #[test]
    fn random_k_changes_mid_stream_match_heap_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let initial_k = [0, 5, 40][seed as usize % 3];
            let mut shipped = KSlack::new(initial_k);
            let mut oracle = HeapKSlack::new(initial_k);
            let (mut out, mut expected) = (Vec::new(), Vec::new());
            let mut now = 0u64;
            for seq in 0..3_000u64 {
                if rng.gen_range(0..40u64) == 0 {
                    let k = match rng.gen_range(0..4u64) {
                        0 => 0,
                        1 => rng.gen_range(1..10u64),
                        2 => rng.gen_range(10..80u64),
                        _ => 1_000_000,
                    };
                    shipped.set_k(k);
                    oracle.k = k;
                    shipped.emit_ready_into(&mut out);
                    oracle.emit_ready_into(&mut expected);
                }
                now += rng.gen_range(0..3u64);
                let lateness = if rng.gen_range(0..3u64) == 0 {
                    rng.gen_range(0..60u64)
                } else {
                    0
                };
                let tuple = t(seq, now.saturating_sub(lateness));
                shipped.push_into(tuple.clone(), &mut out);
                oracle.push_into(tuple, &mut expected);
                assert_eq!(out, expected, "seed {seed} step {seq}");
                assert_eq!(shipped.buffered(), oracle.buffer.len());
                assert_eq!(
                    KSlackStats {
                        late_inserts: 0,
                        ..shipped.stats()
                    },
                    oracle.stats,
                    "seed {seed} step {seq}"
                );
            }
            let stats = shipped.stats();
            assert!(stats.late_inserts > 0 && stats.late_inserts < stats.received);
            assert!(
                stats.residual_out_of_order > 0,
                "seed {seed}: K always covered"
            );
            shipped.flush_into(&mut out);
            oracle.flush_into(&mut expected);
            assert_eq!(out, expected, "seed {seed} flush");
            assert_eq!(out.len(), 3_000);
        }
    }

    #[test]
    fn local_time_tracks_stream_progress() {
        let mut ks = KSlack::new(50);
        push_all(&mut ks, &[100, 70]);
        assert_eq!(ks.local_time(), Timestamp::from_millis(100));
        assert_eq!(ks.clock().out_of_order(), 1);
    }
}
