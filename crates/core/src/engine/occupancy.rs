//! Global window occupancy: a sharded engine's authoritative view of how
//! many tuples are live per stream.
//!
//! A sharded engine cannot read "the window size of stream `j`" off any
//! single shard — each shard holds only its partition (or a broadcast
//! copy).  The cross-join size `n_x(e)` reported per probing tuple, which
//! feeds the Tuple-Productivity Profiler and hence the buffer-size
//! adaptation, must nevertheless equal the unsharded operator's value
//! exactly — otherwise adaptive policies would diverge between backends.
//! The sequential shard needs no such view: its one operator sees every
//! tuple and reports expiry and `n_x(e)` itself, so a `Sequential` engine
//! tracks no streams here.
//!
//! This module tracks, per stream, the multiset of live tuple timestamps
//! in an [`OrderedBuffer`] (in-order inserts — all but a few percent —
//! append to its sorted run; late ones take its heap) and replays the
//! operator's exact expiry rule (`ts < probe.ts - W_j`, evaluated lazily
//! at each probing arrival).  Because probing timestamps are monotone,
//! lazy draining observes precisely the same counts the unsharded windows
//! would.

use crate::ordered_buffer::OrderedBuffer;
use mswj_types::Timestamp;

/// Per-stream live-timestamp multisets mirroring the unsharded windows.
#[derive(Debug, Default)]
pub(super) struct Occupancy {
    live: Vec<OrderedBuffer<Timestamp>>,
}

impl Occupancy {
    /// Tracks `m` streams, all initially empty.
    pub(super) fn new(m: usize) -> Self {
        Occupancy {
            live: (0..m).map(|_| OrderedBuffer::default()).collect(),
        }
    }

    /// Records one inserted tuple of stream `i` (in-order or late — both
    /// occupy the window until expiry).
    pub(super) fn insert(&mut self, i: usize, ts: Timestamp) {
        self.live[i].push(ts);
    }

    /// Removes every timestamp of stream `j` strictly below `bound`
    /// (the operator's `expire_before` rule) and returns how many.
    pub(super) fn expire(&mut self, j: usize, bound: Timestamp) -> usize {
        let live = &mut self.live[j];
        let mut expired = 0;
        while live.pop_if(|front| *front < bound).is_some() {
            expired += 1;
        }
        expired
    }

    /// Number of live tuples of stream `j` (`|S_j[W_j]|` under the lazily
    /// applied expiry bound).
    pub(super) fn len(&self, j: usize) -> usize {
        self.live[j].len()
    }

    /// Whether the tracker holds no per-stream buffers at all.
    #[cfg(test)]
    pub(super) fn is_unallocated(&self) -> bool {
        self.live.capacity() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expiry_mirrors_the_window_rule() {
        let mut occ = Occupancy::new(2);
        for ts in [100u64, 200, 300, 250] {
            occ.insert(0, Timestamp::from_millis(ts));
        }
        occ.insert(1, Timestamp::from_millis(50));
        assert_eq!(occ.len(0), 4);
        // Bound is exclusive: ts == bound survives.
        assert_eq!(occ.expire(0, Timestamp::from_millis(250)), 2);
        assert_eq!(occ.len(0), 2);
        assert_eq!(occ.len(1), 1);
        // Draining with an older bound is a no-op, like `expire_before`.
        assert_eq!(occ.expire(0, Timestamp::from_millis(100)), 0);
    }

    #[test]
    fn out_of_order_inserts_are_absorbed() {
        let mut occ = Occupancy::new(1);
        occ.insert(0, Timestamp::from_millis(500));
        occ.insert(0, Timestamp::from_millis(100)); // late arrival
        assert_eq!(occ.expire(0, Timestamp::from_millis(200)), 1);
        assert_eq!(occ.len(0), 1);
    }

    /// Differential (3): late inserts and monotone expiry bounds against a
    /// plain min-heap per stream — identical `expire` returns and `len` at
    /// every step.
    #[test]
    fn late_inserts_and_monotone_expiry_match_heap_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        const M: usize = 3;
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut occ = Occupancy::new(M);
            let mut oracle: Vec<BinaryHeap<Reverse<Timestamp>>> = vec![BinaryHeap::new(); M];
            let window = 20 + 15 * (seed % 4);
            let mut now = 0u64;
            for step in 0..4_000 {
                now += rng.gen_range(0..2u64);
                let i = rng.gen_range(0..M);
                // One insert in eight is late, some by more than a window.
                let lateness = if rng.gen_range(0..8u64) == 0 {
                    rng.gen_range(1..2 * window)
                } else {
                    0
                };
                let ts = Timestamp::from_millis(now.saturating_sub(lateness));
                if lateness == 0 {
                    // An in-order arrival probes the other windows first.
                    let bound = Timestamp::from_millis(now.saturating_sub(window));
                    for j in (0..M).filter(|&j| j != i) {
                        let mut expected = 0;
                        while oracle[j].peek().is_some_and(|front| front.0 < bound) {
                            oracle[j].pop();
                            expected += 1;
                        }
                        assert_eq!(occ.expire(j, bound), expected, "seed {seed} step {step}");
                    }
                }
                occ.insert(i, ts);
                oracle[i].push(Reverse(ts));
                for (j, heap) in oracle.iter().enumerate() {
                    assert_eq!(occ.len(j), heap.len(), "seed {seed} step {step}");
                }
            }
        }
    }
}
