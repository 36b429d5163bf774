//! Window maintenance: expiry driven by probing arrivals, insertion of
//! in-order tuples, and the two out-of-order paths — the operator's own
//! scope check (Alg. 2 / Sec. III-A) and the externally decided
//! [`MswjOperator::insert_late`] used by the sharded engine, whose
//! front-end performs the ordering and scope decisions against the *global*
//! high-water mark before any tuple reaches a shard.  Both paths absorb a
//! kept late tuple the same way: expire, count its loss, insert.

use super::MswjOperator;
use mswj_types::{StreamIndex, Timestamp, Tuple};

impl MswjOperator {
    /// Invalidates expired tuples in the windows of every stream other than
    /// `i` against the timestamp `ts` (Alg. 2, line 6: the probing tuple's,
    /// or a late tuple's `onT`), i.e. every row below `ts − W_j`.  Returns
    /// the number of expired tuples.
    pub(super) fn expire_others(&mut self, i: usize, ts: Timestamp) -> usize {
        let mut expired = 0;
        for j in 0..self.windows.len() {
            if j != i {
                let w_j = self.query.window(StreamIndex(j));
                expired += self.windows[j].expire_before(ts.saturating_sub_duration(w_j));
            }
        }
        expired
    }

    /// Handles an out-of-order tuple under the operator's *own* high-water
    /// mark: no results; absorbed (see [`Self::absorb_late`]) only if still
    /// within the window scope (`e.ts >= onT - W_i`, Sec. III-A), dropped
    /// otherwise.  Returns `(inserted, expired, lost)`.
    pub(super) fn insert_out_of_order(&mut self, tuple: Tuple) -> (bool, usize, u64) {
        self.stats.out_of_order += 1;
        let w_i = self.query.window(tuple.stream);
        if tuple.ts >= self.on_t.saturating_sub_duration(w_i) {
            let (expired, lost) = self.absorb_late(tuple, self.on_t);
            (true, expired, lost)
        } else {
            self.stats.dropped += 1;
            (false, 0, 0)
        }
    }

    /// Inserts an out-of-order tuple without the local scope check — the
    /// entry point for a sharded engine whose front-end already classified
    /// the tuple against the global high-water mark `on_t` and decided it
    /// must be kept — and returns the number of results this shard counts
    /// it lost: first the other windows are expired to `on_t − W_j`, then
    /// the probe walk counts against what is left, then the tuple is
    /// inserted.
    ///
    /// The distinction matters because a shard only sees the subsequence of
    /// tuples routed to it: a globally late tuple can look in-order to the
    /// shard (whose own `onT` lags the global one), and
    /// [`MswjOperator::push_with`] would then wrongly probe it.  This
    /// method imposes the global decision: the tuple lands in its window so
    /// it can contribute to *future* results, its own results stay lost
    /// (counted, never emitted), and the shard's `onT` is left untouched.
    ///
    /// Counted under [`OperatorStats::out_of_order`](super::OperatorStats).
    pub fn insert_late(&mut self, tuple: Tuple, on_t: Timestamp) -> u64 {
        self.stats.out_of_order += 1;
        debug_assert!(
            tuple.stream.as_usize() < self.windows.len(),
            "tuple references unknown stream"
        );
        self.absorb_late(tuple, on_t).1
    }

    /// Absorbs a late tuple that is kept under the high-water mark `on_t`:
    /// expires every other window to `on_t − W_j` — safe, since every later
    /// probe carries a timestamp of at least `on_t` — then counts, with the
    /// in-order probe walk in counting mode, the results the tuple would
    /// have derived against what is left, and only then inserts it.
    /// Returns `(expired, lost)`.
    fn absorb_late(&mut self, tuple: Tuple, on_t: Timestamp) -> (usize, u64) {
        let i = tuple.stream.as_usize();
        let expired = self.expire_others(i, on_t);
        let (lost, _) = self.probe(i, &tuple, false, &mut |_| {});
        self.windows[i].insert(tuple);
        self.stats.expired += expired as u64;
        (expired, lost)
    }
}
