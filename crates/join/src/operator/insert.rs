//! Window maintenance: expiry driven by probing arrivals, insertion of
//! in-order tuples, and the two out-of-order insertion paths — the
//! operator's own scope check (Alg. 2 / Sec. III-A) and the externally
//! decided [`MswjOperator::insert_late`] used by the sharded engine, whose
//! front-end performs the ordering and scope decisions against the *global*
//! high-water mark before any tuple reaches a shard.

use super::MswjOperator;
use mswj_types::{StreamIndex, Tuple};

impl MswjOperator {
    /// Invalidates expired tuples in the windows of every stream other than
    /// `i`, using the probing tuple's timestamp (Alg. 2, line 6).  Returns
    /// the number of expired tuples.
    pub(super) fn expire_others(&mut self, i: usize, tuple: &Tuple) -> usize {
        let mut expired = 0;
        for j in 0..self.windows.len() {
            if j != i {
                let w_j = self.query.window(StreamIndex(j));
                let bound = tuple.ts.saturating_sub_duration(w_j);
                expired += self.windows[j].expire_before(bound);
            }
        }
        expired
    }

    /// Handles an out-of-order tuple under the operator's *own* high-water
    /// mark: no probing; insert only if still within the window scope
    /// (`e.ts >= onT - W_i`, Sec. III-A).  Returns whether it was inserted.
    pub(super) fn insert_out_of_order(&mut self, tuple: Tuple) -> bool {
        self.stats.out_of_order += 1;
        let i = tuple.stream.as_usize();
        let w_i = self.query.window(StreamIndex(i));
        if tuple.ts >= self.on_t.saturating_sub_duration(w_i) {
            self.windows[i].insert(tuple);
            true
        } else {
            self.stats.dropped += 1;
            false
        }
    }

    /// Inserts an out-of-order tuple **without** probing and without the
    /// local scope check — the entry point for a sharded engine whose
    /// front-end already classified the tuple against the global `onT` and
    /// decided it must be kept.
    ///
    /// The distinction matters because a shard only sees the subsequence of
    /// tuples routed to it: a globally late tuple can look in-order to the
    /// shard (whose own `onT` lags the global one), and
    /// [`MswjOperator::push_with`] would then wrongly probe it.  This
    /// method imposes the global decision: the tuple lands in its window so
    /// it can contribute to *future* results, its own results stay lost,
    /// and the shard's `onT` is left untouched.
    ///
    /// Counted under [`OperatorStats::out_of_order`](super::OperatorStats).
    pub fn insert_late(&mut self, tuple: Tuple) {
        self.stats.out_of_order += 1;
        let i = tuple.stream.as_usize();
        debug_assert!(i < self.windows.len(), "tuple references unknown stream");
        self.windows[i].insert(tuple);
    }
}
