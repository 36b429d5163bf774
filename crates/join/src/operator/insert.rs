//! Window maintenance: expiry driven by probing arrivals, insertion of
//! in-order tuples, and the one out-of-order path,
//! [`MswjOperator::insert_late`] — taken under the operator's own
//! high-water mark by `push_with` (Alg. 2 / Sec. III-A), and under the
//! *global* one by the sharded engine, whose front-end classifies every
//! tuple against it before any tuple reaches a shard.  Every out-of-order
//! tuple is handled the same way: expire, count its loss, then insert it if
//! still in scope.

use super::{MswjOperator, ProbeOutcome};
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

    /// Handles a tuple that is out of order under the high-water mark
    /// `on_t` without probing it, and returns the number of results this
    /// operator counts it lost — the entry point for a sharded engine whose
    /// front-end classified the tuple against the global high-water mark.
    ///
    /// The other windows are expired to `on_t − W_j` — safe, since every
    /// later probe carries a timestamp of at least `on_t` — then the probe
    /// walk counts, in counting mode (no emit, no allocation), the results
    /// the tuple would have derived against what is left.  The tuple is
    /// then inserted if still within the window scope under `on_t`
    /// (`e.ts >= onT − W_i`, Sec. III-A) and dropped otherwise.
    ///
    /// The distinction from [`MswjOperator::push_with`] matters because a
    /// shard only sees the subsequence of tuples routed to it: a globally
    /// late tuple can look in-order to the shard (whose own `onT` lags the
    /// global one), and `push_with` would then wrongly probe it, or keep a
    /// tuple the global scope drops.  This method imposes the global view:
    /// a kept tuple lands in its window so it can contribute to *future*
    /// results, its own results stay lost (counted, never emitted), and the
    /// shard's `onT` is left untouched.
    ///
    /// Counted under [`OperatorStats::out_of_order`](super::OperatorStats),
    /// and a dropped tuple under
    /// [`OperatorStats::dropped`](super::OperatorStats) too.
    pub fn insert_late(&mut self, tuple: Tuple, on_t: Timestamp) -> u64 {
        self.absorb_late(tuple, on_t).n_lost
    }

    /// [`Self::insert_late`], returning the tuple's whole outcome.
    pub(super) fn absorb_late(&mut self, tuple: Tuple, on_t: Timestamp) -> ProbeOutcome {
        let i = tuple.stream.as_usize();
        debug_assert!(i < self.windows.len(), "tuple references unknown stream");
        let mut outcome = ProbeOutcome {
            ts: tuple.ts,
            delay: tuple.delay_or_zero(),
            expired: self.expire_others(i, on_t),
            ..ProbeOutcome::default()
        };
        (outcome.n_lost, _) = self.probe(i, &tuple, false, &mut |_| {});
        outcome.inserted =
            tuple.ts >= on_t.saturating_sub_duration(self.query.window(tuple.stream));
        if outcome.inserted {
            self.windows[i].insert(tuple);
        }
        self.stats.record(&outcome);
        outcome
    }
}
