//! State surgery: the operations a sharded engine runs on a shard operator
//! at an idle barrier to move window state between shards — never part of
//! stream ingestion.
//!
//! Each operation's body lives here once: a star partition-pair switch
//! reads whole windows with [`MswjOperator::fetch_window`], replicates or
//! delivers them with [`MswjOperator::adopt_all`] and sheds what no longer
//! homes on a shard with [`MswjOperator::retain_home`].  The engine's local
//! backends call these methods directly and a shard server calls them from
//! its frame handlers, so a local and a remote shard cannot drift apart.
//!
//! Stream arguments are trusted (`StreamIndex` out of range panics, like
//! [`MswjOperator::window`]); a caller fed from outside the process checks
//! them against [`JoinQuery::arity`](crate::JoinQuery::arity) first.

use super::MswjOperator;
use crate::partition::{join_key_hash, Partitioner};
use mswj_types::{StreamIndex, Tuple};

impl MswjOperator {
    /// Adopts a tuple into its window without probing, scope checks or
    /// operator statistics — state *migration*, not stream ingestion.
    ///
    /// The sharded engine uses this when a star pair switch moves window
    /// state between shards: the moved tuples must not perturb the
    /// per-shard in-order/out-of-order tallies that describe the *stream*
    /// each shard saw.  Counted under
    /// [`OperatorStats::adopted`](super::OperatorStats).
    pub fn adopt(&mut self, tuple: Tuple) {
        let i = tuple.stream.as_usize();
        debug_assert!(i < self.windows.len(), "tuple references unknown stream");
        self.stats.adopted += 1;
        self.windows[i].insert(tuple);
    }

    /// [`MswjOperator::adopt`]s every tuple, each into its own stream's
    /// window, in iteration order.
    pub fn adopt_all(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        for t in tuples {
            self.adopt(t);
        }
    }

    /// Surgically removes every live tuple of stream `i` for which `keep`
    /// returns `false`, maintaining the window's hash indexes; returns the
    /// number of removed tuples.  The inverse of [`MswjOperator::adopt`]:
    /// the sharded engine sheds re-homed window state on a partition-pair
    /// switch.  Counted under [`OperatorStats::evicted`](super::OperatorStats).
    pub fn evict_where(&mut self, i: StreamIndex, keep: impl FnMut(&Tuple) -> bool) -> usize {
        let removed = self.windows[i.as_usize()].retain_where(keep);
        self.stats.evicted += removed as u64;
        removed
    }

    /// A snapshot of the whole live window of `stream`, in window
    /// (timestamp) order — so a shard adopting it enumerates the tuples
    /// exactly as this one does.
    pub fn fetch_window(&self, stream: StreamIndex) -> Vec<Tuple> {
        self.window(stream).iter().cloned().collect()
    }

    /// Keeps only the tuples of `stream` whose join key (over `column`)
    /// homes on shard `keep` of `shards` under [`Partitioner::home_of`];
    /// returns the number of evicted tuples.
    pub fn retain_home(
        &mut self,
        stream: StreamIndex,
        column: usize,
        shards: usize,
        keep: usize,
    ) -> usize {
        self.evict_where(stream, |t| {
            Partitioner::home_of(join_key_hash(t.value(column)), shards) == keep
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::CommonKeyEquiJoin;
    use crate::query::JoinQuery;
    use mswj_types::{FieldType, Schema, StreamSet, Timestamp, Value};
    use std::sync::Arc;

    fn operator() -> MswjOperator {
        let streams =
            StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), 10_000).unwrap();
        let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        MswjOperator::new(JoinQuery::new("surgery", streams, cond).unwrap())
    }

    fn tup(stream: usize, seq: u64, key: i64) -> Tuple {
        Tuple::new(
            stream.into(),
            seq,
            Timestamp::from_millis(seq),
            vec![Value::Int(key)],
        )
    }

    #[test]
    fn class_ops_select_by_key_hash_and_retain_by_home() {
        let mut op = operator();
        op.adopt_all((0..40u64).map(|s| tup((s % 2) as usize, s, (s % 5) as i64)));
        assert_eq!(op.stats().adopted, 40);
        let s0 = StreamIndex(0);
        assert_eq!(op.fetch_window(s0).len(), 20);
        let hot = join_key_hash(Some(&Value::Int(3)));
        let in_class = |t: &Tuple| join_key_hash(t.value(0)) == hot;
        let class: Vec<Tuple> = op.fetch_window(s0).into_iter().filter(in_class).collect();
        assert_eq!(class.len(), 4);
        assert!(class.iter().all(|t| t.value(0) == Some(&Value::Int(3))));
        assert!(class.windows(2).all(|w| w[0].ts <= w[1].ts), "window order");
        assert_eq!(op.evict_where(s0, |t| !in_class(t)), 4);
        assert!(!op.fetch_window(s0).iter().any(in_class));
        // Retaining each of 3 home slices partitions what is left.
        let left = op.fetch_window(s0);
        let mut kept = 0;
        for keep in 0..3 {
            let mut shard = operator();
            shard.adopt_all(left.iter().cloned());
            shard.retain_home(s0, 0, 3, keep);
            let slice = shard.fetch_window(s0);
            assert!(slice
                .iter()
                .all(|t| Partitioner::home_of(join_key_hash(t.value(0)), 3) == keep));
            kept += slice.len();
        }
        assert_eq!(kept, left.len());
        assert_eq!(op.stats().evicted, 4);
    }
}
