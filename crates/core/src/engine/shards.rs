//! The shard-executor seam: the one owner of the shard operators, wherever
//! the backend keeps them.
//!
//! [`ShardSet`] is a closed enum over the three placements — the single
//! caller-thread operator of `Sequential`, the resident [`ShardPool`], the
//! [`RemoteShards`] links — and its methods are everything the routing
//! front may ask of a shard: hand out the sequential shard's operator,
//! drain a small `Pool` batch on the calling thread, submit and collect one
//! epoch, read statistics, inspect an operator, and the six barrier-time
//! surgery operations.  Only staging and flushing ask whether the
//! placement is the sequential one (it takes its tuples unrouted); every
//! other method decides once per call.
//!
//! Each operator has one owner at a time.  It is **home** — reached with
//! plain `&mut` to execute the sequential shard, drain an inline batch or
//! apply surgery — or **away** on the in-flight epoch: riding a pool
//! worker's task, or a shard server's behind its link.  Reading a busy
//! shard follows one rule on every placement: receive its in-flight output
//! early and park it for the next `collect`, so the read sees the executed
//! epoch while the epoch's events still arrive at the next flush or sync.
//!
//! The surgery operations have one body each, on
//! [`MswjOperator`] (`mswj_join::operator::surgery`).  The local arms call
//! it directly, the remote arm sends the wire frame whose server-side
//! handler calls the same method:
//!
//! | `ShardSet` method | body (`MswjOperator::…`) | wire frame    |
//! |-------------------|--------------------------|---------------|
//! | `fetch_class`     | `fetch_class`            | `FetchClass`  |
//! | `fetch_window`    | `fetch_window`           | `FetchWindow` |
//! | `adopt`           | `adopt_all`              | `Adopt`       |
//! | `purge_class`     | `purge_class`            | `PurgeClass`  |
//! | `retain_home`     | `retain_home`            | `Retain`      |
//! | `revise`          | `revise`                 | `Revise`      |

use super::pool::ShardPool;
use super::transport::RemoteShards;
use super::{exec, ExecutionBackend, Item, JoinEngine, SubOutcome};
use super::{ShardRuntimeStats, ShardStats};
use mswj_join::{JoinQuery, JoinResult, MswjOperator, OperatorStats, ProbeStrategy};
use mswj_types::{Error, StreamIndex, Tuple};
use mswj_wire::Frame;
use std::cell::{Ref, RefCell};
use std::collections::VecDeque;

/// What collecting one shard's epoch reports beside the filled `sub` /
/// `mat` buffers.
pub(super) struct CollectedEpoch {
    /// Nanoseconds the shard's worker (or server) spent draining the task.
    pub(super) busy_nanos: u64,
    /// The routing-table epoch echoed back (pipeline sanity check).
    pub(super) routing_epoch: u64,
}

/// The shard operators of one engine, behind whichever executor the
/// backend selected.
pub(super) enum ShardSet {
    /// `Sequential`: the single shard, run on the calling thread (the cell
    /// only lends [`ShardSet::inspect`] its `Ref`; execution uses
    /// `get_mut`).
    Local(Box<RefCell<MswjOperator>>),
    /// `Pool`: one resident worker per shard.
    Pool(ShardPool),
    /// `Remote`: one transport link per shard server.
    Remote(RemoteShards),
}

impl ShardSet {
    /// Instantiates `n` shard operators for `backend`: in place, behind
    /// spawned pool workers, or — connecting and handshaking here — behind
    /// shard servers.  Only the `Remote` backend can fail.
    pub(super) fn open(
        backend: &ExecutionBackend,
        n: usize,
        query: &JoinQuery,
        strategy: ProbeStrategy,
        enumerate: bool,
    ) -> Result<Self, Error> {
        let operator = || MswjOperator::with_probe(query.clone(), strategy, enumerate);
        Ok(match backend {
            ExecutionBackend::Sequential => ShardSet::Local(Box::new(RefCell::new(operator()))),
            ExecutionBackend::Pool { .. } => {
                ShardSet::Pool(ShardPool::new((0..n).map(|_| operator()).collect()))
            }
            ExecutionBackend::Remote { endpoints } => {
                if endpoints.is_empty() {
                    return Err(Error::InvalidConfig(
                        "the remote backend needs at least one endpoint".into(),
                    ));
                }
                let descriptor = query.condition().descriptor().ok_or_else(|| {
                    Error::InvalidConfig(format!(
                        "join condition `{}` cannot cross a process boundary \
                         (closure predicates have no wire form); use a declarative \
                         condition or a local backend",
                        query.condition().describe()
                    ))
                })?;
                // Unpartitionable plans collapse to one shard; connect only
                // to the endpoints that will actually carry work.
                ShardSet::Remote(RemoteShards::connect(
                    &endpoints[..n.min(endpoints.len())],
                    query,
                    &descriptor,
                    strategy,
                    enumerate,
                )?)
            }
        })
    }

    /// Number of shards.
    pub(super) fn count(&self) -> usize {
        match self {
            ShardSet::Local(_) => 1,
            ShardSet::Pool(pool) => pool.shard_count(),
            ShardSet::Remote(remote) => remote.count(),
        }
    }

    /// The sequential shard's operator, for `exec::run_local`; `None` on
    /// every sharded set, whose batches are drained and merged instead.
    pub(super) fn local(&mut self) -> Option<&mut MswjOperator> {
        match self {
            ShardSet::Local(op) => Some(op.get_mut()),
            _ => None,
        }
    }

    /// Drains a `Pool` batch below [`JoinEngine::SMALL_BATCH_THRESHOLD`]
    /// routed items into `sub` / `mat` on the calling thread, against the
    /// idle workers' shards (no enqueue round-trip, no allocation in steady
    /// state), returning whether it did.  Larger `Pool` batches and every
    /// `Remote` batch are submitted as an epoch instead.  Only called with
    /// no epoch in flight, so every operator is home.
    pub(super) fn drain_inline(
        &mut self,
        queues: &mut [VecDeque<Item>],
        sub: &mut [Vec<SubOutcome>],
        mat: &mut [Vec<(u32, JoinResult)>],
    ) -> bool {
        let ShardSet::Pool(pool) = self else {
            return false;
        };
        if queues.iter().map(VecDeque::len).sum::<usize>() >= JoinEngine::SMALL_BATCH_THRESHOLD {
            return false;
        }
        for (s, queue) in queues.iter_mut().enumerate() {
            if !queue.is_empty() {
                exec::drain_queue(pool.operator_mut(s), queue, &mut sub[s], &mut mat[s]);
            }
        }
        true
    }

    /// Ships shard `s`'s routed queue as its task of `epoch`.  The queue is
    /// left empty with its capacity (or a recycled one's) intact; on `Pool`
    /// the `sub` / `mat` buffers travel with the task and come back at
    /// [`ShardSet::collect`], so a steady-state round-trip allocates
    /// nothing.
    pub(super) fn submit(
        &mut self,
        s: usize,
        epoch: u64,
        routing_epoch: u64,
        queue: &mut VecDeque<Item>,
        sub: &mut Vec<SubOutcome>,
        mat: &mut Vec<(u32, JoinResult)>,
    ) {
        match self {
            ShardSet::Local(_) => unreachable!("the sequential shard always runs locally"),
            ShardSet::Pool(pool) => pool.submit(s, epoch, routing_epoch, queue, sub, mat),
            ShardSet::Remote(remote) => remote.submit(s, epoch, routing_epoch, queue),
        }
    }

    /// Blocks for shard `s`'s output of `epoch`, leaving its sub-outcomes
    /// and materialized results in `sub` / `mat`.  A worker panic is
    /// re-raised here, on the caller thread.
    pub(super) fn collect(
        &mut self,
        s: usize,
        epoch: u64,
        sub: &mut Vec<SubOutcome>,
        mat: &mut Vec<(u32, JoinResult)>,
    ) -> CollectedEpoch {
        match self {
            ShardSet::Local(_) => unreachable!("the sequential shard always runs locally"),
            ShardSet::Pool(pool) => pool.collect(s, epoch, sub, mat),
            ShardSet::Remote(remote) => remote.collect(s, epoch, sub, mat),
        }
    }

    /// The shard operator at `s`, for reading.  A `Pool` shard away on an
    /// epoch is read from its output, received early and parked for the
    /// next [`ShardSet::collect`].
    ///
    /// # Panics
    ///
    /// Panics on `Remote`: the operators live in another process.
    pub(super) fn inspect(&self, s: usize) -> Ref<'_, MswjOperator> {
        match self {
            ShardSet::Local(op) => {
                assert_eq!(s, 0, "the sequential backend has one shard");
                op.borrow()
            }
            ShardSet::Pool(pool) => pool.operator(s),
            ShardSet::Remote(_) => panic!(
                "shard operators live in another process on the remote backend; \
                 use shard_stats() for their counters"
            ),
        }
    }

    /// Shard `s`'s operator counters plus its live window footprint
    /// (estimated bytes, columnar segments).  Remote window state lives in
    /// the server process; a barrier round-trip carries its figures back.
    /// A busy shard reports its executed epoch: its in-flight output is
    /// received first and parked for the next [`ShardSet::collect`].
    pub(super) fn barrier_stats(&self, s: usize) -> (OperatorStats, u64, u64) {
        match self {
            ShardSet::Remote(remote) => remote.barrier_stats(s),
            local => {
                let op = local.inspect(s);
                (op.stats(), op.window_bytes(), op.window_segments())
            }
        }
    }

    /// Folds what only the placement knows — the transport counters of a
    /// remote link — into shard `s`'s runtime stats.
    pub(super) fn fold_runtime(&self, s: usize, rt: &mut ShardRuntimeStats) {
        if let ShardSet::Remote(remote) = self {
            remote.fold_runtime(s, rt);
        }
    }

    /// Every shard's complete statistics: [`ShardSet::barrier_stats`] over
    /// the engine-side `runtime` counters.
    pub(super) fn stats(&self, runtime: &[ShardRuntimeStats]) -> Vec<ShardStats> {
        runtime
            .iter()
            .enumerate()
            .map(|(s, rt)| {
                let (operator, window_bytes, window_segments) = self.barrier_stats(s);
                let mut runtime = *rt;
                self.fold_runtime(s, &mut runtime);
                runtime.window_bytes = window_bytes;
                runtime.window_segments = window_segments;
                ShardStats { operator, runtime }
            })
            .collect()
    }

    /// A surgery operation that reads tuples out of shard `s`: `body` on an
    /// in-process operator, `frame()` to a shard server — whose handler
    /// runs the same body.
    fn fetch(
        &mut self,
        s: usize,
        body: impl FnOnce(&MswjOperator) -> Vec<Tuple>,
        frame: impl FnOnce() -> Frame,
    ) -> Vec<Tuple> {
        match self {
            ShardSet::Remote(remote) => remote.request_tuples(s, frame()),
            local => body(&local.inspect(s)),
        }
    }

    /// A surgery operation that changes shard `s` (idle at every call site:
    /// state surgery only happens at barriers): `body` on an in-process
    /// operator, `frame()` to a shard server.
    fn apply(
        &mut self,
        s: usize,
        body: impl FnOnce(&mut MswjOperator),
        frame: impl FnOnce() -> Frame,
    ) {
        match self {
            ShardSet::Local(op) => body(op.get_mut()),
            ShardSet::Pool(pool) => body(pool.operator_mut(s)),
            ShardSet::Remote(remote) => remote.request_ack(s, frame()),
        }
    }

    /// The tuples of key class `key_hash` (over `column`) live in shard
    /// `s`'s window of `stream`, in window order.
    pub(super) fn fetch_class(
        &mut self,
        s: usize,
        stream: usize,
        column: usize,
        key_hash: u64,
    ) -> Vec<Tuple> {
        self.fetch(
            s,
            |op| op.fetch_class(StreamIndex(stream), column, key_hash),
            || Frame::FetchClass {
                stream: stream as u64,
                column: column as u64,
                key_hash,
            },
        )
    }

    /// A snapshot of shard `s`'s whole live window of `stream`.
    pub(super) fn fetch_window(&mut self, s: usize, stream: usize) -> Vec<Tuple> {
        self.fetch(
            s,
            |op| op.fetch_window(StreamIndex(stream)),
            || Frame::FetchWindow {
                stream: stream as u64,
            },
        )
    }

    /// Adopts `tuples` into shard `s`'s windows (each into its own
    /// stream's), without operator statistics.
    pub(super) fn adopt(&mut self, s: usize, tuples: &[Tuple]) {
        self.apply(
            s,
            |op| op.adopt_all(tuples.iter().cloned()),
            || Frame::Adopt {
                tuples: tuples.to_vec(),
            },
        );
    }

    /// Evicts key class `key_hash` (over `column`) from shard `s`'s window
    /// of `stream`.
    pub(super) fn purge_class(&mut self, s: usize, stream: usize, column: usize, key_hash: u64) {
        self.apply(
            s,
            |op| {
                op.purge_class(StreamIndex(stream), column, key_hash);
            },
            || Frame::PurgeClass {
                stream: stream as u64,
                column: column as u64,
                key_hash,
            },
        );
    }

    /// Drops every tuple of `stream` on shard `s` whose join key (in
    /// `column`) does not home there.
    pub(super) fn retain_home(&mut self, s: usize, stream: usize, column: usize) {
        let shards = self.count();
        self.apply(
            s,
            |op| {
                op.retain_home(StreamIndex(stream), column, shards, s);
            },
            || Frame::Retain {
                stream: stream as u64,
                column: column as u64,
                shards: shards as u64,
                keep: s as u64,
            },
        );
    }

    /// Applies a probe reorder (non-empty `order`) and/or index demotion to
    /// shard `s`'s operator.
    pub(super) fn revise(&mut self, s: usize, order: &[usize], demote: bool) {
        self.apply(
            s,
            |op| op.revise(order, demote),
            || Frame::Revise {
                order: order.to_vec(),
                demote,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::replan::StreamTally;
    use crate::engine::{exec, Decision, EngineEvent};
    use mswj_join::{join_key_hash, CommonKeyEquiJoin, Partitioner};
    use mswj_types::{FieldType, Schema, StreamSet, Timestamp, Value};
    use std::sync::Arc;

    fn query() -> JoinQuery {
        let streams =
            StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), 10_000).unwrap();
        let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        JoinQuery::new("seam", streams, cond).unwrap()
    }

    /// 64 probing tuples, both streams, six key classes, starting at `from`.
    fn batch(from: u64) -> Vec<Tuple> {
        (from..from + 64)
            .map(|s| {
                let key = Value::Int((s / 2 % 6) as i64);
                Tuple::new(
                    ((s % 2) as usize).into(),
                    s,
                    Timestamp::from_millis(s * 3),
                    vec![key],
                )
            })
            .collect()
    }

    /// Routes `tuples` to their home shards and runs them as epoch `epoch`
    /// — through submit/collect where the placement pipelines a batch this
    /// size, on the calling thread where it does not — returning the merged
    /// result count.
    fn run_epoch(set: &mut ShardSet, epoch: u64, tuples: &[Tuple]) -> u64 {
        let n = set.count();
        let mut stats = OperatorStats::default();
        let mut tally = vec![StreamTally::default(); 2];
        let mut done = 0usize;
        let mut count =
            |ev: EngineEvent<'_>| done += usize::from(matches!(ev, EngineEvent::Done(_)));
        if let Some(op) = set.local() {
            let mut staged = tuples.to_vec();
            exec::run_local(
                op,
                &mut staged,
                tuples.len(),
                &mut stats,
                &mut tally,
                &mut count,
            );
        } else {
            let mut queues: Vec<VecDeque<Item>> = (0..n).map(|_| VecDeque::new()).collect();
            let mut decisions = Vec::new();
            for (seq, t) in tuples.iter().enumerate() {
                let home = Partitioner::home_of(join_key_hash(t.value(0)), n);
                queues[home].push_back(Item {
                    seq: seq as u32,
                    probe: true,
                    tuple: t.clone(),
                });
                decisions.push(Decision {
                    stream: t.stream.as_usize(),
                    ts: t.ts,
                    delay: 0,
                    in_order: true,
                    inserted: true,
                    n_cross: 0,
                    expired: 0,
                });
            }
            let mut sub: Vec<Vec<SubOutcome>> = (0..n).map(|_| Vec::new()).collect();
            let mut mat: Vec<Vec<(u32, JoinResult)>> = (0..n).map(|_| Vec::new()).collect();
            let busy: Vec<usize> = (0..n).filter(|&s| !queues[s].is_empty()).collect();
            assert!(
                !set.drain_inline(&mut queues, &mut sub, &mut mat),
                "64 items pipeline"
            );
            for &s in &busy {
                set.submit(s, epoch, 7, &mut queues[s], &mut sub[s], &mut mat[s]);
                assert!(queues[s].is_empty(), "submit drains the queue");
            }
            for &s in &busy {
                let out = set.collect(s, epoch, &mut sub[s], &mut mat[s]);
                assert_eq!(out.routing_epoch, 7, "the routing epoch is echoed");
            }
            let mut cursors = vec![(0, 0); n];
            exec::merge_epoch(
                &decisions,
                &mut sub,
                &mut mat,
                &mut cursors,
                &mut stats,
                &mut tally,
                &mut count,
            );
        }
        assert_eq!(done, tuples.len());
        stats.results
    }

    /// What the script can observe of one shard through the seam.
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        windows: [Vec<String>; 2],
        stats: OperatorStats,
        window_bytes: u64,
        window_segments: u64,
    }

    /// One scripted pass over every seam operation; returns the merged
    /// result counts of the two epochs and the final per-shard snapshots.
    fn script(backend: ExecutionBackend) -> ((u64, u64), Vec<Snapshot>) {
        let n = backend.requested_shards();
        let mut set = ShardSet::open(&backend, n, &query(), ProbeStrategy::Auto, false).unwrap();
        assert_eq!(set.count(), n, "{backend}");
        let first = run_epoch(&mut set, 1, &batch(0));
        // A hot-key split and its revert: replicate the class from its home
        // shard, then purge the replicas again.
        let hot = join_key_hash(Some(&Value::Int(3)));
        let home = Partitioner::home_of(hot, n);
        let others: Vec<usize> = (0..n).filter(|&s| s != home).collect();
        for stream in 0..2 {
            let class = set.fetch_class(home, stream, 0, hot);
            assert!(!class.is_empty(), "{backend}");
            for &s in &others {
                set.adopt(s, &class);
                assert_eq!(set.fetch_class(s, stream, 0, hot), class, "{backend}");
                set.purge_class(s, stream, 0, hot);
                assert!(set.fetch_class(s, stream, 0, hot).is_empty(), "{backend}");
            }
        }
        // A pair switch's two halves: broadcast stream 1 into every shard,
        // then make every shard retain its home slice.
        let slices: Vec<Vec<Tuple>> = (0..n).map(|s| set.fetch_window(s, 1)).collect();
        for (s, slice) in slices.iter().enumerate() {
            for t in (0..n).filter(|&t| t != s) {
                set.adopt(t, slice);
            }
        }
        for s in 0..n {
            set.retain_home(s, 1, 0);
        }
        // A plan revision; the demotion shows in the second epoch's
        // fallback-probe counters on every placement.
        for s in 0..n {
            set.revise(s, &[1, 0], true);
        }
        let second = run_epoch(&mut set, 2, &batch(64));
        let snapshots = (0..n)
            .map(|s| {
                let (stats, window_bytes, window_segments) = set.barrier_stats(s);
                let window = |set: &mut ShardSet, i| {
                    let tuples = set.fetch_window(s, i);
                    tuples.iter().map(Tuple::to_string).collect()
                };
                Snapshot {
                    windows: [window(&mut set, 0), window(&mut set, 1)],
                    stats,
                    window_bytes,
                    window_segments,
                }
            })
            .collect();
        ((first, second), snapshots)
    }

    #[test]
    fn every_placement_applies_the_same_surgery_script_identically() {
        let (want_results, one_shard) = script(ExecutionBackend::Sequential);
        assert!(want_results.0 > 0 && want_results.1 > 0);
        assert_eq!(
            one_shard[0].stats.fallback_probes, 64,
            "the second epoch probes a demoted index: {:?}",
            one_shard[0].stats
        );
        let (_, three_shards) = script(ExecutionBackend::Pool { workers: 3 });
        let moved: u64 = three_shards.iter().map(|s| s.stats.adopted).sum();
        assert!(moved > 0, "the script must migrate state between shards");
        for (backend, want) in [
            (ExecutionBackend::Pool { workers: 1 }, &one_shard),
            (ExecutionBackend::remote_inproc(1), &one_shard),
            (ExecutionBackend::Pool { workers: 3 }, &three_shards),
            (ExecutionBackend::remote_inproc(3), &three_shards),
        ] {
            let (results, got) = script(backend.clone());
            assert_eq!(results, want_results, "merged result counts [{backend}]");
            assert_eq!(
                &got, want,
                "per-shard snapshots and OperatorStats [{backend}]"
            );
            // However many shards hold it, the state is the same state.
            for i in 0..2 {
                let mut union: Vec<&String> = got.iter().flat_map(|s| &s.windows[i]).collect();
                union.sort();
                let mut reference: Vec<&String> = one_shard[0].windows[i].iter().collect();
                reference.sort();
                assert_eq!(union, reference, "stream {i} [{backend}]");
            }
        }
    }
}
