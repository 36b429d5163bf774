//! The shard-executor seam: the one owner of the shard operators, wherever
//! the backend keeps them.
//!
//! [`ShardSet`] is a closed enum over the three placements — the single
//! caller-thread operator of `Sequential`, the resident [`ShardPool`], the
//! [`RemoteShards`] links — and its methods are everything the routing
//! front may ask of a shard: hand out the sequential shard's operator,
//! drain a small `Pool` batch on the calling thread, submit and collect one
//! epoch, read statistics and inspect an operator.  Only staging and
//! flushing ask whether the placement is the sequential one (it takes its
//! tuples unrouted); every other method decides once per call.  Routing is
//! fixed at construction, so no method moves window state between shards.
//!
//! Each operator has one owner at a time.  It is **home** — reached with
//! plain `&mut` to execute the sequential shard or drain an inline batch —
//! or **away** on the in-flight epoch: riding a pool worker's task, or a
//! shard server's behind its link.  Reading a busy shard follows one rule
//! on every placement: receive its in-flight output early and park it for
//! the next `collect`, so the read sees the executed epoch while the
//! epoch's events still arrive at the next flush or sync.

use super::pool::ShardPool;
use super::transport::RemoteShards;
use super::{exec, ExecutionBackend, Item, JoinEngine, SubOutcome};
use super::{ShardRuntimeStats, ShardStats};
use mswj_join::{JoinQuery, JoinResult, MswjOperator, OperatorStats, ProbeStrategy};
use mswj_types::Error;
use std::cell::{Ref, RefCell};
use std::collections::VecDeque;

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
        queue: &mut VecDeque<Item>,
        sub: &mut Vec<SubOutcome>,
        mat: &mut Vec<(u32, JoinResult)>,
    ) {
        match self {
            ShardSet::Local(_) => unreachable!("the sequential shard always runs locally"),
            ShardSet::Pool(pool) => pool.submit(s, epoch, queue, sub, mat),
            ShardSet::Remote(remote) => remote.submit(s, epoch, queue),
        }
    }

    /// Blocks for shard `s`'s output of `epoch`, leaving its sub-outcomes
    /// and materialized results in `sub` / `mat`, and returns the
    /// nanoseconds its worker (or server) spent draining the task.  A
    /// worker panic is re-raised here, on the caller thread.
    pub(super) fn collect(
        &mut self,
        s: usize,
        epoch: u64,
        sub: &mut Vec<SubOutcome>,
        mat: &mut Vec<(u32, JoinResult)>,
    ) -> u64 {
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

    /// Every shard's complete statistics: [`ShardSet::barrier_stats`] over
    /// the engine-side `runtime` counters, plus a remote link's transport
    /// counters.
    pub(super) fn stats(&self, runtime: &[ShardRuntimeStats]) -> Vec<ShardStats> {
        runtime
            .iter()
            .enumerate()
            .map(|(s, rt)| {
                let (operator, window_bytes, window_segments) = self.barrier_stats(s);
                let mut runtime = *rt;
                if let ShardSet::Remote(remote) = self {
                    remote.fold_runtime(s, &mut runtime);
                }
                runtime.window_bytes = window_bytes;
                runtime.window_segments = window_segments;
                ShardStats { operator, runtime }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{exec, EngineEvent};
    use mswj_join::{CommonKeyEquiJoin, Partitioner, ProbeOutcome, ProbePlan, Route};
    use mswj_types::{FieldType, Schema, StreamSet, Timestamp, Tuple, Value};
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
        let mut done = 0usize;
        let mut count =
            |ev: EngineEvent<'_>| done += usize::from(matches!(ev, EngineEvent::Done(_)));
        if let Some(op) = set.local() {
            let mut staged = tuples.to_vec();
            exec::run_local(op, &mut staged, tuples.len(), &mut stats, &mut count);
        } else {
            let plan = ProbePlan::CommonKey {
                columns: vec![0, 0],
            };
            let partitioner = Partitioner::new(&plan, n);
            let mut queues: Vec<VecDeque<Item>> = (0..n).map(|_| VecDeque::new()).collect();
            let mut decisions = Vec::new();
            for (seq, t) in tuples.iter().enumerate() {
                let Route::One(home) = partitioner.route(t) else {
                    unreachable!("common-key tuples are key-routed");
                };
                queues[home].push_back(Item {
                    seq: seq as u32,
                    tuple: t.clone(),
                    late: None,
                });
                decisions.push(ProbeOutcome {
                    ts: t.ts,
                    in_order: true,
                    inserted: true,
                    indexed: true,
                    ..ProbeOutcome::default()
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
                set.submit(s, epoch, &mut queues[s], &mut sub[s], &mut mat[s]);
                assert!(queues[s].is_empty(), "submit drains the queue");
            }
            for &s in &busy {
                set.collect(s, epoch, &mut sub[s], &mut mat[s]);
            }
            let mut cursors = vec![(0, 0); n];
            exec::merge_epoch(
                &decisions,
                &mut sub,
                &mut mat,
                &mut cursors,
                &mut stats,
                &mut count,
            );
        }
        assert_eq!(done, tuples.len());
        stats.results
    }

    /// What the script can observe of one shard through the seam.
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        stats: OperatorStats,
        window_bytes: u64,
        window_segments: u64,
    }

    /// Two epochs through `backend`'s placement, each operator handed to
    /// its worker (or server) and back; returns the merged result counts
    /// of the two epochs and the final per-shard snapshots.
    fn script(backend: ExecutionBackend) -> ((u64, u64), Vec<Snapshot>) {
        let n = backend.requested_shards();
        let mut set = ShardSet::open(&backend, n, &query(), ProbeStrategy::Auto, false).unwrap();
        assert_eq!(set.count(), n, "{backend}");
        let first = run_epoch(&mut set, 1, &batch(0));
        let second = run_epoch(&mut set, 2, &batch(64));
        let snapshots = (0..n)
            .map(|s| {
                let (stats, window_bytes, window_segments) = set.barrier_stats(s);
                Snapshot {
                    stats,
                    window_bytes,
                    window_segments,
                }
            })
            .collect();
        ((first, second), snapshots)
    }

    #[test]
    fn every_placement_runs_the_same_epochs_identically() {
        let (want_results, one_shard) = script(ExecutionBackend::Sequential);
        assert!(want_results.0 > 0 && want_results.1 > 0);
        let (_, three_shards) = script(ExecutionBackend::Pool { workers: 3 });
        let spread = three_shards.iter().filter(|s| s.stats.results > 0).count();
        assert!(spread > 1, "six key classes must join on several shards");
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
            let results: u64 = got.iter().map(|s| s.stats.results).sum();
            assert_eq!(results, one_shard[0].stats.results, "{backend}");
        }
    }
}
