//! Executors: how a routed batch of shard work actually runs.
//!
//! Both consume the same per-shard queues produced by the engine's routing
//! phase and deliver the same event stream:
//!
//! * [`run_inline`] processes the batch on the calling thread, tuple by
//!   tuple in staging order — the [`Sequential`](super::ExecutionBackend)
//!   backend and the sub-threshold fallback `Pool` takes for small batches.
//!   It is generic over [`ShardAccess`] so the same loop serves the
//!   engine-owned sequential shard and the mutex-held shards of the
//!   resident pool.
//! * [`drain_queue`] is the worker side: a resident [`pool`](super::pool)
//!   worker or a shard server drains its queue into `(seq, …)`-tagged
//!   buffers, and [`merge_epoch`] replays those **in staging order, shard
//!   order within a tuple**, so the emitted event stream is deterministic
//!   regardless of thread scheduling.

use super::replan::StreamTally;
use super::{Decision, EngineEvent, Item, Placement, SubOutcome};
use mswj_join::{JoinResult, MswjOperator, OperatorStats, ProbeOutcome};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Uniform mutable access to the shard operators, whether the engine owns
/// them directly or they sit behind the pool's mutexes (uncontended at
/// fallback time — workers only lock while executing an epoch, and the
/// engine runs inline only when no epoch is in flight).
pub(super) trait ShardAccess {
    /// Runs `f` with exclusive access to shard `s`.
    fn with<R>(&mut self, s: usize, f: impl FnOnce(&mut MswjOperator) -> R) -> R;
    /// Number of shards.
    fn count(&self) -> usize;
}

impl ShardAccess for [MswjOperator] {
    fn with<R>(&mut self, s: usize, f: impl FnOnce(&mut MswjOperator) -> R) -> R {
        f(&mut self[s])
    }

    fn count(&self) -> usize {
        self.len()
    }
}

impl ShardAccess for [Arc<Mutex<MswjOperator>>] {
    fn with<R>(&mut self, s: usize, f: impl FnOnce(&mut MswjOperator) -> R) -> R {
        f(&mut self[s].lock().unwrap_or_else(|e| e.into_inner()))
    }

    fn count(&self) -> usize {
        self.len()
    }
}

/// Folds one finished tuple into the aggregate stats and emits its
/// [`EngineEvent::Done`].  This is the single place where the engine's
/// sequential-equivalent accounting happens, shared by every executor.
fn finish_tuple(
    d: Decision,
    n_join: u64,
    indexed: bool,
    stats: &mut OperatorStats,
    tally: &mut [StreamTally],
    f: &mut dyn FnMut(EngineEvent<'_>),
) {
    let outcome = ProbeOutcome {
        in_order: d.in_order,
        inserted: d.inserted,
        indexed: d.in_order && indexed,
        n_join,
        n_cross: d.n_cross,
        expired: d.expired,
    };
    if d.in_order {
        let t = &mut tally[d.stream];
        t.probes += 1;
        t.matches += n_join;
        stats.in_order += 1;
        if outcome.indexed {
            stats.indexed_probes += 1;
        } else {
            stats.fallback_probes += 1;
        }
        stats.results += n_join;
        stats.cross_results += d.n_cross;
        stats.expired += d.expired as u64;
    } else {
        stats.out_of_order += 1;
        if !d.inserted {
            stats.dropped += 1;
        }
    }
    f(EngineEvent::Done(outcome));
}

/// Runs one queued item against its shard, forwarding materialized results
/// straight into `f` and folding the probe sub-outcome into the
/// accumulators.
fn run_item(
    shard: &mut MswjOperator,
    item: Item,
    n_join: &mut u64,
    indexed: &mut bool,
    f: &mut dyn FnMut(EngineEvent<'_>),
) {
    if item.probe {
        let o = shard.push_with(item.tuple, &mut |r| f(EngineEvent::Result(&r)));
        *n_join += o.n_join;
        *indexed &= o.indexed;
    } else {
        shard.insert_late(item.tuple);
    }
}

/// Single-threaded execution: items run in staging order (broadcast tuples
/// visit their shards in shard order), streaming events into `f` with no
/// intermediate buffering.
pub(super) fn run_inline<S: ShardAccess + ?Sized>(
    shards: &mut S,
    queues: &mut [VecDeque<Item>],
    decisions: &[Decision],
    stats: &mut OperatorStats,
    tally: &mut [StreamTally],
    f: &mut dyn FnMut(EngineEvent<'_>),
) {
    for &d in decisions {
        let mut n_join = 0u64;
        let mut indexed = true;
        match d.placement {
            Placement::None => {}
            Placement::One(s) => {
                let s = s as usize;
                let item = queues[s].pop_front().expect("routed item");
                shards.with(s, |shard| {
                    run_item(shard, item, &mut n_join, &mut indexed, f)
                });
            }
            Placement::All => {
                for (s, queue) in queues.iter_mut().enumerate().take(shards.count()) {
                    let item = queue.pop_front().expect("broadcast item");
                    shards.with(s, |shard| {
                        run_item(shard, item, &mut n_join, &mut indexed, f)
                    });
                }
            }
        }
        finish_tuple(d, n_join, indexed, stats, tally, f);
    }
}

/// Drains one shard's queue in order, collecting `(seq, …)`-tagged
/// sub-outcomes and materialized results — the inner loop shared by the
/// resident pool workers and the shard servers.  Workers never
/// touch the caller's sink; determinism is restored by [`merge_epoch`].
pub(super) fn drain_queue(
    shard: &mut MswjOperator,
    items: &mut VecDeque<Item>,
    sub: &mut Vec<SubOutcome>,
    mat: &mut Vec<(u32, JoinResult)>,
) {
    while let Some(item) = items.pop_front() {
        if item.probe {
            let seq = item.seq;
            let o = shard.push_with(item.tuple, &mut |r| mat.push((seq, r)));
            sub.push(SubOutcome {
                seq,
                n_join: o.n_join,
                indexed: o.indexed,
            });
        } else {
            shard.insert_late(item.tuple);
        }
    }
}

/// Replays the per-shard buffers collected from the pool workers or shard
/// servers in staging order (shard order within each tuple),
/// emitting the same event stream [`run_inline`] would have produced.
pub(super) fn merge_epoch(
    decisions: &[Decision],
    sub: &mut [Vec<SubOutcome>],
    mat: &mut [Vec<(u32, JoinResult)>],
    stats: &mut OperatorStats,
    tally: &mut [StreamTally],
    f: &mut dyn FnMut(EngineEvent<'_>),
) {
    let n = sub.len();
    let mut sub_cur = vec![0usize; n];
    let mut mat_cur = vec![0usize; n];
    for (seq, &d) in decisions.iter().enumerate() {
        let seq = seq as u32;
        let mut n_join = 0u64;
        let mut indexed = true;
        for s in 0..n {
            while mat_cur[s] < mat[s].len() && mat[s][mat_cur[s]].0 == seq {
                f(EngineEvent::Result(&mat[s][mat_cur[s]].1));
                mat_cur[s] += 1;
            }
            if sub_cur[s] < sub[s].len() && sub[s][sub_cur[s]].seq == seq {
                let o = sub[s][sub_cur[s]];
                sub_cur[s] += 1;
                n_join += o.n_join;
                indexed &= o.indexed;
            }
        }
        finish_tuple(d, n_join, indexed, stats, tally, f);
    }
    for s in 0..n {
        debug_assert_eq!(sub_cur[s], sub[s].len(), "unconsumed shard outcomes");
        sub[s].clear();
        mat[s].clear();
    }
}
