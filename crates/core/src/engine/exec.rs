//! Executors: how a routed batch of shard work actually runs.
//!
//! Both consume the per-shard queues the engine fills as it stages tuples
//! and deliver the same event stream:
//!
//! * [`run_local`] runs the [`Sequential`](super::ExecutionBackend)
//!   backend's one shard on the calling thread, tuple by tuple in staging
//!   order, streaming each tuple's results into the caller's sink before its
//!   `Done` — no intermediate buffering.
//! * [`drain_queue`] serves every sharded batch: a resident
//!   [`pool`](super::pool) worker, a shard server, or — for `Pool` batches
//!   below the inline threshold — the calling thread drains one shard's
//!   queue into `(seq, …)`-tagged buffers, and [`merge_epoch`] replays those
//!   **in staging order, shard order within a tuple**, so the emitted event
//!   stream is deterministic regardless of thread scheduling.

use super::replan::StreamTally;
use super::{Decision, EngineEvent, Item, SubOutcome};
use mswj_join::{JoinResult, MswjOperator, OperatorStats, ProbeOutcome};
use std::collections::VecDeque;

/// Folds one finished tuple into the aggregate stats and emits its
/// [`EngineEvent::Done`].  This is the single place where the engine's
/// sequential-equivalent accounting happens, shared by both executors.
fn finish_tuple(
    d: Decision,
    n_join: u64,
    indexed: bool,
    stats: &mut OperatorStats,
    tally: &mut [StreamTally],
    f: &mut dyn FnMut(EngineEvent<'_>),
) {
    let outcome = ProbeOutcome {
        ts: d.ts,
        delay: d.delay,
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

/// The sequential shard's executor: every staged tuple runs against the one
/// operator in staging order, its results streamed straight into `f`, then
/// its `Done`.  With one shard there is no broadcast, so exactly the
/// inserted tuples hold an item and the queue pops in lockstep with
/// `decisions`.
pub(super) fn run_local(
    op: &mut MswjOperator,
    queue: &mut VecDeque<Item>,
    decisions: &[Decision],
    stats: &mut OperatorStats,
    tally: &mut [StreamTally],
    f: &mut dyn FnMut(EngineEvent<'_>),
) {
    for &d in decisions {
        let (mut n_join, mut indexed) = (0, true);
        if d.inserted {
            let item = queue.pop_front().expect("an inserted tuple holds an item");
            if item.probe {
                let o = op.push_with(item.tuple, &mut |r| f(EngineEvent::Result(&r)));
                (n_join, indexed) = (o.n_join, o.indexed);
            } else {
                op.insert_late(item.tuple);
            }
        }
        finish_tuple(d, n_join, indexed, stats, tally, f);
    }
    debug_assert!(queue.is_empty(), "an item without a decision");
}

/// Drains one shard's queue in order, collecting `(seq, …)`-tagged
/// sub-outcomes and materialized results — the inner loop shared by the
/// resident pool workers, the shard servers and the `Pool` inline path.
/// It never touches the caller's sink; determinism is restored by
/// [`merge_epoch`].
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

/// Replays the per-shard buffers filled by [`drain_queue`] in staging order
/// (shard order within each tuple), emitting the same event stream
/// [`run_local`] would have produced on one shard.  `cursors` holds one
/// `(sub, mat)` read position per shard; it is engine-owned, so a merge
/// allocates nothing.
pub(super) fn merge_epoch(
    decisions: &[Decision],
    sub: &mut [Vec<SubOutcome>],
    mat: &mut [Vec<(u32, JoinResult)>],
    cursors: &mut [(usize, usize)],
    stats: &mut OperatorStats,
    tally: &mut [StreamTally],
    f: &mut dyn FnMut(EngineEvent<'_>),
) {
    cursors.fill((0, 0));
    for (seq, &d) in decisions.iter().enumerate() {
        let seq = seq as u32;
        let (mut n_join, mut indexed) = (0, true);
        for ((sub, mat), (sc, mc)) in sub.iter().zip(mat.iter()).zip(cursors.iter_mut()) {
            while let Some((_, r)) = mat.get(*mc).filter(|(s, _)| *s == seq) {
                f(EngineEvent::Result(r));
                *mc += 1;
            }
            if let Some(o) = sub.get(*sc).filter(|o| o.seq == seq) {
                *sc += 1;
                n_join += o.n_join;
                indexed &= o.indexed;
            }
        }
        finish_tuple(d, n_join, indexed, stats, tally, f);
    }
    for ((sub, mat), &(sc, mc)) in sub.iter_mut().zip(mat.iter_mut()).zip(cursors.iter()) {
        debug_assert_eq!(sc, sub.len(), "unconsumed shard outcomes");
        debug_assert_eq!(mc, mat.len(), "unconsumed shard results");
        sub.clear();
        mat.clear();
    }
}
