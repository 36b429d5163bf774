//! Executors: how a staged batch actually runs.
//!
//! Both deliver the same event stream:
//!
//! * [`run_local`] runs the [`Sequential`](super::ExecutionBackend)
//!   backend's one shard on the calling thread.  The front stages that
//!   shard's tuples unrouted, and the operator's own [`ProbeOutcome`] —
//!   expiry and `n_x(e)` included — becomes each tuple's `Done`, streamed
//!   after its results with no intermediate buffering.
//! * [`drain_queue`] serves every sharded batch, whose tuples the front
//!   routed into per-shard queues next to one `Decision` each: a resident
//!   [`pool`](super::pool) worker, a shard server, or — for `Pool` batches
//!   below the inline threshold — the calling thread drains one shard's
//!   queue into `(seq, …)`-tagged buffers, and [`merge_epoch`] replays those
//!   **in staging order, shard order within a tuple**, so the emitted event
//!   stream is deterministic regardless of thread scheduling.

use super::replan::StreamTally;
use super::{Decision, EngineEvent, Item, SubOutcome};
use mswj_join::{JoinResult, MswjOperator, OperatorStats, ProbeOutcome};
use mswj_types::Tuple;
use std::collections::VecDeque;

/// Folds one finished tuple of `stream` into the aggregate stats and the
/// per-stream tallies and emits its [`EngineEvent::Done`].  This is the
/// single place where the engine's sequential-equivalent accounting
/// happens, shared by both executors.
fn finish_tuple(
    stream: usize,
    outcome: ProbeOutcome,
    stats: &mut OperatorStats,
    tally: &mut [StreamTally],
    f: &mut dyn FnMut(EngineEvent<'_>),
) {
    if outcome.in_order {
        let t = &mut tally[stream];
        t.probes += 1;
        t.matches += outcome.n_join;
        stats.in_order += 1;
        if outcome.indexed {
            stats.indexed_probes += 1;
        } else {
            stats.fallback_probes += 1;
        }
        stats.results += outcome.n_join;
        stats.cross_results += outcome.n_cross;
        stats.expired += outcome.expired as u64;
    } else {
        stats.out_of_order += 1;
        if !outcome.inserted {
            stats.dropped += 1;
        }
    }
    f(EngineEvent::Done(outcome));
}

/// The sequential shard's executor: every staged tuple is pushed through
/// the one operator in staging order, its results streamed straight into
/// `f`, then its `Done` carrying the operator's own outcome.  The operator
/// sees every tuple, so it classifies, scope-checks, expires and sizes
/// `n_x(e)` exactly as the unsharded operator — because it is one.
/// `inserted` is the front's count of tuples it admitted to the shard.
pub(super) fn run_local(
    op: &mut MswjOperator,
    staged: &mut Vec<Tuple>,
    inserted: usize,
    stats: &mut OperatorStats,
    tally: &mut [StreamTally],
    f: &mut dyn FnMut(EngineEvent<'_>),
) {
    let mut admitted = 0;
    for tuple in staged.drain(..) {
        let stream = tuple.stream.as_usize();
        let outcome = op.push_with(tuple, &mut |r| f(EngineEvent::Result(&r)));
        admitted += usize::from(outcome.inserted);
        finish_tuple(stream, outcome, stats, tally, f);
    }
    debug_assert_eq!(admitted, inserted, "scope check mismatch");
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
    for (seq, d) in decisions.iter().enumerate() {
        let seq = seq as u32;
        let mut outcome = ProbeOutcome {
            ts: d.ts,
            delay: d.delay,
            in_order: d.in_order,
            inserted: d.inserted,
            indexed: d.in_order,
            n_join: 0,
            n_cross: d.n_cross,
            expired: d.expired,
        };
        for ((sub, mat), (sc, mc)) in sub.iter().zip(mat.iter()).zip(cursors.iter_mut()) {
            while let Some((_, r)) = mat.get(*mc).filter(|(s, _)| *s == seq) {
                f(EngineEvent::Result(r));
                *mc += 1;
            }
            if let Some(o) = sub.get(*sc).filter(|o| o.seq == seq) {
                *sc += 1;
                outcome.n_join += o.n_join;
                outcome.indexed &= o.indexed;
            }
        }
        finish_tuple(d.stream, outcome, stats, tally, f);
    }
    for ((sub, mat), &(sc, mc)) in sub.iter_mut().zip(mat.iter_mut()).zip(cursors.iter()) {
        debug_assert_eq!(sc, sub.len(), "unconsumed shard outcomes");
        debug_assert_eq!(mc, mat.len(), "unconsumed shard results");
        sub.clear();
        mat.clear();
    }
}
