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
//!   routed into per-shard queues next to one partly filled
//!   [`ProbeOutcome`] each — what the front decided globally: a resident
//!   [`pool`](super::pool) worker, a shard server, or — for `Pool` batches
//!   below the inline threshold — the calling thread drains one shard's
//!   queue into `(seq, …)`-tagged buffers, and [`merge_epoch`] replays those
//!   **in staging order, shard order within a tuple**, so the emitted event
//!   stream is deterministic regardless of thread scheduling.

use super::{EngineEvent, Item, SubOutcome};
use mswj_join::{JoinResult, MswjOperator, OperatorStats, ProbeOutcome};
use mswj_types::Tuple;
use std::collections::VecDeque;

/// Folds one finished tuple into the aggregate stats by
/// [`OperatorStats::record`], the rule every operator counts by, and emits
/// its [`EngineEvent::Done`] — shared by both executors.
fn finish_tuple(
    outcome: ProbeOutcome,
    stats: &mut OperatorStats,
    f: &mut dyn FnMut(EngineEvent<'_>),
) {
    stats.record(&outcome);
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
    f: &mut dyn FnMut(EngineEvent<'_>),
) {
    let mut admitted = 0;
    for tuple in staged.drain(..) {
        let outcome = op.push_with(tuple, &mut |r| f(EngineEvent::Result(&r)));
        admitted += usize::from(outcome.inserted);
        finish_tuple(outcome, stats, f);
    }
    debug_assert_eq!(admitted, inserted, "scope check mismatch");
}

/// Drains one shard's queue in order, collecting `(seq, …)`-tagged
/// sub-outcomes and materialized results — the inner loop shared by the
/// resident pool workers, the shard servers and the `Pool` inline path.
/// Every item leaves one sub-outcome: a probing item's results, or a late
/// item's counted loss in `n_join`.  It never touches the caller's sink;
/// determinism is restored by [`merge_epoch`].
pub(super) fn drain_queue(
    shard: &mut MswjOperator,
    items: &mut VecDeque<Item>,
    sub: &mut Vec<SubOutcome>,
    mat: &mut Vec<(u32, JoinResult)>,
) {
    while let Some(Item { seq, tuple, late }) = items.pop_front() {
        let (n_join, indexed) = match late {
            None => {
                let o = shard.push_with(tuple, &mut |r| mat.push((seq, r)));
                (o.n_join, o.indexed)
            }
            Some(on_t) => (shard.insert_late(tuple, on_t), false),
        };
        sub.push(SubOutcome {
            seq,
            n_join,
            indexed,
        });
    }
}

/// Replays the per-shard buffers filled by [`drain_queue`] in staging order
/// (shard order within each tuple), emitting the same event stream
/// [`run_local`] would have produced on one shard: each staged outcome in
/// `decisions` gets its shards' counts added, then is finished.  `cursors`
/// holds one `(sub, mat)` read position per shard; it is engine-owned, so a
/// merge allocates nothing.
pub(super) fn merge_epoch(
    decisions: &[ProbeOutcome],
    sub: &mut [Vec<SubOutcome>],
    mat: &mut [Vec<(u32, JoinResult)>],
    cursors: &mut [(usize, usize)],
    stats: &mut OperatorStats,
    f: &mut dyn FnMut(EngineEvent<'_>),
) {
    cursors.fill((0, 0));
    for (seq, mut outcome) in decisions.iter().copied().enumerate() {
        let seq = seq as u32;
        for ((sub, mat), (sc, mc)) in sub.iter().zip(mat.iter()).zip(cursors.iter_mut()) {
            while let Some((_, r)) = mat.get(*mc).filter(|(s, _)| *s == seq) {
                f(EngineEvent::Result(r));
                *mc += 1;
            }
            if let Some(o) = sub.get(*sc).filter(|o| o.seq == seq) {
                *sc += 1;
                if outcome.in_order {
                    outcome.n_join += o.n_join;
                    outcome.indexed &= o.indexed;
                } else {
                    outcome.n_lost += o.n_join;
                }
            }
        }
        finish_tuple(outcome, stats, f);
    }
    for ((sub, mat), &(sc, mc)) in sub.iter_mut().zip(mat.iter_mut()).zip(cursors.iter()) {
        debug_assert_eq!(sc, sub.len(), "unconsumed shard outcomes");
        debug_assert_eq!(mc, mat.len(), "unconsumed shard results");
        sub.clear();
        mat.clear();
    }
}
