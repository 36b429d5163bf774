//! Epoch-tagged work and result types exchanged with resident workers.
//!
//! One **epoch** is one routed batch submitted by the engine front: every
//! participating shard receives exactly one [`Task`] per epoch and answers
//! with exactly one [`EpochOutput`].  Epoch ids are strictly increasing and
//! each worker processes its tasks in submission order, so the engine can
//! collect an epoch's outputs **in shard order** and merge them into the
//! same deterministic event stream the sequential executor would have
//! produced.
//!
//! Everything travels both ways: the task carries the shard operator, the
//! routed items and the (empty, capacity-retaining) sub-outcome and
//! materialization buffers, and the output returns the task whole so the
//! engine gets its operator back and can recycle the buffers.  The
//! channels they travel through are `sync_channel`s, whose slots are
//! allocated once at construction, and the merge reads the returned buffers
//! through engine-owned cursors, so a steady-state epoch round-trip
//! allocates nothing on the caller thread beyond what the join itself
//! materializes (pinned by `tests/zero_alloc.rs`).

use super::super::{Item, SubOutcome};
use mswj_join::{JoinResult, MswjOperator};
use std::any::Any;
use std::collections::VecDeque;

/// One shard's work for one epoch.
pub(super) struct Task {
    /// The shard operator, away from home until the output brings it back.
    pub(super) op: Box<MswjOperator>,
    /// The batch this work belongs to; strictly increasing from 1.
    pub(super) epoch: u64,
    /// Routed items, in staging order.
    pub(super) items: VecDeque<Item>,
    /// Empty sub-outcome buffer for the worker to fill (recycled).
    pub(super) sub: Vec<SubOutcome>,
    /// Empty materialization buffer for the worker to fill (recycled).
    pub(super) mat: Vec<(u32, JoinResult)>,
    /// The [`RoutingTable`](mswj_join::RoutingTable) epoch the items were
    /// routed under; echoed back so collection can assert that routing
    /// never changed while the epoch was in flight.
    pub(super) routing_epoch: u64,
}

/// One shard's answer for one epoch.
pub(super) struct EpochOutput {
    /// The task, back with its items drained and `sub` / `mat` filled:
    /// per-probing-tuple sub-outcomes and materialized results, both in
    /// staging order and tagged with their staging sequence.
    pub(super) task: Task,
    /// Wall-clock nanoseconds the worker spent executing this epoch.
    pub(super) busy_nanos: u64,
    /// The panic payload if the shard operator panicked mid-epoch; the
    /// engine resumes the unwind on the caller thread, exactly as
    /// `std::thread::scope` would have.
    pub(super) panic: Option<Box<dyn Any + Send>>,
}
