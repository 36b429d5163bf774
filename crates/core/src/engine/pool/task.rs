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
//! All buffers travel both ways: the task carries the routed items plus the
//! (empty, capacity-retaining) sub-outcome and materialization buffers, and
//! the output returns all three so the engine can recycle them.  The
//! channels they travel through are `sync_channel`s, whose slots are
//! allocated once at construction, and the merge reads the returned buffers
//! through engine-owned cursors, so a steady-state epoch round-trip
//! allocates nothing on the caller thread beyond what the join itself
//! materializes (pinned by `tests/zero_alloc.rs`).

use super::super::{Item, SubOutcome};
use mswj_join::JoinResult;
use std::any::Any;
use std::collections::VecDeque;

/// Identifier of one routed batch; strictly increasing, starting at 1
/// (0 means "nothing submitted yet").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub(in crate::engine) struct Epoch(pub(in crate::engine) u64);

/// One shard's work for one epoch.
pub(in crate::engine) struct Task {
    /// The batch this work belongs to.
    pub(in crate::engine) epoch: Epoch,
    /// Routed items, in staging order.
    pub(in crate::engine) items: VecDeque<Item>,
    /// Empty sub-outcome buffer for the worker to fill (recycled).
    pub(in crate::engine) sub: Vec<SubOutcome>,
    /// Empty materialization buffer for the worker to fill (recycled).
    pub(in crate::engine) mat: Vec<(u32, JoinResult)>,
    /// The [`RoutingTable`](mswj_join::RoutingTable) epoch the items were
    /// routed under; echoed back so collection can assert that routing
    /// never changed while the epoch was in flight.
    pub(in crate::engine) routing_epoch: u64,
}

/// One shard's answer for one epoch.
pub(in crate::engine) struct EpochOutput {
    /// Echo of the task's epoch (collection asserts it matches).
    pub(in crate::engine) epoch: Epoch,
    /// The drained item queue, returned so its capacity can be reused.
    pub(in crate::engine) items: VecDeque<Item>,
    /// Per-probing-tuple sub-outcomes, in staging order.
    pub(in crate::engine) sub: Vec<SubOutcome>,
    /// Materialized results tagged with their staging sequence.
    pub(in crate::engine) mat: Vec<(u32, JoinResult)>,
    /// Wall-clock nanoseconds the worker spent executing this epoch.
    pub(in crate::engine) busy_nanos: u64,
    /// Echo of the task's routing-table epoch (collection asserts it).
    pub(in crate::engine) routing_epoch: u64,
    /// The panic payload if the shard operator panicked mid-epoch; the
    /// engine resumes the unwind on the caller thread, exactly as
    /// `std::thread::scope` would have.
    pub(in crate::engine) panic: Option<Box<dyn Any + Send>>,
}
