//! # mswj-join — m-way sliding window join substrate
//!
//! This crate implements the join-side machinery the ICDE'16 paper builds
//! on: time-based sliding windows with value→tuple hash indexes on their
//! equi-join columns, join conditions ranging from cross joins to
//! user-defined predicates, and an MJoin-style m-way sliding window join
//! operator implementing Alg. 2 of the paper (in-order tuples probe the
//! windows of all other streams and produce results; out-of-order tuples
//! are inserted without probing and therefore lose their results).
//!
//! Probing is planned from the condition's [`EquiStructure`] (see
//! [`ProbePlan`]): common-key and star equi-joins look up only the matching
//! hash bucket in every other window, with an automatic per-probe fallback
//! to the exhaustive nested-loop scan whenever index soundness cannot be
//! guaranteed — so arbitrary conditions and mixed-type key columns remain
//! exactly as correct as before, just slower.  Distance and band joins
//! expose a [`ScanStructure`] instead, and their nested-loop scan runs as a
//! typed-column kernel over per-window `f64` scan columns (see [`Window`]).
//!
//! The operator reports, for every processed tuple, both the number of
//! actual join results `n_on(e)` and the size of the corresponding
//! cross-join `n_x(e)` — exactly the two quantities the Tuple-Productivity
//! Profiler of the disorder-handling framework consumes (Sec. IV-B).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod condition;
mod operator;
mod partition;
mod planner;
mod query;
mod result;
mod window;

pub use condition::{
    BandJoin, CommonKeyEquiJoin, ConditionDescriptor, CrossJoin, DistanceWithin, EquiStructure,
    JoinCondition, PredicateFn, ScanStructure, StarEquiJoin,
};
pub use operator::{MswjOperator, OperatorStats, ProbeOutcome};
pub use partition::{join_key_hash, Partitioner, Route};
pub use planner::{ProbePlan, ProbeStrategy};
pub use query::JoinQuery;
pub use result::JoinResult;
pub use window::{Window, WindowStats};
