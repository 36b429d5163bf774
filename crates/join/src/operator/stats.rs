//! Per-push outcomes and lifetime counters of the join operator.
//!
//! Both records are small `Copy` structs: [`ProbeOutcome`] describes what a
//! single pushed tuple did, [`OperatorStats`] accumulates the same
//! quantities over an operator's lifetime.  In a sharded engine every shard
//! owns an operator and hence its own `OperatorStats`; the engine's
//! aggregate view is a separate `OperatorStats` that it folds from every
//! tuple's merged [`ProbeOutcome`].  Both fold by the one rule,
//! [`OperatorStats::record`].

use mswj_types::{Duration, Timestamp};

/// What happened when one tuple was pushed into the operator.
///
/// The outcome names its own tuple (`ts`, `delay`), so a consumer that
/// receives it later — a sharded engine's `Done` event — needs no side
/// record of what it staged.  Materialized results are not carried here: in
/// enumerating mode they are handed to the caller's emit callback one by one
/// (see [`MswjOperator::push_with`](super::MswjOperator::push_with)), so the
/// outcome itself stays allocation-free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// The pushed tuple's timestamp.
    pub ts: Timestamp,
    /// The pushed tuple's observed delay (zero when it carries none; see
    /// [`Tuple::delay_or_zero`](mswj_types::Tuple::delay_or_zero)).
    pub delay: Duration,
    /// Whether the tuple arrived in timestamp order w.r.t. `onT`.
    pub in_order: bool,
    /// Whether the tuple was inserted into its window (out-of-order tuples
    /// that already fell out of the window scope are dropped, after their
    /// loss is counted in [`Self::n_lost`]).
    pub inserted: bool,
    /// Whether the probe was answered without scanning the other windows:
    /// through hash-index bucket lookups, or short-circuited because the
    /// probing key can never join (`Null`/missing).  `false` for
    /// nested-loop scans and for out-of-order arrivals (their counting
    /// walk is not a probe).
    pub indexed: bool,
    /// Number of join results derived at this arrival (`n_on(e)`); zero for
    /// out-of-order tuples.
    pub n_join: u64,
    /// Size of the corresponding cross-join (`n_x(e)`), i.e. the product of
    /// the other windows' cardinalities at probe time; zero for out-of-order
    /// tuples.
    pub n_cross: u64,
    /// Number of join results an out-of-order tuple would have derived and
    /// lost: counted, not emitted, against the other windows expired to
    /// `onT − W_j` — just before it was inserted if it was kept, and the
    /// same way if it was dropped.  Zero for in-order tuples.
    pub n_lost: u64,
    /// Number of tuples expired from other windows by this arrival: to
    /// `e.ts − W_j` for an in-order tuple, to `onT − W_j` for an
    /// out-of-order one, kept or dropped.
    pub expired: usize,
}

/// Aggregate counters over the operator's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorStats {
    /// Tuples processed in timestamp order (probing arrivals).
    pub in_order: u64,
    /// Tuples processed out of timestamp order (arrivals that produce no
    /// results, only count what they lost).
    pub out_of_order: u64,
    /// Out-of-order tuples that were too old to be inserted into their
    /// window and were dropped entirely.
    pub dropped: u64,
    /// Probing arrivals answered through the hash-indexed probe path
    /// (bucket lookups or barren-key short-circuits).
    pub indexed_probes: u64,
    /// Probing arrivals that used the exhaustive nested-loop scan — either
    /// because the plan is
    /// [`ProbePlan::NestedLoop`](crate::planner::ProbePlan::NestedLoop) or
    /// because index soundness could not be guaranteed for that probe.
    pub fallback_probes: u64,
    /// Total join results produced.
    pub results: u64,
    /// Total cross-join combinations corresponding to probing arrivals.
    pub cross_results: u64,
    /// Total expired tuples across all windows.
    pub expired: u64,
}

impl OperatorStats {
    /// Counts one tuple's outcome: an in-order tuple as a probe, indexed or
    /// not, an out-of-order one as dropped unless it was inserted; its
    /// results, cross-join size and expirations either way (an out-of-order
    /// outcome carries no results and no cross-join).
    #[inline] // once per tuple in the engine's executors, across the crate boundary
    pub fn record(&mut self, outcome: &ProbeOutcome) {
        if outcome.in_order {
            self.in_order += 1;
            if outcome.indexed {
                self.indexed_probes += 1;
            } else {
                self.fallback_probes += 1;
            }
        } else {
            self.out_of_order += 1;
            self.dropped += u64::from(!outcome.inserted);
        }
        self.results += outcome.n_join;
        self.cross_results += outcome.n_cross;
        self.expired += outcome.expired as u64;
    }
}
