//! Per-push outcomes and lifetime counters of the join operator.
//!
//! Both records are small `Copy` structs: [`ProbeOutcome`] describes what a
//! single pushed tuple did, [`OperatorStats`] accumulates the same
//! quantities over an operator's lifetime.  In a sharded engine every shard
//! owns an operator and hence its own `OperatorStats` — the engine's
//! aggregate view merges them with [`OperatorStats::absorb`] next to the
//! globally-decided counters (ordering, drops, expiry).

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
    /// that already fell out of the window scope are dropped).
    pub inserted: bool,
    /// Whether the probe was answered without scanning the other windows:
    /// through hash-index bucket lookups, or short-circuited because the
    /// probing key can never join (`Null`/missing).  `false` for
    /// nested-loop scans and for out-of-order (non-probing) arrivals.
    pub indexed: bool,
    /// Number of join results derived at this arrival (`n_on(e)`); zero for
    /// out-of-order tuples.
    pub n_join: u64,
    /// Size of the corresponding cross-join (`n_x(e)`), i.e. the product of
    /// the other windows' cardinalities at probe time; zero for out-of-order
    /// tuples.
    pub n_cross: u64,
    /// Number of tuples expired from other windows by this arrival.
    pub expired: usize,
}

/// Aggregate counters over the operator's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorStats {
    /// Tuples processed in timestamp order (probing arrivals).
    pub in_order: u64,
    /// Tuples processed out of timestamp order (non-probing arrivals).
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
    /// Tuples adopted into this operator's windows by state migration
    /// (hot-key splits and partition-pair switches), as opposed to stream
    /// ingestion — see [`MswjOperator::adopt`](super::MswjOperator::adopt).
    pub adopted: u64,
    /// Tuples surgically evicted from this operator's windows by state
    /// migration (split reverts and partition-pair switches), as opposed to
    /// window expiry — see
    /// [`MswjOperator::evict_where`](super::MswjOperator::evict_where).
    pub evicted: u64,
}

impl OperatorStats {
    /// Adds every counter of `other` into `self` — how a sharded engine
    /// folds per-shard counters into one aggregate view.
    pub fn absorb(&mut self, other: &OperatorStats) {
        self.in_order += other.in_order;
        self.out_of_order += other.out_of_order;
        self.dropped += other.dropped;
        self.indexed_probes += other.indexed_probes;
        self.fallback_probes += other.fallback_probes;
        self.results += other.results;
        self.cross_results += other.cross_results;
        self.expired += other.expired;
        self.adopted += other.adopted;
        self.evicted += other.evicted;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_every_counter() {
        let mut a = OperatorStats {
            in_order: 1,
            out_of_order: 2,
            dropped: 3,
            indexed_probes: 4,
            fallback_probes: 5,
            results: 6,
            cross_results: 7,
            expired: 8,
            adopted: 9,
            evicted: 10,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(
            a,
            OperatorStats {
                in_order: 2,
                out_of_order: 4,
                dropped: 6,
                indexed_probes: 8,
                fallback_probes: 10,
                results: 12,
                cross_results: 14,
                expired: 16,
                adopted: 18,
                evicted: 20,
            }
        );
    }
}
