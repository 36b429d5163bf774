//! Runtime probe re-planning for the sharded join stage.
//!
//! The probe plan is chosen once, from the query shape alone — before a
//! single tuple has been seen.  Three of its decisions can turn out wrong
//! at runtime:
//!
//! * **The star partition pair.**  Star partitioning key-routes the anchor
//!   with *one* satellite and broadcasts the rest — and a broadcast
//!   stream pays for every tuple on every shard (insert, index
//!   maintenance, expiry, replicated window state).  The planner picks the
//!   first satellite blindly; once the engine has observed live window
//!   cardinalities (through the global occupancy tracker), the satellite
//!   that deserves the key-routed slot is the *heaviest* one, leaving only
//!   light streams on the broadcast path.
//! * **The probe chain order.**  The m-way probe visits windows in stream
//!   order.  Visiting the least-productive window first exits empty
//!   probes earliest, and observed per-stream match rates are the signal.
//! * **The hash index itself.**  Index maintenance only pays while probes
//!   actually take the indexed path; a workload stuck on the fallback
//!   scan (an unindexable key column, say) pays maintenance for nothing.
//!
//! The engine evaluates a **plan revision** for each of these at the same
//! idle barriers the skew layer uses — no work in flight, decisions taken
//! from engine-global (backend-invariant) statistics, every transition
//! recorded.  Like skew detection, evaluation is **windowed** with an
//! evidence floor ([`ReplanConfig::min_probes`]), and every action is
//! guarded by hysteresis so a borderline signal cannot flap the plan:
//! pair switches need a [`ReplanConfig::switch_ratio`] cardinality gap,
//! reorders a [`ReplanConfig::reorder_margin`] rate gap on every inverted
//! pair, and index demotion is one-way by construction (the dropped index
//! is never rebuilt).

use super::JoinEngine;
use mswj_join::{join_key_hash, Partitioner, ProbePlan};
use mswj_obs::EventKind;
use mswj_types::{Timestamp, Tuple};

/// Thresholds of runtime probe re-planning, set through
/// `SessionBuilder::runtime_replanning` /
/// `SessionBuilder::runtime_replanning_with`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplanConfig {
    /// Minimum in-order probes in an evaluation window before any revision
    /// is judged; thinner windows carry forward to the next barrier.
    /// Default 1024.
    pub min_probes: u64,
    /// A pair switch needs the heaviest satellite's live cardinality to
    /// exceed `switch_ratio` times the current partner's — the hysteresis
    /// band that keeps near-equal satellites from trading places.  Must be
    /// above 1.  Default 2.0.
    pub switch_ratio: f64,
    /// The hash index is demoted to the nested-loop scan once the
    /// evaluation window's fallback share (`fallback / (indexed +
    /// fallback)`) reaches this.  In `(0, 1]`; default 0.5.
    pub demote_fallback_share: f64,
    /// A probe reorder is adopted only if every stream pair it inverts
    /// differs in observed match rate by at least this factor.  Must be
    /// above 1.  Default 1.5.
    pub reorder_margin: f64,
}

impl Default for ReplanConfig {
    fn default() -> Self {
        ReplanConfig {
            min_probes: 1_024,
            switch_ratio: 2.0,
            demote_fallback_share: 0.5,
            reorder_margin: 1.5,
        }
    }
}

impl ReplanConfig {
    /// Validates the thresholds: `min_probes` positive, `switch_ratio` and
    /// `reorder_margin` strictly above 1 (they are hysteresis bands), and
    /// `demote_fallback_share` in `(0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        if self.min_probes == 0 {
            return Err("replan min_probes must be at least 1".into());
        }
        // `x > 1.0` written positively so NaN (incomparable) also fails.
        if !matches!(
            self.switch_ratio.partial_cmp(&1.0),
            Some(std::cmp::Ordering::Greater)
        ) {
            return Err(format!(
                "replan switch_ratio must be above 1, got {}",
                self.switch_ratio
            ));
        }
        if !(self.demote_fallback_share > 0.0 && self.demote_fallback_share <= 1.0) {
            return Err(format!(
                "replan demote_fallback_share must be in (0, 1], got {}",
                self.demote_fallback_share
            ));
        }
        if !matches!(
            self.reorder_margin.partial_cmp(&1.0),
            Some(std::cmp::Ordering::Greater)
        ) {
            return Err(format!(
                "replan reorder_margin must be above 1, got {}",
                self.reorder_margin
            ));
        }
        Ok(())
    }
}

/// What one plan revision did.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanAction {
    /// The star partition pair was re-selected: the satellite key-routed
    /// with the anchor changed from stream `from` to stream `to`, and the
    /// affected window state migrated between shards at the barrier.
    PairSwitch {
        /// The satellite previously paired with the anchor.
        from: usize,
        /// The satellite now paired with the anchor (the highest observed
        /// live cardinality — key-routing it takes its volume off the
        /// broadcast path).
        to: usize,
    },
    /// The m-way probe chain was reordered by observed match rates
    /// (ascending — least productive stream probed first).
    Reorder {
        /// The new probe order, a permutation of the stream indices.
        order: Vec<usize>,
    },
    /// The hash indexes were dropped on every shard: probes scan from now
    /// on, and inserts/expiry stop paying index maintenance.  One-way.
    DemoteIndex,
}

/// One plan revision taken by the runtime re-planner, in decision order.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanTransition {
    /// What changed.
    pub action: PlanAction,
    /// The engine's global high-water mark `onT` at the decision barrier.
    pub at: Timestamp,
}

/// Engine-global per-stream probe productivity: how many in-order tuples
/// of the stream probed, and how many results those probes produced.
/// Accounted at the single sequential-equivalent merge point, so every
/// backend observes identical tallies.
#[derive(Debug, Default, Clone, Copy)]
pub(super) struct StreamTally {
    /// In-order probes by tuples of this stream.
    pub(super) probes: u64,
    /// Join results those probes produced.
    pub(super) matches: u64,
}

impl StreamTally {
    /// Smoothed observed match rate (`(matches + 1) / (probes + 1)`), so
    /// streams with no probes yet compare as rate 1 instead of dividing by
    /// zero.
    pub(super) fn rate(&self) -> f64 {
        (self.matches + 1) as f64 / (self.probes + 1) as f64
    }
}

/// The re-planner's mutable state: the config plus the bases of the
/// current evaluation window and the revisions already in force.
#[derive(Debug)]
pub(super) struct ReplanState {
    pub(super) config: ReplanConfig,
    /// Total in-order probes at the last window reset.
    pub(super) probes_base: u64,
    /// `stats.indexed_probes` at the last window reset.
    pub(super) indexed_base: u64,
    /// `stats.fallback_probes` at the last window reset.
    pub(super) fallback_base: u64,
    /// Whether the one-way index demotion has been taken.
    pub(super) demoted: bool,
    /// The probe order currently in force on every shard.
    pub(super) order: Vec<usize>,
}

impl ReplanState {
    pub(super) fn new(config: ReplanConfig, m: usize) -> Self {
        debug_assert!(config.validate().is_ok(), "unvalidated replan config");
        ReplanState {
            config,
            probes_base: 0,
            indexed_base: 0,
            fallback_base: 0,
            demoted: false,
            order: (0..m).collect(),
        }
    }
}

/// The probe order the observed rates ask for: streams ascending by match
/// rate (least productive first — its window is the likeliest to cut a
/// probe short), ties broken by stream index so the candidate is
/// deterministic.
pub(super) fn reorder_candidate(tallies: &[StreamTally]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..tallies.len()).collect();
    order.sort_by(|&a, &b| {
        tallies[a]
            .rate()
            .partial_cmp(&tallies[b].rate())
            .expect("smoothed rates are finite")
            .then(a.cmp(&b))
    });
    order
}

/// Whether adopting `cand` over `cur` is decisive: every stream pair the
/// candidate inverts must differ in rate by at least `margin`.  A single
/// borderline inversion vetoes the whole reorder — the hysteresis that
/// keeps near-equal streams from swapping at every barrier.
pub(super) fn reorder_is_decisive(
    cur: &[usize],
    cand: &[usize],
    tallies: &[StreamTally],
    margin: f64,
) -> bool {
    let mut pos = vec![0usize; cur.len()];
    for (p, &s) in cur.iter().enumerate() {
        pos[s] = p;
    }
    for i in 0..cand.len() {
        for k in i + 1..cand.len() {
            let (a, b) = (cand[i], cand[k]);
            if pos[a] > pos[b] && tallies[b].rate() < margin * tallies[a].rate() {
                return false;
            }
        }
    }
    true
}

/// The replan driver: the three revisions the engine weighs at an idle
/// barrier and the state migration a pair switch needs.  An `impl` block on
/// the engine, next to the re-planner's state and rules.
impl JoinEngine {
    /// Evaluates a plan revision for the closing window, when re-planning
    /// is armed and the window holds enough probes to judge.  Like skew
    /// evaluation, this runs from `JoinEngine::at_idle_barrier` only and
    /// takes every decision from engine-global statistics — occupancy
    /// cardinalities, the sequential-equivalent stats and the per-stream
    /// tallies — so all backends revise the plan at the same points,
    /// identically.
    pub(super) fn evaluate_replan(&mut self) {
        let Some(state) = &self.replan else {
            return;
        };
        let config = state.config;
        let probes: u64 = self.tally.iter().map(|t| t.probes).sum();
        if probes - state.probes_base < config.min_probes {
            return; // Too thin to judge: carry the window forward.
        }
        self.consider_pair_switch(&config);
        self.consider_reorder(&config);
        self.consider_demotion(&config);
        // Start a fresh evaluation window.
        let state = self.replan.as_mut().expect("checked above");
        state.probes_base = probes;
        state.indexed_base = self.stats.indexed_probes;
        state.fallback_base = self.stats.fallback_probes;
    }

    /// Re-selects the star partition pair when a satellite outside the
    /// pair carries [`ReplanConfig::switch_ratio`] times the live
    /// cardinality of the current partner — a broadcast stream pays for
    /// every tuple on every shard, so the heaviest satellite belongs in
    /// the key-routed slot and only light streams on the broadcast path.
    /// The affected window state migrates at this barrier and the
    /// routing-table epoch is bumped, exactly like a skew transition.
    fn consider_pair_switch(&mut self, config: &ReplanConfig) {
        let ProbePlan::Star { anchor, .. } = &self.plan else {
            return;
        };
        let anchor = *anchor;
        if self.shard_count() <= 1 {
            return;
        }
        // Star plans never split (broadcast satellites), so the routing
        // table only ever carries the partitioner epoch here.
        debug_assert!(self.table.split_classes().is_empty());
        let Some(current) = self.star_partner else {
            return;
        };
        let candidate = (0..self.query.arity())
            .filter(|&j| j != anchor)
            .max_by_key(|&j| (self.occupancy.len(j), std::cmp::Reverse(j)))
            .expect("a star plan has at least one satellite");
        if candidate == current {
            return;
        }
        let cur_n = (self.occupancy.len(current) + 1) as f64;
        let cand_n = (self.occupancy.len(candidate) + 1) as f64;
        if cand_n < config.switch_ratio * cur_n {
            return; // Inside the hysteresis band.
        }
        self.apply_pair_switch(anchor, current, candidate);
        self.record_revision(
            PlanAction::PairSwitch {
                from: current,
                to: candidate,
            },
            format!(
                "star pair switched: satellite {current} -> {candidate} (window state migrated)"
            ),
        );
    }

    /// Records one applied plan revision, in decision order.
    fn record_revision(&mut self, action: PlanAction, message: String) {
        let at = self.on_t;
        self.plan_transitions.push(PlanTransition { action, at });
        self.telemetry_event(EventKind::PlanRevision, message);
    }

    /// Migrates window state from the partitioning `(anchor, from)` to
    /// `(anchor, to)` and swaps in the re-paired partitioner.  Runs at an
    /// idle barrier; every window that moves is snapshotted *before* any
    /// shard is mutated, so reads never observe a half-migrated peer.
    ///
    /// Three streams change routing mode:
    /// * the old partner goes key-routed → broadcast: each shard's
    ///   disjoint slice is replicated into every other shard;
    /// * the new partner goes broadcast → key-routed: every shard already
    ///   holds the full window and just retains its home slice;
    /// * the anchor is re-keyed onto the new pair column (unless both
    ///   pairs share it): each shard retains the tuples that still belong
    ///   to it and the misplaced remainder is adopted by its new home.
    fn apply_pair_switch(&mut self, anchor: usize, from: usize, to: usize) {
        let n = self.shard_count();
        let next =
            Partitioner::with_star_partner(&self.plan, self.backend.requested_shards(), Some(to));
        debug_assert_eq!(next.shard_count(), n, "a pair switch never re-shards");
        let from_slices: Vec<Vec<Tuple>> =
            (0..n).map(|s| self.shards.fetch_window(s, from)).collect();
        let anchor_rekeyed = self.partitioner.column(anchor) != next.column(anchor);
        let anchor_snaps: Vec<Vec<Tuple>> = if anchor_rekeyed {
            (0..n)
                .map(|s| self.shards.fetch_window(s, anchor))
                .collect()
        } else {
            Vec::new()
        };
        // Old partner: replicate each shard's slice into every other shard.
        for (s, slice) in from_slices.iter().enumerate() {
            if slice.is_empty() {
                continue;
            }
            for t in (0..n).filter(|&t| t != s) {
                self.adopt_into(t, slice);
            }
        }
        // New partner: every shard retains its home slice of the full
        // (previously broadcast) window.
        let to_col = next
            .column(to)
            .expect("the partner satellite is key-routed");
        for s in 0..n {
            self.shards.retain_home(s, to, to_col);
        }
        // Anchor: retain by new home, then deliver each misplaced tuple to
        // the shard that now owns it.
        if anchor_rekeyed {
            let col = next.column(anchor).expect("the anchor is key-routed");
            for s in 0..n {
                self.shards.retain_home(s, anchor, col);
            }
            for (s, snap) in anchor_snaps.iter().enumerate() {
                for target in (0..n).filter(|&t| t != s) {
                    let moved: Vec<Tuple> = snap
                        .iter()
                        .filter(|t| next.home_shard(join_key_hash(t.value(col))) == target)
                        .cloned()
                        .collect();
                    if !moved.is_empty() {
                        self.adopt_into(target, &moved);
                    }
                }
            }
        }
        self.partitioner = next;
        self.star_partner = Some(to);
        // Out-of-table routing change: in-flight epochs must never straddle
        // it (they cannot — the engine is idle), and the pipeline's
        // routing-epoch sanity checks should see it.
        self.table.bump_epoch();
        for s in 0..n {
            self.runtime[s].plan_revisions += 1;
        }
    }

    /// Reorders the m-way probe chain ascending by observed match rate —
    /// the least productive stream's window is probed first, so empty
    /// probes exit as early as possible.  Adopted only when every inverted
    /// stream pair clears [`ReplanConfig::reorder_margin`]; a reorder is a
    /// pure access-path change, the result multiset cannot move.
    fn consider_reorder(&mut self, config: &ReplanConfig) {
        let candidate = reorder_candidate(&self.tally);
        let state = self.replan.as_ref().expect("caller checked");
        if candidate == state.order
            || !reorder_is_decisive(&state.order, &candidate, &self.tally, config.reorder_margin)
        {
            return;
        }
        self.apply_revision(&candidate, false);
        self.replan.as_mut().expect("caller checked").order = candidate.clone();
        let message = format!("probe chain reordered by observed match rates: {candidate:?}");
        self.record_revision(PlanAction::Reorder { order: candidate }, message);
    }

    /// Demotes the hash index to the nested-loop scan once the closing
    /// window's fallback share reaches
    /// [`ReplanConfig::demote_fallback_share`] — probes were scanning
    /// anyway, so maintenance was pure overhead.  One-way: windows drop
    /// their indexes permanently, which is its own hysteresis.
    fn consider_demotion(&mut self, config: &ReplanConfig) {
        let state = self.replan.as_ref().expect("caller checked");
        if state.demoted || matches!(self.plan, ProbePlan::NestedLoop) {
            return;
        }
        let indexed = self.stats.indexed_probes - state.indexed_base;
        let fallback = self.stats.fallback_probes - state.fallback_base;
        if indexed + fallback == 0
            || (fallback as f64) < config.demote_fallback_share * (indexed + fallback) as f64
        {
            return;
        }
        self.apply_revision(&[], true);
        self.replan.as_mut().expect("caller checked").demoted = true;
        self.record_revision(
            PlanAction::DemoteIndex,
            format!(
                "hash index demoted to nested-loop scan (fallback share {:.3})",
                fallback as f64 / (indexed + fallback) as f64
            ),
        );
    }

    /// Applies a probe reorder and/or index demotion to every shard
    /// operator (an empty `order` leaves the order unchanged, matching the
    /// wire frame's contract).
    fn apply_revision(&mut self, order: &[usize], demote: bool) {
        for s in 0..self.shard_count() {
            self.shards.revise(s, order, demote);
            self.runtime[s].plan_revisions += 1;
        }
    }

    /// Adopts `tuples` into shard `s`'s windows (each tuple lands in its
    /// own stream's window), counting them as migrated.
    fn adopt_into(&mut self, s: usize, tuples: &[Tuple]) {
        self.runtime[s].migrated_tuples += tuples.len() as u64;
        self.shards.adopt(s, tuples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(probes: u64, matches: u64) -> StreamTally {
        StreamTally { probes, matches }
    }

    #[test]
    fn default_config_validates_and_bad_ones_do_not() {
        assert!(ReplanConfig::default().validate().is_ok());
        let c = ReplanConfig {
            min_probes: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ReplanConfig {
            switch_ratio: 1.0,
            ..Default::default()
        };
        assert!(c.validate().is_err(), "switch_ratio 1 has no hysteresis");
        let c = ReplanConfig {
            demote_fallback_share: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = ReplanConfig {
            reorder_margin: 0.9,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn reorder_candidate_sorts_ascending_by_rate_with_stable_ties() {
        // rates: 1.0 (untouched), ~0.01, ~2.0 → candidate [1, 0, 2].
        let t = [tally(0, 0), tally(99, 0), tally(99, 199)];
        assert_eq!(reorder_candidate(&t), vec![1, 0, 2]);
        // All equal: stream-index order, deterministically.
        let t = [tally(10, 10); 3];
        assert_eq!(reorder_candidate(&t), vec![0, 1, 2]);
    }

    #[test]
    fn borderline_inversions_are_vetoed() {
        // Streams 0 and 1 differ by under the margin; candidate swaps them.
        let t = [tally(99, 119), tally(99, 99), tally(99, 999)];
        let cur = [0, 1, 2];
        let cand = reorder_candidate(&t);
        assert_eq!(cand, vec![1, 0, 2]);
        assert!(
            !reorder_is_decisive(&cur, &cand, &t, 1.5),
            "a 1.2x gap must not clear a 1.5x margin"
        );
        assert!(
            reorder_is_decisive(&cur, &cand, &t, 1.1),
            "the same gap clears a 1.1x margin"
        );
        // Pairs the candidate keeps in place never veto.
        assert!(reorder_is_decisive(&cand, &cand, &t, 10.0));
    }
}
