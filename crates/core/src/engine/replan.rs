//! Runtime re-planning of the star partition pair for the sharded join
//! stage.
//!
//! The probe plan is chosen once, from the query shape alone — before a
//! single tuple has been seen.  Star partitioning key-routes the anchor
//! with *one* satellite and broadcasts the rest — and a broadcast stream
//! pays for every tuple on every shard (insert, index maintenance, expiry,
//! replicated window state).  The planner picks the first satellite
//! blindly; once the engine has observed live window cardinalities
//! (through the global occupancy tracker), the satellite that deserves the
//! key-routed slot is the *heaviest* one, leaving only light streams on
//! the broadcast path.
//!
//! The engine weighs a **pair switch** at the same idle barriers that
//! close heavy-hitter detection windows — no work in flight, decisions
//! taken from engine-global (backend-invariant) statistics, every
//! transition recorded.  Like heavy-hitter detection, evaluation is
//! **windowed** with an evidence floor (64 in-order probes), and a switch
//! needs a 1.5× cardinality gap, so near-equal satellites cannot flap the
//! pair.  The probe path itself — each window's index kind and the order
//! a probe visits the windows in — is fixed when the shard operators are
//! built.

use super::JoinEngine;
use mswj_join::{join_key_hash, Partitioner, ProbePlan};
use mswj_obs::EventKind;
use mswj_types::{Timestamp, Tuple};

/// Minimum in-order probes in an evaluation window before a revision is
/// judged; thinner windows carry forward to the next barrier.
const MIN_PROBES: u64 = 64;

/// A pair switch needs the heaviest satellite's live cardinality to exceed
/// `SWITCH_RATIO` times the current partner's — the hysteresis band that
/// keeps near-equal satellites from trading places.
const SWITCH_RATIO: f64 = 1.5;

/// One star pair switch taken by the runtime re-planner, in decision
/// order: the satellite key-routed with the anchor changed from stream
/// `from` to stream `to`, and the affected window state migrated between
/// shards at the barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanTransition {
    /// The satellite previously paired with the anchor.
    pub from: usize,
    /// The satellite now paired with the anchor (the highest observed live
    /// cardinality — key-routing it takes its volume off the broadcast
    /// path).
    pub to: usize,
    /// The engine's global high-water mark `onT` at the decision barrier.
    pub(crate) at: Timestamp,
}

/// The replan driver: the pair switch the engine weighs at an idle barrier
/// and the state migration it needs.  An `impl` block on
/// the engine, next to the re-planner's state and rules.
impl JoinEngine {
    /// Evaluates a pair switch for the closing window, when the window
    /// holds enough probes to judge.  Like heavy-hitter detection, this
    /// runs from `JoinEngine::at_idle_barrier` only and takes every
    /// decision from engine-global statistics — occupancy cardinalities
    /// and the sequential-equivalent stats — so all backends revise the
    /// plan at the same points, identically.
    pub(super) fn evaluate_replan(&mut self) {
        let probes = self.stats.in_order;
        if probes - self.replan_base < MIN_PROBES {
            return; // Too thin to judge: carry the window forward.
        }
        self.consider_pair_switch();
        // Start a fresh evaluation window.
        self.replan_base = probes;
    }

    /// Re-selects the star partition pair when a satellite outside the
    /// pair carries `SWITCH_RATIO` times the live
    /// cardinality of the current partner — a broadcast stream pays for
    /// every tuple on every shard, so the heaviest satellite belongs in
    /// the key-routed slot and only light streams on the broadcast path.
    /// The affected window state migrates at this barrier and the routing
    /// epoch is bumped.
    fn consider_pair_switch(&mut self) {
        let ProbePlan::Star { anchor, .. } = &self.plan else {
            return;
        };
        let anchor = *anchor;
        if self.shard_count() <= 1 {
            return;
        }
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
        if cand_n < SWITCH_RATIO * cur_n {
            return; // Inside the hysteresis band.
        }
        self.apply_pair_switch(anchor, current, candidate);
        self.plan_transitions.push(PlanTransition {
            from: current,
            to: candidate,
            at: self.on_t,
        });
        self.telemetry_event(
            EventKind::PlanRevision,
            format!(
                "star pair switched: satellite {current} -> {candidate} (window state migrated)"
            ),
        );
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
        // In-flight epochs must never straddle a routing change (they
        // cannot — the engine is idle), and the pipeline's routing-epoch
        // sanity checks should see it.
        self.routing_epoch += 1;
        for s in 0..n {
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
