//! Key partitioning: which shard of a sharded join engine owns a tuple.
//!
//! A sharded engine (see `mswj-core`'s `engine` module) splits the join
//! state — windows plus their hash indexes — across `n` independent shards
//! and routes every tuple by its equi-join key, so that any combination of
//! tuples that can satisfy the join meets inside exactly one shard.  The
//! routing rules are derived from the same [`ProbePlan`] that drives the
//! indexed probe path:
//!
//! * **Common-key plans** route every stream by its key column: a result
//!   combination shares one key, so all of its members hash to the same
//!   shard.
//! * **Star plans** pick one *partition pair* — the anchor column and the
//!   paired column of the lowest-numbered satellite — and route the anchor
//!   and that satellite by it; every other satellite is **broadcast** (it
//!   is inserted into, and probes, every shard).  Each result combination
//!   contains exactly one anchor tuple, which lives in exactly one shard,
//!   so broadcast probes never duplicate results.
//! * **Nested-loop plans** expose no key at all: the partitioner degrades
//!   to a single broadcast shard, keeping arbitrary conditions exactly as
//!   correct as the unsharded operator.
//!
//! ## Hashing must follow `join_eq`
//!
//! Routing is only sound if two values that can satisfy the equi-join land
//! in the same shard.  [`Value::join_eq`] equates integers with floats
//! numerically (`Int(4) == Float(4.0)`), so [`join_key_hash`] canonicalizes
//! integral floats to their integer form before hashing; `Null` and missing
//! keys join nothing and are pinned to a fixed shard.  The property harness
//! in `tests/partition_properties.rs` pins `join_eq(a, b) ⇒ hash(a) ==
//! hash(b)` under randomized values.
//!
//! ## Hot-key splitting
//!
//! Hash routing degrades under skew: a Zipf hot key pins its entire key
//! class — build state *and* probe work — to one shard, so "n shards"
//! behaves like one.  The cure is *replicated build / split probe*: a hot
//! key's inserts fan out to **every** shard's build state while each of its
//! probes runs on exactly **one** shard, so probe work spreads while any
//! single probe still sees the full key class.  Which key classes are
//! currently split lives in a [`RoutingTable`] — the one piece of *mutable*
//! routing state, versioned by an epoch counter so an engine can assert
//! that routing never changes while work is in flight.  [`Partitioner`]
//! itself stays pure: [`Partitioner::route_with`] maps a tuple plus a table
//! snapshot to a [`Route`], returning [`Route::Split`] for split classes.
//!
//! Splitting is only sound when every stream is key-routed
//! ([`Partitioner::supports_splitting`]): a broadcast stream (star
//! satellites outside the partition pair) probes *every* shard, and
//! replicated build tuples would then match once per shard and duplicate
//! results.
//!
//! ```
//! use mswj_join::{join_key_hash, Partitioner, ProbePlan, Route, RoutingTable};
//! use mswj_types::{Timestamp, Tuple, Value};
//!
//! let plan = ProbePlan::CommonKey { columns: vec![0, 0] };
//! let partitioner = Partitioner::new(&plan, 4);
//! assert!(partitioner.supports_splitting());
//!
//! let hot = Tuple::new(0.into(), 0, Timestamp::ZERO, vec![Value::Int(7)]);
//! let mut table = RoutingTable::new();
//! assert_eq!(partitioner.route_with(&hot, &table), partitioner.route(&hot));
//!
//! let class = partitioner.key_hash(&hot).unwrap();
//! assert!(table.split(class));
//! assert_eq!(table.epoch(), 1);
//! assert_eq!(partitioner.route_with(&hot, &table), Route::Split);
//! ```
//!
//! [`Value::join_eq`]: mswj_types::Value::join_eq

use crate::planner::ProbePlan;
use mswj_types::{Tuple, Value};

/// Where one tuple must be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The tuple is owned by exactly one shard: insert there, probe there.
    One(usize),
    /// The tuple belongs to a broadcast stream: insert into and probe every
    /// shard (star satellites outside the partition pair).
    All,
    /// The tuple's key class is split (see [`RoutingTable`]): insert into
    /// every shard's build state, probe on exactly one shard of the
    /// caller's choosing (round-robin or least-loaded — any single shard
    /// sees the full replicated key class).
    Split,
}

/// The mutable half of split routing: which key classes (by
/// [`join_key_hash`]) are currently *replicated-build / split-probe*,
/// versioned by an epoch counter.
///
/// Every mutation bumps [`epoch`](RoutingTable::epoch), which lets an
/// engine tag in-flight work with the epoch it was routed under and assert
/// that routing only ever changes at a barrier (no work outstanding).  The
/// set itself is kept sorted so membership is a binary search and the
/// split-class listing is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingTable {
    split: Vec<u64>,
    epoch: u64,
}

impl RoutingTable {
    /// An empty table: nothing split, epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The version of the table: bumped by one on every effective
    /// [`split`](RoutingTable::split) / [`unsplit`](RoutingTable::unsplit).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the key class `hash` is currently split.
    pub fn is_split(&self, hash: u64) -> bool {
        self.split.binary_search(&hash).is_ok()
    }

    /// Marks the key class `hash` as split.  Returns `true` (and bumps the
    /// epoch) if the class was not already split.
    pub fn split(&mut self, hash: u64) -> bool {
        match self.split.binary_search(&hash) {
            Ok(_) => false,
            Err(at) => {
                self.split.insert(at, hash);
                self.epoch += 1;
                true
            }
        }
    }

    /// Reverts the key class `hash` to plain hash routing.  Returns `true`
    /// (and bumps the epoch) if the class was split.
    pub fn unsplit(&mut self, hash: u64) -> bool {
        match self.split.binary_search(&hash) {
            Ok(at) => {
                self.split.remove(at);
                self.epoch += 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Bumps the epoch without touching the split set — the marker for a
    /// routing change that lives *outside* the table, such as a star
    /// partition-pair switch rebuilding the [`Partitioner`] itself.  Any
    /// in-flight work tagged with the old epoch is thereby invalidated, so
    /// callers must only do this at a barrier.
    pub fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The currently split key classes, sorted ascending.
    pub fn split_classes(&self) -> &[u64] {
        &self.split
    }

    /// Number of split key classes.
    pub fn len(&self) -> usize {
        self.split.len()
    }

    /// Whether no key class is split (plain hash routing everywhere).
    pub fn is_empty(&self) -> bool {
        self.split.is_empty()
    }
}

/// Per-stream routing rules derived from a [`ProbePlan`].
///
/// A `Partitioner` is pure and stateless: a tuple's route depends only on
/// its stream and its key value, never on engine state — which is what
/// keeps routing stable under buffer-size (K) changes and window expiry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioner {
    /// Routing column per stream; `None` broadcasts the stream.  An overall
    /// `None` means the plan exposes no key to partition on.
    columns: Option<Vec<Option<usize>>>,
    /// Number of shards actually usable under these rules (1 when the plan
    /// is unpartitionable).
    shards: usize,
}

impl Partitioner {
    /// Derives the routing rules for `requested` shards from a probe plan.
    ///
    /// Unpartitionable plans ([`ProbePlan::NestedLoop`]) fall back to one
    /// broadcast shard regardless of `requested`; `requested` is clamped to
    /// at least 1.
    pub fn new(plan: &ProbePlan, requested: usize) -> Self {
        // Star plans default to the pair shared with the lowest-numbered
        // satellite — the *blind* choice runtime re-planning may later
        // revise towards the heaviest observed-cardinality satellite.
        Self::with_star_partner(plan, requested, Self::default_star_partner(plan))
    }

    /// The partition partner [`Partitioner::new`] picks for a star plan:
    /// the lowest-numbered satellite.  `None` for non-star plans (and the
    /// degenerate satellite-free star).
    pub fn default_star_partner(plan: &ProbePlan) -> Option<usize> {
        match plan {
            ProbePlan::Star {
                anchor,
                anchor_cols,
                ..
            } => (0..anchor_cols.len()).find(|&j| j != *anchor),
            _ => None,
        }
    }

    /// Derives routing rules like [`Partitioner::new`], but partitions a
    /// star plan on the pair shared with the given satellite `partner`
    /// instead of the lowest-numbered one.  Runtime re-planning uses this
    /// to move the partition pair to the heaviest observed-cardinality
    /// satellite; `partner` is ignored for non-star plans.
    ///
    /// # Panics
    ///
    /// Panics if `partner` names the anchor or an out-of-range stream of a
    /// star plan.
    pub fn with_star_partner(plan: &ProbePlan, requested: usize, partner: Option<usize>) -> Self {
        let requested = requested.max(1);
        let columns = match plan {
            ProbePlan::CommonKey { columns } => {
                Some(columns.iter().map(|&c| Some(c)).collect::<Vec<_>>())
            }
            ProbePlan::Star {
                anchor,
                anchor_cols,
                other_cols,
            } => {
                // Partition on the pair shared with `partner`; every other
                // satellite broadcasts.
                partner.map(|j0| {
                    assert!(
                        j0 != *anchor && j0 < anchor_cols.len(),
                        "star partition partner must be a satellite stream"
                    );
                    (0..anchor_cols.len())
                        .map(|j| {
                            if j == *anchor {
                                Some(anchor_cols[j0])
                            } else if j == j0 {
                                Some(other_cols[j0])
                            } else {
                                None
                            }
                        })
                        .collect()
                })
            }
            ProbePlan::NestedLoop => None,
        };
        let shards = if columns.is_some() { requested } else { 1 };
        Partitioner { columns, shards }
    }

    /// The number of shards these rules can actually feed (1 when the plan
    /// is unpartitionable, the requested count otherwise).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Whether the plan exposed a key to partition on.
    pub fn is_partitioned(&self) -> bool {
        self.columns.is_some() && self.shards > 1
    }

    /// The routing column of stream `i`, if that stream is key-routed
    /// (`None` for broadcast streams and unpartitionable plans).
    pub fn column(&self, i: usize) -> Option<usize> {
        self.columns.as_ref().and_then(|cols| cols[i])
    }

    /// Routes one tuple under plain hash routing (no split classes).
    pub fn route(&self, tuple: &Tuple) -> Route {
        match self.key_hash(tuple) {
            Some(hash) => Route::One(self.home_shard(hash)),
            None if self.columns.is_some() => Route::All,
            None => Route::One(0),
        }
    }

    /// Routes one tuple under the split classes of `table`: key-routed
    /// tuples whose key class is split get [`Route::Split`], everything
    /// else routes exactly as [`route`](Partitioner::route).  With an empty
    /// table the two are identical.
    pub fn route_with(&self, tuple: &Tuple, table: &RoutingTable) -> Route {
        match self.key_hash(tuple) {
            Some(hash) if table.is_split(hash) => Route::Split,
            Some(hash) => Route::One(self.home_shard(hash)),
            None if self.columns.is_some() => Route::All,
            None => Route::One(0),
        }
    }

    /// The [`join_key_hash`] class of this tuple's routing key, or `None`
    /// when the tuple's stream is broadcast or the plan is unpartitionable.
    pub fn key_hash(&self, tuple: &Tuple) -> Option<u64> {
        let cols = self.columns.as_ref()?;
        let col = cols[tuple.stream.as_usize()]?;
        Some(join_key_hash(tuple.value(col)))
    }

    /// The shard that owns key class `hash` under plain hash routing — and
    /// that keeps the authoritative copy of its build state while the class
    /// is split.
    pub fn home_shard(&self, hash: u64) -> usize {
        Self::home_of(hash, self.shards)
    }

    /// The home rule itself: key class `hash` lives on shard
    /// `hash % shards`.  Spelled out here and nowhere else, so a shard
    /// server retaining its home slice ([`MswjOperator::retain_home`]) and
    /// the routing front cannot disagree.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    ///
    /// [`MswjOperator::retain_home`]: crate::MswjOperator::retain_home
    pub fn home_of(hash: u64, shards: usize) -> usize {
        (hash % shards as u64) as usize
    }

    /// Whether hot-key splitting is sound under these rules: every stream
    /// must be key-routed.  A broadcast stream probes every shard, so a
    /// replicated build tuple would match once per shard and duplicate
    /// results; star plans with broadcast satellites and unpartitionable
    /// plans therefore must not split.
    pub fn supports_splitting(&self) -> bool {
        self.shards > 1
            && self
                .columns
                .as_ref()
                .is_some_and(|cols| cols.iter().all(Option::is_some))
    }
}

/// Magnitude bound (2⁵³) below which every `i64` survives the `as f64`
/// round-trip exactly.  At or beyond it, [`Value::join_eq`]'s lossy
/// coercion is not even transitive — `Int(2⁵³)` and `Int(2⁵³ + 1)` both
/// join `Float(2⁵³)` without joining each other — so no per-value hash can
/// be consistent there and the whole magnitude class is pinned to one
/// fixed hash instead.
const EXACT_INT_BOUND: f64 = 9_007_199_254_740_992.0;

/// Hashes one join-key value such that `a.join_eq(b)` implies
/// `join_key_hash(a) == join_key_hash(b)`.
///
/// Integers and integral floats share the integer hash (numeric coercion);
/// non-integral floats hash their canonical bit pattern (`-0.0` folds into
/// `0.0` first); strings and booleans hash structurally.  `Null` and
/// missing values join nothing, so their fixed placement is arbitrary but
/// deterministic.  Each family carries a distinct tag so unrelated types
/// only collide by chance, never systematically.
///
/// Numeric values at magnitude ≥ 2⁵³ — where `join_eq`'s `i64 → f64`
/// coercion loses precision and stops being transitive — all collapse into
/// one pinned class.  The class is closed under `join_eq` (a value below
/// the bound coerces exactly, so it can only ever join values below the
/// bound), which keeps routing sound at the price of co-locating
/// astronomically-keyed tuples on one shard.
pub fn join_key_hash(value: Option<&Value>) -> u64 {
    match value {
        None | Some(Value::Null) => 0,
        Some(Value::Int(i)) => {
            if i.unsigned_abs() >= EXACT_INT_BOUND as u64 {
                mix(5, 0)
            } else {
                mix(1, *i as u64)
            }
        }
        Some(Value::Float(f)) => {
            // Fold -0.0 into 0.0 (they compare equal), then canonicalize
            // exactly-representable integral floats to the integer they
            // join with.  Finite floats at magnitude ≥ 2⁵³ (necessarily
            // integral — the f64 grid spacing is ≥ 1 there) fall into the
            // pinned lossy-coercion class; everything else — non-integral
            // floats, infinities, NaN — only ever joins a bit-identical
            // float, so its bit pattern is a safe class representative.
            let f = if *f == 0.0 { 0.0 } else { *f };
            if f.fract() == 0.0 && f.abs() < EXACT_INT_BOUND {
                mix(1, f as i64 as u64)
            } else if f.is_finite() && f.abs() >= EXACT_INT_BOUND {
                mix(5, 0)
            } else {
                mix(2, f.to_bits())
            }
        }
        Some(Value::Str(s)) => {
            // FNV-1a over the bytes, then the avalanche mix.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in s.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            mix(3, h)
        }
        Some(Value::Bool(b)) => mix(4, u64::from(*b)),
    }
}

/// SplitMix64 finalizer over a tagged payload: deterministic across
/// platforms and processes (unlike `DefaultHasher`), with full avalanche so
/// `hash % shards` spreads consecutive integer keys evenly.
fn mix(tag: u64, payload: u64) -> u64 {
    let mut z = payload ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_types::{StreamIndex, Timestamp};

    fn tup(stream: usize, v: Value) -> Tuple {
        Tuple::new(StreamIndex(stream), 0, Timestamp::ZERO, vec![v])
    }

    #[test]
    fn join_eq_classes_hash_identically() {
        let cases = [
            (Value::Int(4), Value::Float(4.0)),
            (Value::Int(-7), Value::Float(-7.0)),
            (Value::Int(0), Value::Float(-0.0)),
            (Value::Float(2.5), Value::Float(2.5)),
            (Value::Str("abc".into()), Value::Str("abc".into())),
            (Value::Bool(true), Value::Bool(true)),
        ];
        for (a, b) in cases {
            assert!(a.join_eq(&b), "{a:?} must join_eq {b:?}");
            assert_eq!(
                join_key_hash(Some(&a)),
                join_key_hash(Some(&b)),
                "join_eq-equal values must share a hash: {a:?} vs {b:?}"
            );
        }
        assert_eq!(join_key_hash(None), join_key_hash(Some(&Value::Null)));
    }

    #[test]
    fn lossy_coercion_magnitudes_share_the_pinned_class() {
        // Beyond 2^53, join_eq's `i64 as f64` coercion is lossy and not
        // transitive: Int(2^53) and Int(2^53 + 1) both join Float(2^53)
        // without joining each other.  All such values must share a hash.
        let big = 9_007_199_254_740_992i64; // 2^53
        let cases = [
            (Value::Int(big + 1), Value::Float(big as f64)),
            (Value::Int(big), Value::Float(big as f64)),
            (Value::Int(i64::MAX), Value::Float(2f64.powi(63))),
            (Value::Int(i64::MIN), Value::Float(-(2f64.powi(63)))),
            (Value::Float(2f64.powi(60)), Value::Int(1 << 60)),
        ];
        for (a, b) in cases {
            assert!(a.join_eq(&b), "{a:?} must join_eq {b:?}");
            assert_eq!(
                join_key_hash(Some(&a)),
                join_key_hash(Some(&b)),
                "lossy-coercion pair must share a hash: {a:?} vs {b:?}"
            );
        }
        // Values below the bound keep their spread-out per-value hashes.
        assert_ne!(
            join_key_hash(Some(&Value::Int(big - 1))),
            join_key_hash(Some(&Value::Int(big - 2)))
        );
        // Non-finite floats only join bit-identical floats.
        assert_eq!(
            join_key_hash(Some(&Value::Float(f64::INFINITY))),
            join_key_hash(Some(&Value::Float(f64::INFINITY)))
        );
    }

    #[test]
    fn distinct_integer_keys_spread_across_shards() {
        let plan = ProbePlan::CommonKey {
            columns: vec![0, 0],
        };
        let p = Partitioner::new(&plan, 4);
        assert_eq!(p.shard_count(), 4);
        assert!(p.is_partitioned());
        assert_eq!(p.column(0), Some(0));
        let mut seen = [false; 4];
        for key in 0..64i64 {
            match p.route(&tup(0, Value::Int(key))) {
                Route::One(s) => seen[s] = true,
                other => panic!("common-key streams must be key-routed, got {other:?}"),
            }
        }
        assert!(seen.iter().all(|&s| s), "64 keys must reach all 4 shards");
    }

    #[test]
    fn equal_keys_route_to_the_same_shard_on_every_stream() {
        let plan = ProbePlan::CommonKey {
            columns: vec![0, 0, 0],
        };
        let p = Partitioner::new(&plan, 8);
        for key in -20i64..20 {
            let r0 = p.route(&tup(0, Value::Int(key)));
            let r1 = p.route(&tup(1, Value::Int(key)));
            let r2 = p.route(&tup(2, Value::Float(key as f64)));
            assert_eq!(r0, r1);
            assert_eq!(r0, r2, "coerced float keys must follow the int route");
        }
    }

    #[test]
    fn star_partitions_one_pair_and_broadcasts_the_rest() {
        let plan = ProbePlan::Star {
            anchor: 0,
            anchor_cols: vec![0, 0, 1],
            other_cols: vec![0, 0, 0],
        };
        let p = Partitioner::new(&plan, 4);
        assert_eq!(p.shard_count(), 4);
        assert_eq!(p.column(0), Some(0), "anchor routes by the pair-0 column");
        assert_eq!(p.column(1), Some(0), "satellite 1 routes by its column");
        assert_eq!(p.column(2), None, "satellite 2 broadcasts");
        // The anchor and its partition partner agree on equal keys.
        let anchor = Tuple::new(
            StreamIndex(0),
            0,
            Timestamp::ZERO,
            vec![Value::Int(9), Value::Int(1)],
        );
        assert_eq!(p.route(&anchor), p.route(&tup(1, Value::Int(9))));
        assert_eq!(p.route(&tup(2, Value::Int(9))), Route::All);
    }

    #[test]
    fn star_partner_can_be_re_selected() {
        let plan = ProbePlan::Star {
            anchor: 0,
            anchor_cols: vec![0, 0, 1],
            other_cols: vec![0, 0, 0],
        };
        assert_eq!(Partitioner::default_star_partner(&plan), Some(1));
        let p = Partitioner::with_star_partner(&plan, 4, Some(2));
        assert_eq!(p.column(0), Some(1), "anchor routes by the pair-2 column");
        assert_eq!(p.column(1), None, "satellite 1 now broadcasts");
        assert_eq!(p.column(2), Some(0), "satellite 2 routes by its column");
        // The anchor and the new partner agree on equal keys.
        let anchor = Tuple::new(
            StreamIndex(0),
            0,
            Timestamp::ZERO,
            vec![Value::Int(9), Value::Int(5)],
        );
        assert_eq!(p.route(&anchor), p.route(&tup(2, Value::Int(5))));
        assert_eq!(p.route(&tup(1, Value::Int(5))), Route::All);
        // The default partner reproduces `Partitioner::new` exactly.
        assert_eq!(
            Partitioner::with_star_partner(&plan, 4, Some(1)),
            Partitioner::new(&plan, 4)
        );
    }

    #[test]
    fn bump_epoch_versions_external_routing_changes() {
        let mut table = RoutingTable::new();
        table.split(42);
        assert_eq!(table.epoch(), 1);
        table.bump_epoch();
        assert_eq!(table.epoch(), 2, "a pair switch must version the table");
        assert_eq!(table.split_classes(), &[42], "the split set is untouched");
    }

    #[test]
    fn nested_loop_plans_fall_back_to_one_shard() {
        let p = Partitioner::new(&ProbePlan::NestedLoop, 8);
        assert_eq!(p.shard_count(), 1);
        assert!(!p.is_partitioned());
        assert_eq!(p.column(0), None);
        assert_eq!(p.route(&tup(0, Value::Int(5))), Route::One(0));
    }

    #[test]
    fn null_and_missing_keys_are_pinned() {
        let plan = ProbePlan::CommonKey {
            columns: vec![0, 0],
        };
        let p = Partitioner::new(&plan, 4);
        let null_route = p.route(&tup(0, Value::Null));
        let missing = Tuple::marker(StreamIndex(0), 0, Timestamp::ZERO);
        assert_eq!(p.route(&missing), null_route);
        assert!(matches!(null_route, Route::One(_)));
    }

    #[test]
    fn requested_shard_count_is_clamped() {
        let plan = ProbePlan::CommonKey {
            columns: vec![0, 0],
        };
        assert_eq!(Partitioner::new(&plan, 0).shard_count(), 1);
    }

    #[test]
    fn routing_table_versions_every_effective_change() {
        let mut table = RoutingTable::new();
        assert_eq!(table.epoch(), 0);
        assert!(table.is_empty());
        assert!(table.split(42));
        assert!(!table.split(42), "re-splitting must be a no-op");
        assert_eq!(table.epoch(), 1, "a no-op must not bump the epoch");
        assert!(table.split(7));
        assert_eq!(table.epoch(), 2);
        assert_eq!(table.split_classes(), &[7, 42], "classes stay sorted");
        assert!(table.is_split(7) && table.is_split(42) && !table.is_split(8));
        assert!(table.unsplit(7));
        assert!(!table.unsplit(7), "re-unsplitting must be a no-op");
        assert_eq!(table.epoch(), 3);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn split_classes_reroute_without_touching_the_rest() {
        let plan = ProbePlan::CommonKey {
            columns: vec![0, 0],
        };
        let p = Partitioner::new(&plan, 4);
        let hot = tup(0, Value::Int(7));
        let cold = tup(1, Value::Int(8));
        let mut table = RoutingTable::new();
        assert_eq!(p.route_with(&hot, &table), p.route(&hot));
        table.split(p.key_hash(&hot).unwrap());
        assert_eq!(p.route_with(&hot, &table), Route::Split);
        // The coerced float shares the key class, so it splits too.
        assert_eq!(
            p.route_with(&tup(1, Value::Float(7.0)), &table),
            Route::Split
        );
        assert_eq!(p.route_with(&cold, &table), p.route(&cold));
        // The home shard is where plain hashing would have sent the key.
        let home = p.home_shard(p.key_hash(&hot).unwrap());
        assert_eq!(p.route(&hot), Route::One(home));
        table.unsplit(p.key_hash(&hot).unwrap());
        assert_eq!(p.route_with(&hot, &table), p.route(&hot));
    }

    #[test]
    fn splitting_is_gated_to_fully_key_routed_plans() {
        let common = ProbePlan::CommonKey {
            columns: vec![0, 0],
        };
        assert!(Partitioner::new(&common, 4).supports_splitting());
        assert!(
            !Partitioner::new(&common, 1).supports_splitting(),
            "one shard has nothing to split across"
        );
        // Star plans broadcast satellites outside the partition pair: a
        // replicated build tuple would match once per probing shard.
        let star = ProbePlan::Star {
            anchor: 0,
            anchor_cols: vec![0, 0, 1],
            other_cols: vec![0, 0, 0],
        };
        let p = Partitioner::new(&star, 4);
        assert!(!p.supports_splitting());
        assert_eq!(
            p.key_hash(&tup(2, Value::Int(9))),
            None,
            "broadcast streams expose no key class"
        );
        assert!(!Partitioner::new(&ProbePlan::NestedLoop, 4).supports_splitting());
    }
}
