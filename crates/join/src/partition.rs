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
//! ## One home per key class
//!
//! A key class lives on its home shard ([`Partitioner::home_shard`]) for
//! the whole session: build state and probe work alike.  Under key skew
//! the hot class's home shard carries its whole share, which its `routed`
//! counter shows; the engine never moves a class.  Nothing
//! changes routing after construction — a star plan's partition pair
//! included.
//!
//! ```
//! use mswj_join::{Partitioner, ProbePlan, Route};
//! use mswj_types::{Timestamp, Tuple, Value};
//!
//! let plan = ProbePlan::CommonKey { columns: vec![0, 0] };
//! let partitioner = Partitioner::new(&plan, 4);
//!
//! let left = Tuple::new(0.into(), 0, Timestamp::ZERO, vec![Value::Int(7)]);
//! let right = Tuple::new(1.into(), 1, Timestamp::ZERO, vec![Value::Float(7.0)]);
//! let class = partitioner.key_hash(&left).unwrap();
//! assert_eq!(partitioner.key_hash(&right), Some(class), "7 joins 7.0");
//! let home = partitioner.home_shard(class);
//! assert_eq!(partitioner.route(&left), Route::One(home));
//! assert_eq!(partitioner.route(&right), Route::One(home));
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
    /// Never returned: a key class stays on its home shard.  The variant
    /// remains because `benchmark/src/trace.rs` matches on it; it goes
    /// with that trace mirror.
    Split,
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
    /// A star plan key-routes its anchor with the lowest-numbered
    /// satellite for the whole session, so declaring the heaviest
    /// satellite first keeps the most volume off the broadcast path.
    ///
    /// Unpartitionable plans ([`ProbePlan::NestedLoop`]) fall back to one
    /// broadcast shard regardless of `requested`; `requested` is clamped to
    /// at least 1.
    pub fn new(plan: &ProbePlan, requested: usize) -> Self {
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
                // Partition on the pair shared with the lowest-numbered
                // satellite; every other satellite broadcasts.
                (0..anchor_cols.len()).find(|&j| j != *anchor).map(|j0| {
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

    /// Routes one tuple: key-routed tuples to their key class's home
    /// shard, broadcast streams everywhere.
    pub fn route(&self, tuple: &Tuple) -> Route {
        match self.key_hash(tuple) {
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

    /// The shard that owns key class `hash` — its build state and its
    /// probe work: shard `hash % shards`.
    pub fn home_shard(&self, hash: u64) -> usize {
        (hash % self.shards as u64) as usize
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
        assert_eq!(
            p.key_hash(&tup(0, Value::Int(5))),
            Some(join_key_hash(Some(&Value::Int(5)))),
            "stream 0 is key-routed by its column 0"
        );
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
        // The anchor routes by the pair-0 column (its column 0, not the
        // column 1 it pairs with satellite 2), satellite 1 by its column.
        let anchor = Tuple::new(
            StreamIndex(0),
            0,
            Timestamp::ZERO,
            vec![Value::Int(9), Value::Int(1)],
        );
        let nine = Some(join_key_hash(Some(&Value::Int(9))));
        assert_eq!(
            p.key_hash(&anchor),
            nine,
            "anchor routes by the pair-0 column"
        );
        assert_eq!(
            p.key_hash(&tup(1, Value::Int(9))),
            nine,
            "satellite 1 routes by its column"
        );
        // The anchor and its partition partner agree on equal keys.
        assert_eq!(p.route(&anchor), p.route(&tup(1, Value::Int(9))));
        assert_eq!(p.route(&tup(2, Value::Int(9))), Route::All);
        assert_eq!(
            p.key_hash(&tup(2, Value::Int(9))),
            None,
            "broadcast streams expose no key class"
        );
    }

    #[test]
    fn nested_loop_plans_fall_back_to_one_shard() {
        let p = Partitioner::new(&ProbePlan::NestedLoop, 8);
        assert_eq!(p.shard_count(), 1);
        assert!(!p.is_partitioned());
        assert_eq!(
            p.key_hash(&tup(0, Value::Int(5))),
            None,
            "no stream is key-routed"
        );
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
}
