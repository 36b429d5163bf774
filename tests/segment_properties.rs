//! Property tests for the segmented columnar window storage.
//!
//! When a tail arena seals — at the segment capacity, or earlier at the
//! window's live size once the tail has expired a row — is an access-path
//! choice only: after **any** interleaving of in-order/out-of-order
//! inserts and expirations — over every value class — a window built with
//! a tiny capacity, or with the default one on a sliding stream, holds
//! exactly the content and index answers of a from-scratch rebuild into
//! one effectively unsealed segment.  The index kind is an
//! access-path choice
//! too: a counts window and a postings window fed the same operations
//! agree with each other and with their rebuilds.  This mirrors the index
//! property of `tests/index_properties.rs` one structural level down: there
//! the index has to equal a rebuild, here the whole segmented layout does.

use mswj::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// One generated operation against the window under test.
#[derive(Debug, Clone)]
enum Op {
    Insert { ts: u64, value: Option<Value> },
    Expire { bound: u64 },
}

/// Strategy producing a mixed-value operation stream: mostly integer-keyed
/// inserts (many of them out of order), with floats, strings, booleans,
/// nulls and missing columns mixed in, plus expirations.
fn ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u64..2_000, 0i64..6, 0usize..15), 1..len).prop_map(|items| {
        items
            .into_iter()
            .map(|(ts, key, kind)| match kind {
                0..=8 => Op::Insert {
                    ts,
                    value: Some(Value::Int(key)),
                },
                9 => Op::Insert {
                    ts,
                    value: Some(Value::Float(key as f64 + 0.5)),
                },
                10 => Op::Insert {
                    ts,
                    value: Some(Value::Float(key as f64)),
                },
                11 => Op::Insert {
                    ts,
                    value: Some(Value::Str(format!("s{key}"))),
                },
                12 => Op::Insert {
                    ts,
                    value: Some(Value::Bool(key % 2 == 0)),
                },
                13 => Op::Insert {
                    ts,
                    value: Some(Value::Null),
                },
                _ => Op::Expire { bound: ts },
            })
            .collect()
    })
}

/// `JoinQuery::with_segment_capacity`'s default.
const DEFAULT_CAPACITY: usize = 1_024;

/// [`ops`] read as a sliding stream: one operation a millisecond on an
/// advancing clock, every fourth insert up to 150 ms late and every
/// expiry 150–300 ms behind the clock.  Some 110–300 rows stay live, so
/// the default capacity's tail seals at the live size, not at the
/// capacity.
fn sliding_ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    ops(len).prop_map(|ops| {
        let clock = |i: usize| 1_000 + i as u64;
        ops.into_iter()
            .enumerate()
            .map(|(i, op)| match op {
                Op::Insert { ts, value } => Op::Insert {
                    ts: clock(i) - if ts % 4 == 0 { ts % 150 } else { 0 },
                    value,
                },
                Op::Expire { bound } => Op::Expire {
                    bound: clock(i) - 150 - bound % 150,
                },
            })
            .collect()
    })
}

/// Feeds `ops` to a counts and a postings window sealing by `capacity`,
/// which must agree throughout and, at the end, mirror their rebuilds;
/// returns how many tail segments a window opened.
fn mirror_rebuild_after(ops: Vec<Op>, capacity: usize) -> usize {
    let mut windows = [
        Window::with_key_counts(10_000, &[0], capacity),
        Window::with_segment_capacity(10_000, &[0], capacity),
    ];
    let mut seq = 0u64;
    let mut opened = 0;
    for op in ops {
        let segments = windows[1].stats().segments;
        let [counts, postings] = &mut windows;
        match op {
            Op::Insert { ts, value } => {
                let values = value.map(|v| vec![v]).unwrap_or_default();
                let tuple = Tuple::new(0.into(), seq, Timestamp::from_millis(ts), values);
                counts.insert(tuple.clone());
                postings.insert(tuple);
                seq += 1;
            }
            Op::Expire { bound } => {
                let bound = Timestamp::from_millis(bound);
                prop_assert_eq!(counts.expire_before(bound), postings.expire_before(bound));
            }
        }
        prop_assert_eq!(counts.len(), postings.len());
        prop_assert_eq!(counts.stats(), postings.stats());
        opened += postings.stats().segments.saturating_sub(segments);
    }

    let [counts, postings] = &windows;
    // Rebuild the live content into one effectively unsealed segment
    // of the same index kind.
    assert_mirrors_rebuild(
        counts,
        Window::with_key_counts(10_000, &[0], 1 << 20),
        postings,
    );
    let rebuilt = Window::with_segment_capacity(10_000, &[0], 1 << 20);
    assert_mirrors_rebuild(postings, rebuilt, postings);
    opened
}

/// Asserts that `w` is indistinguishable from `rebuilt` (an empty window of
/// the same index kind) filled with `w`'s live tuples, and that its index
/// answers are those of `postings`.
fn assert_mirrors_rebuild(w: &Window, mut rebuilt: Window, postings: &Window) {
    for t in w.iter() {
        rebuilt.insert(t.clone());
    }

    prop_assert_eq!(w.len(), rebuilt.len());
    prop_assert_eq!(w.min_ts(), rebuilt.min_ts());
    prop_assert_eq!(w.max_ts(), rebuilt.max_ts());
    prop_assert_eq!(w.unindexable_count(0), rebuilt.unindexable_count(0));
    prop_assert_eq!(w.index_usable(0), rebuilt.index_usable(0));
    let live: Vec<(u64, u64)> = w.iter().map(|t| (t.seq, t.ts.as_millis())).collect();
    let fresh: Vec<(u64, u64)> = rebuilt.iter().map(|t| (t.seq, t.ts.as_millis())).collect();
    prop_assert_eq!(live, fresh, "iteration order diverged");

    for key in -1i64..=6 {
        prop_assert_eq!(w.count_key(0, key), rebuilt.count_key(0, key));
        prop_assert_eq!(w.count_key(0, key), postings.count_key(0, key));
        let a: Vec<u64> = w.matching(0, key).map(|t| t.seq).collect();
        let b: Vec<u64> = rebuilt.matching(0, key).map(|t| t.seq).collect();
        let c: Vec<u64> = postings.matching(0, key).map(|t| t.seq).collect();
        prop_assert_eq!(&a, &b, "bucket for key {} diverged", key);
        prop_assert_eq!(a, c, "the two index kinds disagree on key {}", key);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A window sealed every `capacity` rows, or at its live size on a
    /// sliding stream at the default capacity, is indistinguishable —
    /// content, counts, buckets, scans, bounds — from a from-scratch
    /// rebuild of its live tuples into a window that never seals, whichever
    /// index kind it keeps.
    #[test]
    fn segmented_storage_mirrors_from_scratch_rebuild(
        ops in ops(250),
        capacity in 2usize..=16,
        sliding in sliding_ops(1_500),
    ) {
        mirror_rebuild_after(ops, capacity);
        // Over at most ~1 400 inserts the 1 024-row capacity alone opens
        // at most two tails; every further one is a live-size seal.
        let len = sliding.len();
        let opened = mirror_rebuild_after(sliding, DEFAULT_CAPACITY);
        prop_assert!(len < 1_200 || opened > 2, "{} tails over {} ops", opened, len);
    }

    /// Storage-shape invariants hold under arbitrary operation streams: the
    /// live-byte estimate, the segment counts and the lifetime counters all
    /// stay consistent with the observable content.
    #[test]
    fn storage_shape_stats_stay_consistent(
        ops in ops(200),
        capacity in 2usize..12,
    ) {
        let mut w = Window::with_segment_capacity(10_000, &[0], capacity);
        let mut seq = 0u64;
        let mut inserted = 0u64;
        for op in ops {
            match op {
                Op::Insert { ts, value } => {
                    let values = value.map(|v| vec![v]).unwrap_or_default();
                    w.insert(Tuple::new(0.into(), seq, Timestamp::from_millis(ts), values));
                    seq += 1;
                    inserted += 1;
                }
                Op::Expire { bound } => {
                    w.expire_before(Timestamp::from_millis(bound));
                }
            }
            let s = w.stats();
            prop_assert_eq!(s.sealed_segments, s.segments.saturating_sub(1));
            prop_assert_eq!(s.segments == 0, w.is_empty());
            prop_assert_eq!(s.live_bytes_est == 0, w.is_empty());
            prop_assert!(w.len() <= s.peak_len);
        }
        let s = w.stats();
        prop_assert_eq!(s.inserted, inserted);
        prop_assert!(s.expired <= inserted, "cannot expire more than inserted");
        // Every tuple sits in the window exactly once: our rebuild clone
        // below plus the window's row makes two payload references.
        let rebuilt: Vec<Tuple> = w.iter().cloned().collect();
        for t in &rebuilt {
            prop_assert_eq!(t.payload_refs(), 2, "a tuple is stored more than once");
        }
    }

    /// Scan columns are an exact typed mirror of the live rows, in live
    /// order: after any interleaving of in-order and late inserts and
    /// expiry, every scan column has one entry per arena row and its
    /// suffix past the expired rows is, bit for bit, the NaN-sentinel image
    /// of the segment's live rows in timestamp order — whatever order they
    /// arrived in.  A band-join operator is the public way to get windows
    /// with a scan column: `insert_late` inserts without producing, a
    /// probing push of the other stream expires.
    #[test]
    fn scan_columns_mirror_the_row_arena(
        ops in ops(250),
        capacity in 2usize..16,
    ) {
        const WINDOW: u64 = 300;
        let schema = Schema::new(vec![("v", FieldType::Float)]);
        let streams = StreamSet::homogeneous(2, schema, WINDOW).unwrap();
        let cond = Arc::new(BandJoin::new(&streams, "v", 1.0).unwrap());
        let query = JoinQuery::new("scan-props", streams, cond).unwrap();
        let mut op = MswjOperator::new(query.with_segment_capacity(capacity));
        // The generated timestamps are uniform; read them as lateness on a
        // steadily advancing clock instead, so that most inserts append, a
        // quarter land late (shifting the images behind them), and expiry
        // keeps catching up with the late rows.
        let (mut seq, mut clock) = (0u64, 1_000u64);
        for o in ops {
            clock += 7;
            match o {
                Op::Insert { ts, value } => {
                    let lateness = if ts % 4 == 0 { ts % 150 } else { 0 };
                    let values = value.map(|v| vec![v]).unwrap_or_default();
                    let ts = Timestamp::from_millis(clock - lateness);
                    let on_t = op.on_t();
                    op.insert_late(Tuple::new(0.into(), seq, ts, values), on_t);
                    seq += 1;
                }
                Op::Expire { bound } => {
                    // A probing stream-1 arrival expires stream 0 up to
                    // `WINDOW` behind it (when it is in order itself).
                    let ts = Timestamp::from_millis(clock - bound % 50);
                    op.push(Tuple::new(1.into(), seq, ts, vec![Value::Float(0.0)]));
                    seq += 1;
                }
            }
            for i in 0..2 {
                let w = op.window(StreamIndex(i));
                prop_assert_eq!(w.check_scan_invariants(), Ok(()));
                // Timestamp order is what the kernel must reproduce.
                prop_assert!(w.iter().zip(w.iter().skip(1)).all(|(a, b)| a.ts <= b.ts));
            }
        }
    }
}
