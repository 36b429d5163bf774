//! Property tests for the segmented columnar window storage.
//!
//! The segment capacity (when a tail arena seals) is an access-path choice
//! only: after **any** interleaving of in-order/out-of-order inserts,
//! expirations and state surgery — over every value class — a window built
//! with a tiny capacity holds exactly the content, index answers and
//! candidate scans of a from-scratch rebuild into one effectively unsealed
//! segment.  This mirrors the PR 3 index property one structural level
//! down: there the index had to equal a rebuild, here the whole segmented
//! layout does.

use mswj::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// One generated operation against the window under test.
#[derive(Debug, Clone)]
enum Op {
    Insert { ts: u64, value: Option<Value> },
    Expire { bound: u64 },
    RetainMod { keep_residue: u64 },
}

/// Strategy producing a mixed-value operation stream: mostly integer-keyed
/// inserts (many of them out of order), with floats, strings, booleans,
/// nulls and missing columns mixed in, plus expirations and occasional
/// surgical removals.
fn ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u64..2_000, 0i64..6, 0usize..16), 1..len).prop_map(|items| {
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
                14 => Op::Expire { bound: ts },
                _ => Op::RetainMod {
                    keep_residue: (key as u64) % 3 + 2,
                },
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A window sealed every `capacity` rows is indistinguishable — content,
    /// counts, buckets, scans, candidate sets, bounds — from a from-scratch
    /// rebuild of its live tuples into a window that never seals.
    #[test]
    fn segmented_storage_mirrors_from_scratch_rebuild(
        ops in ops(250),
        capacity in 2usize..16,
    ) {
        let mut w = Window::with_segment_capacity(10_000, &[0], capacity);
        let mut seq = 0u64;
        for op in ops {
            match op {
                Op::Insert { ts, value } => {
                    let values = value.map(|v| vec![v]).unwrap_or_default();
                    w.insert(Tuple::new(0.into(), seq, Timestamp::from_millis(ts), values));
                    seq += 1;
                }
                Op::Expire { bound } => {
                    w.expire_before(Timestamp::from_millis(bound));
                }
                Op::RetainMod { keep_residue } => {
                    w.retain_where(|t| t.seq % keep_residue != 0);
                }
            }
        }

        // Rebuild the live content into one effectively unsealed segment.
        let mut rebuilt = Window::with_segment_capacity(10_000, &[0], 1 << 20);
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
            let a: Vec<u64> = w.matching(0, key).map(|t| t.seq).collect();
            let b: Vec<u64> = rebuilt.matching(0, key).map(|t| t.seq).collect();
            prop_assert_eq!(a, b, "bucket for key {} diverged", key);
        }

        // Zone-map pruning must never lose a joinable candidate: for every
        // probe key class, the pruned candidate set filtered by join_eq
        // equals the full scan filtered by join_eq.
        let probes = [
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(3.5),
            Value::Float(f64::NAN),
            Value::Str("s3".into()),
            Value::Bool(true),
        ];
        for probe in &probes {
            let pruned: Vec<u64> = w
                .scan_candidates(0, probe)
                .filter(|t| t.value(0).map(|v| v.join_eq(probe)).unwrap_or(false))
                .map(|t| t.seq)
                .collect();
            let full: Vec<u64> = w
                .iter()
                .filter(|t| t.value(0).map(|v| v.join_eq(probe)).unwrap_or(false))
                .map(|t| t.seq)
                .collect();
            prop_assert_eq!(pruned, full, "pruning lost a candidate for {:?}", probe);
        }
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
                Op::RetainMod { keep_residue } => {
                    w.retain_where(|t| t.seq % keep_residue != 0);
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
    /// order: after any interleaving of in-order and late inserts, expiry
    /// and surgery, every scan column has one entry per arena row and its
    /// suffix past the expired rows is, bit for bit, the NaN-sentinel image
    /// of the segment's live rows in timestamp order — whatever order they
    /// arrived in.  A band-join operator is the public way to get windows
    /// with a scan column: `adopt` inserts, a probing push of the other
    /// stream expires, `evict_where` is `retain_where`.
    #[test]
    fn scan_columns_mirror_the_row_arena(
        ops in ops(250),
        capacity in 2usize..16,
    ) {
        // Process-wide, but every other window in this binary is built with
        // an explicit capacity, so only this test's windows see it.
        set_default_segment_capacity(capacity);
        const WINDOW: u64 = 300;
        let schema = Schema::new(vec![("v", FieldType::Float)]);
        let streams = StreamSet::homogeneous(2, schema, WINDOW).unwrap();
        let cond = Arc::new(BandJoin::new(&streams, "v", 1.0).unwrap());
        let mut op = MswjOperator::new(JoinQuery::new("scan-props", streams, cond).unwrap());
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
                    op.adopt(Tuple::new(0.into(), seq, ts, values));
                    seq += 1;
                }
                Op::Expire { bound } => {
                    // A probing stream-1 arrival expires stream 0 up to
                    // `WINDOW` behind it (when it is in order itself).
                    let ts = Timestamp::from_millis(clock - bound % 50);
                    op.push(Tuple::new(1.into(), seq, ts, vec![Value::Float(0.0)]));
                    seq += 1;
                }
                Op::RetainMod { keep_residue } => {
                    op.evict_where(StreamIndex(0), |t| t.seq % keep_residue != 0);
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
