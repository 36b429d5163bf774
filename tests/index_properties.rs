//! Property tests for the window hash index and the indexed probe path.
//!
//! * After **any** interleaving of in-order/out-of-order inserts and
//!   expirations — including non-integer key values —
//!   a window's hash index is exactly the index a from-scratch rebuild of
//!   its live tuples would produce, and it always agrees with a plain scan.
//!   Both index kinds, key counts and postings, are checked side by side.
//! * The indexed probe's output is invariant under shuffling of the raw
//!   event list (the arrival log normalizes deterministically), and always
//!   identical to the forced nested-loop reference.

use mswj::prelude::*;
use proptest::prelude::*;

/// Strategy producing an arrival sequence for one stream: increasing
/// arrival instants with bounded random delays and small integer keys.
fn stream_events(
    stream: usize,
    len: usize,
    max_delay: u64,
) -> impl Strategy<Value = Vec<ArrivalEvent>> {
    proptest::collection::vec((0u64..=max_delay, 0i64..5), len).prop_map(move |items| {
        items
            .into_iter()
            .enumerate()
            .map(|(i, (delay, key))| {
                let arrival = (i as u64 + 1) * 10;
                let ts = arrival.saturating_sub(delay);
                ArrivalEvent::new(
                    Timestamp::from_millis(arrival),
                    Tuple::new(
                        stream.into(),
                        i as u64,
                        Timestamp::from_millis(ts),
                        vec![Value::Int(key)],
                    ),
                )
            })
            .collect()
    })
}

/// Runs a materializing fixed-K session over `events` with the given probe
/// strategy; returns the canonical result multiset and the run report.
fn run_session(events: &[ArrivalEvent], strategy: ProbeStrategy) -> (Vec<String>, RunReport) {
    let mut pipeline = Pipeline::builder()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 400)
        .on_common_key("a1")
        .policy(BufferPolicy::FixedK(100))
        .materialize_results()
        .probe(strategy)
        .build()
        .unwrap();
    let mut sink = CollectSink::default();
    for e in events {
        pipeline.push_into(e.clone(), &mut sink);
    }
    let report = pipeline.finish_into(&mut sink);
    let mut canon: Vec<String> = sink.results.iter().map(|r| r.to_string()).collect();
    canon.sort();
    (canon, report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The incrementally maintained hash index exactly mirrors a
    /// from-scratch rebuild of the window's live tuples, whatever the
    /// interleaving of in-order and late inserts, expirations (whole-segment
    /// drops included) and non-integer key values — for
    /// both index kinds, fed side by side: a counts window (what an
    /// operator keeps where its plan only counts) and a postings window
    /// (where a probe walks buckets).  The two agree after every operation.
    #[test]
    fn window_index_mirrors_from_scratch_rebuild(
        ops in proptest::collection::vec((0u64..2_000, 0i64..6, 0usize..13), 1..250),
        capacity in 2usize..=16,
    ) {
        let mut counts = Window::with_key_counts(10_000, &[0], capacity);
        let mut postings = Window::with_segment_capacity(10_000, &[0], capacity);
        let (mut seq, mut clock) = (0u64, 0u64);
        for (draw, key, kind) in ops {
            // A steadily advancing clock: most inserts append (sealing
            // segments at `capacity`), a quarter land up to 200 ms late.
            clock += 8;
            let value = match kind {
                // Mostly integer keys, with every other value class mixed in.
                0..=7 => Some(Value::Int(key)),
                8 => Some(Value::Float(key as f64)),
                9 => Some(Value::Null),
                10 => None, // tuple without the indexed column at all
                _ => {
                    let bound = Timestamp::from_millis(clock.saturating_sub(draw % 400));
                    prop_assert_eq!(counts.expire_before(bound), postings.expire_before(bound));
                    continue;
                }
            };
            let late = if draw % 4 == 0 { (draw / 4) % 200 } else { 0 };
            let ts = Timestamp::from_millis(clock.saturating_sub(late));
            let values = value.map(|v| vec![v]).unwrap_or_default();
            let tuple = Tuple::new(0.into(), seq, ts, values);
            counts.insert(tuple.clone());
            postings.insert(tuple);
            seq += 1;
            prop_assert_eq!(counts.len(), postings.len());
            prop_assert_eq!(counts.index_usable(0), postings.index_usable(0));
            prop_assert_eq!(counts.unindexable_count(0), postings.unindexable_count(0));
            for key in 0i64..6 {
                prop_assert_eq!(counts.count_key(0, key), postings.count_key(0, key));
            }
        }

        // Rebuild each index from scratch out of the surviving tuples, into
        // one unsealed segment of the same index kind.
        let rebuilds = [
            (&counts, Window::with_key_counts(10_000, &[0], 1 << 20)),
            (&postings, Window::with_indexed_columns(10_000, &[0])),
        ];
        for (w, mut rebuilt) in rebuilds {
            for t in w.iter() {
                rebuilt.insert(t.clone());
            }

            prop_assert_eq!(w.len(), rebuilt.len());
            prop_assert_eq!(w.unindexable_count(0), rebuilt.unindexable_count(0));
            prop_assert_eq!(w.index_usable(0), rebuilt.index_usable(0));
            let order = |w: &Window| w.iter().map(|t| t.seq).collect::<Vec<_>>();
            prop_assert_eq!(order(w), order(&postings), "iteration order diverged");
            for key in -1i64..=6 {
                prop_assert_eq!(w.count_key(0, key), rebuilt.count_key(0, key));
                prop_assert_eq!(w.count_key(0, key), postings.count_key(0, key));
                let live: Vec<u64> = w.matching(0, key).map(|t| t.seq).collect();
                let fresh: Vec<u64> = rebuilt.matching(0, key).map(|t| t.seq).collect();
                prop_assert_eq!(&live, &fresh, "bucket for key {} diverged", key);
                // And the bucket agrees with a plain scan of the live tuples.
                let scan: Vec<u64> = w
                    .iter()
                    .filter(|t| matches!(t.value(0), Some(Value::Int(k)) if *k == key))
                    .map(|t| t.seq)
                    .collect();
                prop_assert_eq!(live, scan, "bucket for key {} disagrees with scan", key);
            }
        }
    }

    /// Shuffling the raw event list never changes the indexed session's
    /// output (the arrival log re-normalizes deterministically), and the
    /// output always equals the forced nested-loop reference.
    #[test]
    fn indexed_probe_output_is_shuffle_invariant(
        s0 in stream_events(0, 60, 150),
        s1 in stream_events(1, 60, 150),
        seed in 0u64..1_000_000,
    ) {
        let mut events: Vec<ArrivalEvent> = s0.into_iter().chain(s1).collect();
        let baseline_log = ArrivalLog::from_events(events.clone());
        let (baseline, baseline_report) = run_session(baseline_log.events(), ProbeStrategy::Auto);

        // Deterministic Fisher–Yates shuffle driven by an xorshift state.
        let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            state
        };
        for i in (1..events.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            events.swap(i, j);
        }
        let shuffled_log = ArrivalLog::from_events(events);
        let (shuffled, shuffled_report) = run_session(shuffled_log.events(), ProbeStrategy::Auto);
        prop_assert_eq!(&shuffled, &baseline, "indexed output must be shuffle-invariant");
        prop_assert_eq!(shuffled_report.total_produced, baseline_report.total_produced);

        // Differential against the exhaustive reference on the same log.
        let (scan, scan_report) = run_session(shuffled_log.events(), ProbeStrategy::NestedLoop);
        prop_assert_eq!(&scan, &baseline);
        prop_assert_eq!(scan_report.operator_stats.indexed_probes, 0);

        // Pure integer keys: the indexed session never falls back, and the
        // probe counters partition the in-order arrivals.
        let stats = baseline_report.operator_stats;
        prop_assert_eq!(stats.fallback_probes, 0);
        prop_assert_eq!(stats.indexed_probes, stats.in_order);
    }
}
