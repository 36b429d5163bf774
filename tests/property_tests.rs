//! Property-based tests (proptest) over the framework's core invariants.

use mswj::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn query(window: u64) -> JoinQuery {
    let streams =
        StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), window).unwrap();
    let condition = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
    JoinQuery::new("prop", streams, condition).unwrap()
}

/// Strategy producing an arrival sequence for one stream: increasing
/// generation instants with bounded random delays.
fn stream_events(
    stream: usize,
    len: usize,
    max_delay: u64,
) -> impl Strategy<Value = Vec<ArrivalEvent>> {
    proptest::collection::vec((0u64..=max_delay, 1i64..=8), len).prop_map(move |items| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// K-slack with a buffer of at least the maximum delay always emits a
    /// fully sorted stream.
    #[test]
    fn kslack_with_sufficient_buffer_sorts(delays in proptest::collection::vec(0u64..300, 1..200)) {
        let mut ks = mswj::core::KSlack::new(300);
        let mut out = Vec::new();
        for (i, d) in delays.iter().enumerate() {
            let arrival = (i as u64 + 1) * 5;
            let ts = arrival.saturating_sub(*d);
            ks.push_into(Tuple::marker(0.into(), i as u64, Timestamp::from_millis(ts)), &mut out);
        }
        ks.flush_into(&mut out);
        let ts: Vec<u64> = out.iter().map(|t| t.ts.as_millis()).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        prop_assert_eq!(ts, sorted);
        prop_assert_eq!(out.len(), delays.len());
    }

    /// The synchronizer never loses or duplicates tuples, and its output is
    /// globally ordered whenever its inputs are ordered per stream.
    #[test]
    fn synchronizer_preserves_tuples(
        s0 in proptest::collection::vec(1u64..500, 1..80),
        s1 in proptest::collection::vec(1u64..500, 1..80),
    ) {
        let mut a = s0.clone(); a.sort_unstable();
        let mut b = s1.clone(); b.sort_unstable();
        let mut sync = mswj::core::Synchronizer::new(2);
        let mut out = Vec::new();
        let mut ia = 0; let mut ib = 0;
        let mut seq = 0u64;
        while ia < a.len() || ib < b.len() {
            let take_a = ib >= b.len() || (ia < a.len() && a[ia] <= b[ib]);
            let (stream, ts) = if take_a { let v=(0usize, a[ia]); ia+=1; v } else { let v=(1usize, b[ib]); ib+=1; v };
            sync.push_into(Tuple::marker(stream.into(), seq, Timestamp::from_millis(ts)), &mut out);
            seq += 1;
        }
        sync.flush_into(&mut out);
        prop_assert_eq!(out.len(), a.len() + b.len());
        let ts: Vec<u64> = out.iter().map(|t| t.ts.as_millis()).collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        prop_assert_eq!(ts, sorted);
    }

    /// `ArrivalLog::from_events` is a pure function of the event *set*:
    /// equal-arrival-time events keep a stable, stream-index (then seq)
    /// tie-broken order no matter how the input is shuffled, and the
    /// heap-based `Interleaver` produces the identical global order from
    /// the per-stream sequences.
    #[test]
    fn arrival_order_is_deterministic_under_shuffling(
        s0 in stream_events(0, 50, 40),
        s1 in stream_events(1, 50, 40),
        seed in 0u64..1_000_000,
    ) {
        let per_stream = vec![s0.clone(), s1.clone()];
        let mut events: Vec<ArrivalEvent> = s0.into_iter().chain(s1).collect();
        let baseline = ArrivalLog::from_events(events.clone());

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
        let shuffled = ArrivalLog::from_events(events);
        prop_assert_eq!(&shuffled, &baseline);

        // Adjacent equal-arrival events are ordered by (stream, seq).
        for w in baseline.events().windows(2) {
            prop_assert!(w[0].arrival <= w[1].arrival);
            if w[0].arrival == w[1].arrival {
                prop_assert!(
                    (w[0].stream(), w[0].tuple.seq) < (w[1].stream(), w[1].tuple.seq),
                    "tie at {:?} not stream/seq-ordered", w[0].arrival
                );
            }
        }

        // The Interleaver agrees with from_events on the same inputs.
        let mut il = Interleaver::new();
        for stream in per_stream {
            il.add_stream(stream);
        }
        prop_assert_eq!(il.merge(), baseline);
    }

    /// The join operator never produces more results than the corresponding
    /// cross join, and its windows never retain expired tuples.
    #[test]
    fn operator_results_bounded_by_cross_join(events in stream_events(0, 60, 200), other in stream_events(1, 60, 200)) {
        let mut op = MswjOperator::new(query(500));
        let mut all: Vec<ArrivalEvent> = events.into_iter().chain(other).collect();
        all.sort_by_key(|e| e.arrival);
        for e in all {
            let outcome = op.push(e.tuple);
            prop_assert!(outcome.n_join <= outcome.n_cross.max(1) || outcome.n_cross == 0);
            if outcome.in_order {
                prop_assert!(outcome.n_join <= outcome.n_cross);
            } else {
                prop_assert_eq!(outcome.n_join, 0);
            }
        }
        // Window invariant: all retained tuples are within scope of onT.
        for s in 0..2usize {
            let w = op.window(StreamIndex(s));
            for t in w.iter() {
                prop_assert!(t.ts + 500 >= op.on_t() || w.size() >= 500);
            }
        }
    }

    /// The produced result count never exceeds the ground truth, and with a
    /// buffer covering every delay it matches it exactly.
    #[test]
    fn pipeline_never_exceeds_ground_truth(
        s0 in stream_events(0, 80, 150),
        s1 in stream_events(1, 80, 150),
    ) {
        let mut log_events: Vec<ArrivalEvent> = s0.into_iter().chain(s1).collect();
        log_events.sort_by_key(|e| e.arrival);
        let log = ArrivalLog::from_events(log_events.clone());
        let q = query(400);
        let truth = ground_truth_counts(&q, &log);

        for policy in [BufferPolicy::NoKSlack, BufferPolicy::FixedK(200), BufferPolicy::FixedK(2_000)] {
            let is_complete = matches!(policy, BufferPolicy::FixedK(2_000));
            let mut p = Pipeline::new(q.clone(), policy).unwrap();
            for e in &log_events {
                p.push(e.clone());
            }
            let report = p.finish();
            prop_assert!(report.total_produced <= truth.total());
            if is_complete {
                prop_assert_eq!(report.total_produced, truth.total());
            }
        }
    }

    /// The analytical recall model always yields values in [0, 1] and is
    /// monotone in K for a fixed selectivity ratio.
    #[test]
    fn recall_model_bounded_and_monotone(delays in proptest::collection::vec(0u64..2_000, 10..500)) {
        let inputs = mswj::core::ModelInputs {
            windows: vec![3_000, 3_000],
            histograms: vec![
                mswj::core::DelayHistogram::from_delays(10, delays.clone()),
                mswj::core::DelayHistogram::from_delays(10, delays),
            ],
            k_sync: vec![0, 0],
            basic_window: 10,
            granularity: 10,
        };
        let model = mswj::core::RecallModel::new(inputs);
        let mut last = 0.0f64;
        for k in (0..2_200).step_by(200) {
            let r = model.estimate_recall(k, 1.0);
            prop_assert!((0.0..=1.0).contains(&r));
            prop_assert!(r + 1e-9 >= last);
            last = r;
        }
        prop_assert!(model.estimate_recall(2_200, 1.0) > 0.999);
    }
}
