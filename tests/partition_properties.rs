//! Property tests for the key partitioner and the sharded engine's state.
//!
//! * `join_eq(a, b)` implies `join_key_hash(a) == join_key_hash(b)` — the
//!   soundness condition of hash routing — under randomized values
//!   including the Int/Float numeric coercion.
//! * A tuple's shard depends only on its stream's routing column value:
//!   it is stable across streams, timestamps, sequence numbers, buffer-size
//!   (K) changes and window expiry — the partitioner is pure.
//! * After a randomized run with an adaptive policy (K shrinks *and*
//!   expands) on `Pool { workers: 3 }`, every live tuple sits in the shard the
//!   partitioner routes it to, and the in-scope window content per stream
//!   equals the sequential reference exactly.
//! * The resident pool's pipelined epochs merge deterministically: for
//!   arbitrary tuple streams chopped into arbitrary batch sizes (some
//!   below the inline threshold, some deferring an epoch across flush
//!   boundaries), the `Pool` engine emits the **exact ordered event
//!   stream** — results *and* per-tuple outcomes — of the sequential
//!   engine, which in turn emits exactly the stream of one bare operator.

use mswj::prelude::*;
use mswj_join::{join_key_hash, Partitioner, Route};
use proptest::prelude::*;

/// Random attribute values spanning every `Value` variant, over a small
/// domain so that `join_eq`-equal pairs — including the Int/Float numeric
/// coercion and the `-0.0`/`0.0` fold — actually occur, plus huge
/// magnitudes around 2^53/2^63 where the coercion turns lossy.
fn value_strategy() -> impl Strategy<Value = Value> {
    const BIG: i64 = 9_007_199_254_740_992; // 2^53
    (0usize..10, -20i64..20).prop_map(|(variant, v)| match variant {
        0 => Value::Int(v),
        1 => Value::Float(v as f64),
        2 => Value::Float(v as f64 + 0.5),
        3 => Value::Str(format!("s{}", v.rem_euclid(3))),
        4 => Value::Bool(v % 2 == 0),
        5 => Value::Null,
        6 => Value::Float(0.0),
        7 => Value::Int(if v % 2 == 0 {
            BIG + v.abs()
        } else {
            i64::MAX - v.abs()
        }),
        8 => Value::Float((BIG + v) as f64),
        _ => Value::Float(-0.0),
    })
}

proptest! {
    #[test]
    fn join_eq_implies_equal_hash(a in value_strategy(), b in value_strategy()) {
        if a.join_eq(&b) {
            prop_assert_eq!(
                join_key_hash(Some(&a)),
                join_key_hash(Some(&b)),
                "{:?} join_eq {:?} but hashes differ", a, b
            );
        }
    }

    #[test]
    fn route_depends_only_on_the_key(
        key in value_strategy(),
        ts_a in 0u64..1_000_000,
        ts_b in 0u64..1_000_000,
        seq in 0u64..1_000,
        shards in 1usize..9,
    ) {
        let plan = ProbePlan::CommonKey { columns: vec![0, 0] };
        let p = Partitioner::new(&plan, shards);
        let t0 = Tuple::new(0.into(), seq, Timestamp::from_millis(ts_a), vec![key.clone()]);
        let t1 = Tuple::new(1.into(), seq + 7, Timestamp::from_millis(ts_b), vec![key]);
        let (r0, r1) = (p.route(&t0), p.route(&t1));
        prop_assert_eq!(r0, r1, "routing must ignore stream/ts/seq");
        prop_assert_eq!(r0, p.route(&t0), "routing must be deterministic");
        if let Route::One(s) = r0 {
            prop_assert!(s < p.shard_count());
        }
    }
}

/// Strategy producing an interleaved 2-stream arrival list with bursty
/// delays (so adaptive policies move K both ways) and small integer keys.
fn arrival_strategy(len: usize) -> impl Strategy<Value = Vec<ArrivalEvent>> {
    proptest::collection::vec((0u64..2, 0u64..300, 0i64..8), len).prop_map(|items| {
        let events = items
            .into_iter()
            .enumerate()
            .map(|(i, (stream, delay, key))| {
                let arrival = (i as u64 + 1) * 5;
                let calm = (i / 30) % 2 == 0;
                let delay = if calm { delay / 8 } else { delay };
                let ts = arrival.saturating_sub(delay);
                ArrivalEvent::new(
                    Timestamp::from_millis(arrival),
                    Tuple::new(
                        (stream as usize).into(),
                        i as u64,
                        Timestamp::from_millis(ts),
                        vec![Value::Int(key)],
                    ),
                )
            })
            .collect();
        ArrivalLog::from_events(events).events().to_vec()
    })
}

fn build(backend: ExecutionBackend) -> Pipeline {
    Pipeline::builder()
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 400)
        .on_common_key("a1")
        .policy(BufferPolicy::QualityDriven(
            DisorderConfig::with_gamma(0.9)
                .period(1_000)
                .interval(250)
                .granularity(20)
                .basic_window(20),
        ))
        .parallelism(backend)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn shard_state_is_routing_stable_under_k_changes_and_expiry(
        events in arrival_strategy(240),
    ) {
        let mut sharded = build(ExecutionBackend::Pool { workers: 3 });
        let mut sequential = build(ExecutionBackend::Sequential);
        for chunk in events.chunks(50) {
            sharded.push_batch_into(chunk.iter().cloned(), &mut NullSink);
            for e in chunk {
                sequential.push_into(e.clone(), &mut NullSink);
            }
        }
        let engine = sharded.engine();
        prop_assert_eq!(engine.shard_count(), 3);
        prop_assert_eq!(engine.on_t(), sequential.engine().on_t());
        // Rebuild the routing rules the engine derived: they are a pure
        // function of the probe plan and shard count.
        let partitioner = Partitioner::new(sharded.probe_plan(), 3);
        for s in 0..3 {
            let shard = engine.shard(s);
            for stream in 0..2usize {
                for t in shard.window(StreamIndex(stream)).iter() {
                    // Every live tuple sits exactly where the partitioner
                    // routes it — K changes and expiry never migrate state.
                    prop_assert_eq!(partitioner.route(t), Route::One(s));
                }
            }
        }
        // In-scope content equals the sequential reference (shards expire
        // lazily, so stale out-of-scope tuples may linger in shards that
        // did not see the last probes).
        let on_t = engine.on_t();
        let bound = on_t.saturating_sub_duration(400);
        for stream in 0..2usize {
            let mut sharded_live: Vec<String> = (0..3)
                .flat_map(|s| {
                    engine
                        .shard(s)
                        .window(StreamIndex(stream))
                        .iter()
                        .filter(|t| t.ts >= bound)
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                })
                .collect();
            let mut reference_live: Vec<String> = sequential
                .engine()
                .shard(0)
                .window(StreamIndex(stream))
                .iter()
                .filter(|t| t.ts >= bound)
                .map(|t| t.to_string())
                .collect();
            sharded_live.sort();
            reference_live.sort();
            prop_assert_eq!(sharded_live, reference_live);
        }
        // Both runs agree end to end, too.
        let a = sharded.finish();
        let b = sequential.finish();
        prop_assert_eq!(a.total_produced, b.total_produced);
        prop_assert_eq!(a.produced, b.produced);
    }
}

/// Raw tuple stream (no pipeline front-end): interleaved streams, mild
/// disorder (annotated as each tuple's delay, which its outcome must carry
/// back), small key domain so shards share work.
fn raw_tuple_strategy(len: usize) -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec((0u64..2, 0u64..80, 0i64..6), len).prop_map(|items| {
        items
            .into_iter()
            .enumerate()
            .map(|(i, (stream, back, key))| {
                let ts = ((i as u64 + 1) * 8).saturating_sub(back);
                Tuple::new(
                    (stream as usize).into(),
                    i as u64,
                    Timestamp::from_millis(ts),
                    vec![Value::Int(key)],
                )
                .with_delay(back)
            })
            .collect()
    })
}

/// The two-stream equi-join the raw-stream merge property runs.
fn raw_stream_query() -> mswj_join::JoinQuery {
    use mswj_join::{CommonKeyEquiJoin, JoinQuery};
    use std::sync::Arc;
    let streams =
        StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), 300).unwrap();
    let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
    JoinQuery::new("pool-epochs", streams, cond).unwrap()
}

/// The event stream of one bare, enumerating [`MswjOperator`] driven with
/// `push_with`: each tuple's results, then its outcome.
///
/// [`MswjOperator`]: mswj_join::MswjOperator
fn operator_event_stream(tuples: &[Tuple]) -> Vec<String> {
    let mut op = mswj_join::MswjOperator::with_probe(raw_stream_query(), ProbeStrategy::Auto, true);
    let mut events = Vec::new();
    for t in tuples {
        let outcome = op.push_with(t.clone(), &mut |r| events.push(format!("R {r}")));
        events.push(format!("D {outcome:?}"));
    }
    events
}

/// Drives `tuples` through a [`JoinEngine`] in batches sized by `cuts`
/// (cycled), recording the *ordered* event stream.
fn engine_event_stream(backend: ExecutionBackend, tuples: &[Tuple], cuts: &[usize]) -> Vec<String> {
    let mut engine = JoinEngine::new(raw_stream_query(), ProbeStrategy::Auto, true, backend);
    let mut events = Vec::new();
    let mut handler = |ev: mswj_core::EngineEvent<'_>| match ev {
        mswj_core::EngineEvent::Result(r) => events.push(format!("R {r}")),
        mswj_core::EngineEvent::Done(o) => events.push(format!("D {o:?}")),
    };
    let mut rest = tuples;
    let mut c = 0usize;
    while !rest.is_empty() {
        let take = cuts[c % cuts.len()].min(rest.len());
        c += 1;
        let (batch, tail) = rest.split_at(take);
        engine.push_batch(batch.iter().cloned(), &mut handler);
        rest = tail;
    }
    engine.sync(&mut handler);
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn pipelined_pool_epochs_preserve_the_deterministic_merge(
        tuples in raw_tuple_strategy(220),
        pool_cuts in proptest::collection::vec(1usize..90, 1..8),
        seq_cuts in proptest::collection::vec(1usize..90, 1..8),
    ) {
        // The sequential reference is batch-size-invariant, so cut it
        // differently on purpose: only the *merged stream* may matter.
        let reference = engine_event_stream(ExecutionBackend::Sequential, &tuples, &seq_cuts);
        // The sequential engine's streaming loop is the bare operator, event
        // for event: results in probe order, then an outcome that names its
        // own tuple (`ts`, `delay`).
        prop_assert_eq!(&reference, &operator_event_stream(&tuples));
        let pooled = engine_event_stream(
            ExecutionBackend::Pool { workers: 3 },
            &tuples,
            &pool_cuts,
        );
        // Exact ordered equality — not just multisets: epoch deferral and
        // the shard-order merge must reproduce the sequential interleaving
        // of results and outcomes event for event.
        prop_assert_eq!(reference, pooled);
    }
}
