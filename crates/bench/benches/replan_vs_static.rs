//! Runtime re-planning vs the best static plan on a star workload.
//!
//! The question this bench answers: *does the star pair switch, which is
//! always on, recover the plan a user who knew the rates in advance would
//! have declared?*  Star partitioning key-routes the anchor with one
//! satellite and broadcasts the rest — and a broadcast stream pays insert,
//! index maintenance and expiry on **every** shard.  The planner pairs the
//! anchor with the first declared satellite before seeing a single tuple.
//! In this workload one satellite trickles while the other floods at 16×
//! its rate; the right pair key-routes the flood and broadcasts only the
//! trickle.
//!
//! * `pool4_best_static` declares the flooding satellite first, so the
//!   blind pick is already right and no switch happens (asserted).
//! * `pool4_adaptive` declares the trickle first: the blind pick
//!   broadcasts the flood to all four shards until the engine observes the
//!   live cardinalities at an idle barrier and switches the pair (asserted
//!   to fire during prefill, before measurement starts).
//!
//! Both arms are prefilled to steady state with barriers, so `b.iter`
//! measures the steady-state throughput of the plan in force on the same
//! input shape; the adaptive arm should read the same as the best static
//! one.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mswj_core::{EngineEvent, ExecutionBackend, JoinEngine};
use mswj_join::{JoinQuery, ProbeStrategy, StarEquiJoin};
use mswj_types::{FieldType, Schema, StreamSet, StreamSpec, Timestamp, Tuple, Value};
use std::sync::Arc;

const WINDOW_MS: u64 = 4_000;
const PREFILL_CHUNK: u64 = 512;
const MEASURED_ROUNDS: u64 = 128;
/// A wide key domain on both join columns keeps per-probe match counts
/// small, so the measured gap is the build-side (insert/index/expiry) cost
/// of the broadcast flood — the cost the pair switch removes — not probe
/// amplification.
const KEYS: i64 = 256;

/// 3-way star: anchor S1(a1, a2) joined with S2(a1) and S3(a2).  The
/// blind default partitions the (S1, S2) pair, broadcasting S3.
fn star3(window_ms: u64) -> JoinQuery {
    let streams = StreamSet::new(vec![
        StreamSpec::new(
            "S1",
            Schema::new(vec![("a1", FieldType::Int), ("a2", FieldType::Int)]),
            window_ms,
        ),
        StreamSpec::new("S2", Schema::new(vec![("a1", FieldType::Int)]), window_ms),
        StreamSpec::new("S3", Schema::new(vec![("a2", FieldType::Int)]), window_ms),
    ])
    .unwrap();
    let cond =
        Arc::new(StarEquiJoin::new(&streams, 0, &[(1, "a1", "a1"), (2, "a2", "a2")]).unwrap());
    JoinQuery::new("bench-replan-star", streams, cond).unwrap()
}

/// One round per millisecond: the anchor S1 arrives every round, the
/// trickling satellite every fourth round, and the `flood` satellite (1 or
/// 2) four times per round — a 16× rate gap between the two satellites.
fn rounds(from: u64, n: u64, flood: usize, seqs: &mut [u64; 3]) -> Vec<Tuple> {
    let trickle = 3 - flood;
    let mut batch = Vec::new();
    for round in from..from + n {
        let ts = Timestamp::from_millis(round);
        // The anchor carries the same key in a1 and a2, so either
        // satellite can take either role.
        let a = (round as i64) % KEYS;
        batch.push(Tuple::new(
            0usize.into(),
            seqs[0],
            ts,
            vec![Value::Int(a), Value::Int(a)],
        ));
        seqs[0] += 1;
        if round % 4 == 0 {
            batch.push(Tuple::new(
                trickle.into(),
                seqs[trickle],
                ts,
                vec![Value::Int(a)],
            ));
            seqs[trickle] += 1;
        }
        for burst in 0..4i64 {
            batch.push(Tuple::new(
                flood.into(),
                seqs[flood],
                ts,
                vec![Value::Int((a + burst * 61) % KEYS)],
            ));
            seqs[flood] += 1;
        }
    }
    batch
}

fn replan_vs_static(c: &mut Criterion) {
    let mut group = c.benchmark_group("replan_vs_static");
    // (label, flooding satellite): the blind pick is satellite 1.
    for (label, flood) in [("pool4_best_static", 1), ("pool4_adaptive", 2)] {
        group.bench_function(label, |b| {
            let mut engine = JoinEngine::new(
                star3(WINDOW_MS),
                ProbeStrategy::Auto,
                false,
                ExecutionBackend::Pool { workers: 4 },
            );
            // Prefill past one full window in chunks with a barrier after
            // each, so the re-planner has evaluated (and, in the adaptive
            // arm, switched the pair) well before measurement starts.
            let mut seqs = [0u64; 3];
            let mut t = 0u64;
            while t < WINDOW_MS + PREFILL_CHUNK {
                engine.push_batch(rounds(t, PREFILL_CHUNK, flood, &mut seqs), &mut |_| {});
                engine.sync(&mut |_| {});
                t += PREFILL_CHUNK;
            }
            assert_eq!(
                engine.star_partner(),
                Some(flood),
                "both arms must key-route the flooding satellite during measurement"
            );
            assert_eq!(
                engine.plan_transitions().len(),
                usize::from(flood != 1),
                "only the adaptive arm switches the pair: {:?}",
                engine.plan_transitions()
            );
            let mut results = 0u64;
            b.iter(|| {
                // Per measured iteration: 128 rounds (~672 in-order tuples)
                // through the steady-state windows, no barrier inside the
                // loop — routing is frozen, so this measures the per-tuple
                // build + probe work of the plan in force.
                engine.push_batch(rounds(t, MEASURED_ROUNDS, flood, &mut seqs), &mut |ev| {
                    if let EngineEvent::Done(o) = ev {
                        results += o.n_join;
                    }
                });
                t += MEASURED_ROUNDS;
                black_box(results)
            });
            engine.sync(&mut |_| {});
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = replan_vs_static
}
criterion_main!(benches);
