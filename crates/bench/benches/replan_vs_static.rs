//! Runtime probe re-planning vs the static blind plan on a star workload.
//!
//! The question this bench answers: *what does re-selecting the star
//! partition pair at runtime buy when the planner's blind pick is wrong?*
//! Star partitioning key-routes the anchor with one satellite and
//! broadcasts the rest — and a broadcast stream pays insert, index
//! maintenance and expiry on **every** shard.  The planner pairs the
//! anchor with the first satellite (S2) before seeing a single tuple; in
//! this workload S2 trickles while S3 floods at 16× its rate, so the
//! static plan replicates the flood to all four shards.  The re-planned
//! session observes the live cardinalities at the first idle barrier and
//! switches the pair to S3, key-routing the flood and broadcasting only
//! the trickle — an `n×` reduction in build-side work for the dominant
//! stream, so the gap shows on any machine.
//!
//! Both variants are prefilled to steady state with barriers (the switch
//! fires during prefill, before measurement starts) and the pairing is
//! asserted, so `b.iter` measures pure steady-state throughput of the two
//! plans on identical input.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mswj_core::{EngineEvent, ExecutionBackend, JoinEngine, ReplanConfig};
use mswj_join::{JoinQuery, ProbeStrategy, StarEquiJoin};
use mswj_types::{FieldType, Schema, StreamSet, StreamSpec, Timestamp, Tuple, Value};
use std::sync::Arc;

const WINDOW_MS: u64 = 4_000;
const PREFILL_CHUNK: u64 = 512;
const MEASURED_ROUNDS: u64 = 128;
/// Wide key domains keep per-probe match counts small, so the measured
/// gap is the build-side (insert/index/expiry) cost of the broadcast
/// flood — the cost the pair switch removes — not probe amplification.
const A1_KEYS: i64 = 256;
const A2_KEYS: i64 = 256;

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

fn replan_config() -> ReplanConfig {
    ReplanConfig {
        min_probes: 256,
        switch_ratio: 1.5,
        demote_fallback_share: 0.5,
        reorder_margin: 1.5,
    }
}

/// One round per millisecond: the anchor S1 arrives every round, the
/// satellite S2 every fourth round, and the satellite S3 four times per
/// round — a 16× rate gap between the two satellites.
fn rounds(from: u64, n: u64, seqs: &mut [u64; 3]) -> Vec<Tuple> {
    let mut batch = Vec::new();
    for round in from..from + n {
        let ts = Timestamp::from_millis(round);
        let a1 = (round as i64) % A1_KEYS;
        let a2 = (round as i64) % A2_KEYS;
        batch.push(Tuple::new(
            0usize.into(),
            seqs[0],
            ts,
            vec![Value::Int(a1), Value::Int(a2)],
        ));
        seqs[0] += 1;
        if round % 4 == 0 {
            batch.push(Tuple::new(1usize.into(), seqs[1], ts, vec![Value::Int(a1)]));
            seqs[1] += 1;
        }
        for burst in 0..4i64 {
            batch.push(Tuple::new(
                2usize.into(),
                seqs[2],
                ts,
                vec![Value::Int((a2 + burst * 61) % A2_KEYS)],
            ));
            seqs[2] += 1;
        }
    }
    batch
}

fn replan_vs_static(c: &mut Criterion) {
    let mut group = c.benchmark_group("replan_vs_static");
    let variants = [
        ("pool4_static", ExecutionBackend::Pool { workers: 4 }, None),
        (
            "pool4_replanned",
            ExecutionBackend::Pool { workers: 4 },
            Some(replan_config()),
        ),
    ];
    for (label, backend, replan) in variants {
        group.bench_function(label, |b| {
            let mut engine = JoinEngine::try_with_policies(
                star3(WINDOW_MS),
                ProbeStrategy::Auto,
                false,
                backend.clone(),
                None,
                replan,
            )
            .unwrap();
            // Prefill past one full window in chunks with a barrier after
            // each, so the re-planner has evaluated (and, when armed,
            // switched the pair) well before measurement starts.
            let mut seqs = [0u64; 3];
            let mut t = 0u64;
            while t < WINDOW_MS + PREFILL_CHUNK {
                engine.push_batch(rounds(t, PREFILL_CHUNK, &mut seqs), &mut |_| {});
                engine.sync(&mut |_| {});
                t += PREFILL_CHUNK;
            }
            let expected = if replan.is_some() { Some(2) } else { Some(1) };
            assert_eq!(
                engine.star_partner(),
                expected,
                "the re-planned variant must key-route the flooding satellite \
                 (and the static one must still broadcast it) during measurement"
            );
            let mut results = 0u64;
            b.iter(|| {
                // Per measured iteration: 128 rounds (~672 in-order tuples)
                // through the steady-state windows, no barrier inside the
                // loop — routing is frozen, so this measures the per-tuple
                // build + probe work of the plan in force.
                engine.push_batch(rounds(t, MEASURED_ROUNDS, &mut seqs), &mut |ev| {
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
