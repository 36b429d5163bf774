//! Resident pool vs sequential, across ingestion batch sizes.
//!
//! The question this bench answers: *when does the pool pay off?*  The
//! resident `Pool { workers: n }` spawns once, feeds bounded per-shard
//! queues, and pipelines epoch *t + 1*'s routing against epoch *t*'s
//! execution; below the inline threshold the calling thread drains the
//! routed queues itself, reaching each shard's operator through a plain
//! `&mut` (no lock, no atomic), so tiny batches are never worse than
//! `Sequential` by more than routing each tuple to its shard and replaying
//! the per-shard outputs in staging order.
//!
//! Workload: 2-way equi-join, Zipf-skewed keys (skew 1.0 over 1 000
//! values) with one non-integral float key per ~1 000 tuples (the "dirty
//! column" that degrades the poisoned shard to fallback scans — see
//! `sharded_scaling` in `components.rs`), steady-state windows of 4 000
//! live tuples per stream, counting mode.  The engine is driven directly so
//! the numbers isolate the join stage; batch sizes 1 / 32 / 512 tuple
//! *pairs* span single-event `push_into` up to bulk ingestion.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mswj_core::{EngineEvent, ExecutionBackend, JoinEngine, Telemetry};
use mswj_datasets::Zipf;
use mswj_join::{CommonKeyEquiJoin, JoinQuery, ProbeStrategy};
use mswj_types::{FieldType, Schema, StreamSet, Timestamp, Tuple, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const WINDOW_TUPLES: u64 = 4_000;
const POISON_EVERY: u64 = 1_000;

fn equi2(window_ms: u64) -> JoinQuery {
    let streams =
        StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), window_ms).unwrap();
    let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
    JoinQuery::new("bench-resident", streams, cond).unwrap()
}

fn resident_pool(c: &mut Criterion) {
    let zipf = Zipf::new(1_000, 1.0);
    let mut rng = StdRng::seed_from_u64(11);
    let keys: Vec<i64> = (0..32_768).map(|_| zipf.sample(&mut rng) as i64).collect();
    let value_at = |keys: &[i64], global: u64| -> Value {
        let key = keys[(global as usize) % keys.len()];
        if global.is_multiple_of(POISON_EVERY) {
            Value::Float(key as f64 + 0.5)
        } else {
            Value::Int(key)
        }
    };
    let batch_of = |keys: &[i64], from: u64, pairs: u64| -> Vec<Tuple> {
        (from..from + pairs)
            .flat_map(|t| {
                (0..2usize).map(move |stream| {
                    Tuple::new(
                        stream.into(),
                        t,
                        Timestamp::from_millis(t),
                        vec![value_at(keys, t * 2 + stream as u64)],
                    )
                })
            })
            .collect()
    };

    let mut group = c.benchmark_group("resident_pool");
    let backends = [
        ("sequential", ExecutionBackend::Sequential),
        ("pool4", ExecutionBackend::Pool { workers: 4 }),
    ];
    for &pairs in &[1u64, 32, 512] {
        for (label, backend) in &backends {
            // The `_telemetry` twin runs the identical workload with live
            // instruments attached — the observe-only contract says it must
            // stay within a few percent of the plain run.
            for (suffix, telemetry) in [("", false), ("_telemetry", true)] {
                group.bench_function(format!("b{pairs}_{label}{suffix}"), |b| {
                    let mut engine = JoinEngine::new(
                        equi2(WINDOW_TUPLES),
                        ProbeStrategy::Auto,
                        false,
                        backend.clone(),
                    );
                    if telemetry {
                        engine.attach_telemetry(Telemetry::new());
                    }
                    // Prefill to the steady-state window population (and,
                    // for the pool, warm the epoch buffers).
                    let mut t = 0u64;
                    engine.push_batch(batch_of(&keys, 0, WINDOW_TUPLES), &mut |_| {});
                    engine.sync(&mut |_| {});
                    t += WINDOW_TUPLES;
                    let mut results = 0u64;
                    b.iter(|| {
                        // Per measured iteration: ingest `pairs` tuple
                        // pairs.  The pool overlaps this batch's routing
                        // with the previous batch's shard execution;
                        // Sequential runs inline.
                        engine.push_batch(batch_of(&keys, t, pairs), &mut |ev| {
                            if let EngineEvent::Done(o) = ev {
                                results += o.n_join;
                            }
                        });
                        t += pairs;
                        black_box(results)
                    });
                    // Epochs in flight must not leak out of the measurement.
                    engine.sync(&mut |_| {});
                });
            }
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = resident_pool
}
criterion_main!(benches);
