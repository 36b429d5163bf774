//! Component micro-benchmarks: K-slack, Synchronizer, join operator (hash
//! -indexed vs nested-loop scan probes) and the analytical recall model.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mswj_core::{
    BufferPolicy, CountingSink, DelayHistogram, DisorderConfig, EngineEvent, ExecutionBackend,
    JoinEngine, KSlack, ModelInputs, Pipeline, RecallModel, Synchronizer,
};
use mswj_datasets::{q2_query, q3_query, Zipf};
use mswj_join::{BandJoin, CommonKeyEquiJoin, JoinQuery, MswjOperator, ProbeStrategy};
use mswj_types::{ArrivalEvent, FieldType, Schema, StreamSet, Timestamp, Tuple, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Timestamps of 1 000 tuples generated 10 ms apart, in arrival order, with
/// delays drawn like Dx3syn's: `Zipf(201, 2.0)` ranks in 10 ms steps, so
/// ≈ 61 % arrive on time and the rest up to 2 s late.
fn zipf2_arrival_order(seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let delays = Zipf::new(201, 2.0);
    let mut arrivals: Vec<(u64, u64)> = (0..1_000u64)
        .map(|i| {
            let ts = i * 10;
            (ts + (delays.sample(&mut rng) as u64 - 1) * 10, ts)
        })
        .collect();
    arrivals.sort_by_key(|&(arrival, _)| arrival);
    arrivals.into_iter().map(|(_, ts)| ts).collect()
}

/// Both sides of the K-slack buffer's per-tuple choice between its sorted
/// run and its late heap: `kslack_push_1k` is 80 % late by construction,
/// `_inorder` never leaves the run, `_zipf2` is the Dx3syn mix.
fn kslack_throughput(c: &mut Criterion) {
    let mostly_late: Vec<u64> = (0..1_000u64)
        .map(|i| {
            if i % 5 == 0 {
                i * 10
            } else {
                (i * 10).saturating_sub(300)
            }
        })
        .collect();
    let in_order = (0..1_000u64).map(|i| i * 10).collect();
    for (name, timestamps) in [
        ("kslack_push_1k", mostly_late),
        ("kslack_push_1k_inorder", in_order),
        ("kslack_push_1k_zipf2", zipf2_arrival_order(42)),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut ks = KSlack::new(500);
                let mut out = Vec::new();
                for (i, &ts) in timestamps.iter().enumerate() {
                    let tuple = Tuple::marker(0.into(), i as u64, Timestamp::from_millis(ts));
                    ks.push_into(tuple, &mut out);
                }
                ks.flush_into(&mut out);
                black_box(out.len())
            })
        });
    }
}

/// The Synchronizer's input in three shapes: `synchronizer_push_1k` has
/// three in-order streams offset by 100 ms each (two pushes in three land
/// below the buffer's newest timestamp), `_inorder` is globally sorted, and
/// `_zipf2` is what three K-slack components (K = 100 ms) release for
/// Zipf(2)-delayed streams.
fn synchronizer_throughput(c: &mut Criterion) {
    let offset: Vec<(usize, u64)> = (0..1_000u64)
        .map(|i| ((i % 3) as usize, i * 7 + (i % 3) * 100))
        .collect();
    let in_order = (0..1_000u64).map(|i| ((i % 3) as usize, i * 7)).collect();
    let mut kslacks: Vec<KSlack> = (0..3).map(|_| KSlack::new(100)).collect();
    let mut released = Vec::new();
    for (i, ts) in zipf2_arrival_order(7).into_iter().enumerate() {
        let stream = i % 3;
        let tuple = Tuple::marker(stream.into(), i as u64, Timestamp::from_millis(ts));
        kslacks[stream].push_into(tuple, &mut released);
    }
    for ks in &mut kslacks {
        ks.flush_into(&mut released);
    }
    let zipf2 = released
        .iter()
        .map(|t| (t.stream.as_usize(), t.ts.as_millis()))
        .collect();
    for (name, input) in [
        ("synchronizer_push_1k", offset),
        ("synchronizer_push_1k_inorder", in_order),
        ("synchronizer_push_1k_zipf2", zipf2),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut sync = Synchronizer::new(3);
                let mut out = Vec::new();
                for (i, &(stream, ts)) in input.iter().enumerate() {
                    let tuple = Tuple::marker(stream.into(), i as u64, Timestamp::from_millis(ts));
                    sync.push_into(tuple, &mut out);
                }
                sync.flush_into(&mut out);
                black_box(out.len())
            })
        });
    }
}

fn operator_throughput(c: &mut Criterion) {
    c.bench_function("mswj_operator_equi_push_1k", |b| {
        b.iter(|| {
            let mut op = MswjOperator::new(q3_query(5_000));
            let mut results = 0u64;
            for i in 0..1_000u64 {
                let stream = (i % 3) as usize;
                let t = Tuple::new(
                    stream.into(),
                    i,
                    Timestamp::from_millis(i * 10),
                    vec![Value::Int((i % 50) as i64)],
                );
                results += op.push(t).n_join;
            }
            black_box(results)
        })
    });
}

/// Hash-indexed bucket probes vs the forced nested-loop scan on a 2-way
/// equi-join with Zipf-skewed keys (skew 1.0 over 1 000 distinct values),
/// at steady-state window sizes of 1 k and 10 k live tuples per stream.
///
/// The operator persists across iterations: one tuple per stream per
/// millisecond keeps each window at its steady-state size, so every
/// measured push probes a full window.  `count_*` benches run the counting
/// mode (bucket-length products vs exhaustive enumeration); `enum_*`
/// benches additionally materialize every result on both sides.
fn indexed_vs_scan(c: &mut Criterion) {
    fn equi2(window_ms: u64) -> JoinQuery {
        let streams =
            StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), window_ms)
                .unwrap();
        let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        JoinQuery::new("bench-equi2", streams, cond).unwrap()
    }
    let zipf = Zipf::new(1_000, 1.0);
    let mut rng = StdRng::seed_from_u64(42);
    let keys: Vec<i64> = (0..16_384).map(|_| zipf.sample(&mut rng) as i64).collect();

    let mut group = c.benchmark_group("indexed_vs_scan");
    let cases = [
        ("count", false, 1_000u64),
        ("count", false, 10_000),
        ("enum", true, 10_000),
    ];
    for &(mode, enumerate, window_tuples) in &cases {
        for (label, strategy) in [
            ("indexed", ProbeStrategy::Auto),
            ("scan", ProbeStrategy::NestedLoop),
        ] {
            group.bench_function(format!("{mode}_{label}_w{window_tuples}"), |b| {
                let mut op = MswjOperator::with_probe(equi2(window_tuples), strategy, enumerate);
                let mut t = 0u64;
                let key_at = {
                    let keys = keys.clone();
                    move |i: u64| keys[(i as usize) % keys.len()]
                };
                // Prefill both windows to their steady-state population.
                while t < window_tuples {
                    for stream in 0..2usize {
                        let ts = Timestamp::from_millis(t);
                        op.push(Tuple::new(
                            stream.into(),
                            t,
                            ts,
                            vec![Value::Int(key_at(t * 2 + stream as u64))],
                        ));
                    }
                    t += 1;
                }
                b.iter(|| {
                    let mut results = 0u64;
                    for _ in 0..64 {
                        for stream in 0..2usize {
                            let ts = Timestamp::from_millis(t);
                            let outcome = op.push(Tuple::new(
                                stream.into(),
                                t,
                                ts,
                                vec![Value::Int(key_at(t * 2 + stream as u64))],
                            ));
                            results += outcome.n_join;
                        }
                        t += 1;
                    }
                    black_box(results)
                })
            });
        }
    }
    group.finish();
}

/// Non-equi probes at the `d2_dist_seq` shape: a 2-way distance join and a
/// 2-way band join over 500-row windows (one tuple per stream per 10 ms,
/// 5 s windows), in steady state through `MswjOperator::push` — the
/// typed-column scan kernel (`ProbeStrategy::Auto`) against the
/// tuple-at-a-time walk it replaces (`ProbeStrategy::NestedLoop`).
fn scan_probes(c: &mut Criterion) {
    const WINDOW_MS: u64 = 5_000;
    fn band2() -> JoinQuery {
        let schema = Schema::new(vec![("id", FieldType::Int), ("v", FieldType::Float)]);
        let streams = StreamSet::homogeneous(2, schema, WINDOW_MS).unwrap();
        let cond = Arc::new(BandJoin::new(&streams, "v", 2.0).unwrap());
        JoinQuery::new("bench-band2", streams, cond).unwrap()
    }
    // Positions drift over a 100 m line, so ~10 % (distance, 5 m) and ~5 %
    // (band, width 2) of each window match a probe.
    let distance_row = |stream: usize, i: u64| {
        let along = ((i * 7 + stream as u64 * 3) % 100) as f64;
        vec![
            Value::Int(i as i64),
            Value::Float(along),
            Value::Float(along * 0.5),
        ]
    };
    let band_row = |stream: usize, i: u64| {
        vec![
            Value::Int(i as i64),
            Value::Float(((i * 7 + stream as u64 * 3) % 100) as f64),
        ]
    };
    type Row = dyn Fn(usize, u64) -> Vec<Value>;
    let cases: [(&str, JoinQuery, &Row); 2] = [
        ("distance", q2_query(WINDOW_MS, 5.0), &distance_row),
        ("band", band2(), &band_row),
    ];
    let mut group = c.benchmark_group("scan_probe");
    for (name, query, row) in cases {
        for (path, strategy) in [
            ("kernel", ProbeStrategy::Auto),
            ("walk", ProbeStrategy::NestedLoop),
        ] {
            group.bench_function(format!("{name}_probe_w500_{path}"), |b| {
                let mut op = MswjOperator::with_probe(query.clone(), strategy, false);
                let mut i = 0u64;
                let mut step = |op: &mut MswjOperator| {
                    let mut results = 0u64;
                    for stream in 0..2usize {
                        let ts = Timestamp::from_millis(i * 10);
                        results += op
                            .push(Tuple::new(stream.into(), i, ts, row(stream, i)))
                            .n_join;
                    }
                    i += 1;
                    results
                };
                // Prefill both windows to their steady-state population.
                for _ in 0..WINDOW_MS / 10 {
                    step(&mut op);
                }
                b.iter(|| {
                    let mut results = 0u64;
                    for _ in 0..64 {
                        results += step(&mut op);
                    }
                    black_box(results)
                })
            });
        }
    }
    group.finish();
}

fn pipeline_push_into_throughput(c: &mut Criterion) {
    // The end-to-end counting hot path: builder-assembled session, events
    // streamed through `push_into` with a zero-allocation sink.
    let events: Vec<ArrivalEvent> = (0..1_000u64)
        .map(|i| {
            let stream = (i % 3) as usize;
            let arrival = Timestamp::from_millis(i * 10);
            let ts = if i % 5 == 0 {
                Timestamp::from_millis((i * 10).saturating_sub(300))
            } else {
                arrival
            };
            ArrivalEvent::new(
                arrival,
                Tuple::new(stream.into(), i, ts, vec![Value::Int((i % 50) as i64)]),
            )
        })
        .collect();
    c.bench_function("pipeline_push_into_1k", |b| {
        b.iter(|| {
            let mut pipeline = Pipeline::builder()
                .query(q3_query(5_000))
                .policy(BufferPolicy::QualityDriven(
                    DisorderConfig::with_gamma(0.95)
                        .period(5_000)
                        .interval(1_000),
                ))
                .build()
                .unwrap();
            let mut sink = CountingSink::default();
            for e in &events {
                pipeline.push_into(e.clone(), &mut sink);
            }
            black_box(pipeline.finish().total_produced)
        })
    });
}

/// Throughput of the key-partitioned join engine at 1/2/4/8 shards on
/// Zipf-skewed keys (skew 1.0 over 1 000 distinct values), in counting and
/// materializing mode, recorded next to `indexed_vs_scan`.
///
/// The workload mixes one non-integral float key per ~1 000 tuples into the
/// Zipf stream — the realistic "dirty column" case.  A live float disables
/// the hash index of the window it sits in (join_eq coercion, see the probe
/// planner), so the unsharded engine degrades to O(|W|) fallback scans
/// while any float is live.  Sharding wins twice here, on any core count:
/// a float only poisons the shard its key routes to (the other shards keep
/// answering through their indexes), and a poisoned shard's fallback scan
/// covers only its ~1/n slice of the window.  On multi-core hardware the
/// `Pool { workers: n }` workers additionally run the shards in parallel.
///
/// The engine is driven directly (no K-slack/synchronizer front-end), so
/// the numbers isolate the sharded join stage; batches of 512 tuple pairs
/// amortize the per-batch routing and epoch hand-off.
fn sharded_scaling(c: &mut Criterion) {
    fn equi2(window_ms: u64) -> JoinQuery {
        let streams =
            StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), window_ms)
                .unwrap();
        let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        JoinQuery::new("bench-sharded", streams, cond).unwrap()
    }

    const POISON_EVERY: u64 = 1_000;
    let zipf = Zipf::new(1_000, 1.0);
    let mut rng = StdRng::seed_from_u64(7);
    let keys: Vec<i64> = (0..32_768).map(|_| zipf.sample(&mut rng) as i64).collect();
    let value_at = |global: u64| -> Value {
        let key = keys[(global as usize) % keys.len()];
        if global.is_multiple_of(POISON_EVERY) {
            // Joins nothing (non-integral), but disables the hash index of
            // whichever shard window it lives in until it expires.
            Value::Float(key as f64 + 0.5)
        } else {
            Value::Int(key)
        }
    };
    let batch_of = |from: u64, pairs: u64| -> Vec<Tuple> {
        (from..from + pairs)
            .flat_map(|t| {
                (0..2usize).map(move |stream| {
                    Tuple::new(
                        stream.into(),
                        t,
                        Timestamp::from_millis(t),
                        vec![value_at(t * 2 + stream as u64)],
                    )
                })
            })
            .collect()
    };

    let mut group = c.benchmark_group("sharded_scaling");
    // Counting mode: 4 k live tuples per stream; materializing mode: 1 k
    // (every probe also clones its ~|bucket| result tuples).
    let cases = [
        ("count", false, 4_000u64, 512u64),
        ("enum", true, 1_000, 256),
    ];
    for &(mode, enumerate, window, pairs) in &cases {
        for &n in &[1usize, 2, 4, 8] {
            group.bench_function(format!("{mode}_shards_{n}"), |b| {
                let mut engine = JoinEngine::new(
                    equi2(window),
                    ProbeStrategy::Auto,
                    enumerate,
                    ExecutionBackend::Pool { workers: n },
                );
                // Prefill to the steady-state window population.
                let mut t = 0u64;
                engine.push_batch(batch_of(0, window), &mut |_| {});
                engine.sync(&mut |_| {});
                t += window;
                b.iter(|| {
                    let mut results = 0u64;
                    engine.push_batch(batch_of(t, pairs), &mut |ev| {
                        if let EngineEvent::Done(o) = ev {
                            results += o.n_join;
                        }
                    });
                    t += pairs;
                    black_box(results)
                })
            });
        }
    }
    group.finish();
}

fn model_evaluation(c: &mut Criterion) {
    let delays: Vec<u64> = (0..5_000)
        .map(|i| if i % 4 == 0 { (i % 200) * 10 } else { 0 })
        .collect();
    let inputs = ModelInputs {
        windows: vec![5_000; 3],
        histograms: (0..3)
            .map(|_| DelayHistogram::from_delays(10, delays.clone()))
            .collect(),
        k_sync: vec![0, 50, 120],
        basic_window: 10,
        granularity: 10,
    };
    let model = RecallModel::new(inputs);
    c.bench_function("recall_model_sweep_200_candidates", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for k in (0..2_000).step_by(10) {
                acc += model.estimate_recall(black_box(k), 1.0);
            }
            black_box(acc)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = kslack_throughput, synchronizer_throughput, operator_throughput, indexed_vs_scan, scan_probes, sharded_scaling, pipeline_push_into_throughput, model_evaluation
}
criterion_main!(benches);
