//! Hot-key splitting vs pinned hash routing under a Zipf-skewed workload.
//!
//! The question this bench answers: *what does replicated-build /
//! split-probe routing buy when one key class dominates?*  Plain hash
//! routing pins a hot key's build state **and all of its probe work** to
//! one shard; `skew_splitting` replicates the class and spreads its probes
//! round-robin.
//!
//! Workload: 2-way equi-join, Zipf(10, skew 1.2) keys — the top class
//! takes ~40% of the traffic — at 4 shards, counting mode, steady-state
//! windows of 8 000 live tuples per stream.  One non-integral float key
//! per ~1 000 tuples is chosen to hash into the *hot class's home shard*,
//! degrading that shard's index to exhaustive fallback scans (an
//! unindexable value only poisons the shard it lands in).  That is the
//! worst case splitting addresses: pinned, the hot class's ~40% of probes
//! all scan the poisoned shard's full window; split, those probes spread
//! across four shards, three of which answer from intact hash indexes, so
//! only ~¼ of the hot traffic still pays the scan.  The effect is a
//! *work* reduction per probe, not mere parallelism, so it shows on any
//! machine — the measured gap at 4 shards is well above 2×.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mswj_core::{ExecutionBackend, JoinEngine, SkewConfig};
use mswj_datasets::Zipf;
use mswj_join::{join_key_hash, CommonKeyEquiJoin, JoinQuery, ProbeStrategy};
use mswj_types::{FieldType, Schema, StreamSet, Timestamp, Tuple, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

const WINDOW_TUPLES: u64 = 8_000;
const POISON_EVERY: u64 = 1_000;
const SHARDS: u64 = 4;
const MEASURED_PAIRS: u64 = 512;

fn equi2(window_ms: u64) -> JoinQuery {
    let streams =
        StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), window_ms).unwrap();
    let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
    JoinQuery::new("bench-skewed", streams, cond).unwrap()
}

/// Only the top key's ~40% share crosses the split threshold; splitting
/// *more* classes would bloat the poisoned shard's scanned window with
/// their replicas, so the thresholds deliberately isolate the top class.
fn split_config() -> SkewConfig {
    SkewConfig {
        split_share: 0.3,
        unsplit_share: 0.15,
        min_routed: 2_048,
    }
}

/// A non-integral float (joins nothing, can never be indexed) whose key
/// class hashes into the hot key's home shard — the adversarial "dirty
/// column" value that turns that one shard's probes into fallback scans.
fn poison_for(hot_home: u64) -> Value {
    (0..)
        .map(|i| Value::Float(1_000_000.5 + i as f64))
        .find(|v| join_key_hash(Some(v)) % SHARDS == hot_home)
        .expect("a quarter of all floats lands on any given shard")
}

fn skewed_scaling(c: &mut Criterion) {
    let zipf = Zipf::new(10, 1.2);
    let mut rng = StdRng::seed_from_u64(17);
    let keys: Vec<i64> = (0..32_768).map(|_| zipf.sample(&mut rng) as i64).collect();
    let mut freq: HashMap<i64, u64> = HashMap::new();
    for &k in &keys {
        *freq.entry(k).or_default() += 1;
    }
    let (&hot, _) = freq.iter().max_by_key(|(_, &n)| n).expect("non-empty");
    let hot_home = join_key_hash(Some(&Value::Int(hot))) % SHARDS;
    let poison = poison_for(hot_home);

    let value_at = |keys: &[i64], global: u64| -> Value {
        if global.is_multiple_of(POISON_EVERY) {
            poison.clone()
        } else {
            Value::Int(keys[(global as usize) % keys.len()])
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

    let mut group = c.benchmark_group("skewed_scaling");
    let variants = [
        ("pool4_pinned", ExecutionBackend::Pool { workers: 4 }, None),
        (
            "pool4_split",
            ExecutionBackend::Pool { workers: 4 },
            Some(split_config()),
        ),
    ];
    for (label, backend, skew) in variants {
        group.bench_function(label, |b| {
            let mut engine = JoinEngine::try_with_policies(
                equi2(WINDOW_TUPLES),
                ProbeStrategy::Auto,
                false,
                backend.clone(),
                skew,
                None,
            )
            .unwrap();
            // Prefill to the steady-state window population in chunks with
            // a barrier after each, so the detector's windows close and the
            // hot class is already split before measurement starts.
            let mut t = 0u64;
            for _ in 0..(WINDOW_TUPLES / 1_024) {
                engine.push_batch(batch_of(&keys, t, 1_024), &mut |_| {});
                engine.sync(&mut |_| {});
                t += 1_024;
            }
            assert_eq!(
                engine.skew_splitting_enabled() && !engine.split_classes().is_empty(),
                skew.is_some(),
                "the hot class must be split during measurement iff splitting is armed"
            );
            let mut results = 0u64;
            b.iter(|| {
                // Per measured iteration: 512 in-order tuple pairs through
                // the steady-state windows.  No barrier inside the loop —
                // routing is frozen, so this measures pure probe work.
                engine.push_batch(batch_of(&keys, t, MEASURED_PAIRS), &mut |ev| {
                    if let mswj_core::EngineEvent::Done(o) = ev {
                        results += o.n_join;
                    }
                });
                t += MEASURED_PAIRS;
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
    targets = skewed_scaling
}
criterion_main!(benches);
