//! The price of the wire: remote shard execution vs the resident pool.
//!
//! The remote backend reuses the pool's depth-1 epoch pipeline but moves
//! every routed item, sub-outcome and barrier through the versioned frame
//! codec and a socket.  This bench isolates that cost on identical
//! workloads:
//!
//! * `pool4` — the resident in-process pool, the baseline.
//! * `remote_inproc4` — shard servers on local threads, each behind one
//!   end of a Unix socket pair: serialization plus socket I/O and
//!   scheduler handoffs, with no listener, accept or connect.
//! * `remote_uds4` — shard servers behind a Unix-domain socket served by
//!   an in-process accept loop (the same code path `mswj-shardd` runs):
//!   the same per-epoch cost as `remote_inproc4` once connected.
//!
//! Workload: 2-way equi-join, Zipf-skewed keys over 1 000 values,
//! steady-state windows of 4 000 live tuples per stream, counting mode,
//! driven in batches of 32 and 512 tuple pairs (the remote backend has no
//! inline small-batch path, so small batches show the per-epoch round-trip
//! floor).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mswj_core::engine::transport::{serve_uds, Endpoint};
use mswj_core::{EngineEvent, ExecutionBackend, JoinEngine};
use mswj_datasets::Zipf;
use mswj_join::{CommonKeyEquiJoin, JoinQuery, ProbeStrategy};
use mswj_types::{FieldType, Schema, StreamSet, Timestamp, Tuple, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const WINDOW_TUPLES: u64 = 4_000;

fn equi2(window_ms: u64) -> JoinQuery {
    let streams =
        StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), window_ms).unwrap();
    let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
    JoinQuery::new("bench-remote", streams, cond).unwrap()
}

/// Starts an in-process Unix-domain shard server (the accept loop
/// `mswj-shardd` runs) and returns the socket path.  The listener thread
/// lives for the rest of the process — criterion owns process exit.
fn spawn_uds_server() -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("mswj-bench-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let serve_path = path.clone();
    std::thread::Builder::new()
        .name("mswj-bench-uds".into())
        .spawn(move || {
            let _ = serve_uds(&serve_path, None);
        })
        .expect("spawning the uds server thread");
    path
}

fn remote_vs_pool(c: &mut Criterion) {
    let zipf = Zipf::new(1_000, 1.0);
    let mut rng = StdRng::seed_from_u64(17);
    let keys: Vec<i64> = (0..32_768).map(|_| zipf.sample(&mut rng) as i64).collect();
    let batch_of = |keys: &[i64], from: u64, pairs: u64| -> Vec<Tuple> {
        (from..from + pairs)
            .flat_map(|t| {
                (0..2usize).map(move |stream| {
                    let key = keys[((t * 2 + stream as u64) as usize) % keys.len()];
                    Tuple::new(
                        stream.into(),
                        t,
                        Timestamp::from_millis(t),
                        vec![Value::Int(key)],
                    )
                })
            })
            .collect()
    };

    let uds = spawn_uds_server();
    let mut group = c.benchmark_group("remote_vs_pool");
    let backends = [
        ("pool4", ExecutionBackend::Pool { workers: 4 }),
        ("remote_inproc4", ExecutionBackend::remote_inproc(4)),
        (
            "remote_uds4",
            ExecutionBackend::Remote {
                endpoints: vec![Endpoint::Uds(uds.clone()); 4],
            },
        ),
    ];
    for &pairs in &[32u64, 512] {
        for (label, backend) in &backends {
            group.bench_function(format!("b{pairs}_{label}"), |b| {
                let mut engine = JoinEngine::new(
                    equi2(WINDOW_TUPLES),
                    ProbeStrategy::Auto,
                    false,
                    backend.clone(),
                );
                // Prefill to the steady-state window population.
                let mut t = 0u64;
                engine.push_batch(batch_of(&keys, 0, WINDOW_TUPLES), &mut |_| {});
                engine.sync(&mut |_| {});
                t += WINDOW_TUPLES;
                let mut results = 0u64;
                b.iter(|| {
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
    group.finish();
    let _ = std::fs::remove_file(&uds);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = remote_vs_pool
}
criterion_main!(benches);
