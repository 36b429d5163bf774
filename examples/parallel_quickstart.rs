//! Parallel quickstart: the same disorder-handled equi-join on the
//! `Sequential` backend and the resident `Pool { workers: 4 }` backend.
//!
//! The front-end (K-slack, Synchronizer, statistics, adaptation) stays
//! sequential and global exactly as the paper requires; only the join
//! stage — window maintenance and probing — is sharded by the equi-join
//! key.  Both backends produce identical results and identical adaptation
//! trajectories.
//!
//! Picking a backend:
//!
//! * `Sequential` — the default; best for single-core runs and the
//!   reference for every differential test.
//! * `Pool { workers: n }` — spawns n resident workers once and pipelines
//!   ingestion: while the shards execute batch *t*, the front-end already
//!   routes batch *t + 1*.  Feed it batches through `push_batch_into`;
//!   single-event `push_into` works too (sub-threshold batches run inline
//!   and skip the queue entirely).  Caveat: a batch's results may be
//!   delivered at the *next* flush boundary; checkpoints, K-changes and
//!   `finish_into` place a barrier, so reports and adaptation are
//!   byte-identical to `Sequential`.
//!
//! Run with `cargo run --example parallel_quickstart`.

use mswj::prelude::*;

const BATCH: usize = 512;

fn workload() -> Vec<ArrivalEvent> {
    // Two streams, a tuple every 2 ms on each, keys spread over a small
    // domain; every 7th tuple of stream 0 arrives 150 ms late.
    let mut events = Vec::new();
    for i in 1..=8_000u64 {
        let t = i * 2;
        let ts0 = if i % 7 == 0 { t.saturating_sub(150) } else { t };
        events.push(ArrivalEvent::new(
            Timestamp::from_millis(t),
            Tuple::new(
                0.into(),
                i,
                Timestamp::from_millis(ts0),
                vec![Value::Int((i % 64) as i64)],
            ),
        ));
        events.push(ArrivalEvent::new(
            Timestamp::from_millis(t),
            Tuple::new(
                1.into(),
                i,
                Timestamp::from_millis(t),
                vec![Value::Int(((i * 31) % 64) as i64)],
            ),
        ));
    }
    events
}

fn run(backend: ExecutionBackend) -> RunReport {
    let mut pipeline = mswj::session()
        .name("parallel-quickstart")
        .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 2_000)
        .on_common_key("a1")
        .quality_driven(0.95)
        .period(5_000)
        .interval(1_000)
        .parallelism(backend)
        .build()
        .expect("declaration is valid");
    let mut sink = CountingSink::default();
    for chunk in workload().chunks(BATCH) {
        pipeline.push_batch_into(chunk.iter().cloned(), &mut sink);
    }
    pipeline.finish()
}

fn main() {
    let sequential = run(ExecutionBackend::Sequential);
    let pooled = run(ExecutionBackend::Pool { workers: 4 });

    for (name, report) in [("sequential", &sequential), ("pool(4)", &pooled)] {
        println!(
            "{name:<12}: {:>7} results, avg K = {:.0} ms, {} checkpoints",
            report.total_produced,
            report.avg_k_ms,
            report.checkpoints.len()
        );
    }
    for (s, stats) in pooled.shard_stats.iter().enumerate() {
        println!(
            "  pool shard {s}: {:>6} probes, {:>7} results, {:>5} routed/epoch max {:>3}, \
             {:>3} epochs, busy {:>5} µs",
            stats.operator.in_order,
            stats.operator.results,
            stats.runtime.routed,
            stats.runtime.max_queue_depth,
            stats.runtime.epochs_executed,
            stats.runtime.busy_nanos / 1_000,
        );
    }

    assert_eq!(
        sequential.total_produced, pooled.total_produced,
        "the pool must agree with sequential on the result count"
    );
    let ks = |r: &RunReport| r.checkpoints.iter().map(|c| c.k).collect::<Vec<_>>();
    assert_eq!(
        ks(&sequential),
        ks(&pooled),
        "the pool must agree with sequential on the adaptation trajectory"
    );
    let pool_epochs: u64 = pooled
        .shard_stats
        .iter()
        .map(|s| s.runtime.epochs_executed)
        .sum();
    assert!(
        pool_epochs > 0,
        "512-event batches must run through the pool"
    );
    println!(
        "backends agree: {} results from 4 shards ({pool_epochs} pool epochs)",
        pooled.total_produced
    );
}
