//! The segment capacity as a per-query property, observed through the
//! shards' live window statistics.
//!
//! [`JoinQuery::with_segment_capacity`] sizes every window the query's
//! operators build; nothing about it is process-wide.  These tests check
//! that a tiny capacity takes effect in a session while a session at the
//! default capacity runs beside it in the same process, and that every
//! shard reports its live window bytes at that capacity when events are
//! pushed one at a time.  The differential cases at capacity 4 live in
//! `differential.rs` (`*_at_capacity_4`).

use mswj::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// `JoinQuery`'s default segment capacity.
const DEFAULT_CAPACITY: usize = 1_024;

/// A capacity at which ordinary workloads seal a tail every four rows.
const TINY_CAPACITY: usize = 4;

fn common_key_query(m: usize, window: u64) -> JoinQuery {
    let streams =
        StreamSet::homogeneous(m, Schema::new(vec![("a1", FieldType::Int)]), window).unwrap();
    let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
    JoinQuery::new("segment-boundary-common", streams, cond).unwrap()
}

/// A `Sequential` session over `query` at `capacity`, K fixed at 0.
fn session(query: &JoinQuery, capacity: usize) -> Pipeline {
    Pipeline::builder()
        .query(query.clone().with_segment_capacity(capacity))
        .policy(BufferPolicy::FixedK(0))
        .build()
        .unwrap()
}

/// Live window segments summed over a session's shards.
fn window_segments(pipeline: &Pipeline) -> u64 {
    let stats = pipeline.engine().shard_stats();
    stats.iter().map(|s| s.runtime.window_segments).sum()
}

#[test]
fn tiny_capacity_takes_effect_in_this_process() {
    // Two sessions over the same in-order events, side by side in one
    // process: one at capacity 4, one at the default.  The tiny one must
    // seal every 4 rows, and the default one must not pick that up —
    // otherwise the boundary cases would silently run at the production
    // capacity, or leak their capacity into other sessions.
    let query = common_key_query(2, 100_000);
    let mut tiny = session(&query, TINY_CAPACITY);
    let mut default = session(&query, DEFAULT_CAPACITY);
    let (mut tiny_sink, mut default_sink) = (CountingSink::default(), CountingSink::default());
    for round in 0..20u64 {
        let ts = Timestamp::from_millis(10 * (round + 1));
        for stream in 0..2usize {
            let tuple = Tuple::new(
                stream.into(),
                round,
                ts,
                vec![Value::Int((round % 3) as i64)],
            );
            let event = ArrivalEvent::new(ts, tuple);
            tiny.push_into(event.clone(), &mut tiny_sink);
            default.push_into(event, &mut default_sink);
        }
    }
    let (tiny_segments, default_segments) = (window_segments(&tiny), window_segments(&default));
    assert_eq!(
        tiny_segments, 10,
        "20 rows a stream at capacity 4 must span 5 segments a window"
    );
    assert_eq!(default_segments, 2, "one segment a window at the default");
    let (tiny, default) = (
        tiny.finish_into(&mut tiny_sink),
        default.finish_into(&mut default_sink),
    );
    assert_eq!(tiny.total_produced, default.total_produced);
}

#[test]
fn window_bytes_are_reported_per_shard() {
    let mut rng = StdRng::seed_from_u64(0x5E61_0B17);
    let query = common_key_query(2, 800).with_segment_capacity(TINY_CAPACITY);
    let mut events = Vec::new();
    for stream in 0..2usize {
        for j in 0..80u64 {
            let arrival = (j + 1) * 10 + rng.gen_range(0u64..5);
            let ts = arrival.saturating_sub(rng.gen_range(0u64..=100));
            let key = rng.gen_range(0i64..6);
            events.push(ArrivalEvent::new(
                Timestamp::from_millis(arrival),
                Tuple::new(
                    stream.into(),
                    j,
                    Timestamp::from_millis(ts),
                    vec![Value::Int(key)],
                ),
            ));
        }
    }
    let events = ArrivalLog::from_events(events).events().to_vec();
    for backend in [
        ExecutionBackend::Sequential,
        ExecutionBackend::Pool { workers: 4 },
        ExecutionBackend::remote_inproc(4),
    ] {
        let mut pipeline = Pipeline::builder()
            .query(query.clone())
            .policy(BufferPolicy::FixedK(100))
            .parallelism(backend.clone())
            .build()
            .unwrap();
        let mut sink = CountingSink::default();
        // Snapshot mid-run, while the windows are still populated.
        for e in &events {
            pipeline.push_into(e.clone(), &mut sink);
        }
        let bytes: u64 = pipeline
            .engine()
            .shard_stats()
            .iter()
            .map(|s| s.runtime.window_bytes)
            .sum();
        assert!(bytes > 0, "{backend}: live windows must report bytes");
        let shards = pipeline.engine().shard_count();
        let report = pipeline.finish_into(&mut sink);
        assert_eq!(report.shard_stats.len(), shards, "{backend}");
    }
}
