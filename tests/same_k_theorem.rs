//! Empirical check of Theorem 1 (the Same-K policy): for any heterogeneous
//! configuration of per-stream K-slack buffer sizes there is an equivalent
//! common buffer size that yields the same join output.
//!
//! The theorem's equivalent common value is
//! `k = min_i(iT) - min_i(iT - k_i)`; for the stationary workloads used here
//! (both streams progress at the same rate, so `iT` is the same for both)
//! that is simply `max_i k_i`.

use mswj::prelude::*;
use std::sync::Arc;

/// A two-stream workload where both streams advance in lock-step and each
/// stream has periodic late tuples.
fn workload(n: u64) -> Vec<ArrivalEvent> {
    let mut events = Vec::new();
    for i in 1..=n {
        let t = i * 10;
        let ts0 = if i % 7 == 0 { t.saturating_sub(160) } else { t };
        let ts1 = if i % 11 == 0 {
            t.saturating_sub(320)
        } else {
            t
        };
        events.push(ArrivalEvent::new(
            Timestamp::from_millis(t),
            Tuple::new(
                0.into(),
                i,
                Timestamp::from_millis(ts0),
                vec![Value::Int((i % 5) as i64)],
            ),
        ));
        events.push(ArrivalEvent::new(
            Timestamp::from_millis(t),
            Tuple::new(
                1.into(),
                i,
                Timestamp::from_millis(ts1),
                vec![Value::Int((i % 5) as i64)],
            ),
        ));
    }
    events
}

fn query() -> JoinQuery {
    let streams =
        StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), 1_000).unwrap();
    let condition = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
    JoinQuery::new("same-k", streams, condition).unwrap()
}

/// Runs the raw component chain (K-slack per stream -> Synchronizer -> join
/// operator) with explicit per-stream buffer sizes and returns the total
/// number of produced results.
fn run_with_buffers(k0: u64, k1: u64, events: &[ArrivalEvent]) -> u64 {
    let mut ks = vec![mswj::core::KSlack::new(k0), mswj::core::KSlack::new(k1)];
    let mut sync = mswj::core::Synchronizer::new(2);
    let mut op = MswjOperator::new(query());
    let mut synced = Vec::new();
    let mut feed = |tuples: &mut Vec<Tuple>, sync: &mut mswj::core::Synchronizer| {
        for t in tuples.drain(..) {
            sync.push_into(t, &mut synced);
            for s in synced.drain(..) {
                op.push(s);
            }
        }
    };
    let mut released = Vec::new();
    for event in events {
        ks[event.stream().as_usize()].push_into(event.tuple.clone(), &mut released);
        feed(&mut released, &mut sync);
    }
    // Flush everything at end of stream, preserving timestamp order.
    for k in &mut ks {
        k.flush_into(&mut released);
    }
    released.sort_by_key(|t| t.ts);
    feed(&mut released, &mut sync);
    sync.flush_into(&mut released);
    for t in released {
        op.push(t);
    }
    op.stats().results
}

#[test]
fn heterogeneous_buffers_match_equivalent_common_buffer() {
    // Theorem 1 equates the *total* per-stream buffering (explicit K-slack
    // plus the implicit synchronizer buffer); the discrete implementation
    // can still process a handful of tuples in a different relative order at
    // the moment a late tuple crosses the buffer boundary, so we assert that
    // the produced output matches the equivalent common-K configuration up
    // to a sub-percent edge effect.
    let events = workload(2_000);
    for (k0, k1) in [(0u64, 200u64), (200, 0), (100, 300), (400, 150)] {
        // Both streams share the same iT trajectory, so Theorem 1's common
        // value reduces to max(k0, k1).
        let common = k0.max(k1);
        let hetero = run_with_buffers(k0, k1, &events) as f64;
        let same_k = run_with_buffers(common, common, &events) as f64;
        let rel_diff = (hetero - same_k).abs() / same_k.max(1.0);
        assert!(
            rel_diff < 0.01,
            "config ({k0},{k1}) deviates from common K = {common} by {:.3}%",
            rel_diff * 100.0
        );
    }

    // When only one stream is buffered and the other is perfectly in order,
    // the equivalence is exact.
    let mut ordered = workload(500);
    for e in &mut ordered {
        if e.stream() == StreamIndex(1) {
            e.tuple.ts = e.arrival;
        }
    }
    assert_eq!(
        run_with_buffers(300, 0, &ordered),
        run_with_buffers(300, 300, &ordered)
    );
}

#[test]
fn larger_common_buffer_never_loses_results() {
    let events = workload(2_000);
    let mut last = 0;
    for k in [0u64, 100, 200, 400, 800] {
        let produced = run_with_buffers(k, k, &events);
        assert!(
            produced >= last,
            "K={k} produced {produced} < previous {last}"
        );
        last = produced;
    }
}

#[test]
fn skew_between_kslack_outputs_equals_raw_skew() {
    // Proposition 1: with the Same-K policy the time skew between the
    // K-slack output streams equals the skew between the raw inputs.
    let events = workload(500);
    for k in [0u64, 150, 500] {
        let mut ks = [mswj::core::KSlack::new(k), mswj::core::KSlack::new(k)];
        let mut raw = mswj_types::SkewTracker::new(2);
        let mut released = Vec::new();
        for event in &events {
            raw.observe(event.stream(), event.ts());
            ks[event.stream().as_usize()].push_into(event.tuple.clone(), &mut released);
        }
        let out_skew = ks[0].local_time().abs_diff(ks[1].local_time());
        let raw_skew = raw.skew(StreamIndex(0), StreamIndex(1));
        assert_eq!(out_skew, raw_skew);
    }
}
