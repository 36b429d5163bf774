//! Differential suite with the segment capacity forced to 4.
//!
//! The segmented window seals its tail every few rows here, so ordinary
//! workloads constantly cross seal/drop boundaries: multi-segment buckets,
//! whole-segment expiry, boundary-segment prefix expiry, fallback scans
//! over many small segments and segment rebuilds under pair-switch
//! surgery.  Every backend must still be byte-identical to the sequential
//! reference — the storage layout is an access-path choice, never an
//! output choice.
//!
//! This file is its own test binary on purpose:
//! [`set_default_segment_capacity`] is process-wide, so the tiny capacity
//! must not leak into the other suites.  Every test sets it first (they all
//! agree on the value, so concurrent test threads are fine).

mod pair_switch;

use mswj::prelude::*;
use pair_switch::star_query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const TINY_CAPACITY: usize = 4;

/// Canonical multiset encoding of materialized results.
fn canon(results: &[JoinResult]) -> Vec<String> {
    let mut v: Vec<String> = results.iter().map(|r| r.to_string()).collect();
    v.sort();
    v
}

/// Runs one materializing session over `events` on the given backend.
fn run(
    query: &JoinQuery,
    policy: &BufferPolicy,
    backend: ExecutionBackend,
    batch: usize,
    events: &[ArrivalEvent],
) -> (Vec<String>, RunReport) {
    let mut pipeline = Pipeline::builder()
        .query(query.clone())
        .policy(policy.clone())
        .parallelism(backend)
        .materialize_results()
        .build()
        .unwrap();
    let mut sink = CollectSink::default();
    if batch <= 1 {
        for e in events {
            pipeline.push_into(e.clone(), &mut sink);
        }
    } else {
        for chunk in events.chunks(batch) {
            pipeline.push_batch_into(chunk.iter().cloned(), &mut sink);
        }
    }
    let report = pipeline.finish_into(&mut sink);
    assert_eq!(sink.results.len() as u64, report.total_produced);
    (canon(&sink.results), report)
}

/// Asserts every backend matches the sequential reference on results,
/// per-probe trajectory, adaptation sequence and ordering statistics.
fn assert_backends_agree(
    query: &JoinQuery,
    policy: &BufferPolicy,
    events: &[ArrivalEvent],
    label: &str,
) -> RunReport {
    let (seq_results, seq_report) = run(query, policy, ExecutionBackend::Sequential, 1, events);
    for (backend, batch) in [
        (ExecutionBackend::Pool { workers: 1 }, 1),
        (ExecutionBackend::Pool { workers: 4 }, 64),
        (ExecutionBackend::Pool { workers: 4 }, 1),
        (ExecutionBackend::remote_inproc(4), 64),
    ] {
        let (results, report) = run(query, policy, backend.clone(), batch, events);
        assert_eq!(
            seq_results, results,
            "[{label}] {backend} must produce a byte-identical result multiset \
             with segment capacity {TINY_CAPACITY}"
        );
        assert_eq!(seq_report.produced, report.produced, "[{label}] {backend}");
        let ks = |r: &RunReport| r.checkpoints.iter().map(|c| c.k).collect::<Vec<_>>();
        assert_eq!(ks(&seq_report), ks(&report), "[{label}] {backend}");
        let s = (seq_report.operator_stats, report.operator_stats);
        assert_eq!(s.0.in_order, s.1.in_order, "[{label}] {backend}");
        assert_eq!(s.0.out_of_order, s.1.out_of_order, "[{label}] {backend}");
        assert_eq!(s.0.dropped, s.1.dropped, "[{label}] {backend}");
        assert_eq!(s.0.expired, s.1.expired, "[{label}] {backend}");
        assert_eq!(s.0.cross_results, s.1.cross_results, "[{label}] {backend}");
    }
    seq_report
}

/// Rotates through the buffer-size policies.
fn policy_for(case: usize, rng: &mut StdRng) -> BufferPolicy {
    match case % 5 {
        0 => BufferPolicy::NoKSlack,
        1 => BufferPolicy::MaxKSlack,
        2 => BufferPolicy::FixedK(rng.gen_range(40u64..400)),
        _ => BufferPolicy::QualityDriven(
            DisorderConfig::with_gamma(rng.gen_range(0.7f64..0.99))
                .period(1_000)
                .interval(250)
                .granularity(20)
                .basic_window(20),
        ),
    }
}

/// One tuple every 10 ms per stream with bursty delays (see the main
/// differential harness; this is the same generator at reduced scale).
fn gen_events(
    rng: &mut StdRng,
    m: usize,
    per_stream: usize,
    max_delay: u64,
    mut value_of: impl FnMut(&mut StdRng, usize, i64) -> Vec<Value>,
    domain: i64,
) -> Vec<ArrivalEvent> {
    let mut events = Vec::with_capacity(m * per_stream);
    for stream in 0..m {
        for j in 0..per_stream {
            let arrival = (j as u64 + 1) * 10 + rng.gen_range(0u64..5);
            let calm = (j / 15) % 2 == 0;
            let delay = if calm {
                rng.gen_range(0u64..=max_delay / 8 + 1)
            } else {
                rng.gen_range(0u64..=max_delay)
            };
            let ts = arrival.saturating_sub(delay);
            let key = rng.gen_range(0i64..domain);
            events.push(ArrivalEvent::new(
                Timestamp::from_millis(arrival),
                Tuple::new(
                    stream.into(),
                    j as u64,
                    Timestamp::from_millis(ts),
                    value_of(rng, stream, key),
                ),
            ));
        }
    }
    ArrivalLog::from_events(events).events().to_vec()
}

fn common_key_query(m: usize, window: u64) -> JoinQuery {
    let streams =
        StreamSet::homogeneous(m, Schema::new(vec![("a1", FieldType::Int)]), window).unwrap();
    let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
    JoinQuery::new("segment-boundary-common", streams, cond).unwrap()
}

#[test]
fn tiny_capacity_takes_effect_in_this_process() {
    set_default_segment_capacity(TINY_CAPACITY);
    // Windows built after the override must seal every 4 rows — otherwise
    // the suite below would silently run at the production capacity and
    // exercise no boundaries at all.
    let mut w = Window::with_indexed_columns(100_000, &[0]);
    for i in 0..20u64 {
        w.insert(Tuple::new(
            0.into(),
            i,
            Timestamp::from_millis(10 * (i + 1)),
            vec![Value::Int((i % 3) as i64)],
        ));
    }
    let s = w.stats();
    assert_eq!(s.segments, 5, "20 rows at capacity 4 must span 5 segments");
    assert_eq!(s.sealed_segments, 4);
}

#[test]
fn common_key_workloads_agree_at_segment_boundaries() {
    set_default_segment_capacity(TINY_CAPACITY);
    let mut any_results = 0u64;
    for case in 0..6usize {
        let mut rng = StdRng::seed_from_u64(0x5E61_0BAC + case as u64);
        let m = 2 + case % 2;
        let window = if m == 2 {
            rng.gen_range(300u64..1_200)
        } else {
            rng.gen_range(200u64..500)
        };
        let query = common_key_query(m, window);
        let policy = policy_for(case, &mut rng);
        let events = gen_events(
            &mut rng,
            m,
            if m == 2 { 90 } else { 70 },
            300,
            |_, _, key| vec![Value::Int(key)],
            if m == 2 { 6 } else { 8 },
        );
        let report =
            assert_backends_agree(&query, &policy, &events, &format!("seg common #{case}"));
        any_results += report.total_produced;
    }
    assert!(any_results > 0, "workloads must derive join results");
}

#[test]
fn star_workloads_agree_at_segment_boundaries() {
    set_default_segment_capacity(TINY_CAPACITY);
    let mut any_results = 0u64;
    for case in 0..4usize {
        let mut rng = StdRng::seed_from_u64(0x5E61_57A2 + case as u64);
        let window = rng.gen_range(200u64..500);
        let query = star_query(window);
        let policy = policy_for(case, &mut rng);
        let events = gen_events(
            &mut rng,
            3,
            70,
            250,
            |rng, stream, key| {
                if stream == 0 {
                    vec![Value::Int(key), Value::Int(rng.gen_range(0i64..5))]
                } else {
                    vec![Value::Int(key)]
                }
            },
            5,
        );
        let report = assert_backends_agree(&query, &policy, &events, &format!("seg star #{case}"));
        any_results += report.total_produced;
    }
    assert!(any_results > 0, "star workloads must derive join results");
}

#[test]
fn mixed_type_keys_agree_at_segment_boundaries() {
    // Floats, strings and Nulls land in tiny segments: the per-segment
    // unindexable tallies must gate the index exactly, and the fallback
    // scans must find every numeric coercion match across them.
    set_default_segment_capacity(TINY_CAPACITY);
    let mut any_results = 0u64;
    for case in 0..4usize {
        let mut rng = StdRng::seed_from_u64(0x5E61_F10A + case as u64);
        let m = 2 + case % 2;
        let window = if m == 2 { 600 } else { 350 };
        let query = common_key_query(m, window);
        let policy = policy_for(case + 3, &mut rng);
        let events = gen_events(
            &mut rng,
            m,
            60,
            200,
            |rng, _, key| {
                let roll = rng.gen_range(0u64..20);
                vec![match roll {
                    0 => Value::Float(key as f64),       // numerically joins Int(key)
                    1 => Value::Float(key as f64 + 0.5), // joins nothing
                    2 => Value::Null,
                    3 => Value::Str(format!("s{key}")),
                    _ => Value::Int(key),
                }]
            },
            4,
        );
        let report = assert_backends_agree(&query, &policy, &events, &format!("seg mixed #{case}"));
        any_results += report.total_produced;
    }
    assert!(any_results > 0, "mixed workloads must derive join results");
}

#[test]
fn pair_switch_agrees_at_segment_boundaries() {
    // A star pair switch exercises `retain_where` surgery (segment
    // rebuilds) and `adopt` migration into tiny tails, against the
    // single-shard sequential reference.
    set_default_segment_capacity(TINY_CAPACITY);
    let query = star_query(240);
    let policy = pair_switch::policy();
    let events = pair_switch::star_events(2);
    let (want, want_report) = run(&query, &policy, ExecutionBackend::Sequential, 1, &events);
    for (backend, batch) in [
        (ExecutionBackend::Pool { workers: 4 }, 64),
        (ExecutionBackend::remote_inproc(4), 64),
    ] {
        let (results, report) = run(&query, &policy, backend.clone(), batch, &events);
        assert_eq!(
            want, results,
            "[seg switch] {backend} re-planned run must match the sequential reference"
        );
        assert_eq!(
            want_report.produced, report.produced,
            "[seg switch] {backend}"
        );
        let ks = |r: &RunReport| r.checkpoints.iter().map(|c| c.k).collect::<Vec<_>>();
        assert_eq!(ks(&want_report), ks(&report), "[seg switch] {backend}");
        assert!(
            report
                .plan_transitions
                .iter()
                .any(|t| (t.from, t.to) == (1, 2)),
            "[seg switch] {backend} must switch its pair: {:?}",
            report.plan_transitions
        );
        assert!(
            pair_switch::migrated_tuples(&report) > 0,
            "[seg switch] {backend} must move state"
        );
    }
}

#[test]
fn window_bytes_are_reported_per_shard() {
    set_default_segment_capacity(TINY_CAPACITY);
    let mut rng = StdRng::seed_from_u64(0x5E61_0B17);
    let query = common_key_query(2, 800);
    let events = gen_events(&mut rng, 2, 80, 100, |_, _, key| vec![Value::Int(key)], 6);
    for backend in [
        ExecutionBackend::Sequential,
        ExecutionBackend::Pool { workers: 4 },
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
        assert_eq!(report.shard_stats.len(), shards);
    }
}
