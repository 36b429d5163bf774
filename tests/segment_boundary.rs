//! Differential suite with the segment capacity forced to 4.
//!
//! The segmented window seals its tail every few rows here, so ordinary
//! workloads constantly cross seal/drop boundaries: multi-segment buckets,
//! whole-segment expiry, boundary-segment prefix expiry, zone-map pruning
//! over many small segments and segment rebuilds under skew surgery.  Every
//! backend must still be byte-identical to the sequential reference — the
//! storage layout is an access-path choice, never an output choice.
//!
//! This file is its own test binary on purpose:
//! [`set_default_segment_capacity`] is process-wide, so the tiny capacity
//! must not leak into the other suites.  Every test sets it first (they all
//! agree on the value, so concurrent test threads are fine).

use mswj::prelude::*;
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

/// Runs one materializing session over `events` on the given backend,
/// optionally arming hot-key splitting.
fn run(
    query: &JoinQuery,
    policy: &BufferPolicy,
    backend: ExecutionBackend,
    batch: usize,
    events: &[ArrivalEvent],
    skew: Option<SkewConfig>,
) -> (Vec<String>, RunReport) {
    let mut builder = Pipeline::builder()
        .query(query.clone())
        .policy(policy.clone())
        .parallelism(backend)
        .materialize_results();
    if let Some(config) = skew {
        builder = builder.skew_splitting_with(config);
    }
    let mut pipeline = builder.build().unwrap();
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
    let (seq_results, seq_report) =
        run(query, policy, ExecutionBackend::Sequential, 1, events, None);
    for (backend, batch) in [
        (ExecutionBackend::Pool { workers: 1 }, 1),
        (ExecutionBackend::Pool { workers: 4 }, 64),
        (ExecutionBackend::Pool { workers: 4 }, 1),
        (ExecutionBackend::remote_inproc(4), 64),
    ] {
        let (results, report) = run(query, policy, backend.clone(), batch, events, None);
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

fn star_query(window: u64) -> JoinQuery {
    let streams = StreamSet::new(vec![
        StreamSpec::new(
            "S1",
            Schema::new(vec![("a1", FieldType::Int), ("a2", FieldType::Int)]),
            window,
        ),
        StreamSpec::new("S2", Schema::new(vec![("a1", FieldType::Int)]), window),
        StreamSpec::new("S3", Schema::new(vec![("a2", FieldType::Int)]), window),
    ])
    .unwrap();
    let cond =
        Arc::new(StarEquiJoin::new(&streams, 0, &[(1, "a1", "a1"), (2, "a2", "a2")]).unwrap());
    JoinQuery::new("segment-boundary-star", streams, cond).unwrap()
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
    // Floats, strings and Nulls land in tiny segments: the zone maps must
    // track string/bool residency per segment and the fallback scans must
    // prune without losing a single numeric coercion match.
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
fn skewed_splitting_agrees_at_segment_boundaries() {
    // Hot-key splitting exercises `retain_where` surgery (segment rebuilds)
    // and `adopt` migration into tiny tails, against the unsplit reference.
    set_default_segment_capacity(TINY_CAPACITY);
    let skew = SkewConfig {
        split_share: 0.3,
        unsplit_share: 0.1,
        min_routed: 48,
    };
    let mut any_split = false;
    for case in 0..2usize {
        let mut rng = StdRng::seed_from_u64(0x5E61_5917 + case as u64);
        let window = rng.gen_range(300u64..900);
        let query = common_key_query(2, window);
        let policy = policy_for(case, &mut rng);
        let shift = case % 2 == 1;
        let mut sent = [0usize; 2];
        let events = gen_events(
            &mut rng,
            2,
            120,
            300,
            |rng, stream, key| {
                let j = sent[stream];
                sent[stream] += 1;
                let hot = if shift && j >= 60 { 13 } else { 7 };
                vec![Value::Int(if rng.gen_bool(0.6) { hot } else { 100 + key })]
            },
            8,
        );
        let label = format!("seg skewed #{case}");
        let (want, want_report) = run(
            &query,
            &policy,
            ExecutionBackend::Sequential,
            1,
            &events,
            None,
        );
        for (backend, batch) in [
            (ExecutionBackend::Pool { workers: 4 }, 64),
            (ExecutionBackend::remote_inproc(4), 64),
        ] {
            let (results, report) =
                run(&query, &policy, backend.clone(), batch, &events, Some(skew));
            assert_eq!(
                want, results,
                "[{label}] {backend} with splitting must match the unsplit reference"
            );
            assert_eq!(want_report.produced, report.produced, "[{label}] {backend}");
            any_split |= report.skew_transitions.iter().any(|t| t.split);
        }
    }
    assert!(any_split, "at least one workload must actually split");
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
