//! Differential harness for the sharded execution backends.
//!
//! Every randomized m-way workload is run through sessions that differ
//! **only** in the execution backend of the join stage:
//! [`ExecutionBackend::Sequential`] (one shard, byte-identical to the
//! pre-engine pipeline), `Pool { workers: 1 }` (the sharded machinery on
//! one shard) and `Pool { workers: 4 }` (key-partitioned across four shards
//! on **resident** workers, merged in deterministic shard order, with
//! pipelined, epoch-deferred ingestion — both batched, where epochs
//! actually defer, and single-event, where the sub-threshold inline
//! fallback runs).  The sessions must emit byte-identical multisets of
//! [`JoinResult`]s, the same per-probe result trajectory and — because the
//! engine computes `n_x(e)` and expiry globally, and the pipeline places an
//! epoch barrier at every checkpoint and buffer-size change — the very same
//! adaptation (checkpoint-K) sequence, under out-of-order arrivals, K-slack
//! shrinks and expansions, checkpoint-forced intermediate flushes,
//! common-key and star shapes, adversarial mixed-type keys and
//! unpartitionable conditions.
//!
//! Well over 60 randomized workloads run across the tests below
//! (30 common-key + 15 star + 15 mixed-type + 6 unpartitionable), each
//! compared across the backend/batching matrix above — which also includes
//! `Remote` with in-process shard servers, so every workload additionally
//! round-trips all of its epochs and barriers through the versioned wire
//! codec.  Separate tests drive the `Remote` backend against real
//! `mswj-shardd` processes over Unix-domain sockets.
//!
//! The `*_at_segment_boundaries` tests rerun the common-key, star,
//! mixed-type and star-flood matrices with every backend's windows at
//! segment capacity 4 ([`JoinQuery::with_segment_capacity`]), against the
//! sequential reference at the default capacity.  Tails then seal every
//! four rows, so ordinary workloads constantly cross seal/drop boundaries
//! — multi-segment buckets, whole-segment expiry, boundary-segment prefix
//! expiry and fallback scans over many small segments — and each backend
//! is checked against a different layout and a different executor at
//! once.

mod star_flood;

use mswj::core::EngineEvent;
use mswj::join::ProbeOutcome;
use mswj::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use star_flood::{event, star_query};
use std::sync::Arc;

/// A running `mswj-shardd` child serving a Unix-domain socket, killed (and
/// its socket file removed) on drop.
struct Shardd {
    child: std::process::Child,
    path: std::path::PathBuf,
}

impl Shardd {
    /// Spawns the daemon on a fresh socket path; `transport::connect`'s
    /// retry loop absorbs the bind race.
    fn spawn(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("mswj-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let child = std::process::Command::new(env!("CARGO_BIN_EXE_mswj-shardd"))
            .arg("--uds")
            .arg(&path)
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawning mswj-shardd");
        Shardd { child, path }
    }

    /// A remote backend with `shards` connections to this daemon (each
    /// connection gets its own shard operator server-side).
    fn backend(&self, shards: usize) -> ExecutionBackend {
        ExecutionBackend::Remote {
            endpoints: vec![Endpoint::Uds(self.path.clone()); shards],
        }
    }
}

impl Drop for Shardd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.path);
    }
}

/// `JoinQuery`'s default segment capacity.
const DEFAULT_CAPACITY: usize = 1_024;

/// A capacity at which ordinary workloads seal a tail every four rows.
const TINY_CAPACITY: usize = 4;

/// Canonical multiset encoding of materialized results.
fn canon(results: &[JoinResult]) -> Vec<String> {
    let mut v: Vec<String> = results.iter().map(|r| r.to_string()).collect();
    v.sort();
    v
}

/// Runs one materializing session over `events` on the given backend.
/// `batch` > 1 drives it through `push_batch_into` in chunks of that size.
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
    assert_eq!(
        sink.results.len() as u64,
        report.total_produced,
        "sink must see exactly the results the report counts"
    );
    let shard_results: u64 = report.shard_stats.iter().map(|s| s.operator.results).sum();
    assert_eq!(
        shard_results, report.total_produced,
        "per-shard result counters must sum to the total"
    );
    (canon(&sink.results), report)
}

/// Every `Done` outcome of `events`' tuples pushed straight into a
/// counting or `enumerate`-ing engine in arrival order (no K-slack, so a
/// good share arrive late), `batch` at a time, then synced.  `indexed` is
/// masked: an unindexable value only poisons the shard it lives in.
fn engine_outcomes(
    query: &JoinQuery,
    backend: ExecutionBackend,
    enumerate: bool,
    batch: usize,
    events: &[ArrivalEvent],
) -> Vec<ProbeOutcome> {
    let mut engine = JoinEngine::new(query.clone(), ProbeStrategy::Auto, enumerate, backend);
    let mut outcomes = Vec::new();
    let mut handler = |ev: EngineEvent<'_>| {
        if let EngineEvent::Done(o) = ev {
            outcomes.push(ProbeOutcome {
                indexed: false,
                ..o
            });
        }
    };
    for chunk in events.chunks(batch) {
        engine.push_batch(chunk.iter().map(|e| e.tuple.clone()), &mut handler);
    }
    engine.sync(&mut handler);
    outcomes
}

/// Asserts that every backend, its windows at segment `capacity`, agrees
/// with the `Sequential` reference at the default capacity on results,
/// per-probe trajectory, ordering statistics and the adaptation
/// (checkpoint-K) sequence — batched (where `Pool` epochs defer across
/// flush boundaries) as well as single-event (where the sub-threshold
/// inline fallback runs) — and, driven through a bare engine, on every
/// tuple's outcome: the counted loss `n_lost` of each kept late tuple, the
/// expiry it caused, and everything else; returns the sequential report.
fn assert_backends_agree(
    query: &JoinQuery,
    policy: &BufferPolicy,
    events: &[ArrivalEvent],
    label: &str,
    capacity: usize,
) -> RunReport {
    let (seq_results, seq_report) = run(query, policy, ExecutionBackend::Sequential, 1, events);
    let seq_outcomes = engine_outcomes(query, ExecutionBackend::Sequential, false, 1, events);
    assert!(
        seq_outcomes.iter().any(|o| o.n_lost > 0),
        "[{label}] the workload must count late losses"
    );
    let layout = query.clone().with_segment_capacity(capacity);
    for (backend, batch) in [
        (ExecutionBackend::Pool { workers: 1 }, 1),
        (ExecutionBackend::Pool { workers: 4 }, 64),
        (ExecutionBackend::Pool { workers: 4 }, 1),
        // In-process shard servers: every epoch and barrier crosses the
        // wire codec; the workload must survive serialization unchanged.
        (ExecutionBackend::remote_inproc(4), 64),
    ] {
        let (results, report) = run(&layout, policy, backend.clone(), batch, events);
        let label = format!("{label}, capacity {capacity}");
        assert_eq!(
            seq_results, results,
            "[{label}] {backend} must produce a byte-identical result multiset"
        );
        assert_eq!(seq_report.total_produced, report.total_produced);
        assert_eq!(
            seq_report.produced, report.produced,
            "[{label}] {backend} per-probe result trajectory diverged"
        );
        let ks = |r: &RunReport| {
            let k = |c: &Checkpoint| (c.k, c.n_true_next, c.n_lost_next, c.n_dropped_next);
            r.checkpoints.iter().map(k).collect::<Vec<_>>()
        };
        assert_eq!(
            ks(&seq_report),
            ks(&report),
            "[{label}] {backend} adaptation trajectory diverged"
        );
        // Counting and enumerating shards alike: an enumerating operator
        // counts a late tuple's loss through its postings windows.
        for enumerate in [false, true] {
            let outcomes = engine_outcomes(&layout, backend.clone(), enumerate, batch, events);
            assert_eq!(seq_outcomes.len(), outcomes.len(), "[{label}] {backend}");
            for (n, (want, got)) in seq_outcomes.iter().zip(&outcomes).enumerate() {
                assert_eq!(
                    want, got,
                    "[{label}] {backend}, enumerate {enumerate}: #{n}"
                );
            }
        }
        let s = (seq_report.operator_stats, report.operator_stats);
        assert_eq!(s.0.in_order, s.1.in_order, "[{label}] {backend}");
        assert_eq!(s.0.out_of_order, s.1.out_of_order, "[{label}] {backend}");
        assert_eq!(s.0.dropped, s.1.dropped, "[{label}] {backend}");
        assert_eq!(s.0.expired, s.1.expired, "[{label}] {backend}");
        assert_eq!(s.0.cross_results, s.1.cross_results, "[{label}] {backend}");
    }
    seq_report
}

/// Rotates through every buffer-size policy, biased towards quality-driven
/// sessions whose adaptation both shrinks and expands K mid-run.
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

/// One tuple every 10 ms per stream, with bursty delays (alternating calm
/// and chaotic phases) so adaptive policies shrink *and* expand K.
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
    JoinQuery::new("diff-backend-common", streams, cond).unwrap()
}

/// One randomized workload: the query, the policy and the arrival order.
type Workload = (JoinQuery, BufferPolicy, Vec<ArrivalEvent>);

/// Common-key workload `case` of the series seeded at `seed`: two- and
/// three-way in turn.
fn common_key_workload(seed: u64, case: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed + case as u64);
    let m = 2 + case % 2;
    let window = if m == 2 {
        rng.gen_range(300u64..1_200)
    } else {
        rng.gen_range(200u64..500)
    };
    let domain = if m == 2 { 6 } else { 8 };
    let query = common_key_query(m, window);
    let policy = policy_for(case, &mut rng);
    let events = gen_events(
        &mut rng,
        m,
        if m == 2 { 90 } else { 70 },
        300,
        |_, _, key| vec![Value::Int(key)],
        domain,
    );
    (query, policy, events)
}

/// Three-way star workload `case` of the series seeded at `seed`.
fn star_workload(seed: u64, case: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed + case as u64);
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
    (query, policy, events)
}

/// Mixed-type workload `case` of the series seeded at `seed`.  Adversarial
/// key columns: floats that join integers numerically (join_eq coercion —
/// the partitioner must route them with the integer's hash), floats that
/// join nothing, Nulls and strings.
fn mixed_type_workload(seed: u64, case: usize) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed + case as u64);
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
    (query, policy, events)
}

/// Runs [`assert_backends_agree`] at segment `capacity` over `cases`
/// workloads of one series, asserts they derive results, and returns the
/// sequential reports.
fn assert_series_agrees(
    label: &str,
    cases: usize,
    workload: impl Fn(usize) -> Workload,
    capacity: usize,
) -> Vec<RunReport> {
    let reports: Vec<RunReport> = (0..cases)
        .map(|case| {
            let (query, policy, events) = workload(case);
            let label = format!("{label} #{case}");
            assert_backends_agree(&query, &policy, &events, &label, capacity)
        })
        .collect();
    let produced: u64 = reports.iter().map(|r| r.total_produced).sum();
    assert!(produced > 0, "{label} workloads must derive join results");
    reports
}

#[test]
fn common_key_workloads_agree_across_backends() {
    let reports = assert_series_agrees(
        "common",
        30,
        |case| common_key_workload(0x0BAC_CE4D, case),
        DEFAULT_CAPACITY,
    );
    let mut k_shrunk = false;
    let mut k_expanded = false;
    for report in &reports {
        for w in report.checkpoints.windows(2) {
            k_shrunk |= w[1].k < w[0].k;
            k_expanded |= w[1].k > w[0].k;
        }
    }
    assert!(
        k_shrunk && k_expanded,
        "adaptive sessions must both shrink and expand K across the workloads \
         (shrunk: {k_shrunk}, expanded: {k_expanded})"
    );
}

#[test]
fn common_key_workloads_agree_at_segment_boundaries() {
    let workload = |case| common_key_workload(0x5E61_0BAC, case);
    assert_series_agrees("seg common", 6, workload, TINY_CAPACITY);
}

#[test]
fn star_workloads_agree_across_backends() {
    let workload = |case| star_workload(0x57A2_BACC, case);
    assert_series_agrees("star", 15, workload, DEFAULT_CAPACITY);
}

#[test]
fn star_workloads_agree_at_segment_boundaries() {
    let workload = |case| star_workload(0x5E61_57A2, case);
    assert_series_agrees("seg star", 4, workload, TINY_CAPACITY);
}

#[test]
fn mixed_type_keys_agree_across_backends() {
    let workload = |case| mixed_type_workload(0xF10A_7BAC, case);
    assert_series_agrees("mixed", 15, workload, DEFAULT_CAPACITY);
}

#[test]
fn mixed_type_keys_agree_at_segment_boundaries() {
    // Floats, strings and Nulls land in tiny segments: the per-segment
    // unindexable tallies must gate the index exactly, and the fallback
    // scans must find every numeric coercion match across them.
    let workload = |case| mixed_type_workload(0x5E61_F10A, case);
    assert_series_agrees("seg mixed", 4, workload, TINY_CAPACITY);
}

#[test]
fn unpartitionable_conditions_fall_back_to_one_shard() {
    // Cross joins, band joins and forced nested-loop probes expose no key
    // to partition on: the parallel backends must transparently degrade to
    // a single broadcast shard and still match the sequential reference.
    for case in 0..6usize {
        let mut rng = StdRng::seed_from_u64(0x0B0A_DCA5 + case as u64);
        let policy = policy_for(case, &mut rng);
        let events = gen_events(&mut rng, 2, 50, 150, |_, _, key| vec![Value::Int(key)], 3);
        let streams =
            StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), 300).unwrap();
        let query = match case % 2 {
            0 => JoinQuery::new("diff-cross", streams, Arc::new(CrossJoin::new(2))).unwrap(),
            _ => JoinQuery::new(
                "diff-band",
                streams.clone(),
                Arc::new(BandJoin::new(&streams, "a1", 1.0).unwrap()),
            )
            .unwrap(),
        };
        let label = format!("unpartitionable #{case}");
        let _ = assert_backends_agree(&query, &policy, &events, &label, DEFAULT_CAPACITY);
        // The engine must have collapsed to one shard on both backends.
        for backend in [
            ExecutionBackend::Pool { workers: 4 },
            ExecutionBackend::remote_inproc(4),
        ] {
            let p = Pipeline::builder()
                .query(query.clone())
                .policy(policy.clone())
                .parallelism(backend.clone())
                .build()
                .unwrap();
            assert_eq!(p.engine().shard_count(), 1, "[{label}] {backend}");
        }
    }
}

/// Runs the star flood scenario with the flood on the broadcast path
/// (see `star_flood`) on each of `backends`, its windows at segment
/// `capacity`, and asserts that it stays byte-identical to the
/// single-shard sequential reference at the default capacity.
fn assert_star_flood_agrees(label: &str, backends: &[(ExecutionBackend, usize)], capacity: usize) {
    let policy = star_flood::policy();
    let events = star_flood::star_events(2);
    let query = star_query(240);
    let (want, want_report) = run(&query, &policy, ExecutionBackend::Sequential, 1, &events);
    assert!(!want.is_empty(), "[{label}] the scenario must join");
    let layout = query.with_segment_capacity(capacity);
    for (backend, batch) in backends {
        let label = format!("{label}, capacity {capacity}");
        let (results, report) = run(&layout, &policy, backend.clone(), *batch, &events);
        assert_eq!(
            want, results,
            "[{label}] {backend} must match the sequential reference"
        );
        assert_eq!(want_report.produced, report.produced, "[{label}] {backend}");
        let ks = |r: &RunReport| r.checkpoints.iter().map(|c| c.k).collect::<Vec<_>>();
        assert_eq!(ks(&want_report), ks(&report), "[{label}] {backend}");
        let s = (want_report.operator_stats, report.operator_stats);
        assert_eq!(s.0.in_order, s.1.in_order, "[{label}] {backend}");
        assert_eq!(s.0.out_of_order, s.1.out_of_order, "[{label}] {backend}");
        assert_eq!(s.0.dropped, s.1.dropped, "[{label}] {backend}");
        assert_eq!(s.0.expired, s.1.expired, "[{label}] {backend}");
        assert_eq!(s.0.cross_results, s.1.cross_results, "[{label}] {backend}");
    }
}

#[test]
fn star_flood_on_the_broadcast_path_agrees_across_backends() {
    // The flooding satellite is declared second, so every shard stores and
    // probes all of it; the result multiset, the per-probe trajectory and
    // the adaptation sequence must still be byte-identical to the
    // single-shard sequential reference.
    let backends = [
        (ExecutionBackend::Pool { workers: 4 }, 64),
        (ExecutionBackend::Pool { workers: 4 }, 1),
        // Broadcast tuples cross the wire codec to every shard server.
        (ExecutionBackend::remote_inproc(4), 64),
    ];
    assert_star_flood_agrees("star flood", &backends, DEFAULT_CAPACITY);
}

#[test]
fn star_flood_on_the_broadcast_path_agrees_at_segment_boundaries() {
    // The broadcast flood seals a tail every four rows on every shard.
    let backends = [
        (ExecutionBackend::Pool { workers: 4 }, 64),
        (ExecutionBackend::Pool { workers: 4 }, 1),
        (ExecutionBackend::remote_inproc(4), 64),
    ];
    assert_star_flood_agrees("seg star flood", &backends, TINY_CAPACITY);
}

/// Live columnar segments summed over every shard of a common-key session
/// on `backend` with its windows at segment `capacity`, read mid-run at a
/// barrier (`shard_stats` round-trips one on `Remote`); the session's
/// window bytes must be non-zero at that point.
fn mid_run_window_segments(backend: &ExecutionBackend, capacity: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(0x5E61_0B17);
    let query = common_key_query(2, 800).with_segment_capacity(capacity);
    let events = gen_events(&mut rng, 2, 80, 100, |_, _, key| vec![Value::Int(key)], 6);
    let mut pipeline = Pipeline::builder()
        .query(query)
        .policy(BufferPolicy::FixedK(100))
        .parallelism(backend.clone())
        .build()
        .unwrap();
    let mut sink = CountingSink::default();
    // Batches large enough that epochs run on the pool workers and the
    // shard servers, not inline.
    for chunk in events.chunks(64) {
        pipeline.push_batch_into(chunk.iter().cloned(), &mut sink);
    }
    let stats = pipeline.engine().shard_stats();
    let bytes: u64 = stats.iter().map(|s| s.runtime.window_bytes).sum();
    assert!(bytes > 0, "{backend}: live windows must report bytes");
    let shards = pipeline.engine().shard_count();
    let report = pipeline.finish_into(&mut sink);
    assert_eq!(report.shard_stats.len(), shards, "{backend}");
    stats.iter().map(|s| s.runtime.window_segments).sum()
}

#[test]
fn segment_capacity_reaches_every_shard() {
    // The `*_at_segment_boundaries` cases cover boundaries only if every
    // shard really stores its windows at the query's capacity: a shard
    // left at the default would agree with the reference and cross no
    // boundary.  Each backend's shards must hold more segments at 4, and
    // report their live window bytes at either capacity.
    for backend in [
        ExecutionBackend::Sequential,
        ExecutionBackend::Pool { workers: 4 },
        ExecutionBackend::remote_inproc(4),
    ] {
        let tiny = mid_run_window_segments(&backend, TINY_CAPACITY);
        let default = mid_run_window_segments(&backend, DEFAULT_CAPACITY);
        assert!(
            tiny > default,
            "{backend}: {tiny} segments at capacity {TINY_CAPACITY}, \
             {default} at {DEFAULT_CAPACITY}"
        );
    }
}

#[test]
fn remote_inproc_frames_larger_than_a_socket_buffer_agree_with_sequential() {
    // A socket pair blocks a writer once a frame outgrows its buffer (a few
    // hundred KiB); the in-memory pipe it replaced never did.  One 800 ms
    // batch of padded tuples — below the 1 s checkpoint interval, so it
    // ships as one epoch — makes each shard's Task and Output frames
    // larger than 1 MiB.
    const MIB: u64 = 1 << 20;
    let streams = StreamSet::homogeneous(
        2,
        Schema::new(vec![("a1", FieldType::Int), ("pad", FieldType::Str)]),
        500,
    )
    .unwrap();
    let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
    let query = JoinQuery::new("diff-large-frames", streams, cond).unwrap();
    let pad = "p".repeat(256);
    let mut rng = StdRng::seed_from_u64(0x1A26_E5F5);
    let events: Vec<ArrivalEvent> = (0..12_000u64)
        .map(|i| {
            let key = Value::Int(rng.gen_range(0i64..4_000));
            event(
                (i % 2) as usize,
                i / 2,
                1 + i / 15,
                0,
                vec![key, Value::Str(pad.clone())],
            )
        })
        .collect();
    let policy = BufferPolicy::NoKSlack;
    let (want, want_report) = run(&query, &policy, ExecutionBackend::Sequential, 1, &events);
    let started = std::time::Instant::now();
    let backend = ExecutionBackend::remote_inproc(2);
    let (got, report) = run(&query, &policy, backend, events.len(), &events);
    let elapsed = started.elapsed();
    assert!(!want.is_empty(), "the workload must join");
    assert_eq!(want, got, "result multiset diverged");
    assert_eq!(want_report.produced, report.produced);
    assert_eq!(report.shard_stats.len(), 2);
    for (shard, stats) in report.shard_stats.iter().enumerate() {
        let rt = &stats.runtime;
        // Every frame but an epoch's Task or Output — handshake, barrier,
        // their acks — is under 1 KiB, so this lower-bounds the largest
        // Task (sent) or Output (received) frame.
        let largest = |bytes: u64, frames: u64| {
            bytes.saturating_sub(1024 * (frames - rt.epochs_enqueued)) / rt.epochs_enqueued
        };
        let task = largest(rt.bytes_sent, rt.frames_sent);
        let output = largest(rt.bytes_received, rt.frames_received);
        assert!(task > MIB, "shard {shard}: largest Task ≥ {task} B");
        assert!(output > MIB, "shard {shard}: largest Output ≥ {output} B");
    }
    assert!(
        elapsed < mswj::core::engine::transport::DEFAULT_READ_TIMEOUT / 4,
        "blocked writers must not stall the run: {elapsed:?}"
    );
}

#[test]
fn zero_worker_backends_are_rejected_at_build() {
    for backend in [
        ExecutionBackend::Pool { workers: 0 },
        ExecutionBackend::Remote {
            endpoints: Vec::new(),
        },
    ] {
        let r = Pipeline::builder()
            .streams(2, Schema::new(vec![("a1", FieldType::Int)]), 500)
            .on_common_key("a1")
            .policy(BufferPolicy::NoKSlack)
            .parallelism(backend.clone())
            .build();
        assert!(r.is_err(), "{backend} must be rejected");
    }
}

#[test]
fn remote_uds_backend_agrees_with_sequential() {
    // Real process separation: four connections to one `mswj-shardd`
    // daemon over a Unix-domain socket, each backing one shard.  A subset
    // of the randomized common-key workloads (plus a star run below)
    // keeps the socket suite fast while still covering checkpoints,
    // K-changes and out-of-order arrivals end to end.
    let daemon = Shardd::spawn("diff");
    for case in 0..4usize {
        let (query, policy, events) = common_key_workload(0x0BAC_CE4D, case);
        let label = format!("uds common #{case}");
        let (want, want_report) = run(&query, &policy, ExecutionBackend::Sequential, 1, &events);
        let (got, report) = run(&query, &policy, daemon.backend(4), 64, &events);
        assert_eq!(want, got, "[{label}] result multiset diverged");
        assert_eq!(want_report.produced, report.produced, "[{label}]");
        let ks = |r: &RunReport| r.checkpoints.iter().map(|c| c.k).collect::<Vec<_>>();
        assert_eq!(ks(&want_report), ks(&report), "[{label}]");
        let frames: u64 = report
            .shard_stats
            .iter()
            .map(|s| s.runtime.frames_sent)
            .sum();
        assert!(frames > 0, "[{label}] traffic must cross the socket");
    }
}

#[test]
fn remote_uds_backend_broadcasts_star_satellites() {
    // A star session against real shard-server processes, with the flood
    // on the broadcast path: every flood tuple crosses the socket to every
    // shard, and results stay byte-identical to the single-shard
    // sequential reference.
    let daemon = Shardd::spawn("star");
    let query = star_query(240);
    let policy = star_flood::policy();
    let events = star_flood::star_events(2);
    let (want, want_report) = run(&query, &policy, ExecutionBackend::Sequential, 1, &events);
    let (got, report) = run(&query, &policy, daemon.backend(4), 64, &events);
    assert!(!want.is_empty(), "[uds star] the scenario must join");
    assert_eq!(want, got, "[uds star] result multiset diverged");
    assert_eq!(want_report.produced, report.produced, "[uds star]");
    let ks = |r: &RunReport| r.checkpoints.iter().map(|c| c.k).collect::<Vec<_>>();
    assert_eq!(ks(&want_report), ks(&report), "[uds star]");
    // Satellite 2 is broadcast: each shard receives every one of its
    // tuples, so the shards' routed items sum to more than the inputs.
    let routed: u64 = report.shard_stats.iter().map(|s| s.runtime.routed).sum();
    assert!(
        routed > events.len() as u64,
        "[uds star] {routed} routed items for {} events",
        events.len()
    );
}
