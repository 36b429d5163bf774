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
//! round-trips all of its epochs, barriers and skew migrations through the
//! versioned wire codec.  A separate test drives the `Remote` backend
//! against real `mswj-shardd` processes over Unix-domain sockets.

use mswj::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
    run_with_skew(query, policy, backend, batch, events, None)
}

/// Like [`run`], optionally arming adaptive hot-key splitting.
fn run_with_skew(
    query: &JoinQuery,
    policy: &BufferPolicy,
    backend: ExecutionBackend,
    batch: usize,
    events: &[ArrivalEvent],
    skew: Option<SkewConfig>,
) -> (Vec<String>, RunReport) {
    run_session(query, policy, backend, batch, events, skew, None)
}

/// Like [`run`], optionally arming runtime probe re-planning.
fn run_with_replan(
    query: &JoinQuery,
    policy: &BufferPolicy,
    backend: ExecutionBackend,
    batch: usize,
    events: &[ArrivalEvent],
    replan: ReplanConfig,
) -> (Vec<String>, RunReport) {
    run_session(query, policy, backend, batch, events, None, Some(replan))
}

#[allow(clippy::too_many_arguments)]
fn run_session(
    query: &JoinQuery,
    policy: &BufferPolicy,
    backend: ExecutionBackend,
    batch: usize,
    events: &[ArrivalEvent],
    skew: Option<SkewConfig>,
    replan: Option<ReplanConfig>,
) -> (Vec<String>, RunReport) {
    let mut builder = Pipeline::builder()
        .query(query.clone())
        .policy(policy.clone())
        .parallelism(backend)
        .materialize_results();
    if let Some(config) = skew {
        builder = builder.skew_splitting_with(config);
    }
    if let Some(config) = replan {
        builder = builder.runtime_replanning_with(config);
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

/// Asserts that the scoped-thread and resident-pool backends agree with the
/// `Sequential` reference on results, per-probe trajectory, ordering
/// statistics and the adaptation (checkpoint-K) sequence — batched (where
/// `Pool` epochs defer across flush boundaries) as well as single-event
/// (where the sub-threshold inline fallback runs); returns the sequential
/// report.
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
        // In-process shard servers: every epoch and barrier crosses the
        // wire codec; the workload must survive serialization unchanged.
        (ExecutionBackend::remote_inproc(4), 64),
    ] {
        let (results, report) = run(query, policy, backend.clone(), batch, events);
        assert_eq!(
            seq_results, results,
            "[{label}] {backend} must produce a byte-identical result multiset"
        );
        assert_eq!(seq_report.total_produced, report.total_produced);
        assert_eq!(
            seq_report.produced, report.produced,
            "[{label}] {backend} per-probe result trajectory diverged"
        );
        let ks = |r: &RunReport| r.checkpoints.iter().map(|c| c.k).collect::<Vec<_>>();
        assert_eq!(
            ks(&seq_report),
            ks(&report),
            "[{label}] {backend} adaptation trajectory diverged"
        );
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

/// 3-way star: anchor S1(a1, a2) joined with S2(a1) and S3(a2) — S3 is
/// outside the partition pair and exercises the broadcast path.
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
    JoinQuery::new("diff-backend-star", streams, cond).unwrap()
}

#[test]
fn common_key_workloads_agree_across_backends() {
    let mut k_shrunk = false;
    let mut k_expanded = false;
    let mut any_results = 0u64;
    for case in 0..30usize {
        let mut rng = StdRng::seed_from_u64(0x0BAC_CE4D + case as u64);
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
        let report = assert_backends_agree(&query, &policy, &events, &format!("common #{case}"));
        any_results += report.total_produced;
        for w in report.checkpoints.windows(2) {
            k_shrunk |= w[1].k < w[0].k;
            k_expanded |= w[1].k > w[0].k;
        }
    }
    assert!(any_results > 0, "workloads must derive join results");
    assert!(
        k_shrunk && k_expanded,
        "adaptive sessions must both shrink and expand K across the workloads \
         (shrunk: {k_shrunk}, expanded: {k_expanded})"
    );
}

#[test]
fn star_workloads_agree_across_backends() {
    let mut any_results = 0u64;
    for case in 0..15usize {
        let mut rng = StdRng::seed_from_u64(0x57A2_BACC + case as u64);
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
        let report = assert_backends_agree(&query, &policy, &events, &format!("star #{case}"));
        any_results += report.total_produced;
    }
    assert!(any_results > 0, "star workloads must derive join results");
}

#[test]
fn mixed_type_keys_agree_across_backends() {
    // Adversarial key columns: floats that join integers numerically
    // (join_eq coercion — the partitioner must route them with the
    // integer's hash), floats that join nothing, Nulls and strings.
    let mut any_results = 0u64;
    for case in 0..15usize {
        let mut rng = StdRng::seed_from_u64(0xF10A_7BAC + case as u64);
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
        let report = assert_backends_agree(&query, &policy, &events, &format!("mixed #{case}"));
        any_results += report.total_produced;
    }
    assert!(any_results > 0, "mixed workloads must derive join results");
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
        let _ = assert_backends_agree(&query, &policy, &events, &label);
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

#[test]
fn skewed_workloads_with_splitting_match_the_unsplit_reference() {
    // Zipf-hot workloads with adaptive hot-key splitting forced on
    // (aggressive thresholds so the small workloads actually transition):
    // every split backend must still be byte-identical to the *unsplit*
    // sequential reference — same result multiset, per-probe trajectory,
    // adaptation (checkpoint-K) sequence and ordering statistics — through
    // K shrinks/expands, checkpoints and expiry.
    let skew = SkewConfig {
        split_share: 0.3,
        unsplit_share: 0.1,
        min_routed: 48,
    };
    let mut any_split = false;
    let mut any_unsplit = false;
    let mut k_shrunk = false;
    let mut k_expanded = false;
    for case in 0..10usize {
        let mut rng = StdRng::seed_from_u64(0x5917_BA1A + case as u64);
        let window = rng.gen_range(300u64..900);
        let query = common_key_query(2, window);
        let policy = policy_for(case, &mut rng);
        // 60% of each stream's traffic on one hot key; the rest uniform.
        // Odd cases move the hot key to another class halfway through each
        // stream, so the first split also reverts mid-run.
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
        let label = format!("skewed #{case}");
        let (want, want_report) = run(&query, &policy, ExecutionBackend::Sequential, 1, &events);
        for (backend, batch) in [
            (ExecutionBackend::Pool { workers: 4 }, 64),
            (ExecutionBackend::Pool { workers: 4 }, 1),
            // Split/unsplit transitions migrate build state through
            // fetch-class/adopt/purge frames on this one.
            (ExecutionBackend::remote_inproc(4), 64),
        ] {
            let (results, report) =
                run_with_skew(&query, &policy, backend.clone(), batch, &events, Some(skew));
            assert_eq!(
                want, results,
                "[{label}] {backend} with splitting must match the unsplit reference"
            );
            assert_eq!(want_report.produced, report.produced, "[{label}] {backend}");
            let ks = |r: &RunReport| r.checkpoints.iter().map(|c| c.k).collect::<Vec<_>>();
            assert_eq!(ks(&want_report), ks(&report), "[{label}] {backend}");
            let s = (want_report.operator_stats, report.operator_stats);
            assert_eq!(s.0.in_order, s.1.in_order, "[{label}] {backend}");
            assert_eq!(s.0.out_of_order, s.1.out_of_order, "[{label}] {backend}");
            assert_eq!(s.0.dropped, s.1.dropped, "[{label}] {backend}");
            assert_eq!(s.0.expired, s.1.expired, "[{label}] {backend}");
            any_split |= report.skew_transitions.iter().any(|t| t.split);
            any_unsplit |= report.skew_transitions.iter().any(|t| !t.split);
        }
        for w in want_report.checkpoints.windows(2) {
            k_shrunk |= w[1].k < w[0].k;
            k_expanded |= w[1].k > w[0].k;
        }
    }
    assert!(any_split, "at least one workload must actually split");
    assert!(any_unsplit, "at least one split must revert mid-run");
    assert!(
        k_shrunk && k_expanded,
        "the skewed suite must cover K shrinks and expansions"
    );
}

/// One arrival with a bounded random delay — the hand-rolled workloads
/// below need per-stream rate asymmetry `gen_events` cannot express.
fn event(stream: usize, seq: u64, arrival: u64, delay: u64, values: Vec<Value>) -> ArrivalEvent {
    ArrivalEvent::new(
        Timestamp::from_millis(arrival),
        Tuple::new(
            stream.into(),
            seq,
            Timestamp::from_millis(arrival.saturating_sub(delay)),
            values,
        ),
    )
}

#[test]
fn replanned_workloads_match_the_static_reference() {
    // Runtime re-planning forced on with aggressive thresholds: every
    // revision the engine can take — re-selecting the star partition pair
    // (with cross-shard state migration), reordering the m-way probe chain
    // and demoting the hash index — must leave the result multiset, the
    // per-probe trajectory and the adaptation sequence byte-identical to
    // the *static* sequential reference, on every backend.
    let replan = ReplanConfig {
        min_probes: 64,
        switch_ratio: 1.5,
        demote_fallback_share: 0.5,
        reorder_margin: 1.2,
    };
    let policy = BufferPolicy::QualityDriven(
        DisorderConfig::with_gamma(0.9)
            .period(1_000)
            .interval(250)
            .granularity(20)
            .basic_window(20),
    );

    // Scenario "switch": the star default partitions (S1, S2), but S3
    // floods while S2 trickles — broadcasting the flood replicates it to
    // every shard, so the pair must move to S3, re-keying the anchor and
    // migrating all three windows between shards.
    let mut rng = StdRng::seed_from_u64(0x9E9A_A417);
    let mut switch_events = Vec::new();
    let mut seqs = [0u64; 3];
    for round in 0..120u64 {
        let arrival = (round + 1) * 10;
        let a1 = (round % 8) as i64;
        let a2 = (round % 6) as i64;
        switch_events.push(event(
            0,
            seqs[0],
            arrival,
            rng.gen_range(0u64..40),
            vec![Value::Int(a1), Value::Int(a2)],
        ));
        seqs[0] += 1;
        if round % 4 == 0 {
            switch_events.push(event(
                1,
                seqs[1],
                arrival,
                rng.gen_range(0u64..40),
                vec![Value::Int(a1)],
            ));
            seqs[1] += 1;
        }
        for burst in 0..4u64 {
            switch_events.push(event(
                2,
                seqs[2],
                arrival,
                rng.gen_range(0u64..40),
                vec![Value::Int(((round + burst) % 6) as i64)],
            ));
            seqs[2] += 1;
        }
    }
    let switch_events = ArrivalLog::from_events(switch_events).events().to_vec();

    // Scenario "reorder": 3-way common key with inverted per-stream match
    // rates (stream 1 floods, stream 0 trickles) — the probe chain must
    // re-order ascending by observed productivity.
    let mut reorder_events = Vec::new();
    let mut seqs = [0u64; 3];
    for round in 0..120u64 {
        let arrival = (round + 1) * 10;
        let key = (round % 2) as i64;
        for _ in 0..3u64 {
            reorder_events.push(event(
                1,
                seqs[1],
                arrival,
                rng.gen_range(0u64..40),
                vec![Value::Int(key)],
            ));
            seqs[1] += 1;
        }
        reorder_events.push(event(
            2,
            seqs[2],
            arrival,
            rng.gen_range(0u64..40),
            vec![Value::Int(key)],
        ));
        seqs[2] += 1;
        if round % 4 == 0 {
            reorder_events.push(event(
                0,
                seqs[0],
                arrival,
                rng.gen_range(0u64..40),
                vec![Value::Int(key)],
            ));
            seqs[0] += 1;
        }
    }
    let reorder_events = ArrivalLog::from_events(reorder_events).events().to_vec();

    // Scenario "demote": float keys join numerically but defeat the hash
    // index on every probe — maintenance stopped paying, the index goes.
    let demote_events = gen_events(
        &mut rng,
        2,
        80,
        200,
        |_, _, key| vec![Value::Float(key as f64 + 0.5)],
        4,
    );

    let scenarios: [(&str, JoinQuery, &[ArrivalEvent]); 3] = [
        ("switch", star_query(240), &switch_events),
        ("reorder", common_key_query(3, 400), &reorder_events),
        ("demote", common_key_query(2, 600), &demote_events),
    ];
    let mut any_switch = false;
    let mut any_reorder = false;
    let mut any_demote = false;
    for (name, query, events) in &scenarios {
        let (want, want_report) = run(query, &policy, ExecutionBackend::Sequential, 1, events);
        for (backend, batch) in [
            // Single-shard: pair switches are impossible, reorders and
            // demotions still fire — and must change nothing.
            (ExecutionBackend::Sequential, 1),
            (ExecutionBackend::Pool { workers: 4 }, 64),
            (ExecutionBackend::Pool { workers: 4 }, 1),
            // Revisions and pair-switch migrations cross the wire codec.
            (ExecutionBackend::remote_inproc(4), 64),
        ] {
            let label = format!("replan {name}");
            let (results, report) =
                run_with_replan(query, &policy, backend.clone(), batch, events, replan);
            assert_eq!(
                want, results,
                "[{label}] {backend} re-planned run must match the static reference"
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
            for t in &report.plan_transitions {
                match t.action {
                    PlanAction::PairSwitch { from, to } => {
                        assert_eq!((from, to), (1, 2), "[{label}] {backend}");
                        any_switch = true;
                        let migrated: u64 = report
                            .shard_stats
                            .iter()
                            .map(|s| s.runtime.migrated_tuples)
                            .sum();
                        assert!(migrated > 0, "[{label}] {backend} must move state");
                    }
                    PlanAction::Reorder { .. } => any_reorder = true,
                    PlanAction::DemoteIndex => any_demote = true,
                }
            }
            let revisions: u64 = report
                .shard_stats
                .iter()
                .map(|s| s.runtime.plan_revisions)
                .sum();
            assert_eq!(
                revisions > 0,
                !report.plan_transitions.is_empty(),
                "[{label}] {backend} revision counters must track transitions"
            );
        }
    }
    assert!(any_switch, "the star workload must re-select its pair");
    assert!(any_reorder, "the inverted rates must reorder the chain");
    assert!(any_demote, "the float keys must demote the index");
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
            .no_k_slack()
            .parallelism(backend.clone())
            .build();
        assert!(r.is_err(), "{backend} must be rejected");
    }
}

#[test]
fn remote_uds_backend_agrees_with_sequential() {
    // Real process separation: four connections to one `mswj-shardd`
    // daemon over a Unix-domain socket, each backing one shard.  A subset
    // of the randomized common-key workloads (plus a skewed one below)
    // keeps the socket suite fast while still covering checkpoints,
    // K-changes and out-of-order arrivals end to end.
    let daemon = Shardd::spawn("diff");
    for case in 0..4usize {
        let mut rng = StdRng::seed_from_u64(0x0BAC_CE4D + case as u64);
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
fn remote_uds_backend_handles_skew_splitting() {
    // Hot-key splitting against real shard-server processes: the build
    // state of the hot class migrates over the socket (fetch-class, adopt,
    // purge frames at barriers) and results stay byte-identical to the
    // unsplit sequential reference.
    let daemon = Shardd::spawn("skew");
    let skew = SkewConfig {
        split_share: 0.3,
        unsplit_share: 0.1,
        min_routed: 48,
    };
    let mut any_split = false;
    for case in 0..2usize {
        let mut rng = StdRng::seed_from_u64(0x5917_BA1A + case as u64);
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
        let label = format!("uds skewed #{case}");
        let (want, want_report) = run(&query, &policy, ExecutionBackend::Sequential, 1, &events);
        let (got, report) =
            run_with_skew(&query, &policy, daemon.backend(4), 64, &events, Some(skew));
        assert_eq!(want, got, "[{label}] result multiset diverged");
        assert_eq!(want_report.produced, report.produced, "[{label}]");
        any_split |= report.skew_transitions.iter().any(|t| t.split);
    }
    assert!(any_split, "the hot key must split over the socket backend");
}
