//! The differential harness: every backend, storage layout and probe path
//! against one oracle.
//!
//! A partitioned join is correct when it equals the unpartitioned one
//! (Chakraborty, arXiv 1307.6574), so one reference serves every variant.
//! The harness has three parts:
//!
//! * **One workload generator** ([`workload`]): randomized m-way arrival
//!   logs under out-of-order arrivals, K-slack shrinks and expansions and
//!   checkpoint-forced flushes, in seven families — common-key, star,
//!   mixed-type keys (floats that join integers numerically, floats that
//!   join nothing, Nulls, strings), unpartitionable conditions (cross and
//!   band joins), the star flood on the broadcast path, and the scan
//!   kernel's distance and 2- and 3-way band joins over every value class
//!   its NaN sentinel must cover.
//! * **One oracle per workload**: `Sequential` with
//!   `ProbeStrategy::NestedLoop` at the default segment capacity — one
//!   `matches` call per candidate combination.
//! * **One variant matrix** ([`matrix`]): `ProbeStrategy::Auto` on
//!   `Sequential`, `Pool{2}`, `remote_inproc(2)`, `Pool{1}`, `Pool{4}`
//!   batched and single-event and `remote_inproc(4)`, each with its
//!   windows at the default capacity and at capacity 4, where tails seal
//!   every four rows and workloads constantly cross seal/drop boundaries.
//!   Shard servers on real sockets (`mswj-shardd` over a Unix-domain
//!   socket and over TCP) are extra variants of the same comparison.
//!
//! [`assert_matches_oracle`] checks every variant: the result multiset
//! (emission order where the plan collapses to one shard; every result
//! component bit-identical to its input tuple), the session report —
//! `produced` trajectory and checkpoints
//! `(k, n_true_next, n_lost_next, n_dropped_next)` included — the
//! `OperatorStats` but for the indexed/fallback split, and every tuple's
//! `ProbeOutcome` through a bare counting and enumerating engine fed in
//! arrival order (`indexed` masked).  A scan plan also runs a counting
//! session.  Each family then asserts that its workloads exercised what
//! it claims to.

mod star_flood;

use mswj::core::EngineEvent;
use mswj::join::{OperatorStats, ProbeOutcome};
use mswj::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use star_flood::{event, star_query};
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::Arc;

/// `JoinQuery`'s default segment capacity.
const DEFAULT_CAPACITY: usize = 1_024;

/// A capacity at which ordinary workloads seal a tail every four rows.
const TINY_CAPACITY: usize = 4;

/// One variant: a backend and its batch size (1 pushes event by event,
/// where the pool's sub-threshold inline fallback runs; 64 crosses the
/// threshold, so epochs run on the pool workers and the shard servers).
type Variant = (ExecutionBackend, usize);

/// The variant matrix, run at both capacities.
fn matrix() -> Vec<Variant> {
    vec![
        (ExecutionBackend::Sequential, 1),
        (ExecutionBackend::Pool { workers: 2 }, 64),
        // In-process shard servers: every epoch and barrier crosses the
        // wire codec.
        (ExecutionBackend::remote_inproc(2), 64),
        (ExecutionBackend::Pool { workers: 1 }, 1),
        (ExecutionBackend::Pool { workers: 4 }, 64),
        (ExecutionBackend::Pool { workers: 4 }, 1),
        (ExecutionBackend::remote_inproc(4), 64),
    ]
}

#[derive(Clone, Copy, Debug)]
enum Family {
    CommonKey,
    Star,
    MixedType,
    Unpartitionable,
    StarFlood,
    Distance,
    Band,
}

impl Family {
    /// How many workloads the family runs at segment `capacity`, and how
    /// many of them (the first) run the whole matrix; the rest run
    /// `Sequential` only.
    fn cases(self, capacity: usize) -> (usize, usize) {
        match (self, capacity) {
            (Family::CommonKey, DEFAULT_CAPACITY) => (60, 30),
            (Family::CommonKey, _) => (6, 6),
            (Family::Star | Family::MixedType, DEFAULT_CAPACITY) => (30, 15),
            (Family::Star | Family::MixedType, _) => (4, 4),
            (Family::Unpartitionable, _) => (6, 6),
            (Family::StarFlood, _) => (1, 1),
            (Family::Distance, _) => (24, 24),
            (Family::Band, _) => (40, 40),
        }
    }

    /// Whether the plan exposes no key to partition on: every backend then
    /// runs one shard and must emit in the oracle's order.
    fn unpartitioned(self) -> bool {
        matches!(
            self,
            Family::Unpartitionable | Family::Distance | Family::Band
        )
    }
}

/// One randomized workload.
struct Workload {
    family: Family,
    label: String,
    query: JoinQuery,
    policy: BufferPolicy,
    events: Vec<ArrivalEvent>,
    /// The tuples of `events`, indexed by stream and then by `seq` (each
    /// stream's sequence numbers run from 0 without gaps).
    inputs: Vec<Vec<Tuple>>,
}

impl Workload {
    fn new(
        family: Family,
        label: String,
        query: JoinQuery,
        policy: BufferPolicy,
        events: Vec<ArrivalEvent>,
    ) -> Self {
        assert!(
            query.arity() <= 4,
            "a ResultId packs at most four components"
        );
        let mut inputs = vec![Vec::new(); query.arity()];
        for e in &events {
            inputs[e.stream().as_usize()].push(e.tuple.clone());
        }
        for (stream, tuples) in inputs.iter_mut().enumerate() {
            tuples.sort_by_key(|t| t.seq);
            assert!(
                tuples.len() < 1 << 24 && tuples.iter().enumerate().all(|(n, t)| t.seq == n as u64),
                "stream {stream}: sequence numbers must run from 0 without gaps, below 2^24"
            );
        }
        Workload {
            family,
            label,
            query,
            policy,
            events,
            inputs,
        }
    }

    /// `r` by identity, after asserting that every component is its input
    /// tuple bit for bit (float attributes by their bits, so a sign of zero
    /// or a NaN payload the wire codec lost would show) and that `r`
    /// carries its components' largest timestamp.
    fn result_id(&self, r: &JoinResult) -> ResultId {
        let same = |a: &Value, b: &Value| match (a, b) {
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            _ => a == b,
        };
        let component = |t: &Tuple| {
            let input = &self.inputs[t.stream.as_usize()][t.seq as usize];
            let values = (t.values(), input.values());
            // A tuple that never left the process shares its input's payload.
            let shared = std::ptr::eq(values.0, values.1);
            assert!(
                t.ts == input.ts
                    && (shared
                        || values.0.len() == values.1.len()
                            && values.0.iter().zip(values.1).all(|(a, b)| same(a, b))),
                "[{}] result component {t} differs from its input {input}",
                self.label
            );
            (t.stream.as_usize() as u128) << 24 | t.seq as u128
        };
        let ts = r.components.iter().map(|t| t.ts).max();
        assert_eq!(Some(r.ts), ts, "[{}] result {r}", self.label);
        r.components.iter().fold(0, |id, t| id << 32 | component(t))
    }
}

/// A join result by identity: its components' `(stream, seq)`, 32 bits
/// each, packed in stream order ([`Workload::new`] bounds the arity and
/// the sequence numbers).
type ResultId = u128;

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
/// `values` maps `(stream, seq)` to the attribute vector.
fn gen_events(
    rng: &mut StdRng,
    m: usize,
    per_stream: usize,
    max_delay: u64,
    mut values: impl FnMut(&mut StdRng, usize, u64) -> Vec<Value>,
) -> Vec<ArrivalEvent> {
    let mut events = Vec::with_capacity(m * per_stream);
    for stream in 0..m {
        for j in 0..per_stream as u64 {
            let arrival = (j + 1) * 10 + rng.gen_range(0u64..5);
            let calm = (j / 15) % 2 == 0;
            let delay = if calm {
                rng.gen_range(0u64..=max_delay / 8 + 1)
            } else {
                rng.gen_range(0u64..=max_delay)
            };
            let values = values(rng, stream, j);
            events.push(event(stream, j, arrival, delay, values));
        }
    }
    ArrivalLog::from_events(events).events().to_vec()
}

/// An integer key in `0..domain`.
fn int_key(rng: &mut StdRng, domain: i64) -> Vec<Value> {
    vec![Value::Int(rng.gen_range(0i64..domain))]
}

/// A key that is mostly an integer in `0..domain`, else a float that joins
/// it numerically (the partitioner must route it with the integer's
/// hash), a float that joins nothing, a Null or a string.
fn mixed_key(rng: &mut StdRng, domain: i64) -> Vec<Value> {
    let key = rng.gen_range(0i64..domain);
    vec![match rng.gen_range(0u64..20) {
        0 => Value::Float(key as f64),
        1 => Value::Float(key as f64 + 0.5),
        2 => Value::Null,
        3 => Value::Str(format!("s{key}")),
        _ => Value::Int(key),
    }]
}

/// An id column and `width` scanned attributes drawn from every value
/// class the scan kernel's NaN-sentinel argument has to cover; one tuple
/// in twelve is truncated to a shorter arity (missing columns).
/// Ordinary values sit on a half-unit grid, so differences land exactly
/// on the thresholds the scan families use.
fn coordinates(rng: &mut StdRng, seq: u64, width: usize, domain: i64) -> Vec<Value> {
    const BIG: i64 = 1 << 53;
    let mut values = vec![Value::Int(seq as i64)];
    values.extend((0..width).map(|_| match rng.gen_range(0u64..48) {
        0 => Value::Null,
        1 => Value::Str(format!("s{}", rng.gen_range(0i64..domain))),
        2 => Value::Bool(rng.gen_range(0u64..2) == 0),
        3 => Value::Float(f64::NAN),
        4 => Value::Float(f64::INFINITY),
        5 => Value::Float(f64::NEG_INFINITY),
        6 => Value::Float(-0.0),
        7 => Value::Float(0.0),
        // Not representable as f64: the image rounds to 2^53.
        8 => Value::Int(BIG + 1),
        9 => Value::Int(BIG),
        10 => Value::Int(-BIG - 1),
        11..=22 => Value::Int(rng.gen_range(0i64..domain)),
        23..=27 => Value::Float(rng.gen_range(0i64..domain) as f64 + 0.5),
        _ => Value::Float(rng.gen_range(0i64..domain) as f64),
    }));
    if rng.gen_range(0u64..12) == 0 {
        values.truncate(rng.gen_range(0usize..=width));
    }
    values
}

fn query(
    name: &str,
    schema: Vec<(&str, FieldType)>,
    m: usize,
    window: u64,
    cond: impl FnOnce(&StreamSet) -> Arc<dyn JoinCondition>,
) -> JoinQuery {
    let streams = StreamSet::homogeneous(m, Schema::new(schema), window).unwrap();
    let cond = cond(&streams);
    JoinQuery::new(name, streams, cond).unwrap()
}

fn common_key_query(m: usize, window: u64) -> JoinQuery {
    query(
        "diff-common",
        vec![("a1", FieldType::Int)],
        m,
        window,
        |s| Arc::new(CommonKeyEquiJoin::new(s, "a1").unwrap()),
    )
}

/// The distance thresholds, by case.  5 is hit exactly by (3, 4) offsets
/// on the grid, 2.5 by (1.5, 2).  The kernel compares squared distances
/// against a precomputed limit: 0.1 has no representable square, and the
/// degenerate thresholds pin the limit's special cases against `matches`.
const THRESHOLDS: [f64; 8] = [5.0, 2.5, 3.0, 0.1, 0.0, -1.0, f64::INFINITY, f64::NAN];

/// The band widths, by case pair.
const BANDS: [f64; 4] = [2.0, 0.5, 0.0, 1.5];

/// Workload `case` of `family`.
fn workload(family: Family, case: usize) -> Workload {
    let seed = match family {
        Family::CommonKey => 0x0BAC_CE4D,
        Family::Star => 0x57A2_BACC,
        Family::MixedType => 0xF10A_7BAC,
        Family::Unpartitionable => 0x0B0A_DCA5,
        Family::StarFlood => 0,
        Family::Distance => 0xD157,
        Family::Band => 0xBA2D,
    };
    let mut rng = StdRng::seed_from_u64(seed + case as u64);
    let rng = &mut rng;
    let m = 2 + case % 2;
    let (query, policy, events) = match family {
        Family::CommonKey => {
            let window = match m {
                2 => rng.gen_range(300u64..1_200),
                _ => rng.gen_range(200u64..500),
            };
            let policy = policy_for(case, rng);
            let (per_stream, domain) = if m == 2 { (90, 6) } else { (70, 8) };
            let events = gen_events(rng, m, per_stream, 300, |rng, _, _| int_key(rng, domain));
            (common_key_query(m, window), policy, events)
        }
        Family::Star => {
            let window = rng.gen_range(200u64..500);
            let policy = policy_for(case, rng);
            let events = gen_events(rng, 3, 70, 250, |rng, stream, _| {
                let mut values = int_key(rng, 5);
                if stream == 0 {
                    values.push(Value::Int(rng.gen_range(0i64..5)));
                }
                values
            });
            (star_query(window), policy, events)
        }
        Family::MixedType => {
            let window = if m == 2 { 600 } else { 350 };
            let policy = policy_for(case + 3, rng);
            let events = gen_events(rng, m, 60, 200, |rng, _, _| mixed_key(rng, 4));
            (common_key_query(m, window), policy, events)
        }
        Family::Unpartitionable => {
            let policy = policy_for(case, rng);
            let events = gen_events(rng, 2, 50, 150, |rng, _, _| int_key(rng, 3));
            let schema = vec![("a1", FieldType::Int)];
            let query = match case % 2 {
                0 => query("diff-cross", schema, 2, 300, |_| {
                    Arc::new(CrossJoin::new(2))
                }),
                _ => query("diff-band", schema, 2, 300, |s| {
                    Arc::new(BandJoin::new(s, "a1", 1.0).unwrap())
                }),
            };
            (query, policy, events)
        }
        Family::StarFlood => (
            star_query(240),
            star_flood::policy(),
            star_flood::star_events(2),
        ),
        Family::Distance => {
            let window = rng.gen_range(300u64..1_200);
            let threshold = THRESHOLDS[case % THRESHOLDS.len()];
            let schema = vec![
                ("id", FieldType::Int),
                ("x", FieldType::Float),
                ("y", FieldType::Float),
            ];
            let query = query("scan-distance", schema, 2, window, |s| {
                Arc::new(DistanceWithin::new(s, "x", "y", threshold).unwrap())
            });
            let policy = policy_for(case, rng);
            let events = gen_events(rng, 2, 90, 300, |rng, _, j| coordinates(rng, j, 2, 9));
            (query, policy, events)
        }
        Family::Band => {
            // Keep the tuple-at-a-time oracle tractable at arity 3.
            let (window, per_stream, domain) = match m {
                2 => (rng.gen_range(300u64..1_200), 90, 9),
                _ => (rng.gen_range(100u64..260), 60, 12),
            };
            let band = BANDS[(case / 2) % 4];
            let schema = vec![("id", FieldType::Int), ("v", FieldType::Float)];
            let query = query("scan-band", schema, m, window, |s| {
                Arc::new(BandJoin::new(s, "v", band).unwrap())
            });
            let policy = policy_for(case / 2, rng);
            let events = gen_events(rng, m, per_stream, 300, |rng, _, j| {
                coordinates(rng, j, 1, domain)
            });
            (query, policy, events)
        }
    };
    Workload::new(family, format!("{family:?} #{case}"), query, policy, events)
}

/// What one session leaves to compare, and the figures the family checks
/// read.
struct Session {
    /// The materialised results: in emission order on an unpartitioned
    /// plan, sorted otherwise; empty for a counting session.
    results: Vec<ResultId>,
    /// Every deterministic field of the report.
    report: String,
    stats: OperatorStats,
    window_bytes: u64,
    routed: u64,
    frames: u64,
    checkpoints: Vec<Checkpoint>,
}

/// The report minus wall-clock timings and per-shard runtime counters
/// (which legitimately differ across backends and access paths).
fn report_fingerprint(r: &RunReport) -> String {
    let checkpoints: Vec<_> = r
        .checkpoints
        .iter()
        .map(|c| {
            (
                c.at,
                c.measure_ts,
                c.k,
                c.gamma_prime,
                c.estimated_recall,
                c.steps,
                (c.n_true_next, c.n_lost_next, c.n_dropped_next),
            )
        })
        .collect();
    format!(
        "{:?}",
        (
            &r.policy,
            &r.produced,
            checkpoints,
            r.avg_k_ms.to_bits(),
            r.total_produced,
            r.kslack_residual_out_of_order,
            r.max_observed_delay,
            r.duration_ms,
        )
    )
}

/// Runs one session of `w` on `backend`, `batch` events at a time through
/// `push_batch_into` (event by event through `push_into` at 1), and
/// returns its results, in emission order, and its report.
fn run(
    w: &Workload,
    query: &JoinQuery,
    strategy: ProbeStrategy,
    (backend, batch): &Variant,
    materialize: bool,
) -> (Vec<ResultId>, RunReport) {
    let mut builder = Pipeline::builder()
        .query(query.clone())
        .policy(w.policy.clone())
        .probe(strategy)
        .parallelism(backend.clone());
    if materialize {
        builder = builder.materialize_results();
    }
    let mut pipeline = builder.build().unwrap();
    let mut results = Vec::new();
    let mut sink = sink_fn(|ev| {
        if let OutputEvent::Result(r) = ev {
            results.push(w.result_id(r));
        }
    });
    if *batch == 1 {
        for e in &w.events {
            pipeline.push_into(e.clone(), &mut sink);
        }
    } else {
        for chunk in w.events.chunks(*batch) {
            pipeline.push_batch_into(chunk.iter().cloned(), &mut sink);
        }
    }
    let report = pipeline.finish_into(&mut sink);
    let expected = if materialize {
        report.total_produced
    } else {
        0
    };
    assert_eq!(results.len() as u64, expected, "[{}] sink", w.label);
    let shard_results: u64 = report.shard_stats.iter().map(|s| s.operator.results).sum();
    assert_eq!(shard_results, report.total_produced, "[{}]", w.label);
    (results, report)
}

/// [`run`], reduced to what must not depend on the variant.
fn session(
    w: &Workload,
    query: &JoinQuery,
    strategy: ProbeStrategy,
    variant: &Variant,
    materialize: bool,
) -> Session {
    let (mut results, report) = run(w, query, strategy, variant, materialize);
    if !w.family.unpartitioned() {
        results.sort_unstable();
    }
    let runtime = |f: fn(&ShardRuntimeStats) -> u64| -> u64 {
        report.shard_stats.iter().map(|s| f(&s.runtime)).sum()
    };
    Session {
        results,
        report: report_fingerprint(&report),
        stats: report.operator_stats,
        window_bytes: runtime(|r| r.window_bytes),
        routed: runtime(|r| r.routed),
        frames: runtime(|r| r.frames_sent),
        checkpoints: report.checkpoints,
    }
}

/// Every `Done` outcome of `w`'s tuples pushed straight into a counting or
/// `enumerate`-ing engine in arrival order (no K-slack, so a good share
/// arrive late), `batch` at a time, then synced.  `indexed` is masked: an
/// unindexable value only poisons the shard it lives in.
fn outcomes(
    w: &Workload,
    query: &JoinQuery,
    strategy: ProbeStrategy,
    (backend, batch): &Variant,
    enumerate: bool,
) -> Vec<ProbeOutcome> {
    let mut engine = JoinEngine::new(query.clone(), strategy, enumerate, backend.clone());
    let mut outcomes = Vec::new();
    let mut handler = |ev: EngineEvent<'_>| {
        if let EngineEvent::Done(o) = ev {
            outcomes.push(ProbeOutcome {
                indexed: false,
                ..o
            });
        }
    };
    for chunk in w.events.chunks(*batch) {
        engine.push_batch(chunk.iter().map(|e| e.tuple.clone()), &mut handler);
    }
    engine.sync(&mut handler);
    outcomes
}

/// `stats` without the indexed/fallback split, which depends on the
/// access path and on which shard holds an unindexable value.
fn masked(stats: OperatorStats) -> OperatorStats {
    OperatorStats {
        indexed_probes: 0,
        fallback_probes: 0,
        ..stats
    }
}

/// The oracle's session of one workload, the late losses its tuples
/// counted, every cell's shard count and every materialising session a
/// cell ran.
struct Evidence {
    oracle: Session,
    lost: u64,
    shards: Vec<usize>,
    variants: Vec<Session>,
}

/// Runs `w` through the oracle and through each cell — a variant with its
/// windows at a segment capacity — and asserts every cell's sessions,
/// counting and materialising, and engines, counting and enumerating,
/// match the oracle.
fn assert_matches_oracle(w: &Workload, cells: &[(Variant, usize)]) -> Evidence {
    let reference = (ExecutionBackend::Sequential, 1);
    let oracle = session(w, &w.query, ProbeStrategy::NestedLoop, &reference, true);
    let want = outcomes(w, &w.query, ProbeStrategy::NestedLoop, &reference, false);
    assert_eq!(
        oracle.stats.indexed_probes, 0,
        "[{}] the nested-loop oracle must never touch an index",
        w.label
    );
    let mut evidence = Evidence {
        lost: want.iter().map(|o| o.n_lost).sum(),
        shards: Vec::new(),
        variants: Vec::new(),
        oracle,
    };
    let mut executions = Vec::new();
    for (variant, capacity) in cells {
        let layout = w.query.clone().with_segment_capacity(*capacity);
        // A plan without a partitioning key runs on one shard whatever the
        // backend asks for, so `Pool{4}` runs what `Pool{2}` ran.
        let backend = variant.0.clone();
        let shards =
            JoinEngine::new(layout.clone(), ProbeStrategy::Auto, false, backend).shard_count();
        evidence.shards.push(shards);
        let execution = (
            std::mem::discriminant(&variant.0),
            shards,
            variant.1,
            *capacity,
        );
        if executions.contains(&execution) {
            continue;
        }
        executions.push(execution);
        let label = format!(
            "{}, {}×{}, capacity {capacity}",
            w.label, variant.0, variant.1
        );
        let oracle = &evidence.oracle;
        // A scan plan's counting session counts in the kernel instead of
        // walking it; other plans' counting shards meet the oracle through
        // the counting engine below.
        let modes: &[bool] = match w.family.unpartitioned() {
            true => &[false, true],
            false => &[true],
        };
        for &materialize in modes {
            let got = session(w, &layout, ProbeStrategy::Auto, variant, materialize);
            let label = format!("{label}, materialize {materialize}");
            if materialize {
                assert_eq!(oracle.results, got.results, "[{label}] results");
            }
            assert_eq!(oracle.report, got.report, "[{label}] report");
            assert_eq!(masked(oracle.stats), masked(got.stats), "[{label}]");
            if materialize {
                evidence.variants.push(got);
            }
        }
        // Counting and enumerating shards alike: an enumerating operator
        // counts a late tuple's loss through its postings.
        for enumerate in [false, true] {
            let got = outcomes(w, &layout, ProbeStrategy::Auto, variant, enumerate);
            assert_eq!(want.len(), got.len(), "[{label}] outcomes");
            for (n, (want, got)) in want.iter().zip(&got).enumerate() {
                assert_eq!(want, got, "[{label}, enumerate {enumerate}] outcome #{n}");
            }
        }
    }
    evidence
}

/// Runs workloads of `family` against the oracle, their windows at segment
/// `capacity` — with `on_matrix` the first ones [`Family::cases`] names,
/// over the whole matrix, else the rest, on `Sequential` — and asserts
/// they exercised what the family claims to.
fn check_family(family: Family, capacity: usize, on_matrix: bool) {
    let (cases, full) = family.cases(capacity);
    let (cases, variants) = match on_matrix {
        true => (0..full, matrix()),
        false => (full..cases, matrix()[..1].to_vec()),
    };
    let cells: Vec<_> = variants.into_iter().map(|v| (v, capacity)).collect();
    let evidence: Vec<Evidence> = cases
        .clone()
        .map(|case| assert_matches_oracle(&workload(family, case), &cells))
        .collect();
    let label = format!("{family:?} {cases:?} at capacity {capacity}");
    let sessions = || evidence.iter().flat_map(|e| &e.variants);
    let results = |e: &Evidence| e.oracle.stats.results;
    let lost = |e: &Evidence| e.lost;
    assert!(
        evidence.iter().map(results).sum::<u64>() > 0,
        "[{label}] no results"
    );
    if family.unpartitioned() {
        // Cross and band joins expose no key to partition on: every
        // backend must degrade to a single broadcast shard.
        assert!(
            evidence.iter().all(|e| e.shards.iter().all(|&n| n == 1)),
            "[{label}]"
        );
    }
    match family {
        Family::CommonKey | Family::Star | Family::MixedType | Family::Unpartitionable => {
            for (case, e) in cases.clone().zip(&evidence) {
                assert!(e.lost > 0, "[{family:?} #{case}] must count late losses");
            }
        }
        Family::StarFlood => {}
        Family::Distance => {
            assert!(
                evidence.iter().map(lost).sum::<u64>() > 0,
                "[{label}] no late losses"
            );
        }
        Family::Band => {
            for m in [2, 3] {
                let of_arity = || evidence.iter().skip(m - 2).step_by(2);
                assert!(
                    of_arity().map(results).sum::<u64>() > 0,
                    "[{label}] {m}-way"
                );
                assert!(of_arity().map(lost).sum::<u64>() > 0, "[{label}] {m}-way");
            }
        }
    }
    match family {
        // Clean integer keys probe through the index and never fall back.
        Family::CommonKey | Family::Star => {
            for s in sessions() {
                assert_eq!(s.stats.fallback_probes, 0, "[{label}]");
                assert!(s.stats.indexed_probes > 0, "[{label}]");
            }
        }
        // Floats, strings and Nulls must gate the index exactly, and the
        // fallback probes must find every numeric coercion match; probes
        // re-engage the index once unindexable values expire.
        Family::MixedType => {
            assert!(sessions().all(|s| s.stats.indexed_probes > 0), "[{label}]");
            let fallbacks: u64 = sessions().map(|s| s.stats.fallback_probes).sum();
            assert!(
                fallbacks > 0,
                "[{label}] mixed-type keys must force fallbacks"
            );
        }
        // The kernel's only observable trace is its scan columns,
        // accounted in the shards' window bytes (on `Remote`, by the
        // server-side operator built off the wire descriptor).
        Family::Distance | Family::Band => {
            for e in &evidence {
                for s in &e.variants {
                    assert_eq!(s.stats.indexed_probes, 0, "[{label}]");
                    assert!(
                        s.window_bytes > e.oracle.window_bytes,
                        "[{label}] the kernel must hold scan columns ({} vs {} window bytes)",
                        s.window_bytes,
                        e.oracle.window_bytes
                    );
                }
            }
        }
        Family::Unpartitionable | Family::StarFlood => {}
    }
    if matches!(family, Family::CommonKey | Family::Distance | Family::Band) {
        let steps = || {
            evidence
                .iter()
                .flat_map(|e| e.oracle.checkpoints.windows(2))
        };
        let shrunk = steps().any(|w| w[1].k < w[0].k);
        let grown = steps().any(|w| w[1].k > w[0].k);
        assert!(
            shrunk && grown,
            "[{label}] adaptive sessions must both shrink and expand K \
             (shrunk: {shrunk}, grown: {grown})"
        );
    }
    if matches!(family, Family::Distance | Family::Band) {
        let boundary = cases
            .clone()
            .any(|case| on_the_boundary(&workload(family, case), case));
        assert!(
            boundary,
            "[{label}] the generator must place pairs exactly at the boundary"
        );
    }
}

/// Numeric image of a scanned attribute, as the conditions read it.
fn image(e: &ArrivalEvent, col: usize) -> Option<f64> {
    e.tuple.value(col).and_then(Value::as_float)
}

/// Whether a stream-0 and a stream-1 event of scan workload `case` lie
/// exactly at its distance threshold or band.  Finite thresholds only:
/// `∞ == ∞` would hold without probing a boundary.
fn on_the_boundary(w: &Workload, case: usize) -> bool {
    let on = |s: usize| w.events.iter().filter(move |e| e.stream().as_usize() == s);
    let distance = THRESHOLDS[case % THRESHOLDS.len()];
    let band = BANDS[(case / 2) % 4];
    on(0).any(|a| {
        on(1).any(|b| match w.family {
            Family::Distance => {
                let coords = (image(a, 1), image(a, 2), image(b, 1), image(b, 2));
                let (Some(x0), Some(y0), Some(x1), Some(y1)) = coords else {
                    return false;
                };
                let (dx, dy) = (x0 - x1, y0 - y1);
                distance.is_finite() && (dx * dx + dy * dy).sqrt() == distance
            }
            _ => match (image(a, 1), image(b, 1)) {
                (Some(a), Some(b)) => (b - a).abs() == band,
                _ => false,
            },
        })
    })
}

#[test]
fn common_key_workloads_match_the_oracle() {
    check_family(Family::CommonKey, DEFAULT_CAPACITY, true);
}

#[test]
fn common_key_workloads_match_the_oracle_on_sequential() {
    check_family(Family::CommonKey, DEFAULT_CAPACITY, false);
}

#[test]
fn common_key_workloads_match_the_oracle_at_capacity_4() {
    check_family(Family::CommonKey, TINY_CAPACITY, true);
}

#[test]
fn star_workloads_match_the_oracle() {
    check_family(Family::Star, DEFAULT_CAPACITY, true);
}

#[test]
fn star_workloads_match_the_oracle_on_sequential() {
    check_family(Family::Star, DEFAULT_CAPACITY, false);
}

#[test]
fn star_workloads_match_the_oracle_at_capacity_4() {
    check_family(Family::Star, TINY_CAPACITY, true);
}

#[test]
fn mixed_type_keys_force_fallback_and_match_the_oracle() {
    check_family(Family::MixedType, DEFAULT_CAPACITY, true);
}

#[test]
fn mixed_type_keys_force_fallback_and_match_the_oracle_on_sequential() {
    check_family(Family::MixedType, DEFAULT_CAPACITY, false);
}

#[test]
fn mixed_type_keys_force_fallback_and_match_the_oracle_at_capacity_4() {
    check_family(Family::MixedType, TINY_CAPACITY, true);
}

#[test]
fn unpartitionable_conditions_match_the_oracle_on_one_shard() {
    check_family(Family::Unpartitionable, DEFAULT_CAPACITY, true);
}

#[test]
fn unpartitionable_conditions_match_the_oracle_on_one_shard_at_capacity_4() {
    check_family(Family::Unpartitionable, TINY_CAPACITY, true);
}

#[test]
fn star_flood_on_the_broadcast_path_matches_the_oracle() {
    check_family(Family::StarFlood, DEFAULT_CAPACITY, true);
}

#[test]
fn star_flood_on_the_broadcast_path_matches_the_oracle_at_capacity_4() {
    check_family(Family::StarFlood, TINY_CAPACITY, true);
}

#[test]
fn distance_kernel_matches_the_oracle() {
    check_family(Family::Distance, DEFAULT_CAPACITY, true);
}

#[test]
fn distance_kernel_matches_the_oracle_at_capacity_4() {
    check_family(Family::Distance, TINY_CAPACITY, true);
}

#[test]
fn band_kernel_matches_the_oracle() {
    check_family(Family::Band, DEFAULT_CAPACITY, true);
}

#[test]
fn band_kernel_matches_the_oracle_at_capacity_4() {
    check_family(Family::Band, TINY_CAPACITY, true);
}

/// A running `mswj-shardd` child, killed (and its socket file removed) on
/// drop.
struct Shardd {
    child: Child,
    endpoint: Endpoint,
    /// Kept open so the daemon's later stderr lines have a reader.
    _stderr: Option<BufReader<ChildStderr>>,
}

impl Shardd {
    /// Spawns the daemon on a fresh Unix-domain socket path, `tag` keeping
    /// concurrent tests apart; `transport::connect`'s retry loop absorbs the
    /// bind race.
    fn uds(tag: &str) -> Self {
        let path = std::env::temp_dir().join(format!("mswj-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let child = Command::new(env!("CARGO_BIN_EXE_mswj-shardd"))
            .arg("--uds")
            .arg(&path)
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning mswj-shardd");
        Shardd {
            child,
            endpoint: Endpoint::Uds(path),
            _stderr: None,
        }
    }

    /// Spawns the daemon on an ephemeral localhost TCP port and reads the
    /// bound address from its `listening on tcp …` line.
    fn tcp() -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mswj-shardd"))
            .args(["--tcp", "127.0.0.1:0"])
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawning mswj-shardd");
        let mut stderr = BufReader::new(child.stderr.take().unwrap());
        let mut line = String::new();
        stderr.read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("mswj-shardd: listening on tcp ")
            .unwrap_or_else(|| panic!("unexpected mswj-shardd line {line:?}"))
            .to_string();
        Shardd {
            child,
            endpoint: Endpoint::Tcp(addr),
            _stderr: Some(stderr),
        }
    }

    /// A remote backend with `shards` connections to this daemon (each
    /// connection gets its own shard operator server-side), batched.
    fn variant(&self, shards: usize) -> Variant {
        let endpoints = vec![self.endpoint.clone(); shards];
        (ExecutionBackend::Remote { endpoints }, 64)
    }
}

impl Drop for Shardd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Endpoint::Uds(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Runs common-key workloads `0..cases` on `variant` against the oracle;
/// every session's traffic must cross the socket.
fn assert_daemon_matches_oracle(variant: Variant, cases: usize) {
    let label = variant.0.to_string();
    for case in 0..cases {
        let w = workload(Family::CommonKey, case);
        let e = assert_matches_oracle(&w, &[(variant.clone(), DEFAULT_CAPACITY)]);
        assert!(
            e.variants[0].frames > 0,
            "[{label}] traffic must cross the socket"
        );
    }
}

/// Runs the star flood on `variant` against the oracle; the flood's
/// broadcast satellite must reach every shard.
fn assert_daemon_broadcasts_star_satellites(variant: Variant) {
    let label = variant.0.to_string();
    let flood = workload(Family::StarFlood, 0);
    let e = assert_matches_oracle(&flood, &[(variant, DEFAULT_CAPACITY)]);
    // Satellite 2 is broadcast: each shard receives every one of its
    // tuples, so the shards' routed items sum to more than the inputs.
    let routed = e.variants[0].routed;
    let events = flood.events.len() as u64;
    assert!(
        routed > events,
        "[{label}] {routed} routed items for {events} events"
    );
}

#[test]
fn remote_uds_backend_matches_the_oracle() {
    // Real process separation: four connections to one `mswj-shardd`
    // daemon over a Unix-domain socket, each backing one shard.
    let daemon = Shardd::uds("common");
    assert_daemon_matches_oracle(daemon.variant(4), 4);
}

#[test]
fn remote_uds_backend_broadcasts_star_satellites() {
    let daemon = Shardd::uds("star");
    assert_daemon_broadcasts_star_satellites(daemon.variant(4));
}

#[test]
fn remote_tcp_backend_matches_the_oracle() {
    let daemon = Shardd::tcp();
    assert_daemon_matches_oracle(daemon.variant(2), 1);
    assert_daemon_broadcasts_star_satellites(daemon.variant(2));
}

/// Live columnar segments summed over every shard of a common-key session
/// on `backend` with its windows at segment `capacity`, read mid-run at a
/// barrier (`shard_stats` round-trips one on `Remote`); the session's
/// window bytes must be non-zero at that point.
fn mid_run_window_segments(backend: &ExecutionBackend, capacity: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(0x5E61_0B17);
    let query = common_key_query(2, 800).with_segment_capacity(capacity);
    let events = gen_events(&mut rng, 2, 80, 100, |rng, _, _| int_key(rng, 6));
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
    // The capacity-4 cells cover boundaries only if every shard really
    // stores its windows at the query's capacity: a shard left at the
    // default would agree with the oracle and cross no boundary.  Each
    // backend's shards must hold more segments at 4, and report their live
    // window bytes at either capacity.
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
    // larger than 1 MiB.  The reference is `Sequential`/`Auto`: the
    // nested-loop oracle would scan thousands of rows per probe.
    const MIB: u64 = 1 << 20;
    let schema = vec![("a1", FieldType::Int), ("pad", FieldType::Str)];
    let query = query("diff-large-frames", schema, 2, 500, |s| {
        Arc::new(CommonKeyEquiJoin::new(s, "a1").unwrap())
    });
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
    let w = Workload::new(
        Family::CommonKey,
        "large frames".into(),
        query,
        policy,
        events,
    );
    let sequential = (ExecutionBackend::Sequential, 1);
    let want = session(&w, &w.query, ProbeStrategy::Auto, &sequential, true);
    let started = std::time::Instant::now();
    let inproc = (ExecutionBackend::remote_inproc(2), w.events.len());
    let (mut got, report) = run(&w, &w.query, ProbeStrategy::Auto, &inproc, true);
    let elapsed = started.elapsed();
    got.sort_unstable();
    assert!(!want.results.is_empty(), "the workload must join");
    assert_eq!(want.results, got, "result multiset diverged");
    assert_eq!(want.report, report_fingerprint(&report));
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
