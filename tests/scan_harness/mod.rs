//! Body of the typed-column scan differential suite
//! (`tests/differential_scan.rs`), run at a given segment capacity.
//!
//! Every randomized workload runs through a `ProbeStrategy::NestedLoop`
//! session on the `Sequential` backend at the default segment capacity —
//! the tuple-at-a-time oracle, one `matches` call per candidate — and
//! through `ProbeStrategy::Auto` sessions (the scan kernel) on
//! `Sequential`, `Pool{2}` and `remote_inproc(2)` at the capacity under
//! test, so a kernel session differs from the oracle in access path,
//! storage layout and executor at once.  Nested-loop plans collapse to one broadcast shard
//! on the sharded backends; the point of running them is that the
//! shard-side operator — on `Remote`, rebuilt from the wire
//! `ConditionDescriptor` — must plan the same scan columns.  Each kernel
//! session must reproduce the oracle's results *in emission order*, its
//! report and its `OperatorStats` exactly, counting and materialising —
//! and, pushed into a bare engine in arrival order, every tuple's outcome,
//! the loss each kept late tuple counted (`n_lost`) included.

use mswj::core::EngineEvent;
use mswj::join::{OperatorStats, ProbeOutcome};
use mswj::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// What one session produced, reduced to what must not depend on the probe
/// access path.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Display forms of the materialised results, in emission order (empty
    /// for counting sessions).
    results: Vec<String>,
    /// Every deterministic field of the run report.
    report: String,
    stats: OperatorStats,
    /// Every tuple's outcome in a bare engine fed in arrival order (so
    /// many arrive late), `indexed` masked.
    outcomes: Vec<ProbeOutcome>,
}

/// Result of one session: the comparable outcome, plus the figures the
/// suites use to show the workloads exercised what they claim to.
struct Session {
    outcome: Outcome,
    window_bytes: u64,
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

fn run(
    query: &JoinQuery,
    policy: &BufferPolicy,
    strategy: ProbeStrategy,
    backend: ExecutionBackend,
    materialize: bool,
    events: &[ArrivalEvent],
) -> Session {
    let mut builder = Pipeline::builder()
        .query(query.clone())
        .policy(policy.clone())
        .probe(strategy)
        .parallelism(backend.clone());
    if materialize {
        builder = builder.materialize_results();
    }
    let mut pipeline = builder.build().unwrap();
    let mut sink = CollectSink::default();
    if backend == ExecutionBackend::Sequential {
        for e in events {
            pipeline.push_into(e.clone(), &mut sink);
        }
    } else {
        // Batches large enough to cross the inline threshold, so epochs
        // really run on the pool worker / the shard server.
        for chunk in events.chunks(64) {
            pipeline.push_batch_into(chunk.iter().cloned(), &mut sink);
        }
    }
    let report = pipeline.finish_into(&mut sink);
    if materialize {
        assert_eq!(sink.results.len() as u64, report.total_produced);
    } else {
        assert!(sink.results.is_empty(), "counting sessions emit no results");
    }
    let shard_results: u64 = report.shard_stats.iter().map(|s| s.operator.results).sum();
    assert_eq!(shard_results, report.total_produced);
    let mut engine = JoinEngine::new(query.clone(), strategy, materialize, backend);
    let mut outcomes = Vec::new();
    let mut handler = |ev: EngineEvent<'_>| {
        if let EngineEvent::Done(o) = ev {
            outcomes.push(ProbeOutcome {
                indexed: false,
                ..o
            });
        }
    };
    for chunk in events.chunks(64) {
        engine.push_batch(chunk.iter().map(|e| e.tuple.clone()), &mut handler);
    }
    engine.sync(&mut handler);
    Session {
        outcome: Outcome {
            results: sink.results.iter().map(|r| r.to_string()).collect(),
            report: report_fingerprint(&report),
            stats: report.operator_stats,
            outcomes,
        },
        window_bytes: report
            .shard_stats
            .iter()
            .map(|s| s.runtime.window_bytes)
            .sum(),
        checkpoints: report.checkpoints,
    }
}

/// Runs the oracle and the kernel sessions of one workload, counting and
/// materialising, and asserts they agree; returns the oracle's result count
/// and checkpoints.  The kernel sessions store their windows at segment
/// `capacity`.
fn assert_kernel_equals_oracle(
    query: &JoinQuery,
    policy: &BufferPolicy,
    events: &[ArrivalEvent],
    label: &str,
    capacity: usize,
) -> (u64, u64, Vec<Checkpoint>) {
    let layout = query.clone().with_segment_capacity(capacity);
    let (mut produced, mut lost) = (0, 0);
    let mut checkpoints = Vec::new();
    for materialize in [false, true] {
        let oracle = run(
            query,
            policy,
            ProbeStrategy::NestedLoop,
            ExecutionBackend::Sequential,
            materialize,
            events,
        );
        assert_eq!(oracle.outcome.stats.indexed_probes, 0);
        for backend in [
            ExecutionBackend::Sequential,
            ExecutionBackend::Pool { workers: 2 },
            ExecutionBackend::remote_inproc(2),
        ] {
            let kernel = run(
                &layout,
                policy,
                ProbeStrategy::Auto,
                backend.clone(),
                materialize,
                events,
            );
            assert!(
                kernel.outcome == oracle.outcome,
                "[{label}, materialize={materialize}, {backend:?}, capacity {capacity}] kernel \
                 diverged from the tuple-at-a-time oracle:\n kernel {:?}\n oracle {:?}",
                kernel.outcome,
                oracle.outcome
            );
            // The only observable trace of the kernel: its scan columns are
            // accounted in the shard's window bytes.  On `Remote` the figure
            // comes from the server-side operator built off the descriptor.
            assert!(
                kernel.window_bytes > oracle.window_bytes,
                "[{label}, {backend:?}] the Auto session must hold scan columns \
                 ({} vs {} window bytes)",
                kernel.window_bytes,
                oracle.window_bytes
            );
        }
        produced = oracle.outcome.stats.results;
        lost = oracle.outcome.outcomes.iter().map(|o| o.n_lost).sum();
        checkpoints = oracle.checkpoints;
    }
    (produced, lost, checkpoints)
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

/// One scanned attribute, drawn from every value class the NaN-sentinel
/// argument has to cover.  Ordinary values sit on a half-unit grid so that
/// differences land exactly on the thresholds the suites use.
fn coordinate(rng: &mut StdRng, domain: i64) -> Value {
    const BIG: i64 = 1 << 53;
    match rng.gen_range(0u64..48) {
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
    }
}

/// One tuple every 10 ms per stream with bursty delays (alternating calm
/// and chaotic phases, so adaptive policies shrink *and* expand K).  Every
/// tuple carries an id column followed by `width` scanned attributes, and
/// one in twelve is truncated to a random shorter arity (missing columns).
fn gen_events(
    rng: &mut StdRng,
    m: usize,
    per_stream: usize,
    max_delay: u64,
    width: usize,
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
            let mut values = vec![Value::Int(j as i64)];
            values.extend((0..width).map(|_| coordinate(rng, domain)));
            if rng.gen_range(0u64..12) == 0 {
                values.truncate(rng.gen_range(0usize..=width));
            }
            events.push(ArrivalEvent::new(
                Timestamp::from_millis(arrival),
                Tuple::new(
                    stream.into(),
                    j as u64,
                    Timestamp::from_millis(arrival.saturating_sub(delay)),
                    values,
                ),
            ));
        }
    }
    ArrivalLog::from_events(events).events().to_vec()
}

fn distance_query(window: u64, threshold: f64) -> JoinQuery {
    let schema = Schema::new(vec![
        ("id", FieldType::Int),
        ("x", FieldType::Float),
        ("y", FieldType::Float),
    ]);
    let streams = StreamSet::homogeneous(2, schema, window).unwrap();
    let cond = Arc::new(DistanceWithin::new(&streams, "x", "y", threshold).unwrap());
    JoinQuery::new("scan-distance", streams, cond).unwrap()
}

fn band_query(m: usize, window: u64, band: f64) -> JoinQuery {
    let schema = Schema::new(vec![("id", FieldType::Int), ("v", FieldType::Float)]);
    let streams = StreamSet::homogeneous(m, schema, window).unwrap();
    let cond = Arc::new(BandJoin::new(&streams, "v", band).unwrap());
    JoinQuery::new("scan-band", streams, cond).unwrap()
}

/// Numeric image of a scanned attribute, as the conditions read it.
fn image(t: &Tuple, col: usize) -> Option<f64> {
    t.value(col).and_then(Value::as_float)
}

/// Asserts the suites' K trajectories both shrank and grew somewhere.
fn assert_k_churn(all: &[Vec<Checkpoint>]) {
    let shrunk = all.iter().any(|c| c.windows(2).any(|w| w[1].k < w[0].k));
    let grown = all.iter().any(|c| c.windows(2).any(|w| w[1].k > w[0].k));
    assert!(
        shrunk && grown,
        "adaptive sessions must both shrink and expand K (shrunk: {shrunk}, grown: {grown})"
    );
}

/// 24 two-way distance workloads, the kernel at segment `capacity`.
pub fn distance_workloads(capacity: usize) {
    let (mut produced, mut lost) = (0u64, 0u64);
    let mut at_threshold = 0usize;
    let mut checkpoints = Vec::new();
    for case in 0..24usize {
        let mut rng = StdRng::seed_from_u64(0xD157 + case as u64);
        let window = rng.gen_range(300u64..1_200);
        // 5 is hit exactly by (3, 4) offsets on the grid; 2.5 by (1.5, 2).
        // The kernel compares squared distances against a precomputed
        // limit: 0.1 has no representable square, and the degenerate
        // thresholds pin the limit's special cases against `matches`.
        const THRESHOLDS: [f64; 8] = [5.0, 2.5, 3.0, 0.1, 0.0, -1.0, f64::INFINITY, f64::NAN];
        let threshold = THRESHOLDS[case % THRESHOLDS.len()];
        let query = distance_query(window, threshold);
        let policy = policy_for(case, &mut rng);
        let events = gen_events(&mut rng, 2, 90, 300, 2, 9);
        let (s0, s1): (Vec<_>, Vec<_>) = events.iter().partition(|e| e.stream().as_usize() == 0);
        for a in &s0 {
            for b in &s1 {
                let coords = (
                    image(&a.tuple, 1),
                    image(&a.tuple, 2),
                    image(&b.tuple, 1),
                    image(&b.tuple, 2),
                );
                if let (Some(x0), Some(y0), Some(x1), Some(y1)) = coords {
                    let (dx, dy) = (x0 - x1, y0 - y1);
                    // Finite thresholds only: `∞ == ∞` would satisfy the
                    // assertion below without probing a boundary.
                    let dist = (dx * dx + dy * dy).sqrt();
                    at_threshold += (threshold.is_finite() && dist == threshold) as usize;
                }
            }
        }
        let label = format!("distance #{case}");
        let (n, l, cps) = assert_kernel_equals_oracle(&query, &policy, &events, &label, capacity);
        produced += n;
        lost += l;
        checkpoints.push(cps);
    }
    assert!(produced > 0, "distance workloads must derive results");
    assert!(lost > 0, "distance workloads must count late losses");
    assert!(
        at_threshold > 0,
        "the generator must place pairs exactly at the threshold"
    );
    assert_k_churn(&checkpoints);
}

/// 20 two-way and 20 three-way band workloads, the kernel at segment
/// `capacity`.
pub fn band_workloads(capacity: usize) {
    let (mut produced, mut lost) = ([0u64; 2], [0u64; 2]);
    let mut at_band = 0usize;
    let mut checkpoints = Vec::new();
    for case in 0..40usize {
        let mut rng = StdRng::seed_from_u64(0xBA2D + case as u64);
        let m = 2 + case % 2;
        // Keep the tuple-at-a-time reference tractable at arity 3.
        let (window, per_stream, domain) = if m == 2 {
            (rng.gen_range(300u64..1_200), 90, 9)
        } else {
            (rng.gen_range(100u64..260), 60, 12)
        };
        let band = [2.0, 0.5, 0.0, 1.5][(case / 2) % 4];
        let query = band_query(m, window, band);
        let policy = policy_for(case / 2, &mut rng);
        let events = gen_events(&mut rng, m, per_stream, 300, 1, domain);
        let firsts = events.iter().filter(|e| e.stream().as_usize() == 0);
        for a in firsts.filter_map(|e| image(&e.tuple, 1)) {
            let others = events.iter().filter(|e| e.stream().as_usize() == 1);
            for b in others.filter_map(|e| image(&e.tuple, 1)) {
                at_band += ((b - a).abs() == band) as usize;
            }
        }
        let label = format!("band{m} #{case}");
        let (n, l, cps) = assert_kernel_equals_oracle(&query, &policy, &events, &label, capacity);
        produced[m - 2] += n;
        lost[m - 2] += l;
        checkpoints.push(cps);
    }
    assert!(produced[0] > 0, "2-way band workloads must derive results");
    assert!(produced[1] > 0, "3-way band workloads must derive results");
    assert!(
        lost.iter().all(|&l| l > 0),
        "band workloads must count late losses: {lost:?}"
    );
    assert!(
        at_band > 0,
        "the generator must place pairs exactly at the band"
    );
    assert_k_churn(&checkpoints);
}
