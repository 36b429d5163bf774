//! The quality-driven policy's contract: every measured period meets Γ.
//!
//! The paper promises a recall of at least Γ in every quality measurement
//! period, with the smallest K that delivers it.  These sessions replay
//! small, seeded versions of the benchmark's D×3, D×2 and D×4 workloads
//! under `QualityDriven` at Γ = 0.95 and measure each period's recall
//! against the ground truth with `mswj-metrics` — the first period
//! excluded, as the paper and the benchmark do.  The D×4 star session runs
//! sharded on `Pool { workers: 2 }`, as `d4_qd_shard2_inline` does, and its
//! checkpoint trajectory must equal a `Sequential` run's.  A Zipf session
//! shaped like `zipf_mat_seq` — 100 ms windows, delays up to ten of them —
//! drops more tuples than it keeps late, so it is the one where the dropped
//! tuples' counted loss moves K; it runs on `Sequential`, `Pool { workers:
//! 2 }` and two in-process shard servers, with one trajectory across all
//! three.
//!
//! The contract holds because the instant requirement `Γ'` is clamped into
//! `[Γ, 1]` (`BufferSizeManager::instant_requirement`).  Under Eq. 7's own
//! `[0, 1]`, a surplus in the history lets the next interval aim below Γ,
//! and three of the D×3 and D×2 sessions (D×3 at both seeds, D×2 at seed 7)
//! read a worst period of 0.939–0.950.  It still holds with `N_true(L)`
//! taking each out-of-order tuple's counted loss, kept or dropped; counting
//! the kept ones' loss in the selectivity maps too fails D×2 and D×4 at
//! seed 7 (0.934 and 0.948), and the dropped ones' took `zipf_mat_seq`'s
//! worst period at seed 7 to 0.917.

use mswj::datasets::Zipf;
use mswj::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const GAMMA: f64 = 0.95;

/// Runs one quality-driven session on `backend` and returns every measured
/// period's recall, first period excluded, with the session's report.
fn period_recalls(
    dataset: &Dataset,
    config: DisorderConfig,
    backend: ExecutionBackend,
) -> (Vec<f64>, RunReport) {
    let mut pipeline = Pipeline::builder()
        .query(dataset.query.clone())
        .policy(BufferPolicy::QualityDriven(config))
        .parallelism(backend)
        .build()
        .unwrap();
    for event in dataset.log.iter() {
        pipeline.push(event.clone());
    }
    let report = pipeline.finish();
    let truth = ground_truth_counts(&dataset.query, &dataset.log);
    let eval = evaluate_recall(&report, &truth, config.period_p);
    (eval.samples.iter().map(|s| s.recall).collect(), report)
}

fn check(name: &str, recalls: &[f64]) {
    assert!(
        recalls.len() >= 20,
        "{name}: only {} periods",
        recalls.len()
    );
    let worst = recalls.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        worst >= GAMMA,
        "{name}: worst period recall {worst:.4} < Γ = {GAMMA} ({} of {} periods miss)",
        recalls.iter().filter(|&&r| r < GAMMA).count(),
        recalls.len()
    );
}

/// D×3syn as `d3_qd_seq` draws it (200 tuples/s per stream, delays ≤ 2 s,
/// the value skew redrawn every 1–4 s, g = 100 ms) for 60 s, with P = 10 s.
fn d3(seed: u64) {
    let mut cfg = SyntheticConfig::three_way()
        .duration_secs(60)
        .tick(5)
        .max_delay(2_000);
    cfg.value_skew_change_ms = 2_000;
    let dataset = SyntheticDataset::generate(&cfg, seed).into_dataset();
    let config = DisorderConfig::with_gamma(GAMMA)
        .granularity(100)
        .period(10_000);
    let (recalls, _) = period_recalls(&dataset, config, ExecutionBackend::Sequential);
    check(&format!("D×3 seed {seed}"), &recalls);
}

/// The soccer distance join as `d2_dist_seq` draws it (100 readings/s per
/// player, Zipf(1.5) delays ≤ 1 s / 1.2 s, P = 10 s) for 40 s.
fn d2(seed: u64) {
    let mut cfg = SoccerConfig::default()
        .sample_interval(10)
        .max_delays(1_000, 1_200)
        .duration_secs(40);
    cfg.delay_skew = 1.5;
    let dataset = SoccerDataset::generate(&cfg, seed).into_dataset();
    let config = DisorderConfig::with_gamma(GAMMA).period(10_000);
    let (recalls, _) = period_recalls(&dataset, config, ExecutionBackend::Sequential);
    check(&format!("D×2 seed {seed}"), &recalls);
}

/// The D×4syn star join as `d4_qd_shard2_inline` draws it (20 tuples/s per
/// stream, delays ≤ 200 ms, L = 5 s, g = 20 ms, the paper's P = 60 s) for
/// 440 s, on `Pool { workers: 2 }`, single-event pushes.  Its checkpoints
/// `(at, measure_ts, k)` must equal a `Sequential` run's.
fn d4(seed: u64) {
    let mut cfg = SyntheticConfig::four_way()
        .duration_secs(440)
        .tick(50)
        .max_delay(200);
    cfg.delay_step_ms = 10;
    cfg.delay_skews = vec![2.0; 4];
    cfg.value_skew_change_ms = 2_000;
    let dataset = SyntheticDataset::generate(&cfg, seed).into_dataset();
    let config = DisorderConfig::with_gamma(GAMMA)
        .interval(5_000)
        .granularity(20);
    let name = format!("D×4 seed {seed} on Pool{{2}}");
    let (recalls, pooled) = period_recalls(&dataset, config, ExecutionBackend::Pool { workers: 2 });
    check(&name, &recalls);
    let (_, sequential) = period_recalls(&dataset, config, ExecutionBackend::Sequential);
    let trajectory = |r: &RunReport| {
        let point = |c: &Checkpoint| (c.at, c.measure_ts, c.k);
        r.checkpoints.iter().map(point).collect::<Vec<_>>()
    };
    assert_eq!(trajectory(&pooled), trajectory(&sequential), "{name}");
    assert!(
        pooled.checkpoints.iter().any(|c| c.n_lost_next > 0),
        "{name}: kept late tuples must count losses"
    );
}

/// A two-stream equi-join shaped like `zipf_mat_seq` (two tuples per ms per
/// stream, Zipf(1.0) keys over a million values, 100 ms windows, Zipf(2.0)
/// delays up to 1 s, P = 5 s, L = 500 ms) for 60 s, its delays drawn over
/// `{0, 100, …, 1 000}` ms instead of the benchmark's 10 ms steps: a
/// straggler ranks a whole window from the next, so it is more often out
/// of scope than in, and the session drops more tuples than it keeps late
/// (the benchmark's steps keep more than they drop).  It runs on
/// `Sequential`, `Pool { workers: 2 }` and `remote_inproc(2)`, and the
/// checkpoints `(at, measure_ts, k)` of all three must be equal.
fn zipf(seed: u64) {
    let streams = StreamSet::homogeneous(2, Schema::new(vec![("k", FieldType::Int)]), 100).unwrap();
    let cond = std::sync::Arc::new(CommonKeyEquiJoin::new(&streams, "k").unwrap());
    let query = JoinQuery::new("zipf2", streams, cond).unwrap();
    let (keys, delays) = (Zipf::new(1_000_000, 1.0), Zipf::new(11, 2.0));
    let mut interleaver = Interleaver::new();
    for stream in 0..2usize {
        let mut rng = StdRng::seed_from_u64(seed ^ (stream as u64 + 1) << 32);
        let events = (0..120_000u64)
            .map(|seq| {
                let clock = seq / 2 + 1;
                let delay = (delays.sample(&mut rng) as u64 - 1) * 100;
                let key = Value::Int(keys.sample(&mut rng) as i64);
                let ts = Timestamp::from_millis(clock.saturating_sub(delay));
                let tuple = Tuple::new(stream.into(), seq, ts, vec![key]);
                ArrivalEvent::new(Timestamp::from_millis(clock), tuple)
            })
            .collect();
        interleaver.add_stream(events);
    }
    let dataset = Dataset {
        name: "zipf".into(),
        query,
        log: interleaver.merge(),
    };
    let config = DisorderConfig::with_gamma(GAMMA)
        .period(5_000)
        .interval(500);
    let trajectory = |r: &RunReport| {
        let point = |c: &Checkpoint| (c.at, c.measure_ts, c.k);
        r.checkpoints.iter().map(point).collect::<Vec<_>>()
    };
    let (recalls, sequential) = period_recalls(&dataset, config, ExecutionBackend::Sequential);
    let name = format!("zipf seed {seed}");
    check(&name, &recalls);
    let stats = sequential.operator_stats;
    let kept_late = stats.out_of_order - stats.dropped;
    assert!(
        stats.dropped > kept_late,
        "{name}: {} dropped, {kept_late} kept late",
        stats.dropped
    );
    assert!(
        sequential.checkpoints.iter().any(|c| c.n_dropped_next > 0),
        "{name}: dropped tuples must count losses"
    );
    for backend in [
        ExecutionBackend::Pool { workers: 2 },
        ExecutionBackend::remote_inproc(2),
    ] {
        let (recalls, report) = period_recalls(&dataset, config, backend.clone());
        check(&format!("{name} on {backend}"), &recalls);
        assert_eq!(
            trajectory(&report),
            trajectory(&sequential),
            "{name} on {backend}"
        );
    }
}

#[test]
fn d3_meets_gamma_in_every_period_seed_42() {
    d3(42);
}

#[test]
fn d3_meets_gamma_in_every_period_seed_7() {
    d3(7);
}

#[test]
fn d2_meets_gamma_in_every_period_seed_42() {
    d2(42);
}

#[test]
fn d2_meets_gamma_in_every_period_seed_7() {
    d2(7);
}

#[test]
fn d4_star_on_pool_meets_gamma_in_every_period_seed_42() {
    d4(42);
}

#[test]
fn d4_star_on_pool_meets_gamma_in_every_period_seed_7() {
    d4(7);
}

#[test]
fn zipf_drops_more_than_it_keeps_and_meets_gamma_on_every_backend_seed_42() {
    zipf(42);
}

#[test]
fn zipf_drops_more_than_it_keeps_and_meets_gamma_on_every_backend_seed_7() {
    zipf(7);
}
