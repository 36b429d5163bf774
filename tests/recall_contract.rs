//! The quality-driven policy's contract: every measured period meets Γ.
//!
//! The paper promises a recall of at least Γ in every quality measurement
//! period, with the smallest K that delivers it.  These sessions replay
//! small, seeded versions of the benchmark's D×3, D×2 and D×4 workloads
//! under `QualityDriven` at Γ = 0.95 and measure each period's recall
//! against the ground truth with `mswj-metrics` — the first period
//! excluded, as the paper and the benchmark do.  The D×4 star session runs
//! sharded on `Pool { workers: 2 }`, as `d4_qd_shard2_inline` does, and its
//! checkpoint trajectory must equal a `Sequential` run's.
//!
//! The contract holds because the instant requirement `Γ'` is clamped into
//! `[Γ, 1]` (`BufferSizeManager::instant_requirement`).  Under Eq. 7's own
//! `[0, 1]`, a surplus in the history lets the next interval aim below Γ,
//! and three of the D×3 and D×2 sessions (D×3 at both seeds, D×2 at seed 7)
//! read a worst period of 0.939–0.950.  It still holds with `N_true(L)`
//! taking each kept late tuple's counted loss; counting it in the
//! selectivity maps too fails D×2 and D×4 at seed 7 (0.934 and 0.948).

use mswj::prelude::*;

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
