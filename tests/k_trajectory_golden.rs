//! K-trajectory pin: four small seeded sessions whose checkpoint sequence
//! `(at, measure_ts, k, gamma_prime.to_bits(), steps)` must never move.
//!
//! The adaptation step decides K from a float comparison
//! (`estimated ≥ Γ'`), and K feeds back into everything downstream, so any
//! change to the statistics, the recall model, the profiler or Alg. 3's
//! search that is not decision-identical shows up here as a different hash.
//! `estimated_recall` itself is deliberately *not* hashed: it may differ in
//! the last bits between an exact and a chained-float evaluator without
//! changing a single decision.
//!
//! How the constants were produced: this file was written first and run
//! against the parent commit of the PR that made the checkpoint incremental
//! (`1d23084`, before any product-code change; the from-scratch
//! `from_delays` + float basic-window loop + two-map profiler), with the
//! expected values set to 0; the hashes and checkpoint counts printed by the
//! failing assertions were pasted in below.  Debug and `--release` builds
//! print the same values.

use mswj::prelude::*;

/// FNV-1a over the little-endian bytes of each word.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Runs one quality-driven session and returns (checkpoints, hash).
fn trajectory(dataset: &Dataset, config: DisorderConfig) -> (usize, u64) {
    let mut pipeline =
        Pipeline::new(dataset.query.clone(), BufferPolicy::QualityDriven(config)).unwrap();
    for event in dataset.log.iter() {
        pipeline.push(event.clone());
    }
    let report = pipeline.finish();
    assert!(
        report.checkpoints.iter().any(|c| c.k > 0 && c.steps > 1),
        "the session must exercise the K walk"
    );
    let hash = fnv1a(report.checkpoints.iter().flat_map(|c| {
        [
            c.at.as_millis(),
            c.measure_ts.as_millis(),
            c.k,
            c.gamma_prime.to_bits(),
            c.steps as u64,
        ]
    }));
    (report.checkpoints.len(), hash)
}

fn d3(secs: u64, max_delay: u64, seed: u64) -> Dataset {
    let cfg = SyntheticConfig::three_way()
        .duration_secs(secs)
        .max_delay(max_delay);
    SyntheticDataset::generate(&cfg, seed).into_dataset()
}

fn check(name: &str, got: (usize, u64), expected: (usize, u64)) {
    assert_eq!(
        got, expected,
        "{name}: trajectory moved — got ({}, {:#018x})",
        got.0, got.1
    );
}

#[test]
fn d3_q3_non_eq_sel_g10() {
    let config = DisorderConfig::with_gamma(0.95).period(20_000);
    check(
        "d3 g=10",
        trajectory(&d3(120, 2_000, 42), config),
        (119, 0x6178_d60f_dff9_7d01),
    );
}

#[test]
fn d3_q3_non_eq_sel_g100() {
    // b = 10 < g = 100: ten basic windows share each delay bucket.
    let config = DisorderConfig::with_gamma(0.9)
        .period(15_000)
        .granularity(100);
    check(
        "d3 g=100",
        trajectory(&d3(120, 5_000, 7), config),
        (119, 0x98ad_56aa_9530_e078),
    );
}

#[test]
fn d3_q3_eq_sel_b30() {
    // b = 30 > g = 10 and b ∤ W = 5 000: sparse offsets, short last segment.
    let config = DisorderConfig::with_gamma(0.97)
        .period(20_000)
        .basic_window(30)
        .selectivity_strategy(SelectivityStrategy::EqSel);
    check(
        "d3 EqSel b=30",
        trajectory(&d3(120, 3_000, 11), config),
        (119, 0x0c14_14c5_7b58_e09f),
    );
}

#[test]
fn d2_distance_join() {
    let soccer = SoccerConfig::default()
        .duration_secs(60)
        .max_delays(2_000, 3_000);
    let dataset = SoccerDataset::generate(&soccer, 5).into_dataset();
    let config = DisorderConfig::with_gamma(0.95).period(10_000);
    check(
        "d2 distance",
        trajectory(&dataset, config),
        (59, 0xf009_fe1e_139d_0cef),
    );
}
