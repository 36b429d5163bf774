//! Differential pins for the incremental checkpoint.
//!
//! (a) *incremental ≡ from-scratch*: the delay histogram the Statistics
//!     Manager maintains on admit/evict equals `DelayHistogram::from_delays`
//!     over the live history, across ADWIN cuts, the `MAX_HISTORY` cap and a
//!     far-late outlier that is later evicted.
//! (b) *evaluator ≡ oracle*: the exact-integer recall evaluator agrees with
//!     the float basic-window loop it replaced (kept here, and only here, as
//!     the oracle) and Alg. 3 picks the same `(k, steps)`.
//! (c) *one map ≡ two maps*: the single-map productivity profiler returns
//!     bit-identical `selectivity_ratio(k)` and `n_true_estimate` to a
//!     two-map reference kept in this file.

use mswj::core::{
    BufferSizeManager, DelayHistogram, DisorderConfig, ModelInputs, ProductivityProfiler,
    RecallModel, ResultSizeMonitor, SelectivityStrategy, StatisticsManager,
};
use mswj::types::{StreamIndex, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// (a) incremental histogram ≡ from-scratch histogram
// ---------------------------------------------------------------------------

/// `MAX_HISTORY` in `statistics.rs`.
const HISTORY_CAP: usize = 50_000;

fn assert_histograms_match(stats: &StatisticsManager, g: u64) {
    for i in 0..stats.arity() {
        let i = StreamIndex(i);
        let maintained = stats.delay_histogram(i);
        let rebuilt = DelayHistogram::from_delays(g, stats.history_delays(i));
        assert_eq!(*maintained, rebuilt, "stream {i:?}, g = {g}");
        assert_eq!(maintained.max_bucket(), rebuilt.max_bucket());
        assert_eq!(maintained.total(), rebuilt.total());
        assert_eq!(maintained.total() as usize, stats.history_len(i));
    }
}

#[test]
fn maintained_histogram_equals_rebuild_across_cuts_cap_and_outlier() {
    for (seed, g) in [(1u64, 10u64), (2, 100), (3, 7)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stats = StatisticsManager::new(2, g);
        let mut clock = [2_000_000u64; 2];
        let mut observe = |stats: &mut StatisticsManager, stream: usize, delay: u64| {
            clock[stream] += 10;
            let ts = clock[stream].saturating_sub(delay);
            stats.observe(StreamIndex(stream), Timestamp::from_millis(ts));
        };

        // Phase 1: mostly in-order, a thin tail of small delays.
        for n in 0..4_000 {
            for s in 0..2 {
                let delay = if rng.gen_bool(0.1) {
                    rng.gen_range(1u64..300)
                } else {
                    0
                };
                observe(&mut stats, s, delay);
            }
            if n % 97 == 0 {
                assert_histograms_match(&stats, g);
            }
        }
        let before_shift = stats.history_len(StreamIndex(0));
        let buckets_before_outlier = stats.delay_histogram(StreamIndex(0)).counts().len();

        // Phase 2: the delay distribution shifts hard — ADWIN must cut.
        let mut shortest = before_shift;
        for n in 0..3_000 {
            for s in 0..2 {
                observe(&mut stats, s, rng.gen_range(2_000u64..6_000));
            }
            shortest = shortest.min(stats.history_len(StreamIndex(0)));
            if n % 53 == 0 {
                assert_histograms_match(&stats, g);
            }
        }
        assert!(
            shortest < before_shift,
            "the shift never triggered an ADWIN cut ({shortest} >= {before_shift})"
        );

        // A far-late outlier grows the table by orders of magnitude …
        observe(&mut stats, 0, 1_000_000);
        assert_histograms_match(&stats, g);
        let with_outlier = stats.delay_histogram(StreamIndex(0)).counts().len();
        assert!(with_outlier > 100 * buckets_before_outlier.max(1));

        // Phase 3: … and a long stationary run evicts it again (trailing
        // buckets trimmed) and then pins the history at the hard cap.
        for n in 0..(HISTORY_CAP + 8_000) {
            for s in 0..2 {
                let delay = if rng.gen_bool(0.2) {
                    rng.gen_range(1u64..500)
                } else {
                    0
                };
                observe(&mut stats, s, delay);
            }
            if n % 1_999 == 0 {
                assert_histograms_match(&stats, g);
            }
        }
        assert_histograms_match(&stats, g);
        assert_eq!(stats.history_len(StreamIndex(0)), HISTORY_CAP);
        let after = stats.delay_histogram(StreamIndex(0));
        assert!(
            after.counts().len() < with_outlier / 100,
            "the outlier's trailing buckets were not trimmed on eviction: {} vs {with_outlier}",
            after.counts().len()
        );
        assert!(stats.max_delay() < 1_000_000);
    }
}

// ---------------------------------------------------------------------------
// (b) integer evaluator ≡ float basic-window oracle
// ---------------------------------------------------------------------------

/// The evaluator this PR replaced, verbatim in its arithmetic: a cumulative
/// *probability* table and one float multiply-add per basic window.
struct Oracle {
    windows: Vec<u64>,
    cumulative: Vec<Vec<f64>>,
    k_sync: Vec<u64>,
    b: u64,
    g: u64,
}

impl Oracle {
    fn new(windows: &[u64], histograms: &[DelayHistogram], k_sync: &[u64], b: u64, g: u64) -> Self {
        Oracle {
            windows: windows.to_vec(),
            cumulative: histograms
                .iter()
                .map(|h| (0..=h.max_bucket()).map(|d| h.cumulative(d)).collect())
                .collect(),
            k_sync: k_sync.to_vec(),
            b,
            g: g.max(1),
        }
    }

    fn raw_cumulative(&self, stream: usize, bucket: usize) -> f64 {
        self.cumulative[stream].get(bucket).copied().unwrap_or(1.0)
    }

    fn shift(&self, stream: usize, k: u64) -> usize {
        ((k + self.k_sync[stream]) / self.g) as usize
    }

    fn effective_window(&self, stream: usize, k: u64) -> f64 {
        let w = self.windows[stream];
        if w == 0 {
            return 0.0;
        }
        let b = self.b.max(1).min(w);
        let n = w.div_ceil(b) as usize;
        let mut eff = 0.0;
        for l in 1..=n {
            let segment = if l < n {
                b as f64
            } else {
                (w - (n as u64 - 1) * b) as f64
            };
            let buckets = ((l as u64 - 1) * b / self.g) as usize;
            eff += segment * self.raw_cumulative(stream, buckets + self.shift(stream, k));
        }
        eff.min(w as f64)
    }

    fn estimate(&self, k: u64, ratio: f64) -> f64 {
        let m = self.windows.len();
        let eff: Vec<f64> = (0..m).map(|j| self.effective_window(j, k)).collect();
        let mut numerator = 0.0;
        let mut denominator = 0.0;
        for i in 0..m {
            let mut prod_eff = 1.0;
            let mut prod_w = 1.0;
            for (j, eff_j) in eff.iter().enumerate() {
                if j != i {
                    prod_eff *= eff_j;
                    prod_w *= self.windows[j] as f64;
                }
            }
            numerator += self.raw_cumulative(i, self.shift(i, k)) * prod_eff;
            denominator += prod_w;
        }
        if denominator <= 0.0 {
            return 0.0;
        }
        ((numerator / denominator).clamp(0.0, 1.0) * ratio).clamp(0.0, 1.0)
    }
}

/// Alg. 3's walk over an arbitrary evaluator: `(k, steps, estimate)`.
fn walk(
    estimate: impl Fn(u64) -> f64,
    gamma_prime: f64,
    g: u64,
    max_delay: u64,
) -> (u64, u32, f64) {
    let (mut k, mut steps) = (0u64, 0u32);
    loop {
        steps += 1;
        let e = estimate(k);
        if e >= gamma_prime || k > max_delay {
            return (k, steps, e);
        }
        k += g;
    }
}

/// A float tie: the oracle lands within 1e-9 of Γ′ at some candidate it
/// examined *and* the two evaluators differ in that estimate's last bits, so
/// the `>=` may legitimately fall either way.
fn is_rounding_tie(
    oracle: impl Fn(u64) -> f64,
    product: impl Fn(u64) -> f64,
    gamma_prime: f64,
    g: u64,
    oracle_steps: u32,
) -> bool {
    (0..oracle_steps as u64).any(|step| {
        let o = oracle(step * g);
        (o - gamma_prime).abs() < 1e-9 && o.to_bits() != product(step * g).to_bits()
    })
}

const GAMMA_PRIMES: [f64; 4] = [0.0, 0.5, 0.95, 1.0];

fn random_delays(rng: &mut StdRng, g: u64) -> Vec<u64> {
    let n = [0usize, 1, 2, 10, 200, 1_500][rng.gen_range(0usize..6)];
    let max = g * rng.gen_range(0u64..60);
    let late = rng.gen_range(0.0f64..1.0);
    (0..n)
        .map(|_| {
            if max > 0 && rng.gen_bool(late) {
                rng.gen_range(1u64..=max)
            } else {
                0
            }
        })
        .collect()
}

#[test]
fn integer_evaluator_agrees_with_float_oracle() {
    let mut rng = StdRng::seed_from_u64(0xA1_63);
    let window_pool = [0u64, 1, 7, 100, 999, 1_000, 3_001, 5_000];
    let b_pool = [1u64, 3, 10, 30, 100, 1_000, 7_000];
    let g_pool = [1u64, 7, 10, 100, 1_000];
    let cases = 1_200;
    let (mut ties, mut walks) = (0u32, 0u32);
    // Coverage of the corners the issue names.
    let (mut b_lt_g, mut b_eq_g, mut b_gt_g, mut b_ndiv_w, mut w_lt_b, mut w_zero) =
        (0, 0, 0, 0, 0, 0);
    let (mut empty_hist, mut shift_past_end, mut saturated) = (0, 0, 0);

    for _ in 0..cases {
        let m = rng.gen_range(2usize..=4);
        let g = g_pool[rng.gen_range(0usize..g_pool.len())];
        let b = if rng.gen_bool(0.2) {
            g
        } else {
            b_pool[rng.gen_range(0usize..b_pool.len())]
        };
        let windows: Vec<u64> = (0..m)
            .map(|_| window_pool[rng.gen_range(0usize..window_pool.len())])
            // Keep the oracle's basic-window loop affordable in debug builds.
            .map(|w| if w / b > 600 { b * 600 + 1 } else { w })
            .collect();
        let delays: Vec<Vec<u64>> = (0..m).map(|_| random_delays(&mut rng, g)).collect();
        let histograms: Vec<DelayHistogram> = delays
            .iter()
            .map(|d| DelayHistogram::from_delays(g, d.iter().copied()))
            .collect();
        let max_delay = delays.iter().flatten().copied().max().unwrap_or(0);
        let k_sync: Vec<u64> = (0..m)
            .map(|_| match rng.gen_range(0u64..4) {
                0 => 0,
                1 => rng.gen_range(0u64..=3 * g),
                2 => rng.gen_range(0u64..=max_delay.max(1)),
                _ => max_delay + g * rng.gen_range(1u64..50), // past the table end
            })
            .collect();

        b_lt_g += (b < g) as u32;
        b_eq_g += (b == g) as u32;
        b_gt_g += (b > g) as u32;
        b_ndiv_w += windows.iter().any(|&w| w > b && w % b != 0) as u32;
        w_lt_b += windows.iter().any(|&w| w > 0 && w < b) as u32;
        w_zero += windows.contains(&0) as u32;
        empty_hist += histograms.iter().any(|h| h.total() == 0) as u32;

        let oracle = Oracle::new(&windows, &histograms, &k_sync, b, g);
        let model = RecallModel::new(ModelInputs {
            windows: windows.clone(),
            histograms: histograms.clone(),
            k_sync: k_sync.clone(),
            basic_window: b,
            granularity: g,
        });

        // Per-window agreement on every candidate up to past MaxDH, and the
        // exact saturation values.
        let last_k = max_delay + 2 * g;
        for k in (0..=last_k).step_by(g as usize) {
            for j in 0..m {
                let (o, p) = (oracle.effective_window(j, k), model.effective_window(j, k));
                let w = windows[j] as f64;
                assert!(
                    (o - p).abs() <= 1e-9 * w,
                    "effW differs: W={windows:?} b={b} g={g} k={k} j={j}: oracle {o} vs {p}"
                );
                assert!((0.0..=w).contains(&p));
                let covered =
                    histograms[j].total() == 0 || oracle.shift(j, k) >= histograms[j].max_bucket();
                if covered {
                    shift_past_end += (oracle.shift(j, k) > histograms[j].max_bucket() + 1) as u32;
                    assert_eq!(p, w, "a fully covered window must be exactly W_j");
                    assert_eq!(model.in_order_probability(j, k), 1.0);
                }
            }
            assert!((oracle.estimate(k, 1.0) - model.estimate_recall(k, 1.0)).abs() <= 1e-9);
        }
        // Past every delay the model is saturated: exactly 1 (or exactly 0
        // when the windows make the denominator vanish).
        let denominator_vanishes = windows.iter().filter(|&&w| w == 0).count() >= 2;
        let top = model.estimate_recall(last_k, 1.0);
        if denominator_vanishes {
            assert_eq!(top, 0.0);
        } else {
            assert_eq!(top, 1.0, "W={windows:?} b={b} g={g}");
            saturated += 1;
        }

        for gamma_prime in GAMMA_PRIMES {
            let o = |k: u64| oracle.estimate(k, 1.0);
            let p = |k: u64| model.estimate_recall(k, 1.0);
            let expected = walk(o, gamma_prime, g, max_delay);
            walks += 1;
            if is_rounding_tie(o, p, gamma_prime, g, expected.1) {
                ties += 1;
                continue;
            }
            let got = walk(p, gamma_prime, g, max_delay);
            assert_eq!(
                (got.0, got.1),
                (expected.0, expected.1),
                "walk differs: W={windows:?} b={b} g={g} Γ'={gamma_prime} k_sync={k_sync:?}"
            );
        }
    }

    assert!(ties * 100 < walks, "{ties} rounding ties in {walks} walks");
    for (name, n) in [
        ("b < g", b_lt_g),
        ("b = g", b_eq_g),
        ("b > g", b_gt_g),
        ("b ∤ W", b_ndiv_w),
        ("W < b", w_lt_b),
        ("W = 0", w_zero),
        ("empty histogram", empty_hist),
        ("shift past table end", shift_past_end),
        ("saturated", saturated),
    ] {
        assert!(n >= 20, "corner `{name}` covered only {n} times");
    }
}

// ---------------------------------------------------------------------------
// (c) single-map profiler ≡ two-map reference, and the full `adapt` walk
// ---------------------------------------------------------------------------

/// The profiler this PR replaced: separate `M_x` / `M_on` maps and a table
/// built from the sorted union of their keys.
#[derive(Default)]
struct TwoMapProfiler {
    g: u64,
    current: (BTreeMap<usize, u64>, BTreeMap<usize, u64>, u64, u64), // cross, join, max_join, max_cross
    last: (BTreeMap<usize, u64>, BTreeMap<usize, u64>, u64, u64),
}

impl TwoMapProfiler {
    fn bucket(&self, delay: u64) -> usize {
        if delay == 0 {
            0
        } else {
            delay.div_ceil(self.g) as usize
        }
    }

    fn add(&mut self, bucket: usize, n_cross: u64, n_join: u64) {
        *self.current.0.entry(bucket).or_insert(0) += n_cross;
        *self.current.1.entry(bucket).or_insert(0) += n_join;
    }

    fn record_processed(&mut self, delay: u64, n_cross: u64, n_join: u64) {
        let bucket = self.bucket(delay);
        self.add(bucket, n_cross, n_join);
        self.current.2 = self.current.2.max(n_join);
        self.current.3 = self.current.3.max(n_cross);
    }

    fn record_unprocessed(&mut self, delay: u64) {
        let bucket = self.bucket(delay);
        let est_join = self.last.2.max(self.current.2);
        let est_cross = self.last.3.max(self.current.3).max(est_join);
        self.add(bucket, est_cross, est_join);
    }

    fn roll_interval(&mut self) {
        self.last = std::mem::take(&mut self.current);
    }

    fn n_true_estimate(&self) -> u64 {
        self.last.1.values().sum()
    }

    fn ratio(&self, k: u64) -> f64 {
        let (cross, join) = (&self.last.0, &self.last.1);
        let mut buckets: Vec<usize> = join.keys().chain(cross.keys()).copied().collect();
        buckets.sort_unstable();
        buckets.dedup();
        let mut cum = Vec::new();
        let (mut join_acc, mut cross_acc) = (0u64, 0u64);
        for &b in &buckets {
            join_acc += join.get(&b).copied().unwrap_or(0);
            cross_acc += cross.get(&b).copied().unwrap_or(0);
            cum.push((b, join_acc, cross_acc));
        }
        let Some(&(_, total_join, total_cross)) = cum.last() else {
            return 1.0;
        };
        if total_join == 0 || total_cross == 0 {
            return 1.0;
        }
        let k_bucket = (k / self.g) as usize;
        let idx = cum.partition_point(|&(b, _, _)| b <= k_bucket);
        if idx == 0 {
            return 1.0;
        }
        let (_, join_k, cross_k) = cum[idx - 1];
        if cross_k == 0 {
            return 1.0;
        }
        let sel = total_join as f64 / total_cross as f64;
        if sel <= 0.0 {
            1.0
        } else {
            (join_k as f64 / cross_k as f64) / sel
        }
    }
}

/// Feeds one random interval into both profilers.
fn feed_interval(
    rng: &mut StdRng,
    g: u64,
    profiler: &mut ProductivityProfiler,
    reference: &mut TwoMapProfiler,
) {
    let events = [0usize, 1, 30, 400][rng.gen_range(0usize..4)];
    let max_delay = g * rng.gen_range(1u64..80);
    let productive = rng.gen_bool(0.8);
    for _ in 0..events {
        let delay = if rng.gen_bool(0.3) {
            rng.gen_range(1u64..=max_delay)
        } else {
            0
        };
        if rng.gen_bool(0.15) {
            profiler.record_unprocessed(delay);
            reference.record_unprocessed(delay);
        } else {
            let n_cross = rng.gen_range(0u64..5_000);
            // Delay-correlated productivity, so the ratio is not flat.
            let n_join = if productive {
                (n_cross / 50) * (1 + delay / g.max(1) % 5)
            } else {
                0
            };
            profiler.record_processed(delay, n_cross, n_join);
            reference.record_processed(delay, n_cross, n_join);
        }
    }
    profiler.roll_interval();
    reference.roll_interval();
}

#[test]
fn single_map_profiler_is_bit_identical_to_two_map_reference() {
    let mut rng = StdRng::seed_from_u64(77);
    for g in [1u64, 10, 100] {
        let mut profiler = ProductivityProfiler::new(g);
        let mut reference = TwoMapProfiler {
            g,
            ..Default::default()
        };
        for _ in 0..60 {
            feed_interval(&mut rng, g, &mut profiler, &mut reference);
            assert_eq!(profiler.n_true_estimate(), reference.n_true_estimate());
            let table = profiler.selectivity_table();
            let mut cursor = table.walk();
            for step in 0..120u64 {
                let k = step * g;
                let expected = reference.ratio(k).to_bits();
                assert_eq!(
                    profiler.selectivity_ratio(k).to_bits(),
                    expected,
                    "g={g} k={k}"
                );
                assert_eq!(
                    cursor.next().unwrap().to_bits(),
                    expected,
                    "cursor g={g} k={k}"
                );
                // Off-grid K values take the same bucket as the grid point below.
                assert_eq!(profiler.selectivity_ratio(k + g / 2).to_bits(), expected);
            }
        }
    }
}

#[test]
fn adapt_walk_matches_oracle_walk() {
    let mut rng = StdRng::seed_from_u64(2016);
    let (mut ties, mut walks, mut multi_step) = (0u32, 0u32, 0u32);
    for case in 0..60 {
        let m = rng.gen_range(2usize..=3);
        let g = [1u64, 10, 100][rng.gen_range(0usize..3)];
        let b = [3u64, 10, 30, 100][rng.gen_range(0usize..4)];
        let windows: Vec<u64> = (0..m)
            .map(|_| [0u64, 500, 1_999, 5_000][rng.gen_range(0usize..4)])
            .map(|w| if w / b > 600 { b * 600 + 1 } else { w })
            .collect();
        let strategy = if case % 3 == 0 {
            SelectivityStrategy::EqSel
        } else {
            SelectivityStrategy::NonEqSel
        };

        // Statistics through `observe`: per-stream skew gives K_sync > 0,
        // sometimes far past the delay table.
        let mut stats = StatisticsManager::new(m, g);
        let max = g * rng.gen_range(0u64..60);
        for s in 0..m {
            let lead = [0u64, 40, 10_000][rng.gen_range(0usize..3)];
            let late = rng.gen_range(0.0f64..0.6);
            for n in 0..rng.gen_range(0u64..1_500) {
                let delay = if max > 0 && rng.gen_bool(late) {
                    rng.gen_range(1u64..=max)
                } else {
                    0
                };
                let ts = (20_000 + lead + n * 10).saturating_sub(delay);
                stats.observe(StreamIndex(s), Timestamp::from_millis(ts));
            }
        }
        let mut profiler = ProductivityProfiler::new(g);
        let mut reference = TwoMapProfiler {
            g,
            ..Default::default()
        };
        feed_interval(&mut rng, g, &mut profiler, &mut reference);

        let histograms: Vec<DelayHistogram> = (0..m)
            .map(|i| stats.delay_histogram(StreamIndex(i)).clone())
            .collect();
        let oracle = Oracle::new(&windows, &histograms, &stats.k_sync_estimates(), b, g);
        let model = RecallModel::new(ModelInputs {
            windows: windows.clone(),
            histograms,
            k_sync: stats.k_sync_estimates(),
            basic_window: b,
            granularity: g,
        });
        let ratio = |k: u64| match strategy {
            SelectivityStrategy::EqSel => 1.0,
            SelectivityStrategy::NonEqSel => reference.ratio(k),
        };

        for gamma in GAMMA_PRIMES {
            let config = DisorderConfig::with_gamma(gamma)
                .basic_window(b)
                .granularity(g)
                .selectivity_strategy(strategy);
            let mut manager = BufferSizeManager::new(config, windows.clone());
            let mut monitor = ResultSizeMonitor::new(59_000);
            // Called twice: the second call runs on warmed-up scratch and
            // must not remember anything from the first.
            let first = manager.adapt(
                &stats,
                &profiler,
                &mut monitor,
                Timestamp::from_millis(30_000),
            );
            let outcome = manager.adapt(
                &stats,
                &profiler,
                &mut monitor,
                Timestamp::from_millis(30_000),
            );
            assert_eq!((first.k, first.steps), (outcome.k, outcome.steps));
            assert_eq!(
                first.estimated_recall.to_bits(),
                outcome.estimated_recall.to_bits()
            );
            assert_eq!(outcome.max_delay, stats.max_delay());

            let o = |k: u64| oracle.estimate(k, ratio(k));
            let p = |k: u64| model.estimate_recall(k, ratio(k));
            let expected = walk(o, outcome.gamma_prime, g, stats.max_delay());
            walks += 1;
            multi_step += (expected.1 > 1) as u32;
            if is_rounding_tie(o, p, outcome.gamma_prime, g, expected.1) {
                ties += 1;
                continue;
            }
            assert_eq!(
                (outcome.k, outcome.steps),
                (expected.0, expected.1),
                "case {case}: W={windows:?} b={b} g={g} Γ'={} {strategy:?}",
                outcome.gamma_prime
            );
            assert!((outcome.estimated_recall - expected.2).abs() <= 1e-9);
            if expected.2 == 1.0 {
                assert_eq!(outcome.estimated_recall, 1.0, "saturation must stay exact");
            }
        }
    }
    assert!(
        ties * 100 < walks.max(100),
        "{ties} rounding ties in {walks} walks"
    );
    assert!(multi_step >= 40, "only {multi_step} walks went past K = 0");
}
