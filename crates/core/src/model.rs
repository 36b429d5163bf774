//! The analytical recall model `γ(L, K)` (Sec. IV-A, Eqs. 1–5).
//!
//! At each adaptation step the Buffer-Size Manager needs to predict, for a
//! candidate buffer size `K`, the recall of the join results that would be
//! produced during the next adaptation interval.  The paper derives:
//!
//! * the delay distribution seen by the join operator after K-slack and the
//!   Synchronizer, `f_{D_i^K}`, by shifting the raw delay histogram by
//!   `K + K_sync_i` (Eq. 2);
//! * the expected degree of completeness of each window via *basic windows*
//!   of `b` ms (Eq. 3): a recent window segment misses more late tuples than
//!   an old one;
//! * the produced and true result sizes (Eqs. 1 and 4), whose ratio — after
//!   the common factor `(Π r_i)·L` cancels — yields Eq. 5:
//!
//! ```text
//!              sel(K)    Σ_i f_{D_i^K}(0) · Π_{j≠i} effW_j(K)
//!   γ(L, K) =  ────── ·  ─────────────────────────────────────
//!               sel            Σ_i Π_{j≠i} W_j
//! ```
//!
//! where `effW_j(K) = Σ_l (segment length)·F_j^K((l-1)·b/g)` is the
//! effective (expected-complete) portion of window `W_j`.

use crate::statistics::{DelayHistogram, StatisticsManager};
use mswj_types::{Duration, StreamIndex};

/// Inputs of a one-shot [`RecallModel`] (tests, benches, offline analysis).
/// The Buffer-Size Manager does not build one per checkpoint: it keeps a
/// single model alive and refreshes it in place from the maintained
/// statistics.
#[derive(Debug, Clone)]
pub struct ModelInputs {
    /// Window sizes `W_i` (ms), one per stream.
    pub windows: Vec<Duration>,
    /// Raw per-stream delay histograms `f_{D_i}` (granularity `g`).
    pub histograms: Vec<DelayHistogram>,
    /// Estimated implicit synchronizer buffers `K_sync_i` (ms).
    pub k_sync: Vec<Duration>,
    /// Basic-window size `b` (ms).
    pub basic_window: Duration,
    /// K-search granularity `g` (ms); also the histogram granularity.
    pub granularity: Duration,
}

impl ModelInputs {
    /// Validates that all vectors agree on the number of streams.
    pub(crate) fn is_consistent(&self) -> bool {
        let m = self.windows.len();
        m >= 2 && self.histograms.len() == m && self.k_sync.len() == m
    }
}

/// The basic windows of one stream's window `W_j`, grouped by the number of
/// delay buckets `o = ⌊(l−1)·b/g⌋` they tolerate: `(o, weight)` pairs with
/// `weight` the total length (ms) of the basic windows at offset `o`;
/// offsets ascend and the weights sum to `W_j`.
fn window_layout(w: Duration, b: Duration, g: Duration) -> Vec<(usize, u64)> {
    let mut layout: Vec<(usize, u64)> = Vec::new();
    if w == 0 {
        return layout;
    }
    let b = b.max(1).min(w);
    let n = w.div_ceil(b);
    for l in 1..=n {
        let segment = if l < n { b } else { w - (n - 1) * b };
        let offset = ((l - 1) * b / g) as usize;
        match layout.last_mut() {
            Some((o, weight)) if *o == offset => *weight += segment,
            _ => layout.push((offset, segment)),
        }
    }
    layout
}

/// Layout offsets `lo, lo + stride, …, last` (`len` of them) that all
/// carry the same `weight`.
#[derive(Debug, Clone, Copy)]
struct Run {
    lo: usize,
    last: usize,
    len: usize,
    weight: u64,
}

/// One stream's [`window_layout`] compressed into maximal runs of one
/// stride, in ascending `lo`.
///
/// With `b/g = stride/q` in lowest terms, basic window `l + q` sits
/// exactly `stride` offsets after basic window `l`, so every offset but the
/// last weighs the same as the offset `stride` before it: the runs number
/// at most `stride + 1`, whatever `W_j`.  One run when `b = g` divides
/// `W_j`, at most two whenever `b` divides `g` (stride 1) or `g` divides
/// `b` (stride `b/g`).
#[derive(Debug, Clone)]
struct WindowRuns {
    stride: usize,
    runs: Vec<Run>,
}

/// Compiles the layout of window `w` into [`WindowRuns`].
fn window_runs(w: Duration, b: Duration, g: Duration) -> WindowRuns {
    let b = b.max(1).min(w.max(1));
    let (mut x, mut y) = (b, g);
    while y != 0 {
        (x, y) = (y, x % y);
    }
    let stride = (b / x) as usize;
    let mut runs: Vec<Run> = Vec::new();
    for (offset, weight) in window_layout(w, b, g) {
        match runs
            .iter_mut()
            .find(|run| run.last + stride == offset && run.weight == weight)
        {
            Some(run) => {
                run.last = offset;
                run.len += 1;
            }
            None => runs.push(Run {
                lo: offset,
                last: offset,
                len: 1,
                weight,
            }),
        }
    }
    WindowRuns { stride, runs }
}

/// `Σ_{i≥1} C_j[d − i·stride]` from the strided prefix sums `p` of `C_j`.
fn below(p: &[u64], d: usize, stride: usize) -> u64 {
    d.checked_sub(stride).map_or(0, |e| p[e])
}

/// Evaluator of `γ(L, K)`: per-query constants computed once, per-checkpoint
/// statistics (delay-count prefix sums, `K_sync_i`) refreshed in place.
///
/// Everything up to the final division is exact integer arithmetic over the
/// cumulative *counts* `C_j[d] = #{delays in buckets ≤ d}`, kept as their
/// prefix sums of the layout's stride `σ`, `P_j[d] = C_j[d] + P_j[d−σ]`
/// (`P_j` is 0 below index 0), so a run of `len` offsets `lo, lo+σ, …` of
/// one weight costs one multiply-add:
/// `effW_j(K) = (Σ_runs weight·(P_j[s_j+lo+(len−1)σ] − P_j[s_j+lo−σ]) + N_j·rest) / N_j`
/// (each run clipped to the table, `rest` the weight beyond it) is rounded
/// once and a fully covered window evaluates to exactly `W_j`.
#[derive(Debug, Clone)]
pub struct RecallModel {
    windows: Vec<Duration>,
    granularity: Duration,
    /// Per-stream [`window_runs`], computed once.
    runs: Vec<WindowRuns>,
    /// `Σ_i Π_{j≠i} W_j`, the denominator of Eq. 5.
    denominator: f64,
    /// Per-stream strided prefix sums `P_j` of the cumulative delay counts,
    /// one entry per bucket as `C_j` had (so the table allocates what `C_j`
    /// did): `C_j[d] = P_j[d] − P_j[d−σ]` and `N_j = C_j[B_j − 1]`; an empty
    /// table means "no evidence, perfectly ordered".  The entries are kept
    /// modulo 2^64 (wrapping add and subtract), because `P_j ≤ B_j · N_j`
    /// has no bound of its own when a caller of [`RecallModel::new`] builds
    /// the histogram.  Only differences of entries are ever read, and each
    /// is a sum of at most `W_j` counts of at most `N_j` (a layout has at
    /// most `W_j` offsets, each weighing ≥ 1 ms), so it comes out exact
    /// whenever `W_j · N_j < 2^64` — on every path, and far beyond the
    /// `2^53` below which the numerator's conversion to `f64` is exact.
    prefix: Vec<Vec<u64>>,
    k_sync: Vec<Duration>,
    /// `⌊K_sync_j / g⌋`: what `K_sync_j` adds to the shift of a candidate
    /// `K` that is a multiple of `g`.
    sync_shift: Vec<usize>,
}

impl RecallModel {
    /// A model for windows `W_j`, basic window `b` and granularity `g` with
    /// no delay evidence yet (every stream perfectly ordered, `K_sync` 0).
    pub(crate) fn for_query(
        windows: Vec<Duration>,
        basic_window: Duration,
        granularity: Duration,
    ) -> Self {
        let g = granularity.max(1);
        let m = windows.len();
        let mut denominator = 0.0;
        for i in 0..m {
            let mut prod_w = 1.0;
            for (j, &w) in windows.iter().enumerate() {
                if j != i {
                    prod_w *= w as f64;
                }
            }
            denominator += prod_w;
        }
        RecallModel {
            runs: windows
                .iter()
                .map(|&w| window_runs(w, basic_window, g))
                .collect(),
            windows,
            granularity: g,
            denominator,
            prefix: vec![Vec::new(); m],
            k_sync: vec![0; m],
            sync_shift: vec![0; m],
        }
    }

    /// Creates a one-shot model; panics if the inputs are inconsistent.
    pub fn new(inputs: ModelInputs) -> Self {
        assert!(inputs.is_consistent(), "inconsistent model inputs");
        let mut model =
            RecallModel::for_query(inputs.windows, inputs.basic_window, inputs.granularity);
        for (j, h) in inputs.histograms.iter().enumerate() {
            model.load_histogram(j, h);
        }
        model.k_sync = inputs.k_sync;
        model.derive_sync_shifts();
        model
    }

    /// Reloads the per-checkpoint statistics in place, in `O(Σ_j B_j)` and
    /// without allocating once the tables have reached their size.
    pub(crate) fn refresh(&mut self, stats: &StatisticsManager) {
        for j in 0..self.windows.len() {
            self.load_histogram(j, stats.delay_histogram(StreamIndex(j)));
        }
        stats.fill_k_sync_estimates(&mut self.k_sync);
        self.derive_sync_shifts();
    }

    fn derive_sync_shifts(&mut self) {
        let g = self.granularity;
        self.sync_shift.clear();
        self.sync_shift
            .extend(self.k_sync.iter().map(|&ks| (ks / g) as usize));
    }

    fn load_histogram(&mut self, stream: usize, h: &DelayHistogram) {
        let stride = self.runs[stream].stride;
        let table = &mut self.prefix[stream];
        table.clear();
        table.reserve(h.counts().len());
        let mut cumulative = 0u64;
        for &c in h.counts() {
            cumulative += c;
            table.push(cumulative.wrapping_add(below(table, table.len(), stride)));
        }
    }

    /// `C_j[d]`, read off the prefix sums.
    fn count_at(&self, stream: usize, d: usize) -> u64 {
        let p = &self.prefix[stream];
        p[d].wrapping_sub(below(p, d, self.runs[stream].stride))
    }

    /// Number of streams.
    pub(crate) fn arity(&self) -> usize {
        self.windows.len()
    }

    /// `Pr[D_i <= bucket]`; 1 beyond the table and with no evidence.
    fn raw_cumulative(&self, stream: usize, bucket: usize) -> f64 {
        match self.prefix[stream].len().checked_sub(1) {
            Some(last) if bucket <= last => {
                self.count_at(stream, bucket) as f64 / self.count_at(stream, last) as f64
            }
            _ => 1.0,
        }
    }

    /// `f_{D_i^K}(0)`: probability that a tuple of stream `i` reaches the
    /// join operator in order under buffer size `K` (Eq. 2, case `d = 0`).
    pub fn in_order_probability(&self, stream: usize, k: Duration) -> f64 {
        self.raw_cumulative(stream, self.shift_buckets(stream, k))
    }

    /// Number of histogram buckets covered by `K + K_sync_i`.
    fn shift_buckets(&self, stream: usize, k: Duration) -> usize {
        ((k + self.k_sync[stream]) / self.granularity) as usize
    }

    /// The expected effective coverage of window `W_j` under buffer size `K`
    /// (Eq. 3 with the per-stream rate factored out), in milliseconds.
    ///
    /// The most recent basic window only counts tuples that arrive with
    /// residual delay 0, the second one also those within `b`, and so on;
    /// the result is always in `[0, W_j]`, and exactly `W_j` once the shift
    /// covers every observed delay.
    pub fn effective_window(&self, stream: usize, k: Duration) -> f64 {
        self.covered_window(stream, self.shift_buckets(stream, k))
    }

    /// `effW_j` for a shift of `shift` delay buckets.
    fn covered_window(&self, stream: usize, shift: usize) -> f64 {
        let p = &self.prefix[stream];
        let (Some(last), Some(live)) = (p.len().checked_sub(1), p.len().checked_sub(shift)) else {
            return self.windows[stream] as f64;
        };
        let n = self.count_at(stream, last);
        let WindowRuns { stride, runs } = &self.runs[stream];
        // Basic windows whose bucket is still inside the table (offset <
        // live) weigh in with their cumulative count; the rest are complete
        // (count = N).
        let mut covered = 0u128;
        let mut rest = self.windows[stream];
        for run in runs {
            if run.lo >= live {
                break;
            }
            // The run's offsets below `live`: all, or a clipped prefix.
            let len = if run.last < live {
                run.len
            } else {
                (live - 1 - run.lo) / stride + 1
            };
            let first = shift + run.lo;
            let counts = p[first + (len - 1) * stride].wrapping_sub(below(p, first, *stride));
            covered += run.weight as u128 * counts as u128;
            rest -= run.weight * len as u64;
        }
        covered += rest as u128 * n as u128;
        covered as f64 / n as f64
    }

    /// Evaluates the structural (selectivity-free) part of Eq. 5:
    /// `Σ_i f_{D_i^K}(0)·Π_{j≠i} effW_j / Σ_i Π_{j≠i} W_j`.
    pub(crate) fn structural_recall(&self, k: Duration) -> f64 {
        self.structural_recall_by(|j| self.shift_buckets(j, k), &mut Vec::new())
    }

    /// Eq. 5's structural part for per-stream bucket shifts `shift(j)`, with
    /// caller-owned scratch for the `m` effective windows.
    fn structural_recall_by(&self, shift: impl Fn(usize) -> usize, eff: &mut Vec<f64>) -> f64 {
        if self.denominator <= 0.0 {
            return 0.0;
        }
        let m = self.arity();
        eff.clear();
        eff.extend((0..m).map(|j| self.covered_window(j, shift(j))));
        let mut numerator = 0.0;
        for i in 0..m {
            let mut prod_eff = 1.0;
            for (j, eff_j) in eff.iter().enumerate() {
                if j != i {
                    prod_eff *= eff_j;
                }
            }
            numerator += self.raw_cumulative(i, shift(i)) * prod_eff;
        }
        (numerator / self.denominator).clamp(0.0, 1.0)
    }

    /// Full Eq. 5: structural recall multiplied by the selectivity ratio
    /// `sel(K)/sel` supplied by the caller (1.0 under the EqSel strategy).
    pub fn estimate_recall(&self, k: Duration, selectivity_ratio: f64) -> f64 {
        (self.structural_recall(k) * selectivity_ratio).clamp(0.0, 1.0)
    }

    /// [`Self::estimate_recall`] for Alg. 3's `step`-th candidate
    /// `K = step·g`: the shift needs no division (it is `step +
    /// ⌊K_sync_j/g⌋`, the second term computed once per checkpoint), the
    /// only integer divisions are one per run that crosses the table's end
    /// (at most one per stream when `σ_j = 1`, where runs are disjoint
    /// ranges), and there is no allocation (`eff` is the caller's scratch).
    pub(crate) fn estimate_recall_at_step(
        &self,
        step: usize,
        ratio: f64,
        eff: &mut Vec<f64>,
    ) -> f64 {
        let structural = self.structural_recall_by(|j| step + self.sync_shift[j], eff);
        (structural * ratio).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(
        windows: Vec<Duration>,
        delays: Vec<Vec<Duration>>,
        k_sync: Vec<Duration>,
        b: Duration,
        g: Duration,
    ) -> ModelInputs {
        ModelInputs {
            windows,
            histograms: delays
                .into_iter()
                .map(|d| DelayHistogram::from_delays(g, d))
                .collect(),
            k_sync,
            basic_window: b,
            granularity: g,
        }
    }

    #[test]
    fn ordered_streams_give_recall_one_at_k_zero() {
        let m = RecallModel::new(inputs(
            vec![5_000, 5_000],
            vec![vec![0; 100], vec![0; 100]],
            vec![0, 0],
            10,
            10,
        ));
        assert!((m.structural_recall(0) - 1.0).abs() < 1e-9);
        assert!((m.estimate_recall(0, 1.0) - 1.0).abs() < 1e-9);
        assert_eq!(m.in_order_probability(0, 0), 1.0);
        assert!((m.effective_window(0, 0) - 5_000.0).abs() < 1e-6);
    }

    #[test]
    fn recall_is_monotone_in_k_for_fixed_selectivity() {
        // Half of the tuples of each stream are delayed by up to 1 s.
        let delays: Vec<Duration> = (0..1_000)
            .map(|i| if i % 2 == 0 { 0 } else { (i % 100) * 10 })
            .collect();
        let m = RecallModel::new(inputs(
            vec![5_000, 5_000, 5_000],
            vec![delays.clone(), delays.clone(), delays],
            vec![0, 0, 0],
            10,
            10,
        ));
        let mut last = -1.0;
        for k in (0..=1_200).step_by(100) {
            let r = m.structural_recall(k);
            assert!(
                r >= last - 1e-12,
                "recall not monotone at K={k}: {r} < {last}"
            );
            assert!((0.0..=1.0).contains(&r));
            last = r;
        }
        // A buffer covering the maximum delay yields (near-)perfect recall.
        assert!(m.structural_recall(1_000) > 0.999);
        // No buffer yields clearly imperfect recall.
        assert!(m.structural_recall(0) < 0.9);
    }

    #[test]
    fn k_sync_substitutes_for_explicit_buffering() {
        // A stream whose delays are fully covered by its K_sync needs no
        // K-slack buffer at all: the synchronizer already sorts it.
        let delays: Vec<Duration> = (0..500).map(|i| (i % 50) * 10).collect();
        let without_sync = RecallModel::new(inputs(
            vec![5_000, 5_000],
            vec![delays.clone(), vec![0; 500]],
            vec![0, 0],
            10,
            10,
        ));
        let with_sync = RecallModel::new(inputs(
            vec![5_000, 5_000],
            vec![delays, vec![0; 500]],
            vec![500, 0],
            10,
            10,
        ));
        assert!(with_sync.structural_recall(0) > without_sync.structural_recall(0));
        assert!(with_sync.structural_recall(0) > 0.999);
    }

    #[test]
    fn bigger_basic_window_is_more_conservative() {
        let delays: Vec<Duration> = (0..1_000)
            .map(|i| if i % 4 == 0 { 200 } else { 0 })
            .collect();
        let fine = RecallModel::new(inputs(
            vec![5_000, 5_000],
            vec![delays.clone(), delays.clone()],
            vec![0, 0],
            10,
            10,
        ));
        let coarse = RecallModel::new(inputs(
            vec![5_000, 5_000],
            vec![delays.clone(), delays],
            vec![0, 0],
            5_000, // one basic window == whole window: only in-order tuples count
            10,
        ));
        assert!(coarse.structural_recall(0) <= fine.structural_recall(0) + 1e-12);
    }

    #[test]
    fn selectivity_ratio_scales_and_clamps() {
        let m = RecallModel::new(inputs(
            vec![1_000, 1_000],
            vec![vec![0, 0, 100, 100], vec![0; 4]],
            vec![0, 0],
            10,
            10,
        ));
        let base = m.structural_recall(0);
        assert!(base > 0.0 && base < 1.0);
        assert!((m.estimate_recall(0, 0.5) - base * 0.5).abs() < 1e-12);
        assert_eq!(m.estimate_recall(0, 100.0), 1.0, "clamped at 1");
        assert_eq!(m.estimate_recall(0, 0.0), 0.0);
    }

    #[test]
    fn shifted_probability_matches_eq2() {
        // Raw histogram with g = 10: bucket 0 -> 0.5, bucket 1 -> 0.25,
        // bucket 2 -> 0.25.
        let m = RecallModel::new(inputs(
            vec![1_000, 1_000],
            vec![vec![0, 0, 10, 20], vec![0; 4]],
            vec![0, 0],
            10,
            10,
        ));
        // K = 10 shifts by one bucket: f^K(0) = F(1) = 0.75.
        assert!((m.in_order_probability(0, 10) - 0.75).abs() < 1e-12);
        assert!((m.in_order_probability(0, 20) - 1.0).abs() < 1e-12);
    }

    /// The per-entry `covered_window` the runs replaced: every layout
    /// offset inside the table weighs in with its cumulative count.
    fn covered_window_per_entry(
        w: Duration,
        b: Duration,
        g: Duration,
        h: &DelayHistogram,
        shift: usize,
    ) -> f64 {
        let table: Vec<u64> = h
            .counts()
            .iter()
            .scan(0, |sum, &c| {
                *sum += c;
                Some(*sum)
            })
            .collect();
        let (Some(&n), Some(live)) = (table.last(), table.get(shift..)) else {
            return w as f64;
        };
        let mut covered = 0u128;
        let mut rest = w;
        for (offset, weight) in window_layout(w, b, g.max(1)) {
            let Some(&count) = live.get(offset) else {
                break;
            };
            covered += weight as u128 * count as u128;
            rest -= weight;
        }
        covered += rest as u128 * n as u128;
        covered as f64 / n as f64
    }

    #[test]
    fn runs_over_prefix_sums_are_bit_identical_to_the_per_entry_sum() {
        assert_eq!(window_runs(5_000, 10, 10).runs.len(), 1);
        assert_eq!(window_runs(5_000, 10, 1).runs.len(), 1);
        let mut state = 0x5EED_0F20_2600_0001u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let (mut strided, mut ragged) = (0, 0);
        for case in 0..600 {
            let w = next(2_500);
            let g = 1 + next(60);
            // Half the cases with b > g, most of them not a multiple of g.
            let b = if case % 2 == 0 {
                1 + next(g)
            } else {
                g + 1 + next(150)
            };
            let WindowRuns { stride, runs } = window_runs(w, b, g);
            assert!(runs.len() <= stride + 1, "W={w} b={b} g={g}: {runs:?}");
            if g % b == 0 || b % g == 0 {
                assert!(runs.len() <= 2, "W={w} b={b} g={g}: {runs:?}");
            }
            strided += usize::from(stride > 1 && runs.len() > 2);
            ragged += usize::from(w % b != 0);
            // Every third stream has no evidence at all.
            let delays: Vec<Duration> = if case % 3 == 0 {
                Vec::new()
            } else {
                let spread = 1 + g * next(40);
                (0..1 + next(300)).map(|_| next(spread)).collect()
            };
            let h = DelayHistogram::from_delays(g, delays);
            let m = RecallModel::new(ModelInputs {
                windows: vec![w, 1_000],
                histograms: vec![h.clone(), DelayHistogram::empty(g)],
                k_sync: vec![0, 0],
                basic_window: b,
                granularity: g,
            });
            let buckets = h.counts().len();
            for shift in 0..=buckets + 1 {
                let oracle = covered_window_per_entry(w, b, g, &h, shift);
                let got = m.covered_window(0, shift);
                assert_eq!(
                    got.to_bits(),
                    oracle.to_bits(),
                    "W={w} b={b} g={g} shift={shift}: {got} vs {oracle}"
                );
                let shifted = (shift as u64 * g) as Duration;
                assert_eq!(
                    m.in_order_probability(0, shifted).to_bits(),
                    h.cumulative(shift).to_bits(),
                    "W={w} b={b} g={g} shift={shift}"
                );
            }
        }
        assert!(strided > 100 && ragged > 300, "{strided} / {ragged}");
    }

    #[test]
    #[should_panic(expected = "inconsistent model inputs")]
    fn inconsistent_inputs_are_rejected() {
        let bad = ModelInputs {
            windows: vec![1_000, 1_000],
            histograms: vec![DelayHistogram::empty(10)],
            k_sync: vec![0, 0],
            basic_window: 10,
            granularity: 10,
        };
        let _ = RecallModel::new(bad);
    }

    #[test]
    fn heterogeneous_windows_are_supported() {
        let m = RecallModel::new(inputs(
            vec![5_000, 2_000, 7_000],
            vec![vec![0; 10], vec![0; 10], vec![0; 10]],
            vec![0, 0, 0],
            10,
            10,
        ));
        assert!((m.structural_recall(0) - 1.0).abs() < 1e-9);
        assert!((m.effective_window(1, 0) - 2_000.0).abs() < 1e-6);
        assert_eq!(m.arity(), 3);
    }
}
