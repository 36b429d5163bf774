//! The Buffer-Size Manager: model-based K adaptation (Alg. 3, Sec. IV).
//!
//! At the end of every adaptation interval of `L` milliseconds the manager
//! derives the *instant* recall requirement `Γ'` for the next interval
//! (Eq. 7), then searches for the smallest buffer size `k*` — in steps of
//! the K-search granularity `g`, bounded by the maximum observed delay
//! `MaxDH` — whose model-predicted recall `γ(L, k*)` meets `Γ'` (Alg. 3).
//! The Same-K policy (Theorem 1) lets the same `k*` be applied to every
//! K-slack component.

use crate::config::{DisorderConfig, SelectivityStrategy};
use crate::model::RecallModel;
use crate::output::Checkpoint;
use crate::profiler::{ProductivityProfiler, SelectivityTable};
use crate::result_monitor::ResultSizeMonitor;
use crate::statistics::StatisticsManager;
use mswj_types::{Duration, Timestamp};
use std::time::Instant;

/// Model-based Buffer-Size Manager.
///
/// Owns everything a checkpoint needs besides the statistics themselves —
/// the recall model (window runs computed once per session, delay-count
/// prefix sums refreshed in place), the selectivity table and the walk's
/// scratch — so that [`Self::adapt`] allocates nothing once warmed up.
#[derive(Debug, Clone)]
pub struct BufferSizeManager {
    config: DisorderConfig,
    model: RecallModel,
    selectivity: SelectivityTable,
    eff_scratch: Vec<f64>,
}

impl BufferSizeManager {
    /// Creates a manager for a query with the given per-stream window sizes.
    pub fn new(config: DisorderConfig, windows: Vec<Duration>) -> Self {
        BufferSizeManager {
            model: RecallModel::for_query(windows, config.basic_window_b, config.granularity_g),
            config,
            selectivity: SelectivityTable::default(),
            eff_scratch: Vec::new(),
        }
    }

    /// Derives the instant recall requirement `Γ'` from Eq. 7:
    ///
    /// ```text
    ///   N_prod(P−L) + N_true(L)·Γ'
    ///   ─────────────────────────── >= Γ
    ///   N_true(P−L) + N_true(L)
    /// ```
    ///
    /// solved for `Γ'` and clamped into `[Γ, 1]`.
    ///
    /// The cap at 1 is read from §IV-C's `max{Γ', 1}`: a requirement above
    /// 1 is unsatisfiable, and a literal `max` with 1 would pin `Γ'` at 1.
    /// The paper's text is not in the repository, so this reading is
    /// unchecked.  The floor at `Γ` departs from Eq. 7, whose solution
    /// would be floored at 0 only: a surplus in the history then lets the
    /// next interval aim below `Γ`, the walk stops at a smaller K, and that
    /// interval's own recall dips below `Γ`.  With the floor a surplus is
    /// never spent, so every interval is planned to meet `Γ` on its own.
    /// README and `docs/ARCHITECTURE.md` §9 record what the faithful rule
    /// measured.
    pub(crate) fn instant_requirement(
        &self,
        n_prod_history: u64,
        n_true_history: u64,
        n_true_next: u64,
    ) -> f64 {
        if n_true_next == 0 {
            return self.config.gamma;
        }
        let gamma = self.config.gamma;
        let needed = gamma * (n_true_history as f64 + n_true_next as f64) - n_prod_history as f64;
        (needed / n_true_next as f64).max(gamma).min(1.0)
    }

    /// Runs one model-based adaptation step (Alg. 3) at the join operator's
    /// `onT` `measure_ts` and returns the [`Checkpoint`] it decided: K, Γ′
    /// with Eq. 7's inputs, and the walk.  Its `at` is `measure_ts`; the
    /// caller, which knows the arrival-axis instant, supplies the real one.
    pub fn adapt(
        &mut self,
        stats: &StatisticsManager,
        profiler: &ProductivityProfiler,
        monitor: &mut ResultSizeMonitor,
        measure_ts: Timestamp,
    ) -> Checkpoint {
        let start = Instant::now();
        let g = self.config.granularity_g.max(1);
        let max_delay = stats.max_delay();

        // Instant recall requirement Γ' (Eq. 7).
        let n_true_next = profiler.n_true_estimate();
        let n_prod_hist = monitor.produced_within(measure_ts);
        let n_true_hist = monitor.true_within(measure_ts);
        let gamma_prime = self.instant_requirement(n_prod_hist, n_true_hist, n_true_next);

        // Reload the recall model from the maintained statistics: O(Σ_j B_j).
        self.model.refresh(stats);

        // Alg. 3: trial-and-error search in steps of g, with sel(K)/sel read
        // off a forward cursor that advances one bucket per candidate.  Under
        // EqSel the table is never filled, and an empty table yields ratio 1.
        if self.config.selectivity == SelectivityStrategy::NonEqSel {
            profiler.fill_selectivity_table(&mut self.selectivity);
        }
        let mut k: Duration = 0;
        let mut steps: u32 = 0;
        let mut estimated = 0.0;
        let mut selectivity_ratio = 1.0;
        for (step, ratio) in self.selectivity.walk().enumerate() {
            steps += 1;
            selectivity_ratio = ratio;
            estimated = self
                .model
                .estimate_recall_at_step(step, ratio, &mut self.eff_scratch);
            if estimated >= gamma_prime || k > max_delay {
                break;
            }
            k += g;
        }

        Checkpoint {
            at: measure_ts,
            measure_ts,
            k,
            gamma_prime,
            estimated_recall: estimated,
            adaptation_nanos: start.elapsed().as_nanos() as u64,
            steps,
            max_delay,
            n_prod_history: n_prod_hist,
            n_true_history: n_true_hist,
            n_true_next,
            n_lost_next: profiler.n_lost_estimate(),
            n_dropped_next: profiler.n_dropped_estimate(),
            selectivity_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_types::StreamIndex;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    fn manager(gamma: f64) -> BufferSizeManager {
        BufferSizeManager::new(DisorderConfig::with_gamma(gamma), vec![5_000, 5_000])
    }

    /// Statistics with two streams whose delays are uniform over
    /// {0, 100, 200, ..., 900} ms.
    fn uniform_delay_stats() -> StatisticsManager {
        let mut sm = StatisticsManager::new(2, 10);
        for stream in 0..2 {
            let mut t = 0u64;
            for i in 0..2_000u64 {
                t += 10;
                let delay = (i % 10) * 100;
                let tuple_ts = t.saturating_sub(delay);
                sm.observe(StreamIndex(stream), ts(tuple_ts));
            }
        }
        sm
    }

    #[test]
    fn instant_requirement_matches_eq7_algebra() {
        let m = manager(0.9);
        // Past recall exactly Γ -> Γ' = Γ.
        assert!((m.instant_requirement(900, 1_000, 500) - 0.9).abs() < 1e-9);
        // Past recall above Γ -> Eq. 7 solves to 0.7, floored at Γ exactly.
        assert_eq!(m.instant_requirement(1_000, 1_000, 500), 0.9);
        // Past recall below Γ -> Γ' above Γ: (0.9·1 500 − 880) / 500.
        assert!((m.instant_requirement(880, 1_000, 500) - 0.94).abs() < 1e-9);
        // … and capped at 1.
        assert_eq!(m.instant_requirement(500, 1_000, 500), 1.0);
        assert_eq!(m.instant_requirement(0, 1_000, 100), 1.0);
        // No estimate of the next interval's size -> fall back to Γ.
        assert_eq!(m.instant_requirement(10, 10, 0), 0.9);
        // Massive past over-achievement (Eq. 7 solves to −90.1) is floored
        // at Γ, not 0: a surplus is never spent.
        assert_eq!(m.instant_requirement(10_000, 1_000, 100), 0.9);
    }

    #[test]
    fn higher_gamma_requires_larger_k() {
        let stats = uniform_delay_stats();
        let profiler = ProductivityProfiler::new(10);
        let mut monitor_low = ResultSizeMonitor::new(59_000);
        let mut monitor_high = ResultSizeMonitor::new(59_000);
        let low = manager(0.7).adapt(&stats, &profiler, &mut monitor_low, ts(20_000));
        let high = manager(0.99).adapt(&stats, &profiler, &mut monitor_high, ts(20_000));
        assert!(high.k >= low.k, "0.99 needs at least as much buffer as 0.7");
        assert!(high.k > 0);
        assert!(high.estimated_recall >= high.gamma_prime || high.k > high.max_delay);
        assert!(low.steps >= 1 && high.steps >= low.steps);
    }

    #[test]
    fn ordered_streams_need_no_buffer() {
        let mut sm = StatisticsManager::new(2, 10);
        for stream in 0..2 {
            for i in 0..1_000u64 {
                sm.observe(StreamIndex(stream), ts(i * 10));
            }
        }
        let profiler = ProductivityProfiler::new(10);
        let mut monitor = ResultSizeMonitor::new(59_000);
        let out = manager(0.999).adapt(&sm, &profiler, &mut monitor, ts(10_000));
        assert_eq!(out.k, 0);
        assert!(out.estimated_recall >= 0.999);
        assert_eq!(out.steps, 1);
    }

    #[test]
    fn search_is_bounded_by_max_observed_delay() {
        let stats = uniform_delay_stats();
        let profiler = ProductivityProfiler::new(10);
        let mut monitor = ResultSizeMonitor::new(59_000);
        let out = manager(1.0).adapt(&stats, &profiler, &mut monitor, ts(20_000));
        // Γ = 1 can force the search all the way past MaxDH, but never
        // beyond MaxDH + g.
        assert!(out.k <= out.max_delay + 10);
        // The workload delays tuples by up to 900 ms relative to the
        // generation clock; the observed delays (relative to iT) reach at
        // least ~800 ms.
        assert!(out.max_delay >= 800, "max delay {}", out.max_delay);
    }

    #[test]
    fn surplus_in_history_lowers_the_applied_k() {
        let stats = uniform_delay_stats();
        let mut profiler = ProductivityProfiler::new(10);
        // Give the profiler some evidence so N_true(L) > 0.
        profiler.record_processed(0, 100, 10);
        profiler.roll_interval();

        // Case A: history already over-achieved the requirement.
        let mut monitor_surplus = ResultSizeMonitor::new(59_000);
        monitor_surplus.record_true_estimate(ts(19_000), 1_000);
        monitor_surplus.record_produced(ts(19_000), 1_000);
        let with_surplus = manager(0.95).adapt(&stats, &profiler, &mut monitor_surplus, ts(20_000));

        // Case B: history under-achieved.
        let mut monitor_deficit = ResultSizeMonitor::new(59_000);
        monitor_deficit.record_true_estimate(ts(19_000), 1_000);
        monitor_deficit.record_produced(ts(19_000), 500);
        let with_deficit = manager(0.95).adapt(&stats, &profiler, &mut monitor_deficit, ts(20_000));

        assert!(with_surplus.gamma_prime < with_deficit.gamma_prime);
        assert!(with_surplus.k <= with_deficit.k);
    }

    #[test]
    fn adaptation_reports_timing() {
        let stats = uniform_delay_stats();
        let profiler = ProductivityProfiler::new(10);
        let mut monitor = ResultSizeMonitor::new(59_000);
        let out = manager(0.95).adapt(&stats, &profiler, &mut monitor, ts(20_000));
        // Some nonzero amount of work was measured (nanosecond clock).
        assert!(out.adaptation_nanos > 0);
    }
}
