//! The pipeline's typed output surface: per-event [`OutputEvent`]s plus the
//! aggregate [`Checkpoint`] and [`RunReport`] records.
//!
//! The paper's pipeline (Fig. 2) is an online, event-at-a-time system, so
//! its output is modelled the same way: while a session runs, everything the
//! pipeline produces — join results, periodic checkpoints, buffer-size
//! changes, watermark progress — is delivered as a borrowed [`OutputEvent`]
//! to the [`Sink`](crate::Sink) passed to
//! [`Pipeline::push_into`](crate::Pipeline::push_into).  The aggregate
//! [`RunReport`] returned by [`Pipeline::finish`](crate::Pipeline::finish)
//! is the built-in reporting sink over the same event stream: the
//! checkpoints it carries are exactly the ones emitted as
//! [`OutputEvent::Checkpoint`] during the run.
//!
//! # Examples
//!
//! ```
//! use mswj_core::OutputEvent;
//! use mswj_types::Timestamp;
//!
//! // Sinks match on the event kind; unknown interests are simply ignored.
//! let ev = OutputEvent::Progress(Timestamp::from_millis(1_500));
//! let advanced_to = match ev {
//!     OutputEvent::Progress(ts) => Some(ts),
//!     _ => None,
//! };
//! assert_eq!(advanced_to, Some(Timestamp::from_millis(1_500)));
//! ```

use crate::engine::{PlanTransition, ShardStats};
use mswj_join::{JoinResult, OperatorStats};
use mswj_types::{Duration, StreamIndex, Timestamp};

/// One event emitted by a running pipeline into a [`Sink`](crate::Sink).
///
/// Events borrow from the pipeline, so handling them allocates nothing; a
/// sink that wants to keep a result or checkpoint beyond the callback must
/// clone it (as [`CollectSink`](crate::CollectSink) does).
#[derive(Debug, Clone, Copy)]
pub enum OutputEvent<'a> {
    /// A materialized join result.  Only emitted by sessions built with
    /// [`SessionBuilder::materialize_results`](crate::SessionBuilder::materialize_results);
    /// counting sessions report result *counts* through [`RunReport`]
    /// instead of materializing tuples.
    Result(&'a JoinResult),
    /// A periodic checkpoint was taken (every `L` ms of the arrival axis),
    /// after its adaptation step — if any — was applied.
    Checkpoint(&'a Checkpoint),
    /// The K-slack buffer size of one stream changed (the Same-K policy
    /// emits one event per stream).  Results released by a shrinking buffer
    /// are emitted as [`OutputEvent::Result`] immediately afterwards, within
    /// the same `push_into`/`finish_into` call.
    KChanged {
        /// The stream whose buffer was resized.
        stream: StreamIndex,
        /// The buffer size that was in force until now (ms).
        old: Duration,
        /// The buffer size in force from now on (ms).
        new: Duration,
    },
    /// The join operator's high-water timestamp `onT` advanced — the
    /// event-time watermark of the produced result stream.
    Progress(Timestamp),
}

/// One periodic checkpoint (taken every `L` ms of the arrival axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// Arrival-axis instant at which the checkpoint was taken.
    pub at: Timestamp,
    /// The join operator's `onT` at that moment — the reference point for
    /// recall measurements over the result-timestamp domain.
    pub measure_ts: Timestamp,
    /// Buffer size K applied from this checkpoint on (ms).
    pub k: Duration,
    /// Instant recall requirement Γ' used by the adaptation (1.0-capped);
    /// `NaN` for non-adaptive policies.
    pub gamma_prime: f64,
    /// Model-estimated recall at the chosen K; `NaN` for non-model policies.
    pub estimated_recall: f64,
    /// Wall-clock nanoseconds spent in the adaptation step (0 for baselines).
    pub adaptation_nanos: u64,
    /// Number of K candidates examined by Alg. 3 (0 for baselines).
    pub steps: u32,
}

/// Summary of one pipeline run — the output of the built-in reporting sink
/// behind [`Pipeline::finish`](crate::Pipeline::finish).
#[derive(Debug, Clone)]
#[must_use = "a RunReport carries the run's recall/latency figures; dropping it discards them"]
pub struct RunReport {
    /// Name of the buffer-size policy that produced this run.
    pub policy: String,
    /// Per-probe result production: `(result timestamp, number of results)`.
    /// Only probes that produced at least one result are recorded.
    pub produced: Vec<(Timestamp, u64)>,
    /// Periodic checkpoints (one per adaptation interval).
    pub checkpoints: Vec<Checkpoint>,
    /// Time-weighted average buffer size over the run (ms).
    pub avg_k_ms: f64,
    /// Aggregate join-stage counters, kept sequential-equivalent across
    /// execution backends.
    pub operator_stats: OperatorStats,
    /// Per-shard join-stage statistics (one entry per shard; a single entry
    /// on the `Sequential` backend): the shard operator's counters — whose
    /// `results` sum to [`RunReport::total_produced`] — plus the executor's
    /// runtime counters (routed volume, queue high-water mark, epoch counts,
    /// worker busy time on the parallel backends, and the shard's estimated
    /// live window bytes at the end of the run).
    pub shard_stats: Vec<ShardStats>,
    /// Total number of join results produced.
    pub total_produced: u64,
    /// Tuples that left a K-slack component still out of order.
    pub kslack_residual_out_of_order: u64,
    /// Largest raw tuple delay observed during the run (ms).
    pub max_observed_delay: Duration,
    /// Span of the arrival axis covered by the run (ms).
    pub duration_ms: Duration,
    /// Mean wall-clock nanoseconds per adaptation step (adaptive policies).
    pub avg_adaptation_nanos: f64,
    /// Every plan revision the join stage's runtime re-planner took (star
    /// pair switches), in decision order;
    /// empty unless the session opted into `runtime_replanning`.
    pub plan_transitions: Vec<PlanTransition>,
}

impl RunReport {
    /// Average K expressed in seconds (the unit the paper plots).
    pub fn avg_k_secs(&self) -> f64 {
        self.avg_k_ms / 1_000.0
    }

    /// Average adaptation-step time in milliseconds (Fig. 11's metric).
    pub fn avg_adaptation_millis(&self) -> f64 {
        self.avg_adaptation_nanos / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_event_is_copy_and_matchable() {
        let cp = Checkpoint {
            at: Timestamp::from_millis(500),
            measure_ts: Timestamp::from_millis(480),
            k: 100,
            gamma_prime: f64::NAN,
            estimated_recall: f64::NAN,
            adaptation_nanos: 0,
            steps: 0,
        };
        let ev = OutputEvent::Checkpoint(&cp);
        let copy = ev; // Copy: both remain usable.
        match (ev, copy) {
            (OutputEvent::Checkpoint(a), OutputEvent::Checkpoint(b)) => {
                assert_eq!(a.k, b.k);
            }
            _ => panic!("expected checkpoint events"),
        }
        let k_change = OutputEvent::KChanged {
            stream: StreamIndex(1),
            old: 0,
            new: 250,
        };
        assert!(format!("{k_change:?}").contains("250"));
    }
}
