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

use crate::engine::ShardStats;
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
    /// Instant recall requirement Γ' used by the adaptation: Eq. 7 solved
    /// from [`Self::n_prod_history`], [`Self::n_true_history`] and
    /// [`Self::n_true_next`], clamped into [Γ, 1]; `NaN` for non-adaptive
    /// policies.
    pub gamma_prime: f64,
    /// Model-estimated recall at the chosen K; `NaN` for non-model policies.
    pub estimated_recall: f64,
    /// Wall-clock nanoseconds spent in the adaptation step (0 for baselines).
    pub adaptation_nanos: u64,
    /// Number of K candidates examined by Alg. 3 (0 for baselines).
    pub steps: u32,
    /// Results produced with timestamps in the history `P − L` before
    /// `measure_ts`, `N_prod(P−L)` (0 for baselines).
    pub n_prod_history: u64,
    /// Estimated true results over the same history, `N_true(P−L)` (0 for
    /// baselines).
    pub n_true_history: u64,
    /// Estimated true results of the next interval, `N_true(L)` (0 for
    /// baselines): the results the last interval produced, plus
    /// [`Self::n_lost_next`], plus [`Self::n_dropped_next`].
    pub n_true_next: u64,
    /// The part of [`Self::n_true_next`] counted lost by the late tuples
    /// the operator kept (0 for baselines).
    pub n_lost_next: u64,
    /// The part of [`Self::n_true_next`] counted lost by the out-of-order
    /// tuples the operator dropped (0 for baselines).
    pub n_dropped_next: u64,
    /// `MaxDH`, the largest delay in the statistics, which bounds the K
    /// search (ms; 0 for baselines).
    pub max_delay: Duration,
    /// The selectivity ratio `sel(K)/sel` at the chosen K (1.0 under
    /// EqSel, `NaN` for baselines).  The model's structural recall is
    /// `estimated_recall / selectivity_ratio` wherever the product was not
    /// capped at 1.
    pub selectivity_ratio: f64,
}

impl Checkpoint {
    /// The record of a checkpoint whose non-adaptive policy set `k`; an
    /// adaptive one's comes from
    /// [`BufferSizeManager::adapt`](crate::BufferSizeManager::adapt).
    pub(crate) fn baseline(at: Timestamp, measure_ts: Timestamp, k: Duration) -> Checkpoint {
        Checkpoint {
            at,
            measure_ts,
            k,
            gamma_prime: f64::NAN,
            estimated_recall: f64::NAN,
            adaptation_nanos: 0,
            steps: 0,
            n_prod_history: 0,
            n_true_history: 0,
            n_true_next: 0,
            n_lost_next: 0,
            n_dropped_next: 0,
            max_delay: 0,
            selectivity_ratio: f64::NAN,
        }
    }
}

/// Summary of one pipeline run — the output of the built-in reporting sink
/// behind [`Pipeline::finish`](crate::Pipeline::finish).
#[derive(Debug, Clone)]
#[must_use = "a RunReport carries the run's recall/latency figures; dropping it discards them"]
pub struct RunReport {
    /// Name of the buffer-size policy that produced this run.
    pub policy: String,
    /// Per-probe result production: `(result timestamp, number of results)`.
    /// Only probes that produced at least one result are recorded, in the
    /// order their tuples were processed, which is non-decreasing in the
    /// result timestamp (each is an in-order tuple's own `ts`).  The session
    /// keeps the series compactly while it runs; this vector is built once,
    /// at its exact length, by
    /// [`Pipeline::finish_into`](crate::Pipeline::finish_into) after the
    /// session's other state has been dropped.
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

/// Bytes of a [`ProducedLog`]'s first chunk; each next chunk doubles, up
/// to [`LOG_CHUNK`].
const FIRST_LOG_CHUNK: usize = 256;

/// Bytes of a full-grown [`ProducedLog`] chunk.
const LOG_CHUNK: usize = 64 * 1024;

/// Most bytes one [`ProducedLog`] entry takes: two 10-byte varints.
const MAX_ENTRY: usize = 20;

/// The session's result series while it runs: one entry per
/// result-producing tuple, `(ts, count)`, kept as two LEB128 varints — the
/// timestamp's delta from the previous entry (`wrapping_sub`, so any order
/// and any `u64` round-trip) and the count — in byte chunks that an entry
/// never straddles, the first [`FIRST_LOG_CHUNK`] bytes and each next one
/// twice the last, up to [`LOG_CHUNK`], so a short series holds little.
/// In-order outcomes arrive in non-decreasing `ts`, so an entry is a few
/// bytes where a `(Timestamp, u64)` is 16; [`ProducedLog::into_vec`]
/// materialises [`RunReport::produced`] once, at exactly its length.
#[derive(Debug, Default)]
pub(crate) struct ProducedLog {
    chunks: Vec<Vec<u8>>,
    entries: usize,
    last_ts: u64,
}

impl ProducedLog {
    /// Appends one entry.
    pub(crate) fn push(&mut self, ts: Timestamp, count: u64) {
        let (capacity, len) = self
            .chunks
            .last()
            .map_or((0, 0), |chunk| (chunk.capacity(), chunk.len()));
        if capacity - len < MAX_ENTRY {
            let size = (2 * capacity).clamp(FIRST_LOG_CHUNK, LOG_CHUNK);
            self.chunks.push(Vec::with_capacity(size));
        }
        let chunk = self.chunks.last_mut().expect("pushed just above");
        let ts = ts.as_millis();
        put_varint(ts.wrapping_sub(self.last_ts), chunk);
        put_varint(count, chunk);
        self.last_ts = ts;
        self.entries += 1;
    }

    /// Decodes the log into a vector of exactly its length.
    pub(crate) fn into_vec(self) -> Vec<(Timestamp, u64)> {
        let mut out = Vec::with_capacity(self.entries);
        let mut ts = 0u64;
        for chunk in &self.chunks {
            let mut rest = chunk.as_slice();
            while !rest.is_empty() {
                ts = ts.wrapping_add(take_varint(&mut rest));
                out.push((Timestamp::from_millis(ts), take_varint(&mut rest)));
            }
        }
        debug_assert_eq!(out.len(), self.entries);
        out
    }
}

/// Appends `v` to `out` as a LEB128 varint, low bits first.
fn put_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 varint off the front of `bytes`.
fn take_varint(bytes: &mut &[u8]) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let (&byte, rest) = bytes.split_first().expect("a complete varint");
        *bytes = rest;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_event_is_copy_and_matchable() {
        let cp = Checkpoint::baseline(
            Timestamp::from_millis(500),
            Timestamp::from_millis(480),
            100,
        );
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

    /// Pushes `entries` through a log, checks they decode unchanged and
    /// returns the capacities of the chunks the log used.
    fn round_trip(entries: &[(u64, u64)]) -> Vec<usize> {
        let mut log = ProducedLog::default();
        for &(ts, count) in entries {
            log.push(Timestamp::from_millis(ts), count);
        }
        let want: Vec<(Timestamp, u64)> = entries
            .iter()
            .map(|&(ts, count)| (Timestamp::from_millis(ts), count))
            .collect();
        let chunks = log.chunks.iter().map(Vec::capacity).collect();
        assert_eq!(log.into_vec(), want);
        chunks
    }

    #[test]
    fn produced_log_round_trips_extreme_and_unordered_entries() {
        assert!(
            round_trip(&[]).is_empty(),
            "an empty log allocates no chunk"
        );
        round_trip(&[
            (0, 1),
            (u64::MAX, u64::MAX),
            (u64::MAX, 3),
            (0, u64::MAX),
            (7, 0),
            (7, 128),
            (5, 127),
            (1 << 63, 1 << 35),
        ]);
    }

    #[test]
    fn produced_log_round_trips_across_chunks() {
        // Three bytes an entry (a two-byte delta, a one-byte count): once
        // fewer than `MAX_ENTRY` bytes are left in a chunk, the next entry
        // opens one twice its size, and a full-grown chunk opens another of
        // the same size.
        assert_eq!(round_trip(&[(200, 1)]), [FIRST_LOG_CHUNK]);
        let entries: Vec<(u64, u64)> = (1..=(2 * LOG_CHUNK / 3 + 10) as u64)
            .map(|i| (i * 200, i % 100 + 1))
            .collect();
        let mut want = vec![FIRST_LOG_CHUNK];
        while *want.last().unwrap() < LOG_CHUNK {
            want.push(2 * want.last().unwrap());
        }
        want.push(LOG_CHUNK);
        assert_eq!(round_trip(&entries), want);
    }
}
