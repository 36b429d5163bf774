//! The end-to-end disorder-handling pipeline (Fig. 2 of the paper).
//!
//! A [`Pipeline`] wires together, for one join query and one buffer-size
//! policy:
//!
//! ```text
//!   raw arrivals ──► K-slack (one per stream) ──► Synchronizer ──► sharded JoinEngine ──► Sink
//!        │                   ▲                                        │
//!        ▼                   │ updates of K                           ▼
//!   Statistics Manager ──► Buffer-Size Manager ◄── Tuple-Productivity Profiler
//!                                ▲                        │
//!                                └── Result-Size Monitor ◄┘
//! ```
//!
//! The pipeline has two layers.  The **front-end** is sequential and
//! global, exactly as the paper requires: K-slack buffering, the
//! Synchronizer, the Statistics Manager, the buffer-size adaptation and the
//! watermark all observe every tuple in one total order.  The **join
//! stage** is a key-partitioned [`JoinEngine`]: synchronized tuples are
//! staged into it, hash-routed by their equi-join key across `n` shard
//! operators, and executed per batch by the configured
//! [`ExecutionBackend`] ([`SessionBuilder::parallelism`]).
//!
//! Each arrival takes one path through the front-end: its K-slack
//! component hands every tuple it releases straight to the Synchronizer,
//! which hands every tuple it releases straight to the join stage's
//! batch — closures, not intermediate vectors.  A buffer-size shrink and
//! end of stream release from every K-slack component at once; those
//! releases are merged by timestamp (ties to the lower stream index) into
//! the Synchronizer one tuple at a time, so no step holds a copy of the
//! backlog.
//!
//! The pipeline is driven by [`ArrivalEvent`]s (tuples in arrival order,
//! interleaved across streams) and delivers its output *event by event*:
//! [`Pipeline::push_into`] hands every join result, checkpoint, buffer-size
//! change and watermark advance to a caller-provided [`Sink`] as a borrowed
//! [`OutputEvent`], so the counting hot path performs no per-event heap
//! allocation.  [`Pipeline::push_batch_into`] ingests a whole batch and
//! flushes the join stage **once**, amortizing the front-end → shard
//! hand-off over the batch; single-event `push_into` simply delegates to it.  Under the
//! resident [`ExecutionBackend::Pool`] the flush is *pipelined*: the batch
//! is handed to the resident shard workers and the call returns while they
//! execute it, so the front-end processes batch *t + 1* concurrently with
//! the join work of batch *t*; the deferred batch's events are delivered at
//! the next flush boundary, and an epoch barrier is placed at checkpoints,
//! buffer-size changes and end-of-stream so adaptation statistics stay
//! byte-identical to the sequential backend.  Sessions are assembled with
//! the fluent [`SessionBuilder`] (see [`Pipeline::builder`]).
//!
//! Every `L` milliseconds of the arrival axis a *checkpoint* is taken:
//! adaptive policies run their adaptation step (Alg. 3)
//! and every policy records the buffer size in force, so that downstream
//! metrics can measure `γ(P)` "right before each adaptation of K" exactly as
//! the paper does.  The join stage is always flushed before a checkpoint is
//! taken and before a buffer-size change is applied, so adaptation decisions
//! see fully up-to-date statistics and results released by a shrinking
//! buffer reach the sink within the same `push_into`/`push_batch_into`/
//! `finish_into` call that applied the shrink — nothing is parked in a side
//! buffer.

use crate::adaptation::BufferSizeManager;
use crate::builder::SessionBuilder;
use crate::config::DisorderConfig;
use crate::engine::{EngineEvent, ExecutionBackend, JoinEngine, ShardPublisher, ShardStats};
use crate::kslack::KSlack;
use crate::output::{Checkpoint, OutputEvent, ProducedLog, RunReport};
use crate::policy::BufferPolicy;
use crate::profiler::ProductivityProfiler;
use crate::result_monitor::ResultSizeMonitor;
use crate::sink::{NullSink, Sink};
use crate::statistics::StatisticsManager;
use crate::synchronizer::Synchronizer;
use mswj_join::{JoinQuery, ProbePlan, ProbeStrategy};
use mswj_obs::{EventKind, Telemetry, TelemetryEvent};
use mswj_types::{ArrivalEvent, Duration, Result, StreamIndex, Timestamp, Tuple};

/// The quality-driven disorder-handling pipeline for one MSWJ query.
pub struct Pipeline {
    query: JoinQuery,
    policy: BufferPolicy,
    kslacks: Vec<KSlack>,
    synchronizer: Synchronizer,
    engine: JoinEngine,
    stats: StatisticsManager,
    profiler: ProductivityProfiler,
    monitor: ResultSizeMonitor,
    manager: Option<BufferSizeManager>,
    interval_l: Duration,
    next_checkpoint: Option<Timestamp>,
    first_arrival: Option<Timestamp>,
    last_arrival: Timestamp,
    current_k: Duration,
    k_weighted_sum: f64,
    k_since: Timestamp,
    lifetime_max_delay: Duration,
    /// The result series `RunReport::produced` is decoded from at finish.
    produced: ProducedLog,
    checkpoints: Vec<Checkpoint>,
    /// Watermark of the last [`OutputEvent::Progress`] emission.
    last_progress: Option<Timestamp>,
    /// Observe-only metrics sink.  `None` means instrumentation is
    /// compiled out of the hot path entirely (a branch on an `Option`,
    /// never an allocation); attached via
    /// [`SessionBuilder::telemetry`](crate::SessionBuilder::telemetry).
    telemetry: Option<Telemetry>,
    /// One gauge publisher per shard, resolved at build so publication
    /// does no registry locking; empty without telemetry.
    publishers: Vec<ShardPublisher>,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("query", &self.query)
            .field("policy", &self.policy.name())
            .field("backend", &self.engine.backend())
            .field("shards", &self.engine.shard_count())
            .field("current_k", &self.current_k)
            .finish()
    }
}

impl Pipeline {
    /// Starts a fluent [`SessionBuilder`] — the one way to declare streams,
    /// join condition, policy and parallelism in one chain.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    // Crate-internal constructor behind the builder.
    pub(crate) fn construct(
        query: JoinQuery,
        policy: BufferPolicy,
        materialize: bool,
        probe: ProbeStrategy,
        backend: ExecutionBackend,
        telemetry: Option<Telemetry>,
    ) -> Result<Self> {
        let config: DisorderConfig = policy.config().copied().unwrap_or_default();
        config.validate()?;
        let m = query.arity();
        let initial_k = match &policy {
            BufferPolicy::FixedK(k) => *k,
            _ => 0,
        };
        let manager = match &policy {
            BufferPolicy::QualityDriven(c) => Some(BufferSizeManager::new(*c, query.windows())),
            _ => None,
        };
        let engine = JoinEngine::try_new(query.clone(), probe, materialize, backend)?;
        let publishers = match &telemetry {
            Some(t) => (0..engine.shard_count())
                .map(|s| ShardPublisher::new(t.shard(s)))
                .collect(),
            None => Vec::new(),
        };
        Ok(Pipeline {
            kslacks: (0..m).map(|_| KSlack::new(initial_k)).collect(),
            synchronizer: Synchronizer::new(m),
            engine,
            stats: StatisticsManager::new(m, config.granularity_g),
            profiler: ProductivityProfiler::new(config.granularity_g),
            monitor: ResultSizeMonitor::new(
                config.period_p.saturating_sub(config.interval_l).max(1),
            ),
            manager,
            interval_l: config.interval_l,
            next_checkpoint: None,
            first_arrival: None,
            last_arrival: Timestamp::ZERO,
            current_k: initial_k,
            k_weighted_sum: 0.0,
            k_since: Timestamp::ZERO,
            lifetime_max_delay: 0,
            produced: ProducedLog::default(),
            checkpoints: Vec::new(),
            last_progress: None,
            telemetry,
            publishers,
            query,
            policy,
        })
    }

    /// The policy driving this pipeline.
    pub fn policy(&self) -> &BufferPolicy {
        &self.policy
    }

    /// The query being executed.
    pub fn query(&self) -> &JoinQuery {
        &self.query
    }

    /// The probe access path the join operator planned from the condition's
    /// equi structure (hash-indexed common-key/star lookups, or the
    /// exhaustive nested loop).
    pub fn probe_plan(&self) -> &ProbePlan {
        self.engine.probe_plan()
    }

    /// The sharded join stage: backend, shard count, per-shard operators
    /// and routing rules are all inspectable through it.
    pub fn engine(&self) -> &JoinEngine {
        &self.engine
    }

    /// Per-shard lifetime statistics of the join stage (one entry per
    /// shard; a single entry on the `Sequential` backend): the shard
    /// operator's counters plus executor runtime counters — routed volume,
    /// queue high-water mark, epoch counts and worker busy time.  A shard
    /// still executing a pipelined epoch is read after that epoch, which
    /// this waits for; the epoch's events still arrive at the next flush or
    /// sync (the next push, or `finish_into`).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.engine.shard_stats()
    }

    /// Processes one arrival, discarding output events — the counting-mode
    /// convenience over [`Pipeline::push_into`].  All result accounting
    /// still happens; the totals surface in the [`RunReport`].
    pub fn push(&mut self, event: ArrivalEvent) {
        self.push_into(event, &mut NullSink);
    }

    /// Processes one arrival, delivering every output event — join results
    /// (materializing sessions only), checkpoints, buffer-size changes and
    /// watermark advances — to `sink` before returning.
    ///
    /// This is the hot path: events borrow from the pipeline, and a
    /// released tuple moves from K-slack through the Synchronizer into the
    /// join stage's batch with no staging copy in between, so a counting
    /// session in steady state performs **no per-event heap allocation**.
    /// Delegates to [`Pipeline::push_batch_into`] with a one-event batch.
    pub fn push_into<S: Sink>(&mut self, event: ArrivalEvent, sink: &mut S) {
        self.push_batch_into(std::iter::once(event), sink);
    }

    /// Processes a whole batch of arrivals, flushing the sharded join stage
    /// once per batch instead of once per event.
    ///
    /// Batching amortizes the front-end → shard hand-off over the batch,
    /// which is where the parallel backends earn their keep.  Semantics are
    /// identical to pushing the events one by one: the same results,
    /// reports and adaptation trajectory (checkpoints force an intermediate
    /// flush, so adaptive policies never act on stale statistics).  The
    /// only observable difference is *within* the batch: results and
    /// watermark advances are delivered at flush boundaries rather than
    /// strictly interleaved with later arrivals' buffer-size events.
    pub fn push_batch_into<S, I>(&mut self, events: I, sink: &mut S)
    where
        S: Sink,
        I: IntoIterator<Item = ArrivalEvent>,
    {
        for event in events {
            self.ingest(event, sink);
        }
        self.flush_engine(sink);
    }

    /// Front-end processing of one arrival: checkpoint boundaries, delay
    /// statistics, K-slack buffering and staging of released tuples into
    /// the join stage.  Does **not** flush the stage.
    fn ingest<S: Sink>(&mut self, event: ArrivalEvent, sink: &mut S) {
        let arrival = event.arrival;
        if self.first_arrival.is_none() {
            self.first_arrival = Some(arrival);
            self.k_since = arrival;
            self.next_checkpoint = Some(arrival.saturating_add_duration(self.interval_l));
        }
        self.last_arrival = arrival;

        // Checkpoint / adaptation boundaries crossed by this arrival.  The
        // join stage is synced first — staged *and* pipeline-deferred work
        // both execute — so the profiler and result-size monitor are up to
        // date when the adaptation reads them.
        while let Some(next) = self.next_checkpoint {
            if arrival >= next {
                self.sync_engine(sink);
                self.take_checkpoint(next, sink);
                self.next_checkpoint = Some(next.saturating_add_duration(self.interval_l));
            } else {
                break;
            }
        }

        let stream = event.stream();
        let tuple = event.tuple;
        let delay = self.stats.observe(stream, tuple.ts);
        if let Some(t) = &self.telemetry {
            let s = t.session();
            s.events_ingested.inc();
            s.kslack_delay_ms.record(delay);
        }
        if delay > self.lifetime_max_delay {
            self.lifetime_max_delay = delay;
            if matches!(self.policy, BufferPolicy::MaxKSlack) {
                self.sync_engine(sink);
                self.apply_k(self.lifetime_max_delay, arrival, sink);
            }
        }

        self.kslacks[stream.as_usize()].push_with(tuple, |t| {
            self.synchronizer.push_with(t, |t| self.engine.stage(t));
        });
    }

    /// Flushes all buffers (end of stream), discarding output events, and
    /// produces the run report.
    #[must_use = "finish() returns the RunReport with the run's figures"]
    pub fn finish(self) -> RunReport {
        self.finish_into(&mut NullSink)
    }

    /// Flushes all buffers (end of stream), delivering the results derived
    /// during the final flush to `sink`, and produces the run report.
    ///
    /// Together with [`Pipeline::push_into`] this guarantees that a
    /// materializing session's sink sees *every* result the report counts —
    /// including results released by a buffer shrink at the very last
    /// adaptation.
    #[must_use = "finish_into() returns the RunReport with the run's figures"]
    pub fn finish_into<S: Sink>(mut self, sink: &mut S) -> RunReport {
        // Flush the K-slack components through the synchronizer, then the
        // synchronizer's own backlog.
        self.release_heads(true);
        self.synchronizer.flush_with(|t| self.engine.stage(t));
        self.sync_engine(sink);

        // Close the average-K accounting.
        let end = self.last_arrival;
        self.k_weighted_sum += self.current_k as f64 * (end - self.k_since) as f64;
        let start = self.first_arrival.unwrap_or(Timestamp::ZERO);
        let duration = end.saturating_duration_since(start);
        let avg_k = if duration > 0 {
            self.k_weighted_sum / duration as f64
        } else {
            self.current_k as f64
        };

        let adapt_samples: Vec<u64> = self
            .checkpoints
            .iter()
            .filter(|c| c.adaptation_nanos > 0)
            .map(|c| c.adaptation_nanos)
            .collect();
        let avg_adapt = if adapt_samples.is_empty() {
            0.0
        } else {
            adapt_samples.iter().sum::<u64>() as f64 / adapt_samples.len() as f64
        };

        let residual = self
            .kslacks
            .iter()
            .map(|ks| ks.stats().residual_out_of_order)
            .sum();
        let operator_stats = self.engine.stats();
        let shard_stats = self.engine.shard_stats();
        let policy = self.policy.name().to_owned();
        let max_observed_delay = self.lifetime_max_delay;
        let checkpoints = std::mem::take(&mut self.checkpoints);
        let produced = std::mem::take(&mut self.produced);
        // The session's state goes before the series is decoded, so the
        // report vector never coexists with the windows and histories.
        drop(self);

        RunReport {
            policy,
            total_produced: operator_stats.results,
            operator_stats,
            shard_stats,
            produced: produced.into_vec(),
            checkpoints,
            avg_k_ms: avg_k,
            kslack_residual_out_of_order: residual,
            max_observed_delay,
            duration_ms: duration,
            avg_adaptation_nanos: avg_adapt,
        }
    }

    /// Sends every tuple the K-slack components release — the emittable
    /// ones, or all of them with `flush` — through the synchronizer and
    /// stages what it emits into the join stage (they execute at the next
    /// flush).
    fn release_heads(&mut self, flush: bool) {
        merge_heads(&mut self.kslacks, flush, |t| {
            self.synchronizer.push_with(t, |t| self.engine.stage(t));
        });
    }

    /// Executes every staged tuple through the configured backend, feeding
    /// results into `sink` and the outcomes into the productivity profiler,
    /// the result-size monitor and the watermark.  On the pipelined `Pool`
    /// backend this may *defer* the batch (events arrive at the next flush
    /// boundary); `barrier` forces every deferred epoch to complete first.
    fn drive_engine<S: Sink>(&mut self, sink: &mut S, barrier: bool) {
        if !self.engine.has_pending() && !self.engine.has_outstanding() {
            return;
        }
        let Pipeline {
            engine,
            profiler,
            monitor,
            produced,
            last_progress,
            telemetry,
            ..
        } = self;
        let session = telemetry.as_ref().map(Telemetry::session);
        let mut handler = |ev: EngineEvent<'_>| match ev {
            EngineEvent::Result(r) => sink.event(OutputEvent::Result(r)),
            EngineEvent::Done(outcome) => {
                let (delay, ts) = (outcome.delay, outcome.ts);
                if outcome.in_order {
                    profiler.record_processed(delay, outcome.n_cross, outcome.n_join);
                    if let Some(s) = session {
                        s.results_emitted.add(outcome.n_join);
                    }
                    if outcome.n_join > 0 {
                        monitor.record_produced(ts, outcome.n_join);
                        produced.push(ts, outcome.n_join);
                    }
                    // An in-order tuple advances onT to its own timestamp;
                    // deduplicate repeats so the watermark only moves
                    // forward.
                    if *last_progress != Some(ts) {
                        *last_progress = Some(ts);
                        sink.event(OutputEvent::Progress(ts));
                    }
                } else {
                    profiler.record_out_of_order(delay, outcome.n_lost, outcome.inserted);
                    if let Some(s) = session.filter(|_| !outcome.inserted) {
                        s.tuples_dropped.inc();
                    }
                }
            }
        };
        let started = session.map(|_| std::time::Instant::now());
        if barrier {
            engine.sync(&mut handler);
        } else {
            engine.flush(&mut handler);
        }
        if let (Some(s), Some(at)) = (session, started) {
            s.ingest_emit_latency_nanos
                .record(at.elapsed().as_nanos() as u64);
        }
    }

    /// Pipelined flush: staged work is handed to the join stage; the `Pool`
    /// backend may execute it asynchronously.
    fn flush_engine<S: Sink>(&mut self, sink: &mut S) {
        self.drive_engine(sink, false);
    }

    /// Barrier flush: staged *and* deferred work completes, and all of its
    /// events reach `sink`, before this returns — required before
    /// checkpoints, buffer-size changes and the final report.
    fn sync_engine<S: Sink>(&mut self, sink: &mut S) {
        self.drive_engine(sink, true);
    }

    /// Takes one periodic checkpoint at arrival-axis instant `at`: runs the
    /// policy's adaptation (if any), applies the new K to every K-slack
    /// component (Same-K policy), records the checkpoint and emits it.
    ///
    /// The caller guarantees the join stage was synced (no staged or
    /// deferred work), so `measure_ts` and the profiler reflect every tuple
    /// staged so far.
    fn take_checkpoint<S: Sink>(&mut self, at: Timestamp, sink: &mut S) {
        let measure_ts = self.engine.on_t();

        // The just-finished interval becomes the profiler's "last interval".
        self.profiler.roll_interval();
        let n_true_last = self.profiler.n_true_estimate();

        // Prune the produced-results window under every policy, not only
        // where adaptation or telemetry query it, so it stays bounded.  The
        // cutoff is theirs, and pruning before `apply_k` keeps the results
        // a shrink releases (ts > `measure_ts`) in the count they read.
        self.monitor.produced_within(measure_ts);
        let checkpoint = match &self.policy {
            BufferPolicy::QualityDriven(_) => {
                self.monitor.record_true_estimate(measure_ts, n_true_last);
                let manager = self.manager.as_mut().expect("manager exists for QD policy");
                let decided =
                    manager.adapt(&self.stats, &self.profiler, &mut self.monitor, measure_ts);
                Checkpoint { at, ..decided }
            }
            BufferPolicy::NoKSlack => Checkpoint::baseline(at, measure_ts, 0),
            BufferPolicy::MaxKSlack => {
                Checkpoint::baseline(at, measure_ts, self.lifetime_max_delay)
            }
            BufferPolicy::FixedK(k) => Checkpoint::baseline(at, measure_ts, *k),
        };
        self.apply_k(checkpoint.k, at, sink);
        // Results released by a shrink are delivered before the checkpoint
        // event, exactly as when pushing event by event.
        self.sync_engine(sink);

        self.checkpoints.push(checkpoint);
        sink.event(OutputEvent::Checkpoint(&checkpoint));

        if self.telemetry.is_some() {
            self.publish_checkpoint_telemetry(&checkpoint);
        }
    }

    /// Publishes the quality gauges, the checkpoint event and the per-shard
    /// runtime gauges after a checkpoint.  Runs only when telemetry is
    /// attached; strictly observe-only (reads statistics the checkpoint
    /// already computed, plus the barrier-time shard counters — on the
    /// `Remote` backend one barrier round-trip per shard, which samples the
    /// server-side window footprint).
    fn publish_checkpoint_telemetry(&mut self, checkpoint: &Checkpoint) {
        let Checkpoint {
            at,
            measure_ts,
            k,
            gamma_prime,
            estimated_recall: estimated,
            ..
        } = *checkpoint;
        let produced = self.monitor.produced_within(measure_ts);
        let truth = self.monitor.true_within(measure_ts);
        let observed = if truth == 0 {
            f64::NAN
        } else {
            (produced as f64 / truth as f64).min(1.0)
        };
        let stats = self.engine.stats();
        let arrived = stats.in_order + stats.out_of_order;
        let drop_rate = if arrived == 0 {
            0.0
        } else {
            stats.dropped as f64 / arrived as f64
        };
        let t = self.telemetry.as_ref().expect("checked by caller");
        let s = t.session();
        s.k_ms.set(k as f64);
        s.gamma_prime.set(gamma_prime);
        s.recall_estimated.set(estimated);
        s.recall_observed.set(observed);
        s.drop_rate.set(drop_rate);
        s.checkpoints.inc();
        t.emit(TelemetryEvent {
            at_ms: at.as_millis(),
            kind: EventKind::Checkpoint,
            message: format!(
                "checkpoint at {} ms: K = {k} ms, recall est {estimated:.4} / obs {observed:.4}",
                at.as_millis()
            ),
        });
        let shards = self.engine.shard_stats();
        for (publisher, shard) in self.publishers.iter_mut().zip(&shards) {
            publisher.publish(&shard.runtime);
        }
    }

    /// Applies a new buffer size to every K-slack component (Same-K policy),
    /// updates the time-weighted average-K accounting and emits one
    /// [`OutputEvent::KChanged`] per stream.  Tuples released by a shrink
    /// are staged downstream immediately, so the results they derive reach
    /// `sink` within the same push/flush call.
    fn apply_k<S: Sink>(&mut self, k: Duration, at: Timestamp, sink: &mut S) {
        if k == self.current_k {
            return;
        }
        let old = self.current_k;
        self.k_weighted_sum += self.current_k as f64 * (at - self.k_since) as f64;
        self.k_since = at;
        self.current_k = k;
        for (i, ks) in self.kslacks.iter_mut().enumerate() {
            ks.set_k(k);
            sink.event(OutputEvent::KChanged {
                stream: StreamIndex(i),
                old,
                new: k,
            });
        }
        // A smaller K may make buffered tuples immediately emittable.
        self.release_heads(false);
    }
}

/// Releases the heads of `kslacks` to `emit` while any is ready (see
/// [`KSlack::head_ts`]), smallest timestamp first and ties to the lower
/// stream index: each component releases in timestamp order, so this is
/// the order a stable sort by timestamp gives over the components'
/// releases concatenated in stream order — without holding them.
fn merge_heads(kslacks: &mut [KSlack], flush: bool, mut emit: impl FnMut(Tuple)) {
    loop {
        let mut next: Option<(Timestamp, usize)> = None;
        for (i, ks) in kslacks.iter().enumerate() {
            match (ks.head_ts(flush), next) {
                (Some(ts), Some((best, _))) if ts >= best => {}
                (Some(ts), _) => next = Some((ts, i)),
                (None, _) => {}
            }
        }
        let Some((_, i)) = next else { return };
        emit(kslacks[i].pop_head());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{CollectSink, CountingSink};
    use mswj_join::CommonKeyEquiJoin;
    use mswj_types::{FieldType, Schema, StreamSet, Value};
    use std::sync::Arc;

    fn query(m: usize, window: u64) -> JoinQuery {
        let streams =
            StreamSet::homogeneous(m, Schema::new(vec![("a1", FieldType::Int)]), window).unwrap();
        let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        JoinQuery::new("test", streams, cond).unwrap()
    }

    fn ev(stream: usize, seq: u64, ts: u64, arrival: u64, key: i64) -> ArrivalEvent {
        ArrivalEvent::new(
            Timestamp::from_millis(arrival),
            Tuple::new(
                StreamIndex(stream),
                seq,
                Timestamp::from_millis(ts),
                vec![Value::Int(key)],
            ),
        )
    }

    /// A simple 2-stream workload: tuples every 10 ms on both streams, all
    /// sharing key 1, with every 4th tuple of stream 0 delayed by `delay` ms.
    fn workload(n: u64, delay: u64) -> Vec<ArrivalEvent> {
        let mut events = Vec::new();
        for i in 1..=n {
            let t = i * 10;
            let ts0 = if i % 4 == 0 {
                t.saturating_sub(delay)
            } else {
                t
            };
            events.push(ev(0, i, ts0, t, 1));
            events.push(ev(1, i, t, t, 1));
        }
        events
    }

    /// The head merge of a K shrink and of end of stream against what it
    /// replaced: every component's release collected in stream order, then
    /// stable-sorted by timestamp.  Coarse timestamps make ties within and
    /// across streams common; each scenario starts from the same random
    /// backlog.
    #[test]
    fn merged_release_matches_stable_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut cross_stream_ties = 0;
        for seed in 0..32u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = rng.gen_range(2..=4usize);
            let k = rng.gen_range(20..400u64);
            let mut backlog: Vec<KSlack> = (0..m).map(|_| KSlack::new(k)).collect();
            for seq in 0..rng.gen_range(1..500u64) {
                let stream = rng.gen_range(0..m);
                let ts = Timestamp::from_millis(rng.gen_range(0..80u64) * 5);
                let tuple = Tuple::marker(StreamIndex(stream), seq, ts);
                backlog[stream].push_into(tuple, &mut Vec::new());
            }
            // (new K, end of stream) steps: a partial shrink then the
            // flush, a shrink to K = 0, the flush alone.
            let scenarios: [&[(Duration, bool)]; 3] = [
                &[(k / 2, false), (k / 2, true)],
                &[(0, false)],
                &[(k, true)],
            ];
            for steps in scenarios {
                let (mut merged, mut oracle) = (backlog.clone(), backlog.clone());
                for &(new_k, flush) in steps {
                    let mut expected = Vec::new();
                    for ks in &mut oracle {
                        ks.set_k(new_k);
                        if flush {
                            ks.flush_into(&mut expected);
                        } else {
                            ks.emit_ready_into(&mut expected);
                        }
                    }
                    expected.sort_by_key(|t| t.ts);
                    let mut released = Vec::new();
                    for ks in &mut merged {
                        ks.set_k(new_k);
                    }
                    merge_heads(&mut merged, flush, |t| released.push(t));
                    assert_eq!(released, expected, "seed {seed} steps {steps:?}");
                    cross_stream_ties += released
                        .windows(2)
                        .filter(|w| w[0].ts == w[1].ts && w[0].stream != w[1].stream)
                        .count();
                    for (a, b) in merged.iter().zip(&oracle) {
                        assert_eq!(a.stats(), b.stats(), "seed {seed} steps {steps:?}");
                        assert_eq!(a.buffered(), b.buffered());
                    }
                }
                assert!(merged.iter().all(|ks| ks.buffered() == 0), "seed {seed}");
            }
        }
        assert!(
            cross_stream_ties > 100,
            "{cross_stream_ties} cross-stream ties"
        );
    }

    #[test]
    fn ordered_input_produces_full_results_with_any_policy() {
        for policy in [
            BufferPolicy::NoKSlack,
            BufferPolicy::MaxKSlack,
            BufferPolicy::FixedK(100),
            BufferPolicy::QualityDriven(
                DisorderConfig::with_gamma(0.9).period(2_000).interval(500),
            ),
        ] {
            let mut p = Pipeline::builder()
                .query(query(2, 500))
                .policy(policy)
                .build()
                .unwrap();
            for e in workload(500, 0) {
                p.push(e);
            }
            let report = p.finish();
            // With no disorder every policy produces the same result count.
            assert!(report.total_produced > 0, "{}", report.policy);
            assert_eq!(report.operator_stats.out_of_order, 0, "{}", report.policy);
            assert_eq!(report.max_observed_delay, 0);
        }
    }

    #[test]
    fn max_k_slack_recovers_all_results_under_disorder() {
        // Ground truth: same workload without disorder.
        let mut truth = Pipeline::builder()
            .query(query(2, 500))
            .policy(BufferPolicy::NoKSlack)
            .build()
            .unwrap();
        for e in workload(800, 0) {
            truth.push(e);
        }
        let truth = truth.finish();

        let mut max_k = Pipeline::builder()
            .query(query(2, 500))
            .policy(BufferPolicy::MaxKSlack)
            .build()
            .unwrap();
        let mut no_k = Pipeline::builder()
            .query(query(2, 500))
            .policy(BufferPolicy::NoKSlack)
            .build()
            .unwrap();
        for e in workload(800, 200) {
            max_k.push(e.clone());
            no_k.push(e);
        }
        let max_k = max_k.finish();
        let no_k = no_k.finish();

        assert!(max_k.avg_k_ms > 0.0);
        assert_eq!(no_k.avg_k_ms, 0.0);
        // Max-K-slack (with flushing at the end) handles (almost) all of the
        // disorder; No-K-slack loses results.
        assert!(max_k.total_produced >= no_k.total_produced);
        assert!(no_k.total_produced < truth.total_produced);
        assert!(
            max_k.total_produced as f64 >= truth.total_produced as f64 * 0.97,
            "max-k {} vs truth {}",
            max_k.total_produced,
            truth.total_produced
        );
    }

    /// Runs `workload(n, 300)` through a two-stream session under `policy`.
    fn run_workload(policy: BufferPolicy, n: u64) -> RunReport {
        let mut p = Pipeline::builder()
            .query(query(2, 500))
            .policy(policy)
            .build()
            .unwrap();
        for e in workload(n, 300) {
            p.push(e);
        }
        p.finish()
    }

    fn quality_driven(gamma: f64) -> BufferPolicy {
        BufferPolicy::QualityDriven(
            DisorderConfig::with_gamma(gamma)
                .period(4_000)
                .interval(1_000)
                .granularity(50),
        )
    }

    #[test]
    fn quality_driven_sits_between_baselines() {
        let max_k = run_workload(BufferPolicy::MaxKSlack, 3_000);

        // Every fourth tuple of stream 0 is 300 ms late, so the in-order
        // tuples alone give a recall of ~0.8.  A Γ they meet needs a smaller
        // buffer than Max-K-slack's, and QD still meets it.
        let lenient = run_workload(quality_driven(0.75), 3_000);
        assert!(!lenient.checkpoints.is_empty());
        assert!(lenient.avg_k_ms < max_k.avg_k_ms);
        assert!(lenient.total_produced as f64 >= 0.75 * max_k.total_produced as f64);

        // No K below the 300 ms delay meets Γ = 0.9, and Γ' never falls
        // below Γ, so the walk runs to its bound at every checkpoint: the
        // first multiple of g above MaxDH (Max-K-slack holds MaxDH itself).
        let strict = run_workload(quality_driven(0.9), 3_000);
        assert!(!strict.checkpoints.is_empty());
        for c in &strict.checkpoints {
            assert!(c.gamma_prime >= 0.9, "{c:?}");
            assert!(c.k > c.max_delay && c.k <= c.max_delay + 50, "{c:?}");
        }
        assert!(strict.avg_adaptation_nanos > 0.0);
    }

    #[test]
    fn checkpoint_records_the_inputs_of_its_decision() {
        let gamma = 0.9;
        // Which of Eq. 7's three regimes each checkpoint fell in: the
        // solution floored at Γ, strictly inside (Γ, 1), or capped at 1.
        let mut regimes = [0usize; 3];
        for c in &run_workload(quality_driven(gamma), 3_000).checkpoints {
            assert!(c.n_true_next > 0, "{c:?}");
            let total = c.n_true_history as f64 + c.n_true_next as f64;
            let solved = (gamma * total - c.n_prod_history as f64) / c.n_true_next as f64;
            let expected = solved.max(gamma).min(1.0);
            assert_eq!(c.gamma_prime.to_bits(), expected.to_bits(), "{c:?}");
            regimes[if solved < gamma {
                0
            } else if solved < 1.0 {
                1
            } else {
                2
            }] += 1;
            // The walk stops at the first K whose estimate meets Γ', or
            // one step of g past MaxDH.
            assert!(
                c.estimated_recall >= c.gamma_prime || c.k > c.max_delay,
                "{c:?}"
            );
            assert!(c.k <= c.max_delay + 50, "{c:?}");
            // The estimate is min(structural × ratio, 1), so dividing the
            // ratio back out never reads above the structural recall.
            let structural = c.estimated_recall / c.selectivity_ratio;
            assert!(
                c.selectivity_ratio > 0.0 && (0.0..=1.0).contains(&structural),
                "{c:?}"
            );
        }
        assert!(regimes.iter().all(|&n| n > 0), "{regimes:?}");

        let c = run_workload(BufferPolicy::FixedK(100), 300).checkpoints[0];
        assert!(c.gamma_prime.is_nan() && c.selectivity_ratio.is_nan());
        assert_eq!(
            (
                c.n_prod_history,
                c.n_true_history,
                c.n_true_next,
                c.max_delay,
                c.steps
            ),
            (0, 0, 0, 0, 0)
        );
    }

    #[test]
    fn checkpoint_splits_n_true_next_into_produced_lost_and_dropped() {
        // Every timestamp is unique: stream 0 on multiples of 20, stream 1
        // ten past them, late stream-0 rows five past them.  So the results
        // an interval produced are the produced series' entries above the
        // previous checkpoint's `measure_ts`, up to its own.  One stream-0
        // row in eight is 305 ms late (kept while K is below that), one in
        // eight 905 ms (dropped: past the 500 ms window) and carries
        // `dropped_key`.
        let run = |dropped_key: Option<i64>| {
            let mut p = Pipeline::builder()
                .query(query(2, 500))
                .policy(quality_driven(0.9))
                .build()
                .unwrap();
            for i in 1..=3_000u64 {
                let t = 1_000 + i * 20;
                let (late, key) = match i % 8 {
                    0 => (305, (i % 3) as i64),
                    4 => (905, dropped_key.unwrap_or((i % 3) as i64)),
                    _ => (0, (i % 3) as i64),
                };
                p.push(ev(0, i, t - late, t, key));
                p.push(ev(1, i, t + 10, t + 10, (i % 3) as i64));
            }
            p.finish()
        };
        // A dropped row whose key no stream-1 row carries counts no loss,
        // however productive the interval's in-order tuples were: the
        // dropped part is a count, not the paper's maximum price.
        let barren = run(Some(99));
        assert!(barren.operator_stats.dropped > 20);
        assert!(barren.checkpoints.iter().all(|c| c.n_dropped_next == 0));
        assert!(barren.total_produced > 0, "the maximum price would be > 0");

        let report = run(None);
        assert!(report.checkpoints.len() > 30);
        let mut from = Timestamp::ZERO;
        let (mut lost, mut dropped) = (0u64, 0u64);
        for (n, c) in report.checkpoints.iter().enumerate() {
            let produced: u64 = report
                .produced
                .iter()
                .filter(|&&(ts, _)| (n == 0 || ts > from) && ts <= c.measure_ts)
                .map(|&(_, k)| k)
                .sum();
            assert_eq!(
                c.n_true_next,
                produced + c.n_lost_next + c.n_dropped_next,
                "checkpoint {n}: {c:?}"
            );
            from = c.measure_ts;
            lost += c.n_lost_next;
            dropped += c.n_dropped_next;
        }
        assert!(lost > 0 && dropped > 0, "{lost} / {dropped}");

        let c = run_workload(BufferPolicy::FixedK(100), 300).checkpoints[0];
        assert_eq!((c.n_lost_next, c.n_dropped_next), (0, 0), "a baseline");
    }

    #[test]
    fn sessions_are_translation_invariant() {
        // Epoch-millisecond timestamps must adapt exactly like the same
        // workload starting near zero: nothing in the K search may read an
        // absolute time — in particular a stream with no tuple yet has no
        // local time to measure `K_sync` against.
        const SHIFT: u64 = 1_700_000_000_000;
        let run = |shift: u64| {
            let config = DisorderConfig::with_gamma(0.9)
                .period(4_000)
                .interval(1_000)
                .granularity(50);
            let mut p = Pipeline::builder()
                .query(query(2, 500))
                .policy(BufferPolicy::QualityDriven(config))
                .build()
                .unwrap();
            for mut e in workload(6_000, 300) {
                e.arrival += shift;
                e.tuple.ts += shift;
                p.push(e);
            }
            let report = p.finish();
            let ks: Vec<Duration> = report.checkpoints.iter().map(|c| c.k).collect();
            (ks, report.total_produced)
        };
        let (ks, produced) = run(0);
        assert!(ks.iter().any(|&k| k > 0), "the workload must adapt: {ks:?}");
        assert_eq!(run(SHIFT), (ks, produced));
    }

    #[test]
    fn checkpoints_are_periodic_and_emitted_as_events() {
        let config = DisorderConfig::with_gamma(0.9).period(2_000).interval(500);
        let mut p = Pipeline::builder()
            .query(query(2, 500))
            .policy(BufferPolicy::QualityDriven(config))
            .build()
            .unwrap();
        let mut counts = CountingSink::default();
        for e in workload(1_000, 100) {
            p.push_into(e, &mut counts);
        }
        let report = p.finish();
        // 10 s of arrival axis with L = 0.5 s: roughly 19–20 checkpoints.
        assert!(
            report.checkpoints.len() >= 18 && report.checkpoints.len() <= 21,
            "got {}",
            report.checkpoints.len()
        );
        for w in report.checkpoints.windows(2) {
            assert_eq!(w[1].at - w[0].at, 500);
        }
        // Every checkpoint the report carries was also emitted as an event.
        assert_eq!(counts.checkpoints, report.checkpoints.len() as u64);
        // The watermark advanced and was reported.
        assert!(counts.last_progress.is_some());
        // A counting session never emits Result events.
        assert_eq!(counts.results, 0);
        assert!(report.total_produced > 0);
    }

    #[test]
    fn fixed_k_policy_keeps_constant_buffer() {
        let mut p = Pipeline::builder()
            .query(query(2, 500))
            .policy(BufferPolicy::FixedK(250))
            .build()
            .unwrap();
        for e in workload(500, 100) {
            p.push(e);
        }
        assert_eq!(p.current_k, 250);
        let report = p.finish();
        assert!((report.avg_k_ms - 250.0).abs() < 1e-9);
        assert!(report.checkpoints.iter().all(|c| c.k == 250));
    }

    #[test]
    fn materializing_session_emits_every_result() {
        let mut p = Pipeline::builder()
            .query(query(2, 200))
            .policy(BufferPolicy::NoKSlack)
            .materialize_results()
            .build()
            .unwrap();
        let mut collected = CollectSink::default();
        for e in workload(200, 0) {
            p.push_into(e, &mut collected);
        }
        let report = p.finish_into(&mut collected);
        assert_eq!(collected.results.len() as u64, report.total_produced);
        assert!(!collected.results.is_empty());
        // Results carry their deriving tuples in stream order.
        assert!(collected.results.iter().all(|r| r.arity() == 2));
    }

    #[test]
    fn k_changes_are_emitted_per_stream() {
        let mut p = Pipeline::builder()
            .query(query(2, 500))
            .policy(BufferPolicy::MaxKSlack)
            .build()
            .unwrap();
        let mut counts = CountingSink::default();
        for e in workload(200, 150) {
            p.push_into(e, &mut counts);
        }
        // Max-K-slack raises K at least once (one event per stream).
        assert!(counts.k_changes >= 2);
        assert_eq!(counts.k_changes % 2, 0);
        let report = p.finish();
        // Every 4th tuple is 150 ms late; relative to the stream's local
        // clock the observed delay is 140 ms.
        assert!(report.max_observed_delay >= 140);
    }

    #[test]
    fn report_unit_conversions() {
        let mut p = Pipeline::builder()
            .query(query(2, 200))
            .policy(BufferPolicy::FixedK(2_000))
            .build()
            .unwrap();
        for e in workload(100, 0) {
            p.push(e);
        }
        let report = p.finish();
        assert!((report.avg_k_secs() - 2.0).abs() < 1e-9);
        assert_eq!(report.avg_adaptation_millis(), 0.0);
        assert_eq!(report.policy, "fixed-k");
        assert_eq!(report.duration_ms, 990);
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let bad = DisorderConfig::with_gamma(2.0);
        assert!(Pipeline::builder()
            .query(query(2, 200))
            .policy(BufferPolicy::QualityDriven(bad))
            .build()
            .is_err());
    }

    #[test]
    fn batched_and_single_pushes_are_equivalent() {
        let config = DisorderConfig::with_gamma(0.9).period(2_000).interval(500);
        let events = workload(1_200, 250);

        let mut single = Pipeline::builder()
            .query(query(2, 400))
            .policy(BufferPolicy::QualityDriven(config))
            .materialize_results()
            .build()
            .unwrap();
        let mut single_sink = CollectSink::default();
        for e in events.clone() {
            single.push_into(e, &mut single_sink);
        }
        let single_report = single.finish_into(&mut single_sink);

        let mut batched = Pipeline::builder()
            .query(query(2, 400))
            .policy(BufferPolicy::QualityDriven(config))
            .materialize_results()
            .build()
            .unwrap();
        let mut batched_sink = CollectSink::default();
        for chunk in events.chunks(97) {
            batched.push_batch_into(chunk.iter().cloned(), &mut batched_sink);
        }
        let batched_report = batched.finish_into(&mut batched_sink);

        assert_eq!(single_report.total_produced, batched_report.total_produced);
        // Checkpoints agree on everything but the wall-clock adaptation
        // timing, which is inherently nondeterministic.
        let timeless = |cs: &[Checkpoint]| {
            cs.iter()
                .map(|c| Checkpoint {
                    adaptation_nanos: 0,
                    ..*c
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            timeless(&single_report.checkpoints),
            timeless(&batched_report.checkpoints)
        );
        assert_eq!(single_report.produced, batched_report.produced);
        let canon = |sink: &CollectSink| {
            let mut v: Vec<String> = sink.results.iter().map(|r| r.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(canon(&single_sink), canon(&batched_sink));
    }

    #[test]
    fn observed_recall_gauge_counts_results_a_shrink_releases() {
        // Per checkpoint: its `measure_ts`, and the timestamps of every
        // result delivered before its event — those a shrink released
        // included, as the result-size monitor records them.
        #[derive(Default)]
        struct Log {
            results: Vec<Timestamp>,
            checkpoints: Vec<(Timestamp, Vec<Timestamp>)>,
        }
        impl Sink for Log {
            fn event(&mut self, ev: OutputEvent<'_>) {
                match ev {
                    OutputEvent::Result(r) => self.results.push(r.ts),
                    OutputEvent::Checkpoint(c) => {
                        self.checkpoints.push((c.measure_ts, self.results.clone()))
                    }
                    _ => {}
                }
            }
        }

        let config = DisorderConfig::with_gamma(0.9).period(2_000).interval(500);
        // The Result-Size Monitor's window `P − L`.
        let monitored = config.period_p - config.interval_l;
        let telemetry = Telemetry::new();
        let mut p = Pipeline::builder()
            .query(query(2, 500))
            .policy(BufferPolicy::QualityDriven(config))
            .materialize_results()
            .telemetry(telemetry.clone())
            .build()
            .unwrap();
        // Heavy disorder first, then none, so K grows and then shrinks.
        let mut events = workload(1_500, 300);
        events.extend(workload(3_000, 0).into_iter().skip(3_000));
        let mut sink = Log::default();
        let (mut checked, mut released) = (0, 0);
        for e in events {
            let seen = sink.checkpoints.len();
            p.push_into(e, &mut sink);
            if sink.checkpoints.len() == seen {
                continue;
            }
            assert_eq!(sink.checkpoints.len(), seen + 1);
            // The gauge and the true-size window stay as this checkpoint
            // left them until the next one.
            let (measure_ts, results) = sink.checkpoints.last().unwrap();
            let cutoff = measure_ts.saturating_sub_duration(monitored);
            let produced = results.iter().filter(|&&ts| ts > cutoff).count() as f64;
            let truth = p.monitor.true_within(*measure_ts) as f64;
            let gauge = telemetry.session().recall_observed.get();
            if truth == 0.0 {
                assert!(gauge.is_nan());
            } else {
                assert_eq!(gauge, (produced / truth).min(1.0), "at {measure_ts:?}");
                checked += 1;
            }
            released += results.iter().any(|ts| ts > measure_ts) as usize;
        }
        let report = p.finish();
        assert!(checked > 10, "{checked} gauges checked");
        assert!(released > 0, "no checkpoint followed a shrink's release");
        assert!(report.checkpoints.windows(2).any(|w| w[1].k < w[0].k));
    }

    #[test]
    fn produced_series_is_non_decreasing_in_ts_on_every_backend() {
        let run = |backend: ExecutionBackend| {
            let mut p = Pipeline::builder()
                .query(query(2, 500))
                .policy(BufferPolicy::FixedK(100))
                .parallelism(backend)
                .build()
                .unwrap();
            for chunk in workload(600, 180).chunks(64) {
                p.push_batch_into(chunk.iter().cloned(), &mut NullSink);
            }
            p.finish().produced
        };
        let sequential = run(ExecutionBackend::Sequential);
        assert!(sequential.len() > 100);
        assert!(sequential.is_sorted_by_key(|&(ts, _)| ts));
        for backend in [
            ExecutionBackend::Pool { workers: 2 },
            ExecutionBackend::remote_inproc(2),
        ] {
            let produced = run(backend.clone());
            assert!(produced.is_sorted_by_key(|&(ts, _)| ts), "{backend:?}");
            assert_eq!(produced, sequential, "{backend:?}");
        }
    }

    #[test]
    fn parallel_backend_is_wired_through_the_pipeline() {
        let mut p = Pipeline::builder()
            .query(query(2, 500))
            .policy(BufferPolicy::NoKSlack)
            .parallelism(ExecutionBackend::Pool { workers: 4 })
            .build()
            .unwrap();
        assert_eq!(p.engine().shard_count(), 4);
        let mut reference = Pipeline::builder()
            .query(query(2, 500))
            .policy(BufferPolicy::NoKSlack)
            .build()
            .unwrap();
        let events: Vec<ArrivalEvent> = (1..=600u64)
            .map(|i| ev((i % 2) as usize, i, i * 5, i * 5, (i % 8) as i64))
            .collect();
        p.push_batch_into(events.iter().cloned(), &mut NullSink);
        for e in events {
            reference.push(e);
        }
        let parallel = p.finish();
        let sequential = reference.finish();
        assert_eq!(parallel.total_produced, sequential.total_produced);
        assert_eq!(parallel.produced, sequential.produced);
        assert_eq!(parallel.shard_stats.len(), 4);
        assert_eq!(sequential.shard_stats.len(), 1);
        let sharded_results: u64 = parallel
            .shard_stats
            .iter()
            .map(|s| s.operator.results)
            .sum();
        assert_eq!(sharded_results, parallel.total_produced);
    }

    #[test]
    fn pool_backend_matches_sequential_through_the_pipeline() {
        let mut p = Pipeline::builder()
            .query(query(2, 500))
            .policy(BufferPolicy::MaxKSlack)
            .parallelism(ExecutionBackend::Pool { workers: 4 })
            .build()
            .unwrap();
        assert_eq!(p.engine().shard_count(), 4);
        let mut reference = Pipeline::builder()
            .query(query(2, 500))
            .policy(BufferPolicy::MaxKSlack)
            .build()
            .unwrap();
        let events = workload(600, 180);
        // Mixed batch sizes: some below the inline threshold, some above
        // (pipelined epochs with deferred collection).
        for chunk in events.chunks(130) {
            p.push_batch_into(chunk.iter().cloned(), &mut NullSink);
        }
        for e in events {
            reference.push(e);
        }
        let pooled = p.finish();
        let sequential = reference.finish();
        assert_eq!(pooled.total_produced, sequential.total_produced);
        assert_eq!(pooled.produced, sequential.produced);
        assert_eq!(pooled.checkpoints.len(), sequential.checkpoints.len());
        let pool_results: u64 = pooled.shard_stats.iter().map(|s| s.operator.results).sum();
        assert_eq!(pool_results, pooled.total_produced);
        // The pool actually executed epochs for the large chunks.
        let executed: u64 = pooled
            .shard_stats
            .iter()
            .map(|s| s.runtime.epochs_executed)
            .sum();
        assert!(executed > 0, "large chunks must run through the pool");
    }
}
