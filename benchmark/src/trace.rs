//! The traced run (`--trace 1`): where a pass's time goes, layer by layer,
//! recorded entirely from this package.
//!
//! The program has no stage timers yet, so the layers are priced on a
//! *mirror*: the public layer APIs driven in pipeline order on the same
//! input, with the K trajectory the real pipeline chose replayed into it.
//!
//! * (a) [`record`] replays the real `Pipeline` with a recording sink and
//!   captures every checkpoint with the event it fired before and the K it
//!   chose; the `Checkpoint`s come back in its `RunReport`.
//! * (b) [`mirror_pass`] drives `StatisticsManager::observe` →
//!   `KSlack::push_into` (`set_k` at the recorded change points) →
//!   `Synchronizer::push_into` → `JoinEngine::{stage, flush, sync}` (one
//!   flush per event, one barrier per checkpoint and K change, as the
//!   pipeline does it) → `ProductivityProfiler` / `ResultSizeMonitor`
//!   bookkeeping, one layer at a time over chunks of at most
//!   [`MIRROR_CHUNK`] events, one span per layer per chunk; chunks split at
//!   checkpoints.
//! * (c) [`replay_operator`], [`replay_windows`], [`replay_routing`] and
//!   [`replay_wire`] take the synchronised tuple sequence through
//!   `MswjOperator::push_with`,
//!   `Window::{insert, expire_before, count_key/matching/scan_candidates}`,
//!   `Partitioner::route` and `Frame::{encode, decode}` standalone.
//! * (d) one pass each through `Pool { workers: 1 }` and `remote_inproc(1)`
//!   in [`BATCH`]-event `push_batch_into` chunks, for their counts only.
//!
//! The mirror is a correct replay, not an approximation: its result count,
//! per-timestamp result series and operator counters must equal the
//! pipeline's (`trace.mirror_match`).

use crate::json::{self, Json};
use crate::run::{self, Fingerprint, RunArgs, Setup, TimedPasses};
use crate::stats;
use crate::workloads::{Input, Workload};
use mswj_core::{
    CountingSink, EngineEvent, ExecutionBackend, JoinEngine, KSlack, OutputEvent,
    ProductivityProfiler, ResultSizeMonitor, RunReport, Sink, StatisticsManager, Synchronizer,
    Telemetry,
};
use mswj_join::{
    JoinCondition, JoinQuery, MswjOperator, OperatorStats, Partitioner, ProbeOutcome, ProbePlan,
    ProbeStrategy, Route, Window,
};
use mswj_types::{ArrivalEvent, StreamIndex, Timestamp, Tuple, Value};
use mswj_wire::{Frame, WireItem, WireTask};
use std::collections::VecDeque;
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// A run whose process CPU time over wall time across the timed passes is
/// below this was preempted by the box and is marked `contended`.
pub const CONTENDED_BELOW: f64 = 0.9;

/// Events per mirror chunk (one span per layer per chunk).
const MIRROR_CHUNK: usize = 256;
/// Tuples per span of the standalone operator and window replays.
const REPLAY_CHUNK: usize = 64;
/// Events per `push_batch_into` on the cross-thread backends, tuples per
/// encoded `Task` frame.
const BATCH: usize = 512;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Statistics,
    KSlack,
    Synchronizer,
    Engine,
    Profiler,
    Operator,
    WindowProbe,
    WindowInsert,
    WindowExpire,
    Route,
    Encode,
    Decode,
}

impl Layer {
    const MIRROR: [Layer; 5] = [
        Layer::Statistics,
        Layer::KSlack,
        Layer::Synchronizer,
        Layer::Engine,
        Layer::Profiler,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Statistics => "core.statistics",
            Layer::KSlack => "core.kslack",
            Layer::Synchronizer => "core.synchronizer",
            Layer::Engine => "core.engine",
            Layer::Profiler => "core.profiler",
            Layer::Operator => "join.operator",
            Layer::WindowProbe => "join.window.probe",
            Layer::WindowInsert => "join.window.insert",
            Layer::WindowExpire => "join.window.expire",
            Layer::Route => "join.partition",
            Layer::Encode => "wire.encode",
            Layer::Decode => "wire.decode",
        }
    }
}

/// One timed call into a layer.  `parent` is the chunk that caused it; the
/// spans of one pass share `pass`.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    pass: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
    /// Items the call processed (events, tuples or probes).
    items: u32,
}

/// In-memory span store; written out (optionally) when the run ends.
struct Trace {
    origin: Instant,
    pass: u32,
    spans: Vec<Span>,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            pass: 0,
            spans: Vec::new(),
        }
    }

    /// Sum of a layer's span durations within one pass.
    fn layer_ns(&self, pass: u32, layer: Layer) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.pass == pass && s.layer == layer)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"layer\":\"{}\",\"pass\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                s.layer.name(),
                s.pass,
                s.parent,
                s.start_ns,
                s.end_ns,
                s.items
            )?;
        }
        out.flush()
    }
}

/// Times `f` as one span when tracing is on; just runs it otherwise.
#[inline(always)]
fn span<R>(
    trace: &mut Option<&mut Trace>,
    layer: Layer,
    parent: u32,
    items: usize,
    f: impl FnOnce() -> R,
) -> R {
    match trace {
        None => f(),
        Some(t) => {
            let start = t.origin.elapsed();
            let r = f();
            let end = t.origin.elapsed();
            t.spans.push(Span {
                layer,
                pass: t.pass,
                parent,
                start_ns: start.as_nanos() as u64,
                end_ns: end.as_nanos() as u64,
                items: items as u32,
            });
            r
        }
    }
}

// ---------------------------------------------------------------------------
// (a) The recording pass
// ---------------------------------------------------------------------------

/// What the real pipeline decided, replayed into the mirror.
struct Recording {
    /// One entry per checkpoint, in order: the index of the event it fired
    /// before, and the K it changed to (`None` when K stayed).
    checkpoints: Vec<(usize, Option<u64>)>,
    /// Carries the `Checkpoint`s, the result series and the counters.
    report: RunReport,
}

impl Recording {
    fn k_changes(&self) -> usize {
        self.checkpoints.iter().filter(|c| c.1.is_some()).count()
    }
}

#[derive(Default)]
struct RecordingSink {
    at_event: usize,
    changed_to: Option<u64>,
    checkpoints: Vec<(usize, Option<u64>)>,
    counts: CountingSink,
}

impl Sink for RecordingSink {
    fn event(&mut self, ev: OutputEvent<'_>) {
        match ev {
            // Same-K policy: one event per stream, stream 0 speaks for all.
            OutputEvent::KChanged {
                stream: StreamIndex(0),
                new,
                ..
            } => self.changed_to = Some(new),
            // A checkpoint's K change is announced just before it.
            OutputEvent::Checkpoint(_) => self
                .checkpoints
                .push((self.at_event, self.changed_to.take())),
            _ => {}
        }
        self.counts.event(ev);
    }
}

fn record(workload: Workload, input: &Input) -> (Recording, Fingerprint) {
    let events: Vec<ArrivalEvent> = input.log.events().iter().map(run::owned).collect();
    let mut pipeline = workload.session(&input.query, workload.backend(), None);
    let mut sink = RecordingSink::default();
    for (i, event) in events.into_iter().enumerate() {
        sink.at_event = i;
        pipeline.push_into(event, &mut sink);
    }
    let report = pipeline.finish_into(&mut sink);
    let fingerprint = Fingerprint::of(&report, &sink.counts);
    (
        Recording {
            checkpoints: sink.checkpoints,
            report,
        },
        fingerprint,
    )
}

// ---------------------------------------------------------------------------
// (b) The mirror
// ---------------------------------------------------------------------------

/// What one mirror pass observed.
struct MirrorOutcome {
    wall_s: f64,
    results: u64,
    /// The mirror's `(timestamp, results)` series equals the pipeline's.
    produced_matches: bool,
    operator: OperatorStats,
    kslack_released: u64,
    kslack_residual_ooo: u64,
    /// Largest number of tuples simultaneously buffered across all K-slack
    /// components, sampled at chunk boundaries.
    kslack_buffered_max: usize,
    sync_buffered_max: usize,
}

/// The synchronised sequence and its flush structure, captured by a mirror
/// pass for the standalone replays.
#[derive(Default)]
struct Captured {
    synced: Vec<Tuple>,
    /// Synchronised tuples per join-stage flush that carried any (one per
    /// event, one per K change, one at end of stream).
    batches: Vec<u32>,
}

/// The mirror's stages from the Synchronizer down, with the buffers that
/// carry tuples between them.  `bounds` mark where one flush's tuples end
/// in `released` / `synced`: the join stage is flushed once per event, as
/// `Pipeline::push_into` does it, however the layers are chunked.
struct Downstream {
    synchronizer: Synchronizer,
    engine: JoinEngine,
    profiler: ProductivityProfiler,
    monitor: ResultSizeMonitor,
    released: Vec<Tuple>,
    released_bounds: Vec<usize>,
    synced: Vec<Tuple>,
    synced_bounds: Vec<usize>,
    /// `(delay, ts)` of every staged tuple still awaiting its outcome.
    staged: VecDeque<(u64, Timestamp)>,
    outcomes: Vec<ProbeOutcome>,
    produced: Vec<(Timestamp, u64)>,
    results: u64,
    emitted: u64,
}

impl Downstream {
    /// Synchronizer → engine → profiler for whatever `released` holds.
    /// With `barrier`, the engine is synced even when nothing was staged.
    fn run(
        &mut self,
        trace: &mut Option<&mut Trace>,
        capture: &mut Option<&mut Captured>,
        parent: u32,
        barrier: bool,
    ) {
        self.synchronize(trace, parent, false);
        self.join(trace, capture, parent, barrier);
        self.profile(trace, parent);
    }

    /// `released` → `synced`, flush by flush.  With `end_of_stream`, the
    /// Synchronizer's own backlog joins the (single) last flush.
    fn synchronize(&mut self, trace: &mut Option<&mut Trace>, parent: u32, end_of_stream: bool) {
        let Downstream {
            synchronizer,
            released,
            released_bounds,
            synced,
            synced_bounds,
            ..
        } = self;
        span(trace, Layer::Synchronizer, parent, released.len(), || {
            let mut tuples = released.drain(..);
            let mut start = 0;
            for &end in released_bounds.iter() {
                for t in tuples.by_ref().take(end - start) {
                    synchronizer.push_into(t, synced);
                }
                synced_bounds.push(synced.len());
                start = end;
            }
            if end_of_stream {
                synchronizer.flush_into(synced);
                *synced_bounds.last_mut().expect("the final flush") = synced.len();
            }
        });
        released_bounds.clear();
    }

    /// `synced` → engine: stage each flush's tuples, then flush (or sync).
    fn join(
        &mut self,
        trace: &mut Option<&mut Trace>,
        capture: &mut Option<&mut Captured>,
        parent: u32,
        barrier: bool,
    ) {
        let Downstream {
            engine,
            synced,
            synced_bounds,
            staged,
            outcomes,
            emitted,
            ..
        } = self;
        if let Some(c) = capture.as_deref_mut() {
            let mut start = 0;
            for &end in synced_bounds.iter() {
                if end > start {
                    c.batches.push((end - start) as u32);
                }
                start = end;
            }
            c.synced.extend(synced.iter().cloned());
        }
        span(trace, Layer::Engine, parent, synced.len(), || {
            let mut handler = |ev: EngineEvent<'_>| match ev {
                EngineEvent::Result(r) => {
                    *emitted += 1;
                    black_box(r);
                }
                EngineEvent::Done(outcome) => outcomes.push(outcome),
            };
            let mut tuples = synced.drain(..);
            let mut start = 0;
            for &end in synced_bounds.iter() {
                for t in tuples.by_ref().take(end - start) {
                    staged.push_back((t.delay_or_zero(), t.ts));
                    engine.stage(t);
                }
                start = end;
                if barrier {
                    engine.sync(&mut handler);
                } else if engine.has_pending() || engine.has_outstanding() {
                    engine.flush(&mut handler);
                }
            }
        });
        synced_bounds.clear();
    }

    /// Outcomes → productivity profiler, result-size monitor and the
    /// result series, as `Pipeline::drive_engine`'s handler does it.
    fn profile(&mut self, trace: &mut Option<&mut Trace>, parent: u32) {
        let Downstream {
            profiler,
            monitor,
            staged,
            outcomes,
            produced,
            results,
            ..
        } = self;
        span(trace, Layer::Profiler, parent, outcomes.len(), || {
            for outcome in outcomes.drain(..) {
                let (delay, ts) = staged.pop_front().expect("one outcome per staged tuple");
                if outcome.in_order {
                    profiler.record_processed(delay, outcome.n_cross, outcome.n_join);
                    if outcome.n_join > 0 {
                        monitor.record_produced(ts, outcome.n_join);
                        produced.push((ts, outcome.n_join));
                        *results += outcome.n_join;
                    }
                } else {
                    profiler.record_unprocessed(delay);
                }
            }
        });
    }
}

/// Drives the public layer APIs in pipeline order over chunks of at most
/// [`MIRROR_CHUNK`] events.  `trace` records one span per layer per chunk;
/// `capture` keeps the synchronised sequence and its flush structure.
fn mirror_pass(
    workload: Workload,
    input: &Input,
    rec: &Recording,
    mut trace: Option<&mut Trace>,
    mut capture: Option<&mut Captured>,
) -> MirrorOutcome {
    let events: Vec<ArrivalEvent> = input.log.events().iter().map(run::owned).collect();
    let m = input.query.arity();
    let config = workload.config();
    let mut statistics = StatisticsManager::new(m, config.granularity_g);
    let mut kslacks: Vec<KSlack> = (0..m).map(|_| KSlack::new(0)).collect();
    let mut down = Downstream {
        synchronizer: Synchronizer::new(m),
        engine: JoinEngine::new(
            input.query.clone(),
            ProbeStrategy::Auto,
            workload.materialize(),
            workload.backend(),
        ),
        profiler: ProductivityProfiler::new(config.granularity_g),
        monitor: ResultSizeMonitor::new(config.period_p.saturating_sub(config.interval_l).max(1)),
        released: Vec::new(),
        released_bounds: Vec::new(),
        synced: Vec::new(),
        synced_bounds: Vec::new(),
        staged: VecDeque::new(),
        outcomes: Vec::new(),
        produced: Vec::new(),
        results: 0,
        emitted: 0,
    };
    let mut kslack_buffered_max = 0usize;
    let mut parent = 0u32;

    let wall = Instant::now();
    let mut checkpoints = rec.checkpoints.iter().peekable();
    let mut events = events.into_iter();
    let total = events.len();
    let mut at = 0usize;
    while at < total {
        // Checkpoints the pipeline took before ingesting event `at`: a
        // barrier, the profiler's interval roll and the monitor's pruning,
        // then — when K changed — the shrink's release and another barrier.
        while let Some(&&(_, changed_to)) = checkpoints.peek().filter(|c| c.0 == at) {
            checkpoints.next();
            parent += 1;
            down.released_bounds.push(0);
            down.run(&mut trace, &mut capture, parent, true);
            span(&mut trace, Layer::Profiler, parent, 0, || {
                let now = down.engine.on_t();
                down.profiler.roll_interval();
                down.monitor
                    .record_true_estimate(now, down.profiler.n_true_estimate());
                black_box(down.monitor.produced_within(now));
                black_box(down.monitor.true_within(now));
            });
            if let Some(k) = changed_to {
                span(&mut trace, Layer::KSlack, parent, 0, || {
                    for ks in &mut kslacks {
                        ks.set_k(k);
                        ks.emit_ready_into(&mut down.released);
                    }
                    down.released.sort_by_key(|t| t.ts);
                });
            }
            down.released_bounds.push(down.released.len());
            down.run(&mut trace, &mut capture, parent, true);
        }
        let end = (at + MIRROR_CHUNK)
            .min(total)
            .min(checkpoints.peek().map_or(total, |c| c.0));
        let n = end - at;
        parent += 1;
        let batch: Vec<ArrivalEvent> = events.by_ref().take(n).collect();
        span(&mut trace, Layer::Statistics, parent, n, || {
            for e in &batch {
                black_box(statistics.observe(e.stream(), e.ts()));
            }
        });
        span(&mut trace, Layer::KSlack, parent, n, || {
            for e in batch {
                kslacks[e.stream().as_usize()].push_into(e.tuple, &mut down.released);
                down.released_bounds.push(down.released.len());
            }
        });
        down.run(&mut trace, &mut capture, parent, false);
        kslack_buffered_max =
            kslack_buffered_max.max(kslacks.iter().map(KSlack::buffered).sum::<usize>());
        at = end;
    }
    // End of stream, as `Pipeline::finish_into` does it: one last flush
    // carrying the K-slack and Synchronizer backlogs.
    parent += 1;
    span(&mut trace, Layer::KSlack, parent, 0, || {
        for ks in &mut kslacks {
            ks.flush_into(&mut down.released);
        }
        down.released.sort_by_key(|t| t.ts);
    });
    down.released_bounds.push(down.released.len());
    down.synchronize(&mut trace, parent, true);
    down.join(&mut trace, &mut capture, parent, true);
    down.profile(&mut trace, parent);

    if workload.materialize() {
        assert_eq!(
            down.emitted, down.results,
            "an enumerating engine emits every result"
        );
    }
    MirrorOutcome {
        wall_s: wall.elapsed().as_secs_f64(),
        results: down.results,
        produced_matches: down.produced == rec.report.produced,
        operator: down.engine.stats(),
        kslack_released: kslacks.iter().map(|k| k.stats().emitted).sum(),
        kslack_residual_ooo: kslacks
            .iter()
            .map(|k| k.stats().residual_out_of_order)
            .sum(),
        kslack_buffered_max,
        sync_buffered_max: down.synchronizer.stats().peak_buffered,
    }
}

// ---------------------------------------------------------------------------
// (c) Standalone layer replays over the synchronised sequence
// ---------------------------------------------------------------------------

/// Counts and high-water marks of the window replay.
#[derive(Default)]
struct WindowReplay {
    probes: u64,
    inserted: u64,
    expired: u64,
    live_bytes_max: u64,
    segments_max: u64,
}

/// The probe of one in-order tuple of stream `i` against the other
/// windows, through the public `Window` read API and the plan's gates:
/// `count_key` (or a `matching` walk when materialising) where the index is
/// sound, a `scan_candidates` walk plus the condition otherwise.
fn probe_windows(
    windows: &[Window],
    plan: &ProbePlan,
    condition: &dyn JoinCondition,
    materialize: bool,
    i: usize,
    tuple: &Tuple,
) -> u64 {
    let int_key = |t: &Tuple, col: usize| t.value(col).and_then(Value::as_int);
    // Exhaustive two-way scan; every fallback in these workloads is 2-way.
    let scan = |hint: Option<(usize, &Value)>| -> u64 {
        assert_eq!(
            windows.len(),
            2,
            "fallback scans are replayed for 2-way joins only"
        );
        let j = 1 - i;
        let matches = |c: &&Tuple| {
            let pair: [&Tuple; 2] = if j == 0 { [c, tuple] } else { [tuple, c] };
            condition.matches(&pair)
        };
        match hint {
            Some((col, key)) => windows[j].scan_candidates(col, key).filter(matches).count() as u64,
            None => windows[j].iter().filter(matches).count() as u64,
        }
    };
    match plan {
        ProbePlan::NestedLoop => scan(None),
        ProbePlan::CommonKey { columns } => {
            let sound = (0..windows.len()).all(|j| j == i || windows[j].index_usable(columns[j]));
            match (int_key(tuple, columns[i]), sound) {
                (Some(key), true) => {
                    let mut product = 1u64;
                    for (j, w) in windows.iter().enumerate() {
                        if j == i {
                            continue;
                        }
                        let c = if materialize {
                            w.matching(columns[j], key).map(black_box).count() as u64
                        } else {
                            w.count_key(columns[j], key)
                        };
                        product = product.saturating_mul(c);
                    }
                    product
                }
                _ => match tuple.value(columns[i]) {
                    Some(key) if !key.is_null() => scan(Some((columns[1 - i], key))),
                    _ => 0,
                },
            }
        }
        ProbePlan::Star {
            anchor,
            anchor_cols,
            other_cols,
        } => {
            // Clean integer keys throughout Dx4syn: always index-sound.
            if i == *anchor {
                let mut product = 1u64;
                for j in (0..windows.len()).filter(|j| j != anchor) {
                    let key = int_key(tuple, anchor_cols[j]).expect("Dx4syn keys are integers");
                    product = product.saturating_mul(windows[j].count_key(other_cols[j], key));
                }
                product
            } else {
                let key = int_key(tuple, other_cols[i]).expect("Dx4syn keys are integers");
                let mut total = 0u64;
                for a in windows[*anchor].matching(anchor_cols[i], key) {
                    let mut product = 1u64;
                    for k in (0..windows.len()).filter(|k| k != anchor && *k != i) {
                        let ak = int_key(a, anchor_cols[k]).expect("Dx4syn keys are integers");
                        product = product.saturating_mul(windows[k].count_key(other_cols[k], ak));
                    }
                    total = total.saturating_add(product);
                }
                total
            }
        }
    }
}

/// Replays the synchronised sequence through one bare `MswjOperator` — the
/// `Sequential` join stage without the engine around it — in
/// [`REPLAY_CHUNK`]-tuple spans.  Returns its counters.
fn replay_operator(
    workload: Workload,
    query: &JoinQuery,
    synced: &[Tuple],
    trace: &mut Trace,
) -> OperatorStats {
    let mut operator =
        MswjOperator::with_probe(query.clone(), ProbeStrategy::Auto, workload.materialize());
    let mut trace = Some(trace);
    for (c, chunk) in synced.chunks(REPLAY_CHUNK).enumerate() {
        let tuples: Vec<Tuple> = chunk.to_vec();
        span(&mut trace, Layer::Operator, c as u32, chunk.len(), || {
            for t in tuples {
                black_box(operator.push_with(t, &mut |r| {
                    black_box(&r);
                }));
            }
        });
    }
    operator.stats()
}

/// Replays the synchronised sequence through standalone windows in
/// [`REPLAY_CHUNK`]-tuple chunks: probe the chunk's in-order tuples, insert
/// the chunk, expire to the chunk's last `onT` — one span per phase.
/// Batching the three phases keeps clock reads off the ~100 ns operations
/// they price; it shifts each tuple's view of the other windows by at most
/// one chunk, so this is a cost replay (the semantic check is the mirror).
fn replay_windows(
    workload: Workload,
    query: &JoinQuery,
    synced: &[Tuple],
    trace: &mut Trace,
) -> WindowReplay {
    let condition = query.condition().clone();
    let plan = ProbePlan::new(ProbeStrategy::Auto, condition.equi_structure().as_ref());
    let m = query.arity();
    let mut windows: Vec<Window> = (0..m)
        .map(|i| {
            Window::with_indexed_columns(query.window(StreamIndex(i)), &plan.indexed_columns(i))
        })
        .collect();
    let mut out = WindowReplay::default();
    let mut on_t = Timestamp::ZERO;
    let mut trace = Some(trace);
    for (c, chunk) in synced.chunks(REPLAY_CHUNK).enumerate() {
        let parent = c as u32;
        // Global ordering decisions, as the operator takes them.
        let mut in_order = [false; REPLAY_CHUNK];
        for (slot, t) in in_order.iter_mut().zip(chunk) {
            *slot = t.ts >= on_t;
            if *slot {
                on_t = t.ts;
            }
        }
        let probing = in_order.iter().filter(|&&p| p).count();
        out.probes += probing as u64;
        span(&mut trace, Layer::WindowProbe, parent, probing, || {
            for (t, _) in chunk.iter().zip(in_order).filter(|&(_, p)| p) {
                black_box(probe_windows(
                    &windows,
                    &plan,
                    condition.as_ref(),
                    workload.materialize(),
                    t.stream.as_usize(),
                    t,
                ));
            }
        });
        let inserts: Vec<Tuple> = chunk
            .iter()
            .zip(in_order)
            .filter(|&(t, p)| {
                // Late tuples are kept only while still in scope.
                p || t.ts >= on_t.saturating_sub_duration(query.window(t.stream))
            })
            .map(|(t, _)| t.clone())
            .collect();
        out.inserted += inserts.len() as u64;
        span(
            &mut trace,
            Layer::WindowInsert,
            parent,
            inserts.len(),
            || {
                for t in inserts {
                    windows[t.stream.as_usize()].insert(t);
                }
            },
        );
        let before = out.expired;
        let mut expired = 0usize;
        span(&mut trace, Layer::WindowExpire, parent, 0, || {
            for (j, w) in windows.iter_mut().enumerate() {
                expired +=
                    w.expire_before(on_t.saturating_sub_duration(query.window(StreamIndex(j))));
            }
        });
        out.expired = before + expired as u64;
        let (bytes, segments) = windows.iter().map(Window::stats).fold((0, 0), |acc, s| {
            (acc.0 + s.live_bytes_est, acc.1 + s.segments as u64)
        });
        out.live_bytes_max = out.live_bytes_max.max(bytes);
        out.segments_max = out.segments_max.max(segments);
    }
    out
}

/// Routing counts of the batch structure.
#[derive(Default)]
struct RouteReplay {
    tuples: u64,
    items: u64,
    /// Items of batches under the engine's inline threshold.
    inline_items: u64,
    /// Batches at or over it (each becomes a pool epoch).
    deferred_batches: u64,
}

/// `Partitioner::route` over the synchronised sequence, batch by batch as
/// the pipeline flushed it; spans cover [`MIRROR_CHUNK`] tuples.
fn replay_routing(
    workload: Workload,
    query: &JoinQuery,
    captured: &Captured,
    trace: &mut Trace,
) -> RouteReplay {
    let plan = ProbePlan::new(
        ProbeStrategy::Auto,
        query.condition().equi_structure().as_ref(),
    );
    let partitioner = Partitioner::new(&plan, workload.backend().requested_shards());
    let shards = partitioner.shard_count() as u64;
    let mut fan_out: Vec<u8> = Vec::with_capacity(captured.synced.len());
    let mut trace = Some(trace);
    for (c, chunk) in captured.synced.chunks(MIRROR_CHUNK).enumerate() {
        span(&mut trace, Layer::Route, c as u32, chunk.len(), || {
            for t in chunk {
                fan_out.push(match partitioner.route(t) {
                    Route::One(_) => 1,
                    Route::All | Route::Split => shards as u8,
                });
            }
        });
    }
    let mut out = RouteReplay {
        tuples: captured.synced.len() as u64,
        ..RouteReplay::default()
    };
    let mut next = 0usize;
    for &len in &captured.batches {
        let items: u64 = fan_out[next..next + len as usize]
            .iter()
            .map(|&f| u64::from(f))
            .sum();
        next += len as usize;
        out.items += items;
        if (items as usize) < mswj_core::JoinEngine::SMALL_BATCH_THRESHOLD {
            out.inline_items += items;
        } else {
            out.deferred_batches += 1;
        }
    }
    out
}

/// `Frame::encode` / `Frame::decode` of the synchronised sequence as
/// [`BATCH`]-item `Task` frames; returns the encoded bytes.
fn replay_wire(synced: &[Tuple], trace: &mut Trace) -> u64 {
    let mut buf = Vec::new();
    let mut bytes = 0u64;
    let mut trace = Some(trace);
    for (c, chunk) in synced.chunks(BATCH).enumerate() {
        let frame = Frame::Task(WireTask {
            epoch: c as u64,
            routing_epoch: 0,
            items: chunk
                .iter()
                .enumerate()
                .map(|(seq, t)| WireItem {
                    seq: seq as u32,
                    probe: true,
                    tuple: t.clone(),
                })
                .collect(),
        });
        buf.clear();
        span(&mut trace, Layer::Encode, c as u32, chunk.len(), || {
            frame.encode(&mut buf);
        });
        bytes += buf.len() as u64;
        let decoded = span(&mut trace, Layer::Decode, c as u32, chunk.len(), || {
            Frame::decode(&buf)
        });
        let (decoded, used) = decoded.expect("a frame this program encoded decodes");
        assert!(used == buf.len() && decoded == frame, "codec round trip");
    }
    bytes
}

// ---------------------------------------------------------------------------
// (d) The cross-thread backends, for their counts
// ---------------------------------------------------------------------------

/// One pass in [`BATCH`]-event `push_batch_into` chunks; returns the
/// report, its fingerprint and how many batches were still outstanding when
/// their push returned.
fn batched_pass(
    workload: Workload,
    input: &Input,
    backend: ExecutionBackend,
) -> (RunReport, Fingerprint, u64) {
    let events: Vec<ArrivalEvent> = input.log.events().iter().map(run::owned).collect();
    let mut pipeline = workload.session(&input.query, backend, None);
    let mut sink = CountingSink::default();
    let mut deferred = 0u64;
    let mut events = events.into_iter().peekable();
    while events.peek().is_some() {
        pipeline.push_batch_into(events.by_ref().take(BATCH), &mut sink);
        deferred += u64::from(pipeline.engine().has_outstanding());
    }
    let report = pipeline.finish_into(&mut sink);
    let fingerprint = Fingerprint::of(&report, &sink);
    (report, fingerprint, deferred)
}

// ---------------------------------------------------------------------------
// The traced run
// ---------------------------------------------------------------------------

/// The lower decile of a duration derived from each item: every timing of
/// the traced run is aggregated over its passes the way `throughput_eps` is.
fn fast_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    stats::lower_decile(&items.iter().map(f).collect::<Vec<_>>())
}

/// Runs the traced sequence and returns its result line.
pub fn run_traced(
    args: &RunArgs,
    process_start: Instant,
    spans_out: Option<&std::path::Path>,
) -> String {
    let w = args.workload;
    let setup: Setup = run::set_up(args, process_start);
    let input = &setup.input;
    let events = input.log.len() as u64;
    let min_each = if args.quick { 1 } else { 3 };
    // Every pipeline pass of the run — whatever its backend, batching or
    // observers — must reproduce the warm-up pass's fingerprint.
    let (mut pipeline_passes, mut disagreeing_passes) = (0u64, 0u64);
    let mut check = |fp: Fingerprint| {
        pipeline_passes += 1;
        disagreeing_passes += u64::from(fp != setup.fingerprint);
    };

    // (a) What the real pipeline decided.
    let (rec, rec_fp) = record(w, input);
    check(rec_fp);

    // The synchronised sequence and its flush structure, for the standalone
    // replays.
    let mut captured = Captured::default();
    mirror_pass(w, input, &rec, None, Some(&mut captured));

    // One round-robin over everything that is compared by time — a plain
    // pass (chunk-timed), a pass with telemetry attached, for a sharded
    // workload a `Sequential` pass, (b) a mirror pass with spans and one
    // without, and the bare-operator replay — so that the box's slow
    // phases hit every kind alike.
    let sharded = w.backend() != ExecutionBackend::Sequential;
    let mut plain = TimedPasses::default();
    let mut plain_adapt_ns: Vec<f64> = Vec::new();
    let mut plain_adapt_max: Vec<f64> = Vec::new();
    let mut plain_adapt_mean: Vec<f64> = Vec::new();
    let mut worker_busy_share: Vec<f64> = Vec::new();
    let mut stalls: Vec<f64> = Vec::new();
    let mut telemetry_walls: Vec<f64> = Vec::new();
    let mut sequential_walls: Vec<f64> = Vec::new();
    let mut trace = Trace::new();
    let mut traced: Vec<(u32, MirrorOutcome)> = Vec::new();
    let mut untraced_walls: Vec<f64> = Vec::new();
    let mut bare: Vec<(u32, OperatorStats)> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * 0.8);
    while plain.len() < min_each || Instant::now() < deadline {
        let pass = run::run_pass(w, input, w.backend(), None, 0, Some(&mut stalls));
        plain.push(&pass, &setup.fingerprint);
        let nanos: Vec<f64> = pass
            .report
            .checkpoints
            .iter()
            .map(|c| c.adaptation_nanos as f64)
            .collect();
        plain_adapt_ns.push(nanos.iter().sum());
        plain_adapt_max.push(nanos.iter().copied().fold(0.0, f64::max));
        plain_adapt_mean.push(pass.report.avg_adaptation_nanos);
        let busy: u64 = pass
            .report
            .shard_stats
            .iter()
            .map(|s| s.runtime.busy_nanos)
            .sum();
        worker_busy_share.push(busy as f64 * 1e-9 / pass.wall_s);
        check(pass.fingerprint());

        let pass = run::run_pass(w, input, w.backend(), Some(Telemetry::new()), 0, None);
        telemetry_walls.push(pass.wall_s);
        check(pass.fingerprint());

        if sharded {
            let pass = run::run_pass(w, input, ExecutionBackend::Sequential, None, 0, None);
            sequential_walls.push(pass.wall_s);
            check(pass.fingerprint());
        }

        trace.pass += 1;
        let outcome = mirror_pass(w, input, &rec, Some(&mut trace), None);
        traced.push((trace.pass, outcome));
        untraced_walls.push(mirror_pass(w, input, &rec, None, None).wall_s);

        trace.pass += 1;
        let stats = replay_operator(w, &input.query, &captured.synced, &mut trace);
        bare.push((trace.pass, stats));
    }
    let timed = plain.finish(events);
    let pass_ns = timed.p10_wall_s * 1e9;
    let mirror = &traced[0].1;
    let reference = &rec.report.operator_stats;
    // Each mirror layer's summed spans, aggregated over the traced passes.
    let [statistics_ns, kslack_ns, synchronizer_ns, engine_ns, profiler_ns] =
        Layer::MIRROR.map(|l| fast_of(&traced, |(p, _)| trace.layer_ns(*p, l) as f64));
    let mirror_ns = statistics_ns + kslack_ns + synchronizer_ns + engine_ns + profiler_ns;
    let adapt_ns = stats::lower_decile(&plain_adapt_ns);
    let operator_ns = fast_of(&bare, |(p, _)| trace.layer_ns(*p, Layer::Operator) as f64);
    let bare_operator = &bare[0].1;

    // (c) The remaining standalone replays over the synchronised sequence.
    let mut replays: Vec<(u32, WindowReplay, RouteReplay, u64)> = Vec::new();
    for _ in 0..min_each {
        trace.pass += 1;
        let windows = replay_windows(w, &input.query, &captured.synced, &mut trace);
        let routing = replay_routing(w, &input.query, &captured, &mut trace);
        let bytes = replay_wire(&captured.synced, &mut trace);
        replays.push((trace.pass, windows, routing, bytes));
    }
    let replay_ns = |layer: Layer| fast_of(&replays, |r| trace.layer_ns(r.0, layer) as f64);
    let (_, windows, routing, wire_bytes) = &replays[0];
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };

    // The mirror and the bare operator must both be exact replays.
    let mirror_match = traced.iter().all(|(_, o)| {
        o.results == rec.report.total_produced
            && o.produced_matches
            && o.kslack_residual_ooo == rec.report.kslack_residual_out_of_order
            && o.operator == *reference
    }) && bare_operator.results == reference.results
        && (bare_operator.in_order, bare_operator.dropped)
            == (reference.in_order, reference.dropped);

    // (d) The cross-thread backends: counts only.
    let (pool, pool_fp, pool_deferred) =
        batched_pass(w, input, ExecutionBackend::Pool { workers: 1 });
    let (remote, remote_fp, _) = batched_pass(w, input, ExecutionBackend::remote_inproc(1));
    let pool_rt = pool.shard_stats[0].runtime;
    let remote_rt = remote.shard_stats[0].runtime;
    check(pool_fp);
    check(remote_fp);

    // Engine counters of the workload's own backend.
    let routed: Vec<f64> = rec
        .report
        .shard_stats
        .iter()
        .map(|s| s.runtime.routed as f64)
        .collect();
    let routed_total: f64 = routed.iter().sum();
    let shards = routed.len() as f64;
    let staged = (reference.in_order + reference.out_of_order - reference.dropped) as f64;
    let broadcast_share = if shards > 1.0 {
        (routed_total - staged) / ((shards - 1.0) * staged)
    } else {
        0.0
    };
    let epochs: u64 = rec
        .report
        .shard_stats
        .iter()
        .map(|s| s.runtime.epochs_enqueued)
        .sum();
    // Differences between kinds of pass are taken round by round — the two
    // passes of a round are neighbours in time, so the box's drift cancels —
    // and the median round is reported.
    let paired = |others: &[f64], f: fn(f64, f64) -> f64| -> f64 {
        let per_round: Vec<f64> = timed
            .walls_s
            .iter()
            .zip(others)
            .map(|(&plain, &other)| f(plain, other))
            .collect();
        stats::median(&per_round)
    };
    let overhead_ns = if sharded {
        paired(&sequential_walls, |plain, sequential| plain - sequential) * 1e9 / events as f64
    } else {
        0.0
    };
    let telemetry_overhead = paired(&telemetry_walls, |plain, attached| attached / plain - 1.0);
    // Spans on / off alternate, so each pass with spans has a neighbour
    // without on either side: both pairings count.
    let with_spans: Vec<f64> = traced.iter().map(|(_, o)| o.wall_s).collect();
    let trace_overhead = stats::median(
        &with_spans
            .iter()
            .zip(&untraced_walls)
            .chain(with_spans.iter().skip(1).zip(&untraced_walls))
            .map(|(with, without)| with / without - 1.0)
            .collect::<Vec<_>>(),
    );

    let (tail_pct, tail_us) = stats::supported_tail(&stalls);
    let contended = timed.cpu_wall_ratio < CONTENDED_BELOW;
    let quality = run::quality(args, &setup);
    let attempted = pipeline_passes * events;
    let (correct, failed) = run::verdict(
        attempted,
        disagreeing_passes * events,
        mirror_match && quality.within_truth && quality.matches_sequential,
    );

    let steps_mean = rec
        .report
        .checkpoints
        .iter()
        .map(|c| f64::from(c.steps))
        .sum::<f64>()
        / rec.report.checkpoints.len().max(1) as f64;
    let ev = events as f64;
    let metrics: Vec<(&str, f64)> = vec![
        ("core.statistics.observe_ns_per_event", statistics_ns / ev),
        ("core.statistics.calls", ev),
        ("core.kslack.push_ns_per_event", kslack_ns / ev),
        ("core.kslack.released", mirror.kslack_released as f64),
        (
            "core.kslack.buffered_max",
            mirror.kslack_buffered_max as f64,
        ),
        (
            "core.kslack.residual_ooo",
            mirror.kslack_residual_ooo as f64,
        ),
        ("core.synchronizer.push_ns_per_event", synchronizer_ns / ev),
        (
            "core.synchronizer.buffered_max",
            mirror.sync_buffered_max as f64,
        ),
        ("core.profiler.record_ns_per_event", profiler_ns / ev),
        (
            "core.adaptation.adapt_ns_mean",
            stats::lower_decile(&plain_adapt_mean),
        ),
        (
            "core.adaptation.adapt_ns_max",
            stats::lower_decile(&plain_adapt_max),
        ),
        ("core.adaptation.steps_mean", steps_mean),
        (
            "core.adaptation.checkpoints",
            rec.report.checkpoints.len() as f64,
        ),
        ("core.adaptation.k_changes", rec.k_changes() as f64),
        ("core.pipeline.push_ns_per_event", pass_ns / ev),
        (
            "core.pipeline.residual_ns_per_event",
            (pass_ns - mirror_ns - adapt_ns) / ev,
        ),
        ("core.pipeline.chunk_p50_us", stats::median(&stalls)),
        ("core.pipeline.chunk_tail_us", tail_us),
        ("core.pipeline.chunk_tail_pct", tail_pct),
        ("core.engine.flush_ns_per_event", engine_ns / ev),
        ("join.operator.push_ns_per_event", operator_ns / ev),
        (
            "join.operator.indexed_probes",
            reference.indexed_probes as f64,
        ),
        (
            "join.operator.fallback_probes",
            reference.fallback_probes as f64,
        ),
        (
            "join.operator.indexed_share",
            reference.indexed_probes as f64 / (reference.in_order.max(1)) as f64,
        ),
        ("join.operator.results", reference.results as f64),
        ("join.operator.dropped", reference.dropped as f64),
        (
            "join.window.insert_ns_per_tuple",
            per(replay_ns(Layer::WindowInsert), windows.inserted),
        ),
        (
            "join.window.expire_ns_per_tuple",
            per(replay_ns(Layer::WindowExpire), windows.expired),
        ),
        (
            "join.window.probe_ns_per_probe",
            per(replay_ns(Layer::WindowProbe), windows.probes),
        ),
        ("join.window.probes", windows.probes as f64),
        ("join.window.inserted", windows.inserted as f64),
        ("join.window.expired", windows.expired as f64),
        ("join.window.live_bytes_max", windows.live_bytes_max as f64),
        ("join.window.segments_max", windows.segments_max as f64),
        (
            "join.partition.route_ns_per_tuple",
            per(replay_ns(Layer::Route), routing.tuples),
        ),
        ("core.engine.routed", routed_total),
        (
            "core.engine.inline_share",
            routing.inline_items as f64 / routing.items.max(1) as f64,
        ),
        ("core.engine.broadcast_share", broadcast_share),
        (
            "core.engine.shard_imbalance",
            routed.iter().copied().fold(0.0, f64::max) * shards / routed_total.max(1.0),
        ),
        ("core.engine.overhead_ns_per_event", overhead_ns),
        (
            "core.engine.worker_busy_share",
            stats::median(&worker_busy_share),
        ),
        ("core.engine.pool.epochs", pool_rt.epochs_executed as f64),
        ("core.engine.pool.deferred_batches", pool_deferred as f64),
        ("core.engine.pool.busy_ns", pool_rt.busy_nanos as f64),
        (
            "core.engine.transport.frames",
            (remote_rt.frames_sent + remote_rt.frames_received) as f64,
        ),
        (
            "core.engine.transport.bytes_sent",
            remote_rt.bytes_sent as f64,
        ),
        (
            "core.engine.transport.bytes_received",
            remote_rt.bytes_received as f64,
        ),
        (
            "core.engine.transport.epoch_rtt_ns_mean",
            per(remote_rt.epoch_rtt_nanos as f64, remote_rt.epochs_executed),
        ),
        (
            "wire.encode_ns_per_tuple",
            per(replay_ns(Layer::Encode), routing.tuples),
        ),
        (
            "wire.decode_ns_per_tuple",
            per(replay_ns(Layer::Decode), routing.tuples),
        ),
        (
            "wire.bytes_per_tuple",
            per(*wire_bytes as f64, routing.tuples),
        ),
        ("obs.attached_overhead_pct", telemetry_overhead * 100.0),
        ("trace.overhead_pct", trace_overhead * 100.0),
        (
            "trace.coverage_pct",
            (mirror_ns + adapt_ns) / pass_ns * 100.0,
        ),
        ("trace.mirror_match", f64::from(u8::from(mirror_match))),
        ("harness.passes", timed.passes as f64),
        ("harness.pass_median_ms", timed.median_wall_s * 1e3),
        ("harness.pass_p10_ms", timed.p10_wall_s * 1e3),
        ("harness.pass_spread_pct", timed.spread * 100.0),
        ("harness.cpu_wall_ratio", timed.cpu_wall_ratio),
        ("harness.contended", f64::from(u8::from(contended))),
        ("harness.setup_wall_s", setup.wall_s),
    ];

    eprintln!(
        "[{} seed {} traced] {} plain passes (lower decile {:.1} ms), {} mirror passes, \
         {} spans; mirror match {}; pool epochs predicted by the flush structure {} vs \
         enqueued {}{}",
        w.name(),
        args.seed,
        timed.passes,
        timed.p10_wall_s * 1e3,
        traced.len(),
        trace.spans.len(),
        mirror_match,
        routing.deferred_batches * shards as u64,
        epochs,
        if contended { " CONTENDED" } else { "" },
    );
    if let Some(path) = spans_out {
        if let Err(e) = trace.write_jsonl(path) {
            eprintln!("cannot write spans to {}: {e}", path.display());
        }
    }
    crate::result_line(correct, attempted, failed, metrics)
}

/// Per-layer shares of a traced result line, for the `--all` snapshot's
/// reader: each timed layer as a share of `core.pipeline.push_ns_per_event`.
/// `disorder_handling` sums the paper's components (statistics, K-slack,
/// Synchronizer, profiler, adaptation); `join.operator` and the two
/// `join.window` rows are parts of `core.engine`, priced standalone.
pub fn layer_shares(line: &str) -> Json {
    let value = |name: &str| json::metric_value(line, name).unwrap_or(f64::NAN);
    let push = value("core.pipeline.push_ns_per_event");
    let events = value("core.statistics.calls");
    let share = |ns_per_event: f64| Json::Num((ns_per_event / push * 1e4).round() / 1e4);
    let statistics = value("core.statistics.observe_ns_per_event");
    let kslack = value("core.kslack.push_ns_per_event");
    let synchronizer = value("core.synchronizer.push_ns_per_event");
    let profiler = value("core.profiler.record_ns_per_event");
    let adaptation =
        value("core.adaptation.adapt_ns_mean") * value("core.adaptation.checkpoints") / events;
    let window_writes = (value("join.window.insert_ns_per_tuple") * value("join.window.inserted")
        + value("join.window.expire_ns_per_tuple") * value("join.window.expired"))
        / events;
    let window_reads =
        value("join.window.probe_ns_per_probe") * value("join.window.probes") / events;
    Json::obj(vec![
        ("core.statistics", share(statistics)),
        ("core.kslack", share(kslack)),
        ("core.synchronizer", share(synchronizer)),
        ("core.profiler", share(profiler)),
        ("core.adaptation", share(adaptation)),
        (
            "disorder_handling",
            share(statistics + kslack + synchronizer + profiler + adaptation),
        ),
        (
            "core.engine",
            share(value("core.engine.flush_ns_per_event")),
        ),
        (
            "join.operator",
            share(value("join.operator.push_ns_per_event")),
        ),
        ("join.window.writes", share(window_writes)),
        ("join.window.reads", share(window_reads)),
        (
            "core.pipeline.residual",
            share(value("core.pipeline.residual_ns_per_event")),
        ),
        (
            "core.engine.overhead",
            share(value("core.engine.overhead_ns_per_event")),
        ),
    ])
}
