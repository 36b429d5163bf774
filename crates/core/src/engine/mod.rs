//! The key-partitioned join engine: sharded windows behind the sequential
//! disorder-handling front-end.
//!
//! The paper's pipeline (Fig. 2) is inherently sequential *per stream* on
//! its control path — K-slack buffering, synchronization, statistics and
//! the PD/model-based adaptation of K are global decisions.  The expensive
//! stage is not: window insertion and the m-way probe only ever combine
//! tuples that agree on the equi-join key, so the join state can be
//! hash-partitioned by key across `n` independent **shards**, each owning a
//! full [`MswjOperator`] (windows + hash indexes) over its key slice.
//!
//! ```text
//!                         ┌──────────────── JoinEngine ────────────────┐
//!  front-end (sequential) │  route by key   ┌─ shard 0: MswjOperator ─┐│
//!  K-slack → Synchronizer ┼────────────────►├─ shard 1: MswjOperator ─┤├─► merged
//!  onT / expiry / n_x(e)  │  (broadcast for ├─ …                      ─┤│   events
//!  decided **globally**   │   star sats)    └─ shard n-1 ─────────────┘│
//!                         └────────────────────────────────────────────┘
//! ```
//!
//! ## Division of labour
//!
//! The engine front (this module) makes every decision that requires the
//! global picture, exactly as the unsharded operator would: the in-order /
//! out-of-order classification against the **global** high-water mark
//! `onT` and the out-of-order scope check.  On a sharded set it also
//! computes the expiry counts of every tuple and the cross-join sizes
//! `n_x(e)` of probing ones (via a global occupancy tracker, so adaptive
//! policies see identical statistics on every backend).  Shards only
//! maintain their windows, answer probes and count out-of-order tuples'
//! losses, which the merge sums into `n_lost` as it sums `n_on`; a shard's
//! own `onT` may lag the global one, which is why every out-of-order tuple
//! reaches it, with the global `onT` it was staged against, through
//! [`MswjOperator::insert_late`] instead of `push_with`: the shard counts
//! its loss, then keeps or drops it under that `onT`'s scope, exactly as
//! the front decided.  The sequential shard is the unsharded operator: it sees
//! every tuple, so its own outcome — expiry and `n_x(e)` included — is the
//! global one, and the front neither tracks occupancy nor routes for it.
//!
//! ## Executors
//!
//! Three backends share the front and the shard operators; the front
//! reaches them through one seam, the `ShardSet` of the `shards` submodule.
//! [`JoinEngine::stage`] appends a tuple for the sequential shard to one
//! local queue and routes every other tuple the moment it is staged; a
//! flush runs the batch through one of two executors (the `exec`
//! submodule): the sequential shard pushes its queue through the operator,
//! every sharded batch drains each shard's queue and is replayed by one
//! deterministic merge.
//!
//! * [`ExecutionBackend::Sequential`] — one shard on the calling thread,
//!   streaming each tuple's results before its `Done`, byte-identical to
//!   the bare operator.
//! * [`ExecutionBackend::Pool`] — `n` **resident** workers spawned once at
//!   construction (the `pool` submodule), fed through bounded per-shard
//!   queues of epoch-tagged tasks.  Batches are *pipelined*: [`JoinEngine::flush`]
//!   submits an epoch and returns while the workers crunch, so the caller
//!   (the sequential front-end) routes batch *t + 1* while the shards
//!   execute batch *t*.  The deferred epoch is collected — and its events
//!   delivered — at the next `flush` or [`JoinEngine::sync`]; the pipeline
//!   places a `sync` barrier at checkpoints, buffer-size changes and
//!   end-of-stream, which keeps the adaptation statistics byte-identical to
//!   `Sequential`.
//! * [`ExecutionBackend::Remote`] — one shard *server* per endpoint, each
//!   reached through the versioned wire protocol (the [`transport`]
//!   submodule): an in-process server thread, or an external `mswj-shardd`
//!   process over a Unix-domain or TCP socket.  Reuses the pool's depth-1
//!   epoch/barrier pipeline, so every determinism guarantee carries over
//!   unchanged; failures surface as typed [`EngineError`] panics, never as
//!   hangs.
//!
//! The `Pool` backend drains batches below
//! [`JoinEngine::SMALL_BATCH_THRESHOLD`] routed items on the calling thread
//! and merges them at once, so single-event ingestion never pays an enqueue
//! round-trip.  (`Remote` has no such path — the operators live behind the
//! transport.)
//!
//! Picking a backend and reading the per-shard counters:
//!
//! ```
//! use mswj_core::{EngineEvent, ExecutionBackend, JoinEngine};
//! use mswj_join::{CommonKeyEquiJoin, JoinQuery, ProbeStrategy};
//! use mswj_types::{FieldType, Schema, StreamSet, Timestamp, Tuple, Value};
//! use std::sync::Arc;
//!
//! let streams =
//!     StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), 1_000).unwrap();
//! let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
//! let query = JoinQuery::new("doc", streams, cond).unwrap();
//!
//! // Pool { workers: 4 }: four shards on resident workers, batches
//! // pipelined against routing; Sequential is the single-shard reference.
//! let backend = ExecutionBackend::Pool { workers: 4 };
//! let mut engine = JoinEngine::new(query, ProbeStrategy::Auto, false, backend);
//! assert_eq!(engine.shard_count(), 4);
//!
//! let mut matches = 0u64;
//! let mut count = |ev: EngineEvent<'_>| {
//!     if let EngineEvent::Done(outcome) = ev {
//!         matches += outcome.n_join;
//!     }
//! };
//! engine.push_batch(
//!     (0..100u64).map(|i| {
//!         let (stream, key) = ((i % 2) as usize, (i / 2 % 8) as i64);
//!         Tuple::new(stream.into(), i, Timestamp::from_millis(i * 10), vec![Value::Int(key)])
//!     }),
//!     &mut count,
//! );
//! // The pool defers a batch this size: `sync` delivers its events.
//! engine.sync(&mut count);
//! assert!(matches > 0);
//!
//! // ShardRuntimeStats: routing volume and queue pressure per shard — a
//! // hot key shows as one shard's `routed` share.
//! for stats in engine.shard_stats() {
//!     let rt = stats.runtime;
//!     assert!(rt.routed > 0, "8 keys spread over 4 shards");
//!     assert!(rt.max_queue_depth as u64 <= rt.routed);
//! }
//! ```
//!
//! ## Determinism
//!
//! Events are emitted in staging order; a broadcast tuple's results are
//! merged in shard order.  The [`ExecutionBackend::Sequential`] backend is
//! byte-identical to the pre-engine pipeline; `Pool { workers: n }` and
//! `Remote` produce the same result multiset
//! (and, because `n_x(e)` is computed globally, the same adaptation
//! trajectory) for any `n` — pinned by `tests/differential.rs`.
//!
//! ## Skew
//!
//! Hash routing pins each key class to its home shard for the whole
//! session, so a hot key concentrates the work of "n shards" on one.  The
//! engine moves nothing and raises no alarm: per-shard load is the
//! `routed` counter of [`JoinEngine::shard_stats`].
//!
//! See `docs/ARCHITECTURE.md` for the full contract.
//!
//! ## Star routing
//!
//! A star plan key-routes its anchor with the lowest-numbered satellite
//! and broadcasts every other satellite, for the whole session: routing
//! never changes after construction, so no window state ever moves
//! between shards.  A broadcast stream is stored and probed on every
//! shard, so declare the heaviest satellite first.
//!
//! ## Fallback
//!
//! Conditions without a partitionable equi structure (cross joins, band
//! joins, UDFs, or an explicitly forced nested-loop probe) degrade to one
//! broadcast shard: same semantics, no parallelism.
//!
//! [`MswjOperator`]: mswj_join::MswjOperator
//! [`MswjOperator::insert_late`]: mswj_join::MswjOperator::insert_late

mod exec;
mod occupancy;
mod pool;
mod shards;
pub mod transport;

use mswj_join::{
    JoinQuery, JoinResult, OperatorStats, Partitioner, ProbeOutcome, ProbePlan, ProbeStrategy,
    Route,
};
use mswj_obs::ShardInstruments;
use mswj_types::{Error, StreamIndex, Timestamp, Tuple};
// One shard's contribution to a tuple's outcome: a probing tuple's results,
// or a late tuple's counted loss.  The wire protocol's own type, so a remote
// epoch returns it as it is.
use mswj_wire::WireSub as SubOutcome;
use occupancy::Occupancy;
use shards::ShardSet;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;
pub use transport::{Endpoint, EngineError};

/// How the sharded join stage executes a routed batch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ExecutionBackend {
    /// One shard on the calling thread — byte-identical to the pre-engine
    /// pipeline, and the default.
    #[default]
    Sequential,
    /// `workers` shards executed by `workers` **resident** worker threads
    /// spawned once at construction and fed through bounded per-shard work
    /// queues, with batches pipelined against front-end routing.  Same
    /// output as `Sequential` for any worker count; `Pool { workers: 1 }`
    /// exercises the sharded machinery on a single shard.
    Pool {
        /// Number of resident shard workers (and shards).
        workers: usize,
    },
    /// One shard per endpoint, each a shard *server* reached through the
    /// versioned wire protocol (`mswj-wire`): an in-process server thread
    /// per [`Endpoint::InProc`] entry, an external `mswj-shardd` process per
    /// socket endpoint.  Reuses the pool's depth-1 epoch/barrier pipeline,
    /// so output stays byte-identical to [`ExecutionBackend::Sequential`];
    /// requires a wire-expressible join condition (no closure predicates).
    /// Construct through `SessionBuilder`, whose `build` returns connection
    /// errors as `Result`s.
    Remote {
        /// Where each shard server lives; one shard per entry.
        endpoints: Vec<Endpoint>,
    },
}

impl ExecutionBackend {
    /// One in-process remote shard server per shard, each behind a Unix
    /// socket pair: every epoch round-trips through the full wire codec
    /// without a listener or a second process.  The cheapest way to
    /// exercise [`ExecutionBackend::Remote`].  Zero shards is an empty
    /// endpoint list, which the engine rejects like any other.
    pub fn remote_inproc(shards: usize) -> Self {
        ExecutionBackend::Remote {
            endpoints: vec![Endpoint::InProc; shards],
        }
    }

    /// The number of shards this backend asks for (before the plan-driven
    /// fallback to one broadcast shard).
    pub fn requested_shards(&self) -> usize {
        match self {
            ExecutionBackend::Sequential => 1,
            ExecutionBackend::Pool { workers } => (*workers).max(1),
            ExecutionBackend::Remote { endpoints } => endpoints.len().max(1),
        }
    }
}

impl std::fmt::Display for ExecutionBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutionBackend::Sequential => write!(f, "sequential"),
            ExecutionBackend::Pool { workers } => write!(f, "pool({workers})"),
            ExecutionBackend::Remote { endpoints } => write!(f, "remote({})", endpoints.len()),
        }
    }
}

/// One event of the engine's output stream, delivered to the callback
/// passed to [`JoinEngine::flush`].
#[derive(Debug)]
pub enum EngineEvent<'a> {
    /// One materialized join result of the tuple currently finishing
    /// (enumerating engines only).
    Result(&'a JoinResult),
    /// A staged tuple finished processing: all of its results (if any) have
    /// been emitted, and this is its sequential-equivalent outcome.
    Done(ProbeOutcome),
}

/// One queued unit of shard work.  On the wire it travels as a
/// `WireItem` (`probe` is `late.is_none()`), its `late` bound in the
/// `LateBounds` frame ahead of the task.
#[derive(Debug)]
struct Item {
    /// The staged tuple's position in its batch.
    seq: u32,
    tuple: Tuple,
    /// `None`: globally in order, probed through `push_with`.  `Some(onT)`:
    /// globally late, absorbed through `insert_late` under the global
    /// high-water mark `onT` it was staged against — its loss counted,
    /// then kept or dropped under that `onT`'s scope.
    late: Option<Timestamp>,
}

/// Executor runtime counters for one shard, beyond the shard operator's own
/// [`OperatorStats`] — the first visibility layer for key skew and queue
/// pressure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardRuntimeStats {
    /// Work items routed to this shard over the engine's lifetime: every
    /// staged tuple routed here, a dropped one included (the shard counts
    /// its loss), and a broadcast tuple once per shard.
    pub routed: u64,
    /// High-water mark of the shard's work queue: the most items ever
    /// staged for this shard before an executor drained them, dropped
    /// tuples included.
    pub max_queue_depth: usize,
    /// Epochs (routed batches) handed to this shard's worker — resident
    /// pool tasks or remote task frames.  Inline execution (the
    /// `Sequential` backend and sub-threshold fallbacks) enqueues nothing.
    pub epochs_enqueued: u64,
    /// Epochs the shard's worker finished executing.
    pub epochs_executed: u64,
    /// Wall-clock nanoseconds the shard's worker spent executing epochs —
    /// worker busy time, not caller-thread time.
    pub busy_nanos: u64,
    /// Frames sent to this shard's server (`Remote` backend; zero
    /// otherwise).
    pub frames_sent: u64,
    /// Frames received from this shard's server (`Remote` backend).
    pub frames_received: u64,
    /// Encoded bytes sent to this shard's server, headers included
    /// (`Remote` backend).
    pub bytes_sent: u64,
    /// Encoded bytes received from this shard's server, headers included
    /// (`Remote` backend).
    pub bytes_received: u64,
    /// Cumulative submit→collect wall time across this shard's epochs
    /// (`Remote` backend): transport round-trip plus remote execution.
    pub epoch_rtt_nanos: u64,
    /// Estimated live heap bytes of this shard's window state (segment
    /// arenas, payload vectors and string bytes), sampled when the stats
    /// were taken.  On the `Remote` backend the figure is reported by the
    /// server process over the barrier reply, so local and remote shards
    /// agree.
    pub window_bytes: u64,
    /// Columnar storage segments held across this shard's windows, sampled
    /// when the stats were taken (remote shards report theirs over the
    /// barrier reply, like `window_bytes`).
    pub window_segments: u64,
}

/// Publishes one shard's [`ShardRuntimeStats`] into its telemetry scope —
/// the one place shard gauges are set, for a session's shards (by the
/// pipeline, at checkpoints) and for a shard server's connections alike.
/// Strictly observe-only.
pub(crate) struct ShardPublisher {
    scope: Arc<ShardInstruments>,
    /// The previous publication (or session build/connect) and the shard's
    /// `busy_nanos` then: the busy-share baseline.
    since: Instant,
    busy_nanos: u64,
}

impl ShardPublisher {
    pub(crate) fn new(scope: Arc<ShardInstruments>) -> Self {
        ShardPublisher {
            scope,
            since: Instant::now(),
            busy_nanos: 0,
        }
    }

    /// Sets every gauge of the scope from `rt`.  The busy share is the
    /// busy-time delta over the wall time since the previous publication;
    /// the round-trip time is the mean per executed epoch (0 before the
    /// first).
    pub(crate) fn publish(&mut self, rt: &ShardRuntimeStats) {
        let now = Instant::now();
        let wall = now.duration_since(self.since).as_nanos().max(1) as f64;
        let busy = rt.busy_nanos.saturating_sub(self.busy_nanos) as f64;
        let rtt_mean = rt.epoch_rtt_nanos.checked_div(rt.epochs_executed);
        let s = &self.scope;
        s.queue_depth.set(rt.max_queue_depth as f64);
        s.busy_share.set((busy / wall).min(1.0));
        s.window_bytes.set(rt.window_bytes as f64);
        s.window_segments.set(rt.window_segments as f64);
        s.routed.set(rt.routed as f64);
        s.epochs_executed.set(rt.epochs_executed as f64);
        s.frames_sent.set(rt.frames_sent as f64);
        s.frames_received.set(rt.frames_received as f64);
        s.bytes_sent.set(rt.bytes_sent as f64);
        s.bytes_received.set(rt.bytes_received as f64);
        s.rtt_nanos.set(rtt_mean.unwrap_or(0) as f64);
        (self.since, self.busy_nanos) = (now, rt.busy_nanos);
    }
}

/// One shard's complete statistics: the shard operator's lifetime counters
/// plus the executor's runtime counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard operator's own counters — probes, inserts, expirations and
    /// results that this shard performed.
    pub operator: OperatorStats,
    /// Executor runtime counters: routing volume, queue depth, epoch counts
    /// and worker busy time.
    pub runtime: ShardRuntimeStats,
}

/// The sharded join stage: routing front plus `n` shard operators.
pub struct JoinEngine {
    /// The shard operators, behind whichever executor the backend chose.
    shards: ShardSet,
    partitioner: Partitioner,
    backend: ExecutionBackend,
    query: JoinQuery,
    plan: ProbePlan,
    on_t: Timestamp,
    started: bool,
    /// The sharded sets' global view of window cardinalities; empty on the
    /// sequential shard, whose operator reports expiry and `n_x(e)` itself.
    occupancy: Occupancy,
    stats: OperatorStats,
    runtime: Vec<ShardRuntimeStats>,
    /// Reusable staging / execution buffers (capacity persists across
    /// batches, so a steady-state flush allocates nothing on any executor
    /// path).  The sequential shard's tuples awaiting the next
    /// [`JoinEngine::flush`] and how many of them its scope check admitted;
    /// on a sharded set, one partly filled outcome per staged tuple, the
    /// per-shard queues of routed items, the drained shards' sub-outcomes
    /// and materialized results, and the merge's `(sub, mat)` read cursors.
    staged: Vec<Tuple>,
    staged_inserted: usize,
    decisions: Vec<ProbeOutcome>,
    queues: Vec<VecDeque<Item>>,
    sub: Vec<Vec<SubOutcome>>,
    mat: Vec<Vec<(u32, JoinResult)>>,
    cursors: Vec<(usize, usize)>,
    /// The id of the deferred epoch of the depth-1 pipeline, if any.
    outstanding: Option<u64>,
    next_epoch: u64,
    /// The deferred epoch's partly filled outcomes, in staging order
    /// (completed by the deterministic merge at collection; swapped with
    /// `decisions` at submission, so both keep their capacity).
    deferred: Vec<ProbeOutcome>,
    /// Which shards hold a task of the deferred epoch.
    in_flight: Vec<bool>,
}

impl std::fmt::Debug for JoinEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinEngine")
            .field("backend", &self.backend)
            .field("shards", &self.shard_count())
            .field("plan", &self.plan.describe())
            .field("on_t", &self.on_t)
            .field("outstanding", &self.outstanding.is_some())
            .field("stats", &self.stats)
            .finish()
    }
}

impl JoinEngine {
    /// Routed-item count below which the `Pool` backend drains a batch on
    /// the calling thread and merges it at once: enqueueing costs more than
    /// it buys on tiny batches, and the caller-thread path is
    /// allocation-free in steady state.
    pub const SMALL_BATCH_THRESHOLD: usize = 32;

    /// Builds the engine for a query: plans the probe path, derives the
    /// partitioning rules and instantiates one [`MswjOperator`] per shard.
    /// The `Pool` backend also spawns its resident workers here — they live
    /// until the engine is dropped.
    ///
    /// Unpartitionable plans (nested-loop probes) always get exactly one
    /// shard, whatever the backend requests.
    ///
    /// # Panics
    ///
    /// Panics on a zero-worker `Pool` or a `Remote` backend that cannot be
    /// set up; `SessionBuilder::build` reports the same errors as a
    /// `Result`.
    ///
    /// [`MswjOperator`]: mswj_join::MswjOperator
    pub fn new(
        query: JoinQuery,
        strategy: ProbeStrategy,
        enumerate: bool,
        backend: ExecutionBackend,
    ) -> Self {
        Self::try_new(query, strategy, enumerate, backend)
            .expect("engine setup failed (use try_new for a Result)")
    }

    /// The fallible form of [`JoinEngine::new`], with the same parameters.
    /// The `Remote` backend validates its endpoint list, requires a
    /// wire-expressible join condition, and connects to and sends `Setup`
    /// to every shard server here — each failure comes back as
    /// [`Error::InvalidConfig`], as does a zero-worker
    /// [`ExecutionBackend::Pool`].  The local backends fail on nothing else.
    pub(crate) fn try_new(
        query: JoinQuery,
        strategy: ProbeStrategy,
        enumerate: bool,
        backend: ExecutionBackend,
    ) -> Result<Self, Error> {
        if backend == (ExecutionBackend::Pool { workers: 0 }) {
            return Err(Error::InvalidConfig(
                "ExecutionBackend::Pool { workers: 0 } has no workers to run on; use \
                 Pool { workers: 1.. } or the Sequential backend"
                    .into(),
            ));
        }
        let equi = query.condition().equi_structure();
        let plan = ProbePlan::new(strategy, equi.as_ref());
        let partitioner = Partitioner::new(&plan, backend.requested_shards());
        let n = partitioner.shard_count();
        let shards = ShardSet::open(&backend, n, &query, strategy, enumerate)?;
        let (m, local) = (query.arity(), matches!(shards, ShardSet::Local(_)));
        Ok(JoinEngine {
            shards,
            partitioner,
            backend,
            plan,
            on_t: Timestamp::ZERO,
            started: false,
            occupancy: Occupancy::new(if local { 0 } else { m }),
            stats: OperatorStats::default(),
            runtime: vec![ShardRuntimeStats::default(); n],
            staged: Vec::new(),
            staged_inserted: 0,
            decisions: Vec::new(),
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            sub: (0..n).map(|_| Vec::new()).collect(),
            mat: (0..n).map(|_| Vec::new()).collect(),
            cursors: vec![(0, 0); n],
            outstanding: None,
            next_epoch: 1,
            deferred: Vec::new(),
            in_flight: vec![false; n],
            query,
        })
    }

    /// The backend this engine executes with.
    pub(crate) fn backend(&self) -> &ExecutionBackend {
        &self.backend
    }

    /// Number of shards actually instantiated (1 for unpartitionable
    /// plans, the backend's request otherwise).
    pub fn shard_count(&self) -> usize {
        self.shards.count()
    }

    /// The shard operator at `s` — windows, hash indexes and per-shard
    /// counters are all inspectable through it.  Reading a busy `Pool`
    /// shard waits for its in-flight epoch to finish executing and
    /// reflects it; that epoch's *events* still arrive at the next
    /// [`JoinEngine::flush`] or [`JoinEngine::sync`].
    ///
    /// # Panics
    ///
    /// Panics on the `Remote` backend, whose operators live in another
    /// process — use [`JoinEngine::shard_stats`] for their counters.
    pub fn shard(&self, s: usize) -> std::cell::Ref<'_, mswj_join::MswjOperator> {
        self.shards.inspect(s)
    }

    /// Per-shard lifetime statistics: each shard operator's own
    /// [`OperatorStats`] (the probes, inserts and expirations that shard
    /// performed) paired with the executor's [`ShardRuntimeStats`] (routing
    /// volume, queue depth, epoch counts, worker busy time).  On every
    /// backend, a busy shard's figures reflect its in-flight epoch, which
    /// this waits for; that epoch's events still arrive at the next
    /// [`JoinEngine::flush`] or [`JoinEngine::sync`], and its runtime
    /// counters (`epochs_executed`, `busy_nanos`) count it from then on.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.stats(&self.runtime)
    }

    /// Aggregate counters, kept **sequential-equivalent**: ordering, drop
    /// and expiry counts come from the engine's global decisions (on the
    /// sequential shard, from its operator, which sees every tuple), result
    /// counts from the shards.  (Per-shard `indexed`/`fallback` tallies can
    /// legitimately differ from an unsharded run — an unindexable value
    /// only poisons the shard it lives in.)
    pub fn stats(&self) -> OperatorStats {
        self.stats
    }

    /// The probe access path shared by every shard.
    pub(crate) fn probe_plan(&self) -> &ProbePlan {
        &self.plan
    }

    /// The global high-water timestamp `onT` — the watermark of the merged
    /// result stream.
    pub fn on_t(&self) -> Timestamp {
        self.on_t
    }

    /// Stages one synchronized tuple for the next [`JoinEngine::flush`]:
    /// classify it against the global `onT` and scope-check it.  The
    /// sequential shard takes the tuple as it is; a sharded set also
    /// replays the global expiry/occupancy accounting and routes the tuple
    /// at once; routing is fixed at construction, so staging early routes
    /// exactly as a flush would.
    pub fn stage(&mut self, tuple: Tuple) {
        let (i, ts, delay) = (tuple.stream.as_usize(), tuple.ts, tuple.delay_or_zero());
        let in_order = !self.started || ts >= self.on_t;
        // Global scope check (e.ts >= onT - W_i, Sec. III-A): a shard's
        // lagging view must not resurrect a tuple the unsharded operator
        // would drop.
        let w = self.query.window(StreamIndex(i));
        let inserted = in_order || ts >= self.on_t.saturating_sub_duration(w);
        if in_order {
            self.on_t = ts;
            self.started = true;
        }
        if matches!(self.shards, ShardSet::Local(_)) {
            self.staged.push(tuple);
            self.staged_inserted += usize::from(inserted);
            self.note_routed(0, self.staged.len());
            return;
        }
        // An in-order tuple expires the other windows to its own timestamp
        // and sizes its cross-join; an out-of-order one, kept or dropped,
        // expires them to the global `onT` before its shards count its loss.
        let (mut expired, mut n_cross) = (0usize, u64::from(in_order));
        for j in (0..self.query.arity()).filter(|&j| j != i) {
            let bound = self
                .on_t
                .saturating_sub_duration(self.query.window(StreamIndex(j)));
            expired += self.occupancy.expire(j, bound);
            n_cross = n_cross.saturating_mul(self.occupancy.len(j) as u64);
        }
        if inserted {
            self.occupancy.insert(i, ts);
        }
        let late = (!in_order).then_some(self.on_t);
        self.enqueue(self.decisions.len() as u32, late, tuple);
        // The globally decided part of the tuple's outcome; the merge adds
        // what its shards count (`n_join`, `n_lost`, and `indexed` stays
        // set only if every shard it probed answered through an index).
        self.decisions.push(ProbeOutcome {
            ts,
            delay,
            in_order,
            inserted,
            indexed: in_order,
            n_join: 0,
            n_cross,
            n_lost: 0,
            expired,
        });
    }

    /// Whether any staged tuples await execution.
    pub fn has_pending(&self) -> bool {
        !self.staged.is_empty() || !self.decisions.is_empty()
    }

    /// Whether a pipelined epoch has been submitted to the resident pool
    /// and not yet collected ([`JoinEngine::sync`] drains it).
    pub fn has_outstanding(&self) -> bool {
        self.outstanding.is_some()
    }

    /// Stages a whole batch and flushes it — the amortized entry point for
    /// callers that do not need the pipeline front-end.  On the `Pool`
    /// backend the batch may execute asynchronously; finish with
    /// [`JoinEngine::sync`] to observe its events.
    pub fn push_batch<I>(&mut self, tuples: I, f: &mut dyn FnMut(EngineEvent<'_>))
    where
        I: IntoIterator<Item = Tuple>,
    {
        for t in tuples {
            self.stage(t);
        }
        self.flush(f);
    }

    /// Executes every staged tuple, delivering the event
    /// stream to `f`: zero or more [`EngineEvent::Result`]s per tuple
    /// (enumerating engines), then exactly one [`EngineEvent::Done`] per
    /// staged tuple, in staging order.
    ///
    /// On the `Pool` backend, batches of at least
    /// [`Self::SMALL_BATCH_THRESHOLD`] routed items are *pipelined*: the
    /// call submits the batch as an epoch and returns while the resident
    /// workers execute it; the epoch's events are delivered at the next
    /// `flush` or [`JoinEngine::sync`], before any newer batch's events.
    /// Other backends (and sub-threshold batches) deliver everything before
    /// returning.
    pub fn flush(&mut self, f: &mut dyn FnMut(EngineEvent<'_>)) {
        self.execute_pending(f, false);
    }

    /// The barrier flavour of [`JoinEngine::flush`]: additionally collects
    /// any deferred epoch, so every staged tuple's events have been
    /// delivered — and every shard is idle — when this returns.
    pub fn sync(&mut self, f: &mut dyn FnMut(EngineEvent<'_>)) {
        self.execute_pending(f, true);
    }

    fn execute_pending(&mut self, f: &mut dyn FnMut(EngineEvent<'_>), barrier: bool) {
        if let Some(op) = self.shards.local() {
            exec::run_local(
                op,
                &mut self.staged,
                std::mem::take(&mut self.staged_inserted),
                &mut self.stats,
                f,
            );
            return;
        }
        // The deferred epoch's events precede this batch's in staging
        // order, so it is always collected first.
        self.collect_outstanding(f);
        if self.decisions.is_empty() {
            return;
        }
        if !self
            .shards
            .drain_inline(&mut self.queues, &mut self.sub, &mut self.mat)
        {
            self.submit_epoch();
            if barrier {
                self.collect_outstanding(f);
            }
            return;
        }
        // Drained on this thread: merge at once, not via `deferred`, whose
        // capacity stays sized by epochs alone.
        exec::merge_epoch(
            &self.decisions,
            &mut self.sub,
            &mut self.mat,
            &mut self.cursors,
            &mut self.stats,
            f,
        );
        self.decisions.clear();
    }

    /// Ships the routed queues to the shard workers as one epoch and
    /// records it as outstanding.  Buffers are recycled across epochs, so
    /// the steady-state round-trip allocates nothing.
    fn submit_epoch(&mut self) {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        for (s, queue) in self.queues.iter_mut().enumerate() {
            self.in_flight[s] = !queue.is_empty();
            if self.in_flight[s] {
                self.runtime[s].epochs_enqueued += 1;
                let (sub, mat) = (&mut self.sub[s], &mut self.mat[s]);
                self.shards.submit(s, epoch, queue, sub, mat);
            }
        }
        debug_assert!(self.deferred.is_empty(), "one epoch in flight at most");
        std::mem::swap(&mut self.decisions, &mut self.deferred);
        self.outstanding = Some(epoch);
    }

    /// Collects the deferred epoch's outputs in shard order (re-raising any
    /// worker panic) and merges the buffers into the deterministic event
    /// stream.
    fn collect_outstanding(&mut self, f: &mut dyn FnMut(EngineEvent<'_>)) {
        let Some(epoch) = self.outstanding.take() else {
            return;
        };
        for s in (0..self.in_flight.len()).filter(|&s| self.in_flight[s]) {
            let (sub, mat) = (&mut self.sub[s], &mut self.mat[s]);
            let busy_nanos = self.shards.collect(s, epoch, sub, mat);
            self.runtime[s].busy_nanos += busy_nanos;
            self.runtime[s].epochs_executed += 1;
        }
        exec::merge_epoch(
            &self.deferred,
            &mut self.sub,
            &mut self.mat,
            &mut self.cursors,
            &mut self.stats,
            f,
        );
        self.deferred.clear();
    }

    /// Queues one tuple's shard work according to its route, maintaining
    /// the per-shard routing-volume and queue-depth counters: a key-routed
    /// tuple goes to its key class's home shard, a broadcast tuple to every
    /// shard.
    fn enqueue(&mut self, seq: u32, late: Option<Timestamp>, tuple: Tuple) {
        match self.partitioner.route(&tuple) {
            Route::One(s) => {
                self.queues[s].push_back(Item { seq, tuple, late });
                self.note_routed(s, self.queues[s].len());
            }
            Route::All => self.fan_out(seq, late, tuple),
            Route::Split => unreachable!("a key class stays on its home shard"),
        }
    }

    /// Pushes `tuple` to every shard queue, probing (or counting an
    /// out-of-order tuple's loss) everywhere: the broadcast case.
    fn fan_out(&mut self, seq: u32, late: Option<Timestamp>, tuple: Tuple) {
        let last = self.queues.len() - 1;
        for s in 0..last {
            self.queues[s].push_back(Item {
                seq,
                tuple: tuple.clone(),
                late,
            });
            self.note_routed(s, self.queues[s].len());
        }
        self.queues[last].push_back(Item { seq, tuple, late });
        self.note_routed(last, self.queues[last].len());
    }

    /// Folds one routed item, leaving `depth` staged for shard `s`, into
    /// the shard's runtime counters.
    fn note_routed(&mut self, s: usize, depth: usize) {
        let rt = &mut self.runtime[s];
        rt.routed += 1;
        rt.max_queue_depth = rt.max_queue_depth.max(depth);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mswj_join::{CommonKeyEquiJoin, MswjOperator};
    use mswj_types::{FieldType, Schema, StreamSet, StreamSpec, Value};
    use std::sync::Arc;

    fn equi_query(m: usize, window: u64) -> JoinQuery {
        let streams =
            StreamSet::homogeneous(m, Schema::new(vec![("a1", FieldType::Int)]), window).unwrap();
        let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        JoinQuery::new("engine-test", streams, cond).unwrap()
    }

    fn tup(stream: usize, seq: u64, ts: u64, key: i64) -> Tuple {
        Tuple::new(
            stream.into(),
            seq,
            Timestamp::from_millis(ts),
            vec![Value::Int(key)],
        )
    }

    /// Drives `tuples` through an engine (one batch per `chunk` tuples,
    /// final `sync`) and returns (sorted result strings, outcomes, stats).
    fn run_chunked(
        backend: ExecutionBackend,
        enumerate: bool,
        tuples: &[Tuple],
        chunk: usize,
    ) -> (Vec<String>, Vec<ProbeOutcome>, OperatorStats) {
        let mut engine = JoinEngine::new(
            equi_query(2, 1_000),
            ProbeStrategy::Auto,
            enumerate,
            backend,
        );
        let mut results = Vec::new();
        let mut outcomes = Vec::new();
        let mut handler = |ev: EngineEvent<'_>| match ev {
            EngineEvent::Result(r) => results.push(r.to_string()),
            EngineEvent::Done(o) => outcomes.push(o),
        };
        for batch in tuples.chunks(chunk.max(1)) {
            engine.push_batch(batch.iter().cloned(), &mut handler);
        }
        engine.sync(&mut handler);
        results.sort();
        (results, outcomes, engine.stats())
    }

    fn run(
        backend: ExecutionBackend,
        enumerate: bool,
        tuples: &[Tuple],
    ) -> (Vec<String>, Vec<ProbeOutcome>, OperatorStats) {
        run_chunked(backend, enumerate, tuples, usize::MAX)
    }

    /// Three streams with unequal windows (300 / 1 000 / 2 500 ms).
    fn unequal_query() -> JoinQuery {
        let schema = || Schema::new(vec![("a1", FieldType::Int)]);
        let streams = StreamSet::new(vec![
            StreamSpec::new("S1", schema(), 300),
            StreamSpec::new("S2", schema(), 1_000),
            StreamSpec::new("S3", schema(), 2_500),
        ])
        .unwrap();
        let cond = Arc::new(CommonKeyEquiJoin::new(&streams, "a1").unwrap());
        JoinQuery::new("engine-unequal", streams, cond).unwrap()
    }

    /// 600 tuples over `unequal_query`'s streams, 10 ms apart: every tenth
    /// arrives 40–3 000 ms late, so some of those fall out of scope.
    fn disordered() -> Vec<Tuple> {
        (0..600u64)
            .map(|s| {
                let lateness = if s % 10 == 9 { 40 + s * 37 % 2_960 } else { 0 };
                tup(
                    (s % 3) as usize,
                    s,
                    (s * 10).saturating_sub(lateness),
                    (s % 4) as i64,
                )
            })
            .collect()
    }

    /// The `Done` outcomes of `tuples` pushed through `engine` in batches
    /// of `chunk`, then a final `sync`.
    fn outcomes(engine: &mut JoinEngine, tuples: &[Tuple], chunk: usize) -> Vec<ProbeOutcome> {
        let mut out = Vec::new();
        let mut handler = |ev: EngineEvent<'_>| {
            if let EngineEvent::Done(o) = ev {
                out.push(o);
            }
        };
        for batch in tuples.chunks(chunk) {
            engine.push_batch(batch.iter().cloned(), &mut handler);
        }
        engine.sync(&mut handler);
        out
    }

    #[test]
    fn sequential_engine_matches_the_unsharded_operator() {
        let tuples = disordered();
        let mut op = MswjOperator::new(unequal_query());
        let want: Vec<ProbeOutcome> = tuples.iter().map(|t| op.push(t.clone())).collect();
        assert!(
            want.iter().any(|o| !o.in_order && o.inserted),
            "late tuples"
        );
        assert!(want.iter().any(|o| !o.inserted), "out-of-scope tuples");
        for chunk in [1usize, 7, 48, 600] {
            let mut engine = JoinEngine::new(
                unequal_query(),
                ProbeStrategy::Auto,
                false,
                ExecutionBackend::Sequential,
            );
            assert_eq!(outcomes(&mut engine, &tuples, chunk), want, "chunk {chunk}");
            assert_eq!(engine.stats(), op.stats(), "chunk {chunk}");
            assert!(
                engine.occupancy.is_unallocated(),
                "the sequential shard tracks no occupancy"
            );
            // The runtime counters count staged tuples, dropped ones too:
            // all of them, and the most staged between two flushes.
            let rt = engine.shard_stats()[0].runtime;
            assert_eq!(rt.routed, tuples.len() as u64, "chunk {chunk}");
            assert_eq!(rt.max_queue_depth, chunk.min(tuples.len()), "chunk {chunk}");
        }
        // Enumerating: the event stream is `push_with`'s, event for event.
        let log = |events: &mut Vec<String>, ev: EngineEvent<'_>| match ev {
            EngineEvent::Result(r) => events.push(format!("result {r}")),
            EngineEvent::Done(o) => events.push(format!("{o:?}")),
        };
        let mut op = MswjOperator::with_probe(unequal_query(), ProbeStrategy::Auto, true);
        let mut want = Vec::new();
        for t in &tuples {
            let o = op.push_with(t.clone(), &mut |r| log(&mut want, EngineEvent::Result(&r)));
            log(&mut want, EngineEvent::Done(o));
        }
        assert!(want.iter().any(|e| e.starts_with("result")));
        for chunk in [7usize, 48] {
            let mut engine = JoinEngine::new(
                unequal_query(),
                ProbeStrategy::Auto,
                true,
                ExecutionBackend::Sequential,
            );
            let mut got = Vec::new();
            for batch in tuples.chunks(chunk) {
                engine.push_batch(batch.iter().cloned(), &mut |ev| log(&mut got, ev));
            }
            engine.sync(&mut |ev| log(&mut got, ev));
            assert_eq!(got, want, "chunk {chunk}");
        }
    }

    /// The oracle of the sharded sets' occupancy replay: with the
    /// sequential shard reporting its operator's own outcome, only here do
    /// the front's expiry counts and `n_x(e)` meet the unsharded operator.
    #[test]
    fn sharded_occupancy_matches_the_unsharded_operator() {
        let tuples = disordered();
        let mut op = MswjOperator::new(unequal_query());
        let want: Vec<ProbeOutcome> = tuples.iter().map(|t| op.push(t.clone())).collect();
        for backend in [
            ExecutionBackend::Pool { workers: 1 },
            ExecutionBackend::Pool { workers: 3 },
            ExecutionBackend::remote_inproc(2),
        ] {
            // Above and below the inline threshold.
            for chunk in [48usize, 7] {
                let mut engine =
                    JoinEngine::new(unequal_query(), ProbeStrategy::Auto, false, backend.clone());
                let got = outcomes(&mut engine, &tuples, chunk);
                assert_eq!(got, want, "[{backend} chunk {chunk}]");
            }
        }
    }

    #[test]
    fn dropped_tuples_expire_and_count_alike_on_every_backend() {
        // Uneven steps, so a dropped tuple's expiry to onT − W_j often
        // reaches rows the last in-order probe left behind: the drop itself
        // reports them expired, and counts its loss against what is left.
        // Every seventh tuple is 400–3 000 ms late.
        let mut ts = 0u64;
        let tuples: Vec<Tuple> = (0..900u64)
            .map(|s| {
                ts += 1 + s * 13 % 17;
                let lateness = if s % 7 == 6 { 400 + s * 53 % 2_600 } else { 0 };
                tup(
                    (s % 3) as usize,
                    s,
                    ts.saturating_sub(lateness),
                    (s % 5) as i64,
                )
            })
            .collect();
        let mut op = MswjOperator::new(unequal_query());
        let want: Vec<ProbeOutcome> = tuples.iter().map(|t| op.push(t.clone())).collect();
        let drops = want.iter().filter(|o| !o.inserted);
        assert!(drops.clone().filter(|o| o.expired > 0).count() > 10);
        assert!(drops.filter(|o| o.n_lost > 0).count() > 10);
        for backend in [
            ExecutionBackend::Sequential,
            ExecutionBackend::Pool { workers: 1 },
            ExecutionBackend::Pool { workers: 3 },
            ExecutionBackend::remote_inproc(2),
        ] {
            for chunk in [48usize, 7] {
                let mut engine =
                    JoinEngine::new(unequal_query(), ProbeStrategy::Auto, false, backend.clone());
                let got = outcomes(&mut engine, &tuples, chunk);
                assert_eq!(got, want, "[{backend} chunk {chunk}]");
                let stats = engine.stats();
                assert_eq!(stats, op.stats(), "[{backend} chunk {chunk}]");
                // Every tuple is key-routed to one shard, so the shards'
                // own counters add up to the unsharded operator's: a shard
                // that skipped the scope check and inserted a dropped tuple
                // would count it out of order but not dropped.  The insert itself changes
                // no result — every later probe expires the row first.
                let shards = engine.shard_stats();
                let sum = |f: fn(&OperatorStats) -> u64| {
                    shards.iter().map(|s| f(&s.operator)).sum::<u64>()
                };
                assert_eq!(
                    sum(|o| o.dropped),
                    stats.dropped,
                    "[{backend} chunk {chunk}]"
                );
                assert_eq!(
                    sum(|o| o.out_of_order),
                    stats.out_of_order,
                    "[{backend} chunk {chunk}]"
                );
                // A dropped tuple is a routed item like any other, on every
                // backend: each tuple counts once.
                let routed: u64 = shards.iter().map(|s| s.runtime.routed).sum();
                assert_eq!(routed, tuples.len() as u64, "[{backend} chunk {chunk}]");
            }
        }
    }

    #[test]
    fn parallel_backends_agree_with_sequential() {
        let tuples: Vec<Tuple> = (0..120u64)
            .map(|s| {
                let late = s % 7 == 0 && s > 0;
                let ts = if late { s * 10 - 60 } else { s * 10 };
                tup((s % 2) as usize, s, ts, (s % 5) as i64)
            })
            .collect();
        let (seq_res, seq_out, seq_stats) = run(ExecutionBackend::Sequential, true, &tuples);
        let backends = [
            ExecutionBackend::Pool { workers: 1 },
            ExecutionBackend::Pool { workers: 3 },
            ExecutionBackend::Pool { workers: 4 },
            // Every epoch round-trips through the wire codec (in-process
            // shard servers), proving serialization on the same workload.
            ExecutionBackend::remote_inproc(1),
            ExecutionBackend::remote_inproc(4),
        ];
        for backend in backends {
            // Chunk of 48 exceeds the inline threshold (pipelined epochs on
            // Pool); chunk of 7 stays below it (inline fallback).
            for chunk in [48usize, 7] {
                let (res, out, stats) = run_chunked(backend.clone(), true, &tuples, chunk);
                let label = format!("{backend} chunk {chunk}");
                assert_eq!(seq_res, res, "result multiset diverged [{label}]");
                assert_eq!(seq_out.len(), out.len(), "[{label}]");
                for (a, b) in seq_out.iter().zip(&out) {
                    assert_eq!(a.in_order, b.in_order, "[{label}]");
                    assert_eq!(a.inserted, b.inserted, "[{label}]");
                    assert_eq!(a.n_join, b.n_join, "[{label}]");
                    assert_eq!(
                        a.n_cross, b.n_cross,
                        "global n_x(e) must not shard [{label}]"
                    );
                    assert_eq!(a.expired, b.expired, "[{label}]");
                }
                assert_eq!(seq_stats.results, stats.results, "[{label}]");
                assert_eq!(seq_stats.in_order, stats.in_order, "[{label}]");
                assert_eq!(seq_stats.out_of_order, stats.out_of_order, "[{label}]");
                assert_eq!(seq_stats.dropped, stats.dropped, "[{label}]");
                assert_eq!(seq_stats.expired, stats.expired, "[{label}]");
                assert_eq!(seq_stats.cross_results, stats.cross_results, "[{label}]");
            }
        }
    }

    #[test]
    fn sharded_windows_partition_the_global_state() {
        let tuples: Vec<Tuple> = (0..200u64)
            .map(|s| tup((s % 2) as usize, s, s * 5, (s % 16) as i64))
            .collect();
        let mut engine = JoinEngine::new(
            equi_query(2, 500),
            ProbeStrategy::Auto,
            false,
            ExecutionBackend::Pool { workers: 4 },
        );
        assert_eq!(engine.shard_count(), 4);
        engine.push_batch(tuples, &mut |_| {});
        engine.sync(&mut |_| {});
        let per_shard = engine.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert!(
            per_shard.iter().filter(|s| s.operator.in_order > 0).count() >= 3,
            "16 keys must spread probes over the shards: {per_shard:?}"
        );
        // Every shard saw routed work, and the queue high-water mark is
        // consistent with it.
        for s in &per_shard {
            assert!(s.runtime.routed > 0);
            assert!(s.runtime.max_queue_depth > 0);
            assert!(s.runtime.max_queue_depth as u64 <= s.runtime.routed);
        }
        // The shard windows partition the global state (common-key plans
        // never broadcast).  Shards expire lazily — only a probe *in that
        // shard* drains it — so stale tuples may linger; restricted to the
        // in-scope suffix, the sharded and unsharded views must agree.
        let mut reference = MswjOperator::new(equi_query(2, 500));
        for s in 0..200u64 {
            reference.push(tup((s % 2) as usize, s, s * 5, (s % 16) as i64));
        }
        assert_eq!(engine.on_t(), reference.on_t());
        for stream in 0..2 {
            let bound = engine.on_t().saturating_sub_duration(500);
            let in_scope = |w: &mswj_join::Window| w.iter().filter(|t| t.ts >= bound).count();
            let sharded: usize = (0..4)
                .map(|s| in_scope(engine.shard(s).window(StreamIndex(stream))))
                .sum();
            assert_eq!(sharded, in_scope(reference.window(StreamIndex(stream))));
            let raw: usize = (0..4)
                .map(|s| engine.shard(s).window(StreamIndex(stream)).len())
                .sum();
            assert!(raw >= reference.window(StreamIndex(stream)).len());
        }
    }

    #[test]
    fn pool_defers_large_batches_and_sync_collects_them() {
        let mut engine = JoinEngine::new(
            equi_query(2, 1_000),
            ProbeStrategy::Auto,
            false,
            ExecutionBackend::Pool { workers: 2 },
        );
        assert_eq!(engine.shard_count(), 2);
        // A sub-threshold batch executes inline: events arrive immediately.
        let mut done = 0usize;
        engine.push_batch(
            (0..4u64).map(|s| tup((s % 2) as usize, s, s * 10, s as i64)),
            &mut |_| done += 1,
        );
        assert_eq!(done, 4);
        assert!(!engine.has_outstanding());
        // A large batch is submitted as an epoch and deferred…
        let big: Vec<Tuple> = (4..100u64)
            .map(|s| tup((s % 2) as usize, s, s * 10, (s % 8) as i64))
            .collect();
        engine.push_batch(big, &mut |_| done += 1);
        assert!(engine.has_outstanding(), "large batches pipeline");
        assert_eq!(done, 4, "deferred epochs emit nothing yet");
        // …and sync delivers exactly one Done per staged tuple.
        engine.sync(&mut |ev| {
            if matches!(ev, EngineEvent::Done(_)) {
                done += 1;
            }
        });
        assert!(!engine.has_outstanding());
        assert_eq!(done, 100);
        let epochs: u64 = engine
            .shard_stats()
            .iter()
            .map(|s| s.runtime.epochs_executed)
            .sum();
        assert!(epochs >= 1, "the deferred batch ran through the pool");
    }

    #[test]
    fn unpartitionable_plans_collapse_to_one_shard() {
        for backend in [
            ExecutionBackend::Pool { workers: 8 },
            ExecutionBackend::remote_inproc(8),
        ] {
            let engine = JoinEngine::new(
                equi_query(2, 1_000),
                ProbeStrategy::NestedLoop,
                false,
                backend.clone(),
            );
            assert_eq!(engine.shard_count(), 1, "{backend}");
            assert!(!engine.partitioner.is_partitioned(), "{backend}");
        }
    }

    #[test]
    fn remote_backend_rejects_an_empty_endpoint_list() {
        let empty = ExecutionBackend::Remote {
            endpoints: Vec::new(),
        };
        for backend in [empty, ExecutionBackend::remote_inproc(0)] {
            let query = equi_query(2, 1_000);
            let err = JoinEngine::try_new(query, ProbeStrategy::Auto, false, backend).unwrap_err();
            assert!(err.to_string().contains("at least one endpoint"), "{err}");
        }
    }

    #[test]
    fn invalid_policy_configs_are_rejected_where_the_engine_is_built() {
        let err = JoinEngine::try_new(
            equi_query(2, 1_000),
            ProbeStrategy::Auto,
            false,
            ExecutionBackend::Pool { workers: 0 },
        )
        .unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("no workers"), "{err}");
    }

    #[test]
    fn remote_backend_rejects_closure_conditions() {
        let streams =
            StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), 1_000).unwrap();
        let cond = Arc::new(mswj_join::PredicateFn::new(2, "opaque", |_| true));
        let query = JoinQuery::new("closure", streams, cond).unwrap();
        let err = JoinEngine::try_new(
            query,
            ProbeStrategy::Auto,
            false,
            ExecutionBackend::remote_inproc(2),
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("cannot cross a process boundary"),
            "{err}"
        );
    }

    #[test]
    fn remote_runtime_stats_carry_transport_counters() {
        let mut engine = JoinEngine::new(
            equi_query(2, 1_000),
            ProbeStrategy::Auto,
            false,
            ExecutionBackend::remote_inproc(2),
        );
        assert_eq!(engine.shard_count(), 2);
        let tuples: Vec<Tuple> = (0..100u64)
            .map(|s| tup((s % 2) as usize, s, s * 10, (s % 8) as i64))
            .collect();
        let mut done = 0usize;
        engine.push_batch(tuples, &mut |ev| {
            if matches!(ev, EngineEvent::Done(_)) {
                done += 1;
            }
        });
        engine.sync(&mut |ev| {
            if matches!(ev, EngineEvent::Done(_)) {
                done += 1;
            }
        });
        assert_eq!(done, 100);
        for stats in engine.shard_stats() {
            let rt = stats.runtime;
            assert!(rt.frames_sent >= 2, "setup + tasks: {rt:?}");
            assert_eq!(
                rt.frames_sent, rt.frames_received,
                "strict request/reply protocol: {rt:?}"
            );
            assert!(rt.bytes_sent > 0 && rt.bytes_received > 0, "{rt:?}");
            assert!(rt.epoch_rtt_nanos > 0, "epochs round-tripped: {rt:?}");
            assert_eq!(rt.epochs_enqueued, rt.epochs_executed, "{rt:?}");
        }
        // shard_stats() fetches operator counters over a barrier round-trip.
        let stats = engine.shard_stats();
        let results: u64 = stats.iter().map(|s| s.operator.results).sum();
        assert_eq!(results, engine.stats().results);
    }

    #[test]
    fn published_rtt_is_the_per_epoch_mean() {
        let telemetry = mswj_obs::Telemetry::new();
        let mut engine = JoinEngine::new(
            equi_query(2, 1_000),
            ProbeStrategy::Auto,
            false,
            ExecutionBackend::remote_inproc(2),
        );
        for batch in 0..2u64 {
            let tuples: Vec<Tuple> = (0..100u64)
                .map(|i| {
                    let s = batch * 100 + i;
                    tup((s % 2) as usize, s, s * 10, (s % 8) as i64)
                })
                .collect();
            engine.push_batch(tuples, &mut |_| {});
        }
        engine.sync(&mut |_| {});
        for (s, stats) in engine.shard_stats().iter().enumerate() {
            let rt = stats.runtime;
            ShardPublisher::new(telemetry.shard(s)).publish(&rt);
            assert!(rt.epochs_executed >= 2, "{rt:?}");
            let mean = rt.epoch_rtt_nanos / rt.epochs_executed;
            assert!(mean < rt.epoch_rtt_nanos, "{rt:?}");
            assert_eq!(telemetry.shard(s).rtt_nanos.get(), mean as f64, "{rt:?}");
        }
    }

    #[test]
    fn flush_without_pending_is_a_no_op() {
        let mut engine = JoinEngine::new(
            equi_query(2, 1_000),
            ProbeStrategy::Auto,
            false,
            ExecutionBackend::Sequential,
        );
        let mut events = 0u32;
        engine.flush(&mut |_| events += 1);
        engine.sync(&mut |_| events += 1);
        assert_eq!(events, 0);
        assert!(!engine.has_pending());
        assert!(!engine.has_outstanding());
        assert_eq!(engine.backend(), &ExecutionBackend::Sequential);
        assert_eq!(engine.on_t(), Timestamp::ZERO);
    }
}
