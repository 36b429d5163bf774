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
//! computes the per-probe expiry counts and cross-join sizes `n_x(e)` (via
//! a global occupancy tracker, so adaptive policies see identical
//! statistics on every backend).  Shards only maintain their windows and
//! answer probes; a shard's own `onT` may lag the global one, which is why
//! late tuples reach it through [`MswjOperator::insert_late`] instead of
//! `push_with`.  The sequential shard is the unsharded operator: it sees
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
//! // ShardRuntimeStats: routing volume and queue pressure per shard — the
//! // raw signal behind skew detection.
//! for s in 0..engine.shard_count() {
//!     let rt = engine.runtime_stats(s);
//!     assert!(rt.routed > 0, "8 keys spread over 4 shards");
//!     assert!(rt.max_queue_depth as u64 <= rt.routed);
//! }
//! assert_eq!(engine.heavy_hitter(), None, "this workload is balanced");
//! ```
//!
//! ## Determinism
//!
//! Events are emitted in staging order; a broadcast tuple's results are
//! merged in shard order.  The [`ExecutionBackend::Sequential`] backend is
//! byte-identical to the pre-engine pipeline; `Pool { workers: n }` and
//! `Remote` produce the same result multiset
//! (and, because `n_x(e)` is computed globally, the same adaptation
//! trajectory) for any `n` — pinned by `tests/differential_backends.rs`.
//!
//! ## Skew: detection and hot-key splitting
//!
//! Hash routing pins each key class to one shard, so a hot key turns "n
//! shards" into one.  Two mechanisms respond, both driven by the windowed
//! per-shard routing counters (see [`JoinEngine::heavy_hitter`] and the
//! [`skew`] module):
//!
//! * **Detection** is always on: when one shard takes the majority of an
//!   evaluation window's routed items, a warning is logged (re-armed once
//!   the imbalance clears, so late-emerging hot keys are reported too).
//! * **Splitting** is opt-in ([`JoinEngine::try_with_policies`], or
//!   `SessionBuilder::skew_splitting` through the pipeline): a detected hot
//!   key class switches to *replicated build / split probe* routing — its
//!   inserts fan out to every shard's build state, each of its probes runs
//!   on one shard round-robin, and the deterministic shard-order merge
//!   keeps output byte-identical to the single-shard path.  Transitions
//!   only happen at epoch barriers (no work in flight), the live build
//!   state of the class is migrated/purged at the same barrier, and every
//!   transition is recorded in [`JoinEngine::skew_transitions`].
//!
//! See `docs/ARCHITECTURE.md` for the full contract.
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
pub mod replan;
mod shards;
pub mod skew;
pub mod transport;

use mswj_join::{
    JoinQuery, JoinResult, OperatorStats, Partitioner, ProbeOutcome, ProbePlan, ProbeStrategy,
    Route, RoutingTable,
};
use mswj_obs::{EventKind, ShardInstruments, Telemetry, TelemetryEvent};
use mswj_types::{Duration, Error, StreamIndex, Timestamp, Tuple};
// One queued unit of shard work (`seq`: the staged tuple's position in its
// batch; `probe`: in-order → `push_with`, globally late → `insert_late`) and
// one shard's contribution to a probing tuple's outcome.  The wire
// protocol's own types, so a remote epoch ships and returns them as they are.
use mswj_wire::{WireItem as Item, WireSub as SubOutcome};
use occupancy::Occupancy;
pub use replan::{PlanAction, PlanTransition, ReplanConfig};
use replan::{ReplanState, StreamTally};
use shards::ShardSet;
use skew::SkewDetector;
pub use skew::{SkewConfig, SkewTransition};
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
    /// Construct through [`JoinEngine::try_with_policies`] /
    /// `SessionBuilder` to get connection errors as `Result`s.
    Remote {
        /// Where each shard server lives; one shard per entry.
        endpoints: Vec<Endpoint>,
    },
}

impl ExecutionBackend {
    /// One in-process remote shard server per shard, each behind a Unix
    /// socket pair: every epoch round-trips through the full wire codec
    /// without a listener or a second process.  The cheapest way to
    /// exercise [`ExecutionBackend::Remote`].
    pub fn remote_inproc(shards: usize) -> Self {
        ExecutionBackend::Remote {
            endpoints: vec![Endpoint::InProc; shards.max(1)],
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

/// The globally decided part of one staged tuple's outcome on a sharded
/// set.  A shard holds an item for the tuple exactly when it is `inserted`.
#[derive(Debug, Clone, Copy)]
struct Decision {
    /// The tuple's stream — keyed per-stream probe/match tallies at the
    /// sequential-equivalent merge point.
    stream: usize,
    ts: Timestamp,
    delay: Duration,
    in_order: bool,
    inserted: bool,
    n_cross: u64,
    expired: usize,
}

/// Executor runtime counters for one shard, beyond the shard operator's own
/// [`OperatorStats`] — the first visibility layer for key skew and queue
/// pressure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardRuntimeStats {
    /// Work items routed to this shard over the engine's lifetime
    /// (broadcast tuples count once per shard).
    pub routed: u64,
    /// High-water mark of the shard's work queue: the most items ever
    /// staged for this shard before an executor drained them.
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
    /// Connection attempts beyond the first while establishing the link
    /// (`Remote` backend).
    pub reconnects: u64,
    /// Plan revisions (pair switches, probe reorders, index demotions) the
    /// runtime re-planner applied to this shard's operator.
    pub plan_revisions: u64,
    /// Tuples adopted into this shard's windows by pair-switch state
    /// migration.
    pub migrated_tuples: u64,
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
/// the one place shard gauges are set, for the engine's shards and for a
/// shard server's connections alike.  Strictly observe-only.
pub(crate) struct ShardPublisher {
    scope: Arc<ShardInstruments>,
    /// The previous publication (or attach/connect) and the shard's
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
    enumerate: bool,
    on_t: Timestamp,
    started: bool,
    /// The sharded sets' global view of window cardinalities; empty on the
    /// sequential shard, whose operator reports expiry and `n_x(e)` itself.
    occupancy: Occupancy,
    stats: OperatorStats,
    runtime: Vec<ShardRuntimeStats>,
    /// Which key classes are currently replicated-build / split-probe.
    table: RoutingTable,
    /// The windowed hot-key detector; `None` unless splitting was opted
    /// into *and* the plan supports it (every stream key-routed).
    detector: Option<SkewDetector>,
    /// Every split/unsplit transition taken, in decision order.
    transitions: Vec<SkewTransition>,
    /// The runtime re-planner; `None` unless re-planning was opted into.
    replan: Option<ReplanState>,
    /// Engine-global per-stream probe/match tallies — the observed match
    /// rates behind probe reordering.  Maintained unconditionally (a few
    /// adds per finished tuple) so arming re-planning never changes what
    /// the engine observes.
    tally: Vec<StreamTally>,
    /// The satellite stream currently key-routed with the star anchor
    /// (`None` for non-star plans).
    star_partner: Option<usize>,
    /// Every plan revision taken, in decision order.
    plan_transitions: Vec<PlanTransition>,
    /// Round-robin cursor choosing the probe shard of split-routed tuples.
    split_rr: u64,
    /// Per-shard `routed` snapshot at the last skew-evaluation window
    /// reset: `routed - hh_base` is the windowed routing volume.
    hh_base: Vec<u64>,
    /// The shard last warned about as a heavy hitter; cleared (re-armed)
    /// when an evaluation window comes back balanced.
    hh_warned: Option<usize>,
    /// Reusable staging / execution buffers (capacity persists across
    /// batches, so a steady-state flush allocates nothing on any executor
    /// path).  The sequential shard's tuples awaiting the next
    /// [`JoinEngine::flush`] and how many of them its scope check admitted;
    /// on a sharded set, one decision per staged tuple, the per-shard
    /// queues of routed items, the drained shards' sub-outcomes and
    /// materialized results, and the merge's `(sub, mat)` read cursors.
    staged: Vec<Tuple>,
    staged_inserted: usize,
    decisions: Vec<Decision>,
    queues: Vec<VecDeque<Item>>,
    sub: Vec<Vec<SubOutcome>>,
    mat: Vec<Vec<(u32, JoinResult)>>,
    cursors: Vec<(usize, usize)>,
    /// The deferred epoch of the depth-1 pipeline, if any: its id and the
    /// [`RoutingTable`] epoch its items were routed under.  Routing
    /// transitions only happen at barriers, so that must still be the
    /// table's epoch when the tasks come back — asserted at collection.
    outstanding: Option<(u64, u64)>,
    next_epoch: u64,
    /// The deferred epoch's routing decisions, in staging order (consumed
    /// by the deterministic merge at collection; swapped with `decisions`
    /// at submission, so both keep their capacity).
    deferred: Vec<Decision>,
    /// Which shards hold a task of the deferred epoch.
    in_flight: Vec<bool>,
    /// The attached telemetry registry, if any.  Strictly observe-only:
    /// nothing the engine reads from it feeds back into routing, merging
    /// or plan decisions, so an attached handle cannot change a produced
    /// byte.  Instruments are only touched at idle barriers (events,
    /// gauge publication) — never inside the per-tuple execution path.
    telemetry: Option<Telemetry>,
    /// One gauge publisher per shard, resolved at attach time so
    /// publication does no registry locking; empty without telemetry.
    publishers: Vec<ShardPublisher>,
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
    /// Panics if the `Remote` backend cannot be set up; use
    /// [`JoinEngine::try_with_policies`] for a `Result`.
    ///
    /// [`MswjOperator`]: mswj_join::MswjOperator
    pub fn new(
        query: JoinQuery,
        strategy: ProbeStrategy,
        enumerate: bool,
        backend: ExecutionBackend,
    ) -> Self {
        Self::try_with_policies(query, strategy, enumerate, backend, None, None)
            .expect("remote backend setup failed (use try_with_policies for a Result)")
    }

    /// The fallible, fully-armed form of [`JoinEngine::new`].  The `Remote`
    /// backend validates its endpoint list, requires a wire-expressible
    /// join condition, and connects + handshakes with every shard server
    /// here — each failure comes back as [`Error::InvalidConfig`].  The
    /// local backends never fail.
    ///
    /// `skew: Some(_)` arms adaptive hot-key splitting: key classes crossing
    /// [`SkewConfig::split_share`] of a detection window switch to
    /// replicated-build / split-probe routing (and revert below
    /// [`SkewConfig::unsplit_share`]).  The knob is ignored (no detector is
    /// armed) when the plan cannot split soundly — broadcast streams or a
    /// single shard; see [`Partitioner::supports_splitting`].
    ///
    /// `replan: Some(_)` arms runtime probe re-planning: the engine may
    /// re-select the star partition pair to the heaviest
    /// observed-cardinality satellite (migrating window state, so only
    /// light streams stay on the broadcast path), reorder the m-way probe
    /// chain by observed match rates, or demote the hash index to the
    /// nested-loop scan when the fallback share shows maintenance stopped
    /// paying.  Every revision lands in [`JoinEngine::plan_transitions`].
    ///
    /// Both layers act at [`JoinEngine::sync`] barriers only, from
    /// engine-global statistics, so routing never changes while work is in
    /// flight and every backend takes identical decisions.
    pub fn try_with_policies(
        query: JoinQuery,
        strategy: ProbeStrategy,
        enumerate: bool,
        backend: ExecutionBackend,
        skew: Option<SkewConfig>,
        replan: Option<ReplanConfig>,
    ) -> Result<Self, Error> {
        let equi = query.condition().equi_structure();
        let plan = ProbePlan::new(strategy, equi.as_ref());
        let partitioner = Partitioner::new(&plan, backend.requested_shards());
        let n = partitioner.shard_count();
        let shards = ShardSet::open(&backend, n, &query, strategy, enumerate)?;
        let (m, local) = (query.arity(), matches!(shards, ShardSet::Local(_)));
        let detector = skew
            .filter(|_| partitioner.supports_splitting())
            .map(SkewDetector::new);
        let replan = replan.map(|config| ReplanState::new(config, m));
        let star_partner = Partitioner::default_star_partner(&plan);
        Ok(JoinEngine {
            shards,
            partitioner,
            backend,
            plan,
            enumerate,
            on_t: Timestamp::ZERO,
            started: false,
            occupancy: Occupancy::new(if local { 0 } else { m }),
            stats: OperatorStats::default(),
            runtime: vec![ShardRuntimeStats::default(); n],
            table: RoutingTable::new(),
            detector,
            transitions: Vec::new(),
            replan,
            tally: vec![StreamTally::default(); m],
            star_partner,
            plan_transitions: Vec::new(),
            split_rr: 0,
            hh_base: vec![0; n],
            hh_warned: None,
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
            telemetry: None,
            publishers: Vec::new(),
            query,
        })
    }

    /// Attaches a telemetry registry, pre-registering one instrument scope
    /// per shard.  Observe-only: the engine publishes runtime gauges into
    /// it at barriers and routes structured events (heavy-hitter warnings,
    /// skew and plan transitions) through its bounded ring instead of
    /// stderr.  Attaching telemetry never changes a produced byte.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.publishers = (0..self.shard_count())
            .map(|s| ShardPublisher::new(telemetry.shard(s)))
            .collect();
        self.telemetry = Some(telemetry);
    }

    /// The attached telemetry registry, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Emits a structured event into the attached telemetry ring (no-op
    /// without one).  Runs at barriers only — it may lock and allocate.
    fn telemetry_event(&self, kind: EventKind, message: String) {
        if let Some(t) = &self.telemetry {
            t.emit(TelemetryEvent {
                at_ms: self.on_t.as_millis(),
                kind,
                message,
            });
        }
    }

    /// Publishes the per-shard runtime gauges (queue depth, busy share,
    /// window bytes/segments, transport counters) into the attached
    /// telemetry registry; a no-op without one.  Must be called with the
    /// engine idle (the pipeline does so right after its checkpoint
    /// barrier); on the `Remote` backend this runs one extra barrier
    /// round-trip per shard to sample the server-side window footprint.
    pub fn publish_telemetry(&mut self) {
        if self.publishers.is_empty() {
            return;
        }
        let stats = self.shard_stats();
        for (publisher, stat) in self.publishers.iter_mut().zip(&stats) {
            publisher.publish(&stat.runtime);
        }
    }

    /// The backend this engine executes with.
    pub fn backend(&self) -> &ExecutionBackend {
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

    /// The executor runtime counters of shard `s`, including the transport
    /// counters on the `Remote` backend.
    pub fn runtime_stats(&self, s: usize) -> ShardRuntimeStats {
        let mut rt = self.runtime[s];
        self.shards.fold_runtime(s, &mut rt);
        rt
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

    /// The routing rules in force.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// The probe access path shared by every shard.
    pub fn probe_plan(&self) -> &ProbePlan {
        &self.plan
    }

    /// The global high-water timestamp `onT` — the watermark of the merged
    /// result stream.
    pub fn on_t(&self) -> Timestamp {
        self.on_t
    }

    /// Whether the engine materializes results.
    pub fn is_enumerating(&self) -> bool {
        self.enumerate
    }

    /// Whether adaptive hot-key splitting is armed on this engine (opted
    /// in *and* supported by the plan).
    pub fn skew_splitting_enabled(&self) -> bool {
        self.detector.is_some()
    }

    /// The key classes (by [`mswj_join::join_key_hash`]) currently routed as
    /// replicated-build / split-probe, sorted ascending.
    pub fn split_classes(&self) -> &[u64] {
        self.table.split_classes()
    }

    /// Every split/unsplit transition the skew detector has taken, in
    /// decision order.
    pub fn skew_transitions(&self) -> &[SkewTransition] {
        &self.transitions
    }

    /// Whether runtime probe re-planning is armed on this engine.
    pub fn replanning_enabled(&self) -> bool {
        self.replan.is_some()
    }

    /// The satellite stream currently key-routed with the star anchor —
    /// the planner's blind default until a pair switch re-selects it.
    /// `None` for non-star plans.
    pub fn star_partner(&self) -> Option<usize> {
        self.star_partner
    }

    /// Every plan revision the runtime re-planner has taken, in decision
    /// order.
    pub fn plan_transitions(&self) -> &[PlanTransition] {
        &self.plan_transitions
    }

    /// The routing-table version: bumped by every hot-key split/unsplit
    /// and by every partition-pair switch.
    pub fn routing_epoch(&self) -> u64 {
        self.table.epoch()
    }

    /// Stages one synchronized tuple for the next [`JoinEngine::flush`]:
    /// classify it against the global `onT` and scope-check it.  The
    /// sequential shard takes the tuple as it is; a sharded set also
    /// replays the global expiry/occupancy accounting and routes the tuple
    /// at once.  Routing state (table, detector, split cursor) only changes
    /// at idle barriers, so staging early routes under the same state a
    /// flush would.
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
            if inserted {
                self.staged_inserted += 1;
                self.note_routed(0, self.staged_inserted);
            }
            return;
        }
        let (mut expired, mut n_cross) = (0usize, 0u64);
        if in_order {
            n_cross = 1;
            for j in (0..self.query.arity()).filter(|&j| j != i) {
                let bound = ts.saturating_sub_duration(self.query.window(StreamIndex(j)));
                expired += self.occupancy.expire(j, bound);
                n_cross = n_cross.saturating_mul(self.occupancy.len(j) as u64);
            }
        }
        if inserted {
            self.occupancy.insert(i, ts);
            self.enqueue(self.decisions.len() as u32, in_order, tuple);
        }
        self.decisions.push(Decision {
            stream: i,
            ts,
            delay,
            in_order,
            inserted,
            n_cross,
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
        self.flush_impl(f, false);
    }

    /// The barrier flavour of [`JoinEngine::flush`]: additionally collects
    /// any deferred epoch, so every staged tuple's events have been
    /// delivered — and every shard is idle — when this returns.
    pub fn sync(&mut self, f: &mut dyn FnMut(EngineEvent<'_>)) {
        self.flush_impl(f, true);
    }

    fn flush_impl(&mut self, f: &mut dyn FnMut(EngineEvent<'_>), barrier: bool) {
        self.execute_pending(f, barrier);
        if barrier {
            self.at_idle_barrier();
        }
    }

    /// Every shard is idle after a barrier flush — every queue drained, no
    /// epoch outstanding: the only point where routing may change, state
    /// may migrate and the plan may be revised.  That is what makes a
    /// routing change an epoch barrier (in-flight work always executes
    /// under the table it was routed with), and it is also what makes the
    /// decisions backend-invariant, because barriers sit at
    /// workload-determined points (checkpoints, buffer-size changes, end of
    /// stream).
    fn at_idle_barrier(&mut self) {
        debug_assert!(
            self.outstanding.is_none()
                && !self.has_pending()
                && self.queues.iter().all(VecDeque::is_empty),
            "skew evaluation and plan revision require an idle engine"
        );
        self.evaluate_skew();
        self.evaluate_replan();
    }

    fn execute_pending(&mut self, f: &mut dyn FnMut(EngineEvent<'_>), barrier: bool) {
        if let Some(op) = self.shards.local() {
            exec::run_local(
                op,
                &mut self.staged,
                std::mem::take(&mut self.staged_inserted),
                &mut self.stats,
                &mut self.tally,
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
            &mut self.tally,
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
        let routing_epoch = self.table.epoch();
        for (s, queue) in self.queues.iter_mut().enumerate() {
            self.in_flight[s] = !queue.is_empty();
            if self.in_flight[s] {
                self.runtime[s].epochs_enqueued += 1;
                let (sub, mat) = (&mut self.sub[s], &mut self.mat[s]);
                self.shards.submit(s, epoch, routing_epoch, queue, sub, mat);
            }
        }
        debug_assert!(self.deferred.is_empty(), "one epoch in flight at most");
        std::mem::swap(&mut self.decisions, &mut self.deferred);
        self.outstanding = Some((epoch, routing_epoch));
    }

    /// Collects the deferred epoch's outputs in shard order (re-raising any
    /// worker panic) and merges the buffers into the deterministic event
    /// stream.
    fn collect_outstanding(&mut self, f: &mut dyn FnMut(EngineEvent<'_>)) {
        let Some((epoch, routing_epoch)) = self.outstanding.take() else {
            return;
        };
        debug_assert_eq!(
            routing_epoch,
            self.table.epoch(),
            "routing transitions must wait for the outstanding epoch"
        );
        for s in (0..self.in_flight.len()).filter(|&s| self.in_flight[s]) {
            let (sub, mat) = (&mut self.sub[s], &mut self.mat[s]);
            let out = self.shards.collect(s, epoch, sub, mat);
            debug_assert_eq!(
                out.routing_epoch, routing_epoch,
                "routing changed while an epoch was in flight"
            );
            self.runtime[s].busy_nanos += out.busy_nanos;
            self.runtime[s].epochs_executed += 1;
        }
        exec::merge_epoch(
            &self.deferred,
            &mut self.sub,
            &mut self.mat,
            &mut self.cursors,
            &mut self.stats,
            &mut self.tally,
            f,
        );
        self.deferred.clear();
    }

    /// Queues one tuple's shard work according to its route, maintaining
    /// the per-shard routing-volume and queue-depth counters.  Key-routed
    /// tuples feed the skew detector and consult the [`RoutingTable`]: a
    /// split class fans its tuple out to every shard, but flags it as a
    /// *probe* on exactly one — chosen round-robin so the hot class's probe
    /// work spreads evenly — while the remaining shards only maintain their
    /// replica windows (insert, expire).  Every replica sees the same tuple
    /// sequence, so any shard answers a split probe with the full class.
    fn enqueue(&mut self, seq: u32, probe: bool, tuple: Tuple) {
        let route = match self.partitioner.key_hash(&tuple) {
            Some(hash) => {
                if let Some(det) = &mut self.detector {
                    det.observe(hash);
                }
                if self.table.is_split(hash) {
                    Route::Split
                } else {
                    Route::One(self.partitioner.home_shard(hash))
                }
            }
            None => self.partitioner.route(&tuple),
        };
        match route {
            Route::One(s) => {
                self.queues[s].push_back(Item { seq, probe, tuple });
                self.note_routed(s, self.queues[s].len());
            }
            Route::All => self.fan_out(seq, probe, self.queues.len(), tuple),
            Route::Split => {
                let n = self.queues.len();
                let p = (self.split_rr % n as u64) as usize;
                if probe {
                    // Late (probe-less) split tuples only maintain the
                    // replicas; they must not advance the probe cursor, or
                    // disorder would perturb the probe placement sequence.
                    self.split_rr = self.split_rr.wrapping_add(1);
                }
                self.fan_out(seq, probe, p, tuple);
            }
        }
    }

    /// Pushes `tuple` to every shard queue, flagged as a probe only on
    /// shard `p` (`p >= shard count` means "probe everywhere", the
    /// broadcast case).
    fn fan_out(&mut self, seq: u32, probe: bool, p: usize, tuple: Tuple) {
        let last = self.queues.len() - 1;
        for s in 0..last {
            self.queues[s].push_back(Item {
                seq,
                probe: probe && (s == p || p > last),
                tuple: tuple.clone(),
            });
            self.note_routed(s, self.queues[s].len());
        }
        self.queues[last].push_back(Item {
            seq,
            probe: probe && p >= last,
            tuple,
        });
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
    use mswj_join::{join_key_hash, CommonKeyEquiJoin, MswjOperator, StarEquiJoin};
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
            // The runtime counters count inserted tuples: all of them, and
            // the most staged between two flushes.
            let inserted = |os: &[ProbeOutcome]| os.iter().filter(|o| o.inserted).count();
            let rt = engine.runtime_stats(0);
            assert_eq!(rt.routed, inserted(&want) as u64, "chunk {chunk}");
            let depth = want.chunks(chunk).map(inserted).max().unwrap();
            assert_eq!(rt.max_queue_depth, depth, "chunk {chunk}");
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
    fn heavy_hitter_detection_fires_on_skew() {
        let mut engine = JoinEngine::new(
            equi_query(2, 10_000),
            ProbeStrategy::Auto,
            false,
            ExecutionBackend::Pool { workers: 4 },
        );
        // Every tuple carries the same key: one shard takes 100% of the
        // routed events.
        let tuples: Vec<Tuple> = (0..1_200u64)
            .map(|s| tup((s % 2) as usize, s, s * 2, 7))
            .collect();
        assert_eq!(engine.heavy_hitter(), None, "too little evidence yet");
        engine.push_batch(tuples, &mut |_| {});
        let hot = engine.heavy_hitter().expect("constant key must trip");
        assert_eq!(engine.runtime_stats(hot).routed, 1_200);
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
            assert!(!engine.partitioner().is_partitioned(), "{backend}");
        }
    }

    #[test]
    fn remote_backend_rejects_an_empty_endpoint_list() {
        let err = JoinEngine::try_with_policies(
            equi_query(2, 1_000),
            ProbeStrategy::Auto,
            false,
            ExecutionBackend::Remote {
                endpoints: Vec::new(),
            },
            None,
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("at least one endpoint"), "{err}");
    }

    #[test]
    fn remote_backend_rejects_closure_conditions() {
        let streams =
            StreamSet::homogeneous(2, Schema::new(vec![("a1", FieldType::Int)]), 1_000).unwrap();
        let cond = Arc::new(mswj_join::PredicateFn::new(2, "opaque", |_| true));
        let query = JoinQuery::new("closure", streams, cond).unwrap();
        let err = JoinEngine::try_with_policies(
            query,
            ProbeStrategy::Auto,
            false,
            ExecutionBackend::remote_inproc(2),
            None,
            None,
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
        for s in 0..engine.shard_count() {
            let rt = engine.runtime_stats(s);
            assert!(rt.frames_sent >= 3, "hello + setup + tasks: {rt:?}");
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
        let telemetry = Telemetry::new();
        let mut engine = JoinEngine::new(
            equi_query(2, 1_000),
            ProbeStrategy::Auto,
            false,
            ExecutionBackend::remote_inproc(2),
        );
        engine.attach_telemetry(telemetry.clone());
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
        engine.publish_telemetry();
        for s in 0..engine.shard_count() {
            let rt = engine.runtime_stats(s);
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
        assert!(!engine.is_enumerating());
        assert_eq!(engine.on_t(), Timestamp::ZERO);
    }

    /// Aggressive thresholds so small test workloads trigger transitions.
    fn test_skew() -> SkewConfig {
        SkewConfig {
            split_share: 0.4,
            unsplit_share: 0.2,
            min_routed: 64,
        }
    }

    fn skewed(
        query: JoinQuery,
        strategy: ProbeStrategy,
        enumerate: bool,
        backend: ExecutionBackend,
    ) -> JoinEngine {
        JoinEngine::try_with_policies(query, strategy, enumerate, backend, Some(test_skew()), None)
            .unwrap()
    }

    /// Runs `tuples` in batches of `chunk` with a `sync` barrier after each
    /// batch (so skew windows are evaluated), returning sorted results,
    /// outcomes and stats.
    fn run_synced(
        engine: &mut JoinEngine,
        tuples: &[Tuple],
        chunk: usize,
    ) -> (Vec<String>, Vec<ProbeOutcome>, OperatorStats) {
        let mut results = Vec::new();
        let mut outcomes = Vec::new();
        let mut handler = |ev: EngineEvent<'_>| match ev {
            EngineEvent::Result(r) => results.push(r.to_string()),
            EngineEvent::Done(o) => outcomes.push(o),
        };
        for batch in tuples.chunks(chunk) {
            engine.push_batch(batch.iter().cloned(), &mut handler);
            engine.sync(&mut handler);
        }
        results.sort();
        (results, outcomes, engine.stats())
    }

    #[test]
    fn hot_key_splitting_replicates_state_and_preserves_results() {
        // 60% of the traffic on key 7, the rest spread over cold keys.
        let tuples: Vec<Tuple> = (0..600u64)
            .map(|s| {
                let key = if s % 10 < 6 { 7 } else { 100 + (s % 40) as i64 };
                tup((s % 2) as usize, s, s * 2, key)
            })
            .collect();
        let (want_res, want_out, want_stats) = run(ExecutionBackend::Sequential, true, &tuples);
        for backend in [
            ExecutionBackend::Pool { workers: 2 },
            ExecutionBackend::Pool { workers: 3 },
        ] {
            let mut engine = skewed(
                equi_query(2, 1_000),
                ProbeStrategy::Auto,
                true,
                backend.clone(),
            );
            assert!(engine.skew_splitting_enabled(), "{backend}");
            let (res, out, stats) = run_synced(&mut engine, &tuples, 100);
            let hot = join_key_hash(Some(&Value::Int(7)));
            assert_eq!(
                engine.split_classes(),
                &[hot],
                "the hot class must have split [{backend}]"
            );
            let first = engine.skew_transitions().first().expect("one transition");
            assert!(first.split && first.key_hash == hot && first.share > 0.4);
            // Replicated build: every shard holds the hot class's tuples.
            for s in 0..engine.shard_count() {
                for i in 0..2 {
                    assert!(
                        engine
                            .shard(s)
                            .window(StreamIndex(i))
                            .iter()
                            .any(|t| t.value(0) == Some(&Value::Int(7))),
                        "shard {s} stream {i} must hold hot-class replicas [{backend}]"
                    );
                }
            }
            // ... and the probe work spreads: no shard took a majority of
            // the post-split routed volume.
            assert_eq!(res, want_res, "result multiset diverged [{backend}]");
            assert_eq!(want_out.len(), out.len(), "{backend}");
            for (a, b) in want_out.iter().zip(&out) {
                assert_eq!(a.n_join, b.n_join, "{backend}");
                assert_eq!(a.n_cross, b.n_cross, "{backend}");
            }
            assert_eq!(want_stats.results, stats.results, "{backend}");
            assert_eq!(want_stats.in_order, stats.in_order, "{backend}");
            assert_eq!(want_stats.expired, stats.expired, "{backend}");
        }
    }

    #[test]
    fn cooled_hot_key_unsplits_and_purges_replicas() {
        let hot_phase: Vec<Tuple> = (0..300u64)
            .map(|s| {
                let key = if s % 10 < 6 { 7 } else { 100 + (s % 40) as i64 };
                tup((s % 2) as usize, s, s * 2, key)
            })
            .collect();
        // The cold phase spreads traffic evenly; timestamps advance past
        // the window so the hot tuples also expire.
        let cold_phase: Vec<Tuple> = (300..900u64)
            .map(|s| tup((s % 2) as usize, s, 20_000 + s * 2, 100 + (s % 40) as i64))
            .collect();
        let mut engine = skewed(
            equi_query(2, 2_000),
            ProbeStrategy::Auto,
            false,
            ExecutionBackend::Pool { workers: 3 },
        );
        let hot = join_key_hash(Some(&Value::Int(7)));
        run_synced(&mut engine, &hot_phase, 150);
        assert_eq!(engine.split_classes(), &[hot], "hot phase must split");
        run_synced(&mut engine, &cold_phase, 150);
        assert!(
            engine.split_classes().is_empty(),
            "cold traffic must revert the split"
        );
        let trans = engine.skew_transitions();
        assert!(trans.len() >= 2);
        assert!(trans.first().unwrap().split);
        assert!(!trans.last().unwrap().split);
        // Replicas purged: only the home shard may still hold hot-class
        // tuples (and here even those expired with the window).
        let home = engine.partitioner().home_shard(hot);
        for s in (0..engine.shard_count()).filter(|&s| s != home) {
            for i in 0..2 {
                assert!(
                    !engine
                        .shard(s)
                        .window(StreamIndex(i))
                        .iter()
                        .any(|t| t.value(0) == Some(&Value::Int(7))),
                    "shard {s} stream {i} must have purged its replicas"
                );
            }
        }
    }

    #[test]
    fn late_emerging_hot_key_still_trips_detection() {
        // Regression: the detector judges *windows*, not lifetime counters.
        // A long balanced phase must not dilute a later hot key below the
        // majority threshold (1_200 hot of 5_296 total is only ~23%
        // lifetime), and the warning must re-arm after a balanced window.
        let mut engine = JoinEngine::new(
            equi_query(2, 100_000),
            ProbeStrategy::Auto,
            false,
            ExecutionBackend::Pool { workers: 4 },
        );
        let balanced: Vec<Tuple> = (0..4_096u64)
            .map(|s| tup((s % 2) as usize, s, s * 2, (s % 64) as i64))
            .collect();
        engine.push_batch(balanced, &mut |_| {});
        engine.sync(&mut |_| {});
        assert_eq!(engine.heavy_hitter(), None, "balanced window");
        let hot: Vec<Tuple> = (4_096..5_296u64)
            .map(|s| tup((s % 2) as usize, s, s * 2, 7))
            .collect();
        engine.push_batch(hot, &mut |_| {});
        let s = engine
            .heavy_hitter()
            .expect("a late hot key must trip windowed detection");
        let windowed = engine.runtime_stats(s).routed;
        assert!(windowed >= 1_200, "the hot window counts from its own base");
    }

    #[test]
    fn splitting_is_inert_when_the_plan_cannot_split() {
        // Nested-loop plans collapse to one broadcast shard: no detector.
        let engine = skewed(
            equi_query(2, 1_000),
            ProbeStrategy::NestedLoop,
            false,
            ExecutionBackend::Pool { workers: 4 },
        );
        assert!(!engine.skew_splitting_enabled());
        // Single-shard backends cannot redistribute anything either.
        let engine = skewed(
            equi_query(2, 1_000),
            ProbeStrategy::Auto,
            false,
            ExecutionBackend::Sequential,
        );
        assert!(!engine.skew_splitting_enabled());
    }

    /// Aggressive re-planning thresholds so small test workloads revise.
    fn test_replan() -> ReplanConfig {
        ReplanConfig {
            min_probes: 64,
            switch_ratio: 1.5,
            demote_fallback_share: 0.5,
            reorder_margin: 1.2,
        }
    }

    /// 3-way star: anchor S1(a1, a2) joined with S2(a1) and S3(a2) — the
    /// blind default partitions the (S1, S2) pair, broadcasting S3.
    fn star_query(window: u64) -> JoinQuery {
        let streams = StreamSet::new(vec![
            StreamSpec::new(
                "S1",
                Schema::new(vec![("a1", FieldType::Int), ("a2", FieldType::Int)]),
                window,
            ),
            StreamSpec::new("S2", Schema::new(vec![("a1", FieldType::Int)]), window),
            StreamSpec::new("S3", Schema::new(vec![("a2", FieldType::Int)]), window),
        ])
        .unwrap();
        let cond =
            Arc::new(StarEquiJoin::new(&streams, 0, &[(1, "a1", "a1"), (2, "a2", "a2")]).unwrap());
        JoinQuery::new("engine-star", streams, cond).unwrap()
    }

    fn replanned(query: JoinQuery, enumerate: bool, backend: ExecutionBackend) -> JoinEngine {
        JoinEngine::try_with_policies(
            query,
            ProbeStrategy::Auto,
            enumerate,
            backend,
            None,
            Some(test_replan()),
        )
        .unwrap()
    }

    #[test]
    fn probe_reorder_fires_and_preserves_results() {
        // Asymmetric 3-way arrival rates: stream 1 floods (large window, so
        // probes *into* it are productive and probes *from* it are not),
        // stream 0 trickles.  Per-stream match rates then order ascending
        // as (1, 2, 0) — an inversion of the static (0, 1, 2) chain.
        let mut tuples = Vec::new();
        let mut seq = 0u64;
        for round in 0..120u64 {
            let ts = round * 4;
            let mut push = |stream: usize, key: i64| {
                tuples.push(tup(stream, seq, ts, key));
                seq += 1;
            };
            push(1, (round % 2) as i64);
            push(1, ((round + 1) % 2) as i64);
            push(1, (round % 2) as i64);
            push(2, (round % 2) as i64);
            if round % 4 == 0 {
                push(0, (round % 2) as i64);
            }
        }
        let mut reference = JoinEngine::new(
            equi_query(3, 400),
            ProbeStrategy::Auto,
            true,
            ExecutionBackend::Sequential,
        );
        let (want_res, _, want_stats) = run_synced(&mut reference, &tuples, 100);
        let mut engine = replanned(equi_query(3, 400), true, ExecutionBackend::Sequential);
        assert!(engine.replanning_enabled());
        let (res, _, stats) = run_synced(&mut engine, &tuples, 100);
        assert_eq!(res, want_res, "a reorder is a pure access-path change");
        assert_eq!(stats.results, want_stats.results);
        assert_eq!(stats.in_order, want_stats.in_order);
        let order = engine
            .plan_transitions()
            .iter()
            .find_map(|t| match &t.action {
                PlanAction::Reorder { order } => Some(order.clone()),
                _ => None,
            })
            .expect("the inverted match rates must trigger a reorder");
        assert_eq!(order[0], 1, "the flooded stream probes first: {order:?}");
        assert_eq!(engine.shard(0).probe_order(), &order[..]);
        assert!(engine.runtime_stats(0).plan_revisions >= 1);
    }

    #[test]
    fn index_demotion_fires_on_fallback_heavy_workloads() {
        // Float keys join numerically but defeat the hash index: every
        // probe takes the nested-loop fallback, so maintaining the index
        // is pure overhead and the re-planner drops it.
        let ftup = |stream: usize, seq: u64, ts: u64, key: i64| {
            Tuple::new(
                stream.into(),
                seq,
                Timestamp::from_millis(ts),
                vec![Value::Float(key as f64 + 0.5)],
            )
        };
        let tuples: Vec<Tuple> = (0..300u64)
            .map(|s| ftup((s % 2) as usize, s, s * 5, (s % 3) as i64))
            .collect();
        let (want_res, _, want_stats) = run(ExecutionBackend::Sequential, true, &tuples);
        let mut engine = replanned(
            equi_query(2, 1_000),
            true,
            ExecutionBackend::Pool { workers: 3 },
        );
        let (res, _, stats) = run_synced(&mut engine, &tuples, 100);
        assert_eq!(res, want_res, "a demotion never changes the multiset");
        assert_eq!(stats.results, want_stats.results);
        assert_eq!(stats.fallback_probes, want_stats.fallback_probes);
        assert!(
            engine
                .plan_transitions()
                .iter()
                .any(|t| t.action == PlanAction::DemoteIndex),
            "an all-fallback window must demote: {:?}",
            engine.plan_transitions()
        );
        for s in 0..engine.shard_count() {
            assert!(engine.runtime_stats(s).plan_revisions >= 1, "shard {s}");
        }
        // One-way: a single demotion, never a second.
        let demotions = engine
            .plan_transitions()
            .iter()
            .filter(|t| t.action == PlanAction::DemoteIndex)
            .count();
        assert_eq!(demotions, 1);
    }

    #[test]
    fn pair_switch_migrates_state_and_preserves_results() {
        // The blind default partitions (S1, S2), broadcasting S3 — but
        // stream 2 floods while stream 1 trickles, so every flood tuple is
        // replicated to all shards.  Key-routing the flood and
        // broadcasting the trickle is the right pairing; the switch
        // re-keys the anchor from a1 to a2, exercising the full
        // three-stream migration.
        let mut tuples = Vec::new();
        let mut seq = 0u64;
        for round in 0..100u64 {
            let ts = round * 4;
            tuples.push(tup_star(0, seq, ts, (round % 8) as i64, (round % 6) as i64));
            seq += 1;
            if round % 4 == 0 {
                tuples.push(tup(1, seq, ts, (round % 8) as i64));
                seq += 1;
            }
            for burst in 0..4u64 {
                tuples.push(tup(2, seq, ts, ((round + burst) % 6) as i64));
                seq += 1;
            }
        }
        fn tup_star(stream: usize, seq: u64, ts: u64, a1: i64, a2: i64) -> Tuple {
            Tuple::new(
                stream.into(),
                seq,
                Timestamp::from_millis(ts),
                vec![Value::Int(a1), Value::Int(a2)],
            )
        }
        let mut reference = JoinEngine::new(
            star_query(240),
            ProbeStrategy::Auto,
            true,
            ExecutionBackend::Sequential,
        );
        let (want_res, _, want_stats) = run_synced(&mut reference, &tuples, 100);
        for backend in [
            ExecutionBackend::Pool { workers: 4 },
            ExecutionBackend::remote_inproc(4),
        ] {
            let mut engine = replanned(star_query(240), true, backend.clone());
            assert_eq!(engine.star_partner(), Some(1), "blind default [{backend}]");
            let epoch_before = engine.routing_epoch();
            let (res, _, stats) = run_synced(&mut engine, &tuples, 100);
            assert_eq!(
                res, want_res,
                "migrated state must keep the multiset [{backend}]"
            );
            assert_eq!(stats.results, want_stats.results, "{backend}");
            assert_eq!(stats.in_order, want_stats.in_order, "{backend}");
            assert_eq!(stats.expired, want_stats.expired, "{backend}");
            assert_eq!(
                engine.star_partner(),
                Some(2),
                "the pair must re-select the trickle satellite [{backend}]"
            );
            assert!(
                engine
                    .plan_transitions()
                    .iter()
                    .any(|t| matches!(t.action, PlanAction::PairSwitch { from: 1, to: 2 })),
                "{backend}: {:?}",
                engine.plan_transitions()
            );
            assert!(
                engine.routing_epoch() > epoch_before,
                "a pair switch must bump the routing epoch [{backend}]"
            );
            let migrated: u64 = (0..engine.shard_count())
                .map(|s| engine.runtime_stats(s).migrated_tuples)
                .sum();
            assert!(migrated > 0, "window state must move [{backend}]");
        }
    }
}
