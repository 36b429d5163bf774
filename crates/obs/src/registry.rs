//! The pre-registered instrument registry behind the [`Telemetry`] handle.
//!
//! Every instrument a session can ever touch is declared here as a named
//! struct field, not looked up in a map: registration happens when the
//! handle (or a shard scope) is built, so steady-state ingestion performs
//! zero allocation and zero hashing — recording is a direct field access
//! plus a relaxed atomic.  Per-shard scopes are the only dynamic part;
//! they are created once, at engine construction (or shard-server
//! connection) time, behind a briefly-held mutex.
//!
//! Each instrument family has one table next to its struct — session
//! gauges, counters and histograms, shard gauges — and a row of it is the
//! only place a metric is named: both renderers loop over the tables.

use crate::events::{EventRing, TelemetryEvent};
use crate::instruments::{Counter, Gauge, Histogram};
use std::sync::{Arc, Mutex, MutexGuard};

/// One exported metric family: a row of a family table.
pub(crate) struct Family<S, I> {
    /// Prometheus family name.
    pub(crate) name: &'static str,
    /// JSON key: the name, unless the row says otherwise.
    pub(crate) key: &'static str,
    /// Prometheus `# HELP` text.
    pub(crate) help: &'static str,
    /// Prometheus `# TYPE`.
    pub(crate) kind: &'static str,
    /// The instrument within its scope.
    pub(crate) field: fn(&S) -> &I,
}

impl<S, I> Family<S, I> {
    const fn of(
        kind: &'static str,
        name: &'static str,
        help: &'static str,
        field: fn(&S) -> &I,
    ) -> Self {
        Family {
            name,
            key: name,
            help,
            kind,
            field,
        }
    }

    const fn gauge(name: &'static str, help: &'static str, field: fn(&S) -> &I) -> Self {
        Self::of("gauge", name, help, field)
    }

    const fn counter(name: &'static str, help: &'static str, field: fn(&S) -> &I) -> Self {
        Self::of("counter", name, help, field)
    }

    const fn histogram(name: &'static str, help: &'static str, field: fn(&S) -> &I) -> Self {
        Self::of("histogram", name, help, field)
    }

    /// The same family under a JSON key of its own.
    const fn key(mut self, key: &'static str) -> Self {
        self.key = key;
        self
    }
}

/// Callback invoked synchronously for every structured event, in the
/// thread that emitted it (always a barrier/checkpoint context, never the
/// per-event hot path).
pub type EventCallback = Arc<dyn Fn(&TelemetryEvent) + Send + Sync>;

/// Session-wide instruments, all pre-registered at handle construction.
///
/// The quality gauges mirror the paper's runtime signals: the buffer size
/// K currently in force, the instant recall requirement Γ′ (Eq. 7), the
/// model-estimated and the windowed *observed* recall, and the fraction of
/// tuples dropped as hopelessly late.
#[derive(Debug, Default)]
pub struct SessionInstruments {
    /// Buffer size K currently in force, milliseconds (`mswj_k_ms`).
    pub k_ms: Gauge,
    /// Instant recall requirement Γ′ of the last adaptation
    /// (`mswj_gamma_prime`); `NaN` for non-adaptive policies.
    pub gamma_prime: Gauge,
    /// Model-estimated recall at the chosen K (`mswj_recall_estimated`);
    /// `NaN` for non-model policies.
    pub recall_estimated: Gauge,
    /// Observed recall over the monitor window `P − L`
    /// (`mswj_recall_observed`); `NaN` until the first checkpoint.
    pub recall_observed: Gauge,
    /// Fraction of join-stage arrivals dropped as too late
    /// (`mswj_drop_rate`).
    pub drop_rate: Gauge,
    /// Adaptation checkpoints taken so far (`mswj_checkpoints_total`).
    pub checkpoints: Counter,
    /// Arrival events ingested (`mswj_events_ingested_total`).
    pub events_ingested: Counter,
    /// Join results produced (`mswj_results_total`).
    pub results_emitted: Counter,
    /// Tuples dropped by the join stage (`mswj_dropped_total`).
    pub tuples_dropped: Counter,
    /// Raw K-slack tuple delays, milliseconds (`mswj_kslack_delay_ms`).
    pub kslack_delay_ms: Histogram,
    /// Wall-clock ingest→emit latency per driven batch, nanoseconds
    /// (`mswj_ingest_emit_latency_nanos`).
    pub ingest_emit_latency_nanos: Histogram,
}

/// The session gauges, in exposition order (as every table).
pub(crate) const SESSION_GAUGES: [Family<SessionInstruments, Gauge>; 5] = [
    Family::gauge(
        "mswj_k_ms",
        "Buffer size K currently in force, in milliseconds.",
        |s| &s.k_ms,
    ),
    Family::gauge(
        "mswj_gamma_prime",
        "Instant recall requirement Gamma' of the last adaptation (NaN for non-adaptive policies).",
        |s| &s.gamma_prime,
    ),
    Family::gauge(
        "mswj_recall_estimated",
        "Model-estimated recall at the chosen K (NaN for non-model policies).",
        |s| &s.recall_estimated,
    ),
    Family::gauge(
        "mswj_recall_observed",
        "Observed recall over the sliding monitor window P - L (NaN before the first checkpoint).",
        |s| &s.recall_observed,
    ),
    Family::gauge(
        "mswj_drop_rate",
        "Fraction of join-stage arrivals dropped as too late.",
        |s| &s.drop_rate,
    ),
];

/// The session counters.
pub(crate) const SESSION_COUNTERS: [Family<SessionInstruments, Counter>; 4] = [
    Family::counter(
        "mswj_checkpoints_total",
        "Adaptation checkpoints taken.",
        |s| &s.checkpoints,
    ),
    Family::counter(
        "mswj_events_ingested_total",
        "Arrival events ingested by the pipeline.",
        |s| &s.events_ingested,
    ),
    Family::counter("mswj_results_total", "Join results produced.", |s| {
        &s.results_emitted
    }),
    Family::counter(
        "mswj_dropped_total",
        "Tuples dropped by the join stage as hopelessly late.",
        |s| &s.tuples_dropped,
    ),
];

/// The session histograms.
pub(crate) const SESSION_HISTOGRAMS: [Family<SessionInstruments, Histogram>; 2] = [
    Family::histogram(
        "mswj_kslack_delay_ms",
        "Raw K-slack tuple delays, in milliseconds.",
        |s| &s.kslack_delay_ms,
    ),
    Family::histogram(
        "mswj_ingest_emit_latency_nanos",
        "Wall-clock ingest-to-emit latency per driven batch, in nanoseconds.",
        |s| &s.ingest_emit_latency_nanos,
    ),
];

/// Per-shard instruments, registered when telemetry is attached to an
/// engine (or a shard server connection comes up).  All values are
/// republished at idle barriers and checkpoints from the shard's runtime
/// counters, by the same publisher on both sides of the wire — the shard
/// hot loops never touch them.
#[derive(Debug, Default)]
pub struct ShardInstruments {
    /// Lifetime high-water mark of the shard's work queue: the most items
    /// one epoch ever staged for it (`mswj_shard_queue_depth`).
    pub queue_depth: Gauge,
    /// Fraction of wall time this shard's executor spent busy since the
    /// previous publish (`mswj_shard_busy_share`).
    pub busy_share: Gauge,
    /// Estimated live window bytes held by the shard
    /// (`mswj_shard_window_bytes`).
    pub window_bytes: Gauge,
    /// Columnar storage segments held by the shard
    /// (`mswj_shard_window_segments`).
    pub window_segments: Gauge,
    /// Tuples routed to the shard so far, exported as a counter
    /// (`mswj_shard_routed_total`).
    pub routed: Gauge,
    /// Epochs the shard has executed, exported as a counter
    /// (`mswj_shard_epochs_total`).
    pub epochs_executed: Gauge,
    /// Wire frames sent to a remote shard (`mswj_shard_frames_sent`).
    pub frames_sent: Gauge,
    /// Wire frames received from a remote shard
    /// (`mswj_shard_frames_received`).
    pub frames_received: Gauge,
    /// Wire bytes sent to a remote shard (`mswj_shard_bytes_sent`).
    pub bytes_sent: Gauge,
    /// Wire bytes received from a remote shard
    /// (`mswj_shard_bytes_received`).
    pub bytes_received: Gauge,
    /// Mean request→reply round-trip time per epoch of the shard link,
    /// nanoseconds: cumulative epoch round-trip time over epochs executed,
    /// 0 before the first epoch (`mswj_shard_rtt_nanos`).
    pub rtt_nanos: Gauge,
}

/// A per-shard family: exported with a `shard` label; in JSON, one object
/// per shard, keyed by the instrument's field name.
type ShardFamily = Family<ShardInstruments, Gauge>;

/// The per-shard gauges; the two lifetime counts among them are typed
/// `counter`, as their `_total` names promise.
pub(crate) const SHARD_GAUGES: [ShardFamily; 11] = [
    ShardFamily::gauge(
        "mswj_shard_queue_depth",
        "High-water pending-epoch queue depth of the shard.",
        |s| &s.queue_depth,
    )
    .key("queue_depth"),
    ShardFamily::gauge(
        "mswj_shard_busy_share",
        "Fraction of wall time the shard executor was busy since the previous publish.",
        |s| &s.busy_share,
    )
    .key("busy_share"),
    ShardFamily::gauge(
        "mswj_shard_window_bytes",
        "Estimated live window bytes held by the shard.",
        |s| &s.window_bytes,
    )
    .key("window_bytes"),
    ShardFamily::gauge(
        "mswj_shard_window_segments",
        "Columnar storage segments held by the shard.",
        |s| &s.window_segments,
    )
    .key("window_segments"),
    ShardFamily::counter(
        "mswj_shard_routed_total",
        "Tuples routed to the shard so far.",
        |s| &s.routed,
    )
    .key("routed"),
    ShardFamily::counter(
        "mswj_shard_epochs_total",
        "Epochs the shard has executed.",
        |s| &s.epochs_executed,
    )
    .key("epochs_executed"),
    ShardFamily::gauge(
        "mswj_shard_frames_sent",
        "Wire frames sent to the remote shard.",
        |s| &s.frames_sent,
    )
    .key("frames_sent"),
    ShardFamily::gauge(
        "mswj_shard_frames_received",
        "Wire frames received from the remote shard.",
        |s| &s.frames_received,
    )
    .key("frames_received"),
    ShardFamily::gauge(
        "mswj_shard_bytes_sent",
        "Wire bytes sent to the remote shard.",
        |s| &s.bytes_sent,
    )
    .key("bytes_sent"),
    ShardFamily::gauge(
        "mswj_shard_bytes_received",
        "Wire bytes received from the remote shard.",
        |s| &s.bytes_received,
    )
    .key("bytes_received"),
    ShardFamily::gauge(
        "mswj_shard_rtt_nanos",
        "Mean request-reply round-trip time per epoch of the shard link, in nanoseconds (0 before the first epoch).",
        |s| &s.rtt_nanos,
    )
    .key("rtt_nanos"),
];

/// The event ring's fill level, exported as a Prometheus gauge only.
pub(crate) const EVENTS_BUFFERED: Family<Telemetry, EventRing> = Family::gauge(
    "mswj_events_buffered",
    "Structured events currently retained in the bounded ring.",
    |t| &t.inner.events,
);

pub(crate) struct Inner {
    pub(crate) session: SessionInstruments,
    pub(crate) shards: Mutex<Vec<Arc<ShardInstruments>>>,
    pub(crate) events: EventRing,
    pub(crate) on_event: Mutex<Option<EventCallback>>,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("session", &self.session)
            .field("shards", &lock(&self.shards).len())
            .field("buffered_events", &self.events.len())
            .finish_non_exhaustive()
    }
}

impl Default for Inner {
    /// A fresh registry: every instrument zero, except the quality gauges
    /// that are `NaN` until a checkpoint (or a policy that has them) sets
    /// them.
    fn default() -> Self {
        let s = SessionInstruments::default();
        for unknown in [&s.gamma_prime, &s.recall_estimated, &s.recall_observed] {
            unknown.set(f64::NAN);
        }
        Inner {
            session: s,
            shards: Mutex::default(),
            events: EventRing::default(),
            on_event: Mutex::default(),
        }
    }
}

/// Locks a registry mutex, shrugging off poisoning: every value behind one
/// stays valid if a holder panicked.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// The shared telemetry handle.
///
/// Cheap to clone (an `Arc`); every component of a session — builder,
/// pipeline, engine, transport, exporter — holds the same registry.
/// Telemetry is strictly observational: nothing read from or written to a
/// handle feeds back into join results, adaptation decisions, or the
/// sequential-equivalent merge order.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Telemetry {
    /// Creates a fresh registry with every session instrument
    /// pre-registered: zero, or `NaN` for the three quality gauges that
    /// have no value before the first checkpoint.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// The session-wide instruments.
    pub fn session(&self) -> &SessionInstruments {
        &self.inner.session
    }

    /// The instrument scope of shard `index`, registering it (and any
    /// missing lower-indexed scopes) on first use.  The returned `Arc`
    /// can be stored and updated without further locking.
    pub fn shard(&self, index: usize) -> Arc<ShardInstruments> {
        let mut shards = lock(&self.inner.shards);
        while shards.len() <= index {
            shards.push(Arc::new(ShardInstruments::default()));
        }
        Arc::clone(&shards[index])
    }

    pub(crate) fn shards_snapshot(&self) -> Vec<Arc<ShardInstruments>> {
        lock(&self.inner.shards).clone()
    }

    /// Installs (or replaces) the synchronous event callback.
    pub fn set_event_callback(&self, callback: EventCallback) {
        *lock(&self.inner.on_event) = Some(callback);
    }

    /// Pushes a structured event into the bounded ring and invokes the
    /// callback, if one is installed.  Called from barrier/checkpoint
    /// contexts only — it locks and may allocate.
    pub fn emit(&self, event: TelemetryEvent) {
        let callback = lock(&self.inner.on_event).clone();
        if let Some(cb) = callback {
            cb(&event);
        }
        self.inner.events.push(event);
    }

    /// The retained recent events, oldest first.
    pub fn recent_events(&self) -> Vec<TelemetryEvent> {
        self.inner.events.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn shard_scopes_register_on_demand_and_are_shared() {
        let t = Telemetry::new();
        assert_eq!(t.shards_snapshot().len(), 0);
        let s2 = t.shard(2);
        assert_eq!(t.shards_snapshot().len(), 3);
        s2.queue_depth.set(7.0);
        // The same scope is returned on re-request, across clones.
        assert_eq!(t.clone().shard(2).queue_depth.get(), 7.0);
    }

    #[test]
    fn emit_invokes_the_callback_and_buffers() {
        let t = Telemetry::new();
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        t.set_event_callback(Arc::new(move |ev| {
            assert_eq!(ev.kind, EventKind::Checkpoint);
            seen2.fetch_add(1, Ordering::SeqCst);
        }));
        t.emit(TelemetryEvent {
            at_ms: 42,
            kind: EventKind::Checkpoint,
            message: "checkpoint at 42 ms: K = 250 ms".into(),
        });
        assert_eq!(seen.load(Ordering::SeqCst), 1);
        assert_eq!(t.recent_events().len(), 1);
        assert_eq!(t.recent_events()[0].at_ms, 42);
    }
}
